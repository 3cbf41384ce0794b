// Micro-kernel benchmarks (google-benchmark): the primitive operations
// of the stack — popcount strategies, the fused AND+BitCount kernel,
// valid-pair merge enumeration, cache access, and the functional PIM
// AND op.
#include <benchmark/benchmark.h>

#include <vector>

#include "arch/slice_cache.h"
#include "bitmatrix/kernel_backend.h"
#include "bitmatrix/popcount.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/generators.h"
#include "pim/bit_counter.h"
#include "pim/computational_array.h"
#include "util/rng.h"

namespace {

using namespace tcim;

std::vector<std::uint64_t> RandomWords(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> words(n);
  for (auto& w : words) w = rng();
  return words;
}

void BM_Popcount(benchmark::State& state) {
  const auto kind = static_cast<bit::PopcountKind>(state.range(0));
  const auto words = RandomWords(4096, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bit::PopcountWords(words, kind));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096 * 8);
}
BENCHMARK(BM_Popcount)
    ->Arg(static_cast<int>(bit::PopcountKind::kBuiltin))
    ->Arg(static_cast<int>(bit::PopcountKind::kSwar))
    ->Arg(static_cast<int>(bit::PopcountKind::kLut8))
    ->Arg(static_cast<int>(bit::PopcountKind::kLut16));

void BM_AndPopcountFused(benchmark::State& state) {
  const auto a = RandomWords(4096, 2);
  const auto b = RandomWords(4096, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bit::AndPopcount(a, b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          4096 * 16);
}
BENCHMARK(BM_AndPopcountFused);

void BM_AndPopcountBackend(benchmark::State& state) {
  const auto backend = static_cast<bit::KernelBackend>(state.range(0));
  if (!bit::BackendSupported(backend)) {
    state.SkipWithError("backend not supported on this machine");
    return;
  }
  const std::size_t words = static_cast<std::size_t>(state.range(1));
  const auto a = RandomWords(words, 2);
  const auto b = RandomWords(words, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bit::AndPopcountBackend(a, b, backend));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(words) * 16);
  state.SetLabel(bit::ToString(backend));
}
BENCHMARK(BM_AndPopcountBackend)
    ->ArgsProduct({{static_cast<int>(bit::KernelBackend::kScalar),
                    static_cast<int>(bit::KernelBackend::kAvx2),
                    static_cast<int>(bit::KernelBackend::kAvx512Vpopcnt),
                    static_cast<int>(bit::KernelBackend::kNeon)},
                   {8, 512, 65536}});

void BM_HardwareBitCounterModel(benchmark::State& state) {
  const auto words = RandomWords(4096, 4);
  pim::BitCounter counter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(counter.FeedWords(words));
  }
}
BENCHMARK(BM_HardwareBitCounterModel);

void BM_ValidPairMerge(benchmark::State& state) {
  const graph::Graph g =
      graph::Rmat(1 << 14, 120000, graph::RmatParams{}, 5);
  const bit::SlicedMatrix m =
      core::BuildSlicedMatrix(g, graph::Orientation::kUpper, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.AndPopcountAllEdges());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_ValidPairMerge);

// LRU lookups on full sets in the paper's 16 MB geometry (4096 sets):
// each set is filled first, then tags are drawn from twice its
// associativity, so about half the lookups hit and the rest exchange.
// Arg = associativity: 16, or 340 (the 16 MB array's ways under the
// index-overhead capacity model), where a lookup scans a full set.
void BM_SliceCacheAccess(benchmark::State& state) {
  constexpr std::uint64_t kSets = 4096;
  const auto ways = static_cast<std::uint32_t>(state.range(0));
  arch::SliceCache cache(kSets, ways, arch::ReplacementPolicy::kLru);
  for (std::uint64_t set = 0; set < kSets; ++set) {
    for (std::uint32_t tag = 0; tag < ways; ++tag) {
      (void)cache.Access(set, tag);
    }
  }
  util::Xoshiro256 rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.Access(rng.UniformBelow(kSets), rng.UniformBelow(2 * ways)));
  }
}
BENCHMARK(BM_SliceCacheAccess)->Arg(16)->Arg(340);

void BM_PimArrayAnd(benchmark::State& state) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  const pim::SliceAddr a{.subarray = 0, .row = 0, .col_group = 0};
  const pim::SliceAddr b{.subarray = 0, .row = 1, .col_group = 0};
  array.WriteSlice(a, std::vector<std::uint64_t>{0xDEADBEEFULL});
  array.WriteSlice(b, std::vector<std::uint64_t>{0xC0FFEEULL});
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.AndPopcount(a, b));
  }
}
BENCHMARK(BM_PimArrayAnd);

void BM_SliceCompression(benchmark::State& state) {
  const graph::Graph g =
      graph::HolmeKim(20000, 140000, 0.6, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::BuildSlicedMatrix(g, graph::Orientation::kUpper, 64));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_edges()));
}
BENCHMARK(BM_SliceCompression);

}  // namespace

BENCHMARK_MAIN();
