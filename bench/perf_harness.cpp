// Kernel-backend perf-regression harness.
//
// Sweeps every supported KernelBackend over (a) raw AND+popcount span
// throughput and (b) the end-to-end Eq. (5) pass (AndPopcountAllEdges)
// on the Table II dataset stand-ins — the adaptive pass (zero-copy
// descriptors, or the direct per-pair loop where ChooseDirectPairLoop
// picks it) against the legacy dispatch-per-slice-pair formulation, so
// the one route choice the pass makes stays measured. Part (c)
// measures the load-time relabeling choice (graph::ChooseRelabeling):
// valid-slice counts under the chosen order vs the native ids, and vs
// an id-shuffled instance standing in for real SNAP labelings. Every
// count is cross-checked against the CPU baseline and the results
// land in a machine-readable BENCH_kernels.json (schema_version 5;
// see docs/KERNELS.md for the schema and the regression workflow).
// Every dump is stamped with run metadata — UTC date, compiler,
// TCIM_SCALE, active kernel backend — so archived JSONs stay
// attributable.
//
// Usage:
//   perf_harness [--out FILE] [--print-best] [--check]
//     --out FILE     JSON output path (default BENCH_kernels.json)
//     --print-best   print the widest supported backend name and exit
//                    (used by CI to build its forced-backend matrix)
//     --check        exit non-zero when any floor fails:
//                    * best backend >10% slower than scalar end-to-end
//                      on any dataset row (the dispatch-bound
//                      regression class this harness exists to catch);
//                    * the adaptive pass loses more than 5% to the
//                      per-edge dispatch loop on any row of the best
//                      backend (floor via TCIM_CHECK_BATCH_MIN,
//                      default 0.95);
//                    * a road-graph |S|=512 row where the adaptive
//                      pass drops below 0.97x of per-pair dispatch
//                      (the gather-bound regression class: a memcpy
//                      gather arena showed 19% there);
//                    * relabeling: the auto choice increases the
//                      valid-slice count of any dataset, or fails to
//                      reduce it on >= 6 of 9 id-shuffled instances.
//
// Knobs: TCIM_SCALE / TCIM_SEED / TCIM_DATA_DIR as in every bench,
// TCIM_CHECK_BATCH_MIN as above; TCIM_KERNEL has no effect here — the
// harness forces each backend explicitly.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bench_common.h"
#include "bitmatrix/kernel_backend.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/orientation.h"
#include "graph/relabel.h"
#include "obs/metrics.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace tcim;

struct ThroughputResult {
  bit::KernelBackend backend;
  std::size_t words = 0;
  double gbps = 0.0;
  double speedup_vs_scalar = 1.0;
};

struct BackendLatency {
  bit::KernelBackend backend;
  double seconds = 0.0;            ///< adaptive hot path
  double per_edge_seconds = 0.0;   ///< legacy dispatch-per-slice-pair loop
  double speedup_vs_scalar = 1.0;  ///< adaptive vs adaptive-scalar
  double adaptive_speedup = 1.0;   ///< per_edge / adaptive (paired)
};

struct EndToEndResult {
  std::string dataset;
  std::uint32_t slice_bits = 64;
  std::uint64_t triangles = 0;
  bool verified = false;
  /// Where the adaptive pass routed this row's pairs (backend-
  /// independent: a function of slice width and the stores).
  bit::PairPathCounters paths;
  std::vector<BackendLatency> backends;

  /// The row's route, by pair count.
  [[nodiscard]] std::string Route() const {
    return paths.zero_copy_pairs >= paths.per_pair_pairs ? "zerocopy"
                                                         : "direct";
  }
};

/// Load-time relabeling measurement of one dataset (|S| = 64 valid
/// slices, kUpper orientation): what ChooseRelabeling(kAuto) picked on
/// the native ids, and what it recovers from an id-shuffled instance
/// (the stand-in for real SNAP labelings, which arrive arbitrary).
struct RelabelRow {
  std::string dataset;
  graph::RelabelMode applied = graph::RelabelMode::kNone;
  std::uint64_t identity_nvs = 0;
  std::uint64_t chosen_nvs = 0;
  graph::RelabelMode shuffled_applied = graph::RelabelMode::kNone;
  std::uint64_t shuffled_nvs = 0;
  std::uint64_t shuffled_chosen_nvs = 0;

  [[nodiscard]] double NativeRatio() const {
    return identity_nvs == 0 ? 1.0
                             : static_cast<double>(chosen_nvs) /
                                   static_cast<double>(identity_nvs);
  }
  [[nodiscard]] double ShuffledRatio() const {
    return shuffled_nvs == 0 ? 1.0
                             : static_cast<double>(shuffled_chosen_nvs) /
                                   static_cast<double>(shuffled_nvs);
  }
};

/// ChooseRelabeling on the native ids and on a deterministic
/// id-shuffle of the same graph.
RelabelRow MeasureRelabel(const graph::DatasetInstance& inst) {
  RelabelRow row;
  row.dataset = graph::GetPaperRef(inst.id).name;
  const graph::RelabelChoice native =
      graph::ChooseRelabeling(inst.graph, graph::RelabelMode::kAuto, 64);
  row.applied = native.applied;
  row.identity_nvs = native.identity_valid_slices;
  row.chosen_nvs = native.chosen_valid_slices;

  const graph::VertexId n = inst.graph.num_vertices();
  std::vector<graph::VertexId> order(n);
  for (graph::VertexId v = 0; v < n; ++v) order[v] = v;
  util::Xoshiro256 rng(util::BaseSeed() ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformBelow(i)]);
  }
  graph::VertexRelabeling perm;
  for (const graph::VertexId v : order) (void)perm.ToInternal(v);
  const graph::Graph shuffled = perm.Apply(inst.graph);
  const graph::RelabelChoice recovered =
      graph::ChooseRelabeling(shuffled, graph::RelabelMode::kAuto, 64);
  row.shuffled_applied = recovered.applied;
  row.shuffled_nvs = recovered.identity_valid_slices;
  row.shuffled_chosen_nvs = recovered.chosen_valid_slices;
  return row;
}

/// The dispatch-per-slice-pair formulation the gathered kernel
/// replaced (one AndPopcount call per valid pair): kept here as the
/// measured counterfactual behind the JSON's adaptive_speedup column.
std::uint64_t PerEdgeAndPopcountAllEdges(const bit::SlicedMatrix& matrix) {
  std::uint64_t total = 0;
  const std::uint32_t n = matrix.num_vertices();
  const bit::SlicedStore& rows = matrix.rows();
  const bit::SlicedStore& cols = matrix.cols();
  for (std::uint32_t i = 0; i < n; ++i) {
    rows.ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      matrix.ForEachValidPair(
          i, j, [&](std::uint32_t /*slice*/, std::size_t ra, std::size_t cb) {
            total += bit::AndPopcount(rows.SliceWords(i, ra),
                                      cols.SliceWords(j, cb));
          });
    });
  }
  return total;
}

/// One measurement cell (see MeasureEndToEnd). Every cell of a dataset
/// row is measured once per ROUND, in shuffled order, so each round's
/// samples share the same frequency/cache/ambient-load conditions:
/// the ratio columns are then computed as medians of *per-round paired
/// ratios*, which cancels round-common drift — the |S|=64 rows are
/// decided by 1–3% margins, where independently-sampled minima lie.
struct CellSamples {
  std::vector<double> rounds;
  double accumulated = 0.0;

  template <typename Fn>
  void Measure(Fn&& fn) {
    util::Timer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    accumulated += s;
    rounds.push_back(s);
  }
  [[nodiscard]] double Best() const {
    double best = 0.0;
    for (std::size_t i = 0; i < rounds.size(); ++i) {
      if (i == 0 || rounds[i] < best) best = rounds[i];
    }
    return best;
  }
  /// Enough data: >= 15 rounds and >= min_total seconds accumulated
  /// (small datasets finish in ~1 ms, where a fixed best-of-N is pure
  /// scheduler noise), capped at 200 rounds.
  [[nodiscard]] bool Done(double min_total = 0.12) const {
    return rounds.size() >= 200 ||
           (rounds.size() >= 15 && accumulated >= min_total);
  }
};

double Median(std::vector<double> values) {
  if (values.empty()) return 1.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 != 0 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Median over rounds of numerator[r] / denominator[r] — the paired
/// drift-immune ratio estimator behind every speedup column.
double PairedRatio(const std::vector<double>& num,
                   const std::vector<double>& den) {
  std::vector<double> ratios;
  const std::size_t n = std::min(num.size(), den.size());
  for (std::size_t r = 0; r < n; ++r) {
    if (den[r] > 0) ratios.push_back(num[r] / den[r]);
  }
  return Median(std::move(ratios));
}

/// Raw span-kernel throughput at one span size; reps calibrated so
/// each backend runs >= ~0.2 s of kernel time.
std::vector<ThroughputResult> MeasureThroughputAt(std::size_t words) {
  util::Xoshiro256 rng(util::BaseSeed());
  std::vector<std::uint64_t> a(words);
  std::vector<std::uint64_t> b(words);
  for (auto& w : a) w = rng();
  for (auto& w : b) w = rng();

  const std::uint64_t expected =
      bit::AndPopcountBackend(a, b, bit::KernelBackend::kScalar);

  std::vector<ThroughputResult> results;
  double scalar_gbps = 0.0;
  for (const bit::KernelBackend backend : bit::SupportedKernelBackends()) {
    // Calibrate: time one pass, then pick reps for ~0.2 s total.
    util::Timer calibrate;
    std::uint64_t count = bit::AndPopcountBackend(a, b, backend);
    const double once = std::max(calibrate.ElapsedSeconds(), 1e-9);
    if (count != expected) {
      std::cerr << "FATAL: backend " << bit::ToString(backend)
                << " disagrees with scalar on the throughput input\n";
      std::exit(1);
    }
    const int reps =
        static_cast<int>(std::max(1.0, std::min(2e6, 0.2 / once)));
    util::Timer timer;
    std::uint64_t sink = 0;
    for (int r = 0; r < reps; ++r) {
      sink += bit::AndPopcountBackend(a, b, backend);
    }
    const double seconds = timer.ElapsedSeconds();
    if (sink != expected * static_cast<std::uint64_t>(reps)) {
      std::cerr << "FATAL: backend " << bit::ToString(backend)
                << " non-deterministic across repetitions\n";
      std::exit(1);
    }
    // Two input streams of `words` 64-bit words per call.
    const double bytes = 2.0 * 8.0 * static_cast<double>(words) * reps;
    ThroughputResult r;
    r.backend = backend;
    r.words = words;
    r.gbps = bytes / seconds / 1e9;
    if (backend == bit::KernelBackend::kScalar) scalar_gbps = r.gbps;
    results.push_back(r);
  }
  for (auto& r : results) {
    r.speedup_vs_scalar = scalar_gbps > 0 ? r.gbps / scalar_gbps : 1.0;
  }
  return results;
}

/// Two span sizes: 2 Ki words keeps both streams L1-resident (pure
/// kernel speed), 64 Ki words spills to L2/L3 (bulk-bitwise regime of
/// a whole-store PopcountWords pass).
std::vector<ThroughputResult> MeasureThroughput() {
  std::vector<ThroughputResult> all;
  for (const std::size_t words : {std::size_t{1} << 11, std::size_t{1} << 16}) {
    const auto at = MeasureThroughputAt(words);
    all.insert(all.end(), at.begin(), at.end());
  }
  return all;
}

/// End-to-end Eq. (5) pass per backend on one dataset at one slice
/// width; the count is cross-checked against the CPU baseline once.
EndToEndResult MeasureEndToEnd(const graph::DatasetInstance& inst,
                               std::uint32_t slice_bits,
                               std::uint64_t cpu_triangles) {
  EndToEndResult result;
  result.dataset = graph::GetPaperRef(inst.id).name;
  result.slice_bits = slice_bits;

  const bit::SlicedMatrix matrix = core::BuildSlicedMatrix(
      inst.graph, graph::Orientation::kUpper, slice_bits);

  // One instrumented pass records where the adaptive pass routes this
  // row's pairs (backend-independent).
  (void)matrix.AndPopcountAllEdges(bit::PopcountKind::kBuiltin,
                                   &result.paths);

  const bit::KernelBackend saved = bit::ActiveBackend();
  const std::span<const bit::KernelBackend> backends =
      bit::SupportedKernelBackends();
  std::vector<CellSamples> adaptive(backends.size());
  std::vector<CellSamples> per_edge(backends.size());
  std::vector<std::uint64_t> counts(backends.size(), 0);
  std::size_t scalar_index = 0;

  // Every cell is measured once per round (in shuffled order, so a
  // periodic background disturbance cannot systematically land on the
  // same cell) until ALL cells have enough data — keeping the rounds
  // aligned is what makes the paired ratios below meaningful.
  std::vector<std::size_t> order(backends.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    order[k] = k;
    if (backends[k] == bit::KernelBackend::kScalar) scalar_index = k;
  }
  // vs-scalar ratios come from *adjacent* A/B pairs: a scalar adaptive
  // pass runs immediately before each non-scalar backend's pass, so
  // the two samples of one ratio share machine conditions as closely
  // as the hardware allows.
  std::vector<std::vector<double>> vs_scalar(backends.size());
  util::Xoshiro256 order_rng(util::BaseSeed() ^ (slice_bits * 2654435761ULL));
  for (bool all_done = false; !all_done;) {
    all_done = true;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.UniformBelow(i)]);
    }
    for (const std::size_t k : order) {
      // The per-edge sample goes first, right after the previous
      // cell's gathered pass. On cache-resident |S|=512 rows each
      // sample is sensitive (~10% on the road rows at TCIM_SCALE=0.05)
      // to which pass ran just before it; this order keeps the
      // predecessor each sample had while the harness also timed the
      // now-deleted forced routes: a gathered pass before per-edge,
      // the scalar companion before adaptive.
      bit::SetActiveBackend(backends[k]);
      std::uint64_t count_per_edge = 0;
      per_edge[k].Measure(
          [&] { count_per_edge = PerEdgeAndPopcountAllEdges(matrix); });
      // The companion sample feeds ONLY the vs-scalar ratio — it is
      // kept out of scalar's own cell so that cell's Best()/pairing
      // stays sampled identically to every other backend's.
      double scalar_companion = 0.0;
      if (k != scalar_index) {
        bit::SetActiveBackend(bit::KernelBackend::kScalar);
        util::Timer companion_timer;
        counts[scalar_index] = matrix.AndPopcountAllEdges();
        scalar_companion = companion_timer.ElapsedSeconds();
      }
      bit::SetActiveBackend(backends[k]);
      adaptive[k].Measure([&] { counts[k] = matrix.AndPopcountAllEdges(); });
      if (k != scalar_index) {
        vs_scalar[k].push_back(scalar_companion / adaptive[k].rounds.back());
      }
      if (count_per_edge != counts[k]) {
        std::cerr << "FATAL: backend " << bit::ToString(backends[k])
                  << " per-edge count diverges on " << result.dataset
                  << "\n";
        std::exit(1);
      }
      all_done = all_done && adaptive[k].Done() && per_edge[k].Done();
    }
  }
  bit::SetActiveBackend(saved);

  for (std::size_t k = 0; k < backends.size(); ++k) {
    const std::uint64_t triangles =
        counts[k] / graph::CountMultiplier(graph::Orientation::kUpper);
    if (result.backends.empty()) {
      result.triangles = triangles;
      result.verified = triangles == cpu_triangles;
    } else if (triangles != result.triangles) {
      std::cerr << "FATAL: backend " << bit::ToString(backends[k])
                << " count diverges on " << result.dataset << "\n";
      std::exit(1);
    }
    BackendLatency lat;
    lat.backend = backends[k];
    lat.seconds = adaptive[k].Best();
    lat.per_edge_seconds = per_edge[k].Best();
    // Ratios are medians of paired comparisons, not ratios of
    // independently-sampled minima: both samples of a pair ran
    // back-to-back, so common drift cancels.
    lat.adaptive_speedup =
        PairedRatio(per_edge[k].rounds, adaptive[k].rounds);
    lat.speedup_vs_scalar = k == scalar_index ? 1.0 : Median(vs_scalar[k]);
    result.backends.push_back(lat);
  }
  return result;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void WriteJson(const std::string& path,
               const std::vector<ThroughputResult>& throughput,
               const std::vector<EndToEndResult>& end_to_end,
               const std::vector<RelabelRow>& relabel) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "FATAL: cannot write " << path << "\n";
    std::exit(1);
  }
  os << "{\n";
  os << "  \"bench\": \"kernels\",\n";
  os << "  \"schema_version\": 5,\n";
  os << "  \"scale\": " << util::WorkloadScale(0.25) << ",\n";
  os << "  \"seed\": " << util::BaseSeed() << ",\n";
  // v3: run-attribution stamp (obs::CollectRunMetadata) + the backend
  // the host process actually ran with (TCIM_KERNEL-sensitive).
  os << "  \"run\": {" << obs::RunMetadataJsonFields()
     << ",\"kernel_backend\":\"" << bit::ToString(bit::ActiveBackend())
     << "\"},\n";
  os << "  \"machine\": {\n";
  os << "    \"compiled_backends\": [";
  bool first = true;
  for (const auto backend : bit::AllKernelBackends()) {
    if (!bit::BackendCompiledIn(backend)) continue;
    os << (first ? "" : ", ") << '"' << bit::ToString(backend) << '"';
    first = false;
  }
  os << "],\n    \"supported_backends\": [";
  first = true;
  for (const auto backend : bit::SupportedKernelBackends()) {
    os << (first ? "" : ", ") << '"' << bit::ToString(backend) << '"';
    first = false;
  }
  os << "],\n    \"best_backend\": \""
     << bit::ToString(bit::BestSupportedBackend()) << "\"\n  },\n";

  os << "  \"kernel_throughput\": [\n";
  for (std::size_t i = 0; i < throughput.size(); ++i) {
    const auto& r = throughput[i];
    os << "    {\"backend\": \"" << bit::ToString(r.backend)
       << "\", \"words\": " << r.words << ", \"gbps\": " << r.gbps
       << ", \"speedup_vs_scalar\": " << r.speedup_vs_scalar << "}"
       << (i + 1 < throughput.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  os << "  \"end_to_end\": [\n";
  for (std::size_t i = 0; i < end_to_end.size(); ++i) {
    const auto& e = end_to_end[i];
    os << "    {\"dataset\": \"" << JsonEscape(e.dataset)
       << "\", \"slice_bits\": " << e.slice_bits
       << ", \"triangles\": " << e.triangles
       << ", \"verified\": " << (e.verified ? "true" : "false")
       << ", \"route\": \"" << e.Route() << "\""
       << ", \"pairs\": {\"zerocopy\": " << e.paths.zero_copy_pairs
       << ", \"direct\": " << e.paths.per_pair_pairs << "}"
       << ", \"backends\": [";
    for (std::size_t j = 0; j < e.backends.size(); ++j) {
      const auto& lat = e.backends[j];
      os << (j == 0 ? "" : ", ") << "{\"backend\": \""
         << bit::ToString(lat.backend) << "\", \"seconds\": " << lat.seconds
         << ", \"per_edge_seconds\": " << lat.per_edge_seconds
         << ", \"adaptive_speedup\": " << lat.adaptive_speedup
         << ", \"auto_vs_best\": " << lat.adaptive_speedup
         << ", \"speedup_vs_scalar\": " << lat.speedup_vs_scalar << "}";
    }
    os << "]}" << (i + 1 < end_to_end.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // v4: load-time relabeling audit (NVS = valid slices at |S|=64).
  os << "  \"relabel\": [\n";
  for (std::size_t i = 0; i < relabel.size(); ++i) {
    const auto& r = relabel[i];
    os << "    {\"dataset\": \"" << JsonEscape(r.dataset)
       << "\", \"applied\": \"" << graph::ToString(r.applied)
       << "\", \"identity_valid_slices\": " << r.identity_nvs
       << ", \"chosen_valid_slices\": " << r.chosen_nvs
       << ", \"nvs_ratio\": " << r.NativeRatio()
       << ", \"shuffled_applied\": \""
       << graph::ToString(r.shuffled_applied)
       << "\", \"shuffled_valid_slices\": " << r.shuffled_nvs
       << ", \"shuffled_chosen_valid_slices\": " << r.shuffled_chosen_nvs
       << ", \"shuffled_nvs_ratio\": " << r.ShuffledRatio() << "}"
       << (i + 1 < relabel.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-best") {
      std::cout << bit::ToString(bit::BestSupportedBackend()) << "\n";
      return 0;
    }
    if (arg == "--check") {
      check = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: perf_harness [--out FILE] [--print-best] "
                   "[--check]\n";
      return 2;
    }
  }

  bench::PrintHeader("Kernel backends: Eq. (5) host hot-path sweep",
                     "Raw AND+popcount span throughput and end-to-end "
                     "AndPopcountAllEdges latency per SIMD backend\n"
                     "(adaptive pass vs the legacy dispatch-per-slice-pair "
                     "loop), every count cross-checked against the CPU "
                     "baseline.");

  std::cout << "Backends: compiled[";
  for (const auto backend : bit::AllKernelBackends()) {
    if (bit::BackendCompiledIn(backend)) {
      std::cout << " " << bit::ToString(backend);
    }
  }
  std::cout << " ]  supported[";
  for (const auto backend : bit::SupportedKernelBackends()) {
    std::cout << " " << bit::ToString(backend);
  }
  std::cout << " ]  best: " << bit::ToString(bit::BestSupportedBackend())
            << "\n\n";

  // --- Part A: raw kernel throughput -------------------------------------
  const std::vector<ThroughputResult> throughput = MeasureThroughput();
  {
    util::TablePrinter table(
        {"Backend", "Words/span", "GB/s", "Speedup vs scalar"},
        {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
         util::Align::kRight});
    for (const auto& r : throughput) {
      table.AddRow({bit::ToString(r.backend), std::to_string(r.words),
                    util::TablePrinter::Fixed(r.gbps, 2),
                    util::TablePrinter::Ratio(r.speedup_vs_scalar, 2)});
    }
    std::cout << "Span kernel, two input streams, bit-exact across "
                 "backends (2 Ki words: L1-resident; 64 Ki: L2+):\n";
    table.Print(std::cout);
    std::cout << "\n";
  }

  // --- Part B: end-to-end Eq. (5) pass ------------------------------------
  std::vector<EndToEndResult> end_to_end;
  std::vector<RelabelRow> relabel;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    const graph::DatasetInstance inst = bench::LoadDataset(ref.id);
    bench::PrintProvenance(std::cout, inst);
    const std::uint64_t cpu_triangles =
        baseline::CountTrianglesReference(inst.graph);
    // |S|=64 is the paper's default (1 word per slice AND: dispatch-
    // bound); |S|=512 gives the SIMD backends whole-vector slices.
    for (const std::uint32_t slice_bits : {64u, 512u}) {
      end_to_end.push_back(MeasureEndToEnd(inst, slice_bits, cpu_triangles));
      if (!end_to_end.back().verified) {
        std::cerr << "FATAL: " << ref.name << " |S|=" << slice_bits
                  << " count does not match the CPU baseline\n";
        return 1;
      }
    }
    relabel.push_back(MeasureRelabel(inst));
  }
  {
    std::vector<std::string> headers = {"Dataset", "|S|", "Triangles",
                                        "Verified"};
    std::vector<util::Align> aligns = {util::Align::kLeft, util::Align::kRight,
                                       util::Align::kRight,
                                       util::Align::kLeft};
    for (const auto backend : bit::SupportedKernelBackends()) {
      headers.push_back(std::string(bit::ToString(backend)) + " [ms]");
      aligns.push_back(util::Align::kRight);
    }
    headers.push_back("route");
    aligns.push_back(util::Align::kLeft);
    headers.push_back("vs per-edge");
    aligns.push_back(util::Align::kRight);
    util::TablePrinter table(headers, aligns);
    const bit::KernelBackend best_backend = bit::BestSupportedBackend();
    for (const auto& e : end_to_end) {
      std::vector<std::string> row = {
          e.dataset, std::to_string(e.slice_bits),
          util::TablePrinter::WithThousands(e.triangles),
          e.verified ? "yes" : "NO"};
      double best_adaptive_speedup = 1.0;
      for (const auto& lat : e.backends) {
        row.push_back(util::TablePrinter::Fixed(lat.seconds * 1e3, 2));
        if (lat.backend == best_backend) {
          best_adaptive_speedup = lat.adaptive_speedup;
        }
      }
      row.push_back(e.Route());
      row.push_back(util::TablePrinter::Ratio(best_adaptive_speedup, 2));
      table.AddRow(row);
    }
    std::cout << "\nEnd-to-end AndPopcountAllEdges (fastest of a timed "
                 "window, upper orientation, adaptive pass; last "
                 "columns: where the pass routed the row and adaptive vs "
                 "the dispatch-per-pair loop on the best backend):\n";
    table.Print(std::cout);
  }

  // --- Part C: load-time relabeling ---------------------------------------
  {
    util::TablePrinter table(
        {"Dataset", "Auto picks", "NVS ratio", "Shuffled picks",
         "NVS ratio (shuffled)"},
        {util::Align::kLeft, util::Align::kLeft, util::Align::kRight,
         util::Align::kLeft, util::Align::kRight});
    for (const auto& r : relabel) {
      table.AddRow({r.dataset, std::string(graph::ToString(r.applied)),
                    util::TablePrinter::Ratio(r.NativeRatio(), 3),
                    std::string(graph::ToString(r.shuffled_applied)),
                    util::TablePrinter::Ratio(r.ShuffledRatio(), 3)});
    }
    std::cout << "\nLoad-time relabeling (ChooseRelabeling auto, NVS = "
                 "valid slices at |S|=64; the shuffled columns measure the "
                 "recovery from arbitrary input ids, the regime real SNAP "
                 "files arrive in):\n";
    table.Print(std::cout);
  }

  WriteJson(out_path, throughput, end_to_end, relabel);
  std::cout << "\nWrote " << out_path << "\n";

  // Closing check mirrored by the JSON: the widest SIMD backend should
  // beat the scalar span kernel clearly, or something regressed.
  double best_simd = 1.0;
  for (const auto& r : throughput) {
    if (r.backend != bit::KernelBackend::kScalar) {
      best_simd = std::max(best_simd, r.speedup_vs_scalar);
    }
  }
  std::cout << "Best SIMD speedup vs scalar (span kernel): "
            << util::TablePrinter::Ratio(best_simd, 2)
            << (best_simd >= 2.0 ? "  [OK >= 2x]" : "  [WARN < 2x]") << "\n";

  if (check) {
    // The perf_smoke gates. Floor 1: with a shared gather cost the
    // widest backend can only lose to scalar through a dispatch-
    // granularity regression — the class of bug this harness exists
    // to catch. 10% allowance covers scheduler noise on shared
    // runners; a real regression (the schema-v1 seed showed up to
    // -20% at |S|=64) clears it easily.
    constexpr double kNoiseAllowance = 0.90;  // speedup floor
    // Floor 2: the adaptive pass must stay within TCIM_CHECK_BATCH_MIN
    // (default 0.95) of the per-edge dispatch loop on every row
    // (auto_vs_best) — a route that loses fails here even when the row
    // is still faster than scalar.
    const double batch_min =
        util::EnvDouble("TCIM_CHECK_BATCH_MIN", 0.95, 0.0, 10.0);
    const bit::KernelBackend best_backend = bit::BestSupportedBackend();
    int failures = 0;
    std::cout << "\n--check: end-to-end " << bit::ToString(best_backend)
              << " vs scalar, adaptive-pass floors (auto-vs-best >= "
              << util::TablePrinter::Ratio(batch_min, 2)
              << ", road |S|=512 adaptive >= 0.97x per-pair), relabeling\n";
    for (const auto& e : end_to_end) {
      double speedup = 1.0;
      double adaptive_speedup = 1.0;
      for (const auto& lat : e.backends) {
        if (lat.backend == best_backend) {
          speedup = lat.speedup_vs_scalar;
          adaptive_speedup = lat.adaptive_speedup;
        }
      }
      if (speedup < kNoiseAllowance) {
        ++failures;
        std::cout << "  FAIL " << e.dataset << " |S|=" << e.slice_bits << ": "
                  << bit::ToString(best_backend) << " at "
                  << util::TablePrinter::Ratio(speedup, 3)
                  << " vs scalar (paired-median end-to-end)\n";
      }
      if (adaptive_speedup < batch_min) {
        ++failures;
        std::cout << "  FAIL " << e.dataset << " |S|=" << e.slice_bits
                  << ": adaptive pass (" << e.Route() << ") at "
                  << util::TablePrinter::Ratio(adaptive_speedup, 3)
                  << " of the per-edge dispatch loop\n";
      }
      // The gather-bound regression class: sparse road rows at |S|=512
      // must not lose to per-pair dispatch. The adaptive gain on these
      // rows is modest (12–18% on the direct route at TCIM_SCALE=0.25,
      // near parity on the zero-copy route at small scale), so the
      // floor sits 3% under parity — far above the 19% regression a
      // memcpy gather arena showed here.
      constexpr double kRoadFloor = 0.97;
      if (e.dataset.rfind("roadNet", 0) == 0 && e.slice_bits == 512 &&
          adaptive_speedup < kRoadFloor) {
        ++failures;
        std::cout << "  FAIL " << e.dataset
                  << " |S|=512: adaptive pass at "
                  << util::TablePrinter::Ratio(adaptive_speedup, 3)
                  << " vs per-pair dispatch (gather-bound regression)\n";
      }
    }
    // Floor 3: relabeling. Auto must never pick a worse-than-identity
    // order (it scores identity too, so chosen <= identity by
    // construction — a violation means the NVS estimator broke), and
    // from arbitrary (shuffled) input ids it must recover a reduction
    // on at least 6 of the 9 datasets.
    int shuffled_reduced = 0;
    for (const auto& r : relabel) {
      if (r.chosen_nvs > r.identity_nvs) {
        ++failures;
        std::cout << "  FAIL " << r.dataset
                  << ": auto relabel increased valid slices ("
                  << r.identity_nvs << " -> " << r.chosen_nvs << ")\n";
      }
      if (r.ShuffledRatio() < 1.0) ++shuffled_reduced;
    }
    if (shuffled_reduced < 6 && relabel.size() >= 6) {
      ++failures;
      std::cout << "  FAIL relabeling: shuffled-id valid-slice reduction on "
                << shuffled_reduced << "/" << relabel.size()
                << " datasets (need >= 6)\n";
    }
    if (failures != 0) {
      std::cout << "perf_smoke: FAIL — " << failures << " floor "
                << "violation(s); see rows above\n";
      return 1;
    }
    std::cout << "perf_smoke: OK — " << bit::ToString(best_backend)
              << " never worse than scalar, adaptive pass within "
              << util::TablePrinter::Ratio(batch_min, 2)
              << " of best on all " << end_to_end.size()
              << " rows, roads >= per-pair at |S|=512, relabeling sound on "
              << relabel.size() << " datasets\n";
  }
  return 0;
}
