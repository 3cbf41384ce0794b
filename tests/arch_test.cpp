// Tests for the architecture layer: set-associative slice cache
// (policies, stats invariants), the slice mapper's physical
// consistency, the Algorithm-1 controller on known inputs, and the
// golden ExecStats of the 9 Table II stand-ins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "arch/controller.h"
#include "arch/mapper.h"
#include "arch/slice_cache.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "util/rng.h"

namespace tcim::arch {
namespace {

TEST(SliceCache, ColdMissesThenHits) {
  SliceCache cache(4, 2, ReplacementPolicy::kLru);
  EXPECT_FALSE(cache.Access(0, 100).hit);
  EXPECT_TRUE(cache.Access(0, 100).hit);
  EXPECT_FALSE(cache.Access(0, 200).hit);
  EXPECT_TRUE(cache.Access(0, 200).hit);
  EXPECT_EQ(cache.stats().lookups, 4u);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().exchanges, 0u);
}

TEST(SliceCache, LruEvictsLeastRecentlyUsed) {
  SliceCache cache(1, 2, ReplacementPolicy::kLru);
  (void)cache.Access(0, 1);  // miss, fill
  (void)cache.Access(0, 2);  // miss, fill
  (void)cache.Access(0, 1);  // hit: 1 is now MRU
  const AccessResult r = cache.Access(0, 3);  // must evict 2
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_tag, 2u);
  EXPECT_TRUE(cache.Contains(0, 1));
  EXPECT_TRUE(cache.Contains(0, 3));
  EXPECT_FALSE(cache.Contains(0, 2));
}

TEST(SliceCache, FifoEvictsOldestInsert) {
  SliceCache cache(1, 2, ReplacementPolicy::kFifo);
  (void)cache.Access(0, 1);
  (void)cache.Access(0, 2);
  (void)cache.Access(0, 1);  // hit does NOT refresh FIFO order
  const AccessResult r = cache.Access(0, 3);
  EXPECT_TRUE(r.evicted);
  EXPECT_EQ(r.evicted_tag, 1u);  // oldest insert, despite recent hit
}

TEST(SliceCache, RandomPolicyIsDeterministicPerSeed) {
  const auto run = [](std::uint64_t seed) {
    SliceCache cache(1, 4, ReplacementPolicy::kRandom, seed);
    util::Xoshiro256 rng(9);
    std::vector<std::uint64_t> evictions;
    for (int i = 0; i < 200; ++i) {
      const AccessResult r = cache.Access(0, rng.UniformBelow(32));
      if (r.evicted) evictions.push_back(r.evicted_tag);
    }
    return evictions;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST(SliceCache, SetsAreIndependent) {
  SliceCache cache(2, 1, ReplacementPolicy::kLru);
  (void)cache.Access(0, 7);
  (void)cache.Access(1, 7);
  EXPECT_TRUE(cache.Contains(0, 7));
  EXPECT_TRUE(cache.Contains(1, 7));
  (void)cache.Access(0, 8);  // evicts only in set 0
  EXPECT_FALSE(cache.Contains(0, 7));
  EXPECT_TRUE(cache.Contains(1, 7));
}

TEST(SliceCache, OccupancyNeverExceedsAssociativity) {
  SliceCache cache(4, 3, ReplacementPolicy::kLru);
  util::Xoshiro256 rng(10);
  for (int i = 0; i < 1000; ++i) {
    (void)cache.Access(rng.UniformBelow(4), rng.UniformBelow(100));
    for (std::uint64_t s = 0; s < 4; ++s) {
      ASSERT_LE(cache.Occupancy(s), 3u);
    }
  }
}

struct PolicyCase {
  ReplacementPolicy policy;
};

class CacheInvariantTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(CacheInvariantTest, StatsConservationUnderRandomWorkload) {
  SliceCache cache(8, 4, GetParam().policy, 3);
  util::Xoshiro256 rng(11);
  for (int i = 0; i < 5000; ++i) {
    (void)cache.Access(rng.UniformBelow(8), rng.UniformBelow(64));
  }
  const CacheStats& s = cache.stats();
  EXPECT_EQ(s.lookups, 5000u);
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_EQ(s.inserts, s.misses);
  EXPECT_LE(s.exchanges, s.misses);
  EXPECT_NEAR(s.HitRate() + s.ColdMissRate() + s.ExchangeRate(), 1.0,
              1e-12);
}

TEST_P(CacheInvariantTest, NoExchangesWhenWorkingSetFits) {
  SliceCache cache(2, 8, GetParam().policy, 3);
  util::Xoshiro256 rng(12);
  for (int i = 0; i < 2000; ++i) {
    // 8 distinct tags per set, capacity 8: never overflows.
    (void)cache.Access(rng.UniformBelow(2), rng.UniformBelow(8));
  }
  EXPECT_EQ(cache.stats().exchanges, 0u);
  // Each of the 16 (set, tag) pairs misses exactly once.
  EXPECT_EQ(cache.stats().misses, 16u);
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheInvariantTest,
                         ::testing::Values(PolicyCase{ReplacementPolicy::kLru},
                                           PolicyCase{ReplacementPolicy::kFifo},
                                           PolicyCase{
                                               ReplacementPolicy::kRandom}),
                         [](const auto& info) {
                           return ToString(info.param.policy);
                         });

TEST(SliceCache, LruBeatsRandomOnSkewedReuse) {
  // Zipf-ish stream: a hot set of tags reused heavily. LRU should keep
  // them; random eviction loses them regularly.
  const auto hit_rate = [](ReplacementPolicy policy) {
    SliceCache cache(1, 16, policy, 4);
    util::Xoshiro256 rng(13);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t tag = rng.Bernoulli(0.8)
                                    ? rng.UniformBelow(12)    // hot set
                                    : 12 + rng.UniformBelow(500);
      (void)cache.Access(0, tag);
    }
    return cache.stats().HitRate();
  };
  EXPECT_GT(hit_rate(ReplacementPolicy::kLru),
            hit_rate(ReplacementPolicy::kRandom));
}

TEST(SliceCache, RejectsDegenerateGeometry) {
  EXPECT_THROW(SliceCache(0, 1, ReplacementPolicy::kLru),
               std::invalid_argument);
  EXPECT_THROW(SliceCache(1, 0, ReplacementPolicy::kLru),
               std::invalid_argument);
  SliceCache cache(1, 1, ReplacementPolicy::kLru);
  EXPECT_THROW(cache.Access(1, 0), std::out_of_range);
  EXPECT_THROW((void)cache.Contains(1, 0), std::out_of_range);
}

// The parent model of SliceCache, kept as the equivalence oracle: every
// set value-initialises all of its ways, a lookup scans every way, a
// cold fill takes the lowest invalid way, and the LRU/FIFO victim is
// the argmin of a per-way clock stamp.
class ReferenceSliceCache {
 public:
  ReferenceSliceCache(std::uint64_t num_sets, std::uint32_t associativity,
                      ReplacementPolicy policy, std::uint64_t seed)
      : associativity_(associativity),
        policy_(policy),
        sets_(num_sets, std::vector<Way>(associativity)),
        rng_(seed) {}

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  AccessResult Access(std::uint64_t set, std::uint64_t tag) {
    return AccessImpl(set, tag, /*count_stats=*/true);
  }
  AccessResult Install(std::uint64_t set, std::uint64_t tag) {
    return AccessImpl(set, tag, /*count_stats=*/false);
  }
  [[nodiscard]] bool Contains(std::uint64_t set, std::uint64_t tag) const {
    for (const Way& way : sets_[set]) {
      if (way.valid && way.tag == tag) return true;
    }
    return false;
  }
  [[nodiscard]] std::uint32_t Occupancy(std::uint64_t set) const {
    std::uint32_t n = 0;
    for (const Way& way : sets_[set]) n += way.valid ? 1 : 0;
    return n;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t last_use = 0;
    std::uint64_t inserted = 0;
  };

  std::uint32_t PickVictim(const std::vector<Way>& ways) {
    std::uint32_t victim = 0;
    switch (policy_) {
      case ReplacementPolicy::kLru:
        for (std::uint32_t w = 1; w < associativity_; ++w) {
          if (ways[w].last_use < ways[victim].last_use) victim = w;
        }
        return victim;
      case ReplacementPolicy::kFifo:
        for (std::uint32_t w = 1; w < associativity_; ++w) {
          if (ways[w].inserted < ways[victim].inserted) victim = w;
        }
        return victim;
      case ReplacementPolicy::kRandom:
        return static_cast<std::uint32_t>(rng_.UniformBelow(associativity_));
    }
    return victim;
  }

  AccessResult AccessImpl(std::uint64_t set, std::uint64_t tag,
                          bool count_stats) {
    std::vector<Way>& ways = sets_[set];
    if (count_stats) ++stats_.lookups;
    ++clock_;
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      if (ways[w].valid && ways[w].tag == tag) {
        ways[w].last_use = clock_;
        if (count_stats) ++stats_.hits;
        return {.hit = true, .way = w, .evicted = false, .evicted_tag = 0};
      }
    }
    if (count_stats) {
      ++stats_.misses;
      ++stats_.inserts;
    }
    const Way fresh{.tag = tag, .valid = true, .last_use = clock_,
                    .inserted = clock_};
    for (std::uint32_t w = 0; w < associativity_; ++w) {
      if (!ways[w].valid) {
        ways[w] = fresh;
        return {.hit = false, .way = w, .evicted = false, .evicted_tag = 0};
      }
    }
    const std::uint32_t victim = PickVictim(ways);
    const std::uint64_t old_tag = ways[victim].tag;
    ways[victim] = fresh;
    if (count_stats) ++stats_.exchanges;
    return {.hit = false, .way = victim, .evicted = true,
            .evicted_tag = old_tag};
  }

  std::uint32_t associativity_;
  ReplacementPolicy policy_;
  std::vector<std::vector<Way>> sets_;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
  util::Xoshiro256 rng_;
};

void ExpectSameStats(const CacheStats& a, const CacheStats& b) {
  EXPECT_EQ(a.lookups, b.lookups);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.exchanges, b.exchanges);
  EXPECT_EQ(a.inserts, b.inserts);
}

class CacheEquivalenceTest : public ::testing::TestWithParam<PolicyCase> {};

TEST_P(CacheEquivalenceTest, MatchesTheReferenceModelOpForOp) {
  const ReplacementPolicy policy = GetParam().policy;
  util::Xoshiro256 rng(41);
  for (const std::uint64_t num_sets : {1u, 2u, 3u, 5u, 8u}) {
    for (const std::uint32_t ways : {1u, 2u, 3u, 4u, 7u, 16u, 17u}) {
      for (const std::uint64_t universe_factor : {2u, 3u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << num_sets << " sets x " << ways << " ways, universe "
                     << universe_factor << "x capacity");
        const std::uint64_t seed = rng();
        SliceCache cache(num_sets, ways, policy, seed);
        ReferenceSliceCache reference(num_sets, ways, policy, seed);
        const std::uint64_t universe = universe_factor * num_sets * ways;
        for (int op = 0; op < 1500; ++op) {
          const std::uint64_t set = rng.UniformBelow(num_sets);
          const std::uint64_t tag = rng.UniformBelow(universe);
          const bool install = rng.Bernoulli(0.15);
          const AccessResult got =
              install ? cache.Install(set, tag) : cache.Access(set, tag);
          const AccessResult want = install ? reference.Install(set, tag)
                                            : reference.Access(set, tag);
          ASSERT_EQ(got.hit, want.hit) << "op " << op;
          ASSERT_EQ(got.way, want.way) << "op " << op;
          ASSERT_EQ(got.evicted, want.evicted) << "op " << op;
          ASSERT_EQ(got.evicted_tag, want.evicted_tag) << "op " << op;
          ExpectSameStats(cache.stats(), reference.stats());
          const std::uint64_t probe = rng.UniformBelow(universe);
          for (const std::uint64_t t : {tag, got.evicted_tag, probe}) {
            ASSERT_EQ(cache.Contains(set, t), reference.Contains(set, t))
                << "op " << op << " tag " << t;
          }
          for (std::uint64_t s = 0; s < num_sets; ++s) {
            ASSERT_EQ(cache.Occupancy(s), reference.Occupancy(s))
                << "op " << op << " set " << s;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, CacheEquivalenceTest,
                         ::testing::Values(PolicyCase{ReplacementPolicy::kLru},
                                           PolicyCase{ReplacementPolicy::kFifo},
                                           PolicyCase{
                                               ReplacementPolicy::kRandom}),
                         [](const auto& info) {
                           return ToString(info.param.policy);
                         });

// --- mapper ----------------------------------------------------------------

TEST(SliceMapper, SetsCoverAllSubarrayColumnPairs) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  const SliceMapper mapper(config);
  EXPECT_EQ(mapper.num_sets(), config.total_subarrays() * 8);
  EXPECT_EQ(mapper.ways_per_set(), config.subarray_rows - 1);
}

TEST(SliceMapper, StagingAndWaysShareSetGeometry) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  const SliceMapper mapper(config);
  for (std::uint64_t set = 0; set < mapper.num_sets(); set += 17) {
    const pim::SliceAddr staging = mapper.StagingAddr(set);
    EXPECT_EQ(staging.row, 0u);
    for (std::uint32_t way = 0; way < 5; ++way) {
      const pim::SliceAddr w = mapper.WayAddr(set, way);
      // Same subarray + column group as staging: AND-compatible.
      EXPECT_EQ(w.subarray, staging.subarray);
      EXPECT_EQ(w.col_group, staging.col_group);
      EXPECT_EQ(w.row, way + 1);  // never collides with staging
    }
  }
}

TEST(SliceMapper, MinimalSpreadMapsSliceIndexToOneSet) {
  nvsim::ArrayConfig config;
  const SliceMapper mapper(config);
  for (std::uint32_t k = 0; k < 10000; k += 7) {
    // spread = 1: every column of slice index k lands in the same set.
    EXPECT_EQ(mapper.SetOf(k, 3, 1), k % mapper.num_sets());
    EXPECT_EQ(mapper.SetOf(k, 900, 1), mapper.SetOf(k, 17, 1));
  }
}

TEST(SliceMapper, SpreadFansColumnsAcrossSets) {
  nvsim::ArrayConfig config;
  const SliceMapper mapper(config);
  // Deterministic per (k, j)...
  EXPECT_EQ(mapper.SetOf(5, 123, 8), mapper.SetOf(5, 123, 8));
  // ...and distributing across `spread` distinct sets for one k.
  std::set<std::uint64_t> sets;
  for (std::uint32_t j = 0; j < 64; ++j) {
    sets.insert(mapper.SetOf(5, j, 8));
  }
  EXPECT_EQ(sets.size(), 8u);
}

TEST(SliceMapper, SpreadForFillsArray) {
  nvsim::ArrayConfig config;  // 16 MB -> 4096 sets
  const SliceMapper mapper(config);
  EXPECT_EQ(mapper.SpreadFor(4096), 1u);
  EXPECT_EQ(mapper.SpreadFor(10000), 1u);   // more indices than sets
  EXPECT_EQ(mapper.SpreadFor(64), 64u);     // small graph: fan out
  EXPECT_EQ(mapper.SpreadFor(0), 1u);       // degenerate
}

// --- controller -------------------------------------------------------------

bit::SlicedMatrix Fig2Matrix() {
  const std::vector<std::uint64_t> offsets = {0, 2, 4, 5, 5};
  const std::vector<std::uint32_t> neighbors = {1, 2, 2, 3, 3};
  return bit::SlicedMatrix::FromCsr(4, offsets, neighbors, 64);
}

TEST(Controller, Fig2WalkthroughCounts) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  ControllerConfig controller_config;
  controller_config.spread_override = 1;  // the paper's minimal mapping
  Controller controller(array, controller_config);
  const ExecStats stats = controller.Run(Fig2Matrix());

  EXPECT_EQ(stats.accumulated_bitcount, 2u);  // two triangles
  EXPECT_EQ(stats.edges_processed, 5u);
  EXPECT_EQ(stats.valid_pairs, 5u);  // all 5 non-zeros, single slice
  // Columns C1, C2, C3 loaded once each (misses), reused twice total:
  // C2 at step 3 and C3 at step 5 (paper Fig. 2 discussion).
  EXPECT_EQ(stats.col_slice_writes, 3u);
  EXPECT_EQ(stats.cache.hits, 2u);
  EXPECT_EQ(stats.cache.exchanges, 0u);
  // Rows R0, R1, R2 staged once each (n=4 -> one slice per row).
  EXPECT_EQ(stats.row_slice_writes, 3u);
}

TEST(Controller, Fig2CommandSequence) {
  // The paper's five-step walkthrough at array-command granularity:
  //   step 1: load R0, load C1, AND      step 4: load C3, AND
  //   step 2: load C2, AND               step 5: load R2, AND (C3 hit)
  //   step 3: load R1, AND (C2 hit)
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  array.EnableTrace(64);
  ControllerConfig cc;
  cc.spread_override = 1;
  Controller controller(array, cc);
  (void)controller.Run(Fig2Matrix());

  using Op = pim::TraceEntry::Op;
  std::vector<Op> ops;
  for (const pim::TraceEntry& e : array.trace()) ops.push_back(e.op);
  EXPECT_EQ(ops, (std::vector<Op>{
                     Op::kWrite, Op::kWrite, Op::kAnd,   // R0, C1, AND
                     Op::kWrite, Op::kAnd,               // C2, AND
                     Op::kWrite, Op::kAnd,               // R1, AND (C2 hit)
                     Op::kWrite, Op::kAnd,               // C3, AND
                     Op::kWrite, Op::kAnd}));            // R2, AND (C3 hit)
  EXPECT_FALSE(array.trace_truncated());
  // Every AND pairs the staging row (row 0) with a cache way.
  for (const pim::TraceEntry& e : array.trace()) {
    if (e.op == Op::kAnd) {
      EXPECT_EQ(e.a.row, 0u);
      EXPECT_GT(e.b.row, 0u);
      EXPECT_EQ(e.a.subarray, e.b.subarray);
      EXPECT_EQ(e.a.col_group, e.b.col_group);
    }
  }
}

TEST(Controller, AccumulatorMatchesSoftwareEquation5) {
  util::Xoshiro256 rng(21);
  // Random upper-triangular CSR over 300 vertices.
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 300; ++i) {
    for (std::uint32_t j = i + 1; j < 300; ++j) {
      if (rng.Bernoulli(0.05)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(300, offsets, neighbors, 64);

  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});
  const ExecStats stats = controller.Run(matrix);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, StatsConservationLaws) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});

  util::Xoshiro256 rng(22);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 500; ++i) {
    for (std::uint32_t j = i + 1; j < 500; ++j) {
      if (rng.Bernoulli(0.02)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(500, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);

  EXPECT_EQ(stats.cache.lookups, stats.valid_pairs);
  EXPECT_EQ(stats.col_slice_writes, stats.cache.misses);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, stats.cache.lookups);
  EXPECT_EQ(array.counts().ands, stats.valid_pairs);
  EXPECT_EQ(array.counts().writes, stats.TotalWrites());
  // Per-subarray counts sum to totals.
  std::uint64_t and_sum = 0;
  for (const auto a : stats.per_subarray_ands) and_sum += a;
  EXPECT_EQ(and_sum, stats.valid_pairs);
  std::uint64_t write_sum = 0;
  for (const auto w : stats.per_subarray_writes) write_sum += w;
  EXPECT_EQ(write_sum, stats.TotalWrites());
  // Row staging writes: at least one per touched row slice, at most
  // one per valid pair (full spread replication).
  EXPECT_LE(stats.row_slice_writes, stats.valid_pairs);
  EXPECT_GE(stats.spread, 1u);
}

TEST(Controller, SpreadOneStagesOncePerRowSlice) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);
  ControllerConfig cc;
  cc.spread_override = 1;
  Controller controller(array, cc);

  util::Xoshiro256 rng(29);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 400; ++i) {
    for (std::uint32_t j = i + 1; j < 400; ++j) {
      if (rng.Bernoulli(0.03)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(400, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);
  // With spread 1 each row slice is staged at most once per row
  // iteration: bounded by the touched row slices.
  EXPECT_LE(stats.row_slice_writes, matrix.rows().valid_slice_count());
  EXPECT_EQ(stats.spread, 1u);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, AutoSpreadFillsSmallGraphIntoBigArray) {
  // 400-vertex graph: 7 slice indices; a 1 MB array has 256 sets.
  // Auto spread must exceed 1 and counts must be unchanged.
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray a1(config);
  pim::ComputationalArray a2(config);
  ControllerConfig auto_cfg;  // spread_override = 0
  ControllerConfig minimal;
  minimal.spread_override = 1;

  util::Xoshiro256 rng(30);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < 400; ++i) {
    for (std::uint32_t j = i + 1; j < 400; ++j) {
      if (rng.Bernoulli(0.05)) neighbors.push_back(j);
    }
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(400, offsets, neighbors, 64);

  Controller c_auto(a1, auto_cfg);
  Controller c_min(a2, minimal);
  const ExecStats s_auto = c_auto.Run(matrix);
  const ExecStats s_min = c_min.Run(matrix);
  EXPECT_GT(s_auto.spread, 1u);
  EXPECT_EQ(s_auto.accumulated_bitcount, s_min.accumulated_bitcount);
  // Spreading can only help column retention (more usable ways).
  EXPECT_GE(s_auto.cache.hits, s_min.cache.hits);
}

TEST(Controller, TinyArrayForcesExchanges) {
  // 64 KiB array: 2 subarrays, 16 sets; column slices of a dense-ish
  // matrix must thrash.
  nvsim::ArrayConfig config;
  config.capacity_bytes = 64ULL << 10;
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});

  util::Xoshiro256 rng(23);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  const std::uint32_t n = 4096;
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t d = 1; d <= 40; ++d) {
      const std::uint32_t j = i + 1 + rng.UniformBelow(n / 2);
      if (j < n) neighbors.push_back(j);
    }
    std::sort(neighbors.begin() + offsets.back(), neighbors.end());
    neighbors.erase(
        std::unique(neighbors.begin() + offsets.back(), neighbors.end()),
        neighbors.end());
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);
  EXPECT_GT(stats.cache.exchanges, 0u);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, CapacityModelShrinksWays) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray a1(config);
  pim::ComputationalArray a2(config);
  ControllerConfig with_index;
  with_index.capacity_model = CapacityModel::kWithIndexOverhead;
  ControllerConfig data_only;
  data_only.capacity_model = CapacityModel::kDataOnly;
  const Controller c1(a1, with_index);
  const Controller c2(a2, data_only);
  EXPECT_LT(c1.cache().associativity(), c2.cache().associativity());
  // |S|=64: 8B data + 4B index -> 2/3 of the data-only ways.
  EXPECT_EQ(c1.cache().associativity(),
            static_cast<std::uint32_t>((config.subarray_rows - 1) * 8.0 /
                                       12.0));
}

TEST(Controller, SliceIndexAliasingRegression) {
  // Regression: with more slice indices than sets, distinct k alias
  // onto one set (k mod num_sets); consecutive aliased groups within a
  // row must each restage their own RiSk or the AND reads a stale row
  // slice. n >> 64 * num_sets triggers the aliasing densely.
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;  // 256 sets
  pim::ComputationalArray array(config);
  Controller controller(array, ControllerConfig{});

  util::Xoshiro256 rng(31);
  const std::uint32_t n = 40000;
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::size_t begin = neighbors.size();
    for (int d = 0; d < 6; ++d) {
      const std::uint32_t j =
          i + 1 + static_cast<std::uint32_t>(rng.UniformBelow(n - i));
      if (j < n) neighbors.push_back(j);
    }
    std::sort(neighbors.begin() + static_cast<std::ptrdiff_t>(begin),
              neighbors.end());
    neighbors.erase(
        std::unique(neighbors.begin() + static_cast<std::ptrdiff_t>(begin),
                    neighbors.end()),
        neighbors.end());
    offsets.push_back(neighbors.size());
  }
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  const ExecStats stats = controller.Run(matrix);
  EXPECT_EQ(stats.accumulated_bitcount, matrix.AndPopcountAllEdges());
}

TEST(Controller, RejectsSliceWidthMismatch) {
  nvsim::ArrayConfig config;
  config.capacity_bytes = 1ULL << 20;
  pim::ComputationalArray array(config);  // 64-bit access
  Controller controller(array, ControllerConfig{});
  const std::vector<std::uint64_t> offsets = {0, 1, 1};
  const std::vector<std::uint32_t> neighbors = {1};
  const bit::SlicedMatrix matrix =
      bit::SlicedMatrix::FromCsr(2, offsets, neighbors, 32);
  EXPECT_THROW((void)controller.Run(matrix), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Golden ExecStats: the simulator's full statistics on the 9 Table II
// stand-ins (scale 0.02, seed 42, |S| = 64, upper orientation) under
// every replacement policy, in a 64 KiB array small enough that every
// row exchanges. Any change to the controller, cache or mapper that
// moves one counter — including the RNG draws of the random policy —
// fails here. Run, RunRows(0, n) and a one-tile RunPlan must all
// reproduce the same numbers.

struct GoldenStats {
  const char* dataset;
  ReplacementPolicy policy;
  // edges, valid_pairs, row_writes, spread, col_writes, replica_writes,
  // bitcount_words
  std::uint64_t work[7];
  // lookups, hits, misses, exchanges, inserts, accumulated_bitcount,
  // sum(per_subarray_ands), sum(per_subarray_writes)
  std::uint64_t totals[8];
};

const GoldenStats kGoldenStats[] = {
    {"ego-facebook", ReplacementPolicy::kLru,
     {88466u, 120375u, 9411u, 1u, 10555u, 0u, 120375u},
     {120375u, 109820u, 10555u, 5115u, 10555u, 792484u, 120375u, 19966u}},
    {"ego-facebook", ReplacementPolicy::kFifo,
     {88466u, 120375u, 9411u, 1u, 10843u, 0u, 120375u},
     {120375u, 109532u, 10843u, 5403u, 10843u, 792484u, 120375u, 20254u}},
    {"ego-facebook", ReplacementPolicy::kRandom,
     {88466u, 120375u, 9411u, 1u, 11318u, 0u, 120375u},
     {120375u, 109057u, 11318u, 5878u, 11318u, 792484u, 120375u, 20729u}},
    {"email-enron", ReplacementPolicy::kLru,
     {183626u, 222223u, 61802u, 1u, 99464u, 0u, 222223u},
     {222223u, 122759u, 99464u, 94024u, 99464u, 299929u, 222223u, 161266u}},
    {"email-enron", ReplacementPolicy::kFifo,
     {183626u, 222223u, 61802u, 1u, 99609u, 0u, 222223u},
     {222223u, 122614u, 99609u, 94169u, 99609u, 299929u, 222223u, 161411u}},
    {"email-enron", ReplacementPolicy::kRandom,
     {183626u, 222223u, 61802u, 1u, 100024u, 0u, 222223u},
     {222223u, 122199u, 100024u, 94584u, 100024u, 299929u, 222223u, 161826u}},
    {"com-amazon", ReplacementPolicy::kLru,
     {18461u, 20098u, 7587u, 1u, 7712u, 0u, 20098u},
     {20098u, 12386u, 7712u, 2272u, 7712u, 9634u, 20098u, 15299u}},
    {"com-amazon", ReplacementPolicy::kFifo,
     {18461u, 20098u, 7587u, 1u, 7758u, 0u, 20098u},
     {20098u, 12340u, 7758u, 2318u, 7758u, 9634u, 20098u, 15345u}},
    {"com-amazon", ReplacementPolicy::kRandom,
     {18461u, 20098u, 7587u, 1u, 7810u, 0u, 20098u},
     {20098u, 12288u, 7810u, 2370u, 7810u, 9634u, 20098u, 15397u}},
    {"com-dblp", ReplacementPolicy::kLru,
     {20947u, 22578u, 7251u, 1u, 7319u, 0u, 22578u},
     {22578u, 15259u, 7319u, 1879u, 7319u, 27684u, 22578u, 14570u}},
    {"com-dblp", ReplacementPolicy::kFifo,
     {20947u, 22578u, 7251u, 1u, 7332u, 0u, 22578u},
     {22578u, 15246u, 7332u, 1892u, 7332u, 27684u, 22578u, 14583u}},
    {"com-dblp", ReplacementPolicy::kRandom,
     {20947u, 22578u, 7251u, 1u, 7367u, 0u, 22578u},
     {22578u, 15211u, 7367u, 1927u, 7367u, 27684u, 22578u, 14618u}},
    {"com-youtube", ReplacementPolicy::kLru,
     {59752u, 277774u, 21203u, 1u, 210636u, 0u, 277774u},
     {277774u, 67138u, 210636u, 205413u, 210636u, 102543u, 277774u, 231839u}},
    {"com-youtube", ReplacementPolicy::kFifo,
     {59752u, 277774u, 21203u, 1u, 215736u, 0u, 277774u},
     {277774u, 62038u, 215736u, 210513u, 215736u, 102543u, 277774u, 236939u}},
    {"com-youtube", ReplacementPolicy::kRandom,
     {59752u, 277774u, 21203u, 1u, 213775u, 0u, 277774u},
     {277774u, 63999u, 213775u, 208552u, 213775u, 102543u, 277774u, 234978u}},
    {"roadNet-PA", ReplacementPolicy::kLru,
     {30774u, 35755u, 24718u, 1u, 24755u, 0u, 35755u},
     {35755u, 11000u, 24755u, 19315u, 24755u, 1211u, 35755u, 49473u}},
    {"roadNet-PA", ReplacementPolicy::kFifo,
     {30774u, 35755u, 24718u, 1u, 24755u, 0u, 35755u},
     {35755u, 11000u, 24755u, 19315u, 24755u, 1211u, 35755u, 49473u}},
    {"roadNet-PA", ReplacementPolicy::kRandom,
     {30774u, 35755u, 24718u, 1u, 25575u, 0u, 35755u},
     {35755u, 10180u, 25575u, 20135u, 25575u, 1211u, 35755u, 50293u}},
    {"roadNet-TX", ReplacementPolicy::kLru,
     {38639u, 44740u, 30934u, 1u, 30976u, 0u, 44740u},
     {44740u, 13764u, 30976u, 25536u, 30976u, 1550u, 44740u, 61910u}},
    {"roadNet-TX", ReplacementPolicy::kFifo,
     {38639u, 44740u, 30934u, 1u, 30976u, 0u, 44740u},
     {44740u, 13764u, 30976u, 25536u, 30976u, 1550u, 44740u, 61910u}},
    {"roadNet-TX", ReplacementPolicy::kRandom,
     {38639u, 44740u, 30934u, 1u, 32019u, 0u, 44740u},
     {44740u, 12721u, 32019u, 26579u, 32019u, 1550u, 44740u, 62953u}},
    {"roadNet-CA", ReplacementPolicy::kLru,
     {55218u, 64169u, 44408u, 1u, 44397u, 0u, 64169u},
     {64169u, 19772u, 44397u, 38957u, 44397u, 2135u, 64169u, 88805u}},
    {"roadNet-CA", ReplacementPolicy::kFifo,
     {55218u, 64169u, 44408u, 1u, 44397u, 0u, 64169u},
     {64169u, 19772u, 44397u, 38957u, 44397u, 2135u, 64169u, 88805u}},
    {"roadNet-CA", ReplacementPolicy::kRandom,
     {55218u, 64169u, 44408u, 1u, 45965u, 0u, 64169u},
     {64169u, 18204u, 45965u, 40525u, 45965u, 2135u, 64169u, 90373u}},
    {"com-lj", ReplacementPolicy::kLru,
     {693878u, 816717u, 163983u, 1u, 247013u, 0u, 816717u},
     {816717u, 569704u, 247013u, 241573u, 247013u, 2475470u, 816717u, 410996u}},
    {"com-lj", ReplacementPolicy::kFifo,
     {693878u, 816717u, 163983u, 1u, 247579u, 0u, 816717u},
     {816717u, 569138u, 247579u, 242139u, 247579u, 2475470u, 816717u, 411562u}},
    {"com-lj", ReplacementPolicy::kRandom,
     {693878u, 816717u, 163983u, 1u, 250709u, 0u, 816717u},
     {816717u, 566008u, 250709u, 245269u, 250709u, 2475470u, 816717u, 414692u}},
};

std::uint64_t Sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

void ExpectGolden(const ExecStats& s, const GoldenStats& g) {
  EXPECT_EQ(s.edges_processed, g.work[0]);
  EXPECT_EQ(s.valid_pairs, g.work[1]);
  EXPECT_EQ(s.row_slice_writes, g.work[2]);
  EXPECT_EQ(s.spread, g.work[3]);
  EXPECT_EQ(s.col_slice_writes, g.work[4]);
  EXPECT_EQ(s.replica_slice_writes, g.work[5]);
  EXPECT_EQ(s.bitcount_words, g.work[6]);
  EXPECT_EQ(s.cache.lookups, g.totals[0]);
  EXPECT_EQ(s.cache.hits, g.totals[1]);
  EXPECT_EQ(s.cache.misses, g.totals[2]);
  EXPECT_EQ(s.cache.exchanges, g.totals[3]);
  EXPECT_EQ(s.cache.inserts, g.totals[4]);
  EXPECT_EQ(s.accumulated_bitcount, g.totals[5]);
  EXPECT_EQ(Sum(s.per_subarray_ands), g.totals[6]);
  EXPECT_EQ(Sum(s.per_subarray_writes), g.totals[7]);
  EXPECT_EQ(s.host_pairs_zero_copy, 0u);
  EXPECT_EQ(s.host_pairs_per_pair, 0u);
}

class ControllerGoldenTest : public ::testing::TestWithParam<GoldenStats> {};

TEST_P(ControllerGoldenTest, EveryEntryPointReproducesTheGoldenStats) {
  const GoldenStats& golden = GetParam();
  const graph::DatasetInstance inst = graph::SynthesizePaperGraph(
      graph::GetPaperRefByName(golden.dataset).id, /*scale=*/0.02,
      /*seed=*/42);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(inst.graph, graph::Orientation::kUpper, 64);
  const std::uint32_t n = matrix.num_vertices();
  nvsim::ArrayConfig config;
  config.capacity_bytes = 64ULL << 10;
  ControllerConfig controller_config;
  controller_config.policy = golden.policy;
  // A fresh array + controller per run: cache and bit-counter state
  // are cumulative across calls.
  const auto run = [&](const auto& execute) {
    pim::ComputationalArray array(config);
    Controller controller(array, controller_config);
    const ExecStats stats = execute(controller);
    EXPECT_EQ(array.accumulated_count(), stats.accumulated_bitcount);
    return stats;
  };
  const ExecStats whole =
      run([&](Controller& c) { return c.Run(matrix); });
  EXPECT_GT(whole.cache.exchanges, 0u);
  {
    SCOPED_TRACE("Run");
    ExpectGolden(whole, golden);
  }
  {
    SCOPED_TRACE("RunRows(0, n)");
    ExpectGolden(run([&](Controller& c) { return c.RunRows(matrix, 0, n); }),
                 golden);
  }
  {
    SCOPED_TRACE("RunPlan, one tile, no hubs");
    BankExecPlan plan;
    plan.tiles.push_back(BankExecPlan::Tile{0, n, 0, n});
    ExpectGolden(run([&](Controller& c) { return c.RunPlan(matrix, plan); }),
                 golden);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TableIIStandIns, ControllerGoldenTest, ::testing::ValuesIn(kGoldenStats),
    [](const ::testing::TestParamInfo<GoldenStats>& info) {
      std::string name = std::string(info.param.dataset) + "_" +
                         ToString(info.param.policy);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

// Golden ExecStats of bank plans the table above does not reach: a
// column spread above 1 (auto or forced, so one slice index spans
// several sets and aliased groups restage), and hub-replica plans
// (warm-up Install, hub lane, two row tiles). Same inputs as above.

struct PlanGoldenStats {
  std::uint32_t capacity_kib;
  std::uint64_t spread_override;
  /// Replicated hub columns: the columns with the most valid slices
  /// (ties to the lower id); 0 = a plain two-tile plan.
  std::uint32_t hub_cols;
  GoldenStats golden;
};

const PlanGoldenStats kPlanGoldenStats[] = {
    {1024u, 0u, 0u,
     {"ego-facebook", ReplacementPolicy::kLru,
      {88466u, 120375u, 24863u, 4u, 10017u, 0u, 120375u},
      {120375u, 110358u, 10017u, 0u, 10017u, 792484u, 120375u, 34880u}}},
    {1024u, 0u, 0u,
     {"ego-facebook", ReplacementPolicy::kFifo,
      {88466u, 120375u, 24863u, 4u, 10017u, 0u, 120375u},
      {120375u, 110358u, 10017u, 0u, 10017u, 792484u, 120375u, 34880u}}},
    {1024u, 0u, 0u,
     {"ego-facebook", ReplacementPolicy::kRandom,
      {88466u, 120375u, 24863u, 4u, 10017u, 0u, 120375u},
      {120375u, 110358u, 10017u, 0u, 10017u, 792484u, 120375u, 34880u}}},
    {1024u, 3u, 0u,
     {"email-enron", ReplacementPolicy::kLru,
      {183626u, 222223u, 118575u, 3u, 70454u, 0u, 222223u},
      {222223u, 151769u, 70454u, 26642u, 70454u, 299929u, 222223u, 189029u}}},
    {1024u, 3u, 0u,
     {"email-enron", ReplacementPolicy::kFifo,
      {183626u, 222223u, 118575u, 3u, 70473u, 0u, 222223u},
      {222223u, 151750u, 70473u, 26661u, 70473u, 299929u, 222223u, 189048u}}},
    {1024u, 3u, 0u,
     {"email-enron", ReplacementPolicy::kRandom,
      {183626u, 222223u, 118575u, 3u, 70372u, 0u, 222223u},
      {222223u, 151851u, 70372u, 26560u, 70372u, 299929u, 222223u, 188947u}}},
    {256u, 5u, 0u,
     {"com-youtube", ReplacementPolicy::kLru,
      {59752u, 277774u, 68798u, 5u, 65691u, 0u, 277774u},
      {277774u, 212083u, 65691u, 44564u, 65691u, 102543u, 277774u, 134489u}}},
    {256u, 5u, 0u,
     {"com-youtube", ReplacementPolicy::kFifo,
      {59752u, 277774u, 68798u, 5u, 76280u, 0u, 277774u},
      {277774u, 201494u, 76280u, 55153u, 76280u, 102543u, 277774u, 145078u}}},
    {256u, 5u, 0u,
     {"com-youtube", ReplacementPolicy::kRandom,
      {59752u, 277774u, 68798u, 5u, 75994u, 0u, 277774u},
      {277774u, 201780u, 75994u, 54867u, 75994u, 102543u, 277774u, 144792u}}},
    // spread 64 over 64 sets: every slice index maps onto all the sets,
    // so one row ordinal's run spans many residues j mod spread.
    {256u, 64u, 0u,
     {"com-youtube", ReplacementPolicy::kLru,
      {59752u, 277774u, 115216u, 64u, 193253u, 0u, 277774u},
      {277774u, 84521u, 193253u, 179531u, 193253u, 102543u, 277774u, 308469u}}},
    {256u, 64u, 0u,
     {"com-youtube", ReplacementPolicy::kFifo,
      {59752u, 277774u, 115216u, 64u, 198769u, 0u, 277774u},
      {277774u, 79005u, 198769u, 185047u, 198769u, 102543u, 277774u, 313985u}}},
    {256u, 64u, 0u,
     {"com-youtube", ReplacementPolicy::kRandom,
      {59752u, 277774u, 115216u, 64u, 196962u, 0u, 277774u},
      {277774u, 80812u, 196962u, 183240u, 196962u, 102543u, 277774u, 312178u}}},
    {256u, 0u, 16u,
     {"com-youtube", ReplacementPolicy::kLru,
      {59752u, 277774u, 35086u, 1u, 118486u, 1329u, 277774u},
      {277774u, 159288u, 118486u, 106648u, 118486u, 102543u, 277774u, 153572u}}},
    {256u, 0u, 16u,
     {"com-youtube", ReplacementPolicy::kFifo,
      {59752u, 277774u, 35086u, 1u, 126051u, 1329u, 277774u},
      {277774u, 151723u, 126051u, 114213u, 126051u, 102543u, 277774u, 161137u}}},
    {256u, 0u, 16u,
     {"com-youtube", ReplacementPolicy::kRandom,
      {59752u, 277774u, 35086u, 1u, 125799u, 1329u, 277774u},
      {277774u, 151975u, 125799u, 113961u, 125799u, 102543u, 277774u, 160885u}}},
    {1024u, 0u, 8u,
     {"email-enron", ReplacementPolicy::kLru,
      {183626u, 222223u, 61912u, 1u, 70884u, 50u, 222223u},
      {222223u, 151339u, 70884u, 28238u, 70884u, 299929u, 222223u, 132796u}}},
    {1024u, 0u, 8u,
     {"email-enron", ReplacementPolicy::kFifo,
      {183626u, 222223u, 61912u, 1u, 71015u, 50u, 222223u},
      {222223u, 151208u, 71015u, 28369u, 71015u, 299929u, 222223u, 132927u}}},
    {1024u, 0u, 8u,
     {"email-enron", ReplacementPolicy::kRandom,
      {183626u, 222223u, 61912u, 1u, 71059u, 50u, 222223u},
      {222223u, 151164u, 71059u, 28413u, 71059u, 299929u, 222223u, 132971u}}},
};

class PlanGoldenTest : public ::testing::TestWithParam<PlanGoldenStats> {};

TEST_P(PlanGoldenTest, RunPlanReproducesTheGoldenStats) {
  const PlanGoldenStats& param = GetParam();
  const graph::DatasetInstance inst = graph::SynthesizePaperGraph(
      graph::GetPaperRefByName(param.golden.dataset).id, /*scale=*/0.02,
      /*seed=*/42);
  const bit::SlicedMatrix matrix =
      core::BuildSlicedMatrix(inst.graph, graph::Orientation::kUpper, 64);
  const std::uint32_t n = matrix.num_vertices();

  std::vector<std::uint32_t> by_slices(n);
  std::iota(by_slices.begin(), by_slices.end(), 0u);
  std::stable_sort(by_slices.begin(), by_slices.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return matrix.cols().SliceCount(a) >
                            matrix.cols().SliceCount(b);
                   });
  BankExecPlan plan;
  std::vector<std::uint8_t> is_hub(n, 0);
  if (param.hub_cols > 0) {
    plan.hub_cols.assign(by_slices.begin(),
                         by_slices.begin() + param.hub_cols);
    std::sort(plan.hub_cols.begin(), plan.hub_cols.end());
    for (const std::uint32_t h : plan.hub_cols) is_hub[h] = 1;
    plan.hub_row_end = n;
    plan.is_hub = is_hub.data();
  }
  plan.tiles.push_back(BankExecPlan::Tile{0, n / 2, 0, n});
  plan.tiles.push_back(BankExecPlan::Tile{n / 2, n, 0, n});

  nvsim::ArrayConfig config;
  config.capacity_bytes = std::uint64_t{param.capacity_kib} << 10;
  pim::ComputationalArray array(config);
  ControllerConfig controller_config;
  controller_config.policy = param.golden.policy;
  controller_config.spread_override = param.spread_override;
  Controller controller(array, controller_config);
  const ExecStats stats = controller.RunPlan(matrix, plan);
  EXPECT_EQ(array.accumulated_count(), stats.accumulated_bitcount);
  ExpectGolden(stats, param.golden);
}

INSTANTIATE_TEST_SUITE_P(
    SpreadAndHubPlans, PlanGoldenTest, ::testing::ValuesIn(kPlanGoldenStats),
    [](const ::testing::TestParamInfo<PlanGoldenStats>& info) {
      const PlanGoldenStats& p = info.param;
      std::string name = std::string(p.golden.dataset) + "_" +
                         std::to_string(p.capacity_kib) + "KiB_" +
                         (p.hub_cols > 0
                              ? std::to_string(p.hub_cols) + "hubs"
                              : "spread" + std::to_string(p.spread_override)) +
                         "_" + ToString(p.golden.policy);
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace tcim::arch
