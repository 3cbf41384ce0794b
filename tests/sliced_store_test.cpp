// Tests for the compressed valid-slice representation (paper §IV-B):
// SlicedStore packing/round-trip and SlicedMatrix pair enumeration +
// statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bitmatrix/kernel_backend.h"
#include "bitmatrix/sliced_matrix.h"
#include "bitmatrix/sliced_store.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "util/env.h"
#include "util/rng.h"

namespace tcim::bit {
namespace {

/// Builds a store from explicit per-vector position lists.
SlicedStore MakeStore(std::uint32_t num_vectors, std::uint64_t universe,
                      const std::vector<std::vector<std::uint32_t>>& rows,
                      std::uint32_t slice_bits) {
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> positions;
  for (const auto& row : rows) {
    positions.insert(positions.end(), row.begin(), row.end());
    offsets.push_back(positions.size());
  }
  return SlicedStore::FromCsr(num_vectors, universe, offsets, positions,
                              slice_bits);
}

TEST(SlicedStore, EmptyStoreHasNoSlices) {
  const SlicedStore s = MakeStore(3, 100, {{}, {}, {}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 0u);
  EXPECT_EQ(s.compressed_bytes(), 0u);
  EXPECT_EQ(s.set_bit_count(), 0u);
  EXPECT_EQ(s.SliceCount(0), 0u);
}

TEST(SlicedStore, SingleBitMakesOneValidSlice) {
  const SlicedStore s = MakeStore(1, 1000, {{130}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 1u);
  ASSERT_EQ(s.SliceIndices(0).size(), 1u);
  EXPECT_EQ(s.SliceIndices(0)[0], 130u / 64u);
  EXPECT_EQ(s.SliceWords(0, 0)[0], 1ULL << (130 % 64));
}

TEST(SlicedStore, BitsInSameSliceShareIt) {
  const SlicedStore s = MakeStore(1, 256, {{64, 65, 100, 127}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 1u);
  EXPECT_EQ(s.set_bit_count(), 4u);
}

TEST(SlicedStore, BitsInDifferentSlicesSplit) {
  const SlicedStore s = MakeStore(1, 256, {{0, 64, 128, 192}}, 64);
  EXPECT_EQ(s.valid_slice_count(), 4u);
  const auto idx = s.SliceIndices(0);
  EXPECT_EQ(std::vector<std::uint32_t>(idx.begin(), idx.end()),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(SlicedStore, CompressedBytesFollowsPaperFormula) {
  // NVS * (|S|/8 + 4) bytes.
  const SlicedStore s = MakeStore(2, 512, {{0, 100, 200}, {300}}, 64);
  EXPECT_EQ(s.compressed_bytes(), s.valid_slice_count() * (64 / 8 + 4));
}

TEST(SlicedStore, SlicesPerVectorIsCeilUniverseOverS) {
  const SlicedStore s = MakeStore(1, 100, {{}}, 64);
  EXPECT_EQ(s.slices_per_vector(), 2u);  // ceil(100/64)
  const SlicedStore t = MakeStore(1, 128, {{}}, 64);
  EXPECT_EQ(t.slices_per_vector(), 2u);
  const SlicedStore u = MakeStore(1, 129, {{}}, 64);
  EXPECT_EQ(u.slices_per_vector(), 3u);
}

TEST(SlicedStore, NonPowerOfTwoSliceBits) {
  const SlicedStore s = MakeStore(1, 100, {{0, 47, 48, 99}}, 48);
  // positions 0,47 -> slice 0; 48 -> slice 1; 99 -> slice 2.
  EXPECT_EQ(s.valid_slice_count(), 3u);
  EXPECT_EQ(s.set_bit_count(), 4u);
  const BitVector round = s.ToBitVector(0);
  EXPECT_TRUE(round.Get(0));
  EXPECT_TRUE(round.Get(47));
  EXPECT_TRUE(round.Get(48));
  EXPECT_TRUE(round.Get(99));
  EXPECT_EQ(round.Count(), 4u);
}

TEST(SlicedStore, MultiWordSlices) {
  // 128-bit slices: two words per slice.
  const SlicedStore s = MakeStore(1, 1024, {{0, 64, 127, 128}}, 128);
  EXPECT_EQ(s.words_per_slice(), 2u);
  EXPECT_EQ(s.valid_slice_count(), 2u);  // slice 0 (0..127), slice 1 (128)
  const auto w0 = s.SliceWords(0, 0);
  EXPECT_EQ(w0[0], (1ULL << 0) | (1ULL << 64 % 64));  // bits 0 and 64? no:
  // bit 0 -> word0 bit0; bit 64 -> word1 bit0; bit 127 -> word1 bit63.
  EXPECT_EQ(w0[0], 1ULL);
  EXPECT_EQ(w0[1], 1ULL | (1ULL << 63));
}

TEST(SlicedStore, RoundTripRandom) {
  util::Xoshiro256 rng(77);
  for (const std::uint32_t slice_bits : {8u, 16u, 32u, 64u, 128u, 256u}) {
    std::vector<std::vector<std::uint32_t>> rows(20);
    std::vector<BitVector> reference(20, BitVector(700));
    for (int v = 0; v < 20; ++v) {
      std::uint32_t pos = 0;
      while (true) {
        pos += 1 + static_cast<std::uint32_t>(rng.UniformBelow(60));
        if (pos >= 700) break;
        rows[v].push_back(pos);
        reference[v].Set(pos);
      }
    }
    const SlicedStore s = MakeStore(20, 700, rows, slice_bits);
    for (std::uint32_t v = 0; v < 20; ++v) {
      EXPECT_EQ(s.ToBitVector(v), reference[v])
          << "slice_bits=" << slice_bits << " v=" << v;
    }
  }
}

TEST(SlicedStore, ForEachSetBitVisitsInOrder) {
  const std::vector<std::uint32_t> positions = {3, 64, 65, 200, 500};
  const SlicedStore s =
      MakeStore(1, 512, {positions}, 64);
  std::vector<std::uint64_t> visited;
  s.ForEachSetBit(0, [&](std::uint64_t p) { visited.push_back(p); });
  EXPECT_EQ(visited, (std::vector<std::uint64_t>{3, 64, 65, 200, 500}));
}

TEST(SlicedStore, GlobalOrdinalIsStableAndDense) {
  const SlicedStore s =
      MakeStore(3, 256, {{0, 64}, {}, {128, 192}}, 64);
  EXPECT_EQ(s.GlobalOrdinal(0, 0), 0u);
  EXPECT_EQ(s.GlobalOrdinal(0, 1), 1u);
  EXPECT_EQ(s.GlobalOrdinal(2, 0), 2u);
  EXPECT_EQ(s.GlobalOrdinal(2, 1), 3u);
  EXPECT_THROW((void)s.GlobalOrdinal(1, 0), std::out_of_range);
  EXPECT_THROW((void)s.GlobalOrdinal(3, 0), std::out_of_range);
}

TEST(SlicedStore, RejectsMalformedInput) {
  const std::vector<std::uint64_t> offsets = {0, 2};
  const std::vector<std::uint32_t> unsorted = {10, 5};
  EXPECT_THROW(
      SlicedStore::FromCsr(1, 100, offsets, unsorted, 64),
      std::invalid_argument);
  const std::vector<std::uint32_t> dup = {5, 5};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, dup, 64),
               std::invalid_argument);
  const std::vector<std::uint32_t> out = {5, 200};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, out, 64),
               std::invalid_argument);
  const std::vector<std::uint32_t> ok = {5, 10};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, ok, 0),
               std::invalid_argument);
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, offsets, ok, 1000),
               std::invalid_argument);
  const std::vector<std::uint64_t> bad_offsets = {1, 2};
  EXPECT_THROW(SlicedStore::FromCsr(1, 100, bad_offsets, ok, 64),
               std::invalid_argument);
}

TEST(SlicedStore, ExtractVectorsKeepsShapeAndKeptVectorsOnly) {
  const SlicedStore s = MakeStore(
      5, 512, {{0, 64}, {3, 130}, {}, {500}, {1, 2, 3}}, 64);
  const std::vector<std::uint32_t> keep = {1, 3};
  const SlicedStore sub = s.ExtractVectors(keep);
  // Same shape — the replica substitutes for the column store 1:1.
  EXPECT_EQ(sub.num_vectors(), s.num_vectors());
  EXPECT_EQ(sub.universe(), s.universe());
  EXPECT_EQ(sub.slice_bits(), s.slice_bits());
  // Kept vectors are bit-identical; everything else is empty.
  for (std::uint32_t v = 0; v < 5; ++v) {
    if (std::find(keep.begin(), keep.end(), v) != keep.end()) {
      EXPECT_EQ(sub.ToBitVector(v), s.ToBitVector(v)) << "kept " << v;
    } else {
      EXPECT_EQ(sub.ToBitVector(v).Count(), 0u) << "dropped " << v;
      EXPECT_EQ(sub.SliceCount(v), 0u);
    }
  }
  EXPECT_EQ(sub.set_bit_count(), 3u);  // vectors 1 and 3
}

TEST(SlicedStore, ExtractVectorsSharesFullyKeptSlabs) {
  // Keep EVERY vector: the extract must be a pure COW copy — all
  // slabs shared by pointer, zero words copied.
  std::vector<std::vector<std::uint32_t>> rows(300);
  util::Xoshiro256 rng(7);
  for (auto& row : rows) {
    std::uint32_t p = 0;
    for (int k = 0; k < 6; ++k) {
      p += 1 + static_cast<std::uint32_t>(rng.UniformBelow(100));
      if (p < 1024) row.push_back(p);
    }
  }
  const SlicedStore s = MakeStore(300, 1024, rows, 64);
  std::vector<std::uint32_t> all(300);
  for (std::uint32_t v = 0; v < 300; ++v) all[v] = v;
  const SlicedStore everything = s.ExtractVectors(all);
  EXPECT_EQ(SharedSlabCount(s, everything), s.slab_count());
  // A partial keep still shares every slab it keeps in full.
  const std::vector<std::uint32_t> keep_one = {5};
  const SlicedStore partial = s.ExtractVectors(keep_one);
  EXPECT_LT(SharedSlabCount(s, partial), s.slab_count());
  EXPECT_EQ(partial.ToBitVector(5), s.ToBitVector(5));
}

TEST(SlicedStore, ExtractVectorsEmptyKeepGivesEmptyStore) {
  const SlicedStore s = MakeStore(3, 256, {{0}, {64}, {128}}, 64);
  const SlicedStore none = s.ExtractVectors({});
  EXPECT_EQ(none.num_vectors(), 3u);
  EXPECT_EQ(none.valid_slice_count(), 0u);
  EXPECT_EQ(none.set_bit_count(), 0u);
}

TEST(SlicedStore, ExtractVectorsRejectsBadKeepLists) {
  const SlicedStore s = MakeStore(3, 256, {{0}, {64}, {128}}, 64);
  const std::vector<std::uint32_t> unsorted = {2, 0};
  EXPECT_THROW((void)s.ExtractVectors(unsorted), std::invalid_argument);
  const std::vector<std::uint32_t> dup = {1, 1};
  EXPECT_THROW((void)s.ExtractVectors(dup), std::invalid_argument);
  const std::vector<std::uint32_t> out = {3};
  EXPECT_THROW((void)s.ExtractVectors(out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// SlicedMatrix

/// Small oriented CSR: arcs 0->1, 0->2, 1->2, 1->3, 2->3 (Fig. 2).
SlicedMatrix Fig2Matrix(std::uint32_t slice_bits = 64) {
  const std::vector<std::uint64_t> offsets = {0, 2, 4, 5, 5};
  const std::vector<std::uint32_t> neighbors = {1, 2, 2, 3, 3};
  return SlicedMatrix::FromCsr(4, offsets, neighbors, slice_bits);
}

TEST(SlicedMatrix, Fig2RowAndColumnStores) {
  const SlicedMatrix m = Fig2Matrix();
  EXPECT_EQ(m.num_vertices(), 4u);
  EXPECT_EQ(m.edge_count(), 5u);
  // Row 0 = {1,2}; column 3 = {1,2}.
  EXPECT_EQ(m.rows().ToBitVector(0).Count(), 2u);
  EXPECT_TRUE(m.cols().ToBitVector(3).Get(1));
  EXPECT_TRUE(m.cols().ToBitVector(3).Get(2));
}

TEST(SlicedMatrix, Fig2BitwiseCountIsTwoTriangles) {
  // With the upper-triangular orientation Eq. (5) counts each triangle
  // exactly once: the paper's example totals 2.
  EXPECT_EQ(Fig2Matrix().AndPopcountAllEdges(), 2u);
}

TEST(SlicedMatrix, Fig2WorksAtAllSliceWidths) {
  for (const std::uint32_t s : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 64u}) {
    EXPECT_EQ(Fig2Matrix(s).AndPopcountAllEdges(), 2u) << "slice=" << s;
  }
}

TEST(SlicedMatrix, ColumnStoreIsTranspose) {
  util::Xoshiro256 rng(31);
  const std::uint32_t n = 80;
  std::vector<std::vector<std::uint32_t>> adj(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.1)) adj[i].push_back(j);
    }
  }
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (const auto& row : adj) {
    neighbors.insert(neighbors.end(), row.begin(), row.end());
    offsets.push_back(neighbors.size());
  }
  const SlicedMatrix m = SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  for (std::uint32_t i = 0; i < n; ++i) {
    const BitVector row = m.rows().ToBitVector(i);
    row.ForEachSetBit([&](std::uint64_t j) {
      EXPECT_TRUE(
          m.cols().ToBitVector(static_cast<std::uint32_t>(j)).Get(i));
    });
  }
  EXPECT_EQ(m.rows().set_bit_count(), m.cols().set_bit_count());
}

TEST(SlicedMatrix, ForEachValidPairMergesSortedIndices) {
  // 256 vertices; row 0 -> {1, 130, 200}, everything else empty.
  std::vector<std::uint64_t> offsets(257, 3);
  offsets[0] = 0;
  const std::vector<std::uint32_t> neighbors = {1, 130, 200};
  const SlicedMatrix m = SlicedMatrix::FromCsr(256, offsets, neighbors, 64);
  // Row 0 valid slices: {0 (bit 1), 2 (bit 130), 3 (bit 200)}.
  std::vector<std::uint32_t> visited;
  m.ForEachValidPair(0, 130, [&](std::uint32_t k, std::size_t,
                                 std::size_t) { visited.push_back(k); });
  // Column 130 contains only vertex 0 -> slice 0; common slice = {0}.
  EXPECT_EQ(visited, (std::vector<std::uint32_t>{0}));
}

TEST(SlicedMatrix, StatsInvariants) {
  const SlicedMatrix m = Fig2Matrix();
  const SliceStats stats = m.ComputeStats();
  EXPECT_EQ(stats.edges, 5u);
  EXPECT_EQ(stats.valid_pairs, 5u);  // n=4 fits in one slice: all valid
  EXPECT_EQ(stats.total_pairs, 5u * 1u);
  EXPECT_LE(stats.touched_row_slices, stats.row_valid_slices);
  EXPECT_LE(stats.touched_col_slices, stats.col_valid_slices);
  EXPECT_EQ(stats.CompressedBytes(),
            (stats.row_valid_slices + stats.col_valid_slices) * 12);
  EXPECT_GT(stats.ValidSliceFraction(), 0.0);
  EXPECT_LE(stats.ValidSliceFraction(), 1.0);
  EXPECT_DOUBLE_EQ(stats.ValidPairFraction(), 1.0);
}

TEST(SlicedMatrix, SparsityReducesValidPairFraction) {
  // A large sparse ring: most (row, col) slice pairs are invalid.
  const std::uint32_t n = 4096;
  std::vector<std::uint64_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i + 1 < n; ++i) {
    neighbors.push_back(i + 1);
    offsets[i + 1] = neighbors.size();
  }
  offsets[n] = neighbors.size();
  const SlicedMatrix m = SlicedMatrix::FromCsr(n, offsets, neighbors, 64);
  const SliceStats stats = m.ComputeStats();
  EXPECT_LT(stats.ValidPairFraction(), 0.05);
  EXPECT_LT(stats.ValidSliceFraction(), 0.05);
}

TEST(SlicedMatrix, RejectsOutOfRangeNeighbor) {
  const std::vector<std::uint64_t> offsets = {0, 1};
  const std::vector<std::uint32_t> neighbors = {5};
  EXPECT_THROW(SlicedMatrix::FromCsr(1, offsets, neighbors, 64),
               std::invalid_argument);
}

TEST(SlicedMatrix, HeapBytesPositiveForNonEmpty) {
  EXPECT_GT(Fig2Matrix().HeapBytes(), 0u);
}

// ---------------------------------------------------------------------------
// Gathered Eq. (5) evaluation: AndPopcountAllEdges/AndPopcountRect
// gather valid pairs and issue block dispatches; these tests pin the
// gathered path to the per-pair formulation it replaced, across slice
// widths (words_per_slice 1..8), row shards, and forced backends.

/// Random upper-triangular CSR over `n` vertices with ~`avg_degree`
/// out-arcs per vertex.
SlicedMatrix RandomUpperMatrix(std::uint32_t n, std::uint32_t avg_degree,
                               std::uint32_t slice_bits, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> offsets = {0};
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<std::uint32_t> out;
    for (std::uint32_t d = 0; d < avg_degree; ++d) {
      if (i + 1 < n) {
        out.push_back(i + 1 +
                      static_cast<std::uint32_t>(rng.UniformBelow(n - i - 1)));
      }
    }
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    neighbors.insert(neighbors.end(), out.begin(), out.end());
    offsets.push_back(neighbors.size());
  }
  return SlicedMatrix::FromCsr(n, offsets, neighbors, slice_bits);
}

/// The dispatch-per-slice-pair reference, evaluated with the exact
/// per-word SWAR strategy so it never touches the SIMD dispatch under
/// test.
std::uint64_t PerPairReference(const SlicedMatrix& m) {
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < m.num_vertices(); ++i) {
    m.rows().ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      m.ForEachValidPair(i, j, [&](std::uint32_t, std::size_t ra,
                                   std::size_t cb) {
        total += AndPopcount(m.rows().SliceWords(i, ra),
                             m.cols().SliceWords(j, cb), PopcountKind::kSwar);
      });
    });
  }
  return total;
}

/// Restores the active backend on scope exit.
class ActiveBackendGuard {
 public:
  ActiveBackendGuard() : saved_(ActiveBackend()) {}
  ~ActiveBackendGuard() { SetActiveBackend(saved_); }

 private:
  KernelBackend saved_;
};

TEST(SlicedMatrixBatched, MatchesPerPairLoopAcrossWidthsAndBackends) {
  ActiveBackendGuard guard;
  // words_per_slice covers 1..8 (|S| = 64w), plus non-multiples of 64
  // to exercise zero-padded tail words inside each pair.
  for (const std::uint32_t slice_bits :
       {8u, 64u, 100u, 128u, 192u, 256u, 320u, 384u, 448u, 512u}) {
    const SlicedMatrix m = RandomUpperMatrix(300, 6, slice_bits, 4242);
    const std::uint64_t expected = PerPairReference(m);
    for (const KernelBackend backend : SupportedKernelBackends()) {
      SetActiveBackend(backend);
      EXPECT_EQ(m.AndPopcountAllEdges(), expected)
          << "slice_bits=" << slice_bits << " backend=" << ToString(backend);
    }
  }
}

TEST(SlicedMatrixBatched, DisjointRowShardsPartitionTheTotal) {
  const SlicedMatrix m = RandomUpperMatrix(500, 5, 64, 77);
  const std::uint64_t total = m.AndPopcountAllEdges();
  for (const std::uint32_t shards : {1u, 2u, 3u, 7u}) {
    std::uint64_t sum = 0;
    for (std::uint32_t s = 0; s < shards; ++s) {
      const std::uint32_t begin = m.num_vertices() * s / shards;
      const std::uint32_t end = m.num_vertices() * (s + 1) / shards;
      sum += m.AndPopcountRect(begin, end, 0, m.num_vertices());
    }
    EXPECT_EQ(sum, total) << "shards=" << shards;
  }
  const std::uint32_t n = m.num_vertices();
  EXPECT_EQ(m.AndPopcountRect(0, 0, 0, n), 0u);
  EXPECT_EQ(m.AndPopcountRect(n, n, 0, n), 0u);
  EXPECT_THROW((void)m.AndPopcountRect(2, 1, 0, n), std::out_of_range);
  EXPECT_THROW((void)m.AndPopcountRect(0, n + 1, 0, n), std::out_of_range);
}

TEST(SlicedMatrixBatched, LargeRowCrossesFlushBoundary) {
  // A near-complete upper matrix: the first pivot rows alone gather
  // far more than the 2 Ki-word flush block (row 0 has ~1499 edges,
  // each matching many of its ~24 valid slices), so the arena must
  // flush repeatedly *mid-row* and still sum exactly.
  const SlicedMatrix m = RandomUpperMatrix(1500, 1500, 64, 9001);
  ASSERT_GT(m.edge_count(), 500000u);  // dense enough to force flushes
  EXPECT_EQ(m.AndPopcountAllEdges(), PerPairReference(m));
}

TEST(SlicedMatrixBatched, HotPathNeverTouchesHardwareModelCounters) {
  const SlicedMatrix m = RandomUpperMatrix(200, 8, 64, 5);
  const std::uint64_t before = Lut8Invocations();
  (void)m.AndPopcountAllEdges();
  (void)m.AndPopcountRect(0, m.num_vertices(), 0, m.num_vertices());
  (void)AndPopcountVectors(m.rows(), 0, m.cols(), 1);
  EXPECT_EQ(Lut8Invocations(), before)
      << "gathered kBuiltin path fed words to the LUT8 hardware model";
  // The hardware-model strategy still routes through it, per word.
  const std::uint64_t lut_total = m.AndPopcountAllEdges(PopcountKind::kLut8);
  EXPECT_EQ(lut_total, m.AndPopcountAllEdges());
  EXPECT_GT(Lut8Invocations(), before);
}

// ---------------------------------------------------------------------------
// Pair routing at the matrix level: the adaptive pass must produce the
// exact per-pair total on both routes, and the PairPathCounters must
// attribute every gathered pair to the path that actually consumed it.

TEST(SlicedMatrixRouting, ZeroCopyRouteCountsEveryPair) {
  for (const std::uint32_t slice_bits : {64u, 448u, 512u}) {
    const SlicedMatrix m = RandomUpperMatrix(300, 6, slice_bits, 2024);
    const std::uint64_t expected = PerPairReference(m);
    PairPathCounters counters;
    EXPECT_EQ(m.AndPopcountAllEdges(PopcountKind::kBuiltin, &counters),
              expected)
        << "slice_bits=" << slice_bits;
    // A cache-resident store never takes the direct loop.
    EXPECT_EQ(counters.per_pair_pairs, 0u);
    EXPECT_EQ(counters.zero_copy_pairs, m.ComputeStats().valid_pairs);
    EXPECT_GT(counters.zero_copy_flushes, 0u);
  }
}

TEST(SlicedMatrixRouting, RowShardCountersSumToWholeMatrix) {
  const SlicedMatrix m = RandomUpperMatrix(400, 7, 64, 4096);
  PairPathCounters whole;
  const std::uint64_t total =
      m.AndPopcountAllEdges(PopcountKind::kBuiltin, &whole);
  PairPathCounters sharded;
  std::uint64_t sum = 0;
  for (const auto [begin, end] :
       {std::pair<std::uint32_t, std::uint32_t>{0, 100},
        {100, 101},
        {101, 400}}) {
    sum += m.AndPopcountRect(begin, end, 0, m.num_vertices(), nullptr, true,
                             nullptr, PopcountKind::kBuiltin, &sharded);
  }
  EXPECT_EQ(sum, total);
  EXPECT_EQ(sharded.TotalPairs(), whole.TotalPairs());
  EXPECT_EQ(sharded.zero_copy_pairs, whole.zero_copy_pairs);
}

TEST(SlicedMatrixRouting, FlushBoundaryParity) {
  // Dense enough that single rows gather past the 2 Ki-word flush
  // window repeatedly; the total must be exact.
  const SlicedMatrix m = RandomUpperMatrix(700, 700, 64, 31415);
  EXPECT_EQ(m.AndPopcountAllEdges(), PerPairReference(m));
}

TEST(SlicedMatrixRouting, DirectLoopFiresOnColdWideStoresAndStaysExact) {
  // A sparse |S|=512 matrix big enough that its two stores exceed
  // kDirectMinStoreBytes, with ~1 valid slice per row: the direct-loop
  // regime. Every pair must go through the per-pair path and the
  // total must equal the zero-copy-routed row shards' sum.
  constexpr std::uint32_t kN = 300000;
  const SlicedMatrix m = RandomUpperMatrix(kN, 1, 512, 77);
  ASSERT_GT(m.HeapBytes(), kDirectMinStoreBytes);
  ASSERT_TRUE(ChooseDirectPairLoop(
      m.rows().words_per_slice(), m.HeapBytes(),
      static_cast<double>(m.rows().valid_slice_count()) / kN));
  PairPathCounters counters;
  const std::uint64_t total =
      m.AndPopcountAllEdges(PopcountKind::kBuiltin, &counters);
  EXPECT_EQ(counters.zero_copy_pairs, 0u);
  EXPECT_EQ(counters.per_pair_pairs, m.ComputeStats().valid_pairs);
  EXPECT_EQ(total, PerPairReference(m));
}

TEST(SlicedStoreGather, GatherValidPairRefsMatchesMergeAndCountsPairs) {
  ActiveBackendGuard guard;
  const SlicedMatrix m = RandomUpperMatrix(120, 10, 64, 321);
  for (std::uint32_t u = 0; u < 40; ++u) {
    for (std::uint32_t v = u; v < 40; v += 7) {
      // Reference: exact per-pair strategy path (no SIMD dispatch).
      std::uint64_t ref_pairs = 0;
      const std::uint64_t ref = AndPopcountVectors(
          m.rows(), u, m.cols(), v, PopcountKind::kSwar, &ref_pairs);
      for (const KernelBackend backend : SupportedKernelBackends()) {
        SetActiveBackend(backend);
        std::uint64_t pairs = 0;
        EXPECT_EQ(AndPopcountVectors(m.rows(), u, m.cols(), v,
                                     PopcountKind::kBuiltin, &pairs),
                  ref)
            << "u=" << u << " v=" << v << " backend=" << ToString(backend);
        EXPECT_EQ(pairs, ref_pairs);
        std::vector<PairRef> refs;
        EXPECT_EQ(GatherValidPairRefs(m.rows(), u, m.cols(), v, refs),
                  ref_pairs);
        EXPECT_EQ(refs.size(), ref_pairs);
        EXPECT_EQ(AndPopcountPairsZeroCopy(refs), ref);
      }
    }
  }
}

TEST(SlicedStoreGather, MismatchedSliceBitsThrow) {
  const SlicedStore a = MakeStore(1, 128, {{0, 64}}, 64);
  const SlicedStore b = MakeStore(1, 128, {{0, 64}}, 32);
  std::vector<PairRef> refs;
  EXPECT_THROW((void)GatherValidPairRefs(a, 0, b, 0, refs),
               std::invalid_argument);
  EXPECT_THROW((void)AndPopcountVectors(a, 0, b, 0, PopcountKind::kSwar),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Seeded fuzz-style stress test for ApplyEdits: hundreds of randomized
// flip batches against a dense reference model, every intermediate
// state cross-checked against a freshly sliced store. On failure the
// SCOPED_TRACE prints the (slice_bits, run, seed) triple — rerun with
// that seed hard-coded to reproduce.

/// Dense mutable model the compressed store is checked against.
struct DenseModel {
  std::uint32_t num_vectors = 0;
  std::uint64_t universe = 0;
  std::vector<std::vector<bool>> bits;  // bits[v][pos]

  void Grow(std::uint32_t nv, std::uint64_t uni) {
    num_vectors = std::max(num_vectors, nv);
    universe = std::max(universe, uni);
    bits.resize(num_vectors);
    for (auto& row : bits) row.resize(universe, false);
  }

  [[nodiscard]] SlicedStore Freshly(std::uint32_t slice_bits) const {
    std::vector<std::uint64_t> offsets = {0};
    std::vector<std::uint32_t> positions;
    for (const auto& row : bits) {
      for (std::uint32_t p = 0; p < row.size(); ++p) {
        if (row[p]) positions.push_back(p);
      }
      offsets.push_back(positions.size());
    }
    return SlicedStore::FromCsr(num_vectors, universe, offsets, positions,
                                slice_bits);
  }
};

void ExpectStoreMatchesModel(const SlicedStore& store,
                             const DenseModel& model,
                             std::uint32_t slice_bits) {
  const SlicedStore fresh = model.Freshly(slice_bits);
  ASSERT_EQ(store.num_vectors(), fresh.num_vectors());
  ASSERT_EQ(store.universe(), fresh.universe());
  ASSERT_EQ(store.valid_slice_count(), fresh.valid_slice_count());
  ASSERT_EQ(store.set_bit_count(), fresh.set_bit_count());
  ASSERT_EQ(store.compressed_bytes(), fresh.compressed_bytes());
  for (std::uint32_t v = 0; v < store.num_vectors(); ++v) {
    const auto live = store.SliceIndices(v);
    const auto want = fresh.SliceIndices(v);
    ASSERT_TRUE(std::equal(live.begin(), live.end(), want.begin(),
                           want.end()))
        << "slice indices diverge at vector " << v;
    ASSERT_EQ(store.ToBitVector(v), fresh.ToBitVector(v))
        << "payload diverges at vector " << v;
  }
}

TEST(SlicedStoreFuzz, RandomizedFlipBatchesMatchFreshSlicing) {
  // TCIM_SEED shifts the whole sweep (reproduce any CI failure by
  // exporting the seed from the trace message).
  const std::uint64_t base_seed = 0xF1A9 + util::SplitMix64(util::BaseSeed());
  for (const std::uint32_t slice_bits : {32u, 64u, 192u}) {
    for (int run = 0; run < 3; ++run) {
      const std::uint64_t seed =
          util::SplitMix64(base_seed + slice_bits * 131 + run);
      SCOPED_TRACE("slice_bits=" + std::to_string(slice_bits) + " run=" +
                   std::to_string(run) + " seed=" + std::to_string(seed));
      util::Xoshiro256 rng(seed);

      DenseModel model;
      model.Grow(12, 5 * slice_bits + 7);  // non-aligned universe
      // Seed ~25% fill so both set and clear flips are plentiful.
      for (auto& row : model.bits) {
        for (std::size_t p = 0; p < row.size(); ++p) {
          row[p] = rng() % 4 == 0;
        }
      }
      SlicedStore store = model.Freshly(slice_bits);

      for (int batch = 0; batch < 120; ++batch) {
        // Occasionally grow the store mid-stream.
        std::uint32_t new_nv = model.num_vectors;
        std::uint64_t new_uni = model.universe;
        if (batch % 17 == 16) {
          new_nv += static_cast<std::uint32_t>(rng() % 3);
          new_uni += rng() % (slice_bits + 2);
          model.Grow(new_nv, new_uni);
        }

        const int edits = 1 + static_cast<int>(rng() % 20);
        std::vector<SliceEdit> edit_batch;
        std::vector<std::pair<std::uint32_t, std::uint32_t>> touched;
        for (int e = 0; e < edits; ++e) {
          const auto v = static_cast<std::uint32_t>(rng() % model.num_vectors);
          std::uint64_t pos = rng() % model.universe;
          switch (rng() % 4) {
            case 0:  // slice-boundary bit
              pos = std::min<std::uint64_t>(
                  (pos / slice_bits) * slice_bits, model.universe - 1);
              break;
            case 1:  // last bit of a slice (recompaction trigger when
                     // it is the slice's only set bit)
              pos = std::min<std::uint64_t>(
                  (pos / slice_bits) * slice_bits + slice_bits - 1,
                  model.universe - 1);
              break;
            default:
              break;  // uniform
          }
          const auto p32 = static_cast<std::uint32_t>(pos);
          bool dup = false;
          for (const auto& [tv, tp] : touched) {
            if (tv == v && tp == p32) dup = true;
          }
          if (dup) continue;  // duplicates are tested separately below
          touched.emplace_back(v, p32);
          const bool set = !model.bits[v][p32];
          edit_batch.push_back(SliceEdit{v, p32, set});
          model.bits[v][p32] = set;
        }

        const std::uint64_t before_valid = store.valid_slice_count();
        const PatchStats stats = store.ApplyEdits(edit_batch, new_nv, new_uni);
        ExpectStoreMatchesModel(store, model, slice_bits);
        if (::testing::Test::HasFatalFailure()) return;
        // Structural accounting must reconcile with the slice census.
        ASSERT_EQ(before_valid + stats.slices_inserted - stats.slices_removed,
                  store.valid_slice_count());
        ASSERT_EQ(stats.bits_patched + stats.slices_inserted +
                      stats.slices_removed >
                      0,
                  !edit_batch.empty());

        // Every ~9th batch: malformed batches must throw and leave the
        // store untouched (duplicate edit, then a non-flip edit).
        if (batch % 9 == 3 && !edit_batch.empty()) {
          std::vector<SliceEdit> bad = {edit_batch.front(),
                                        edit_batch.front()};
          EXPECT_THROW((void)store.ApplyEdits(bad, new_nv, new_uni),
                       std::invalid_argument);
          const SliceEdit& last = edit_batch.back();
          // Re-applying the same flip is now a non-flip (set of a set
          // bit or clear of a clear bit).
          std::vector<SliceEdit> nonflip = {last};
          EXPECT_THROW((void)store.ApplyEdits(nonflip, new_nv, new_uni),
                       std::invalid_argument);
          ExpectStoreMatchesModel(store, model, slice_bits);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The per-edge merge (ForEachValidPair) as the oracle of ComputeStats:
// the 9 Table II stand-ins (scale 0.02, seed 42, |S| = 64, upper
// orientation) plus a star and a clique, whose hub pivot rows are where
// a row-indexed walk and the per-edge merge differ most.

SlicedMatrix OracleMatrix(const std::string& name,
                          std::uint32_t slice_bits = 64) {
  if (name == "star") {
    return core::BuildSlicedMatrix(graph::Star(3000),
                                   graph::Orientation::kUpper, slice_bits);
  }
  if (name == "clique") {
    return core::BuildSlicedMatrix(graph::Complete(200),
                                   graph::Orientation::kUpper, slice_bits);
  }
  const graph::DatasetInstance inst = graph::SynthesizePaperGraph(
      graph::GetPaperRefByName(name).id, /*scale=*/0.02, /*seed=*/42);
  return core::BuildSlicedMatrix(inst.graph, graph::Orientation::kUpper,
                                 slice_bits);
}

std::vector<std::string> OracleInputs() {
  std::vector<std::string> names;
  for (const graph::PaperRef& ref : graph::AllPaperRefs()) {
    names.emplace_back(ref.name);
  }
  names.emplace_back("star");
  names.emplace_back("clique");
  return names;
}

std::string OracleTestName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return name;
}

class MergeOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(MergeOracleTest, ComputeStatsMatchesThePerEdgeMergeExactly) {
  const SlicedMatrix m = OracleMatrix(GetParam());
  std::uint64_t edges = 0;
  std::uint64_t valid_pairs = 0;
  std::set<std::pair<std::uint32_t, std::size_t>> row_touched;
  std::set<std::pair<std::uint32_t, std::size_t>> col_touched;
  for (std::uint32_t i = 0; i < m.num_vertices(); ++i) {
    m.rows().ForEachSetBit(i, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      ++edges;
      m.ForEachValidPair(i, j, [&](std::uint32_t, std::size_t ra,
                                   std::size_t cb) {
        ++valid_pairs;
        row_touched.emplace(i, ra);
        col_touched.emplace(j, cb);
      });
    });
  }
  const SliceStats s = m.ComputeStats();
  EXPECT_GT(valid_pairs, 0u);
  EXPECT_EQ(s.edges, edges);
  EXPECT_EQ(s.valid_pairs, valid_pairs);
  EXPECT_EQ(s.total_pairs, edges * m.rows().slices_per_vector());
  EXPECT_EQ(s.touched_row_slices, row_touched.size());
  EXPECT_EQ(s.touched_col_slices, col_touched.size());
  EXPECT_EQ(s.row_valid_slices, m.rows().valid_slice_count());
  EXPECT_EQ(s.col_valid_slices, m.cols().valid_slice_count());
  EXPECT_EQ(s.row_slice_slots, m.rows().total_slice_slots());
  EXPECT_EQ(s.col_slice_slots, m.cols().total_slice_slots());
}

// One visited valid slice pair: (j, k, row ordinal, column ordinal).
using PairTuple = std::tuple<std::uint32_t, std::uint32_t, std::size_t,
                             std::size_t>;

TEST_P(MergeOracleTest, RowPairWalkerVisitsExactlyTheMergedPairs) {
  for (const std::uint32_t slice_bits : {64u, 512u}) {
    SCOPED_TRACE(::testing::Message() << "|S| = " << slice_bits);
    const SlicedMatrix m = OracleMatrix(GetParam(), slice_bits);
    const std::uint32_t n = m.num_vertices();
    struct Rect {
      const char* name;
      std::uint32_t row_begin, row_end, col_begin, col_end;
    };
    const Rect rects[] = {
        {"full", 0, n, 0, n},
        {"row-clipped", n / 4, 3 * n / 4, 0, n},
        {"column-clipped", 0, n, n / 3, 2 * n / 3},
        {"empty rows", n / 2, n / 2, 0, n},
        {"empty columns", 0, n, n / 2, n / 2},
    };
    SlicedMatrix::RowPairWalker walker(m);
    for (const Rect& rect : rects) {
      SCOPED_TRACE(rect.name);
      std::vector<PairTuple> want;
      std::vector<PairTuple> got;
      std::vector<std::uint32_t> want_arcs;
      std::vector<std::uint32_t> got_arcs;
      for (std::uint32_t i = rect.row_begin; i < rect.row_end; ++i) {
        m.rows().ForEachSetBitInRange(
            i, rect.col_begin, rect.col_end, [&](std::uint64_t j64) {
              const auto j = static_cast<std::uint32_t>(j64);
              want_arcs.push_back(j);
              // Odd columns are rejected by on_arc below.
              if (j % 2 != 0) return;
              m.ForEachValidPair(i, j, [&](std::uint32_t k, std::size_t ra,
                                           std::size_t cb) {
                want.emplace_back(j, k, ra, cb);
              });
            });
        walker.Walk(
            i, rect.col_begin, rect.col_end,
            [&](std::uint32_t j) {
              got_arcs.push_back(j);
              return j % 2 == 0;
            },
            [&](std::uint32_t j, std::uint32_t k, std::size_t ra,
                std::size_t cb) { got.emplace_back(j, k, ra, cb); });
      }
      EXPECT_EQ(got_arcs, want_arcs);
      ASSERT_EQ(got.size(), want.size());
      EXPECT_TRUE(got == want);
      if (&rect == &rects[0]) EXPECT_FALSE(got.empty());  // full matrix
    }
  }
}

INSTANTIATE_TEST_SUITE_P(StandInsStarClique, MergeOracleTest,
                         ::testing::ValuesIn(OracleInputs()), OracleTestName);

}  // namespace
}  // namespace tcim::bit
