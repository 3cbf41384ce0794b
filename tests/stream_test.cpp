// Streaming layer: delta parsing, in-place slice-store patching,
// dynamic orientation maintenance, exact incremental counting, and the
// scheduler's update-job kind.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/sliced_store.h"
#include "graph/generators.h"
#include "runtime/scheduler.h"
#include "runtime/stream_session.h"
#include "stream/dynamic_graph.h"
#include "stream/edge_delta.h"
#include "stream/incremental_counter.h"
#include "util/rng.h"

namespace tcim {
namespace {

using graph::Graph;
using graph::Orientation;
using graph::VertexId;
using stream::EdgeDelta;
using stream::EdgeOp;

// --- delta replay format ---------------------------------------------------

TEST(EdgeDeltaIo, ParsesOpsCommentsAndBatchSeparators) {
  std::istringstream in(
      "# header comment\n"
      "+ 0 1\n"
      "  + 1 2\n"
      "% alt comment\n"
      "- 0 1\n"
      "=\n"
      "+ 3 4\n");
  const std::vector<EdgeDelta> batches = stream::ReadDeltaStream(in);
  ASSERT_EQ(batches.size(), 2u);
  ASSERT_EQ(batches[0].size(), 3u);
  EXPECT_TRUE(batches[0].ops[0].insert);
  EXPECT_EQ(batches[0].ops[0].u, 0u);
  EXPECT_EQ(batches[0].ops[0].v, 1u);
  EXPECT_FALSE(batches[0].ops[2].insert);
  ASSERT_EQ(batches[1].size(), 1u);
  EXPECT_EQ(batches[1].ops[0].u, 3u);
}

TEST(EdgeDeltaIo, RoundTripsThroughWriter) {
  std::vector<EdgeDelta> batches(2);
  batches[0].Insert(1, 2);
  batches[0].Erase(3, 4);
  batches[1].Insert(5, 6);
  std::ostringstream out;
  stream::WriteDeltaStream(batches, out);
  std::istringstream in(out.str());
  const std::vector<EdgeDelta> parsed = stream::ReadDeltaStream(in);
  ASSERT_EQ(parsed.size(), 2u);
  ASSERT_EQ(parsed[0].size(), 2u);
  EXPECT_FALSE(parsed[0].ops[1].insert);
  EXPECT_EQ(parsed[1].ops[0].v, 6u);
}

TEST(EdgeDeltaIo, ThrowsOnMalformedLine) {
  std::istringstream bad_verb("* 1 2\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(bad_verb), std::runtime_error);
  std::istringstream missing_field("+ 7\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(missing_field),
               std::runtime_error);
  // Ids that do not fit VertexId must be rejected, not truncated, and
  // a signed id is rejected outright (it used to wrap to huge unsigned).
  std::istringstream too_big("+ 4294967296 5\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(too_big), std::runtime_error);
  std::istringstream negative("- 0 -1\n");
  EXPECT_THROW((void)stream::ReadDeltaStream(negative), std::runtime_error);
}

// --- SlicedStore::ApplyEdits ----------------------------------------------

bit::SlicedStore StoreFromRows(
    const std::vector<std::vector<std::uint32_t>>& rows, std::uint64_t universe,
    std::uint32_t slice_bits) {
  std::vector<std::uint64_t> offsets{0};
  std::vector<std::uint32_t> positions;
  for (const auto& row : rows) {
    positions.insert(positions.end(), row.begin(), row.end());
    offsets.push_back(positions.size());
  }
  return bit::SlicedStore::FromCsr(static_cast<std::uint32_t>(rows.size()),
                                   universe, offsets, positions, slice_bits);
}

TEST(SlicedStoreEdits, InPlacePatchWhenSlicesStayValid) {
  bit::SlicedStore store = StoreFromRows({{1, 5}, {64, 70}}, 128, 64);
  const std::vector<bit::SliceEdit> edits = {
      {0, 6, true},    // same slice as bits 1/5
      {1, 64, false},  // slice keeps bit 70
  };
  const bit::PatchStats stats = store.ApplyEdits(edits, 2, 128);
  EXPECT_FALSE(stats.rebuilt);
  EXPECT_EQ(stats.bits_patched, 2u);
  EXPECT_EQ(stats.slices_inserted, 0u);
  EXPECT_EQ(stats.slices_removed, 0u);
  EXPECT_TRUE(store.TestBit(0, 6));
  EXPECT_FALSE(store.TestBit(1, 64));
  EXPECT_TRUE(store.TestBit(1, 70));
  EXPECT_EQ(store.valid_slice_count(), 2u);
}

TEST(SlicedStoreEdits, StructuralInsertAndRemove) {
  bit::SlicedStore store = StoreFromRows({{1}, {64}}, 128, 64);
  const std::vector<bit::SliceEdit> edits = {
      {0, 100, true},  // fresh slice for row 0
      {1, 64, false},  // empties row 1's only slice
  };
  const bit::PatchStats stats = store.ApplyEdits(edits, 2, 128);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(stats.slices_inserted, 1u);
  EXPECT_EQ(stats.slices_removed, 1u);
  EXPECT_TRUE(store.TestBit(0, 100));
  EXPECT_FALSE(store.TestBit(1, 64));
  EXPECT_EQ(store.SliceCount(1), 0u);
  // Invariants: no empty slice survives, indices strictly increasing.
  EXPECT_EQ(store.valid_slice_count(), 2u);
}

TEST(SlicedStoreEdits, GrowsVectorsAndUniverse) {
  bit::SlicedStore store = StoreFromRows({{0}}, 64, 64);
  const std::vector<bit::SliceEdit> edits = {{3, 130, true}};
  const bit::PatchStats stats = store.ApplyEdits(edits, 4, 192);
  EXPECT_TRUE(stats.rebuilt);
  EXPECT_EQ(store.num_vectors(), 4u);
  EXPECT_EQ(store.universe(), 192u);
  EXPECT_EQ(store.slices_per_vector(), 3u);
  EXPECT_TRUE(store.TestBit(3, 130));
  EXPECT_TRUE(store.TestBit(0, 0));
}

TEST(SlicedStoreEdits, RejectsNonFlipsDuplicatesAndShrink) {
  bit::SlicedStore store = StoreFromRows({{1}}, 64, 64);
  // Set of an already-set bit.
  EXPECT_THROW(
      (void)store.ApplyEdits(std::vector<bit::SliceEdit>{{0, 1, true}}, 1, 64),
      std::invalid_argument);
  // Clear of an already-clear bit (valid slice).
  EXPECT_THROW(
      (void)store.ApplyEdits(std::vector<bit::SliceEdit>{{0, 2, false}}, 1,
                             64),
      std::invalid_argument);
  // Clear landing in an invalid slice.
  EXPECT_THROW((void)store.ApplyEdits(
                   std::vector<bit::SliceEdit>{{0, 63, false}}, 1, 64),
               std::invalid_argument);
  // Duplicate edits of one position.
  EXPECT_THROW((void)store.ApplyEdits(
                   std::vector<bit::SliceEdit>{{0, 5, true}, {0, 5, true}}, 1,
                   64),
               std::invalid_argument);
  // Shrinking dimensions.
  EXPECT_THROW((void)store.ApplyEdits({}, 0, 64), std::invalid_argument);
  // The store is untouched after the failed batches.
  EXPECT_TRUE(store.TestBit(0, 1));
  EXPECT_EQ(store.valid_slice_count(), 1u);
}

TEST(SlicedStoreEdits, RandomizedEditsMatchFreshBuild) {
  util::Xoshiro256 rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::uint32_t n = 24;
    const std::uint32_t slice_bits = round % 2 == 0 ? 64 : 32;
    std::vector<std::vector<std::uint32_t>> rows(n);
    std::vector<std::vector<bool>> dense(n, std::vector<bool>(n, false));
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t p = 0; p < n; ++p) {
        if (rng() % 4 == 0) {
          rows[v].push_back(p);
          dense[v][p] = true;
        }
      }
    }
    bit::SlicedStore store = StoreFromRows(rows, n, slice_bits);
    // Random flip batch (unique positions).
    std::vector<bit::SliceEdit> edits;
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t p = 0; p < n; ++p) {
        if (rng() % 5 == 0) {
          edits.push_back(bit::SliceEdit{v, p, !dense[v][p]});
          dense[v][p] = !dense[v][p];
        }
      }
    }
    (void)store.ApplyEdits(edits, n, n);
    // The patched store must equal a store built from the edited rows.
    std::vector<std::vector<std::uint32_t>> expected_rows(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t p = 0; p < n; ++p) {
        if (dense[v][p]) expected_rows[v].push_back(p);
      }
    }
    const bit::SlicedStore fresh = StoreFromRows(expected_rows, n, slice_bits);
    ASSERT_EQ(store.valid_slice_count(), fresh.valid_slice_count());
    ASSERT_EQ(store.set_bit_count(), fresh.set_bit_count());
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::uint32_t p = 0; p < n; ++p) {
        ASSERT_EQ(store.TestBit(v, p), dense[v][p])
            << "round " << round << " v=" << v << " p=" << p;
      }
    }
  }
}

TEST(SlicedStoreKernel, AndPopcountVectorsMatchesDenseIntersection) {
  bit::SlicedStore store =
      StoreFromRows({{1, 5, 64, 100}, {5, 64, 101}, {}}, 128, 64);
  std::uint64_t pairs = 0;
  EXPECT_EQ(bit::AndPopcountVectors(store, 0, store, 1,
                                    bit::PopcountKind::kBuiltin, &pairs),
            2u);  // {5, 64}
  EXPECT_EQ(pairs, 2u);  // both slices of each row are valid and shared
  EXPECT_EQ(bit::AndPopcountVectors(store, 0, store, 2), 0u);
}

// --- DynamicGraph ----------------------------------------------------------

Graph SeedGraph() {
  // Fig. 2-sized playground: two triangles sharing edge {1, 2}.
  graph::GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(1, 3);
  b.AddEdge(2, 3);
  b.AddEdge(4, 5);
  return std::move(b).Build();
}

TEST(DynamicGraph, NormalizeDropsNoOps) {
  const stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(0, 1);   // duplicate of an existing edge
  delta.Insert(0, 3);   // real insert
  delta.Insert(3, 0);   // duplicate of the pending insert (reversed)
  delta.Erase(4, 4);    // self-loop
  delta.Erase(0, 5);    // absent edge
  delta.Erase(4, 5);    // real delete
  delta.Erase(4, 5);    // duplicate delete
  const std::vector<EdgeOp> ops = dyn.Normalize(delta);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_TRUE(ops[0].insert);
  EXPECT_EQ(ops[0].u, 0u);
  EXPECT_EQ(ops[0].v, 3u);
  EXPECT_FALSE(ops[1].insert);
}

TEST(DynamicGraph, InsertDeleteToggleNormalizesToSequence) {
  const stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(0, 3);  // absent -> real insert
  delta.Erase(0, 3);   // now present -> real delete
  const std::vector<EdgeOp> ops = dyn.Normalize(delta);
  EXPECT_EQ(ops.size(), 2u);  // both kept: each flips membership
}

void ExpectMatrixMatchesRebuild(const stream::DynamicGraph& dyn) {
  // The patched matrix must be bit-identical to a fresh re-slice.
  stream::DynamicGraph fresh(dyn.ToGraph(), dyn.orientation(),
                             dyn.slice_bits());
  const bit::SlicedStore& got = dyn.matrix().rows();
  const bit::SlicedStore& want = fresh.matrix().rows();
  ASSERT_EQ(got.num_vectors(), want.num_vectors());
  ASSERT_EQ(got.valid_slice_count(), want.valid_slice_count());
  ASSERT_EQ(got.set_bit_count(), want.set_bit_count());
  for (std::uint32_t v = 0; v < got.num_vectors(); ++v) {
    EXPECT_TRUE(got.ToBitVector(v) == want.ToBitVector(v)) << "row " << v;
  }
  ASSERT_EQ(dyn.matrix().cols().set_bit_count(), want.set_bit_count());
}

TEST(DynamicGraph, PatchedMatrixMatchesRebuildUpper) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Erase(1, 2);
  delta.Insert(3, 5);
  (void)dyn.Apply(delta);
  EXPECT_EQ(dyn.num_edges(), 7u);
  EXPECT_TRUE(dyn.HasEdge(0, 3));
  EXPECT_FALSE(dyn.HasEdge(1, 2));
  ExpectMatrixMatchesRebuild(dyn);
}

TEST(DynamicGraph, DegreeOrientationFlipsAffectedArcsOnly) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kDegree, 64);
  // Pump vertex 0's degree: its key passes several neighbours, so
  // surviving arcs incident to 0 must flip while the rest stand.
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Insert(0, 4);
  delta.Insert(0, 5);
  const stream::ApplyStats stats = dyn.Apply(delta);
  EXPECT_EQ(stats.inserted, 3u);
  EXPECT_GT(stats.flipped_arcs, 0u);
  ExpectMatrixMatchesRebuild(dyn);
}

TEST(DynamicGraph, GrowsVertexUniverse) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  EdgeDelta delta;
  delta.Insert(2, 9);  // vertex 9 did not exist
  const stream::ApplyStats stats = dyn.Apply(delta);
  EXPECT_EQ(stats.grown_vertices, 4u);
  EXPECT_EQ(dyn.num_vertices(), 10u);
  EXPECT_TRUE(dyn.HasEdge(9, 2));
  ExpectMatrixMatchesRebuild(dyn);
}

TEST(DynamicGraph, ApplyNormalizedRejectsRawOps) {
  stream::DynamicGraph dyn(SeedGraph(), Orientation::kUpper, 64);
  const std::vector<EdgeOp> raw = {{0, 1, true}};  // edge already exists
  EXPECT_THROW((void)dyn.ApplyNormalized(raw), std::invalid_argument);
}

// --- IncrementalCounter ----------------------------------------------------

std::uint64_t RecountTruth(const stream::IncrementalCounter& counter) {
  return baseline::CountTrianglesReference(counter.graph().ToGraph());
}

TEST(IncrementalCounter, SingleInsertClosesWedges) {
  stream::StreamConfig config;
  config.recount_fraction = 1.0;  // 6-edge toy graph: keep 1-op batches
                                  // on the incremental path
  stream::IncrementalCounter counter(SeedGraph(), config);
  EXPECT_EQ(counter.triangles(), 2u);
  EdgeDelta delta;
  delta.Insert(0, 3);  // closes {0,1,3} and {0,2,3}
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 2);
  EXPECT_EQ(r.triangles, 4u);
  EXPECT_FALSE(r.stats.used_recount);
  EXPECT_GT(r.stats.and_ops, 0u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, BatchedWedgeKernelSkipsHardwareModel) {
  // The 4-way wedge kernel gathers all four store combinations into
  // one zero-copy kernel call at the default kBuiltin — never feeding the
  // LUT8 hardware-model counter — while a kLut8-configured counter
  // still routes through the exact per-word model and stays exact.
  stream::StreamConfig config;
  config.recount_fraction = 1.0;
  stream::IncrementalCounter fast(SeedGraph(), config);
  const std::uint64_t before = bit::Lut8Invocations();
  EdgeDelta delta;
  delta.Insert(0, 3);
  EXPECT_EQ(fast.ApplyBatch(delta).delta, 2);
  EXPECT_EQ(bit::Lut8Invocations(), before)
      << "kBuiltin wedge kernel touched the LUT8 hardware model";

  config.popcount = bit::PopcountKind::kLut8;
  stream::IncrementalCounter modeled(SeedGraph(), config);
  EXPECT_GT(bit::Lut8Invocations(), before);  // init recount fed it
  const std::uint64_t mid = bit::Lut8Invocations();
  const stream::BatchResult r = modeled.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 2);
  EXPECT_EQ(r.triangles, 4u);
  EXPECT_GT(bit::Lut8Invocations(), mid);
  EXPECT_EQ(r.triangles, RecountTruth(modeled));
}

TEST(IncrementalCounter, WedgeKernelRoutesZeroCopyAndStaysExact) {
  // The insert batch must produce the exact triangle delta, and
  // BatchStats.paths must attribute every wedge AND to the zero-copy
  // pair kernel, the only route the wedge kernel has.
  stream::StreamConfig config;
  config.recount_fraction = 1.0;
  stream::IncrementalCounter counter(SeedGraph(), config);
  EdgeDelta delta;
  delta.Insert(0, 3);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 2);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
  EXPECT_GT(r.stats.paths.zero_copy_pairs, 0u);
  EXPECT_EQ(r.stats.paths.per_pair_pairs, 0u);
  EXPECT_EQ(r.stats.paths.TotalPairs(), r.stats.and_ops);
}

TEST(IncrementalCounter, SingleDeleteOpensWedges) {
  stream::IncrementalCounter counter(SeedGraph());
  EdgeDelta delta;
  delta.Erase(1, 2);  // shared edge of both triangles
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, -2);
  EXPECT_EQ(r.triangles, 0u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, BatchInternalTrianglesAreExact) {
  // All three edges of a fresh triangle in one batch: the wedge count
  // of each op must see the batch's earlier ops (overlay corrections).
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1);  // placeholder so the graph is non-empty
  stream::StreamConfig config;
  config.recount_fraction = 100.0;  // force the incremental path
  stream::IncrementalCounter counter(std::move(b).Build(), config);
  EdgeDelta delta;
  delta.Insert(1, 2);
  delta.Insert(0, 2);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_FALSE(r.stats.used_recount);
  EXPECT_EQ(r.delta, 1);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, ToggleWithinBatchIsNetNeutral) {
  stream::StreamConfig config;
  config.recount_fraction = 100.0;
  stream::IncrementalCounter counter(SeedGraph(), config);
  EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Erase(0, 3);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.delta, 0);
  EXPECT_EQ(r.triangles, 2u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, RecountFallbackOnLargeBatch) {
  stream::StreamConfig config;
  config.recount_fraction = 0.0;  // every non-empty batch recounts
  stream::IncrementalCounter counter(SeedGraph(), config);
  EdgeDelta delta;
  delta.Insert(0, 3);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_TRUE(r.stats.used_recount);
  EXPECT_EQ(r.triangles, 4u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

TEST(IncrementalCounter, BulkLoadIntoEmptyGraph) {
  stream::IncrementalCounter counter(Graph{});
  EXPECT_EQ(counter.triangles(), 0u);
  EdgeDelta delta;
  delta.Insert(0, 1);
  delta.Insert(1, 2);
  delta.Insert(0, 2);
  const stream::BatchResult r = counter.ApplyBatch(delta);
  EXPECT_EQ(r.triangles, 1u);
  EXPECT_EQ(counter.graph().num_vertices(), 3u);
  EXPECT_EQ(r.triangles, RecountTruth(counter));
}

class IncrementalOrientationTest
    : public ::testing::TestWithParam<Orientation> {};

TEST_P(IncrementalOrientationTest, RandomChurnStaysExact) {
  const Graph seed = graph::ErdosRenyi(120, 600, 11);
  stream::StreamConfig config;
  config.orientation = GetParam();
  config.recount_fraction = 100.0;  // keep every batch incremental
  stream::IncrementalCounter counter(seed, config);
  util::Xoshiro256 rng(29);
  for (int batch = 0; batch < 15; ++batch) {
    EdgeDelta delta;
    for (int k = 0; k < 12; ++k) {
      const auto u = static_cast<VertexId>(rng() % 130);
      const auto v = static_cast<VertexId>(rng() % 130);
      if (rng() % 3 == 0) {
        delta.Erase(u, v);
      } else {
        delta.Insert(u, v);
      }
    }
    const stream::BatchResult r = counter.ApplyBatch(delta);
    EXPECT_FALSE(r.stats.used_recount);
    ASSERT_EQ(r.triangles, RecountTruth(counter)) << "batch " << batch;
  }
}

INSTANTIATE_TEST_SUITE_P(Orientations, IncrementalOrientationTest,
                         ::testing::Values(Orientation::kUpper,
                                           Orientation::kDegree,
                                           Orientation::kFullSymmetric),
                         [](const auto& info) {
                           return graph::ToString(info.param);
                         });

// --- runtime integration ---------------------------------------------------

TEST(StreamSession, AggregatesBatchStats) {
  stream::StreamConfig config;
  config.recount_fraction = 1.0;  // keep the toy batches incremental
  runtime::StreamSession session(SeedGraph(), config);
  EdgeDelta first;
  first.Insert(0, 3);
  EdgeDelta second;
  second.Erase(1, 2);
  (void)session.Apply(first);
  (void)session.Apply(second);
  const runtime::StreamStats stats = session.stats();
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.edges_inserted, 1u);
  EXPECT_EQ(stats.edges_deleted, 1u);
  EXPECT_EQ(stats.net_delta,
            static_cast<std::int64_t>(session.triangles()) - 2);
  EXPECT_GT(stats.exec.valid_pairs, 0u);
  EXPECT_EQ(baseline::CountTrianglesReference(session.Snapshot()),
            session.triangles());
}

TEST(SchedulerUpdateJobs, InterleaveWithCountJobs) {
  auto session = std::make_shared<runtime::StreamSession>(SeedGraph());
  runtime::SchedulerConfig config;
  config.pool.num_banks = 1;
  runtime::Scheduler scheduler(config);

  EdgeDelta delta;
  delta.Insert(0, 3);
  runtime::JobHandle update =
      scheduler.SubmitUpdate(session, delta, {});
  runtime::JobHandle count = scheduler.Submit(SeedGraph(), {});

  const runtime::JobOutcome update_outcome = update.Wait();
  ASSERT_EQ(update_outcome.state, runtime::JobState::kDone);
  EXPECT_EQ(update_outcome.kind, runtime::JobKind::kUpdate);
  EXPECT_EQ(update_outcome.update.delta, 2);
  EXPECT_EQ(update_outcome.update.triangles, 4u);

  const runtime::JobOutcome count_outcome = count.Wait();
  ASSERT_EQ(count_outcome.state, runtime::JobState::kDone);
  EXPECT_EQ(count_outcome.kind, runtime::JobKind::kCount);
  EXPECT_EQ(count_outcome.result.triangles, 2u);

  // The session advanced; a follow-up count of its snapshot sees it.
  runtime::JobHandle after = scheduler.Submit(session->Snapshot(), {});
  EXPECT_EQ(after.Wait().result.triangles, 4u);
}

TEST(SchedulerUpdateJobs, NullSessionThrows) {
  runtime::SchedulerConfig config;
  config.pool.num_banks = 1;
  runtime::Scheduler scheduler(config);
  EXPECT_THROW((void)scheduler.SubmitUpdate(nullptr, EdgeDelta{}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tcim
