// Tests for load-time vertex relabeling (graph/relabel.h): bijection
// invariants of every order, triangle-count invariance, the growable
// original<->internal map, CountValidSlices against the built stores,
// the ChooseRelabeling auto policy, the stream delta mapping that
// keeps the rename invisible at the replay surface, and an exactness
// oracle: the sort-based orders, NVS count and GraphBuilder rebuild
// the linear-time relabel stage replaced, matched bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baseline/cpu_tc.h"
#include "bitmatrix/sliced_matrix.h"
#include "core/bitwise_tc.h"
#include "graph/datasets.h"
#include "graph/generators.h"
#include "graph/relabel.h"
#include "stream/edge_delta.h"
#include "util/rng.h"

namespace tcim::graph {
namespace {

Graph WheelPlusTail() {
  // Vertex 0 is the hub of a 6-spoke wheel; 7..9 form a path tail, so
  // degrees span 1..6 with ties among the rim vertices.
  GraphBuilder b(10);
  for (VertexId v = 1; v <= 6; ++v) b.AddEdge(0, v);
  for (VertexId v = 1; v <= 6; ++v) b.AddEdge(v, v % 6 + 1);
  b.AddEdge(6, 7);
  b.AddEdge(7, 8);
  b.AddEdge(8, 9);
  return std::move(b).Build();
}

Graph RandomGraph(VertexId n, std::uint64_t edges, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  GraphBuilder b(n);
  for (std::uint64_t e = 0; e < edges; ++e) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(n)),
              static_cast<VertexId>(rng.UniformBelow(n)));
  }
  return std::move(b).Build();
}

/// True when `map` is a bijection of [0, n) onto [0, n).
void ExpectBijection(const VertexRelabeling& map, VertexId n) {
  ASSERT_EQ(map.size(), n);
  std::vector<bool> seen(n, false);
  for (VertexId internal = 0; internal < n; ++internal) {
    const VertexId original = map.ToOriginal(internal);
    ASSERT_LT(original, n);
    EXPECT_FALSE(seen[original]) << "original " << original << " twice";
    seen[original] = true;
    ASSERT_TRUE(map.FindInternal(original).has_value());
    EXPECT_EQ(*map.FindInternal(original), internal);
  }
}

// --- Sort-based oracle ------------------------------------------------------
// The straightforward formulations of the relabel stage: comparison
// sorts through Graph::Degree, a std::deque BFS, distinct (vector,
// block) keys by sort + unique, and a GraphBuilder rebuild. The
// production code must reproduce every one of them exactly.

std::uint64_t ReferenceCountValidSlices(const Graph& g,
                                        const VertexRelabeling& map,
                                        std::uint32_t slice_bits) {
  std::vector<std::uint64_t> row_keys;
  std::vector<std::uint64_t> col_keys;
  g.ForEachEdge([&](VertexId u, VertexId v) {
    const std::optional<VertexId> ou = map.FindInternal(u);
    const std::optional<VertexId> ov = map.FindInternal(v);
    if (!ou.has_value() || !ov.has_value()) {
      throw std::invalid_argument("ReferenceCountValidSlices: unmapped");
    }
    const VertexId iu = std::min(*ou, *ov);
    const VertexId iv = std::max(*ou, *ov);
    row_keys.push_back((static_cast<std::uint64_t>(iu) << 32) |
                       (iv / slice_bits));
    col_keys.push_back((static_cast<std::uint64_t>(iv) << 32) |
                       (iu / slice_bits));
  });
  const auto distinct = [](std::vector<std::uint64_t>& keys) {
    std::sort(keys.begin(), keys.end());
    return static_cast<std::uint64_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
  };
  return distinct(row_keys) + distinct(col_keys);
}

/// old_of_new of the degree-ascending order, original id ascending on
/// ties.
std::vector<VertexId> ReferenceDegreeAscending(const Graph& g) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  std::sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    if (g.Degree(a) != g.Degree(b)) return g.Degree(a) < g.Degree(b);
    return a < b;
  });
  return order;
}

/// old_of_new of BFS seeded from the highest-degree unvisited vertex,
/// original id ascending on seed ties.
std::vector<VertexId> ReferenceBfsFromHubs(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> seeds(n);
  std::iota(seeds.begin(), seeds.end(), VertexId{0});
  std::sort(seeds.begin(), seeds.end(), [&](VertexId a, VertexId b) {
    if (g.Degree(a) != g.Degree(b)) return g.Degree(a) > g.Degree(b);
    return a < b;
  });
  std::vector<bool> visited(n, false);
  std::vector<VertexId> order;
  std::deque<VertexId> queue;
  const auto visit = [&](VertexId v) {
    if (visited[v]) return;
    visited[v] = true;
    order.push_back(v);
    queue.push_back(v);
  };
  for (const VertexId seed : seeds) {
    visit(seed);
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      for (const VertexId v : g.Neighbors(u)) visit(v);
    }
  }
  return order;
}

Graph ReferenceApply(const Graph& g, const VertexRelabeling& map) {
  GraphBuilder builder(map.size());
  g.ForEachEdge([&](VertexId u, VertexId v) {
    const std::optional<VertexId> iu = map.FindInternal(u);
    const std::optional<VertexId> iv = map.FindInternal(v);
    if (!iu.has_value() || !iv.has_value()) {
      throw std::invalid_argument("ReferenceApply: unmapped");
    }
    builder.AddEdge(*iu, *iv);
  });
  return std::move(builder).Build();
}

/// The graph with original v renamed to order[v]'s position — an
/// id-shuffled copy built without the code under test.
Graph Shuffled(const Graph& g, std::uint64_t seed) {
  std::vector<VertexId> order(g.num_vertices());
  std::iota(order.begin(), order.end(), VertexId{0});
  util::Xoshiro256 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.UniformBelow(i)]);
  }
  VertexRelabeling perm;
  for (const VertexId v : order) (void)perm.ToInternal(v);
  return ReferenceApply(g, perm);
}

std::vector<VertexId> OldOfNew(const VertexRelabeling& map) {
  return {map.old_of_new().begin(), map.old_of_new().end()};
}

void ExpectSameGraph(const Graph& got, const Graph& want,
                     const std::string& label) {
  EXPECT_EQ(got.num_vertices(), want.num_vertices()) << label;
  EXPECT_EQ(got.max_degree(), want.max_degree()) << label;
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets())) << label;
  EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency()))
      << label;
}

constexpr std::uint32_t kOracleSliceBits[] = {64, 128, 512};

/// NVS of `map` and its applied CSR equal the oracle's at every width.
void ExpectMapMatchesOracle(const Graph& g, const VertexRelabeling& map,
                            const std::string& label) {
  for (const std::uint32_t slice_bits : kOracleSliceBits) {
    EXPECT_EQ(CountValidSlices(g, map, slice_bits),
              ReferenceCountValidSlices(g, map, slice_bits))
        << label << " slice_bits=" << slice_bits;
  }
  ExpectSameGraph(map.Apply(g), ReferenceApply(g, map), label);
}

/// Both orders, identity, a grown sparse map and the kAuto choice of
/// `g` equal the oracle's at every width.
void ExpectMatchesOracle(const Graph& g, const std::string& name) {
  const VertexId n = g.num_vertices();
  const VertexRelabeling identity = VertexRelabeling::Identity(n);
  const VertexRelabeling degree = VertexRelabeling::DegreeAscending(g);
  const VertexRelabeling bfs = VertexRelabeling::BfsFromHubs(g);
  EXPECT_EQ(OldOfNew(degree), ReferenceDegreeAscending(g)) << name;
  EXPECT_EQ(OldOfNew(bfs), ReferenceBfsFromHubs(g)) << name;
  ExpectSameGraph(identity.Apply(g), ReferenceApply(g, identity),
                  name + " identity");
  ExpectSameGraph(degree.Apply(g), ReferenceApply(g, degree),
                  name + " degree");
  ExpectSameGraph(bfs.Apply(g), ReferenceApply(g, bfs), name + " bfs");

  // Stream growth: originals past the graph's range become isolated
  // internal vertices of the applied graph.
  VertexRelabeling grown = bfs;
  (void)grown.ToInternal(n + 1000);
  (void)grown.ToInternal(n);
  (void)grown.ToInternal(n + 7);
  ExpectSameGraph(grown.Apply(g), ReferenceApply(g, grown), name + " grown");

  for (const std::uint32_t slice_bits : kOracleSliceBits) {
    const std::string label = name + " slice_bits=" + std::to_string(slice_bits);
    const std::uint64_t identity_nvs =
        ReferenceCountValidSlices(g, identity, slice_bits);
    const std::uint64_t degree_nvs =
        ReferenceCountValidSlices(g, degree, slice_bits);
    const std::uint64_t bfs_nvs = ReferenceCountValidSlices(g, bfs, slice_bits);
    EXPECT_EQ(CountValidSlices(g, identity, slice_bits), identity_nvs)
        << label;
    EXPECT_EQ(CountValidSlices(g, degree, slice_bits), degree_nvs) << label;
    EXPECT_EQ(CountValidSlices(g, bfs, slice_bits), bfs_nvs) << label;
    EXPECT_EQ(CountValidSlices(g, grown, slice_bits), bfs_nvs) << label;

    // kAuto keeps the first strict minimum of identity, degree, bfs.
    RelabelMode want = RelabelMode::kNone;
    std::uint64_t want_nvs = identity_nvs;
    if (degree_nvs < want_nvs) {
      want = RelabelMode::kDegree;
      want_nvs = degree_nvs;
    }
    if (bfs_nvs < want_nvs) {
      want = RelabelMode::kBfs;
      want_nvs = bfs_nvs;
    }
    const RelabelChoice choice =
        ChooseRelabeling(g, RelabelMode::kAuto, slice_bits);
    EXPECT_EQ(choice.applied, want) << label;
    EXPECT_EQ(choice.identity_valid_slices, identity_nvs) << label;
    EXPECT_EQ(choice.chosen_valid_slices, want_nvs) << label;
  }
}

TEST(RelabelOracle, PaperStandInsAndShuffledCopies) {
  for (const PaperRef& ref : AllPaperRefs()) {
    const DatasetInstance inst = SynthesizePaperGraph(ref.id, 0.02, 42);
    ExpectMatchesOracle(inst.graph, ref.name);
    ExpectMatchesOracle(Shuffled(inst.graph, 0x5eed ^ inst.graph.num_edges()),
                        std::string(ref.name) + " shuffled");
  }
}

TEST(RelabelOracle, StarCliqueAndIsolatedVertices) {
  {
    // Every leaf ties at degree 1: the orders rest on the id tie-break.
    GraphBuilder b(700);
    for (VertexId v = 1; v < 700; ++v) b.AddEdge(350, v == 350 ? 0 : v);
    ExpectMatchesOracle(std::move(b).Build(), "star");
  }
  {
    GraphBuilder b(90);
    for (VertexId u = 0; u < 90; ++u) {
      for (VertexId v = u + 1; v < 90; ++v) b.AddEdge(u, v);
    }
    ExpectMatchesOracle(std::move(b).Build(), "clique");
  }
  {
    // Isolated vertices at both ends and in the middle of the id range.
    GraphBuilder b(1200);
    util::Xoshiro256 rng(19);
    for (int e = 0; e < 2000; ++e) {
      const auto u = static_cast<VertexId>(100 + rng.UniformBelow(400));
      const auto v = static_cast<VertexId>(600 + rng.UniformBelow(500));
      b.AddEdge(u, v);
    }
    ExpectMatchesOracle(std::move(b).Build(), "isolated");
  }
  ExpectMatchesOracle(Graph{}, "empty");
  ExpectMatchesOracle(GraphBuilder(5).Build(), "edgeless");
}

TEST(RelabelOracle, SparseMapsBuiltByToInternal) {
  const Graph g = RandomGraph(400, 1500, 23);
  // Originals interleaved with ids far past the graph's range, mapped
  // in a scrambled order.
  VertexRelabeling sparse;
  for (VertexId i = 0; i < g.num_vertices(); ++i) {
    (void)sparse.ToInternal((i * 157u) % g.num_vertices());
    if (i % 50 == 0) (void)sparse.ToInternal(g.num_vertices() + 3 * i);
  }
  ASSERT_GT(sparse.size(), g.num_vertices());
  ExpectMapMatchesOracle(g, sparse, "sparse");

  // Vertices without edges may stay unmapped; the applied graph then
  // has only the mapped ones.
  GraphBuilder b(8);
  b.AddEdge(1, 4);
  b.AddEdge(4, 6);
  const Graph islands = std::move(b).Build();
  VertexRelabeling partial;
  for (const VertexId v : {6u, 1u, 4u, 3u}) (void)partial.ToInternal(v);
  ExpectMapMatchesOracle(islands, partial, "partial");

  // A vertex with edges must be mapped, even when its neighbors are
  // unmapped as well.
  VertexRelabeling missing;
  (void)missing.ToInternal(0);
  (void)missing.ToInternal(3);
  EXPECT_THROW((void)CountValidSlices(islands, missing, 64),
               std::invalid_argument);
  EXPECT_THROW((void)missing.Apply(islands), std::invalid_argument);
  (void)missing.ToInternal(1);
  (void)missing.ToInternal(4);
  EXPECT_THROW((void)CountValidSlices(islands, missing, 64),
               std::invalid_argument);
  EXPECT_THROW((void)missing.Apply(islands), std::invalid_argument);
}

TEST(VertexRelabeling, IdentityMapsEveryIdToItself) {
  const VertexRelabeling map = VertexRelabeling::Identity(17);
  ExpectBijection(map, 17);
  EXPECT_TRUE(map.IsIdentity());
  for (VertexId v = 0; v < 17; ++v) EXPECT_EQ(map.ToOriginal(v), v);
}

TEST(VertexRelabeling, DegreeAscendingIsABijectionInDegreeOrder) {
  const Graph g = WheelPlusTail();
  const VertexRelabeling map = VertexRelabeling::DegreeAscending(g);
  ExpectBijection(map, g.num_vertices());
  for (VertexId internal = 1; internal < map.size(); ++internal) {
    const VertexId prev = map.ToOriginal(internal - 1);
    const VertexId cur = map.ToOriginal(internal);
    const std::uint64_t dp = g.Degree(prev);
    const std::uint64_t dc = g.Degree(cur);
    EXPECT_TRUE(dp < dc || (dp == dc && prev < cur))
        << "internal " << internal << ": degree order violated";
  }
  // Ascending: the hub gets the HIGHEST internal id, so under kUpper
  // every edge points toward its higher-degree endpoint.
  EXPECT_EQ(map.ToOriginal(map.size() - 1), 0u);
}

TEST(VertexRelabeling, BfsFromHubsVisitsEveryVertexHubFirst) {
  const Graph g = WheelPlusTail();
  const VertexRelabeling map = VertexRelabeling::BfsFromHubs(g);
  ExpectBijection(map, g.num_vertices());
  // The traversal seeds at the highest-degree vertex (the hub).
  EXPECT_EQ(map.ToOriginal(0), 0u);
  // Disconnected vertices still get ids (seed loop covers them).
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  const Graph two_islands = std::move(b).Build();
  ExpectBijection(VertexRelabeling::BfsFromHubs(two_islands), 5);
}

TEST(VertexRelabeling, ApplyPreservesStructure) {
  const Graph g = RandomGraph(120, 700, 11);
  for (const VertexRelabeling& map :
       {VertexRelabeling::DegreeAscending(g), VertexRelabeling::BfsFromHubs(g)}) {
    const Graph h = map.Apply(g);
    ASSERT_EQ(h.num_vertices(), g.num_vertices());
    ASSERT_EQ(h.num_edges(), g.num_edges());
    // Degrees follow the vertices through the rename...
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      EXPECT_EQ(h.Degree(*map.FindInternal(v)), g.Degree(v));
    }
    // ...and so do the triangles.
    EXPECT_EQ(baseline::CountTrianglesReference(h),
              baseline::CountTrianglesReference(g));
  }
}

TEST(VertexRelabeling, SlicedCountInvariantUnderRelabeling) {
  // The full Eq. (5) pipeline counts identically on the renamed graph —
  // the invariance the CLI's --relabel flag relies on.
  for (const PaperRef& ref : AllPaperRefs()) {
    const DatasetInstance inst = SynthesizePaperGraph(ref.id, 0.02, 42);
    const std::uint64_t expected =
        baseline::CountTrianglesReference(inst.graph);
    for (const RelabelMode mode :
         {RelabelMode::kDegree, RelabelMode::kBfs, RelabelMode::kAuto}) {
      RelabelChoice choice = ChooseRelabeling(inst.graph, mode, 64);
      const Graph renamed = choice.map.Apply(inst.graph);
      const bit::SlicedMatrix matrix =
          core::BuildSlicedMatrix(renamed, Orientation::kUpper, 64);
      EXPECT_EQ(core::CountTrianglesSliced(matrix, Orientation::kUpper),
                expected)
          << ref.name << " mode=" << ToString(mode);
    }
  }
}

TEST(VertexRelabeling, ToInternalGrowsOnFirstSight) {
  VertexRelabeling map;
  EXPECT_EQ(map.size(), 0u);
  // Sparse originals arrive in arbitrary order; internals stay dense.
  EXPECT_EQ(map.ToInternal(1000), 0u);
  EXPECT_EQ(map.ToInternal(5), 1u);
  EXPECT_EQ(map.ToInternal(1000), 0u);  // idempotent
  EXPECT_EQ(map.ToInternal(0), 2u);
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.ToOriginal(0), 1000u);
  EXPECT_EQ(map.ToOriginal(2), 0u);
  EXPECT_FALSE(map.FindInternal(999).has_value());
  EXPECT_FALSE(map.FindInternal(1001).has_value());
  EXPECT_FALSE(map.IsIdentity());  // 1000 -> 0
  EXPECT_THROW((void)map.ToOriginal(3), std::out_of_range);
}

TEST(VertexRelabeling, ApplyThrowsOnUnmappedVertices) {
  const Graph g = WheelPlusTail();
  VertexRelabeling partial;
  (void)partial.ToInternal(0);
  EXPECT_THROW((void)partial.Apply(g), std::invalid_argument);
}

TEST(CountValidSlices, MatchesBuiltStoreStats) {
  // The O(n + E) CSR-walk NVS must equal the row+col valid-slice
  // count of the actually-built kUpper matrix, for identity and for
  // every relabeling, across slice widths.
  const Graph g = RandomGraph(300, 2500, 77);
  for (const std::uint32_t slice_bits : {64u, 128u, 512u}) {
    for (const RelabelMode mode :
         {RelabelMode::kNone, RelabelMode::kDegree, RelabelMode::kBfs}) {
      RelabelChoice choice = ChooseRelabeling(g, mode, slice_bits);
      const std::uint64_t predicted =
          CountValidSlices(g, choice.map, slice_bits);
      const Graph renamed = choice.map.Apply(g);
      const bit::SliceStats stats =
          core::BuildSlicedMatrix(renamed, Orientation::kUpper, slice_bits)
              .ComputeStats();
      EXPECT_EQ(predicted, stats.row_valid_slices + stats.col_valid_slices)
          << "slice_bits=" << slice_bits << " mode=" << ToString(mode);
    }
  }
  EXPECT_THROW(
      (void)CountValidSlices(g, VertexRelabeling::Identity(1), 64),
      std::invalid_argument);  // unmapped vertices
  EXPECT_THROW(
      (void)CountValidSlices(g, VertexRelabeling::Identity(g.num_vertices()),
                             0),
      std::invalid_argument);
}

TEST(ChooseRelabeling, AutoNeverLosesToIdentity) {
  for (const PaperRef& ref : AllPaperRefs()) {
    const DatasetInstance inst = SynthesizePaperGraph(ref.id, 0.02, 42);
    const RelabelChoice choice =
        ChooseRelabeling(inst.graph, RelabelMode::kAuto, 64);
    EXPECT_NE(choice.applied, RelabelMode::kAuto) << ref.name;
    EXPECT_LE(choice.chosen_valid_slices, choice.identity_valid_slices)
        << ref.name;
    EXPECT_LE(choice.ValidSliceRatio(), 1.0) << ref.name;
    if (choice.applied == RelabelMode::kNone) {
      EXPECT_TRUE(choice.map.IsIdentity()) << ref.name;
      EXPECT_EQ(choice.chosen_valid_slices, choice.identity_valid_slices);
    }
  }
}

TEST(ChooseRelabeling, ExplicitModesAreHonoredUnconditionally) {
  const Graph g = RandomGraph(200, 1200, 5);
  const RelabelChoice none = ChooseRelabeling(g, RelabelMode::kNone, 64);
  EXPECT_EQ(none.applied, RelabelMode::kNone);
  EXPECT_TRUE(none.map.IsIdentity());
  EXPECT_EQ(none.chosen_valid_slices, none.identity_valid_slices);

  const RelabelChoice degree = ChooseRelabeling(g, RelabelMode::kDegree, 64);
  EXPECT_EQ(degree.applied, RelabelMode::kDegree);
  EXPECT_EQ(degree.chosen_valid_slices,
            CountValidSlices(g, degree.map, 64));

  const RelabelChoice bfs = ChooseRelabeling(g, RelabelMode::kBfs, 64);
  EXPECT_EQ(bfs.applied, RelabelMode::kBfs);

  // Auto picks the minimum of the three scored orders.
  const RelabelChoice chosen = ChooseRelabeling(g, RelabelMode::kAuto, 64);
  EXPECT_EQ(chosen.chosen_valid_slices,
            std::min({none.identity_valid_slices, degree.chosen_valid_slices,
                      bfs.chosen_valid_slices}));
}

TEST(RelabelMode, NamesRoundTrip) {
  for (const RelabelMode mode : {RelabelMode::kNone, RelabelMode::kDegree,
                                 RelabelMode::kBfs, RelabelMode::kAuto}) {
    const auto parsed = ParseRelabelMode(ToString(mode));
    ASSERT_TRUE(parsed.has_value()) << ToString(mode);
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(ParseRelabelMode("").has_value());
  EXPECT_FALSE(ParseRelabelMode("Degree").has_value());
  EXPECT_FALSE(ParseRelabelMode("random").has_value());
}

TEST(RelabelByDegree, ReturnsRenamedGraphAndMap) {
  const Graph g = WheelPlusTail();
  VertexRelabeling map;
  const Graph renamed = RelabelByDegree(g, &map);
  ExpectBijection(map, g.num_vertices());
  EXPECT_EQ(renamed.num_edges(), g.num_edges());
  EXPECT_EQ(baseline::CountTrianglesReference(renamed),
            baseline::CountTrianglesReference(g));
  // The hub (original 0, max degree) lands on the top internal id.
  EXPECT_EQ(*map.FindInternal(0), g.num_vertices() - 1);
}

TEST(MapToInternal, RewritesDeltasAndGrowsTheMap) {
  const Graph g = WheelPlusTail();
  VertexRelabeling map;
  const Graph renamed = RelabelByDegree(g, &map);
  (void)renamed;
  stream::EdgeDelta delta;
  delta.Insert(0, 3);
  delta.Erase(7, 8);
  delta.Insert(500, 0);  // vertex the loaded graph never saw
  const stream::EdgeDelta internal = stream::MapToInternal(delta, map);
  ASSERT_EQ(internal.size(), 3u);
  EXPECT_EQ(internal.ops[0].u, *map.FindInternal(0));
  EXPECT_EQ(internal.ops[0].v, *map.FindInternal(3));
  EXPECT_EQ(internal.ops[1].u, *map.FindInternal(7));
  EXPECT_EQ(internal.ops[1].v, *map.FindInternal(8));
  // 500 was assigned the next free internal id, and the map remembers.
  ASSERT_TRUE(map.FindInternal(500).has_value());
  EXPECT_EQ(*map.FindInternal(500), g.num_vertices());
  EXPECT_EQ(map.ToOriginal(g.num_vertices()), 500u);
  EXPECT_EQ(internal.ops[2].u, g.num_vertices());
}

TEST(Relabeling, PerVertexReportingIsInvisibleThroughTheInverseMap) {
  // The round-trip the CLI's top-degree report relies on: the
  // (original id, degree) multiset read through the inverse map off a
  // relabeled graph equals the same read off the unrelabeled graph.
  const Graph g = RandomGraph(150, 900, 321);
  RelabelChoice choice = ChooseRelabeling(g, RelabelMode::kDegree, 64);
  const Graph renamed = choice.map.Apply(g);
  std::vector<std::pair<VertexId, std::uint64_t>> direct;
  std::vector<std::pair<VertexId, std::uint64_t>> via_map;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    direct.emplace_back(v, g.Degree(v));
    via_map.emplace_back(choice.map.ToOriginal(v), renamed.Degree(v));
  }
  std::sort(via_map.begin(), via_map.end());
  EXPECT_EQ(direct, via_map);
}

}  // namespace
}  // namespace tcim::graph
