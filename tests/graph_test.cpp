// Tests for the CSR graph substrate and its builder invariants, and an
// exactness oracle: the sort-based GraphBuilder::Build (graph_oracle.h)
// matched bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph_oracle.h"
#include "util/rng.h"

namespace tcim::graph {
namespace {

/// A random simple graph on n vertices from `attempts` random pairs.
Graph ErdosRenyiLike(VertexId n, int attempts, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  GraphBuilder b(n);
  for (int i = 0; i < attempts; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(n)),
              static_cast<VertexId>(rng.UniformBelow(n)));
  }
  return std::move(b).Build();
}

TEST(GraphBuilder, EmptyGraph) {
  const Graph g = GraphBuilder(0).Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(GraphBuilder, VerticesWithoutEdges) {
  const Graph g = GraphBuilder(5).Build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 0u);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(g.Degree(v), 0u);
    EXPECT_TRUE(g.Neighbors(v).empty());
  }
}

TEST(GraphBuilder, SingleEdgeIsSymmetric) {
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(GraphBuilder, DropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(1, 1);
  b.AddEdge(0, 1);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(GraphBuilder, DeduplicatesParallelEdges) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // same edge, reversed
  b.AddEdge(0, 1);  // exact duplicate
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(GraphBuilder, RejectsOutOfRangeVertices) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdge(0, 3), std::out_of_range);
  EXPECT_THROW(b.AddEdge(3, 0), std::out_of_range);
}

TEST(Graph, NeighborsAreSortedStrictlyIncreasing) {
  util::Xoshiro256 rng(42);
  GraphBuilder b(200);
  for (int i = 0; i < 2000; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(200)),
              static_cast<VertexId>(rng.UniformBelow(200)));
  }
  const Graph g = std::move(b).Build();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.Neighbors(v);
    for (std::size_t i = 1; i < nbrs.size(); ++i) {
      ASSERT_LT(nbrs[i - 1], nbrs[i]);
    }
  }
}

TEST(Graph, RowsSortedWhenEdgesArriveDescendingReversedAndDuplicated) {
  // Build() never sorts; every row must come out sorted from its
  // scatters alone, whatever order the edges were added in.
  constexpr VertexId kN = 40;
  GraphBuilder b(kN);
  std::vector<std::vector<VertexId>> expected(kN);
  for (VertexId u = kN; u-- > 0;) {
    for (VertexId v = kN; v-- > u + 1;) {
      if ((u * 7 + v * 3) % 4 != 0) continue;
      b.AddEdge(v, u);  // reversed endpoints
      b.AddEdge(u, v);  // the same edge again
      if (v % 3 == 0) b.AddEdge(v, u);
      expected[u].push_back(v);
      expected[v].push_back(u);
    }
  }
  const Graph g = std::move(b).Build();
  std::uint64_t max_degree = 0;
  for (VertexId v = 0; v < kN; ++v) {
    std::sort(expected[v].begin(), expected[v].end());
    const auto nbrs = g.Neighbors(v);
    EXPECT_EQ(std::vector<VertexId>(nbrs.begin(), nbrs.end()), expected[v])
        << "vertex " << v;
    max_degree = std::max<std::uint64_t>(max_degree, expected[v].size());
  }
  EXPECT_EQ(g.max_degree(), max_degree);
}

TEST(Graph, AdjacencyIsSymmetric) {
  util::Xoshiro256 rng(43);
  GraphBuilder b(100);
  for (int i = 0; i < 500; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(100)),
              static_cast<VertexId>(rng.UniformBelow(100)));
  }
  const Graph g = std::move(b).Build();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.Neighbors(v)) {
      ASSERT_TRUE(g.HasEdge(u, v));
    }
  }
}

TEST(Graph, DegreeSumsToTwiceEdges) {
  util::Xoshiro256 rng(44);
  GraphBuilder b(150);
  for (int i = 0; i < 900; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(150)),
              static_cast<VertexId>(rng.UniformBelow(150)));
  }
  const Graph g = std::move(b).Build();
  std::uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) degree_sum += g.Degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

TEST(Graph, ForEachEdgeVisitsEachOnceOrdered) {
  GraphBuilder b(5);
  b.AddEdge(3, 1);
  b.AddEdge(0, 4);
  b.AddEdge(2, 0);
  const Graph g = std::move(b).Build();
  std::vector<std::pair<VertexId, VertexId>> edges;
  g.ForEachEdge([&](VertexId u, VertexId v) { edges.emplace_back(u, v); });
  EXPECT_EQ(edges, (std::vector<std::pair<VertexId, VertexId>>{
                       {0, 2}, {0, 4}, {1, 3}}));
}

TEST(Graph, MaxAndMeanDegree) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(0, 3);
  const Graph g = std::move(b).Build();
  EXPECT_EQ(g.max_degree(), 3u);
  EXPECT_DOUBLE_EQ(g.mean_degree(), 6.0 / 4.0);
}

TEST(Graph, AccessorsRejectOutOfRange) {
  const Graph g = GraphBuilder(2).Build();
  EXPECT_THROW((void)g.Neighbors(2), std::out_of_range);
  EXPECT_THROW((void)g.Degree(2), std::out_of_range);
  EXPECT_THROW((void)g.HasEdge(0, 2), std::out_of_range);
}

TEST(Graph, HasEdgeSearchesSmallerList) {
  // Hub vertex 0 with many neighbours; probe from both sides.
  GraphBuilder b(1000);
  for (VertexId v = 1; v < 1000; ++v) b.AddEdge(0, v);
  b.AddEdge(500, 501);
  const Graph g = std::move(b).Build();
  EXPECT_TRUE(g.HasEdge(0, 999));
  EXPECT_TRUE(g.HasEdge(999, 0));
  EXPECT_TRUE(g.HasEdge(500, 501));
  EXPECT_FALSE(g.HasEdge(501, 502));
}

TEST(Graph, OffsetsSpanAdjacency) {
  util::Xoshiro256 rng(45);
  GraphBuilder b(50);
  for (int i = 0; i < 100; ++i) {
    b.AddEdge(static_cast<VertexId>(rng.UniformBelow(50)),
              static_cast<VertexId>(rng.UniformBelow(50)));
  }
  const Graph g = std::move(b).Build();
  const auto offsets = g.offsets();
  ASSERT_EQ(offsets.size(), g.num_vertices() + 1u);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), g.adjacency().size());
  for (std::size_t i = 1; i < offsets.size(); ++i) {
    EXPECT_LE(offsets[i - 1], offsets[i]);
  }
}

// --- Sort-based oracle ------------------------------------------------------

void ExpectBuildMatchesOracle(VertexId n, const oracle::EdgeList& edges,
                              const std::string& label) {
  const Graph g = oracle::BuildGraph(n, edges);
  const oracle::ReferenceCsr want = oracle::ReferenceGraphBuilderBuild(n, edges);
  oracle::ExpectSameGraph(g, want, label);
  // No slack is kept: the CSR arrays hold exactly their contents.
  EXPECT_EQ(g.HeapBytes(), want.offsets.size() * sizeof(std::uint64_t) +
                               want.adjacency.size() * sizeof(VertexId))
      << label;
}

TEST(GraphBuilderOracle, PaperStandInsShuffledCopiesAndCornerCases) {
  for (const oracle::OracleInput& in : oracle::OracleInputs()) {
    ExpectBuildMatchesOracle(in.num_vertices, in.edges, in.name);
    ExpectBuildMatchesOracle(in.num_vertices,
                             oracle::Scrambled(in.edges, 7 + in.edges.size()),
                             in.name + " scrambled");
  }
}

TEST(GraphBuilderOracle, ReversedDuplicatedAndSelfLoopEdges) {
  const Graph g = ErdosRenyiLike(300, 2500, 11);
  const oracle::EdgeList edges = oracle::EdgesOf(g);
  ASSERT_GE(edges.size(), 300u);
  // Descending order with both endpoints swapped.
  oracle::EdgeList reversed(edges.rbegin(), edges.rend());
  for (auto& [u, v] : reversed) std::swap(u, v);
  ExpectBuildMatchesOracle(300, reversed, "reversed");
  // Every edge three times: as given, reversed, as given.
  oracle::EdgeList tripled;
  for (const auto& [u, v] : edges) {
    tripled.emplace_back(u, v);
    tripled.emplace_back(v, u);
    tripled.emplace_back(u, v);
  }
  ExpectBuildMatchesOracle(300, tripled, "tripled");
  // A self-loop on every vertex, interleaved with the edges.
  oracle::EdgeList looped;
  for (VertexId v = 0; v < 300; ++v) {
    looped.emplace_back(v, v);
    if (v < edges.size()) looped.push_back(edges[v]);
  }
  looped.insert(looped.end(), edges.begin() + 300, edges.end());
  ExpectBuildMatchesOracle(300, looped, "looped");
  ExpectBuildMatchesOracle(4, {{2, 2}, {0, 0}, {3, 3}}, "only self-loops");
  ExpectBuildMatchesOracle(3, {{2, 0}, {0, 2}, {2, 0}, {0, 2}}, "one edge x4");
  // A hub whose row receives every duplicate of every spoke.
  oracle::EdgeList hub;
  for (int round = 0; round < 3; ++round) {
    for (VertexId v = 1; v < 200; ++v) hub.emplace_back(v, 0);
  }
  ExpectBuildMatchesOracle(200, hub, "hub");
  ExpectBuildMatchesOracle(1, {}, "single vertex");
}

}  // namespace
}  // namespace tcim::graph
