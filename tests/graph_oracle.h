// Sort-based reference formulation of GraphBuilder::Build and the
// inputs its oracle tests share (graph_test, orientation_test,
// io_test): the linear-time graph layer must reproduce this CSR bit
// for bit — offsets, adjacency, vertex count and max degree — on the 9
// paper stand-ins, id-shuffled copies of them and the corner cases a
// scatter can get wrong (stars, cliques, isolated vertices, empty and
// edgeless graphs, reversed, duplicated and self-loop edges).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/datasets.h"
#include "graph/graph.h"
#include "util/rng.h"

namespace tcim::graph::oracle {

using EdgeList = std::vector<std::pair<VertexId, VertexId>>;

/// A CSR built without the code under test.
struct ReferenceCsr {
  VertexId num_vertices = 0;
  std::uint64_t max_degree = 0;
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> adjacency;
};

/// GraphBuilder(n), AddEdge per edge, Build() as a global sort: every
/// edge normalized to a packed (min, max) key, sorted, deduplicated,
/// then scattered into both endpoints' rows.
inline ReferenceCsr ReferenceGraphBuilderBuild(VertexId n,
                                               const EdgeList& edges) {
  std::vector<std::uint64_t> packed;
  packed.reserve(edges.size());
  for (auto [u, v] : edges) {
    if (u >= n || v >= n) {
      throw std::out_of_range("ReferenceGraphBuilderBuild: vertex range");
    }
    if (u == v) continue;
    if (u > v) std::swap(u, v);
    packed.push_back((static_cast<std::uint64_t>(u) << 32) | v);
  }
  std::sort(packed.begin(), packed.end());
  packed.erase(std::unique(packed.begin(), packed.end()), packed.end());

  ReferenceCsr csr;
  csr.num_vertices = n;
  csr.offsets.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const std::uint64_t key : packed) {
    ++csr.offsets[(key >> 32) + 1];
    ++csr.offsets[(key & 0xFFFFFFFFULL) + 1];
  }
  std::partial_sum(csr.offsets.begin(), csr.offsets.end(),
                   csr.offsets.begin());
  csr.adjacency.assign(csr.offsets.back(), 0);
  std::vector<std::uint64_t> cursor(csr.offsets.begin(),
                                    csr.offsets.end() - 1);
  for (const std::uint64_t key : packed) {
    const auto u = static_cast<VertexId>(key >> 32);
    const auto v = static_cast<VertexId>(key & 0xFFFFFFFFULL);
    csr.adjacency[cursor[u]++] = v;
    csr.adjacency[cursor[v]++] = u;
  }
  for (VertexId v = 0; v < n; ++v) {
    std::sort(csr.adjacency.begin() +
                  static_cast<std::ptrdiff_t>(csr.offsets[v]),
              csr.adjacency.begin() +
                  static_cast<std::ptrdiff_t>(csr.offsets[v + 1]));
    csr.max_degree =
        std::max(csr.max_degree, csr.offsets[v + 1] - csr.offsets[v]);
  }
  return csr;
}

inline void ExpectSameGraph(const Graph& got, const ReferenceCsr& want,
                            const std::string& label) {
  EXPECT_EQ(got.num_vertices(), want.num_vertices) << label;
  EXPECT_EQ(got.max_degree(), want.max_degree) << label;
  EXPECT_TRUE(std::ranges::equal(got.offsets(), want.offsets)) << label;
  EXPECT_TRUE(std::ranges::equal(got.adjacency(), want.adjacency)) << label;
}

inline Graph BuildGraph(VertexId n, const EdgeList& edges) {
  GraphBuilder builder(n);
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return std::move(builder).Build();
}

/// Each undirected edge of `g` once, as (u < v) in lexicographic order.
inline EdgeList EdgesOf(const Graph& g) {
  EdgeList edges;
  edges.reserve(g.num_edges());
  g.ForEachEdge([&](VertexId u, VertexId v) { edges.emplace_back(u, v); });
  return edges;
}

/// A uniformly random permutation of [0, n).
inline std::vector<VertexId> RandomPermutation(VertexId n,
                                               std::uint64_t seed) {
  std::vector<VertexId> perm(n);
  std::iota(perm.begin(), perm.end(), VertexId{0});
  util::Xoshiro256 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.UniformBelow(i)]);
  }
  return perm;
}

/// `edges` with every endpoint v renamed to perm[v].
inline EdgeList Renamed(EdgeList edges, const std::vector<VertexId>& perm) {
  for (auto& [u, v] : edges) {
    u = perm[u];
    v = perm[v];
  }
  return edges;
}

/// `edges` in a random order, about half of them with the endpoints
/// swapped, a tenth repeated and a self-loop on every 16th endpoint.
inline EdgeList Scrambled(EdgeList edges, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  const std::size_t m = edges.size();
  for (std::size_t e = 0; e < m; ++e) {
    if (rng.UniformBelow(2) == 1) std::swap(edges[e].first, edges[e].second);
    if (rng.UniformBelow(10) == 0) edges.push_back(edges[e]);
    if (edges[e].first % 16 == 0) {
      edges.emplace_back(edges[e].first, edges[e].first);
    }
  }
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.UniformBelow(i)]);
  }
  return edges;
}

struct OracleInput {
  std::string name;
  VertexId num_vertices = 0;
  EdgeList edges;
};

/// The 9 paper stand-ins at scale 0.02 and id-shuffled copies, a star,
/// a clique, isolated vertices at both ends and in the middle of the id
/// range, an empty and an edgeless graph. The edges are duplicate- and
/// loop-free, (u < v) in lexicographic order, except in the shuffled
/// copies.
inline std::vector<OracleInput> OracleInputs() {
  std::vector<OracleInput> inputs;
  for (const PaperRef& ref : AllPaperRefs()) {
    const DatasetInstance inst = SynthesizePaperGraph(ref.id, 0.02, 42);
    const VertexId n = inst.graph.num_vertices();
    EdgeList edges = EdgesOf(inst.graph);
    inputs.push_back({std::string(ref.name) + " shuffled", n,
                      Renamed(edges, RandomPermutation(n, 0x5eed ^ n))});
    inputs.push_back({ref.name, n, std::move(edges)});
  }
  {
    // Every leaf ties at degree 1; the hub sits mid-range.
    OracleInput star{"star", 700, {}};
    for (VertexId v = 0; v < 700; ++v) {
      if (v != 350) star.edges.emplace_back(std::min(v, 350u), std::max(v, 350u));
    }
    std::sort(star.edges.begin(), star.edges.end());
    inputs.push_back(std::move(star));
  }
  {
    OracleInput clique{"clique", 90, {}};
    for (VertexId u = 0; u < 90; ++u) {
      for (VertexId v = u + 1; v < 90; ++v) clique.edges.emplace_back(u, v);
    }
    inputs.push_back(std::move(clique));
  }
  {
    OracleInput isolated{"isolated", 1200, {}};
    util::Xoshiro256 rng(19);
    for (int e = 0; e < 2000; ++e) {
      isolated.edges.emplace_back(
          static_cast<VertexId>(100 + rng.UniformBelow(400)),
          static_cast<VertexId>(600 + rng.UniformBelow(500)));
    }
    std::sort(isolated.edges.begin(), isolated.edges.end());
    isolated.edges.erase(
        std::unique(isolated.edges.begin(), isolated.edges.end()),
        isolated.edges.end());
    inputs.push_back(std::move(isolated));
  }
  inputs.push_back({"empty", 0, {}});
  inputs.push_back({"edgeless", 5, {}});
  return inputs;
}

}  // namespace tcim::graph::oracle
