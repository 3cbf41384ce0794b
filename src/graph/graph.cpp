#include "graph/graph.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace tcim::graph {

std::span<const VertexId> Graph::Neighbors(VertexId v) const {
  if (v >= n_) {
    throw std::out_of_range("Graph::Neighbors: vertex out of range");
  }
  return {adjacency_.data() + offsets_[v],
          static_cast<std::size_t>(offsets_[v + 1] - offsets_[v])};
}

std::uint64_t Graph::Degree(VertexId v) const {
  if (v >= n_) {
    throw std::out_of_range("Graph::Degree: vertex out of range");
  }
  return offsets_[v + 1] - offsets_[v];
}

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= n_ || v >= n_) {
    throw std::out_of_range("Graph::HasEdge: vertex out of range");
  }
  // Search the smaller adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

GraphBuilder::GraphBuilder(VertexId num_vertices) : n_(num_vertices) {}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u >= n_ || v >= n_) {
    throw std::out_of_range("GraphBuilder::AddEdge: vertex out of range");
  }
  if (u == v) return;  // self-loop: irrelevant for triangle counting
  edges_.push_back((static_cast<std::uint64_t>(u) << 32) | v);
}

Graph GraphBuilder::Build() && {
  const auto source = [](std::uint64_t packed) {
    return static_cast<VertexId>(packed >> 32);
  };
  const auto target = [](std::uint64_t packed) {
    return static_cast<VertexId>(packed & 0xFFFFFFFFULL);
  };
  // Both arcs of every edge, grouped by source in arrival order. After
  // the scatter, row s of `arcs` is [bound[s], bound[s + 1]); during it
  // bound[s + 1] holds row s's start and serves as its fill cursor.
  std::vector<std::uint64_t> bound(static_cast<std::size_t>(n_) + 1, 0);
  for (const std::uint64_t packed : edges_) {
    ++bound[static_cast<std::size_t>(source(packed)) + 1];
    ++bound[static_cast<std::size_t>(target(packed)) + 1];
  }
  std::exclusive_scan(bound.begin() + 1, bound.end(), bound.begin() + 1,
                      std::uint64_t{0});
  std::vector<VertexId> arcs(2 * edges_.size());
  for (const std::uint64_t packed : edges_) {
    arcs[bound[static_cast<std::size_t>(source(packed)) + 1]++] =
        target(packed);
    arcs[bound[static_cast<std::size_t>(target(packed)) + 1]++] =
        source(packed);
  }
  std::vector<std::uint64_t>().swap(edges_);

  // Drop repeated arcs within each row (a target stamped s + 1 was
  // already kept for s), compacting the rows in place. The rows then
  // hold each undirected edge once per endpoint, so their sizes are
  // the degrees of the graph.
  {
    std::vector<VertexId> stamp(n_, 0);
    std::uint64_t kept = 0;
    std::uint64_t begin = 0;
    for (VertexId s = 0; s < n_; ++s) {
      const std::uint64_t end = bound[s + 1];
      for (std::uint64_t e = begin; e < end; ++e) {
        const VertexId t = arcs[e];
        if (stamp[t] != s + 1) {
          stamp[t] = s + 1;
          arcs[kept++] = t;
        }
      }
      begin = end;
      bound[s + 1] = kept;
    }
  }

  Graph g;
  g.n_ = n_;
  g.offsets_.resize(static_cast<std::size_t>(n_) + 1);
  for (VertexId v = 0; v < n_; ++v) {
    g.offsets_[v + 1] = bound[v];
    g.max_degree_ = std::max(g.max_degree_, bound[v + 1] - bound[v]);
  }
  g.adjacency_.resize(bound[n_]);
  g.ScatterSortedRows([&](VertexId s) {
    return std::span<const VertexId>(arcs.data() + bound[s],
                                     bound[s + 1] - bound[s]);
  });
  return g;
}

}  // namespace tcim::graph
