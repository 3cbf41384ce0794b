#include "graph/graph.h"

#include <algorithm>
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
  if (u > v) std::swap(u, v);
  edges_.push_back((static_cast<std::uint64_t>(u) << 32) | v);
}

Graph GraphBuilder::Build() && {
  std::sort(edges_.begin(), edges_.end());
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());

  Graph g;
  g.n_ = n_;
  g.offsets_.assign(static_cast<std::size_t>(n_) + 1, 0);

  // Degree counting for both directions, then scatter.
  for (const std::uint64_t packed : edges_) {
    const auto u = static_cast<VertexId>(packed >> 32);
    const auto v = static_cast<VertexId>(packed & 0xFFFFFFFFULL);
    ++g.offsets_[static_cast<std::size_t>(u) + 1];
    ++g.offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (VertexId v = 0; v < n_; ++v) {
    g.offsets_[v + 1] += g.offsets_[v];
  }
  g.adjacency_.assign(g.offsets_.back(), 0);
  std::vector<std::uint64_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const std::uint64_t packed : edges_) {
    const auto u = static_cast<VertexId>(packed >> 32);
    const auto v = static_cast<VertexId>(packed & 0xFFFFFFFFULL);
    g.adjacency_[cursor[u]++] = v;
    g.adjacency_[cursor[v]++] = u;
  }
  // Every row is already sorted: edges are (u < v) pairs in sorted
  // order, so row x receives each lower neighbor u (from the pairs
  // (u, x), ascending in u) before each higher neighbor v (from the
  // pairs (x, v), ascending in v).
  for (VertexId v = 0; v < n_; ++v) {
    g.max_degree_ =
        std::max(g.max_degree_, g.offsets_[v + 1] - g.offsets_[v]);
  }
  edges_.clear();
  edges_.shrink_to_fit();
  return g;
}

}  // namespace tcim::graph
