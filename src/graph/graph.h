// Undirected simple graph in CSR form — the substrate every layer
// above (baselines, slicing, the TCIM accelerator) consumes.
//
// Invariants established by GraphBuilder::Build and assumed everywhere:
//  * no self-loops, no parallel edges;
//  * adjacency of each vertex sorted strictly increasing;
//  * symmetric: (u,v) present iff (v,u) present;
//  * vertex ids are dense in [0, num_vertices).
//
// Layer: §2 graph — see docs/ARCHITECTURE.md. Conventions: vertex ids
// are dense u32; num_edges() counts each undirected edge once.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tcim::graph {

using VertexId = std::uint32_t;

class VertexRelabeling;

/// Immutable undirected simple graph (CSR, both directions stored).
class Graph {
 public:
  Graph() = default;

  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }
  /// Number of undirected edges (each counted once).
  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return adjacency_.size() / 2;
  }

  [[nodiscard]] std::span<const VertexId> Neighbors(VertexId v) const;
  [[nodiscard]] std::uint64_t Degree(VertexId v) const;
  /// O(log deg) membership test.
  [[nodiscard]] bool HasEdge(VertexId u, VertexId v) const;

  /// Raw CSR access for algorithms that stream the whole structure.
  [[nodiscard]] std::span<const std::uint64_t> offsets() const noexcept {
    return offsets_;
  }
  [[nodiscard]] std::span<const VertexId> adjacency() const noexcept {
    return adjacency_;
  }

  [[nodiscard]] std::uint64_t max_degree() const noexcept {
    return max_degree_;
  }
  [[nodiscard]] double mean_degree() const noexcept {
    return n_ == 0 ? 0.0
                   : static_cast<double>(adjacency_.size()) /
                         static_cast<double>(n_);
  }

  /// Calls fn(u, v) once per undirected edge with u < v, in
  /// lexicographic order.
  template <typename Fn>
  void ForEachEdge(Fn&& fn) const {
    for (VertexId u = 0; u < n_; ++u) {
      for (std::uint64_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
        const VertexId v = adjacency_[e];
        if (v > u) fn(u, v);
      }
    }
  }

  /// Approximate heap footprint (diagnostics for the big graphs).
  [[nodiscard]] std::uint64_t HeapBytes() const noexcept {
    return offsets_.capacity() * sizeof(std::uint64_t) +
           adjacency_.capacity() * sizeof(VertexId);
  }

 private:
  friend class GraphBuilder;
  friend class VertexRelabeling;  // Apply permutes the CSR directly

  /// The sorted scatter shared by GraphBuilder::Build and
  /// VertexRelabeling::Apply, O(n + E). On entry offsets_[t + 1] holds
  /// row t's start and adjacency_ its final size; row_of(s) yields the
  /// neighbors of s, in any order and without duplicates. Appending
  /// every s, ascending, to its neighbors' rows leaves each row sorted
  /// with no sort at all, and each cursor ends on its row's end, the
  /// next row's start.
  template <typename RowOf>
  void ScatterSortedRows(RowOf&& row_of) {
    for (VertexId s = 0; s < n_; ++s) {
      for (const VertexId t : row_of(s)) adjacency_[offsets_[t + 1]++] = s;
    }
  }

  VertexId n_ = 0;
  std::uint64_t max_degree_ = 0;
  std::vector<std::uint64_t> offsets_;  // size n_+1
  std::vector<VertexId> adjacency_;     // size 2 * num_edges
};

/// Accumulates an edge list and normalizes it into a Graph.
/// Self-loops and duplicate/parallel edges are silently dropped at
/// Build() — generators and file loaders may emit both.
class GraphBuilder {
 public:
  explicit GraphBuilder(VertexId num_vertices);

  void ReserveEdges(std::uint64_t count) { edges_.reserve(count); }
  /// Records an undirected edge; order of endpoints is irrelevant.
  /// Throws std::out_of_range if an endpoint is >= num_vertices.
  void AddEdge(VertexId u, VertexId v);
  [[nodiscard]] std::uint64_t pending_edges() const noexcept {
    return edges_.size();
  }
  [[nodiscard]] VertexId num_vertices() const noexcept { return n_; }

  /// Symmetrizes, deduplicates and freezes into a Graph in O(n + E),
  /// with no sort: both arcs of every edge are scattered into rows by
  /// source, duplicates are dropped row by row, and the shared sorted
  /// scatter (Graph::ScatterSortedRows) transposes the rows into the
  /// sorted CSR. The builder is consumed.
  [[nodiscard]] Graph Build() &&;

 private:
  VertexId n_;
  // Recorded edges, (u << 32) | v, in arrival order.
  std::vector<std::uint64_t> edges_;
};

}  // namespace tcim::graph
