// DAG orientation of an undirected graph (paper §III / Fig. 2).
//
// Eq. (5) evaluated over the *full symmetric* adjacency counts every
// triangle six times (Eq. 1 divides by 6); the paper's walkthrough in
// Fig. 2 instead uses the upper-triangular matrix, under which every
// triangle {a<b<c} is counted exactly once — at edge (a,c) with b as
// the intermediate. This module produces the oriented CSR consumed by
// the slicing layer, in three flavours that the orientation ablation
// compares.
//
// Layer: §2 graph — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace tcim::graph {

enum class Orientation : std::uint8_t {
  /// Arc u -> v iff u < v (natural ids; the paper's Fig. 2 layout).
  kUpper,
  /// Arc from lower (degree, id) rank to higher — bounds out-degree by
  /// O(sqrt(m)) on skewed graphs; classic TC optimization. Built in
  /// O(n + E) as kUpper of the graph renamed by
  /// VertexRelabeling::DegreeAscending, whose ids are those ranks.
  kDegree,
  /// Both arcs kept; Eq. (5) totals 6x the triangle count (Eq. 1).
  kFullSymmetric,
};

[[nodiscard]] std::string ToString(Orientation o);

/// Triangle-count multiplier of Eq. (5) under orientation o: the
/// accumulated BitCount equals multiplier * triangles.
[[nodiscard]] constexpr std::uint64_t CountMultiplier(Orientation o) noexcept {
  return o == Orientation::kFullSymmetric ? 6 : 1;
}

/// The oriented adjacency matrix in CSR form, ready for slicing.
struct OrientedCsr {
  VertexId num_vertices = 0;
  Orientation orientation = Orientation::kUpper;
  std::vector<std::uint64_t> offsets;    // size num_vertices+1
  std::vector<VertexId> neighbors;       // per-row sorted ascending
  /// For kDegree: new_id_of[old_id]; identity otherwise (left empty).
  std::vector<VertexId> relabel;

  [[nodiscard]] std::uint64_t arc_count() const noexcept {
    return neighbors.size();
  }
  [[nodiscard]] std::uint64_t MaxOutDegree() const noexcept;
};

/// Orients `g` as requested. For kDegree the vertices are relabelled by
/// ascending (degree, id); `relabel` records the mapping.
[[nodiscard]] OrientedCsr Orient(const Graph& g, Orientation o);

}  // namespace tcim::graph
