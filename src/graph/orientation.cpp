#include "graph/orientation.h"

#include <algorithm>
#include <span>

#include "graph/relabel.h"

namespace tcim::graph {

std::string ToString(Orientation o) {
  switch (o) {
    case Orientation::kUpper:
      return "upper";
    case Orientation::kDegree:
      return "degree";
    case Orientation::kFullSymmetric:
      return "full";
  }
  return "?";
}

std::uint64_t OrientedCsr::MaxOutDegree() const noexcept {
  std::uint64_t best = 0;
  for (VertexId v = 0; v < num_vertices; ++v) {
    best = std::max(best, offsets[v + 1] - offsets[v]);
  }
  return best;
}

namespace {

OrientedCsr OrientUpper(const Graph& g) {
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::span<const VertexId> adjacency = g.adjacency();
  OrientedCsr out;
  out.num_vertices = g.num_vertices();
  out.orientation = Orientation::kUpper;
  out.offsets.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
  out.neighbors.reserve(g.num_edges());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    // Rows are sorted: the higher neighbors are the row's suffix.
    const auto row_end = adjacency.begin() +
                         static_cast<std::ptrdiff_t>(offsets[u + 1]);
    out.neighbors.insert(
        out.neighbors.end(),
        std::upper_bound(adjacency.begin() +
                             static_cast<std::ptrdiff_t>(offsets[u]),
                         row_end, u),
        row_end);
    out.offsets[u + 1] = out.neighbors.size();
  }
  return out;
}

OrientedCsr OrientFull(const Graph& g) {
  OrientedCsr out;
  out.num_vertices = g.num_vertices();
  out.orientation = Orientation::kFullSymmetric;
  out.offsets.assign(g.offsets().begin(), g.offsets().end());
  out.neighbors.assign(g.adjacency().begin(), g.adjacency().end());
  return out;
}

// kUpper of the graph renamed in (degree, id) order: the new ids are
// the ranks, so every arc points up in rank, and the rename's sorted
// scatter leaves every row sorted.
OrientedCsr OrientDegree(const Graph& g) {
  const VertexRelabeling map = VertexRelabeling::DegreeAscending(g);
  OrientedCsr out = OrientUpper(map.Apply(g));
  out.orientation = Orientation::kDegree;
  const std::span<const VertexId> old_of_new = map.old_of_new();
  out.relabel.resize(old_of_new.size());
  for (VertexId rank = 0; rank < old_of_new.size(); ++rank) {
    out.relabel[old_of_new[rank]] = rank;
  }
  return out;
}

}  // namespace

OrientedCsr Orient(const Graph& g, Orientation o) {
  switch (o) {
    case Orientation::kUpper:
      return OrientUpper(g);
    case Orientation::kDegree:
      return OrientDegree(g);
    case Orientation::kFullSymmetric:
      return OrientFull(g);
  }
  return OrientUpper(g);
}

}  // namespace tcim::graph
