#include "core/edge_support.h"

#include <algorithm>
#include <stdexcept>

#include "arch/controller.h"
#include "core/bitwise_tc.h"
#include "pim/computational_array.h"

namespace tcim::core {
namespace {

using graph::Graph;
using graph::VertexId;

/// Canonical edge id lookup: for (u, v) with u < v, the edge's
/// position in ForEachEdge order = rank of v among u's
/// greater-neighbors plus the running offset of u.
class EdgeIndex {
 public:
  explicit EdgeIndex(const Graph& g) : graph_(g) {
    offsets_.assign(static_cast<std::size_t>(g.num_vertices()) + 1, 0);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const auto nbrs = g.Neighbors(u);
      const auto greater = std::upper_bound(nbrs.begin(), nbrs.end(), u);
      offsets_[u + 1] =
          offsets_[u] + static_cast<std::uint64_t>(nbrs.end() - greater);
    }
  }

  [[nodiscard]] std::uint64_t num_edges() const noexcept {
    return offsets_.back();
  }

  /// Edge id of (u, v); arguments may be in either order.
  [[nodiscard]] std::uint64_t IdOf(VertexId u, VertexId v) const {
    if (u > v) std::swap(u, v);
    const auto nbrs = graph_.Neighbors(u);
    const auto greater = std::upper_bound(nbrs.begin(), nbrs.end(), u);
    const auto it = std::lower_bound(greater, nbrs.end(), v);
    if (it == nbrs.end() || *it != v) {
      throw std::invalid_argument("EdgeIndex::IdOf: no such edge");
    }
    return offsets_[u] + static_cast<std::uint64_t>(it - greater);
  }

 private:
  const Graph& graph_;
  std::vector<std::uint64_t> offsets_;
};

}  // namespace

std::uint64_t EdgeSupports::TriangleCount() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint32_t s : support) total += s;
  return total / 3;
}

EdgeSupports ComputeEdgeSupportsCpu(const Graph& g) {
  EdgeSupports out;
  out.support.reserve(g.num_edges());
  g.ForEachEdge([&](VertexId u, VertexId v) {
    const auto nu = g.Neighbors(u);
    const auto nv = g.Neighbors(v);
    std::uint32_t common = 0;
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < nu.size() && b < nv.size()) {
      if (nu[a] < nv[b]) {
        ++a;
      } else if (nu[a] > nv[b]) {
        ++b;
      } else {
        ++common;
        ++a;
        ++b;
      }
    }
    out.support.push_back(common);
  });
  return out;
}

EdgeSupports ComputeEdgeSupportsTcim(const Graph& g,
                                     const TcimAccelerator& accelerator,
                                     TcimResult* result) {
  // Supports need full neighborhoods: build the symmetric matrix
  // regardless of the accelerator's counting orientation.
  const bit::SlicedMatrix matrix = BuildSlicedMatrix(
      g, graph::Orientation::kFullSymmetric,
      accelerator.config().slice_bits);

  struct Sink final : arch::EdgeCountSink {
    explicit Sink(const Graph& g) : index(g), supports(index.num_edges(), 0) {}
    void OnEdge(std::uint32_t i, std::uint32_t j,
                std::uint64_t bitcount) override {
      // Each undirected edge arrives twice (both arc directions) with
      // the same support — |N(i) ∩ N(j)| is symmetric — so the second
      // visit rewrites an equal value (truss_test compares the result
      // against the CPU supports).
      const std::uint64_t e = index.IdOf(i, j);
      supports[e] = static_cast<std::uint32_t>(bitcount);
    }
    EdgeIndex index;
    std::vector<std::uint32_t> supports;
  } sink{g};

  pim::ComputationalArray array(accelerator.config().array,
                                accelerator.config().bit_counter);
  arch::Controller controller(array, accelerator.config().controller);
  arch::ExecStats stats = controller.Run(matrix, &sink);

  if (result != nullptr) {
    result->exec = std::move(stats);
    result->triangles = result->exec.accumulated_bitcount /
                        graph::CountMultiplier(
                            graph::Orientation::kFullSymmetric);
    result->slices = matrix.ComputeStats();
    result->perf =
        EvaluatePerf(result->exec, accelerator.array_perf(),
                     accelerator.config().bit_counter,
                     accelerator.config().perf);
  }

  EdgeSupports out;
  out.support = std::move(sink.supports);
  return out;
}

}  // namespace tcim::core
