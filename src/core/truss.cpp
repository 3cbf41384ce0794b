#include "core/truss.h"

#include <algorithm>
#include <stdexcept>

namespace tcim::core {
namespace {

using graph::Graph;
using graph::VertexId;

/// Edge-indexed adjacency view: for each vertex, its incident
/// canonical edge ids alongside the neighbor ids, supporting O(deg)
/// merge enumeration of triangles through an edge.
struct EdgeAdjacency {
  explicit EdgeAdjacency(const Graph& g)
      : offsets(g.offsets().begin(), g.offsets().end()),
        neighbor(g.adjacency().begin(), g.adjacency().end()),
        edge_id(g.adjacency().size()) {
    // Assign canonical ids in ForEachEdge order, then mirror them to
    // the reverse arcs.
    std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
    std::uint64_t next_id = 0;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      for (const VertexId v : g.Neighbors(u)) {
        if (v > u) {
          const std::uint64_t arc_uv = cursor[u]++;
          // Find the reverse arc position via the cursor of v as well:
          // arcs are visited in sorted order on both sides, so v's
          // cursor points at u exactly when we get here.
          const std::uint64_t arc_vu = cursor[v]++;
          edge_id[arc_uv] = next_id;
          edge_id[arc_vu] = next_id;
          ++next_id;
        }
      }
    }
    // The cursor trick above assumes each adjacency list is consumed
    // in order, which holds only if for every edge (u,v), all of v's
    // neighbors smaller than u have already been processed — true
    // because we sweep u ascending and lists are sorted.
  }

  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> neighbor;
  std::vector<std::uint64_t> edge_id;
};

}  // namespace

std::uint64_t TrussResult::KTrussEdgeCount(std::uint32_t k) const {
  std::uint64_t count = 0;
  for (const std::uint32_t t : trussness) {
    if (t >= k) ++count;
  }
  return count;
}

std::vector<std::uint64_t> TrussResult::Histogram() const {
  std::vector<std::uint64_t> hist(static_cast<std::size_t>(max_truss) + 1, 0);
  for (const std::uint32_t t : trussness) {
    ++hist[t];
  }
  return hist;
}

TrussResult DecomposeTruss(const Graph& g,
                           std::vector<std::uint32_t> support) {
  const std::uint64_t m = g.num_edges();
  if (support.size() != m) {
    throw std::invalid_argument("DecomposeTruss: support size mismatch");
  }
  TrussResult result;
  result.trussness.assign(m, 2);
  if (m == 0) return result;

  const EdgeAdjacency adj(g);

  // Endpoints per canonical edge.
  std::vector<VertexId> eu(m);
  std::vector<VertexId> ev(m);
  {
    std::uint64_t e = 0;
    g.ForEachEdge([&](VertexId u, VertexId v) {
      eu[e] = u;
      ev[e] = v;
      ++e;
    });
  }

  // Bucket queue over supports (supports only decrease).
  std::uint32_t max_sup = 0;
  for (const std::uint32_t s : support) max_sup = std::max(max_sup, s);
  std::vector<std::vector<std::uint32_t>> buckets(max_sup + 1);
  for (std::uint64_t e = 0; e < m; ++e) {
    buckets[support[e]].push_back(static_cast<std::uint32_t>(e));
  }
  std::vector<bool> removed(m, false);

  std::uint32_t k = 2;
  std::uint64_t remaining = m;
  std::uint32_t scan = 0;  // current bucket floor
  while (remaining > 0) {
    // Find the lowest-support live edge.
    while (scan <= max_sup &&
           (buckets[scan].empty() ||
            [&] {  // drop stale entries lazily
              while (!buckets[scan].empty()) {
                const std::uint32_t e = buckets[scan].back();
                if (removed[e] || support[e] != scan) {
                  buckets[scan].pop_back();
                } else {
                  return false;  // live entry found
                }
              }
              return true;
            }())) {
      ++scan;
    }
    if (scan > max_sup) break;  // defensive; remaining should be 0

    const std::uint32_t e = buckets[scan].back();
    buckets[scan].pop_back();
    if (support[e] > k - 2) {
      k = support[e] + 2;  // peel level rises to this edge's support
    }
    result.trussness[e] = k;
    removed[e] = true;
    --remaining;

    // Destroy every triangle through e = (u, v): the two partner
    // edges (u, w), (v, w) lose one support each.
    const VertexId u = eu[e];
    const VertexId v = ev[e];
    std::uint64_t a = adj.offsets[u];
    std::uint64_t b = adj.offsets[v];
    const std::uint64_t ae = adj.offsets[u + 1];
    const std::uint64_t be = adj.offsets[v + 1];
    while (a < ae && b < be) {
      if (adj.neighbor[a] < adj.neighbor[b]) {
        ++a;
      } else if (adj.neighbor[a] > adj.neighbor[b]) {
        ++b;
      } else {
        const std::uint64_t euw = adj.edge_id[a];
        const std::uint64_t evw = adj.edge_id[b];
        if (!removed[euw] && !removed[evw]) {
          for (const std::uint64_t partner : {euw, evw}) {
            // Support never drops below the current peel floor k-2:
            // such edges are already doomed at level k and clamping
            // keeps trussness assignment monotone.
            if (support[partner] > k - 2) {
              --support[partner];
              buckets[support[partner]].push_back(
                  static_cast<std::uint32_t>(partner));
              if (support[partner] < scan) {
                scan = support[partner];
              }
            }
          }
        }
        ++a;
        ++b;
      }
    }
  }

  result.max_truss = 2;
  for (const std::uint32_t t : result.trussness) {
    result.max_truss = std::max(result.max_truss, t);
  }
  return result;
}

TrussResult DecomposeTrussCpu(const Graph& g) {
  return DecomposeTruss(g, ComputeEdgeSupportsCpu(g).support);
}

}  // namespace tcim::core
