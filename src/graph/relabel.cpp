#include "graph/relabel.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

namespace tcim::graph {

VertexRelabeling VertexRelabeling::Identity(VertexId n) {
  VertexRelabeling map;
  map.new_of_old_.resize(n);
  map.old_of_new_.resize(n);
  std::iota(map.new_of_old_.begin(), map.new_of_old_.end(), VertexId{0});
  std::iota(map.old_of_new_.begin(), map.old_of_new_.end(), VertexId{0});
  return map;
}

namespace {

/// Vertices of `g` in a stable counting sort by degree — ascending or
/// descending — so equal degrees keep original id ascending.
std::vector<VertexId> OrderByDegree(const Graph& g, bool descending) {
  const VertexId n = g.num_vertices();
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::uint64_t max_degree = g.max_degree();
  const auto key = [&](VertexId v) {
    const std::uint64_t degree = offsets[v + 1] - offsets[v];
    return descending ? max_degree - degree : degree;
  };
  // start[k] = first output slot of key k.
  std::vector<VertexId> start(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++start[key(v) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<VertexId> order(n);
  for (VertexId v = 0; v < n; ++v) order[start[key(v)]++] = v;
  return order;
}

}  // namespace

VertexRelabeling VertexRelabeling::DegreeAscending(const Graph& g) {
  const VertexId n = g.num_vertices();
  VertexRelabeling map;
  map.old_of_new_ = OrderByDegree(g, /*descending=*/false);
  map.new_of_old_.resize(n);
  for (VertexId internal = 0; internal < n; ++internal) {
    map.new_of_old_[map.old_of_new_[internal]] = internal;
  }
  return map;
}

VertexRelabeling VertexRelabeling::BfsFromHubs(const Graph& g) {
  const VertexId n = g.num_vertices();
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::span<const VertexId> adjacency = g.adjacency();
  VertexRelabeling map;
  map.new_of_old_.assign(n, kUnassigned);
  map.old_of_new_.reserve(n);
  // old_of_new_ doubles as the BFS queue: the visit order is the
  // queue order, and [head, size()) is the unexpanded frontier.
  std::size_t head = 0;
  const auto visit = [&](VertexId v) {
    if (map.new_of_old_[v] != kUnassigned) return;
    map.new_of_old_[v] = static_cast<VertexId>(map.old_of_new_.size());
    map.old_of_new_.push_back(v);
  };
  for (const VertexId seed : OrderByDegree(g, /*descending=*/true)) {
    visit(seed);
    for (; head < map.old_of_new_.size(); ++head) {
      const VertexId u = map.old_of_new_[head];
      for (std::uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
        visit(adjacency[e]);
      }
    }
  }
  return map;
}

VertexId VertexRelabeling::ToInternal(VertexId original) {
  if (original >= new_of_old_.size()) {
    new_of_old_.resize(static_cast<std::size_t>(original) + 1, kUnassigned);
  }
  VertexId& slot = new_of_old_[original];
  if (slot == kUnassigned) {
    slot = static_cast<VertexId>(old_of_new_.size());
    old_of_new_.push_back(original);
  }
  return slot;
}

std::optional<VertexId> VertexRelabeling::FindInternal(
    VertexId original) const noexcept {
  if (original >= new_of_old_.size() ||
      new_of_old_[original] == kUnassigned) {
    return std::nullopt;
  }
  return new_of_old_[original];
}

VertexId VertexRelabeling::ToOriginal(VertexId internal) const {
  if (internal >= old_of_new_.size()) {
    throw std::out_of_range("VertexRelabeling::ToOriginal: id unassigned");
  }
  return old_of_new_[internal];
}

bool VertexRelabeling::IsIdentity() const noexcept {
  for (VertexId internal = 0; internal < old_of_new_.size(); ++internal) {
    if (old_of_new_[internal] != internal) return false;
  }
  return true;
}

Graph VertexRelabeling::Apply(const Graph& g) const {
  const VertexId n = g.num_vertices();
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::span<const VertexId> adjacency = g.adjacency();
  // The old rows with every neighbor renamed. It is allocated ahead of
  // the output rows on purpose. With the rows allocated first, glibc's
  // best fit put them in a freed block of their exact size that the
  // offline pipeline's later simulator array needed while it still
  // allocated its full 16 MiB capacity: the e2ebench social-youtube
  // peak RSS rose from 39 to 46 MiB after ~23 runs. The graph built is
  // the same either way.
  std::vector<VertexId> renamed(adjacency.size());
  Graph out;
  out.n_ = size();
  out.offsets_.assign(static_cast<std::size_t>(out.n_) + 1, 0);
  // Internal row i is the row of original old_of_new_[i]; originals
  // past g's range (stream growth) are isolated. offsets_[i + 1] holds
  // row i's start for now and serves as the sorted scatter's cursor.
  std::uint64_t filled = 0;
  for (VertexId internal = 0; internal < out.n_; ++internal) {
    const VertexId original = old_of_new_[internal];
    const std::uint64_t degree =
        original < n ? offsets[original + 1] - offsets[original] : 0;
    out.offsets_[internal + 1] = filled;
    filled += degree;
    out.max_degree_ = std::max(out.max_degree_, degree);
  }
  // The map is injective, so the rows cover every adjacency entry
  // exactly when every vertex with edges is mapped.
  if (filled != adjacency.size()) {
    throw std::invalid_argument(
        "VertexRelabeling::Apply: graph has unmapped vertices");
  }
  for (std::size_t e = 0; e < adjacency.size(); ++e) {
    renamed[e] = new_of_old_[adjacency[e]];
  }
  out.adjacency_.resize(adjacency.size());
  out.ScatterSortedRows([&](VertexId internal) {
    const VertexId original = old_of_new_[internal];
    if (original >= n) return std::span<const VertexId>();
    return std::span<const VertexId>(
        renamed.data() + offsets[original],
        offsets[original + 1] - offsets[original]);
  });
  return out;
}

Graph RelabelByDegree(const Graph& g, VertexRelabeling* map) {
  VertexRelabeling local = VertexRelabeling::DegreeAscending(g);
  Graph relabeled = local.Apply(g);
  if (map != nullptr) *map = std::move(local);
  return relabeled;
}

std::string_view ToString(RelabelMode m) noexcept {
  switch (m) {
    case RelabelMode::kNone:
      return "none";
    case RelabelMode::kDegree:
      return "degree";
    case RelabelMode::kBfs:
      return "bfs";
    case RelabelMode::kAuto:
      return "auto";
  }
  return "?";
}

std::optional<RelabelMode> ParseRelabelMode(std::string_view s) noexcept {
  if (s == "none") return RelabelMode::kNone;
  if (s == "degree") return RelabelMode::kDegree;
  if (s == "bfs") return RelabelMode::kBfs;
  if (s == "auto") return RelabelMode::kAuto;
  return std::nullopt;
}

std::uint64_t CountValidSlices(const Graph& g, const VertexRelabeling& map,
                               std::uint32_t slice_bits) {
  if (slice_bits == 0) {
    throw std::invalid_argument("CountValidSlices: slice_bits must be > 0");
  }
  const VertexId n = g.num_vertices();
  const std::span<const std::uint64_t> offsets = g.offsets();
  const std::span<const VertexId> adjacency = g.adjacency();
  // new_of_old_ may be shorter than n (isolated originals never
  // mapped) or longer (stream growth past g's range).
  const std::span<const VertexId> new_of_old = map.new_of_old_;
  const auto internal = [&](VertexId v) {
    return v < new_of_old.size() ? new_of_old[v]
                                 : VertexRelabeling::kUnassigned;
  };
  for (VertexId v = 0; v < n; ++v) {
    if (internal(v) == VertexRelabeling::kUnassigned &&
        offsets[v + 1] != offsets[v]) {
      throw std::invalid_argument("CountValidSlices: unmapped vertex");
    }
  }
  // Under kUpper in internal ids, row ix holds the bits of x's
  // higher-id neighbors and column ix those of its lower-id ones. Each
  // distinct slice block among them is one valid slice; a block
  // stamped with x + 1 was already counted for x.
  const std::size_t blocks = map.size() / slice_bits + 1;
  std::vector<VertexId> row_stamp(blocks, 0);
  std::vector<VertexId> col_stamp(blocks, 0);
  std::uint64_t valid = 0;
  for (VertexId x = 0; x < n; ++x) {
    const VertexId ix = internal(x);
    const VertexId stamp = x + 1;
    for (std::uint64_t e = offsets[x]; e < offsets[x + 1]; ++e) {
      const VertexId iy = internal(adjacency[e]);
      VertexId& seen =
          (iy > ix ? row_stamp : col_stamp)[iy / slice_bits];
      if (seen != stamp) {
        seen = stamp;
        ++valid;
      }
    }
  }
  return valid;
}

RelabelChoice ChooseRelabeling(const Graph& g, RelabelMode requested,
                               std::uint32_t slice_bits) {
  RelabelChoice choice;
  choice.map = VertexRelabeling::Identity(g.num_vertices());
  choice.identity_valid_slices = CountValidSlices(g, choice.map, slice_bits);
  choice.chosen_valid_slices = choice.identity_valid_slices;
  const auto consider = [&](RelabelMode mode, VertexRelabeling candidate,
                            bool unconditional) {
    const std::uint64_t nvs = CountValidSlices(g, candidate, slice_bits);
    if (unconditional || nvs < choice.chosen_valid_slices) {
      choice.applied = mode;
      choice.map = std::move(candidate);
      choice.chosen_valid_slices = nvs;
    }
  };
  switch (requested) {
    case RelabelMode::kNone:
      break;
    case RelabelMode::kDegree:
      consider(RelabelMode::kDegree, VertexRelabeling::DegreeAscending(g),
               true);
      break;
    case RelabelMode::kBfs:
      consider(RelabelMode::kBfs, VertexRelabeling::BfsFromHubs(g), true);
      break;
    case RelabelMode::kAuto:
      consider(RelabelMode::kDegree, VertexRelabeling::DegreeAscending(g),
               false);
      consider(RelabelMode::kBfs, VertexRelabeling::BfsFromHubs(g), false);
      break;
  }
  return choice;
}

}  // namespace tcim::graph
