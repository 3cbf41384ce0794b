#include "runtime/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <span>
#include <stdexcept>

#include "util/table.h"

namespace tcim::runtime {

std::string ToString(PartitionStrategy strategy) {
  switch (strategy) {
    case PartitionStrategy::kContiguous:
      return "contiguous";
    case PartitionStrategy::kDegreeBalanced:
      return "degree-balanced";
    case PartitionStrategy::k2dHubReplicated:
      return "2d-hub-replicated";
  }
  return "?";
}

PartitionStrategy ParsePartitionStrategy(const std::string& name) {
  if (name == "contiguous") return PartitionStrategy::kContiguous;
  if (name == "degree" || name == "degree-balanced") {
    return PartitionStrategy::kDegreeBalanced;
  }
  if (name == "2d" || name == "2d-hub" || name == "2d-hub-replicated") {
    return PartitionStrategy::k2dHubReplicated;
  }
  throw std::invalid_argument("unknown partition strategy: " + name);
}

namespace {

/// Cuts [0, n) into `parts` parts balanced on the weight prefix sums
/// (prefix has n+1 entries, prefix[0] == 0): part p ends where the
/// prefix first reaches p/parts of the total. Cuts collide (empty
/// parts) when one entry holds more than a share.
std::vector<graph::VertexId> BalancedBounds(
    std::span<const std::uint64_t> prefix, std::uint32_t parts) {
  const auto n = static_cast<std::uint32_t>(prefix.size() - 1);
  std::vector<graph::VertexId> bounds(parts + 1);
  bounds[0] = 0;
  bounds[parts] = n;
  const std::uint64_t total = prefix[n];
  for (std::uint32_t p = 1; p < parts; ++p) {
    const std::uint64_t target = total * p / parts;
    const auto it = std::lower_bound(prefix.begin(), prefix.end(), target);
    bounds[p] =
        static_cast<graph::VertexId>(std::distance(prefix.begin(), it));
  }
  for (std::uint32_t p = 1; p <= parts; ++p) {
    bounds[p] = std::max(bounds[p], bounds[p - 1]);
  }
  return bounds;
}

std::vector<std::uint64_t> PrefixOf(const std::vector<std::uint64_t>& w) {
  std::vector<std::uint64_t> prefix(w.size() + 1, 0);
  for (std::size_t v = 0; v < w.size(); ++v) prefix[v + 1] = prefix[v] + w[v];
  return prefix;
}

/// The 1D strategies over the per-row arc prefix sums (n+1 entries):
/// kContiguous cuts equal row counts, kDegreeBalanced equal arc
/// counts. Fills the shards' row ranges and owned arcs, the arc totals
/// and the plan — the banks x 1 grid: row stripe b is bank b's range,
/// the one column stripe is [0, n), there are no hubs, and each bank
/// runs its stripe as one full-width tile (tiles carry arcs, not
/// AND-work weights). The communication stats are left to the caller.
GraphPartition Partition1d(std::span<const std::uint64_t> arc_prefix,
                           std::uint32_t num_banks,
                           PartitionStrategy strategy) {
  const auto n = static_cast<graph::VertexId>(arc_prefix.size() - 1);
  std::vector<std::uint64_t> row_prefix;
  if (strategy == PartitionStrategy::kContiguous) {
    row_prefix.resize(arc_prefix.size());
    std::iota(row_prefix.begin(), row_prefix.end(), std::uint64_t{0});
  }
  const std::vector<graph::VertexId> bounds = BalancedBounds(
      row_prefix.empty() ? arc_prefix
                         : std::span<const std::uint64_t>(row_prefix),
      num_banks);

  auto plan = std::make_shared<TilePlan2d>();
  plan->num_banks = num_banks;
  plan->num_vertices = n;
  plan->row_stripes = num_banks;
  plan->col_stripes = 1;
  plan->row_bounds = bounds;
  plan->col_bounds = {0, n};
  plan->hub_row_bounds = bounds;
  plan->bank_tiles.resize(num_banks);

  GraphPartition partition;
  partition.shards.resize(num_banks);
  partition.stats.strategy = strategy;
  partition.stats.num_banks = num_banks;
  partition.stats.total_arcs = arc_prefix[n];
  for (std::uint32_t b = 0; b < num_banks; ++b) {
    ShardInfo& shard = partition.shards[b];
    shard.bank = b;
    shard.row_begin = bounds[b];
    shard.row_end = bounds[b + 1];
    shard.owned_arcs = arc_prefix[shard.row_end] - arc_prefix[shard.row_begin];
    partition.stats.max_arcs =
        std::max(partition.stats.max_arcs, shard.owned_arcs);
    TileInfo tile;
    tile.row_stripe = b;
    tile.row_begin = shard.row_begin;
    tile.row_end = shard.row_end;
    tile.col_end = n;
    tile.arcs = shard.owned_arcs;
    tile.bank = b;
    plan->tiles.push_back(tile);
    plan->bank_tiles[b].push_back(b);
  }
  partition.plan2d = std::move(plan);
  return partition;
}

/// The k2dHubReplicated planner core, shared by the CSR and matrix
/// wrappers. `for_each_arc(fn)` must call fn(i, j) for every arc with
/// i ascending and, within a row, j strictly ascending (both sources
/// guarantee this) — the slice-transition counting below depends on
/// that order. Three arc passes: (A) degree + per-vector valid-slice
/// counts, (B) hub/tail AND-work weights, (C) tile accumulation.
template <typename ForEachArc>
GraphPartition Plan2dImpl(std::uint32_t n, const ForEachArc& for_each_arc,
                          std::uint32_t num_banks,
                          const Partition2dOptions& opt) {
  if (num_banks == 0) {
    throw std::invalid_argument("Partition2d: num_banks must be > 0");
  }
  if (opt.slice_bits == 0 || opt.slice_bits > 512) {
    throw std::invalid_argument("Partition2d: slice_bits must be in [1,512]");
  }
  const std::uint32_t sb = opt.slice_bits;
  const std::uint64_t bytes_per_slice = sb / 8 + 4;

  // Pass A: in-degrees and per-row/column valid-slice counts. Rows
  // count j/|S| transitions within each (sorted) row; columns count
  // i/|S| transitions per target, exploiting the ascending-i outer
  // order via one last-seen-slice slot per column.
  std::vector<std::uint32_t> in_deg(n, 0);
  std::vector<std::uint32_t> row_slices(n, 0);
  std::vector<std::uint32_t> col_slices(n, 0);
  {
    std::vector<std::uint32_t> last_col_slice(n, ~std::uint32_t{0});
    std::uint32_t cur_row = ~std::uint32_t{0};
    std::uint32_t prev_row_slice = ~std::uint32_t{0};
    for_each_arc([&](std::uint32_t i, std::uint32_t j) {
      ++in_deg[j];
      if (i != cur_row) {
        cur_row = i;
        prev_row_slice = ~std::uint32_t{0};
      }
      const std::uint32_t rs = j / sb;
      if (rs != prev_row_slice) {
        ++row_slices[i];
        prev_row_slice = rs;
      }
      const std::uint32_t cs = i / sb;
      if (last_col_slice[j] != cs) {
        ++col_slices[j];
        last_col_slice[j] = cs;
      }
    });
  }
  std::uint64_t total_arcs = 0;
  std::uint64_t total_row_slices = 0;
  std::uint64_t total_col_slices = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    total_arcs += in_deg[v];
    total_row_slices += row_slices[v];
    total_col_slices += col_slices[v];
  }
  const std::uint64_t store_bytes =
      (total_row_slices + total_col_slices) * bytes_per_slice;

  // Hub selection: columns by in-degree descending (id ascending as
  // tiebreak so the plan is deterministic).
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return in_deg[a] != in_deg[b] ? in_deg[a] > in_deg[b] : a < b;
            });
  std::vector<std::uint32_t> hubs;
  std::uint64_t hub_bytes = 0;  // one replica copy of the hub columns
  if (opt.hub_k != Partition2dOptions::kAutoHubs) {
    const auto k = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(opt.hub_k, n));
    hubs.assign(order.begin(), order.begin() + k);
    for (const std::uint32_t h : hubs) {
      hub_bytes += col_slices[h] * bytes_per_slice;
    }
  } else if (n > 0 && total_arcs > 0) {
    const double mean_deg =
        static_cast<double>(total_arcs) / static_cast<double>(n);
    const double budget =
        opt.replica_budget_fraction * static_cast<double>(store_bytes);
    const std::uint64_t extra_copies = num_banks > 1 ? num_banks - 1 : 0;
    for (const std::uint32_t j : order) {
      if (static_cast<double>(in_deg[j]) < opt.hub_degree_factor * mean_deg) {
        break;
      }
      const std::uint64_t cost = col_slices[j] * bytes_per_slice;
      if (static_cast<double>(extra_copies) *
              static_cast<double>(hub_bytes + cost) >
          budget) {
        break;
      }
      hubs.push_back(j);
      hub_bytes += cost;
    }
  }
  std::sort(hubs.begin(), hubs.end());
  std::vector<std::uint8_t> is_hub(n, 0);
  for (const std::uint32_t h : hubs) is_hub[h] = 1;

  // Pass B: AND-work weights. w(i, j) = min(row_slices[i],
  // col_slices[j]) approximates the valid-pair count of the arc (the
  // merge can match at most that many slices) in O(1) per arc — raw
  // arc counts balance arcs, not work, and hub rows' arcs each cost
  // far more valid pairs than tail arcs (the 1D plateau's second
  // cause).
  std::vector<std::uint64_t> hub_row_w(n, 0);
  std::vector<std::uint64_t> hub_row_arcs(n, 0);
  std::vector<std::uint64_t> tail_row_w(n, 0);
  std::vector<std::uint64_t> tail_col_w(n, 0);
  std::uint64_t hub_arcs = 0;
  for_each_arc([&](std::uint32_t i, std::uint32_t j) {
    const std::uint64_t w = std::min(row_slices[i], col_slices[j]);
    if (is_hub[j] != 0) {
      hub_row_w[i] += w;
      ++hub_row_arcs[i];
      ++hub_arcs;
    } else {
      tail_row_w[i] += w;
      tail_col_w[j] += w;
    }
  });

  // Grid shape: c = ceil(sqrt(banks)) column stripes (c <= banks, so
  // stripe-major placement can give every stripe >= 1 bank), r sized
  // for ~tiles_per_bank tiles per bank.
  std::uint32_t c = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(num_banks))));
  c = std::max(1u, std::min({c, num_banks, std::max(1u, n)}));
  const std::uint32_t tiles_per_bank = std::max(1u, opt.tiles_per_bank);
  std::uint32_t r = static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(tiles_per_bank) * num_banks + c - 1) / c);
  r = std::max(1u, std::min(r, std::max(1u, n)));

  const std::vector<graph::VertexId> row_bounds =
      BalancedBounds(PrefixOf(tail_row_w), r);
  const std::vector<graph::VertexId> col_bounds =
      BalancedBounds(PrefixOf(tail_col_w), c);
  const std::vector<graph::VertexId> hub_row_bounds =
      BalancedBounds(PrefixOf(hub_row_w), num_banks);

  // Pass C: per-tile arc and weight accumulation.
  std::vector<std::uint32_t> row_stripe_of(n, 0);
  std::vector<std::uint32_t> col_stripe_of(n, 0);
  for (std::uint32_t s = 0; s < r; ++s) {
    for (graph::VertexId v = row_bounds[s]; v < row_bounds[s + 1]; ++v) {
      row_stripe_of[v] = s;
    }
  }
  for (std::uint32_t s = 0; s < c; ++s) {
    for (graph::VertexId v = col_bounds[s]; v < col_bounds[s + 1]; ++v) {
      col_stripe_of[v] = s;
    }
  }
  struct TileAcc {
    std::uint64_t arcs = 0;
    std::uint64_t weight = 0;
  };
  std::vector<TileAcc> acc(static_cast<std::size_t>(r) * c);
  for_each_arc([&](std::uint32_t i, std::uint32_t j) {
    if (is_hub[j] != 0) return;
    TileAcc& tile =
        acc[static_cast<std::size_t>(row_stripe_of[i]) * c + col_stripe_of[j]];
    ++tile.arcs;
    tile.weight += std::min(row_slices[i], col_slices[j]);
  });

  // Per-bank hub-lane loads (the LPT seed) and per-stripe weights.
  std::vector<std::uint64_t> lane_w(num_banks, 0);
  std::vector<std::uint64_t> lane_arcs(num_banks, 0);
  for (std::uint32_t b = 0; b < num_banks; ++b) {
    for (graph::VertexId v = hub_row_bounds[b]; v < hub_row_bounds[b + 1];
         ++v) {
      lane_w[b] += hub_row_w[v];
      lane_arcs[b] += hub_row_arcs[v];
    }
  }
  std::vector<std::uint64_t> stripe_w(c, 0);
  std::uint64_t tail_weight = 0;
  for (std::uint32_t rs = 0; rs < r; ++rs) {
    for (std::uint32_t cs = 0; cs < c; ++cs) {
      stripe_w[cs] += acc[static_cast<std::size_t>(rs) * c + cs].weight;
    }
  }
  for (const std::uint64_t w : stripe_w) tail_weight += w;

  // Stripe-major bank allocation: every stripe starts with one bank,
  // then the remaining banks water-fill onto the stripe with the
  // heaviest per-bank load. Consequence: each bank serves exactly ONE
  // column stripe, so its distinct-column working set shrinks to that
  // stripe's tail columns plus the (locally replicated) hubs.
  std::vector<std::uint32_t> stripe_banks(c, 1);
  if (tail_weight == 0) {
    for (std::uint32_t s = 0; s < c; ++s) {
      stripe_banks[s] = num_banks / c + (s < num_banks % c ? 1 : 0);
    }
  } else {
    for (std::uint32_t extra = c; extra < num_banks; ++extra) {
      std::uint32_t best = 0;
      double best_load = -1.0;
      for (std::uint32_t s = 0; s < c; ++s) {
        const double load =
            static_cast<double>(stripe_w[s]) / stripe_banks[s];
        if (load > best_load) {
          best_load = load;
          best = s;
        }
      }
      ++stripe_banks[best];
    }
  }
  std::vector<std::uint32_t> stripe_bank_begin(c + 1, 0);
  for (std::uint32_t s = 0; s < c; ++s) {
    stripe_bank_begin[s + 1] = stripe_bank_begin[s] + stripe_banks[s];
  }
  std::vector<std::uint32_t> stripe_of_bank(num_banks, 0);
  for (std::uint32_t s = 0; s < c; ++s) {
    for (std::uint32_t b = stripe_bank_begin[s]; b < stripe_bank_begin[s + 1];
         ++b) {
      stripe_of_bank[b] = s;
    }
  }

  // LPT within each stripe group, seeded with the hub-lane loads:
  // heaviest tile first onto the currently lightest bank of the group.
  std::vector<std::uint64_t> bank_w = lane_w;
  std::vector<std::uint32_t> tile_bank(acc.size(), 0);
  for (std::uint32_t s = 0; s < c; ++s) {
    std::vector<std::uint32_t> stripe_tiles;
    stripe_tiles.reserve(r);
    for (std::uint32_t rs = 0; rs < r; ++rs) {
      stripe_tiles.push_back(rs * c + s);
    }
    std::sort(stripe_tiles.begin(), stripe_tiles.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return acc[a].weight != acc[b].weight
                           ? acc[a].weight > acc[b].weight
                           : a < b;
              });
    for (const std::uint32_t t : stripe_tiles) {
      std::uint32_t lightest = stripe_bank_begin[s];
      for (std::uint32_t b = stripe_bank_begin[s] + 1;
           b < stripe_bank_begin[s + 1]; ++b) {
        if (bank_w[b] < bank_w[lightest]) lightest = b;
      }
      tile_bank[t] = lightest;
      bank_w[lightest] += acc[t].weight;
    }
  }

  // Assemble the plan.
  auto plan = std::make_shared<TilePlan2d>();
  plan->num_banks = num_banks;
  plan->num_vertices = n;
  plan->row_stripes = r;
  plan->col_stripes = c;
  plan->row_bounds = row_bounds;
  plan->col_bounds = col_bounds;
  plan->hubs = hubs;
  plan->is_hub = std::move(is_hub);
  plan->hub_row_bounds = hub_row_bounds;
  plan->hub_arcs = hub_arcs;
  plan->tiles.resize(acc.size());
  plan->bank_tiles.resize(num_banks);
  for (std::uint32_t rs = 0; rs < r; ++rs) {
    for (std::uint32_t cs = 0; cs < c; ++cs) {
      const std::uint32_t t = rs * c + cs;
      TileInfo& tile = plan->tiles[t];
      tile.row_stripe = rs;
      tile.col_stripe = cs;
      tile.row_begin = row_bounds[rs];
      tile.row_end = row_bounds[rs + 1];
      tile.col_begin = col_bounds[cs];
      tile.col_end = col_bounds[cs + 1];
      tile.arcs = acc[t].arcs;
      tile.weight = acc[t].weight;
      tile.bank = tile_bank[t];
      plan->bank_tiles[tile.bank].push_back(t);
    }
  }
  std::uint64_t total_weight = 0;
  std::uint64_t max_bank_weight = 0;
  for (std::uint32_t b = 0; b < num_banks; ++b) {
    total_weight += bank_w[b];
    max_bank_weight = std::max(max_bank_weight, bank_w[b]);
  }
  plan->total_weight = total_weight;
  plan->max_bank_weight = max_bank_weight;

  // Shards + stats. needed_cols counts what the bank actually holds:
  // every hub (its private replica) plus the distinct tail columns of
  // its stripe; those tail columns are "remote" (shared) when the
  // stripe group has more than one bank.
  std::vector<std::uint64_t> stripe_tail_cols(c, 0);
  for (std::uint32_t j = 0; j < n; ++j) {
    if (in_deg[j] > 0 && plan->is_hub[j] == 0) {
      ++stripe_tail_cols[col_stripe_of[j]];
    }
  }
  GraphPartition partition;
  partition.shards.resize(num_banks);
  partition.stats.strategy = PartitionStrategy::k2dHubReplicated;
  partition.stats.num_banks = num_banks;
  partition.stats.total_arcs = total_arcs;
  for (std::uint32_t b = 0; b < num_banks; ++b) {
    ShardInfo& shard = partition.shards[b];
    shard.bank = b;
    shard.row_begin = hub_row_bounds[b];
    shard.row_end = hub_row_bounds[b + 1];
    shard.owned_arcs = lane_arcs[b];
    std::uint64_t tile_arcs = 0;
    for (const std::uint32_t t : plan->bank_tiles[b]) {
      tile_arcs += plan->tiles[t].arcs;
    }
    shard.owned_arcs += tile_arcs;
    const std::uint32_t s = stripe_of_bank[b];
    const bool shared_stripe = stripe_banks[s] > 1;
    shard.cut_arcs = shared_stripe ? tile_arcs : 0;
    shard.needed_cols = hubs.size() + stripe_tail_cols[s];
    shard.remote_cols = (num_banks > 1 ? hubs.size() : 0) +
                        (shared_stripe ? stripe_tail_cols[s] : 0);
    partition.stats.total_cut_arcs += shard.cut_arcs;
    partition.stats.total_needed_cols += shard.needed_cols;
    partition.stats.max_arcs =
        std::max(partition.stats.max_arcs, shard.owned_arcs);
  }
  for (std::uint32_t j = 0; j < n; ++j) {
    if (in_deg[j] > 0) ++partition.stats.distinct_cols;
  }
  partition.stats.row_stripes = r;
  partition.stats.col_stripes = c;
  partition.stats.hub_count = hubs.size();
  partition.stats.hub_arcs = hub_arcs;
  partition.stats.replica_bytes =
      num_banks > 1 ? (num_banks - 1) * hub_bytes : 0;
  partition.stats.store_bytes = store_bytes;
  partition.stats.tile_imbalance = plan->TileImbalance();
  partition.plan2d = std::move(plan);
  return partition;
}

}  // namespace

GraphPartition Partition2dCsr(const graph::OrientedCsr& csr,
                              std::uint32_t num_banks,
                              const Partition2dOptions& options) {
  return Plan2dImpl(
      csr.num_vertices,
      [&](auto&& fn) {
        for (graph::VertexId i = 0; i < csr.num_vertices; ++i) {
          for (std::uint64_t a = csr.offsets[i]; a < csr.offsets[i + 1]; ++a) {
            fn(i, csr.neighbors[a]);
          }
        }
      },
      num_banks, options);
}

GraphPartition Partition2dMatrix(const bit::SlicedMatrix& matrix,
                                 std::uint32_t num_banks,
                                 const Partition2dOptions& options) {
  Partition2dOptions opt = options;
  opt.slice_bits = matrix.slice_bits();
  const std::uint32_t n = matrix.num_vertices();
  return Plan2dImpl(
      n,
      [&](auto&& fn) {
        for (std::uint32_t i = 0; i < n; ++i) {
          matrix.rows().ForEachSetBit(i, [&](std::uint64_t j) {
            fn(i, static_cast<std::uint32_t>(j));
          });
        }
      },
      num_banks, opt);
}

std::uint64_t CountBankShard2d(const bit::SlicedMatrix& matrix,
                               const TilePlan2d& plan, std::uint32_t bank,
                               const bit::SlicedStore* replica,
                               bit::PopcountKind kind,
                               bit::PairPathCounters* counters) {
  if (matrix.num_vertices() != plan.num_vertices) {
    throw std::invalid_argument(
        "CountBankShard2d: matrix shape disagrees with the plan");
  }
  if (bank >= plan.num_banks) {
    throw std::invalid_argument("CountBankShard2d: bank out of range");
  }
  const std::uint8_t* mask =
      plan.is_hub.empty() ? nullptr : plan.is_hub.data();
  std::uint64_t raw = 0;
  if (!plan.hubs.empty()) {
    raw += matrix.AndPopcountRect(plan.hub_row_bounds[bank],
                                  plan.hub_row_bounds[bank + 1], 0,
                                  plan.num_vertices, mask,
                                  /*mask_value=*/true, replica, kind,
                                  counters);
  }
  for (const std::uint32_t t : plan.bank_tiles[bank]) {
    const TileInfo& tile = plan.tiles[t];
    raw += matrix.AndPopcountRect(tile.row_begin, tile.row_end, tile.col_begin,
                                  tile.col_end, mask, /*mask_value=*/false,
                                  /*cols_override=*/nullptr, kind, counters);
  }
  return raw;
}

GraphPartition PartitionOrientedCsr(const graph::OrientedCsr& csr,
                                    std::uint32_t num_banks,
                                    PartitionStrategy strategy) {
  if (num_banks == 0) {
    throw std::invalid_argument("PartitionOrientedCsr: num_banks must be > 0");
  }
  if (strategy == PartitionStrategy::k2dHubReplicated) {
    return Partition2dCsr(csr, num_banks, Partition2dOptions{});
  }
  // csr.offsets is the out-degree prefix sum.
  GraphPartition partition = Partition1d(csr.offsets, num_banks, strategy);

  // seen_by[j] remembers the last marker that touched column j: bank id
  // + 1 for per-shard dedup, then one global pass for distinct_cols.
  std::vector<std::uint32_t> seen_by(csr.num_vertices, 0);
  for (ShardInfo& shard : partition.shards) {
    const std::uint32_t b = shard.bank;
    for (std::uint64_t a = csr.offsets[shard.row_begin];
         a < csr.offsets[shard.row_end]; ++a) {
      const graph::VertexId j = csr.neighbors[a];
      const bool remote = j < shard.row_begin || j >= shard.row_end;
      if (remote) ++shard.cut_arcs;
      if (seen_by[j] != b + 1) {
        seen_by[j] = b + 1;
        ++shard.needed_cols;
        if (remote) ++shard.remote_cols;
      }
    }
    partition.stats.total_cut_arcs += shard.cut_arcs;
    partition.stats.total_needed_cols += shard.needed_cols;
  }
  // Distinct columns needed by any bank: a column was needed iff some
  // arc targets it, and each bank marked it above.
  for (const std::uint32_t marker : seen_by) {
    if (marker != 0) ++partition.stats.distinct_cols;
  }
  return partition;
}

GraphPartition PartitionMatrixRows(const bit::SlicedMatrix& matrix,
                                   std::uint32_t num_banks,
                                   PartitionStrategy strategy) {
  if (num_banks == 0) {
    throw std::invalid_argument("PartitionMatrixRows: num_banks must be > 0");
  }
  if (strategy == PartitionStrategy::k2dHubReplicated) {
    return Partition2dMatrix(matrix, num_banks, Partition2dOptions{});
  }
  const std::uint32_t n = matrix.num_vertices();
  const bit::SlicedStore& rows = matrix.rows();

  // Per-row arc (set-bit) prefix sums: the same degree prefix
  // PartitionOrientedCsr reads from the CSR offsets.
  std::vector<std::uint64_t> prefix(static_cast<std::size_t>(n) + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    const bit::SlicedStore::VectorSlices vs = rows.Slices(v);
    prefix[v + 1] =
        prefix[v] +
        bit::PopcountWords({vs.words, vs.indices.size() *
                                          rows.words_per_slice()},
                           bit::PopcountKind::kBuiltin);
  }
  return Partition1d(prefix, num_banks, strategy);
}

void PrintPartitionTable(std::ostream& os, const GraphPartition& partition) {
  using util::TablePrinter;
  if (partition.stats.strategy == PartitionStrategy::k2dHubReplicated) {
    const TilePlan2d& plan = *partition.plan2d;
    TablePrinter t({"Bank", "Lane rows", "Tiles", "Arcs", "Share", "Cut %",
                    "Resident cols"});
    for (const ShardInfo& shard : partition.shards) {
      const double share =
          partition.stats.total_arcs == 0
              ? 0.0
              : static_cast<double>(shard.owned_arcs) /
                    static_cast<double>(partition.stats.total_arcs);
      t.AddRow({std::to_string(shard.bank),
                TablePrinter::Compact(shard.num_rows()),
                std::to_string(plan.bank_tiles[shard.bank].size()),
                TablePrinter::Compact(shard.owned_arcs),
                TablePrinter::Percent(share, 1),
                TablePrinter::Percent(shard.CutFraction(), 1),
                TablePrinter::Compact(shard.needed_cols)});
    }
    t.Print(os);
    const double hub_share =
        partition.stats.total_arcs == 0
            ? 0.0
            : static_cast<double>(partition.stats.hub_arcs) /
                  static_cast<double>(partition.stats.total_arcs);
    os << "  strategy " << ToString(partition.stats.strategy) << ", grid "
       << partition.stats.row_stripes << "x" << partition.stats.col_stripes
       << ", hubs " << partition.stats.hub_count << " ("
       << TablePrinter::Percent(hub_share, 1) << " of arcs), replica overhead "
       << TablePrinter::Percent(partition.stats.ReplicaOverhead(), 1)
       << "\n  residual cut "
       << TablePrinter::Percent(partition.stats.EdgeCutFraction(), 1)
       << ", tile imbalance "
       << TablePrinter::Ratio(partition.stats.tile_imbalance, 2)
       << ", column replication "
       << TablePrinter::Ratio(partition.stats.ColReplicationFactor(), 2)
       << "\n";
    return;
  }
  TablePrinter t({"Bank", "Rows", "Arcs", "Share", "Cut %", "Remote cols"});
  for (const ShardInfo& shard : partition.shards) {
    const double share =
        partition.stats.total_arcs == 0
            ? 0.0
            : static_cast<double>(shard.owned_arcs) /
                  static_cast<double>(partition.stats.total_arcs);
    t.AddRow({std::to_string(shard.bank),
              TablePrinter::Compact(shard.num_rows()),
              TablePrinter::Compact(shard.owned_arcs),
              TablePrinter::Percent(share, 1),
              TablePrinter::Percent(shard.CutFraction(), 1),
              TablePrinter::Compact(shard.remote_cols)});
  }
  t.Print(os);
  os << "  strategy " << ToString(partition.stats.strategy) << ", edge cut "
     << TablePrinter::Percent(partition.stats.EdgeCutFraction(), 1)
     << ", load imbalance "
     << TablePrinter::Ratio(partition.stats.LoadImbalance(), 2)
     << ", column replication "
     << TablePrinter::Ratio(partition.stats.ColReplicationFactor(), 2)
     << "\n";
}

}  // namespace tcim::runtime
