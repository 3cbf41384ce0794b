#include "arch/controller.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace tcim::arch {

std::uint32_t Controller::EffectiveWays(const nvsim::ArrayConfig& config,
                                        const ControllerConfig& controller) {
  const std::uint32_t physical = config.subarray_rows - 1;  // minus staging
  if (controller.capacity_model == CapacityModel::kDataOnly) {
    return physical;
  }
  // Charge the 4-byte valid-slice index against capacity:
  // usable fraction = (|S|/8) / (|S|/8 + 4).
  const double slice_bytes = config.access_width_bits / 8.0;
  const double fraction = slice_bytes / (slice_bytes + 4.0);
  const auto ways = static_cast<std::uint32_t>(physical * fraction);
  return std::max<std::uint32_t>(ways, 1);
}

Controller::Controller(pim::ComputationalArray& array,
                       const ControllerConfig& config)
    : array_(array),
      config_(config),
      mapper_(array.config()),
      cache_(mapper_.num_sets(), EffectiveWays(array.config(), config),
             config.policy, config.rng_seed) {}

ExecStats Controller::Run(const bit::SlicedMatrix& matrix,
                          EdgeCountSink* sink) {
  return RunRows(matrix, 0, matrix.num_vertices(), sink);
}

ExecStats Controller::RunRows(const bit::SlicedMatrix& matrix,
                              std::uint32_t row_begin, std::uint32_t row_end,
                              EdgeCountSink* sink) {
  return RunPlan(
      matrix, BankExecPlan::RowShard(row_begin, row_end, matrix.num_vertices()),
      sink);
}

// One work item = one valid slice pair of one edge.
struct Controller::WorkItem {
  std::uint32_t residue;       // j mod spread: the set within k
  std::uint32_t col_vertex;    // j
  std::uint32_t slice_index;   // k
  std::uint32_t row_ordinal;   // ordinal of RiSk within row i
  std::uint32_t col_ordinal;   // ordinal of CjSk within column j
  std::uint32_t edge_ordinal;  // index into this row's edge list
};

// Per-row buffers, reused across the rows of one run.
struct Controller::RowScratch {
  std::vector<WorkItem> work;                 // gather order
  std::vector<WorkItem> by_residue;           // first counting pass
  std::vector<WorkItem> sorted;               // processing order
  std::vector<std::uint32_t> bucket;          // counting sort cursors
  std::vector<std::uint32_t> row_edges;       // j per edge of this row
  std::vector<std::uint64_t> row_edge_count;  // per-edge BitCount
};

namespace {

// Stable counting sort of `in` into `out` by key(item) in [0, keys):
// O(in + keys). `bucket` is scratch.
template <typename Item, typename Key>
void CountingSort(const std::vector<Item>& in, std::size_t keys, Key key,
                  std::vector<std::uint32_t>& bucket, std::vector<Item>& out) {
  bucket.assign(keys + 1, 0);
  for (const Item& item : in) ++bucket[key(item) + 1];
  for (std::size_t a = 0; a < keys; ++a) bucket[a + 1] += bucket[a];
  out.resize(in.size());
  for (const Item& item : in) out[bucket[key(item)]++] = item;
}

}  // namespace

void Controller::ProcessRowWork(const bit::SlicedMatrix& matrix,
                                std::uint32_t i, std::uint64_t spread,
                                RowScratch& row, ExecStats& stats,
                                EdgeCountSink* sink) {
  const bit::SlicedStore& rows = matrix.rows();
  const bit::SlicedStore& cols = matrix.cols();
  // Processing order: by slice index k (so each RiSk is staged once
  // per set group), then j mod spread (the set within k), then j. The
  // walk gathers in increasing j, so two stable counting passes sort
  // LSD-style: by residue j mod spread first (skipped when spread is
  // 1), then by row ordinal (ordinals increase with k). That is
  // O(items + spread + row slices) per row. Each (j, k) occurs once per
  // row, so the order is total.
  const std::vector<WorkItem>* gathered = &row.work;
  if (spread > 1 && row.work.size() > 1) {
    // Residues are below min(spread, n) since j < n.
    const auto residues = static_cast<std::size_t>(
        std::min<std::uint64_t>(spread, matrix.num_vertices()));
    CountingSort(
        row.work, residues, [](const WorkItem& item) { return item.residue; },
        row.bucket, row.by_residue);
    gathered = &row.by_residue;
  }
  CountingSort(
      *gathered, rows.SliceCount(i),
      [](const WorkItem& item) { return item.row_ordinal; }, row.bucket,
      row.sorted);
  if (sink != nullptr) {
    row.row_edge_count.assign(row.row_edges.size(), 0);
  }

  bool first = true;
  std::uint32_t group_k = 0;
  std::uint32_t group_residue = 0;
  std::uint64_t set = 0;
  pim::SliceAddr staging;
  pim::SliceAddr col_addr;
  for (const WorkItem& item : row.sorted) {
    if (first || item.slice_index != group_k ||
        item.residue != group_residue) {
      // A new (k, j mod spread) group: one set for all of it. Stage the
      // row slice there unless the previous group left it in place.
      // The slice index is part of the staging key: two distinct k can
      // alias onto one set (k mod num_sets), and the staging row then
      // must be rewritten with the new RiSk.
      const std::uint64_t group_set =
          mapper_.SetOf(item.slice_index, item.col_vertex, spread);
      if (first || group_set != set || item.slice_index != group_k) {
        staging = mapper_.StagingAddr(group_set);
        array_.WriteSlice(staging, rows.SliceWords(i, item.row_ordinal));
        ++stats.row_slice_writes;
        ++stats.per_subarray_writes[staging.subarray];
      }
      first = false;
      set = group_set;
      group_k = item.slice_index;
      group_residue = item.residue;
      col_addr = staging;
    }
    // Column slice: cache lookup, fill on miss. Its way shares the
    // staging row's subarray and column group (mapper.h).
    const std::uint64_t tag =
        cols.GlobalOrdinal(item.col_vertex, item.col_ordinal);
    const AccessResult access = cache_.Access(set, tag);
    col_addr.row = SliceMapper::WayRow(access.way);
    if (!access.hit) {
      array_.WriteSlice(col_addr,
                        cols.SliceWords(item.col_vertex, item.col_ordinal));
      ++stats.col_slice_writes;
      ++stats.per_subarray_writes[staging.subarray];
    }
    // Dual-row activation AND + bit count.
    const std::uint64_t pair_count = array_.AndPopcount(staging, col_addr);
    if (sink != nullptr) {
      row.row_edge_count[item.edge_ordinal] += pair_count;
    }
    ++stats.valid_pairs;
    ++stats.per_subarray_ands[staging.subarray];
    stats.bitcount_words += array_.words_per_slice();
  }
  if (sink != nullptr) {
    for (std::size_t e = 0; e < row.row_edges.size(); ++e) {
      sink->OnEdge(i, row.row_edges[e], row.row_edge_count[e]);
    }
  }
}

void Controller::WarmReplicas(const bit::SlicedMatrix& matrix,
                              const std::vector<std::uint32_t>& hub_cols,
                              std::uint64_t spread, ExecStats& stats) {
  // Install every valid slice of the hub columns into its set before
  // the run — the bank's private replica pre-load. Install() places
  // without counting lookup stats; the array write is real (the
  // functional array then serves hits from the warmed way), counted in
  // replica_slice_writes so the perf model can price the energy while
  // keeping it off the per-query latency path.
  const bit::SlicedStore& cols = matrix.cols();
  for (const std::uint32_t j : hub_cols) {
    const bit::SlicedStore::VectorSlices vs = cols.Slices(j);
    for (std::size_t k = 0; k < vs.indices.size(); ++k) {
      const std::uint64_t set = mapper_.SetOf(vs.indices[k], j, spread);
      const AccessResult placed = cache_.Install(set, cols.GlobalOrdinal(j, k));
      if (!placed.hit) {
        array_.WriteSlice(mapper_.WayAddr(set, placed.way),
                          cols.SliceWords(j, k));
        ++stats.replica_slice_writes;
      }
    }
  }
}

ExecStats Controller::RunPlan(const bit::SlicedMatrix& matrix,
                              const BankExecPlan& plan, EdgeCountSink* sink) {
  if (matrix.slice_bits() != array_.config().access_width_bits) {
    throw std::invalid_argument(
        "Controller: matrix slice width != array access width");
  }
  const std::uint32_t n = matrix.num_vertices();
  if (plan.hub_row_begin > plan.hub_row_end || plan.hub_row_end > n) {
    throw std::out_of_range("Controller::RunPlan: invalid hub row range");
  }
  for (const BankExecPlan::Tile& tile : plan.tiles) {
    if (tile.row_begin > tile.row_end || tile.row_end > n ||
        tile.col_begin > tile.col_end || tile.col_end > n) {
      throw std::out_of_range("Controller::RunPlan: invalid tile");
    }
  }
  ExecStats stats;
  stats.per_subarray_ands.assign(array_.num_subarrays(), 0);
  stats.per_subarray_writes.assign(array_.num_subarrays(), 0);
  // Fan columns of one slice index over several sets when the graph
  // has fewer slice indices than the array has sets (see mapper.h).
  const std::uint64_t spread =
      config_.spread_override != 0
          ? config_.spread_override
          : mapper_.SpreadFor(matrix.rows().slices_per_vector());
  stats.spread = spread;

  const bool have_hubs = plan.is_hub != nullptr && !plan.hub_cols.empty();
  if (have_hubs) {
    WarmReplicas(matrix, plan.hub_cols, spread, stats);
  }

  RowScratch row;
  bit::SlicedMatrix::RowPairWalker walker(matrix);
  // Gathers pivot row i's arcs with j in [col_begin, col_end) on the
  // requested side of the hub split, then processes them grouped by
  // slice index so each RiSk is staged exactly once per row
  // (Algorithm 1's "load Slice1 into memory" amortized by the row-reuse
  // rule).
  const auto run_row = [&](std::uint32_t i, std::uint32_t col_begin,
                           std::uint32_t col_end, bool hub_lane) {
    row.work.clear();
    row.row_edges.clear();
    std::uint32_t residue = 0;  // j mod spread of the current arc
    walker.Walk(
        i, col_begin, col_end,
        [&](std::uint32_t j) {
          if (plan.is_hub != nullptr && (plan.is_hub[j] != 0) != hub_lane) {
            return false;
          }
          ++stats.edges_processed;
          row.row_edges.push_back(j);
          residue = static_cast<std::uint32_t>(j % spread);
          return true;
        },
        [&](std::uint32_t j, std::uint32_t k, std::size_t ra, std::size_t cb) {
          row.work.push_back(WorkItem{
              residue, j, k, static_cast<std::uint32_t>(ra),
              static_cast<std::uint32_t>(cb),
              static_cast<std::uint32_t>(row.row_edges.size() - 1)});
        });
    ProcessRowWork(matrix, i, spread, row, stats, sink);
  };

  // Hub lane: the bank's lane rows against the (replicated) hub
  // columns. Runs first so the lane's lookups hit the warmed ways
  // before tail fills start competing for them.
  if (have_hubs) {
    for (std::uint32_t i = plan.hub_row_begin; i < plan.hub_row_end; ++i) {
      run_row(i, 0, n, /*hub_lane=*/true);
    }
  }
  // Tiles: rectangle-restricted arc enumeration, hubs excluded.
  for (const BankExecPlan::Tile& tile : plan.tiles) {
    for (std::uint32_t i = tile.row_begin; i < tile.row_end; ++i) {
      run_row(i, tile.col_begin, tile.col_end, /*hub_lane=*/false);
    }
  }

  stats.cache = cache_.stats();
  stats.accumulated_bitcount = array_.accumulated_count();
  return stats;
}

}  // namespace tcim::arch
