// Graph partitioner for the multi-bank runtime: shards an oriented
// adjacency matrix across banks.
//
// Ownership rule (all strategies): under Eq. (5) every triangle is
// counted at exactly one non-zero (its pivot arc), so any assignment
// that hands every arc to exactly one bank partitions the raw bitcount
// sum *by construction* — the shards' accumulated bitcounts sum to the
// single-accelerator total for every graph and every orientation, and
// the orientation divide happens once on the cluster total.
//
// Every strategy emits a TilePlan2d, the one plan the executors run.
// Strategies:
//  * kContiguous      — equal-width row ranges (the naive 1D split);
//  * kDegreeBalanced  — 1D row ranges cut on the oriented out-degree
//    prefix sum so every bank owns ~the same number of non-zeros.
//    A 1D plan is the no-hub banks x 1 grid: bank b's row range is row
//    stripe b, run as one full-width tile;
//  * k2dHubReplicated — row x column tiles with a replicated hub set
//    (LA3-style). The top-degree "hub" columns are cloned into every
//    bank's private working set (COW slab shares, not copies) and
//    their arcs run in per-bank hub *lanes* balanced on AND work; the
//    long-tail arcs are tiled into a row-stripe x column-stripe grid
//    placed stripe-major so each bank serves exactly ONE column
//    stripe — the per-bank distinct-column working set shrinks by ~the
//    column-stripe count, which is what breaks the hub-column cache
//    bottleneck that caps 1D scaling on skewed graphs (ROADMAP #1).
//
// Besides the ranges the partitioner reports the communication
// geometry a physical multi-bank layout would pay for: cut arcs,
// column replication, and (2D only) hub/replica/tile-balance stats.
//
// Stat semantics are STRATEGY-AWARE: `total_needed_cols` counts the
// bank-resident column-slice copies each strategy actually
// materializes — for the 1D strategies that is the per-bank distinct
// columns its arcs touch (every bank reads the shared store); for 2D
// it is hub replicas (one per bank) plus the distinct tail columns of
// the bank's column stripe. ColReplicationFactor() therefore compares
// like with like across strategies instead of assuming the 1D
// whole-matrix-shared model.
//
// Layer: §10 runtime — see docs/ARCHITECTURE.md and
// docs/PARTITIONING.md. Units: every count is dimensionless; bytes
// fields use the paper's NVS*(|S|/8+4) formula; fractions lie in
// [0, 1]; LoadImbalance() and TileImbalance() >= 1.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "bitmatrix/sliced_matrix.h"
#include "graph/orientation.h"

namespace tcim::runtime {

enum class PartitionStrategy : std::uint8_t {
  kContiguous,
  kDegreeBalanced,
  k2dHubReplicated,
};

[[nodiscard]] std::string ToString(PartitionStrategy strategy);
/// Parses "contiguous" / "degree" / "2d" (and the long spellings
/// "degree-balanced", "2d-hub", "2d-hub-replicated"). Throws
/// std::invalid_argument.
[[nodiscard]] PartitionStrategy ParsePartitionStrategy(
    const std::string& name);

/// Tuning knobs of the k2dHubReplicated planner.
struct Partition2dOptions {
  /// Sentinel for hub_k: size the hub set automatically (degree rule +
  /// replica budget below).
  static constexpr std::uint32_t kAutoHubs = 0xFFFFFFFFu;

  /// Exact hub count (top-k by in-degree), or kAutoHubs. Explicit
  /// values — including 0, 1 and n — bypass the degree/budget rules
  /// (the property-test escape hatch).
  std::uint32_t hub_k = kAutoHubs;
  /// Auto rule budget: extra replica bytes, (num_banks - 1) x hub
  /// column slice bytes, must stay <= this fraction of the matrix's
  /// total store bytes.
  double replica_budget_fraction = 0.25;
  /// Auto rule threshold: a column is hub-eligible while its in-degree
  /// is >= this multiple of the mean degree.
  double hub_degree_factor = 8.0;
  /// Target tail tiles per bank; with c = ceil(sqrt(banks)) column
  /// stripes the grid gets r = ceil(tiles_per_bank * banks / c) row
  /// stripes.
  std::uint32_t tiles_per_bank = 2;
  /// |S| used for the slice-count weights and byte stats. Callers with
  /// a built matrix should pass its slice_bits (Partition2dMatrix does
  /// this automatically).
  std::uint32_t slice_bits = 64;
};

/// One tail tile of the 2D grid: the arcs A[i][j] with i in
/// [row_begin, row_end), j in [col_begin, col_end) and j NOT a hub.
struct TileInfo {
  std::uint32_t row_stripe = 0;
  std::uint32_t col_stripe = 0;
  graph::VertexId row_begin = 0;
  graph::VertexId row_end = 0;  ///< exclusive
  graph::VertexId col_begin = 0;
  graph::VertexId col_end = 0;  ///< exclusive
  std::uint64_t arcs = 0;       ///< tail arcs inside the rectangle
  std::uint64_t weight = 0;     ///< Σ min(row slices, col slices) proxy
  std::uint32_t bank = 0;       ///< executing bank
};

/// The complete execution plan of a partition (for the 1D strategies
/// the no-hub banks x 1 grid). Arc routing invariant: an arc
/// (i, j) with is_hub[j] runs in the hub lane of the unique bank b
/// with hub_row_bounds[b] <= i < hub_row_bounds[b+1]; a tail arc runs
/// in the unique tile (row stripe of i, col stripe of j). Every arc
/// therefore lands in exactly one executor region — the dedup
/// invariant the property tests pin.
struct TilePlan2d {
  std::uint32_t num_banks = 0;
  std::uint32_t num_vertices = 0;
  std::uint32_t row_stripes = 0;
  std::uint32_t col_stripes = 0;
  /// Stripe bounds over [0, num_vertices], sizes row_stripes+1 /
  /// col_stripes+1, balanced on tail AND-work prefix sums.
  std::vector<graph::VertexId> row_bounds;
  std::vector<graph::VertexId> col_bounds;
  /// Hub vertex ids, sorted ascending (the ExtractVectors keep list).
  std::vector<std::uint32_t> hubs;
  /// num_vertices entries; is_hub[j] != 0 iff j is a hub column.
  std::vector<std::uint8_t> is_hub;
  /// Per-bank hub-lane row bounds over [0, num_vertices], size
  /// num_banks+1, balanced on per-row hub AND-work.
  std::vector<graph::VertexId> hub_row_bounds;
  /// Row-major [row_stripe * col_stripes + col_stripe] tile table.
  std::vector<TileInfo> tiles;
  /// Per-bank tile-index lists (indices into `tiles`). Each bank's
  /// tiles all share one column stripe (stripe-major placement).
  std::vector<std::vector<std::uint32_t>> bank_tiles;
  std::uint64_t hub_arcs = 0;      ///< arcs routed through hub lanes
  std::uint64_t total_weight = 0;  ///< Σ per-bank AND-work proxy
  std::uint64_t max_bank_weight = 0;

  /// Heaviest bank over the mean bank in the AND-work proxy
  /// (1.0 = perfectly balanced; the obs gauge).
  [[nodiscard]] double TileImbalance() const noexcept {
    return total_weight == 0
               ? 1.0
               : static_cast<double>(max_bank_weight) * num_banks /
                     static_cast<double>(total_weight);
  }
};

/// One bank's share of the arc space, plus its communication stats.
/// For the 1D strategies [row_begin, row_end) is the owned row range;
/// for k2dHubReplicated it is the bank's hub-lane row range. Either
/// way the bank's tiles live in GraphPartition::plan2d.
struct ShardInfo {
  std::uint32_t bank = 0;
  graph::VertexId row_begin = 0;
  graph::VertexId row_end = 0;  ///< exclusive
  std::uint64_t owned_arcs = 0;  ///< non-zeros enumerated by this bank
  std::uint64_t cut_arcs = 0;    ///< owned arcs targeting a shared/remote col
  std::uint64_t needed_cols = 0; ///< distinct columns this bank ANDs against
  std::uint64_t remote_cols = 0; ///< needed columns not exclusively local

  [[nodiscard]] std::uint64_t num_rows() const noexcept {
    return row_end - row_begin;
  }
  /// Fraction of this shard's arcs that cross the partition boundary.
  [[nodiscard]] double CutFraction() const noexcept {
    return owned_arcs == 0 ? 0.0
                           : static_cast<double>(cut_arcs) /
                                 static_cast<double>(owned_arcs);
  }
};

/// Cluster-level summary of one partition (the Table-style report the
/// CLI prints; see PrintPartitionTable). The 2D-only fields stay 0
/// under the 1D strategies.
struct PartitionStats {
  PartitionStrategy strategy = PartitionStrategy::kContiguous;
  std::uint32_t num_banks = 0;
  std::uint64_t total_arcs = 0;
  std::uint64_t total_cut_arcs = 0;
  std::uint64_t max_arcs = 0;          ///< heaviest shard
  std::uint64_t total_needed_cols = 0; ///< Σ per-bank resident col copies
  std::uint64_t distinct_cols = 0;     ///< columns needed by >= 1 bank

  // k2dHubReplicated only:
  std::uint32_t row_stripes = 0;
  std::uint32_t col_stripes = 0;
  std::uint64_t hub_count = 0;
  std::uint64_t hub_arcs = 0;
  /// Extra bytes the replicas cost beyond the shared store:
  /// (num_banks - 1) x Σ hub column slice bytes.
  std::uint64_t replica_bytes = 0;
  /// Both stores under the paper's NVS*(|S|/8+4) formula (the
  /// ReplicaOverhead denominator).
  std::uint64_t store_bytes = 0;
  double tile_imbalance = 0.0;

  [[nodiscard]] double EdgeCutFraction() const noexcept {
    return total_arcs == 0 ? 0.0
                           : static_cast<double>(total_cut_arcs) /
                                 static_cast<double>(total_arcs);
  }
  [[nodiscard]] double MeanArcs() const noexcept {
    return num_banks == 0 ? 0.0
                          : static_cast<double>(total_arcs) /
                                static_cast<double>(num_banks);
  }
  /// Heaviest shard over the mean shard (1.0 = perfectly balanced).
  [[nodiscard]] double LoadImbalance() const noexcept {
    const double mean = MeanArcs();
    return mean == 0.0 ? 1.0 : static_cast<double>(max_arcs) / mean;
  }
  /// Average bank-local copies per needed column (>= 1; 1.0 = no
  /// column slice is duplicated across banks). Strategy-aware: see the
  /// file comment for what "bank-local copy" means per strategy.
  [[nodiscard]] double ColReplicationFactor() const noexcept {
    return distinct_cols == 0
               ? 1.0
               : static_cast<double>(total_needed_cols) /
                     static_cast<double>(distinct_cols);
  }
  /// replica_bytes / store_bytes — the ≤ 25% acceptance bound of the
  /// default hub-k (0.0 under the 1D strategies).
  [[nodiscard]] double ReplicaOverhead() const noexcept {
    return store_bytes == 0 ? 0.0
                            : static_cast<double>(replica_bytes) /
                                  static_cast<double>(store_bytes);
  }
};

/// A complete sharding: per-bank ranges + the aggregate stats, plus
/// the tile plan the executors run (never null).
struct GraphPartition {
  std::vector<ShardInfo> shards;
  PartitionStats stats;
  std::shared_ptr<const TilePlan2d> plan2d;

  [[nodiscard]] std::uint32_t num_banks() const noexcept {
    return static_cast<std::uint32_t>(shards.size());
  }
};

/// Shards `csr` into `num_banks` banks. For the 1D strategies the
/// shards are contiguous row ranges covering [0, csr.num_vertices) and
/// the plan is their banks x 1 grid; k2dHubReplicated delegates to
/// Partition2dCsr with default options.
/// Every bank appears in the result (possibly with an empty range when
/// num_banks > vertices). Throws std::invalid_argument when
/// num_banks == 0.
[[nodiscard]] GraphPartition PartitionOrientedCsr(
    const graph::OrientedCsr& csr, std::uint32_t num_banks,
    PartitionStrategy strategy);

/// Shards an ALREADY-SLICED matrix — the partition step of the
/// epoch-pinned serving path, where re-deriving a CSR from the pinned
/// COW matrix would cost exactly the layout work the snapshot is there
/// to avoid. For the 1D strategies owned_arcs comes from per-row set-
/// bit counts (same degree balance as PartitionOrientedCsr) and the
/// communication fields (cut_arcs, needed/remote cols, distinct_cols)
/// are left 0 — the serving path never prints them, and computing them
/// would need the per-arc column walk this function exists to skip.
/// k2dHubReplicated delegates to Partition2dMatrix (which does walk
/// the arcs — the tile plan needs them). Throws std::invalid_argument
/// when num_banks == 0.
[[nodiscard]] GraphPartition PartitionMatrixRows(
    const bit::SlicedMatrix& matrix, std::uint32_t num_banks,
    PartitionStrategy strategy);

/// Builds the full k2dHubReplicated plan from a CSR: three passes over
/// the arcs (slice/degree analysis; hub selection; tile accumulation),
/// then stripe-major tile->bank placement. options.slice_bits must
/// match the matrix the plan will execute against. Throws
/// std::invalid_argument when num_banks == 0.
[[nodiscard]] GraphPartition Partition2dCsr(const graph::OrientedCsr& csr,
                                            std::uint32_t num_banks,
                                            const Partition2dOptions& options);

/// Same planner over an already-sliced matrix (the serving path);
/// options.slice_bits is overridden by matrix.slice_bits().
[[nodiscard]] GraphPartition Partition2dMatrix(
    const bit::SlicedMatrix& matrix, std::uint32_t num_banks,
    const Partition2dOptions& options);

/// Executes bank `bank`'s share of `plan` on the host kernel: the hub
/// lane (columns with is_hub[j], rows in the bank's lane range) plus
/// its tiles — the host executor of every strategy. Returns the RAW Eq. (5) bitcount — the caller sums
/// the banks and applies the orientation divide once. When `replica`
/// is non-null it is used as the column store for the hub lane (the
/// bank's private hub replica; must be shape-compatible and
/// bit-identical on hub columns). Throws std::invalid_argument when
/// the matrix shape disagrees with the plan or bank is out of range.
[[nodiscard]] std::uint64_t CountBankShard2d(
    const bit::SlicedMatrix& matrix, const TilePlan2d& plan,
    std::uint32_t bank, const bit::SlicedStore* replica = nullptr,
    bit::PopcountKind kind = bit::PopcountKind::kBuiltin,
    bit::PairPathCounters* counters = nullptr);

/// Renders the per-shard table and the summary lines (edge-cut %,
/// load imbalance, replication factor; plus grid/hub/replica lines for
/// 2D partitions) via util::TablePrinter — the `tcim_cli --banks`
/// report block.
void PrintPartitionTable(std::ostream& os, const GraphPartition& partition);

}  // namespace tcim::runtime
