// Sliced adjacency matrix: row store + column store (paper §IV-B).
//
// For each non-zero A[i][j], Eq. (5) ANDs row i with column j, so the
// compressed graph is kept in *both* orientations: a row store (out-
// neighbor bitmaps) and a column store (in-neighbor bitmaps). The AND
// runs only on *valid slice pairs* — slice index k such that both
// RiSk and CjSk are valid — enumerated here either by merging the two
// sorted valid-slice index lists (ForEachValidPair) or by probing a
// column's list against its pivot row's scattered slice ordinals
// (RowPairWalker).
//
// Layer: §5 bitmatrix — see docs/ARCHITECTURE.md. Units:
// CompressedBytes()/WorkingSetBytes() are bytes under the paper's
// NVS*(|S|/8+4) formula; slice_bits is |S| in bits; every other
// SliceStats field is a dimensionless count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "bitmatrix/popcount.h"
#include "bitmatrix/sliced_store.h"

namespace tcim::bit {

/// Aggregate slice statistics behind Tables III and IV; see the field
/// comments for the exact definitions used (EXPERIMENTS.md discusses
/// how they map onto the paper's numbers).
struct SliceStats {
  std::uint64_t row_valid_slices = 0;
  std::uint64_t col_valid_slices = 0;
  std::uint64_t row_slice_slots = 0;
  std::uint64_t col_slice_slots = 0;
  std::uint64_t edges = 0;

  /// Σ over non-zero A[i][j] of |valid slices of Ri ∩ valid slices of
  /// Cj| — the number of in-memory AND operations Algorithm 1 issues.
  std::uint64_t valid_pairs = 0;
  /// Σ over non-zero A[i][j] of slices_per_vector — the AND count a
  /// slicing-oblivious implementation would issue (denominator of the
  /// "99.99% computation reduction" claim).
  std::uint64_t total_pairs = 0;

  /// Distinct row/column slices that participate in >= 1 valid pair —
  /// the slices that are ever loaded into the computational array.
  /// WorkingSetBytes() is the Table III "valid slice data size".
  std::uint64_t touched_row_slices = 0;
  std::uint64_t touched_col_slices = 0;

  std::uint32_t slice_bits = 64;

  /// NVS*(|S|/8+4) over both stores (paper's storage formula).
  [[nodiscard]] std::uint64_t CompressedBytes() const noexcept {
    return (row_valid_slices + col_valid_slices) *
           (slice_bits / 8ULL + 4ULL);
  }
  /// Bytes of slices ever loaded for computation (Table III analog).
  [[nodiscard]] std::uint64_t WorkingSetBytes() const noexcept {
    return (touched_row_slices + touched_col_slices) *
           (slice_bits / 8ULL + 4ULL);
  }
  /// Valid slices / slice slots over both stores (Table IV analog,
  /// storage view).
  [[nodiscard]] double ValidSliceFraction() const noexcept {
    const auto slots = row_slice_slots + col_slice_slots;
    return slots == 0 ? 0.0
                      : static_cast<double>(row_valid_slices +
                                            col_valid_slices) /
                            static_cast<double>(slots);
  }
  /// valid_pairs / total_pairs (Table IV analog, computation view; the
  /// "reduce computation by 99.99%" figure is 1 - this).
  [[nodiscard]] double ValidPairFraction() const noexcept {
    return total_pairs == 0 ? 0.0
                            : static_cast<double>(valid_pairs) /
                                  static_cast<double>(total_pairs);
  }
};

/// Per-path pair accounting of one host Eq. (5) pass: how many valid
/// slice pairs went through the zero-copy descriptor kernel (and in
/// how many flushes) and how many through the direct per-pair loop
/// (kernel_backend.h, ChooseDirectPairLoop). The route is otherwise
/// invisible from outside — these counters are how tests pin it and
/// how ExecStats reports it.
struct PairPathCounters {
  std::uint64_t zero_copy_pairs = 0;
  std::uint64_t per_pair_pairs = 0;
  std::uint64_t zero_copy_flushes = 0;

  PairPathCounters& operator+=(const PairPathCounters& o) noexcept {
    zero_copy_pairs += o.zero_copy_pairs;
    per_pair_pairs += o.per_pair_pairs;
    zero_copy_flushes += o.zero_copy_flushes;
    return *this;
  }

  [[nodiscard]] std::uint64_t TotalPairs() const noexcept {
    return zero_copy_pairs + per_pair_pairs;
  }
};

/// One arc mutation of the oriented adjacency matrix: set (insert) or
/// clear (remove) A[from][to]. Mirrored automatically into both the
/// row store (bit `to` of row `from`) and the column store (bit `from`
/// of column `to`) by ApplyArcEdits, so the two stores can never
/// disagree.
struct ArcEdit {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  bool set = true;
};

/// Per-store patch accounting of one ApplyArcEdits batch.
struct MatrixPatchStats {
  PatchStats rows;
  PatchStats cols;

  /// Structural slice writes across both stores — the streaming
  /// analogue of ExecStats' row/col slice writes.
  [[nodiscard]] std::uint64_t TotalSliceWrites() const noexcept {
    return rows.slices_inserted + rows.slices_removed + cols.slices_inserted +
           cols.slices_removed;
  }
};

/// Row + column compressed slice stores for one (oriented) adjacency
/// matrix, with the valid-slice-pair merge kernel.
class SlicedMatrix {
 public:
  SlicedMatrix() = default;

  /// Builds both stores from a CSR adjacency (out-neighbors).
  ///  - offsets/neighbors: CSR of the *oriented* matrix, per-row sorted
  ///    strictly increasing;
  ///  - the column store is derived internally by transposition.
  static SlicedMatrix FromCsr(std::uint32_t num_vertices,
                              std::span<const std::uint64_t> offsets,
                              std::span<const std::uint32_t> neighbors,
                              std::uint32_t slice_bits);

  [[nodiscard]] const SlicedStore& rows() const noexcept { return rows_; }
  [[nodiscard]] const SlicedStore& cols() const noexcept { return cols_; }
  [[nodiscard]] std::uint32_t num_vertices() const noexcept {
    return rows_.num_vectors();
  }
  [[nodiscard]] std::uint32_t slice_bits() const noexcept {
    return rows_.slice_bits();
  }
  [[nodiscard]] std::uint64_t edge_count() const noexcept {
    return rows_.set_bit_count();
  }

  /// Merge-enumerates valid slice pairs of (row i, column j), calling
  ///   fn(slice_index, row_ordinal, col_ordinal)
  /// in increasing slice_index order, where the ordinals index into
  /// SliceWords/GlobalOrdinal of the respective stores. Re-walks row
  /// i's whole index list per call: the per-edge reference oracle of
  /// RowPairWalker.
  template <typename Fn>
  void ForEachValidPair(std::uint32_t i, std::uint32_t j, Fn&& fn) const {
    const std::span<const std::uint32_t> ri = rows_.SliceIndices(i);
    ForEachMatchedSlice(ri, cols_.SliceIndices(j),
                        [&](std::size_t a, std::size_t b) { fn(ri[a], a, b); });
  }

  /// Row-indexed valid-pair walker — the pair enumerator of the
  /// architectural simulator (arch::Controller) and ComputeStats. Walk
  /// scatters pivot row i's valid slice ordinals into a table of
  /// slices_per_vector() entries once, then probes each arc's column
  /// index list, clipped to the row's slice span, against it — so an
  /// arc costs O(log |Cj| + the column's slices in that span) instead
  /// of a merge over both whole lists. Per arc the pairs come in
  /// increasing slice index: exactly the tuples ForEachValidPair
  /// yields. The matrix must outlive the walker and stay unmodified
  /// while it is used.
  class RowPairWalker {
   public:
    explicit RowPairWalker(const SlicedMatrix& matrix)
        : matrix_(matrix),
          row_ordinal_of_slice_(
              static_cast<std::size_t>(matrix.rows().slices_per_vector()),
              kNoOrdinal) {}

    /// For every arc A[i][j] with j in [col_begin, col_end), in
    /// increasing j, calls on_arc(j); when it returns true, calls
    ///   on_pair(j, slice_index, row_ordinal, col_ordinal)
    /// for every valid slice pair of (row i, column j).
    template <typename ArcFn, typename PairFn>
    void Walk(std::uint32_t i, std::uint32_t col_begin, std::uint32_t col_end,
              ArcFn&& on_arc, PairFn&& on_pair) {
      const std::span<const std::uint32_t> row =
          matrix_.rows_.SliceIndices(i);
      if (row.empty()) return;  // no valid slice, so no arc either
      for (std::size_t a = 0; a < row.size(); ++a) {
        row_ordinal_of_slice_[row[a]] = static_cast<std::uint32_t>(a);
      }
      matrix_.rows_.ForEachSetBitInRange(
          i, col_begin, col_end, [&](std::uint64_t j64) {
            const auto j = static_cast<std::uint32_t>(j64);
            if (!on_arc(j)) return;
            // Only slices inside the row's span [front, back] can
            // match: seek the column's first one, stop past the last.
            const std::span<const std::uint32_t> col =
                matrix_.cols_.SliceIndices(j);
            auto b = static_cast<std::size_t>(
                std::lower_bound(col.begin(), col.end(), row.front()) -
                col.begin());
            for (; b < col.size() && col[b] <= row.back(); ++b) {
              const std::uint32_t a = row_ordinal_of_slice_[col[b]];
              if (a != kNoOrdinal) on_pair(j, col[b], a, b);
            }
          });
      // Only the row's own entries were written: clearing them keeps
      // the table ready for the next row (rows may be revisited).
      for (const std::uint32_t k : row) row_ordinal_of_slice_[k] = kNoOrdinal;
    }

   private:
    static constexpr std::uint32_t kNoOrdinal = ~std::uint32_t{0};

    const SlicedMatrix& matrix_;
    std::vector<std::uint32_t> row_ordinal_of_slice_;
  };

  /// Software evaluation of Eq. (5) over the compressed stores: for
  /// every non-zero A[i][j], Σ BitCount(AND(RiSk, CjSk)) over valid
  /// pairs. With an upper-triangular (oriented) adjacency this *is*
  /// the triangle count; the caller owns that interpretation. It is
  /// AndPopcountRect over the whole matrix. When `counters` is non-null
  /// the per-path pair/flush accounting of this pass is accumulated
  /// into it.
  [[nodiscard]] std::uint64_t AndPopcountAllEdges(
      PopcountKind kind = PopcountKind::kBuiltin,
      PairPathCounters* counters = nullptr) const;

  /// Eq. (5) over the sub-rectangle rows [row_begin, row_end) x
  /// columns [col_begin, col_end) — the tile unit of the multi-bank
  /// runtime (a 1D row shard is the full-width tile [b, e) x [0, n)).
  /// Only arcs A[i][j] with i and j inside the rectangle are
  /// enumerated, but each enumerated arc still ANDs the FULL row i
  /// against the FULL column j: tiling selects which arcs a bank pivots
  /// on, never which slices get paired, so any family of disjoint
  /// rectangles covering all non-zeros partitions AndPopcountAllEdges()
  /// exactly.
  ///
  /// `col_mask` (when non-null, num_vertices() entries) filters arcs:
  /// A[i][j] is enumerated only when (col_mask[j] != 0) == mask_value —
  /// the hub/tail split (hub lanes pass mask_value=true, tail tiles
  /// false, same mask, so together they see each arc exactly once).
  ///
  /// `cols_override` (when non-null) replaces the column store for the
  /// ANDs — the per-bank hub-replica store. It must match slice_bits
  /// and num_vectors (throws std::invalid_argument) and must hold
  /// bit-identical data for every enumerated column.
  ///
  /// Routing: at the default kind (kBuiltin) the valid slice pairs are
  /// gathered per pivot row as zero-copy descriptors and evaluated in
  /// flush batches — except in the one regime ChooseDirectPairLoop
  /// picks from the row store and the column store the pass reads
  /// (wide, cache-spilling, no reuse), where each pair is dispatched
  /// during enumeration; the hardware-model kinds run the exact
  /// per-word per-pair loop instead.
  /// Throws std::out_of_range on an invalid rectangle.
  [[nodiscard]] std::uint64_t AndPopcountRect(
      std::uint32_t row_begin, std::uint32_t row_end, std::uint32_t col_begin,
      std::uint32_t col_end, const std::uint8_t* col_mask = nullptr,
      bool mask_value = true, const SlicedStore* cols_override = nullptr,
      PopcountKind kind = PopcountKind::kBuiltin,
      PairPathCounters* counters = nullptr) const;

  /// Full statistics pass (Tables III/IV): one RowPairWalker pass.
  [[nodiscard]] SliceStats ComputeStats() const;

  /// O(log slices) test of one non-zero: is A[i][j] set?
  [[nodiscard]] bool TestArc(std::uint32_t i, std::uint32_t j) const {
    return rows_.TestBit(i, j);
  }

  /// Batched in-place arc mutation — the row-rewrite entry point of
  /// the streaming layer (stream::DynamicGraph). Each edit is applied
  /// to the row store and mirrored into the column store in the same
  /// call; `new_num_vertices` >= num_vertices() grows both stores.
  /// Duplicate edits or non-flips throw std::invalid_argument (see
  /// SlicedStore::ApplyEdits); on throw the matrix is unchanged
  /// (edits are validated against the row store before either store
  /// is touched).
  MatrixPatchStats ApplyArcEdits(std::span<const ArcEdit> edits,
                                 std::uint32_t new_num_vertices);

  /// Heap footprint of both stores (diagnostics).
  [[nodiscard]] std::uint64_t HeapBytes() const noexcept {
    return rows_.HeapBytes() + cols_.HeapBytes();
  }

 private:
  SlicedStore rows_;
  SlicedStore cols_;
};

}  // namespace tcim::bit
