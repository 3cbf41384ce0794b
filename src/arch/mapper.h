// Slice-index -> physical placement mapping.
//
// The multi-row-activation AND can only combine slices that sit in the
// SAME subarray and the SAME column group (pim::ComputationalArray
// enforces this). Because the AND partners of a row slice RiSk are
// exactly the column slices CjSk with the *same slice index k*, the
// mapper sends column slice CjSk to the set
//
//   set(k, j) = (k * spread + j mod spread) mod num_sets,
//   num_sets = subarrays * slices_per_row,
//
// where `spread` >= 1 fans the columns of one slice index out over
// several sets. spread = 1 is the minimal mapping (row slice staged
// once per (row, k) — the paper's "row loaded once"); the controller
// raises spread when the graph has fewer slice indices than the array
// has sets, so capacity is not stranded — at the price of staging the
// row slice once per (k, j mod spread) group actually touched.
//
// Inside a set, row 0 of the subarray is the STAGING row that holds
// the current row slice (overwritten per processed graph row, the
// paper's row-reuse), and rows 1..R-1 are cache ways for column
// slices. Row slices and their column partners are therefore always
// AND-compatible by construction.
//
// Layer: §7 arch — see docs/ARCHITECTURE.md.
#pragma once

#include <cstdint>

#include "pim/computational_array.h"

namespace tcim::arch {

class SliceMapper {
 public:
  explicit SliceMapper(const nvsim::ArrayConfig& config)
      : slices_per_row_(config.slices_per_row()),
        num_sets_(config.total_subarrays() *
                  static_cast<std::uint64_t>(config.slices_per_row())),
        ways_per_set_(config.subarray_rows - 1) {}

  [[nodiscard]] std::uint64_t num_sets() const noexcept { return num_sets_; }
  /// Cache ways per set (one row reserved for staging).
  [[nodiscard]] std::uint32_t ways_per_set() const noexcept {
    return ways_per_set_;
  }

  /// Set of column slice CjSk under the given spread; see file
  /// comment. spread must be >= 1. Deterministic in (k, j).
  [[nodiscard]] std::uint64_t SetOf(std::uint32_t slice_index,
                                    std::uint32_t column_vertex,
                                    std::uint64_t spread) const noexcept {
    const std::uint64_t base =
        static_cast<std::uint64_t>(slice_index) * spread +
        column_vertex % spread;
    return base % num_sets_;
  }

  /// Spread that fills the array for a graph whose vectors have
  /// `slices_per_vector` slice positions.
  [[nodiscard]] std::uint64_t SpreadFor(
      std::uint64_t slices_per_vector) const noexcept {
    if (slices_per_vector == 0) return 1;
    const std::uint64_t spread = num_sets_ / slices_per_vector;
    return spread == 0 ? 1 : spread;
  }

  /// Physical address of a set's staging row slot.
  [[nodiscard]] pim::SliceAddr StagingAddr(std::uint64_t set) const noexcept {
    return MakeAddr(set, /*row=*/0);
  }

  /// Physical address of cache way w of a set (w in [0, ways_per_set)).
  [[nodiscard]] pim::SliceAddr WayAddr(std::uint64_t set,
                                       std::uint32_t way) const noexcept {
    return MakeAddr(set, WayRow(way));
  }

  /// Subarray row of cache way w: the row below the staging row 0. A
  /// way's address is its set's staging address with this row.
  [[nodiscard]] static constexpr std::uint32_t WayRow(
      std::uint32_t way) noexcept {
    return way + 1;
  }

 private:
  [[nodiscard]] pim::SliceAddr MakeAddr(std::uint64_t set,
                                        std::uint32_t row) const noexcept {
    pim::SliceAddr addr;
    addr.subarray = static_cast<std::uint32_t>(set / slices_per_row_);
    addr.col_group = static_cast<std::uint32_t>(set % slices_per_row_);
    addr.row = row;
    return addr;
  }

  std::uint32_t slices_per_row_;
  std::uint64_t num_sets_;
  std::uint32_t ways_per_set_;
};

}  // namespace tcim::arch
