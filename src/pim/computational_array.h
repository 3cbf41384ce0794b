// Functional simulator of the computational STT-MRAM chip.
//
// Models the Fig. 1/Fig. 4 organization at slice granularity: the chip
// is a pool of subarrays, each subarray a grid of rows x slice-columns;
// a *slot* addresses one slice-sized row segment. Three operations
// exist, mirroring the modified read circuitry:
//   WRITE  — put slice data into a slot (write drivers);
//   READ   — sense one row against the READ reference;
//   AND    — activate TWO rows of the same subarray simultaneously and
//            sense the summed column currents against the AND
//            reference (Rref-AND in (R_P-P, R_P-AP)); the result
//            streams into the per-subarray BitCounter.
//
// The multi-row-activation constraint is physical: operands must live
// in the SAME subarray and the SAME slice-column, in different rows —
// enforced here with exceptions, because a mapper that violates it is
// a bug the tests must catch.
//
// The simulator is functional (bit-exact contents) + accounting (op
// counters used by core::PerfModel to derive time/energy from the
// NVSim per-op costs).
//
// Storage is sized by what the array holds, not by its capacity: each
// (subarray, column group) — one slice-cache set, arch/mapper.h — owns
// one block of rows that grows by whole rows up to the highest row ever
// written into it. A slot that was never written reads as zero and
// allocates nothing. The controller fills a set's staging row (row 0)
// and its cache ways in index order (arch/slice_cache.h), so a block
// holds the staging row plus the resident ways, not the whole subarray.
//
// Layer: §6 pim — see docs/ARCHITECTURE.md. This simulator is
// functional only: it carries no time or energy. Its op counts are
// priced with nvsim::ArrayPerf per-op costs by core::PerfModel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nvsim/array_model.h"
#include "pim/bit_counter.h"

namespace tcim::pim {

/// Physical address of one slice slot.
struct SliceAddr {
  std::uint32_t subarray = 0;
  std::uint32_t row = 0;
  std::uint32_t col_group = 0;  ///< which slice-column within the row

  [[nodiscard]] bool operator==(const SliceAddr&) const = default;
};

/// Operation counters (inputs to the behavioural perf model).
struct ArrayOpCounts {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t ands = 0;
  std::uint64_t bitcount_words = 0;
};

/// One recorded array command (see ComputationalArray::EnableTrace).
struct TraceEntry {
  enum class Op : std::uint8_t { kWrite, kRead, kAnd };
  Op op = Op::kWrite;
  SliceAddr a;
  SliceAddr b;  // second operand for kAnd; unused otherwise

  [[nodiscard]] bool operator==(const TraceEntry&) const = default;
};

class ComputationalArray {
 public:
  /// Geometry comes from the NVSim-level config; slice width =
  /// access_width_bits. Throws std::invalid_argument on an invalid
  /// config (nvsim::ArrayConfig::Validate).
  explicit ComputationalArray(const nvsim::ArrayConfig& config,
                              const BitCounterParams& counter_params = {});

  [[nodiscard]] const nvsim::ArrayConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint32_t words_per_slice() const noexcept {
    return words_per_slice_;
  }
  [[nodiscard]] std::uint64_t total_slots() const noexcept {
    return total_slots_;
  }
  [[nodiscard]] std::uint32_t rows_per_subarray() const noexcept {
    return config_.subarray_rows;
  }
  [[nodiscard]] std::uint64_t num_subarrays() const noexcept {
    return num_subarrays_;
  }
  [[nodiscard]] std::uint32_t slices_per_row() const noexcept {
    return slices_per_row_;
  }

  /// Flat slot id <-> physical address (round-trip tested).
  [[nodiscard]] std::uint64_t FlatIndex(const SliceAddr& addr) const;
  [[nodiscard]] SliceAddr AddrOf(std::uint64_t flat_index) const;

  /// WRITE: stores `words` (words_per_slice words; extra bits beyond
  /// the access width must be zero) into the slot.
  void WriteSlice(const SliceAddr& addr, std::span<const std::uint64_t> words);

  /// READ: returns the stored words (zeros for a never-written slot).
  /// The span stays valid until the next WriteSlice into the same
  /// (subarray, column group): a write may grow that block.
  [[nodiscard]] std::span<const std::uint64_t> ReadSlice(
      const SliceAddr& addr);

  /// AND with multi-row activation; returns the popcount of the AND
  /// result via the subarray's bit counter. Throws std::invalid_argument
  /// if the operands violate the same-subarray / same-column /
  /// different-row constraint.
  [[nodiscard]] std::uint64_t AndPopcount(const SliceAddr& a,
                                          const SliceAddr& b);

  /// AND returning the raw result words (diagnostics/tests); same
  /// constraints and accounting as AndPopcount minus the bit counter.
  [[nodiscard]] std::vector<std::uint64_t> AndSlices(const SliceAddr& a,
                                                     const SliceAddr& b);

  [[nodiscard]] const ArrayOpCounts& counts() const noexcept {
    return counts_;
  }
  [[nodiscard]] const BitCounter& bit_counter() const noexcept {
    return counter_;
  }
  /// Accumulated triangle count (total of all AND popcounts).
  [[nodiscard]] std::uint64_t accumulated_count() const noexcept {
    return counter_.total();
  }

  /// Heap footprint of the stored slices, the block table and the
  /// trace (diagnostics).
  [[nodiscard]] std::uint64_t HeapBytes() const noexcept;

  void ResetCounters() noexcept {
    counts_ = {};
    counter_.Reset();
  }

  /// Starts recording the command stream (up to max_entries; further
  /// commands still execute but are not recorded — `trace_truncated`
  /// reports it). Used by tests and the debugging playground to assert
  /// exact command sequences.
  void EnableTrace(std::size_t max_entries);
  void DisableTrace() noexcept;
  [[nodiscard]] const std::vector<TraceEntry>& trace() const noexcept {
    return trace_;
  }
  [[nodiscard]] bool trace_truncated() const noexcept {
    return trace_truncated_;
  }

 private:
  void Record(TraceEntry::Op op, const SliceAddr& a,
              const SliceAddr& b = {});
  void CheckAddr(const SliceAddr& addr) const;
  /// Block of the address's (subarray, column group); addr checked.
  [[nodiscard]] std::vector<std::uint64_t>& BlockOf(const SliceAddr& addr) {
    return blocks_[static_cast<std::uint64_t>(addr.subarray) *
                       slices_per_row_ + addr.col_group];
  }
  /// Words of `row` in `block`, or the zero slice past its end.
  [[nodiscard]] const std::uint64_t* RowWords(
      const std::vector<std::uint64_t>& block, std::uint32_t row) const {
    const std::size_t offset = std::size_t{row} * words_per_slice_;
    return offset < block.size() ? block.data() + offset : zero_slice_.data();
  }

  nvsim::ArrayConfig config_;  // validated before the members below
  std::uint32_t words_per_slice_;
  std::uint32_t slices_per_row_;
  std::uint64_t num_subarrays_;
  std::uint64_t slots_per_subarray_;
  std::uint64_t total_slots_;
  /// One row-major block per (subarray, column group), rows
  /// [0, highest written row] of words_per_slice_ words each.
  std::vector<std::vector<std::uint64_t>> blocks_;
  std::vector<std::uint64_t> zero_slice_;  // what unwritten slots read
  ArrayOpCounts counts_;
  BitCounter counter_;
  bool tracing_ = false;
  bool trace_truncated_ = false;
  std::size_t trace_capacity_ = 0;
  std::vector<TraceEntry> trace_;
};

}  // namespace tcim::pim
