#include "pim/computational_array.h"

#include <algorithm>
#include <stdexcept>

namespace tcim::pim {
namespace {

// Runs before any member initializer divides by a config field.
nvsim::ArrayConfig Validated(const nvsim::ArrayConfig& config) {
  config.Validate();
  return config;
}

}  // namespace

ComputationalArray::ComputationalArray(const nvsim::ArrayConfig& config,
                                       const BitCounterParams& counter_params)
    : config_(Validated(config)),
      words_per_slice_((config_.access_width_bits + 63) / 64),
      slices_per_row_(config_.slices_per_row()),
      num_subarrays_(config_.total_subarrays()),
      slots_per_subarray_(static_cast<std::uint64_t>(config_.subarray_rows) *
                          slices_per_row_),
      total_slots_(num_subarrays_ * slots_per_subarray_),
      blocks_(num_subarrays_ * slices_per_row_),
      zero_slice_(words_per_slice_, 0),
      counter_(counter_params) {}

std::uint64_t ComputationalArray::FlatIndex(const SliceAddr& addr) const {
  CheckAddr(addr);
  return (static_cast<std::uint64_t>(addr.subarray) * config_.subarray_rows +
          addr.row) *
             slices_per_row_ +
         addr.col_group;
}

SliceAddr ComputationalArray::AddrOf(std::uint64_t flat_index) const {
  if (flat_index >= total_slots_) {
    throw std::out_of_range("ComputationalArray: flat index out of range");
  }
  SliceAddr addr;
  addr.col_group = static_cast<std::uint32_t>(flat_index % slices_per_row_);
  const std::uint64_t row_major = flat_index / slices_per_row_;
  addr.row = static_cast<std::uint32_t>(row_major % config_.subarray_rows);
  addr.subarray =
      static_cast<std::uint32_t>(row_major / config_.subarray_rows);
  return addr;
}

void ComputationalArray::CheckAddr(const SliceAddr& addr) const {
  if (addr.subarray >= num_subarrays_ ||
      addr.row >= config_.subarray_rows ||
      addr.col_group >= slices_per_row_) {
    throw std::out_of_range("ComputationalArray: address out of range");
  }
}

std::uint64_t ComputationalArray::HeapBytes() const noexcept {
  std::uint64_t bytes =
      blocks_.capacity() * sizeof(std::vector<std::uint64_t>) +
      zero_slice_.capacity() * sizeof(std::uint64_t) +
      trace_.capacity() * sizeof(TraceEntry);
  for (const std::vector<std::uint64_t>& block : blocks_) {
    bytes += block.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

void ComputationalArray::EnableTrace(std::size_t max_entries) {
  tracing_ = true;
  trace_truncated_ = false;
  trace_capacity_ = max_entries;
  trace_.clear();
  trace_.reserve(std::min<std::size_t>(max_entries, 4096));
}

void ComputationalArray::DisableTrace() noexcept { tracing_ = false; }

void ComputationalArray::Record(TraceEntry::Op op, const SliceAddr& a,
                                const SliceAddr& b) {
  if (!tracing_) return;
  if (trace_.size() >= trace_capacity_) {
    trace_truncated_ = true;
    return;
  }
  trace_.push_back(TraceEntry{op, a, b});
}

void ComputationalArray::WriteSlice(const SliceAddr& addr,
                                    std::span<const std::uint64_t> words) {
  if (words.size() != words_per_slice_) {
    throw std::invalid_argument(
        "ComputationalArray::WriteSlice: word count mismatch");
  }
  // Bits beyond the access width would silently alias onto other
  // columns in real hardware; reject them.
  const std::uint32_t tail_bits = config_.access_width_bits % 64;
  if (tail_bits != 0 &&
      (words.back() >> tail_bits) != 0) {
    throw std::invalid_argument(
        "ComputationalArray::WriteSlice: data beyond access width");
  }
  CheckAddr(addr);
  std::vector<std::uint64_t>& block = BlockOf(addr);
  const std::size_t end = (std::size_t{addr.row} + 1) * words_per_slice_;
  if (block.size() < end) {
    // Grow by whole rows, never past the subarray's last row.
    if (block.capacity() < end) {
      block.reserve(std::min(std::max(end, 2 * block.capacity()),
                             std::size_t{config_.subarray_rows} *
                                 words_per_slice_));
    }
    block.resize(end, 0);
  }
  std::copy(words.begin(), words.end(), block.begin() + (end - words.size()));
  ++counts_.writes;
  Record(TraceEntry::Op::kWrite, addr);
}

std::span<const std::uint64_t> ComputationalArray::ReadSlice(
    const SliceAddr& addr) {
  CheckAddr(addr);
  ++counts_.reads;
  Record(TraceEntry::Op::kRead, addr);
  return {RowWords(BlockOf(addr), addr.row), words_per_slice_};
}

std::uint64_t ComputationalArray::AndPopcount(const SliceAddr& a,
                                              const SliceAddr& b) {
  if (a.subarray != b.subarray) {
    throw std::invalid_argument(
        "ComputationalArray::AND: operands must share a subarray "
        "(multi-row activation is subarray-local)");
  }
  if (a.col_group != b.col_group) {
    throw std::invalid_argument(
        "ComputationalArray::AND: operands must be column-aligned");
  }
  if (a.row == b.row) {
    throw std::invalid_argument(
        "ComputationalArray::AND: operands must be in different rows");
  }
  CheckAddr(a);
  CheckAddr(b);
  const std::vector<std::uint64_t>& block = BlockOf(a);
  const std::uint64_t* wa = RowWords(block, a.row);
  const std::uint64_t* wb = RowWords(block, b.row);
  ++counts_.ands;
  counts_.bitcount_words += words_per_slice_;
  Record(TraceEntry::Op::kAnd, a, b);
  std::uint64_t popcount = 0;
  for (std::uint32_t i = 0; i < words_per_slice_; ++i) {
    popcount += counter_.Feed(wa[i] & wb[i]);
  }
  return popcount;
}

std::vector<std::uint64_t> ComputationalArray::AndSlices(const SliceAddr& a,
                                                         const SliceAddr& b) {
  if (a.subarray != b.subarray || a.col_group != b.col_group ||
      a.row == b.row) {
    throw std::invalid_argument(
        "ComputationalArray::AndSlices: operand placement violates "
        "multi-row activation constraints");
  }
  CheckAddr(a);
  CheckAddr(b);
  const std::vector<std::uint64_t>& block = BlockOf(a);
  const std::uint64_t* wa = RowWords(block, a.row);
  const std::uint64_t* wb = RowWords(block, b.row);
  ++counts_.ands;
  std::vector<std::uint64_t> out(words_per_slice_);
  for (std::uint32_t i = 0; i < words_per_slice_; ++i) {
    out[i] = wa[i] & wb[i];
  }
  return out;
}

}  // namespace tcim::pim
