#include "bitmatrix/sliced_matrix.h"

#include <algorithm>
#include <stdexcept>

#include "bitmatrix/kernel_backend.h"

namespace tcim::bit {

SlicedMatrix SlicedMatrix::FromCsr(std::uint32_t num_vertices,
                                   std::span<const std::uint64_t> offsets,
                                   std::span<const std::uint32_t> neighbors,
                                   std::uint32_t slice_bits) {
  SlicedMatrix m;
  m.rows_ = SlicedStore::FromCsr(num_vertices, num_vertices, offsets,
                                 neighbors, slice_bits);

  // Transpose by counting sort: bucket each arc (i -> j) under j.
  // Iterating i in increasing order keeps every bucket sorted by i,
  // which FromCsr requires.
  std::vector<std::uint64_t> col_offsets(
      static_cast<std::size_t>(num_vertices) + 1, 0);
  for (const std::uint32_t j : neighbors) {
    if (j >= num_vertices) {
      throw std::invalid_argument("SlicedMatrix: neighbor out of range");
    }
    ++col_offsets[static_cast<std::size_t>(j) + 1];
  }
  for (std::uint32_t v = 0; v < num_vertices; ++v) {
    col_offsets[v + 1] += col_offsets[v];
  }
  std::vector<std::uint32_t> col_sources(neighbors.size());
  std::vector<std::uint64_t> cursor(col_offsets.begin(),
                                    col_offsets.end() - 1);
  for (std::uint32_t i = 0; i < num_vertices; ++i) {
    for (std::uint64_t e = offsets[i]; e < offsets[i + 1]; ++e) {
      const std::uint32_t j = neighbors[e];
      col_sources[cursor[j]++] = i;
    }
  }
  m.cols_ = SlicedStore::FromCsr(num_vertices, num_vertices, col_offsets,
                                 col_sources, slice_bits);
  return m;
}

MatrixPatchStats SlicedMatrix::ApplyArcEdits(std::span<const ArcEdit> edits,
                                             std::uint32_t new_num_vertices) {
  std::vector<SliceEdit> row_edits;
  std::vector<SliceEdit> col_edits;
  row_edits.reserve(edits.size());
  col_edits.reserve(edits.size());
  for (const ArcEdit& edit : edits) {
    row_edits.push_back(SliceEdit{edit.from, edit.to, edit.set});
    col_edits.push_back(SliceEdit{edit.to, edit.from, edit.set});
  }
  MatrixPatchStats stats;
  // The row store validates the whole batch before mutating; once it
  // accepts, the mirrored column batch cannot fail (the stores encode
  // the same matrix), so the two stores move together or not at all.
  stats.rows = rows_.ApplyEdits(row_edits, new_num_vertices, new_num_vertices);
  stats.cols = cols_.ApplyEdits(col_edits, new_num_vertices, new_num_vertices);
  return stats;
}

namespace {

// Flush granularity of the Eq. (5) gather: 2 Ki words = 16 KiB per
// side of descriptor-referenced slice words keeps a flush window
// cache-resident while still amortizing one backend dispatch over
// hundreds-to-thousands of slice pairs.
constexpr std::size_t kGatherFlushWords = std::size_t{1} << 11;

// Zero-copy Eq. (5) pair stream: valid slice pairs are gathered as
// in-place (a, b, width) descriptors — a descriptor is 20 bytes
// regardless of slice width, so enumeration copies no slice words —
// and each full window is summed by one AndPopcountPairsZeroCopy call.
class PairStreamExecutor {
 public:
  PairStreamExecutor(std::size_t width, PairPathCounters* counters)
      : width_(width), counters_(counters) {
    const std::size_t max_pairs = kGatherFlushWords / (width == 0 ? 1 : width);
    refs_.reserve(max_pairs + 1);
  }

  void Push(const std::uint64_t* a, const std::uint64_t* b) {
#if defined(__GNUC__) || defined(__clang__)
    // Start the pair's lines toward L2 now: enumeration runs hundreds
    // of cycles ahead of the flush that consumes them, which is the
    // prefetch distance a DRAM-resident |S|=512 store needs (the flush
    // loop's own lookahead only hides L2/L3 latency). Locality hint 2
    // (L2, not L1) — a full flush window of wide pairs overflows L1.
    __builtin_prefetch(a, 0, 2);
    __builtin_prefetch(b, 0, 2);
    if (width_ > 1) {
      __builtin_prefetch(a + width_ - 1, 0, 2);
      __builtin_prefetch(b + width_ - 1, 0, 2);
    }
#endif
    refs_.push_back(PairRef{a, b, static_cast<std::uint32_t>(width_)});
    words_ += width_;
  }

  [[nodiscard]] bool ShouldFlush() const noexcept {
    return words_ >= kGatherFlushWords;
  }

  void Flush(std::uint64_t& total) {
    if (refs_.empty()) return;
    total += AndPopcountPairsZeroCopy(refs_);
    if (counters_ != nullptr) {
      counters_->zero_copy_pairs += refs_.size();
      ++counters_->zero_copy_flushes;
    }
    refs_.clear();
    words_ = 0;
  }

 private:
  std::size_t width_;
  PairPathCounters* counters_;
  std::vector<PairRef> refs_;
  std::size_t words_ = 0;
};

}  // namespace

std::uint64_t SlicedMatrix::AndPopcountAllEdges(
    PopcountKind kind, PairPathCounters* counters) const {
  return AndPopcountRect(0, num_vertices(), 0, num_vertices(), nullptr, true,
                         nullptr, kind, counters);
}

std::uint64_t SlicedMatrix::AndPopcountRect(
    std::uint32_t row_begin, std::uint32_t row_end, std::uint32_t col_begin,
    std::uint32_t col_end, const std::uint8_t* col_mask, bool mask_value,
    const SlicedStore* cols_override, PopcountKind kind,
    PairPathCounters* counters) const {
  if (row_begin > row_end || row_end > num_vertices() ||
      col_begin > col_end || col_end > num_vertices()) {
    throw std::out_of_range("SlicedMatrix::AndPopcountRect: invalid range");
  }
  const SlicedStore& cols = cols_override != nullptr ? *cols_override : cols_;
  if (cols_override != nullptr &&
      (cols.slice_bits() != slice_bits() ||
       cols.num_vectors() != cols_.num_vectors())) {
    throw std::invalid_argument(
        "SlicedMatrix::AndPopcountRect: cols_override shape mismatch");
  }
  // The one Eq. (5) row pass: for each pivot row i in
  // [row_begin, row_end), every arc A[i][j] with j in [col_begin,
  // col_end) that passes the column mask ANDs row i against column j of
  // `cols` over their valid slice pairs.
  const SlicedStore& rows = rows_;
  const auto walk_arcs = [&](std::uint32_t i, auto&& visit) {
    rows.ForEachSetBitInRange(i, col_begin, col_end, [&](std::uint64_t j64) {
      const auto j = static_cast<std::uint32_t>(j64);
      if (col_mask == nullptr || (col_mask[j] != 0) == mask_value) visit(j);
    });
  };
  std::uint64_t total = 0;
  if (kind != PopcountKind::kBuiltin) {
    // Hardware-model strategies (kSwar/kLut8/kLut16) keep the exact
    // per-word per-pair loop — they model structure, not throughput.
    for (std::uint32_t i = row_begin; i < row_end; ++i) {
      const std::span<const std::uint32_t> ri = rows.SliceIndices(i);
      walk_arcs(i, [&](std::uint32_t j) {
        ForEachMatchedSlice(ri, cols.SliceIndices(j),
                            [&](std::size_t a, std::size_t b) {
                              total += AndPopcount(rows.SliceWords(i, a),
                                                   cols.SliceWords(j, b),
                                                   kind);
                            });
      });
    }
    return total;
  }

  const std::size_t width = rows.words_per_slice();

  // Direct route: a wide-slice pass that spills the cache AND has no
  // slice reuse is a pure cold stream — dispatching each pair during
  // enumeration lets the OoO window overlap the DRAM misses with
  // enumeration work, which a deferred descriptor flush cannot match.
  if (rows.num_vectors() > 0 &&
      ChooseDirectPairLoop(width, rows.HeapBytes() + cols.HeapBytes(),
                           static_cast<double>(rows.valid_slice_count()) /
                               static_cast<double>(rows.num_vectors()))) {
    std::uint64_t pairs = 0;
    for (std::uint32_t i = row_begin; i < row_end; ++i) {
      const SlicedStore::VectorSlices row = rows.Slices(i);
      walk_arcs(i, [&](std::uint32_t j) {
        const SlicedStore::VectorSlices col = cols.Slices(j);
        ForEachMatchedSlice(
            row.indices, col.indices, [&](std::size_t a, std::size_t b) {
              total += AndPopcountActive(row.words + a * width,
                                         col.words + b * width, width);
              ++pairs;
            });
      });
    }
    if (counters != nullptr) counters->per_pair_pairs += pairs;
    return total;
  }

  // Zero-copy route: the pivot row's valid slices are indexed ONCE
  // into a sparse lookup table (the §IV-A row-reuse idea on the host),
  // so each arc pays O(|Cj|) lookups instead of re-merging the row's
  // whole valid-slice list; every matched pair lands as a descriptor.
  PairStreamExecutor exec(width, counters);
  // row_ordinal_of_slice[k] = ordinal of slice k within the current
  // pivot row, or -1. Only the row's own entries are ever written and
  // reset, so the table costs O(|Ri|) per row after one O(slots) init.
  std::vector<std::int32_t> row_ordinal_of_slice(
      static_cast<std::size_t>(rows.slices_per_vector()), -1);
  for (std::uint32_t i = row_begin; i < row_end; ++i) {
    const SlicedStore::VectorSlices row = rows.Slices(i);
    if (row.indices.empty()) continue;
    for (std::size_t a = 0; a < row.indices.size(); ++a) {
      row_ordinal_of_slice[row.indices[a]] = static_cast<std::int32_t>(a);
    }
    walk_arcs(i, [&](std::uint32_t j) {
      const SlicedStore::VectorSlices col = cols.Slices(j);
      for (std::size_t b = 0; b < col.indices.size(); ++b) {
        const std::int32_t a = row_ordinal_of_slice[col.indices[b]];
        if (a >= 0) {
          exec.Push(row.words + static_cast<std::size_t>(a) * width,
                    col.words + b * width);
        }
      }
      // Flush per arc, not per row: a single hub row can gather far
      // past the flush window otherwise (pair boundaries don't affect
      // the sum, so flushing mid-row is safe).
      if (exec.ShouldFlush()) exec.Flush(total);
    });
    for (const std::uint32_t slice : row.indices) {
      row_ordinal_of_slice[slice] = -1;
    }
  }
  exec.Flush(total);
  return total;
}

SliceStats SlicedMatrix::ComputeStats() const {
  SliceStats stats;
  stats.slice_bits = slice_bits();
  stats.row_valid_slices = rows_.valid_slice_count();
  stats.col_valid_slices = cols_.valid_slice_count();
  stats.row_slice_slots = rows_.total_slice_slots();
  stats.col_slice_slots = cols_.total_slice_slots();

  // Byte flags by global ordinal: one plain store per pair side.
  std::vector<std::uint8_t> row_touched(rows_.valid_slice_count(), 0);
  std::vector<std::uint8_t> col_touched(cols_.valid_slice_count(), 0);

  const std::uint32_t n = num_vertices();
  RowPairWalker walker(*this);
  for (std::uint32_t i = 0; i < n; ++i) {
    walker.Walk(
        i, 0, n,
        [&](std::uint32_t /*j*/) {
          ++stats.edges;
          return true;
        },
        [&](std::uint32_t j, std::uint32_t /*slice*/, std::size_t ra,
            std::size_t cb) {
          ++stats.valid_pairs;
          row_touched[rows_.GlobalOrdinal(i, ra)] = 1;
          col_touched[cols_.GlobalOrdinal(j, cb)] = 1;
        });
  }
  stats.total_pairs = stats.edges * rows_.slices_per_vector();
  stats.touched_row_slices = static_cast<std::uint64_t>(
      std::count(row_touched.begin(), row_touched.end(), 1));
  stats.touched_col_slices = static_cast<std::uint64_t>(
      std::count(col_touched.begin(), col_touched.end(), 1));
  return stats;
}

}  // namespace tcim::bit
