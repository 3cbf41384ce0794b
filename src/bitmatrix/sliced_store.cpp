#include "bitmatrix/sliced_store.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace tcim::bit {

namespace {

// Slab index / local vector index of a global vector id.
constexpr std::size_t SlabOf(std::uint32_t v) noexcept {
  return static_cast<std::size_t>(v) >> SlicedStore::kSlabVectorShift;
}
constexpr std::uint32_t LocalOf(std::uint32_t v) noexcept {
  return v & (SlicedStore::kSlabVectors - 1);
}
constexpr std::size_t SlabCountFor(std::uint32_t num_vectors) noexcept {
  return (static_cast<std::size_t>(num_vectors) + SlicedStore::kSlabVectors -
          1) >>
         SlicedStore::kSlabVectorShift;
}

}  // namespace

StoreMetrics& StoreMetrics::Get() {
  static StoreMetrics* metrics = [] {
    obs::Registry& reg = obs::Registry::Global();
    return new StoreMetrics{
        reg.GetCounter("store.apply.batches_total"),
        reg.GetCounter("store.apply.bits_patched_total"),
        reg.GetCounter("store.apply.slices_inserted_total"),
        reg.GetCounter("store.apply.slices_removed_total"),
        reg.GetCounter("store.apply.slabs_cow_cloned_total"),
        reg.GetCounter("store.apply.recompactions_total"),
    };
  }();
  return *metrics;
}

std::shared_ptr<SlicedStore::Slab> SlicedStore::MakeEmptySlab() {
  auto slab = std::make_shared<Slab>();
  slab->offsets.assign(kSlabVectors + 1, 0);
  return slab;
}

SlicedStore::Slab& SlicedStore::WritableSlab(std::size_t s,
                                             PatchStats& stats) {
  std::shared_ptr<Slab>& slot = slabs_[s];
  // use_count() is racy in general but exact here: the thread-safety
  // contract serializes ApplyEdits against copy construction of this
  // object, and already-published copies only ever *drop* references.
  if (slot.use_count() != 1) {
    slot = std::make_shared<Slab>(*slot);
    ++stats.slabs_cow_cloned;
  }
  return *slot;
}

SlicedStore SlicedStore::FromCsr(std::uint32_t num_vectors,
                                 std::uint64_t universe,
                                 std::span<const std::uint64_t> offsets,
                                 std::span<const std::uint32_t> positions,
                                 std::uint32_t slice_bits) {
  if (slice_bits == 0 || slice_bits > 512) {
    throw std::invalid_argument("SlicedStore: slice_bits must be in [1,512]");
  }
  if (offsets.size() != static_cast<std::size_t>(num_vectors) + 1) {
    throw std::invalid_argument("SlicedStore: offsets size mismatch");
  }
  if (!offsets.empty() &&
      (offsets.front() != 0 || offsets.back() != positions.size())) {
    throw std::invalid_argument("SlicedStore: offsets must span positions");
  }

  SlicedStore store;
  store.num_vectors_ = num_vectors;
  store.universe_ = universe;
  store.slice_bits_ = slice_bits;
  store.words_per_slice_ = (slice_bits + 63) / 64;
  store.slices_per_vector_ =
      universe == 0 ? 0 : (universe + slice_bits - 1) / slice_bits;

  // Pass 1: validate and count valid slices per vector.
  std::vector<std::uint64_t> valid_per_vector(num_vectors, 0);
  for (std::uint32_t v = 0; v < num_vectors; ++v) {
    if (offsets[v] > offsets[v + 1]) {
      throw std::invalid_argument("SlicedStore: offsets not monotone");
    }
    std::uint64_t prev_slice = ~0ULL;
    std::uint64_t prev_pos = ~0ULL;
    for (std::uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
      const std::uint64_t pos = positions[e];
      if (pos >= universe) {
        throw std::invalid_argument("SlicedStore: position out of universe");
      }
      if (prev_pos != ~0ULL && pos <= prev_pos) {
        throw std::invalid_argument(
            "SlicedStore: positions must be strictly increasing per vector");
      }
      prev_pos = pos;
      const std::uint64_t s = pos / slice_bits;
      if (s != prev_slice) {
        ++valid_per_vector[v];
        prev_slice = s;
      }
    }
  }

  // Pass 2: materialize one slab per kSlabVectors vectors.
  const std::size_t num_slabs = SlabCountFor(num_vectors);
  store.slabs_.reserve(num_slabs);
  store.slab_base_.assign(num_slabs + 1, 0);
  for (std::size_t s = 0; s < num_slabs; ++s) {
    auto slab = MakeEmptySlab();
    const std::uint32_t base_v =
        static_cast<std::uint32_t>(s << kSlabVectorShift);
    std::uint64_t slab_valid = 0;
    for (std::uint32_t lv = 0; lv < kSlabVectors; ++lv) {
      const std::uint32_t v = base_v + lv;
      if (v < num_vectors) slab_valid += valid_per_vector[v];
      slab->offsets[lv + 1] = slab_valid;
    }
    slab->indices.assign(slab_valid, 0);
    slab->words.assign(slab_valid * store.words_per_slice_, 0);
    for (std::uint32_t lv = 0; lv < kSlabVectors; ++lv) {
      const std::uint32_t v = base_v + lv;
      if (v >= num_vectors) break;
      std::uint64_t cursor = slab->offsets[lv];
      std::uint64_t prev_slice = ~0ULL;
      for (std::uint64_t e = offsets[v]; e < offsets[v + 1]; ++e) {
        const std::uint64_t pos = positions[e];
        const std::uint64_t sl = pos / slice_bits;
        if (sl != prev_slice) {
          slab->indices[cursor] = static_cast<std::uint32_t>(sl);
          prev_slice = sl;
          ++cursor;
        }
        const std::uint64_t in_slice = pos % slice_bits;
        const std::uint64_t word_base = (cursor - 1) * store.words_per_slice_;
        slab->words[word_base + in_slice / 64] |= 1ULL << (in_slice % 64);
      }
    }
    store.slab_base_[s + 1] = store.slab_base_[s] + slab_valid;
    store.slabs_.push_back(std::move(slab));
  }
  return store;
}

std::uint64_t SlicedStore::set_bit_count() const noexcept {
  std::uint64_t total = 0;
  for (const std::shared_ptr<Slab>& slab : slabs_) {
    total += PopcountWords(slab->words, PopcountKind::kBuiltin);
  }
  return total;
}

std::size_t SlicedStore::SliceCount(std::uint32_t v) const {
  if (v >= num_vectors_) {
    throw std::out_of_range("SlicedStore::SliceCount: vector out of range");
  }
  const Slab& slab = *slabs_[SlabOf(v)];
  const std::uint32_t lv = LocalOf(v);
  return static_cast<std::size_t>(slab.offsets[lv + 1] - slab.offsets[lv]);
}

std::span<const std::uint32_t> SlicedStore::SliceIndices(
    std::uint32_t v) const {
  if (v >= num_vectors_) {
    throw std::out_of_range("SlicedStore::SliceIndices: vector out of range");
  }
  return Slices(v).indices;
}

std::span<const std::uint64_t> SlicedStore::SliceWords(
    std::uint32_t v, std::size_t ordinal) const {
  const VectorSlices vs = Slices(v);
  if (ordinal >= vs.indices.size()) {
    throw std::out_of_range("SlicedStore::SliceWords: ordinal out of range");
  }
  return {vs.words + ordinal * words_per_slice_, words_per_slice_};
}

std::uint64_t SlicedStore::GlobalOrdinal(std::uint32_t v,
                                         std::size_t ordinal) const {
  if (v >= num_vectors_) {
    throw std::out_of_range("SlicedStore::GlobalOrdinal: vector out of range");
  }
  const std::size_t s = SlabOf(v);
  const Slab& slab = *slabs_[s];
  const std::uint32_t lv = LocalOf(v);
  const std::uint64_t local = slab.offsets[lv] + ordinal;
  if (local >= slab.offsets[lv + 1]) {
    throw std::out_of_range("SlicedStore::GlobalOrdinal: ordinal out of range");
  }
  return slab_base_[s] + local;
}

bool SlicedStore::TestBit(std::uint32_t v, std::uint64_t position) const {
  if (v >= num_vectors_) {
    throw std::out_of_range("SlicedStore::TestBit: vector out of range");
  }
  if (position >= universe_) return false;
  const std::uint32_t slice =
      static_cast<std::uint32_t>(position / slice_bits_);
  const VectorSlices vs = Slices(v);
  const auto it = std::lower_bound(vs.indices.begin(), vs.indices.end(), slice);
  if (it == vs.indices.end() || *it != slice) return false;
  const std::uint64_t k =
      static_cast<std::uint64_t>(it - vs.indices.begin());
  const std::uint64_t in_slice = position % slice_bits_;
  return (vs.words[k * words_per_slice_ + in_slice / 64] >>
          (in_slice % 64)) &
         1ULL;
}

PatchStats SlicedStore::ApplyEdits(std::span<const SliceEdit> edits,
                                   std::uint32_t new_num_vectors,
                                   std::uint64_t new_universe) {
  if (new_num_vectors < num_vectors_ || new_universe < universe_) {
    throw std::invalid_argument("SlicedStore::ApplyEdits: cannot shrink");
  }
  PatchStats stats;
  const bool grows =
      new_num_vectors != num_vectors_ || new_universe != universe_;
  if (edits.empty() && !grows) return stats;

  // Order edits by (vector, slice, position) so one walk sees each
  // affected slice's edits contiguously; duplicates become adjacent.
  std::vector<SliceEdit> sorted(edits.begin(), edits.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const SliceEdit& x, const SliceEdit& y) {
              return x.vector != y.vector ? x.vector < y.vector
                                          : x.position < y.position;
            });
  for (std::size_t e = 0; e < sorted.size(); ++e) {
    if (sorted[e].vector >= new_num_vectors ||
        sorted[e].position >= new_universe) {
      throw std::invalid_argument("SlicedStore::ApplyEdits: edit out of range");
    }
    if (e > 0 && sorted[e].vector == sorted[e - 1].vector &&
        sorted[e].position == sorted[e - 1].position) {
      throw std::invalid_argument(
          "SlicedStore::ApplyEdits: duplicate edit for one (vector, position)");
    }
  }

  // Classification pass — read-only, so an invalid batch throws before
  // the store (or any published copy's view of it) changes. Per slab,
  // decide whether its edits force a structural rebuild (a slice
  // becoming valid or empty) or stay pure in-place word flips; also
  // validates that every edit is a real flip.
  const std::size_t new_slab_count = SlabCountFor(new_num_vectors);
  std::vector<unsigned char> structural_slab(new_slab_count, 0);
  std::vector<std::uint64_t> scratch(words_per_slice_);
  std::size_t e = 0;
  while (e < sorted.size()) {
    const std::uint32_t v = sorted[e].vector;
    const std::uint32_t slice =
        static_cast<std::uint32_t>(sorted[e].position / slice_bits_);
    bool valid = false;
    std::uint64_t k = 0;
    VectorSlices vs{};
    if (v < num_vectors_) {
      vs = Slices(v);
      const auto it =
          std::lower_bound(vs.indices.begin(), vs.indices.end(), slice);
      if (it != vs.indices.end() && *it == slice) {
        valid = true;
        k = static_cast<std::uint64_t>(it - vs.indices.begin());
      }
    }
    if (valid) {
      std::copy_n(vs.words + k * words_per_slice_, words_per_slice_,
                  scratch.begin());
    } else {
      std::fill(scratch.begin(), scratch.end(), 0);
    }
    for (; e < sorted.size() && sorted[e].vector == v &&
           sorted[e].position / slice_bits_ == slice;
         ++e) {
      const std::uint64_t in_slice = sorted[e].position % slice_bits_;
      const std::uint64_t mask = 1ULL << (in_slice % 64);
      std::uint64_t& word = scratch[in_slice / 64];
      if (((word & mask) != 0) == sorted[e].set) {
        throw std::invalid_argument(
            "SlicedStore::ApplyEdits: edit is not a flip (store and caller "
            "bookkeeping diverged)");
      }
      word ^= mask;
    }
    const bool now_empty =
        std::all_of(scratch.begin(), scratch.end(),
                    [](std::uint64_t w) { return w == 0; });
    if (!valid || now_empty) {
      structural_slab[SlabOf(v)] = 1;
    }
  }

  // Mutation phase. Growth first: new vectors start empty, and thanks
  // to the trailing-repeat offsets invariant the existing final slab
  // absorbs them without a rebuild; fresh slabs are appended empty.
  if (grows) {
    num_vectors_ = new_num_vectors;
    universe_ = new_universe;
    slices_per_vector_ =
        new_universe == 0 ? 0 : (new_universe + slice_bits_ - 1) / slice_bits_;
    while (slabs_.size() < new_slab_count) slabs_.push_back(MakeEmptySlab());
  }

  // Walk the (vector-sorted) edits one slab group at a time.
  e = 0;
  bool any_structural = false;
  while (e < sorted.size()) {
    const std::size_t s = SlabOf(sorted[e].vector);
    std::size_t group_end = e;
    while (group_end < sorted.size() && SlabOf(sorted[group_end].vector) == s) {
      ++group_end;
    }
    ++stats.slabs_touched;

    if (!structural_slab[s]) {
      // In-place path: every edit in this slab flips a bit inside a
      // slice that stays valid — patch words directly, no realloc.
      Slab& slab = WritableSlab(s, stats);
      for (; e < group_end; ++e) {
        const SliceEdit& edit = sorted[e];
        const std::uint32_t lv = LocalOf(edit.vector);
        const std::uint32_t slice =
            static_cast<std::uint32_t>(edit.position / slice_bits_);
        const auto begin = slab.indices.begin() +
                           static_cast<std::ptrdiff_t>(slab.offsets[lv]);
        const auto end = slab.indices.begin() +
                         static_cast<std::ptrdiff_t>(slab.offsets[lv + 1]);
        const auto it = std::lower_bound(begin, end, slice);
        const std::uint64_t global = static_cast<std::uint64_t>(
            it - slab.indices.begin());
        const std::uint64_t in_slice = edit.position % slice_bits_;
        slab.words[global * words_per_slice_ + in_slice / 64] ^=
            1ULL << (in_slice % 64);
        ++stats.bits_patched;
      }
      continue;
    }

    // Structural path: rebuild just this slab by merging its old
    // slices with the edit groups, in slice order per vector. A shared
    // slab is not cloned first — the rebuilt arrays replace the
    // pointer wholesale and the old slab stays alive for its other
    // owners (that replacement IS the copy-on-write cost).
    any_structural = true;
    const std::shared_ptr<Slab> old = slabs_[s];
    if (old.use_count() > 2) ++stats.slabs_cow_cloned;  // `old` + slabs_[s]
    Slab fresh;
    fresh.offsets.assign(kSlabVectors + 1, 0);
    fresh.indices.reserve(old->indices.size() + (group_end - e));
    fresh.words.reserve(old->words.size() +
                        (group_end - e) * words_per_slice_);
    const std::uint32_t base_v =
        static_cast<std::uint32_t>(s << kSlabVectorShift);
    for (std::uint32_t lv = 0; lv < kSlabVectors; ++lv) {
      const std::uint32_t v = base_v + lv;
      std::uint64_t o = old->offsets[lv];
      const std::uint64_t old_end = old->offsets[lv + 1];
      while (o < old_end || (e < group_end && sorted[e].vector == v)) {
        const std::uint32_t old_slice =
            o < old_end ? old->indices[o] : ~std::uint32_t{0};
        const std::uint32_t edit_slice =
            (e < group_end && sorted[e].vector == v)
                ? static_cast<std::uint32_t>(sorted[e].position / slice_bits_)
                : ~std::uint32_t{0};
        const std::uint32_t slice = std::min(old_slice, edit_slice);
        if (old_slice == slice) {
          std::copy_n(old->words.begin() +
                          static_cast<std::ptrdiff_t>(o * words_per_slice_),
                      words_per_slice_, scratch.begin());
          ++o;
        } else {
          std::fill(scratch.begin(), scratch.end(), 0);
        }
        std::uint64_t slice_edits = 0;
        for (; e < group_end && sorted[e].vector == v &&
               sorted[e].position / slice_bits_ == slice;
             ++e) {
          const std::uint64_t in_slice = sorted[e].position % slice_bits_;
          scratch[in_slice / 64] ^= 1ULL << (in_slice % 64);
          ++slice_edits;
        }
        const bool now_empty =
            std::all_of(scratch.begin(), scratch.end(),
                        [](std::uint64_t w) { return w == 0; });
        if (now_empty) {
          ++stats.slices_removed;  // old slice emptied (fresh ones can't)
          continue;
        }
        if (old_slice != slice) {
          ++stats.slices_inserted;
        } else {
          stats.bits_patched += slice_edits;
        }
        fresh.indices.push_back(slice);
        fresh.words.insert(fresh.words.end(), scratch.begin(), scratch.end());
      }
      fresh.offsets[lv + 1] = fresh.indices.size();
    }
    slabs_[s] = std::make_shared<Slab>(std::move(fresh));
  }

  stats.rebuilt = any_structural || grows;

  // Refresh the global-ordinal prefix sums (touched slabs may have
  // changed their valid-slice counts; growth may have added slabs).
  slab_base_.assign(slabs_.size() + 1, 0);
  for (std::size_t s = 0; s < slabs_.size(); ++s) {
    slab_base_[s + 1] = slab_base_[s] + slabs_[s]->indices.size();
  }

  // Registry accounting: once per batch, never per edit.
  StoreMetrics& metrics = StoreMetrics::Get();
  metrics.apply_batches.Increment();
  metrics.bits_patched.Add(stats.bits_patched);
  metrics.slices_inserted.Add(stats.slices_inserted);
  metrics.slices_removed.Add(stats.slices_removed);
  metrics.slabs_cow_cloned.Add(stats.slabs_cow_cloned);
  if (stats.rebuilt) metrics.recompactions.Increment();
  return stats;
}

std::size_t GatherValidPairRefs(const SlicedStore& a, std::uint32_t va,
                                const SlicedStore& b, std::uint32_t vb,
                                std::vector<PairRef>& refs) {
  if (a.slice_bits() != b.slice_bits()) {
    throw std::invalid_argument(
        "GatherValidPairRefs: stores disagree on slice_bits");
  }
  const SlicedStore::VectorSlices sa = a.Slices(va);
  const SlicedStore::VectorSlices sb = b.Slices(vb);
  const std::size_t width = a.words_per_slice();
  const std::size_t before = refs.size();
  ForEachMatchedSlice(sa.indices, sb.indices, [&](std::size_t x, std::size_t y) {
    refs.push_back(PairRef{sa.words + x * width, sb.words + y * width,
                           static_cast<std::uint32_t>(width)});
  });
  return refs.size() - before;
}

std::uint64_t AndPopcountVectors(const SlicedStore& a, std::uint32_t va,
                                 const SlicedStore& b, std::uint32_t vb,
                                 PopcountKind kind, std::uint64_t* pairs) {
  if (kind == PopcountKind::kBuiltin) {
    thread_local std::vector<PairRef> refs;
    refs.clear();
    const std::size_t matched = GatherValidPairRefs(a, va, b, vb, refs);
    if (pairs != nullptr) *pairs += matched;
    return AndPopcountPairsZeroCopy(refs);
  }
  if (a.slice_bits() != b.slice_bits()) {
    throw std::invalid_argument(
        "AndPopcountVectors: stores disagree on slice_bits");
  }
  // Hardware-model strategies keep the exact per-word per-pair loop.
  std::uint64_t total = 0;
  ForEachMatchedSlice(
      a.SliceIndices(va), b.SliceIndices(vb),
      [&](std::size_t x, std::size_t y) {
        total += AndPopcount(a.SliceWords(va, x), b.SliceWords(vb, y), kind);
        if (pairs != nullptr) ++*pairs;
      });
  return total;
}

BitVector SlicedStore::ToBitVector(std::uint32_t v) const {
  BitVector out(universe_);
  ForEachSetBit(v, [&](std::uint64_t pos) { out.Set(pos); });
  return out;
}

SlicedStore SlicedStore::ExtractVectors(
    std::span<const std::uint32_t> keep) const {
  for (std::size_t k = 0; k < keep.size(); ++k) {
    if (keep[k] >= num_vectors_ || (k > 0 && keep[k] <= keep[k - 1])) {
      throw std::invalid_argument(
          "SlicedStore::ExtractVectors: keep must be sorted, unique and in "
          "range");
    }
  }
  SlicedStore out;
  out.num_vectors_ = num_vectors_;
  out.universe_ = universe_;
  out.slice_bits_ = slice_bits_;
  out.words_per_slice_ = words_per_slice_;
  out.slices_per_vector_ = slices_per_vector_;
  out.slabs_.reserve(slabs_.size());
  out.slab_base_.assign(slabs_.size() + 1, 0);

  // Every all-dropped slab points at ONE lazily-made empty slab, so
  // dropping a large tail costs O(1) allocations, not O(#slabs).
  std::shared_ptr<Slab> empty;
  std::size_t cursor = 0;  // into keep
  for (std::size_t s = 0; s < slabs_.size(); ++s) {
    const std::uint32_t base_v =
        static_cast<std::uint32_t>(s << kSlabVectorShift);
    const std::uint64_t end_v = std::min<std::uint64_t>(
        num_vectors_, static_cast<std::uint64_t>(base_v) + kSlabVectors);
    std::size_t next = cursor;
    while (next < keep.size() && keep[next] < end_v) ++next;
    const Slab& src = *slabs_[s];
    const std::uint64_t src_slices = src.offsets[kSlabVectors];
    std::uint64_t kept_slices = 0;
    for (std::size_t k = cursor; k < next; ++k) {
      const std::uint32_t lv = LocalOf(keep[k]);
      kept_slices += src.offsets[lv + 1] - src.offsets[lv];
    }
    if (kept_slices == src_slices) {
      out.slabs_.push_back(slabs_[s]);  // everything kept: share, zero copy
    } else if (kept_slices == 0) {
      if (empty == nullptr) empty = MakeEmptySlab();
      out.slabs_.push_back(empty);
    } else {
      auto slab = MakeEmptySlab();
      slab->indices.reserve(kept_slices);
      slab->words.reserve(kept_slices * words_per_slice_);
      std::size_t k = cursor;
      std::uint64_t written = 0;
      for (std::uint32_t lv = 0; lv < kSlabVectors; ++lv) {
        if (k < next && keep[k] == base_v + lv) {
          const auto b = static_cast<std::ptrdiff_t>(src.offsets[lv]);
          const auto e = static_cast<std::ptrdiff_t>(src.offsets[lv + 1]);
          slab->indices.insert(slab->indices.end(), src.indices.begin() + b,
                               src.indices.begin() + e);
          slab->words.insert(
              slab->words.end(),
              src.words.begin() + b * static_cast<std::ptrdiff_t>(
                                          words_per_slice_),
              src.words.begin() + e * static_cast<std::ptrdiff_t>(
                                          words_per_slice_));
          written += static_cast<std::uint64_t>(e - b);
          ++k;
        }
        slab->offsets[lv + 1] = written;
      }
      out.slabs_.push_back(std::move(slab));
    }
    out.slab_base_[s + 1] =
        out.slab_base_[s] + out.slabs_.back()->indices.size();
    cursor = next;
  }
  return out;
}

std::uint64_t SlicedStore::HeapBytes() const noexcept {
  std::uint64_t bytes =
      slabs_.capacity() * sizeof(std::shared_ptr<Slab>) +
      slab_base_.capacity() * sizeof(std::uint64_t);
  for (const std::shared_ptr<Slab>& slab : slabs_) {
    bytes += sizeof(Slab) +
             slab->offsets.capacity() * sizeof(std::uint64_t) +
             slab->indices.capacity() * sizeof(std::uint32_t) +
             slab->words.capacity() * sizeof(std::uint64_t);
  }
  return bytes;
}

}  // namespace tcim::bit
