// Column-slice cache implementing the paper's data reuse & exchange
// policy (§IV-A, Algorithm 1).
//
// The computational array is managed as a set-associative cache of
// column slices: slice index k maps to a fixed set (a (subarray,
// column-group) pair — the multi-row-activation constraint makes this
// mapping *mandatory*, see arch/mapper.h), and the rows of that set
// are the ways. On a full set the paper replaces the least recently
// used column ("We choose the least recently used (LRU) column for
// replacement, and more optimized replacement strategy could be
// possible" — the alternative policies exist for exactly that
// ablation).
//
// Taxonomy (Fig. 5): a lookup is a *hit* if the slice is resident; a
// *miss* otherwise; a miss that must evict a resident slice to make
// room is additionally an *exchange*.
//
// Cost: a cold fill takes the lowest free way and nothing ever
// invalidates a way, so a set's residents are always a prefix of its
// ways. A lookup scans only that prefix; the LRU victim is the tail of
// a recency list and the FIFO victim (the oldest insert) a round-robin
// pointer, both O(1).
//
// Layer: §7 arch — see docs/ARCHITECTURE.md. Units: CacheStats fields
// are dimensionless counts; HitRate() lies in [0, 1].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace tcim::arch {

enum class ReplacementPolicy : std::uint8_t {
  kLru,     ///< paper default
  kFifo,    ///< insertion order
  kRandom,  ///< uniform victim (seeded, deterministic)
};

[[nodiscard]] std::string ToString(ReplacementPolicy policy);

/// Statistics of one run (also the Fig. 5 data source).
struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;     ///< = lookups - hits
  std::uint64_t exchanges = 0;  ///< misses that evicted a resident slice
  std::uint64_t inserts = 0;    ///< = misses (every miss loads the slice)

  [[nodiscard]] double HitRate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
  [[nodiscard]] double ExchangeRate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(exchanges) /
                              static_cast<double>(lookups);
  }
  /// Cold-miss fraction (miss but no eviction needed).
  [[nodiscard]] double ColdMissRate() const noexcept {
    return lookups == 0 ? 0.0
                        : static_cast<double>(misses - exchanges) /
                              static_cast<double>(lookups);
  }
};

/// Result of one cache access.
struct AccessResult {
  bool hit = false;
  std::uint32_t way = 0;       ///< way now holding the slice
  bool evicted = false;        ///< an older slice was displaced
  std::uint64_t evicted_tag = 0;
};

/// Set-associative cache of slice tags. Pure bookkeeping — data
/// movement is the controller's job; this class only decides placement
/// and victims.
class SliceCache {
 public:
  /// num_sets sets of `associativity` ways each.
  SliceCache(std::uint64_t num_sets, std::uint32_t associativity,
             ReplacementPolicy policy, std::uint64_t seed = 1);

  [[nodiscard]] std::uint64_t num_sets() const noexcept {
    return sets_.size();
  }
  [[nodiscard]] std::uint32_t associativity() const noexcept {
    return associativity_;
  }
  [[nodiscard]] std::uint64_t capacity_slices() const noexcept {
    return num_sets() * associativity_;
  }
  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] ReplacementPolicy policy() const noexcept { return policy_; }

  /// Looks up `tag` in `set`; on miss, allocates a way (evicting per
  /// policy when full). The returned way is where the slice data must
  /// reside after the call.
  AccessResult Access(std::uint64_t set, std::uint64_t tag);

  /// Same placement/eviction as Access but WITHOUT touching the run
  /// statistics — the hub-replica warm-up path of the 2D runtime
  /// (load-time work, so it must not count as lookups/misses in the
  /// Fig. 5 accounting). An installed slice moves to the front of the
  /// LRU recency list like any access, so warmed slices age normally
  /// against later fills.
  AccessResult Install(std::uint64_t set, std::uint64_t tag);

  /// Lookup without allocation (tests/diagnostics).
  [[nodiscard]] bool Contains(std::uint64_t set, std::uint64_t tag) const;
  /// Number of resident slices in one set.
  [[nodiscard]] std::uint32_t Occupancy(std::uint64_t set) const;

  void ResetStats() noexcept { stats_ = {}; }

 private:
  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

  /// One set's residents: ways [0, tags.size()) by the fill-order
  /// invariant (file comment), so the arrays grow with residency
  /// instead of being sized by the associativity.
  struct Set {
    std::vector<std::uint64_t> tags;  // tag of way w at tags[w]
    /// LRU recency list over the resident ways (kLru only): prev/next
    /// way of each way, head = most recently used, tail = victim.
    std::vector<std::uint32_t> prev;
    std::vector<std::uint32_t> next;
    std::uint32_t head = kNoWay;
    std::uint32_t tail = kNoWay;
    /// FIFO victim (kFifo only): with the index-order fill the oldest
    /// insert of a full set is a round-robin pointer.
    std::uint32_t fifo_next = 0;
  };

  [[nodiscard]] std::uint32_t PickVictim(Set& set);
  /// LRU list edits: link a freshly filled way in as most recently
  /// used; make a resident way the most recently used.
  static void PushFront(Set& set, std::uint32_t way);
  static void MoveToFront(Set& set, std::uint32_t way);
  AccessResult AccessImpl(std::uint64_t set, std::uint64_t tag,
                          bool count_stats);

  std::uint32_t associativity_;
  ReplacementPolicy policy_;
  std::vector<Set> sets_;
  CacheStats stats_;
  util::Xoshiro256 rng_;
};

}  // namespace tcim::arch
