#include "arch/slice_cache.h"

#include <algorithm>
#include <stdexcept>

namespace tcim::arch {

std::string ToString(ReplacementPolicy policy) {
  switch (policy) {
    case ReplacementPolicy::kLru:
      return "LRU";
    case ReplacementPolicy::kFifo:
      return "FIFO";
    case ReplacementPolicy::kRandom:
      return "random";
  }
  return "?";
}

SliceCache::SliceCache(std::uint64_t num_sets, std::uint32_t associativity,
                       ReplacementPolicy policy, std::uint64_t seed)
    : associativity_(associativity), policy_(policy), rng_(seed) {
  if (num_sets == 0 || associativity == 0) {
    throw std::invalid_argument(
        "SliceCache: need at least one set and one way");
  }
  sets_.resize(num_sets);
}

void SliceCache::PushFront(Set& set, std::uint32_t way) {
  set.prev[way] = kNoWay;
  set.next[way] = set.head;
  (set.head == kNoWay ? set.tail : set.prev[set.head]) = way;
  set.head = way;
}

void SliceCache::MoveToFront(Set& set, std::uint32_t way) {
  if (set.head == way) return;
  const std::uint32_t p = set.prev[way];  // not kNoWay: way is not the head
  const std::uint32_t n = set.next[way];
  set.next[p] = n;
  (n == kNoWay ? set.tail : set.prev[n]) = p;
  PushFront(set, way);
}

std::uint32_t SliceCache::PickVictim(Set& set) {
  switch (policy_) {
    case ReplacementPolicy::kLru:
      return set.tail;
    case ReplacementPolicy::kFifo: {
      const std::uint32_t victim = set.fifo_next;
      set.fifo_next = victim + 1 == associativity_ ? 0 : victim + 1;
      return victim;
    }
    case ReplacementPolicy::kRandom:
      return static_cast<std::uint32_t>(rng_.UniformBelow(associativity_));
  }
  return 0;
}

AccessResult SliceCache::AccessImpl(std::uint64_t set_id, std::uint64_t tag,
                                    bool count_stats) {
  if (set_id >= sets_.size()) {
    throw std::out_of_range("SliceCache::Access: set out of range");
  }
  Set& set = sets_[set_id];
  const bool lru = policy_ == ReplacementPolicy::kLru;
  if (count_stats) ++stats_.lookups;

  const auto found = std::find(set.tags.begin(), set.tags.end(), tag);
  if (found != set.tags.end()) {
    const auto w = static_cast<std::uint32_t>(found - set.tags.begin());
    if (lru) MoveToFront(set, w);
    if (count_stats) ++stats_.hits;
    return {.hit = true, .way = w, .evicted = false, .evicted_tag = 0};
  }

  if (count_stats) {
    ++stats_.misses;
    ++stats_.inserts;
  }
  // Cold fill: the next free way.
  const auto resident = static_cast<std::uint32_t>(set.tags.size());
  if (resident < associativity_) {
    set.tags.push_back(tag);
    if (lru) {
      set.prev.push_back(kNoWay);
      set.next.push_back(kNoWay);
      PushFront(set, resident);
    }
    return {.hit = false, .way = resident, .evicted = false, .evicted_tag = 0};
  }
  // Full set: evict per policy (the paper's "data exchange").
  const std::uint32_t victim = PickVictim(set);
  const std::uint64_t old_tag = set.tags[victim];
  set.tags[victim] = tag;
  if (lru) MoveToFront(set, victim);
  if (count_stats) ++stats_.exchanges;
  return {.hit = false, .way = victim, .evicted = true,
          .evicted_tag = old_tag};
}

AccessResult SliceCache::Access(std::uint64_t set_id, std::uint64_t tag) {
  return AccessImpl(set_id, tag, /*count_stats=*/true);
}

AccessResult SliceCache::Install(std::uint64_t set_id, std::uint64_t tag) {
  return AccessImpl(set_id, tag, /*count_stats=*/false);
}

bool SliceCache::Contains(std::uint64_t set_id, std::uint64_t tag) const {
  if (set_id >= sets_.size()) {
    throw std::out_of_range("SliceCache::Contains: set out of range");
  }
  const std::vector<std::uint64_t>& tags = sets_[set_id].tags;
  return std::find(tags.begin(), tags.end(), tag) != tags.end();
}

std::uint32_t SliceCache::Occupancy(std::uint64_t set_id) const {
  if (set_id >= sets_.size()) {
    throw std::out_of_range("SliceCache::Occupancy: set out of range");
  }
  return static_cast<std::uint32_t>(sets_[set_id].tags.size());
}

}  // namespace tcim::arch
