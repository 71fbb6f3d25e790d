#include "util/visited_set.h"

#include <algorithm>
#include <bit>

#include "util/rng.h"

namespace udring {

namespace {

/// Stand-in for key 0 so the empty sentinel stays unambiguous.
constexpr std::uint64_t kZeroKeySurrogate = 0x9e3779b97f4a7c15ULL;

}  // namespace

LockFreeVisitedSet::LockFreeVisitedSet(std::size_t min_capacity) {
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(min_capacity, 64));
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(capacity);
  for (std::size_t i = 0; i < capacity; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  mask_ = capacity - 1;
  // A probe run this long means heavy clustering near the fill limit; giving
  // up keeps insert O(1) and only ever degrades toward Full, which callers
  // must treat as "stop", never as "absent".
  max_probe_ = std::min<std::size_t>(capacity, 256);
  fill_limit_ = capacity - capacity / 8;
}

LockFreeVisitedSet::Insert LockFreeVisitedSet::insert(
    std::uint64_t key) noexcept {
  if (key == 0) key = kZeroKeySurrogate;
  // splitmix64 advances its state argument in place; hash a copy, or the
  // table would store key + golden-ratio instead of key (and the state that
  // lands exactly on 0 would masquerade as the empty sentinel).
  std::uint64_t hash_state = key;
  std::size_t index = static_cast<std::size_t>(splitmix64(hash_state)) & mask_;
  for (std::size_t probe = 0; probe < max_probe_; ++probe) {
    std::atomic<std::uint64_t>& slot = slots_[index];
    std::uint64_t seen = slot.load(std::memory_order_acquire);
    if (seen == key) return Insert::Present;
    if (seen == 0) {
      // The fill limit gates CLAIMING only — keys already in the table must
      // keep answering Present after the table refuses new ones. The gate is
      // check-then-CAS, so racing claimers can overshoot the limit by up to
      // threads-1 keys; the header's headroom argument covers why that is
      // harmless (and why the limit is documented as approximate).
      if (size_.load(std::memory_order_relaxed) >= fill_limit_) {
        return Insert::Full;
      }
      // Never skip an empty slot on a plain load: CAS it, and let a failed
      // CAS tell us what landed there first (see the header's protocol).
      std::uint64_t expected = 0;
      if (slot.compare_exchange_strong(expected, key,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        size_.fetch_add(1, std::memory_order_relaxed);
        return Insert::Claimed;
      }
      if (expected == key) return Insert::Present;
      // A different key raced into the slot; fall through and keep probing.
    }
    index = (index + 1) & mask_;
  }
  return Insert::Full;
}

bool VisitedMaskTable::covered_or_insert(std::uint64_t digest, Mask mask) {
  if (digest == 0) {
    Mask* dominated = nullptr;
    for (Mask& stored : zero_digest_masks_) {
      if ((stored & mask) == stored) return true;  // stored ⊆ mask: covered
      if (dominated == nullptr && (mask & stored) == mask) dominated = &stored;
    }
    if (dominated != nullptr) {
      *dominated = mask;
    } else {
      zero_digest_masks_.push_back(mask);
    }
    return false;
  }
  // Growing before the probe keeps at least a quarter of the slots empty,
  // so every probe run ends.
  if ((used_ + 1) * 4 > slots_.size() * 3) grow();
  const std::size_t index_mask = slots_.size() - 1;
  std::size_t index = static_cast<std::size_t>(digest) & index_mask;
  Slot* dominated = nullptr;
  for (;; index = (index + 1) & index_mask) {
    Slot& slot = slots_[index];
    if (slot.digest == 0) break;
    if (slot.digest != digest) continue;
    if ((slot.mask & mask) == slot.mask) return true;  // stored ⊆ mask: covered
    // The new mask will be explored with more branches awake than this
    // stored superset; overwrite one such slot (header: the rest may stay).
    if (dominated == nullptr && (mask & slot.mask) == mask) dominated = &slot;
  }
  if (dominated != nullptr) {
    dominated->mask = mask;
  } else {
    slots_[index] = {digest, mask};
    ++used_;
  }
  return false;
}

void VisitedMaskTable::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(std::max<std::size_t>(64, old.size() * 2), Slot{});
  const std::size_t index_mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.digest == 0) continue;
    std::size_t index = static_cast<std::size_t>(slot.digest) & index_mask;
    while (slots_[index].digest != 0) index = (index + 1) & index_mask;
    slots_[index] = slot;
  }
}

}  // namespace udring
