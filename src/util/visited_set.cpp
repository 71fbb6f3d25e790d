#include "util/visited_set.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.h"

namespace udring {

namespace {

/// Stand-in for key 0 so the empty sentinel stays unambiguous.
constexpr std::uint64_t kZeroKeySurrogate = 0x9e3779b97f4a7c15ULL;

/// The largest power-of-two slot count whose byte size fits std::size_t.
constexpr std::size_t kMaxSlots = std::bit_floor(
    std::numeric_limits<std::size_t>::max() /
    sizeof(std::atomic<std::uint64_t>));

/// Home slot of a stored key. splitmix64 advances its state argument in
/// place; hash a copy, or the table would store key + golden-ratio instead
/// of key (and the state that lands exactly on 0 would masquerade as the
/// empty sentinel).
[[nodiscard]] std::size_t home_slot(std::uint64_t key, std::size_t mask) {
  std::uint64_t hash_state = key;
  return static_cast<std::size_t>(splitmix64(hash_state)) & mask;
}

}  // namespace

std::size_t LockFreeVisitedSet::slot_count(std::size_t min_capacity) {
  if (min_capacity > kMaxSlots) {
    throw std::invalid_argument(
        "visited set capacity " + std::to_string(min_capacity) +
        " is too large: its power-of-two slot array overflows std::size_t");
  }
  return std::bit_ceil(std::max<std::size_t>(min_capacity, 64));
}

LockFreeVisitedSet::LockFreeVisitedSet(std::size_t min_capacity) {
  rehash(slot_count(min_capacity));
}

void LockFreeVisitedSet::grow() { rehash(slot_count(capacity() * 2)); }

void LockFreeVisitedSet::reserve(std::size_t min_capacity) {
  const std::size_t slots = slot_count(min_capacity);
  if (slots > capacity()) rehash(slots);
}

void LockFreeVisitedSet::rehash(std::size_t slots) {
  std::unique_ptr<std::atomic<std::uint64_t>[]> old = std::move(slots_);
  const std::size_t old_capacity = old ? capacity() : 0;
  slots_ = std::make_unique<std::atomic<std::uint64_t>[]>(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    slots_[i].store(0, std::memory_order_relaxed);
  }
  mask_ = slots - 1;
  // A probe run this long means heavy clustering near the fill limit; giving
  // up keeps insert O(1) and only ever degrades toward Full, which callers
  // must treat as "stop" or "grow", never as "absent".
  max_probe_ = std::min<std::size_t>(slots, 256);
  fill_limit_ = slots - slots / 8;
  // Stored keys are already remapped off 0 and distinct, and the new array
  // has more slots than there are keys, so each lands at the first empty
  // slot of its run.
  for (std::size_t i = 0; i < old_capacity; ++i) {
    const std::uint64_t key = old[i].load(std::memory_order_relaxed);
    if (key == 0) continue;
    std::size_t index = home_slot(key, mask_);
    while (slots_[index].load(std::memory_order_relaxed) != 0) {
      index = (index + 1) & mask_;
    }
    slots_[index].store(key, std::memory_order_relaxed);
  }
}

LockFreeVisitedSet::Insert LockFreeVisitedSet::insert(
    std::uint64_t key) noexcept {
  if (key == 0) key = kZeroKeySurrogate;
  std::size_t index = home_slot(key, mask_);
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

}  // namespace udring
