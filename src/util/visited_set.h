// udring/util/visited_set.h
//
// LockFreeVisitedSet: mc::check's one visited store. It is a lock-free,
// open-addressing hash set of 64-bit keys with insert-if-absent ("claim")
// semantics: walkers claim configuration digests, and exactly one caller
// wins each key — the winner expands the state, every loser skips it.
// While one thread drives a walk, that thread owns the set and grows it
// between inserts; while several workers race on it, its capacity is fixed.
//
// ## Protocol
//
// The table is a power-of-two array of std::atomic<uint64_t> slots, value 0
// meaning empty. insert(key) linearly probes from splitmix64(key):
//
//   1. load the slot (acquire). If it holds `key`, the key is Present.
//   2. If the slot is empty, try CAS(0 -> key, acq_rel). Success means this
//      caller Claimed the key. On failure, re-examine the value the CAS
//      returned: if it is `key`, a racing caller claimed it first (Present);
//      otherwise a different key collided into the slot — continue probing.
//   3. If the slot holds a different key, continue to the next slot.
//
// The load-bearing rule is that a prober may never *skip* an empty slot
// without CASing it: if thread A claims key X at slot i while thread B
// (also inserting X) reads slot i as still empty, B's CAS at i fails and
// returns X, converting B's insert into a Present hit. Skipping on a plain
// load instead would let B claim X again at a later slot — two winners, and
// mc would expand the state twice. tools/litmus_tests/ pins this protocol
// and its memory orderings in herd7 form; tests/test_visited_set.cpp hammers
// it from real threads (the TSan CI job runs that test, test_mc's sharded
// walks and the mc bench against this set).
//
// ## Orderings
//
// Membership alone needs only the CAS's read-modify-write atomicity (per-slot
// total order). The acquire/release pair is the contract for extensions that
// publish a payload next to the key (e.g. a per-configuration cost summary):
// a writer must release-store the payload before the key CAS publishes it,
// and a reader that observed the key via an acquire load may then read the
// payload. Keeping acq_rel now means such an extension cannot silently
// weaken the protocol.
//
// ## Capacity and growth
//
// grow() rehashes every key into twice the slots and reserve() into at least
// a requested slot count. Both are single-owner operations: no insert may
// run concurrently with them (mc grows the set only while one thread drives
// the walk, and reserves before it starts its workers). Lock-free growth
// under racing inserts is deliberately out of scope.
//
// When the table is nearly full or a probe run exceeds its bound, insert
// returns Full. A single owner answers that by growing and inserting again;
// a multi-worker mc walk treats it exactly like budget exhaustion
// (complete = false), so an undersized table degrades a verdict to
// "budget-exhausted", never to a wrong "verified".
//
// The 7/8-of-capacity fill limit is approximate, not strict: the gate reads
// size_ before the claiming CAS, so N threads racing at the boundary can all
// pass it and claim up to N-1 keys past the limit. The overshoot is bounded
// by the thread count, and the 1/8 headroom (plus the probe-run bound) keeps
// the table below physical capacity regardless, so correctness — exactly one
// Claimed per key, Present after Claimed — is unaffected. Consequently,
// near the limit WHICH insert first observes Full (via the gate or a
// clustered probe run) depends on the racing claim order; callers that need
// a deterministic complete/incomplete boundary must size the table so the
// key population fits comfortably under the limit (see mc/model_check.h).
//
// A capacity whose power-of-two slot array would overflow std::size_t, in
// slots or in bytes, is rejected with std::invalid_argument before anything
// is allocated.
//
// Key 0 is remapped to a fixed odd constant so 0 can serve as the empty
// sentinel — one more 2^-64 collision on top of the digest's own, the same
// accepted risk as every digest-keyed map in this codebase.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace udring {

class LockFreeVisitedSet {
 public:
  enum class Insert {
    Claimed,  ///< key was absent; this caller inserted it (exactly one winner)
    Present,  ///< key was already in the set
    Full,     ///< table too full to decide; caller must stop or grow, not assume
  };

  /// Capacity is rounded up to a power of two, minimum 64 slots.
  explicit LockFreeVisitedSet(std::size_t min_capacity);

  LockFreeVisitedSet(const LockFreeVisitedSet&) = delete;
  LockFreeVisitedSet& operator=(const LockFreeVisitedSet&) = delete;

  /// The slot count a set built for `min_capacity` gets: the next power of
  /// two, at least 64. Throws std::invalid_argument naming the value when
  /// that array would overflow std::size_t in slots or in bytes.
  [[nodiscard]] static std::size_t slot_count(std::size_t min_capacity);

  /// Thread-safe insert-if-absent; see the protocol above. Exactly one call
  /// per distinct key (across all threads, for the set's lifetime) returns
  /// Claimed, unless the table fills up first.
  [[nodiscard]] Insert insert(std::uint64_t key) noexcept;

  /// Single-owner: rehashes every key into twice the slots.
  void grow();
  /// Single-owner: rehashes into slot_count(min_capacity) slots when that is
  /// more than the set has.
  void reserve(std::size_t min_capacity);

  /// Number of keys claimed so far. Exact once all inserting threads have
  /// been joined; a racing snapshot otherwise.
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  void rehash(std::size_t slots);

  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::size_t mask_ = 0;       // capacity - 1 (capacity is a power of two)
  std::size_t max_probe_ = 0;  // probe-run bound before reporting Full
  std::size_t fill_limit_ = 0; // claimed-key ceiling (~7/8 of capacity; racing
                               // claims may overshoot by threads-1 — header)
  std::atomic<std::size_t> size_{0};
};

}  // namespace udring
