// udring/util/visited_set.h
//
// The two visited-state stores of mc::check: VisitedMaskTable, the serial
// walk's {digest, sleep mask} table (last in this file), and
// LockFreeVisitedSet, the shared-visited mode's claim set.
//
// LockFreeVisitedSet is a lock-free, fixed-capacity, open-addressing hash
// set of 64-bit keys with insert-if-absent ("claim") semantics, built for
// mc::check's shared visited set: frontier shards race to claim
// configuration digests, and exactly one shard wins each key — the winner
// expands the state, every loser skips it.
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
// it from real threads (the TSan CI job runs both that test and the mc
// bench against this set).
//
// ## Orderings
//
// Membership alone needs only the CAS's read-modify-write atomicity (per-slot
// total order). The acquire/release pair is the contract for extensions that
// publish a payload next to the key (e.g. sleep masks beside digests): a
// writer must release-store the payload before the key CAS publishes it, and
// a reader that observed the key via an acquire load may then read the
// payload. Keeping acq_rel now means such an extension cannot silently
// weaken the protocol.
//
// ## Capacity
//
// Capacity is fixed at construction (lock-free growth is deliberately out of
// scope). When the table is nearly full or a probe run exceeds its bound,
// insert returns Full; mc treats that exactly like budget exhaustion
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
// Key 0 is remapped to a fixed odd constant so 0 can serve as the empty
// sentinel — one more 2^-64 collision on top of the digest's own, the same
// accepted risk as every digest-keyed map in this codebase.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace udring {

class LockFreeVisitedSet {
 public:
  enum class Insert {
    Claimed,  ///< key was absent; this caller inserted it (exactly one winner)
    Present,  ///< key was already in the set
    Full,     ///< table too full to decide; caller must stop, not assume
  };

  /// Capacity is rounded up to a power of two, minimum 64 slots.
  explicit LockFreeVisitedSet(std::size_t min_capacity);

  LockFreeVisitedSet(const LockFreeVisitedSet&) = delete;
  LockFreeVisitedSet& operator=(const LockFreeVisitedSet&) = delete;

  /// Thread-safe insert-if-absent; see the protocol above. Exactly one call
  /// per distinct key (across all threads, for the set's lifetime) returns
  /// Claimed, unless the table fills up first.
  [[nodiscard]] Insert insert(std::uint64_t key) noexcept;

  /// Number of keys claimed so far. Exact once all inserting threads have
  /// been joined; a racing snapshot otherwise.
  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::size_t mask_ = 0;       // capacity - 1 (capacity is a power of two)
  std::size_t max_probe_ = 0;  // probe-run bound before reporting Full
  std::size_t fill_limit_ = 0; // claimed-key ceiling (~7/8 of capacity; racing
                               // claims may overshoot by threads-1 — header)
  std::atomic<std::size_t> size_{0};
};

/// The serial visited store of mc::check's tree walks: every sleep mask a
/// configuration digest was expanded under, queried with the subset rule
/// (a configuration is covered when it was expanded before under a sleep
/// set that is a SUBSET of the current one).
///
/// ## Slot layout
///
/// One flat linear-probing array of 16-byte {digest, mask} slots; every
/// stored mask takes its own slot, so one digest's masks all sit in the
/// probe run that starts at slot `digest & (capacity - 1)` (digests are
/// splitmix outputs, so their low bits are already uniform). Digest 0 marks
/// an empty slot; masks stored under digest 0 live in a side list instead,
/// so no real digest shares the sentinel. There is no erase: a lookup walks
/// the run to its first empty slot, and a mask that is not covered either
/// overwrites one stored mask it dominates (a superset of it) in place or
/// is appended at that empty slot. The table doubles once stored masks
/// would pass 3/4 of the slots; while it rehashes, the old and the new
/// array are both held.
///
/// ## Why dominated masks may be kept
///
/// The plain form of the rule (the reference model in
/// tests/test_visited_set.cpp) erases EVERY stored superset of a new mask;
/// this table replaces at most one and leaves the rest. That never changes an
/// answer: a kept superset M of a stored mask S covers a query Q only when
/// M ⊆ Q, and then S ⊆ M ⊆ Q, so S covers Q as well. Covered/inserted
/// answers are therefore exactly the reference's on every call
/// (tests/test_visited_set.cpp drives both with the same streams).
///
/// Copyable: mc::check hands each frontier shard a copy of the frontier
/// phase's table as its seed.
class VisitedMaskTable {
 public:
  using Mask = std::uint64_t;

  /// True when some mask stored under `digest` is a subset of `mask` (the
  /// earlier expansion explored every branch this visit would). Otherwise
  /// stores `mask` under `digest` and returns false.
  [[nodiscard]] bool covered_or_insert(std::uint64_t digest, Mask mask);

  /// Stored masks (slots in use plus digest 0's masks).
  [[nodiscard]] std::size_t size() const noexcept {
    return used_ + zero_digest_masks_.size();
  }
  /// Slot count (a power of two; 0 before the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t digest = 0;  ///< 0 = empty (digest 0 lives in the side list)
    Mask mask = 0;
  };

  void grow();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  std::vector<Mask> zero_digest_masks_;
};

}  // namespace udring
