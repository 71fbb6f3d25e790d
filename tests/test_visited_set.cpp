// LockFreeVisitedSet (src/util/visited_set.h), mc::check's one visited
// store. The load-bearing property is claim uniqueness — for every key,
// exactly ONE insert across all racing threads returns Claimed — because mc
// counts leaf work per claimed state; a double claim would double-count
// (and double-explore) a subtree. A single owner grows the set between
// inserts, and growth must keep every answer: every earlier key stays
// Present and every new key is Claimed once, checked against a
// std::unordered_set reference at each doubling from 64 slots to 2^17.
// Capacities whose power-of-two slot array overflows std::size_t are
// rejected by name before anything is allocated.
//
// The memory-ordering side of the protocol (acquire loads, acq_rel CAS, and
// above all "never skip an empty slot without CASing it") is pinned twice
// more: as herd7 litmus tests under tools/litmus_tests/, and by the CI
// ThreadSanitizer job that runs this binary's stress tests under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "util/rng.h"
#include "util/visited_set.h"

namespace udring {
namespace {

using Insert = LockFreeVisitedSet::Insert;

// Cheap deterministic 64-bit mixer for generating distinct test keys.
[[nodiscard]] std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(VisitedSet, FirstInsertClaimsSecondSeesPresent) {
  LockFreeVisitedSet set(1024);
  EXPECT_EQ(set.insert(42), Insert::Claimed);
  EXPECT_EQ(set.insert(42), Insert::Present);
  EXPECT_EQ(set.insert(43), Insert::Claimed);
  EXPECT_EQ(set.size(), 2u);
}

TEST(VisitedSet, ZeroKeyIsALegalKey) {
  // 0 marks empty slots internally; the public contract must not leak that
  // (config digests can be anything). The implementation remaps it.
  LockFreeVisitedSet set(64);
  EXPECT_EQ(set.insert(0), Insert::Claimed);
  EXPECT_EQ(set.insert(0), Insert::Present);
  EXPECT_EQ(set.size(), 1u);
}

TEST(VisitedSet, CapacityRoundsUpToPowerOfTwo) {
  LockFreeVisitedSet set(1000);
  EXPECT_EQ(set.capacity(), 1024u);
  LockFreeVisitedSet tiny(3);
  EXPECT_EQ(tiny.capacity(), 64u);  // floor keeps probe runs meaningful
}

TEST(VisitedSet, ReportsFullInsteadOfLosingKeys) {
  // Past the fill limit every NEW key must say Full (mc downgrades to
  // budget-exhausted); already-claimed keys still answer Present.
  LockFreeVisitedSet set(64);
  std::vector<std::uint64_t> claimed;
  std::uint64_t key = 1;
  while (true) {
    const Insert outcome = set.insert(mix(key++));
    if (outcome == Insert::Full) break;
    ASSERT_EQ(outcome, Insert::Claimed);
    claimed.push_back(mix(key - 1));
    ASSERT_LT(claimed.size(), 100u) << "fill limit never triggered";
  }
  EXPECT_GE(claimed.size(), set.capacity() / 2);
  for (const std::uint64_t k : claimed) {
    EXPECT_EQ(set.insert(k), Insert::Present);
  }
}

TEST(VisitedSet, RejectsCapacitiesWhoseSlotArrayOverflows) {
  // 2^63 + 1 rounds up past the largest power of two a std::size_t holds;
  // 2^62 + 1 rounds up to 2^63 slots, whose bytes overflow. Both must fail
  // by name before allocating, not wrap to a tiny table or a bad_alloc.
  for (const std::uint64_t capacity :
       {9223372036854775809ULL, 4611686018427387905ULL}) {
    try {
      LockFreeVisitedSet set(capacity);
      ADD_FAILURE() << capacity << " was accepted with " << set.capacity()
                    << " slots";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::to_string(capacity)),
                std::string::npos)
          << error.what();
    }
    EXPECT_THROW((void)LockFreeVisitedSet::slot_count(capacity),
                 std::invalid_argument);
  }
  EXPECT_EQ(LockFreeVisitedSet::slot_count(1000), 1024u);
}

TEST(VisitedSet, ReserveGrowsButNeverShrinks) {
  LockFreeVisitedSet set(64);
  EXPECT_EQ(set.insert(5), Insert::Claimed);
  set.reserve(1000);
  EXPECT_EQ(set.capacity(), 1024u);
  set.reserve(100);
  EXPECT_EQ(set.capacity(), 1024u);
  EXPECT_EQ(set.insert(5), Insert::Present);
  EXPECT_EQ(set.size(), 1u);
}

TEST(VisitedSet, EveryGrowthStepKeepsEveryAnswer) {
  // A single owner fills the set to 3/4 of its slots, then doubles it, from
  // 64 slots up to 2^17. After every step each earlier key must still answer
  // Present and each new key must be Claimed exactly once, like the
  // std::unordered_set beside it. Key 0 (stored as its surrogate) goes in
  // first and must survive every rehash.
  LockFreeVisitedSet set(64);
  std::unordered_set<std::uint64_t> reference;
  std::vector<std::uint64_t> keys = {0};
  std::uint64_t next = 1;
  std::size_t growth_steps = 0;
  while (true) {
    while (keys.size() < set.capacity() / 4 * 3) keys.push_back(mix(next++));
    for (const std::uint64_t key : keys) {
      const bool fresh = reference.insert(key).second;
      const Insert want = fresh ? Insert::Claimed : Insert::Present;
      ASSERT_EQ(set.insert(key), want)
          << "key " << key << " at capacity " << set.capacity();
    }
    ASSERT_EQ(set.size(), reference.size());
    ASSERT_EQ(set.insert(0), Insert::Present)
        << "key 0 lost at capacity " << set.capacity();
    if (set.capacity() == (std::size_t{1} << 17)) break;
    const std::size_t before = set.capacity();
    set.grow();
    ++growth_steps;
    ASSERT_EQ(set.capacity(), 2 * before);
    ASSERT_EQ(set.size(), reference.size());
  }
  EXPECT_EQ(growth_steps, 11u);  // 64 -> 128 -> ... -> 2^17
}

TEST(VisitedSetStress, EveryKeyClaimedExactlyOnceAcrossRacingThreads) {
  // The determinism keystone. All threads hammer the SAME key sequence, so
  // every slot is contended; sum of per-thread claim counts must equal the
  // number of distinct keys exactly. Run under TSan in CI.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kKeys = 20000;
  LockFreeVisitedSet set(2 * kKeys);
  std::vector<std::size_t> claims(kThreads, 0);
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      std::size_t mine = 0;
      for (std::size_t i = 0; i < kKeys; ++i) {
        if (set.insert(mix(i)) == Insert::Claimed) ++mine;
      }
      claims[t] = mine;
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  std::size_t total = 0;
  for (const std::size_t c : claims) total += c;
  EXPECT_EQ(total, kKeys) << "a key was double-claimed or lost";
  EXPECT_EQ(set.size(), kKeys);
  // (No assertion on how claims spread across threads: on a single-core
  // runner one thread can legitimately drain the whole sequence first.)
}

TEST(VisitedSetStress, DisjointKeyRangesAllClaimTheirOwn) {
  // No contention on keys, full contention on slots (small table): probing
  // threads must never skip over a slot a racer just filled.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 4000;
  LockFreeVisitedSet set(2 * kThreads * kPerThread);
  std::vector<std::size_t> claims(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::size_t mine = 0;
      for (std::size_t i = 0; i < kPerThread; ++i) {
        if (set.insert(mix(t * kPerThread + i)) == Insert::Claimed) ++mine;
      }
      claims[t] = mine;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(claims[t], kPerThread) << "thread " << t << " lost a claim";
  }
  EXPECT_EQ(set.size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace udring
