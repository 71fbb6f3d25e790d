// The two visited stores of src/util/visited_set.h.
//
// VisitedMaskTable, the serial walk's {digest, sleep mask} table, is driven
// side by side with a reference model — a map of mask lists that applies
// the subset rule and erases every dominated mask — and must give the same
// covered/inserted answer on every call: keys recurring under varied masks,
// keys sharing one probe run, digest 0, every growth step, and a copied
// table continuing like its source (mc::check seeds each frontier shard
// with such a copy).
//
// The lock-free shared visited set (LockFreeVisitedSet): the structure
// mc::check's shared-visited mode rests its determinism argument on. The
// load-bearing property is claim uniqueness — for every key, exactly ONE
// insert across all racing threads returns Claimed — because mc counts leaf
// work per claimed state; a double claim would double-count (and
// double-explore) a subtree.
//
// The memory-ordering side of the protocol (acquire loads, acq_rel CAS, and
// above all "never skip an empty slot without CASing it") is pinned twice
// more: as herd7 litmus tests under tools/litmus_tests/, and by the CI
// ThreadSanitizer job that runs this binary's stress tests under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
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

// ---- VisitedMaskTable -------------------------------------------------------

using Mask = VisitedMaskTable::Mask;

/// The reference model: every mask a digest was expanded under, queried
/// with the subset rule, with every dominated mask erased on insert.
class ReferenceMaskMap {
 public:
  bool covered_or_insert(std::uint64_t digest, Mask mask) {
    std::vector<Mask>& masks = map_[digest];
    for (const Mask stored : masks) {
      if ((stored & mask) == stored) return true;
    }
    std::erase_if(masks,
                  [mask](Mask stored) { return (mask & stored) == mask; });
    masks.push_back(mask);
    return false;
  }

 private:
  std::unordered_map<std::uint64_t, std::vector<Mask>> map_;
};

/// Applies one operation to both stores; true when their answers agree.
[[nodiscard]] bool same_answer(VisitedMaskTable& table, ReferenceMaskMap& model,
                               std::uint64_t digest, Mask mask) {
  return table.covered_or_insert(digest, mask) ==
         model.covered_or_insert(digest, mask);
}

/// A sleep mask over `bits` agents; few bits make subset relations (and so
/// covered answers and dominated overwrites) frequent.
[[nodiscard]] Mask draw_mask(Rng& rng, std::size_t bits) {
  return bits >= 64 ? rng() : rng() & ((Mask{1} << bits) - 1);
}

/// Runs `ops` operations drawn by `draw_digest` through both stores,
/// failing on the first disagreement. Returns how many answered covered.
template <class DrawDigest>
std::size_t run_stream(VisitedMaskTable& table, ReferenceMaskMap& model,
                       Rng& rng, std::size_t ops, std::size_t mask_bits,
                       DrawDigest draw_digest) {
  std::size_t covered = 0;
  for (std::size_t op = 0; op < ops; ++op) {
    const std::uint64_t digest = draw_digest(rng);
    const Mask mask = draw_mask(rng, mask_bits);
    const bool answer = table.covered_or_insert(digest, mask);
    if (answer != model.covered_or_insert(digest, mask)) {
      ADD_FAILURE() << "op " << op << ": digest " << digest << " mask " << mask
                    << ", table says " << (answer ? "covered" : "inserted");
      return covered;
    }
    if (answer) ++covered;
  }
  return covered;
}

TEST(VisitedMaskTable, SubsetRuleOnASingleDigest) {
  VisitedMaskTable table;
  EXPECT_FALSE(table.covered_or_insert(7, 0b0110));  // new
  EXPECT_TRUE(table.covered_or_insert(7, 0b0110));   // same mask
  EXPECT_TRUE(table.covered_or_insert(7, 0b1110));   // superset: covered
  EXPECT_FALSE(table.covered_or_insert(7, 0b0011));  // incomparable: stored
  EXPECT_EQ(table.size(), 2u);
  // 0b0010 dominates both stored masks: it overwrites one in place and
  // keeps the other, which can no longer change an answer.
  EXPECT_FALSE(table.covered_or_insert(7, 0b0010));
  EXPECT_EQ(table.size(), 2u);
  EXPECT_TRUE(table.covered_or_insert(7, 0b0010));
  EXPECT_FALSE(table.covered_or_insert(7, 0b0001));
  EXPECT_FALSE(table.covered_or_insert(8, 0b0110));  // another digest
}

TEST(VisitedMaskTable, DigestZeroIsAnOrdinaryKey) {
  // 0 marks empty slots; digest 0 must neither look stored before it is
  // nor collide with the sentinel once it is, under any mask — mask 0
  // included.
  VisitedMaskTable table;
  EXPECT_FALSE(table.covered_or_insert(0, 0b100));
  EXPECT_TRUE(table.covered_or_insert(0, 0b101));
  EXPECT_FALSE(table.covered_or_insert(0, 0b010));
  EXPECT_FALSE(table.covered_or_insert(0, 0));
  EXPECT_TRUE(table.covered_or_insert(0, 0));
  EXPECT_EQ(table.size(), 2u);  // 0 overwrote one dominated mask, kept one
  EXPECT_FALSE(table.covered_or_insert(1, 0)) << "digest 0 leaked into 1";
  EXPECT_FALSE(table.covered_or_insert(std::uint64_t{1} << 40, 0))
      << "digest 0 leaked into a key with equal low bits";

  ReferenceMaskMap model;
  VisitedMaskTable fresh;
  Rng rng(3);
  run_stream(fresh, model, rng, 3000, 6, [](Rng& r) {
    return r.index(3) == 0 ? std::uint64_t{0} : r.index(4) + 1;
  });
}

TEST(VisitedMaskTable, RecurringKeysUnderVariedMasksMatchTheReference) {
  // A small digest pool: configurations recur under many sleep masks, so
  // covered answers, dominated overwrites and kept supersets all occur.
  for (const std::size_t mask_bits : {1u, 4u, 8u, 64u}) {
    VisitedMaskTable table;
    ReferenceMaskMap model;
    Rng rng(11 + mask_bits);
    std::vector<std::uint64_t> pool(37);
    for (std::uint64_t& digest : pool) digest = rng();
    pool[5] = 0;
    const std::size_t covered =
        run_stream(table, model, rng, 20000, mask_bits,
                   [&pool](Rng& r) { return pool[r.index(pool.size())]; });
    if (mask_bits <= 8) {
      EXPECT_GT(covered, 1000u) << mask_bits << " bits: stream never covered";
    }
  }
}

TEST(VisitedMaskTable, KeysSharingOneProbeRunMatchTheReference) {
  // Equal low 32 bits: every key hashes to the same home slot at every
  // capacity, so masks of different digests interleave in one probe run
  // that spans the table's growth steps.
  VisitedMaskTable table;
  ReferenceMaskMap model;
  Rng rng(23);
  run_stream(table, model, rng, 20000, 5, [](Rng& r) {
    return (static_cast<std::uint64_t>(r.index(300) + 1) << 32) | 0x2a;
  });
  EXPECT_GE(table.capacity(), 512u);
}

TEST(VisitedMaskTable, EveryGrowthStepKeepsEveryAnswer) {
  // Distinct digests one after another: the table doubles from 64 slots up
  // to 2^17. At each step, every stored digest must still be found (a
  // superset query is covered) and a fresh digest must still miss.
  VisitedMaskTable table;
  ReferenceMaskMap model;
  Rng rng(31);
  std::vector<std::uint64_t> stored;
  std::size_t last_capacity = 0;
  std::size_t growth_steps = 0;
  while (table.capacity() < (std::size_t{1} << 17)) {
    const std::uint64_t digest = rng();
    const Mask mask = draw_mask(rng, 3);
    ASSERT_TRUE(same_answer(table, model, digest, mask));
    stored.push_back(digest);
    if (table.capacity() != last_capacity) {
      ++growth_steps;
      last_capacity = table.capacity();
      for (const std::uint64_t old : stored) {
        ASSERT_TRUE(same_answer(table, model, old, ~Mask{0}))
            << "lost digest after growing to " << table.capacity();
      }
      ASSERT_TRUE(same_answer(table, model, rng(), 0));
    }
  }
  EXPECT_EQ(growth_steps, 12u);  // 64, 128, …, 2^17
  EXPECT_LE(table.size() * 4, table.capacity() * 3);
}

TEST(VisitedMaskTable, CopyContinuesIdenticallyAndIndependently) {
  // mc::check hands each frontier shard a copy of the frontier phase's
  // table: the copy must answer every later call exactly like a copy of the
  // reference, and inserts into either side must not reach the other.
  VisitedMaskTable table;
  ReferenceMaskMap model;
  Rng rng(41);
  std::vector<std::uint64_t> pool(500);
  for (std::uint64_t& digest : pool) digest = rng();
  pool[7] = 0;
  const auto from_pool = [&pool](Rng& r) { return pool[r.index(pool.size())]; };
  run_stream(table, model, rng, 3000, 5, from_pool);

  VisitedMaskTable copy = table;
  ReferenceMaskMap model_copy = model;
  Rng rng_copy = rng;
  run_stream(copy, model_copy, rng_copy, 6000, 5, from_pool);
  // The source continues along a different stream; it never saw the
  // copy's inserts.
  Rng other(43);
  run_stream(table, model, other, 6000, 5, from_pool);
}

}  // namespace
}  // namespace udring
