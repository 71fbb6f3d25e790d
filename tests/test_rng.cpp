// Unit tests for util/rng.h: determinism and distribution sanity of the
// seeded generator every randomized component depends on.

#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

namespace udring {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3}, std::uint64_t{10},
        std::uint64_t{1000}, std::uint64_t{1} << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowMatchesTheTwoDivisionReference) {
  // below() computes the rejection limit only for draws among the top
  // `bound` values. The reference computes it before every draw; values and
  // raw draw counts must agree. Bound 2^63 + 1 rejects about half its draws.
  const auto reference = [](Rng& rng, std::uint64_t bound,
                            std::size_t& raw_draws) {
    const std::uint64_t limit =
        ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    std::uint64_t draw = rng();
    ++raw_draws;
    while (draw >= limit) {
      draw = rng();
      ++raw_draws;
    }
    return draw % bound;
  };
  constexpr std::size_t kDraws = 20000;
  for (const std::uint64_t bound :
       {std::uint64_t{3}, std::uint64_t{6}, std::uint64_t{255},
        (std::uint64_t{1} << 32) + 1, (std::uint64_t{1} << 63) + 1,
        ~std::uint64_t{0}}) {
    Rng fast(bound);
    Rng slow(bound);
    std::size_t raw_draws = 0;
    for (std::size_t i = 0; i < kDraws; ++i) {
      ASSERT_EQ(fast.below(bound), reference(slow, bound, raw_draws))
          << "bound " << bound << " draw " << i;
    }
    EXPECT_EQ(fast(), slow()) << "bound " << bound << ": raw draw counts";
    if (bound == (std::uint64_t{1} << 63) + 1) {
      EXPECT_GT(raw_draws, kDraws * 3 / 2) << "rejections exercised";
    }
  }
}

TEST(Rng, BelowSequenceIsPinned) {
  // below()'s values are part of the frozen stream contract: every
  // schedule, home draw and shuffle reads them. Read from the two-division
  // implementation.
  Rng rng(2016);
  const std::uint64_t bounds[] = {3,
                                  6,
                                  255,
                                  (std::uint64_t{1} << 32) + 1,
                                  (std::uint64_t{1} << 63) + 1,
                                  ~std::uint64_t{0},
                                  64};
  std::vector<std::uint64_t> got;
  for (int round = 0; round < 3; ++round) {
    for (const std::uint64_t bound : bounds) got.push_back(rng.below(bound));
  }
  const std::vector<std::uint64_t> want = {
      1ULL, 4ULL, 39ULL, 2664818863ULL, 8248829717969960478ULL,
      6101542042773751279ULL, 43ULL,
      1ULL, 2ULL, 180ULL, 1536672418ULL, 7185268415164064178ULL,
      2172156633307419994ULL, 23ULL,
      0ULL, 3ULL, 158ULL, 1730614001ULL, 2232392437230214727ULL,
      2705301833864718329ULL, 35ULL};
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng(), 7714925207750925670ULL) << "raw draws consumed";
}

TEST(Rng, BetweenIsInclusive) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u) << "all four values should appear in 2000 draws";
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(123);
  constexpr std::uint64_t kBuckets = 16;
  constexpr int kDraws = 32000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) {
    ++counts[rng.below(kBuckets)];
  }
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (const int count : counts) {
    EXPECT_NEAR(count, expected, expected * 0.15);
  }
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(99);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(77);
  std::vector<int> items(100);
  for (int i = 0; i < 100; ++i) items[static_cast<std::size_t>(i)] = i;
  auto shuffled = items;
  rng.shuffle(shuffled);
  EXPECT_FALSE(std::equal(items.begin(), items.end(), shuffled.begin()))
      << "a 100-element shuffle should essentially never be the identity";
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(Rng, SubstreamIgnoresDrawHistory) {
  // The campaign engine's reproducibility contract: substream(i) depends
  // only on the construction seed, never on how much the parent has drawn.
  Rng fresh(42);
  Rng drained(42);
  for (int i = 0; i < 1000; ++i) (void)drained();
  Rng a = fresh.substream(7);
  Rng b = drained.substream(7);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(a(), b());
  }
}

TEST(Rng, SubstreamsAreDistinctAndDifferFromParent) {
  Rng parent(42);
  Rng s0 = parent.substream(0);
  Rng s1 = parent.substream(1);
  Rng s2 = parent.substream(0xffffffffffffffffULL);
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t p = parent();
    const std::uint64_t v0 = s0(), v1 = s1(), v2 = s2();
    if (v0 == p || v1 == p || v0 == v1 || v0 == v2 || v1 == v2) ++collisions;
  }
  EXPECT_LT(collisions, 3);
}

TEST(Rng, SubstreamAdjacentIndicesDecorrelated) {
  // Counter-style indices (0, 1, 2, …) are the common campaign usage; make
  // sure low-entropy indices still give unrelated streams.
  Rng parent(1);
  std::set<std::uint64_t> firsts;
  for (std::uint64_t i = 0; i < 512; ++i) {
    firsts.insert(parent.substream(i)());
  }
  EXPECT_EQ(firsts.size(), 512u);
}

TEST(Rng, SubstreamDerivationIsFrozen) {
  // Golden values pin the documented derivation: changing it silently
  // re-seeds every recorded campaign, so it must fail a test instead.
  Rng parent(0);
  EXPECT_EQ(parent.substream(0)(), 0x2cc4f315c1ebc9fdULL);
  EXPECT_EQ(parent.substream(1)(), 0x83fa415a8381d0e3ULL);
  EXPECT_EQ(Rng(Rng::kDefaultSeed).substream(123)(), 0x4acce01ece2868d0ULL);
}

TEST(Rng, SeedAccessorReturnsConstructionSeed) {
  EXPECT_EQ(Rng(42).seed(), 42u);
  EXPECT_EQ(Rng().seed(), Rng::kDefaultSeed);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  const std::uint64_t second = splitmix64(state);
  EXPECT_NE(first, second);
  EXPECT_NE(state, 0u);
}

}  // namespace
}  // namespace udring
