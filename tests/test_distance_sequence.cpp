// Unit + property tests for core/distance_sequence.h — the combinatorics all
// three algorithms stand on: rotations, minimal rotations (naive vs Booth),
// periodicity / symmetry degree (Fig 1), the 4-fold repetition test of the
// estimator, and the Lemma 2 primitive.

#include "core/distance_sequence.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "util/rng.h"

namespace udring::core {
namespace {

TEST(Shift, MatchesPaperDefinition) {
  const DistanceSeq d = {1, 4, 2, 1, 2, 2};
  EXPECT_EQ(shift(d, 0), d);
  EXPECT_EQ(shift(d, 1), (DistanceSeq{4, 2, 1, 2, 2, 1}));
  EXPECT_EQ(shift(d, 5), (DistanceSeq{2, 1, 4, 2, 1, 2}));
  EXPECT_EQ(shift(d, 6), d) << "shift by |D| is the identity";
  EXPECT_EQ(shift(d, 7), shift(d, 1)) << "shift is modulo |D|";
}

TEST(Shift, EmptyAndSingleton) {
  EXPECT_TRUE(shift({}, 3).empty());
  EXPECT_EQ(shift({5}, 2), (DistanceSeq{5}));
}

TEST(Sum, Sums) {
  EXPECT_EQ(sum({}), 0u);
  EXPECT_EQ(sum({1, 4, 2, 1, 2, 2}), 12u);
}

TEST(CompareRotations, OrdersLexicographically) {
  const DistanceSeq d = {2, 1, 3};
  // rotations: x=0: (2,1,3), x=1: (1,3,2), x=2: (3,2,1)
  EXPECT_LT(compare_rotations(d, 1, 0), 0);
  EXPECT_GT(compare_rotations(d, 2, 0), 0);
  EXPECT_EQ(compare_rotations(d, 1, 1), 0);
}

TEST(MinRotation, Fig1aExample) {
  // Fig 1(a): D = (1,4,2,1,2,2). Rotations starting with 1: x=0 → (1,4,...),
  // x=3 → (1,2,2,1,4,2). The minimal is x=3.
  const DistanceSeq d = {1, 4, 2, 1, 2, 2};
  EXPECT_EQ(min_rotation_naive(d), 3u);
  EXPECT_EQ(min_rotation_booth(d), 3u);
}

TEST(MinRotation, TieBreaksToSmallestIndex) {
  const DistanceSeq d = {1, 2, 1, 2};  // minimal rotation (1,2,1,2) at x=0 and 2
  EXPECT_EQ(min_rotation_naive(d), 0u);
  EXPECT_EQ(min_rotation_booth(d), 0u);
}

TEST(MinRotation, ConstantSequence) {
  const DistanceSeq d = {3, 3, 3, 3};
  EXPECT_EQ(min_rotation_naive(d), 0u);
  EXPECT_EQ(min_rotation_booth(d), 0u);
}

TEST(MinRotation, SingletonAndEmpty) {
  EXPECT_EQ(min_rotation_booth({}), 0u);
  EXPECT_EQ(min_rotation_booth({7}), 0u);
}

// Property sweep: Booth's O(k) algorithm must agree with the O(k²) reference
// on random sequences, including many with repeated values (small alphabet
// forces periodic structure and ties).
class MinRotationProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(MinRotationProperty, BoothMatchesNaive) {
  const auto [length, alphabet] = GetParam();
  udring::Rng rng(static_cast<std::uint64_t>(length * 1009 + alphabet));
  for (int trial = 0; trial < 200; ++trial) {
    DistanceSeq d(static_cast<std::size_t>(length));
    for (auto& v : d) {
      v = 1 + static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(alphabet)));
    }
    const std::size_t naive = min_rotation_naive(d);
    const std::size_t booth = min_rotation_booth(d);
    ASSERT_EQ(booth, naive) << "length=" << length << " alphabet=" << alphabet
                            << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MinRotationProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8, 13, 21,
                                                              64),
                                            ::testing::Values(2, 3, 10)));

TEST(Period, AperiodicSequenceHasFullPeriod) {
  EXPECT_EQ(period({1, 4, 2, 1, 2, 2}), 6u);
  EXPECT_FALSE(is_periodic({1, 4, 2, 1, 2, 2}));
}

TEST(Period, Fig1bIsTwoFold) {
  const DistanceSeq d = {1, 2, 3, 1, 2, 3};
  EXPECT_EQ(period(d), 3u);
  EXPECT_TRUE(is_periodic(d));
  EXPECT_EQ(symmetry_degree(d), 2u);
  EXPECT_EQ(aperiodic_factor(d), (DistanceSeq{1, 2, 3}));
}

TEST(Period, ConstantSequence) {
  EXPECT_EQ(period({2, 2, 2, 2}), 1u);
  EXPECT_EQ(symmetry_degree({2, 2, 2, 2}), 4u);
}

TEST(Period, PeriodMustDivideLength) {
  // (1,2,1,2,1): the prefix (1,2) repeats but 2 ∤ 5 — not periodic in the
  // rotational sense the paper uses.
  EXPECT_EQ(period({1, 2, 1, 2, 1}), 5u);
  EXPECT_EQ(symmetry_degree({1, 2, 1, 2, 1}), 1u);
}

TEST(Period, RotationInvariant) {
  // Symmetry degree is a property of the configuration, not the start agent.
  const DistanceSeq d = {1, 2, 3, 1, 2, 3};
  for (std::size_t x = 0; x < d.size(); ++x) {
    EXPECT_EQ(symmetry_degree(shift(d, x)), 2u) << "x=" << x;
  }
}

TEST(Repetition, FourFoldDetectsFig8) {
  // Fig 8: agent observes (1,3,1,3,1,3,1,3) = (1,3)^4 and estimates n' = 4.
  const DistanceSeq d = {1, 3, 1, 3, 1, 3, 1, 3};
  EXPECT_TRUE(is_m_fold_repetition(d, 4));
  EXPECT_TRUE(is_m_fold_repetition(d, 2));
  EXPECT_FALSE(is_m_fold_repetition(d, 3)) << "8 is not divisible by 3";
}

TEST(Repetition, RejectsNearMisses) {
  EXPECT_FALSE(is_m_fold_repetition({1, 3, 1, 3, 1, 3, 1, 4}, 4));
  EXPECT_FALSE(is_m_fold_repetition({}, 4));
  EXPECT_FALSE(is_m_fold_repetition({1, 1, 1}, 0));
}

TEST(Repetition, AllEqualIsFourFoldAtLengthFour) {
  EXPECT_TRUE(is_m_fold_repetition({6, 6, 6, 6}, 4));
}

TEST(Lemma2, StatementHoldsOnRandomInstances) {
  // Lemma 2 [16]: if |B| < |A| and B³ is a prefix of A³, then |B| ≤ |A|/2 or
  // B is periodic. Verify over random sequences where the hypothesis holds.
  udring::Rng rng(2024);
  int hypothesis_hits = 0;
  for (int trial = 0; trial < 20000; ++trial) {
    const std::size_t p = 2 + static_cast<std::size_t>(rng.below(6));   // |A|
    const std::size_t q = 1 + static_cast<std::size_t>(rng.below(p - 1));  // |B| < |A|
    DistanceSeq a(p);
    for (auto& v : a) v = 1 + static_cast<std::size_t>(rng.below(2));
    // Take B as the prefix of A of length q, the interesting case.
    const DistanceSeq b(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(q));
    if (!cube_is_prefix_of_cube(b, a)) continue;
    ++hypothesis_hits;
    EXPECT_TRUE(2 * q <= p || period(b) < q)
        << "Lemma 2 violated: |A|=" << p << " |B|=" << q;
  }
  EXPECT_GT(hypothesis_hits, 100) << "the sweep should exercise the hypothesis";
}

TEST(CubePrefix, Basics) {
  EXPECT_TRUE(cube_is_prefix_of_cube({1}, {1, 1}));
  EXPECT_TRUE(cube_is_prefix_of_cube({1, 2}, {1, 2, 1, 2}));
  EXPECT_FALSE(cube_is_prefix_of_cube({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(cube_is_prefix_of_cube({}, {}));
}

TEST(Positions, DistancesFromPositions) {
  // Homes {0,1,5,7} on a 12-ring: distances (1,4,2,5).
  EXPECT_EQ(distances_from_positions({0, 1, 5, 7}, 12), (DistanceSeq{1, 4, 2, 5}));
  // Order must not matter.
  EXPECT_EQ(distances_from_positions({7, 0, 5, 1}, 12), (DistanceSeq{1, 4, 2, 5}));
}

TEST(Positions, SingleAgentWholeRing) {
  EXPECT_EQ(distances_from_positions({4}, 9), (DistanceSeq{9}));
}

TEST(Positions, RejectsBadInput) {
  EXPECT_THROW(distances_from_positions({}, 5), std::invalid_argument);
  EXPECT_THROW(distances_from_positions({1, 1}, 5), std::invalid_argument);
  EXPECT_THROW(distances_from_positions({5}, 5), std::invalid_argument);
}

TEST(Positions, ConfigSequenceIsRotationMinimal) {
  const auto d = config_distance_sequence({0, 1, 5, 7}, 12);
  // All rotations of (1,4,2,5): minimal is (1,4,2,5) itself? rotations:
  // (1,4,2,5), (4,2,5,1), (2,5,1,4), (5,1,4,2) → minimal (1,4,2,5).
  EXPECT_EQ(d, (DistanceSeq{1, 4, 2, 5}));
  for (std::size_t x = 0; x < d.size(); ++x) {
    EXPECT_LE(compare_rotations(d, 0, x), 0);
  }
}

TEST(Positions, SymmetryDegreeOfFigures) {
  // Fig 1(a): l = 1; Fig 1(b): l = 2.
  EXPECT_EQ(config_symmetry_degree({0, 1, 5, 7, 8, 10}, 12), 1u);
  EXPECT_EQ(config_symmetry_degree({0, 1, 3, 6, 7, 9}, 12), 2u);
}

TEST(Positions, UniformConfigurationHasDegreeK) {
  EXPECT_EQ(config_symmetry_degree({0, 3, 6, 9}, 12), 4u);
}

TEST(HashSequence, DistinguishesAndReproduces) {
  const DistanceSeq a = {1, 2, 3};
  const DistanceSeq b = {1, 2, 4};
  EXPECT_EQ(hash_sequence(0, a), hash_sequence(0, a));
  EXPECT_NE(hash_sequence(0, a), hash_sequence(0, b));
  EXPECT_NE(hash_sequence(0, a), hash_sequence(1, a));
  EXPECT_NE(hash_sequence(0, {1, 2}), hash_sequence(0, {1, 2, 0}))
      << "length is mixed in";
  // The braced-list overload hashes exactly like the sequence form.
  EXPECT_EQ(hash_sequence(7, {3, 1, 4}), hash_sequence(7, DistanceSeq{3, 1, 4}));
  EXPECT_EQ(hash_sequence(7, {}), hash_sequence(7, DistanceSeq{}));
}

}  // namespace
}  // namespace udring::core
