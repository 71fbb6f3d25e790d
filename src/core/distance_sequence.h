// udring/core/distance_sequence.h
//
// Distance-sequence combinatorics (§2.1, §3.1, §4.2 of the paper).
//
// A configuration of k agents on an n-ring is summarized by its distance
// sequence D = (d_0, …, d_{k-1}): d_j is the forward distance from the j-th
// token node to the (j+1)-th. The paper's algorithms reduce to operations on
// these sequences:
//
//  - shift(D, x):            cyclic rotation (the paper's shift).
//  - min_rotation(D):        index of the lexicographically minimal rotation
//                            (selects the base node). Two implementations —
//                            naive O(k²) and Booth O(k) — form an ablation
//                            pair and cross-check each other in tests.
//  - period / symmetry:      the minimal p | k with D = (prefix p)^{k/p};
//                            the symmetry degree is l = k / p (Fig 1).
//  - is_m_fold_repetition:   the estimator's 4-fold repetition test
//                            (Algorithm 4).
//  - Lemma 2 primitive:      if B³ is a prefix of A³ with |B| < |A|, then
//                            |B| ≤ |A|/2 or B is periodic — the engine of
//                            the misestimation bound (Lemma 3).

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

namespace udring::core {

using Distance = std::size_t;
using DistanceSeq = std::vector<Distance>;

/// shift(D, x) = (d_x, …, d_{k-1}, d_0, …, d_{x-1}); x may exceed |D| and is
/// taken modulo |D|. shift of an empty sequence is empty.
[[nodiscard]] DistanceSeq shift(const DistanceSeq& d, std::size_t x);

/// Sum of all elements (= n when D is a full configuration's sequence).
[[nodiscard]] std::size_t sum(const DistanceSeq& d);

/// Index x of the lexicographically minimal rotation; ties broken by the
/// smallest x. Naive O(k²) reference implementation.
[[nodiscard]] std::size_t min_rotation_naive(const DistanceSeq& d);

/// Booth's algorithm, O(k). Same contract as min_rotation_naive.
[[nodiscard]] std::size_t min_rotation_booth(const DistanceSeq& d);

/// Production entry point (Booth).
[[nodiscard]] inline std::size_t min_rotation(const DistanceSeq& d) {
  return min_rotation_booth(d);
}

/// The minimal period p ≥ 1 such that p divides |D| and D is the (|D|/p)-fold
/// repetition of its first p elements. For an aperiodic sequence p = |D|.
[[nodiscard]] std::size_t period(const DistanceSeq& d);

/// True iff period(d) < |d| (the ring/configuration is periodic, §2.1).
[[nodiscard]] bool is_periodic(const DistanceSeq& d);

/// Symmetry degree l = |D| / period(D)  (Fig 1); l ∈ [1, k].
[[nodiscard]] std::size_t symmetry_degree(const DistanceSeq& d);

/// The first period(D) elements — the aperiodic factor S with D = S^l.
[[nodiscard]] DistanceSeq aperiodic_factor(const DistanceSeq& d);

/// True iff |d| = m·p for some p and d equals m concatenated copies of its
/// first p = |d|/m elements. The Algorithm-4 estimator uses m = 4.
[[nodiscard]] bool is_m_fold_repetition(const DistanceSeq& d, std::size_t m);

/// True iff b³ (three concatenated copies of b) is a prefix of a³. Requires
/// nothing about relative lengths; used to state Lemma 2 in tests.
[[nodiscard]] bool cube_is_prefix_of_cube(const DistanceSeq& b, const DistanceSeq& a);

/// Lexicographic comparison of rotations without materializing them:
/// compares shift(d, x) against shift(d, y). Returns <0, 0, >0.
[[nodiscard]] int compare_rotations(const DistanceSeq& d, std::size_t x, std::size_t y);

// ---- configuration-level helpers -------------------------------------------

/// Distance sequence of the configuration whose agent homes are `positions`
/// (distinct, unsorted OK) on an n-ring, starting from the smallest
/// position's agent.
[[nodiscard]] DistanceSeq distances_from_positions(std::vector<std::size_t> positions,
                                                   std::size_t node_count);

/// The paper's D(C_0): the lexicographically minimal rotation of the
/// configuration's distance sequence.
[[nodiscard]] DistanceSeq config_distance_sequence(std::vector<std::size_t> positions,
                                                   std::size_t node_count);

/// Symmetry degree l of the configuration (Fig 1): l-fold repetition of an
/// aperiodic factor.
[[nodiscard]] std::size_t config_symmetry_degree(std::vector<std::size_t> positions,
                                                 std::size_t node_count);

/// FNV-1a style hash of a sequence — used by AgentProgram::state_hash
/// implementations.
[[nodiscard]] std::uint64_t hash_sequence(std::uint64_t seed, const DistanceSeq& d);

/// The same hash over a braced list of a program's scalars
/// (`hash_sequence(h, {n_, rank_})`), without building a DistanceSeq: the
/// model checker digests every agent at every visited state.
[[nodiscard]] std::uint64_t hash_sequence(std::uint64_t seed,
                                          std::initializer_list<Distance> values);

}  // namespace udring::core
