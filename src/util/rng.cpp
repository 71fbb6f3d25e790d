// udring/util/rng.cpp — xoshiro256** implementation.
//
// Reference: Blackman & Vigna, "Scrambled linear pseudorandom number
// generators" (2018). Public-domain algorithm.

#include "util/rng.h"

#include <algorithm>

namespace udring {

namespace {

[[nodiscard]] constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  // splitmix64 expansion guarantees a non-zero state for any seed.
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  if (std::all_of(state_.begin(), state_.end(),
                  [](std::uint64_t w) { return w == 0; })) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire-style rejection: draw until the value falls inside the largest
  // multiple of `bound`, guaranteeing exact uniformity.
  //
  // Power-of-two fast path: 2^64 − bound equals ~0 − (~0 % bound) and
  // draw & (bound − 1) equals draw % bound, so the draw count and the
  // returned values are bit-identical to the general path (the frozen
  // stream contract) with no hardware division. Scheduler draws hit this
  // constantly — enabled-set sizes are powers of two whenever k is.
  if ((bound & (bound - 1)) == 0) {
    const std::uint64_t limit = std::uint64_t{0} - bound;
    std::uint64_t draw = (*this)();
    while (draw >= limit) {
      draw = (*this)();
    }
    return draw & (bound - 1);
  }
  // The limit ~0 − (~0 % bound) is at least 2^64 − bound, so a draw below
  // that is accepted without it: only draws among the top `bound` values pay
  // the division that computes it, leaving one division (the result's) per
  // draw. Same values and draw count as computing the limit first.
  std::uint64_t draw = (*this)();
  if (draw >= std::uint64_t{0} - bound) {
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
    while (draw >= limit) {
      draw = (*this)();
    }
  }
  return draw % bound;
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) noexcept {
  return lo + below(hi - lo + 1);
}

double Rng::uniform01() noexcept {
  // 53 random mantissa bits → uniform double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

Rng Rng::substream(std::uint64_t index) const noexcept {
  // Frozen derivation (see rng.h): depends only on (seed_, index).
  std::uint64_t state = seed_ ^ kSubstreamSalt;
  const std::uint64_t mixed = splitmix64(state);
  state ^= index * 0x9e3779b97f4a7c15ULL;
  return Rng(mixed ^ splitmix64(state));
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

}  // namespace udring
