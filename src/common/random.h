// Deterministic pseudo-random number generation.
//
// All workload generation in the repository flows through `kf::Rng` so that
// every experiment is reproducible from a seed. The core generator is
// xoshiro256** seeded via splitmix64 (the construction recommended by the
// xoshiro authors); it is much faster than std::mt19937_64 and has no
// measurable bias for our use (uniform ints, floats, Bernoulli draws).
#ifndef KF_COMMON_RANDOM_H_
#define KF_COMMON_RANDOM_H_

#include <array>
#include <cstdint>

#include "common/error.h"

namespace kf {

// splitmix64 step; used for seeding and as a cheap stateless hash.
inline constexpr std::uint64_t SplitMix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { Reseed(seed); }

  void Reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] (inclusive). Uses Lemire's multiply-shift
  // rejection-free approximation, adequate for workload synthesis. The
  // 64x64 -> high-64 multiply is done in 32-bit limbs to stay within
  // standard C++ (no __int128). The span and the offset are computed in
  // uint64, so ranges wider than INT64_MAX do not overflow.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    KF_REQUIRE(lo <= hi) << "empty range [" << lo << ", " << hi << "]";
    const auto base = static_cast<std::uint64_t>(lo);
    const std::uint64_t span = static_cast<std::uint64_t>(hi) - base + 1;
    if (span == 0) return static_cast<std::int64_t>((*this)());  // full 64-bit range
    return static_cast<std::int64_t>(base + MulHigh((*this)(), span));
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) { return lo + (hi - lo) * UniformDouble(); }

  // Bernoulli draw with probability `p` of returning true.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  // Split off an independently-seeded child generator; used to give each
  // worker thread its own deterministic stream.
  Rng Split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  // High 64 bits of the 128-bit product a*b, via 32-bit limbs.
  static constexpr std::uint64_t MulHigh(std::uint64_t a, std::uint64_t b) {
    const std::uint64_t a_lo = a & 0xffffffffULL, a_hi = a >> 32;
    const std::uint64_t b_lo = b & 0xffffffffULL, b_hi = b >> 32;
    const std::uint64_t lo_lo = a_lo * b_lo;
    const std::uint64_t hi_lo = a_hi * b_lo;
    const std::uint64_t lo_hi = a_lo * b_hi;
    const std::uint64_t hi_hi = a_hi * b_hi;
    const std::uint64_t cross = (lo_lo >> 32) + (hi_lo & 0xffffffffULL) + lo_hi;
    return hi_hi + (hi_lo >> 32) + (cross >> 32);
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace kf

#endif  // KF_COMMON_RANDOM_H_
