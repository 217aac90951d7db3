// Deterministic random number generation for workloads and tests.
//
// All randomness in meshsearch flows through Rng so that every experiment
// is reproducible from a single 64-bit seed. The core generator is
// xoshiro256** seeded via splitmix64 (public-domain constructions by
// Blackman & Vigna / Steele et al.).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace meshsearch::util {

/// splitmix64 step; used for seeding and as a cheap stateless hash. Inline:
/// search programs call mix64 on every visit.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Stateless mix of a 64-bit value (one splitmix64 round).
inline std::uint64_t mix64(std::uint64_t x) { return splitmix64(x); }

/// xoshiro256** generator. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()();

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform_real();

  /// True with probability p.
  bool bernoulli(double p);

  /// Derive an independent child generator (for per-thread determinism).
  Rng split();

 private:
  std::array<std::uint64_t, 4> s_;
};

/// Zipf(s) sampler over {0, .., n-1}: rank-frequency skew used to model
/// congested query distributions (many queries hitting few graph pieces).
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(Rng& rng) const;
  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative weights
};

/// Random permutation of {0, .., n-1}.
std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng);

}  // namespace meshsearch::util
