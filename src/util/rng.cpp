#include "util/rng.hpp"

#include <cmath>
#include <numeric>

#include "util/check.hpp"

namespace meshsearch::util {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  // A state of all zeros is invalid for xoshiro; splitmix64 seeding
  // guarantees non-zero state for any seed.
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  MS_CHECK(bound > 0);
  // Lemire-style rejection-free-ish multiply-shift with a rejection loop to
  // remove modulo bias entirely.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = (*this)();
    const __uint128_t m = static_cast<__uint128_t>(r) * bound;
    if (static_cast<std::uint64_t>(m) >= threshold)
      return static_cast<std::uint64_t>(m >> 64);
  }
}

std::int64_t Rng::uniform_range(std::int64_t lo, std::int64_t hi) {
  MS_CHECK(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  return lo + static_cast<std::int64_t>(uniform(span));
}

double Rng::uniform_real() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) { return uniform_real() < p; }

Rng Rng::split() { return Rng((*this)() ^ 0xd1b54a32d192ed03ull); }

Zipf::Zipf(std::size_t n, double s) {
  MS_CHECK(n > 0);
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform_real();
  // Binary search the first cdf entry >= u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

std::vector<std::uint32_t> random_permutation(std::size_t n, Rng& rng) {
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.uniform(i);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

}  // namespace meshsearch::util
