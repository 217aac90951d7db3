#include "service/breaker.hpp"

namespace meshsearch::service {

void CircuitBreaker::configure(BreakerPolicy policy) {
  policy_ = policy;
  state_ = BreakerState::kClosed;
  consecutive_ = 0;
  opened_round_ = 0;
}

bool CircuitBreaker::admit(std::uint64_t round) {
  if (!enabled() || state_ == BreakerState::kClosed) return true;
  if (round <= opened_round_) return false;
  // Open, or half-open because a probe threw instead of resolving: either
  // way the first dispatch of a later round is a probe.
  state_ = BreakerState::kHalfOpen;
  ++counters_.probes;
  return true;
}

bool CircuitBreaker::record_success() {
  const bool recovered = state_ == BreakerState::kHalfOpen;
  if (recovered) ++counters_.recoveries;
  state_ = BreakerState::kClosed;
  consecutive_ = 0;
  return recovered;
}

bool CircuitBreaker::record_failure(std::uint64_t round) {
  ++consecutive_;
  if (!enabled()) return false;
  const bool probe_failed = state_ == BreakerState::kHalfOpen;
  if (probe_failed || (state_ == BreakerState::kClosed &&
                       consecutive_ >= policy_.failure_threshold)) {
    state_ = BreakerState::kOpen;
    opened_round_ = round;
    ++counters_.trips;
    return true;
  }
  return false;
}

void CircuitBreaker::count_fail_fast(std::size_t queries) {
  ++counters_.fail_fast_batches;
  counters_.fail_fast_queries += queries;
}

}  // namespace meshsearch::service
