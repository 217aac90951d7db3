#include "service/breaker.hpp"

#include <utility>

#include "util/check.hpp"

namespace meshsearch::service {

void CircuitBreaker::configure(BreakerPolicy policy) {
  policy_ = policy;
  state_ = BreakerState::kClosed;
  consecutive_ = 0;
  opened_round_ = 0;
}

void CircuitBreaker::admit(std::uint64_t round, const std::string& dataset,
                           const std::string& engine_kind) {
  if (!enabled() || state_ == BreakerState::kClosed) return;
  // kHalfOpen at admit time would mean a probe was dispatched and never
  // resolved — the single-threaded pump resolves every dispatch before the
  // next admit, so treat it like open (defensive, not reachable).
  if (state_ == BreakerState::kOpen && round > opened_round_) {
    state_ = BreakerState::kHalfOpen;
    ++counters_.probes;
    return;  // this dispatch IS the probe
  }
  ErrorContext ctx;
  ctx.engine = "service";
  ctx.phase = "breaker";
  ctx.site = dataset + '/' + engine_kind;
  throw CircuitOpenError(dataset, engine_kind, consecutive_, std::move(ctx));
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
