// Per-engine circuit breaker for the multi-tenant service.
//
// A warm engine that keeps failing — every batch degrading or faulting —
// burns its tenants' retry budgets on work that is doomed: each attempt
// re-charges the phase, backs off, degrades capacity, and still reports the
// batch failed. The breaker is the standard fail-fast discipline on top of
// the PR 4/5 "recovered-or-reported" contract:
//
//   kClosed    — normal operation. Every degraded or faulted batch
//                increments a consecutive-failure streak; any successful
//                batch resets it. When the streak reaches the policy
//                threshold the breaker TRIPS open.
//   kOpen      — admit refuses dispatch to this engine: no charge, no
//                retry-budget burn. The scheduler turns that into
//                reported-failed tickets (TenantReport::failed_fast) —
//                fail fast is still fail REPORTED, never fail silent.
//   kHalfOpen  — on the first dispatch of a LATER scheduling round than the
//                one that tripped it, the breaker lets exactly one probe
//                batch through. A successful probe closes the breaker
//                (recovery); a failed probe re-trips it, and the next round
//                probes again. A probe that throws leaves the breaker
//                half-open, and the next round probes again too.
//
// Like everything else in the service layer, the breaker runs on the
// scheduler's virtual round counter and sees only deterministic events
// (batch outcomes), so its decisions — and therefore every fail-fast /
// probe / recovery — are bit-identical at any thread count. One breaker
// lives on each registered engine, i.e. per (dataset, EngineKind) key
// (EngineRegistry stamps the identity), shared by every tenant of that
// engine: the failure streak is an ENGINE health signal, not a tenant one.
// Default-constructed breakers are DISABLED (threshold 0) and change
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>

namespace meshsearch::service {

/// Breaker configuration. threshold 0 disables the breaker entirely (the
/// default — existing service behavior is unchanged until a caller opts in).
struct BreakerPolicy {
  /// Consecutive degraded/faulted batches that trip the breaker open.
  std::uint32_t failure_threshold = 0;
};

enum class BreakerState : std::uint8_t {
  kClosed = 0,
  kOpen,
  kHalfOpen,  ///< probe batch in flight (or one that threw)
};

/// Deterministic counters, exported as service.breaker.<engine>.* gauges by
/// ServiceScheduler::export_metrics.
struct BreakerCounters {
  std::uint64_t trips = 0;        ///< closed/half-open -> open transitions
  std::uint64_t probes = 0;       ///< half-open probe batches dispatched
  std::uint64_t recoveries = 0;   ///< half-open -> closed transitions
  std::uint64_t fail_fast_batches = 0;  ///< dispatches refused while open
  std::uint64_t fail_fast_queries = 0;  ///< queries in refused dispatches
};

class CircuitBreaker {
 public:
  /// (Re)arm with `policy`. Resets the state machine to kClosed but keeps
  /// the lifetime counters.
  void configure(BreakerPolicy policy);

  bool enabled() const { return policy_.failure_threshold > 0; }
  const BreakerPolicy& policy() const { return policy_; }
  BreakerState state() const { return state_; }
  std::uint32_t consecutive_failures() const { return consecutive_; }
  const BreakerCounters& counters() const { return counters_; }

  /// Dispatch gate, called with the scheduler's round number before any
  /// engine work. True means dispatch: the breaker is disabled or closed,
  /// or this call is the probe (the first of a round later than the trip
  /// round, counted). False means fail fast: no engine work, zero charge.
  bool admit(std::uint64_t round);

  /// A dispatched batch completed. Returns true when this was a successful
  /// half-open probe (the breaker just recovered to kClosed).
  bool record_success();

  /// A dispatched batch degraded or faulted. Returns true when this failure
  /// tripped the breaker open (threshold reached, or a failed probe).
  bool record_failure(std::uint64_t round);

  /// Bookkeeping for a refused dispatch (the scheduler resolves the
  /// queries as reported-failed without charging anything).
  void count_fail_fast(std::size_t queries);

 private:
  BreakerPolicy policy_;
  BreakerState state_ = BreakerState::kClosed;
  std::uint32_t consecutive_ = 0;
  std::uint64_t opened_round_ = 0;  ///< round of the most recent trip
  BreakerCounters counters_;
};

}  // namespace meshsearch::service
