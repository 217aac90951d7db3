// ServiceScheduler: deficit-round-robin fair batching between tenants.
//
// One mesh, many tenants, each with a queue of admitted queries. The
// scheduler's job is the inter-stream analogue of StreamScheduler's
// intra-stream loop: pick whose queries ride the next capacity-clamped
// batch. Two policies:
//
//   * kDeficitRoundRobin (default) — classic DRR with queries as the cost
//     unit. Each pump() round visits tenants in registration order; a
//     backlogged tenant earns its engine's mesh capacity in credits (one
//     full batch per round: the initial configuration puts at most one
//     query on each processor), kept in its session, and is served
//     front-of-queue slices (BatchSource::pop_upto) no larger than its
//     remaining credit until the credit or the queue runs out. Credits of
//     an emptied queue are forfeited (no banking while idle) — the property
//     the fairness tests pin: a light tenant's queue wait is bounded by one
//     round of everyone else's quanta, regardless of how deep a heavy
//     tenant's backlog is.
//   * kExhaustive — serve each tenant to empty before moving on: the unfair
//     baseline the fairness suite compares against (first-registered tenant
//     starves the rest).
//
// Time is a VIRTUAL clock in simulated mesh steps: each successful batch
// advances it by the batch's charged inject + run steps, and the open-loop
// bench advances it across idle gaps with advance_clock_to(). Queue-wait and
// latency histograms read this clock, so they are deterministic functions of
// the submit/pump sequence — bit-identical at any thread count, safe to pin
// in bench baselines. (A failed attempt advances nothing: its charge was
// abandoned mid-phase. Its queries' eventual latency still includes the
// steps of every batch served between admission and completion.) The
// scheduler itself is single-threaded — "async" means submit now, answers
// later, in the event-loop sense; parallelism lives inside the engines,
// which is what keeps the repo's 1-vs-8-thread bit-identity contract intact
// here for free.
//
// Every slice runs through msearch::run_slice, the slice executor
// StreamScheduler uses too (checkpoint copy, run_batch, write-back, fault
// degradation). serve_slice keeps only what is the service's own: the
// virtual clock, the breaker, ticket resolution, and the requeue order. A
// batch that exhausts its retry budget shrinks ONLY that tenant's surviving
// capacity, its pieces are requeued at the FRONT of that tenant's queue (a
// tenant's earlier queries must not be overtaken by its later ones), and
// the tenant's turn ends so co-resident tenants are not taxed by its
// retries. After max_replans generations the piece is reported failed
// (kFailed tickets, TenantReport::failed_queries) — never silently wrong.
//
// Counts live in one place each: each TenantSession's accounting record
// (a TenantAccount; report() adds the derived submitted/outstanding/
// updates_applied), breaker counters and the scheduler's round counters.
// export_metrics() publishes them as gauges; only span wall times go to the recorder's stats registry as they
// happen — each batch attempt runs in a "service.batch N" span, whose
// wall.phase.service.batch histogram is the one per-batch wall timer.
//
// Overload protection (DESIGN.md decision 17) composes four mechanisms, all
// decided on the SAME virtual clock / round counter so every shed, reject,
// fail-fast, and deprioritization is bit-identical at any thread count:
//
//   * deadline shedding — a tenant with SloPolicy::shed_mode = kDeadline has
//     its expired queries (virtual queue wait > deadline_steps) popped and
//     resolved kShed at dispatch time, BEFORE any engine work. The queue is
//     FIFO in admission order, so expired queries are always a front prefix
//     (BatchSource::pop_expired) and the check at pop time bounds every
//     DISPATCHED query's wait by the deadline — which is what makes an
//     admitted-latency p99 target satisfiable under any overload.
//   * backpressure — TenantSession::submit rejects past SloPolicy::max_queue
//     with a BackpressureError carrying retry_after_hint()'s DRR drain-rate
//     estimate (see that method).
//   * circuit breakers — serve_slice consults the engine's CircuitBreaker
//     (service/breaker.hpp) before dispatch and feeds it every outcome; an
//     open breaker turns the slice into reported-failed tickets
//     (failed_fast) with zero charge.
//   * brownout — when the aggregate pending backlog exceeds
//     BrownoutPolicy::watermark_queries, tenants whose OBSERVED latency p99
//     exceeds their own p99_target_steps keep only kBrownoutQuantumScale of
//     their DRR quantum for the round, shifting service toward tenants still
//     inside their targets. DRR-only: the exhaustive baseline stays unfair
//     on purpose.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "multisearch/types.hpp"
#include "service/tenant.hpp"

namespace meshsearch::service {

enum class SchedulePolicy : std::uint8_t {
  kDeficitRoundRobin = 0,
  kExhaustive,  ///< drain each tenant in turn — the unfair baseline
};

const char* schedule_policy_name(SchedulePolicy p);

/// Share of its DRR quantum an over-target tenant keeps in a brownout round
/// (floored at 1 query so no tenant is fully starved).
inline constexpr double kBrownoutQuantumScale = 0.25;

/// Service-wide brownout (graceful degradation) policy. Disabled by default
/// (watermark 0). Applies to kDeficitRoundRobin only.
struct BrownoutPolicy {
  /// Aggregate pending queries (all tenants) above which a pump() round
  /// runs in brownout. 0 = never.
  std::size_t watermark_queries = 0;
};

struct ServiceConfig {
  SchedulePolicy policy = SchedulePolicy::kDeficitRoundRobin;
  BrownoutPolicy brownout;
};

class ServiceScheduler {
 public:
  explicit ServiceScheduler(ServiceConfig cfg = {},
                            trace::TraceRecorder* trace = nullptr);

  ServiceScheduler(const ServiceScheduler&) = delete;
  ServiceScheduler& operator=(const ServiceScheduler&) = delete;

  /// Register a tenant on a warm engine. Names must be unique (else
  /// InvalidInputError). The returned session is stable for the scheduler's
  /// lifetime. `slo` is the tenant's overload-protection policy; the default
  /// (all zeros) disables shedding, backpressure, and brownout targeting for
  /// this tenant. ShedMode::kDeadline requires deadline_steps > 0.
  TenantSession& add_tenant(std::string name, Engine& engine,
                            TenantQuota quota = {}, SloPolicy slo = {});

  TenantSession& tenant(const std::string& name);
  const TenantSession& tenant(const std::string& name) const;

  /// No tenant has pending work (queries or unapplied updates).
  bool idle() const;

  /// One scheduling round over all tenants under the configured policy.
  /// A tenant's turn first applies its ready updates (mutate + engine
  /// refresh, see TenantSession::submit_update), then serves query slices.
  /// Returns queries resolved (answered or reported failed) this round.
  std::size_t pump();

  /// pump() until idle. Returns total queries resolved. Terminates even
  /// under armed faults: every attempt either resolves queries or advances
  /// the failed slice's re-plan generation, and generations are capped.
  std::size_t run_until_idle();

  /// The service's virtual clock: cumulative charged steps of every
  /// successful batch, plus explicit idle advances.
  double now_steps() const { return clock_; }

  /// Advance the clock across an idle gap (open-loop arrivals). `steps`
  /// must not move backwards.
  void advance_clock_to(double steps);

  /// Scheduling rounds pumped so far (the breaker's probe clock).
  std::uint64_t rounds() const { return round_; }
  /// Rounds that ran in brownout (aggregate backlog over the watermark).
  std::uint64_t brownout_rounds() const { return brownout_rounds_; }

  /// Deterministic retry-after estimate (virtual steps) for a tenant whose
  /// submit of `incoming` queries hit backpressure: rounds needed for DRR to
  /// drain the excess at the tenant's quantum, times the estimated cost of
  /// one full round (everyone's quanta at the service's observed
  /// steps-per-resolved-query; 1.0 before anything has resolved). An
  /// estimate, not a guarantee — but a deterministic one, so callers that
  /// back off by it keep replayable traces.
  double retry_after_hint(const TenantSession& t, std::size_t incoming) const;

  std::vector<TenantReport> reports() const;

  /// Record per-tenant metrics (tenant.<name>.* — deterministic counts and
  /// charges only) plus each armed fault plan's tenant.<name>.fault.*
  /// family, each armed breaker's service.breaker.<engine>.* counters and
  /// service-level totals into the scheduler's trace recorder, as gauges —
  /// the one exported view of every service count. No-op without a
  /// recorder.
  void export_metrics() const;

 private:
  struct ServeOutcome {
    std::size_t taken = 0;     ///< queries popped for the attempt
    std::size_t resolved = 0;  ///< answered or reported failed
    bool faulted = false;      ///< attempt threw FaultExhaustedError
  };

  /// Pop one slice of at most `window` queries off `t`'s queue and run it
  /// through msearch::run_slice under the tenant's fault plan.
  ServeOutcome serve_slice(TenantSession& t, std::size_t window);

  /// Apply every ready update of `t` (in submission order): run the
  /// mutation, refresh the engine under the tenant's sinks, advance the
  /// clock by the charged refresh steps. A refresh that exhausts its fault
  /// retry budget degrades the plan and re-runs fault-free — an update is
  /// applied-after-degradation, never wedged.
  void apply_ready_updates(TenantSession& t);

  /// Resolve one query: state, accounting, histograms, callback. Only
  /// DISPATCHED resolutions (a batch actually ran, successfully or not)
  /// feed the queue-wait/latency SLO histograms — shed and fail-fast
  /// queries were never served, and folding them in would let an overloaded
  /// tenant's shed tail pollute the admitted-latency percentiles the SLO
  /// gate reads.
  void resolve(TenantSession& t, std::uint32_t idx, QueryState state,
               double attempt_start, bool dispatched);

  /// Pop and resolve (kShed) every expired query of `t` under its deadline
  /// policy; returns how many were shed. No-op unless shed_mode=kDeadline.
  std::size_t shed_expired(TenantSession& t);

  /// Brownout target test: the tenant has a p99 target and its observed
  /// latency p99 is above it.
  bool over_target(const TenantSession& t) const;

  /// DRR credits `t` earns per round: its engine's capacity.
  std::size_t quantum_for(const TenantSession& t) const;

  ServiceConfig cfg_;
  trace::TraceRecorder* trace_;
  std::vector<std::unique_ptr<TenantSession>> tenants_;
  double clock_ = 0;             ///< virtual time, simulated mesh steps
  std::size_t serial_ = 0;       ///< batch span numbering, attempt order
  std::uint64_t round_ = 0;      ///< pump() rounds; the breaker probe clock
  std::uint64_t brownout_rounds_ = 0;
  std::vector<msearch::Query> scratch_;  ///< run_slice's reused slice copy
};

}  // namespace meshsearch::service
