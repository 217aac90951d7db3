// Tenant sessions: admission control, async completion, per-tenant report.
//
// A TenantSession is one tenant's view of the service: it owns the tenant's
// submitted queries, the pending-batch queue the ServiceScheduler drains
// (msearch::BatchSource), and the tenant's service-level accounting. The
// contracts:
//
//   * Admission is all-or-nothing and charge-free. submit() either admits
//     every query of the call or throws CapacityError BEFORE any engine work
//     — the rejected caller has consumed nothing but the admission check
//     itself, and the error context names the tenant (ctx.site) so a
//     multiplexed caller can tell whose quota tripped.
//   * Completion is asynchronous. submit() returns tickets immediately;
//     answers materialize when the scheduler runs the tenant's batches.
//     poll(ticket) observes the state machine kPending -> kDone/kFailed,
//     result(ticket) reads the answered query, and an optional on_complete
//     callback fires per query as its batch finishes (from inside the
//     scheduler's pump — keep callbacks cheap and do not call back into the
//     service from them).
//   * kFailed is a reported outcome, not an exception: queries in a batch
//     that exhausted its fault retry budget after max_replans re-plans are
//     marked failed and counted in the report (failed_queries), exactly the
//     StreamScheduler degradation contract — never a silent wrong answer.
//
// Latency accounting runs on the service's virtual clock (simulated mesh
// steps, see scheduler.hpp): queue_wait = admission -> attempt start,
// latency = admission -> completion. Both are deterministic functions of the
// submit/pump call sequence, so percentile tables built from them are safe
// to pin in bench baselines. Wall time is observability only: each batch
// attempt's "service.batch N" span (scheduler.hpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "mesh/fault.hpp"
#include "service/engine.hpp"
#include "util/stats.hpp"

namespace meshsearch::service {

class ServiceScheduler;

/// What to do with a query whose virtual queue wait has exceeded its
/// tenant's deadline by dispatch time.
enum class ShedMode : std::uint8_t {
  kNone = 0,   ///< never shed: late queries are still served (PR 8 behavior)
  kDeadline,   ///< shed before dispatch, resolve kShed, DeadlineExceededError
};

const char* shed_mode_name(ShedMode m);

/// Per-tenant service-level objectives and overload-protection policy.
/// Everything is measured on the service's VIRTUAL step clock, so every
/// shed/reject decision is a deterministic function of the submit/pump
/// sequence — bit-identical at any thread count (DESIGN.md decision 17).
/// The default policy (all zeros) disables every mechanism.
struct SloPolicy {
  /// Max virtual queue wait (admission -> dispatch) before a query is shed
  /// under ShedMode::kDeadline. 0 = no deadline.
  double deadline_steps = 0;
  /// The tenant's latency target. Drives two things: brownout
  /// deprioritization (a tenant whose observed latency p99 exceeds its
  /// target is over-target and loses quantum while the service is over its
  /// watermark), and the E12 acceptance gate (admitted-query p99 must stay
  /// within target under overload). 0 = no target (never over-target).
  double p99_target_steps = 0;
  /// Backpressure watermark: a submit that would push the tenant's PENDING
  /// queue past this is rejected whole with BackpressureError carrying a
  /// retry-after hint (in virtual steps, from the DRR round estimate).
  /// 0 = no backpressure (quota.max_outstanding still applies).
  std::size_t max_queue = 0;
  ShedMode shed_mode = ShedMode::kNone;
};

/// Per-tenant admission limit. (Scheduling needs no per-tenant knob: the
/// DRR quantum is the tenant's engine capacity, scheduler.hpp.)
struct TenantQuota {
  /// Queued + running queries the tenant may have in flight. A submit that
  /// would exceed this is rejected whole with CapacityError.
  std::size_t max_outstanding = 1024;
};

enum class QueryState : std::uint8_t {
  kPending = 0,  ///< admitted, not yet answered
  kDone,         ///< answered; result(ticket) holds the outcome
  kFailed,       ///< batch degraded after max_replans; reported, not answered
  kShed,         ///< deadline exceeded before dispatch; result(ticket) throws
                 ///< DeadlineExceededError — reported, never silently dropped
};

/// Ticket = the query's position in the tenant's submission order.
using Ticket = std::uint64_t;

/// Receipt for one submit() call: `count` consecutive tickets from `first`.
struct Submission {
  Ticket first = 0;
  std::size_t count = 0;
};

struct CompletionEvent {
  Ticket ticket = 0;
  const msearch::Query* query = nullptr;  ///< answered query (tenant-owned)
  bool failed = false;                    ///< kFailed (degraded or fail-fast)
  bool shed = false;                      ///< kShed (deadline exceeded)
  double latency_steps = 0;               ///< admission -> completion, sim
};
using CompletionFn = std::function<void(const CompletionEvent&)>;

/// An update batch, deferred: the callable mutates the tenant's structure
/// (e.g. KaryTree::apply_updates) and returns the RefreshRequest the
/// scheduler hands to the engine. It runs exactly once, from inside pump(),
/// only after every query admitted before submit_update() has resolved —
/// and queries admitted after it wait behind it (scheduler slices never
/// cross the barrier). So within a tenant: earlier reads see the
/// pre-update structure, later reads see the refreshed one
/// (read-your-writes), and the engine never serves a mutation it has not
/// been refreshed for.
using UpdateFn = std::function<msearch::RefreshRequest()>;

/// One tenant's stored service-level accounting: the name, counters,
/// charges and SLO histograms the scheduler updates as work resolves. A
/// TenantSession keeps its live accounting in one of these.
struct TenantAccount {
  std::string tenant;
  std::size_t completed = 0;        ///< answered (kDone)
  std::size_t failed_queries = 0;   ///< reported-failed (kFailed)
  std::size_t rejected_submissions = 0;  ///< submit() calls refused
  std::size_t rejected_queries = 0;      ///< queries in refused calls (all)
  /// Queries in calls refused by SloPolicy::max_queue backpressure — a
  /// subset of rejected_queries; the rest tripped quota.max_outstanding.
  std::size_t rejected_backpressure = 0;
  /// Queries shed before dispatch (deadline exceeded, kShed). Disjoint from
  /// failed_queries: shed = never attempted, failed = attempted and lost.
  std::size_t shed = 0;
  /// Queries reported failed WITHOUT a dispatch because the engine's
  /// circuit breaker was open — a subset of failed_queries, so
  /// failed_queries - failed_fast = "failed after exhausting retries".
  std::size_t failed_fast = 0;
  /// Rounds in which brownout deprioritized this tenant (quantum scaled).
  std::size_t brownout_deprioritized = 0;
  std::size_t batches = 0;          ///< attempts that produced an outcome
  std::size_t degraded_batches = 0;
  std::size_t replans = 0;          ///< re-plan generations executed
  std::size_t updates_submitted = 0;
  std::size_t incremental_refreshes = 0;  ///< dirty-band re-distributions
  std::size_t full_refreshes = 0;         ///< fell back to full re-setup
  std::size_t degraded_refreshes = 0;     ///< retried fault-free after budget
  mesh::Cost inject;  ///< charged on this tenant's behalf
  mesh::Cost run;
  mesh::Cost refresh;  ///< engine refresh work done on this tenant's behalf
  /// Simulated-step SLO histograms — deterministic, baseline-safe.
  util::LogHistogram queue_wait_steps;  ///< admission -> attempt start
  util::LogHistogram latency_steps;     ///< admission -> completion

  mesh::Cost charged() const { return inject + run + refresh; }
};

/// Snapshot of one tenant's accounting (TenantSession::report()): the
/// stored counts plus the three derived from the session's state.
struct TenantReport : TenantAccount {
  std::size_t submitted = 0;        ///< admitted queries
  std::size_t outstanding = 0;      ///< still pending at snapshot time
  std::size_t updates_applied = 0;  ///< incremental + full refreshes
};

class TenantSession {
 public:
  /// Built by ServiceScheduler::add_tenant; `sched` owns the session, and
  /// its virtual clock stamps admissions.
  TenantSession(std::string name, Engine& engine, TenantQuota quota,
                SloPolicy slo, ServiceScheduler& sched);

  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  const std::string& name() const { return acct_.tenant; }
  Engine& engine() const { return *engine_; }
  const SloPolicy& slo() const { return slo_; }

  /// Admit `queries` or throw (tenant named in the error context, nothing
  /// enqueued, nothing charged): CapacityError when the call would exceed
  /// quota.max_outstanding, BackpressureError — with a retry-after hint in
  /// virtual steps — when it would push the pending queue past
  /// slo().max_queue. An empty call is a no-op returning count 0. Admitted
  /// queries are answered asynchronously by the scheduler; the Submission's
  /// tickets are `first .. first + count - 1`.
  Submission submit(std::vector<msearch::Query> queries);

  /// Queries admitted but not yet popped for a dispatch (the backpressure
  /// watermark measures this, not outstanding()).
  std::size_t queued() const { return queue_.pending_queries(); }

  /// Enqueue an update batch (see UpdateFn). Returns the update's index in
  /// this tenant's update sequence. The mutation does NOT happen here — it
  /// runs inside a later pump(), once every query admitted before this call
  /// has resolved. Throws InvalidInputError on a null callable.
  std::size_t submit_update(UpdateFn mutate);

  std::size_t updates_submitted() const { return acct_.updates_submitted; }
  /// Every applied update took exactly one refresh, incremental or full.
  std::size_t updates_applied() const {
    return acct_.incremental_refreshes + acct_.full_refreshes;
  }
  std::size_t pending_updates() const { return updates_.size(); }

  QueryState poll(Ticket t) const;
  /// The answered (or reported-failed, checkpoint-state) query. MS_CHECKs
  /// that the ticket is resolved — poll first. A kShed ticket throws
  /// DeadlineExceededError (typed, replayable: tenant, dataset, admission
  /// clock, deadline) — a shed query has no answer to return, and silence
  /// is not an option.
  const msearch::Query& result(Ticket t) const;
  /// Register a per-query completion callback (replaces any previous one).
  void on_complete(CompletionFn fn) { callback_ = std::move(fn); }

  std::size_t submitted() const { return stream_.size(); }
  std::size_t outstanding() const { return submitted() - resolved(); }

  /// Arm per-tenant fault injection: this tenant's batches run under `plan`
  /// (not owned, may be null = fault-free). Other tenants are untouched —
  /// the isolation the fault tests pin.
  void set_fault(mesh::FaultPlan* plan) { fault_ = plan; }
  mesh::FaultPlan* fault() const { return fault_; }

  TenantReport report() const;

 private:
  friend class ServiceScheduler;

  /// One deferred update batch.
  struct PendingUpdate {
    UpdateFn mutate;
    /// Queries admitted before submission; the update waits for them.
    std::size_t barrier = 0;
  };

  /// Largest slice the scheduler may hand the engine right now: mesh
  /// capacity, clamped to the fault plan's surviving capacity.
  std::size_t slice_cap() const;

  /// Queries answered, reported failed or shed. Shed counts as resolved: a
  /// shed query will never be attempted.
  std::size_t resolved() const {
    return acct_.completed + acct_.failed_queries + acct_.shed;
  }

  /// The next unapplied update exists and its barrier has resolved.
  /// (Queries resolve in admission order, so resolved() >= barrier is
  /// exactly "everything admitted before the update is done"; waiting for
  /// a shed query would deadlock the update queue.)
  bool update_ready() const {
    return !updates_.empty() && resolved() >= updates_.front().barrier;
  }

  Engine* engine_;
  TenantQuota quota_;
  SloPolicy slo_;
  /// Owning scheduler: its virtual clock stamps admissions, and it gives
  /// the DRR-based retry-after estimate that rides in BackpressureError.
  ServiceScheduler& sched_;

  std::vector<msearch::Query> stream_;   ///< all admitted queries, by ticket
  std::vector<QueryState> state_;        ///< parallel to stream_
  std::vector<double> submit_steps_;     ///< admission clock, parallel
  std::vector<double> resolve_steps_;    ///< resolution clock (0 = pending)
  msearch::BatchSource queue_;           ///< pending work the scheduler drains
  mesh::FaultPlan* fault_ = nullptr;     ///< not owned
  CompletionFn callback_;
  /// Unapplied updates, in submission order; each leaves (and releases
  /// what its UpdateFn captured) once it has applied.
  std::deque<PendingUpdate> updates_;
  /// DRR credit left this round, in queries (scheduler.hpp).
  std::size_t deficit_ = 0;
  /// The tenant's name, counters, charges and SLO histograms, updated by
  /// the scheduler as work resolves; report() copies it.
  TenantAccount acct_;
};

}  // namespace meshsearch::service
