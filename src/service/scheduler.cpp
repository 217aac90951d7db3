#include "service/scheduler.hpp"

#include <algorithm>

#include "multisearch/validate.hpp"
#include "util/check.hpp"

namespace meshsearch::service {

namespace {

/// Metric identity of an engine's breaker: "dataset/kind" as in
/// engine_key_name (the scheduler has the Engine, not its registry key, but
/// dataset + kind IS the key).
std::string breaker_id(const Engine& e) {
  std::string out = e.dataset();
  out += '/';
  out += msearch::engine_kind_name(e.kind());
  return out;
}

/// Scale a positive query count, flooring at 1 (a brownouted tenant is
/// deprioritized, never fully starved — starvation would turn a latency
/// SLO miss into unbounded waits for work already admitted).
std::size_t scale_count(std::size_t n, double scale) {
  const auto scaled = static_cast<std::size_t>(static_cast<double>(n) * scale);
  return std::max<std::size_t>(1, scaled);
}

}  // namespace

const char* schedule_policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::kDeficitRoundRobin: return "drr";
    case SchedulePolicy::kExhaustive: return "exhaustive";
  }
  return "unknown";
}

ServiceScheduler::ServiceScheduler(ServiceConfig cfg,
                                   trace::TraceRecorder* trace)
    : cfg_(cfg), trace_(trace) {}

TenantSession& ServiceScheduler::add_tenant(std::string name, Engine& engine,
                                            TenantQuota quota, SloPolicy slo) {
  for (const auto& t : tenants_)
    if (t->name() == name)
      msearch::invalid_input("tenant '" + name + "' already registered",
                             "ServiceScheduler");
  if (quota.max_outstanding == 0)
    msearch::invalid_input("tenant quota requires max_outstanding >= 1",
                           "ServiceScheduler");
  if (slo.deadline_steps < 0 || slo.p99_target_steps < 0)
    msearch::invalid_input(
        "tenant SLO policy requires non-negative deadline/p99 target",
        "ServiceScheduler");
  if (slo.shed_mode == ShedMode::kDeadline && slo.deadline_steps <= 0)
    msearch::invalid_input(
        "ShedMode::kDeadline requires deadline_steps > 0 (a zero deadline "
        "would shed every query at its first dispatch opportunity)",
        "ServiceScheduler");
  tenants_.push_back(std::make_unique<TenantSession>(std::move(name), engine,
                                                     quota, slo, *this));
  return *tenants_.back();
}

TenantSession& ServiceScheduler::tenant(const std::string& name) {
  for (const auto& t : tenants_)
    if (t->name() == name) return *t;
  msearch::invalid_input("unknown tenant '" + name + "'", "ServiceScheduler");
}

const TenantSession& ServiceScheduler::tenant(const std::string& name) const {
  for (const auto& t : tenants_)
    if (t->name() == name) return *t;
  msearch::invalid_input("unknown tenant '" + name + "'", "ServiceScheduler");
}

bool ServiceScheduler::idle() const {
  for (const auto& t : tenants_)
    if (!t->queue_.empty() || t->pending_updates() > 0) return false;
  return true;
}

std::size_t ServiceScheduler::quantum_for(const TenantSession& t) const {
  return t.engine().capacity();
}

void ServiceScheduler::advance_clock_to(double steps) {
  MS_CHECK_MSG(steps >= clock_, "advance_clock_to cannot move time backwards");
  clock_ = steps;
}

void ServiceScheduler::resolve(TenantSession& t, std::uint32_t idx,
                               QueryState state, double attempt_start,
                               bool dispatched) {
  MS_CHECK(state != QueryState::kPending);
  MS_CHECK(t.state_[idx] == QueryState::kPending);
  t.state_[idx] = state;
  t.resolve_steps_[idx] = clock_;
  TenantAccount& acct = t.acct_;
  switch (state) {
    case QueryState::kDone: ++acct.completed; break;
    case QueryState::kFailed: ++acct.failed_queries; break;
    case QueryState::kShed: ++acct.shed; break;
    case QueryState::kPending: break;  // unreachable (checked above)
  }
  const double admitted = t.submit_steps_[idx];
  const double latency = clock_ - admitted;
  if (dispatched) {
    acct.queue_wait_steps.observe(attempt_start - admitted);
    acct.latency_steps.observe(latency);
  }
  if (t.callback_) {
    CompletionEvent ev;
    ev.ticket = idx;
    ev.query = &t.stream_[idx];
    ev.failed = state == QueryState::kFailed;
    ev.shed = state == QueryState::kShed;
    ev.latency_steps = latency;
    t.callback_(ev);
  }
}

std::size_t ServiceScheduler::shed_expired(TenantSession& t) {
  if (t.slo_.shed_mode != ShedMode::kDeadline || t.queue_.empty()) return 0;
  const double deadline = t.slo_.deadline_steps;
  const std::vector<std::uint32_t> expired =
      t.queue_.pop_expired([&](std::uint32_t idx) {
        return clock_ - t.submit_steps_[idx] > deadline;
      });
  if (expired.empty()) return 0;
  // Shed happens BEFORE any pop for dispatch, so a query that survives to a
  // dispatch has waited at most deadline_steps — the invariant that makes a
  // p99 target of deadline + one-batch-margin provably satisfiable.
  for (const auto idx : expired)
    resolve(t, idx, QueryState::kShed, clock_, /*dispatched=*/false);
  return expired.size();
}

bool ServiceScheduler::over_target(const TenantSession& t) const {
  const util::LogHistogram& latency = t.acct_.latency_steps;
  return t.slo_.p99_target_steps > 0 && !latency.empty() &&
         latency.p99() > t.slo_.p99_target_steps;
}

double ServiceScheduler::retry_after_hint(const TenantSession& t,
                                          std::size_t incoming) const {
  const std::size_t queued = t.queue_.pending_queries();
  const std::size_t watermark = t.slo_.max_queue;
  const std::size_t excess =
      queued + incoming > watermark ? queued + incoming - watermark : 1;
  const std::size_t quantum = std::max<std::size_t>(1, quantum_for(t));
  const auto rounds_needed = static_cast<double>((excess + quantum - 1) /
                                                 quantum);
  // Observed service rate: virtual steps per resolved query so far, over
  // all tenants (1.0 before anything has resolved — any positive hint beats
  // "retry now" while the service is still cold).
  std::size_t resolved_total = 0;
  double round_queries = 0;
  for (const auto& tp : tenants_) {
    resolved_total += tp->resolved();
    round_queries += static_cast<double>(quantum_for(*tp));
  }
  const double per_query =
      resolved_total > 0 ? clock_ / static_cast<double>(resolved_total) : 1.0;
  return rounds_needed * round_queries * per_query;
}

ServiceScheduler::ServeOutcome ServiceScheduler::serve_slice(
    TenantSession& t, std::size_t window) {
  ServeOutcome out;
  // Deadline shedding first: anything already expired must not ride this
  // dispatch (it would be served past its deadline) and must not hold the
  // barrier clamp below hostage.
  out.resolved += shed_expired(t);
  // A pending update is a barrier in the tenant's stream: queries admitted
  // after it must not be served until it applies. The queue is FIFO in
  // admission order (fault requeues go to the front), so clamping the
  // window to the unresolved-before-barrier count is exact. Shed counts as
  // resolved: those queries will never be attempted.
  if (!t.updates_.empty()) {
    const std::size_t barrier = t.updates_.front().barrier;
    const std::size_t resolved = t.resolved();
    window = barrier > resolved ? std::min(window, barrier - resolved) : 0;
  }
  if (window == 0 || t.queue_.empty()) return out;
  msearch::PendingBatch cur = t.queue_.pop_upto(window);
  out.taken = cur.indices.size();
  Engine& engine = t.engine();
  CircuitBreaker& breaker = engine.breaker();
  if (!breaker.admit(round_)) {
    // Fail fast: reported failed with ZERO charge — no engine work, no
    // retry-budget burn, no clock advance. Still never silent: every
    // ticket flips to kFailed and the completion callback fires.
    breaker.count_fail_fast(cur.indices.size());
    t.acct_.failed_fast += cur.indices.size();
    for (const auto idx : cur.indices)
      resolve(t, idx, QueryState::kFailed, clock_, /*dispatched=*/false);
    out.resolved += cur.indices.size();
    return out;
  }
  engine.bind_sinks(trace_, t.fault_);
  // Span per attempt, like "stream.batch N": closing it lands the wall
  // latency in the shared wall.phase.service.batch histogram.
  trace::SpanScope span(trace_, "service.batch " + std::to_string(serial_));
  ++serial_;
  const double attempt_start = clock_;
  msearch::SliceAttempt a;
  try {
    a = msearch::run_slice(engine, t.fault_, t.stream_, cur, scratch_);
  } catch (...) {
    // An error the slice cannot absorb (a stale engine, a paranoid-oracle
    // mismatch) left the tickets at their checkpoint: put the slice back
    // at the front at its own re-plan generation, so none is lost, and let
    // the caller see the error.
    t.queue_.push_front(std::move(cur));
    throw;
  }
  if (a.outcome == msearch::SliceOutcome::kReslice) {
    out.faulted = true;
    breaker.record_failure(round_);
    ++t.acct_.replans;
    // Front, not back: the tenant's own later arrivals must not overtake
    // its failed queries.
    t.queue_.requeue_split_front(cur, a.capacity);
    return out;
  }
  ++t.acct_.batches;
  QueryState state = QueryState::kDone;
  if (a.outcome == msearch::SliceOutcome::kDone) {
    clock_ += (a.report.inject + a.report.run).steps;
    t.acct_.inject += a.report.inject;
    t.acct_.run += a.report.run;
    breaker.record_success();
  } else {
    // Reported failed, never silently wrong: the tickets stay at their
    // checkpoint state and flip to kFailed.
    out.faulted = true;
    breaker.record_failure(round_);
    ++t.acct_.degraded_batches;
    state = QueryState::kFailed;
  }
  for (const auto idx : cur.indices)
    resolve(t, idx, state, attempt_start, /*dispatched=*/true);
  out.resolved += cur.indices.size();
  return out;
}

void ServiceScheduler::apply_ready_updates(TenantSession& t) {
  while (t.update_ready()) {
    TenantSession::PendingUpdate& u = t.updates_.front();
    Engine& engine = t.engine();
    engine.bind_sinks(trace_, t.fault_);
    trace::SpanScope span(trace_, "service.update " + std::to_string(serial_));
    ++serial_;
    // The mutation itself (structure apply_updates) is mesh-free here; the
    // charged work is the engine refresh that follows.
    const msearch::RefreshRequest req = u.mutate();
    msearch::RefreshReport rep;
    try {
      rep = engine.refresh(req);
    } catch (const mesh::FaultExhaustedError&) {
      if (t.fault_ == nullptr) throw;  // not ours to recover
      // Same degradation contract as batches, but an update cannot be
      // "reported failed" — the structure already mutated, so a permanently
      // stale engine would wedge the tenant. Degrade the plan and re-run
      // the refresh fault-free: applied-after-degradation, never wedged.
      t.fault_->degrade();
      t.fault_->count_degraded_batch();
      ++t.acct_.degraded_refreshes;
      engine.bind_sinks(trace_, nullptr);
      rep = engine.refresh(req);
    }
    clock_ += rep.cost.steps;
    t.acct_.refresh += rep.cost;
    t.updates_.pop_front();  // releases whatever the UpdateFn captured
    if (rep.incremental)
      ++t.acct_.incremental_refreshes;
    else
      ++t.acct_.full_refreshes;
  }
}

std::size_t ServiceScheduler::pump() {
  ++round_;  // the breaker's probe clock: a trip this round probes the next
  // Brownout assessment once per round, on the aggregate backlog BEFORE any
  // serving — a deterministic function of the submit/pump sequence. DRR
  // only: the exhaustive baseline stays unfair on purpose.
  bool brownout = false;
  if (cfg_.brownout.watermark_queries > 0 &&
      cfg_.policy == SchedulePolicy::kDeficitRoundRobin) {
    std::size_t backlog = 0;
    for (const auto& t : tenants_) backlog += t->queue_.pending_queries();
    brownout = backlog > cfg_.brownout.watermark_queries;
    if (brownout) ++brownout_rounds_;
  }
  std::size_t resolved = 0;
  for (const auto& tp : tenants_) {
    TenantSession& t = *tp;
    apply_ready_updates(t);
    // Shed before the empty check: a queue made entirely of expired work
    // must still resolve (kShed) this round, not linger as phantom backlog.
    resolved += shed_expired(t);
    if (t.queue_.empty()) {
      t.deficit_ = 0;  // no banking while idle
      continue;
    }
    if (cfg_.policy == SchedulePolicy::kExhaustive) {
      // Unfair baseline: drain this tenant before anyone else runs. Updates
      // whose barrier resolves mid-drain apply between slices so later
      // queries see them (read-your-writes).
      while (!t.queue_.empty()) {
        resolved += serve_slice(t, t.slice_cap()).resolved;
        apply_ready_updates(t);
      }
      t.deficit_ = 0;
      continue;
    }
    std::size_t quantum = quantum_for(t);
    if (brownout && over_target(t)) {
      // Over-target tenants yield: scaled quantum (floored at 1) shifts
      // this round's service toward tenants still inside their targets.
      quantum = scale_count(quantum, kBrownoutQuantumScale);
      ++t.acct_.brownout_deprioritized;
    }
    t.deficit_ += quantum;
    while (!t.queue_.empty() && t.deficit_ > 0) {
      const ServeOutcome out =
          serve_slice(t, std::min(t.slice_cap(), t.deficit_));
      t.deficit_ -= out.taken;
      resolved += out.resolved;
      // A faulted attempt ends the tenant's turn: its retries queue behind
      // everyone else's round instead of taxing co-resident tenants now.
      if (out.faulted) break;
      // A slice that resolved an update's barrier lets the update apply
      // before the tenant's next slice — queries admitted after the write
      // are always served by the refreshed engine.
      apply_ready_updates(t);
    }
    if (t.queue_.empty()) t.deficit_ = 0;
  }
  return resolved;
}

std::size_t ServiceScheduler::run_until_idle() {
  std::size_t resolved = 0;
  while (!idle()) resolved += pump();
  return resolved;
}

std::vector<TenantReport> ServiceScheduler::reports() const {
  std::vector<TenantReport> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->report());
  return out;
}

void ServiceScheduler::export_metrics() const {
  if (trace_ == nullptr) return;
  // Deterministic counts and charges only — wall time stays in the span
  // histograms, keeping rec->metric() bit-identical across runs.
  for (const auto& tp : tenants_) {
    const TenantReport r = tp->report();
    const auto metric = [&](const char* name, double value) {
      trace_->metric(trace::tenant_metric(r.tenant, name), value);
    };
    metric("submitted", static_cast<double>(r.submitted));
    metric("completed", static_cast<double>(r.completed));
    metric("failed_queries", static_cast<double>(r.failed_queries));
    metric("rejected_queries", static_cast<double>(r.rejected_queries));
    metric("rejected_backpressure",
           static_cast<double>(r.rejected_backpressure));
    metric("shed", static_cast<double>(r.shed));
    metric("failed_fast", static_cast<double>(r.failed_fast));
    metric("brownout_deprioritized",
           static_cast<double>(r.brownout_deprioritized));
    metric("batches", static_cast<double>(r.batches));
    metric("degraded_batches", static_cast<double>(r.degraded_batches));
    metric("replans", static_cast<double>(r.replans));
    metric("updates_submitted", static_cast<double>(r.updates_submitted));
    metric("updates_applied", static_cast<double>(r.updates_applied));
    metric("incremental_refreshes",
           static_cast<double>(r.incremental_refreshes));
    metric("full_refreshes", static_cast<double>(r.full_refreshes));
    metric("degraded_refreshes", static_cast<double>(r.degraded_refreshes));
    metric("refresh_steps", r.refresh.steps);
    metric("charged_steps", r.charged().steps);
    if (tp->fault_ != nullptr)
      mesh::record_fault_metrics(trace_, *tp->fault_,
                                 trace::tenant_metric(r.tenant, ""));
  }
  trace_->metric("service.tenants", static_cast<double>(tenants_.size()));
  trace_->metric("service.clock_steps", clock_);
  trace_->metric("service.rounds", static_cast<double>(round_));
  trace_->metric("service.brownout_rounds",
                 static_cast<double>(brownout_rounds_));
  // One breaker block per distinct ENGINE with an armed breaker (tenants
  // may share an engine; dedupe by identity so counters export once).
  std::vector<const Engine*> seen;
  for (const auto& tp : tenants_) {
    const Engine& e = tp->engine();
    if (!e.breaker().enabled()) continue;
    if (std::find(seen.begin(), seen.end(), &e) != seen.end()) continue;
    seen.push_back(&e);
    const std::string id = breaker_id(e);
    const BreakerCounters& c = e.breaker().counters();
    const auto bmetric = [&](const char* name, double value) {
      trace_->metric(trace::breaker_metric(id, name), value);
    };
    bmetric("trips", static_cast<double>(c.trips));
    bmetric("probes", static_cast<double>(c.probes));
    bmetric("recoveries", static_cast<double>(c.recoveries));
    bmetric("fail_fast_batches", static_cast<double>(c.fail_fast_batches));
    bmetric("fail_fast_queries", static_cast<double>(c.fail_fast_queries));
    bmetric("consecutive_failures",
            static_cast<double>(e.breaker().consecutive_failures()));
    bmetric("open", e.breaker().state() == BreakerState::kOpen ? 1.0 : 0.0);
  }
}

}  // namespace meshsearch::service
