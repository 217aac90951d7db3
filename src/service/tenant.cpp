#include "service/tenant.hpp"

#include <utility>

#include "service/scheduler.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace meshsearch::service {

const char* shed_mode_name(ShedMode m) {
  switch (m) {
    case ShedMode::kNone: return "none";
    case ShedMode::kDeadline: return "deadline";
  }
  return "unknown";
}

TenantSession::TenantSession(std::string name, Engine& engine,
                             TenantQuota quota, SloPolicy slo,
                             const double* clock)
    : name_(std::move(name)),
      engine_(&engine),
      quota_(quota),
      slo_(slo),
      clock_(clock) {
  MS_CHECK_MSG(clock_ != nullptr, "TenantSession requires a service clock");
}

Submission TenantSession::submit(std::vector<msearch::Query> queries) {
  Submission sub;
  sub.first = stream_.size();
  if (queries.empty()) return sub;
  const std::size_t n = queries.size();
  if (outstanding_ + n > quota_.max_outstanding) {
    // Reject the whole call before anything is enqueued or charged; the
    // caller can split/shrink and retry once earlier work completes.
    ++rejected_submissions_;
    rejected_queries_ += n;
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "admission";
    ctx.site = name_;
    throw CapacityError(
        "tenant '" + name_ + "' submit of " + std::to_string(n) +
            " queries exceeds max_outstanding quota (" +
            std::to_string(outstanding_) + " outstanding, quota " +
            std::to_string(quota_.max_outstanding) + ")",
        std::move(ctx));
  }
  if (slo_.max_queue != 0 && queue_.pending_queries() + n > slo_.max_queue) {
    // Backpressure: the pending queue (admitted, not yet dispatched) is the
    // overload signal — outstanding() also counts in-flight work the engine
    // is already serving. Rejected whole, nothing enqueued or charged, and
    // the error carries a retry-after hint in virtual steps from the DRR
    // drain-rate estimate so a caller can back off deterministically.
    ++rejected_submissions_;
    rejected_queries_ += n;
    rejected_backpressure_ += n;
    const double retry_after =
        sched_ != nullptr ? sched_->retry_after_hint(*this, n) : 0.0;
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "admission";
    ctx.site = name_;
    throw BackpressureError(
        "tenant '" + name_ + "' submit of " + std::to_string(n) +
            " queries exceeds max_queue backpressure watermark (" +
            std::to_string(queue_.pending_queries()) + " queued, watermark " +
            std::to_string(slo_.max_queue) + "); retry after ~" +
            std::to_string(retry_after) + " virtual steps",
        retry_after, queue_.pending_queries(), slo_.max_queue,
        std::move(ctx));
  }
  sub.count = n;
  std::vector<std::uint32_t> indices;
  indices.reserve(n);
  const double now = *clock_;
  for (auto& q : queries) {
    indices.push_back(static_cast<std::uint32_t>(stream_.size()));
    stream_.push_back(std::move(q));
    state_.push_back(QueryState::kPending);
    submit_steps_.push_back(now);
    resolve_steps_.push_back(0);
  }
  queue_.enqueue(std::move(indices));
  outstanding_ += n;
  return sub;
}

std::size_t TenantSession::submit_update(UpdateFn mutate) {
  if (!mutate) {
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "admission";
    ctx.site = name_;
    throw InvalidInputError(
        "tenant '" + name_ + "' submit_update requires a callable",
        std::move(ctx));
  }
  PendingUpdate u;
  u.mutate = std::move(mutate);
  u.barrier = stream_.size();
  updates_.push_back(std::move(u));
  return updates_submitted_++;
}

QueryState TenantSession::poll(Ticket t) const {
  MS_CHECK_MSG(t < state_.size(), "poll on an unknown ticket");
  return state_[t];
}

const msearch::Query& TenantSession::result(Ticket t) const {
  MS_CHECK_MSG(t < state_.size(), "result on an unknown ticket");
  MS_CHECK_MSG(state_[t] != QueryState::kPending,
               "result on a still-pending ticket (poll first)");
  if (state_[t] == QueryState::kShed) {
    // A shed query has no answer — the typed error replays the shed
    // decision (admission clock vs deadline) instead of handing back a
    // query whose answer fields were never written.
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "result";
    ctx.site = name_;
    throw DeadlineExceededError(name_, engine_->dataset(), submit_steps_[t],
                                slo_.deadline_steps, resolve_steps_[t],
                                std::move(ctx));
  }
  return stream_[t];
}

std::size_t TenantSession::slice_cap() const {
  const std::size_t cap = engine_->capacity();
  if (fault_ != nullptr && fault_->armed())
    return fault_->effective_capacity(cap);
  return std::max<std::size_t>(1, cap);
}

TenantReport TenantSession::report() const {
  TenantReport rep;
  rep.tenant = name_;
  rep.submitted = stream_.size();
  rep.completed = completed_;
  rep.failed_queries = failed_;
  rep.outstanding = outstanding_;
  rep.rejected_submissions = rejected_submissions_;
  rep.rejected_queries = rejected_queries_;
  rep.rejected_backpressure = rejected_backpressure_;
  rep.shed = shed_;
  rep.failed_fast = failed_fast_;
  rep.brownout_deprioritized = brownout_deprioritized_;
  rep.batches = batches_;
  rep.degraded_batches = degraded_batches_;
  rep.replans = replans_;
  rep.updates_submitted = updates_submitted_;
  rep.updates_applied = updates_applied_;
  rep.incremental_refreshes = incremental_refreshes_;
  rep.full_refreshes = full_refreshes_;
  rep.degraded_refreshes = degraded_refreshes_;
  rep.inject = inject_;
  rep.run = run_;
  rep.refresh = refresh_;
  rep.queue_wait_steps = queue_wait_steps_;
  rep.latency_steps = latency_steps_;
  return rep;
}

}  // namespace meshsearch::service
