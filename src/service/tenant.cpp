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
                             ServiceScheduler& sched)
    : engine_(&engine), quota_(quota), slo_(slo), sched_(sched) {
  acct_.tenant = std::move(name);
}

Submission TenantSession::submit(std::vector<msearch::Query> queries) {
  Submission sub;
  sub.first = stream_.size();
  if (queries.empty()) return sub;
  const std::size_t n = queries.size();
  if (outstanding() + n > quota_.max_outstanding) {
    // Reject the whole call before anything is enqueued or charged; the
    // caller can split/shrink and retry once earlier work completes.
    ++acct_.rejected_submissions;
    acct_.rejected_queries += n;
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "admission";
    ctx.site = name();
    throw CapacityError(
        "tenant '" + name() + "' submit of " + std::to_string(n) +
            " queries exceeds max_outstanding quota (" +
            std::to_string(outstanding()) + " outstanding, quota " +
            std::to_string(quota_.max_outstanding) + ")",
        std::move(ctx));
  }
  if (slo_.max_queue != 0 && queue_.pending_queries() + n > slo_.max_queue) {
    // Backpressure: the pending queue (admitted, not yet dispatched) is the
    // overload signal — outstanding() also counts in-flight work the engine
    // is already serving. Rejected whole, nothing enqueued or charged, and
    // the error carries a retry-after hint in virtual steps from the DRR
    // drain-rate estimate so a caller can back off deterministically.
    ++acct_.rejected_submissions;
    acct_.rejected_queries += n;
    acct_.rejected_backpressure += n;
    const double retry_after = sched_.retry_after_hint(*this, n);
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "admission";
    ctx.site = name();
    throw BackpressureError(
        "tenant '" + name() + "' submit of " + std::to_string(n) +
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
  const double now = sched_.now_steps();
  for (auto& q : queries) {
    indices.push_back(static_cast<std::uint32_t>(stream_.size()));
    stream_.push_back(std::move(q));
    state_.push_back(QueryState::kPending);
    submit_steps_.push_back(now);
    resolve_steps_.push_back(0);
  }
  queue_.enqueue(std::move(indices));
  return sub;
}

std::size_t TenantSession::submit_update(UpdateFn mutate) {
  if (!mutate) {
    ErrorContext ctx;
    ctx.engine = "service";
    ctx.phase = "admission";
    ctx.site = name();
    throw InvalidInputError(
        "tenant '" + name() + "' submit_update requires a callable",
        std::move(ctx));
  }
  PendingUpdate u;
  u.mutate = std::move(mutate);
  u.barrier = stream_.size();
  updates_.push_back(std::move(u));
  return acct_.updates_submitted++;
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
    ctx.site = name();
    throw DeadlineExceededError(name(), engine_->dataset(), submit_steps_[t],
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
  return TenantReport{acct_, submitted(), outstanding(), updates_applied()};
}

}  // namespace meshsearch::service
