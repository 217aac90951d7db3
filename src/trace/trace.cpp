#include "trace/trace.hpp"

#include "util/check.hpp"

namespace meshsearch::trace {

const char* primitive_name(Primitive p) {
  switch (p) {
    case Primitive::kSort: return "sort";
    case Primitive::kScan: return "scan";
    case Primitive::kRoute: return "route";
    case Primitive::kBroadcast: return "broadcast";
    case Primitive::kReduce: return "reduce";
    case Primitive::kRar: return "rar";
    case Primitive::kRaw: return "raw";
    case Primitive::kCompress: return "compress";
    case Primitive::kBackoff: return "backoff";
    case Primitive::kRebuild: return "rebuild";
  }
  return "unknown";
}

TraceRecorder::TraceRecorder(std::string engine)
    : engine_(std::move(engine)), epoch_(std::chrono::steady_clock::now()) {}

double TraceRecorder::wall_now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void TraceRecorder::count(Primitive prim, double p, double steps,
                          std::uint64_t calls) {
  if (calls == 0) return;
  const std::lock_guard<std::mutex> lock(mu_);
  auto& stat = counters_[PrimitiveKey{prim, p}];
  stat.calls += calls;
  stat.steps += steps;
  events_.push_back(Event{prim, p, steps, calls, sim_now_});
  sim_now_ += steps;
}

void TraceRecorder::begin_span(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (open_.empty()) {
    span_owner_ = std::this_thread::get_id();
  } else {
    MS_CHECK_MSG(span_owner_ == std::this_thread::get_id(),
                 "begin_span from a non-owning thread while spans are open "
                 "(spans are single-thread-at-a-time; keep SpanScope outside "
                 "parallel_for regions — see trace.hpp)");
  }
  Span s;
  s.name = std::string(name);
  s.depth = static_cast<std::int32_t>(open_.size());
  s.sim_begin = sim_now_;
  s.wall_begin_us = wall_now_us();
  open_.push_back(spans_.size());
  spans_.push_back(std::move(s));
}

void TraceRecorder::end_span() {
  std::string name;
  double wall_us = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    MS_CHECK_MSG(!open_.empty(), "end_span without a matching begin_span");
    MS_CHECK_MSG(span_owner_ == std::this_thread::get_id(),
                 "end_span from a non-owning thread while spans are open "
                 "(spans are single-thread-at-a-time; keep SpanScope outside "
                 "parallel_for regions — see trace.hpp)");
    Span& s = spans_[open_.back()];
    open_.pop_back();
    s.sim_end = sim_now_;
    s.wall_end_us = wall_now_us();
    s.closed = true;
    name = s.name;
    wall_us = s.wall_end_us - s.wall_begin_us;
  }
  // Wall-clock phase histogram — outside mu_ (the registry locks for itself
  // and never calls back into the recorder). Observability only: charged
  // cost, outcomes, and attribution are untouched.
  stats_.observe(span_histogram_name(name), wall_us);
}

double TraceRecorder::total_steps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return sim_now_;
}

std::map<PrimitiveKey, PrimitiveStat> TraceRecorder::counters() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::vector<Event> TraceRecorder::events() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceRecorder::metric(std::string_view name, double value) {
  stats_.set(name, value);
}

std::string span_histogram_name(std::string_view span_name) {
  // "stream.batch 17" -> "stream.batch": strip one trailing " <digits>".
  std::string_view base = span_name;
  const auto sp = base.find_last_of(' ');
  if (sp != std::string_view::npos && sp + 1 < base.size()) {
    bool digits = true;
    for (std::size_t i = sp + 1; i < base.size(); ++i)
      if (base[i] < '0' || base[i] > '9') {
        digits = false;
        break;
      }
    if (digits) base = base.substr(0, sp);
  }
  std::string out = "wall.phase.";
  out += base;
  return out;
}

namespace {

/// Shared namespacing body: `<prefix><sanitized id>.<metric>` where id
/// characters outside [A-Za-z0-9._-] become '_'.
std::string namespaced_metric(std::string_view prefix, std::string_view id,
                              std::string_view metric) {
  std::string out(prefix);
  out.reserve(out.size() + id.size() + 1 + metric.size());
  for (const char ch : id) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '.' || ch == '_' ||
                    ch == '-';
    out += ok ? ch : '_';
  }
  out += '.';
  out += metric;
  return out;
}

}  // namespace

std::string tenant_metric(std::string_view tenant, std::string_view metric) {
  return namespaced_metric("tenant.", tenant, metric);
}

std::string breaker_metric(std::string_view engine, std::string_view metric) {
  return namespaced_metric("service.breaker.", engine, metric);
}

std::vector<Span> TraceRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> out = spans_;
  const double wall = wall_now_us();
  for (auto& s : out) {
    if (s.closed) continue;
    s.sim_end = sim_now_;
    s.wall_end_us = wall;
  }
  return out;
}

}  // namespace meshsearch::trace
