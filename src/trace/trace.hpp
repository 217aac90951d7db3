// Observability layer: per-primitive cost attribution and hierarchical
// phase spans, shared by both engines.
//
// The paper's bounds are time decompositions — Theorem 2's O(sqrt n) is the
// sum/max of band setup, Lemma-1 solves, and the B* sweep — so a single
// opaque Cost total cannot explain where simulated time goes. A
// TraceRecorder captures that decomposition as it happens:
//
//   * per-primitive counters: every charged (counting engine) or measured
//     (cycle engine) primitive execution is recorded as
//     (primitive, submesh size p, steps, calls), aggregated into a
//     histogram keyed by (primitive, p);
//   * an ordered event log of the same records, so two engines running one
//     workload can be compared operation by operation (cross-engine
//     divergence becomes a queryable sequence diff);
//   * hierarchical phase spans (TRACE_SPAN) carrying both simulated-step
//     and wall-clock durations, matching the paper's step numbering.
//
// The recorder is a passive sink: CostModel (mesh/cost.hpp) and the cycle
// engine (mesh/grid.hpp, mesh/cycle_ops.hpp) each take an optional
// TraceRecorder* and record into it when non-null — a null sink costs one
// pointer test per primitive. Exporters for Chrome/Perfetto trace-event
// JSON and flat metrics JSON/CSV live in trace/export.hpp.
//
// Thread-safety: count() may be called from any thread (host-side
// parallel_for regions); spans are single-thread-at-a-time. While the span
// stack is non-empty, only the thread that opened the outermost span may
// begin or end spans — begin_span/end_span enforce this with an always-on
// owning-thread check that throws (never silently corrupts the Perfetto
// export). Ownership resets when the stack empties, so successive phases
// may be driven from different threads. The practical rule: keep SpanScope
// objects outside parallel_for regions; count() inside them is fine.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "trace/stats.hpp"

namespace meshsearch::trace {

/// The mesh primitives both engines account for. The counting engine
/// charges closed-form bounds per primitive; the cycle engine records
/// measured step counts under the same labels.
enum class Primitive : std::uint8_t {
  kSort = 0,
  kScan,
  kRoute,
  kBroadcast,
  kReduce,
  kRar,       ///< random access read (concurrent-read construction)
  kRaw,       ///< random access write with combining
  kCompress,
  kBackoff,   ///< fault-recovery wait between phase retry attempts
  kRebuild,   ///< dynamic-update refresh: re-distributing dirty records
              ///< (and replicas) after an apply_updates batch
};
inline constexpr std::size_t kPrimitiveCount = 10;

const char* primitive_name(Primitive p);

/// Histogram key: which primitive, on how large a (sub)mesh.
struct PrimitiveKey {
  Primitive prim = Primitive::kSort;
  double p = 0;  ///< processors of the charged/measured (sub)mesh

  friend bool operator<(const PrimitiveKey& a, const PrimitiveKey& b) {
    if (a.prim != b.prim) return a.prim < b.prim;
    return a.p < b.p;
  }
  friend bool operator==(const PrimitiveKey&, const PrimitiveKey&) = default;
};

struct PrimitiveStat {
  std::uint64_t calls = 0;
  double steps = 0;  ///< total simulated steps attributed to this key

  friend bool operator==(const PrimitiveStat&, const PrimitiveStat&) = default;
};

/// One recorded primitive execution, in call order.
struct Event {
  Primitive prim = Primitive::kSort;
  double p = 0;
  double steps = 0;
  std::uint64_t calls = 1;
  double sim_begin = 0;  ///< cumulative recorded steps before this event
};

/// A named scalar derived from a run rather than charged by it — throughput
/// counters (queries/step), amortization fractions, batch counts. Metrics
/// ride along in the metrics JSON and at the bottom of metrics_table, where
/// a fraction next to the attribution histogram explains it (e.g. the
/// stream scheduler's amortized-setup share).
struct Metric {
  std::string name;
  double value = 0;

  friend bool operator==(const Metric&, const Metric&) = default;
};

/// One phase span. sim_* are cumulative recorded simulated steps at
/// begin/end (so sim_end - sim_begin is the span's simulated duration under
/// sequential composition); wall_* are microseconds since the recorder was
/// constructed.
struct Span {
  std::string name;
  std::int32_t depth = 0;  ///< nesting depth (0 = top level)
  double sim_begin = 0;
  double sim_end = 0;
  double wall_begin_us = 0;
  double wall_end_us = 0;
  bool closed = false;
};

class TraceRecorder {
 public:
  /// `engine` tags the trace ("counting" / "cycle") in every export.
  explicit TraceRecorder(std::string engine = "counting");

  /// Record `calls` back-to-back executions of `prim` on a p-processor
  /// (sub)mesh costing `steps` simulated steps in total. Thread-safe.
  void count(Primitive prim, double p, double steps, std::uint64_t calls = 1);

  /// Open / close a phase span. Spans nest (LIFO). Prefer TRACE_SPAN /
  /// SpanScope, which pair these calls by scope. Throws std::logic_error
  /// when called from a thread other than the current span-stack owner
  /// (e.g. from inside a parallel_for body while a span is open).
  void begin_span(std::string_view name);
  void end_span();

  const std::string& engine() const { return engine_; }

  /// Cumulative simulated steps recorded so far (all primitives).
  double total_steps() const;

  /// Snapshot of the per-(primitive, p) histogram.
  std::map<PrimitiveKey, PrimitiveStat> counters() const;

  /// Snapshot of the ordered event log.
  std::vector<Event> events() const;

  /// Snapshot of all spans in begin order. Spans still open are reported
  /// with closed == false and sim_end/wall_end_us frozen at "now".
  std::vector<Span> spans() const;

  /// Set (or overwrite) a named scalar metric. Thread-safe; insertion order
  /// is preserved so exported reports read in the order the run emitted.
  /// Backed by a StatsRegistry gauge, so the lookup is hashed (a bench
  /// setting 10k metrics per sweep stays linear, not quadratic) and all
  /// exporters read metrics and wall histograms from one source.
  /// Mirrored to the process-global registry when MESHSEARCH_STATS=1.
  void metric(std::string_view name, double value);

  /// Snapshot of the named metrics in first-insertion order.
  std::vector<Metric> metrics() const;

  /// Runtime (wall-clock) stats riding alongside the charged-cost trace:
  /// the metric() gauges plus, as the only histograms, one per span name.
  /// end_span() records each closed span's wall duration into the histogram
  /// "wall.phase.<name>" (trailing " <number>" suffixes are collapsed so
  /// per-batch spans share one histogram — "stream.batch N" and
  /// "service.batch N" are the per-batch wall timers), mirrored to the
  /// process-global registry when MESHSEARCH_STATS=1. Wall-clock values are
  /// observability only — they are NOT part of the 1-vs-8-thread
  /// bit-identity contract, which pins outcomes, charges, and attribution
  /// (DESIGN.md §5, decision 13). Read-only: metric() and end_span() are
  /// the registry's only writers, one locked table write each (two with
  /// the global mirror on).
  const stats::StatsRegistry& stats() const { return stats_; }

 private:
  double wall_now_us() const;

  std::string engine_;
  std::chrono::steady_clock::time_point epoch_;
  stats::StatsRegistry stats_{/*enabled=*/true};
  mutable std::mutex mu_;
  double sim_now_ = 0;
  std::map<PrimitiveKey, PrimitiveStat> counters_;
  std::vector<Event> events_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of indices into spans_
  std::thread::id span_owner_;     ///< owner while open_ is non-empty
};

/// Histogram key for a span name: per-batch spans like "stream.batch 17"
/// collapse to "stream.batch" so one histogram aggregates all batches.
std::string span_histogram_name(std::string_view span_name);

/// Namespace a metric under a tenant: ("acme", "queue_wait") ->
/// "tenant.acme.queue_wait". Characters outside [A-Za-z0-9._-] in the tenant
/// id are replaced with '_' so arbitrary tenant names cannot collide with or
/// corrupt the dotted metric grammar the exporters parse. An empty metric
/// yields the bare prefix "tenant.<id>." for callers that prepend it
/// themselves (record_fault_metrics).
std::string tenant_metric(std::string_view tenant, std::string_view metric);

/// Namespace a metric under a warm engine's circuit breaker:
/// ("dataset/alg1-paper", "trips") -> "service.breaker.dataset_alg1-paper.trips"
/// with the same character sanitization as tenant_metric (the '/' in an
/// engine-key name becomes '_').
std::string breaker_metric(std::string_view engine, std::string_view metric);

/// RAII span guard. A null recorder makes every operation a no-op, so call
/// sites need no branching.
class SpanScope {
 public:
  SpanScope(TraceRecorder* rec, std::string_view name) : rec_(rec) {
    if (rec_ != nullptr) {
      sim_begin_ = rec_->total_steps();
      rec_->begin_span(name);
    }
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() {
    if (rec_ != nullptr) rec_->end_span();
  }

  /// Simulated steps recorded since this span opened — lets reports (e.g.
  /// BandCostReport) read their numbers back out of the trace.
  double sim_elapsed() const {
    return rec_ != nullptr ? rec_->total_steps() - sim_begin_ : 0.0;
  }

 private:
  TraceRecorder* rec_;
  double sim_begin_ = 0;
};

}  // namespace meshsearch::trace

#define MS_TRACE_CAT_IMPL(a, b) a##b
#define MS_TRACE_CAT(a, b) MS_TRACE_CAT_IMPL(a, b)

/// Open a phase span on `rec` (a TraceRecorder*, may be null) lasting until
/// the end of the enclosing scope: TRACE_SPAN(m.trace, "band_setup");
#define TRACE_SPAN(rec, name)                                     \
  ::meshsearch::trace::SpanScope MS_TRACE_CAT(ms_trace_span_,     \
                                              __LINE__)((rec), (name))
