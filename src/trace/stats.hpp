// Runtime observability: a registry of named gauges and log-bucketed
// wall-clock histograms.
//
// The charged-cost trace layer (trace/trace.hpp) records what the paper's
// model PREDICTS; this registry measures what the machine actually DOES.
// It holds exactly what something writes: the gauges behind
// TraceRecorder::metric() (stream.*, tenant.*, fault.* counts, each exported
// once) and the wall.phase.<span> histograms end_span() feeds — the per-batch
// spans "stream.batch N" / "service.batch N" are the one per-batch wall
// timer. Both ride in every exporter, but only charged costs, outcomes, and
// attribution are part of the 1-vs-8-thread bit-identity contract
// (DESIGN.md §5, decision 13): wall-clock values are observability only and
// may differ between runs.
//
// Design:
//   * One mutex over one table: a name -> index map, the gauges and the
//     histograms, each kept in registration order. set(), observe() and
//     snapshot() each take the lock once; a write is one hash lookup plus a
//     store (gauge) or a util::LogHistogram::observe (histogram), which
//     already tracks exact count, sum, min and max. Writers update at
//     phase-end granularity (one write per closed span or exported metric),
//     so the lock is never on a per-query path.
//   * Gauges and histograms have separate namespaces: one name may be both.
//   * A disabled registry does NO work: updates return after one branch,
//     nothing is registered, snapshot() is empty. enabled() is a plain flag
//     read outside the lock, so flip it (set_enabled) only while no thread
//     is writing — the tests that toggle the global registry do so between
//     runs.
//   * Percentile math is util::LogHistogram (util/stats.hpp) — the single
//     implementation shared with the bench harness and SLO reports.
//
// The process-global registry (stats::global()) starts enabled iff the
// MESHSEARCH_STATS environment variable is truthy ("1", "true", "on", ...);
// TraceRecorder mirrors its observations there so one env flag lights up
// end-of-run summaries (examples/example_main.hpp) without any wiring.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace meshsearch::stats {

/// Point-in-time view of a registry. Entries appear in registration order
/// (deterministic given a deterministic registration sequence).
struct GaugeSnapshot {
  std::string name;
  double value = 0;
};
struct HistogramSnapshot {
  std::string name;
  util::LogHistogram hist;
};
struct Snapshot {
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;
};

class StatsRegistry {
 public:
  explicit StatsRegistry(bool enabled = true) : enabled_(enabled) {}
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Set the gauge `name` (registering it on first use); the last write
  /// wins. No-op while disabled.
  void set(std::string_view name, double value);
  /// Record one observation into the histogram `name` (registering it on
  /// first use). No-op while disabled.
  void observe(std::string_view name, double value);

  /// Copy of every gauge and histogram, registration order. Safe to call
  /// concurrently with updates: each update is seen fully or not at all.
  Snapshot snapshot() const;

  /// Process-wide registry, initially enabled iff MESHSEARCH_STATS is truthy.
  static StatsRegistry& global();

  /// True when MESHSEARCH_STATS is set to a truthy value (read per call).
  static bool env_enabled();

 private:
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// Indices into table_.gauges / table_.histograms; kNone = not registered
  /// as that kind.
  struct Slots {
    static constexpr std::uint32_t kNone = UINT32_MAX;
    std::uint32_t gauge = kNone;
    std::uint32_t hist = kNone;
  };
  Slots& slots(std::string_view name);  ///< find or insert; caller holds mu_

  bool enabled_;
  mutable std::mutex mu_;  ///< guards ids_ and table_
  std::unordered_map<std::string, Slots, NameHash, std::equal_to<>> ids_;
  Snapshot table_;
};

}  // namespace meshsearch::stats
