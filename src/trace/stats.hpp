// Runtime observability: a lock-light registry of named gauges and
// log-bucketed wall-clock histograms.
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
//   * Histograms are sharded per thread: an update touches only the calling
//     thread's shard (relaxed atomics, no lock), and snapshot() merges all
//     shards. Gauges are registry-level (set-semantics does not shard) — one
//     relaxed atomic store per set.
//   * Handles (Gauge/Histogram) resolve the name once under the registry
//     mutex and are then lock-free to use; create them outside hot loops.
//     The by-name convenience calls (set/observe) re-resolve per call and
//     are meant for phase-end granularity.
//   * A disabled registry does NO work: updates return after one relaxed
//     load, no shard is ever allocated, snapshot() is empty. Disabled-mode
//     cost is one branch — near-zero overhead, verified by
//     tests/test_stats.cpp.
//   * Percentile math is util::LogHistogram (util/stats.hpp) — the single
//     implementation shared with the bench harness and SLO reports.
//
// The process-global registry (stats::global()) starts enabled iff the
// MESHSEARCH_STATS environment variable is truthy ("1", "true", "on", ...);
// TraceRecorder mirrors its observations there so one env flag lights up
// end-of-run summaries (examples/example_main.hpp) without any wiring.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/stats.hpp"

namespace meshsearch::stats {

/// Merged, point-in-time view of a registry. Entries appear in registration
/// order (deterministic given a deterministic registration sequence).
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
  explicit StatsRegistry(bool enabled = true);
  ~StatsRegistry();
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Cheap copyable handles. A handle from a disabled registry (or a
  /// default-constructed one) is inert. Handles stay valid for the life of
  /// the registry; create them once, outside hot loops.
  class Gauge {
   public:
    Gauge() = default;
    void set(double value) const;

   private:
    friend class StatsRegistry;
    Gauge(StatsRegistry* r, std::uint32_t id) : reg_(r), id_(id) {}
    StatsRegistry* reg_ = nullptr;
    std::uint32_t id_ = 0;
  };
  class Histogram {
   public:
    Histogram() = default;
    void observe(double value) const;

   private:
    friend class StatsRegistry;
    Histogram(StatsRegistry* r, std::uint32_t id) : reg_(r), id_(id) {}
    StatsRegistry* reg_ = nullptr;
    std::uint32_t id_ = 0;
  };

  /// Resolve (registering on first use) a named instrument. Returns an inert
  /// handle while the registry is disabled — no allocation happens.
  Gauge gauge(std::string_view name);
  Histogram histogram(std::string_view name);

  /// By-name conveniences (resolve + update in one call).
  void set(std::string_view name, double value) { gauge(name).set(value); }
  void observe(std::string_view name, double value) {
    histogram(name).observe(value);
  }

  /// Merged view across all thread shards, registration order. Safe to call
  /// concurrently with updates (values are merged with relaxed reads; a
  /// concurrent snapshot sees each update either fully or not at all per
  /// instrument, which is all the exporters need).
  Snapshot snapshot() const;

  /// Per-thread shards allocated so far — 0 until the first enabled
  /// histogram update; stays 0 forever on a disabled registry (the
  /// disabled-mode zero-allocation check).
  std::size_t shard_count() const;

  /// Process-wide registry, initially enabled iff MESHSEARCH_STATS is truthy.
  static StatsRegistry& global();

  /// True when MESHSEARCH_STATS is set to a truthy value (read per call).
  static bool env_enabled();

 private:
  struct Shard;
  friend class Gauge;
  friend class Histogram;

  static constexpr std::size_t kBlockSlots = 64;
  static constexpr std::size_t kMaxBlocks = 256;  ///< 16384 ids per kind

  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameMap =
      std::unordered_map<std::string, std::uint32_t, NameHash, std::equal_to<>>;

  std::uint32_t intern(std::vector<std::string>& names, NameMap& ids,
                       std::string_view name);
  Shard* shard_for_this_thread();

  std::atomic<bool> enabled_;
  const std::uint64_t uid_;  ///< distinguishes registries in the TLS cache

  mutable std::mutex mu_;  ///< guards registration + shard list
  std::vector<std::string> gauge_names_, hist_names_;
  NameMap gauge_ids_, hist_ids_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unordered_map<std::thread::id, Shard*> shard_by_thread_;

  /// Gauges: registry-level atomic<double> slots, block-allocated so
  /// existing slots never move while new gauges register.
  struct GaugeBlock {
    std::array<std::atomic<double>, kBlockSlots> v{};
  };
  std::array<std::atomic<GaugeBlock*>, kMaxBlocks> gauge_blocks_{};
  std::vector<std::unique_ptr<GaugeBlock>> gauge_block_owner_;

  std::atomic<double>* gauge_slot(std::uint32_t id, bool create);
};

}  // namespace meshsearch::stats
