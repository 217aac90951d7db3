// Deterministic fault injection for the simulated mesh.
//
// The paper's machine model is fault-free; a production-scale server is
// not. A FaultPlan is a seed-driven oracle answering "does this processor
// stall / does this link drop a word / does this link corrupt a word /
// does this phase fail?" — every answer is a pure hash of (seed, site,
// occurrence), so a run with faults armed is exactly as deterministic as a
// fault-free run: same seed + same fault plan => bit-identical injections,
// detections, retries and outcomes.
//
// Four injection surfaces, matched to the two engines:
//
//   * cycle engine, routing: a stalled processor emits no packets for one
//     step; a dropped link delivery is detected by the receiver's per-step
//     validation and the packet stays at the head of its FIFO queue
//     (retransmitted next step). A corrupted link delivery flips one bit of
//     the payload in transit; the receiver's per-payload checksum
//     (mesh/integrity.hpp) detects the mismatch and the packet is
//     retransmitted exactly like a drop. All three only add steps — data is
//     never silently corrupted. The convergence guard is scaled while armed
//     and throws FaultExhaustedError if congestion + faults exceed it.
//   * cycle engine, lockstep primitives (shearsort / scan / broadcast): a
//     failed or corrupted step is detected and retried, adding steps under
//     the same primitive label the fault-free run records.
//   * counting engine, phase draws: the multisearch engines ask
//     draw_phase() how many attempts of each phase (Alg 1 step 0, each
//     band and B*; Alg 2/3 per log-phase step, a Constrained-Multisearch
//     call being one unit) fail before one succeeds. An attempt fails if
//     the phase draw fires (p_phase) or the end-of-phase checksum audit
//     detects transit corruption (p_corrupt, an independent draw). The
//     host work of a phase runs once; each failed attempt re-charges the
//     phase's mesh time, and the exponential backoff wait between attempts
//     is charged under trace::Primitive::kBackoff (multisearch/
//     recovery.hpp). A phase that fails max_retries + 1 times throws
//     FaultExhaustedError after its host work; the stream scheduler, whose
//     batch copy is the checkpoint, catches it, degrades capacity and
//     re-plans.
//
// The fault-free contract: a default-constructed (disarmed) FaultPlan, or
// a null CostModel::fault / Grid fault pointer, changes NOTHING — outcomes,
// charged cost and trace attribution are bit-identical to a build without
// the fault layer (tests/test_determinism.cpp, tests/test_fault.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "trace/trace.hpp"
#include "util/error.hpp"

namespace meshsearch::mesh {

/// Thrown when a phase (or a routing) exhausts its retry budget. The stream
/// scheduler turns this into capacity degradation + batch re-planning;
/// anything else propagating it is a reported failure, never a silent
/// wrong answer. Carries the fault seed, draw site and occurrence counter
/// (both in the message and as structured fields), so the exact failing
/// draw can be replayed from the error alone.
class FaultExhaustedError : public meshsearch::Error {
 public:
  explicit FaultExhaustedError(const std::string& message,
                               ErrorContext ctx = {})
      : Error(message, std::move(ctx)) {}

  std::uint64_t seed() const noexcept { return context().seed; }
  const std::string& site() const noexcept { return context().site; }
  std::uint64_t occurrence() const noexcept { return context().occurrence; }
};

/// Backoff after failed phase attempt a: kFaultBackoffBase * 2^a steps.
inline constexpr double kFaultBackoffBase = 8.0;
/// Surviving capacity share per degradation (FaultPlan::degrade).
inline constexpr double kFaultDegradeFactor = 0.5;
/// Floor of the degraded capacity factor: below 2^-64 no std::size_t
/// capacity rounds to more than one query, so effective_capacity is 1 for
/// every engine already and further halving would change only the exported
/// fault.capacity_factor, which would underflow to 0.
inline constexpr double kFaultMinCapacityFactor = 0x1p-64;
/// Routing convergence-guard scale while a plan is armed.
inline constexpr double kFaultRouteCapFactor = 16.0;

struct FaultConfig {
  std::uint64_t seed = 0;     ///< fault-plan seed (independent of workloads)
  double p_stall = 0.0;       ///< per (step, cell) processor-stall probability
  double p_drop = 0.0;        ///< per (step, link) word-drop probability
  double p_corrupt = 0.0;     ///< per (step, link) payload-bit-flip probability
  double p_phase = 0.0;       ///< per-attempt phase-failure probability
  int max_retries = 6;        ///< phase attempts = 1 + up to max_retries
  int max_replans = 3;        ///< re-plans before a batch reports degraded
};

/// Result of one phase draw: how many attempts failed before the first
/// success, and the total exponential-backoff wait charged between them.
struct PhaseDraw {
  std::uint32_t failed_attempts = 0;
  double backoff_steps = 0;
};

/// Aggregate fault statistics, readable at any time (record_fault_metrics
/// exports them as fault.* trace metrics).
struct FaultStats {
  std::uint64_t injected_stalls = 0;
  std::uint64_t injected_drops = 0;
  std::uint64_t corrupt_injected = 0;   ///< payload words corrupted in transit
  std::uint64_t corrupt_detected = 0;   ///< checksum mismatches caught
  std::uint64_t corrupt_recovered = 0;  ///< corrupted deliveries retransmitted
  std::uint64_t detections = 0;  ///< stalls + drops + corruptions + failures
  std::uint64_t phase_failures = 0;
  std::uint64_t phase_retries = 0;  ///< successful re-runs of a failed phase
  std::uint64_t exhausted = 0;      ///< FaultExhaustedError count
  std::uint64_t lockstep_retried_steps = 0;
  double backoff_steps = 0;
  std::uint64_t degraded_batches = 0;
  std::uint64_t replanned_batches = 0;
  double capacity_factor = 1.0;
};

/// Seed-driven fault oracle. Default-constructed plans are DISARMED: every
/// query answers "no fault" without touching any counter, so a disarmed
/// plan threaded through an engine is indistinguishable from no plan.
///
/// Thread-safety: stall()/drop()/corrupt()/corrupt_bit() are pure hashes
/// plus atomic counters and may be called from parallel_for bodies (routing
/// move generation); draw_phase()/lockstep_extra()/next_route_epoch()
/// consume serial draw counters and must be called from phase-driving
/// (span-owning) threads, which the engines already guarantee.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultConfig& config) : cfg_(config) {
    armed_ = cfg_.p_stall > 0 || cfg_.p_drop > 0 || cfg_.p_corrupt > 0 ||
             cfg_.p_phase > 0;
  }

  bool armed() const { return armed_; }
  const FaultConfig& config() const { return cfg_; }

  /// Does the processor at row-major `cell` stall at `step` of routing
  /// epoch `epoch`? Pure hash; counts an injection when true.
  bool stall(std::uint64_t epoch, std::uint64_t step, std::uint64_t cell);

  /// Does the link from `from_cell` to `to_cell` drop its word at `step` of
  /// routing epoch `epoch`? Pure hash; counts an injection + detection.
  bool drop(std::uint64_t epoch, std::uint64_t step, std::uint64_t from_cell,
            std::uint64_t to_cell);

  /// Does the link from `from_cell` to `to_cell` corrupt its word at `step`
  /// of routing epoch `epoch`? Pure hash; counts an injection (detection is
  /// counted by the receiver, via count_corrupt_detected, when the payload
  /// checksum mismatches).
  bool corrupt(std::uint64_t epoch, std::uint64_t step,
               std::uint64_t from_cell, std::uint64_t to_cell);

  /// Which payload bit does a corrupted delivery flip? Deterministic
  /// companion draw to corrupt(); the result is reduced modulo the payload
  /// bit width by the caller.
  std::uint64_t corrupt_bit(std::uint64_t epoch, std::uint64_t step,
                            std::uint64_t from_cell,
                            std::uint64_t to_cell) const;

  /// Distinct routing executions must see uncorrelated faults: each call
  /// returns a fresh epoch for the stall()/drop()/corrupt() hashes.
  std::uint64_t next_route_epoch();

  /// Extra retried steps for a lockstep primitive that nominally takes
  /// `steps` steps: each step fails (is detected and retried once) with
  /// p_stall, and independently has its word corrupted-and-caught (checksum
  /// mismatch, one retry) with p_corrupt. Drawn from a serial counter so
  /// successive primitives see independent faults. Returns the extra steps.
  std::size_t lockstep_extra(std::size_t steps);

  /// Draw the retry schedule for one phase execution. Attempt a fails with
  /// p_phase, and independently with p_corrupt (the end-of-phase checksum
  /// audit detecting transit corruption); after a failed attempt the engine
  /// waits kFaultBackoffBase * 2^a steps. Throws FaultExhaustedError when all
  /// 1 + max_retries attempts fail. Draws are keyed by (seed, name,
  /// per-name occurrence counter), so the schedule is a deterministic
  /// function of the call sequence.
  PhaseDraw draw_phase(std::string_view name);

  /// Shrink surviving capacity by kFaultDegradeFactor (run_slice, after a
  /// batch exhausts its retries), never below kFaultMinCapacityFactor.
  void degrade();

  /// Capacity after degradation: max(1, floor(cap * capacity_factor)).
  std::size_t effective_capacity(std::size_t cap) const;

  void count_degraded_batch() { ++stats_degraded_; }
  void count_replanned_batch() { ++stats_replanned_; }

  /// Receiver-side bookkeeping for transit corruption: a checksum mismatch
  /// was detected / the corrupted delivery was retransmitted successfully.
  void count_corrupt_detected() {
    stats_corrupt_detected_.fetch_add(1, std::memory_order_relaxed);
  }
  void count_corrupt_recovered() {
    stats_corrupt_recovered_.fetch_add(1, std::memory_order_relaxed);
  }

  FaultStats stats() const;

 private:
  bool hash_below(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::uint64_t d, double p) const;

  FaultConfig cfg_;
  bool armed_ = false;

  std::atomic<std::uint64_t> route_epoch_{0};
  std::atomic<std::uint64_t> stats_stalls_{0};
  std::atomic<std::uint64_t> stats_drops_{0};
  std::atomic<std::uint64_t> stats_corrupt_injected_{0};
  std::atomic<std::uint64_t> stats_corrupt_detected_{0};
  std::atomic<std::uint64_t> stats_corrupt_recovered_{0};
  std::atomic<std::uint64_t> stats_degraded_{0};
  std::atomic<std::uint64_t> stats_replanned_{0};

  mutable std::mutex mu_;  ///< serial draw state below
  std::uint64_t lockstep_draws_ = 0;
  std::uint64_t lockstep_corrupt_draws_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> phase_occurrence_;
  std::uint64_t stats_phase_failures_ = 0;
  std::uint64_t stats_phase_retries_ = 0;
  std::uint64_t stats_exhausted_ = 0;
  std::uint64_t stats_lockstep_extra_ = 0;
  double stats_backoff_ = 0;
  double capacity_factor_ = 1.0;
};

/// Export the plan's statistics as fault.* metrics into `rec` (both JSON
/// exporters and metrics_table include them). Null `rec` or a disarmed
/// plan is a no-op, preserving fault-free trace bit-identity.
void record_fault_metrics(trace::TraceRecorder* rec, const FaultPlan& plan);

/// Same, with every metric name prefixed — the service layer passes
/// trace::tenant_metric(tenant, "") so a per-stream plan's fault.* family
/// lands under "tenant.<name>.fault.*" instead of the global namespace.
void record_fault_metrics(trace::TraceRecorder* rec, const FaultPlan& plan,
                          std::string_view prefix);

}  // namespace meshsearch::mesh
