#include "mesh/fault.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace meshsearch::mesh {

namespace {

/// A chain of util::mix64 (splitmix64) rounds. Fault draws must be
/// independent of workload RNG streams, so the plan hashes its own chain
/// instead of sharing util::Rng state.
std::uint64_t hash4(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                    std::uint64_t d) {
  using util::mix64;
  return mix64(mix64(mix64(mix64(a) ^ b) ^ c) ^ d);
}

/// Map a 64-bit hash to [0, 1) and compare against p.
bool below(std::uint64_t h, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^53
  return u < p;
}

std::uint64_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the phase name
  for (const char ch : name)
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ull;
  return h;
}

}  // namespace

bool FaultPlan::hash_below(std::uint64_t a, std::uint64_t b, std::uint64_t c,
                           std::uint64_t d, double p) const {
  return below(hash4(cfg_.seed ^ a, b, c, d), p);
}

bool FaultPlan::stall(std::uint64_t epoch, std::uint64_t step,
                      std::uint64_t cell) {
  if (!armed_ || cfg_.p_stall <= 0) return false;
  // Domain tag 1: stall draws never collide with drop draws.
  if (!hash_below(1, epoch, step, cell, cfg_.p_stall)) return false;
  stats_stalls_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultPlan::drop(std::uint64_t epoch, std::uint64_t step,
                     std::uint64_t from_cell, std::uint64_t to_cell) {
  if (!armed_ || cfg_.p_drop <= 0) return false;
  // Domain tag 2; the link identity folds both endpoints.
  if (!hash_below(2, epoch, step, (from_cell << 32) ^ to_cell, cfg_.p_drop))
    return false;
  stats_drops_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool FaultPlan::corrupt(std::uint64_t epoch, std::uint64_t step,
                        std::uint64_t from_cell, std::uint64_t to_cell) {
  if (!armed_ || cfg_.p_corrupt <= 0) return false;
  // Domain tag 5: independent of stall/drop draws on the same link+step.
  if (!hash_below(5, epoch, step, (from_cell << 32) ^ to_cell, cfg_.p_corrupt))
    return false;
  stats_corrupt_injected_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

std::uint64_t FaultPlan::corrupt_bit(std::uint64_t epoch, std::uint64_t step,
                                     std::uint64_t from_cell,
                                     std::uint64_t to_cell) const {
  // Domain tag 6: the bit choice is a pure companion hash to corrupt(), so
  // the same (epoch, step, link) always flips the same bit.
  return hash4(cfg_.seed ^ 6, epoch, step, (from_cell << 32) ^ to_cell);
}

std::uint64_t FaultPlan::next_route_epoch() {
  return route_epoch_.fetch_add(1, std::memory_order_relaxed);
}

std::size_t FaultPlan::lockstep_extra(std::size_t steps) {
  if (!armed_ || (cfg_.p_stall <= 0 && cfg_.p_corrupt <= 0)) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t extra = 0;
  if (cfg_.p_stall > 0) {
    for (std::size_t k = 0; k < steps; ++k)
      // Domain tag 3. A failed lockstep step is detected by the per-step
      // validation and retried exactly once (the retry itself is assumed to
      // land — a second failure would fold into p_stall^2, below noise).
      if (hash_below(3, lockstep_draws_++, k, 0, cfg_.p_stall)) ++extra;
  }
  if (cfg_.p_corrupt > 0) {
    // Domain tag 8, separate serial counter: a corrupted lockstep word is
    // caught by the per-payload checksum and the step retried once. Keeping
    // the counter separate leaves p_stall-only draw streams bit-identical
    // to plans without p_corrupt.
    std::size_t corrupted = 0;
    for (std::size_t k = 0; k < steps; ++k)
      if (hash_below(8, lockstep_corrupt_draws_++, k, 0, cfg_.p_corrupt))
        ++corrupted;
    if (corrupted > 0) {
      stats_corrupt_injected_.fetch_add(corrupted, std::memory_order_relaxed);
      stats_corrupt_detected_.fetch_add(corrupted, std::memory_order_relaxed);
      stats_corrupt_recovered_.fetch_add(corrupted,
                                         std::memory_order_relaxed);
      extra += corrupted;
    }
  }
  stats_lockstep_extra_ += extra;
  return extra;
}

PhaseDraw FaultPlan::draw_phase(std::string_view name) {
  PhaseDraw d;
  if (!armed_ || (cfg_.p_phase <= 0 && cfg_.p_corrupt <= 0)) return d;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = phase_occurrence_.find(name);
  if (it == phase_occurrence_.end())
    it = phase_occurrence_.emplace(std::string(name), 0).first;
  const std::uint64_t occurrence = it->second++;
  const std::uint64_t key = hash_name(name);
  const std::uint32_t attempts_allowed =
      1u + static_cast<std::uint32_t>(std::max(0, cfg_.max_retries));
  std::uint64_t corrupted_attempts = 0;
  for (std::uint32_t a = 0; a < attempts_allowed; ++a) {
    // Domain tag 4 (phase failure) and tag 7 (end-of-phase checksum audit
    // catching transit corruption); one independent draw of each per
    // attempt. p_corrupt draws consume no serial state beyond the shared
    // occurrence counter, so p_phase-only streams are unchanged.
    const bool phase_fail = hash_below(4, key, occurrence, a, cfg_.p_phase);
    const bool corrupt_fail = hash_below(7, key, occurrence, a, cfg_.p_corrupt);
    if (corrupt_fail) ++corrupted_attempts;
    if (!phase_fail && !corrupt_fail) {
      d.failed_attempts = a;
      stats_phase_failures_ += a;
      stats_phase_retries_ += a;
      if (corrupted_attempts > 0) {
        stats_corrupt_injected_.fetch_add(corrupted_attempts,
                                          std::memory_order_relaxed);
        stats_corrupt_detected_.fetch_add(corrupted_attempts,
                                          std::memory_order_relaxed);
        stats_corrupt_recovered_.fetch_add(corrupted_attempts,
                                           std::memory_order_relaxed);
      }
      // Exponential backoff between attempts: base * 2^j after attempt j.
      for (std::uint32_t j = 0; j < a; ++j)
        d.backoff_steps += kFaultBackoffBase * std::ldexp(1.0, static_cast<int>(j));
      stats_backoff_ += d.backoff_steps;
      return d;
    }
  }
  stats_phase_failures_ += attempts_allowed;
  ++stats_exhausted_;
  if (corrupted_attempts > 0) {
    // Corruptions on exhausted attempts were detected but not recovered.
    stats_corrupt_injected_.fetch_add(corrupted_attempts,
                                      std::memory_order_relaxed);
    stats_corrupt_detected_.fetch_add(corrupted_attempts,
                                      std::memory_order_relaxed);
  }
  ErrorContext ctx;
  ctx.phase = std::string(name);
  ctx.site = std::string(name);
  ctx.seed = cfg_.seed;
  ctx.occurrence = occurrence;
  ctx.has_seed = true;
  throw FaultExhaustedError("phase '" + std::string(name) + "' failed " +
                                std::to_string(attempts_allowed) +
                                " attempts (retry budget exhausted)",
                            std::move(ctx));
}

void FaultPlan::degrade() {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_factor_ = std::max(capacity_factor_ * kFaultDegradeFactor,
                              kFaultMinCapacityFactor);
}

std::size_t FaultPlan::effective_capacity(std::size_t cap) const {
  std::lock_guard<std::mutex> lock(mu_);
  const double c = std::floor(static_cast<double>(cap) * capacity_factor_);
  return std::max<std::size_t>(1, static_cast<std::size_t>(c));
}

FaultStats FaultPlan::stats() const {
  FaultStats s;
  s.injected_stalls = stats_stalls_.load(std::memory_order_relaxed);
  s.injected_drops = stats_drops_.load(std::memory_order_relaxed);
  s.corrupt_injected =
      stats_corrupt_injected_.load(std::memory_order_relaxed);
  s.corrupt_detected =
      stats_corrupt_detected_.load(std::memory_order_relaxed);
  s.corrupt_recovered =
      stats_corrupt_recovered_.load(std::memory_order_relaxed);
  s.degraded_batches = stats_degraded_.load(std::memory_order_relaxed);
  s.replanned_batches = stats_replanned_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  s.phase_failures = stats_phase_failures_;
  s.phase_retries = stats_phase_retries_;
  s.exhausted = stats_exhausted_;
  s.lockstep_retried_steps = stats_lockstep_extra_;
  s.backoff_steps = stats_backoff_;
  s.capacity_factor = capacity_factor_;
  // Every injected fault is detected (that is the point: never a silent
  // wrong answer); lockstep retries detect one fault per retried step.
  s.detections = s.injected_stalls + s.injected_drops + s.corrupt_detected +
                 s.phase_failures + s.lockstep_retried_steps;
  return s;
}

void record_fault_metrics(trace::TraceRecorder* rec, const FaultPlan& plan) {
  record_fault_metrics(rec, plan, "");
}

void record_fault_metrics(trace::TraceRecorder* rec, const FaultPlan& plan,
                          std::string_view prefix) {
  if (rec == nullptr || !plan.armed()) return;
  const FaultStats s = plan.stats();
  // rec->metric() is backed by the recorder's StatsRegistry, so these land
  // in the same store the wall-clock histograms and stream.* SLO gauges use
  // — all three exporters (Perfetto, metrics JSON, metrics_table) read the
  // fault.* family from that one source. The prefix puts a per-stream plan's
  // family under its owner's namespace (e.g. "tenant.acme." -> the service
  // layer's per-tenant fault report).
  const auto metric = [&](const char* name, double value) {
    rec->metric(std::string(prefix) + name, value);
  };
  metric("fault.injected_stalls", static_cast<double>(s.injected_stalls));
  metric("fault.injected_drops", static_cast<double>(s.injected_drops));
  metric("fault.corrupt.injected", static_cast<double>(s.corrupt_injected));
  metric("fault.corrupt.detected", static_cast<double>(s.corrupt_detected));
  metric("fault.corrupt.recovered", static_cast<double>(s.corrupt_recovered));
  metric("fault.detections", static_cast<double>(s.detections));
  metric("fault.phase_failures", static_cast<double>(s.phase_failures));
  metric("fault.phase_retries", static_cast<double>(s.phase_retries));
  metric("fault.exhausted", static_cast<double>(s.exhausted));
  metric("fault.lockstep_retried_steps",
         static_cast<double>(s.lockstep_retried_steps));
  metric("fault.backoff_steps", s.backoff_steps);
  metric("fault.degraded_batches", static_cast<double>(s.degraded_batches));
  metric("fault.replanned_batches", static_cast<double>(s.replanned_batches));
  metric("fault.capacity_factor", s.capacity_factor);
}

}  // namespace meshsearch::mesh
