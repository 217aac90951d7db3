// Simulated parallel time accounting.
//
// Every mesh primitive returns the number of elementary mesh steps it takes
// (one step = O(1) local compute + one word moved between grid neighbours,
// the machine model of the paper). Costs compose algebraically:
//
//     sequential composition  ->  operator+
//     "independently and in parallel on each submesh"  ->  par() (max)
//
// so a multisearch algorithm's total simulated time is an ordinary value
// threaded through the code, visible at every call site where the paper
// says "in parallel".
//
// CostModel charges each primitive on a p-processor (sub)mesh from the
// fixed constants below. By default it charges the optimal O(sqrt p)
// mesh-sort bound (Schnorr–Shamir style, 3*sqrt(p)); `physical_sort`
// charges the shearsort bound sqrt(p)*(log2 p + 1) instead — the cycle
// engine actually runs shearsort, and experiment E7 uses this switch to
// show the claimed asymptotics degrade by exactly a log factor under a
// suboptimal sort.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>

#include "trace/trace.hpp"

namespace meshsearch::mesh {

class FaultPlan;  // mesh/fault.hpp — optional fault-injection oracle

/// Simulated mesh steps. A thin wrapper over double so that step counts
/// cannot be accidentally mixed with other scalar quantities.
struct Cost {
  double steps = 0;

  constexpr Cost() = default;
  constexpr explicit Cost(double s) : steps(s) {}

  constexpr Cost& operator+=(Cost o) {
    steps += o.steps;
    return *this;
  }
  friend constexpr Cost operator+(Cost a, Cost b) {
    return Cost{a.steps + b.steps};
  }
  friend constexpr Cost operator*(double k, Cost c) {
    return Cost{k * c.steps};
  }
  friend constexpr bool operator<(Cost a, Cost b) { return a.steps < b.steps; }
  friend constexpr bool operator==(Cost a, Cost b) = default;
};

/// Parallel composition: branches run concurrently, time is the maximum.
constexpr Cost par(Cost a, Cost b) { return Cost{std::max(a.steps, b.steps)}; }

constexpr Cost par(std::initializer_list<Cost> cs) {
  Cost m;
  for (Cost c : cs) m = par(m, c);
  return m;
}

/// Running max accumulator for loops over parallel branches.
class ParAccumulator {
 public:
  void add(Cost c) { max_ = par(max_, c); }
  Cost total() const { return max_; }

 private:
  Cost max_;
};

// Charged step constants for the counting engine's primitives, each a
// multiple of sqrt(p) on a p-processor (sub)mesh. Routing has no constant
// of its own: sort-based routing is charged the sort bound plus one
// traversal (CostModel::route_steps).

/// Optimal mesh sort.
inline constexpr double kSortC = 3.0;
/// Snake prefix scan (row scan + column scan + fix).
inline constexpr double kScanC = 2.0;
/// Broadcast from one processor (row then columns).
inline constexpr double kBcastC = 2.0;
/// Semigroup reduction to one processor.
inline constexpr double kReduceC = 2.0;

/// The counting engine's charges: CostModel turns the constants above into
/// charged Cost values.
///
/// Every primitive takes an optional `times` — "this primitive runs `times`
/// times back to back" — so call sites that sweep a level k times charge
/// (and attribute, see below) all k executions in one call.
///
/// When `trace` is set, each charge is also recorded into the
/// trace::TraceRecorder under its primitive label, giving per-primitive
/// cost attribution for free at every call site that charges through the
/// model. Composite primitives (rar/raw/compress/route) record only
/// themselves, never their building blocks, so attributed steps sum exactly
/// to the charged total. A null sink costs one pointer test.
struct CostModel {
  bool physical_sort = false;  ///< charge shearsort O(sqrt(p) log p) instead
  trace::TraceRecorder* trace = nullptr;  ///< optional attribution sink (not owned)
  FaultPlan* fault = nullptr;  ///< optional fault oracle (not owned); null or
                               ///< disarmed leaves every charge untouched

  double sqrt_p(double p) const { return std::sqrt(std::max(1.0, p)); }

  Cost sort(double p, double times = 1.0) const {
    return charge(trace::Primitive::kSort, p, times, sort_steps(p));
  }
  Cost scan(double p, double times = 1.0) const {
    return charge(trace::Primitive::kScan, p, times, scan_steps(p));
  }
  Cost route(double p, double times = 1.0) const {
    return charge(trace::Primitive::kRoute, p, times, route_steps(p));
  }
  Cost broadcast(double p, double times = 1.0) const {
    return charge(trace::Primitive::kBroadcast, p, times, kBcastC * sqrt_p(p));
  }
  Cost reduce(double p, double times = 1.0) const {
    return charge(trace::Primitive::kReduce, p, times, kReduceC * sqrt_p(p));
  }

  /// Random access read: sort requests by address, rank, fetch via one
  /// routing, segmented broadcast for concurrent reads, route answers back.
  /// (A constant number of sorts/scans/routes — the standard construction.)
  Cost rar(double p, double times = 1.0) const {
    return charge(trace::Primitive::kRar, p, times,
                  2.0 * sort_steps(p) + 2.0 * scan_steps(p) +
                      2.0 * route_steps(p));
  }
  /// Random access write with combining; same skeleton minus the return trip.
  Cost raw(double p, double times = 1.0) const {
    return charge(trace::Primitive::kRaw, p, times,
                  sort_steps(p) + scan_steps(p) + route_steps(p));
  }
  /// Compress marked records to a prefix: scan + route.
  Cost compress(double p, double times = 1.0) const {
    return charge(trace::Primitive::kCompress, p, times,
                  scan_steps(p) + route_steps(p));
  }

  /// Fault-recovery backoff: `steps` idle steps waited between phase retry
  /// attempts (mesh/fault.hpp). Charged under its own primitive so the
  /// attribution table still sums exactly to the charged total when faults
  /// are armed. Zero steps charge (and record) nothing.
  Cost backoff(double p, double steps) const {
    if (steps <= 0) return Cost{};
    return charge(trace::Primitive::kBackoff, p, 1.0, steps);
  }

  /// Dynamic-update refresh: `times` rounds of re-distributing dirty
  /// records (and their band replicas) onto a p-processor submesh. Each
  /// round is one sort (collect the dirty records into address order) plus
  /// one routing (deliver them), the standard redistribution skeleton.
  /// Charged under its own primitive so incremental refresh cost is
  /// separable from setup and search in the attribution table.
  Cost rebuild(double p, double times = 1.0) const {
    return charge(trace::Primitive::kRebuild, p, times,
                  sort_steps(p) + route_steps(p));
  }

 private:
  double sort_steps(double p) const {
    if (physical_sort) return sqrt_p(p) * (std::log2(std::max(2.0, p)) + 1.0);
    return kSortC * sqrt_p(p);
  }
  double scan_steps(double p) const { return kScanC * sqrt_p(p); }
  // Sort-based routing inherits the sort bound plus one traversal.
  double route_steps(double p) const { return sort_steps(p) + sqrt_p(p); }

  Cost charge(trace::Primitive prim, double p, double times,
              double steps) const {
    if (times <= 0) return Cost{};
    if (trace != nullptr)
      trace->count(prim, p, times * steps,
                   static_cast<std::uint64_t>(
                       std::llround(std::max(1.0, times))));
    return Cost{times * steps};
  }
};

}  // namespace meshsearch::mesh
