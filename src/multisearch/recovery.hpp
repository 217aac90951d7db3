// Phase-level checkpoint/retry for the multisearch engines.
//
// The engines advance query state in discrete phases (Alg 1 steps 0-4 and
// per-band sweeps; Alg 2/3 log-phase steps 1-4, where steps 2/4 treat one
// whole Constrained-Multisearch call as the checkpoint unit). Each phase is
// a pure function of its input query state, so recovery is simple: snapshot
// the state, run the phase, and if the fault oracle says the attempt failed,
// restore the snapshot and re-run after an exponential backoff wait. Failed
// attempts are charged in full (the mesh really did the work) and the
// backoff wait is charged under trace::Primitive::kBackoff, so the armed
// cost model prices recovery instead of hiding it. Algorithm 1 draws all of
// its units up front (hierarchical_cost) and charges each through the same
// charge_attempts helper.
//
// With a null or disarmed CostModel::fault, recovered_phase is exactly
// `return body();` — no snapshot, no extra charges, no extra spans — which
// is what keeps fault-free runs bit-identical to a build without the fault
// layer.
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "mesh/cost.hpp"
#include "mesh/fault.hpp"
#include "trace/trace.hpp"

namespace meshsearch::msearch::detail {

/// Charge one checkpoint unit under an already-drawn `draw`: each failed
/// attempt runs body() in full (its charges land in the trace under a
/// "fault.retry <name>" span), then the summed backoff wait is charged,
/// then the final — successful — attempt runs. With no failed attempts this
/// is exactly `return body();`.
template <typename Body>
mesh::Cost charge_attempts(const mesh::CostModel& m, double p,
                           std::string_view name, const mesh::PhaseDraw& draw,
                           Body&& body) {
  mesh::Cost cost;
  if (draw.failed_attempts > 0) {
    for (std::uint32_t a = 0; a < draw.failed_attempts; ++a) {
      trace::SpanScope retry(m.trace, "fault.retry " + std::string(name));
      cost += body();  // the wasted attempt is real work — charge it
    }
    cost += m.backoff(p, draw.backoff_steps);
  }
  cost += body();
  return cost;
}

/// Run one phase whose body is a pure cost computation under the fault
/// oracle: draw its retries, then charge_attempts. Propagates
/// FaultExhaustedError from draw_phase when the retry budget is exhausted.
template <typename Body>
mesh::Cost recovered_phase(const mesh::CostModel& m, double p,
                           std::string_view name, Body&& body) {
  if (m.fault == nullptr || !m.fault->armed()) return body();
  return charge_attempts(m, p, name, m.fault->draw_phase(name), body);
}

/// Run one phase that advances `state` (its checkpoint, typically the query
/// vector) under the fault oracle. Every attempt starts from the snapshot
/// taken before the first, so a failed attempt's progress is discarded;
/// out-parameters written by `body` are safe because the final attempt
/// writes them last. Propagates FaultExhaustedError like the overload above.
template <typename State, typename Body>
mesh::Cost recovered_phase(const mesh::CostModel& m, double p,
                           std::string_view name, State& state, Body&& body) {
  if (m.fault == nullptr || !m.fault->armed()) return body();
  const mesh::PhaseDraw draw = m.fault->draw_phase(name);
  if (draw.failed_attempts == 0) return body();
  const State snapshot = state;
  return charge_attempts(m, p, name, draw, [&] {
    state = snapshot;
    return body();
  });
}

}  // namespace meshsearch::msearch::detail
