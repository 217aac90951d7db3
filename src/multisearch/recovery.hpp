// Phase-level retry for the multisearch engines.
//
// The engines advance query state in discrete phases (Alg 1 step 0, each
// band and B*; Alg 2/3 log-phase steps 1-4, where steps 2/4 treat one whole
// Constrained-Multisearch call as one unit). A phase's charges are a pure
// function of known quantities (band geometry and realized sweeps;
// Constrained-Multisearch's copies and rounds), and a failed attempt would
// repeat the host work exactly. So the host work runs once and only the
// charges repeat: each failed attempt is re-charged in full (the mesh
// really did the work) under a "fault.retry <unit>" span, then the backoff
// wait is charged under trace::Primitive::kBackoff, so the armed cost model
// prices recovery instead of hiding it. Algorithm 1 draws all of its units
// after its data pass (hierarchical_cost); Alg 2/3 draw each step after its
// host work (recovered_phase). Either way an exhausted unit throws
// FaultExhaustedError after the batch's queries have advanced; the caller's
// batch copy (run_slice) is the checkpoint that keeps the stream untouched.
//
// With a null or disarmed CostModel::fault, recovered_phase is exactly
// `return body();` — no extra charges, no extra spans — which keeps
// fault-free runs bit-identical to a build without the fault layer.
#pragma once

#include <string>
#include <string_view>

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

/// Charge one phase whose body is a pure cost computation under the fault
/// oracle: draw its retries, then charge_attempts. Propagates
/// FaultExhaustedError from draw_phase when the retry budget is exhausted.
template <typename Body>
mesh::Cost recovered_phase(const mesh::CostModel& m, double p,
                           std::string_view name, Body&& body) {
  if (m.fault == nullptr || !m.fault->armed()) return body();
  return charge_attempts(m, p, name, m.fault->draw_phase(name), body);
}

}  // namespace meshsearch::msearch::detail
