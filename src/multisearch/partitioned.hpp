// Multisearch for partitionable graphs — paper §4.5 (Algorithm 2, directed
// alpha-partitionable) and §4.6 (Algorithm 3, undirected
// alpha-beta-partitionable).
//
// One log-phase is:
//   1. every query visits the first/next node of its path   (global RAR)
//   2. Constrained-Multisearch(Psi_A, .)                    (Lemma 3)
//   3. every query visits the next node                     (global RAR)
//   4. Constrained-Multisearch(Psi_B, .)                    (Lemma 3)
// For Algorithm 2, Psi_A == Psi_B == G(S) = {H_1..H_k1, T_1..T_k2}.
// For Algorithm 3, Psi_A = G(S_1) and Psi_B = G(S_2).
// The driver iterates log-phases until every search path has terminated,
// ceil(r / log n) times for longest path r (Theorems 5 and 7).
//
// Under an armed fault plan each step is one recovery unit: its host work
// runs once, then recovered_phase draws its retries and re-charges every
// failed attempt plus backoff. A step that exhausts its retries throws
// FaultExhaustedError after its host work has advanced the queries.
#pragma once

#include <string>
#include <vector>

#include "multisearch/constrained.hpp"
#include "multisearch/recovery.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"

namespace meshsearch::msearch {

struct PartitionedRunResult {
  mesh::Cost cost;
  std::size_t log_phases = 0;
  std::size_t total_visits = 0;
  std::size_t copies = 0;  ///< Gamma copies made over all constrained calls
  std::int32_t longest_path = 0;  ///< r: max steps over queries at the end
};

/// One global multistep: every live query visits the next node in its path
/// (one full-mesh RAR, host-parallel over query chunks). Returns the number
/// of queries that advanced.
template <SearchProgram P>
std::size_t global_multistep(const DistributedGraph& g, const P& prog,
                             std::vector<Query>& queries) {
  return advance_all(g, prog, queries);
}

namespace detail {
/// The log-phase loop behind multisearch_partitioned. It checks only the
/// batch size: the caller has already validated the graph and both
/// splittings and supplies each splitting's Constrained-Multisearch submesh
/// capacity (constrained_capacity). PreparedSearch calls this directly with
/// the values it derived once per structure generation.
template <SearchProgram P>
PartitionedRunResult partitioned_core(const DistributedGraph& g,
                                      const Splitting& psi_a, std::size_t cap_a,
                                      const Splitting& psi_b, std::size_t cap_b,
                                      const P& prog, std::vector<Query>& queries,
                                      const mesh::CostModel& m,
                                      mesh::MeshShape shape,
                                      bool duplicate_copies) {
  constexpr const char* kEngine = "partitioned";
  validate_batch_size(queries.size(), shape.size(), kEngine);
  PartitionedRunResult res;
  const double p = static_cast<double>(shape.size());
  reset_queries(queries);
  // Paranoid mode: snapshot the post-reset input for the shadow oracle.
  const bool paranoid = paranoid_enabled();
  std::vector<Query> shadow;
  if (paranoid) shadow = queries;
  TRACE_SPAN(m.trace, "partitioned multisearch");
  // Each step advances the queries once, then charges through
  // recovered_phase, which re-charges failed attempts (recovery.hpp).
  const auto global_step = [&](const char* span, const char* unit) {
    trace::SpanScope s(m.trace, span);
    res.total_visits += global_multistep(g, prog, queries);
    res.cost += recovered_phase(m, p, unit, [&] { return m.rar(p); });
  };
  // The whole Constrained-Multisearch call (its steps 1-6) is one unit.
  const auto constrained_step = [&](const char* span, const char* unit,
                                    const Splitting& psi, std::size_t cap) {
    trace::SpanScope s(m.trace, span);
    const ConstrainedStats st = constrained_pass(g, psi, cap, prog, queries,
                                                 shape, duplicate_copies);
    res.cost += recovered_phase(
        m, p, unit, [&] { return constrained_charges(st, cap, m, p); });
    res.total_visits += st.advanced;
    res.copies += st.copies;
  };
  while (!all_done(queries)) {
    trace::SpanScope phase_span(
        m.trace, "log-phase " + std::to_string(res.log_phases));
    global_step("phase.step1: global multistep", "phase.step1");
    constrained_step("phase.step2: constrained(Psi_A)", "phase.step2", psi_a,
                     cap_a);
    global_step("phase.step3: global multistep", "phase.step3");
    constrained_step("phase.step4: constrained(Psi_B)", "phase.step4", psi_b,
                     cap_b);
    ++res.log_phases;
    // Termination check: a reduction over query flags.
    res.cost += m.reduce(p);
  }
  res.longest_path = max_steps(queries);
  if (paranoid) paranoid_audit(g, prog, std::move(shadow), queries, kEngine);
  return res;
}
}  // namespace detail

template <SearchProgram P>
PartitionedRunResult multisearch_partitioned(
    const DistributedGraph& g, const Splitting& psi_a, const Splitting& psi_b,
    const P& prog, std::vector<Query>& queries, const mesh::CostModel& m,
    mesh::MeshShape shape, bool duplicate_copies = true) {
  // Front door: reject malformed input before any phase is charged.
  constexpr const char* kEngine = "partitioned";
  validate_graph(g, kEngine);
  validate_splitting_input(g, psi_a, kEngine);
  validate_splitting_input(g, psi_b, kEngine);
  validate_graph_fits(g, shape, kEngine);
  return detail::partitioned_core(g, psi_a, constrained_capacity(psi_a, shape),
                                  psi_b, constrained_capacity(psi_b, shape),
                                  prog, queries, m, shape, duplicate_copies);
}

/// Algorithm 2: alpha-partitionable directed graphs (Theorem 5).
template <SearchProgram P>
PartitionedRunResult multisearch_alpha(const DistributedGraph& g,
                                       const Splitting& gs, const P& prog,
                                       std::vector<Query>& queries,
                                       const mesh::CostModel& m,
                                       mesh::MeshShape shape,
                                       bool duplicate_copies = true) {
  return multisearch_partitioned(g, gs, gs, prog, queries, m, shape,
                                 duplicate_copies);
}

/// Algorithm 3: alpha-beta-partitionable undirected graphs (Theorem 7).
template <SearchProgram P>
PartitionedRunResult multisearch_alpha_beta(const DistributedGraph& g,
                                            const Splitting& gs1,
                                            const Splitting& gs2, const P& prog,
                                            std::vector<Query>& queries,
                                            const mesh::CostModel& m,
                                            mesh::MeshShape shape,
                                            bool duplicate_copies = true) {
  return multisearch_partitioned(g, gs1, gs2, prog, queries, m, shape,
                                 duplicate_copies);
}

}  // namespace meshsearch::msearch
