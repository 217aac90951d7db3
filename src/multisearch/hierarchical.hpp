// Multisearch for hierarchical DAGs — paper §3, Algorithm 1, Theorem 2.
//
// A hierarchical DAG has levels L_0..L_h with |L_0| = 1, h = O(log n), every
// edge from L_i to L_{i+1}, and c1*mu^i <= |L_i| <= c2*mu^i for some mu > 1.
//
// Algorithm 1 decomposes the levels into bands B_0..B_{T-1} via the log*
// recursion (B_i spans levels [h - 2 log^{(i)} h, h - 1 - 2 log^{(i+1)} h],
// with log^{(0)} h = h/2) plus a constant-level suffix B*. Band B_i is
// small enough (|B_i| = O(n / (log^{(i)} h)^2)) that a copy fits in each
// submesh of a log^{(i)} h x log^{(i)} h partitioning of the mesh, so all
// queries advance through B_i *locally* in their own submesh. Within a band
// Lemma 1 splits once more: the prefix B_i^1 is replicated into Delta-h_i^2
// sub-submeshes and walked level-by-level there, the O(log Delta-h_i)-level
// suffix B_i^2 is walked level-by-level at submesh scale. B* is walked
// level-by-level on the whole mesh.
//
// Cost accounting is analytic from the band geometry (the machine is
// SIMD-lockstep: a level sweep costs its RAR whether or not a particular
// query is live), which matches the worst case the theorem bounds. Data
// advancement uses the shared master graph: all copies of a band are
// identical, so sharing host memory changes nothing observable (see
// constrained.hpp for the same argument).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mesh/cost.hpp"
#include "mesh/ops_soa.hpp"
#include "mesh/snake.hpp"
#include "multisearch/graph.hpp"
#include "multisearch/validate.hpp"
#include "util/parallel_for.hpp"

namespace meshsearch::msearch {

/// Level structure of a hierarchical DAG, derived from VertexRecord::level.
///
/// `level_work` generalizes the paper's model slightly: a query may take up
/// to level_work steps per level (edges within a level are then allowed, as
/// produced by the geometry hierarchies' candidate rings/chains — see
/// geometry/dk_hierarchy.hpp). Each level sweep of Algorithm 1 repeats
/// level_work times, a constant factor on every bound.
class HierarchicalDag {
 public:
  /// Group vertices of g by their level field and validate the hierarchical
  /// shape: contiguous levels starting at 0, |L_0| >= 1, every edge from
  /// L_i to L_i (level_work > 1 only) or L_{i+1}, geometric growth ratio mu.
  HierarchicalDag(const DistributedGraph& g, double mu,
                  std::int32_t level_work = 1);

  const DistributedGraph& graph() const { return *g_; }
  std::int32_t height() const {
    return static_cast<std::int32_t>(level_size_.size()) - 1;
  }
  double mu() const { return mu_; }
  std::int32_t level_work() const { return level_work_; }
  std::size_t level_size(std::int32_t i) const {
    return level_size_[static_cast<std::size_t>(i)];
  }
  /// Vertices in levels [lo, hi] inclusive.
  std::size_t band_vertex_count(std::int32_t lo, std::int32_t hi) const;

 private:
  const DistributedGraph* g_;
  double mu_;
  std::int32_t level_work_ = 1;
  std::vector<std::size_t> level_size_;
  std::vector<std::size_t> level_prefix_;  // prefix sums of level_size_
};

/// One band B_i of the decomposition plus its derived submesh geometry.
struct Band {
  std::int32_t lo = 0, hi = 0;     ///< level range, inclusive
  std::size_t vertices = 0;        ///< |B_i| (vertex count)
  std::uint32_t grid = 1;          ///< submeshes per side (the "log^(i) h")
  std::size_t submesh_elems = 0;   ///< processors per B_i-submesh
  std::int32_t split = 0;  ///< first level of B_i^2 (Lemma 1 inner split)
  std::uint32_t inner_grid = 1;    ///< sub-submeshes per side for B_i^1
};

struct HierarchicalPlan {
  std::vector<Band> bands;     ///< B_0 .. B_{T-1}
  std::int32_t bstar_lo = 0;   ///< B* = levels [bstar_lo, h]
  std::int32_t c = 2;          ///< the constant with mu^y >= y^2 for y >= c
};

/// Band construction strategy.
///
/// kPaper is §3's log* decomposition verbatim: O(1) memory per processor,
/// but the bands only exist once log_mu(h) >= c — for slowly-growing DAGs
/// (mu < ~2) that needs h >= mu^c levels, far beyond feasible sizes, and
/// the algorithm degenerates to the O(sqrt(n) log n) level-by-level B*
/// regime (measured in E1/E5).
///
/// kGeometric is our engineering variant: levels are grouped into maximal
/// runs whose cumulative prefix still fits a submesh of the same
/// power-of-two grid, so the grid halves from band to band. Every level is
/// processed in a submesh proportional to the DAG prefix above it, giving
/// the O(sqrt n) total for any mu > 1 at practical sizes — at the price of
/// O(log n) copies per processor instead of the paper's O(1) memory.
enum class PlanKind { kPaper, kGeometric };

/// Compute the band decomposition of §3 for `dag` on a mesh of `shape`.
HierarchicalPlan make_hierarchical_plan(const HierarchicalDag& dag,
                                        mesh::MeshShape shape,
                                        PlanKind kind = PlanKind::kPaper);

/// Step 1 of Algorithm 1: the label(p) registers. For i = T-1 .. 0, every
/// processor in the top-left B_i-submesh of each B_{i+1}-submesh gets
/// label i (later iterations overwrite with smaller indices, exactly as the
/// paper's note describes). Returns one label per processor (snake order),
/// -1 where no band stores data. The Theorem-2 space argument — each
/// B_{i+1}-submesh keeps >= Theta(|B_i|) label-i processors, so one copy of
/// B_i fits with O(1) words per processor — is checked by
/// verify_label_capacity below (and by tests).
std::vector<std::int32_t> band_labels(const HierarchicalPlan& plan,
                                      mesh::MeshShape shape);

/// Check the storage-capacity claim of the Theorem 2 proof: for every band
/// i and every B_{i+1}-submesh, the number of label-i processors is at
/// least half the B_i-submesh size (the paper's 1 - sum (ratio^2) bound
/// with our power-of-two grids gives >= 2/3). Throws on violation.
void verify_label_capacity(const HierarchicalPlan& plan,
                           mesh::MeshShape shape,
                           const std::vector<std::int32_t>& labels);

struct BandCostReport {
  std::int32_t lo = 0, hi = 0;
  std::size_t vertices = 0;
  std::uint32_t grid = 1;
  double setup_steps = 0;  ///< duplication into submeshes (step 3a + 1-2 share)
  double solve_steps = 0;  ///< Lemma 1 solve (step 3b)
  double lemma1_bound = 0; ///< sqrt(|B_i|) * log Delta-h_i, for E1b
};

struct HierarchicalRunResult {
  mesh::Cost cost;
  std::vector<BandCostReport> bands;
  double bstar_steps = 0;
  std::int32_t bstar_levels = 0;
  std::size_t total_visits = 0;
  /// Sweeps actually charged per DAG level (lockstep SIMD execution: a
  /// level's sweep repeats until every query advanced past it, i.e. the max
  /// number of visits any query spent in that level).
  std::vector<std::int32_t> level_sweeps;
};

/// Cost of Algorithm 1 (steps 1-4) on `shape`. `sweeps` gives the number of
/// RAR sweeps per DAG level; pass nullptr to charge the worst case
/// (level_work sweeps per level). hierarchical_multisearch measures the
/// realized sweeps during its data pass and charges those — still the
/// lockstep-SIMD max over all queries, just not the static upper bound.
/// `charge_band_setup` = false skips the per-band steps 1-3a charges (sort
/// labels + duplicate B_i): a warm engine (stream.hpp PreparedSearch) pays
/// band_setup_cost once at preparation and reuses the replicas per batch.
/// Under an armed m.fault, the checkpoint units — step 0, each band (its
/// setup + Lemma-1 solve), the B* sweep — draw their retries in that order
/// before the first charge, so an exhausted unit throws FaultExhaustedError
/// with nothing charged; failed attempts are re-charged in full plus backoff.
HierarchicalRunResult hierarchical_cost(
    const HierarchicalDag& dag, const HierarchicalPlan& plan,
    mesh::MeshShape shape, const mesh::CostModel& m,
    const std::vector<std::int32_t>* sweeps = nullptr,
    bool charge_band_setup = true);

/// Exactly the steps 1-3a charges hierarchical_cost makes per band (label
/// registers, band sort, duplication into submeshes), summed over all bands
/// of `plan` — the batch-invariant part a warm engine caches.
mesh::Cost band_setup_cost(const HierarchicalPlan& plan, mesh::MeshShape shape,
                           const mesh::CostModel& m);

/// Algorithm 1: run all queries through the DAG. Queries must start at the
/// level-0 root (the w.l.o.g. full-path assumption of §3; programs whose
/// paths end early simply stop being advanced). Returns the total cost and
/// per-band breakdown.
template <SearchProgram P>
HierarchicalRunResult hierarchical_multisearch(
    const HierarchicalDag& dag, const P& prog, std::vector<Query>& queries,
    const mesh::CostModel& m, mesh::MeshShape shape,
    PlanKind kind = PlanKind::kPaper, bool charge_band_setup = true);

// ---------------------------------------------------------------------------
// implementation
// ---------------------------------------------------------------------------

namespace detail {
/// Advance every query through levels [.., hi] of the DAG (data pass only;
/// costs are analytic). Host-parallel over query chunks, each with its own
/// per-level visit histogram; `sweeps[l]` is raised to the max visits any
/// query spent at level l. Returns total visits. visit_cap guards against a
/// program cycling forever inside a level.
template <SearchProgram P>
std::size_t advance_through_levels(const DistributedGraph& g, const P& prog,
                                   std::vector<Query>& queries,
                                   std::int32_t hi, std::size_t visit_cap,
                                   std::vector<std::int32_t>& sweeps) {
  // Chunking is FIXED (util::kFixedChunks, not thread-count-derived) so the
  // per-chunk reductions below are bit-identical at any MESHSEARCH_THREADS
  // value.
  const std::size_t nchunks = util::fixed_chunk_count(queries.size());
  std::vector<std::size_t> totals(nchunks, 0);
  std::vector<std::vector<std::int32_t>> maxima(nchunks);
  util::for_fixed_chunks(queries.size(), [&](std::size_t c, std::size_t lo_q,
                                             std::size_t hi_q) {
    // Accumulate into chunk-locals and store once at the end: totals and
    // maxima rows of adjacent chunks share cache lines, and this loop is
    // the hottest in the simulator (false sharing showed up as a top cost).
    std::vector<std::int32_t> chunk_max(sweeps.size(), 0);
    std::size_t chunk_total = 0;
    // Round-robin over the live queries instead of draining each query to
    // completion: with many independent pointer chases in flight, each
    // iteration can prefetch the vertex a query kPrefetchDistance slots
    // ahead will touch, hiding the DRAM latency that dominates this loop.
    // Queries are independent and the reductions are per-query sums/maxima,
    // so the interleaving cannot change any outcome or counter. Because
    // edge levels are non-decreasing along any path (validated at the
    // engine front door), a query's visits at one level form a single
    // contiguous run — run_len IS the per-(query, level) visit count the
    // old per_level histogram tracked, flushed into chunk_max when the
    // level changes or the query leaves the band.
    std::vector<std::uint32_t> live;
    std::vector<std::int32_t> run_lvl, run_len;
    live.reserve(hi_q - lo_q);
    for (std::size_t i = lo_q; i < hi_q; ++i)
      if (!queries[i].done) live.push_back(static_cast<std::uint32_t>(i));
    run_lvl.assign(live.size(), -1);
    run_len.assign(live.size(), 0);
    while (!live.empty()) {
      std::size_t w = 0;
      const std::size_t n_live = live.size();
      for (std::size_t k = 0; k < n_live; ++k) {
        if (k + mesh::ops::soa::kPrefetchDistance < n_live) {
          const Query& qa =
              queries[live[k + mesh::ops::soa::kPrefetchDistance]];
          if (qa.current != kNoVertex && qa.next != kNoVertex)
            mesh::ops::soa::prefetch(&g.vert(qa.next));
        }
        const std::uint32_t qi = live[k];
        Query& q = queries[qi];
        std::int32_t rl = run_lvl[k];
        std::int32_t rn = run_len[k];
        bool keep = false;
        MS_CHECK_MSG(static_cast<std::size_t>(q.steps) <= visit_cap,
                     "query exceeded the per-level work bound");
        // Peek the level of the vertex the query would visit next.
        // (start() is required to be pure, so peeking is safe.)
        const Vid peek = q.current == kNoVertex ? prog.start(q) : q.next;
        if (peek == kNoVertex) {
          q.done = true;
        } else {
          const std::int32_t lvl = g.vert(peek).level;
          // lvl > hi: belongs to a later band; drop from this pass.
          if (lvl <= hi && advance_one(g, prog, q)) {
            if (lvl != rl) {
              MS_DCHECK(lvl > rl);  // monotone levels => contiguous runs
              if (rn > 0)
                chunk_max[static_cast<std::size_t>(rl)] =
                    std::max(chunk_max[static_cast<std::size_t>(rl)], rn);
              rl = lvl;
              rn = 0;
            }
            ++rn;
            ++chunk_total;
            keep = true;
          }
        }
        if (keep) {
          live[w] = qi;
          run_lvl[w] = rl;
          run_len[w] = rn;
          ++w;
        } else if (rn > 0) {
          chunk_max[static_cast<std::size_t>(rl)] =
              std::max(chunk_max[static_cast<std::size_t>(rl)], rn);
        }
      }
      live.resize(w);
      run_lvl.resize(w);
      run_len.resize(w);
    }
    totals[c] = chunk_total;
    maxima[c] = std::move(chunk_max);
  });
  std::size_t total = 0;
  for (std::size_t c = 0; c < nchunks; ++c) {
    total += totals[c];
    for (std::size_t l = 0; l < sweeps.size(); ++l)
      sweeps[l] = std::max(sweeps[l], maxima[c][l]);
  }
  return total;
}

/// Algorithm 1 behind hierarchical_multisearch. It checks only the batch
/// size: the caller has already validated the graph and supplies the band
/// plan (make_hierarchical_plan of the same DAG and shape). PreparedSearch
/// calls this directly with the plan it derived once per structure
/// generation.
template <SearchProgram P>
HierarchicalRunResult hierarchical_core(
    const HierarchicalDag& dag, const HierarchicalPlan& plan, const P& prog,
    std::vector<Query>& queries, const mesh::CostModel& m,
    mesh::MeshShape shape, const char* engine, bool charge_band_setup) {
  validate_batch_size(queries.size(), shape.size(), engine);
  reset_queries(queries);
  const DistributedGraph& g = dag.graph();
  // Paranoid mode: snapshot the post-reset input for the shadow oracle.
  const bool paranoid = paranoid_enabled();
  std::vector<Query> shadow;
  if (paranoid) shadow = queries;
  const std::size_t visit_cap =
      static_cast<std::size_t>(dag.height() + 2) *
      static_cast<std::size_t>(4 * dag.level_work() + 8);
  // Data pass, band by band, measuring the realized per-level sweep counts
  // (the lockstep machine repeats each level sweep until every query has
  // advanced past the level). Charges no simulated steps; the span records
  // its wall-clock time for the host-side profile.
  std::vector<std::int32_t> sweeps(static_cast<std::size_t>(dag.height()) + 1,
                                   0);
  std::size_t total_visits = 0;
  {
    TRACE_SPAN(m.trace, "alg1.data pass (host)");
    for (const Band& band : plan.bands)
      total_visits += advance_through_levels(g, prog, queries, band.hi,
                                             visit_cap, sweeps);
    total_visits += advance_through_levels(g, prog, queries, dag.height(),
                                           visit_cap, sweeps);
  }
  for (auto& s : sweeps) s = std::max(s, 1);
  HierarchicalRunResult res =
      hierarchical_cost(dag, plan, shape, m, &sweeps, charge_band_setup);
  res.total_visits = total_visits;
  if (paranoid) paranoid_audit(g, prog, std::move(shadow), queries, engine);
  return res;
}
}  // namespace detail

template <SearchProgram P>
HierarchicalRunResult hierarchical_multisearch(
    const HierarchicalDag& dag, const P& prog, std::vector<Query>& queries,
    const mesh::CostModel& m, mesh::MeshShape shape, PlanKind kind,
    bool charge_band_setup) {
  // Front door: reject malformed input before any phase is charged.
  const char* engine =
      kind == PlanKind::kPaper ? "alg1-paper" : "alg1-geometric";
  validate_graph(dag.graph(), engine);
  validate_graph_fits(dag.graph(), shape, engine);
  return detail::hierarchical_core(
      dag, make_hierarchical_plan(dag, shape, kind), prog, queries, m, shape,
      engine, charge_band_setup);
}

}  // namespace meshsearch::msearch
