#include "multisearch/hierarchical.hpp"

#include "mesh/submesh.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "multisearch/recovery.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"

namespace meshsearch::msearch {

HierarchicalDag::HierarchicalDag(const DistributedGraph& g, double mu,
                                 std::int32_t level_work)
    : g_(&g), mu_(mu), level_work_(level_work) {
  if (!(mu > 1.0))
    invalid_input("hierarchical DAG requires mu > 1", "HierarchicalDag");
  if (level_work < 1)
    invalid_input("hierarchical DAG requires level_work >= 1",
                  "HierarchicalDag");
  // Level monotonicity, contiguity, and degree bounds — the full hardened
  // check (also the front door for the Algorithm-1 builders).
  validate_hierarchical_graph(g, level_work);
  std::int32_t h = -1;
  for (const auto& v : g.verts()) h = std::max(h, v.level);
  MS_CHECK(h >= 0);
  level_size_.assign(static_cast<std::size_t>(h) + 1, 0);
  for (const auto& v : g.verts())
    ++level_size_[static_cast<std::size_t>(v.level)];
  level_prefix_.assign(level_size_.size() + 1, 0);
  for (std::size_t i = 0; i < level_size_.size(); ++i)
    level_prefix_[i + 1] = level_prefix_[i] + level_size_[i];
}

std::size_t HierarchicalDag::band_vertex_count(std::int32_t lo,
                                               std::int32_t hi) const {
  MS_CHECK(lo >= 0 && hi <= height() && lo <= hi);
  return level_prefix_[static_cast<std::size_t>(hi) + 1] -
         level_prefix_[static_cast<std::size_t>(lo)];
}

namespace {

/// Largest power of two <= x (x >= 1).
std::uint32_t pow2_floor(double x) {
  std::uint32_t p = 1;
  while (2.0 * p <= x) p <<= 1;
  return p;
}

/// The constant c of §3: smallest integer y >= 2 with mu^z >= z^2 for all
/// z >= y (checked over the relevant range).
std::int32_t mu_constant(double mu) {
  for (std::int32_t c = 2; c < 64; ++c) {
    bool ok = true;
    for (std::int32_t z = c; z <= 128; ++z)
      if (std::pow(mu, z) < static_cast<double>(z) * z) {
        ok = false;
        break;
      }
    if (ok) return c;
  }
  MS_CHECK_MSG(false, "mu too close to 1 for the log* recursion");
  return 64;
}

}  // namespace

namespace {

/// The kGeometric strategy: maximal level runs sharing the same
/// power-of-two grid g = pow2_floor(sqrt(n / prefix)), so each level is
/// processed in a submesh ~proportional to the DAG prefix through it.
HierarchicalPlan make_geometric_plan(const HierarchicalDag& dag,
                                     mesh::MeshShape shape) {
  HierarchicalPlan plan;
  plan.c = mu_constant(dag.mu());
  const double n = static_cast<double>(shape.size());
  std::size_t prefix = 0;
  Band cur;
  bool open = false;
  for (std::int32_t l = 0; l <= dag.height(); ++l) {
    prefix += dag.level_size(l);
    std::uint32_t g = pow2_floor(std::sqrt(n / static_cast<double>(prefix)));
    g = std::min(g, shape.side());
    if (!open || g != cur.grid) {
      if (open) plan.bands.push_back(cur);
      cur = Band{};
      cur.lo = l;
      cur.grid = g;
      cur.submesh_elems =
          shape.size() / (static_cast<std::size_t>(g) * g);
      open = true;
    }
    cur.hi = l;
    cur.split = cur.lo;  // no inner split: every level at submesh scale
    cur.inner_grid = 1;
    cur.vertices = dag.band_vertex_count(cur.lo, cur.hi);
  }
  // The last (grid == 1, or largest) run is B*: it runs at full-mesh scale
  // anyway, and leaving it as B* keeps the reports comparable.
  if (open) {
    if (cur.grid == 1) {
      plan.bstar_lo = cur.lo;
    } else {
      plan.bands.push_back(cur);
      plan.bstar_lo = dag.height() + 1;
      // Ensure B* is non-empty for reporting: peel the last level.
      if (!plan.bands.empty() && plan.bands.back().hi == dag.height()) {
        auto& b = plan.bands.back();
        if (b.lo == b.hi) {
          plan.bstar_lo = b.lo;
          plan.bands.pop_back();
        } else {
          plan.bstar_lo = b.hi;
          b.hi -= 1;
          b.vertices = dag.band_vertex_count(b.lo, b.hi);
        }
      }
    }
  } else {
    plan.bstar_lo = 0;
  }
  return plan;
}

/// Parent submesh size s_{i+1} for band i: the next band's submesh (the
/// full mesh for the last band) — Algorithm 1 steps 1, 2 and 3(a) all run
/// at the B_{i+1}-partitioning scale.
double parent_submesh_elems(const HierarchicalPlan& plan, std::size_t i,
                            mesh::MeshShape shape) {
  return i + 1 < plan.bands.size()
             ? static_cast<double>(plan.bands[i + 1].submesh_elems)
             : static_cast<double>(shape.size());
}

/// The steps 1-3a charges for one band: sort + route at s_{i+1} (steps 1-2,
/// label registers and band sort), then one more route (step 3a, duplicate
/// B_i into its submeshes). Kept as three separate charges so the event
/// sequence matches what hierarchical_cost always recorded.
mesh::Cost one_band_setup(const mesh::CostModel& m, double s_next) {
  return m.sort(s_next) + m.route(s_next) + m.route(s_next);
}

}  // namespace

mesh::Cost band_setup_cost(const HierarchicalPlan& plan, mesh::MeshShape shape,
                           const mesh::CostModel& m) {
  mesh::Cost cost;
  TRACE_SPAN(m.trace, "alg1.steps1-3a: band setup");
  for (std::size_t i = 0; i < plan.bands.size(); ++i)
    cost += one_band_setup(m, parent_submesh_elems(plan, i, shape));
  return cost;
}

HierarchicalPlan make_hierarchical_plan(const HierarchicalDag& dag,
                                        mesh::MeshShape shape,
                                        PlanKind kind) {
  if (kind == PlanKind::kGeometric && dag.height() > 0)
    return make_geometric_plan(dag, shape);
  HierarchicalPlan plan;
  const double h = static_cast<double>(dag.height());
  const double mu = dag.mu();
  plan.c = mu_constant(mu);
  const double n = static_cast<double>(shape.size());

  if (dag.height() == 0) {
    plan.bstar_lo = 0;
    return plan;
  }

  // Iterated logarithm sequence: l[0] = h/2, l[i] = log_mu(l[i-1]) for i>=1
  // except l[1] = log_mu(h) by the paper's convention (log^{(1)} x = log x).
  std::vector<double> l;
  l.push_back(h / 2.0);
  double cur = h;
  while (true) {
    cur = std::log(cur) / std::log(mu);
    if (cur < static_cast<double>(plan.c)) {
      l.push_back(cur);  // l[T] < c terminates the recursion; B* begins here
      break;
    }
    l.push_back(cur);
  }
  // T = log*_mu h = max{ i >= 1 : l[i] >= c }. Bands exist for i = 0..T-1.
  std::size_t T = 0;
  for (std::size_t i = 1; i < l.size(); ++i)
    if (l[i] >= static_cast<double>(plan.c)) T = i;
  if (T == 0) {
    // h < mu^c: the whole (O(1)-level) DAG is B*.
    plan.bstar_lo = 0;
    return plan;
  }

  // Integer band boundaries: band i spans [w_i, w_{i+1} - 1], B* = [w_T, h].
  std::vector<std::int32_t> w(T + 1);
  w[0] = 0;
  for (std::size_t i = 1; i <= T; ++i) {
    const double b = h - 2.0 * l[i];
    w[i] = std::clamp(static_cast<std::int32_t>(std::ceil(b)), w[i - 1],
                      dag.height());
  }
  plan.bstar_lo = w[T];

  for (std::size_t i = 0; i < T; ++i) {
    if (w[i] > w[i + 1] - 1) continue;  // band emptied by rounding
    Band band;
    band.lo = w[i];
    band.hi = w[i + 1] - 1;
    band.vertices = dag.band_vertex_count(band.lo, band.hi);
    // grid = submeshes per side; a copy of B_i must fit in one submesh.
    band.grid = pow2_floor(
        std::sqrt(n / static_cast<double>(std::max<std::size_t>(
                          1, band.vertices))));
    band.grid = std::min(band.grid, shape.side());
    // Grids must strictly shrink band to band (the paper's log^{(i)} h are
    // strictly decreasing); the label scheme of Step 1 needs it.
    if (!plan.bands.empty())
      band.grid = std::min(band.grid, plan.bands.back().grid / 2);
    band.grid = std::max<std::uint32_t>(band.grid, 1);
    band.submesh_elems = shape.size() / (static_cast<std::size_t>(band.grid) *
                                         band.grid);
    // Lemma 1 inner split: B_i^2 = the last 2*ceil(log_mu Delta-h_i) levels.
    const std::int32_t dh = band.hi - band.lo + 1;
    const std::int32_t tail = 2 * static_cast<std::int32_t>(std::ceil(
                                      std::log(std::max(2.0, double(dh))) /
                                      std::log(mu)));
    band.split = std::max(band.lo, band.hi + 1 - tail);
    const std::size_t b1 =
        band.split > band.lo
            ? dag.band_vertex_count(band.lo, band.split - 1)
            : 0;
    band.inner_grid =
        b1 == 0 ? 1
                : pow2_floor(std::sqrt(
                      static_cast<double>(band.submesh_elems) /
                      static_cast<double>(std::max<std::size_t>(1, b1))));
    plan.bands.push_back(band);
  }
  return plan;
}

std::vector<std::int32_t> band_labels(const HierarchicalPlan& plan,
                                      mesh::MeshShape shape) {
  std::vector<std::int32_t> labels(shape.size(), -1);
  // i = T-1 .. 0: smaller bands overwrite later, as in the paper's Step 1.
  for (std::size_t bi = plan.bands.size(); bi-- > 0;) {
    const auto& band = plan.bands[bi];
    const std::uint32_t g_i = band.grid;
    const std::uint32_t g_next = bi + 1 < plan.bands.size()
                                     ? plan.bands[bi + 1].grid
                                     : 1;  // the full mesh
    const mesh::Partition part_i(shape, g_i);
    const std::uint32_t ratio = g_i / std::max<std::uint32_t>(1, g_next);
    if (ratio == 0) continue;
    // Top-left B_i-block of every B_{i+1}-block: block coordinates that are
    // multiples of `ratio` in both directions. Iterate the g_next^2
    // qualifying blocks directly and fill each one — size/ratio^2 writes
    // instead of a predicate test over all shape.size() processors. Blocks
    // own disjoint index sets, so the pass runs host-parallel; bands stay
    // sequential because later (smaller-index) bands overwrite.
    const std::size_t nsel = static_cast<std::size_t>(g_next) * g_next;
    util::parallel_for(std::size_t{0}, nsel, [&](std::size_t s) {
      const std::uint32_t br =
          static_cast<std::uint32_t>(s / g_next) * ratio;
      const std::uint32_t bc =
          static_cast<std::uint32_t>(s % g_next) * ratio;
      const std::uint32_t block = br * g_i + bc;
      for (std::size_t local = 0; local < part_i.block_size(); ++local)
        labels[part_i.global_of(block, local)] =
            static_cast<std::int32_t>(bi);
    });
  }
  return labels;
}

void verify_label_capacity(const HierarchicalPlan& plan,
                           mesh::MeshShape shape,
                           const std::vector<std::int32_t>& labels) {
  MS_CHECK(labels.size() == shape.size());
  for (std::size_t bi = 0; bi < plan.bands.size(); ++bi) {
    const auto& band = plan.bands[bi];
    const std::uint32_t g_next =
        bi + 1 < plan.bands.size() ? plan.bands[bi + 1].grid : 1;
    const mesh::Partition part_next(shape, std::max<std::uint32_t>(1, g_next));
    // Count label-i processors per B_{i+1}-block, one block per task: each
    // block owns a disjoint index set, so the counts are race-free and
    // identical at any thread count.
    std::vector<std::size_t> count(part_next.block_count(), 0);
    util::parallel_for(std::size_t{0}, count.size(), [&](std::size_t b) {
      std::size_t c = 0;
      for (std::size_t local = 0; local < part_next.block_size(); ++local)
        if (labels[part_next.global_of(static_cast<std::uint32_t>(b), local)] ==
            static_cast<std::int32_t>(bi))
          ++c;
      count[b] = c;
    });
    for (const auto c : count) {
      // Theta(|B_i|) with explicit constants: at least a third of the
      // B_i-submesh survives the overwrites, and the copy of B_i fits with
      // at most 4 records per processor (O(1) memory).
      MS_CHECK_MSG(3 * c >= band.submesh_elems,
                   "label capacity below a third of a B_i-submesh");
      MS_CHECK_MSG(4 * c >= band.vertices,
                   "label-i processors cannot store a copy of B_i");
    }
  }
}

HierarchicalRunResult hierarchical_cost(
    const HierarchicalDag& dag, const HierarchicalPlan& plan,
    mesh::MeshShape shape, const mesh::CostModel& m,
    const std::vector<std::int32_t>* sweeps, bool charge_band_setup) {
  HierarchicalRunResult res;
  // The per-band report is summed from the Costs the charges return, so it
  // is the same with or without a trace sink. The spans below only feed a
  // caller's sink; an untraced call (every warm batch) records nothing.
  trace::TraceRecorder* rec = m.trace;

  const double p = static_cast<double>(shape.size());
  // Sweeps per level: measured if provided, else the static bound.
  auto sweeps_at = [&](std::int32_t level) {
    if (sweeps == nullptr) return static_cast<double>(dag.level_work());
    MS_CHECK(static_cast<std::size_t>(level) < sweeps->size());
    return static_cast<double>((*sweeps)[static_cast<std::size_t>(level)]);
  };
  res.level_sweeps.assign(static_cast<std::size_t>(dag.height()) + 1, 0);
  for (std::int32_t l = 0; l <= dag.height(); ++l)
    res.level_sweeps[static_cast<std::size_t>(l)] =
        static_cast<std::int32_t>(sweeps_at(l));

  // Draw every checkpoint unit's retries before the first charge, in
  // execution order: step 0, each band, B*. Disarmed, every draw stays
  // empty and each unit is charged once.
  std::vector<mesh::PhaseDraw> draws(plan.bands.size() + 2);
  if (m.fault != nullptr && m.fault->armed()) {
    draws.front() = m.fault->draw_phase("alg1.step0");
    for (std::size_t i = 0; i < plan.bands.size(); ++i)
      draws[i + 1] = m.fault->draw_phase("alg1.band " + std::to_string(i));
    draws.back() = m.fault->draw_phase("alg1.bstar");
  }

  TRACE_SPAN(rec, "algorithm1");

  {
    // Initial multistep: every query visits the first node of its path.
    TRACE_SPAN(rec, "alg1.step0: initial multistep");
    res.cost += detail::charge_attempts(m, p, "alg1.step0", draws.front(),
                                        [&] { return m.rar(p); });
  }

  for (std::size_t i = 0; i < plan.bands.size(); ++i) {
    const Band& band = plan.bands[i];
    BandCostReport rep;
    rep.lo = band.lo;
    rep.hi = band.hi;
    rep.vertices = band.vertices;
    rep.grid = band.grid;
    trace::SpanScope band_span(
        rec, "band " + std::to_string(i) + " [L" + std::to_string(band.lo) +
                 "..L" + std::to_string(band.hi) + "]");

    // The band's setup + Lemma-1 solve form one checkpoint unit; a failed
    // attempt re-charges the whole unit (the report fields are overwritten
    // by every attempt and end holding the final — identical — values).
    const double s_i = static_cast<double>(band.submesh_elems);
    auto band_body = [&]() -> mesh::Cost {
      mesh::Cost c;
      if (charge_band_setup) {
        TRACE_SPAN(rec, "alg1.steps1-3a: band setup");
        const mesh::Cost setup =
            one_band_setup(m, parent_submesh_elems(plan, i, shape));
        rep.setup_steps = setup.steps;
        c += setup;
      }
      // Step 3(b): Lemma 1 on every B_i-submesh, independently in parallel —
      // all submeshes run the same lockstep sweeps, so max == one submesh.
      TRACE_SPAN(rec, "alg1.step3b: lemma1 solve");
      mesh::Cost solve;
      const std::int32_t b1_levels = band.split - band.lo;
      if (b1_levels > 0) {
        // Phase 1: replicate B_i^1 into inner sub-submeshes, then walk its
        // levels locally (sweeps_at(l) RAR sweeps per level).
        TRACE_SPAN(rec, "lemma1.B1: replicate + local sweeps");
        const double s_inner =
            s_i / (static_cast<double>(band.inner_grid) * band.inner_grid);
        solve += m.route(s_i);
        for (std::int32_t l = band.lo; l < band.split; ++l)
          solve += m.rar(s_inner, sweeps_at(l));
      }
      {
        // Phase 2: walk B_i^2 level-by-level at submesh scale.
        TRACE_SPAN(rec, "lemma1.B2: submesh level sweeps");
        for (std::int32_t l = band.split; l <= band.hi; ++l)
          solve += m.rar(s_i, sweeps_at(l));
      }
      rep.solve_steps = solve.steps;
      return c + solve;
    };
    res.cost += detail::charge_attempts(
        m, p, "alg1.band " + std::to_string(i), draws[i + 1], band_body);

    const double dh = static_cast<double>(band.hi - band.lo + 1);
    rep.lemma1_bound =
        std::sqrt(static_cast<double>(std::max<std::size_t>(1, band.vertices))) *
        std::max(1.0, std::log(dh) / std::log(dag.mu()));
    res.bands.push_back(rep);
  }

  {
    // Step 4: B* level-by-level on the whole mesh (O(1) levels).
    TRACE_SPAN(rec, "alg1.step4: B* level sweeps");
    res.bstar_levels = dag.height() - plan.bstar_lo + 1;
    auto bstar_body = [&]() -> mesh::Cost {
      mesh::Cost c;
      for (std::int32_t l = plan.bstar_lo; l <= dag.height(); ++l)
        c += m.rar(p, sweeps_at(l));
      return c;
    };
    // Failed attempts and their backoff included, as the span counts them.
    const mesh::Cost bstar =
        detail::charge_attempts(m, p, "alg1.bstar", draws.back(), bstar_body);
    res.bstar_steps = bstar.steps;
    res.cost += bstar;
  }
  return res;
}

}  // namespace meshsearch::msearch
