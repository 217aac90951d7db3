// E11 — dynamic updates: incremental refresh vs full re-setup crossover.
//
// Claim (update.hpp / stream.hpp): after a payload-only apply_updates batch,
// a warm engine can re-distribute just the dirty records — charged as
// ceil(dirty replica copies / p) `rebuild` rounds (one sort + one route
// each) — instead of re-running the full setup. The crossover is governed by
// the update fraction: below a threshold the incremental path is strictly
// cheaper, above it (dirty copies >> p) the full re-setup wins. We sweep the
// update batch size B for all four engines, measure the realized dirty
// fraction and both refresh costs, and report the measured crossover.
// Topological deltas have no incremental path at all: the Kirkpatrick
// section re-triangulates the whole hierarchy per batch (pockets at the
// coarsest granularity) and demonstrates the forced full re-setup fallback.
//
// Every sweep point also replays one batch on the refreshed warm engine and
// on a cold engine built over the same mutated structure: outcomes and
// per-batch charges must be bit-identical (the warm==cold oracle), else a
// VIOLATION line is printed and the gate's stdout diff catches it.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/kirkpatrick.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/query.hpp"
#include "multisearch/stream.hpp"
#include "multisearch/update.hpp"
#include "util/rng.hpp"

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::Interval;
using ds::IntervalTree;
using ds::KaryTree;
using ds::TreeMode;
using geom::Kirkpatrick;
using geom::Point2;

namespace {

struct SweepPoint {
  std::size_t batch = 0;        ///< inserts + deletes in the update batch
  std::size_t dirty = 0;        ///< dirty vertices the delta reported
  double dirty_frac = 0;        ///< dirty / vertex_count
  double incremental_steps = 0; ///< refresh via the rebuild primitive
  double full_steps = 0;        ///< refresh via force_full re-setup
};

/// One engine's sweep: for each batch size build a fresh structure and warm
/// engine (every point is a cold start), apply one payload-only update
/// batch, and measure the incremental refresh against the force_full
/// baseline on the same delta. `flow(B)` owns the structure mutation and the
/// warm==cold replay; it returns the filled point.
template <typename Flow>
std::vector<SweepPoint> sweep(const std::vector<std::size_t>& batches,
                              Flow flow) {
  std::vector<SweepPoint> out;
  for (const std::size_t b : batches) {
    const auto wall = bench::time_point("e11.sweep_point");
    out.push_back(flow(b));
  }
  return out;
}

void report(const std::string& engine_name,
            const std::vector<SweepPoint>& pts, bool expect_cheap_start) {
  util::Table t({"batch", "dirty verts", "dirty frac", "incremental steps",
                 "full steps", "full/incremental"});
  for (const auto& pt : pts)
    t.add_row({static_cast<std::int64_t>(pt.batch),
               static_cast<std::int64_t>(pt.dirty), pt.dirty_frac,
               pt.incremental_steps, pt.full_steps,
               pt.full_steps / pt.incremental_steps});
  bench::section("E11: " + engine_name + " incremental vs full re-setup");
  bench::emit(t, "e11_" + engine_name);
  // The measured crossover: the largest swept batch whose incremental
  // refresh still beats the full re-setup (every smaller batch must too).
  std::size_t crossover = 0;
  for (const auto& pt : pts) {
    if (pt.incremental_steps < pt.full_steps)
      crossover = pt.batch;
    else
      break;
  }
  std::cout << "crossover: incremental wins up to batch "
            << crossover << " of " << pts.back().batch << " swept\n";
  if (expect_cheap_start &&
      pts.front().incremental_steps >= pts.front().full_steps)
    std::cout << "VIOLATION: incremental refresh not below full re-setup at "
                 "batch "
              << pts.front().batch << "\n";
}

/// Replay one batch on the refreshed warm engine and on a cold engine over
/// the same mutated structure; print VIOLATION lines on any divergence.
template <typename P>
void warm_cold_check(const std::string& engine_name,
                     PreparedSearch<P>& warm, PreparedSearch<P> cold,
                     std::vector<Query> qs) {
  auto warm_qs = qs;
  const BatchReport w = warm.run_batch(warm_qs);
  const BatchReport c = cold.run_batch(qs);
  if (const auto diff = diff_outcomes(outcomes(warm_qs), outcomes(qs));
      !diff.empty())
    std::cout << "VIOLATION: warm/cold outcomes diverge (" << engine_name
              << "): " << diff << "\n";
  if (!(w.inject == c.inject) || !(w.run == c.run) || w.visits != c.visits)
    std::cout << "VIOLATION: warm/cold per-batch charges diverge ("
              << engine_name << ")\n";
}

std::vector<Interval> interval_set(std::size_t n, std::size_t wides,
                                   std::uint64_t seed) {
  std::vector<Interval> ivs;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t lo = rng.uniform_range(0, 90000);
    ivs.push_back(Interval{lo, lo + rng.uniform_range(0, 800),
                           static_cast<std::int32_t>(i)});
  }
  // Wide intervals anchor the root chains so later wide inserts have a
  // chain (with slack) to land in.
  for (std::size_t w = 0; w < wides; ++w)
    ivs.push_back(Interval{static_cast<std::int64_t>(w), 100000,
                           static_cast<std::int32_t>(n + w)});
  return ivs;
}

std::vector<Point2> point_set(std::size_t n, std::uint64_t seed) {
  std::vector<Point2> pts;
  util::Rng rng(seed);
  for (std::size_t i = 0; i < 4 * n && pts.size() < n; ++i) {
    const Point2 p{rng.uniform_range(-9000, 9000),
                   rng.uniform_range(-9000, 9000)};
    bool dup = false;
    for (const auto& q : pts) dup |= q.x == p.x && q.y == p.y;
    if (!dup) pts.push_back(p);
  }
  return pts;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchReport breport("e11_dynamic", argc, argv);
  const bool smoke = bench::has_flag(argc, argv, "--smoke");
  if (smoke) breport.set_config("smoke", "1");
  const std::size_t keys_n = smoke ? (1 << 10) : (1 << 12);
  const std::size_t ivs_n = smoke ? 384 : 1024;
  const std::size_t pts_n = smoke ? 160 : 600;
  // Per-structure batch sweeps: the k-ary sweep runs all the way to "every
  // key updated" so the realized update fraction spans ~0..1 and the
  // crossover (where ceil(dirty copies / p) rebuild rounds outgrow the full
  // re-setup) is actually reachable; chains and triangulations sweep
  // smaller batches.
  const std::vector<std::size_t> kary_batches =
      smoke ? std::vector<std::size_t>{1, 32, keys_n}
            : std::vector<std::size_t>{1, 16, 256, 1024, keys_n};
  const std::vector<std::size_t> ivs_batches =
      smoke ? std::vector<std::size_t>{1, 8, 64}
            : std::vector<std::size_t>{1, 4, 16, 64, 256};
  const std::vector<std::size_t> kp_batches =
      smoke ? std::vector<std::size_t>{1, 8, 64}
            : std::vector<std::size_t>{1, 4, 16, 64};
  const mesh::CostModel m;

  // K-ary payload update: weight updates in place of the LAST b keys. A
  // weight change dirties its leaf and the right siblings of the leaf and
  // of each ancestor (key[7] sums left-sibling subtree weights only), so
  // the dirty set grows with b — sweeping the realized update fraction —
  // while the topology is untouched (the delta stays payload-only).
  auto kary_update = [&](KaryTree& tree, std::size_t b) {
    std::vector<ds::WeightedKey> ins;
    for (std::size_t i = 0; i < b; ++i)
      ins.push_back(ds::WeightedKey{
          static_cast<std::int64_t>(keys_n - 1 - i), 2});
    return tree.apply_updates(ins, {});
  };
  auto kary_queries = [&](std::size_t mq, std::uint64_t seed) {
    util::Rng qrng(seed);
    return ds::uniform_key_queries(mq, keys_n + 300, qrng);
  };

  // Algorithm 1, both plans, over the directed k-ary tree's hierarchical
  // DAG (|L_i| = k^i is exactly the paper's class, mu = k).
  for (const PlanKind plan : {PlanKind::kPaper, PlanKind::kGeometric}) {
    const std::string name =
        plan == PlanKind::kPaper ? "alg1-paper" : "alg1-geometric";
    report(name, sweep(kary_batches, [&](std::size_t b) {
      KaryTree tree(ds::iota_keys(keys_n), 3, TreeMode::kDirected);
      const HierarchicalDag dag(tree.graph(), 3.0);
      const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
      PreparedSearch warm(dag, plan, tree.rank_count(), m, shape);
      const auto delta = kary_update(tree, b);
      SweepPoint pt;
      pt.batch = b;
      pt.dirty = delta.dirty_vertices.size();
      pt.dirty_frac = static_cast<double>(pt.dirty) /
                      static_cast<double>(tree.graph().vertex_count());
      RefreshRequest req;
      req.delta = delta;
      pt.incremental_steps = warm.refresh(req).cost.steps;
      req.force_full = true;
      pt.full_steps = warm.refresh(req).cost.steps;
      warm_cold_check(name, warm,
                      PreparedSearch(dag, plan, tree.rank_count(), m, shape),
                      kary_queries(shape.size() / 2, 51));
      return pt;
    }), /*expect_cheap_start=*/true);
  }

  // Algorithm 2 over the same tree family, alpha splitting.
  report("alg2-alpha", sweep(kary_batches, [&](std::size_t b) {
    KaryTree tree(ds::iota_keys(keys_n), 3, TreeMode::kDirected);
    const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
    PreparedSearch warm(EngineKind::kAlg2Alpha, tree.graph(),
                        tree.alpha_splitting(), tree.alpha_splitting(),
                        tree.rank_count(), m, shape);
    const auto delta = kary_update(tree, b);
    SweepPoint pt;
    pt.batch = b;
    pt.dirty = delta.dirty_vertices.size();
    pt.dirty_frac = static_cast<double>(pt.dirty) /
                    static_cast<double>(tree.graph().vertex_count());
    RefreshRequest req;
    req.delta = delta;
    pt.incremental_steps = warm.refresh(req).cost.steps;
    req.force_full = true;
    pt.full_steps = warm.refresh(req).cost.steps;
    warm_cold_check(
        "alg2-alpha", warm,
        PreparedSearch(EngineKind::kAlg2Alpha, tree.graph(),
                       tree.alpha_splitting(), tree.alpha_splitting(),
                       tree.rank_count(), m, shape),
        kary_queries(shape.size() / 2, 52));
    return pt;
  }), /*expect_cheap_start=*/true);

  // Algorithm 3 over the slack interval tree: B wide inserts (landing in
  // the root chains' spare slots) + B deletes of original intervals.
  report("alg3-alpha-beta", sweep(ivs_batches, [&](std::size_t b) {
    IntervalTree t(interval_set(ivs_n, 4, 77), /*chain_slack=*/b);
    const auto [s1, s2] = t.alpha_beta_splittings();
    const auto shape = t.graph().shape_for(t.graph().vertex_count());
    PreparedSearch warm(EngineKind::kAlg3AlphaBeta, t.graph(), s1, s2,
                        t.stabbing_program(), m, shape);
    std::vector<Interval> ins;
    std::vector<std::int32_t> del;
    for (std::size_t i = 0; i < b; ++i) {
      ins.push_back(Interval{static_cast<std::int64_t>(100 + i), 99000,
                             static_cast<std::int32_t>(10000 + i)});
      del.push_back(static_cast<std::int32_t>(3 * i));
    }
    const auto delta = t.apply_updates(ins, del);
    SweepPoint pt;
    pt.batch = 2 * b;
    pt.dirty = delta.dirty_vertices.size();
    pt.dirty_frac = static_cast<double>(pt.dirty) /
                    static_cast<double>(t.graph().vertex_count());
    RefreshRequest req;
    req.delta = delta;
    pt.incremental_steps = warm.refresh(req).cost.steps;
    req.force_full = true;
    pt.full_steps = warm.refresh(req).cost.steps;
    auto qs = make_queries(shape.size() / 2);
    util::Rng qrng(53);
    for (auto& q : qs) q.key[0] = qrng.uniform_range(-100, 100100);
    warm_cold_check("alg3-alpha-beta", warm,
                    PreparedSearch(EngineKind::kAlg3AlphaBeta, t.graph(), s1,
                                   s2, t.stabbing_program(), m, shape),
                    std::move(qs));
    return pt;
  }), /*expect_cheap_start=*/true);

  // Kirkpatrick: point inserts re-triangulate the whole hierarchy (the
  // pocket is the coarsest possible — everything), so the delta is
  // topological and the refresh always takes the full re-setup fallback.
  // No crossover to find; the table pins the fallback's cost and the
  // warm==cold check still must hold after the topology change.
  {
    util::Table t({"batch", "dag verts after", "incremental", "full steps"});
    bench::section("E11: kirkpatrick topological fallback");
    for (const std::size_t b : kp_batches) {
      const auto wall = bench::time_point("e11.sweep_point");
      Kirkpatrick kp(point_set(pts_n, 88), 16384);
      const auto shape = kp.dag().shape_for(4 * kp.dag().vertex_count());
      HierarchicalDag dag = kp.hierarchical_dag();
      PreparedSearch warm(dag, PlanKind::kGeometric, kp.locate_program(), m,
                          shape);
      std::vector<Point2> ins;
      for (std::size_t i = 0; i < b; ++i)
        ins.push_back(Point2{static_cast<std::int64_t>(9200 + i),
                             static_cast<std::int64_t>(9100 - 2 * i)});
      const auto delta = kp.apply_updates(ins, {});
      dag = kp.hierarchical_dag();  // refresh the assignable view in place
      RefreshRequest req;
      req.delta = delta;
      const RefreshReport rep = warm.refresh(req);
      if (rep.incremental)
        std::cout << "VIOLATION: topological delta took the incremental "
                     "path\n";
      t.add_row({static_cast<std::int64_t>(b),
                 static_cast<std::int64_t>(kp.dag().vertex_count()),
                 std::string(rep.incremental ? "yes" : "no"),
                 rep.cost.steps});
      auto qs = make_queries(shape.size() / 4);
      util::Rng qrng(54);
      for (auto& q : qs) {
        q.key[0] = qrng.uniform_range(-20000, 20000);
        q.key[1] = qrng.uniform_range(-20000, 20000);
      }
      warm_cold_check("kirkpatrick", warm,
                      PreparedSearch(dag, PlanKind::kGeometric,
                                     kp.locate_program(), m, shape),
                      std::move(qs));
    }
    bench::emit(t, "e11_kirkpatrick_fallback");
  }

  return 0;
}
