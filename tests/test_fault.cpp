// Fault-injection and recovery tests (mesh/fault.hpp, multisearch/recovery.hpp,
// stream degradation in multisearch/stream.hpp). Four contracts:
//
//   1. Fault-free bit-identity: a disarmed FaultPlan threaded through any
//      engine (and the stream scheduler) changes NOTHING — outcomes, charged
//      cost and per-primitive attribution match a run with no plan at all,
//      at 1 and 8 host threads.
//   2. Armed determinism: same workload seed + same fault plan => the same
//      injections, retries, costs and outcomes, run after run.
//   3. Recovery correctness: every query outside a reported-degraded batch
//      matches the fault-free oracle exactly — recovery, not approximation;
//      a batch that exhausts its budget is REPORTED (failed_queries), its
//      queries kept at their pre-batch checkpoint, never silently wrong.
//   4. Cycle-engine faults only delay: stalls and drops add routing steps
//      but the delivered data is bit-identical to the fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/cycle_ops.hpp"
#include "mesh/fault.hpp"
#include "multisearch/query.hpp"
#include "multisearch/stream.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::KaryTree;
using ds::TreeMode;

// ---------------------------------------------------------------------------
// FaultPlan unit contracts.
// ---------------------------------------------------------------------------

TEST(FaultPlan, DefaultConstructedIsDisarmedAndInert) {
  mesh::FaultPlan plan;
  EXPECT_FALSE(plan.armed());
  EXPECT_FALSE(plan.stall(0, 0, 0));
  EXPECT_FALSE(plan.drop(0, 0, 0, 1));
  EXPECT_EQ(plan.lockstep_extra(1000), 0u);
  const auto d = plan.draw_phase("anything");
  EXPECT_EQ(d.failed_attempts, 0u);
  EXPECT_EQ(d.backoff_steps, 0.0);
  const auto s = plan.stats();
  EXPECT_EQ(s.detections, 0u);
  EXPECT_EQ(s.capacity_factor, 1.0);
  EXPECT_EQ(plan.effective_capacity(500), 500u);
}

TEST(FaultPlan, DrawsAreAPureFunctionOfSeedAndSite) {
  mesh::FaultConfig cfg;
  cfg.seed = 5;
  cfg.p_stall = 0.4;
  cfg.p_drop = 0.4;
  cfg.p_phase = 0.4;
  mesh::FaultPlan a(cfg), b(cfg);
  std::size_t hits = 0;
  for (std::uint64_t site = 0; site < 200; ++site) {
    const bool sa = a.stall(1, site / 10, site);
    EXPECT_EQ(sa, b.stall(1, site / 10, site));
    const bool da = a.drop(1, site / 10, site, site + 1);
    EXPECT_EQ(da, b.drop(1, site / 10, site, site + 1));
    hits += static_cast<std::size_t>(sa) + static_cast<std::size_t>(da);
  }
  EXPECT_GT(hits, 0u);    // p = 0.4 over 400 draws: some must land...
  EXPECT_LT(hits, 400u);  // ...and some must not.
  for (int i = 0; i < 50; ++i) {
    const auto da = a.draw_phase("phase.x");
    const auto db = b.draw_phase("phase.x");
    EXPECT_EQ(da.failed_attempts, db.failed_attempts);
    EXPECT_EQ(da.backoff_steps, db.backoff_steps);
  }
  // Same name, later occurrence => an independent draw stream (the 50 draws
  // above cannot all coincide with a different-seed plan's).
  mesh::FaultConfig other = cfg;
  other.seed = 6;
  mesh::FaultPlan c(other);
  bool any_difference = false;
  mesh::FaultPlan a2(cfg);
  for (int i = 0; i < 50; ++i)
    if (a2.draw_phase("phase.x").failed_attempts !=
        c.draw_phase("phase.x").failed_attempts)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlan, BackoffDoublesPerFailedAttempt) {
  mesh::FaultConfig cfg;
  cfg.seed = 1;
  cfg.p_phase = 0.5;
  mesh::FaultPlan plan(cfg);
  std::uint32_t deepest = 0;
  for (int i = 0; i < 200; ++i) {
    const auto d = plan.draw_phase("p");
    // base * (2^failed - 1): 0 -> 0, 1 -> 8, 2 -> 24, 3 -> 56, ...
    double expect = 0;
    for (std::uint32_t j = 0; j < d.failed_attempts; ++j)
      expect += 8.0 * static_cast<double>(1u << j);
    EXPECT_EQ(d.backoff_steps, expect);
    deepest = std::max(deepest, d.failed_attempts);
  }
  EXPECT_GE(deepest, 2u);  // p = 0.5: multi-failure draws must occur
  const auto s = plan.stats();
  EXPECT_EQ(s.phase_retries, s.phase_failures);
  EXPECT_GT(s.backoff_steps, 0.0);
}

TEST(FaultPlan, ExhaustedRetryBudgetThrows) {
  mesh::FaultConfig cfg;
  cfg.p_phase = 1.0;  // every attempt fails
  cfg.max_retries = 4;
  mesh::FaultPlan plan(cfg);
  EXPECT_THROW(plan.draw_phase("doomed"), mesh::FaultExhaustedError);
  const auto s = plan.stats();
  EXPECT_EQ(s.exhausted, 1u);
  EXPECT_EQ(s.phase_failures, 5u);  // 1 initial + max_retries attempts
}

TEST(FaultPlan, ExhaustedErrorCarriesReplayContext) {
  mesh::FaultConfig cfg;
  cfg.seed = 77;
  cfg.p_phase = 1.0;
  cfg.max_retries = 1;
  mesh::FaultPlan plan(cfg);
  try {
    plan.draw_phase("phase.doomed");
    FAIL() << "expected FaultExhaustedError";
  } catch (const mesh::FaultExhaustedError& e) {
    // Structured replay coordinates, both as accessors...
    EXPECT_EQ(e.seed(), 77u);
    EXPECT_EQ(e.site(), "phase.doomed");
    EXPECT_EQ(e.occurrence(), 0u);
    // ...and in the what() text, so they survive a bare catch.
    const std::string w = e.what();
    EXPECT_NE(w.find("seed=77"), std::string::npos);
    EXPECT_NE(w.find("phase.doomed"), std::string::npos);
    EXPECT_NE(w.find("occurrence=0"), std::string::npos);
  }
  // Also catchable as the taxonomy base.
  EXPECT_THROW(plan.draw_phase("phase.doomed"), meshsearch::Error);
}

TEST(FaultPlan, CorruptDrawsAreIndependentOfStallAndDropStreams) {
  // Adding p_corrupt to a plan must not move any stall/drop draw: corruption
  // uses its own hash-domain tags, so pre-existing fault streams replay
  // bit-identically when corruption is switched on next to them.
  mesh::FaultConfig a_cfg;
  a_cfg.seed = 21;
  a_cfg.p_stall = 0.2;
  a_cfg.p_drop = 0.2;
  mesh::FaultConfig b_cfg = a_cfg;
  b_cfg.p_corrupt = 0.5;
  mesh::FaultPlan a(a_cfg), b(b_cfg);
  for (std::uint64_t site = 0; site < 300; ++site) {
    EXPECT_EQ(a.stall(2, site, site * 3), b.stall(2, site, site * 3));
    EXPECT_EQ(a.drop(2, site, site * 3, site + 1),
              b.drop(2, site, site * 3, site + 1));
  }
  // No transit word was actually corrupted by these stall/drop queries.
  EXPECT_EQ(b.stats().corrupt_injected, 0u);
}

TEST(FaultPlan, CorruptOnlyPlanIsArmedAndDraws) {
  mesh::FaultConfig cfg;
  cfg.seed = 23;
  cfg.p_corrupt = 0.4;
  mesh::FaultPlan plan(cfg);
  EXPECT_TRUE(plan.armed());
  std::uint64_t corrupted = 0;
  for (std::uint64_t i = 0; i < 200; ++i)
    corrupted += static_cast<std::uint64_t>(plan.corrupt(3, i, i, i + 1));
  EXPECT_GT(corrupted, 0u);
  EXPECT_LT(corrupted, 200u);
  EXPECT_EQ(plan.stats().corrupt_injected, corrupted);
  // The flipped bit is a pure function of the site.
  EXPECT_EQ(plan.corrupt_bit(3, 5, 6, 7), plan.corrupt_bit(3, 5, 6, 7));
}

TEST(FaultPlan, DegradeHalvesCapacityButNeverBelowOne) {
  mesh::FaultConfig cfg;
  cfg.p_phase = 0.1;
  mesh::FaultPlan plan(cfg);
  EXPECT_EQ(plan.effective_capacity(100), 100u);
  plan.degrade();
  EXPECT_EQ(plan.effective_capacity(100), 50u);
  plan.degrade();
  EXPECT_EQ(plan.effective_capacity(100), 25u);
  for (int i = 0; i < 20; ++i) plan.degrade();
  EXPECT_EQ(plan.effective_capacity(100), 1u);
  EXPECT_LT(plan.stats().capacity_factor, 1.0);
}

TEST(FaultPlan, DegradeStopsAtTheFactorWhereEveryCapacityIsOne) {
  mesh::FaultConfig cfg;
  cfg.p_phase = 0.1;
  mesh::FaultPlan plan(cfg);
  const std::size_t widest = std::numeric_limits<std::size_t>::max();
  for (int i = 0; i < 63; ++i) plan.degrade();
  EXPECT_EQ(plan.effective_capacity(widest), 2u);  // not yet at the floor
  plan.degrade();
  EXPECT_EQ(plan.stats().capacity_factor, mesh::kFaultMinCapacityFactor);
  EXPECT_EQ(plan.effective_capacity(widest), 1u);
  // Past the floor nothing moves: the factor no longer underflows to 0.
  for (int i = 0; i < 2000; ++i) plan.degrade();
  EXPECT_EQ(plan.stats().capacity_factor, mesh::kFaultMinCapacityFactor);
  EXPECT_EQ(plan.effective_capacity(widest), 1u);
  EXPECT_EQ(plan.effective_capacity(100), 1u);
}

// ---------------------------------------------------------------------------
// Workload fixtures (mirrors test_stream.cpp, smaller sizes).
// ---------------------------------------------------------------------------

struct Alg1Fixture {
  DistributedGraph g;
  HierarchicalDag dag;
  mesh::MeshShape shape;

  explicit Alg1Fixture(std::uint64_t seed = 30)
      : g([&] {
          util::Rng rng(seed);
          return ds::build_hierarchical_dag(1200, 2.0, 3, rng);
        }()),
        dag(g, 2.0),
        shape(g.shape_for(g.vertex_count())) {}

  std::vector<Query> stream(std::size_t m, std::uint64_t seed = 31) const {
    auto qs = make_queries(m);
    util::Rng rng(seed);
    for (auto& q : qs)
      q.key[0] = static_cast<std::int64_t>(rng.uniform(1ull << 40));
    return qs;
  }
};

struct Alg2Fixture {
  KaryTree tree;
  mesh::MeshShape shape;

  Alg2Fixture() : tree(ds::iota_keys(500), 3, TreeMode::kDirected),
                  shape(tree.graph().shape_for(tree.graph().vertex_count())) {}

  std::vector<Query> stream(std::size_t m, std::uint64_t seed = 32) const {
    util::Rng rng(seed);
    return ds::uniform_key_queries(m, 520, rng);
  }
};

struct Alg3Fixture {
  KaryTree tree;
  Splitting s1, s2;
  mesh::MeshShape shape;

  Alg3Fixture() : tree(ds::iota_keys(256), 2, TreeMode::kUndirected),
                  shape(tree.graph().shape_for(tree.graph().vertex_count())) {
    std::tie(s1, s2) = tree.alpha_beta_splittings();
  }

  std::vector<Query> stream(std::size_t m, std::uint64_t seed = 33) const {
    auto qs = make_queries(m);
    util::Rng rng(seed);
    for (auto& q : qs) {
      const auto a = rng.uniform_range(-3, 259);
      q.key[0] = a;
      q.key[1] = a + rng.uniform_range(0, 30);
    }
    return qs;
  }
};

/// Everything a fault contract compares between two runs.
struct RunRecord {
  std::vector<QueryOutcome> out;
  mesh::Cost cost;
  std::map<trace::PrimitiveKey, trace::PrimitiveStat> counters;
  std::map<std::string, double> metrics;
  std::vector<std::uint32_t> failed;
};

void expect_identical(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(diff_outcomes(a.out, b.out), "");
  EXPECT_EQ(a.cost, b.cost);  // exact, not approximate
  EXPECT_TRUE(a.counters == b.counters)
      << "per-primitive attribution diverged";
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_EQ(a.failed, b.failed);
}

/// Run `f(plan_or_null)` once with no fault plan and once with a DISARMED
/// plan attached, at 1 and at 8 host threads; all four runs must be
/// bit-identical in outcomes, cost, attribution and metrics.
template <typename F>
void expect_disarmed_inert(F f) {
  RunRecord first;
  bool have_first = false;
  for (const unsigned threads : {1u, 8u}) {
    util::ThreadPool::set_global_threads(threads);
    const RunRecord bare = f(static_cast<mesh::FaultPlan*>(nullptr));
    mesh::FaultPlan disarmed;
    const RunRecord with = f(&disarmed);
    expect_identical(bare, with);
    // The disarmed plan's counters never move either.
    const auto s = disarmed.stats();
    EXPECT_EQ(s.detections, 0u);
    if (!have_first) {
      first = bare;
      have_first = true;
    } else {
      expect_identical(first, bare);  // and thread-count invariant
    }
  }
  util::ThreadPool::set_global_threads(0);
}

template <typename MakeEngine>
RunRecord run_stream(MakeEngine make_engine, std::vector<Query> stream,
                     mesh::FaultPlan* plan) {
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  m.fault = plan;
  auto engine = make_engine(m);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);
  RunRecord r;
  r.out = outcomes(stream);
  r.cost = res.total();
  r.counters = rec.counters();
  for (const auto& mt : rec.stats().snapshot().gauges)
    r.metrics[mt.name] = mt.value;
  r.failed = res.failed_queries;
  return r;
}

// ---------------------------------------------------------------------------
// (1) Fault-free bit-identity: all four engines + stream scheduler.
// ---------------------------------------------------------------------------

TEST(FaultFree, Alg1PaperStreamBitIdenticalWithDisarmedPlan) {
  const Alg1Fixture fx;
  const auto stream0 = fx.stream(2 * fx.shape.size() + 17);
  expect_disarmed_inert([&](mesh::FaultPlan* plan) {
    return run_stream(
        [&](const mesh::CostModel& m) {
          return PreparedSearch(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                                fx.shape);
        },
        stream0, plan);
  });
}

TEST(FaultFree, Alg1GeometricStreamBitIdenticalWithDisarmedPlan) {
  const Alg1Fixture fx;
  const auto stream0 = fx.stream(2 * fx.shape.size() + 5);
  expect_disarmed_inert([&](mesh::FaultPlan* plan) {
    return run_stream(
        [&](const mesh::CostModel& m) {
          return PreparedSearch(fx.dag, PlanKind::kGeometric, ds::HashWalk{0},
                                m, fx.shape);
        },
        stream0, plan);
  });
}

TEST(FaultFree, Alg2AlphaStreamBitIdenticalWithDisarmedPlan) {
  const Alg2Fixture fx;
  const auto stream0 = fx.stream(2 * fx.shape.size() + 9);
  expect_disarmed_inert([&](mesh::FaultPlan* plan) {
    return run_stream(
        [&](const mesh::CostModel& m) {
          return PreparedSearch(EngineKind::kAlg2Alpha, fx.tree.graph(),
                                fx.tree.alpha_splitting(),
                                fx.tree.alpha_splitting(),
                                fx.tree.rank_count(), m, fx.shape);
        },
        stream0, plan);
  });
}

TEST(FaultFree, Alg3AlphaBetaStreamBitIdenticalWithDisarmedPlan) {
  const Alg3Fixture fx;
  const auto stream0 = fx.stream(2 * fx.shape.size() + 13);
  expect_disarmed_inert([&](mesh::FaultPlan* plan) {
    return run_stream(
        [&](const mesh::CostModel& m) {
          return PreparedSearch(EngineKind::kAlg3AlphaBeta, fx.tree.graph(),
                                fx.s1, fx.s2, fx.tree.euler_scan(), m,
                                fx.shape);
        },
        stream0, plan);
  });
}

// ---------------------------------------------------------------------------
// (2) Armed determinism: same seed + same plan => bit-identical runs.
// ---------------------------------------------------------------------------

TEST(FaultRecovery, ArmedRunIsDeterministicGivenSeedAndPlan) {
  const Alg3Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 21);
  auto run_armed = [&] {
    mesh::FaultConfig cfg;
    cfg.seed = 9;
    cfg.p_phase = 0.3;
    mesh::FaultPlan plan(cfg);
    return run_stream(
        [&](const mesh::CostModel& m) {
          return PreparedSearch(EngineKind::kAlg3AlphaBeta, fx.tree.graph(),
                                fx.s1, fx.s2, fx.tree.euler_scan(), m,
                                fx.shape);
        },
        stream0, &plan);
  };
  expect_identical(run_armed(), run_armed());
}

TEST(FaultRecovery, ArmedRunIsThreadCountInvariant) {
  const Alg2Fixture fx;
  const auto stream0 = fx.stream(3 * fx.shape.size() + 7);
  auto run_armed = [&] {
    mesh::FaultConfig cfg;
    cfg.seed = 11;
    cfg.p_phase = 0.3;
    mesh::FaultPlan plan(cfg);
    return run_stream(
        [&](const mesh::CostModel& m) {
          return PreparedSearch(EngineKind::kAlg2Alpha, fx.tree.graph(),
                                fx.tree.alpha_splitting(),
                                fx.tree.alpha_splitting(),
                                fx.tree.rank_count(), m, fx.shape);
        },
        stream0, &plan);
  };
  util::ThreadPool::set_global_threads(1);
  const RunRecord serial = run_armed();
  util::ThreadPool::set_global_threads(8);
  const RunRecord parallel = run_armed();
  util::ThreadPool::set_global_threads(0);
  expect_identical(serial, parallel);
}

/// Every field of Algorithm 1's report, compared exactly.
void expect_same_report(const HierarchicalRunResult& a,
                        const HierarchicalRunResult& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.bstar_steps, b.bstar_steps);
  EXPECT_EQ(a.bstar_levels, b.bstar_levels);
  EXPECT_EQ(a.total_visits, b.total_visits);
  EXPECT_EQ(a.level_sweeps, b.level_sweeps);
  ASSERT_EQ(a.bands.size(), b.bands.size());
  for (std::size_t i = 0; i < a.bands.size(); ++i) {
    const BandCostReport& x = a.bands[i];
    const BandCostReport& y = b.bands[i];
    EXPECT_EQ(x.lo, y.lo) << "band " << i;
    EXPECT_EQ(x.hi, y.hi) << "band " << i;
    EXPECT_EQ(x.vertices, y.vertices) << "band " << i;
    EXPECT_EQ(x.grid, y.grid) << "band " << i;
    EXPECT_EQ(x.setup_steps, y.setup_steps) << "band " << i;
    EXPECT_EQ(x.solve_steps, y.solve_steps) << "band " << i;
    EXPECT_EQ(x.lemma1_bound, y.lemma1_bound) << "band " << i;
  }
}

TEST(FaultRecovery, Alg1ReportIsTheSameWithAndWithoutARecorder) {
  // BandCostReport is summed from the charges' Costs, so attaching a trace
  // sink changes no field — fault-free, or with retried units re-charged.
  const Alg1Fixture fx;
  const auto queries0 = fx.stream(fx.shape.size());
  for (const PlanKind kind : {PlanKind::kPaper, PlanKind::kGeometric}) {
    for (const double p_phase : {0.0, 0.3}) {
      auto run = [&](bool traced, std::uint64_t& retries) {
        mesh::FaultConfig cfg;
        cfg.seed = 3;
        cfg.p_phase = p_phase;
        mesh::FaultPlan plan(cfg);
        trace::TraceRecorder rec("counting");
        mesh::CostModel m;
        m.fault = &plan;
        if (traced) m.trace = &rec;
        auto q = queries0;
        const auto res = hierarchical_multisearch(fx.dag, ds::HashWalk{0}, q,
                                                  m, fx.shape, kind);
        retries = plan.stats().phase_retries;
        return res;
      };
      std::uint64_t untraced_retries = 0, traced_retries = 0;
      const auto untraced = run(false, untraced_retries);
      const auto traced = run(true, traced_retries);
      SCOPED_TRACE(testing::Message() << "p_phase " << p_phase);
      if (kind == PlanKind::kGeometric) {
        EXPECT_FALSE(untraced.bands.empty());
      }
      if (p_phase > 0) {
        EXPECT_GT(untraced_retries, 0u);
      }
      EXPECT_EQ(untraced_retries, traced_retries);
      expect_same_report(untraced, traced);
    }
  }
}

// ---------------------------------------------------------------------------
// (3) Recovery correctness vs the fault-free oracle.
// ---------------------------------------------------------------------------

template <typename MakeEngine>
void expect_recovers_to_oracle(MakeEngine make_engine,
                               const std::vector<Query>& stream0,
                               double p_phase, std::uint64_t fault_seed) {
  const RunRecord oracle =
      run_stream(make_engine, stream0, static_cast<mesh::FaultPlan*>(nullptr));
  mesh::FaultConfig cfg;
  cfg.seed = fault_seed;
  cfg.p_phase = p_phase;
  mesh::FaultPlan plan(cfg);
  const RunRecord faulty = run_stream(make_engine, stream0, &plan);
  const auto s = plan.stats();
  ASSERT_GT(s.phase_retries, 0u) << "workload too small to draw any fault";
  EXPECT_TRUE(faulty.failed.empty());  // retries absorbed every failure
  EXPECT_EQ(diff_outcomes(faulty.out, oracle.out), "");
  // Retries + backoff are charged: the armed run costs strictly more.
  EXPECT_GT(faulty.cost.steps, oracle.cost.steps);
  EXPECT_GT(s.backoff_steps, 0.0);
}

TEST(FaultRecovery, Alg1GeometricRecoversToFaultFreeOracle) {
  const Alg1Fixture fx;
  expect_recovers_to_oracle(
      [&](const mesh::CostModel& m) {
        return PreparedSearch(fx.dag, PlanKind::kGeometric, ds::HashWalk{0}, m,
                              fx.shape);
      },
      fx.stream(3 * fx.shape.size() + 11), 0.25, 3);
}

TEST(FaultRecovery, Alg2AlphaRecoversToFaultFreeOracle) {
  const Alg2Fixture fx;
  expect_recovers_to_oracle(
      [&](const mesh::CostModel& m) {
        return PreparedSearch(EngineKind::kAlg2Alpha, fx.tree.graph(),
                              fx.tree.alpha_splitting(),
                              fx.tree.alpha_splitting(), fx.tree.rank_count(),
                              m, fx.shape);
      },
      fx.stream(3 * fx.shape.size() + 19), 0.25, 4);
}

TEST(FaultRecovery, Alg3AlphaBetaRecoversToFaultFreeOracle) {
  const Alg3Fixture fx;
  expect_recovers_to_oracle(
      [&](const mesh::CostModel& m) {
        return PreparedSearch(EngineKind::kAlg3AlphaBeta, fx.tree.graph(),
                              fx.s1, fx.s2, fx.tree.euler_scan(), m, fx.shape);
      },
      fx.stream(3 * fx.shape.size() + 23), 0.25, 5);
}

TEST(FaultRecovery, Alg1PaperRecoversToFaultFreeOracle) {
  const Alg1Fixture fx;
  expect_recovers_to_oracle(
      [&](const mesh::CostModel& m) {
        return PreparedSearch(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                              fx.shape);
      },
      fx.stream(3 * fx.shape.size() + 29), 0.45, 6);
}

// ---------------------------------------------------------------------------
// Stream degradation: exhausted retries are reported, never silent.
// ---------------------------------------------------------------------------

TEST(FaultStream, ExhaustedRetriesDegradeReplanAndReport) {
  const Alg2Fixture fx;
  auto stream = fx.stream(2 * fx.shape.size() + 15);
  const auto pristine = outcomes(stream);
  mesh::FaultConfig cfg;
  cfg.seed = 13;
  cfg.p_phase = 1.0;  // every attempt of every phase fails: nothing survives
  mesh::FaultPlan plan(cfg);
  mesh::CostModel m;
  m.fault = &plan;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);

  // Every query position is reported failed exactly once...
  std::set<std::uint32_t> failed(res.failed_queries.begin(),
                                 res.failed_queries.end());
  EXPECT_EQ(failed.size(), res.failed_queries.size());
  EXPECT_EQ(failed.size(), stream.size());
  // ...every emitted report is a degraded one at the last re-plan
  // generation...
  const auto max_replans = static_cast<std::uint32_t>(cfg.max_replans);
  for (const auto& rep : res.batches) {
    EXPECT_TRUE(rep.degraded);
    EXPECT_EQ(rep.replans, max_replans);
  }
  // ...the stream itself still holds the pre-batch checkpoints (no partial
  // writes from failed attempts)...
  EXPECT_EQ(diff_outcomes(outcomes(stream), pristine), "");
  // ...and the degradation/replanning is visible in the plan's stats.
  const auto s = plan.stats();
  EXPECT_GT(s.exhausted, 0u);
  EXPECT_GT(s.replanned_batches, 0u);
  EXPECT_GT(s.degraded_batches, 0u);
  EXPECT_LT(s.capacity_factor, 1.0);
}

/// Sorted positions folded into half-open [lo, hi) runs: a compact, exact
/// form of a failed-query set for pinning.
std::vector<std::pair<std::uint32_t, std::uint32_t>> as_runs(
    std::vector<std::uint32_t> idx) {
  std::sort(idx.begin(), idx.end());
  std::vector<std::pair<std::uint32_t, std::uint32_t>> runs;
  for (const auto i : idx) {
    if (!runs.empty() && runs.back().second == i)
      ++runs.back().second;
    else
      runs.emplace_back(i, i + 1);
  }
  return runs;
}

/// The plan counters a mixed-outcome pin compares.
struct PlanPin {
  std::uint64_t phase_failures, exhausted, replanned, degraded;
  double backoff_steps, capacity_factor;
};

void expect_plan(const mesh::FaultPlan& plan, const PlanPin& want) {
  const auto s = plan.stats();
  EXPECT_EQ(s.phase_failures, want.phase_failures);
  EXPECT_EQ(s.exhausted, want.exhausted);
  EXPECT_EQ(s.replanned_batches, want.replanned);
  EXPECT_EQ(s.degraded_batches, want.degraded);
  EXPECT_EQ(s.backoff_steps, want.backoff_steps);
  EXPECT_EQ(s.capacity_factor, want.capacity_factor);
}

/// After a traced run the recorder's registry holds only the wall.phase.*
/// span histograms (plus metric gauges): the per-batch span is the one
/// per-batch wall timer, and it closes once per attempt, re-sliced included.
void expect_one_wall_path(const trace::TraceRecorder& rec,
                          std::string_view batch_span,
                          std::size_t attempts) {
  const auto snap = rec.stats().snapshot();
  std::size_t batch_count = 0;
  for (const auto& h : snap.histograms) {
    EXPECT_EQ(h.name.rfind("wall.phase.", 0), 0u) << h.name;
    if (h.name == trace::span_histogram_name(batch_span))
      batch_count = h.hist.count();
  }
  EXPECT_EQ(batch_count, attempts);
}

/// A plan under which one run has done, re-sliced AND degraded slices: no
/// phase retries, so any failed phase exhausts its batch.
mesh::FaultConfig mixed_outcome_config() {
  mesh::FaultConfig cfg;
  cfg.seed = 1;
  cfg.p_phase = 0.05;
  cfg.max_retries = 0;
  return cfg;
}

TEST(FaultStream, MixedOutcomeRunIsPinned) {
  const Alg2Fixture fx;
  auto stream = fx.stream(4 * fx.shape.size() + 9, 77);
  auto oracle = stream;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), oracle);
  const auto pristine = outcomes(stream);
  mesh::FaultPlan plan(mixed_outcome_config());
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.fault = &plan;
  m.trace = &rec;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);

  std::size_t done = 0;
  for (const auto& b : res.batches) done += b.degraded ? 0 : 1;
  EXPECT_EQ(res.batches.size(), 43u);
  EXPECT_EQ(done, 40u);
  EXPECT_EQ(res.replans, 8u);
  EXPECT_EQ(res.batches.size() - done, 3u);  // degraded batches
  EXPECT_EQ(res.total().steps, 406976.0);
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> failed_runs =
      {{832, 896}, {4416, 4448}, {6752, 6768}};
  EXPECT_EQ(as_runs(res.failed_queries), failed_runs);
  expect_plan(plan, PlanPin{11, 11, 8, 3, 0.0, 0.00048828125});
  expect_one_wall_path(rec, "stream.batch", res.batches.size() + res.replans);

  // Failed positions keep their checkpoint; every other one is answered.
  std::vector<bool> failed(stream.size(), false);
  for (const auto i : res.failed_queries) failed[i] = true;
  const auto got = outcomes(stream), want = outcomes(oracle);
  for (std::size_t i = 0; i < stream.size(); ++i)
    EXPECT_EQ(got[i], failed[i] ? pristine[i] : want[i]) << "position " << i;
}

TEST(FaultStream, Alg1MixedOutcomeRunIsPinned) {
  // Algorithm 1 (paper plan) under the mixed-outcome plan with one retry
  // per unit and a higher phase rate: retried units (re-charged plus
  // backoff), re-sliced and degraded slices all occur in one run.
  const Alg1Fixture fx;
  auto stream = fx.stream(4 * fx.shape.size() + 9, 77);
  auto oracle = stream;
  sequential_multisearch(fx.g, ds::HashWalk{0}, oracle);
  const auto pristine = outcomes(stream);
  mesh::FaultConfig cfg = mixed_outcome_config();
  cfg.p_phase = 0.4;
  cfg.max_retries = 1;
  mesh::FaultPlan plan(cfg);
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.fault = &plan;
  m.trace = &rec;
  PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);

  std::size_t done = 0;
  for (const auto& b : res.batches) done += b.degraded ? 0 : 1;
  EXPECT_EQ(res.batches.size(), 30u);
  EXPECT_EQ(done, 25u);
  EXPECT_EQ(res.replans, 8u);
  EXPECT_EQ(res.batches.size() - done, 5u);  // degraded batches
  EXPECT_EQ(res.total().steps, 480179.0);
  EXPECT_EQ(rec.total_steps(), 483507.0);  // + the re-sliced attempts
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> failed_runs =
      {{6592, 6656}, {6688, 6704}, {6720, 6736}, {6752, 6768}};
  EXPECT_EQ(as_runs(res.failed_queries), failed_runs);
  expect_plan(plan, PlanPin{43, 13, 8, 5, 136.0, 0.0001220703125});

  std::vector<bool> failed(stream.size(), false);
  for (const auto i : res.failed_queries) failed[i] = true;
  const auto got = outcomes(stream), want = outcomes(oracle);
  for (std::size_t i = 0; i < stream.size(); ++i)
    EXPECT_EQ(got[i], failed[i] ? pristine[i] : want[i]) << "position " << i;
}

/// FNV-1a over every field of every recorded event, in call order: two runs
/// with equal digests made the same charges, of the same sizes, in the same
/// order.
std::uint64_t event_digest(const std::vector<trace::Event>& events) {
  std::uint64_t h = 14695981039346656037ull;
  auto mix = [&h](std::uint64_t x) {
    for (int b = 0; b < 8; ++b) {
      h ^= (x >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const auto& e : events) {
    mix(static_cast<std::uint64_t>(e.prim));
    mix(std::bit_cast<std::uint64_t>(e.p));
    mix(std::bit_cast<std::uint64_t>(e.steps));
    mix(e.calls);
    mix(std::bit_cast<std::uint64_t>(e.sim_begin));
  }
  return h;
}

/// What a retried-run pin compares beyond the plan counters of `PlanPin`.
struct RetriedPin {
  double total_steps;  ///< res.total(): the surviving attempts
  std::size_t batches, replans;
  double recorded_steps;  ///< rec.total_steps(): every attempt
  std::size_t events, spans;
  std::uint64_t phase_retries;
  PlanPin plan;
  std::uint64_t event_digest;
};

/// A plan under which Alg-2/3 phases fail and are retried, some more than
/// once, and a batch can exhaust its budget.
mesh::FaultConfig retried_config() {
  mesh::FaultConfig cfg;
  cfg.seed = 7;
  cfg.p_phase = 0.3;
  cfg.max_retries = 2;
  return cfg;
}

/// Run `stream` through `engine` (whose cost model carries `plan` and
/// `rec`) under FIFO batching and check the pin, plus the
/// recovered-or-reported contract against `oracle`.
template <typename Engine>
void expect_retried_run(Engine& engine, std::vector<Query>& stream,
                        const std::vector<Query>& oracle,
                        const mesh::FaultPlan& plan,
                        const trace::TraceRecorder& rec,
                        const RetriedPin& want) {
  const auto pristine = outcomes(stream);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);
  EXPECT_EQ(res.total().steps, want.total_steps);
  EXPECT_EQ(res.batches.size(), want.batches);
  EXPECT_EQ(res.replans, want.replans);
  EXPECT_EQ(rec.total_steps(), want.recorded_steps);
  EXPECT_EQ(rec.events().size(), want.events);
  EXPECT_EQ(rec.spans().size(), want.spans);
  EXPECT_EQ(plan.stats().phase_retries, want.phase_retries);
  expect_plan(plan, want.plan);
  EXPECT_EQ(event_digest(rec.events()), want.event_digest);

  std::vector<bool> failed(stream.size(), false);
  for (const auto i : res.failed_queries) failed[i] = true;
  const auto got = outcomes(stream), expect = outcomes(oracle);
  for (std::size_t i = 0; i < stream.size(); ++i)
    EXPECT_EQ(got[i], failed[i] ? pristine[i] : expect[i]) << "position " << i;
}

TEST(FaultStream, Alg3RetriedRunIsPinned) {
  // Retried Alg-3 phases: each failed attempt re-charges its whole step
  // (a Constrained-Multisearch call's six steps under one retry span) plus
  // backoff. The digest pins the order of every charge.
  const Alg3Fixture fx;
  auto stream = fx.stream(4 * fx.shape.size() + 9);
  auto oracle = stream;
  sequential_multisearch(fx.tree.graph(), fx.tree.euler_scan(), oracle);
  mesh::FaultPlan plan(retried_config());
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.fault = &plan;
  m.trace = &rec;
  PreparedSearch engine(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                        fx.s2, fx.tree.euler_scan(), m, fx.shape);
  expect_retried_run(engine, stream, oracle, plan, rec,
                     RetriedPin{547616.0, 6, 1, 602360.0, 1738, 1403, 75,
                                PlanPin{78, 1, 1, 0, 728.0, 0.5},
                                5798777442526517576ull});
}

TEST(FaultStream, Alg2RetriedRunIsPinned) {
  const Alg2Fixture fx;
  auto stream = fx.stream(4 * fx.shape.size() + 9);
  auto oracle = stream;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), oracle);
  mesh::FaultPlan plan(retried_config());
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.fault = &plan;
  m.trace = &rec;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  expect_retried_run(engine, stream, oracle, plan, rec,
                     RetriedPin{61728.0, 5, 0, 61728.0, 149, 131, 4,
                                PlanPin{4, 0, 0, 0, 32.0, 1.0},
                                4680398838506141772ull});
}

TEST(FaultStream, Alg1LongDegradedStreamKeepsAPositiveCapacityFactor) {
  // A long run of exhausted slices halves the capacity factor once per
  // slice, far past the point where every slice holds one query. The
  // factor stops at its floor there: the slicing (and so the batch count)
  // is what it was without the floor, and the exported gauge stays > 0.
  const Alg1Fixture fx;
  auto stream = fx.stream(16393);
  mesh::FaultConfig cfg = mixed_outcome_config();
  cfg.p_phase = 0.4;
  mesh::FaultPlan plan(cfg);
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.fault = &plan;
  PreparedSearch engine(fx.dag, PlanKind::kPaper, ds::HashWalk{0}, m,
                        fx.shape);
  StreamScheduler sched(engine, BatchPolicy{});
  const auto res = sched.run(stream);
  EXPECT_EQ(res.batches.size(), 3789u);
  EXPECT_EQ(plan.stats().degraded_batches, 2145u);
  EXPECT_EQ(plan.stats().capacity_factor, mesh::kFaultMinCapacityFactor);
  EXPECT_EQ(plan.effective_capacity(engine.capacity()), 1u);
  mesh::record_fault_metrics(&rec, plan);
  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  EXPECT_GT(metrics.at("fault.capacity_factor"), 0.0);
}

TEST(FaultStream, FaultMetricsExportedOnlyWhenArmed) {
  const Alg3Fixture fx;
  auto run = [&](double p_phase) {
    trace::TraceRecorder rec("counting");
    mesh::FaultConfig cfg;
    cfg.seed = 9;
    cfg.p_phase = p_phase;
    mesh::FaultPlan plan(cfg);
    mesh::CostModel m;
    m.trace = &rec;
    m.fault = &plan;
    PreparedSearch engine(EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1,
                          fx.s2, fx.tree.euler_scan(), m, fx.shape);
    auto stream = fx.stream(2 * fx.shape.size());
    StreamScheduler sched(engine, BatchPolicy{});
    sched.run(stream);
    std::map<std::string, double> metrics;
    for (const auto& mt : rec.stats().snapshot().gauges)
      metrics[mt.name] = mt.value;
    // Both JSON exports carry whatever metrics were recorded.
    std::ostringstream trace_json, metrics_json;
    trace::write_trace_json(rec, trace_json);
    trace::write_metrics_json(rec, metrics_json);
    if (metrics.count("fault.phase_retries") != 0) {
      EXPECT_NE(trace_json.str().find("fault.phase_retries"),
                std::string::npos);
      EXPECT_NE(metrics_json.str().find("fault.phase_retries"),
                std::string::npos);
    } else {
      EXPECT_EQ(trace_json.str().find("fault."), std::string::npos);
      EXPECT_EQ(metrics_json.str().find("fault."), std::string::npos);
    }
    return metrics;
  };

  const auto armed = run(0.3);
  ASSERT_EQ(armed.count("fault.phase_retries"), 1u);
  ASSERT_EQ(armed.count("fault.backoff_steps"), 1u);
  ASSERT_EQ(armed.count("fault.capacity_factor"), 1u);
  EXPECT_GT(armed.at("fault.phase_retries"), 0.0);
  EXPECT_GT(armed.at("fault.backoff_steps"), 0.0);

  // Disarmed (p = 0): no fault.* metrics at all — trace bit-identity.
  const auto disarmed = run(0.0);
  for (const auto& [name, value] : disarmed)
    EXPECT_NE(name.rfind("fault.", 0), 0u) << name << " leaked when disarmed";
}

// ---------------------------------------------------------------------------
// (4) Cycle engine: stalls and drops delay, never corrupt.
// ---------------------------------------------------------------------------

struct CycleFixture {
  mesh::MeshShape shape{16};
  std::vector<std::int64_t> table, addr;

  CycleFixture() {
    const std::size_t p = shape.size();
    util::Rng rng(123);
    table.resize(p);
    addr.resize(p);
    for (std::size_t i = 0; i < p; ++i) {
      table[i] = static_cast<std::int64_t>(rng.uniform(1ull << 30));
      addr[i] = static_cast<std::int64_t>(rng.uniform(p));
    }
  }
};

TEST(FaultCycle, DisarmedPlanLeavesRarBitIdentical) {
  const CycleFixture fx;
  const auto bare =
      mesh::cycle_random_access_read(fx.shape, fx.table, fx.addr, 0);
  mesh::FaultPlan disarmed;
  const auto with = mesh::cycle_random_access_read(fx.shape, fx.table, fx.addr,
                                                   0, nullptr, &disarmed);
  EXPECT_EQ(bare.out, with.out);
  EXPECT_EQ(bare.steps, with.steps);
  EXPECT_EQ(disarmed.stats().detections, 0u);
}

TEST(FaultCycle, StallsAndDropsDelayButNeverCorrupt) {
  const CycleFixture fx;
  const auto oracle =
      mesh::cycle_random_access_read(fx.shape, fx.table, fx.addr, 0);
  mesh::FaultConfig cfg;
  cfg.seed = 7;
  cfg.p_stall = 0.01;
  cfg.p_drop = 0.01;
  mesh::FaultPlan plan(cfg);
  const auto faulty = mesh::cycle_random_access_read(fx.shape, fx.table,
                                                     fx.addr, 0, nullptr,
                                                     &plan);
  EXPECT_EQ(faulty.out, oracle.out);  // data bit-identical
  EXPECT_GE(faulty.steps, oracle.steps);
  const auto s = plan.stats();
  EXPECT_GT(s.injected_stalls, 0u);
  EXPECT_GT(s.injected_drops, 0u);
  EXPECT_GT(s.lockstep_retried_steps, 0u);  // shearsort/scan/broadcast hits
  EXPECT_GT(faulty.steps, oracle.steps);    // those retries are counted
}

TEST(FaultCycle, ArmedRarIsDeterministic) {
  const CycleFixture fx;
  auto run = [&] {
    mesh::FaultConfig cfg;
    cfg.seed = 17;
    cfg.p_stall = 0.02;
    cfg.p_drop = 0.02;
    mesh::FaultPlan plan(cfg);
    return mesh::cycle_random_access_read(fx.shape, fx.table, fx.addr, 0,
                                          nullptr, &plan);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(FaultCycle, CorruptionIsDetectedRecoveredAndBitIdentical) {
  // End-to-end transport integrity: with p_corrupt armed, every corrupted
  // word is caught by its checksum and retransmitted — the delivered data
  // matches the fault-free oracle exactly, and the recovery shows up in the
  // corrupt counters and the step count. Silent corruption would surface as
  // an outcome mismatch here (or an IntegrityError at delivery).
  const CycleFixture fx;
  const auto oracle =
      mesh::cycle_random_access_read(fx.shape, fx.table, fx.addr, 0);
  mesh::FaultConfig cfg;
  cfg.seed = 29;
  cfg.p_corrupt = 0.02;
  mesh::FaultPlan plan(cfg);
  const auto faulty = mesh::cycle_random_access_read(fx.shape, fx.table,
                                                     fx.addr, 0, nullptr,
                                                     &plan);
  EXPECT_EQ(faulty.out, oracle.out);  // recovered, not approximated
  EXPECT_GT(faulty.steps, oracle.steps);
  const auto s = plan.stats();
  EXPECT_GT(s.corrupt_injected, 0u);
  EXPECT_EQ(s.corrupt_detected, s.corrupt_injected);  // nothing slips through
  EXPECT_GT(s.corrupt_recovered, 0u);
  EXPECT_GT(s.detections, 0u);
}

TEST(FaultCycle, ArmedCorruptionIsDeterministic) {
  const CycleFixture fx;
  auto run = [&] {
    mesh::FaultConfig cfg;
    cfg.seed = 31;
    cfg.p_corrupt = 0.03;
    mesh::FaultPlan plan(cfg);
    auto r = mesh::cycle_random_access_read(fx.shape, fx.table, fx.addr, 0,
                                            nullptr, &plan);
    return std::make_pair(r, plan.stats().corrupt_injected);
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first.out, b.first.out);
  EXPECT_EQ(a.first.steps, b.first.steps);
  EXPECT_EQ(a.second, b.second);
}

TEST(FaultCycle, RawCorruptionSurvivesCombining) {
  const CycleFixture fx;
  std::vector<std::int64_t> value(fx.shape.size());
  for (std::size_t i = 0; i < value.size(); ++i)
    value[i] = static_cast<std::int64_t>(i % 11) + 1;
  const auto oracle =
      mesh::cycle_random_access_write(fx.shape, fx.table, fx.addr, value);
  mesh::FaultConfig cfg;
  cfg.seed = 37;
  cfg.p_corrupt = 0.02;
  mesh::FaultPlan plan(cfg);
  const auto faulty = mesh::cycle_random_access_write(fx.shape, fx.table,
                                                      fx.addr, value, nullptr,
                                                      &plan);
  EXPECT_EQ(faulty.table, oracle.table);
  EXPECT_GT(plan.stats().corrupt_injected, 0u);
}

TEST(FaultRecovery, CorruptionRecoversToFaultFreeOracleOnCountingEngine) {
  // Counting-engine corruption: the end-of-phase checksum audit catches a
  // corrupted phase and re-runs it, so the stream's final outcomes match
  // the fault-free oracle and the corrupt.* counters move.
  const Alg2Fixture fx;
  auto make_engine = [&](const mesh::CostModel& m) {
    return PreparedSearch(EngineKind::kAlg2Alpha, fx.tree.graph(),
                          fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                          fx.tree.rank_count(), m, fx.shape);
  };
  const auto stream0 = fx.stream(3 * fx.shape.size() + 5);
  const RunRecord oracle =
      run_stream(make_engine, stream0, static_cast<mesh::FaultPlan*>(nullptr));
  mesh::FaultConfig cfg;
  cfg.seed = 41;
  cfg.p_corrupt = 0.25;
  mesh::FaultPlan plan(cfg);
  const RunRecord faulty = run_stream(make_engine, stream0, &plan);
  const auto s = plan.stats();
  ASSERT_GT(s.corrupt_injected, 0u) << "workload too small to draw";
  EXPECT_EQ(s.corrupt_detected, s.corrupt_injected);
  EXPECT_GT(s.phase_retries, 0u);  // corrupted phases were re-run
  EXPECT_TRUE(faulty.failed.empty());
  EXPECT_EQ(diff_outcomes(faulty.out, oracle.out), "");
  EXPECT_GT(faulty.cost.steps, oracle.cost.steps);
}

TEST(FaultStream, CorruptMetricsExportedWhenCorruptionArmed) {
  const Alg2Fixture fx;
  trace::TraceRecorder rec("counting");
  mesh::FaultConfig cfg;
  cfg.seed = 43;
  cfg.p_corrupt = 0.3;
  mesh::FaultPlan plan(cfg);
  mesh::CostModel m;
  m.trace = &rec;
  m.fault = &plan;
  PreparedSearch engine(EngineKind::kAlg2Alpha, fx.tree.graph(),
                        fx.tree.alpha_splitting(), fx.tree.alpha_splitting(),
                        fx.tree.rank_count(), m, fx.shape);
  auto stream = fx.stream(2 * fx.shape.size());
  StreamScheduler sched(engine, BatchPolicy{});
  sched.run(stream);
  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  ASSERT_EQ(metrics.count("fault.corrupt.injected"), 1u);
  ASSERT_EQ(metrics.count("fault.corrupt.detected"), 1u);
  ASSERT_EQ(metrics.count("fault.corrupt.recovered"), 1u);
  EXPECT_GT(metrics.at("fault.corrupt.injected"), 0.0);
  EXPECT_EQ(metrics.at("fault.corrupt.detected"),
            metrics.at("fault.corrupt.injected"));
  std::ostringstream trace_json, metrics_json;
  trace::write_trace_json(rec, trace_json);
  trace::write_metrics_json(rec, metrics_json);
  EXPECT_NE(trace_json.str().find("fault.corrupt.injected"),
            std::string::npos);
  EXPECT_NE(metrics_json.str().find("fault.corrupt.injected"),
            std::string::npos);
}

TEST(FaultCycle, LockstepPrimitivesSurviveCorruption) {
  // Shearsort / snake scan / broadcast run through the lockstep path, whose
  // corruption model retransmits within the step. The sorted output must be
  // exactly the fault-free one.
  const mesh::MeshShape shape(8);
  util::Rng rng(53);
  std::vector<std::int64_t> data(shape.size());
  for (auto& d : data) d = static_cast<std::int64_t>(rng.uniform(1u << 20));
  auto clean = mesh::Grid<std::int64_t>::from_snake(shape, data);
  const std::size_t clean_steps = clean.shearsort();
  mesh::FaultConfig cfg;
  cfg.seed = 59;
  cfg.p_corrupt = 0.01;
  mesh::FaultPlan plan(cfg);
  auto faulty = mesh::Grid<std::int64_t>::from_snake(shape, data);
  faulty.set_fault(&plan);
  const std::size_t faulty_steps = faulty.shearsort();
  EXPECT_EQ(faulty.to_snake(), clean.to_snake());
  EXPECT_GT(faulty_steps, clean_steps);
  EXPECT_GT(plan.stats().corrupt_injected, 0u);
}

TEST(FaultCycle, RawCombiningSurvivesInjection) {
  const CycleFixture fx;
  std::vector<std::int64_t> value(fx.shape.size());
  for (std::size_t i = 0; i < value.size(); ++i)
    value[i] = static_cast<std::int64_t>(i % 7) + 1;
  const auto oracle =
      mesh::cycle_random_access_write(fx.shape, fx.table, fx.addr, value);
  mesh::FaultConfig cfg;
  cfg.seed = 19;
  cfg.p_stall = 0.01;
  cfg.p_drop = 0.01;
  mesh::FaultPlan plan(cfg);
  const auto faulty = mesh::cycle_random_access_write(fx.shape, fx.table,
                                                      fx.addr, value, nullptr,
                                                      &plan);
  EXPECT_EQ(faulty.table, oracle.table);
  EXPECT_GE(faulty.steps, oracle.steps);
  EXPECT_GT(plan.stats().detections, 0u);
}

TEST(FaultCycle, ArmedRoutePermutationIsPinned) {
  // Grid::route_permutation under stalls, drops and corruption: the data is
  // the fault-free routing's, and the step count and every routing counter
  // are pinned (any change to the draw order moves them).
  const mesh::MeshShape shape(16);
  util::Rng rng(61);
  std::vector<std::int64_t> data(shape.size());
  for (auto& d : data) d = static_cast<std::int64_t>(rng.uniform(1ull << 40));
  const auto dest = util::random_permutation(shape.size(), rng);
  auto clean = mesh::Grid<std::int64_t>::from_snake(shape, data);
  const std::size_t clean_steps = clean.route_permutation(dest);
  mesh::FaultConfig cfg;
  cfg.seed = 67;
  cfg.p_stall = 0.02;
  cfg.p_drop = 0.02;
  cfg.p_corrupt = 0.02;
  mesh::FaultPlan plan(cfg);
  auto faulty = mesh::Grid<std::int64_t>::from_snake(shape, data);
  faulty.set_fault(&plan);
  const std::size_t faulty_steps = faulty.route_permutation(dest);
  EXPECT_EQ(faulty.to_snake(), clean.to_snake());
  EXPECT_EQ(clean_steps, 25u);
  EXPECT_EQ(faulty_steps, 28u);
  const auto s = plan.stats();
  EXPECT_EQ(s.injected_stalls, 155u);
  EXPECT_EQ(s.injected_drops, 61u);
  EXPECT_EQ(s.corrupt_injected, 52u);
  EXPECT_EQ(s.corrupt_detected, 52u);
  EXPECT_EQ(s.corrupt_recovered, 52u);
  EXPECT_EQ(s.detections, 268u);
}

TEST(FaultCycle, RoutingThatNeverDeliversExhaustsItsGuard) {
  // p_drop = 1 drops every word, so the scaled convergence guard trips.
  // The error replays: the plan's seed, and the routing epoch (one per
  // call, drawn even by a call that moves nothing) as the occurrence.
  const mesh::MeshShape shape(8);
  mesh::FaultConfig cfg;
  cfg.seed = 71;
  cfg.p_drop = 1.0;
  std::vector<std::uint32_t> identity(shape.size()), reverse(shape.size());
  std::vector<std::int64_t> reverse64(shape.size());
  for (std::size_t i = 0; i < shape.size(); ++i) {
    identity[i] = static_cast<std::uint32_t>(i);
    reverse[i] = static_cast<std::uint32_t>(shape.size() - 1 - i);
    reverse64[i] = static_cast<std::int64_t>(reverse[i]);
  }
  const auto expect_exhausted = [&](auto&& route) {
    try {
      route();
      FAIL() << "expected FaultExhaustedError";
    } catch (const mesh::FaultExhaustedError& e) {
      EXPECT_TRUE(e.context().has_seed);
      EXPECT_EQ(e.seed(), 71u);
      EXPECT_EQ(e.occurrence(), 1u);
    }
  };
  {
    mesh::FaultPlan plan(cfg);
    mesh::Grid<std::int64_t> g(shape);
    g.set_fault(&plan);
    EXPECT_EQ(g.route_permutation(identity), 0u);  // epoch 0
    expect_exhausted([&] { g.route_permutation(reverse); });
  }
  {
    mesh::FaultPlan plan(cfg);
    mesh::Grid<std::int64_t> g(shape);
    EXPECT_EQ(mesh::route_partial(g, std::vector<std::int64_t>(shape.size(), -1),
                                  0, nullptr, &plan),
              0u);  // epoch 0
    expect_exhausted(
        [&] { mesh::route_partial(g, reverse64, 0, nullptr, &plan); });
  }
}

// ---------------------------------------------------------------------------
// Per-tenant fault isolation (src/service/): arming a FaultPlan on ONE
// tenant's stream degrades only that tenant — co-resident tenants sharing
// the same warm engine stay bit-identical to a fault-free service run.
// ---------------------------------------------------------------------------

TEST(FaultService, FaultPlanOnOneTenantIsolatesCoResidents) {
  const Alg2Fixture fx;
  const std::size_t cap = fx.shape.size();
  const auto faulty_qs = fx.stream(cap + cap / 2, /*seed=*/81);
  const auto clean_qs = fx.stream(cap + 13, /*seed=*/82);

  // One service run: pinned interleaved trace, optional fault on tenant A.
  struct ServiceRun {
    std::vector<QueryOutcome> faulty_out, clean_out;
    service::TenantReport faulty_rep, clean_rep;
  };
  const auto run = [&](mesh::FaultPlan* plan) {
    const mesh::CostModel m;
    auto engine = service::make_partitioned_engine(
        EngineKind::kAlg2Alpha, fx.tree.graph(), fx.tree.alpha_splitting(),
        fx.tree.alpha_splitting(), fx.tree.rank_count(), m, fx.shape);
    service::ServiceScheduler svc;
    service::TenantQuota quota;
    quota.max_outstanding = 8 * cap;
    service::TenantSession& faulty = svc.add_tenant("faulty", *engine, quota);
    service::TenantSession& clean = svc.add_tenant("clean", *engine, quota);
    faulty.set_fault(plan);
    const auto sf = faulty.submit(faulty_qs);
    const auto sc = clean.submit(clean_qs);
    svc.run_until_idle();
    ServiceRun out;
    for (auto k = sf.first; k < sf.first + sf.count; ++k) {
      const Query& q = faulty.result(k);
      out.faulty_out.push_back(QueryOutcome{q.steps, q.acc0, q.acc1, q.result});
    }
    for (auto k = sc.first; k < sc.first + sc.count; ++k) {
      const Query& q = clean.result(k);
      out.clean_out.push_back(QueryOutcome{q.steps, q.acc0, q.acc1, q.result});
    }
    out.faulty_rep = faulty.report();
    out.clean_rep = clean.report();
    return out;
  };

  const ServiceRun reference = run(nullptr);
  EXPECT_EQ(reference.faulty_rep.failed_queries, 0u);
  EXPECT_EQ(reference.clean_rep.failed_queries, 0u);

  mesh::FaultConfig cfg;
  cfg.seed = 17;
  cfg.p_phase = 1.0;  // every attempt of every phase fails: nothing survives
  mesh::FaultPlan plan(cfg);
  const ServiceRun faulted = run(&plan);

  // The faulty tenant's batches degrade: every query is REPORTED failed at
  // its pre-batch checkpoint (never a silent wrong answer), after visible
  // re-plan generations against its shrinking surviving capacity.
  EXPECT_EQ(faulted.faulty_rep.failed_queries, faulty_qs.size());
  EXPECT_EQ(faulted.faulty_rep.completed, 0u);
  EXPECT_GT(faulted.faulty_rep.degraded_batches, 0u);
  EXPECT_GT(faulted.faulty_rep.replans, 0u);
  EXPECT_EQ(diff_outcomes(faulted.faulty_out, outcomes(faulty_qs)), "");
  EXPECT_GT(plan.stats().exhausted, 0u);
  EXPECT_LT(plan.stats().capacity_factor, 1.0);

  // The co-resident tenant — SHARING the warm engine — is untouched:
  // bit-identical outcomes and charges vs the fault-free run, no failures.
  EXPECT_EQ(faulted.clean_rep.failed_queries, 0u);
  EXPECT_EQ(faulted.clean_rep.degraded_batches, 0u);
  EXPECT_EQ(faulted.clean_rep.completed, clean_qs.size());
  EXPECT_EQ(diff_outcomes(faulted.clean_out, reference.clean_out), "");
  EXPECT_EQ(faulted.clean_rep.charged().steps,
            reference.clean_rep.charged().steps);
}

TEST(FaultService, MixedOutcomeRunIsPinned) {
  const Alg2Fixture fx;
  const std::size_t cap = fx.shape.size();
  const auto qs = fx.stream(cap + 9, 77);
  auto oracle = qs;
  sequential_multisearch(fx.tree.graph(), fx.tree.rank_count(), oracle);
  mesh::FaultPlan plan(mixed_outcome_config());
  const mesh::CostModel m;
  auto engine = service::make_partitioned_engine(
      EngineKind::kAlg2Alpha, fx.tree.graph(), fx.tree.alpha_splitting(),
      fx.tree.alpha_splitting(), fx.tree.rank_count(), m, fx.shape);
  trace::TraceRecorder rec("service");
  service::ServiceScheduler svc({}, &rec);
  service::TenantQuota quota;
  quota.max_outstanding = 8 * cap;
  service::TenantSession& t = svc.add_tenant("solo", *engine, quota);
  t.set_fault(&plan);
  const auto sub = t.submit(qs);
  svc.run_until_idle();

  const service::TenantReport rep = t.report();
  EXPECT_EQ(rep.batches, 7u);
  EXPECT_EQ(rep.replans, 4u);
  EXPECT_EQ(rep.degraded_batches, 1u);
  EXPECT_EQ(rep.completed + rep.failed_queries, qs.size());
  EXPECT_EQ(rep.charged().steps, 60864.0);
  EXPECT_EQ(svc.now_steps(), 60864.0);
  std::vector<std::uint32_t> failed;
  for (auto k = sub.first; k < sub.first + sub.count; ++k) {
    const Query& q = t.result(k);
    if (t.poll(k) == service::QueryState::kFailed) {
      failed.push_back(static_cast<std::uint32_t>(k));
      EXPECT_EQ(outcomes({q})[0], outcomes({qs[k]})[0]) << "ticket " << k;
    } else {
      EXPECT_EQ(outcomes({q})[0], outcomes({oracle[k]})[0]) << "ticket " << k;
    }
  }
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> failed_runs =
      {{3840, 4096}};
  EXPECT_EQ(as_runs(failed), failed_runs);
  expect_plan(plan, PlanPin{5, 5, 4, 1, 0.0, 0.03125});
  expect_one_wall_path(rec, "service.batch", rep.batches + rep.replans);
}

TEST(FaultService, PerTenantFaultMetricsLandUnderTenantNamespace) {
  const Alg3Fixture fx;
  const std::size_t cap = fx.shape.size();
  const mesh::CostModel m;
  auto engine = service::make_partitioned_engine(
      EngineKind::kAlg3AlphaBeta, fx.tree.graph(), fx.s1, fx.s2,
      fx.tree.euler_scan(), m, fx.shape);
  trace::TraceRecorder rec("service");
  service::ServiceScheduler svc({}, &rec);
  service::TenantQuota quota;
  quota.max_outstanding = 8 * cap;
  service::TenantSession& faulty = svc.add_tenant("faulty", *engine, quota);
  service::TenantSession& clean = svc.add_tenant("clean", *engine, quota);
  mesh::FaultConfig cfg;
  cfg.seed = 23;
  cfg.p_phase = 0.5;  // retries happen, batches still (almost surely) survive
  mesh::FaultPlan plan(cfg);
  faulty.set_fault(&plan);
  faulty.submit(fx.stream(cap, 91));
  clean.submit(fx.stream(cap / 2, 92));
  svc.run_until_idle();
  svc.export_metrics();

  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  // The armed plan's family is namespaced under its tenant...
  ASSERT_TRUE(metrics.count("tenant.faulty.fault.phase_failures"));
  EXPECT_GT(metrics.at("tenant.faulty.fault.phase_failures"), 0.0);
  ASSERT_TRUE(metrics.count("tenant.faulty.fault.capacity_factor"));
  // ...the fault-free tenant exports no fault family at all...
  for (const auto& [name, value] : metrics)
    EXPECT_EQ(name.find("tenant.clean.fault."), std::string::npos) << name;
  // ...and nothing leaked into the global (unprefixed) fault namespace.
  EXPECT_EQ(metrics.count("fault.phase_failures"), 0u);
}

}  // namespace
