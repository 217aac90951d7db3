// Seed-parameterized property suite: for many random instances, all
// execution engines must produce identical outcomes, and structural
// invariants must hold. These sweeps are the repository's fuzzing layer —
// every seed builds a different structure and workload.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/segment_tree.hpp"
#include "datastruct/twothree_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/dk_polygon.hpp"
#include "geometry/hull2d.hpp"
#include "mesh/cycle_ops.hpp"
#include "mesh/grid.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/synchronous.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;

class SeedTest : public ::testing::TestWithParam<std::uint64_t> {};

// All four execution strategies agree on a random k-ary tree workload of a
// random size, fan-out and key skew.
TEST_P(SeedTest, AllEnginesAgreeOnKaryRank) {
  util::Rng rng(GetParam() * 7919 + 1);
  const std::size_t nkeys = 2 + rng.uniform(3000);
  const unsigned k = 2 + static_cast<unsigned>(rng.uniform(5));
  ds::KaryTree tree(ds::iota_keys(nkeys), k, ds::TreeMode::kDirected);
  auto qs = rng.bernoulli(0.5)
                ? ds::uniform_key_queries(nkeys, nkeys + 10, rng)
                : ds::zipf_key_queries(nkeys, nkeys, 1.0, rng);
  auto q_seq = qs;
  sequential_multisearch(tree.graph(), tree.rank_count(), q_seq);
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qs.size());
  auto q_sync = qs;
  reset_queries(q_sync);
  synchronous_multisearch(tree.graph(), tree.rank_count(), q_sync, m, shape);
  auto q_on = qs;
  multisearch_alpha(tree.graph(), tree.alpha_splitting(), tree.rank_count(),
                    q_on, m, shape, true);
  auto q_off = qs;
  multisearch_alpha(tree.graph(), tree.alpha_splitting(), tree.rank_count(),
                    q_off, m, shape, false);
  EXPECT_EQ(diff_outcomes(outcomes(q_seq), outcomes(q_sync)), "");
  EXPECT_EQ(diff_outcomes(outcomes(q_seq), outcomes(q_on)), "");
  EXPECT_EQ(diff_outcomes(outcomes(q_seq), outcomes(q_off)), "");
}

// Interval tree (Alg 3) and segment tree (Alg 2) agree with the oracle on
// random interval sets of random density.
TEST_P(SeedTest, StabbingStructuresAgree) {
  util::Rng rng(GetParam() * 104729 + 2);
  const std::size_t n = 1 + rng.uniform(600);
  const std::int64_t span = 1 + static_cast<std::int64_t>(rng.uniform(2000));
  const std::int64_t maxlen = static_cast<std::int64_t>(rng.uniform(400));
  std::vector<ds::Interval> ivs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t lo = rng.uniform_range(-span, span);
    ivs[i] = ds::Interval{lo, lo + rng.uniform_range(0, maxlen),
                          static_cast<std::int32_t>(i)};
  }
  ds::IntervalTree it(ivs);
  ds::SegmentTree st(ivs);
  auto qs = make_queries(200);
  for (auto& q : qs) q.key[0] = rng.uniform_range(-span - 50, span + 450);
  auto q_it = qs, q_st = qs;
  sequential_multisearch(it.graph(), it.stabbing_program(), q_it);
  sequential_multisearch(st.graph(), st.stab_count(), q_st);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto [cnt, sum] = ds::IntervalTree::stab_oracle(ivs, qs[i].key[0]);
    EXPECT_EQ(q_it[i].acc0, cnt);
    EXPECT_EQ(q_it[i].acc1, sum);
    EXPECT_EQ(q_st[i].acc0, cnt);
  }
}

// 2-3 tree and k-ary (k=2..3 equivalent class) agree on membership.
TEST_P(SeedTest, TwoThreeLookupMatchesOracle) {
  util::Rng rng(GetParam() * 1299709 + 3);
  const std::size_t n = 1 + rng.uniform(2000);
  std::vector<std::int64_t> keys;
  std::int64_t cur = rng.uniform_range(-100, 0);
  for (std::size_t i = 0; i < n; ++i) {
    cur += 1 + static_cast<std::int64_t>(rng.uniform(4));
    keys.push_back(cur);
  }
  ds::TwoThreeTree t(keys);
  auto qs = make_queries(300);
  for (auto& q : qs) q.key[0] = rng.uniform_range(-120, cur + 20);
  // Through Algorithm 2, not just sequentially.
  const mesh::CostModel m;
  const auto shape = t.graph().shape_for(qs.size());
  multisearch_alpha(t.graph(), t.alpha_splitting(), t.lookup(), qs, m, shape);
  for (const auto& q : qs) {
    const bool member = std::binary_search(keys.begin(), keys.end(), q.key[0]);
    EXPECT_EQ(q.acc0, member ? 1 : 0);
  }
}

// Random hierarchical DAGs: both plan kinds equal the oracle; cost positive.
TEST_P(SeedTest, HierarchicalPlansAgree) {
  util::Rng rng(GetParam() * 15485863 + 4);
  const double mu = 1.5 + rng.uniform_real() * 2.5;
  const std::size_t n = 64 + rng.uniform(40000);
  const auto g = ds::build_hierarchical_dag(n, mu, 2 + rng.uniform(3), rng);
  const HierarchicalDag dag(g, mu);
  auto qs = make_queries(std::min<std::size_t>(g.vertex_count(), 4000));
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 31));
  auto q_seq = qs;
  const ds::HashWalk prog{0};
  sequential_multisearch(g, prog, q_seq);
  const mesh::CostModel m;
  const auto shape = g.shape_for(g.vertex_count());
  auto q_p = qs;
  const auto rp = hierarchical_multisearch(dag, prog, q_p, m, shape,
                                           PlanKind::kPaper);
  auto q_g = qs;
  const auto rg = hierarchical_multisearch(dag, prog, q_g, m, shape,
                                           PlanKind::kGeometric);
  EXPECT_EQ(diff_outcomes(outcomes(q_seq), outcomes(q_p)), "");
  EXPECT_EQ(diff_outcomes(outcomes(q_seq), outcomes(q_g)), "");
  EXPECT_GT(rp.cost.steps, 0.0);
  EXPECT_GT(rg.cost.steps, 0.0);
}

// DK polygon hierarchy: extreme values equal brute force for random convex
// polygons and directions.
TEST_P(SeedTest, PolygonExtremesMatchBrute) {
  util::Rng rng(GetParam() * 32452843 + 5);
  const auto poly =
      geom::random_convex_polygon(3 + rng.uniform(400), 50000, rng);
  geom::DKPolygon dk(poly);
  auto qs = make_queries(100);
  for (auto& q : qs) {
    do {
      q.key[0] = rng.uniform_range(-500, 500);
      q.key[1] = rng.uniform_range(-500, 500);
    } while (q.key[0] == 0 && q.key[1] == 0);
  }
  sequential_multisearch(dk.extreme_dag().dag, dk.extreme_program(), qs);
  for (const auto& q : qs)
    EXPECT_EQ(q.acc0,
              dk.extreme_dot_brute(geom::Point2{q.key[0], q.key[1]}));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Randomized primitive-sequence fuzzing: cycle engine vs host definitions
// ---------------------------------------------------------------------------

class PrimitiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Random sequences of sort/scan/broadcast/RAR/RAW over random data,
// generalizing the fixed V1 cases of test_cycle_ops.cpp: after every
// operation the cycle engine's data must equal the primitive's host
// definition, and the measured step count must stay within the charged
// shearsort-model envelope (the same 3x constant the V1 cases use —
// shearsort/scan/RAR all measure below 2x their physical_sort charge; 3x
// leaves the constant headroom the charged model is allowed).
TEST_P(PrimitiveFuzz, EnginesAgreeOnRandomPrimitiveSequences) {
  util::Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 0xda3e39cb94b95bdbull);
  const mesh::MeshShape shape(1u << (1 + rng.uniform(4)));  // side 2..16
  const std::size_t n = shape.size();
  const double p = static_cast<double>(n);
  mesh::CostModel phys;
  phys.physical_sort = true;  // charge the shearsort bound the grid runs

  std::vector<std::int64_t> data(n);
  for (auto& v : data) v = rng.uniform_range(-1'000'000, 1'000'000);
  // Prefix sums of prefix sums overflow; rebound values before additive ops.
  const auto clamp = [&] {
    for (auto& v : data) v %= 1'000'000;
  };
  const auto random_addrs = [&] {
    std::vector<std::int64_t> addr(n, mesh::kNoAddr);
    for (auto& a : addr)
      if (!rng.bernoulli(0.25))
        a = static_cast<std::int64_t>(rng.uniform(n));
    return addr;
  };

  double measured_total = 0.0, charged_total = 0.0;
  const std::size_t ops = 4 + rng.uniform(5);  // 4..8 ops per sequence
  for (std::size_t op = 0; op < ops; ++op) {
    double measured = 0.0, charged = 0.0;
    switch (rng.uniform(5)) {
      case 0: {  // sort
        auto g = mesh::Grid<std::int64_t>::from_snake(shape, data);
        measured = static_cast<double>(g.shearsort());
        charged = phys.sort(p).steps;
        auto expect = data;
        std::stable_sort(expect.begin(), expect.end());
        EXPECT_EQ(g.to_snake(), expect);
        data = std::move(expect);
        break;
      }
      case 1: {  // prefix scan
        clamp();
        auto g = mesh::Grid<std::int64_t>::from_snake(shape, data);
        measured = static_cast<double>(g.snake_scan(
            [](std::int64_t a, std::int64_t b) { return a + b; }));
        charged = phys.scan(p).steps;
        auto expect = data;
        std::partial_sum(expect.begin(), expect.end(), expect.begin());
        EXPECT_EQ(g.to_snake(), expect);
        data = std::move(expect);
        break;
      }
      case 2: {  // broadcast from the snake origin
        auto g = mesh::Grid<std::int64_t>::from_snake(shape, data);
        measured = static_cast<double>(g.broadcast_from_origin());
        charged = phys.broadcast(p).steps;
        const std::vector<std::int64_t> expect(n, data[0]);
        EXPECT_EQ(g.to_snake(), expect);
        data = expect;
        break;
      }
      case 3: {  // random access read (concurrent reads + idle processors)
        const auto addr = random_addrs();
        const auto res = mesh::cycle_random_access_read(shape, data, addr);
        measured = static_cast<double>(res.steps);
        charged = phys.rar(p).steps;
        std::vector<std::int64_t> expect(n, 0);  // no request reads 0
        for (std::size_t i = 0; i < n; ++i)
          if (addr[i] != mesh::kNoAddr)
            expect[i] = data[static_cast<std::size_t>(addr[i])];
        EXPECT_EQ(res.out, expect);
        data = std::move(expect);
        break;
      }
      case 4: {  // random access write (sum combining)
        clamp();
        const auto addr = random_addrs();
        const auto values = data;
        const auto res =
            mesh::cycle_random_access_write(shape, data, addr, values);
        measured = static_cast<double>(res.steps);
        charged = phys.raw(p).steps;
        auto expect = data;
        for (std::size_t i = 0; i < n; ++i)
          if (addr[i] != mesh::kNoAddr)
            expect[static_cast<std::size_t>(addr[i])] += values[i];
        EXPECT_EQ(res.table, expect);
        data = std::move(expect);
        break;
      }
    }
    EXPECT_LE(measured, 3.0 * charged);
    measured_total += measured;
    charged_total += charged;
  }
  EXPECT_GT(charged_total, 0.0);
  EXPECT_LE(measured_total, 3.0 * charged_total);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrimitiveFuzz,
                         ::testing::Range<std::uint64_t>(0, 50));

}  // namespace
