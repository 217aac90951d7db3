// Seed-parameterized property suite: for many random instances, all
// execution engines must produce identical outcomes, and structural
// invariants must hold. These sweeps are the repository's fuzzing layer —
// every seed builds a different structure and workload.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <span>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/segment_tree.hpp"
#include "datastruct/twothree_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/dk_polygon.hpp"
#include "geometry/hull2d.hpp"
#include "mesh/cycle_ops.hpp"
#include "mesh/grid.hpp"
#include "mesh/ops.hpp"
#include "util/error.hpp"
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
// Randomized primitive-sequence fuzzing: cycle engine vs counting engine
// ---------------------------------------------------------------------------

class PrimitiveFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Random sequences of sort/scan/broadcast/RAR/RAW over random data,
// generalizing the fixed V1 cases of test_cycle_ops.cpp: after every
// operation the cycle engine's data must equal the counting engine's, and
// the measured step count must stay within the charged shearsort-model
// envelope (the same 3x constant the V1 cases use — shearsort/scan/RAR all
// measure below 2x their physical_sort charge; 3x leaves the constant
// headroom the charged model is allowed).
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
        mesh::ops::sort(expect, phys, p);
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
        mesh::ops::scan_inclusive(expect, phys, p);
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
        std::vector<std::int64_t> expect;
        mesh::ops::random_access_read<std::int64_t>(data, addr, expect, phys,
                                                    p);
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
        mesh::ops::random_access_write<std::int64_t>(
            addr, values, expect, std::plus<std::int64_t>{}, phys, p);
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

// ---------------------------------------------------------------------------
// SoA kernel layer: radix sort vs stable_sort, arena, bounds promotion
// ---------------------------------------------------------------------------

class SoaKernels : public ::testing::TestWithParam<std::uint64_t> {};

// Adversarial key distributions, one per seed residue: the radix sort must
// equal std::stable_sort bit-for-bit on every one of them.
std::vector<std::int64_t> soa_test_keys(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed * 0x2545f4914f6cdd1dull + 11);
  std::vector<std::int64_t> keys(n);
  switch (seed % 6) {
    case 0:  // full signed 64-bit range (sign-bit flip must be correct)
      for (auto& k : keys)
        k = static_cast<std::int64_t>(rng.uniform(~0ull));
      break;
    case 1:  // all equal
      std::fill(keys.begin(), keys.end(),
                rng.uniform_range(-1000, 1000));
      break;
    case 2:  // pre-sorted ascending
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = static_cast<std::int64_t>(i) - 50;
      break;
    case 3:  // reverse-sorted
      for (std::size_t i = 0; i < n; ++i)
        keys[i] = static_cast<std::int64_t>(n - i);
      break;
    case 4:  // 1-bit keys (maximal duplication; stability does the work)
      for (auto& k : keys) k = rng.bernoulli(0.5) ? 1 : 0;
      break;
    default:  // narrow range (most radix passes constant -> skipped)
      for (auto& k : keys) k = rng.uniform_range(-3, 3);
      break;
  }
  return keys;
}

TEST_P(SoaKernels, RadixSortValuesMatchesStableSort) {
  util::Rng rng(GetParam() * 0x9e3779b97f4a7c15ull + 3);
  const std::size_t n = rng.uniform(5000);
  auto keys = soa_test_keys(GetParam(), n);
  auto expect = keys;
  std::stable_sort(expect.begin(), expect.end());
  mesh::ops::soa::sort_values(keys);
  EXPECT_EQ(keys, expect);
}

TEST_P(SoaKernels, RadixSortIndexMatchesStableSortOrder) {
  util::Rng rng(GetParam() * 0xda3e39cb94b95bdbull + 7);
  const std::size_t n = rng.uniform(5000);
  const auto keys = soa_test_keys(GetParam() + 1, n);
  std::vector<std::uint32_t> expect(n);
  std::iota(expect.begin(), expect.end(), 0u);
  std::stable_sort(expect.begin(), expect.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return keys[a] < keys[b];
                   });
  const auto order = mesh::ops::soa::sort_index(
      std::span<const std::int64_t>(keys));
  // Equality with the stable order is exactly the stability property: equal
  // keys keep ascending index order.
  EXPECT_EQ(order, expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoaKernels,
                         ::testing::Range<std::uint64_t>(0, 24));

TEST(SoaKernelsEdge, TinyInputs) {
  std::vector<std::int64_t> empty;
  mesh::ops::soa::sort_values(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<std::int64_t> one{42};
  mesh::ops::soa::sort_values(one);
  EXPECT_EQ(one, (std::vector<std::int64_t>{42}));
  std::vector<std::int64_t> two{5, -5};
  mesh::ops::soa::sort_values(two);
  EXPECT_EQ(two, (std::vector<std::int64_t>{-5, 5}));
  EXPECT_TRUE(
      mesh::ops::soa::sort_index(std::span<const std::int64_t>{}).empty());
}

TEST(SoaKernelsEdge, ScratchArenaEpochsAndGrowth) {
  mesh::ops::soa::ScratchArena arena;
  arena.begin(4);
  EXPECT_TRUE(arena.mark(0));
  EXPECT_FALSE(arena.mark(0));  // duplicate within the epoch
  EXPECT_TRUE(arena.mark(3));
  arena.begin(4);               // new epoch: everything unmarked again
  EXPECT_TRUE(arena.mark(0));
  arena.begin(16);              // growth keeps old stamps stale
  for (std::size_t i = 0; i < 16; ++i) EXPECT_TRUE(arena.mark(i));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_FALSE(arena.mark(i));
}

// Satellite: the random-access primitives reject out-of-range addresses in
// RELEASE builds too, with a typed IntegrityError naming the site.
TEST(SoaKernelsEdge, RandomAccessBoundsAreAlwaysOn) {
  const mesh::CostModel m;
  const std::vector<std::int64_t> table(8, 0);
  const auto expect_violation = [](auto&& fn, const char* phase) {
    try {
      fn();
      FAIL() << phase << " accepted an out-of-range address";
    } catch (const IntegrityError& e) {
      EXPECT_EQ(e.context().engine, "counting");
      EXPECT_EQ(e.context().phase, phase);
      EXPECT_NE(e.message().find("out of range"), std::string::npos);
    }
  };
  std::vector<mesh::ops::Addr> addr(3, mesh::ops::kNone);
  addr[1] = 8;  // == table size: one past the end
  expect_violation(
      [&] {
        std::vector<std::int64_t> out;
        mesh::ops::random_access_read<std::int64_t>(table, addr, out, m, 8.0);
      },
      "random_access_read");
  addr[1] = -2;  // negative but not the kNone sentinel
  expect_violation(
      [&] {
        std::vector<std::int64_t> t(8, 0);
        const std::vector<std::int64_t> vals(3, 1);
        mesh::ops::random_access_write<std::int64_t>(
            addr, vals, t, std::plus<std::int64_t>{}, m, 8.0);
      },
      "random_access_write");
  addr[1] = 1000;
  expect_violation(
      [&] {
        std::vector<std::uint32_t> counts;
        mesh::ops::random_access_count(addr, counts, 8, m, 8.0);
      },
      "random_access_count");
}

}  // namespace
