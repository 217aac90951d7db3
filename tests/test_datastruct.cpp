// Application-layer tests: k-ary trees (construction invariants and all
// three programs) and interval trees (structure, stabbing, splittings,
// counting reduction) — paper §6.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "util/error.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::Interval;
using ds::IntervalTree;
using ds::KaryTree;
using ds::TreeMode;

// ---------------------------------------------------------------------------
// k-ary tree construction
// ---------------------------------------------------------------------------

TEST(KaryTree, StructureInvariants) {
  for (unsigned k : {2u, 3u, 5u, 6u}) {
    KaryTree tree(ds::iota_keys(37), k, TreeMode::kUndirected);
    const auto& g = tree.graph();
    EXPECT_EQ(g.vert(tree.root()).level, 0);
    std::size_t leaves = 0;
    for (const auto& v : g.verts()) {
      if (v.key[6] == 0) {
        ++leaves;
        EXPECT_EQ(v.level, tree.height());
      } else {
        EXPECT_EQ(static_cast<unsigned>(v.key[6]), k);
      }
    }
    EXPECT_EQ(leaves, tree.leaf_count());
    EXPECT_GE(tree.leaf_count(), 37u);
    EXPECT_LT(tree.leaf_count(), 37u * k);
    // Undirected: max degree k+1 (children + parent).
    EXPECT_LE(g.max_degree(), k + 1);
  }
}

TEST(KaryTree, RejectsBadInput) {
  EXPECT_THROW(KaryTree({}, 2, TreeMode::kDirected), std::logic_error);
  EXPECT_THROW(KaryTree(ds::iota_keys(4), 1, TreeMode::kDirected),
               std::logic_error);
  EXPECT_THROW(KaryTree(ds::iota_keys(4), 7, TreeMode::kDirected),
               std::logic_error);
  std::vector<ds::WeightedKey> dup{{1, 1}, {1, 1}};
  EXPECT_THROW(KaryTree(dup, 2, TreeMode::kDirected), std::logic_error);
}

TEST(KaryTree, RejectsNegativeWeightsAndOverflowingTotals) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  EXPECT_THROW(KaryTree({{0, kMax}, {1, 1}}, 2, TreeMode::kDirected),
               InvalidInputError);
  EXPECT_THROW(KaryTree({{0, 5}, {1, -1}}, 2, TreeMode::kDirected),
               InvalidInputError);
  // A total of exactly INT64_MAX is legal and every rank stays exact.
  KaryTree tree({{0, kMax - 1}, {1, 1}, {2, 0}}, 2, TreeMode::kDirected);
  auto qs = make_queries(3);
  for (std::size_t i = 0; i < qs.size(); ++i)
    qs[i].key[0] = static_cast<std::int64_t>(i);
  sequential_multisearch(tree.graph(), tree.rank_count(), qs);
  EXPECT_EQ(qs[0].acc0, kMax - 1);
  EXPECT_EQ(qs[1].acc0, kMax);
  EXPECT_EQ(qs[2].acc0, kMax);
}

TEST(KaryTree, SingleKeyDegenerate) {
  KaryTree tree(ds::iota_keys(1), 2, TreeMode::kDirected);
  EXPECT_EQ(tree.height(), 0);
  auto qs = make_queries(3);
  qs[0].key[0] = -5;
  qs[1].key[0] = 0;
  qs[2].key[0] = 99;
  sequential_multisearch(tree.graph(), tree.predecessor_search(), qs);
  EXPECT_EQ(qs[0].acc0, std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(qs[1].acc0, 0);
  EXPECT_EQ(qs[2].acc0, 0);
}

TEST(KaryTree, PredecessorAgainstBinarySearch) {
  util::Rng rng(42);
  std::vector<ds::WeightedKey> keys;
  std::int64_t cur = 0;
  for (int i = 0; i < 300; ++i) {
    cur += 1 + static_cast<std::int64_t>(rng.uniform(10));
    keys.push_back({cur, 1});
  }
  KaryTree tree(keys, 4, TreeMode::kDirected);
  auto qs = make_queries(500);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(rng.uniform(static_cast<std::uint64_t>(cur + 50)));
  sequential_multisearch(tree.graph(), tree.predecessor_search(), qs);
  for (const auto& q : qs) {
    auto it = std::upper_bound(
        keys.begin(), keys.end(), q.key[0],
        [](std::int64_t x, const ds::WeightedKey& w) { return x < w.key; });
    const std::int64_t expect = it == keys.begin()
                                    ? std::numeric_limits<std::int64_t>::min()
                                    : std::prev(it)->key;
    EXPECT_EQ(q.acc0, expect) << "x=" << q.key[0];
  }
}

TEST(KaryTree, RankWithWeights) {
  util::Rng rng(43);
  std::vector<ds::WeightedKey> keys;
  for (int i = 0; i < 200; ++i)
    keys.push_back({2 * i, 1 + static_cast<std::int64_t>(rng.uniform(5))});
  KaryTree tree(keys, 3, TreeMode::kDirected);
  auto qs = make_queries(300);
  for (auto& q : qs) q.key[0] = rng.uniform_range(-5, 405);
  sequential_multisearch(tree.graph(), tree.rank_count(), qs);
  for (const auto& q : qs) {
    std::int64_t expect = 0;
    for (const auto& w : keys)
      if (w.key <= q.key[0]) expect += w.weight;
    EXPECT_EQ(q.acc0, expect) << "x=" << q.key[0];
  }
}

TEST(KaryTree, EulerScanChecksumIsOrderFree) {
  KaryTree tree(ds::iota_keys(50), 2, TreeMode::kUndirected);
  auto qs = make_queries(2);
  qs[0].key[0] = 10;
  qs[0].key[1] = 20;
  qs[1].key[0] = 10;
  qs[1].key[1] = 20;
  sequential_multisearch(tree.graph(), tree.euler_scan(), qs);
  EXPECT_EQ(qs[0].acc0, 11);
  EXPECT_EQ(qs[0].acc1, qs[1].acc1);
  EXPECT_NE(qs[0].acc1, 0);
}

TEST(KaryTree, EulerScanEmptyRange) {
  KaryTree tree(ds::iota_keys(64), 2, TreeMode::kUndirected);
  auto qs = make_queries(2);
  qs[0].key[0] = 100;  // beyond all keys
  qs[0].key[1] = 200;
  qs[1].key[0] = 20;   // inverted range
  qs[1].key[1] = 10;
  sequential_multisearch(tree.graph(), tree.euler_scan(), qs);
  EXPECT_EQ(qs[0].acc0, 0);
  EXPECT_EQ(qs[1].acc0, 0);
}

// ---------------------------------------------------------------------------
// interval tree
// ---------------------------------------------------------------------------

std::vector<Interval> random_intervals(std::size_t n, std::int64_t span,
                                       std::int64_t max_len, util::Rng& rng) {
  std::vector<Interval> ivs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t lo = rng.uniform_range(0, span);
    ivs[i] = Interval{lo, lo + rng.uniform_range(0, max_len),
                      static_cast<std::int32_t>(i)};
  }
  return ivs;
}

TEST(IntervalTree, StructureCounts) {
  util::Rng rng(1);
  const auto ivs = random_intervals(100, 1000, 50, rng);
  IntervalTree t(ivs);
  EXPECT_EQ(t.interval_count(), 100u);
  // Every interval appears in exactly two chains.
  EXPECT_EQ(t.chain_node_count(), 200u);
  EXPECT_LE(t.graph().max_degree(), msearch::kMaxDegree);
  t.graph().validate();
}

TEST(IntervalTree, StabbingSingleInterval) {
  IntervalTree t({{10, 20, 0}});
  auto qs = make_queries(4);
  qs[0].key[0] = 5;
  qs[1].key[0] = 10;
  qs[2].key[0] = 15;
  qs[3].key[0] = 21;
  sequential_multisearch(t.graph(), t.stabbing_program(), qs);
  EXPECT_EQ(qs[0].acc0, 0);
  EXPECT_EQ(qs[1].acc0, 1);
  EXPECT_EQ(qs[2].acc0, 1);
  EXPECT_EQ(qs[3].acc0, 0);
}

TEST(IntervalTree, StabbingPointIntervals) {
  IntervalTree t({{5, 5, 0}, {5, 5, 1}, {7, 7, 2}});
  auto qs = make_queries(3);
  qs[0].key[0] = 5;
  qs[1].key[0] = 6;
  qs[2].key[0] = 7;
  sequential_multisearch(t.graph(), t.stabbing_program(), qs);
  EXPECT_EQ(qs[0].acc0, 2);
  EXPECT_EQ(qs[1].acc0, 0);
  EXPECT_EQ(qs[2].acc0, 1);
}

class IntervalStabTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(IntervalStabTest, MatchesOracle) {
  const auto [n, max_len] = GetParam();
  util::Rng rng(50 + n + max_len);
  const auto ivs = random_intervals(static_cast<std::size_t>(n), 500,
                                    max_len, rng);
  IntervalTree t(ivs);
  auto qs = make_queries(200);
  for (auto& q : qs) q.key[0] = rng.uniform_range(-10, 600);
  sequential_multisearch(t.graph(), t.stabbing_program(), qs);
  for (const auto& q : qs) {
    const auto [cnt, sum] = IntervalTree::stab_oracle(ivs, q.key[0]);
    EXPECT_EQ(q.acc0, cnt) << "x=" << q.key[0];
    EXPECT_EQ(q.acc1, sum) << "x=" << q.key[0];
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, IntervalStabTest,
    ::testing::Combine(::testing::Values(1, 7, 50, 300),
                       ::testing::Values(0, 5, 100, 600)));

TEST(IntervalTree, StabbingViaAlgorithm3) {
  util::Rng rng(77);
  const auto ivs = random_intervals(400, 2000, 80, rng);
  IntervalTree t(ivs);
  auto qs = make_queries(400);
  for (auto& q : qs) q.key[0] = rng.uniform_range(0, 2100);
  auto qseq = qs;
  sequential_multisearch(t.graph(), t.stabbing_program(), qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = t.graph().shape_for(qalg.size());
  const auto [s1, s2] = t.alpha_beta_splittings();
  validate_splitting(t.graph(), s1);
  validate_splitting(t.graph(), s2);
  const auto res = multisearch_alpha_beta(t.graph(), s1, s2,
                                          t.stabbing_program(), qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
}

TEST(IntervalTree, SplittingPieceSizesAreSubLinear) {
  util::Rng rng(78);
  // Adversarial-ish: all intervals straddle the same midpoint => one node
  // owns every chain.
  std::vector<Interval> ivs;
  for (int i = 0; i < 500; ++i)
    ivs.push_back({500 - i, 500 + i, i});
  IntervalTree t(ivs);
  const auto [s1, s2] = t.alpha_beta_splittings();
  const double n = static_cast<double>(t.graph().vertex_count());
  // S1 cuts chains into sqrt(n) segments: max piece O(sqrt n).
  EXPECT_LE(static_cast<double>(max_piece_size(s1)), 4.0 * std::sqrt(n) + 64);
  // S2 attaches half-period prefixes; still far below n.
  EXPECT_LE(static_cast<double>(max_piece_size(s2)), n / 2);
}

// ---------------------------------------------------------------------------
// §6: multiple interval intersection *counting* via two rank trees
// ---------------------------------------------------------------------------

TEST(IntervalCounting, RankReductionMatchesOracle) {
  util::Rng rng(79);
  const auto ivs = random_intervals(300, 1000, 60, rng);
  // Trees over left and right endpoints (with multiplicity as weight).
  auto build_endpoint_tree = [&](bool left) {
    std::vector<std::int64_t> pts;
    for (const auto& iv : ivs) pts.push_back(left ? iv.lo : iv.hi);
    std::sort(pts.begin(), pts.end());
    std::vector<ds::WeightedKey> keys;
    for (const auto p : pts) {
      if (!keys.empty() && keys.back().key == p)
        ++keys.back().weight;
      else
        keys.push_back({p, 1});
    }
    return KaryTree(keys, 4, TreeMode::kDirected);
  };
  const KaryTree ltree = build_endpoint_tree(true);
  const KaryTree rtree = build_endpoint_tree(false);
  // 200 intersection queries [a, b].
  util::Rng qrng(80);
  auto qa = make_queries(200);
  auto qb = make_queries(200);
  std::vector<std::pair<std::int64_t, std::int64_t>> ranges;
  for (std::size_t i = 0; i < qa.size(); ++i) {
    const std::int64_t a = qrng.uniform_range(0, 1100);
    const std::int64_t b = a + qrng.uniform_range(0, 200);
    ranges.emplace_back(a, b);
    qa[i].key[0] = a - 1;  // rank of a-1 among right endpoints: r_i < a
    qb[i].key[0] = b;      // rank of b among left endpoints: l_i <= b
  }
  sequential_multisearch(rtree.graph(), rtree.rank_count(), qa);
  sequential_multisearch(ltree.graph(), ltree.rank_count(), qb);
  const auto n = static_cast<std::int64_t>(ivs.size());
  for (std::size_t i = 0; i < qa.size(); ++i) {
    // |{intersecting [a,b]}| = n - |{r < a}| - |{l > b}|.
    const std::int64_t got = n - qa[i].acc0 - (n - qb[i].acc0);
    EXPECT_EQ(got, ds::intersect_count_oracle(ivs, ranges[i].first,
                                              ranges[i].second))
        << "[a,b]=[" << ranges[i].first << "," << ranges[i].second << "]";
  }
}

}  // namespace
