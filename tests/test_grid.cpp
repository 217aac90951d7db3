// Cycle-engine tests: the physically faithful grid simulator, plus the
// cross-engine checks (V1) that tie it to the primitives' host definitions
// (identical data results) and to the counting engine's charged bounds
// (measured step counts tracking them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "mesh/cost.hpp"
#include "mesh/grid.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using mesh::Grid;
using mesh::MeshShape;

std::vector<std::int64_t> random_values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.uniform_range(-1000000, 1000000);
  return v;
}

TEST(Grid, SnakeRoundTrip) {
  const MeshShape s(4);
  const auto vals = random_values(s.size(), 1);
  const auto g = Grid<std::int64_t>::from_snake(s, vals);
  EXPECT_EQ(g.to_snake(), vals);
}

class ShearsortTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShearsortTest, SortsIntoSnakeOrder) {
  const MeshShape s(GetParam());
  auto vals = random_values(s.size(), 17 + GetParam());
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  const std::size_t steps = g.shearsort();
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(g.to_snake(), expect);
  // Shearsort bound: (2 ceil(log2 s) + 3) * s steps.
  const double side = s.side();
  const double bound = (2 * std::ceil(std::log2(side)) + 3) * side + side;
  EXPECT_LE(static_cast<double>(steps), bound);
  EXPECT_GE(steps, s.side());
}

INSTANTIATE_TEST_SUITE_P(Sides, ShearsortTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(Grid, ShearsortWithDuplicates) {
  const MeshShape s(8);
  util::Rng rng(3);
  std::vector<std::int64_t> vals(s.size());
  for (auto& x : vals) x = rng.uniform(4);  // heavy duplication
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  g.shearsort();
  auto expect = vals;
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(g.to_snake(), expect);
}

TEST(Grid, ShearsortAlreadySorted) {
  const MeshShape s(8);
  std::vector<std::int64_t> vals(s.size());
  std::iota(vals.begin(), vals.end(), 0);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  g.shearsort();
  EXPECT_EQ(g.to_snake(), vals);
}

TEST(Grid, SortRowsAscending) {
  const MeshShape s(4);
  auto vals = random_values(s.size(), 5);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  const std::size_t steps = g.sort_rows(std::less<std::int64_t>{}, false);
  EXPECT_EQ(steps, s.side());
  for (std::uint32_t r = 0; r < s.side(); ++r)
    for (std::uint32_t c = 0; c + 1 < s.side(); ++c)
      EXPECT_LE(g.at(r, c), g.at(r, c + 1));
}

TEST(Grid, SortColsAscending) {
  const MeshShape s(4);
  auto vals = random_values(s.size(), 6);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  g.sort_cols(std::less<std::int64_t>{});
  for (std::uint32_t c = 0; c < s.side(); ++c)
    for (std::uint32_t r = 0; r + 1 < s.side(); ++r)
      EXPECT_LE(g.at(r, c), g.at(r + 1, c));
}

TEST(Grid, SnakeScanMatchesPrefixSum) {
  const MeshShape s(8);
  auto vals = random_values(s.size(), 7);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  const std::size_t steps = g.snake_scan(std::plus<std::int64_t>{});
  std::vector<std::int64_t> expect = vals;
  for (std::size_t i = 1; i < expect.size(); ++i) expect[i] += expect[i - 1];
  EXPECT_EQ(g.to_snake(), expect);
  EXPECT_EQ(steps, 3u * s.side());
}

TEST(Grid, SnakeScanNonCommutativeOp) {
  // Scan with string-like concatenation encoded as (value, length) pairs
  // is overkill; use max, which is associative but not invertible.
  const MeshShape s(4);
  auto vals = random_values(s.size(), 8);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  g.snake_scan([](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  std::vector<std::int64_t> expect = vals;
  for (std::size_t i = 1; i < expect.size(); ++i)
    expect[i] = std::max(expect[i], expect[i - 1]);
  EXPECT_EQ(g.to_snake(), expect);
}

TEST(Grid, AtBoundsCheckedInDebugOnBothOverloads) {
#ifdef NDEBUG
  GTEST_SKIP() << "MS_DCHECK compiles out under NDEBUG";
#else
  const MeshShape s(4);
  auto g = Grid<std::int64_t>::from_snake(s, random_values(s.size(), 2));
  const auto& cg = g;
  // In-range access works through both overloads.
  g.at(s.side() - 1, s.side() - 1) = 7;
  EXPECT_EQ(cg.at(s.side() - 1, s.side() - 1), 7);
  // Out-of-range throws through both — the const overload used to skip the
  // check entirely and read out of bounds.
  EXPECT_THROW(g.at(s.side(), 0), std::logic_error);
  EXPECT_THROW(g.at(0, s.side()), std::logic_error);
  EXPECT_THROW(cg.at(s.side(), 0), std::logic_error);
  EXPECT_THROW(cg.at(0, s.side()), std::logic_error);
#endif
}

TEST(Grid, BroadcastFromOrigin) {
  const MeshShape s(8);
  Grid<std::int64_t> g(s);
  g.at(0, 0) = 99;
  const std::size_t steps = g.broadcast_from_origin();
  for (std::uint32_t r = 0; r < s.side(); ++r)
    for (std::uint32_t c = 0; c < s.side(); ++c) EXPECT_EQ(g.at(r, c), 99);
  EXPECT_EQ(steps, 2u * (s.side() - 1));
}

class RouteTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RouteTest, RandomPermutationDelivers) {
  const MeshShape s(GetParam());
  util::Rng rng(100 + GetParam());
  auto vals = random_values(s.size(), 9);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  // Destination (row-major) = random permutation.
  const auto perm32 = util::random_permutation(s.size(), rng);
  std::vector<std::uint32_t> dest(perm32.begin(), perm32.end());
  const std::size_t steps = g.route_permutation(dest);
  for (std::size_t i = 0; i < s.size(); ++i) {
    // Packet originally at row-major i must now be at dest[i].
    EXPECT_EQ(g.at_rm(dest[i]), vals[s.rowmajor_to_snake(i)]);
  }
  // Delivery within the greedy-routing bound.
  EXPECT_LE(steps, 64 * static_cast<std::size_t>(s.side()) + 64);
}

INSTANTIATE_TEST_SUITE_P(Sides, RouteTest, ::testing::Values(2u, 4u, 8u, 16u));

TEST(Grid, RouteTransposeExact) {
  const MeshShape s(8);
  auto vals = random_values(s.size(), 10);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  std::vector<std::uint32_t> dest(s.size());
  for (std::uint32_t r = 0; r < s.side(); ++r)
    for (std::uint32_t c = 0; c < s.side(); ++c)
      dest[r * s.side() + c] = c * s.side() + r;
  auto before = g;  // copy
  g.route_permutation(dest);
  for (std::uint32_t r = 0; r < s.side(); ++r)
    for (std::uint32_t c = 0; c < s.side(); ++c)
      EXPECT_EQ(g.at(c, r), before.at(r, c));
}

TEST(Grid, RouteIdentityIsFree) {
  const MeshShape s(4);
  auto vals = random_values(s.size(), 11);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  std::vector<std::uint32_t> dest(s.size());
  std::iota(dest.begin(), dest.end(), 0u);
  EXPECT_EQ(g.route_permutation(dest), 0u);
  EXPECT_EQ(g.to_snake(), vals);
}

TEST(Grid, RouteReversalWorstCase) {
  const MeshShape s(16);
  auto vals = random_values(s.size(), 12);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  std::vector<std::uint32_t> dest(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    dest[i] = static_cast<std::uint32_t>(s.size() - 1 - i);
  const std::size_t steps = g.route_permutation(dest);
  // Reversal distance is 2(s-1); greedy XY should stay within a small
  // constant of it.
  EXPECT_GE(steps, 2u * (s.side() - 1));
  EXPECT_LE(steps, 8u * s.side());
}

// ---------------------------------------------------------------------------
// V1: cross-engine equivalence
// ---------------------------------------------------------------------------

TEST(CrossEngine, SortSameData) {
  const MeshShape s(16);
  auto vals = random_values(s.size(), 21);
  // Host definition of the mesh sort: a stable sort into snake order.
  auto host = vals;
  std::stable_sort(host.begin(), host.end());
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  g.shearsort();
  EXPECT_EQ(g.to_snake(), host);
}

TEST(CrossEngine, ScanSameData) {
  const MeshShape s(8);
  auto vals = random_values(s.size(), 22);
  // Host definition of the snake scan: an inclusive prefix sum.
  auto host = vals;
  std::partial_sum(host.begin(), host.end(), host.begin());
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  g.snake_scan(std::plus<std::int64_t>{});
  EXPECT_EQ(g.to_snake(), host);
}

TEST(CrossEngine, MeasuredScanStepsTrackCharged) {
  // Charged scan = 2 sqrt(p); physical = 3 sqrt(p): same sqrt growth.
  const mesh::CostModel m;
  for (std::uint32_t side : {4u, 8u, 16u, 32u}) {
    const MeshShape s(side);
    auto vals = random_values(s.size(), side);
    auto g = Grid<std::int64_t>::from_snake(s, vals);
    const double measured =
        static_cast<double>(g.snake_scan(std::plus<std::int64_t>{}));
    const double charged = m.scan(static_cast<double>(s.size())).steps;
    EXPECT_NEAR(measured / charged, 1.5, 0.01);
  }
}

TEST(CrossEngine, MeasuredSortStepsWithinLogFactor) {
  const mesh::CostModel m;
  for (std::uint32_t side : {4u, 8u, 16u, 32u}) {
    const MeshShape s(side);
    auto vals = random_values(s.size(), 100 + side);
    auto g = Grid<std::int64_t>::from_snake(s, vals);
    const double measured = static_cast<double>(g.shearsort());
    const double charged_optimal = m.sort(static_cast<double>(s.size())).steps;
    mesh::CostModel phys;
    phys.physical_sort = true;
    const double charged_physical =
        phys.sort(static_cast<double>(s.size())).steps;
    EXPECT_GT(measured, charged_optimal * 0.5);
    EXPECT_LE(measured, charged_physical * 3.0);
  }
}

}  // namespace
