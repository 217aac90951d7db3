// Composite cycle-engine operations: partial routing, segmented snake
// broadcast, and the physical random access read/write — validated against
// the primitives' host definitions and measured against the charged cost.
#include <gtest/gtest.h>

#include <cmath>

#include "mesh/cost.hpp"
#include "mesh/cycle_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using mesh::Grid;
using mesh::MeshShape;

TEST(RoutePartial, MovesOnlyMarkedPackets) {
  const MeshShape s(4);
  std::vector<std::int64_t> vals(s.size());
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = 100 + static_cast<std::int64_t>(i);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  // Row-major: cell 0 -> 15, cell 5 -> 2; others carry nothing.
  std::vector<std::int64_t> dest(s.size(), -1);
  dest[0] = 15;
  dest[5] = 2;
  const auto v0 = g.at_rm(0);
  const auto v5 = g.at_rm(5);
  mesh::route_partial(g, dest, /*fill=*/-7);
  EXPECT_EQ(g.at_rm(15), v0);
  EXPECT_EQ(g.at_rm(2), v5);
  EXPECT_EQ(g.at_rm(3), -7);  // no packet arrived
}

TEST(RoutePartial, EmptyAndFull) {
  const MeshShape s(4);
  std::vector<std::int64_t> vals(s.size(), 9);
  auto g = Grid<std::int64_t>::from_snake(s, vals);
  std::vector<std::int64_t> none(s.size(), -1);
  EXPECT_EQ(mesh::route_partial(g, none, 0), 0u);
  // Full reversal still works through the partial interface.
  auto g2 = Grid<std::int64_t>::from_snake(s, vals);
  for (std::size_t i = 0; i < s.size(); ++i) g2.at_rm(i) = std::int64_t(i);
  std::vector<std::int64_t> rev(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    rev[i] = static_cast<std::int64_t>(s.size() - 1 - i);
  mesh::route_partial(g2, rev, 0);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(g2.at_rm(s.size() - 1 - i), static_cast<std::int64_t>(i));
}

TEST(SegmentedBroadcast, CopiesLeaderValues) {
  const MeshShape s(4);
  std::vector<std::int64_t> vals(s.size(), 0);
  std::vector<std::uint8_t> leader(s.size(), 0);
  // Segments at snake positions 0, 5, 11.
  leader[0] = leader[5] = leader[11] = 1;
  vals[0] = 10;
  vals[5] = 20;
  vals[11] = 30;
  mesh::segmented_snake_broadcast(s, vals, leader);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(vals[i], 10) << i;
  for (std::size_t i = 5; i < 11; ++i) EXPECT_EQ(vals[i], 20) << i;
  for (std::size_t i = 11; i < 16; ++i) EXPECT_EQ(vals[i], 30) << i;
}

class CycleRarTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CycleRarTest, MatchesCountingEngine) {
  const MeshShape s(GetParam());
  util::Rng rng(1000 + GetParam());
  std::vector<std::int64_t> table(s.size());
  for (auto& t : table) t = rng.uniform_range(-1000000, 1000000);
  // Mixed request pattern: ~60% request a random address (heavy duplicates
  // included), rest idle.
  std::vector<std::int64_t> addr(s.size(), mesh::kNoAddr);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (rng.uniform(10) < 6) {
      // Skew: half the requests hit a handful of hot addresses.
      addr[i] = rng.bernoulli(0.5)
                    ? static_cast<std::int64_t>(rng.uniform(
                          std::min<std::size_t>(4, s.size())))
                    : static_cast<std::int64_t>(rng.uniform(s.size()));
    }
  }
  const auto res = mesh::cycle_random_access_read(s, table, addr, -99);
  // Host definition of RAR: each request reads its table entry.
  std::vector<std::int64_t> expect(s.size(), -99);
  for (std::size_t i = 0; i < s.size(); ++i)
    if (addr[i] != mesh::kNoAddr)
      expect[i] = table[static_cast<std::size_t>(addr[i])];
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (addr[i] == mesh::kNoAddr)
      EXPECT_EQ(res.out[i], -99);
    else
      EXPECT_EQ(res.out[i], expect[i]) << "i=" << i << " addr=" << addr[i];
  }
  // Step count: a constant number of sorts/scans/routes — within the
  // shearsort-charged bound times a small constant.
  mesh::CostModel phys;
  phys.physical_sort = true;
  EXPECT_LE(static_cast<double>(res.steps),
            3.0 * phys.rar(static_cast<double>(s.size())).steps);
  EXPECT_GE(res.steps, s.side());
}

INSTANTIATE_TEST_SUITE_P(Sides, CycleRarTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(CycleRar, AllReadSameAddress) {
  const MeshShape s(8);
  std::vector<std::int64_t> table(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    table[i] = static_cast<std::int64_t>(1000 + i);
  std::vector<std::int64_t> addr(s.size(), 17);  // total congestion
  const auto res = mesh::cycle_random_access_read(s, table, addr);
  for (std::size_t i = 0; i < s.size(); ++i) EXPECT_EQ(res.out[i], 1017);
}

class CycleRawTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(CycleRawTest, MatchesCountingEngine) {
  const MeshShape s(GetParam());
  util::Rng rng(2000 + GetParam());
  std::vector<std::int64_t> table(s.size());
  for (auto& t : table) t = rng.uniform_range(-1000, 1000);
  std::vector<std::int64_t> addr(s.size(), mesh::kNoAddr);
  std::vector<std::int64_t> value(s.size(), 0);
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (rng.uniform(10) < 7) {
      addr[i] = static_cast<std::int64_t>(
          rng.bernoulli(0.4) ? rng.uniform(3) : rng.uniform(s.size()));
      value[i] = rng.uniform_range(-50, 50);
    }
  }
  const auto res = mesh::cycle_random_access_write(s, table, addr, value);
  // Host definition of RAW with sum combining: every request adds its value
  // to its table entry.
  auto expect = table;
  for (std::size_t i = 0; i < s.size(); ++i)
    if (addr[i] != mesh::kNoAddr)
      expect[static_cast<std::size_t>(addr[i])] += value[i];
  EXPECT_EQ(res.table, expect);
  EXPECT_GE(res.steps, s.side());
}

INSTANTIATE_TEST_SUITE_P(Sides, CycleRawTest,
                         ::testing::Values(2u, 4u, 8u, 16u, 32u));

TEST(CycleRaw, AllWriteOneAddress) {
  const MeshShape s(8);
  std::vector<std::int64_t> table(s.size(), 0);
  std::vector<std::int64_t> addr(s.size(), 5);
  std::vector<std::int64_t> value(s.size(), 1);
  const auto res = mesh::cycle_random_access_write(s, table, addr, value);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(res.table[i], i == 5 ? static_cast<std::int64_t>(s.size()) : 0);
}

TEST(CycleRar, NoRequests) {
  const MeshShape s(4);
  std::vector<std::int64_t> table(s.size(), 5);
  std::vector<std::int64_t> addr(s.size(), mesh::kNoAddr);
  const auto res = mesh::cycle_random_access_read(s, table, addr, 42);
  for (const auto v : res.out) EXPECT_EQ(v, 42);
}

TEST(CycleRar, IdentityPermutationRead) {
  const MeshShape s(8);
  std::vector<std::int64_t> table(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    table[i] = static_cast<std::int64_t>(i * i);
  std::vector<std::int64_t> addr(s.size());
  for (std::size_t i = 0; i < s.size(); ++i)
    addr[i] = static_cast<std::int64_t>(i);
  const auto res = mesh::cycle_random_access_read(s, table, addr);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(res.out[i], static_cast<std::int64_t>(i * i));
}

// The random-access bounds checks are MS_CHECKs, on in every build type: an
// address one past the table, or negative but not kNoAddr, is rejected
// before any routing.
TEST(CycleRar, AddressBoundsAreAlwaysOn) {
  const MeshShape s(4);
  const std::vector<std::int64_t> table(s.size(), 5);
  std::vector<std::int64_t> addr(s.size(), mesh::kNoAddr);
  addr[1] = static_cast<std::int64_t>(s.size());
  EXPECT_THROW(mesh::cycle_random_access_read(s, table, addr),
               CheckFailedError);
  addr[1] = -2;
  EXPECT_THROW(mesh::cycle_random_access_read(s, table, addr),
               CheckFailedError);
}

TEST(CycleRaw, AddressBoundsAreAlwaysOn) {
  const MeshShape s(4);
  const std::vector<std::int64_t> table(s.size(), 0);
  const std::vector<std::int64_t> value(s.size(), 1);
  std::vector<std::int64_t> addr(s.size(), mesh::kNoAddr);
  addr[1] = static_cast<std::int64_t>(s.size());
  EXPECT_THROW(mesh::cycle_random_access_write(s, table, addr, value),
               CheckFailedError);
  addr[1] = -2;
  EXPECT_THROW(mesh::cycle_random_access_write(s, table, addr, value),
               CheckFailedError);
}

}  // namespace
