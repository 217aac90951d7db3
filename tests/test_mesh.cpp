// Unit tests for the mesh data model and the counting engine: snake-order
// algebra, submesh partitions, the cost model, and the standard mesh
// operations (data correctness + charged costs).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "mesh/cost.hpp"
#include "mesh/ops.hpp"
#include "mesh/snake.hpp"
#include "mesh/submesh.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using mesh::Coord;
using mesh::Cost;
using mesh::CostModel;
using mesh::MeshShape;
using mesh::Partition;

TEST(MeshShape, RejectsNonPowerOfTwo) {
  EXPECT_THROW(MeshShape(3), std::logic_error);
  EXPECT_THROW(MeshShape(0), std::logic_error);
  EXPECT_NO_THROW(MeshShape(8));
}

TEST(MeshShape, ForElementsPicksSmallestFit) {
  EXPECT_EQ(MeshShape::for_elements(1).side(), 1u);
  EXPECT_EQ(MeshShape::for_elements(2).side(), 2u);
  EXPECT_EQ(MeshShape::for_elements(4).side(), 2u);
  EXPECT_EQ(MeshShape::for_elements(5).side(), 4u);
  EXPECT_EQ(MeshShape::for_elements(16).side(), 4u);
  EXPECT_EQ(MeshShape::for_elements(17).side(), 8u);
}

TEST(MeshShape, SnakeCoordRoundTrip) {
  const MeshShape s(8);
  for (std::size_t i = 0; i < s.size(); ++i) {
    const Coord c = s.snake_to_coord(i);
    EXPECT_EQ(s.coord_to_snake(c), i);
  }
}

TEST(MeshShape, SnakeNeighboursAreGridNeighbours) {
  // The defining property of the snake: consecutive indices are adjacent.
  const MeshShape s(16);
  for (std::size_t i = 0; i + 1 < s.size(); ++i)
    EXPECT_EQ(s.distance(i, i + 1), 1u) << "at " << i;
}

TEST(MeshShape, SnakeRowMajorRoundTrip) {
  const MeshShape s(4);
  for (std::size_t i = 0; i < s.size(); ++i)
    EXPECT_EQ(s.rowmajor_to_snake(s.snake_to_rowmajor(i)), i);
  // Spot-check row 1 (reversed): snake index 4 is (1, 3) => row-major 7.
  EXPECT_EQ(s.snake_to_rowmajor(4), 7u);
}

TEST(MeshShape, ManhattanDistance) {
  const MeshShape s(4);
  const auto a = s.coord_to_snake(Coord{0, 0});
  const auto b = s.coord_to_snake(Coord{3, 3});
  EXPECT_EQ(s.distance(a, b), 6u);
  EXPECT_EQ(s.distance(a, a), 0u);
}

TEST(Pow2Helpers, CeilAndLog) {
  EXPECT_EQ(mesh::ceil_pow2(1), 1u);
  EXPECT_EQ(mesh::ceil_pow2(5), 8u);
  EXPECT_EQ(mesh::ceil_pow2(8), 8u);
  EXPECT_EQ(mesh::floor_log2(1), 0u);
  EXPECT_EQ(mesh::floor_log2(9), 3u);
}

// ---------------------------------------------------------------------------
// Partition
// ---------------------------------------------------------------------------

TEST(Partition, BlockLocalRoundTrip) {
  const MeshShape s(16);
  for (std::uint32_t g : {1u, 2u, 4u, 8u}) {
    const Partition part(s, g);
    EXPECT_EQ(part.block_count(), std::size_t{g} * g);
    EXPECT_EQ(part.block_size() * part.block_count(), s.size());
    // global_of is a bijection from (block, local) pairs onto the mesh.
    std::vector<bool> hit(s.size(), false);
    for (std::uint32_t b = 0; b < part.block_count(); ++b)
      for (std::size_t l = 0; l < part.block_size(); ++l) {
        const auto i = part.global_of(b, l);
        ASSERT_LT(i, s.size());
        EXPECT_FALSE(hit[i]);
        hit[i] = true;
      }
  }
}

TEST(Partition, LocalIndicesAreSnakeWithinBlock) {
  const MeshShape s(8);
  const Partition part(s, 2);
  // Within any block, local indices 0..blocksize-1 must trace a connected
  // snake: consecutive locals are grid neighbours.
  for (std::uint32_t b = 0; b < part.block_count(); ++b) {
    for (std::size_t l = 0; l + 1 < part.block_size(); ++l) {
      const auto g1 = part.global_of(b, l);
      const auto g2 = part.global_of(b, l + 1);
      EXPECT_EQ(s.distance(g1, g2), 1u);
    }
  }
}

TEST(Partition, RejectsBadBlockCounts) {
  EXPECT_THROW(Partition(MeshShape(8), 3), std::logic_error);
  EXPECT_THROW(Partition(MeshShape(8), 16), std::logic_error);
}

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

TEST(Cost, Composition) {
  const Cost a{3}, b{5};
  EXPECT_EQ((a + b).steps, 8);
  EXPECT_EQ(mesh::par(a, b).steps, 5);
  EXPECT_EQ(mesh::par({a, b, Cost{4}}).steps, 5);
  mesh::ParAccumulator acc;
  acc.add(a);
  acc.add(b);
  EXPECT_EQ(acc.total().steps, 5);
}

TEST(CostModel, ChargedBounds) {
  const CostModel m;
  EXPECT_DOUBLE_EQ(m.sort(1024).steps, 3.0 * 32);
  EXPECT_DOUBLE_EQ(m.scan(1024).steps, 2.0 * 32);
  EXPECT_DOUBLE_EQ(m.broadcast(1024).steps, 2.0 * 32);
  EXPECT_GT(m.rar(1024).steps, m.sort(1024).steps);
  // Costs grow as sqrt(p).
  EXPECT_NEAR(m.sort(4096).steps / m.sort(1024).steps, 2.0, 1e-12);
}

TEST(CostModel, PhysicalSortChargesLogFactor) {
  CostModel m;
  m.physical_sort = true;
  const double p = 1 << 20;
  EXPECT_NEAR(m.sort(p).steps, std::sqrt(p) * (20 + 1), 1e-6);
}

// ---------------------------------------------------------------------------
// Counting-engine operations
// ---------------------------------------------------------------------------

TEST(Ops, SortSortsAndCharges) {
  util::Rng rng(1);
  std::vector<std::int64_t> data(1000);
  for (auto& x : data) x = rng.uniform_range(-500, 500);
  const CostModel m;
  const Cost c = mesh::ops::sort(data, m, 1024);
  EXPECT_TRUE(std::is_sorted(data.begin(), data.end()));
  EXPECT_DOUBLE_EQ(c.steps, m.sort(1024).steps);
}

TEST(Ops, SortIsStable) {
  struct KV {
    int k;
    int v;
  };
  std::vector<KV> data{{1, 0}, {0, 1}, {1, 2}, {0, 3}, {1, 4}};
  const CostModel m;
  mesh::ops::sort(data, m, 8, [](const KV& a, const KV& b) { return a.k < b.k; });
  EXPECT_EQ(data[0].v, 1);
  EXPECT_EQ(data[1].v, 3);
  EXPECT_EQ(data[2].v, 0);
  EXPECT_EQ(data[3].v, 2);
  EXPECT_EQ(data[4].v, 4);
}

TEST(Ops, RankMatchesSortPosition) {
  std::vector<std::int64_t> data{5, 1, 4, 1, 3};
  std::vector<std::uint32_t> ranks;
  const CostModel m;
  mesh::ops::rank(data, ranks, m, 8);
  EXPECT_EQ(ranks, (std::vector<std::uint32_t>{4, 0, 3, 1, 2}));
}

TEST(Ops, Scans) {
  const CostModel m;
  std::vector<std::int64_t> inc{1, 2, 3, 4};
  mesh::ops::scan_inclusive(inc, m, 4);
  EXPECT_EQ(inc, (std::vector<std::int64_t>{1, 3, 6, 10}));
  std::vector<std::int64_t> seg{1, 2, 3, 4};
  mesh::ops::scan_segmented(seg, {1, 0, 1, 0}, m, 4);
  EXPECT_EQ(seg, (std::vector<std::int64_t>{1, 3, 3, 7}));
}

TEST(Ops, RoutePermutes) {
  const CostModel m;
  std::vector<std::int64_t> data{10, 11, 12, 13};
  std::vector<std::uint32_t> dest{2, 0, 3, 1};
  std::vector<std::int64_t> out;
  mesh::ops::route(data, dest, out, 4, m, 4);
  EXPECT_EQ(out, (std::vector<std::int64_t>{11, 13, 10, 12}));
}

TEST(Ops, RouteDetectsCollision) {
  const CostModel m;
  std::vector<std::int64_t> data{1, 2};
  std::vector<std::uint32_t> dest{0, 0};
  std::vector<std::int64_t> out;
  EXPECT_THROW(mesh::ops::route(data, dest, out, 2, m, 4), std::logic_error);
}

TEST(Ops, RandomAccessReadWithDuplicates) {
  const CostModel m;
  const std::vector<std::int64_t> table{100, 200, 300};
  const std::vector<mesh::ops::Addr> addr{2, 0, 2, mesh::ops::kNone, 1};
  std::vector<std::int64_t> out;
  const Cost c = mesh::ops::random_access_read<std::int64_t>(table, addr, out, m, 16);
  EXPECT_EQ(out, (std::vector<std::int64_t>{300, 100, 300, 0, 200}));
  EXPECT_DOUBLE_EQ(c.steps, m.rar(16).steps);
}

TEST(Ops, RandomAccessWriteCombines) {
  const CostModel m;
  std::vector<std::int64_t> table{0, 0, 0};
  const std::vector<mesh::ops::Addr> addr{1, 1, 2, mesh::ops::kNone};
  const std::vector<std::int64_t> vals{5, 7, 9, 100};
  mesh::ops::random_access_write<std::int64_t>(
      addr, vals, table, [](std::int64_t a, std::int64_t b) { return a + b; },
      m, 16);
  EXPECT_EQ(table, (std::vector<std::int64_t>{0, 12, 9}));
}

TEST(Ops, RandomAccessCount) {
  const CostModel m;
  const std::vector<mesh::ops::Addr> addr{0, 2, 2, 2, mesh::ops::kNone};
  std::vector<std::uint32_t> counts;
  mesh::ops::random_access_count(addr, counts, 3, m, 16);
  EXPECT_EQ(counts, (std::vector<std::uint32_t>{1, 0, 3}));
}

TEST(Ops, CompressAndGather) {
  const CostModel m;
  const std::vector<std::int64_t> data{4, -1, 7, -3, 9};
  std::vector<std::int64_t> out;
  mesh::ops::compress(data, [](std::int64_t x) { return x > 0; }, out, m, 8);
  EXPECT_EQ(out, (std::vector<std::int64_t>{4, 7, 9}));
}

}  // namespace
