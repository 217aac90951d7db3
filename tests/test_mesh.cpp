// Unit tests for the mesh data model and the counting engine: snake-order
// algebra, submesh partitions, and the cost model's charged bounds.
#include <gtest/gtest.h>

#include "mesh/cost.hpp"
#include "mesh/snake.hpp"
#include "mesh/submesh.hpp"

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

}  // namespace
