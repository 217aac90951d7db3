// Submesh partition algebra.
//
// The paper's algorithms repeatedly partition the sqrt(n) x sqrt(n) mesh
// into a g x g grid of square submeshes ("B_i-partitionings",
// "delta-submeshes") and run independently inside each. A Partition captures
// that decomposition and the index map from (block id, local snake index
// within the block) to the global snake index on the full mesh, where
// blocks are numbered row-major over the block grid. Moving an array
// between the two layouts is a fixed permutation, realized on a mesh by one
// routing.
#pragma once

#include <cstdint>

#include "mesh/snake.hpp"

namespace meshsearch::mesh {

class Partition {
 public:
  /// Partition `shape` into blocks_per_side x blocks_per_side submeshes.
  /// blocks_per_side must be a power of two dividing shape.side().
  Partition(MeshShape shape, std::uint32_t blocks_per_side);

  MeshShape shape() const { return shape_; }
  MeshShape block_shape() const { return MeshShape(block_side_); }
  std::size_t block_count() const { return static_cast<std::size_t>(g_) * g_; }
  std::size_t block_size() const {
    return static_cast<std::size_t>(block_side_) * block_side_;
  }

  /// Global snake index of (block, local snake index).
  std::size_t global_of(std::uint32_t block, std::size_t local) const;

 private:
  MeshShape shape_;
  std::uint32_t g_ = 1;
  std::uint32_t block_side_ = 0;
};

inline std::size_t Partition::global_of(std::uint32_t block,
                                        std::size_t local) const {
  MS_DCHECK(block < block_count());
  const Coord lc = block_shape().snake_to_coord(local);
  const Coord gc{(block / g_) * block_side_ + lc.row,
                 (block % g_) * block_side_ + lc.col};
  return shape_.coord_to_snake(gc);
}

}  // namespace meshsearch::mesh
