#include "mesh/submesh.hpp"

namespace meshsearch::mesh {

Partition::Partition(MeshShape shape, std::uint32_t blocks_per_side)
    : shape_(shape), g_(blocks_per_side) {
  MS_CHECK_MSG(g_ > 0 && (g_ & (g_ - 1)) == 0,
               "blocks_per_side must be a power of two");
  MS_CHECK_MSG(g_ <= shape.side(), "more blocks than processors per side");
  block_side_ = shape.side() / g_;
}

}  // namespace meshsearch::mesh
