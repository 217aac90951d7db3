// The paper's Appendix ("Details of the Initial Configuration of the Mesh")
// and the §3 preprocessing step.
//
// * distribute_graph + inject_queries — place the graph and the queries in
//   the canonical initial configuration: every processor stores one vertex,
//   the processor addresses of its neighbours, and at most one query. From
//   an arbitrary placement this is a constant number of sorts and routings.
//
// * compute_level_indices — §3: "the level indices can be easily computed
//   in time O(sqrt n) by successively identifying the vertices in each
//   level L_i, starting with level L_h, and compressing after each step
//   the remaining levels into a subsquare of processors." Implemented as
//   an actual reverse peel (round k removes the vertices all of whose
//   out-neighbours are already labelled), with each round charged on the
//   subsquare holding the still-unlabelled prefix — the shrinking-subsquare
//   telescoping that makes the total O(sqrt n).
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/cost.hpp"
#include "mesh/snake.hpp"
#include "multisearch/graph.hpp"

namespace meshsearch::msearch {

/// Graph-only part of the initial configuration: sort vertices to their
/// home processors and deliver neighbour addresses. A streaming engine
/// (stream.hpp) pays this once; each batch then pays only inject_queries.
mesh::Cost distribute_graph(const DistributedGraph& g,
                            const mesh::CostModel& m, mesh::MeshShape shape);

/// Query part of the initial configuration: route one batch of at most
/// shape.size() queries to their starting processors.
mesh::Cost inject_queries(std::size_t queries, const mesh::CostModel& m,
                          mesh::MeshShape shape);

struct LevelIndexResult {
  std::vector<std::int32_t> level;  ///< computed level per vertex
  mesh::Cost cost;
  std::size_t rounds = 0;  ///< peel rounds (= height + 1)
};

/// Compute hierarchical-DAG level indices on-mesh (§3). Requires that every
/// non-final-level vertex has at least one out-edge (true for the paper's
/// class: |L_{i+1}| >= mu |L_i| with edges only between consecutive levels
/// and every vertex reachable). Throws if the peel stalls.
LevelIndexResult compute_level_indices(const DistributedGraph& g,
                                       const mesh::CostModel& m,
                                       mesh::MeshShape shape);

}  // namespace meshsearch::msearch
