// Synchronous multistep baseline — the [DR90] hypercube strategy
// transplanted to the mesh, which the paper's introduction argues is "not
// viable": every multistep advances all live queries by one node via a
// full-mesh random access read, so each of the r steps of the longest path
// costs Theta(sqrt n), for a total of Theta(r * sqrt n). The paper's
// algorithms beat this by a log n factor in the r-dependent term; the
// benchmark suite measures exactly that gap.
#pragma once

#include <vector>

#include "mesh/cost.hpp"
#include "multisearch/graph.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"

namespace meshsearch::msearch {

struct SynchronousResult {
  mesh::Cost cost;
  std::size_t multisteps = 0;
};

template <SearchProgram P>
SynchronousResult synchronous_multisearch(const DistributedGraph& g,
                                          const P& prog,
                                          std::vector<Query>& queries,
                                          const mesh::CostModel& m,
                                          mesh::MeshShape shape) {
  // Front door: reject malformed input before any phase is charged.
  constexpr const char* kEngine = "synchronous";
  validate_graph(g, kEngine);
  validate_graph_fits(g, shape, kEngine);
  validate_batch_size(queries.size(), shape.size(), kEngine);
  SynchronousResult res;
  const double p = static_cast<double>(shape.size());
  // Paranoid mode: snapshot the input for the shadow oracle. (This engine
  // does not reset queries; it continues wherever they stand.)
  const bool paranoid = paranoid_enabled();
  std::vector<Query> shadow;
  if (paranoid) shadow = queries;
  TRACE_SPAN(m.trace, "synchronous multisearch");
  for (;;) {
    // One multistep: every live query fetches the record of its next vertex
    // (one concurrent-read RAR over the whole mesh) and applies f —
    // host-parallel over query chunks.
    if (advance_all(g, prog, queries) == 0) break;
    ++res.multisteps;
    res.cost += m.broadcast(p);  // "anyone still live?" check
    res.cost += m.rar(p);        // the fetch itself
  }
  if (paranoid) paranoid_audit(g, prog, std::move(shadow), queries, kEngine);
  return res;
}

}  // namespace meshsearch::msearch
