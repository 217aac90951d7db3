#include "multisearch/setup.hpp"

#include <algorithm>

#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"

namespace meshsearch::msearch {

mesh::Cost distribute_graph(const DistributedGraph& g,
                            const mesh::CostModel& m, mesh::MeshShape shape) {
  MS_CHECK(g.vertex_count() <= shape.size());
  const double p = static_cast<double>(shape.size());
  mesh::Cost cost;
  // Sort vertices by id to their home processors, then one routing per
  // adjacency slot to deliver neighbour addresses (degree is O(1)).
  TRACE_SPAN(m.trace, "setup: distribute graph");
  cost += m.sort(p);
  cost += m.route(
      p, static_cast<double>(std::max<std::size_t>(1, g.max_degree())));
  return cost;
}

mesh::Cost inject_queries(std::size_t queries, const mesh::CostModel& m,
                          mesh::MeshShape shape) {
  MS_CHECK(queries <= shape.size());
  const double p = static_cast<double>(shape.size());
  // One routing places the (at most one per processor) batch of queries.
  TRACE_SPAN(m.trace, "setup: inject queries");
  return m.route(p);
}

LevelIndexResult compute_level_indices(const DistributedGraph& g,
                                       const mesh::CostModel& m,
                                       mesh::MeshShape shape) {
  LevelIndexResult res;
  TRACE_SPAN(m.trace, "setup: level indices (peel)");
  const std::size_t n = g.vertex_count();
  res.level.assign(n, -1);

  // In-degrees of the reversed peel: a vertex is removable once all of its
  // out-neighbours are labelled. The degree init is pure per-vertex; the
  // predecessor build is CSR (count, prefix, cursor fill) instead of a
  // vector-of-vectors — one flat allocation, and the peel loop below walks
  // contiguous ranges. The fill sweeps v ascending, so each target's
  // predecessor list keeps exactly the order the old push_back build gave.
  std::vector<std::int32_t> unlabelled_succ(n, 0);
  util::parallel_for(
      std::size_t{0}, n,
      [&](std::size_t v) {
        unlabelled_succ[v] = g.vert(static_cast<Vid>(v)).degree;
      },
      /*grain=*/4096);
  std::vector<std::size_t> pred_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const auto& rec = g.vert(static_cast<Vid>(v));
    for (std::uint8_t d = 0; d < rec.degree; ++d)
      ++pred_off[static_cast<std::size_t>(rec.nbr[d]) + 1];
  }
  for (std::size_t v = 0; v < n; ++v) pred_off[v + 1] += pred_off[v];
  std::vector<Vid> pred_data(pred_off.empty() ? 0 : pred_off[n]);
  {
    std::vector<std::size_t> cursor(pred_off.begin(), pred_off.end() - 1);
    for (std::size_t v = 0; v < n; ++v) {
      const auto& rec = g.vert(static_cast<Vid>(v));
      for (std::uint8_t d = 0; d < rec.degree; ++d)
        pred_data[cursor[static_cast<std::size_t>(rec.nbr[d])]++] =
            static_cast<Vid>(v);
    }
  }

  // Peel from the sinks (level h) upward, assigning DESCENDING tags; a
  // final global subtract-from-max flips them into level indices. The
  // initial frontier is collected per fixed chunk and merged in chunk order
  // (identical to the serial sweep order at any thread count).
  std::vector<Vid> frontier;
  {
    const std::size_t nchunks = util::fixed_chunk_count(n);
    std::vector<std::vector<Vid>> found(nchunks);
    util::for_fixed_chunks(n, [&](std::size_t c, std::size_t lo,
                                  std::size_t hi) {
      for (std::size_t v = lo; v < hi; ++v)
        if (unlabelled_succ[v] == 0) found[c].push_back(static_cast<Vid>(v));
    });
    for (auto& f : found) frontier.insert(frontier.end(), f.begin(), f.end());
  }
  std::size_t remaining = n;
  std::int32_t tag = 0;
  while (!frontier.empty()) {
    // Charge this round on the subsquare holding the remaining vertices:
    // identify the current frontier (a reduction + compress) and update
    // predecessor counters (one RAW within the subsquare).
    const double sub = static_cast<double>(
        mesh::MeshShape::for_elements(std::max<std::size_t>(1, remaining))
            .size());
    res.cost += m.compress(sub) + m.raw(sub) + m.scan(sub);
    ++res.rounds;
    // Level assignment touches disjoint slots — safe to parallelize. The
    // counter-decrement pass stays serial: distinct frontier vertices share
    // predecessors, and `next` must keep the serial discovery order.
    util::parallel_for(
        std::size_t{0}, frontier.size(),
        [&](std::size_t i) {
          res.level[static_cast<std::size_t>(frontier[i])] = tag;
        },
        /*grain=*/4096);
    remaining -= frontier.size();
    std::vector<Vid> next;
    for (const auto v : frontier) {
      const std::size_t lo = pred_off[static_cast<std::size_t>(v)];
      const std::size_t hi = pred_off[static_cast<std::size_t>(v) + 1];
      for (std::size_t j = lo; j < hi; ++j) {
        const Vid u = pred_data[j];
        if (--unlabelled_succ[static_cast<std::size_t>(u)] == 0)
          next.push_back(u);
      }
    }
    ++tag;
    frontier = std::move(next);
  }
  MS_CHECK_MSG(remaining == 0, "level peel stalled (graph is not a "
                               "sink-reachable hierarchical DAG)");
  // Flip tags: level = (rounds - 1) - tag. One broadcast + local update.
  res.cost += m.broadcast(static_cast<double>(shape.size()));
  const auto h = static_cast<std::int32_t>(res.rounds) - 1;
  util::parallel_for(
      std::size_t{0}, res.level.size(),
      [&](std::size_t v) { res.level[v] = h - res.level[v]; },
      /*grain=*/4096);
  return res;
}

}  // namespace meshsearch::msearch
