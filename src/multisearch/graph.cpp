#include "multisearch/graph.hpp"

#include <algorithm>

namespace meshsearch::msearch {

DistributedGraph::DistributedGraph(std::size_t vertex_count)
    : verts_(vertex_count) {
  for (std::size_t i = 0; i < vertex_count; ++i)
    verts_[i].id = static_cast<Vid>(i);
}

std::size_t DistributedGraph::size() const {
  std::size_t edges = 0;
  for (const auto& v : verts_) edges += v.degree;
  return verts_.size() + edges;
}

void DistributedGraph::add_edge(Vid u, Vid w) {
  MS_CHECK(u >= 0 && static_cast<std::size_t>(u) < verts_.size());
  MS_CHECK(w >= 0 && static_cast<std::size_t>(w) < verts_.size());
  MS_CHECK_MSG(u != w, "self loop");
  auto& rec = verts_[static_cast<std::size_t>(u)];
  MS_CHECK_MSG(rec.degree < kMaxDegree, "degree bound exceeded");
  rec.nbr[rec.degree++] = w;
}

void DistributedGraph::add_undirected_edge(Vid u, Vid w) {
  add_edge(u, w);
  add_edge(w, u);
}

bool DistributedGraph::has_edge(Vid u, Vid w) const {
  const auto& rec = vert(u);
  return std::find(rec.nbr.begin(), rec.nbr.begin() + rec.degree, w) !=
         rec.nbr.begin() + rec.degree;
}

mesh::MeshShape DistributedGraph::shape_for(std::size_t queries) const {
  return mesh::MeshShape::for_elements(std::max(verts_.size(), queries));
}

void DistributedGraph::validate() const {
  for (std::size_t i = 0; i < verts_.size(); ++i) {
    const auto& v = verts_[i];
    MS_CHECK_MSG(v.id == static_cast<Vid>(i), "vertex id != address");
    MS_CHECK(v.degree <= kMaxDegree);
    for (std::uint8_t d = 0; d < v.degree; ++d) {
      const Vid w = v.nbr[d];
      MS_CHECK_MSG(w >= 0 && static_cast<std::size_t>(w) < verts_.size(),
                   "neighbour out of range");
      MS_CHECK_MSG(w != v.id, "self loop");
    }
  }
}

std::size_t DistributedGraph::max_degree() const {
  std::size_t d = 0;
  for (const auto& v : verts_) d = std::max<std::size_t>(d, v.degree);
  return d;
}

void reset_queries(std::vector<Query>& queries) {
  // A streaming pass over the whole batch, once per run: on a
  // mesh-capacity batch it is memory-bound, so it runs on the pool. Each
  // query is written by exactly one fixed chunk.
  util::for_fixed_chunks(queries.size(), [&](std::size_t, std::size_t lo,
                                             std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      Query& q = queries[i];
      q.current = kNoVertex;
      q.next = kNoVertex;
      q.steps = 0;
      q.done = false;
      q.acc0 = 0;
      q.acc1 = 0;
      q.state = 0;
      q.prev = kNoVertex;
      q.result = kNoVertex;
    }
  });
}

bool all_done(const std::vector<Query>& queries) {
  for (const auto& q : queries)
    if (!q.done) return false;
  return true;
}

std::int32_t max_steps(const std::vector<Query>& queries) {
  std::int32_t r = 0;
  for (const auto& q : queries) r = std::max(r, q.steps);
  return r;
}

}  // namespace meshsearch::msearch
