// Distributed search structure: the master copy of G on the mesh.
//
// One vertex per processor, adjacency by processor address (paper Appendix).
// The mesh is sized so that side^2 >= max(#vertices, #queries); the paper's
// "mesh of size n" with n = |V|+|E| and O(1) degree is the same thing up to
// the degree constant.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mesh/ops_soa.hpp"
#include "mesh/snake.hpp"
#include "multisearch/types.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"

namespace meshsearch::msearch {

class DistributedGraph {
 public:
  DistributedGraph() = default;
  explicit DistributedGraph(std::size_t vertex_count);

  std::size_t vertex_count() const { return verts_.size(); }
  /// |V| + |E| (directed edge count; undirected edges count twice).
  std::size_t size() const;

  /// Mutable record access, for builders and apply_updates. A warm engine
  /// (PreparedSearch) validates the graph once per generation, so a record
  /// mutated through this reference without a generation bump is a caller
  /// contract violation: run_batch does not re-check the structure and may
  /// answer wrongly or read out of bounds. Under paranoid mode
  /// (MESHSEARCH_PARANOID) run_batch re-validates before every batch and
  /// rejects a malformed graph as InvalidInputError before anything is
  /// charged.
  VertexRecord& vert(Vid v) {
    MS_DCHECK(v >= 0 && static_cast<std::size_t>(v) < verts_.size());
    return verts_[static_cast<std::size_t>(v)];
  }
  const VertexRecord& vert(Vid v) const {
    MS_DCHECK(v >= 0 && static_cast<std::size_t>(v) < verts_.size());
    return verts_[static_cast<std::size_t>(v)];
  }
  const std::vector<VertexRecord>& verts() const { return verts_; }

  /// Append a directed edge u -> w to u's adjacency.
  void add_edge(Vid u, Vid w);
  /// Append both directions.
  void add_undirected_edge(Vid u, Vid w);

  bool has_edge(Vid u, Vid w) const;

  /// Mesh holding this graph together with `queries` many queries.
  mesh::MeshShape shape_for(std::size_t queries) const;

  /// Structural validation: ids consistent, neighbours in range, no
  /// self-loops, degree within kMaxDegree. Throws on violation.
  void validate() const;

  std::size_t max_degree() const;

  /// Monotonic mutation stamp. Structure builders bump it on every
  /// apply_updates batch (payload-only or topological); warm engines record
  /// the stamp they were prepared against and refuse to serve when it has
  /// moved (StaleEngineError). 0 = freshly built, never mutated.
  std::uint64_t generation() const { return generation_; }
  void bump_generation() { ++generation_; }
  /// For in-place rebuilds that replace the whole graph by assignment (the
  /// topological apply_updates fallback): carry the old stamp across the
  /// assignment, then bump. Never use this to rewind a stamp.
  void set_generation(std::uint64_t gen) { generation_ = gen; }

 private:
  std::vector<VertexRecord> verts_;
  std::uint64_t generation_ = 0;
};

/// Prefetch the cache lines of v's record that a visit reads: the header
/// (id, degree, level) and the adjacency. A VertexRecord is 144 bytes, so
/// records start at four different offsets within a 64-byte line, and the
/// header plus the first adjacency entries straddle a line boundary at
/// three of them. Touching p and p + 63 brings in every line of the
/// record's first 64 bytes (header and nbr[0..12]) whatever its alignment;
/// p + 63 falls in p's own line only when the record is line-aligned, and
/// then no second line is fetched. Pure latency hiding: no outcome can
/// depend on it.
inline void prefetch_visit(const DistributedGraph& g, Vid v) {
  const char* p = reinterpret_cast<const char*>(&g.vert(v));
  mesh::ops::soa::prefetch(p);
  mesh::ops::soa::prefetch(p + 63);
}

/// Visit semantics shared by all engines: q arrives at q.next, receives the
/// record, applies the successor function once. Returns false when the query
/// was already finished (and flags `done`).
template <SearchProgram P>
bool advance_one(const DistributedGraph& g, const P& prog, Query& q) {
  if (q.done) return false;
  if (q.next == kNoVertex && q.current != kNoVertex) {
    q.done = true;
    return false;
  }
  const Vid v = q.current == kNoVertex ? prog.start(q) : q.next;
  if (v == kNoVertex) {
    q.done = true;
    return false;
  }
  q.current = v;
  ++q.steps;
  q.next = prog.next(g.vert(v), q);
  return true;
}

/// Advance every query by one visit (the body of a full-mesh multistep):
/// host-parallel over fixed query chunks — each query is touched by exactly
/// one chunk, and the advanced-count reduction merges per-chunk totals in
/// chunk order, so the result is bit-identical at any thread count. Returns
/// the number of queries that advanced.
template <SearchProgram P>
std::size_t advance_all(const DistributedGraph& g, const P& prog,
                        std::vector<Query>& queries) {
  // Fixed chunking (not thread-count-derived): see DESIGN.md §5.6.
  const std::size_t nchunks = util::fixed_chunk_count(queries.size());
  std::vector<std::size_t> advanced(nchunks, 0);
  util::for_fixed_chunks(queries.size(), [&](std::size_t c, std::size_t lo,
                                             std::size_t hi) {
    std::size_t local = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      // Software pipeline: the visit is a dependent random read of the
      // target vertex; issuing the prefetch kPrefetchDistance queries ahead
      // hides most of the DRAM latency. Queries are independent, so this
      // cannot change any outcome.
      if (i + mesh::ops::soa::kPrefetchDistance < hi) {
        const Query& qa = queries[i + mesh::ops::soa::kPrefetchDistance];
        if (qa.current != kNoVertex && qa.next != kNoVertex)
          prefetch_visit(g, qa.next);
      }
      local += advance_one(g, prog, queries[i]) ? 1 : 0;
    }
    advanced[c] = local;
  });
  std::size_t total = 0;
  for (const auto a : advanced) total += a;
  return total;
}

/// Initialize query engine state (does not touch application payload).
void reset_queries(std::vector<Query>& queries);

/// True when every query's search path has terminated.
bool all_done(const std::vector<Query>& queries);

/// Longest search path executed so far (max steps over queries).
std::int32_t max_steps(const std::vector<Query>& queries);

}  // namespace meshsearch::msearch
