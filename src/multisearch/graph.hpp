// Distributed search structure: the master copy of G on the mesh.
//
// One vertex per processor, adjacency by processor address (paper Appendix).
// The mesh is sized so that side^2 >= max(#vertices, #queries); the paper's
// "mesh of size n" with n = |V|+|E| and O(1) degree is the same thing up to
// the degree constant.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

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

/// Bytes at the start of a VertexRecord that hold id, degree, level and
/// nbr[0..12]: all that a program ignoring the key[] payload reads of a
/// vertex of degree 13 or less.
inline constexpr std::size_t kRecordHeaderBytes = 64;

/// Bytes of a record, from its start, that P's next() reads: the whole
/// record unless P declares `static constexpr bool kReadsHeaderOnly = true`
/// (its next() reads only id, degree, level and nbr, never key[]).
template <typename P>
inline constexpr std::size_t visit_bytes = [] {
  if constexpr (requires { requires P::kReadsHeaderOnly; })
    return kRecordHeaderBytes;
  else
    return sizeof(VertexRecord);
}();

/// Prefetch distance for the software-pipelined pointer-chase loops: far
/// enough to cover DRAM latency at ~1 visit per handful of cycles, small
/// enough that the prefetched lines survive in L1/L2.
inline constexpr std::size_t kPrefetchDistance = 16;

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p);
#else
  (void)p;
#endif
}

/// Prefetch every cache line of v's record that a visit by prog reads: the
/// lines spanned by its first visit_bytes<P> bytes, whatever the record's
/// alignment. Touching every 64th byte from p and the last byte covers them
/// with a trip count fixed at compile time (no branch on the alignment):
/// p and p + 63 for the first 64 bytes, four touches for the whole 144-byte
/// record (three lines at the usual 16-byte alignments, the last touch then
/// landing in a line already fetched). Pure latency hiding: no outcome can
/// depend on it.
template <SearchProgram P>
void prefetch_visit(const DistributedGraph& g, const P&, Vid v) {
  const char* p = reinterpret_cast<const char*>(&g.vert(v));
  for (std::size_t off = 0; off < visit_bytes<P>; off += 64)
    prefetch(p + off);
  prefetch(p + visit_bytes<P> - 1);
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
/// host-parallel over the pool's chunks. Each query is touched by exactly
/// one chunk and the only reduction is an integer count, so the result is
/// bit-identical at any thread count.
/// Returns the number of queries that advanced.
template <SearchProgram P>
std::size_t advance_all(const DistributedGraph& g, const P& prog,
                        std::vector<Query>& queries) {
  // The visit is a dependent random read of the target vertex; prefetching
  // it kPrefetchDistance queries ahead (the first window before the loop)
  // hides most of the DRAM latency, however few queries a chunk holds.
  // Queries are independent, so this cannot change any outcome.
  const auto prefetch = [&](const Query& qa) {
    if (qa.current != kNoVertex && qa.next != kNoVertex)
      prefetch_visit(g, prog, qa.next);
  };
  std::atomic<std::size_t> total{0};
  util::ThreadPool::global().parallel_for_chunks(
      0, queries.size(),
      [&](std::size_t lo, std::size_t hi) {
        constexpr std::size_t kAhead = kPrefetchDistance;
        for (std::size_t i = lo; i < std::min(hi, lo + kAhead); ++i)
          prefetch(queries[i]);
        std::size_t local = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          if (i + kAhead < hi) prefetch(queries[i + kAhead]);
          local += advance_one(g, prog, queries[i]) ? 1 : 0;
        }
        total += local;
      });
  return total;
}

/// Initialize query engine state (does not touch application payload).
void reset_queries(std::vector<Query>& queries);

/// True when every query's search path has terminated.
bool all_done(const std::vector<Query>& queries);

/// Longest search path executed so far (max steps over queries).
std::int32_t max_steps(const std::vector<Query>& queries);

}  // namespace meshsearch::msearch
