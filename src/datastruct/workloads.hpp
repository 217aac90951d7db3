// Synthetic search structures and query workloads used by tests and by the
// benchmark harness (the paper has no data sets; these exercise exactly the
// graph classes of §3 and §4).
#pragma once

#include <cstdint>
#include <vector>

#include "multisearch/graph.hpp"
#include "multisearch/splitter.hpp"
#include "util/rng.hpp"

namespace meshsearch::ds {

using msearch::DistributedGraph;
using msearch::Query;
using msearch::Splitting;
using msearch::VertexRecord;
using msearch::Vid;
using msearch::kNoVertex;

// ---------------------------------------------------------------------------
// Random hierarchical DAG (paper §3, Figure 1)
// ---------------------------------------------------------------------------

/// A hierarchical DAG with |L_i| = round(mu^i) (clamped to reach ~n vertices
/// in total), every vertex having out-degree `fanout` chosen uniformly among
/// the next level, and every next-level vertex guaranteed an incoming edge.
/// Vids are level-contiguous; record.level is set.
DistributedGraph build_hierarchical_dag(std::size_t n_target, double mu,
                                        unsigned fanout, util::Rng& rng);

/// Search program on a hierarchical DAG: a pseudo-random but deterministic
/// descent — at vertex v the query's key hashed with v picks the out-edge.
/// Ends below the last level; q.result = final vertex, q.acc1 = path
/// checksum. This is the adversary-free stand-in for "compare the search
/// key with v's information" (§1).
struct HashWalk {
  /// next() reads id, degree and nbr only: prefetch_visit skips key[].
  static constexpr bool kReadsHeaderOnly = true;
  Vid root = 0;
  Vid start(Query&) const { return root; }
  Vid next(const VertexRecord& v, Query& q) const {
    q.acc1 ^= static_cast<std::int64_t>(
        util::mix64(static_cast<std::uint64_t>(v.id) * 0x9e3779b97f4a7c15ull));
    if (v.degree == 0) {
      q.result = v.id;
      return kNoVertex;
    }
    const std::uint64_t h = util::mix64(
        static_cast<std::uint64_t>(q.key[0]) ^
        (static_cast<std::uint64_t>(v.id) << 17));
    return v.nbr[h % v.degree];
  }
};

// ---------------------------------------------------------------------------
// Comb graph (directed, alpha-partitionable with long paths) — E3
// ---------------------------------------------------------------------------

/// A complete binary "spine" tree over `teeth` leaves, each leaf continuing
/// into a directed path ("tooth") of `tooth_len` vertices. Searches descend
/// the spine (log2 teeth steps) and then walk d <= tooth_len steps down a
/// tooth, so the longest path r is controllable far beyond log n — the
/// regime where Theorem 5's r * sqrt(n)/log n term dominates. The spine is
/// the head piece; every tooth is a tail piece (Figure 2 generalized).
struct CombGraph {
  DistributedGraph graph;
  Splitting splitting;    ///< alpha-splitting: spine = head, teeth = tails
  Vid root = 0;
  std::size_t teeth = 0;
  std::size_t tooth_len = 0;
  std::int32_t spine_height = 0;
};

CombGraph build_comb(std::size_t teeth, std::size_t tooth_len);

/// Search program on a comb: q.key[0] selects the tooth (hashed at each
/// spine node), q.key[1] = number of tooth steps to take. q.result = final
/// vertex.
struct CombWalk {
  Vid root = 0;
  Vid start(Query&) const { return root; }
  Vid next(const VertexRecord& v, Query& q) const;
};

// ---------------------------------------------------------------------------
// Random alpha-partitionable directed graphs (paper §4.2, general case)
// ---------------------------------------------------------------------------

/// A random instance of the §4.2 class that is NOT a tree: k1 head pieces
/// and k2 tail pieces, each a random DAG of ~piece_size vertices (edges only
/// forward within a piece, so searches terminate), plus random splitter
/// edges from head-piece vertices to tail-piece vertices. Exercises
/// Algorithm 2 with multi-piece head sides, disconnected pieces and uneven
/// sizes — everything Figure 2's tree does not.
struct RandomPartitionable {
  DistributedGraph graph;
  Splitting splitting;
  std::vector<Vid> entry;  ///< one entry vertex per head piece (index 0..k1)
};

RandomPartitionable build_random_partitionable(std::size_t k1, std::size_t k2,
                                               std::size_t piece_size,
                                               unsigned fanout,
                                               util::Rng& rng);

/// Search program for RandomPartitionable: starts at the entry vertex of
/// the head piece selected by hashing key[0], then hash-walks forward
/// until it reaches a sink. q.result = sink, q.acc1 = path checksum.
struct PartitionableWalk {
  /// next() reads id, degree and nbr only: prefetch_visit skips key[].
  static constexpr bool kReadsHeaderOnly = true;
  const RandomPartitionable* inst = nullptr;
  Vid start(Query& q) const {
    const auto h = util::mix64(static_cast<std::uint64_t>(q.key[0]));
    return inst->entry[h % inst->entry.size()];
  }
  Vid next(const VertexRecord& v, Query& q) const {
    q.acc1 ^= static_cast<std::int64_t>(
        util::mix64(static_cast<std::uint64_t>(v.id) * 0x9e3779b97f4a7c15ull));
    if (v.degree == 0) {
      q.result = v.id;
      return kNoVertex;
    }
    const std::uint64_t h = util::mix64(
        static_cast<std::uint64_t>(q.key[0]) ^
        (static_cast<std::uint64_t>(v.id) << 13));
    return v.nbr[h % v.degree];
  }
};

// ---------------------------------------------------------------------------
// Query generators
// ---------------------------------------------------------------------------

/// m queries whose key[0] is drawn uniformly from [0, key_space).
std::vector<Query> uniform_key_queries(std::size_t m, std::uint64_t key_space,
                                       util::Rng& rng);

/// m queries whose key[0] is drawn Zipf(s)-skewed over [0, key_space) —
/// the congested workloads of E2 (many searches through few pieces).
std::vector<Query> zipf_key_queries(std::size_t m, std::uint64_t key_space,
                                    double s, util::Rng& rng);

}  // namespace meshsearch::ds
