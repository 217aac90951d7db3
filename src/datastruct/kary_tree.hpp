// Balanced k-ary search trees on the mesh (paper §4.2 Figure 2, §4.3
// Figure 3, and the §6 applications).
//
// A KaryTree is a complete k-ary search tree over a sorted, unique,
// weighted key set, stored as a DistributedGraph with one node per
// processor. Two edge modes:
//   * kDirected   — edges root->leaves only: the alpha-partitionable class
//                   (Algorithm 2) for one-way descents,
//   * kUndirected — parent edges too: the alpha-beta-partitionable class
//                   (Algorithm 3) for traversals that move both ways.
//
// Vertex payload layout (VertexRecord::key):
//   internal: key[0..nc-2] = separators (min key of child i+1's subtree),
//             key[6] = child count nc, key[7] = combined weight of left
//             siblings' subtrees (for rank accumulation).
//   leaf:     key[0] = leaf key, key[5] = weight, key[6] = 0,
//             key[7] = left-sibling weight.
// nbr[0..nc-1] = children; in undirected mode nbr[nc] = parent.
// level = depth. Supported fan-out: 2 <= k <= 6.
//
// Search programs provided:
//   * PredecessorSearch — root-to-leaf descent (directed; Theorem 5 shape)
//   * RankCount         — descent accumulating the number of weighted keys
//                         <= x (directed; used by the §6 interval counting)
//   * EulerScan         — descend to the first leaf >= lo, then in-order
//                         walk of leaves through hi (undirected; Theorem 7
//                         shape: queries move along tree edges in arbitrary
//                         directions, exactly the inorder-traversal example
//                         of §4.3)
#pragma once

#include <cstdint>
#include <vector>

#include "multisearch/graph.hpp"
#include "multisearch/splitter.hpp"
#include "multisearch/update.hpp"

namespace meshsearch::ds {

using msearch::DistributedGraph;
using msearch::Query;
using msearch::Splitting;
using msearch::VertexRecord;
using msearch::Vid;
using msearch::kNoVertex;

struct WeightedKey {
  std::int64_t key = 0;
  std::int64_t weight = 1;
};

enum class TreeMode { kDirected, kUndirected };

class KaryTree {
 public:
  /// keys must be sorted by key and unique; 2 <= k <= 6. Every weight must
  /// be >= 0 and the key set's weight total <= INT64_MAX, which bounds
  /// every prefix, key[7] and RankCount::acc0; violations throw
  /// InvalidInputError.
  KaryTree(std::vector<WeightedKey> keys, unsigned k, TreeMode mode);

  const DistributedGraph& graph() const { return g_; }
  Vid root() const { return root_; }
  unsigned fanout() const { return k_; }
  std::int32_t height() const { return height_; }  ///< leaf depth
  TreeMode mode() const { return mode_; }
  std::size_t leaf_count() const { return leaves_; }
  std::size_t key_count() const { return key_set_.size(); }
  /// The live sorted key set (the master copy apply_updates maintains).
  const std::vector<WeightedKey>& key_set() const { return key_set_; }

  /// Batched dynamic update: delete the keys in `deletes`, then apply
  /// `inserts` (an insert whose key is already present updates its weight).
  /// Validation (front door, before any mutation): deletes must name
  /// present keys, neither batch may contain duplicates, every inserted
  /// weight must be >= 0, the batch must not empty the tree, and the
  /// updated key set's weight total must stay <= INT64_MAX — violations
  /// throw InvalidInputError and leave the structure and its generation
  /// untouched.
  ///
  /// While the merged key set still fits the current leaf level the tree
  /// topology (vertices, edges, levels) is unchanged and only the payloads
  /// a changed leaf rank can reach are recomputed: that leaf, its
  /// ancestors' separators, and key[7] of the right siblings of the leaf
  /// and of each ancestor (key[7] sums left-sibling subtree weights only).
  /// A weight-only batch of m keys touches at most m·(1 + (k−1)·height)
  /// records and no key is copied. An insert or delete shifts every rank
  /// after it, so key churn touches the leaves from the first changed rank
  /// to the last, their ancestors and those nodes' right siblings; tail
  /// appends and deletes stay proportional to the batch. The returned
  /// delta lists exactly the records whose payload changed, ascending, so
  /// a warm engine refreshes incrementally. When the merged set outgrows
  /// the leaf level the whole tree is rebuilt in place (same
  /// DistributedGraph address, one taller level) and the delta reports
  /// topology_changed. Either way the graph generation is bumped, so stale
  /// warm engines are fenced until they refresh.
  msearch::StructureDelta apply_updates(
      const std::vector<WeightedKey>& inserts,
      const std::vector<std::int64_t>& deletes);

  /// Alpha-splitting at half height (Figure 2): the top piece is the head,
  /// every depth-ceil(h/2) subtree a tail. Directed mode only.
  Splitting alpha_splitting() const;

  /// Alpha-splitting with the cut at depth d (1 <= d <= height): varies the
  /// piece-size exponent delta for the E2 sweeps.
  Splitting alpha_splitting_at(std::int32_t d) const;

  /// The (S1, S2) splittings of Figure 3 for undirected mode: cuts at
  /// depths ~h/2 and ~h/3, borders Theta(h) apart.
  std::pair<Splitting, Splitting> alpha_beta_splittings() const;

  // -- search programs -------------------------------------------------

  struct PredecessorSearch {
    Vid root;
    /// q.key[0] = x. Result: q.result = leaf vid, q.acc0 = leaf key if
    /// <= x else INT64_MIN (x below all keys).
    Vid start(Query& q) const;
    Vid next(const VertexRecord& v, Query& q) const;
  };

  struct RankCount {
    Vid root;
    /// q.key[0] = x. Result: q.acc0 = total weight of keys <= x.
    Vid start(Query& q) const;
    Vid next(const VertexRecord& v, Query& q) const;
  };

  struct EulerScan {
    Vid root;
    /// q.key[0] = lo, q.key[1] = hi. Result: q.acc0 = total weight of keys
    /// in [lo, hi], q.acc1 = order-free checksum of the reported keys.
    /// Requires undirected mode.
    Vid start(Query& q) const;
    Vid next(const VertexRecord& v, Query& q) const;
  };

  PredecessorSearch predecessor_search() const { return {root_}; }
  RankCount rank_count() const { return {root_}; }
  EulerScan euler_scan() const;

  /// Depth-d ancestor piece labels used by the splittings: label[v] = 0 for
  /// depth(v) < d, else 1 + (index of v's depth-d ancestor).
  std::vector<std::int32_t> subtree_labels(std::int32_t d) const;

 private:
  /// (Re)build the complete tree from key_set_: size the graph (preserving
  /// the generation stamp across the assignment), fill payloads, add edges.
  void build();
  /// Payload pass over every vertex — levels, separators, leaf keys and
  /// weights, sibling weight prefixes. Pure function of key_set_ over the
  /// fixed topology.
  void fill_payloads();

  /// Summed weight of key_set_, read off the rightmost root-to-leaf path in
  /// O(height).
  std::int64_t total_weight() const;

  /// A node (by index within its level) whose subtree a batch changed: the
  /// subtree's summed weight delta, and whether a leaf key in it moved.
  struct SubtreeChange {
    std::size_t index = 0;
    std::int64_t weight_delta = 0;
    bool key_changed = false;
  };
  /// Bring the payloads that depend on the changed leaf positions (`leaves`,
  /// ascending) up to date with key_set_, and return the vertices whose
  /// payload moved, ascending.
  std::vector<Vid> rewrite_payloads(std::vector<SubtreeChange> leaves);

  DistributedGraph g_;
  Vid root_ = kNoVertex;
  unsigned k_ = 2;
  std::int32_t height_ = 0;
  std::size_t leaves_ = 0;
  std::vector<WeightedKey> key_set_;  ///< live keys, sorted unique
  TreeMode mode_ = TreeMode::kDirected;
};

/// Convenience: keys 0..count-1 with unit weights.
std::vector<WeightedKey> iota_keys(std::size_t count);

}  // namespace meshsearch::ds
