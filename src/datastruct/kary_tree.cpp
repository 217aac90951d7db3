#include "datastruct/kary_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "multisearch/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace meshsearch::ds {

namespace {

constexpr std::int64_t kSentinel = std::numeric_limits<std::int64_t>::max();

/// vid offset of the first node at depth d in BFS numbering: (k^d - 1)/(k-1).
std::size_t level_offset(unsigned k, std::int32_t d) {
  std::size_t off = 0, width = 1;
  for (std::int32_t i = 0; i < d; ++i) {
    off += width;
    width *= k;
  }
  return off;
}

std::size_t pow_k(unsigned k, std::int32_t e) {
  std::size_t p = 1;
  for (std::int32_t i = 0; i < e; ++i) p *= k;
  return p;
}

/// Reject a negative weight. With every weight >= 0, a key set whose total
/// fits in int64 bounds every prefix, key[7] and RankCount::acc0 by it.
void check_weight(std::int64_t weight, const char* site) {
  if (weight < 0)
    msearch::invalid_input("negative weight " + std::to_string(weight), site);
}

/// total + weight for two non-negative values, or InvalidInputError when
/// the key set's weight total would pass INT64_MAX.
std::int64_t add_weight(std::int64_t total, std::int64_t weight,
                        const char* site) {
  std::int64_t sum = 0;
  if (__builtin_add_overflow(total, weight, &sum))
    msearch::invalid_input("key weights sum past INT64_MAX", site);
  return sum;
}

}  // namespace

std::vector<WeightedKey> iota_keys(std::size_t count) {
  std::vector<WeightedKey> keys(count);
  for (std::size_t i = 0; i < count; ++i)
    keys[i] = WeightedKey{static_cast<std::int64_t>(i), 1};
  return keys;
}

KaryTree::KaryTree(std::vector<WeightedKey> keys, unsigned k, TreeMode mode)
    : k_(k), mode_(mode) {
  if (k < 2 || k > 6)
    msearch::invalid_input("supported fan-out is 2..6", "kary-tree");
  if (keys.empty()) msearch::invalid_input("empty key set", "kary-tree");
  for (std::size_t i = 1; i < keys.size(); ++i)
    if (!(keys[i - 1].key < keys[i].key))
      msearch::invalid_input("keys not sorted unique at index " +
                                 std::to_string(i),
                             "kary-tree");
  std::int64_t total = 0;
  for (const WeightedKey& wk : keys) {
    check_weight(wk.weight, "kary-tree");
    total = add_weight(total, wk.weight, "kary-tree");
  }
  key_set_ = std::move(keys);
  build();
}

void KaryTree::build() {
  // Complete k-ary tree: pad the leaf level with +inf sentinels.
  height_ = 0;
  while (pow_k(k_, height_) < key_set_.size()) ++height_;
  leaves_ = pow_k(k_, height_);
  const std::size_t total = level_offset(k_, height_ + 1);
  const std::uint64_t gen = g_.generation();
  g_ = DistributedGraph(total);
  g_.set_generation(gen);
  root_ = 0;

  fill_payloads();

  // Edges: children first (so nbr[0..nc-1] are children), then parents.
  for (std::int32_t d = 0; d < height_; ++d) {
    const std::size_t off = level_offset(k_, d);
    const std::size_t coff = level_offset(k_, d + 1);
    const std::size_t width = pow_k(k_, d);
    for (std::size_t i = 0; i < width; ++i)
      for (unsigned c = 0; c < k_; ++c)
        g_.add_edge(static_cast<Vid>(off + i),
                    static_cast<Vid>(coff + i * k_ + c));
  }
  if (mode_ == TreeMode::kUndirected) {
    for (std::int32_t d = 1; d <= height_; ++d) {
      const std::size_t off = level_offset(k_, d);
      const std::size_t poff = level_offset(k_, d - 1);
      const std::size_t width = pow_k(k_, d);
      for (std::size_t i = 0; i < width; ++i)
        g_.add_edge(static_cast<Vid>(off + i),
                    static_cast<Vid>(poff + i / k_));
    }
  }
  g_.validate();
}

void KaryTree::fill_payloads() {
  // Leaf weight prefix sums for left-sibling weights.
  std::vector<std::int64_t> wprefix(leaves_ + 1, 0);
  for (std::size_t j = 0; j < leaves_; ++j)
    wprefix[j + 1] = wprefix[j] + (j < key_set_.size() ? key_set_[j].weight : 0);

  auto leaf_min = [&](std::size_t leaf_idx) {
    return leaf_idx < key_set_.size() ? key_set_[leaf_idx].key : kSentinel;
  };

  for (std::int32_t d = 0; d <= height_; ++d) {
    const std::size_t off = level_offset(k_, d);
    const std::size_t width = pow_k(k_, d);
    const std::size_t span = pow_k(k_, height_ - d);  // leaves per subtree
    for (std::size_t i = 0; i < width; ++i) {
      auto& rec = g_.vert(static_cast<Vid>(off + i));
      rec.level = d;
      const std::size_t first_leaf = i * span;
      const std::size_t sib_first_leaf = (i - i % k_) * span;
      rec.key[7] = wprefix[first_leaf] - wprefix[sib_first_leaf];
      if (d == height_) {
        rec.key[6] = 0;  // leaf
        rec.key[0] = leaf_min(i);
        rec.key[5] = i < key_set_.size() ? key_set_[i].weight : 0;
      } else {
        rec.key[6] = k_;
        for (unsigned c = 1; c < k_; ++c)
          rec.key[c - 1] = leaf_min((i * k_ + c) * pow_k(k_, height_ - d - 1));
      }
    }
  }
}

msearch::StructureDelta KaryTree::apply_updates(
    const std::vector<WeightedKey>& inserts,
    const std::vector<std::int64_t>& deletes) {
  // Front door: validate the whole batch before mutating anything.
  constexpr const char* kSite = "kary-tree.apply_updates";
  auto rank_of = [&](std::int64_t key) {
    return static_cast<std::size_t>(
        std::lower_bound(
            key_set_.begin(), key_set_.end(), key,
            [](const WeightedKey& a, std::int64_t b) { return a.key < b; }) -
        key_set_.begin());
  };
  auto live_at = [&](std::size_t rank, std::int64_t key) {
    return rank < key_set_.size() && key_set_[rank].key == key;
  };
  std::vector<std::int64_t> dels = deletes;
  std::sort(dels.begin(), dels.end());
  for (std::size_t i = 1; i < dels.size(); ++i)
    if (dels[i - 1] == dels[i])
      msearch::invalid_input("duplicate delete key " + std::to_string(dels[i]),
                             kSite);
  for (const std::int64_t key : dels)
    if (!live_at(rank_of(key), key))
      msearch::invalid_input("delete of missing key " + std::to_string(key),
                             kSite);
  std::vector<WeightedKey> ins = inserts;
  std::sort(ins.begin(), ins.end(),
            [](const WeightedKey& a, const WeightedKey& b) {
              return a.key < b.key;
            });
  for (std::size_t i = 1; i < ins.size(); ++i)
    if (ins[i - 1].key == ins[i].key)
      msearch::invalid_input("duplicate insert key " +
                                 std::to_string(ins[i].key),
                             kSite);
  for (const WeightedKey& wk : ins) check_weight(wk.weight, kSite);

  msearch::StructureDelta delta;
  delta.inserts = inserts.size();
  delta.deletes = deletes.size();

  // The leaf positions whose key or weight the batch changes, ascending.
  std::vector<SubtreeChange> changed;
  const bool weight_only =
      dels.empty() && std::all_of(ins.begin(), ins.end(), [&](const auto& wk) {
        return live_at(rank_of(wk.key), wk.key);
      });
  if (weight_only) {
    // The new total is the old one with the reweighted keys' weights taken
    // out, then the batch's added back (each step stays >= 0, so only the
    // additions can overflow).
    std::int64_t total = total_weight();
    for (const WeightedKey& wk : ins) total -= key_set_[rank_of(wk.key)].weight;
    for (const WeightedKey& wk : ins) total = add_weight(total, wk.weight, kSite);
    // Every key keeps its rank, so only the reweighted ranks change.
    for (const WeightedKey& wk : ins) {
      const std::size_t rank = rank_of(wk.key);
      WeightedKey& live = key_set_[rank];
      if (live.weight != wk.weight)
        changed.push_back({rank, wk.weight - live.weight, false});
      live.weight = wk.weight;
    }
  } else {
    // Merge: deletes first, then inserts (a key deleted and re-inserted in
    // one batch ends up with the inserted weight; an insert of a surviving
    // key updates its weight in place).
    std::vector<WeightedKey> merged;
    merged.reserve(key_set_.size() + ins.size());
    std::size_t a = 0, d = 0;
    for (const WeightedKey& wk : key_set_) {
      while (a < ins.size() && ins[a].key < wk.key) merged.push_back(ins[a++]);
      if (a < ins.size() && ins[a].key == wk.key) {
        merged.push_back(ins[a++]);
        continue;
      }
      while (d < dels.size() && dels[d] < wk.key) ++d;
      if (d < dels.size() && dels[d] == wk.key) continue;
      merged.push_back(wk);
    }
    merged.insert(merged.end(), ins.begin() + static_cast<std::ptrdiff_t>(a),
                  ins.end());
    if (merged.empty())
      msearch::invalid_input("update batch would empty the tree", kSite);
    std::int64_t total = 0;
    for (const WeightedKey& wk : merged)
      total = add_weight(total, wk.weight, kSite);

    if (merged.size() > leaves_) {
      // The key set outgrew the leaf level: rebuild in place, one (or more)
      // levels taller. The DistributedGraph member keeps its address; its
      // generation stamp survives the assignment inside build().
      key_set_ = std::move(merged);
      build();
      g_.bump_generation();
      delta.topology_changed = true;
      delta.generation = g_.generation();
      return delta;
    }

    // Same leaf level: compare rank by rank (past the end a leaf holds the
    // +inf sentinel with weight 0).
    const WeightedKey pad{kSentinel, 0};
    for (std::size_t p = 0; p < std::max(key_set_.size(), merged.size());
         ++p) {
      const WeightedKey& was = p < key_set_.size() ? key_set_[p] : pad;
      const WeightedKey& now = p < merged.size() ? merged[p] : pad;
      if (was.key != now.key || was.weight != now.weight)
        changed.push_back({p, now.weight - was.weight, was.key != now.key});
    }
    key_set_ = std::move(merged);
  }

  delta.dirty_vertices = rewrite_payloads(std::move(changed));
  g_.bump_generation();
  delta.generation = g_.generation();
  return delta;
}

std::int64_t KaryTree::total_weight() const {
  // key[7] of each node on the rightmost root-to-leaf path sums its left
  // siblings' subtrees; together with the last leaf's weight they cover
  // every leaf once.
  std::int64_t total = 0;
  for (std::int32_t d = 0; d <= height_; ++d)
    total += g_.vert(static_cast<Vid>(level_offset(k_, d + 1) - 1)).key[7];
  return total + g_.vert(static_cast<Vid>(g_.vertex_count() - 1)).key[5];
}

std::vector<Vid> KaryTree::rewrite_payloads(
    std::vector<SubtreeChange> leaves) {
  // by_level[d]: the depth-d nodes whose subtree holds a changed leaf,
  // ascending, with the subtree's weight deltas summed.
  std::vector<std::vector<SubtreeChange>> by_level(height_ + 1);
  by_level[height_] = std::move(leaves);
  for (std::int32_t d = height_; d > 0; --d) {
    std::vector<SubtreeChange>& up = by_level[d - 1];
    for (const SubtreeChange& c : by_level[d]) {
      const std::size_t parent = c.index / k_;
      if (!up.empty() && up.back().index == parent) {
        up.back().weight_delta += c.weight_delta;
        up.back().key_changed = up.back().key_changed || c.key_changed;
      } else {
        up.push_back({parent, c.weight_delta, c.key_changed});
      }
    }
  }

  auto leaf_min = [&](std::size_t leaf_idx) {
    return leaf_idx < key_set_.size() ? key_set_[leaf_idx].key : kSentinel;
  };
  // Top-down, left to right: the dirty list comes out ascending.
  std::vector<Vid> dirty;
  for (std::int32_t d = 0; d <= height_; ++d) {
    const std::size_t off = level_offset(k_, d);
    const std::size_t width = pow_k(k_, d);
    const std::size_t child_span = d < height_ ? pow_k(k_, height_ - d - 1) : 0;
    const std::vector<SubtreeChange>& nodes = by_level[d];
    for (std::size_t a = 0; a < nodes.size();) {
      // One sibling group. A node's key[7] sums its left siblings' subtree
      // weights, so it moves only right of a changed sibling; its own
      // separators (or leaf key and weight) move only if its own subtree
      // changed a key (or, at a leaf, anything).
      const std::size_t group_end =
          std::min(width, (nodes[a].index / k_ + 1) * k_);
      std::size_t i = nodes[a].index;
      if (d < height_ && !nodes[a].key_changed) ++i;
      std::int64_t left_delta = 0;
      std::size_t b = a;
      for (; i < group_end; ++i) {
        for (; b < nodes.size() && nodes[b].index < i; ++b)
          left_delta += nodes[b].weight_delta;
        VertexRecord& rec = g_.vert(static_cast<Vid>(off + i));
        const auto was = rec.key;
        rec.key[7] += left_delta;
        if (d == height_) {
          rec.key[0] = leaf_min(i);
          rec.key[5] = i < key_set_.size() ? key_set_[i].weight : 0;
        } else {
          for (unsigned c = 1; c < k_; ++c)
            rec.key[c - 1] = leaf_min((i * k_ + c) * child_span);
        }
        if (rec.key != was) dirty.push_back(static_cast<Vid>(off + i));
      }
      while (a < nodes.size() && nodes[a].index < group_end) ++a;
    }
  }
  return dirty;
}

std::vector<std::int32_t> KaryTree::subtree_labels(std::int32_t d) const {
  MS_CHECK(d >= 0 && d <= height_ + 1);
  std::vector<std::int32_t> label(g_.vertex_count(), 0);
  for (std::int32_t depth = d; depth <= height_; ++depth) {
    const std::size_t off = level_offset(k_, depth);
    const std::size_t width = pow_k(k_, depth);
    const std::size_t shrink = pow_k(k_, depth - d);
    for (std::size_t i = 0; i < width; ++i)
      label[off + i] = 1 + static_cast<std::int32_t>(i / shrink);
  }
  return label;
}

namespace {
double delta_of(const Splitting& s, std::size_t n) {
  return std::log(static_cast<double>(
             std::max<std::size_t>(2, msearch::max_piece_size(s)))) /
         std::log(std::max<double>(2.0, static_cast<double>(n)));
}
}  // namespace

Splitting KaryTree::alpha_splitting() const {
  return alpha_splitting_at(std::max<std::int32_t>(1, (height_ + 1) / 2));
}

Splitting KaryTree::alpha_splitting_at(std::int32_t d) const {
  MS_CHECK_MSG(mode_ == TreeMode::kDirected,
               "alpha splitting applies to the directed tree");
  Splitting s;
  const std::int32_t d1 = std::clamp<std::int32_t>(d, 1, std::max(1, height_));
  if (height_ == 0) {
    s.piece.assign(1, 0);
    s.kind.assign(1, msearch::PieceKind::kHead);
  } else {
    s.piece = subtree_labels(d1);
    s.kind.assign(1 + pow_k(k_, d1), msearch::PieceKind::kTail);
    s.kind[0] = msearch::PieceKind::kHead;
  }
  s.delta = delta_of(s, g_.vertex_count());
  return s;
}

std::pair<Splitting, Splitting> KaryTree::alpha_beta_splittings() const {
  MS_CHECK_MSG(mode_ == TreeMode::kUndirected,
               "alpha-beta splittings apply to the undirected tree");
  const std::int32_t d1 = std::max<std::int32_t>(1, (height_ + 1) / 2);
  std::int32_t d2 = std::max<std::int32_t>(1, (height_ + 1) / 3);
  // Keep the cut levels >= 2 apart so the splitter borders never touch
  // (Figure 3's h/6 separation, clamped for small trees).
  if (d2 > d1 - 2) d2 = std::max<std::int32_t>(1, d1 - 2);
  auto make = [&](std::int32_t d) {
    Splitting s;
    if (height_ == 0) {
      s.piece.assign(1, 0);
      s.kind.assign(1, msearch::PieceKind::kPlain);
    } else {
      s.piece = subtree_labels(d);
      s.kind.assign(1 + pow_k(k_, d), msearch::PieceKind::kPlain);
    }
    s.delta = delta_of(s, g_.vertex_count());
    return s;
  };
  return {make(d1), make(d2)};
}

KaryTree::EulerScan KaryTree::euler_scan() const {
  MS_CHECK_MSG(mode_ == TreeMode::kUndirected,
               "EulerScan requires the undirected tree");
  return EulerScan{root_};
}

// ---------------------------------------------------------------------------
// programs
// ---------------------------------------------------------------------------

namespace {
/// Child index chosen when descending for x: the last child whose subtree
/// minimum is <= x (separators are the minima of children 1..nc-1).
unsigned pick_child(const VertexRecord& v, std::int64_t x) {
  const auto nc = static_cast<unsigned>(v.key[6]);
  unsigned c = 0;
  while (c + 1 < nc && v.key[c] <= x) ++c;
  return c;
}
}  // namespace

Vid KaryTree::PredecessorSearch::start(Query&) const { return root; }

Vid KaryTree::PredecessorSearch::next(const VertexRecord& v, Query& q) const {
  if (v.key[6] == 0) {  // leaf
    q.result = v.id;
    q.acc0 = (v.key[0] != kSentinel && v.key[0] <= q.key[0])
                 ? v.key[0]
                 : std::numeric_limits<std::int64_t>::min();
    return kNoVertex;
  }
  return v.nbr[pick_child(v, q.key[0])];
}

Vid KaryTree::RankCount::start(Query&) const { return root; }

Vid KaryTree::RankCount::next(const VertexRecord& v, Query& q) const {
  q.acc0 += v.key[7];  // weight of subtrees left of the descent path
  if (v.key[6] == 0) {
    if (v.key[0] != kSentinel && v.key[0] <= q.key[0]) q.acc0 += v.key[5];
    return kNoVertex;
  }
  return v.nbr[pick_child(v, q.key[0])];
}

Vid KaryTree::EulerScan::start(Query&) const { return root; }

Vid KaryTree::EulerScan::next(const VertexRecord& v, Query& q) const {
  const auto nc = static_cast<unsigned>(v.key[6]);
  const std::int64_t lo = q.key[0], hi = q.key[1];
  if (nc == 0) {  // leaf: report, then continue the in-order walk
    if (v.key[0] != kSentinel && v.key[0] >= lo && v.key[0] <= hi) {
      q.acc0 += v.key[5];
      q.acc1 ^= static_cast<std::int64_t>(
          util::mix64(static_cast<std::uint64_t>(v.key[0])));
    }
    if (v.key[0] == kSentinel || v.key[0] > hi || v.id == root)
      return kNoVertex;  // past the range (or degenerate one-node tree)
    q.state = 1;
    q.prev = v.id;
    return v.nbr[0];  // parent
  }
  if (q.state == 0) {  // still descending toward the first relevant leaf
    return v.nbr[pick_child(v, lo)];
  }
  // Euler step at an internal node: came from q.prev.
  const Vid parent = v.id == root ? kNoVertex : v.nbr[nc];
  Vid out;
  if (q.prev == parent) {
    out = v.nbr[0];
  } else {
    unsigned i = 0;
    while (i < nc && v.nbr[i] != q.prev) ++i;
    MS_CHECK_MSG(i < nc, "Euler walk lost its way");
    out = (i + 1 < nc) ? v.nbr[i + 1] : parent;  // kNoVertex ends at root
  }
  q.prev = v.id;
  return out;
}

}  // namespace meshsearch::ds
