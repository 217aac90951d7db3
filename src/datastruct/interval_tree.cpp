#include "datastruct/interval_tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "mesh/snake.hpp"
#include "multisearch/validate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace meshsearch::ds {

namespace {

constexpr std::int64_t kSentinel = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kAntiSentinel =
    std::numeric_limits<std::int64_t>::min();

// Vertex type tags (VertexRecord::key[6]).
constexpr std::int64_t kInternal = 0;
constexpr std::int64_t kLeaf = 1;
constexpr std::int64_t kChain = 2;

}  // namespace

IntervalTree::IntervalTree(std::vector<Interval> intervals,
                           std::size_t chain_slack)
    : intervals_(std::move(intervals)), slack_(chain_slack) {
  if (intervals_.empty())
    msearch::invalid_input("empty interval set", "interval-tree");
  for (std::size_t i = 0; i < intervals_.size(); ++i)
    if (intervals_[i].lo > intervals_[i].hi)
      msearch::invalid_input(
          "interval " + std::to_string(i) + " has lo > hi", "interval-tree");
  build();
}

Vid IntervalTree::assign_node(const Interval& iv) const {
  // Highest node whose split the interval straddles (or the leaf the
  // descent bottoms out at). Pure function of (iv, pts_), so build-time
  // assignments can be recomputed for deletes at update time.
  std::size_t t = 0;
  while (t < leaf_offset_) {
    std::size_t x = 2 * t + 1;  // last leaf of the left subtree
    while (x < leaf_offset_) x = 2 * x + 2;
    x -= leaf_offset_;
    const std::int64_t m = x < pts_.size() ? pts_[x] : kSentinel;
    if (iv.hi <= m)
      t = 2 * t + 1;
    else if (iv.lo > m)
      t = 2 * t + 2;
    else
      break;
  }
  return static_cast<Vid>(t);
}

void IntervalTree::build() {
  // Distinct endpoints, padded to a power of two.
  pts_.clear();
  pts_.reserve(2 * intervals_.size());
  for (const auto& iv : intervals_) {
    pts_.push_back(iv.lo);
    pts_.push_back(iv.hi);
  }
  std::sort(pts_.begin(), pts_.end());
  pts_.erase(std::unique(pts_.begin(), pts_.end()), pts_.end());
  const std::size_t leaves = mesh::ceil_pow2(pts_.size());
  tree_nodes_ = 2 * leaves - 1;
  leaf_offset_ = leaves - 1;
  tree_height_ = static_cast<std::int32_t>(mesh::floor_log2(leaves));

  auto leaf_value = [&](std::size_t j) {
    return j < pts_.size() ? pts_[j] : kSentinel;
  };
  // split(t) = value of the last leaf of t's left subtree.
  auto last_left_leaf = [&](std::size_t t) {
    std::size_t x = 2 * t + 1;  // left child
    while (x < leaf_offset_) x = 2 * x + 2;
    return x - leaf_offset_;
  };

  // Assign each interval to the highest node whose split it straddles.
  // `assigned` carries indices for the build; node_ids_ carries the stable
  // ids the update path works in.
  std::vector<std::vector<std::int32_t>> assigned(tree_nodes_);
  node_ids_.assign(tree_nodes_, {});
  for (std::size_t i = 0; i < intervals_.size(); ++i) {
    const auto t = static_cast<std::size_t>(assign_node(intervals_[i]));
    assigned[t].push_back(static_cast<std::int32_t>(i));
    node_ids_[t].push_back(intervals_[i].id);
  }

  // Build chains: per node, an L-chain (ascending lo) and an R-chain
  // (descending hi), each with `slack_` spare vertices after the real ones
  // (nodes storing no intervals get no chains at all). Count first.
  auto cap_of = [&](std::size_t t) -> std::uint32_t {
    return assigned[t].empty()
               ? 0
               : static_cast<std::uint32_t>(assigned[t].size() + slack_);
  };
  std::size_t chain_total = 0;
  for (std::size_t t = 0; t < tree_nodes_; ++t) chain_total += 2 * cap_of(t);
  const std::uint64_t gen = g_.generation();
  g_ = DistributedGraph(tree_nodes_ + chain_total);
  g_.set_generation(gen);
  chain_owner_.assign(chain_total, kNoVertex);
  chain_pos_.assign(chain_total, 0);
  lchain_.assign(tree_nodes_, ChainMeta{});
  rchain_.assign(tree_nodes_, ChainMeta{});

  // Tree node records (vid == heap index).
  for (std::size_t t = 0; t < tree_nodes_; ++t) {
    auto& rec = g_.vert(static_cast<Vid>(t));
    const bool leaf = t >= leaf_offset_;
    rec.key[6] = leaf ? kLeaf : kInternal;
    rec.key[0] = leaf ? leaf_value(t - leaf_offset_)
                      : leaf_value(last_left_leaf(t));
    rec.key[1] = -1;  // nbr index of L-chain head
    rec.key[2] = -1;  // nbr index of R-chain head
    rec.key[3] = -1;  // nbr index of parent
    rec.level = static_cast<std::int32_t>(mesh::floor_log2(t + 1));
  }

  // Primary tree edges. Adjacency order matters to the search program:
  // every node lists its children first (nbr[0] = left, nbr[1] = right),
  // then its parent, then any chain heads — so the down edges are added for
  // all nodes before any up edge, one direction at a time.
  for (std::size_t t = 0; t < leaf_offset_; ++t) {
    g_.add_edge(static_cast<Vid>(t), static_cast<Vid>(2 * t + 1));
    g_.add_edge(static_cast<Vid>(t), static_cast<Vid>(2 * t + 2));
  }
  for (std::size_t t = 1; t < tree_nodes_; ++t) {
    auto& rec = g_.vert(static_cast<Vid>(t));
    rec.key[3] = rec.degree;  // parent's slot
    g_.add_edge(static_cast<Vid>(t), static_cast<Vid>((t - 1) / 2));
  }

  // Chain vertices: `cap` consecutive vids per chain, real nodes first,
  // inert spares after. The last real node's has_next is 0, so spares are
  // never visited; their payloads are inert anyway (a left spare's lo is
  // +inf, a right spare's hi is -inf — in_order fails for any query).
  Vid next_vid = static_cast<Vid>(tree_nodes_);
  auto build_chain = [&](Vid owner, std::vector<std::int32_t> idxs,
                         bool left_chain, ChainMeta& meta) {
    const std::uint32_t cap = cap_of(static_cast<std::size_t>(owner));
    if (cap == 0) return;
    if (left_chain)
      std::sort(idxs.begin(), idxs.end(), [&](std::int32_t a, std::int32_t b) {
        const auto& ia = intervals_[static_cast<std::size_t>(a)];
        const auto& ib = intervals_[static_cast<std::size_t>(b)];
        return ia.lo != ib.lo ? ia.lo < ib.lo : a < b;
      });
    else
      std::sort(idxs.begin(), idxs.end(), [&](std::int32_t a, std::int32_t b) {
        const auto& ia = intervals_[static_cast<std::size_t>(a)];
        const auto& ib = intervals_[static_cast<std::size_t>(b)];
        return ia.hi != ib.hi ? ia.hi > ib.hi : a < b;
      });
    meta.first = next_vid;
    meta.cap = cap;
    meta.used = static_cast<std::uint32_t>(idxs.size());
    Vid prev = owner;
    for (std::size_t j = 0; j < cap; ++j) {
      const Vid cv = next_vid++;
      auto& rec = g_.vert(cv);
      if (j < idxs.size()) {
        const auto& iv = intervals_[static_cast<std::size_t>(idxs[j])];
        rec.key[0] = iv.lo;
        rec.key[1] = iv.hi;
        rec.key[2] = j + 1 < idxs.size() ? 1 : 0;  // has_next
        rec.key[4] = iv.id;
      } else {
        rec.key[0] = kSentinel;      // spare: in_order fails on the L side
        rec.key[1] = kAntiSentinel;  // ... and on the R side
        rec.key[2] = 0;
        rec.key[4] = -1;
      }
      rec.key[3] = left_chain ? 0 : 1;  // chain kind
      rec.key[6] = kChain;
      rec.level = g_.vert(owner).level;
      chain_owner_[static_cast<std::size_t>(cv) - tree_nodes_] = owner;
      chain_pos_[static_cast<std::size_t>(cv) - tree_nodes_] =
          static_cast<std::uint32_t>(j);
      // Edge to predecessor: appended as the chain node's nbr[0]; the head
      // position within the owner is recorded in the owner's key[1]/key[2].
      if (j == 0) {
        auto& orec = g_.vert(owner);
        const std::int64_t slot = orec.degree;  // where cv will land
        g_.add_undirected_edge(owner, cv);
        meta.head_slot = slot;
        (left_chain ? orec.key[1] : orec.key[2]) = slot;
      } else {
        g_.add_undirected_edge(prev, cv);
      }
      prev = cv;
    }
  };
  for (std::size_t t = 0; t < tree_nodes_; ++t) {
    build_chain(static_cast<Vid>(t), assigned[t], /*left_chain=*/true,
                lchain_[t]);
    build_chain(static_cast<Vid>(t), assigned[t], /*left_chain=*/false,
                rchain_[t]);
  }
  MS_CHECK(static_cast<std::size_t>(next_vid) == g_.vertex_count());
  g_.validate();
}

void IntervalTree::rewrite_chain(
    Vid t, bool left_chain, const std::vector<std::int32_t>& ids,
    const std::vector<std::pair<std::int32_t, std::size_t>>& id_index,
    std::vector<Vid>& dirty) {
  ChainMeta& meta = left_chain ? lchain_[static_cast<std::size_t>(t)]
                               : rchain_[static_cast<std::size_t>(t)];
  MS_CHECK_MSG(ids.size() <= meta.cap, "chain rewrite exceeds capacity");
  auto interval_of = [&](std::int32_t id) -> const Interval& {
    const auto it = std::lower_bound(
        id_index.begin(), id_index.end(), id,
        [](const std::pair<std::int32_t, std::size_t>& a, std::int32_t b) {
          return a.first < b;
        });
    MS_CHECK(it != id_index.end() && it->first == id);
    return intervals_[it->second];
  };
  std::vector<std::int32_t> sorted = ids;
  if (left_chain)
    std::sort(sorted.begin(), sorted.end(),
              [&](std::int32_t a, std::int32_t b) {
                const auto &ia = interval_of(a), &ib = interval_of(b);
                return ia.lo != ib.lo ? ia.lo < ib.lo : a < b;
              });
  else
    std::sort(sorted.begin(), sorted.end(),
              [&](std::int32_t a, std::int32_t b) {
                const auto &ia = interval_of(a), &ib = interval_of(b);
                return ia.hi != ib.hi ? ia.hi > ib.hi : a < b;
              });
  for (std::size_t j = 0; j < meta.cap; ++j) {
    auto& rec = g_.vert(meta.first + static_cast<Vid>(j));
    std::int64_t lo, hi, has_next, id;
    if (j < sorted.size()) {
      const Interval& iv = interval_of(sorted[j]);
      lo = iv.lo;
      hi = iv.hi;
      has_next = j + 1 < sorted.size() ? 1 : 0;
      id = iv.id;
    } else {
      lo = kSentinel;
      hi = kAntiSentinel;
      has_next = 0;
      id = -1;
    }
    if (rec.key[0] != lo || rec.key[1] != hi || rec.key[2] != has_next ||
        rec.key[4] != id) {
      rec.key[0] = lo;
      rec.key[1] = hi;
      rec.key[2] = has_next;
      rec.key[4] = id;
      dirty.push_back(meta.first + static_cast<Vid>(j));
    }
  }
  // An emptied chain parks the owner's head index at -1 (the query then
  // skips the detour entirely, like a node that never had intervals); the
  // first insert restores the recorded slot.
  auto& orec = g_.vert(t);
  std::int64_t& head = left_chain ? orec.key[1] : orec.key[2];
  const std::int64_t want = sorted.empty() ? -1 : meta.head_slot;
  if (head != want) {
    head = want;
    dirty.push_back(t);
  }
  meta.used = static_cast<std::uint32_t>(sorted.size());
}

msearch::StructureDelta IntervalTree::apply_updates(
    const std::vector<Interval>& inserts,
    const std::vector<std::int32_t>& delete_ids) {
  // id -> index of the live set. Dynamic updates address intervals by id,
  // so the live ids must be unique (static construction never needed that).
  auto make_id_index = [&] {
    std::vector<std::pair<std::int32_t, std::size_t>> idx;
    idx.reserve(intervals_.size());
    for (std::size_t i = 0; i < intervals_.size(); ++i)
      idx.emplace_back(intervals_[i].id, i);
    std::sort(idx.begin(), idx.end());
    for (std::size_t i = 1; i < idx.size(); ++i)
      if (idx[i - 1].first == idx[i].first)
        msearch::invalid_input(
            "interval ids not unique (id " + std::to_string(idx[i].first) +
                "); dynamic updates address intervals by id",
            "interval-tree.apply_updates");
    return idx;
  };
  std::vector<std::pair<std::int32_t, std::size_t>> id_index = make_id_index();
  auto find_id = [&](std::int32_t id) -> const Interval* {
    const auto it = std::lower_bound(
        id_index.begin(), id_index.end(), id,
        [](const std::pair<std::int32_t, std::size_t>& a, std::int32_t b) {
          return a.first < b;
        });
    if (it == id_index.end() || it->first != id) return nullptr;
    return &intervals_[it->second];
  };

  // Front door: validate the whole batch before mutating anything.
  std::vector<std::int32_t> dels = delete_ids;
  std::sort(dels.begin(), dels.end());
  for (std::size_t i = 1; i < dels.size(); ++i)
    if (dels[i - 1] == dels[i])
      msearch::invalid_input("duplicate delete id " + std::to_string(dels[i]),
                             "interval-tree.apply_updates");
  for (const std::int32_t id : dels)
    if (find_id(id) == nullptr)
      msearch::invalid_input("delete of missing interval id " +
                                 std::to_string(id),
                             "interval-tree.apply_updates");
  {
    std::vector<std::int32_t> ins_ids;
    ins_ids.reserve(inserts.size());
    for (const auto& iv : inserts) {
      if (iv.lo > iv.hi)
        msearch::invalid_input("insert interval id " + std::to_string(iv.id) +
                                   " has lo > hi",
                               "interval-tree.apply_updates");
      ins_ids.push_back(iv.id);
    }
    std::sort(ins_ids.begin(), ins_ids.end());
    for (std::size_t i = 1; i < ins_ids.size(); ++i)
      if (ins_ids[i - 1] == ins_ids[i])
        msearch::invalid_input(
            "duplicate insert id " + std::to_string(ins_ids[i]),
            "interval-tree.apply_updates");
    // An id may be deleted and re-inserted in one batch; otherwise it must
    // not collide with a surviving interval.
    for (const std::int32_t id : ins_ids)
      if (find_id(id) != nullptr &&
          !std::binary_search(dels.begin(), dels.end(), id))
        msearch::invalid_input(
            "insert id " + std::to_string(id) + " already present",
            "interval-tree.apply_updates");
  }
  if (intervals_.size() - dels.size() + inserts.size() == 0)
    msearch::invalid_input("update batch would empty the interval set",
                           "interval-tree.apply_updates");

  msearch::StructureDelta delta;
  delta.inserts = inserts.size();
  delta.deletes = delete_ids.size();

  // The touched nodes, each with the ids it loses (ascending, as `dels`
  // is) and the ids it gains. Deletes recompute their node by the same
  // pure straddle-descent that placed them.
  struct NodeBatch {
    std::vector<std::int32_t> dels;
    std::vector<std::int32_t> ins;
  };
  std::map<Vid, NodeBatch> touched;
  for (const std::int32_t id : dels)
    touched[assign_node(*find_id(id))].dels.push_back(id);
  for (const auto& iv : inserts) touched[assign_node(iv)].ins.push_back(iv.id);
  bool fits = true;
  for (const auto& [t, nb] : touched) {
    const auto ts = static_cast<std::size_t>(t);
    const std::size_t after =
        node_ids_[ts].size() - nb.dels.size() + nb.ins.size();
    if (after > lchain_[ts].cap || after > rchain_[ts].cap) {
      fits = false;
      break;
    }
  }

  // Apply the batch to the live set (deletes first, inserts appended).
  {
    std::vector<Interval> survivors;
    survivors.reserve(intervals_.size() - dels.size() + inserts.size());
    for (const auto& iv : intervals_)
      if (!std::binary_search(dels.begin(), dels.end(), iv.id))
        survivors.push_back(iv);
    for (const auto& iv : inserts) survivors.push_back(iv);
    intervals_ = std::move(survivors);
  }

  if (!fits) {
    // A touched chain would overflow (or the node never had chains): full
    // in-place rebuild over the new endpoint set, same slack policy. The
    // DistributedGraph member keeps its address; the generation stamp
    // survives the assignment inside build().
    build();
    g_.bump_generation();
    delta.topology_changed = true;
    delta.generation = g_.generation();
    return delta;
  }

  // Incremental path: rewrite the touched nodes' chains in place.
  id_index = make_id_index();  // indices shifted with the erase/append
  std::vector<Vid> dirty;
  for (const auto& [t, nb] : touched) {
    auto& ids = node_ids_[static_cast<std::size_t>(t)];
    ids.erase(std::remove_if(ids.begin(), ids.end(),
                             [&](std::int32_t id) {
                               return std::binary_search(nb.dels.begin(),
                                                         nb.dels.end(), id);
                             }),
              ids.end());
    ids.insert(ids.end(), nb.ins.begin(), nb.ins.end());
    rewrite_chain(t, /*left_chain=*/true, ids, id_index, dirty);
    rewrite_chain(t, /*left_chain=*/false, ids, id_index, dirty);
  }
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  delta.dirty_vertices = std::move(dirty);
  g_.bump_generation();
  delta.generation = g_.generation();
  return delta;
}

// ---------------------------------------------------------------------------
// stabbing program
// ---------------------------------------------------------------------------
//
// States: 0 = fresh arrival at a tree node, 1 = walking down a chain,
//         2 = walking back up a chain / arrived back with the detour done.

Vid IntervalTree::Stabbing::start(Query&) const { return root; }

Vid IntervalTree::Stabbing::next(const VertexRecord& v, Query& q) const {
  const std::int64_t x = q.key[0];
  if (v.key[6] == kChain) {
    if (q.state == 2) return v.nbr[0];  // keep climbing back
    const bool left_chain = v.key[3] == 0;
    const bool in_order = left_chain ? v.key[0] <= x : v.key[1] >= x;
    if (!in_order) {  // sorted prefix exhausted: turn around
      q.state = 2;
      return v.nbr[0];
    }
    if (v.key[0] <= x && x <= v.key[1]) {  // a hit
      q.acc0 += 1;
      q.acc1 ^= static_cast<std::int64_t>(
          util::mix64(static_cast<std::uint64_t>(v.key[4])));
    }
    if (v.key[2] == 0) {  // chain end: turn around
      q.state = 2;
      return v.nbr[0];
    }
    return v.nbr[1];  // continue down the chain
  }
  // Tree node.
  const bool leaf = v.key[6] == kLeaf;
  const bool go_left = x <= v.key[0];
  if (q.state == 0) {  // fresh arrival: detour into the relevant chain
    const std::int64_t head = go_left ? v.key[1] : v.key[2];
    if (head >= 0) {
      q.state = 1;
      return v.nbr[static_cast<std::size_t>(head)];
    }
  }
  // Chain done (or absent): descend.
  q.state = 0;
  if (leaf) return kNoVertex;
  return v.nbr[go_left ? 0 : 1];
}

// ---------------------------------------------------------------------------
// splittings
// ---------------------------------------------------------------------------

std::pair<Splitting, Splitting> IntervalTree::alpha_beta_splittings() const {
  const std::size_t n = g_.vertex_count();
  const std::uint32_t period = static_cast<std::uint32_t>(std::max<double>(
      4.0, std::ceil(std::sqrt(static_cast<double>(n)))));
  const std::int32_t d1 = std::max<std::int32_t>(1, (tree_height_ + 1) / 2);
  std::int32_t d2 = std::max<std::int32_t>(1, (tree_height_ + 1) / 3);
  // Cut levels >= 2 apart so the primary-tree borders never touch.
  if (d2 > d1 - 2) d2 = std::max<std::int32_t>(1, d1 - 2);

  auto tree_label = [&](std::size_t t, std::int32_t d) -> std::int32_t {
    // 0 for depth < d, else 1 + index of the depth-d ancestor.
    std::int32_t depth = static_cast<std::int32_t>(mesh::floor_log2(t + 1));
    if (depth < d) return 0;
    std::size_t a = t;
    while (depth > d) {
      a = (a - 1) / 2;
      --depth;
    }
    return 1 + static_cast<std::int32_t>(a - ((std::size_t{1} << d) - 1));
  };

  auto make = [&](std::int32_t d, bool attach_prefix) {
    Splitting s;
    s.piece.assign(n, -1);
    std::int32_t next_piece = 1 + (1 << d);  // tree pieces come first
    // Tree nodes.
    for (std::size_t t = 0; t < tree_nodes_; ++t)
      s.piece[t] = tree_label(t, d);
    // Chain nodes: segment pieces of `period` nodes; with attach_prefix the
    // first half-period of each chain joins its owner's tree piece.
    std::vector<std::pair<std::int64_t, std::int32_t>> seg_ids;
    auto seg_id_for = [&](Vid owner, std::uint32_t seg) {
      const std::int64_t key =
          static_cast<std::int64_t>(owner) * (1 << 24) + seg;
      if (!seg_ids.empty() && seg_ids.back().first == key)
        return seg_ids.back().second;
      seg_ids.emplace_back(key, next_piece);
      return next_piece++;
    };
    for (std::size_t c = 0; c < chain_owner_.size(); ++c) {
      const std::size_t vtx = tree_nodes_ + c;
      const std::uint32_t pos = chain_pos_[c];
      const Vid owner = chain_owner_[c];
      if (attach_prefix && pos < period / 2) {
        s.piece[vtx] = s.piece[static_cast<std::size_t>(owner)];
      } else {
        const std::uint32_t shifted = attach_prefix ? pos - period / 2 : pos;
        s.piece[vtx] = seg_id_for(owner, shifted / period);
      }
    }
    s.kind.assign(static_cast<std::size_t>(next_piece),
                  msearch::PieceKind::kPlain);
    s.delta = std::log(static_cast<double>(
                  std::max<std::size_t>(2, msearch::max_piece_size(s)))) /
              std::log(std::max<double>(2.0, static_cast<double>(n)));
    return s;
  };
  return {make(d1, /*attach_prefix=*/false), make(d2, /*attach_prefix=*/true)};
}

// ---------------------------------------------------------------------------
// oracles
// ---------------------------------------------------------------------------

std::pair<std::int64_t, std::int64_t> IntervalTree::stab_oracle(
    const std::vector<Interval>& intervals, std::int64_t x) {
  std::int64_t count = 0, checksum = 0;
  for (const auto& iv : intervals)
    if (iv.lo <= x && x <= iv.hi) {
      ++count;
      checksum ^= static_cast<std::int64_t>(
          util::mix64(static_cast<std::uint64_t>(iv.id)));
    }
  return {count, checksum};
}

std::int64_t intersect_count_oracle(const std::vector<Interval>& intervals,
                                    std::int64_t a, std::int64_t b) {
  std::int64_t count = 0;
  for (const auto& iv : intervals)
    if (iv.lo <= b && iv.hi >= a) ++count;
  return count;
}

}  // namespace meshsearch::ds
