// Dynamic updates (ISSUE 9): batched insert/delete on the application
// structures, incremental invalidation of warm engines, and the stale-engine
// hole the feature closes. The contracts pinned here:
//
//   1. apply_updates is validated at the front door (InvalidInputError, the
//      structure untouched) and reports an honest StructureDelta: payload-only
//      dirty sets while the topology holds, topology_changed when it cannot.
//   2. A warm engine whose structure mutated NEVER serves silently: run_batch
//      throws StaleEngineError (an IntegrityError) carrying the dataset name
//      and both generation stamps.
//   3. refresh() heals: incremental (dirty-band re-distribution charged under
//      the `rebuild` primitive) for payload deltas, full re-setup otherwise —
//      and the refreshed warm engine is bit-identical to a cold engine built
//      over the same mutated structure: outcomes, per-batch charges, visits,
//      at 1 and 8 host threads, with the stats registry armed or not.
//   4. The `rebuild` phase rides the standard fault machinery: armed plans
//      retry and back off; an exhausted budget throws FaultExhaustedError and
//      leaves the engine still (safely) stale.
//   5. The service layer carries mixed read/write tenant streams: an update
//      submitted mid-stream applies only after the reads admitted before it,
//      reads after it see the new structure, and the refresh is charged to
//      the submitting tenant on the virtual clock.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/kirkpatrick.hpp"
#include "mesh/fault.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "multisearch/update.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::Interval;
using ds::IntervalTree;
using ds::KaryTree;
using ds::TreeMode;
using geom::Kirkpatrick;
using geom::Point2;

// ---------------------------------------------------------------------------
// Shared helpers.
// ---------------------------------------------------------------------------

struct RunRecord {
  std::vector<QueryOutcome> out;
  mesh::Cost cost;
  std::map<trace::PrimitiveKey, trace::PrimitiveStat> counters;
};

/// The determinism harness for update flows: run `f` under a 1-thread pool
/// and a `threads`-thread pool — outcomes, charges and attribution must be
/// bit-identical.
template <typename F>
void expect_update_invariant(F f, unsigned threads = 8) {
  util::ThreadPool::set_global_threads(1);
  const RunRecord serial = f();
  util::ThreadPool::set_global_threads(threads);
  const RunRecord parallel = f();
  util::ThreadPool::set_global_threads(0);
  EXPECT_EQ(diff_outcomes(serial.out, parallel.out), "");
  EXPECT_EQ(serial.cost, parallel.cost);  // exact, not approximate
  EXPECT_TRUE(serial.counters == parallel.counters)
      << "per-primitive attribution diverged";
}

std::vector<Query> rank_queries(std::size_t m, std::int64_t key_hi,
                                std::uint64_t seed) {
  util::Rng rng(seed);
  return ds::uniform_key_queries(m, key_hi, rng);
}

std::vector<Query> stab_queries(std::size_t m, std::int64_t lo,
                                std::int64_t hi, std::uint64_t seed) {
  auto qs = make_queries(m);
  util::Rng rng(seed);
  for (auto& q : qs)
    q.key[0] = rng.uniform_range(lo, hi);
  return qs;
}

// ---------------------------------------------------------------------------
// The rebuild primitive itself.
// ---------------------------------------------------------------------------

TEST(RebuildPrimitive, NamedAndChargedAsSortPlusRoute) {
  EXPECT_STREQ(trace::primitive_name(trace::Primitive::kRebuild), "rebuild");
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  const double p = 1024;
  const mesh::Cost c = m.rebuild(p, 3.0);
  // rebuild = one sort pass + one route pass over the dirty records.
  const mesh::CostModel quiet;
  EXPECT_DOUBLE_EQ(c.steps,
                   3.0 * (quiet.sort(p).steps + quiet.route(p).steps));
  bool saw = false;
  for (const auto& [key, stat] : rec.counters())
    if (key.prim == trace::Primitive::kRebuild) {
      saw = true;
      EXPECT_EQ(stat.calls, 3u);  // `times` back-to-back executions
    }
  EXPECT_TRUE(saw);
}

// ---------------------------------------------------------------------------
// KaryTree::apply_updates.
// ---------------------------------------------------------------------------

TEST(DynamicKaryTree, PayloadOnlyBatchReportsDirtySetAndStaysCorrect) {
  KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
  const std::size_t vertices = tree.graph().vertex_count();
  EXPECT_EQ(tree.graph().generation(), 0u);

  // Two inserts (one brand-new key, one weight update in place), two
  // deletes: the merged key set still fits the leaf level, so the update is
  // payload-only.
  const auto delta = tree.apply_updates(
      {ds::WeightedKey{500, 2}, ds::WeightedKey{5, 42}},
      {std::int64_t{7}, std::int64_t{13}});
  EXPECT_FALSE(delta.topology_changed);
  EXPECT_FALSE(delta.dirty_vertices.empty());
  EXPECT_LT(delta.dirty_vertices.size(), vertices);  // incremental, not all
  EXPECT_EQ(delta.generation, 1u);
  EXPECT_EQ(tree.graph().generation(), 1u);
  EXPECT_EQ(tree.graph().vertex_count(), vertices);  // same topology
  EXPECT_EQ(tree.key_set().size(), 199u);            // 200 - 2 + 1 new

  // The updated tree answers exactly like a cold tree built from the same
  // key set.
  KaryTree fresh(tree.key_set(), 3, TreeMode::kDirected);
  auto qa = rank_queries(300, 520, 91);
  auto qb = qa;
  sequential_multisearch(tree.graph(), tree.rank_count(), qa);
  sequential_multisearch(fresh.graph(), fresh.rank_count(), qb);
  EXPECT_EQ(diff_outcomes(outcomes(qa), outcomes(qb)), "");
}

TEST(DynamicKaryTree, OutgrowingTheLeafLevelRebuildsInPlace) {
  KaryTree tree(ds::iota_keys(9), 3, TreeMode::kDirected);  // 9 = full leaves
  std::vector<ds::WeightedKey> ins{ds::WeightedKey{100, 1}};
  const auto delta = tree.apply_updates(ins, {});
  EXPECT_TRUE(delta.topology_changed);
  EXPECT_EQ(delta.generation, 1u);
  EXPECT_EQ(tree.key_set().size(), 10u);
  tree.graph().validate();

  KaryTree fresh(tree.key_set(), 3, TreeMode::kDirected);
  auto qa = rank_queries(100, 120, 92);
  auto qb = qa;
  sequential_multisearch(tree.graph(), tree.rank_count(), qa);
  sequential_multisearch(fresh.graph(), fresh.rank_count(), qb);
  EXPECT_EQ(diff_outcomes(outcomes(qa), outcomes(qb)), "");
}

TEST(DynamicKaryTree, MalformedBatchesRejectedBeforeAnyMutation) {
  KaryTree tree(ds::iota_keys(20), 2, TreeMode::kDirected);
  const auto before = tree.key_set();
  // Duplicate insert keys.
  EXPECT_THROW(tree.apply_updates({ds::WeightedKey{50, 1},
                                   ds::WeightedKey{50, 2}},
                                  {}),
               InvalidInputError);
  // Delete of an absent key.
  EXPECT_THROW(tree.apply_updates({}, {std::int64_t{999}}),
               InvalidInputError);
  // Duplicate delete.
  EXPECT_THROW(tree.apply_updates({}, {std::int64_t{3}, std::int64_t{3}}),
               InvalidInputError);
  // Emptying the tree.
  std::vector<std::int64_t> all;
  for (const auto& wk : before) all.push_back(wk.key);
  EXPECT_THROW(tree.apply_updates({}, all), InvalidInputError);
  // Nothing moved: same keys, same generation.
  EXPECT_EQ(tree.graph().generation(), 0u);
  EXPECT_EQ(tree.key_set().size(), before.size());
}

TEST(DynamicKaryTree, OverflowingWeightBatchesRejectedBeforeAnyMutation) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  KaryTree tree(ds::iota_keys(8), 2, TreeMode::kDirected);  // total 8
  // Weight-only up to the limit: 7 unit keys plus kMax - 7.
  tree.apply_updates({ds::WeightedKey{0, kMax - 7}}, {});
  EXPECT_EQ(tree.graph().generation(), 1u);
  // Moving weight between keys at the limit is legal whatever the key
  // order: key 0 gives up what key 1 gains.
  tree.apply_updates({ds::WeightedKey{0, 0}, ds::WeightedKey{1, kMax - 6}}, {});
  EXPECT_EQ(tree.graph().generation(), 2u);
  auto qs = make_queries(1);
  qs[0].key[0] = 100;
  sequential_multisearch(tree.graph(), tree.rank_count(), qs);
  EXPECT_EQ(qs[0].acc0, kMax);

  const auto before = tree.key_set();
  auto expect_untouched = [&] {
    EXPECT_EQ(tree.graph().generation(), 2u);
    ASSERT_EQ(tree.key_set().size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(tree.key_set()[i].key, before[i].key);
      EXPECT_EQ(tree.key_set()[i].weight, before[i].weight);
    }
  };
  // Weight-only, one unit past the limit.
  EXPECT_THROW(tree.apply_updates({ds::WeightedKey{2, 2}}, {}),
               InvalidInputError);
  expect_untouched();
  // Churn on the same leaf level: one unit key out, a weight-2 key in.
  EXPECT_THROW(tree.apply_updates({ds::WeightedKey{100, 2}},
                                  {std::int64_t{7}}),
               InvalidInputError);
  expect_untouched();
  // Churn that outgrows the leaf level (8 -> 9 keys).
  EXPECT_THROW(tree.apply_updates({ds::WeightedKey{100, 1}}, {}),
               InvalidInputError);
  expect_untouched();
  // A negative weight, even one that would keep the total in range.
  EXPECT_THROW(tree.apply_updates({ds::WeightedKey{2, -1}}, {}),
               InvalidInputError);
  expect_untouched();
  // Deleting the heavy key frees room for a heavy insert.
  tree.apply_updates({ds::WeightedKey{100, kMax - 6}}, {std::int64_t{1}});
  EXPECT_EQ(tree.graph().generation(), 3u);
}

// ---------------------------------------------------------------------------
// Generated payload-only batches over a KaryTree: every batch keeps the key
// count within leaf_count(), so the topology holds and the delta must list
// exactly the records whose payload changed.
// ---------------------------------------------------------------------------

enum class BatchKind {
  kScatteredWeights,  ///< weight-only: new weights for distinct live keys
  kSameWeights,       ///< weight-only: live keys re-set to their own weight
  kInteriorChurn,     ///< deletes, new keys between live ones, reweights
  kTailChurn,         ///< deletes of the largest keys, appends above them
  kDeleteReinsert,    ///< keys deleted and re-inserted in the same batch
  kFillLeafLevel,     ///< appends until the key count is leaf_count()
};
constexpr int kBatchKinds = 6;

struct KaryBatch {
  BatchKind kind = BatchKind::kScatteredWeights;
  std::vector<ds::WeightedKey> ins;
  std::vector<std::int64_t> dels;
  bool weight_only() const {
    return kind == BatchKind::kScatteredWeights ||
           kind == BatchKind::kSameWeights;
  }
};

/// `m` distinct indices of [0, n) in random order.
std::vector<std::size_t> pick_distinct(std::size_t n, std::size_t m,
                                       util::Rng& rng) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < m; ++i)
    std::swap(idx[i], idx[i + rng.uniform(n - i)]);
  idx.resize(m);
  return idx;
}

/// Batch sizes from one key to every live key.
std::size_t batch_size(std::size_t n, util::Rng& rng) {
  switch (rng.uniform(4)) {
    case 0: return 1;
    case 1: return std::min<std::size_t>(n, 2 + rng.uniform(7));
    case 2: return 1 + rng.uniform(n);
    default: return n;
  }
}

std::int64_t random_weight(util::Rng& rng) {
  return rng.uniform_range(1, 9);
}

/// A seed-driven batch of `kind` against the tree's live key set. The
/// merged key set never outgrows the leaf level and never empties.
KaryBatch make_kary_batch(const KaryTree& tree, BatchKind kind,
                          util::Rng& rng) {
  const auto& keys = tree.key_set();
  const std::size_t n = keys.size();
  const std::size_t room = tree.leaf_count() - n;
  KaryBatch b;
  b.kind = kind;
  std::set<std::int64_t> taken;
  for (const auto& wk : keys) taken.insert(wk.key);
  // A key above every live key and every key this batch inserted.
  auto fresh_tail = [&] {
    const std::int64_t key = *taken.rbegin() + 1;
    taken.insert(key);
    return key;
  };
  // A key strictly between the smallest and largest live key, not live and
  // not yet inserted by this batch (falls back to an append).
  auto fresh_interior = [&] {
    for (int tries = 0; tries < 64 && keys.back().key - keys.front().key > 1;
         ++tries) {
      const std::int64_t key =
          rng.uniform_range(keys.front().key + 1, keys.back().key - 1);
      if (taken.insert(key).second) return key;
    }
    return fresh_tail();
  };
  switch (kind) {
    case BatchKind::kScatteredWeights:
    case BatchKind::kSameWeights:
      for (const std::size_t i : pick_distinct(n, batch_size(n, rng), rng))
        b.ins.push_back(ds::WeightedKey{
            keys[i].key, kind == BatchKind::kSameWeights ? keys[i].weight
                                                         : random_weight(rng)});
      break;
    case BatchKind::kInteriorChurn: {
      const auto doomed =
          pick_distinct(n, rng.uniform(std::min<std::size_t>(9, n)), rng);
      for (const std::size_t i : doomed) b.dels.push_back(keys[i].key);
      const std::size_t cap = std::min<std::size_t>(8, room + doomed.size());
      const std::size_t adds = cap == 0 ? 0 : 1 + rng.uniform(cap);
      for (std::size_t a = 0; a < adds; ++a)
        b.ins.push_back(ds::WeightedKey{fresh_interior(), random_weight(rng)});
      // Reweight a few survivors in the same batch.
      for (const std::size_t i : pick_distinct(n, rng.uniform(3), rng))
        if (std::find(doomed.begin(), doomed.end(), i) == doomed.end())
          b.ins.push_back(ds::WeightedKey{keys[i].key, random_weight(rng)});
      if (b.ins.empty() && b.dels.empty())
        b.ins.push_back(ds::WeightedKey{keys[0].key, random_weight(rng)});
      break;
    }
    case BatchKind::kTailChurn: {
      const std::size_t cut = rng.uniform(std::min<std::size_t>(5, n));
      for (std::size_t i = 0; i < cut; ++i)
        b.dels.push_back(keys[n - 1 - i].key);
      const std::size_t cap = std::min<std::size_t>(6, room + cut);
      const std::size_t adds = cap == 0 ? 0 : 1 + rng.uniform(cap);
      for (std::size_t a = 0; a < adds; ++a)
        b.ins.push_back(ds::WeightedKey{
            keys.back().key + 1 + 3 * static_cast<std::int64_t>(a),
            random_weight(rng)});
      if (b.ins.empty() && b.dels.empty())
        b.dels.push_back(keys.back().key);
      break;
    }
    case BatchKind::kDeleteReinsert:
      for (const std::size_t i :
           pick_distinct(n, std::min<std::size_t>(n, 1 + rng.uniform(4)),
                         rng)) {
        b.dels.push_back(keys[i].key);
        b.ins.push_back(ds::WeightedKey{
            keys[i].key,
            rng.bernoulli(0.5) ? keys[i].weight : random_weight(rng)});
      }
      break;
    case BatchKind::kFillLeafLevel:
      if (room == 0) {  // already full: make room for the next fill
        for (const std::size_t i : pick_distinct(n, 1 + rng.uniform(4), rng))
          b.dels.push_back(keys[i].key);
        break;
      }
      for (std::size_t a = 0; a < room; ++a)
        b.ins.push_back(ds::WeightedKey{
            rng.bernoulli(0.5) ? fresh_interior() : fresh_tail(),
            random_weight(rng)});
      break;
  }
  return b;
}

/// Seed-driven starting key set: `n` keys four apart (room for interior
/// inserts) with weights 1..9.
std::vector<ds::WeightedKey> spaced_keys(std::size_t n, util::Rng& rng) {
  std::vector<ds::WeightedKey> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = ds::WeightedKey{4 * static_cast<std::int64_t>(i),
                              random_weight(rng)};
  return keys;
}

/// The full-array oracle: every record whose payload differs.
std::vector<Vid> full_payload_diff(const std::vector<VertexRecord>& before,
                                   const DistributedGraph& after) {
  std::vector<Vid> dirty;
  for (std::size_t v = 0; v < before.size(); ++v)
    if (after.vert(static_cast<Vid>(v)).key != before[v].key)
      dirty.push_back(static_cast<Vid>(v));
  return dirty;
}

void expect_same_records(const DistributedGraph& a, const DistributedGraph& b) {
  ASSERT_EQ(a.vertex_count(), b.vertex_count());
  for (std::size_t v = 0; v < a.vertex_count(); ++v) {
    const VertexRecord& x = a.vert(static_cast<Vid>(v));
    const VertexRecord& y = b.vert(static_cast<Vid>(v));
    ASSERT_TRUE(x.id == y.id && x.degree == y.degree && x.level == y.level &&
                x.nbr == y.nbr && x.key == y.key)
        << "record " << v << " differs from the cold tree";
  }
}

TEST(DynamicKaryTree, GeneratedBatchesMatchFullDiffOracle) {
  for (unsigned k = 2; k <= 6; ++k) {
    for (const TreeMode mode : {TreeMode::kDirected, TreeMode::kUndirected}) {
      SCOPED_TRACE("k=" + std::to_string(k) + " mode=" +
                   (mode == TreeMode::kDirected ? "directed" : "undirected"));
      util::Rng rng(1000 + 10 * k + (mode == TreeMode::kDirected ? 0 : 1));
      KaryTree tree(spaced_keys(100, rng), k, mode);
      std::map<std::int64_t, std::int64_t> model;
      for (const auto& wk : tree.key_set()) model[wk.key] = wk.weight;
      for (int step = 0; step < 6 * kBatchKinds; ++step) {
        const KaryBatch b = make_kary_batch(
            tree, static_cast<BatchKind>(step % kBatchKinds), rng);
        SCOPED_TRACE("batch " + std::to_string(step));
        const std::vector<VertexRecord> before = tree.graph().verts();
        const std::uint64_t gen = tree.graph().generation();
        const auto delta = tree.apply_updates(b.ins, b.dels);

        for (const std::int64_t key : b.dels) model.erase(key);
        for (const auto& wk : b.ins) model[wk.key] = wk.weight;
        ASSERT_EQ(tree.key_set().size(), model.size());
        std::size_t i = 0;
        for (const auto& [key, weight] : model) {
          ASSERT_EQ(tree.key_set()[i].key, key);
          ASSERT_EQ(tree.key_set()[i].weight, weight);
          ++i;
        }

        ASSERT_FALSE(delta.topology_changed);
        EXPECT_EQ(delta.generation, gen + 1);
        EXPECT_EQ(tree.graph().generation(), gen + 1);
        const KaryTree cold(tree.key_set(), k, mode);
        ASSERT_EQ(cold.leaf_count(), tree.leaf_count());
        expect_same_records(tree.graph(), cold.graph());
        EXPECT_EQ(delta.dirty_vertices,
                  full_payload_diff(before, tree.graph()));
        if (b.weight_only()) {
          const std::size_t bound =
              b.ins.size() *
              (1 + (k - 1) * static_cast<std::size_t>(tree.height()));
          EXPECT_LE(delta.dirty_vertices.size(), bound);
          if (b.kind == BatchKind::kSameWeights) {
            EXPECT_TRUE(delta.dirty_vertices.empty());
          }
        }
        if (b.kind == BatchKind::kFillLeafLevel && !b.ins.empty()) {
          EXPECT_EQ(tree.key_count(), tree.leaf_count());
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// IntervalTree::apply_updates (slack chains).
// ---------------------------------------------------------------------------

std::vector<Interval> demo_intervals() {
  std::vector<Interval> ivs;
  util::Rng rng(7);
  for (std::int32_t i = 0; i < 24; ++i) {
    const std::int64_t lo = rng.uniform_range(0, 900);
    ivs.push_back(Interval{lo, lo + rng.uniform_range(0, 120), i});
  }
  ivs.push_back(Interval{0, 1000, 24});  // wide: anchors the root chain
  return ivs;
}

void expect_stab_matches_oracle(const IntervalTree& t,
                                std::vector<Query> qs) {
  sequential_multisearch(t.graph(), t.stabbing_program(), qs);
  for (const auto& q : qs) {
    const auto [cnt, sum] = IntervalTree::stab_oracle(t.intervals(), q.key[0]);
    EXPECT_EQ(q.acc0, cnt) << "x=" << q.key[0];
    EXPECT_EQ(q.acc1, sum) << "x=" << q.key[0];
  }
}

TEST(DynamicIntervalTree, SlackAbsorbsInsertsAndDeletesPayloadOnly) {
  IntervalTree t(demo_intervals(), /*chain_slack=*/3);
  const std::size_t vertices = t.graph().vertex_count();

  // A root-straddling insert lands in the root chains' spare slots; a
  // delete re-inerts a tail slot. Both are payload rewrites.
  const auto delta = t.apply_updates({Interval{1, 999, 100}},
                                     {std::int32_t{24}});
  EXPECT_FALSE(delta.topology_changed);
  EXPECT_FALSE(delta.dirty_vertices.empty());
  EXPECT_EQ(delta.generation, 1u);
  EXPECT_EQ(t.graph().vertex_count(), vertices);
  EXPECT_EQ(t.interval_count(), 25u);
  t.graph().validate();
  expect_stab_matches_oracle(t, stab_queries(400, -50, 1100, 71));

  // Delete + re-insert with the same id in one batch is legal (the delete
  // frees the id first); emptied chains park and re-open correctly.
  const auto delta2 = t.apply_updates({Interval{2, 998, 100}},
                                      {std::int32_t{100}});
  EXPECT_FALSE(delta2.topology_changed);
  EXPECT_EQ(delta2.generation, 2u);
  expect_stab_matches_oracle(t, stab_queries(400, -50, 1100, 72));
}

TEST(DynamicIntervalTree, ChainOverflowFallsBackToFullRebuild) {
  IntervalTree t(demo_intervals(), /*chain_slack=*/0);  // no spare slots
  const auto delta = t.apply_updates({Interval{1, 999, 100}}, {});
  EXPECT_TRUE(delta.topology_changed);
  EXPECT_EQ(delta.generation, 1u);
  EXPECT_EQ(t.interval_count(), 26u);
  t.graph().validate();
  expect_stab_matches_oracle(t, stab_queries(400, -50, 1100, 73));
}

TEST(DynamicIntervalTree, MalformedBatchesRejectedBeforeAnyMutation) {
  IntervalTree t(demo_intervals(), /*chain_slack=*/2);
  // Inverted insert.
  EXPECT_THROW(t.apply_updates({Interval{10, 5, 200}}, {}),
               InvalidInputError);
  // Insert id already live (and not deleted in the same batch).
  EXPECT_THROW(t.apply_updates({Interval{1, 2, 0}}, {}), InvalidInputError);
  // Duplicate insert ids within the batch.
  EXPECT_THROW(t.apply_updates({Interval{1, 2, 300}, Interval{3, 4, 300}},
                               {}),
               InvalidInputError);
  // Delete of an absent id, duplicate delete ids.
  EXPECT_THROW(t.apply_updates({}, {std::int32_t{999}}), InvalidInputError);
  EXPECT_THROW(t.apply_updates({}, {std::int32_t{0}, std::int32_t{0}}),
               InvalidInputError);
  // Emptying the set.
  std::vector<std::int32_t> all;
  for (const auto& iv : t.intervals()) all.push_back(iv.id);
  EXPECT_THROW(t.apply_updates({}, all), InvalidInputError);
  EXPECT_EQ(t.graph().generation(), 0u);
  EXPECT_EQ(t.interval_count(), 25u);
}

// Generated update batches over an IntervalTree: seed-driven inserts that
// land on live chains, deletes, delete + re-insert of one id, and chain
// overflows that force the rebuild fallback.
enum class IntervalBatchKind {
  kSlackInserts,    ///< copies of live intervals: they join live chains
  kDeletes,         ///< live ids, trimming back toward the starting size
  kDeleteReinsert,  ///< one id deleted and re-inserted in the same batch
  kChainOverflow,   ///< more copies of one interval than its chain holds
};
constexpr int kIntervalBatchKinds = 4;

struct IntervalBatch {
  std::vector<Interval> ins;
  std::vector<std::int32_t> dels;
};

/// A seed-driven batch of `kind` against the tree's live intervals. A copy
/// of a live interval (same endpoints, fresh id from `next_id`) lands on
/// that interval's node. No chain was sized for more than the interval
/// count at the last (re)build plus the slack, so `overflow_copies` =
/// that sum of copies of one interval cannot fit. Deletes trim the set
/// back toward `base` intervals and never empty it.
IntervalBatch make_interval_batch(const IntervalTree& t,
                                  IntervalBatchKind kind,
                                  std::size_t overflow_copies,
                                  std::size_t base, std::int32_t& next_id,
                                  util::Rng& rng) {
  const std::vector<Interval>& live = t.intervals();
  const std::size_t n = live.size();
  IntervalBatch b;
  auto copy_of = [&](const Interval& iv) {
    return Interval{iv.lo, iv.hi, next_id++};
  };
  switch (kind) {
    case IntervalBatchKind::kSlackInserts:
      for (const std::size_t i :
           pick_distinct(n, 1 + rng.uniform(std::min<std::size_t>(3, n)),
                         rng))
        b.ins.push_back(copy_of(live[i]));
      break;
    case IntervalBatchKind::kDeletes: {
      const std::size_t extra = n > base ? n - base : 0;
      const std::size_t count = std::min(n - 1, extra + 1 + rng.uniform(3));
      for (const std::size_t i : pick_distinct(n, count, rng))
        b.dels.push_back(live[i].id);
      break;
    }
    case IntervalBatchKind::kDeleteReinsert: {
      const Interval& iv = live[rng.uniform(n)];
      b.dels.push_back(iv.id);
      if (rng.bernoulli(0.5)) {
        b.ins.push_back(iv);
      } else {
        const std::int64_t lo = rng.uniform_range(0, 900);
        b.ins.push_back(Interval{lo, lo + rng.uniform_range(0, 120), iv.id});
      }
      break;
    }
    case IntervalBatchKind::kChainOverflow: {
      const Interval& iv = live[rng.uniform(n)];
      for (std::size_t c = 0; c < overflow_copies; ++c)
        b.ins.push_back(copy_of(iv));
      break;
    }
  }
  return b;
}

/// Random stabbing probes plus every live endpoint and its outer neighbours.
std::vector<Query> endpoint_probes(const IntervalTree& t,
                                   std::uint64_t seed) {
  auto qs = stab_queries(200, -50, 1100, seed);
  for (const Interval& iv : t.intervals())
    for (const std::int64_t x : {iv.lo - 1, iv.lo, iv.hi, iv.hi + 1}) {
      Query q;
      q.qid = static_cast<std::int32_t>(qs.size());
      q.key[0] = x;
      qs.push_back(q);
    }
  return qs;
}

TEST(DynamicIntervalTree, GeneratedBatchesMatchStabOracle) {
  for (const std::size_t slack : {std::size_t{0}, std::size_t{2}}) {
    SCOPED_TRACE("chain_slack=" + std::to_string(slack));
    util::Rng rng(300 + slack);
    IntervalTree t(demo_intervals(), slack);
    const std::size_t base = t.interval_count();
    std::size_t built_count = base;
    std::int32_t next_id = 1000;
    std::size_t payload_only = 0, rebuilds = 0;
    for (int step = 0; step < 6 * kIntervalBatchKinds; ++step) {
      SCOPED_TRACE("batch " + std::to_string(step));
      const auto kind =
          static_cast<IntervalBatchKind>(step % kIntervalBatchKinds);
      const IntervalBatch b = make_interval_batch(
          t, kind, built_count + slack, base, next_id, rng);
      const std::vector<VertexRecord> before = t.graph().verts();
      const std::uint64_t gen = t.graph().generation();
      const auto delta = t.apply_updates(b.ins, b.dels);

      EXPECT_EQ(delta.generation, gen + 1);
      EXPECT_EQ(t.graph().generation(), gen + 1);
      if (kind == IntervalBatchKind::kChainOverflow) {
        EXPECT_TRUE(delta.topology_changed);
      }
      if (delta.topology_changed) {
        ++rebuilds;
        built_count = t.interval_count();
      } else {
        ++payload_only;
        ASSERT_EQ(t.graph().vertex_count(), before.size());
        EXPECT_EQ(delta.dirty_vertices, full_payload_diff(before, t.graph()));
      }
      t.graph().validate();
      expect_stab_matches_oracle(
          t, endpoint_probes(t, 400 + static_cast<std::uint64_t>(step)));
    }
    EXPECT_GT(rebuilds, 0u);
    EXPECT_GT(payload_only, 0u);
  }
}

// ---------------------------------------------------------------------------
// Kirkpatrick::apply_updates (re-triangulated pockets).
// ---------------------------------------------------------------------------

std::vector<Point2> demo_points() {
  std::vector<Point2> pts;
  util::Rng rng(19);
  for (int i = 0; i < 40; ++i)
    pts.push_back(Point2{rng.uniform_range(-900, 900),
                         rng.uniform_range(-900, 900)});
  std::sort(pts.begin(), pts.end(), [](const Point2& a, const Point2& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  pts.erase(std::unique(pts.begin(), pts.end(),
                        [](const Point2& a, const Point2& b) {
                          return a.x == b.x && a.y == b.y;
                        }),
            pts.end());
  return pts;
}

TEST(DynamicKirkpatrick, DeleteReinsertOfSamePointIsPayloadOnly) {
  Kirkpatrick kp(demo_points(), 2048);
  const Point2 p = kp.points().front();
  // Deterministic re-triangulation: removing and re-adding the same point
  // rebuilds an identical DAG — an empty dirty set, but the generation
  // still moves (the engine must still be told to re-stamp).
  const auto delta = kp.apply_updates({p}, {p});
  EXPECT_FALSE(delta.topology_changed);
  EXPECT_TRUE(delta.dirty_vertices.empty());
  EXPECT_EQ(delta.generation, 1u);
  EXPECT_EQ(kp.dag().generation(), 1u);
}

TEST(DynamicKirkpatrick, PointInsertChangesTopologyAndStaysCorrect) {
  Kirkpatrick kp(demo_points(), 2048);
  const auto delta = kp.apply_updates({Point2{3, 4}, Point2{-7, 11}}, {});
  // A changed point count changes the slot count: the honest delta is a
  // topology change, the engines' full re-setup fallback.
  EXPECT_TRUE(delta.topology_changed);
  EXPECT_EQ(delta.generation, 1u);
  kp.dag().validate();

  util::Rng rng(23);
  auto qs = make_queries(200);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-3000, 3000);
    q.key[1] = rng.uniform_range(-3000, 3000);
  }
  sequential_multisearch(kp.dag(), kp.locate_program(), qs);
  const auto bt = kp.bounding_corners();
  for (const auto& q : qs) {
    const Point2 p{q.key[0], q.key[1]};
    if (point_in_triangle(p, bt[0], bt[1], bt[2]))
      EXPECT_TRUE(kp.answer_contains_point(q));
    else
      EXPECT_EQ(q.result, Kirkpatrick::kOutside);
  }
}

TEST(DynamicKirkpatrick, MalformedBatchesRejectedBeforeAnyMutation) {
  Kirkpatrick kp(demo_points(), 2048);
  const std::size_t n = kp.points().size();
  // Delete of an absent point; duplicate insert of a live point.
  EXPECT_THROW(kp.apply_updates({}, {Point2{12345, 12345}}),
               InvalidInputError);
  EXPECT_THROW(kp.apply_updates({kp.points().front()}, {}),
               InvalidInputError);
  // Emptying the point set.
  EXPECT_THROW(kp.apply_updates({}, kp.points()), InvalidInputError);
  EXPECT_EQ(kp.dag().generation(), 0u);
  EXPECT_EQ(kp.points().size(), n);
}

TEST(DynamicKirkpatrick, GeneratedBatchesMatchColdRebuild) {
  constexpr geom::Scalar kRadius = 2048;
  util::Rng rng(29);
  Kirkpatrick kp(demo_points(), kRadius);
  auto is_live = [&](const Point2& p) {
    return std::find(kp.points().begin(), kp.points().end(), p) !=
           kp.points().end();
  };
  for (int step = 0; step < 12; ++step) {
    SCOPED_TRACE("batch " + std::to_string(step));
    const std::vector<Point2> live = kp.points();
    const std::size_t n = live.size();
    std::vector<Point2> ins, dels;
    // A point neither live nor already inserted by this batch.
    auto fresh_point = [&] {
      for (;;) {
        const Point2 p{rng.uniform_range(-900, 900),
                       rng.uniform_range(-900, 900)};
        if (!is_live(p) &&
            std::find(ins.begin(), ins.end(), p) == ins.end())
          return p;
      }
    };
    switch (step % 3) {
      case 0:  // inserts
        for (std::uint64_t a = 1 + rng.uniform(4); a > 0; --a)
          ins.push_back(fresh_point());
        break;
      case 1:  // deletes
        for (const std::size_t i : pick_distinct(
                 n, std::min<std::size_t>(n - 1, 1 + rng.uniform(4)), rng))
          dels.push_back(live[i]);
        break;
      default:  // delete + re-insert, with one fresh point and one delete
        for (const std::size_t i : pick_distinct(
                 n, std::min<std::size_t>(n - 1, 2 + rng.uniform(3)), rng)) {
          dels.push_back(live[i]);
          if (dels.size() > 1) ins.push_back(live[i]);
        }
        ins.push_back(fresh_point());
        break;
    }
    const std::uint64_t gen = kp.dag().generation();
    const auto delta = kp.apply_updates(ins, dels);
    EXPECT_EQ(delta.generation, gen + 1);
    EXPECT_EQ(kp.dag().generation(), gen + 1);
    kp.dag().validate();

    // Random probes, plus every live point (a shared triangle corner).
    auto qs = make_queries(200 + kp.points().size());
    for (std::size_t i = 0; i < qs.size(); ++i) {
      if (i < 200) {
        qs[i].key[0] = rng.uniform_range(-3000, 3000);
        qs[i].key[1] = rng.uniform_range(-3000, 3000);
      } else {
        qs[i].key[0] = kp.points()[i - 200].x;
        qs[i].key[1] = kp.points()[i - 200].y;
      }
    }
    sequential_multisearch(kp.dag(), kp.locate_program(), qs);
    const auto bt = kp.bounding_corners();
    for (const auto& q : qs) {
      const Point2 p{q.key[0], q.key[1]};
      if (point_in_triangle(p, bt[0], bt[1], bt[2]))
        EXPECT_TRUE(kp.answer_contains_point(q))
            << "(" << p.x << ", " << p.y << ")";
      else
        EXPECT_EQ(q.result, Kirkpatrick::kOutside);
    }

    // The rebuild is deterministic in point order: a cold hierarchy over
    // the same points is the same slot DAG, record for record.
    const Kirkpatrick cold(kp.points(), kRadius);
    expect_same_records(kp.dag(), cold.dag());
  }
}

// ---------------------------------------------------------------------------
// The stale-engine gate (satellite 1): a mutated dataset must never be
// served silently — the typed throw, with context, at the warm boundary.
// ---------------------------------------------------------------------------

TEST(UpdateStaleEngine, MutatedDatasetLookupThrowsTypedStaleEngineError) {
  KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const mesh::CostModel m;

  service::EngineRegistry registry;
  service::Engine& engine = registry.add(
      {"orders", EngineKind::kAlg2Alpha},
      service::make_partitioned_engine(
          EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
          tree.alpha_splitting(), tree.rank_count(), m, shape));
  EXPECT_EQ(engine.dataset(), "orders");  // stamped by the registry

  // Warm serving works before the mutation...
  auto batch = rank_queries(shape.size(), 220, 41);
  EXPECT_NO_THROW(engine.run_batch(batch));
  EXPECT_FALSE(engine.stale());

  // ...then the dataset mutates out from under the warm engine.
  const auto delta = tree.apply_updates({ds::WeightedKey{777, 3}}, {});
  EXPECT_TRUE(engine.stale());
  bool threw = false;
  try {
    engine.run_batch(batch);
  } catch (const StaleEngineError& e) {
    threw = true;
    EXPECT_EQ(e.dataset(), "orders");
    EXPECT_EQ(e.structure_generation(), 1u);
    EXPECT_EQ(e.prepared_generation(), 0u);
    EXPECT_EQ(e.context().phase, "run_batch");
    EXPECT_NE(std::string(e.what()).find("orders"), std::string::npos);
  }
  EXPECT_TRUE(threw) << "stale warm engine served silently";
  // The taxonomy: StaleEngineError IS an IntegrityError IS an Error.
  EXPECT_THROW(engine.run_batch(batch), IntegrityError);
  EXPECT_THROW(engine.run_batch(batch), Error);

  // refresh() reopens the gate and the answers match the mutated oracle.
  RefreshRequest req;
  req.delta = delta;
  const auto rep = engine.refresh(req);
  EXPECT_TRUE(rep.incremental);
  EXPECT_FALSE(engine.stale());
  auto served = rank_queries(shape.size(), 800, 42);
  auto expect = served;
  engine.run_batch(served);
  sequential_multisearch(tree.graph(), tree.rank_count(), expect);
  EXPECT_EQ(diff_outcomes(outcomes(served), outcomes(expect)), "");
}

// ---------------------------------------------------------------------------
// Warm-refresh == cold-rebuild oracle (satellite 3): after refresh, a warm
// engine is bit-identical to a cold engine prepared over the same mutated
// structure — outcomes, per-batch charges, visits — at 1 and 8 threads and
// with the stats registry armed.
// ---------------------------------------------------------------------------

/// Run the warm-update-refresh flow for one engine pair and demand parity
/// with the cold comparator. Returns the warm record for the thread-
/// invariance harness.
template <typename MakeWarm, typename MakeCold, typename Mutate,
          typename Oracle>
RunRecord warm_cold_flow(MakeWarm make_warm, MakeCold make_cold,
                         Mutate mutate, Oracle oracle,
                         const std::vector<Query>& qs) {
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  auto warm_engine = make_warm(m);
  {
    auto pre = qs;
    warm_engine->run_batch(pre);  // pre-update warm serving
  }
  const RefreshRequest req = mutate();
  const RefreshReport rrep = warm_engine->refresh(req);
  EXPECT_EQ(rrep.incremental, !req.delta.topology_changed && !req.force_full);

  auto warm = qs;
  const BatchReport wrep = warm_engine->run_batch(warm);

  const mesh::CostModel cold_model;  // unattributed comparator
  auto cold_engine = make_cold(cold_model);
  auto cold = qs;
  const BatchReport crep = cold_engine->run_batch(cold);

  EXPECT_EQ(diff_outcomes(outcomes(warm), outcomes(cold)), "");
  EXPECT_EQ(wrep.inject, crep.inject);
  EXPECT_EQ(wrep.run, crep.run);
  EXPECT_EQ(wrep.visits, crep.visits);
  EXPECT_EQ(wrep.copies, crep.copies);  // Gamma copies (Alg 2/3)

  auto seq = qs;
  oracle(seq);
  EXPECT_EQ(diff_outcomes(outcomes(warm), outcomes(seq)), "");
  return RunRecord{outcomes(warm), rrep.cost + wrep.inject + wrep.run,
                   rec.counters()};
}

TEST(UpdateWarmColdOracle, Alg1PaperAndGeometricOverKaryDag) {
  for (const PlanKind plan : {PlanKind::kPaper, PlanKind::kGeometric}) {
    const auto qs = rank_queries(300, 520, 61);
    expect_update_invariant([&] {
      // Fresh per run: the flow mutates the tree.
      KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
      const HierarchicalDag dag(tree.graph(), 3.0);
      const auto shape = tree.graph().shape_for(qs.size());
      using Prog = decltype(tree.rank_count());
      return warm_cold_flow(
          [&](const mesh::CostModel& m) {
            return std::make_unique<PreparedSearch<Prog>>(
                dag, plan, tree.rank_count(), m, shape);
          },
          [&](const mesh::CostModel& m) {
            return std::make_unique<PreparedSearch<Prog>>(
                dag, plan, tree.rank_count(), m, shape);
          },
          [&] {
            RefreshRequest req;
            req.delta = tree.apply_updates(
                {ds::WeightedKey{500, 2}, ds::WeightedKey{5, 42}},
                {std::int64_t{7}, std::int64_t{13}});
            EXPECT_FALSE(req.delta.topology_changed);
            return req;
          },
          [&](std::vector<Query>& seq) {
            sequential_multisearch(tree.graph(), tree.rank_count(), seq);
          },
          qs);
    });
  }
}

TEST(UpdateWarmColdOracle, Alg2AlphaOverKaryTree) {
  const auto qs = rank_queries(300, 520, 62);
  expect_update_invariant([&] {
    KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
    const auto shape = tree.graph().shape_for(qs.size());
    using Prog = decltype(tree.rank_count());
    RunRecord r = warm_cold_flow(
        [&](const mesh::CostModel& m) {
          return std::make_unique<PreparedSearch<Prog>>(
              EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
              tree.alpha_splitting(), tree.rank_count(), m, shape);
        },
        [&](const mesh::CostModel& m) {
          return std::make_unique<PreparedSearch<Prog>>(
              EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
              tree.alpha_splitting(), tree.rank_count(), m, shape);
        },
        [&] {
          RefreshRequest req;
          req.delta =
              tree.apply_updates({ds::WeightedKey{500, 2}}, {std::int64_t{7}});
          EXPECT_FALSE(req.delta.topology_changed);
          return req;
        },
        [&](std::vector<Query>& seq) {
          sequential_multisearch(tree.graph(), tree.rank_count(), seq);
        },
        qs);
    // The incremental refresh is charged under the rebuild primitive.
    bool saw_rebuild = false;
    for (const auto& [key, stat] : r.counters)
      saw_rebuild |= key.prim == trace::Primitive::kRebuild;
    EXPECT_TRUE(saw_rebuild);
    return r;
  });
}

TEST(UpdateWarmColdOracle, Alg3AlphaBetaOverSlackIntervalTree) {
  const auto qs = stab_queries(256, -50, 1100, 63);
  expect_update_invariant([&] {
    IntervalTree t(demo_intervals(), /*chain_slack=*/3);
    const auto [s1, s2] = t.alpha_beta_splittings();
    const auto shape = t.graph().shape_for(qs.size());
    using Prog = decltype(t.stabbing_program());
    return warm_cold_flow(
        [&](const mesh::CostModel& m) {
          return std::make_unique<PreparedSearch<Prog>>(
              EngineKind::kAlg3AlphaBeta, t.graph(), s1, s2,
              t.stabbing_program(), m, shape);
        },
        [&](const mesh::CostModel& m) {
          return std::make_unique<PreparedSearch<Prog>>(
              EngineKind::kAlg3AlphaBeta, t.graph(), s1, s2,
              t.stabbing_program(), m, shape);
        },
        [&] {
          RefreshRequest req;
          req.delta = t.apply_updates({Interval{1, 999, 100}},
                                      {std::int32_t{24}});
          EXPECT_FALSE(req.delta.topology_changed);
          return req;
        },
        [&](std::vector<Query>& seq) {
          sequential_multisearch(t.graph(), t.stabbing_program(), seq);
        },
        qs);
  });
}

TEST(UpdateWarmColdOracle, KirkpatrickTopologyChangeTakesFullResetup) {
  util::Rng qrng(64);
  auto qs = make_queries(200);
  for (auto& q : qs) {
    q.key[0] = qrng.uniform_range(-3000, 3000);
    q.key[1] = qrng.uniform_range(-3000, 3000);
  }
  expect_update_invariant([&] {
    Kirkpatrick kp(demo_points(), 2048);
    // Leave headroom in the mesh: the re-triangulated DAG grows.
    const auto shape =
        kp.dag().shape_for(4 * kp.dag().vertex_count());
    // The HierarchicalDag view is assignable so the warm engine's pointer
    // stays valid across the topology change.
    HierarchicalDag dag = kp.hierarchical_dag();
    using Prog = Kirkpatrick::PointLocate;
    return warm_cold_flow(
        [&](const mesh::CostModel& m) {
          return std::make_unique<PreparedSearch<Prog>>(
              dag, PlanKind::kGeometric, kp.locate_program(), m, shape);
        },
        [&](const mesh::CostModel& m) {
          return std::make_unique<PreparedSearch<Prog>>(
              dag, PlanKind::kGeometric, kp.locate_program(), m, shape);
        },
        [&] {
          RefreshRequest req;
          req.delta = kp.apply_updates({Point2{3, 4}, Point2{-7, 11}}, {});
          EXPECT_TRUE(req.delta.topology_changed);
          dag = kp.hierarchical_dag();  // refresh the view in place
          return req;
        },
        [&](std::vector<Query>& seq) {
          sequential_multisearch(kp.dag(), kp.locate_program(), seq);
        },
        qs);
  });
}

// A topological delta that changes the largest piece changes the submesh
// capacity Constrained-Multisearch sizes its Gamma copies by — a constant
// the partitioned warm engine caches per structure generation, so refresh
// must re-derive it. (The payload-only flows above keep the cached value.)
template <typename Prog>
RunRecord grow_kary_flow(TreeMode mode, Prog (KaryTree::*program)() const,
                         const std::vector<Query>& qs) {
  const bool directed = mode == TreeMode::kDirected;
  const EngineKind kind =
      directed ? EngineKind::kAlg2Alpha : EngineKind::kAlg3AlphaBeta;
  KaryTree tree(ds::iota_keys(27), 3, mode);  // 27 keys fill the leaf level
  const mesh::MeshShape shape(32);            // room for the grown tree
  const auto splittings = [&] {
    return directed ? std::pair{tree.alpha_splitting(), tree.alpha_splitting()}
                    : tree.alpha_beta_splittings();
  };
  const auto make = [&](const mesh::CostModel& m) {
    const auto [a, b] = splittings();
    return std::make_unique<PreparedSearch<Prog>>(kind, tree.graph(), a, b,
                                                  (tree.*program)(), m, shape);
  };
  return warm_cold_flow(
      make, make,
      [&] {
        const Splitting before = splittings().first;
        RefreshRequest req;
        req.delta = tree.apply_updates({ds::WeightedKey{100, 5}}, {});
        EXPECT_TRUE(req.delta.topology_changed);  // a 28th key grows a level
        req.has_splittings = true;
        std::tie(req.psi_a, req.psi_b) = splittings();
        EXPECT_NE(constrained_capacity(req.psi_a, shape),
                  constrained_capacity(before, shape));
        return req;
      },
      [&](std::vector<Query>& seq) {
        sequential_multisearch(tree.graph(), (tree.*program)(), seq);
      },
      qs);
}

TEST(UpdateWarmColdOracle, Alg2TopologyChangeRederivesSubmeshCapacity) {
  const auto qs = rank_queries(256, 140, 71);
  expect_update_invariant([&] {
    return grow_kary_flow(TreeMode::kDirected, &KaryTree::rank_count, qs);
  });
}

TEST(UpdateWarmColdOracle, Alg3TopologyChangeRederivesSubmeshCapacity) {
  auto qs = make_queries(256);
  util::Rng rng(72);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-3, 110);
    q.key[1] = q.key[0] + rng.uniform_range(0, 20);
  }
  expect_update_invariant([&] {
    return grow_kary_flow(TreeMode::kUndirected, &KaryTree::euler_scan, qs);
  });
}

/// Serve `qs` on a just-refreshed warm engine and demand parity with a cold
/// engine from `make` (outcomes, charges, visits, copies) and with the
/// sequential oracle `seq`; append the warm outcomes and the refresh plus
/// batch charges to `r`.
template <typename Engine, typename Make, typename Seq>
void serve_warm_cold_sequential(Engine& warm_engine, Make make, Seq seq,
                                const std::vector<Query>& qs,
                                const RefreshReport& rrep, RunRecord& r) {
  auto warm = qs;
  const BatchReport wrep = warm_engine.run_batch(warm);
  const mesh::CostModel cold_model;
  auto cold = qs;
  const BatchReport crep = make(cold_model)->run_batch(cold);
  EXPECT_EQ(diff_outcomes(outcomes(warm), outcomes(cold)), "");
  EXPECT_EQ(wrep.inject, crep.inject);
  EXPECT_EQ(wrep.run, crep.run);
  EXPECT_EQ(wrep.visits, crep.visits);
  EXPECT_EQ(wrep.copies, crep.copies);
  auto expect = qs;
  seq(expect);
  EXPECT_EQ(diff_outcomes(outcomes(warm), outcomes(expect)), "");

  const auto out = outcomes(warm);
  r.out.insert(r.out.end(), out.begin(), out.end());
  r.cost += rrep.cost + wrep.inject + wrep.run;
}

// Warm == cold over a generated update sequence: one warm engine absorbs
// weight and churn batches of every kind, refreshing incrementally after
// each, and every batch it serves matches a cold engine over the same tree.
template <typename Prog>
RunRecord kary_sequence_flow(unsigned k, TreeMode mode,
                             Prog (KaryTree::*program)() const,
                             const std::vector<Query>& qs) {
  const bool directed = mode == TreeMode::kDirected;
  const EngineKind kind =
      directed ? EngineKind::kAlg2Alpha : EngineKind::kAlg3AlphaBeta;
  util::Rng rng(80 + k);
  KaryTree tree(spaced_keys(100, rng), k, mode);
  const auto shape = tree.graph().shape_for(qs.size());
  const std::pair<Splitting, Splitting> psi =
      directed ? std::pair{tree.alpha_splitting(), tree.alpha_splitting()}
               : tree.alpha_beta_splittings();
  const auto make = [&](const mesh::CostModel& m) {
    return std::make_unique<PreparedSearch<Prog>>(
        kind, tree.graph(), psi.first, psi.second, (tree.*program)(), m,
        shape);
  };
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  auto warm_engine = make(m);
  RunRecord r;
  for (int step = 0; step < 2 * kBatchKinds; ++step) {
    SCOPED_TRACE("batch " + std::to_string(step));
    const KaryBatch b = make_kary_batch(
        tree, static_cast<BatchKind>(step % kBatchKinds), rng);
    RefreshRequest req;
    req.delta = tree.apply_updates(b.ins, b.dels);
    EXPECT_FALSE(req.delta.topology_changed);
    const RefreshReport rrep = warm_engine->refresh(req);
    EXPECT_TRUE(rrep.incremental);
    serve_warm_cold_sequential(
        *warm_engine, make,
        [&](std::vector<Query>& seq) {
          sequential_multisearch(tree.graph(), (tree.*program)(), seq);
        },
        qs, rrep, r);
  }
  r.counters = rec.counters();
  return r;
}

TEST(UpdateWarmColdOracle, Alg2GeneratedWeightAndChurnSequence) {
  const auto qs = rank_queries(256, 480, 81);
  expect_update_invariant(
      [&] {
        return kary_sequence_flow(3, TreeMode::kDirected,
                                  &KaryTree::rank_count, qs);
      },
      4);
}

TEST(UpdateWarmColdOracle, Alg3GeneratedWeightAndChurnSequence) {
  auto qs = make_queries(256);
  util::Rng rng(82);
  for (auto& q : qs) {
    q.key[0] = rng.uniform_range(-3, 480);
    q.key[1] = q.key[0] + rng.uniform_range(0, 40);
  }
  expect_update_invariant(
      [&] {
        return kary_sequence_flow(2, TreeMode::kUndirected,
                                  &KaryTree::euler_scan, qs);
      },
      4);
}

// Warm == cold over a generated interval-tree sequence: payload-only
// batches refresh incrementally, chain overflows take the full re-setup
// with fresh splittings, and every batch the warm engine serves matches a
// cold engine over the same tree.
RunRecord interval_sequence_flow(const std::vector<Query>& qs) {
  util::Rng rng(90);
  IntervalTree t(demo_intervals(), /*chain_slack=*/2);
  const std::size_t slack = 2;
  const std::size_t base = t.interval_count();
  std::size_t built_count = base;
  std::int32_t next_id = 1000;
  // Headroom in the mesh: overflow batches grow the graph.
  const auto shape = t.graph().shape_for(4 * t.graph().vertex_count());
  std::pair<Splitting, Splitting> psi = t.alpha_beta_splittings();
  using Prog = decltype(t.stabbing_program());
  const auto make = [&](const mesh::CostModel& m) {
    return std::make_unique<PreparedSearch<Prog>>(
        EngineKind::kAlg3AlphaBeta, t.graph(), psi.first, psi.second,
        t.stabbing_program(), m, shape);
  };
  trace::TraceRecorder rec("counting");
  mesh::CostModel m;
  m.trace = &rec;
  auto warm_engine = make(m);
  RunRecord r;
  for (int step = 0; step < 2 * kIntervalBatchKinds; ++step) {
    SCOPED_TRACE("batch " + std::to_string(step));
    const IntervalBatch b = make_interval_batch(
        t, static_cast<IntervalBatchKind>(step % kIntervalBatchKinds),
        built_count + slack, base, next_id, rng);
    RefreshRequest req;
    req.delta = t.apply_updates(b.ins, b.dels);
    if (req.delta.topology_changed) {
      built_count = t.interval_count();
      psi = t.alpha_beta_splittings();
      req.has_splittings = true;
      req.psi_a = psi.first;
      req.psi_b = psi.second;
    }
    const RefreshReport rrep = warm_engine->refresh(req);
    EXPECT_EQ(rrep.incremental, !req.delta.topology_changed);
    serve_warm_cold_sequential(
        *warm_engine, make,
        [&](std::vector<Query>& seq) {
          sequential_multisearch(t.graph(), t.stabbing_program(), seq);
        },
        qs, rrep, r);
  }
  r.counters = rec.counters();
  return r;
}

TEST(UpdateWarmColdOracle, Alg3GeneratedIntervalTreeSequence) {
  const auto qs = stab_queries(256, -50, 1100, 91);
  expect_update_invariant([&] { return interval_sequence_flow(qs); }, 4);
}

// ---------------------------------------------------------------------------
// Fault injection on the rebuild phase (satellite 3): retries recharge and
// back off; an exhausted budget leaves the engine safely stale.
// ---------------------------------------------------------------------------

TEST(UpdateFaultRebuild, ArmedPlanRetriesAndExhaustionLeavesEngineStale) {
  KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());

  // Fault-free reference refresh cost.
  const mesh::CostModel quiet;
  PreparedSearch ref(EngineKind::kAlg2Alpha, tree.graph(),
                     tree.alpha_splitting(), tree.alpha_splitting(),
                     tree.rank_count(), quiet, shape);
  RefreshRequest req;
  req.delta = tree.apply_updates({ds::WeightedKey{500, 2}}, {});
  const RefreshReport clean = ref.refresh(req);
  EXPECT_TRUE(clean.incremental);

  // Armed plan: the rebuild phase fails some attempts, each failed attempt
  // re-charges and backs off, so the faulted refresh costs strictly more.
  mesh::FaultConfig cfg;
  cfg.seed = 5;
  cfg.p_phase = 0.9;
  mesh::FaultPlan plan(cfg);
  mesh::CostModel m;
  m.fault = &plan;
  PreparedSearch eng(EngineKind::kAlg2Alpha, tree.graph(),
                     tree.alpha_splitting(), tree.alpha_splitting(),
                     tree.rank_count(), m, shape);
  req.delta = tree.apply_updates({ds::WeightedKey{501, 2}}, {});
  EXPECT_TRUE(eng.stale());
  const RefreshReport faulted = eng.refresh(req);
  EXPECT_TRUE(faulted.incremental);
  EXPECT_FALSE(eng.stale());
  EXPECT_GT(plan.stats().phase_failures, 0u);
  EXPECT_GT(faulted.cost.steps, clean.cost.steps);

  // Exhaustion: every attempt fails -> FaultExhaustedError, the engine is
  // STILL stale (the gate stays shut), and a fault-free retry heals it.
  mesh::FaultConfig fatal;
  fatal.seed = 6;
  fatal.p_phase = 1.0;
  fatal.max_retries = 2;
  mesh::FaultPlan fatal_plan(fatal);
  m.fault = &fatal_plan;
  req.delta = tree.apply_updates({ds::WeightedKey{502, 2}}, {});
  EXPECT_THROW(eng.refresh(req), mesh::FaultExhaustedError);
  EXPECT_TRUE(eng.stale());
  auto batch = rank_queries(64, 520, 44);
  EXPECT_THROW(eng.run_batch(batch), StaleEngineError);
  m.fault = nullptr;
  const RefreshReport healed = eng.refresh(req);
  EXPECT_TRUE(healed.incremental);
  EXPECT_FALSE(eng.stale());
  auto served = rank_queries(64, 520, 44);
  auto expect = served;
  eng.run_batch(served);
  sequential_multisearch(tree.graph(), tree.rank_count(), expect);
  EXPECT_EQ(diff_outcomes(outcomes(served), outcomes(expect)), "");
}

// ---------------------------------------------------------------------------
// Mixed read/write tenant streams through the service layer.
// ---------------------------------------------------------------------------

TEST(ServiceUpdates, MixedReadWriteStreamAppliesUpdateBetweenWaves) {
  KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const std::size_t cap = shape.size();
  const mesh::CostModel m;
  auto engine = service::make_partitioned_engine(
      EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
      tree.alpha_splitting(), tree.rank_count(), m, shape);

  trace::TraceRecorder rec("counting");
  service::ServiceScheduler svc({}, &rec);
  service::TenantQuota quota;
  quota.max_outstanding = 8 * cap;
  service::TenantSession& t = svc.add_tenant("acme", *engine, quota);

  // Wave 1 reads the original structure: pin its oracle BEFORE the update
  // can run.
  const auto wave1 = rank_queries(cap + 9, 520, 81);
  auto expect1 = wave1;
  sequential_multisearch(tree.graph(), tree.rank_count(), expect1);
  const service::Submission s1 = t.submit(wave1);

  // The write, then wave 2, which must see the mutated structure.
  const std::size_t uidx = t.submit_update([&tree] {
    RefreshRequest req;
    req.delta = tree.apply_updates({ds::WeightedKey{500, 7}},
                                   {std::int64_t{13}});
    return req;
  });
  EXPECT_EQ(uidx, 0u);
  EXPECT_EQ(t.pending_updates(), 1u);
  const auto wave2 = rank_queries(cap / 2, 800, 82);
  const service::Submission s2 = t.submit(wave2);
  EXPECT_THROW(t.submit_update(service::UpdateFn{}), InvalidInputError);

  svc.run_until_idle();
  EXPECT_TRUE(svc.idle());
  EXPECT_EQ(t.pending_updates(), 0u);
  EXPECT_EQ(t.updates_applied(), 1u);

  // Wave 1 was answered by the pre-update structure, wave 2 by the
  // post-update one.
  auto expect2 = wave2;
  sequential_multisearch(tree.graph(), tree.rank_count(), expect2);
  std::vector<Query> got1, got2;
  for (service::Ticket k = s1.first; k < s1.first + s1.count; ++k)
    got1.push_back(t.result(k));
  for (service::Ticket k = s2.first; k < s2.first + s2.count; ++k)
    got2.push_back(t.result(k));
  EXPECT_EQ(diff_outcomes(outcomes(got1), outcomes(expect1)), "");
  EXPECT_EQ(diff_outcomes(outcomes(got2), outcomes(expect2)), "");

  // The refresh was charged to the tenant on the virtual clock, and the
  // report carries the update accounting.
  const service::TenantReport rep = t.report();
  EXPECT_EQ(rep.updates_submitted, 1u);
  EXPECT_EQ(rep.updates_applied, 1u);
  EXPECT_EQ(rep.incremental_refreshes, 1u);
  EXPECT_EQ(rep.full_refreshes, 0u);
  EXPECT_GT(rep.refresh.steps, 0.0);
  EXPECT_DOUBLE_EQ(svc.now_steps(), rep.charged().steps);
  svc.export_metrics();
  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  EXPECT_EQ(metrics.at("tenant.acme.updates_applied"), 1.0);
  EXPECT_EQ(metrics.at("tenant.acme.incremental_refreshes"), 1.0);
  EXPECT_GT(metrics.at("tenant.acme.refresh_steps"), 0.0);
}

// Regression: the tenant used to keep every UpdateFn, and everything it
// captured, for its whole life. An applied update now leaves the queue.
TEST(ServiceUpdates, AppliedUpdateReleasesItsCallable) {
  KaryTree tree(ds::iota_keys(200), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const std::size_t cap = shape.size();
  const mesh::CostModel m;
  auto engine = service::make_partitioned_engine(
      EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
      tree.alpha_splitting(), tree.rank_count(), m, shape);
  trace::TraceRecorder rec("counting");
  service::ServiceScheduler svc({}, &rec);
  service::TenantQuota quota;
  quota.max_outstanding = 8 * cap;
  service::TenantSession& t = svc.add_tenant("acme", *engine, quota);

  const auto payload = std::make_shared<int>(0);
  const auto update = [&](std::int64_t key) {
    return [&tree, payload, key] {
      RefreshRequest req;
      req.delta = tree.apply_updates({ds::WeightedKey{key, 7}}, {});
      return req;
    };
  };
  t.submit(rank_queries(cap + 9, 520, 91));
  EXPECT_EQ(t.submit_update(update(500)), 0u);
  t.submit(rank_queries(cap / 2, 800, 92));
  EXPECT_EQ(t.submit_update(update(600)), 1u);
  EXPECT_EQ(t.pending_updates(), 2u);
  EXPECT_EQ(payload.use_count(), 3);  // ours plus one per queued update

  svc.run_until_idle();
  EXPECT_EQ(t.pending_updates(), 0u);
  EXPECT_EQ(payload.use_count(), 1) << "an applied UpdateFn is still held";
  const service::TenantReport rep = t.report();
  EXPECT_EQ(rep.updates_submitted, 2u);
  EXPECT_EQ(rep.updates_applied, 2u);
  svc.export_metrics();
  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  EXPECT_EQ(metrics.at("tenant.acme.updates_submitted"), 2.0);
  EXPECT_EQ(metrics.at("tenant.acme.updates_applied"), 2.0);
}

TEST(ServiceUpdates, OutOfBandMutationSurfacesStaleEngineErrorFromPump) {
  KaryTree tree(ds::iota_keys(100), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const mesh::CostModel m;
  auto engine = service::make_partitioned_engine(
      EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
      tree.alpha_splitting(), tree.rank_count(), m, shape);
  service::ServiceScheduler svc;
  service::TenantQuota quota;
  quota.max_outstanding = 4 * shape.size();
  service::TenantSession& t = svc.add_tenant("acme", *engine, quota);
  const auto queries = rank_queries(shape.size() / 2, 120, 83);
  const service::Submission s = t.submit(queries);
  // Mutating the structure WITHOUT submit_update: the service refuses to
  // serve the stale engine rather than answering from a structure the
  // engine never distributed.
  tree.apply_updates({ds::WeightedKey{700, 1}}, {});
  EXPECT_THROW(svc.run_until_idle(), StaleEngineError);
  // The throw loses no ticket: the slice went back on the tenant's queue,
  // so once the engine is refreshed every query is served, and answered
  // from the mutated structure.
  RefreshRequest req;
  req.force_full = true;
  engine->refresh(req);
  svc.run_until_idle();
  EXPECT_EQ(t.outstanding(), 0u);
  auto expect = queries;
  sequential_multisearch(tree.graph(), tree.rank_count(), expect);
  std::vector<Query> got;
  for (service::Ticket k = s.first; k < s.first + s.count; ++k)
    got.push_back(t.result(k));
  EXPECT_EQ(diff_outcomes(outcomes(got), outcomes(expect)), "");
}

TEST(ServiceUpdates, FaultExhaustedRefreshDegradesAndStillApplies) {
  KaryTree tree(ds::iota_keys(100), 3, TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const mesh::CostModel m;
  auto engine = service::make_partitioned_engine(
      EngineKind::kAlg2Alpha, tree.graph(), tree.alpha_splitting(),
      tree.alpha_splitting(), tree.rank_count(), m, shape);
  trace::TraceRecorder rec("service");
  service::ServiceScheduler svc({}, &rec);
  service::TenantQuota quota;
  quota.max_outstanding = 4 * shape.size();
  service::TenantSession& t = svc.add_tenant("acme", *engine, quota);

  mesh::FaultConfig cfg;
  cfg.seed = 11;
  cfg.p_phase = 1.0;  // the rebuild phase can never succeed under this plan
  cfg.max_retries = 2;
  mesh::FaultPlan plan(cfg);
  t.set_fault(&plan);

  t.submit_update([&tree] {
    RefreshRequest req;
    req.delta = tree.apply_updates({ds::WeightedKey{700, 1}}, {});
    return req;
  });
  // The report's derived counts agree with what they are derived from
  // after every round.
  const auto pump_to_idle = [&] {
    while (!svc.idle()) {
      svc.pump();
      const service::TenantReport r = t.report();
      EXPECT_EQ(r.outstanding,
                r.submitted - r.completed - r.failed_queries - r.shed);
      EXPECT_EQ(t.outstanding(), r.outstanding);
      EXPECT_EQ(r.updates_applied,
                r.incremental_refreshes + r.full_refreshes);
      EXPECT_EQ(t.updates_applied(), r.updates_applied);
    }
  };
  pump_to_idle();  // must terminate: degraded, then applied fault-free
  EXPECT_EQ(t.updates_applied(), 1u);
  const service::TenantReport rep = t.report();
  EXPECT_EQ(rep.degraded_refreshes, 1u);
  EXPECT_EQ(rep.incremental_refreshes, 1u);
  // The count's one exported view is its gauge.
  svc.export_metrics();
  std::map<std::string, double> metrics;
  for (const auto& mt : rec.stats().snapshot().gauges)
    metrics[mt.name] = mt.value;
  ASSERT_EQ(metrics.count("tenant.acme.degraded_refreshes"), 1u);
  EXPECT_EQ(metrics.at("tenant.acme.degraded_refreshes"), 1.0);

  // And the engine serves the mutated structure correctly afterwards.
  t.set_fault(nullptr);
  auto served = rank_queries(shape.size() / 2, 800, 84);
  const service::Submission sub = t.submit(served);
  pump_to_idle();
  auto expect = served;
  sequential_multisearch(tree.graph(), tree.rank_count(), expect);
  std::vector<Query> got;
  for (service::Ticket k = sub.first; k < sub.first + sub.count; ++k)
    got.push_back(t.result(k));
  EXPECT_EQ(diff_outcomes(outcomes(got), outcomes(expect)), "");
}

}  // namespace
