// Front-door validation (multisearch/validate.hpp), the typed error
// taxonomy (util/error.hpp), and paranoid mode. Contract: malformed input
// given to any public entry point throws InvalidInputError / CapacityError
// BEFORE any phase is charged — never a deep MS_CHECK — and degenerate but
// legal input (empty batch, single-vertex DAG, 1x1 mesh, duplicate interval
// endpoints) is handled, not rejected.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "datastruct/interval_tree.hpp"
#include "datastruct/kary_tree.hpp"
#include "datastruct/segment_tree.hpp"
#include "datastruct/twothree_tree.hpp"
#include "datastruct/workloads.hpp"
#include "geometry/hull3d.hpp"
#include "geometry/kirkpatrick.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/stream.hpp"
#include "multisearch/synchronous.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;

// ---------------------------------------------------------------------------
// Error taxonomy basics.
// ---------------------------------------------------------------------------

TEST(ErrorTaxonomy, WhatCarriesStructuredContext) {
  ErrorContext ctx;
  ctx.engine = "alg1-paper";
  ctx.phase = "phase.step2";
  ctx.site = "somewhere";
  ctx.band = 3;
  ctx.seed = 42;
  ctx.occurrence = 7;
  ctx.has_seed = true;
  const Error e("it broke", ctx);
  const std::string w = e.what();
  EXPECT_NE(w.find("it broke"), std::string::npos);
  EXPECT_NE(w.find("engine=alg1-paper"), std::string::npos);
  EXPECT_NE(w.find("phase=phase.step2"), std::string::npos);
  EXPECT_NE(w.find("band=3"), std::string::npos);
  EXPECT_NE(w.find("seed=42"), std::string::npos);
  EXPECT_NE(w.find("occurrence=7"), std::string::npos);
  EXPECT_EQ(e.message(), "it broke");
  EXPECT_EQ(e.context().band, 3);
}

TEST(ErrorTaxonomy, SubclassesAreCatchableAsErrorAndLogicError) {
  // The compatibility contract: everything slots under std::logic_error.
  EXPECT_THROW(invalid_input("x", "here"), InvalidInputError);
  EXPECT_THROW(invalid_input("x", "here"), Error);
  EXPECT_THROW(invalid_input("x", "here"), std::logic_error);
  EXPECT_THROW(capacity_error("x", "here"), CapacityError);
  EXPECT_THROW(capacity_error("x", "here"), std::logic_error);
}

// ---------------------------------------------------------------------------
// Graph / splitting / shape validators.
// ---------------------------------------------------------------------------

TEST(Validate, DuplicateEdgeRejected) {
  DistributedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(0, 1);  // parallel edge: legal to build, invalid to run
  g.add_edge(1, 2);
  EXPECT_THROW(validate_graph(g, "test"), InvalidInputError);
}

TEST(Validate, CleanGraphPasses) {
  DistributedGraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_NO_THROW(validate_graph(g, "test"));
}

TEST(Validate, SplittingSizeMismatchRejected) {
  DistributedGraph g(4);
  Splitting s;
  s.piece = {0, 0, 1};  // one short
  s.kind = {PieceKind::kHead, PieceKind::kTail};
  EXPECT_THROW(validate_splitting_input(g, s, "test"), InvalidInputError);
}

TEST(Validate, GraphLargerThanMeshIsCapacityError) {
  DistributedGraph g(5);
  EXPECT_THROW(validate_graph_fits(g, mesh::MeshShape(2), "test"),
               CapacityError);
  EXPECT_NO_THROW(validate_graph_fits(g, mesh::MeshShape(4), "test"));
}

TEST(Validate, OversizedBatchIsCapacityError) {
  EXPECT_THROW(validate_batch_size(17, 16, "test"), CapacityError);
  EXPECT_NO_THROW(validate_batch_size(16, 16, "test"));
  EXPECT_NO_THROW(validate_batch_size(0, 16, "test"));
}

TEST(Validate, HierarchicalLevelGapRejected) {
  // 0 -> 2 skips a level; also leaves level 1 empty.
  DistributedGraph g(3);
  g.vert(0).level = 0;
  g.vert(1).level = 0;
  g.vert(2).level = 2;
  g.add_edge(0, 2);
  EXPECT_THROW(HierarchicalDag(g, 2.0), InvalidInputError);
}

TEST(Validate, HierarchicalMuAtMostOneRejected) {
  DistributedGraph g(2);
  g.vert(0).level = 0;
  g.vert(1).level = 1;
  g.add_edge(0, 1);
  EXPECT_THROW(HierarchicalDag(g, 1.0), InvalidInputError);
  EXPECT_NO_THROW(HierarchicalDag(g, 2.0));
}

// ---------------------------------------------------------------------------
// Data-structure builders.
// ---------------------------------------------------------------------------

TEST(Validate, KaryTreeBadFanOutRejected) {
  EXPECT_THROW(ds::KaryTree(ds::iota_keys(8), 7, ds::TreeMode::kDirected),
               InvalidInputError);
  EXPECT_THROW(ds::KaryTree(ds::iota_keys(8), 1, ds::TreeMode::kDirected),
               InvalidInputError);
}

TEST(Validate, KaryTreeUnsortedKeysRejected) {
  auto keys = ds::iota_keys(8);
  std::swap(keys[2], keys[5]);
  EXPECT_THROW(ds::KaryTree(std::move(keys), 2, ds::TreeMode::kDirected),
               InvalidInputError);
}

TEST(Validate, IntervalTreeInvertedIntervalRejected) {
  EXPECT_THROW(ds::IntervalTree({{10, 4, 0}}), InvalidInputError);
  EXPECT_THROW(ds::IntervalTree({}), InvalidInputError);
}

TEST(Validate, IntervalTreeDuplicateEndpointsHandled) {
  // Duplicate and degenerate endpoints are legal — distinct-endpoint
  // compaction inside the builder must absorb them, not trip a check.
  EXPECT_NO_THROW(ds::IntervalTree({{5, 5, 0}, {5, 5, 1}, {5, 9, 2}, {9, 9, 3}}));
}

TEST(Validate, SegmentTreeBuilderUsesTheFrontDoor) {
  // Same taxonomy as the other builders: InvalidInputError before any
  // construction work, never a deep MS_CHECK.
  EXPECT_THROW(ds::SegmentTree({}), InvalidInputError);
  EXPECT_THROW(ds::SegmentTree({{1, 5, 0}, {10, 4, 1}}), InvalidInputError);
  try {
    ds::SegmentTree({{1, 5, 0}, {10, 4, 1}});
    FAIL() << "inverted interval accepted";
  } catch (const InvalidInputError& e) {
    EXPECT_EQ(e.context().site, "segment-tree");
    EXPECT_NE(std::string(e.what()).find("lo > hi"), std::string::npos);
  }
  EXPECT_NO_THROW(ds::SegmentTree({{5, 5, 0}, {1, 9, 1}}));
}

TEST(Validate, TwoThreeTreeBuilderUsesTheFrontDoor) {
  EXPECT_THROW(ds::TwoThreeTree({}), InvalidInputError);
  EXPECT_THROW(ds::TwoThreeTree({3, 1, 2}), InvalidInputError);   // unsorted
  EXPECT_THROW(ds::TwoThreeTree({1, 2, 2, 3}), InvalidInputError);  // dup
  try {
    ds::TwoThreeTree({1, 2, 2, 3});
    FAIL() << "duplicate key accepted";
  } catch (const InvalidInputError& e) {
    EXPECT_EQ(e.context().site, "twothree-tree");
    EXPECT_NE(std::string(e.what()).find("index 2"), std::string::npos);
  }
  EXPECT_NO_THROW(ds::TwoThreeTree({1, 2, 3, 10}));
}

// ---------------------------------------------------------------------------
// Geometry builders.
// ---------------------------------------------------------------------------

TEST(Validate, DuplicatePointsRejected) {
  const std::vector<geom::Point2> pts = {{0, 0}, {5, 1}, {2, 7}, {5, 1}};
  EXPECT_THROW(validate_points_distinct(pts, "test"), InvalidInputError);
  EXPECT_THROW(geom::Kirkpatrick(pts, 1 << 12), InvalidInputError);
}

TEST(Validate, Hull3DegenerateInputsRejected) {
  util::Rng rng(7);
  EXPECT_THROW(geom::convex_hull3({{0, 0, 0}, {1, 1, 1}, {2, 2, 2}}, rng),
               InvalidInputError);  // too few
  // All collinear.
  std::vector<geom::Point3> line;
  for (int i = 0; i < 6; ++i) line.push_back({i, i, i});
  EXPECT_THROW(geom::convex_hull3(line, rng), InvalidInputError);
  // All coplanar (z = 0).
  std::vector<geom::Point3> plane = {{0, 0, 0}, {4, 0, 0}, {0, 4, 0},
                                     {4, 4, 0}, {1, 2, 0}};
  EXPECT_THROW(geom::convex_hull3(plane, rng), InvalidInputError);
}

// ---------------------------------------------------------------------------
// Degenerate-but-legal inputs at the engine entry points.
// ---------------------------------------------------------------------------

struct TinyDag {
  DistributedGraph g;
  explicit TinyDag(std::size_t verts = 1) : g(verts) {
    for (std::size_t i = 0; i < verts; ++i)
      g.vert(static_cast<Vid>(i)).level = static_cast<std::int32_t>(i);
    for (std::size_t i = 0; i + 1 < verts; ++i)
      g.add_edge(static_cast<Vid>(i), static_cast<Vid>(i + 1));
  }
};

TEST(Validate, EmptyQuerySetIsHandled) {
  const TinyDag t(4);
  const HierarchicalDag dag(t.g, 2.0);
  std::vector<Query> queries;  // empty batch: valid, nothing to do
  mesh::CostModel m;
  const auto shape = t.g.shape_for(0);
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
}

TEST(Validate, SingleVertexDagRuns) {
  const TinyDag t(1);
  const HierarchicalDag dag(t.g, 2.0);
  auto queries = make_queries(2);
  mesh::CostModel m;
  const auto shape = t.g.shape_for(queries.size());
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
  for (const auto& q : queries) EXPECT_TRUE(q.done);
}

TEST(Validate, OneByOneMeshRuns) {
  const TinyDag t(1);
  const HierarchicalDag dag(t.g, 2.0);
  auto queries = make_queries(1);
  mesh::CostModel m;
  const mesh::MeshShape shape(1);
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
}

TEST(Validate, EngineRejectsOversizedBatchBeforeRunning) {
  const TinyDag t(2);
  const HierarchicalDag dag(t.g, 2.0);
  auto queries = make_queries(10);
  mesh::CostModel m;
  const mesh::MeshShape shape(2);  // 4 processors < 10 queries
  EXPECT_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape),
      CapacityError);
}

TEST(Validate, SynchronousEngineValidatesToo) {
  const TinyDag t(2);
  auto queries = make_queries(10);
  mesh::CostModel m;
  EXPECT_THROW(synchronous_multisearch(t.g, ds::HashWalk{0}, queries, m,
                                       mesh::MeshShape(2)),
               CapacityError);
}

TEST(Validate, PreparedSearchRejectsWrongKind) {
  ds::KaryTree tree(ds::iota_keys(64), 2, ds::TreeMode::kDirected);
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  mesh::CostModel m;
  EXPECT_THROW(PreparedSearch(EngineKind::kAlg1Paper, tree.graph(),
                              tree.alpha_splitting(), tree.alpha_splitting(),
                              tree.rank_count(), m, shape),
               InvalidInputError);
}

// ---------------------------------------------------------------------------
// The one-shot front doors keep every structure check: a malformed graph,
// a malformed splitting or an oversized batch is rejected before anything
// is charged, although PreparedSearch skips these per batch.
// ---------------------------------------------------------------------------

/// Run `call` against a fresh recorder; it must throw `Err` having charged
/// nothing.
template <typename Err, typename Call>
void expect_throws_uncharged(Call call) {
  trace::TraceRecorder rec;
  mesh::CostModel m;
  m.trace = &rec;
  EXPECT_THROW(call(m), Err);
  EXPECT_EQ(rec.total_steps(), 0.0);
  EXPECT_TRUE(rec.counters().empty());
}

TEST(Validate, PartitionedFrontDoorRejectsBeforeAnyCharge) {
  ds::KaryTree tree(ds::iota_keys(64), 2, ds::TreeMode::kDirected);
  const Splitting psi = tree.alpha_splitting();
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  const auto run = [&](const DistributedGraph& g, const Splitting& a,
                       std::size_t batch, const mesh::CostModel& m) {
    auto qs = make_queries(batch);
    multisearch_partitioned(g, a, a, tree.rank_count(), qs, m, shape);
  };
  // Malformed graph: an out-of-range neighbour.
  DistributedGraph bad = tree.graph();
  bad.vert(0).nbr[0] = static_cast<Vid>(bad.vertex_count() + 5);
  expect_throws_uncharged<InvalidInputError>(
      [&](const mesh::CostModel& m) { run(bad, psi, 8, m); });
  // Malformed splitting: one piece id short.
  Splitting short_psi = psi;
  short_psi.piece.pop_back();
  expect_throws_uncharged<InvalidInputError>(
      [&](const mesh::CostModel& m) { run(tree.graph(), short_psi, 8, m); });
  // Oversized batch.
  expect_throws_uncharged<CapacityError>([&](const mesh::CostModel& m) {
    run(tree.graph(), psi, shape.size() + 1, m);
  });
}

TEST(Validate, ConstrainedFrontDoorRejectsBeforeAnyCharge) {
  ds::KaryTree tree(ds::iota_keys(64), 2, ds::TreeMode::kDirected);
  const Splitting psi = tree.alpha_splitting();
  const auto shape = tree.graph().shape_for(tree.graph().vertex_count());
  // Every query sits on a vertex, so a malformed piece id would be read.
  auto placed = make_queries(8);
  for (std::size_t i = 0; i < placed.size(); ++i)
    placed[i].key[0] = static_cast<std::int64_t>(8 * i);
  reset_queries(placed);
  global_multistep(tree.graph(), tree.rank_count(), placed);
  const auto run = [&](const Splitting& family, const mesh::CostModel& m) {
    auto qs = placed;
    return constrained_multisearch(tree.graph(), family, tree.rank_count(), qs,
                                   m, shape);
  };
  const auto expect_rejected = [&](const Splitting& family) {
    trace::TraceRecorder rec;
    mesh::CostModel m;
    m.trace = &rec;
    EXPECT_THROW(run(family, m), InvalidInputError);
    EXPECT_TRUE(rec.events().empty());
    EXPECT_TRUE(rec.spans().empty());
  };
  // A piece id past num_pieces() on the vertex the queries sit on.
  const Vid at = placed.front().current;
  Splitting past_end = psi;
  past_end.piece[static_cast<std::size_t>(at)] =
      static_cast<std::int32_t>(psi.num_pieces());
  expect_rejected(past_end);
  // A piece vector shorter than the vertex count.
  Splitting short_psi = psi;
  short_psi.piece.resize(psi.piece.size() / 2);
  expect_rejected(short_psi);
  // Id -1 stays legal: Psi is a family of pieces, not a partition.
  Splitting family = psi;
  family.piece[static_cast<std::size_t>(at)] = -1;
  const mesh::CostModel m;
  EXPECT_EQ(run(family, m).marked, 0u);
}

TEST(Validate, HierarchicalFrontDoorRejectsBeforeAnyCharge) {
  for (const PlanKind plan : {PlanKind::kPaper, PlanKind::kGeometric}) {
    TinyDag t(6);
    const HierarchicalDag dag(t.g, 2.0);
    const auto shape = t.g.shape_for(t.g.vertex_count());
    const auto run = [&](std::size_t batch, const mesh::CostModel& m) {
      auto qs = make_queries(batch);
      hierarchical_multisearch(dag, ds::HashWalk{0}, qs, m, shape, plan);
    };
    // Oversized batch on a valid DAG.
    expect_throws_uncharged<CapacityError>(
        [&](const mesh::CostModel& m) { run(shape.size() + 1, m); });
    // Malformed graph: a duplicate edge added after the DAG was built.
    t.g.add_edge(0, 1);
    expect_throws_uncharged<InvalidInputError>(
        [&](const mesh::CostModel& m) { run(4, m); });
  }
}

// ---------------------------------------------------------------------------
// Paranoid mode.
// ---------------------------------------------------------------------------

struct ParanoidGuard {
  explicit ParanoidGuard(int mode) { set_paranoid_override(mode); }
  ~ParanoidGuard() { set_paranoid_override(-1); }
};

TEST(Paranoid, OverrideControlsTheSwitch) {
  {
    const ParanoidGuard on(1);
    EXPECT_TRUE(paranoid_enabled());
  }
  {
    const ParanoidGuard off(0);
    EXPECT_FALSE(paranoid_enabled());
  }
}

TEST(Paranoid, CleanEngineRunPassesTheAudit) {
  const ParanoidGuard on(1);
  util::Rng rng(91);
  const auto g = ds::build_hierarchical_dag(600, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto queries = make_queries(64);
  util::Rng qrng(92);
  for (auto& q : queries)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  mesh::CostModel m;
  const auto shape = g.shape_for(queries.size());
  // A correct engine must sail through the shadow-oracle audit.
  EXPECT_NO_THROW(
      hierarchical_multisearch(dag, ds::HashWalk{0}, queries, m, shape));
}

/// Corrupt `g` in place WITHOUT a generation bump (an out-of-range
/// neighbour on the first vertex that has one) — the caller contract
/// violation the non-const DistributedGraph::vert() warns about.
void corrupt_in_place(DistributedGraph& g) {
  for (std::size_t v = 0; v < g.vertex_count(); ++v) {
    auto& rec = g.vert(static_cast<Vid>(v));
    if (rec.degree == 0) continue;
    rec.nbr[0] = static_cast<Vid>(g.vertex_count() + 7);
    return;
  }
  FAIL() << "graph has no edge to corrupt";
}

/// A warm engine whose graph was corrupted in place must, under paranoid
/// mode, reject its next batch as InvalidInputError with nothing charged.
template <SearchProgram P>
void expect_paranoid_rejects_corruption(PreparedSearch<P>& engine,
                                        mesh::CostModel& m,
                                        DistributedGraph& g) {
  auto ok = make_queries(8);
  EXPECT_NO_THROW(engine.run_batch(ok));
  const std::size_t served = engine.batches_served();
  corrupt_in_place(g);
  EXPECT_FALSE(engine.stale());  // the generation gate cannot see this
  trace::TraceRecorder rec;
  m.trace = &rec;
  auto batch = make_queries(8);
  EXPECT_THROW(engine.run_batch(batch), InvalidInputError);
  m.trace = nullptr;
  EXPECT_EQ(rec.total_steps(), 0.0);
  EXPECT_TRUE(rec.counters().empty());
  EXPECT_EQ(engine.batches_served(), served);
}

TEST(Paranoid, WarmEngineRevalidatesCorruptedStructurePerBatch) {
  const ParanoidGuard on(1);
  for (const PlanKind plan : {PlanKind::kPaper, PlanKind::kGeometric}) {
    util::Rng rng(93);
    auto g = ds::build_hierarchical_dag(600, 2.0, 3, rng);
    const HierarchicalDag dag(g, 2.0);
    mesh::CostModel m;
    PreparedSearch engine(dag, plan, ds::HashWalk{0}, m,
                          g.shape_for(g.vertex_count()));
    expect_paranoid_rejects_corruption(engine, m, g);
  }
  for (const EngineKind kind :
       {EngineKind::kAlg2Alpha, EngineKind::kAlg3AlphaBeta}) {
    const bool alg2 = kind == EngineKind::kAlg2Alpha;
    ds::KaryTree tree(ds::iota_keys(64), 2,
                      alg2 ? ds::TreeMode::kDirected
                           : ds::TreeMode::kUndirected);
    const auto [s1, s2] = alg2 ? std::pair{tree.alpha_splitting(),
                                           tree.alpha_splitting()}
                               : tree.alpha_beta_splittings();
    DistributedGraph g = tree.graph();  // a copy this test may corrupt
    mesh::CostModel m;
    const auto shape = g.shape_for(g.vertex_count());
    if (alg2) {
      PreparedSearch engine(kind, g, s1, s2, tree.rank_count(), m, shape);
      expect_paranoid_rejects_corruption(engine, m, g);
    } else {
      PreparedSearch engine(kind, g, s1, s2, tree.euler_scan(), m, shape);
      expect_paranoid_rejects_corruption(engine, m, g);
    }
  }
}

TEST(Paranoid, AuditDivergenceThrowsIntegrityError) {
  const QueryOutcome got{4, 31, 0, 7};
  const QueryOutcome want{4, 30, 0, 7};
  try {
    msearch::detail::paranoid_mismatch("test-engine", 3, got, want);
    FAIL() << "paranoid_mismatch returned";
  } catch (const IntegrityError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("query 3"), std::string::npos) << what;
    EXPECT_NE(what.find("acc0 31"), std::string::npos) << what;
    EXPECT_NE(what.find("acc0 30"), std::string::npos) << what;
  }
}

}  // namespace
