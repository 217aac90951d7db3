// Multisearch core tests: splittings, constrained multisearch (Lemma 3
// semantics), Algorithms 2/3 (Theorems 5/7) against the sequential oracle,
// and Algorithm 1 (Theorem 2) on hierarchical DAGs.
#include <gtest/gtest.h>

#include <cmath>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "util/stats.hpp"
#include "multisearch/constrained.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/setup.hpp"
#include "multisearch/synchronous.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::msearch;
using ds::KaryTree;
using ds::TreeMode;

// ---------------------------------------------------------------------------
// graph & query plumbing
// ---------------------------------------------------------------------------

TEST(Graph, BuildAndValidate) {
  DistributedGraph g(4);
  g.add_edge(0, 1);
  g.add_undirected_edge(1, 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_EQ(g.size(), 4u + 3u);
  EXPECT_EQ(g.max_degree(), 1u);  // 0->1, 1->2, 2->1: one out-edge each
  g.validate();
}

TEST(Graph, RejectsSelfLoopAndRange) {
  DistributedGraph g(2);
  EXPECT_THROW(g.add_edge(0, 0), std::logic_error);
  EXPECT_THROW(g.add_edge(0, 5), std::logic_error);
}

TEST(Graph, ShapeForCoversVerticesAndQueries) {
  DistributedGraph g(100);
  EXPECT_GE(g.shape_for(50).size(), 100u);
  EXPECT_GE(g.shape_for(300).size(), 300u);
}

TEST(Queries, OutcomeDiffReportsFirstMismatch) {
  auto a = make_queries(2);
  auto b = make_queries(2);
  a[1].acc0 = 5;
  const auto d = diff_outcomes(outcomes(a), outcomes(b));
  EXPECT_NE(d.find("query 1"), std::string::npos);
  EXPECT_EQ(diff_outcomes(outcomes(a), outcomes(a)), "");
}

// ---------------------------------------------------------------------------
// visit prefetch footprint
// ---------------------------------------------------------------------------

// A program that declares kReadsHeaderOnly gets only its record's first 64
// bytes prefetched, so its next() must not read key[]: scrambling every
// record's payload must leave its outcomes unchanged. Programs that read
// key[] take the whole-record default.
static_assert(visit_bytes<ds::HashWalk> == kRecordHeaderBytes);
static_assert(visit_bytes<ds::PartitionableWalk> == kRecordHeaderBytes);
static_assert(visit_bytes<KaryTree::EulerScan> == sizeof(VertexRecord));
static_assert(visit_bytes<KaryTree::RankCount> == sizeof(VertexRecord));

void scramble_keys(DistributedGraph& g, std::uint64_t seed) {
  util::Rng rng(seed);
  for (std::size_t v = 0; v < g.vertex_count(); ++v)
    for (auto& k : g.vert(static_cast<Vid>(v)).key)
      k = static_cast<std::int64_t>(rng());
}

TEST(VisitPrefetch, HashWalkIgnoresRecordKeys) {
  util::Rng rng(41);
  auto g = ds::build_hierarchical_dag(3000, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  auto plain = qs;
  hierarchical_multisearch(dag, ds::HashWalk{0}, plain, m, shape);
  scramble_keys(g, 42);
  auto scrambled = qs;
  hierarchical_multisearch(dag, ds::HashWalk{0}, scrambled, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(plain), outcomes(scrambled)), "");
}

TEST(VisitPrefetch, PartitionableWalkIgnoresRecordKeys) {
  util::Rng rng(43);
  auto inst = ds::build_random_partitionable(4, 12, 40, 3, rng);
  const ds::PartitionableWalk prog{&inst};
  auto qs = make_queries(inst.graph.vertex_count());
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  const mesh::CostModel m;
  const auto shape = inst.graph.shape_for(qs.size());
  auto plain = qs;
  multisearch_alpha(inst.graph, inst.splitting, prog, plain, m, shape);
  scramble_keys(inst.graph, 44);
  auto scrambled = qs;
  multisearch_alpha(inst.graph, inst.splitting, prog, scrambled, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(plain), outcomes(scrambled)), "");
}

// ---------------------------------------------------------------------------
// splittings
// ---------------------------------------------------------------------------

TEST(Splitting, KaryAlphaSplittingIsValid) {
  KaryTree tree(ds::iota_keys(200), 2, TreeMode::kDirected);
  const auto s = tree.alpha_splitting();
  validate_alpha_splitting(tree.graph(), s);
  // Piece sizes near sqrt(n): delta around 1/2 for a binary tree.
  EXPECT_GT(s.delta, 0.3);
  EXPECT_LT(s.delta, 0.8);
}

TEST(Splitting, KaryAlphaBetaBordersFarApart) {
  KaryTree tree(ds::iota_keys(512), 2, TreeMode::kUndirected);
  const auto [s1, s2] = tree.alpha_beta_splittings();
  validate_splitting(tree.graph(), s1);
  validate_splitting(tree.graph(), s2);
  const auto dist = border_distance(tree.graph(), s1, s2, 64);
  EXPECT_GE(dist, 1u);  // Theta(h/6) for the Figure-3 construction
}

TEST(Splitting, BorderVerticesAreEndpointsOfCrossEdges) {
  KaryTree tree(ds::iota_keys(64), 2, TreeMode::kUndirected);
  const auto [s1, s2] = tree.alpha_beta_splittings();
  for (const Vid v : border_vertices(tree.graph(), s1)) {
    const auto& rec = tree.graph().vert(v);
    bool crosses = false;
    for (std::uint8_t d = 0; d < rec.degree; ++d)
      crosses |= s1.piece[static_cast<std::size_t>(rec.nbr[d])] !=
                 s1.piece[static_cast<std::size_t>(v)];
    EXPECT_TRUE(crosses);
  }
}

TEST(Splitting, NormalizeRespectsCapAndKind) {
  Splitting s;
  s.piece = {0, 0, 1, 2, 3, 3, 4, 5};
  s.kind = {PieceKind::kHead, PieceKind::kTail, PieceKind::kTail,
            PieceKind::kHead, PieceKind::kTail, PieceKind::kTail};
  s.delta = 0.5;
  const auto norm = normalize_splitting(s, 3);
  // Every group <= 3 vertices and single-kind.
  const auto sizes = piece_sizes(norm);
  for (std::size_t pc = 0; pc < sizes.size(); ++pc) EXPECT_LE(sizes[pc], 3u);
  for (std::size_t v = 0; v < s.piece.size(); ++v) {
    const auto orig_kind = s.kind[static_cast<std::size_t>(s.piece[v])];
    const auto new_kind = norm.kind[static_cast<std::size_t>(norm.piece[v])];
    EXPECT_EQ(static_cast<int>(orig_kind), static_cast<int>(new_kind));
  }
  // Fewer groups than pieces (merging happened).
  EXPECT_LT(norm.num_pieces(), s.num_pieces());
}

TEST(Splitting, CombIsAlphaPartitionable) {
  const auto comb = ds::build_comb(16, 32);
  validate_alpha_splitting(comb.graph, comb.splitting);
}

// ---------------------------------------------------------------------------
// sequential + synchronous baselines agree
// ---------------------------------------------------------------------------

TEST(Baselines, PredecessorSearchOracle) {
  const auto keys = ds::iota_keys(100);
  KaryTree tree(keys, 3, TreeMode::kDirected);
  util::Rng rng(1);
  auto qs = ds::uniform_key_queries(64, 130, rng);
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.predecessor_search(), qseq);
  // Manual check of predecessor semantics against the key set.
  for (const auto& q : qseq) {
    const std::int64_t x = q.key[0];
    const std::int64_t expect =
        x >= 99 ? 99 : (x < 0 ? std::numeric_limits<std::int64_t>::min() : x);
    EXPECT_EQ(q.acc0, expect) << "x=" << x;
  }
  // Synchronous baseline must agree with sequential.
  auto qsync = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qsync.size());
  reset_queries(qsync);
  synchronous_multisearch(tree.graph(), tree.predecessor_search(), qsync, m,
                          shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qsync)), "");
}

TEST(Baselines, SynchronousCostIsRTimesSqrtN) {
  const auto comb = ds::build_comb(8, 64);
  auto qs = make_queries(32);
  util::Rng rng(2);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
    q.key[1] = 40;  // tooth steps
  }
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  reset_queries(qs);
  const auto res =
      synchronous_multisearch(comb.graph, ds::CombWalk{comb.root}, qs, m, shape);
  const std::int32_t r = max_steps(qs);
  EXPECT_EQ(res.multisteps, static_cast<std::size_t>(r));
  const double per_step = m.rar(static_cast<double>(shape.size())).steps +
                          m.broadcast(static_cast<double>(shape.size())).steps;
  EXPECT_NEAR(res.cost.steps, r * per_step, 1e-9);
}

// ---------------------------------------------------------------------------
// constrained multisearch (Lemma 3)
// ---------------------------------------------------------------------------

TEST(Constrained, AdvancesWithinPieceOnly) {
  // Comb: teeth are pieces. A query inside a tooth advances along it but
  // never exits through the splitter (there are no exit edges anyway);
  // a query at a spine node whose next hop is a tooth must NOT take it.
  const auto comb = ds::build_comb(4, 100);
  auto qs = make_queries(4);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(q.qid);
    q.key[1] = 100;
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  // Advance every query to its spine leaf (the last spine node): height+1
  // steps from the root.
  for (std::int32_t i = 0; i <= comb.spine_height; ++i)
    global_multistep(comb.graph, prog, qs);
  for (const auto& q : qs)
    ASSERT_EQ(comb.graph.vert(q.current).key[6], std::int64_t{1});
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  auto before = qs;
  const auto st = constrained_multisearch(comb.graph, comb.splitting, prog, qs,
                                          m, shape);
  // All queries sit in the spine (head) piece; their next hop crosses into a
  // tooth, so nobody may advance.
  EXPECT_EQ(st.advanced, 0u);
  for (std::size_t i = 0; i < qs.size(); ++i)
    EXPECT_EQ(qs[i].current, before[i].current);
  // Now take one global step into the teeth and run constrained again: every
  // query advances up to log2(n) steps, all inside its tooth.
  global_multistep(comb.graph, prog, qs);
  std::vector<std::int32_t> piece_before;
  for (const auto& q : qs)
    piece_before.push_back(
        comb.splitting.piece[static_cast<std::size_t>(q.current)]);
  const auto st2 = constrained_multisearch(comb.graph, comb.splitting, prog,
                                           qs, m, shape);
  const auto max_rounds = static_cast<std::size_t>(
      std::floor(std::log2(static_cast<double>(shape.size()))));
  EXPECT_GT(st2.advanced, 0u);
  EXPECT_LE(st2.rounds, max_rounds);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_GT(qs[i].steps, before[i].steps + 1);
    EXPECT_EQ(comb.splitting.piece[static_cast<std::size_t>(qs[i].current)],
              piece_before[i]);
  }
}

TEST(Constrained, StepBudgetIsLog2N) {
  const auto comb = ds::build_comb(2, 4000);  // teeth longer than log2 n
  auto qs = make_queries(2);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(q.qid);
    q.key[1] = 4000;
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  for (std::int32_t i = 0; i <= comb.spine_height + 1; ++i)
    global_multistep(comb.graph, prog, qs);
  const auto steps_before = qs[0].steps;
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  const auto st =
      constrained_multisearch(comb.graph, comb.splitting, prog, qs, m, shape);
  const auto budget = static_cast<std::int32_t>(
      std::floor(std::log2(static_cast<double>(shape.size()))));
  EXPECT_LE(qs[0].steps - steps_before, budget);
  EXPECT_EQ(st.rounds, static_cast<std::size_t>(budget));
}

TEST(Constrained, EmptyMarkSetExitsEarly) {
  const auto comb = ds::build_comb(4, 8);
  auto qs = make_queries(4);
  reset_queries(qs);
  for (auto& q : qs) q.done = true;
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  const auto st = constrained_multisearch(comb.graph, comb.splitting,
                                          ds::CombWalk{comb.root}, qs, m, shape);
  EXPECT_EQ(st.marked, 0u);
  EXPECT_EQ(st.copies, 0u);
  // Exit after steps 1-3 only.
  const double p = static_cast<double>(shape.size());
  EXPECT_NEAR(st.cost.steps,
              m.rar(p).steps + m.raw(p).steps + m.scan(p).steps +
                  m.reduce(p).steps,
              1e-9);
}

TEST(Constrained, CopiesMatchGammaFormula) {
  // Point congestion: all queries in one tooth => gamma = ceil(q / cap).
  const auto comb = ds::build_comb(4, 64);
  const std::size_t m_queries = 256;
  auto qs = make_queries(m_queries);
  for (auto& q : qs) {
    q.key[0] = 7;  // same key => same tooth
    q.key[1] = 64;
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  for (std::int32_t i = 0; i <= comb.spine_height + 1; ++i)
    global_multistep(comb.graph, prog, qs);
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qs.size());
  auto psi = comb.splitting;
  const auto st = constrained_multisearch(comb.graph, psi, prog, qs, m, shape);
  const std::size_t cap = std::max<std::size_t>(
      static_cast<std::size_t>(std::ceil(
          std::pow(static_cast<double>(shape.size()), psi.delta))),
      max_piece_size(psi));
  EXPECT_EQ(st.copies, (m_queries + cap - 1) / cap);
}

// Step-6 pins. Each case runs one Constrained-Multisearch call at 1 and at 4
// pool threads; both runs must agree field for field and match the literals,
// which were recorded with the copy-by-copy round loop step 6 used to run.
struct Step6Run {
  ConstrainedStats st;
  std::vector<Query> qs;
};

// Queries parked on the first vertex of a comb tooth: the spine descent,
// then one global step into the tooth. key[0] picks the tooth and key[1]
// the tooth-step budget, so a query makes key[1] - 1 more visits before its
// path ends.
std::vector<Query> parked_in_teeth(const ds::CombGraph& comb,
                                   const std::vector<std::int64_t>& budgets,
                                   std::int64_t tooth_key = -1) {
  auto qs = make_queries(budgets.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    qs[i].key[0] = tooth_key >= 0 ? tooth_key : static_cast<std::int64_t>(i);
    qs[i].key[1] = budgets[i];
  }
  reset_queries(qs);
  const ds::CombWalk prog{comb.root};
  for (std::int32_t i = 0; i <= comb.spine_height + 1; ++i)
    global_multistep(comb.graph, prog, qs);
  return qs;
}

Step6Run run_step6(const ds::CombGraph& comb, const std::vector<Query>& start,
                   bool duplicate_copies, unsigned threads) {
  util::ThreadPool::set_global_threads(threads);
  Step6Run run{{}, start};
  const auto shape = comb.graph.shape_for(start.size());
  run.st = constrained_multisearch(comb.graph, comb.splitting,
                                   ds::CombWalk{comb.root}, run.qs,
                                   mesh::CostModel{}, shape, duplicate_copies);
  util::ThreadPool::set_global_threads(0);
  return run;
}

// Both thread counts agree on every query field the pass writes.
void expect_same_runs(const Step6Run& a, const Step6Run& b) {
  EXPECT_EQ(a.st.marked, b.st.marked);
  EXPECT_EQ(a.st.copies, b.st.copies);
  EXPECT_EQ(a.st.advanced, b.st.advanced);
  EXPECT_EQ(a.st.rounds, b.st.rounds);
  EXPECT_EQ(a.st.cost.steps, b.st.cost.steps);
  ASSERT_EQ(a.qs.size(), b.qs.size());
  for (std::size_t i = 0; i < a.qs.size(); ++i) {
    EXPECT_EQ(a.qs[i].current, b.qs[i].current) << i;
    EXPECT_EQ(a.qs[i].next, b.qs[i].next) << i;
    EXPECT_EQ(a.qs[i].steps, b.qs[i].steps) << i;
    EXPECT_EQ(a.qs[i].done, b.qs[i].done) << i;
    EXPECT_EQ(a.qs[i].state, b.qs[i].state) << i;
    EXPECT_EQ(a.qs[i].result, b.qs[i].result) << i;
  }
}

TEST(ConstrainedStep6, PathEndingAtTheRoundCapStaysMarked) {
  const auto comb = ds::build_comb(4, 64);
  // The mesh is 32 x 32, so step 6 runs at most log2 n = 10 rounds. A
  // budget of 11 ends the path on the 10th step-6 visit, a budget of 10 one
  // visit earlier.
  ASSERT_EQ(comb.graph.shape_for(2).size(), 1024u);
  const auto start = parked_in_teeth(comb, {11, 10});
  const auto one = run_step6(comb, start, true, 1);
  expect_same_runs(one, run_step6(comb, start, true, 4));
  EXPECT_EQ(one.st.marked, 2u);
  EXPECT_EQ(one.st.copies, 1u);
  EXPECT_EQ(one.st.advanced, 19u);
  EXPECT_EQ(one.st.rounds, 10u);
  EXPECT_EQ(one.st.cost.steps, 4384.0);
  // Ten visits each way: the path has ended (next is kNoVertex), but no
  // round is left to see it, so the query stays marked.
  EXPECT_EQ(one.qs[0].steps, 14);
  EXPECT_EQ(one.qs[0].current, 145);
  EXPECT_EQ(one.qs[0].next, kNoVertex);
  EXPECT_FALSE(one.qs[0].done);
  // Nine visits: round 10 sees the end of the path and unmarks the query.
  EXPECT_EQ(one.qs[1].steps, 13);
  EXPECT_EQ(one.qs[1].current, 144);
  EXPECT_TRUE(one.qs[1].done);
}

TEST(ConstrainedStep6, RoundsAreTheLongestStreakOverCopies) {
  const auto comb = ds::build_comb(8, 64);
  std::vector<std::int64_t> budgets;
  for (std::int64_t i = 0; i < 32; ++i) budgets.push_back(2 + (i * 5) % 7);
  const auto start = parked_in_teeth(comb, budgets);
  const auto one = run_step6(comb, start, true, 1);
  expect_same_runs(one, run_step6(comb, start, true, 4));
  EXPECT_EQ(one.st.marked, 32u);
  EXPECT_EQ(one.st.copies, 8u);
  EXPECT_EQ(one.st.advanced, 125u);
  // Budgets 2..8 give streaks of 1..7 visits; the longest sets the rounds.
  EXPECT_EQ(one.st.rounds, 7u);
  EXPECT_EQ(one.st.cost.steps, 3520.0);
  const std::vector<std::int32_t> steps = {
      6, 11, 9, 7, 12, 10, 8, 6, 11, 9, 7, 12, 10, 8, 6, 11,
      9, 7, 12, 10, 8, 6, 11, 9, 7, 12, 10, 8, 6, 11, 9, 7};
  const std::vector<Vid> current = {
      336, 277, 211, 465, 22,  20,  82,  400, 21,  147, 17,
      278, 468, 338, 16,  277, 467, 401, 22,  148, 82,  272,
      21,  83,  81,  342, 20,  18,  16,  149, 211, 209};
  for (std::size_t i = 0; i < one.qs.size(); ++i) {
    EXPECT_EQ(one.qs[i].steps, steps[i]) << i;
    EXPECT_EQ(one.qs[i].current, current[i]) << i;
    EXPECT_TRUE(one.qs[i].done) << i;
  }
}

TEST(ConstrainedStep6, OverloadedCopyTimesharesItsSubmesh) {
  const auto comb = ds::build_comb(4, 64);
  std::vector<std::int64_t> budgets;
  for (std::int64_t i = 0; i < 256; ++i) budgets.push_back(2 + i % 6);
  const auto start = parked_in_teeth(comb, budgets, /*tooth_key=*/7);
  const auto one = run_step6(comb, start, false, 1);
  expect_same_runs(one, run_step6(comb, start, false, 4));
  // One copy without duplication: 256 queries on a submesh that holds 177
  // timeshare it in two batches, so the longest streak (6) costs 12 rounds.
  ASSERT_EQ(constrained_capacity(comb.splitting, comb.graph.shape_for(256)),
            177u);
  EXPECT_EQ(one.st.marked, 256u);
  EXPECT_EQ(one.st.copies, 1u);
  EXPECT_EQ(one.st.advanced, 892u);
  EXPECT_EQ(one.st.rounds, 12u);
  EXPECT_EQ(one.st.cost.steps, 4960.0);
  for (std::size_t i = 0; i < one.qs.size(); ++i) {
    const auto k = static_cast<std::int32_t>(1 + i % 6);
    EXPECT_EQ(one.qs[i].steps, 4 + k) << i;
    EXPECT_EQ(one.qs[i].current, 199 + k) << i;
    EXPECT_TRUE(one.qs[i].done) << i;
  }
}

TEST(ConstrainedStep6, LargeBatchIsPinned) {
  // 3000 marked queries in 32 copies of about 94 each, spread over the
  // pool at 4 threads.
  const auto comb = ds::build_comb(16, 64);
  std::vector<std::int64_t> budgets;
  for (std::int64_t i = 0; i < 3000; ++i) budgets.push_back(2 + (i * 7) % 13);
  const auto start = parked_in_teeth(comb, budgets);
  const auto one = run_step6(comb, start, true, 1);
  expect_same_runs(one, run_step6(comb, start, true, 4));
  EXPECT_EQ(one.st.marked, 3000u);
  EXPECT_EQ(one.st.copies, 32u);
  EXPECT_EQ(one.st.advanced, 20765u);
  // The mesh is 64 x 64, so budgets above 12 hit the round cap.
  EXPECT_EQ(one.st.rounds, 12u);
  EXPECT_EQ(one.st.cost.steps, 6464.0);
  std::int64_t steps = 0, current = 0, done = 0;
  for (const auto& q : one.qs) {
    steps += q.steps;
    current += q.current;
    done += q.done ? 1 : 0;
  }
  EXPECT_EQ(steps, 38765);
  EXPECT_EQ(current, 1541349);
  EXPECT_EQ(done, 2539);
}

// ---------------------------------------------------------------------------
// Algorithm 2 (alpha-partitionable, Theorem 5)
// ---------------------------------------------------------------------------

class Alg2Test : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(Alg2Test, MatchesSequentialOracle) {
  const auto [k, nkeys] = GetParam();
  KaryTree tree(ds::iota_keys(static_cast<std::size_t>(nkeys)), k,
                TreeMode::kDirected);
  util::Rng rng(99);
  auto qs = ds::uniform_key_queries(static_cast<std::size_t>(nkeys),
                                    static_cast<std::uint64_t>(nkeys) + 20,
                                    rng);
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.rank_count(), qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qalg.size());
  const auto res = multisearch_alpha(tree.graph(), tree.alpha_splitting(),
                                     tree.rank_count(), qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
  // Rank semantics: acc0 = x+1 clamped to [0, nkeys].
  for (const auto& q : qalg) {
    const auto expect = std::clamp<std::int64_t>(q.key[0] + 1, 0, nkeys);
    EXPECT_EQ(q.acc0, expect);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Alg2Test,
    ::testing::Combine(::testing::Values(2u, 3u, 4u, 6u),
                       ::testing::Values(1, 2, 7, 64, 100, 1000)));

TEST(Alg2, CombLongPathsNeedFewLogPhases) {
  const auto comb = ds::build_comb(16, 512);
  const std::size_t m_q = 128;
  auto qs = make_queries(m_q);
  util::Rng rng(5);
  for (auto& q : qs) {
    q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 20));
    q.key[1] = 500;
  }
  auto qseq = qs;
  const ds::CombWalk prog{comb.root};
  sequential_multisearch(comb.graph, prog, qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = comb.graph.shape_for(qalg.size());
  const auto res = multisearch_alpha(comb.graph, comb.splitting, prog, qalg, m,
                                     shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  // r ~ 500+5; each log-phase advances >= ~log2(n) ~ 13 steps inside a
  // tooth; expect ceil(r / logn)-ish phases, far fewer than r.
  const double n = static_cast<double>(shape.size());
  const double logn = std::log2(n);
  const double r = static_cast<double>(res.longest_path);
  EXPECT_LE(static_cast<double>(res.log_phases), 2.0 * r / logn + 3.0);
}

TEST(Alg2, DuplicationOffStillCorrect) {
  KaryTree tree(ds::iota_keys(256), 2, TreeMode::kDirected);
  util::Rng rng(6);
  auto qs = ds::zipf_key_queries(256, 256, 1.1, rng);
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.rank_count(), qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qalg.size());
  const auto res =
      multisearch_alpha(tree.graph(), tree.alpha_splitting(), tree.rank_count(),
                        qalg, m, shape, /*duplicate_copies=*/false);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  // And it must cost at least as much as the duplicated version.
  auto qalg2 = qs;
  const auto res2 =
      multisearch_alpha(tree.graph(), tree.alpha_splitting(), tree.rank_count(),
                        qalg2, m, shape, /*duplicate_copies=*/true);
  EXPECT_GE(res.cost.steps, res2.cost.steps - 1e-9);
}

class RandomPartitionableTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(RandomPartitionableTest, Algorithm2MatchesOracle) {
  const auto [k1, k2, piece] = GetParam();
  util::Rng rng(500 + static_cast<std::uint64_t>(k1 * 100 + k2 * 10 + piece));
  const auto inst = ds::build_random_partitionable(
      static_cast<std::size_t>(k1), static_cast<std::size_t>(k2),
      static_cast<std::size_t>(piece), 3, rng);
  validate_alpha_splitting(inst.graph, inst.splitting);
  const ds::PartitionableWalk prog{&inst};
  auto qs = make_queries(inst.graph.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  auto qseq = qs;
  sequential_multisearch(inst.graph, prog, qseq);
  // Every search must end in a sink; case-3 queries cross exactly one
  // splitter edge (head piece -> tail piece) on the way.
  for (const auto& q : qseq) {
    ASSERT_GE(q.result, 0);
    EXPECT_EQ(inst.graph.vert(q.result).degree, 0u);
  }
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = inst.graph.shape_for(qalg.size());
  const auto res = multisearch_alpha(inst.graph, inst.splitting, prog, qalg,
                                     m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomPartitionableTest,
    ::testing::Combine(::testing::Values(1, 3, 8), ::testing::Values(1, 5, 16),
                       ::testing::Values(2, 17, 90)));

TEST(RandomPartitionable, NormalizedSplittingStillWorks) {
  util::Rng rng(501);
  const auto inst = ds::build_random_partitionable(6, 20, 31, 3, rng);
  const ds::PartitionableWalk prog{&inst};
  auto qs = make_queries(512);
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  auto qseq = qs;
  sequential_multisearch(inst.graph, prog, qseq);
  // Group pieces to ~2x piece size (the §4.5 normalization) and re-run.
  const auto norm = normalize_splitting(inst.splitting, 62);
  validate_alpha_splitting(inst.graph, norm);
  EXPECT_LT(norm.num_pieces(), inst.splitting.num_pieces());
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = inst.graph.shape_for(qs.size());
  multisearch_alpha(inst.graph, norm, prog, qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
}

// ---------------------------------------------------------------------------
// Algorithm 3 (alpha-beta-partitionable, Theorem 7)
// ---------------------------------------------------------------------------

class Alg3Test : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(Alg3Test, EulerScanMatchesOracle) {
  const auto [k, nkeys] = GetParam();
  KaryTree tree(ds::iota_keys(static_cast<std::size_t>(nkeys)), k,
                TreeMode::kUndirected);
  util::Rng rng(7);
  auto qs = make_queries(static_cast<std::size_t>(std::max(8, nkeys / 2)));
  for (auto& q : qs) {
    const auto a = rng.uniform_range(-3, nkeys + 3);
    const auto b = a + rng.uniform_range(0, 30);
    q.key[0] = a;
    q.key[1] = b;
  }
  auto qseq = qs;
  sequential_multisearch(tree.graph(), tree.euler_scan(), qseq);
  // Oracle semantics check: acc0 counts keys in [a, b] intersect [0, nkeys).
  for (const auto& q : qseq) {
    const std::int64_t lo = std::max<std::int64_t>(q.key[0], 0);
    const std::int64_t hi = std::min<std::int64_t>(q.key[1], nkeys - 1);
    EXPECT_EQ(q.acc0, std::max<std::int64_t>(0, hi - lo + 1))
        << "range [" << q.key[0] << "," << q.key[1] << "]";
  }
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = tree.graph().shape_for(qalg.size());
  const auto [s1, s2] = tree.alpha_beta_splittings();
  const auto res =
      multisearch_alpha_beta(tree.graph(), s1, s2, tree.euler_scan(), qalg, m,
                             shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_GE(res.log_phases, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Alg3Test,
    ::testing::Combine(::testing::Values(2u, 3u, 4u),
                       ::testing::Values(2, 9, 64, 257, 1000)));

// ---------------------------------------------------------------------------
// Algorithm 1 (hierarchical DAGs, Theorem 2)
// ---------------------------------------------------------------------------

TEST(Hierarchical, DagValidation) {
  util::Rng rng(8);
  const auto g = ds::build_hierarchical_dag(1000, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);
  EXPECT_GE(dag.height(), 8);
  EXPECT_EQ(dag.level_size(0), 1u);
  std::size_t total = 0;
  for (std::int32_t i = 0; i <= dag.height(); ++i) total += dag.level_size(i);
  EXPECT_EQ(total, g.vertex_count());
  EXPECT_EQ(dag.band_vertex_count(0, dag.height()), g.vertex_count());
}

TEST(Hierarchical, RejectsSkipLevelEdges) {
  DistributedGraph g(3);
  g.vert(0).level = 0;
  g.vert(1).level = 1;
  g.vert(2).level = 2;
  g.add_edge(0, 2);  // skips level 1
  EXPECT_THROW(HierarchicalDag(g, 2.0), std::logic_error);
}

TEST(Hierarchical, PlanCoversAllLevels) {
  util::Rng rng(9);
  for (const std::size_t n : {100u, 5000u, 100000u}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const HierarchicalDag dag(g, 2.0);
    const auto shape = g.shape_for(g.vertex_count());
    const auto plan = make_hierarchical_plan(dag, shape);
    // Bands are contiguous from level 0 and end where B* begins.
    std::int32_t expect_lo = 0;
    for (const auto& b : plan.bands) {
      EXPECT_EQ(b.lo, expect_lo);
      EXPECT_GE(b.hi, b.lo);
      expect_lo = b.hi + 1;
      // A copy of the band fits in its submesh.
      EXPECT_LE(b.vertices, b.submesh_elems);
      EXPECT_GE(b.split, b.lo);
      EXPECT_LE(b.split, b.hi + 1);
    }
    EXPECT_EQ(plan.bstar_lo, expect_lo);
    // B* is O(1) levels: it spans 2*l_T where c <= l_T < mu^c when bands
    // exist; with no bands the whole DAG qualifies only because h < mu^c.
    const double mu_c = std::pow(dag.mu(), plan.c);
    if (plan.bands.empty())
      EXPECT_LT(static_cast<double>(dag.height()), mu_c);
    else
      EXPECT_LE(static_cast<double>(dag.height() - plan.bstar_lo + 1),
                2.0 * mu_c + 3.0);
  }
}

class HierTest : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(HierTest, MatchesSequentialOracle) {
  const auto [n, mu] = GetParam();
  util::Rng rng(10);
  const auto g = ds::build_hierarchical_dag(n, mu, 3, rng);
  const HierarchicalDag dag(g, mu);
  auto qs = make_queries(g.vertex_count());
  util::Rng qrng(11);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  auto qseq = qs;
  const ds::HashWalk prog{0};
  sequential_multisearch(g, prog, qseq);
  auto qalg = qs;
  const mesh::CostModel m;
  const auto shape = g.shape_for(qalg.size());
  const auto res = hierarchical_multisearch(dag, prog, qalg, m, shape);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qalg)), "");
  EXPECT_EQ(res.total_visits,
            static_cast<std::size_t>(g.vertex_count()) *
                static_cast<std::size_t>(dag.height() + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, HierTest,
    ::testing::Combine(::testing::Values(std::size_t{50}, std::size_t{1000},
                                         std::size_t{20000}),
                       ::testing::Values(1.5, 2.0, 4.0)));

TEST(Setup, LevelIndicesMatchConstruction) {
  util::Rng rng(18);
  for (const auto mu : {1.7, 2.0, 3.0}) {
    const auto g = ds::build_hierarchical_dag(20000, mu, 2, rng);
    const mesh::CostModel m;
    const auto shape = g.shape_for(g.vertex_count());
    const auto res = compute_level_indices(g, m, shape);
    for (std::size_t v = 0; v < g.vertex_count(); ++v)
      ASSERT_EQ(res.level[v], g.vert(static_cast<Vid>(v)).level) << v;
    const HierarchicalDag dag(g, mu);
    EXPECT_EQ(res.rounds, static_cast<std::size_t>(dag.height()) + 1);
    EXPECT_GT(res.cost.steps, 0.0);
  }
}

TEST(Setup, LevelIndexCostIsSqrtN) {
  util::Rng rng(19);
  std::vector<double> ns, costs;
  for (const std::size_t n : {1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const mesh::CostModel m;
    const auto shape = g.shape_for(g.vertex_count());
    const auto res = compute_level_indices(g, m, shape);
    ns.push_back(static_cast<double>(shape.size()));
    costs.push_back(res.cost.steps);
  }
  // The shrinking-subsquare telescoping keeps the peel at O(sqrt n) even
  // though it runs h+1 rounds.
  const auto fit = util::fit_power(ns, costs);
  EXPECT_NEAR(fit.exponent, 0.5, 0.1);
}

TEST(Setup, DistributeInitialIsConstantOps) {
  util::Rng rng(20);
  const auto g = ds::build_hierarchical_dag(5000, 2.0, 2, rng);
  const mesh::CostModel m;
  const auto shape = g.shape_for(g.vertex_count());
  const auto cost = distribute_graph(g, m, shape) +
                    inject_queries(g.vertex_count(), m, shape);
  const double p = static_cast<double>(shape.size());
  EXPECT_GT(cost.steps, m.sort(p).steps);
  EXPECT_LT(cost.steps, 30.0 * std::sqrt(p));  // a constant number of ops
}

TEST(Setup, LevelPeelRejectsStalledGraphs) {
  // A 2-cycle cannot be peeled.
  DistributedGraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  const mesh::CostModel m;
  EXPECT_THROW(compute_level_indices(g, m, g.shape_for(2)), std::logic_error);
}

TEST(Hierarchical, BandLabelsSatisfyTheorem2Storage) {
  util::Rng rng(17);
  // mu=2, n large enough for at least one paper band plus the geometric
  // plan's several bands.
  const auto g = ds::build_hierarchical_dag(1 << 18, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  // The paper's log* plan satisfies the O(1)-memory storage argument.
  {
    const auto plan = make_hierarchical_plan(dag, shape, PlanKind::kPaper);
    ASSERT_FALSE(plan.bands.empty());
    const auto labels = band_labels(plan, shape);
    verify_label_capacity(plan, shape, labels);
    for (const auto l : labels) {
      EXPECT_GE(l, -1);
      EXPECT_LT(l, static_cast<std::int32_t>(plan.bands.size()));
    }
    std::vector<std::size_t> count(plan.bands.size(), 0);
    for (const auto l : labels)
      if (l >= 0) ++count[static_cast<std::size_t>(l)];
    for (const auto c : count) EXPECT_GT(c, 0u);
  }
  // The geometric plan provably CANNOT: every one of its ~log n bands wants
  // a quarter of the mesh, so the coarse bands retain only (3/4)^k of their
  // submesh — this is exactly the O(log n)-memory trade-off DESIGN.md §5.9
  // documents (its copies are staged transiently instead).
  {
    const auto plan =
        make_hierarchical_plan(dag, shape, PlanKind::kGeometric);
    ASSERT_GT(plan.bands.size(), 4u);
    const auto labels = band_labels(plan, shape);
    EXPECT_THROW(verify_label_capacity(plan, shape, labels),
                 std::logic_error);
  }
}

TEST(Hierarchical, GeometricPlanInvariants) {
  util::Rng rng(14);
  for (const std::size_t n : {200u, 5000u, 200000u}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const HierarchicalDag dag(g, 2.0);
    const auto shape = g.shape_for(g.vertex_count());
    const auto plan =
        make_hierarchical_plan(dag, shape, PlanKind::kGeometric);
    std::int32_t expect_lo = 0;
    std::uint32_t prev_grid = 2 * shape.side();
    std::size_t prefix = 0;
    for (const auto& b : plan.bands) {
      EXPECT_EQ(b.lo, expect_lo);
      expect_lo = b.hi + 1;
      // Grids shrink monotonically; the whole prefix fits the submesh.
      EXPECT_LT(b.grid, prev_grid);
      prev_grid = b.grid;
      prefix += b.vertices;
      EXPECT_LE(prefix, b.submesh_elems);
      EXPECT_EQ(b.split, b.lo);  // no inner split in the geometric plan
    }
    EXPECT_EQ(plan.bstar_lo, expect_lo);
    EXPECT_LE(plan.bstar_lo, dag.height());
  }
}

TEST(Hierarchical, GeometricPlanMatchesOracle) {
  util::Rng rng(15);
  const auto g = ds::build_hierarchical_dag(30000, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  auto qseq = qs;
  const ds::HashWalk prog{0};
  sequential_multisearch(g, prog, qseq);
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  const auto res = hierarchical_multisearch(dag, prog, qs, m, shape,
                                            PlanKind::kGeometric);
  EXPECT_EQ(diff_outcomes(outcomes(qseq), outcomes(qs)), "");
  // The geometric plan should not be more expensive than the paper plan
  // here (mu = 2 at this size has at most one band).
  auto qs2 = qs;
  const auto paper = hierarchical_multisearch(dag, prog, qs2, m, shape,
                                              PlanKind::kPaper);
  EXPECT_LE(res.cost.steps, paper.cost.steps * 1.5);
}

TEST(Hierarchical, MeasuredSweepsBoundedByLevelWork) {
  util::Rng rng(16);
  const auto g = ds::build_hierarchical_dag(5000, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);  // plain DAG: 1 visit per level
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(99));
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  const auto res =
      hierarchical_multisearch(dag, ds::HashWalk{0}, qs, m, shape);
  ASSERT_EQ(res.level_sweeps.size(),
            static_cast<std::size_t>(dag.height()) + 1);
  for (const auto s : res.level_sweeps) EXPECT_EQ(s, 1);
}

TEST(Hierarchical, CostScalesAsSqrtN) {
  util::Rng rng(12);
  std::vector<double> ns, costs;
  for (const std::size_t n : {1u << 10, 1u << 12, 1u << 14, 1u << 16, 1u << 18}) {
    const auto g = ds::build_hierarchical_dag(n, 2.0, 2, rng);
    const HierarchicalDag dag(g, 2.0);
    const auto shape = g.shape_for(g.vertex_count());
    const auto plan = make_hierarchical_plan(dag, shape);
    const mesh::CostModel m;
    const auto res = hierarchical_cost(dag, plan, shape, m);
    ns.push_back(static_cast<double>(shape.size()));
    costs.push_back(res.cost.steps);
  }
  const auto fit = util::fit_power(ns, costs);
  EXPECT_NEAR(fit.exponent, 0.5, 0.1);
}

TEST(Hierarchical, CheaperThanSynchronousBaseline) {
  util::Rng rng(13);
  const auto g = ds::build_hierarchical_dag(1 << 16, 2.0, 2, rng);
  const HierarchicalDag dag(g, 2.0);
  auto qs = make_queries(g.vertex_count());
  for (auto& q : qs) q.key[0] = static_cast<std::int64_t>(rng.uniform(1u << 30));
  const mesh::CostModel m;
  const auto shape = g.shape_for(qs.size());
  auto qa = qs;
  const auto hier = hierarchical_multisearch(dag, ds::HashWalk{0}, qa, m, shape);
  auto qb = qs;
  reset_queries(qb);
  const auto sync =
      synchronous_multisearch(g, ds::HashWalk{0}, qb, m, shape);
  EXPECT_LT(hier.cost.steps, sync.cost.steps);
}

}  // namespace
