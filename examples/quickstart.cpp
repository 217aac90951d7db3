// Quickstart: batched predecessor searches on a distributed k-ary search
// tree, solved three ways — sequentially (the oracle), with the synchronous
// multistep baseline, and with the paper's Algorithm 2 — and a comparison
// of their simulated mesh times.
//
//   $ ./example_quickstart [num_keys] [num_queries]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/stream.hpp"
#include "multisearch/synchronous.hpp"
#include "trace/trace.hpp"

#include "example_main.hpp"

using namespace meshsearch;
using namespace meshsearch::msearch;

int run(int argc, char** argv) {
  const std::size_t nkeys = argc > 1 ? std::strtoull(argv[1], nullptr, 10)
                                     : (std::size_t{1} << 16);
  const std::size_t nqueries = argc > 2 ? std::strtoull(argv[2], nullptr, 10)
                                        : nkeys;

  // 1. Build the search structure: a balanced 4-ary search tree over
  //    integer keys, edges directed root -> leaves (paper Figure 2).
  ds::KaryTree tree(ds::iota_keys(nkeys), /*k=*/4, ds::TreeMode::kDirected);
  std::cout << "tree: " << tree.graph().vertex_count() << " nodes, height "
            << tree.height() << ", fanout " << tree.fanout() << "\n";

  // 2. Generate a batch of queries: one search key per processor.
  util::Rng rng(2024);
  auto queries = ds::uniform_key_queries(nqueries, nkeys + nkeys / 4, rng);

  // 3. The mesh: side^2 >= max(|V|, m) processors.
  const auto shape = tree.graph().shape_for(queries.size());
  std::cout << "mesh: " << shape.side() << " x " << shape.side() << " = "
            << shape.size() << " processors\n";

  // 4. Run. The search program is the successor function f of paper §2:
  //    compare the key against the node's separators, pick a child.
  const auto prog = tree.predecessor_search();
  const mesh::CostModel model;

  auto q_seq = queries;
  const auto seq = sequential_multisearch(tree.graph(), prog, q_seq);

  auto q_sync = queries;
  reset_queries(q_sync);
  const auto sync =
      synchronous_multisearch(tree.graph(), prog, q_sync, model, shape);

  auto q_alg = queries;
  const auto alg = multisearch_alpha(tree.graph(), tree.alpha_splitting(),
                                     prog, q_alg, model, shape);

  // 5. All three agree, and the multisearch wins on simulated mesh time.
  const auto mismatch = diff_outcomes(outcomes(q_seq), outcomes(q_alg));
  const auto mismatch2 = diff_outcomes(outcomes(q_seq), outcomes(q_sync));
  std::cout << "\nresults agree: "
            << (mismatch.empty() && mismatch2.empty() ? "yes" : "NO") << "\n";
  std::cout << "sequential (1 processor) work:   " << seq.cost.steps
            << " steps\n";
  std::cout << "synchronous multistep baseline:  " << sync.cost.steps
            << " steps (" << sync.multisteps << " multisteps)\n";
  std::cout << "Algorithm 2 (Theorem 5):         " << alg.cost.steps
            << " steps (" << alg.log_phases << " log-phases)\n";
  std::cout << "speedup vs 1 processor: " << seq.cost.steps / alg.cost.steps
            << "x, vs synchronous: " << sync.cost.steps / alg.cost.steps
            << "x\n";

  // A couple of example answers.
  std::cout << "\nsample answers (key -> predecessor):\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(5, q_alg.size()); ++i)
    std::cout << "  " << q_alg[i].key[0] << " -> " << q_alg[i].acc0 << "\n";

  // 6. Streaming: pay the Algorithm 2 setup once, then serve a longer query
  //    stream in mesh-capacity batches. The recorder charges every
  //    primitive and times every batch attempt in its "stream.batch N" span
  //    (the wall.phase.stream.batch histogram).
  trace::TraceRecorder rec("alg2-alpha");
  mesh::CostModel traced_model;
  traced_model.trace = &rec;
  PreparedSearch engine(EngineKind::kAlg2Alpha, tree.graph(),
                        tree.alpha_splitting(), tree.alpha_splitting(),
                        tree.predecessor_search(), traced_model, shape);
  auto stream =
      ds::uniform_key_queries(4 * engine.capacity(), nkeys + nkeys / 4, rng);
  StreamScheduler sched(engine, BatchPolicy{});
  auto sres = sched.run(stream);
  std::cout << "\nstreaming " << sres.queries << " queries in "
            << sres.batches.size() << " warm batches: "
            << sres.amortized_steps_per_query()
            << " amortized steps/query (setup fraction "
            << sres.setup_fraction() << ")\n";

  // 7. The recorder's own stats registry: every wall-clock span histogram as
  //    a percentile line, then the stream SLO line from the stream.* gauges.
  const auto snap = rec.stats().snapshot();
  std::cout << "\nstats:\n";
  for (const auto& h : snap.histograms) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  wall     %s: n=%zu p50=%.1fus p95=%.1fus max=%.1fus",
                  h.name.c_str(), static_cast<std::size_t>(h.hist.count()),
                  h.hist.p50(), h.hist.p95(), h.hist.max());
    std::cout << line << "\n";
  }
  const auto gauge = [&](std::string_view name) {
    for (const auto& g : snap.gauges)
      if (g.name == name) return g.value;
    return -1.0;
  };
  std::cout << "  slo      stream: " << gauge("stream.batches") << " batches, "
            << gauge("stream.degraded_batches") << " degraded, "
            << gauge("stream.replans") << " replans, "
            << gauge("stream.failed_queries") << " failed queries\n";

  return mismatch.empty() && mismatch2.empty() ? 0 : 1;
}

MESHSEARCH_EXAMPLE_MAIN(run)
