// V1 — engine cross-validation and wall-clock throughput of the simulator.
//
// google-benchmark timings for the physically faithful cycle engine
// (shearsort, snake scan, greedy routing), plus a table comparing measured
// cycle-engine step counts with the counting engine's charged costs: the
// scan ratio is a constant, the sort ratio grows as the shearsort log
// factor (exactly why the counting engine charges the optimal bound — see
// DESIGN.md §2).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench_common.hpp"
#include "datastruct/workloads.hpp"
#include "mesh/cycle_ops.hpp"
#include "mesh/grid.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/query.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

using namespace meshsearch;
using mesh::Grid;
using mesh::MeshShape;

namespace {

std::vector<std::int64_t> random_values(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = rng.uniform_range(-1000000, 1000000);
  return v;
}

void BM_CycleShearsort(benchmark::State& state) {
  const MeshShape s(static_cast<std::uint32_t>(state.range(0)));
  const auto vals = random_values(s.size(), 1);
  for (auto _ : state) {
    auto g = Grid<std::int64_t>::from_snake(s, vals);
    benchmark::DoNotOptimize(g.shearsort());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_CycleShearsort)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_CycleSnakeScan(benchmark::State& state) {
  const MeshShape s(static_cast<std::uint32_t>(state.range(0)));
  const auto vals = random_values(s.size(), 2);
  for (auto _ : state) {
    auto g = Grid<std::int64_t>::from_snake(s, vals);
    benchmark::DoNotOptimize(g.snake_scan(std::plus<std::int64_t>{}));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_CycleSnakeScan)->Arg(32)->Arg(128);

void BM_CycleRoutePermutation(benchmark::State& state) {
  const MeshShape s(static_cast<std::uint32_t>(state.range(0)));
  util::Rng rng(3);
  const auto vals = random_values(s.size(), 3);
  const auto perm = util::random_permutation(s.size(), rng);
  const std::vector<std::uint32_t> dest(perm.begin(), perm.end());
  for (auto _ : state) {
    auto g = Grid<std::int64_t>::from_snake(s, vals);
    benchmark::DoNotOptimize(g.route_permutation(dest));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(s.size()));
}
BENCHMARK(BM_CycleRoutePermutation)->Arg(16)->Arg(32)->Arg(64);

void cross_engine_table(const bench::TraceOptions& topt) {
  bench::section("V1: measured cycle-engine steps vs charged costs");
  util::Table t({"side", "p", "shear steps", "charged sort", "ratio(sort)",
                 "scan steps", "charged scan", "ratio(scan)", "route steps",
                 "charged route", "RAR steps", "charged RAR(phys)"});
  const mesh::CostModel m;
  mesh::CostModel phys;
  phys.physical_sort = true;
  for (std::uint32_t side : {8u, 16u, 32u, 64u, 128u}) {
    const MeshShape s(side);
    trace::TraceRecorder rec("cycle");
    trace::TraceRecorder* tr = topt.enabled ? &rec : nullptr;
    const auto vals = random_values(s.size(), side);
    auto g1 = Grid<std::int64_t>::from_snake(s, vals);
    g1.set_trace(tr);
    const double shear = static_cast<double>(g1.shearsort());
    auto g2 = Grid<std::int64_t>::from_snake(s, vals);
    g2.set_trace(tr);
    const double scan =
        static_cast<double>(g2.snake_scan(std::plus<std::int64_t>{}));
    util::Rng rng(side);
    const auto perm = util::random_permutation(s.size(), rng);
    const std::vector<std::uint32_t> dest(perm.begin(), perm.end());
    auto g3 = Grid<std::int64_t>::from_snake(s, vals);
    g3.set_trace(tr);
    const double route = static_cast<double>(g3.route_permutation(dest));
    // Physical random access read with a skewed request pattern.
    std::vector<std::int64_t> addr(s.size(), mesh::kNoAddr);
    for (std::size_t i = 0; i < s.size(); ++i)
      if (rng.uniform(10) < 7)
        addr[i] = static_cast<std::int64_t>(
            rng.bernoulli(0.5) ? rng.uniform(4) : rng.uniform(s.size()));
    const auto rar = mesh::cycle_random_access_read(s, vals, addr, 0, tr);
    const double p = static_cast<double>(s.size());
    // Build the row in a named vector: a brace-init list of variant
    // temporaries trips a gcc-12 maybe-uninitialized false positive here.
    std::vector<util::Table::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(side));
    row.emplace_back(static_cast<std::int64_t>(p));
    row.emplace_back(shear);
    row.emplace_back(m.sort(p).steps);
    row.emplace_back(shear / m.sort(p).steps);
    row.emplace_back(scan);
    row.emplace_back(m.scan(p).steps);
    row.emplace_back(scan / m.scan(p).steps);
    row.emplace_back(route);
    row.emplace_back(m.route(p).steps);
    row.emplace_back(static_cast<double>(rar.steps));
    row.emplace_back(phys.rar(p).steps);
    t.add_row(std::move(row));
    bench::emit_trace(rec, topt, "v1_cycle_side" + std::to_string(side));
  }
  bench::emit(t, "v1_cross_engine");
}

/// Parse `--threads <list>` / `--threads=<list>` where <list> is a comma
/// separated set of host thread counts, e.g. `--threads 1,2,4,8`. Bare
/// `--threads` uses the default sweep {1, 2, 4, 8}. Empty when absent.
std::vector<unsigned> parse_threads_flag(int argc, char** argv) {
  std::string spec;
  bool enabled = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--threads") {
      enabled = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') spec = argv[++i];
    } else if (a.rfind("--threads=", 0) == 0) {
      enabled = true;
      spec = a.substr(10);
    }
  }
  if (!enabled) return {};
  if (spec.empty()) return {1, 2, 4, 8};
  std::vector<unsigned> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    const unsigned long v = std::strtoul(tok.c_str(), nullptr, 10);
    if (v > 0 && v <= 4096) out.push_back(static_cast<unsigned>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Host-parallelism wall-clock sweep: Algorithm 1 (paper plan) on a
/// hierarchical DAG at n = 2^20, once per requested thread count. The
/// determinism contract demands bit-identical simulated step counts and
/// query outcomes at every thread count — checked here, not just in tests.
void thread_sweep(const std::vector<unsigned>& threads) {
  using namespace meshsearch::msearch;
  if (threads.empty()) return;
  bench::section("V1t: host-thread wall-clock sweep (Alg 1, n=2^20)");
  // hardware_concurrency() may report 0 when the host cannot say.
  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned max_swept = *std::max_element(threads.begin(), threads.end());
  if (hw > 0) {
    std::cout << "host hardware concurrency: " << hw << " threads\n";
    if (hw < max_swept)
      std::cout << "note: sweep includes counts above " << hw
                << "; those rows are oversubscribed and their speedups "
                   "reflect scheduling, not scaling\n";
  } else {
    std::cout << "host hardware concurrency: unknown\n";
  }
  util::Rng rng(7);
  const std::size_t n = std::size_t{1} << 20;
  const auto g = ds::build_hierarchical_dag(n, 2.0, 3, rng);
  const HierarchicalDag dag(g, 2.0);
  const auto shape = g.shape_for(g.vertex_count());
  const mesh::CostModel m;
  auto qs = make_queries(g.vertex_count());
  util::Rng qrng(n);
  for (auto& q : qs)
    q.key[0] = static_cast<std::int64_t>(qrng.uniform(1ull << 40));
  const ds::HashWalk prog{0};

  util::Table t({"threads", "wall ms", "speedup", "sim steps", "note"});
  double base_ms = 0.0;
  double ref_steps = 0.0;
  std::vector<QueryOutcome> ref_outcomes;
  for (std::size_t i = 0; i < threads.size(); ++i) {
    util::ThreadPool::set_global_threads(threads[i]);
    auto q = qs;
    const auto t0 = std::chrono::steady_clock::now();
    const auto res = hierarchical_multisearch(dag, prog, q, m, shape);
    const auto t1 = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (i == 0) {
      base_ms = ms;
      ref_steps = res.cost.steps;
      ref_outcomes = outcomes(q);
    } else {
      MS_CHECK_MSG(res.cost.steps == ref_steps,
                   "thread sweep: simulated step counts diverged "
                   "(determinism contract violated)");
      MS_CHECK_MSG(outcomes(q) == ref_outcomes,
                   "thread sweep: query outcomes diverged "
                   "(determinism contract violated)");
    }
    std::vector<util::Table::Cell> row;
    row.emplace_back(static_cast<std::int64_t>(threads[i]));
    row.emplace_back(ms);
    row.emplace_back(base_ms / ms);
    row.emplace_back(res.cost.steps);
    row.emplace_back(std::string(hw > 0 && threads[i] > hw ? "oversubscribed"
                                                           : ""));
    t.add_row(std::move(row));
  }
  util::ThreadPool::set_global_threads(0);  // back to the env/default pool
  bench::emit(t, "v1_threads");
}

}  // namespace

int main(int argc, char** argv) {
  const auto topt = bench::parse_trace_flag(argc, argv);
  bench::BenchReport breport("v1_engines", argc, argv);
  // --smoke: the cross-engine table only (deterministic measured
  // cycle-engine steps against the charged costs) for the CI bench gate;
  // skips the thread sweep and google-benchmark.
  if (bench::has_flag(argc, argv, "--smoke")) {
    breport.set_config("smoke", "1");
    cross_engine_table(topt);
    return 0;
  }
  const auto threads = parse_threads_flag(argc, argv);
  cross_engine_table(topt);
  thread_sweep(threads);
  // Strip --trace/--threads before handing argv to google-benchmark, which
  // rejects flags it does not know.
  std::vector<char*> bench_argv;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--trace" || a == "--threads") {
      if (i + 1 < argc && argv[i + 1][0] != '-') ++i;
      continue;
    }
    if (a.rfind("--trace=", 0) == 0 || a.rfind("--threads=", 0) == 0) continue;
    bench_argv.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(bench_argv.size());
  benchmark::Initialize(&bench_argc, bench_argv.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
