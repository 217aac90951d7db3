#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "harness.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/query.hpp"
#include "multisearch/stream.hpp"
#include "service/engine.hpp"
#include "service/scheduler.hpp"
#include "service/tenant.hpp"
#include "trace/trace.hpp"
#include "util/parallel_for.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using namespace meshsearch;
using msearch::Query;
using msearch::QueryOutcome;

// ---------------------------------------------------------------------------
// Shared accounting
// ---------------------------------------------------------------------------

/// Top-level phase spans: the spans opened directly inside one engine call.
/// Their wall time comes from the recorder's wall.phase.* histograms.
constexpr std::array<const char*, 4> kBatchPhases = {
    "setup: inject queries", "alg1.data pass (host)", "algorithm1",
    "partitioned multisearch"};
constexpr const char* kRefreshPhase = "stream.refresh";

constexpr std::array<trace::Primitive, 9> kMeshPrimitives = {
    trace::Primitive::kSort,     trace::Primitive::kScan,
    trace::Primitive::kRoute,    trace::Primitive::kBroadcast,
    trace::Primitive::kReduce,   trace::Primitive::kRar,
    trace::Primitive::kRaw,      trace::Primitive::kCompress,
    trace::Primitive::kRebuild};

/// Span names as metric-name pieces: characters outside [A-Za-z0-9._-]
/// become '_', runs of '_' collapse, and edge '_' are dropped.
std::string sanitize(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    const char d = ok ? c : '_';
    if (d == '_' && (out.empty() || out.back() == '_')) continue;
    out += d;
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return util::mix64(seed * 0x9e3779b97f4a7c15ull + stream);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return 1e3 * seconds_between(a, b);
}

/// Per-layer inputs gathered over the traced passes of a run. Times are
/// seconds unless named otherwise.
struct Layers {
  double timed = 0;      ///< wall time of the timed passes (the T below)
  double admission = 0;  ///< TenantSession::submit + submit_update
  double scheduler = 0;  ///< ServiceScheduler::pump / StreamScheduler::run
  double engine = 0;     ///< engine calls timed from outside
  double run_batch = 0;  ///< the run_batch part of `engine`
  double update_fn = 0;  ///< the benchmark's UpdateFn, apply_updates included
  double apply = 0;      ///< apply_updates
  std::map<std::string, double> phase;  ///< top-level span wall time

  Samples submit_us, pump_ms, run_batch_us, refresh_ms, apply_us, dirty,
      export_ms;
  std::size_t batch_queries = 0, batch_capacity = 0, visits = 0;
  std::size_t refreshes = 0, incremental = 0;
  std::array<double, trace::kPrimitiveCount> prim_steps{};
  std::size_t answered = 0;  ///< queries answered in the traced passes
  double events = 0, spans = 0;
  double overhead_frac = 0;
  double build_s = 0, prepare_s = 0;
  double cpu = 0, cpu_wall = 0;

  void add_recorder(const trace::TraceRecorder& rec) {
    const auto snap = rec.stats().snapshot();
    const auto wall_s = [&](const char* span) {
      const std::string key = trace::span_histogram_name(span);
      for (const auto& h : snap.histograms)
        if (h.name == key) return 1e-6 * h.hist.sum();
      return 0.0;
    };
    for (const char* p : kBatchPhases) phase[p] += wall_s(p);
    phase[kRefreshPhase] += wall_s(kRefreshPhase);
    for (const auto& [key, stat] : rec.counters())
      prim_steps[static_cast<std::size_t>(key.prim)] += stat.steps;
    events = static_cast<double>(rec.events().size());
    spans = static_cast<double>(rec.spans().size());
  }
};

double median_or_zero(const Samples& s) { return s.empty() ? 0.0 : s.median(); }

/// The per-layer metric list (identical names on every workload; a layer a
/// workload does not exercise reports 0) plus the wall-time table whose
/// rows add up to the timed wall time.
void emit_layers(const Layers& L, RunResult& out) {
  MetricSet& m = out.metrics;
  const double T = L.timed;
  double batch_phases = 0;
  for (const char* p : kBatchPhases) batch_phases += L.phase.at(p);
  const double refresh_phase = L.phase.at(kRefreshPhase);
  const double pump_self = L.scheduler - L.engine - L.update_fn;
  const double bench = T - L.admission - L.scheduler + (L.update_fn - L.apply);
  const double residual = L.engine - batch_phases - refresh_phase;

  m.add("service.submit_us_p50", median_or_zero(L.submit_us), "us");
  m.add("service.pump_ms_p50", median_or_zero(L.pump_ms), "ms");
  m.add("service.self_frac", L.pump_ms.empty() ? 0.0 : pump_self / L.scheduler,
        "ratio");
  m.add("service.batch_fill",
        L.batch_capacity == 0 ? 0.0
                              : static_cast<double>(L.batch_queries) /
                                    static_cast<double>(L.batch_capacity),
        "ratio");
  m.add("multisearch.run_batch_ms_p50", 1e-3 * median_or_zero(L.run_batch_us),
        "ms");
  m.add("multisearch.host_ns_per_visit",
        L.visits == 0 ? 0.0 : 1e9 * L.run_batch / static_cast<double>(L.visits),
        "ns");
  m.add("multisearch.visits_per_query",
        L.batch_queries == 0 ? 0.0
                             : static_cast<double>(L.visits) /
                                   static_cast<double>(L.batch_queries),
        "count");
  m.add("multisearch.untraced_frac",
        L.run_batch == 0 ? 0.0 : (L.run_batch - batch_phases) / L.run_batch,
        "ratio");
  for (const char* p : kBatchPhases)
    m.add("multisearch.phase." + sanitize(p) + ".wall_frac", L.phase.at(p) / T,
          "ratio");
  m.add("multisearch.phase." + sanitize(kRefreshPhase) + ".wall_frac",
        refresh_phase / T, "ratio");
  m.add("multisearch.refresh_ms_p50", median_or_zero(L.refresh_ms), "ms");
  m.add("multisearch.refresh_incremental_frac",
        L.refreshes == 0 ? 0.0
                         : static_cast<double>(L.incremental) /
                               static_cast<double>(L.refreshes),
        "ratio");
  m.add("multisearch.prepare_s", L.prepare_s, "s");
  m.add("datastruct.build_s", L.build_s, "s");
  m.add("datastruct.apply_updates_us_p50", median_or_zero(L.apply_us), "us");
  m.add("datastruct.dirty_vertices_per_update",
        L.dirty.empty() ? 0.0 : L.dirty.sum() / static_cast<double>(L.dirty.count()),
        "count");
  for (const auto prim : kMeshPrimitives)
    m.add(std::string("mesh.") + trace::primitive_name(prim) + ".steps_per_query",
          L.answered == 0 ? 0.0
                          : L.prim_steps[static_cast<std::size_t>(prim)] /
                                static_cast<double>(L.answered),
          "steps");
  m.add("trace.events_retained", L.events, "count");
  m.add("trace.spans_retained", L.spans, "count");
  m.add("trace.overhead_frac", L.overhead_frac, "ratio");
  m.add("trace.export_ms_p50", median_or_zero(L.export_ms), "ms");
  m.add("util.cpu_per_wall", L.cpu_wall == 0 ? 0.0 : L.cpu / L.cpu_wall,
        "ratio");
  m.add("wall.bench_frac", bench / T, "ratio");
  m.add("wall.admission_frac", L.admission / T, "ratio");
  m.add("wall.scheduler_frac", pump_self / T, "ratio");
  m.add("wall.datastruct_frac", L.apply / T, "ratio");
  m.add("wall.residual_frac", residual / T, "ratio");

  // The wall-time table: benchmark + admission + scheduler + datastruct +
  // phases + residual == T by construction; print it with the check.
  char line[160];
  out.notes.push_back("wall-time decomposition of the traced passes (T = " +
                      std::to_string(T) + " s):");
  // Every row but the benchmark's and the residual is a sum of timed spans,
  // and those two are remainders. A span counted twice, or nested inside
  // another row's span, drives a row below zero: fail the run on it.
  const auto row = [&](const std::string& name, double s) {
    std::snprintf(line, sizeof line, "  %-44s %10.4f s %7.2f%%", name.c_str(), s,
                  100.0 * s / T);
    out.notes.push_back(line);
    if (s >= -1e-3 * T) return;
    out.correct = false;
    out.notes.push_back("WALL DECOMPOSITION BROKEN: row '" + name +
                        "' is negative; a span is counted twice");
  };
  row("benchmark (loop, UpdateFn self)", bench);
  row("service admission (submit)", L.admission);
  row("scheduler self (pump / stream run)", pump_self);
  row("datastruct apply_updates", L.apply);
  for (const char* p : kBatchPhases) row(std::string("phase ") + p, L.phase.at(p));
  row(std::string("phase ") + kRefreshPhase, refresh_phase);
  row("residual (engine calls outside phase spans)", residual);
  const double sum = bench + L.admission + pump_self + L.apply + batch_phases +
                     refresh_phase + residual;
  std::snprintf(line, sizeof line, "  %-44s %10.4f s (T - sum = %.3g s)",
                "sum", sum, T - sum);
  out.notes.push_back(line);
}

void note_latency(RunResult& out, const std::string& what, const Samples& s,
                  const char* unit) {
  char line[200];
  const std::size_t n = s.count();
  const auto beyond = n - static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n)));
  std::snprintf(line, sizeof line,
                "%s: n=%zu p50=%.6g %s p99=%.6g %s (%zu samples beyond p99)",
                what.c_str(), n, s.median(), unit, s.pct(0.99), unit, beyond);
  out.notes.push_back(line);
}

/// Charged (virtual-clock) values of one pass; every pass of a run must
/// reproduce the first one's exactly.
struct Charged {
  double steps_per_query = 0;
  double p99_steps = 0;
  std::array<double, trace::kPrimitiveCount> prim{};
  friend bool operator==(const Charged&, const Charged&) = default;
};

void check_charged(RunResult& out, const Charged& first, const Charged& now,
                   std::size_t pass) {
  if (first == now) return;
  out.correct = false;
  out.notes.push_back("CHARGED MISMATCH: pass " + std::to_string(pass) +
                      " charged steps differ from pass 0");
}

std::array<double, trace::kPrimitiveCount> prim_steps_of(
    const trace::TraceRecorder* rec) {
  std::array<double, trace::kPrimitiveCount> out{};
  if (rec == nullptr) return out;
  for (const auto& [key, stat] : rec->counters())
    out[static_cast<std::size_t>(key.prim)] += stat.steps;
  return out;
}

struct EndToEnd {
  Samples pass_qps;       ///< answered queries / timed seconds, per pass
  Samples latency_ms;     ///< per request, in pass order
  std::vector<std::size_t> pass_ends;  ///< latency_ms.count() after each pass
  Samples latency_steps;  ///< per request (one pass; deterministic)
  Samples update_ms;      ///< per update
  double steps_per_query = 0;
  double setup_s = 0;
};

/// Set-up repetitions. Each workload times one set-up before its first
/// request and then one throwaway set-up between passes, outside every pass
/// timer, so that the median samples the host over the whole run like the
/// other metrics do rather than the moment the process started.
struct SetupTimes {
  Samples setup, build, prepare;

  void add(double build_s, double prepare_s) {
    setup.add(build_s + prepare_s);
    build.add(build_s);
    prepare.add(prepare_s);
  }
  void report(EndToEnd& e, Layers& L) const {
    e.setup_s = setup.median();
    L.build_s = build.median();
    L.prepare_s = prepare.median();
  }
};

constexpr std::size_t kTailBlocks = 11;

/// The exact p99 of each of kTailBlocks runs of consecutive timed passes.
/// A host-contention episode of a few seconds lifts the p99 of the block it
/// falls in, but not the median over the blocks, which is what the run
/// reports; a tail the program causes lifts every block.
Samples block_p99s(const Samples& latency,
                   const std::vector<std::size_t>& pass_ends) {
  const std::size_t passes = pass_ends.size();
  const std::size_t blocks = std::min(kTailBlocks, passes);
  const auto& v = latency.values();
  Samples out;
  std::size_t begin = 0;
  for (std::size_t k = 1; k <= blocks; ++k) {
    const std::size_t end = pass_ends[k * passes / blocks - 1];
    out.add(percentile({v.begin() + static_cast<std::ptrdiff_t>(begin),
                        v.begin() + static_cast<std::ptrdiff_t>(end)},
                       0.99));
    begin = end;
  }
  return out;
}

void emit_end_to_end(const EndToEnd& e, RunResult& out) {
  MetricSet& m = out.metrics;
  const Samples p99s = block_p99s(e.latency_ms, e.pass_ends);
  m.add("queries_per_s", e.pass_qps.median(), "1/s");
  m.add("latency_p50_ms", e.latency_ms.median(), "ms");
  m.add("latency_p99_ms", p99s.median(), "ms");
  m.add("update_latency_p50_ms", e.update_ms.median(), "ms");
  m.add("steps_per_query", e.steps_per_query, "steps");
  m.add("latency_p99_steps", e.latency_steps.pct(0.99), "steps");
  m.add("served_frac",
        out.attempted == 0 ? 0.0
                           : static_cast<double>(out.attempted - out.failed) /
                                 static_cast<double>(out.attempted),
        "ratio");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("setup_s", e.setup_s, "s");
  note_latency(out, "request latency", e.latency_ms, "ms");
  std::string blocks = "request latency p99 of " +
                       std::to_string(p99s.count()) +
                       " blocks of passes, " +
                       std::to_string(e.latency_ms.count() / p99s.count()) +
                       " samples each (ms):";
  for (const double v : p99s.values()) blocks += " " + std::to_string(v);
  out.notes.push_back(blocks);
  note_latency(out, "request latency (charged)", e.latency_steps, "steps");
  note_latency(out, "update latency", e.update_ms, "ms");
  note_latency(out, "queries_per_s over passes", e.pass_qps, "1/s");
}

constexpr std::size_t kMinTimedPasses = 3;

// ---------------------------------------------------------------------------
// hier_bulk: Algorithm 1 (paper band plan) under StreamScheduler
// ---------------------------------------------------------------------------

constexpr std::size_t kDagVertices = (std::size_t{1} << 18) - 1;
constexpr std::size_t kHierBatchesPerPass = 4;
constexpr std::size_t kHierRefreshEvery = 4;  ///< passes between updates
constexpr unsigned kHierThreads = 2;

/// One warm Algorithm-1 engine and what it points into. Not movable: the
/// DAG view, the engine and the scheduler hold addresses of members.
struct HierStructure {
  msearch::DistributedGraph g;
  std::unique_ptr<msearch::HierarchicalDag> dag;
  mesh::CostModel model;
  std::unique_ptr<msearch::PreparedSearch<ds::HashWalk>> engine;
  /// A second warm engine on the same DAG that takes the updates, so no
  /// query batch runs on memory a re-setup has just reallocated.
  mesh::CostModel spare_model;
  std::unique_ptr<msearch::PreparedSearch<ds::HashWalk>> spare;
};

std::unique_ptr<HierStructure> build_hier(std::uint64_t seed, double& build_s,
                                          double& prepare_s) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<HierStructure>();
  util::Rng rng(derive_seed(seed, 1));
  s->g = ds::build_hierarchical_dag(kDagVertices, 2.0, 3, rng);
  const auto t1 = Clock::now();
  s->dag = std::make_unique<msearch::HierarchicalDag>(s->g, 2.0);
  s->engine = std::make_unique<msearch::PreparedSearch<ds::HashWalk>>(
      *s->dag, msearch::PlanKind::kPaper, ds::HashWalk{0}, s->model,
      s->g.shape_for(s->g.vertex_count()));
  const auto t2 = Clock::now();
  build_s = seconds_between(t0, t1);
  prepare_s = seconds_between(t1, t2);
  return s;
}

void fill_queries(std::vector<Query>& qs, const std::vector<std::int64_t>& keys) {
  qs.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    qs[i] = Query{};
    qs[i].qid = static_cast<std::int32_t>(i);
    qs[i].key[0] = keys[i];
  }
}

RunResult run_hier_bulk(const RunOptions& opt) {
  RunResult out;
  out.pool_threads = kHierThreads;
  util::ThreadPool::set_global_threads(kHierThreads);

  EndToEnd e2e;
  Layers L;
  SetupTimes setup;
  double b = 0, p = 0;
  const std::unique_ptr<HierStructure> s = build_hier(opt.seed, b, p);
  setup.add(b, p);
  const std::size_t cap = s->engine->capacity();
  s->spare = std::make_unique<msearch::PreparedSearch<ds::HashWalk>>(
      *s->dag, msearch::PlanKind::kPaper, ds::HashWalk{0}, s->spare_model,
      s->g.shape_for(s->g.vertex_count()));

  // Inputs: kHierBatchesPerPass capacity batches of uniform 40-bit keys,
  // replayed by every pass; the oracle's answers are computed once.
  std::vector<std::vector<std::int64_t>> keys(kHierBatchesPerPass);
  std::vector<std::vector<QueryOutcome>> expected(kHierBatchesPerPass);
  std::vector<Query> stream;
  for (std::size_t b = 0; b < kHierBatchesPerPass; ++b) {
    util::Rng rng(derive_seed(opt.seed, 100 + b));
    keys[b].resize(cap);
    for (auto& k : keys[b])
      k = static_cast<std::int64_t>(rng.uniform(std::uint64_t{1} << 40));
    fill_queries(stream, keys[b]);
    expected[b] = oracle_outcomes(s->g, ds::HashWalk{0}, stream);
  }

  msearch::StreamScheduler<ds::HashWalk> sched(*s->engine,
                                               msearch::BatchPolicy{});
  Charged first;
  const auto loop_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool timed = pass > 0;
    if (timed && pass > kMinTimedPasses &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds)
      break;
    std::unique_ptr<trace::TraceRecorder> rec;
    if (opt.trace) rec = std::make_unique<trace::TraceRecorder>();
    double pass_s = 0, steps = 0, cpu = 0;
    Samples pass_steps;
    std::size_t answered = 0;
    for (std::size_t b = 0; b < kHierBatchesPerPass; ++b) {
      fill_queries(stream, keys[b]);
      s->model.trace = rec.get();
      const double cpu0 = cpu_seconds();
      const auto t0 = Clock::now();
      const msearch::StreamResult res = sched.run(stream);
      const auto t1 = Clock::now();
      cpu += cpu_seconds() - cpu0;
      s->model.trace = nullptr;
      pass_s += seconds_between(t0, t1);
      // Reported-failed queries are not served either.
      const std::size_t bad =
          std::min(count_mismatches(msearch::outcomes(stream), expected[b]) +
                       res.failed_queries.size(),
                   stream.size());
      out.attempted += stream.size();
      out.failed += bad;
      answered += stream.size() - bad;
      steps += (res.inject + res.run).steps;
      for (const auto& br : res.batches) pass_steps.add((br.inject + br.run).steps);
      if (timed) {
        e2e.latency_ms.add(ms_between(t0, t1));
        if (opt.trace) {
          L.scheduler += seconds_between(t0, t1);
          for (const auto& br : res.batches) {
            L.engine += 1e-6 * br.wall_us;
            L.run_batch += 1e-6 * br.wall_us;
            L.run_batch_us.add(br.wall_us);
            L.batch_queries += br.size;
            L.batch_capacity += cap;
            L.visits += br.visits;
          }
        }
      }
    }
    Charged c;
    c.steps_per_query = steps / static_cast<double>(kHierBatchesPerPass * cap);
    c.p99_steps = pass_steps.pct(0.99);
    c.prim = prim_steps_of(rec.get());
    if (pass == 0) {
      first = c;
      e2e.steps_per_query = c.steps_per_query;
      e2e.latency_steps = pass_steps;
    }
    check_charged(out, first, c, pass);
    if (!timed) continue;
    e2e.pass_qps.add(static_cast<double>(answered) / pass_s);
    e2e.pass_ends.push_back(e2e.latency_ms.count());
    L.cpu += cpu;
    L.cpu_wall += pass_s;
    if (opt.trace) {
      L.timed += pass_s;
      L.answered += answered;
      L.add_recorder(*rec);
    }

    // A throwaway set-up, between passes, two passes away from the update.
    if (pass % kHierRefreshEvery == 3) {
      build_hier(opt.seed, b, p);
      setup.add(b, p);
    }

    // The update, between passes and outside their timers: a forced full
    // re-setup of the spare engine, the path every topological delta takes
    // on an Algorithm-1 engine (the E1 generator's DAG has no
    // apply_updates). Spread over the run so that it samples the same host
    // conditions as the batches, starting after the first timed pass so
    // that even the shortest run has one. Untraced.
    if (pass % kHierRefreshEvery != 1) continue;
    const auto u0 = Clock::now();
    msearch::RefreshRequest req;
    req.force_full = true;
    s->spare->refresh(req);
    const double ms = ms_between(u0, Clock::now());
    e2e.update_ms.add(ms);
    L.refresh_ms.add(ms);
    ++L.refreshes;
  }
  setup.report(e2e, L);
  if (opt.trace)
    emit_layers(L, out);
  else
    emit_end_to_end(e2e, out);
  return out;
}

// ---------------------------------------------------------------------------
// service_rw: multi-tenant reads beside writes
// ---------------------------------------------------------------------------

constexpr std::size_t kTreeKeys = std::size_t{1} << 14;
constexpr std::size_t kReadersPerEngine = 4;
constexpr std::size_t kBurst = 256;
constexpr std::size_t kRounds = 50;  ///< closed-loop rounds per pass
constexpr std::size_t kUpdateEvery = 4;  ///< rounds between writer updates
constexpr std::size_t kUpdateKeys = 16;
constexpr unsigned kServiceThreads = 1;
constexpr std::uint32_t kNoTag = ~std::uint32_t{0};

struct ServiceStructures {
  std::unique_ptr<ds::KaryTree> tree2;  ///< k=3 directed: Algorithm 2
  std::unique_ptr<ds::KaryTree> tree3;  ///< k=2 undirected: Algorithm 3
  service::EngineRegistry registry;
  TimedEngine* e2 = nullptr;
  TimedEngine* e3 = nullptr;
};

std::unique_ptr<ServiceStructures> build_service(double& build_s,
                                                 double& prepare_s) {
  const auto t0 = Clock::now();
  auto s = std::make_unique<ServiceStructures>();
  s->tree2 = std::make_unique<ds::KaryTree>(ds::iota_keys(kTreeKeys), 3,
                                            ds::TreeMode::kDirected);
  s->tree3 = std::make_unique<ds::KaryTree>(ds::iota_keys(kTreeKeys), 2,
                                            ds::TreeMode::kUndirected);
  const auto t1 = Clock::now();
  const mesh::CostModel model;
  const auto& g2 = s->tree2->graph();
  auto e2 = std::make_unique<TimedEngine>(service::make_partitioned_engine(
      msearch::EngineKind::kAlg2Alpha, g2, s->tree2->alpha_splitting(),
      s->tree2->alpha_splitting(), s->tree2->rank_count(), model,
      g2.shape_for(g2.vertex_count())));
  s->e2 = e2.get();
  s->registry.add({"kary3", msearch::EngineKind::kAlg2Alpha}, std::move(e2));
  const auto& g3 = s->tree3->graph();
  auto [psi1, psi2] = s->tree3->alpha_beta_splittings();
  auto e3 = std::make_unique<TimedEngine>(service::make_partitioned_engine(
      msearch::EngineKind::kAlg3AlphaBeta, g3, std::move(psi1),
      std::move(psi2), s->tree3->euler_scan(), model,
      g3.shape_for(g3.vertex_count())));
  s->e3 = e3.get();
  s->registry.add({"kary2", msearch::EngineKind::kAlg3AlphaBeta},
                  std::move(e3));
  const auto t2 = Clock::now();
  build_s = seconds_between(t0, t1);
  prepare_s = seconds_between(t1, t2);
  return s;
}

/// One closed-loop reader tenant: keeps one burst in flight.
struct Reader {
  service::TenantSession* session = nullptr;
  bool alg2 = false;  ///< reads the updated tree (Algorithm 2 engine)
  const std::vector<std::vector<Query>>* inputs = nullptr;  ///< by burst
  const std::uint32_t* version = nullptr;
  std::size_t bursts = 0;  ///< submitted this pass
  std::size_t left = 0;    ///< unresolved queries of the in-flight burst
  Clock::time_point submitted;
  double max_steps = 0;
  std::vector<std::uint32_t> tags;  ///< structure version per ticket
  Samples burst_ms, burst_steps;
};

/// The writer's UpdateFn state: applies update `u` of the pass's script to
/// the k=3 tree and counts structure versions.
struct Writer {
  ds::KaryTree* tree = nullptr;
  const std::vector<std::vector<ds::WeightedKey>>* script = nullptr;
  std::uint32_t version = 0;  ///< updates applied this pass
  double fn_s = 0, apply_s = 0;
  Samples apply_us, dirty;
};

struct PassResult {
  double timed_s = 0, cpu_s = 0, export_ms = 0;
  std::size_t attempted = 0, failed = 0, answered = 0;
  Charged charged;
  Samples burst_ms, submit_us, pump_ms, update_ms;
  double admission_s = 0, pump_s = 0;
  std::vector<std::vector<QueryOutcome>> outcomes;  ///< per reader, by ticket
  std::vector<std::vector<std::uint32_t>> tags;     ///< per reader, by ticket
  Samples burst_steps;
};

class ServiceBench {
 public:
  ServiceBench(const RunOptions& opt, ServiceStructures& s) : opt_(opt), s_(s) {
    // Reader bursts: Algorithm-2 readers ask ranks of uniform keys (a few
    // past the key range); Algorithm-3 readers ask weight sums over ranges
    // of at most 30 keys.
    inputs_.resize(2 * kReadersPerEngine);
    for (std::size_t r = 0; r < inputs_.size(); ++r) {
      util::Rng rng(derive_seed(opt.seed, 1000 + r));
      for (std::size_t b = 0; b < kRounds; ++b) {
        if (r < kReadersPerEngine) {
          inputs_[r].push_back(
              ds::uniform_key_queries(kBurst, kTreeKeys + 20, rng));
        } else {
          auto qs = msearch::make_queries(kBurst);
          for (auto& q : qs) {
            const auto lo = rng.uniform_range(
                -3, static_cast<std::int64_t>(kTreeKeys) + 3);
            q.key[0] = lo;
            q.key[1] = lo + rng.uniform_range(0, 29);
          }
          inputs_[r].push_back(std::move(qs));
        }
      }
    }
    // The writer's script: weight updates of 16 distinct existing keys.
    util::Rng rng(derive_seed(opt.seed, 2000));
    for (std::size_t u = 0; u < kRounds / kUpdateEvery; ++u) {
      std::set<std::int64_t> picked;
      while (picked.size() < kUpdateKeys)
        picked.insert(static_cast<std::int64_t>(rng.uniform(kTreeKeys)));
      std::vector<ds::WeightedKey> batch;
      for (const auto k : picked)
        batch.push_back({k, static_cast<std::int64_t>(2 + rng.uniform(8))});
      touched_.insert(picked.begin(), picked.end());
      script_.push_back(std::move(batch));
    }
  }

  /// One pass: a fresh scheduler and fresh sessions on the warm engines,
  /// kRounds closed-loop rounds, then, outside the timer, one throwaway
  /// set-up timed into `setup`, and the structure is restored to its
  /// initial weights so every pass replays the same versions.
  PassResult run_pass(trace::TraceRecorder* rec, SetupTimes& setup) {
    PassResult pr;
    s_.e2->reset();
    s_.e3->reset();
    Writer writer;
    writer.tree = s_.tree2.get();
    writer.script = &script_;
    service::ServiceScheduler sched(service::ServiceConfig{}, rec);
    std::vector<Reader> readers(2 * kReadersPerEngine);
    // DRR serves tenants in registration order, so burst latency is a
    // staircase over positions and its median sits between positions 3 and
    // 4. Registering the slow Algorithm-3 readers first puts only one short
    // Algorithm-2 slice in that gap.
    for (std::size_t i = 0; i < readers.size(); ++i) {
      const std::size_t r = (i + kReadersPerEngine) % readers.size();
      Reader& rd = readers[r];
      rd.alg2 = r < kReadersPerEngine;
      rd.inputs = &inputs_[r];
      rd.version = &writer.version;
      rd.tags.assign(kRounds * kBurst, kNoTag);
      rd.session = &sched.add_tenant("reader" + std::to_string(r),
                                     rd.alg2 ? *s_.e2 : *s_.e3,
                                     service::TenantQuota{.max_outstanding = kBurst});
      rd.session->on_complete([&rd](const service::CompletionEvent& ev) {
        rd.tags[ev.ticket] = *rd.version;
        rd.max_steps = std::max(rd.max_steps, ev.latency_steps);
        if (--rd.left == 0) {
          rd.burst_ms.add(ms_between(rd.submitted, Clock::now()));
          rd.burst_steps.add(rd.max_steps);
        }
      });
    }
    auto& wt = sched.add_tenant("writer", *s_.e2);
    std::vector<Clock::time_point> update_submitted;

    const double cpu0 = cpu_seconds();
    const auto t_start = Clock::now();
    const auto pump = [&] {
      const auto t0 = Clock::now();
      sched.pump();
      const auto t1 = Clock::now();
      pr.pump_ms.add(ms_between(t0, t1));
      pr.pump_s += seconds_between(t0, t1);
    };
    for (std::size_t round = 0; round < kRounds; ++round) {
      for (Reader& rd : readers) {
        if (rd.left != 0) continue;
        std::vector<Query> burst = (*rd.inputs)[rd.bursts];
        rd.left = burst.size();
        rd.max_steps = 0;
        const auto t0 = Clock::now();
        rd.submitted = t0;
        rd.session->submit(std::move(burst));
        const auto t1 = Clock::now();
        pr.submit_us.add(1e6 * seconds_between(t0, t1));
        pr.admission_s += seconds_between(t0, t1);
        ++rd.bursts;
      }
      if (round % kUpdateEvery == kUpdateEvery - 1) {
        const std::size_t u = update_submitted.size();
        Writer* w = &writer;
        const auto t0 = Clock::now();
        wt.submit_update([w, u] {
          const auto a0 = Clock::now();
          msearch::RefreshRequest req;
          req.delta = w->tree->apply_updates((*w->script)[u], {});
          const auto a1 = Clock::now();
          ++w->version;
          w->apply_us.add(1e6 * seconds_between(a0, a1));
          w->apply_s += seconds_between(a0, a1);
          w->dirty.add(static_cast<double>(req.delta.dirty_vertices.size()));
          w->fn_s += seconds_between(a0, Clock::now());
          return req;
        });
        pr.admission_s += seconds_between(t0, Clock::now());
        update_submitted.push_back(t0);
      }
      pump();
    }
    while (!sched.idle()) pump();
    const auto t_end = Clock::now();
    pr.timed_s = seconds_between(t_start, t_end);
    pr.cpu_s = cpu_seconds() - cpu0;
    if (rec != nullptr) {
      const auto e0 = Clock::now();
      sched.export_metrics();
      pr.export_ms = ms_between(e0, Clock::now());
    }

    // Update latency: submit_update -> the refresh that applied it returned.
    const auto& ends = s_.e2->times().refresh_end;
    for (std::size_t u = 0; u < update_submitted.size(); ++u)
      pr.update_ms.add(u < ends.size() ? ms_between(update_submitted[u], ends[u])
                                       : ms_between(update_submitted[u], t_end));
    if (ends.size() != update_submitted.size()) pr.failed += 1;

    // Harvest answers, tags and charged values.
    double steps = 0;
    for (Reader& rd : readers) {
      const auto rep = rd.session->report();
      steps += (rep.inject + rep.run).steps;
      // An unanswered ticket reads as a query with path length -1, which
      // no oracle answer has.
      Query unanswered;
      unanswered.steps = -1;
      std::vector<Query> served(rd.session->submitted(), unanswered);
      for (std::size_t t = 0; t < served.size(); ++t) {
        if (rd.session->poll(t) != service::QueryState::kDone) continue;
        served[t] = rd.session->result(t);
        ++pr.answered;
      }
      auto outc = msearch::outcomes(served);
      pr.attempted += outc.size();
      rd.tags.resize(outc.size());
      pr.outcomes.push_back(std::move(outc));
      pr.tags.push_back(std::move(rd.tags));
      pr.burst_ms.append(rd.burst_ms);
      pr.burst_steps.append(rd.burst_steps);
    }
    pr.charged.steps_per_query =
        steps / static_cast<double>(std::max<std::size_t>(pr.answered, 1));
    pr.charged.p99_steps = pr.burst_steps.pct(0.99);
    pr.charged.prim = prim_steps_of(rec);
    writer_ = writer;

    // The throwaway set-up runs while the pass's sessions are still alive,
    // so that its memory lies above theirs and every pass reuses the same
    // heap: set-ups between passes then leave the peak RSS unchanged.
    double b = 0, p = 0;
    build_service(b, p);
    setup.add(b, p);
    restore();
    return pr;
  }

  /// The oracle's answer for every (reader, ticket) of `pr`, each under the
  /// structure version its completion callback tagged it with.
  std::vector<std::vector<QueryOutcome>> oracle(const PassResult& pr) const {
    std::vector<std::vector<QueryOutcome>> exp(pr.outcomes.size());
    const auto input_of = [&](std::size_t r, std::size_t t) {
      return inputs_[r][t / kBurst][t % kBurst];
    };
    // Algorithm-3 readers: the k=2 tree never changes.
    for (std::size_t r = kReadersPerEngine; r < pr.outcomes.size(); ++r) {
      std::vector<Query> in;
      for (std::size_t t = 0; t < pr.outcomes[r].size(); ++t)
        in.push_back(input_of(r, t));
      exp[r] = oracle_outcomes(s_.tree3->graph(), s_.tree3->euler_scan(), in);
    }
    // Algorithm-2 readers: replay the writer's script on a fresh tree,
    // answering each version's queries before applying the next update.
    ds::KaryTree replay(ds::iota_keys(kTreeKeys), 3, ds::TreeMode::kDirected);
    for (std::size_t r = 0; r < kReadersPerEngine; ++r)
      exp[r].assign(pr.outcomes[r].size(), QueryOutcome{-2, 0, 0, msearch::kNoVertex});
    for (std::uint32_t v = 0; v <= script_.size(); ++v) {
      std::vector<Query> in;
      std::vector<std::pair<std::size_t, std::size_t>> where;
      for (std::size_t r = 0; r < kReadersPerEngine; ++r)
        for (std::size_t t = 0; t < pr.tags[r].size(); ++t)
          if (pr.tags[r][t] == v) {
            in.push_back(input_of(r, t));
            where.emplace_back(r, t);
          }
      const auto ans = oracle_outcomes(replay.graph(), replay.rank_count(), in);
      for (std::size_t i = 0; i < ans.size(); ++i)
        exp[where[i].first][where[i].second] = ans[i];
      if (v < script_.size()) replay.apply_updates(script_[v], {});
    }
    return exp;
  }

  const Writer& last_writer() const { return writer_; }

 private:
  /// Put every touched key back to its initial weight and refresh the
  /// engine directly (not through the timed decorator).
  void restore() {
    std::vector<ds::WeightedKey> back;
    for (const auto k : touched_) back.push_back({k, 1});
    msearch::RefreshRequest req;
    req.delta = s_.tree2->apply_updates(back, {});
    s_.e2->inner().refresh(req);
  }

  const RunOptions& opt_;
  ServiceStructures& s_;
  std::vector<std::vector<std::vector<Query>>> inputs_;  ///< reader, burst
  std::vector<std::vector<ds::WeightedKey>> script_;
  std::set<std::int64_t> touched_;
  Writer writer_;
};

std::size_t count_pass_failures(const PassResult& pr,
                                const std::vector<std::vector<QueryOutcome>>& exp,
                                const std::vector<std::vector<std::uint32_t>>& exp_tags) {
  std::size_t bad = pr.failed;
  for (std::size_t r = 0; r < pr.outcomes.size(); ++r) {
    if (pr.outcomes[r].size() != exp[r].size()) {
      bad += std::max(pr.outcomes[r].size(), exp[r].size());
      continue;
    }
    for (std::size_t t = 0; t < pr.outcomes[r].size(); ++t)
      bad += pr.outcomes[r][t] == exp[r][t] && pr.tags[r][t] == exp_tags[r][t] ? 0 : 1;
  }
  return std::min(bad, pr.attempted);
}

RunResult run_service(const RunOptions& opt) {
  RunResult out;
  out.pool_threads = kServiceThreads;
  util::ThreadPool::set_global_threads(kServiceThreads);

  EndToEnd e2e;
  Layers L;
  SetupTimes setup;
  double b = 0, p = 0;
  const std::unique_ptr<ServiceStructures> s = build_service(b, p);
  setup.add(b, p);

  ServiceBench bench(opt, *s);
  // Only the per-layer run carries a recorder, on every other pass: the
  // untraced passes between them measure the recorder's overhead.
  const auto with_recorder = [&](std::size_t pass) {
    return opt.trace && pass % 2 == 0;
  };

  std::vector<std::vector<QueryOutcome>> expected;
  std::vector<std::vector<std::uint32_t>> expected_tags;
  Charged first;
  Samples qps_traced, qps_plain;
  const auto loop_start = Clock::now();
  for (std::size_t pass = 0;; ++pass) {
    const bool timed = pass > 0;
    if (timed && pass > (opt.trace ? 2 * kMinTimedPasses : kMinTimedPasses) &&
        seconds_between(loop_start, Clock::now()) >= opt.seconds)
      break;
    std::unique_ptr<trace::TraceRecorder> rec;
    if (with_recorder(pass)) rec = std::make_unique<trace::TraceRecorder>();
    PassResult pr = bench.run_pass(rec.get(), setup);
    if (pass == 0) {
      // Warm-up: establish the oracle's answers and the charged values.
      expected = bench.oracle(pr);
      expected_tags = pr.tags;
      first = pr.charged;
      e2e.steps_per_query = pr.charged.steps_per_query;
      e2e.latency_steps = pr.burst_steps;
    }
    // Charged values depend on whether a recorder counted primitives.
    Charged cmp = pr.charged;
    if (rec == nullptr) cmp.prim = first.prim;
    check_charged(out, first, cmp, pass);
    const std::size_t bad = count_pass_failures(pr, expected, expected_tags);
    out.attempted += pr.attempted;
    out.failed += bad;
    if (!timed) continue;
    const double qps = static_cast<double>(pr.answered - std::min(bad, pr.answered)) /
                       pr.timed_s;
    (rec != nullptr ? qps_traced : qps_plain).add(qps);
    e2e.pass_qps.add(qps);
    e2e.latency_ms.append(pr.burst_ms);
    e2e.pass_ends.push_back(e2e.latency_ms.count());
    e2e.update_ms.append(pr.update_ms);
    if (!opt.trace || rec == nullptr) continue;
    const Writer& w = bench.last_writer();
    const EngineTimes& t2 = s->e2->times();
    const EngineTimes& t3 = s->e3->times();
    L.timed += pr.timed_s;
    L.admission += pr.admission_s;
    L.scheduler += pr.pump_s;
    L.run_batch += 1e-6 * (t2.run_batch_us.sum() + t3.run_batch_us.sum());
    L.engine += 1e-6 * (t2.run_batch_us.sum() + t3.run_batch_us.sum() +
                        t2.refresh_us.sum() + t3.refresh_us.sum());
    L.update_fn += w.fn_s;
    L.apply += w.apply_s;
    L.submit_us.append(pr.submit_us);
    L.pump_ms.append(pr.pump_ms);
    L.run_batch_us.append(t2.run_batch_us);
    L.run_batch_us.append(t3.run_batch_us);
    for (const double us : t2.refresh_us.values()) L.refresh_ms.add(1e-3 * us);
    L.refreshes += t2.refresh_us.count();
    L.incremental += t2.incremental_refreshes;
    L.apply_us.append(w.apply_us);
    L.dirty.append(w.dirty);
    L.batch_queries += t2.queries + t3.queries;
    L.batch_capacity += t2.capacity + t3.capacity;
    L.visits += t2.visits + t3.visits;
    L.answered += pr.answered;
    L.export_ms.add(pr.export_ms);
    L.cpu += pr.cpu_s;
    L.cpu_wall += pr.timed_s;
    L.add_recorder(*rec);
  }
  if (opt.trace)
    L.overhead_frac = 1.0 - qps_traced.median() / qps_plain.median();
  setup.report(e2e, L);
  if (opt.trace)
    emit_layers(L, out);
  else
    emit_end_to_end(e2e, out);
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  RunResult r;
  if (opt.workload == "hier_bulk")
    r = run_hier_bulk(opt);
  else if (opt.workload == "service_rw")
    r = run_service(opt);
  else
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  if (r.failed != 0) r.correct = false;
  return r;
}

}  // namespace perfbench
