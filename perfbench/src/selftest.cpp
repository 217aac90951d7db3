// Self-tests of the benchmark's own instruments. Run with
// `python3 perfbench/run.py --selftest` (or the built perfbench_selftest):
//
//   * percentile() is exact: it returns the nearest-rank sample, never a
//     bucket midpoint;
//   * the TimedEngine decorator leaves outcomes, charged steps and the
//     recorder's per-primitive attribution bit-identical;
//   * the oracle check fires on a corrupted answer.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "datastruct/kary_tree.hpp"
#include "datastruct/workloads.hpp"
#include "harness.hpp"
#include "measure.hpp"
#include "service/scheduler.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

using namespace meshsearch;
using perfbench::percentile;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void test_percentile() {
  expect(percentile({5.0}, 0.5) == 5.0 && percentile({5.0}, 1.0) == 5.0,
         "percentile: one sample is every percentile");
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  util::Rng rng(3);
  std::shuffle(v.begin(), v.end(), rng);
  expect(percentile(v, 0.5) == 50.0, "percentile: p50 of 1..100 is 50");
  expect(percentile(v, 0.99) == 99.0, "percentile: p99 of 1..100 is 99");
  expect(percentile(v, 1.0) == 100.0, "percentile: p100 is the maximum");
  expect(percentile(v, 0.01) == 1.0, "percentile: p1 of 1..100 is 1");
  expect(percentile({10, 20, 30, 40}, 0.5) == 20.0 &&
             percentile({10, 20, 30, 40}, 0.75) == 30.0,
         "percentile: nearest rank, no interpolation");
  // Values a log-bucketed histogram reports only to within ~9%.
  expect(percentile({108.1, 90.9, 99.1}, 0.5) == 99.1,
         "percentile: returns the sample itself");
  bool threw = false;
  try {
    percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "percentile: no samples is an error");
}

std::vector<msearch::Query> rank_queries(std::size_t n, std::size_t keys,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  return ds::uniform_key_queries(n, keys + 5, rng);
}

void test_decorator_identity() {
  constexpr std::size_t kKeys = 300;
  ds::KaryTree tree(ds::iota_keys(kKeys), 3, ds::TreeMode::kDirected);
  const auto& g = tree.graph();
  const auto shape = g.shape_for(g.vertex_count());
  const mesh::CostModel model;
  const auto make = [&] {
    return service::make_partitioned_engine(
        msearch::EngineKind::kAlg2Alpha, g, tree.alpha_splitting(),
        tree.alpha_splitting(), tree.rank_count(), model, shape);
  };
  auto plain = make();
  perfbench::TimedEngine timed(make());
  trace::TraceRecorder rec_plain, rec_timed;
  plain->bind_sinks(&rec_plain, nullptr);
  timed.bind_sinks(&rec_timed, nullptr);

  const auto same_batch = [&](std::uint64_t seed) {
    auto a = rank_queries(plain->capacity(), kKeys, seed);
    auto b = a;
    const auto ra = plain->run_batch(a);
    const auto rb = timed.run_batch(b);
    return msearch::outcomes(a) == msearch::outcomes(b) &&
           ra.inject.steps == rb.inject.steps && ra.run.steps == rb.run.steps &&
           ra.visits == rb.visits;
  };
  expect(same_batch(11), "decorator: run_batch outcomes and charges identical");

  std::vector<ds::WeightedKey> upd;
  for (std::int64_t k = 0; k < 16; ++k) upd.push_back({k * 7, 3});
  msearch::RefreshRequest req;
  req.delta = tree.apply_updates(upd, {});
  const auto fa = plain->refresh(req);
  const auto fb = timed.refresh(req);
  expect(fa.incremental == fb.incremental && fa.cost.steps == fb.cost.steps,
         "decorator: refresh report identical");
  expect(same_batch(12), "decorator: post-update batch identical");
  expect(rec_plain.counters() == rec_timed.counters() &&
             rec_plain.total_steps() == rec_timed.total_steps(),
         "decorator: per-primitive attribution identical");
  expect(timed.times().run_batch_us.count() == 2 &&
             timed.times().refresh_us.count() == 1,
         "decorator: every call timed");

  // Through the service: same virtual clock and answers.
  const auto serve = [&](service::Engine& e) {
    service::ServiceScheduler sched;
    auto& t = sched.add_tenant("t", e);
    t.submit(rank_queries(200, kKeys, 13));
    sched.run_until_idle();
    std::vector<msearch::Query> answered;
    for (service::Ticket k = 0; k < 200; ++k) answered.push_back(t.result(k));
    return std::make_pair(sched.now_steps(), msearch::outcomes(answered));
  };
  expect(serve(*plain) == serve(timed),
         "decorator: service clock and answers identical");
}

void test_oracle_fires() {
  constexpr std::size_t kKeys = 200;
  ds::KaryTree tree(ds::iota_keys(kKeys), 2, ds::TreeMode::kUndirected);
  const auto& g = tree.graph();
  const mesh::CostModel model;
  auto [s1, s2] = tree.alpha_beta_splittings();
  auto engine = service::make_partitioned_engine(
      msearch::EngineKind::kAlg3AlphaBeta, g, s1, s2, tree.euler_scan(), model,
      g.shape_for(g.vertex_count()));
  auto batch = msearch::make_queries(100);
  util::Rng rng(5);
  for (auto& q : batch) {
    q.key[0] = rng.uniform_range(0, kKeys);
    q.key[1] = q.key[0] + rng.uniform_range(0, 29);
  }
  const auto expected = perfbench::oracle_outcomes(g, tree.euler_scan(), batch);
  engine->run_batch(batch);
  auto served = msearch::outcomes(batch);
  expect(perfbench::count_mismatches(served, expected) == 0,
         "oracle: engine answers match");
  served[17].acc0 += 1;
  expect(perfbench::count_mismatches(served, expected) == 1,
         "oracle: a corrupted accumulator is caught");
  served[17] = expected[17];
  served[42].steps -= 1;
  expect(perfbench::count_mismatches(served, expected) == 1,
         "oracle: a corrupted path length is caught");
  served.pop_back();
  expect(perfbench::count_mismatches(served, expected) != 0,
         "oracle: a missing answer is caught");
}

}  // namespace

int main() {
  test_percentile();
  test_decorator_identity();
  test_oracle_fires();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
