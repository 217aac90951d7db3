// Instruments the benchmark wraps around the library's public API: a
// forwarding Engine decorator that times run_batch and refresh, and the
// sequential-oracle answer check.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "service/engine.hpp"
#include "util/parallel_for.hpp"

namespace perfbench {

/// What a TimedEngine saw since its last reset().
struct EngineTimes {
  Samples run_batch_us;  ///< wall time of each run_batch call
  Samples refresh_us;    ///< wall time of each refresh call
  std::vector<Clock::time_point> refresh_end;  ///< when each refresh returned
  std::size_t queries = 0;   ///< queries handed to run_batch
  std::size_t capacity = 0;  ///< sum of capacity() over run_batch calls
  std::size_t visits = 0;    ///< BatchReport::visits summed
  std::size_t incremental_refreshes = 0;
};

/// Forwarding Engine decorator: every call goes to the wrapped engine
/// unchanged; run_batch and refresh are timed from outside. Its own circuit
/// breaker (the Engine base member) stays disabled, so the scheduler's
/// breaker consultation is a no-op as it is for an undecorated engine.
class TimedEngine final : public meshsearch::service::Engine {
 public:
  explicit TimedEngine(std::unique_ptr<Engine> inner) : inner_(std::move(inner)) {}

  Engine& inner() { return *inner_; }
  EngineTimes& times() { return times_; }
  void reset() { times_ = EngineTimes{}; }

  meshsearch::msearch::EngineKind kind() const override { return inner_->kind(); }
  std::size_t capacity() const override { return inner_->capacity(); }
  meshsearch::mesh::Cost setup_cost() const override {
    return inner_->setup_cost();
  }
  std::size_t batches_served() const override { return inner_->batches_served(); }
  const std::string& dataset() const override { return inner_->dataset(); }
  void set_dataset(std::string name) override {
    inner_->set_dataset(std::move(name));
  }
  std::uint64_t structure_generation() const override {
    return inner_->structure_generation();
  }
  std::uint64_t prepared_generation() const override {
    return inner_->prepared_generation();
  }
  bool stale() const override { return inner_->stale(); }
  std::size_t refreshes() const override { return inner_->refreshes(); }
  void bind_sinks(meshsearch::trace::TraceRecorder* trace,
                  meshsearch::mesh::FaultPlan* fault) override {
    inner_->bind_sinks(trace, fault);
  }

  meshsearch::msearch::RefreshReport refresh(
      const meshsearch::msearch::RefreshRequest& req) override {
    const auto t0 = Clock::now();
    const auto rep = inner_->refresh(req);
    const auto t1 = Clock::now();
    times_.refresh_us.add(1e6 * seconds_between(t0, t1));
    times_.refresh_end.push_back(t1);
    if (rep.incremental) ++times_.incremental_refreshes;
    return rep;
  }

  meshsearch::msearch::BatchReport run_batch(
      std::vector<meshsearch::msearch::Query>& batch) override {
    const auto t0 = Clock::now();
    const auto rep = inner_->run_batch(batch);
    const auto t1 = Clock::now();
    times_.run_batch_us.add(1e6 * seconds_between(t0, t1));
    times_.queries += batch.size();
    times_.capacity += inner_->capacity();
    times_.visits += rep.visits;
    return rep;
  }

 private:
  std::unique_ptr<Engine> inner_;
  EngineTimes times_;
};

/// The sequential oracle's answers for `inputs` (fresh, unanswered queries),
/// computed with msearch::sequential_multisearch over fixed chunks on the
/// global pool. Each query's answer depends only on the query and `g`, so
/// chunking cannot change any outcome.
template <meshsearch::msearch::SearchProgram P>
std::vector<meshsearch::msearch::QueryOutcome> oracle_outcomes(
    const meshsearch::msearch::DistributedGraph& g, const P& prog,
    const std::vector<meshsearch::msearch::Query>& inputs) {
  std::vector<meshsearch::msearch::QueryOutcome> out(inputs.size());
  meshsearch::util::ThreadPool::global().parallel_for_chunks(
      0, inputs.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::vector<meshsearch::msearch::Query> part(
            inputs.begin() + static_cast<std::ptrdiff_t>(lo),
            inputs.begin() + static_cast<std::ptrdiff_t>(hi));
        meshsearch::msearch::sequential_multisearch(g, prog, part);
        const auto answers = meshsearch::msearch::outcomes(part);
        std::copy(answers.begin(), answers.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(lo));
      },
      /*grain=*/4096);
  return out;
}

/// Number of positions where `served` differs from `expected` (sizes must
/// match; a size mismatch counts every position of the longer one).
inline std::size_t count_mismatches(
    const std::vector<meshsearch::msearch::QueryOutcome>& served,
    const std::vector<meshsearch::msearch::QueryOutcome>& expected) {
  if (served.size() != expected.size())
    return std::max(served.size(), expected.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < served.size(); ++i)
    bad += served[i] == expected[i] ? 0 : 1;
  return bad;
}

}  // namespace perfbench
