// Warm-engine registry for the multi-tenant query service.
//
// PreparedSearch<P> (multisearch/stream.hpp) is a template over the search
// program, so four different engine kinds are four unrelated C++ types. The
// service layer needs to hold them in one table and swap per-tenant
// observability sinks between batches, so this header type-erases a warm
// engine behind `Engine`:
//
//   * PreparedEngine<P> owns BOTH the PreparedSearch and the CostModel it
//     charges through. PreparedSearch keeps a pointer to the model, so the
//     wrapper can repoint model.trace / model.fault between run_batch calls
//     (bind_sinks) — that is how one warm engine serves many tenants, each
//     with its own fault plan, without re-charging setup per tenant.
//   * EngineRegistry maps (dataset, EngineKind) -> Engine. "dataset" is a
//     caller-chosen name for the structure the engine was prepared on; the
//     plan kind is folded into EngineKind (kAlg1Paper vs kAlg1Geometric),
//     so the key is exactly the paper-level identity of a warm structure.
//
// Construction charges the one-time setup through the model it is given
// (landing in whatever trace the caller bound at prepare time); after that
// the registry hands out warm engines and nothing re-charges setup — the
// amortization the service exists to exploit.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "multisearch/stream.hpp"
#include "service/breaker.hpp"

namespace meshsearch::service {

/// Type-erased warm engine: one prepared search structure, ready to serve
/// capacity-clamped batches. Implementations own their CostModel so sinks
/// can be swapped per tenant (bind_sinks) between batches.
class Engine {
 public:
  virtual ~Engine() = default;

  virtual msearch::EngineKind kind() const = 0;
  /// Largest batch the initial configuration admits (one query/processor).
  virtual std::size_t capacity() const = 0;
  /// The one-time setup charged when the engine was prepared.
  virtual mesh::Cost setup_cost() const = 0;
  virtual std::size_t batches_served() const = 0;

  /// Dataset name carried into StaleEngineError messages. EngineRegistry
  /// stamps this from the key at add() time.
  virtual const std::string& dataset() const = 0;
  virtual void set_dataset(std::string name) = 0;

  /// Generation of the underlying structure's graph right now.
  virtual std::uint64_t structure_generation() const = 0;
  /// Generation the engine's distribution was prepared against.
  virtual std::uint64_t prepared_generation() const = 0;
  /// True when the structure mutated after this engine was prepared;
  /// run_batch then throws StaleEngineError until refresh() is called.
  virtual bool stale() const = 0;
  virtual std::size_t refreshes() const = 0;

  /// Re-synchronize with the mutated structure: incremental dirty-band
  /// re-distribution when the delta allows, full re-setup otherwise (see
  /// PreparedSearch::refresh).
  virtual msearch::RefreshReport refresh(const msearch::RefreshRequest& req) = 0;

  /// Point subsequent charges at a tenant's sinks. Either may be null
  /// (null trace = unattributed, null fault = fault-free). Affects only
  /// observability and fault injection — never outcomes of a fault-free run.
  virtual void bind_sinks(trace::TraceRecorder* trace,
                          mesh::FaultPlan* fault) = 0;

  /// Run one warm batch (inject + multisearch, no setup). Queries are
  /// advanced in place. batch.size() must be at most capacity().
  virtual msearch::BatchReport run_batch(std::vector<msearch::Query>& batch) = 0;

  /// This engine's circuit breaker (service/breaker.hpp) — per registered
  /// engine, i.e. per (dataset, EngineKind) key, shared by every tenant the
  /// engine serves. Disabled by default; breaker().configure arms it (a
  /// threshold of 0 disarms it). The ServiceScheduler consults it
  /// before every dispatch and feeds it every batch outcome.
  CircuitBreaker& breaker() { return breaker_; }
  const CircuitBreaker& breaker() const { return breaker_; }

 private:
  CircuitBreaker breaker_;
};

/// The concrete wrapper: PreparedSearch<P> plus the CostModel it charges
/// through. Member order matters — model_ must outlive prepared_, which
/// captures `&model_` at construction.
template <msearch::SearchProgram P>
class PreparedEngine final : public Engine {
 public:
  /// Warm Algorithm-1 engine (either plan). `model` is copied; its sinks
  /// (if any) receive the setup charges.
  PreparedEngine(const msearch::HierarchicalDag& dag,
                 msearch::PlanKind plan_kind, P prog,
                 const mesh::CostModel& model, mesh::MeshShape shape)
      : model_(model),
        prepared_(dag, plan_kind, std::move(prog), model_, shape) {}

  /// Warm Algorithm-2/3 engine.
  PreparedEngine(msearch::EngineKind kind, const msearch::DistributedGraph& g,
                 msearch::Splitting psi_a, msearch::Splitting psi_b, P prog,
                 const mesh::CostModel& model, mesh::MeshShape shape)
      : model_(model),
        prepared_(kind, g, std::move(psi_a), std::move(psi_b),
                  std::move(prog), model_, shape) {}

  msearch::EngineKind kind() const override { return prepared_.kind(); }
  std::size_t capacity() const override { return prepared_.capacity(); }
  mesh::Cost setup_cost() const override { return prepared_.setup_cost(); }
  std::size_t batches_served() const override {
    return prepared_.batches_served();
  }

  const std::string& dataset() const override { return prepared_.dataset(); }
  void set_dataset(std::string name) override {
    prepared_.set_dataset(std::move(name));
  }
  std::uint64_t structure_generation() const override {
    return prepared_.structure_generation();
  }
  std::uint64_t prepared_generation() const override {
    return prepared_.prepared_generation();
  }
  bool stale() const override { return prepared_.stale(); }
  std::size_t refreshes() const override { return prepared_.refreshes(); }

  msearch::RefreshReport refresh(const msearch::RefreshRequest& req) override {
    return prepared_.refresh(req);
  }

  void bind_sinks(trace::TraceRecorder* trace,
                  mesh::FaultPlan* fault) override {
    model_.trace = trace;
    model_.fault = fault;
  }

  msearch::BatchReport run_batch(
      std::vector<msearch::Query>& batch) override {
    return prepared_.run_batch(batch);
  }

 private:
  mesh::CostModel model_;              ///< owned; prepared_ charges through it
  msearch::PreparedSearch<P> prepared_;
};

/// Convenience factories mirroring the two PreparedSearch constructors.
template <msearch::SearchProgram P>
std::unique_ptr<Engine> make_hierarchical_engine(
    const msearch::HierarchicalDag& dag, msearch::PlanKind plan_kind, P prog,
    const mesh::CostModel& model, mesh::MeshShape shape) {
  return std::make_unique<PreparedEngine<P>>(dag, plan_kind, std::move(prog),
                                             model, shape);
}

template <msearch::SearchProgram P>
std::unique_ptr<Engine> make_partitioned_engine(
    msearch::EngineKind kind, const msearch::DistributedGraph& g,
    msearch::Splitting psi_a, msearch::Splitting psi_b, P prog,
    const mesh::CostModel& model, mesh::MeshShape shape) {
  return std::make_unique<PreparedEngine<P>>(
      kind, g, std::move(psi_a), std::move(psi_b), std::move(prog), model,
      shape);
}

/// Identity of a warm structure: which dataset it was prepared on and which
/// algorithm/plan serves it (plan kind is folded into EngineKind).
struct EngineKey {
  std::string dataset;
  msearch::EngineKind kind = msearch::EngineKind::kAlg1Paper;

  friend bool operator<(const EngineKey& a, const EngineKey& b) {
    if (a.dataset != b.dataset) return a.dataset < b.dataset;
    return static_cast<int>(a.kind) < static_cast<int>(b.kind);
  }
  friend bool operator==(const EngineKey&, const EngineKey&) = default;
};

/// "dataset/alg1-paper" — the display/metric form of a key.
std::string engine_key_name(const EngineKey& key);

/// Table of warm engines. Registration is explicit (the caller prepares the
/// engine, paying setup, then adds it); lookup never prepares anything.
class EngineRegistry {
 public:
  /// Register a warm engine under `key`. Rejects duplicates and null
  /// engines with InvalidInputError. Returns the registered engine.
  Engine& add(EngineKey key, std::unique_ptr<Engine> engine);

  /// Lookup; null if absent.
  Engine* find(const EngineKey& key);

  /// Lookup; throws InvalidInputError naming the key if absent.
  Engine& at(const EngineKey& key);

  std::size_t size() const { return engines_.size(); }
  std::vector<EngineKey> keys() const;

 private:
  std::map<EngineKey, std::unique_ptr<Engine>> engines_;
};

}  // namespace meshsearch::service
