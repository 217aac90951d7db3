// Streaming batch scheduler: serve a stream of m >> n queries on one mesh.
//
// Every engine in this repo so far answers exactly one mesh-sized load: the
// graph is distributed (Appendix initial configuration), level indices are
// computed (§3 preprocessing), band replicas are laid out (Algorithm 1 steps
// 1-3a), one multisearch runs, everything is torn down. A server does not
// work like that: the structure is fixed and queries keep arriving. This
// layer splits every algorithm's cost into
//
//   one-time setup   — distribute_graph + level indices + band replication
//                      (batch-invariant: depends only on G and the mesh)
//   per-batch work   — inject_queries + the multisearch proper,
//
// pays the former once in PreparedSearch and amortizes it over an arbitrary
// query stream driven by StreamScheduler. The same batched-query framing
// that turns one-shot search structures into query servers in Sun &
// Blelloch's augmented-map work (PAPERS.md).
//
//   * PreparedSearch<P> — a warm engine for one algorithm (Alg 1 in either
//     plan, Alg 2, Alg 3). Construction charges the one-time setup through
//     the CostModel (so it lands in the trace attribution like any other
//     work) and caches the host-side artifacts: the distributed graph, the
//     validated level indices, the band plan and its Lemma-1 replica labels,
//     each splitting's Constrained-Multisearch submesh capacity. The
//     structure is validated and these constants derived once per structure
//     generation (construction and full refresh), never per batch.
//     run_batch() checks only the batch size and then charges only inject +
//     multisearch, through the same internal core as the one-shot front
//     doors, with Algorithm 1's per-band steps 1-3a suppressed
//     (charge_band_setup = false): the replicas are already resident. Under
//     MESHSEARCH_PARANOID it re-validates the structure before every batch.
//
//   * run_slice — the one slice executor (checkpoint copy, run_batch,
//     write-back, fault degradation). StreamScheduler and the service
//     layer's ServiceScheduler both run every batch through it.
//
//   * StreamScheduler<P> — slices a query stream into batches of at most
//     mesh-capacity queries under a BatchPolicy (FIFO, or locality-reorder:
//     sort a window of queries by search key so key-adjacent queries share a
//     batch), runs each batch through run_slice on the warm engine, and
//     reports per-batch and cumulative cost in a StreamResult. Its counts
//     are exported once, as stream.* gauges (record_stream_metrics); each
//     attempt runs in a "stream.batch N" span, whose wall.phase.stream.batch
//     histogram is the one per-batch wall timer. A
//     resetup_every_batch mode re-charges the full setup before every batch
//     — the naive baseline E8 compares against.
//
// Invalidation contract (DESIGN.md §5, decisions "Streaming batches" and
// 16): the cache is valid as long as the graph, the mesh shape, and (for
// Alg 1) the plan kind are unchanged — and, since PR 9, the engine TRACKS
// that. Construction records the graph's generation stamp; every
// run_batch/charge_setup first compares it against the live stamp and
// throws a typed StaleEngineError (never a silently wrong answer) when a
// structure's apply_updates has moved it. refresh(RefreshRequest) brings a
// stale engine back: payload-only deltas re-distribute just the dirty
// records and their band replicas (charged under the `rebuild` primitive,
// proportional to the dirty copy count, fault-recoverable like any phase);
// topological deltas or force_full re-run the full setup. After refresh the
// warm engine is bit-identical to a cold engine built from the post-update
// structure. Resizing the mesh still requires a new PreparedSearch. Query
// contents never invalidate anything. A graph mutated in place WITHOUT a
// generation bump is outside the contract (see DistributedGraph::vert).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mesh/cost.hpp"
#include "mesh/fault.hpp"
#include "mesh/snake.hpp"
#include "multisearch/graph.hpp"
#include "multisearch/hierarchical.hpp"
#include "multisearch/partitioned.hpp"
#include "multisearch/recovery.hpp"
#include "multisearch/setup.hpp"
#include "multisearch/splitter.hpp"
#include "multisearch/update.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/error.hpp"

namespace meshsearch::msearch {

/// The four streaming engines. Constrained-Multisearch (Lemma 3) is not a
/// standalone engine here: it is the inner loop of both partitioned
/// algorithms and streams through them.
enum class EngineKind : std::uint8_t {
  kAlg1Paper = 0,    ///< Algorithm 1, §3 log* band plan
  kAlg1Geometric,    ///< Algorithm 1, geometric band plan (PlanKind doc)
  kAlg2Alpha,        ///< Algorithm 2, directed alpha-partitionable (Thm 5)
  kAlg3AlphaBeta,    ///< Algorithm 3, undirected alpha-beta (Thm 7)
};

const char* engine_kind_name(EngineKind k);

enum class BatchOrder : std::uint8_t {
  kFifo = 0,          ///< arrival order
  kLocalityReorder,   ///< sort each window by search key before slicing
};

struct BatchPolicy {
  /// Queries per batch; 0 = mesh capacity. Clamped to capacity (the initial
  /// configuration stores at most one query per processor).
  std::size_t batch_size = 0;
  BatchOrder order = BatchOrder::kFifo;
  /// Locality-reorder window (queries sorted together before slicing);
  /// 0 = 4 batches worth. Ignored under kFifo.
  std::size_t window = 0;
};

/// Slice `stream` into batches of at most min(policy.batch_size, capacity)
/// query indices, in arrival order or locality order. Every index appears
/// in exactly one batch; no batch is empty. Deterministic (key ties break
/// by arrival index).
///
/// Edge contracts (each a defined behavior, not caller discipline):
///   * empty stream        -> no batches (an empty vector), nothing charged;
///   * batch_size == 0     -> batches of exactly `capacity` (the largest the
///                            initial configuration admits);
///   * batch_size > capacity -> silently clamped to `capacity` (the clamp is
///                            a guarantee: no plan ever oversubscribes the
///                            mesh);
///   * capacity == 0       -> InvalidInputError (a mesh with no processors
///                            cannot serve a batch; this is caller error,
///                            not a library invariant violation).
std::vector<std::vector<std::uint32_t>> plan_batches(
    const std::vector<Query>& stream, const BatchPolicy& policy,
    std::size_t capacity);

/// One pending unit of work in a batch queue: stream/arrival positions plus
/// the fault re-plan generation that produced this slicing (0 = original).
struct PendingBatch {
  std::vector<std::uint32_t> indices;  ///< stream positions, arrival order
  std::uint32_t replans = 0;           ///< re-plan generation
};

/// The queue of pending batches a scheduler drains. Extracted from
/// StreamScheduler so the multi-tenant service layer (src/service/) can
/// feed per-tenant queues through the same machinery:
///
///   * StreamScheduler plans a whole stream up front (the two-argument
///     constructor wraps plan_batches) and pops planned batches whole;
///   * ServiceScheduler enqueues arrivals as they are admitted and pops
///     deficit-sized slices (pop_upto) for fair batching between tenants;
///   * both requeue a fault-exhausted batch as capacity-clamped pieces at
///     the next re-plan generation — at the back for the stream scheduler
///     (its batches are independent) and at the front for the service (a
///     tenant's queries must not be overtaken by its later arrivals).
///
/// Deterministic by construction: a pure function of the enqueue/pop call
/// sequence, no clocks, no randomness.
class BatchSource {
 public:
  BatchSource() = default;
  /// Plan `stream` into capacity-clamped batches under `policy` and queue
  /// them all (the StreamScheduler path). Same contracts as plan_batches.
  BatchSource(const std::vector<Query>& stream, const BatchPolicy& policy,
              std::size_t capacity);

  /// Append one batch of positions at re-plan generation 0 (the arrival
  /// path). An empty batch is a no-op.
  void enqueue(std::vector<std::uint32_t> indices);

  bool empty() const { return work_.empty(); }
  std::size_t pending_batches() const { return work_.size(); }
  /// Total queued query positions across all pending batches.
  std::size_t pending_queries() const { return queries_; }
  /// Re-plan generation of the front batch (0 on an empty source).
  std::uint32_t front_replans() const {
    return work_.empty() ? 0 : work_.front().replans;
  }

  /// Pop the whole front batch. MS_CHECKs non-empty.
  PendingBatch pop();

  /// Pop up to `limit` positions off the front, splitting the front batch
  /// if it is larger and coalescing across consecutive batches of EQUAL
  /// re-plan generation (mixing generations would let a fresh arrival
  /// inherit — or reset — another batch's retry budget). `limit` must be
  /// >= 1.
  PendingBatch pop_upto(std::size_t limit);

  /// Pop the expired front prefix: remove and return, in order, every
  /// position from the front of the queue for which `expired` holds,
  /// stopping at the first live one. The service scheduler uses this for
  /// deadline shedding at dispatch time — and the prefix form is EXACT, not
  /// an approximation, because the queue is kept in admission order (enqueue
  /// appends arrivals, requeue_split_front prepends strictly older work), so
  /// under a per-tenant deadline measured from each position's admission
  /// clock, the expired positions are always a prefix. Empty batches left
  /// behind are dropped. Returns an empty vector on an empty source.
  std::vector<std::uint32_t> pop_expired(
      const std::function<bool(std::uint32_t)>& expired);

  /// Requeue a fault-exhausted batch as pieces of at most `cap` positions,
  /// each at generation `failed.replans + 1`, preserving index order.
  /// _back appends (stream scheduler), _front prepends keeping piece order
  /// (service scheduler: the tenant's own later work must not overtake).
  void requeue_split_back(const PendingBatch& failed, std::size_t cap);
  void requeue_split_front(const PendingBatch& failed, std::size_t cap);

 private:
  std::deque<PendingBatch> work_;
  std::size_t queries_ = 0;  ///< invariant: sum of work_[i].indices.size()
};

/// Cost of one batch, split the way the amortization argument needs.
struct BatchReport {
  std::size_t size = 0;    ///< queries in this batch
  std::size_t visits = 0;  ///< total vertex visits (data-pass measure)
  mesh::Cost setup;   ///< one-time setup attributed here (batch 0 of a cold
                      ///< engine, or every batch under resetup_every_batch)
  mesh::Cost inject;  ///< inject_queries for this batch
  mesh::Cost run;     ///< the multisearch proper
  std::size_t copies = 0;  ///< Gamma copies made by Constrained-Multisearch
                           ///< (Alg 2/3; 0 for Alg 1)
  std::uint32_t replans = 0;  ///< re-plan generation (0 = original slicing)
  bool degraded = false;  ///< retry budget exhausted even after re-planning;
                          ///< the batch's queries are REPORTED failed, never
                          ///< silently wrong (see StreamResult::failed_queries)
  /// Wall time of the run_slice attempt, timed by StreamScheduler::run —
  /// observability, NOT part of the determinism contract, which pins
  /// outcomes, charges, and attribution only (DESIGN.md decision 13).
  double wall_us = 0;

  mesh::Cost total() const { return setup + inject + run; }
};

struct StreamResult {
  std::vector<BatchReport> batches;
  std::size_t queries = 0;
  /// Stream positions of queries in degraded batches (retry budget
  /// exhausted after max_replans re-plans). Their Query records keep their
  /// pre-batch checkpoint state. Empty on every fault-free run.
  std::vector<std::uint32_t> failed_queries;
  mesh::Cost setup;   ///< sum of per-batch setup attributions
  mesh::Cost inject;
  mesh::Cost run;
  std::size_t replans = 0;  ///< re-sliced attempts (their reports discarded)

  mesh::Cost total() const { return setup + inject + run; }
  double amortized_steps_per_query() const;
  double queries_per_step() const;
  /// Share of the total spent on (re-)setup — the quantity amortization
  /// drives to zero as m/n grows.
  double setup_fraction() const;
};

/// Sum the per-batch reports into the cumulative fields of `res`.
void finalize_stream(StreamResult& res);

/// Record the stream metrics (stream.batches, stream.queries,
/// stream.queries_per_step, stream.amortized_steps_per_query,
/// stream.setup_fraction and the error counts stream.degraded_batches,
/// stream.replans, stream.failed_queries) into `rec` as gauges — the one
/// exported view of those counts, derived from the result's fields. Null
/// `rec` is a no-op.
void record_stream_metrics(trace::TraceRecorder* rec, const StreamResult& res);

/// How one slice attempt ended (run_slice).
enum class SliceOutcome : std::uint8_t {
  kDone,      ///< answered: the stream slice holds the results
  kReslice,   ///< fault-exhausted: requeue the slice split at `capacity`
  kDegraded,  ///< fault-exhausted at max_replans: report its queries failed
};

struct SliceAttempt {
  SliceOutcome outcome = SliceOutcome::kDone;
  BatchReport report;        ///< the engine's report (kDone only)
  std::size_t capacity = 0;  ///< surviving capacity to re-slice at (kReslice)
};

/// Run `slice` of `stream` on `engine` (a PreparedSearch<P> or a type-erased
/// service::Engine) whose fault plan is `fault` (null = none). The engine
/// runs on a COPY of the slice in `scratch`, a buffer the caller reuses, so
/// an attempt that throws leaves `stream` at its pre-batch checkpoint; only
/// kDone writes back. On FaultExhaustedError the plan is degraded and the
/// slice comes back as kReslice (at the surviving capacity) or, once
/// slice.replans reaches max_replans, kDegraded — reported, never a silent
/// wrong answer. With no plan, that error propagates like every other.
/// Requeueing, setup attribution and clocks stay with the caller.
template <typename Engine>
SliceAttempt run_slice(Engine& engine, mesh::FaultPlan* fault,
                       std::vector<Query>& stream, const PendingBatch& slice,
                       std::vector<Query>& scratch) {
  SliceAttempt out;
  scratch.clear();
  scratch.reserve(slice.indices.size());
  for (const auto idx : slice.indices) scratch.push_back(stream[idx]);
  try {
    // A fresh local, not out.report: GCC may build the return value in
    // place in an assignment target, so a throw would leave half a report.
    const BatchReport rep = engine.run_batch(scratch);
    for (std::size_t k = 0; k < slice.indices.size(); ++k)
      stream[slice.indices[k]] = scratch[k];
    out.report = rep;
  } catch (const mesh::FaultExhaustedError&) {
    if (fault == nullptr) throw;
    fault->degrade();
    const auto max_replans =
        static_cast<std::uint32_t>(std::max(0, fault->config().max_replans));
    if (slice.replans < max_replans) {
      fault->count_replanned_batch();
      out.outcome = SliceOutcome::kReslice;
      out.capacity = fault->effective_capacity(engine.capacity());
    } else {
      fault->count_degraded_batch();
      out.outcome = SliceOutcome::kDegraded;
    }
  }
  return out;
}

template <SearchProgram P>
class PreparedSearch {
 public:
  /// Warm Algorithm-1 engine (either plan). Builds and verifies the band
  /// plan and its replica labels host-side, then charges the one-time setup
  /// (distribute_graph + level-index peel + band replication) through `m`.
  /// `dag` and `m` must outlive the engine.
  PreparedSearch(const HierarchicalDag& dag, PlanKind plan_kind, P prog,
                 const mesh::CostModel& m, mesh::MeshShape shape)
      : kind_(plan_kind == PlanKind::kPaper ? EngineKind::kAlg1Paper
                                            : EngineKind::kAlg1Geometric),
        g_(&dag.graph()),
        dag_(&dag),
        plan_kind_(plan_kind),
        prog_(std::move(prog)),
        m_(&m),
        shape_(shape) {
    prepare();
  }

  /// Warm Algorithm-2/3 engine. The splittings are copied (the engine's
  /// cache must not dangle); `g` and `m` must outlive the engine.
  PreparedSearch(EngineKind kind, const DistributedGraph& g, Splitting psi_a,
                 Splitting psi_b, P prog, const mesh::CostModel& m,
                 mesh::MeshShape shape, bool duplicate_copies = true)
      : kind_(kind),
        g_(&g),
        psi_a_(std::move(psi_a)),
        psi_b_(std::move(psi_b)),
        prog_(std::move(prog)),
        m_(&m),
        shape_(shape),
        duplicate_copies_(duplicate_copies) {
    if (kind != EngineKind::kAlg2Alpha && kind != EngineKind::kAlg3AlphaBeta)
      invalid_input("partitioned PreparedSearch requires an Alg 2/3 kind",
                    "PreparedSearch");
    prepare();
  }

  EngineKind kind() const { return kind_; }
  mesh::MeshShape shape() const { return shape_; }
  /// Largest batch the initial configuration admits (one query/processor).
  std::size_t capacity() const { return shape_.size(); }
  /// The one-time setup charged at construction.
  mesh::Cost setup_cost() const { return setup_cost_; }
  std::size_t batches_served() const { return batches_served_; }
  const mesh::CostModel& model() const { return *m_; }

  /// Diagnostic name carried into StaleEngineError ("<unnamed>" until the
  /// registry — or a caller — stamps one).
  const std::string& dataset() const { return dataset_; }
  void set_dataset(std::string name) { dataset_ = std::move(name); }

  /// Generation of the structure the engine was prepared (or last
  /// refreshed) against, and the structure's live stamp.
  std::uint64_t prepared_generation() const { return prepared_generation_; }
  std::uint64_t structure_generation() const { return g_->generation(); }
  /// True when the structure has been mutated since preparation — serving
  /// would throw StaleEngineError; call refresh() first.
  bool stale() const { return structure_generation() != prepared_generation_; }
  /// Refreshes performed so far (incremental or full).
  std::size_t refreshes() const { return refreshes_; }

  /// Bring a stale (or doubted) engine back in sync with its structure
  /// after an apply_updates batch.
  ///
  /// Payload-only deltas (!delta.topology_changed, !force_full) refresh
  /// incrementally: the dirty records and every band replica holding a copy
  /// of them are re-distributed, charged under the `rebuild` primitive as
  /// ceil(dirty copies / p) redistribution rounds. All cached state (plan,
  /// labels, splittings) stays valid. The phase runs under the standard
  /// fault machinery as phase "rebuild" — failed attempts re-charge and
  /// back off, and an exhausted budget throws FaultExhaustedError leaving
  /// the engine still stale (the caller degrades and retries, or falls back
  /// to force_full).
  ///
  /// Topological deltas (or force_full) re-run the full setup: Algorithm-1
  /// engines recompute their band plan and replica labels from the DAG
  /// (which the structure must have refreshed in place — HierarchicalDag is
  /// assignable precisely so its address stays stable); partitioned engines
  /// adopt the request's fresh splittings when provided, keeping their old
  /// ones for payload-only-forced-full refreshes.
  ///
  /// Either way the engine adopts the structure's current generation and
  /// the run_batch gate reopens. Afterwards the engine is bit-identical to
  /// a cold engine built from the post-update structure (the contract the
  /// UpdateWarmColdOracle tests pin).
  RefreshReport refresh(const RefreshRequest& req) {
    TRACE_SPAN(m_->trace, "stream.refresh");
    RefreshReport rep;
    const double p = static_cast<double>(shape_.size());
    if (!req.delta.topology_changed && !req.force_full) {
      rep.incremental = true;
      // The charge body is a pure cost computation: nothing to checkpoint.
      rep.cost = detail::recovered_phase(*m_, p, "rebuild", [&] {
        double messages = 0;
        for (const Vid v : req.delta.dirty_vertices)
          messages += static_cast<double>(replica_copies(g_->vert(v).level));
        return m_->rebuild(p, std::max(1.0, std::ceil(messages / p)));
      });
      prepared_generation_ = g_->generation();
    } else {
      // Full re-setup: the mutated structure must still be one this engine
      // kind can serve, and every per-structure constant is re-derived.
      if (dag_ == nullptr && req.has_splittings) {
        psi_a_ = req.psi_a;
        psi_b_ = req.psi_b;
      }
      prepare();
      rep.cost = setup_cost_;
    }
    ++refreshes_;
    return rep;
  }

  /// Algorithm-1 cache views (MS_CHECKs on partitioned engines).
  const HierarchicalPlan& plan() const {
    MS_CHECK(dag_ != nullptr);
    return plan_;
  }
  const std::vector<std::int32_t>& replica_labels() const {
    MS_CHECK(dag_ != nullptr);
    return labels_;
  }

  /// Charge the one-time setup through the cost model (again). Construction
  /// calls this once; the resetup_every_batch baseline calls it before every
  /// batch. Alg 1: distribute_graph + the §3 level-index peel (whose on-mesh
  /// result is verified against the DAG's level fields) + band replication.
  /// Alg 2/3: distribute_graph + delivering the piece-id tags of each
  /// distinct splitting (one route each).
  mesh::Cost charge_setup() {
    TRACE_SPAN(m_->trace, "stream.prepare");
    mesh::Cost cost = distribute_graph(*g_, *m_, shape_);
    if (dag_ != nullptr) {
      const LevelIndexResult li = compute_level_indices(*g_, *m_, shape_);
      // The peel's strict input class (every edge drops exactly one level)
      // must reproduce the stored level fields exactly. Chain-link
      // hierarchies (e.g. Kirkpatrick transition chains, whose next-slot
      // edges run WITHIN a level) are outside that class: there the peel
      // yields some finer topological ranking, so verify precisely that —
      // every edge ascends in peel order.
      bool strictly_leveled = true;
      for (std::size_t v = 0; strictly_leveled && v < g_->vertex_count();
           ++v) {
        const auto& rec = g_->vert(static_cast<Vid>(v));
        for (std::uint8_t d = 0; d < rec.degree; ++d)
          strictly_leveled &=
              g_->vert(rec.nbr[d]).level == rec.level + 1;
      }
      for (std::size_t v = 0; v < li.level.size(); ++v) {
        const auto& rec = g_->vert(static_cast<Vid>(v));
        if (strictly_leveled) {
          MS_CHECK_MSG(li.level[v] == rec.level,
                       "on-mesh level peel disagrees with DAG level fields");
        } else {
          for (std::uint8_t d = 0; d < rec.degree; ++d)
            MS_CHECK_MSG(
                li.level[v] <
                    li.level[static_cast<std::size_t>(rec.nbr[d])],
                "on-mesh level peel is not a topological ranking");
        }
      }
      cost += li.cost;
      cost += band_setup_cost(plan_, shape_, *m_);
    } else {
      const double p = static_cast<double>(shape_.size());
      const double splittings =
          kind_ == EngineKind::kAlg2Alpha ? 1.0 : 2.0;  // Alg 2: Psi_A==Psi_B
      cost += m_->route(p, splittings);
    }
    return cost;
  }

  /// Run one batch on the warm engine: inject + multisearch, no setup.
  /// `batch.size()` must be at most capacity(). The queries are advanced in
  /// place (outcome fields hold the answers afterwards).
  ///
  /// The structure itself is not re-validated here: it was validated when
  /// this generation was prepared, and the generation gate fences every
  /// mutation made through a structure's apply_updates. Only the batch size
  /// is checked. Under paranoid mode (MESHSEARCH_PARANOID) the structure is
  /// re-validated before every batch as well.
  BatchReport run_batch(std::vector<Query>& batch) {
    check_fresh("run_batch");
    BatchReport rep;
    rep.size = batch.size();
    if (batch.empty()) return rep;
    const char* engine = engine_kind_name(kind_);
    validate_batch_size(batch.size(), capacity(), engine);
    if (paranoid_enabled()) validate_structure();
    rep.inject = inject_queries(batch.size(), *m_, shape_);
    switch (kind_) {
      case EngineKind::kAlg1Paper:
      case EngineKind::kAlg1Geometric: {
        const HierarchicalRunResult r = detail::hierarchical_core(
            *dag_, plan_, prog_, batch, *m_, shape_, engine,
            /*charge_band_setup=*/false);
        rep.run = r.cost;
        rep.visits = r.total_visits;
        break;
      }
      case EngineKind::kAlg2Alpha:
      case EngineKind::kAlg3AlphaBeta: {
        const PartitionedRunResult r = detail::partitioned_core(
            *g_, psi_a_, cap_a_, psi_b_, cap_b_, prog_, batch, *m_, shape_,
            duplicate_copies_);
        rep.run = r.cost;
        rep.visits = r.total_visits;
        rep.copies = r.copies;
        break;
      }
    }
    ++batches_served_;
    return rep;
  }

 private:
  /// The engine's one structure gate: the graph (and, for Alg 2/3, both
  /// splittings) must be well-formed and fit the mesh. Throws
  /// InvalidInputError / CapacityError before anything is charged.
  void validate_structure() const {
    const char* engine = engine_kind_name(kind_);
    validate_graph(*g_, engine);
    validate_graph_fits(*g_, shape_, engine);
    if (dag_ == nullptr) {
      validate_splitting_input(*g_, psi_a_, engine);
      validate_splitting_input(*g_, psi_b_, engine);
    }
  }

  /// Prepare the current structure generation: validate it, derive the
  /// per-structure constants run_batch reuses (Alg 1: band plan and replica
  /// labels; Alg 2/3: each splitting's submesh capacity), charge the
  /// one-time setup, and only then adopt the generation — a setup that
  /// throws (e.g. FaultExhaustedError) leaves a refreshing engine stale.
  /// Construction and the full refresh path both come through here.
  void prepare() {
    validate_structure();
    if (dag_ != nullptr) {
      plan_ = make_hierarchical_plan(*dag_, shape_, plan_kind_);
      labels_ = band_labels(plan_, shape_);
      // Only the log* plan satisfies the Theorem-2 resident-replica storage
      // bound; the geometric plan stages its copies transiently (§5.9
      // trade-off), so its labels legitimately exceed capacity.
      if (plan_kind_ == PlanKind::kPaper)
        verify_label_capacity(plan_, shape_, labels_);
    } else {
      cap_a_ = constrained_capacity(psi_a_, shape_);
      cap_b_ = constrained_capacity(psi_b_, shape_);
    }
    setup_cost_ = charge_setup();
    prepared_generation_ = g_->generation();
  }

  /// The stale gate: a mutated structure must never be served silently.
  void check_fresh(const char* phase) const {
    if (g_->generation() == prepared_generation_) return;
    ErrorContext ctx;
    ctx.engine = engine_kind_name(kind_);
    ctx.phase = phase;
    throw StaleEngineError(dataset_, g_->generation(), prepared_generation_,
                           std::move(ctx));
  }

  /// How many resident copies of a level's records the warm cache holds —
  /// the per-record multiplier of the incremental rebuild charge. Alg 1:
  /// each band is duplicated into its grid^2 submeshes, and the Lemma-1
  /// prefix B_i^1 (levels below band.split) again into inner_grid^2
  /// sub-submeshes of each; B* levels live once, in the master copy.
  /// Partitioned engines hold the master copy plus one piece-id tag route
  /// per distinct splitting (Alg 2: Psi_A == Psi_B).
  double replica_copies(std::int32_t level) const {
    if (dag_ == nullptr)
      return 1.0 + (kind_ == EngineKind::kAlg2Alpha ? 1.0 : 2.0);
    for (const Band& b : plan_.bands) {
      if (level < b.lo || level > b.hi) continue;
      const double g2 = static_cast<double>(b.grid) *
                        static_cast<double>(b.grid);
      if (level < b.split)
        return g2 * static_cast<double>(b.inner_grid) *
               static_cast<double>(b.inner_grid);
      return g2;
    }
    return 1.0;  // B* (or a level outside every band): master copy only
  }

  EngineKind kind_;
  const DistributedGraph* g_;
  const HierarchicalDag* dag_ = nullptr;  ///< Alg 1 only
  PlanKind plan_kind_ = PlanKind::kPaper;
  HierarchicalPlan plan_;                 ///< cached band plan (Alg 1)
  std::vector<std::int32_t> labels_;      ///< cached replica labels (Alg 1)
  Splitting psi_a_, psi_b_;               ///< cached splittings (Alg 2/3)
  std::size_t cap_a_ = 0, cap_b_ = 0;     ///< their submesh capacities
  P prog_;
  const mesh::CostModel* m_;
  mesh::MeshShape shape_;
  bool duplicate_copies_ = true;
  mesh::Cost setup_cost_;
  std::size_t batches_served_ = 0;
  std::string dataset_ = "<unnamed>";
  std::uint64_t prepared_generation_ = 0;
  std::size_t refreshes_ = 0;
};

template <SearchProgram P>
class StreamScheduler {
 public:
  /// `engine` must outlive the scheduler. resetup_every_batch re-charges the
  /// engine's full setup before every batch (the naive baseline).
  StreamScheduler(PreparedSearch<P>& engine, BatchPolicy policy,
                  bool resetup_every_batch = false)
      : engine_(&engine),
        policy_(policy),
        resetup_every_batch_(resetup_every_batch) {}

  /// Serve the whole stream. Queries are advanced in place, in their
  /// arrival positions regardless of batch order. The engine's one-time
  /// setup is attributed to the first batch if (and only if) this run is
  /// the engine's first; re-running on a warm engine charges no setup at
  /// all, which is the point.
  ///
  /// Fault degradation (run_slice): a batch that exhausts its retry budget
  /// leaves the stream at its pre-batch checkpoint, and its re-sliced
  /// pieces are requeued at the BACK (the stream's batches are
  /// independent); a batch that exhausts max_replans generations is
  /// reported degraded (BatchReport.degraded, StreamResult::failed_queries)
  /// instead of poisoning the stream — never a silent wrong answer.
  StreamResult run(std::vector<Query>& stream) {
    StreamResult res;
    res.queries = stream.size();
    BatchSource work(stream, policy_, engine_->capacity());
    // The scheduler traces into the same sink the engine charges through.
    trace::TraceRecorder* rec = engine_->model().trace;
    mesh::FaultPlan* fault = engine_->model().fault;
    TRACE_SPAN(rec, "stream");
    const bool cold = engine_->batches_served() == 0;
    std::size_t serial = 0;  ///< span numbering: one per attempt, run order
    bool setup_attributed = false;
    std::vector<Query> scratch;
    while (!work.empty()) {
      PendingBatch cur = work.pop();
      // Span per attempt: closing it lands the attempt's wall time in the
      // wall.phase.stream.batch histogram, the one per-batch wall timer.
      trace::SpanScope batch_span(rec,
                                  "stream.batch " + std::to_string(serial));
      ++serial;
      // Cold setup rides on the first report actually emitted; a re-sliced
      // attempt, whose report is discarded, carries it to the next one.
      const bool attribute_setup = cold && !resetup_every_batch_ &&
                                   !setup_attributed;
      mesh::Cost setup;
      if (resetup_every_batch_) {
        setup = engine_->charge_setup();
      } else if (attribute_setup) {
        setup = engine_->setup_cost();  // attribution only, not a charge
      }
      const auto begin = std::chrono::steady_clock::now();
      const SliceAttempt a = run_slice(*engine_, fault, stream, cur, scratch);
      const double wall_us = std::chrono::duration<double, std::micro>(
                                 std::chrono::steady_clock::now() - begin)
                                 .count();
      if (a.outcome == SliceOutcome::kReslice) {
        ++res.replans;
        work.requeue_split_back(cur, a.capacity);
        continue;
      }
      BatchReport rep = a.report;
      rep.setup = setup;
      rep.replans = cur.replans;
      rep.wall_us = wall_us;
      if (a.outcome == SliceOutcome::kDegraded) {
        rep.size = cur.indices.size();
        rep.degraded = true;
        res.failed_queries.insert(res.failed_queries.end(),
                                  cur.indices.begin(), cur.indices.end());
      }
      if (attribute_setup) setup_attributed = true;
      res.batches.push_back(rep);
    }
    finalize_stream(res);
    record_stream_metrics(rec, res);
    if (fault != nullptr) mesh::record_fault_metrics(rec, *fault);
    return res;
  }

 private:
  PreparedSearch<P>* engine_;
  BatchPolicy policy_;
  bool resetup_every_batch_;
};

}  // namespace meshsearch::msearch
