#include "multisearch/stream.hpp"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace meshsearch::msearch {

const char* engine_kind_name(EngineKind k) {
  switch (k) {
    case EngineKind::kAlg1Paper: return "alg1-paper";
    case EngineKind::kAlg1Geometric: return "alg1-geometric";
    case EngineKind::kAlg2Alpha: return "alg2-alpha";
    case EngineKind::kAlg3AlphaBeta: return "alg3-alpha-beta";
  }
  return "unknown";
}

std::vector<std::vector<std::uint32_t>> plan_batches(
    const std::vector<Query>& stream, const BatchPolicy& policy,
    std::size_t capacity) {
  // Caller error, not a library invariant: a zero-processor mesh cannot
  // serve a batch, so reject it at the front door like every other
  // malformed input (used to be an MS_CHECK).
  if (capacity == 0)
    invalid_input("plan_batches requires a mesh with at least one processor",
                  "plan_batches");
  std::vector<std::uint32_t> order(stream.size());
  std::iota(order.begin(), order.end(), 0u);
  if (policy.order == BatchOrder::kLocalityReorder) {
    // Sort each window of 4 batches by search key; ties keep arrival order
    // so the schedule is a deterministic function of the stream alone.
    const std::size_t w = 4 * capacity;
    for (std::size_t lo = 0; lo < order.size(); lo += w) {
      const auto begin =
          order.begin() + static_cast<std::ptrdiff_t>(lo);
      const auto end = order.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(order.size(), lo + w));
      // stable_sort on the keys alone: `order` is ascending within the
      // window, so stability IS the arrival-order tie-break. (A plain
      // std::sort without a total order here once made the schedule depend
      // on the libstdc++ introsort cutoffs for duplicate keys.)
      std::stable_sort(begin, end, [&](std::uint32_t a, std::uint32_t c) {
        const Query& qa = stream[a];
        const Query& qc = stream[c];
        return std::tie(qa.key[0], qa.key[1], qa.key[2]) <
               std::tie(qc.key[0], qc.key[1], qc.key[2]);
      });
    }
  }
  std::vector<std::vector<std::uint32_t>> batches;
  for (std::size_t lo = 0; lo < order.size(); lo += capacity) {
    const std::size_t hi = std::min(order.size(), lo + capacity);
    batches.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(lo),
                         order.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return batches;
}

BatchSource::BatchSource(const std::vector<Query>& stream,
                         const BatchPolicy& policy, std::size_t capacity) {
  for (auto& b : plan_batches(stream, policy, capacity)) enqueue(std::move(b));
}

void BatchSource::enqueue(std::vector<std::uint32_t> indices) {
  if (indices.empty()) return;
  queries_ += indices.size();
  work_.push_back(PendingBatch{std::move(indices), 0});
}

PendingBatch BatchSource::pop() {
  MS_CHECK_MSG(!work_.empty(), "pop on an empty BatchSource");
  PendingBatch out = std::move(work_.front());
  work_.pop_front();
  queries_ -= out.indices.size();
  return out;
}

PendingBatch BatchSource::pop_upto(std::size_t limit) {
  MS_CHECK_MSG(limit >= 1, "pop_upto requires a positive limit");
  MS_CHECK_MSG(!work_.empty(), "pop_upto on an empty BatchSource");
  PendingBatch out;
  out.replans = work_.front().replans;
  while (!work_.empty() && out.indices.size() < limit &&
         work_.front().replans == out.replans) {
    PendingBatch& front = work_.front();
    const std::size_t take =
        std::min(limit - out.indices.size(), front.indices.size());
    out.indices.insert(out.indices.end(), front.indices.begin(),
                       front.indices.begin() + static_cast<std::ptrdiff_t>(take));
    queries_ -= take;
    if (take == front.indices.size()) {
      work_.pop_front();
    } else {
      front.indices.erase(
          front.indices.begin(),
          front.indices.begin() + static_cast<std::ptrdiff_t>(take));
      break;  // limit reached
    }
  }
  return out;
}

std::vector<std::uint32_t> BatchSource::pop_expired(
    const std::function<bool(std::uint32_t)>& expired) {
  MS_CHECK_MSG(static_cast<bool>(expired),
               "pop_expired requires a predicate");
  std::vector<std::uint32_t> out;
  while (!work_.empty()) {
    PendingBatch& front = work_.front();
    std::size_t take = 0;
    while (take < front.indices.size() && expired(front.indices[take]))
      ++take;
    if (take > 0) {
      out.insert(out.end(), front.indices.begin(),
                 front.indices.begin() + static_cast<std::ptrdiff_t>(take));
      queries_ -= take;
    }
    if (take == front.indices.size()) {
      work_.pop_front();  // whole batch expired (or was empty)
      continue;
    }
    if (take > 0)
      front.indices.erase(
          front.indices.begin(),
          front.indices.begin() + static_cast<std::ptrdiff_t>(take));
    break;  // first live position reached: the expired prefix ends here
  }
  return out;
}

void BatchSource::push_front(PendingBatch batch) {
  queries_ += batch.indices.size();
  work_.push_front(std::move(batch));
}

namespace {

std::vector<PendingBatch> split_pieces(const PendingBatch& failed,
                                       std::size_t cap) {
  MS_CHECK_MSG(cap >= 1, "requeue_split requires a positive capacity");
  std::vector<PendingBatch> pieces;
  for (std::size_t at = 0; at < failed.indices.size(); at += cap) {
    PendingBatch piece;
    piece.replans = failed.replans + 1;
    piece.indices.assign(
        failed.indices.begin() + static_cast<std::ptrdiff_t>(at),
        failed.indices.begin() + static_cast<std::ptrdiff_t>(std::min(
                                     at + cap, failed.indices.size())));
    pieces.push_back(std::move(piece));
  }
  return pieces;
}

}  // namespace

void BatchSource::requeue_split_back(const PendingBatch& failed,
                                     std::size_t cap) {
  for (auto& piece : split_pieces(failed, cap)) {
    queries_ += piece.indices.size();
    work_.push_back(std::move(piece));
  }
}

void BatchSource::requeue_split_front(const PendingBatch& failed,
                                      std::size_t cap) {
  auto pieces = split_pieces(failed, cap);
  // Prepend keeping piece order: insert in reverse so pieces[0] ends first.
  for (auto it = pieces.rbegin(); it != pieces.rend(); ++it) {
    queries_ += it->indices.size();
    work_.push_front(std::move(*it));
  }
}

double StreamResult::amortized_steps_per_query() const {
  return queries == 0 ? 0.0
                      : total().steps / static_cast<double>(queries);
}

double StreamResult::queries_per_step() const {
  const double t = total().steps;
  return t <= 0.0 ? 0.0 : static_cast<double>(queries) / t;
}

double StreamResult::setup_fraction() const {
  const double t = total().steps;
  return t <= 0.0 ? 0.0 : setup.steps / t;
}

void finalize_stream(StreamResult& res) {
  res.setup = mesh::Cost{};
  res.inject = mesh::Cost{};
  res.run = mesh::Cost{};
  for (const auto& b : res.batches) {
    res.setup += b.setup;
    res.inject += b.inject;
    res.run += b.run;
  }
}

void record_stream_metrics(trace::TraceRecorder* rec,
                           const StreamResult& res) {
  if (rec == nullptr) return;
  rec->metric("stream.batches", static_cast<double>(res.batches.size()));
  rec->metric("stream.queries", static_cast<double>(res.queries));
  rec->metric("stream.queries_per_step", res.queries_per_step());
  rec->metric("stream.amortized_steps_per_query",
              res.amortized_steps_per_query());
  rec->metric("stream.setup_fraction", res.setup_fraction());
  // Error counts are a pure function of (stream, seed, plan) and belong with
  // the pinned metrics. Wall time deliberately does NOT land here — metrics
  // are part of the bit-identity contract (DESIGN §5 decision 13); the
  // per-batch latency is the wall.phase.stream.batch span histogram.
  const auto degraded = std::count_if(
      res.batches.begin(), res.batches.end(),
      [](const BatchReport& b) { return b.degraded; });
  rec->metric("stream.degraded_batches", static_cast<double>(degraded));
  rec->metric("stream.replans", static_cast<double>(res.replans));
  rec->metric("stream.failed_queries",
              static_cast<double>(res.failed_queries.size()));
}

}  // namespace meshsearch::msearch
