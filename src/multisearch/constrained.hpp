// Procedure Constrained-Multisearch(Psi, delta) — paper §4.4, Lemma 3.
//
// Given a family Psi of disjoint subgraphs with |G_i| = O(n^delta) and
// k = O(n^{1-delta}), advance every query whose current vertex lies in some
// G_i by up to log2(n) steps, stopping early when its next vertex leaves
// G_i (the visit of that vertex is deferred to the caller) or its path ends.
//
// Cost reproduction of the procedure's steps:
//   1   mark queries                       one full-mesh RAR (fetch piece id)
//   2   compute Gamma_i                    RAW-with-count + scan
//   3   emptiness test                     reduction
//   4   create Gamma_i copies of G_i       constant # of sorts/routes
//   5   move marked queries to copies      sort + scan + route
//   6   log2(n) rounds, each a local RAR on a delta-submesh (parallel over
//       copies; time = max over copies of rounds actually needed)
//   7   discard copies                     free
//
// Because all copies of G_i hold identical data, the simulator shares one
// host-side master table instead of materializing Gamma_i physical copies;
// the data outcome is identical and the movement is charged as above.
// `duplicate_copies = false` disables the Gamma machinery (one copy per
// piece) for the congestion ablation E7: a copy serving q queries then
// timeshares, multiplying round cost by ceil(q / submesh capacity).
//
// The host work and the charges are two functions: detail::constrained_pass
// advances the queries and measures copies and rounds, and
// detail::constrained_charges prices the steps from those. The Partitioned
// engine runs the pass once per call and charges through recovered_phase,
// so a failed attempt re-charges the call without re-running the pass.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "mesh/cost.hpp"
#include "mesh/snake.hpp"
#include "multisearch/graph.hpp"
#include "multisearch/splitter.hpp"
#include "multisearch/validate.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"

namespace meshsearch::msearch {

struct ConstrainedStats {
  mesh::Cost cost;  ///< the call's charges (zero from constrained_pass)
  std::size_t marked = 0;    ///< queries marked in step 1
  std::size_t copies = 0;    ///< subgraph copies created in step 4
  std::size_t advanced = 0;  ///< total visits performed in step 6
  std::size_t rounds = 0;    ///< max rounds used by any copy (<= log2 n)
};

/// Capacity of a delta-submesh on `shape`: n^delta, but never smaller than
/// the largest piece it must hold (the paper's O(n^delta) constant). A pure
/// function of the splitting and the mesh, so a warm engine computes it once
/// per structure generation instead of once per call.
inline std::size_t constrained_capacity(const Splitting& psi,
                                        mesh::MeshShape shape) {
  return std::max<std::size_t>(
      {std::size_t{1},
       static_cast<std::size_t>(std::ceil(
           std::pow(static_cast<double>(shape.size()), psi.delta))),
       max_piece_size(psi)});
}

namespace detail {
/// The procedure's host work: mark (step 1), Gamma (step 2), the
/// assignment of marked queries to copies (step 5) and the step-6
/// advancement rounds. It charges nothing and opens no span; the returned
/// stats (cost left at zero) carry everything constrained_charges needs.
/// `cap` is constrained_capacity of the same splitting and shape.
template <SearchProgram P>
ConstrainedStats constrained_pass(const DistributedGraph& g,
                                  const Splitting& psi, std::size_t cap,
                                  const P& prog, std::vector<Query>& queries,
                                  mesh::MeshShape shape,
                                  bool duplicate_copies) {
  ConstrainedStats st;

  // Step 1: mark the queries whose current vertex lies in some piece.
  std::vector<std::uint32_t> marked_idx;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    if (q.done || q.current == kNoVertex) continue;
    if (psi.piece[static_cast<std::size_t>(q.current)] < 0) continue;
    marked_idx.push_back(static_cast<std::uint32_t>(i));
  }
  st.marked = marked_idx.size();

  // Step 2: Gamma_i = ceil(#queries in G_i / n^delta).
  std::vector<std::size_t> gamma(psi.num_pieces(), 0);
  std::size_t total_copies = 0;
  {
    std::vector<std::size_t> load(psi.num_pieces(), 0);
    for (const auto i : marked_idx)
      ++load[static_cast<std::size_t>(
          psi.piece[static_cast<std::size_t>(queries[i].current)])];
    for (std::size_t pc = 0; pc < gamma.size(); ++pc) {
      gamma[pc] = duplicate_copies ? (load[pc] + cap - 1) / cap
                                   : (load[pc] > 0 ? 1 : 0);
      total_copies += gamma[pc];
    }
  }
  st.copies = total_copies;
  if (total_copies == 0) return st;  // step 3's emptiness test

  // Step 5: move marked queries to copies, <= cap queries per copy. The
  // copy -> queries map is CSR (one flat array + offsets) rather than a
  // vector-of-vectors; two passes make the identical round-robin assignment
  // (count per copy, then cursor fill in marked_idx order).
  std::vector<std::size_t> copy_off(total_copies + 1, 0);
  std::vector<std::uint32_t> copy_data;
  {
    // Assignment: queries of piece i round-robin over its gamma_i copies.
    // copy_base[pc] = id of the first copy of piece pc.
    std::vector<std::size_t> copy_base(psi.num_pieces() + 1, 0);
    for (std::size_t pc = 0; pc < psi.num_pieces(); ++pc)
      copy_base[pc + 1] = copy_base[pc] + gamma[pc];
    std::vector<std::size_t> next_copy(psi.num_pieces(), 0);
    for (const auto i : marked_idx) {
      const auto pc = static_cast<std::size_t>(
          psi.piece[static_cast<std::size_t>(queries[i].current)]);
      ++copy_off[copy_base[pc] + next_copy[pc] + 1];
      next_copy[pc] = (next_copy[pc] + 1) % gamma[pc];
    }
    for (std::size_t c = 0; c < total_copies; ++c) copy_off[c + 1] += copy_off[c];
    copy_data.resize(copy_off[total_copies]);
    std::vector<std::size_t> cursor(copy_off.begin(), copy_off.end() - 1);
    std::fill(next_copy.begin(), next_copy.end(), 0);
    for (const auto i : marked_idx) {
      const auto pc = static_cast<std::size_t>(
          psi.piece[static_cast<std::size_t>(queries[i].current)]);
      copy_data[cursor[copy_base[pc] + next_copy[pc]]++] = i;
      next_copy[pc] = (next_copy[pc] + 1) % gamma[pc];
    }
  }

  // Step 6: up to log2(n) local advancement rounds, in every copy at once.
  // A query that fails to advance in one round (path ended, or next vertex
  // outside its piece) fails in every later round, so its step-6 visit count
  // is k = min(log2 n, streak) whatever the other queries do, and a copy
  // runs max k rounds. So the host may advance a copy's queries in either
  // order (EXPERIMENTS.md V5): a copy of at most kPrefetchDistance queries
  // advances each query through all its rounds before the next, which keeps
  // that walk's records and branch history hot; a larger copy sweeps its
  // queries once per round and prefetches the record a query
  // kPrefetchDistance slots ahead will read.
  const std::size_t max_rounds = static_cast<std::size_t>(std::floor(
      std::log2(std::max<double>(2.0, static_cast<double>(shape.size())))));
  std::vector<std::size_t> rounds_used(total_copies, 0);
  std::vector<std::size_t> visits(total_copies, 0);
  std::vector<std::size_t> batches(total_copies, 1);
  util::parallel_for(
      0, total_copies,
      [&](std::size_t c) {
        const std::size_t lo = copy_off[c];
        const std::size_t hi = copy_off[c + 1];
        // Without duplication (ablation) an overloaded copy timeshares its
        // submesh in ceil(q / cap) sequential batches per round.
        batches[c] = std::max<std::size_t>(1, (hi - lo + cap - 1) / cap);
        // One round for the query in copy_data slot j; false once it stops.
        const auto step = [&](std::size_t j) {
          Query& q = queries[copy_data[j]];
          if (q.next == kNoVertex) {
            q.done = true;  // path ends at current vertex — unmark
            return false;
          }
          if (psi.piece[static_cast<std::size_t>(q.next)] !=
              psi.piece[static_cast<std::size_t>(q.current)])
            return false;  // next node outside G_i — unmarked, visit deferred
          advance_one(g, prog, q);
          ++visits[c];
          return true;
        };
        constexpr std::size_t kAhead = kPrefetchDistance;
        if (hi - lo <= kAhead) {
          for (std::size_t j = lo; j < hi; ++j) {
            std::size_t k = 0;
            while (k < max_rounds && step(j)) ++k;
            rounds_used[c] = std::max(rounds_used[c], k);
          }
          return;
        }
        const auto prefetch = [&](std::size_t j) {
          const Query& qa = queries[copy_data[j]];
          if (qa.next != kNoVertex) prefetch_visit(g, prog, qa.next);
        };
        std::size_t r = 0;
        for (; r < max_rounds; ++r) {
          for (std::size_t j = lo; j < lo + kAhead; ++j) prefetch(j);
          bool any = false;
          for (std::size_t j = lo; j < hi; ++j) {
            if (j + kAhead < hi) prefetch(j + kAhead);
            any = step(j) || any;
          }
          if (!any) break;
        }
        rounds_used[c] = r;
      });

  for (std::size_t c = 0; c < total_copies; ++c) {
    st.rounds = std::max(st.rounds, rounds_used[c] * batches[c]);
    st.advanced += visits[c];
  }
  // Step 7: discard copies — no host work, no mesh time.
  return st;
}

/// The mesh time of one Constrained-Multisearch call whose host pass
/// returned `st`: each step's charges under its cm.step span, in step
/// order, stopping after step 3 when no copy was made. A pure function of
/// (st.copies, st.rounds, cap, p), so a retried call re-charges without
/// re-running the pass. `p` is the mesh size and `cap` the pass's
/// constrained_capacity.
inline mesh::Cost constrained_charges(const ConstrainedStats& st,
                                      std::size_t cap,
                                      const mesh::CostModel& m, double p) {
  mesh::Cost cost;
  TRACE_SPAN(m.trace, "constrained-multisearch");
  {
    // Fetching piece(v(q)) is one RAR over the whole mesh.
    TRACE_SPAN(m.trace, "cm.step1: mark queries");
    cost += m.rar(p);
  }
  {
    TRACE_SPAN(m.trace, "cm.step2: compute Gamma");
    cost += m.raw(p) + m.scan(p);
  }
  {
    TRACE_SPAN(m.trace, "cm.step3: emptiness test");
    cost += m.reduce(p);
  }
  if (st.copies == 0) return cost;
  {
    // Create the copies and place them in delta-submeshes — a constant
    // number of standard mesh operations (Lemma 3 proof).
    TRACE_SPAN(m.trace, "cm.step4: create copies");
    cost += m.sort(p) + m.route(p);
  }
  {
    TRACE_SPAN(m.trace, "cm.step5: distribute queries");
    cost += m.sort(p) + m.scan(p) + m.route(p);
  }
  {
    // Each round is a local RAR inside a delta-submesh; the slowest copy
    // sets the time.
    TRACE_SPAN(m.trace, "cm.step6: local advancement rounds");
    const double s_sub =
        static_cast<double>(mesh::MeshShape::for_elements(cap).size());
    cost += m.rar(s_sub, static_cast<double>(st.rounds));
  }
  return cost;
}
}  // namespace detail

/// Front door: validate the graph, the family Psi (piece id -1 stays legal:
/// Psi is a family of pieces, not a partition) and the batch size before
/// anything runs, then one host pass and its charges.
template <SearchProgram P>
ConstrainedStats constrained_multisearch(const DistributedGraph& g,
                                         const Splitting& psi, const P& prog,
                                         std::vector<Query>& queries,
                                         const mesh::CostModel& m,
                                         mesh::MeshShape shape,
                                         bool duplicate_copies = true) {
  constexpr const char* kEngine = "constrained";
  validate_graph(g, kEngine);
  validate_piece_family(g, psi, kEngine);
  validate_graph_fits(g, shape, kEngine);
  validate_batch_size(queries.size(), shape.size(), kEngine);
  const std::size_t cap = constrained_capacity(psi, shape);
  ConstrainedStats st = detail::constrained_pass(g, psi, cap, prog, queries,
                                                 shape, duplicate_copies);
  st.cost = detail::constrained_charges(st, cap, m,
                                        static_cast<double>(shape.size()));
  return st;
}

}  // namespace meshsearch::msearch
