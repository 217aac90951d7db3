// Cycle engine: a physically faithful mesh-connected computer simulator.
//
// A Grid<T> is a side x side array of processors, each holding one value of
// type T. Algorithms here are executed step by step under the machine model
// of the paper: in one step a processor performs O(1) local work and
// exchanges at most one word with each grid neighbour. Every composite
// operation returns the exact number of steps it took.
//
// Provided operations (with their step counts on a side s mesh):
//   * odd-even transposition row/column sort       — s steps
//   * shearsort into snake order                   — (2⌈log2 s⌉ + 3) * s
//   * snake prefix scan                            — ~3s
//   * broadcast from the top-left processor        — 2(s-1)
//   * greedy XY (dimension-order) routing          — measured
//
// Routing has one implementation, the free function route_xy below: it
// moves a row-major payload to (partial) row-major destinations.
// Grid::route_permutation routes the grid's own cells through it, and the
// composite operations of mesh/cycle_ops.hpp (route_partial, the physical
// random access read and write) call it directly.
//
// The counting engine (mesh::CostModel, mesh/cost.hpp) charges closed-form
// costs for the same operations; the cross-engine tests check that the grid
// computes each primitive's host definition and that measured steps track
// the charged bounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "mesh/fault.hpp"
#include "mesh/integrity.hpp"
#include "mesh/snake.hpp"
#include "trace/trace.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"

namespace meshsearch::mesh {

template <typename T>
class Grid {
 public:
  explicit Grid(MeshShape shape) : shape_(shape), cells_(shape.size()) {}

  /// Load values given in snake order.
  static Grid from_snake(MeshShape shape, const std::vector<T>& snake) {
    MS_CHECK(snake.size() == shape.size());
    Grid g(shape);
    for (std::size_t i = 0; i < snake.size(); ++i)
      g.at_rm(shape.snake_to_rowmajor(i)) = snake[i];
    return g;
  }

  MeshShape shape() const { return shape_; }
  std::uint32_t side() const { return shape_.side(); }

  /// Attach an optional trace sink: composite operations (shearsort,
  /// snake_scan, broadcast, route_permutation) record their MEASURED step
  /// counts under the same primitive labels the counting engine charges,
  /// so cross-engine divergence is a queryable metric. route_xy records
  /// nothing: its other callers (mesh/cycle_ops.hpp) take their own trace
  /// argument. Not owned.
  void set_trace(trace::TraceRecorder* t) { trace_ = t; }
  trace::TraceRecorder* trace() const { return trace_; }

  /// Attach an optional fault oracle (mesh/fault.hpp): route_permutation
  /// hands it to route_xy, which injects per-step processor stalls, link
  /// drops and in-transit payload corruption; the lockstep primitives
  /// (shearsort, snake_scan, broadcast) add detected-and-retried steps.
  /// Null or disarmed changes nothing. Not owned.
  void set_fault(FaultPlan* f) { fault_ = f; }
  FaultPlan* fault() const { return fault_; }

  T& at(std::uint32_t r, std::uint32_t c) {
    MS_DCHECK(r < side() && c < side());
    return cells_[static_cast<std::size_t>(r) * side() + c];
  }
  const T& at(std::uint32_t r, std::uint32_t c) const {
    MS_DCHECK(r < side() && c < side());
    return cells_[static_cast<std::size_t>(r) * side() + c];
  }
  T& at_rm(std::size_t rm) { return cells_[rm]; }
  const T& at_rm(std::size_t rm) const { return cells_[rm]; }

  /// Dump the grid contents in snake order.
  std::vector<T> to_snake() const {
    std::vector<T> out(shape_.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = cells_[shape_.snake_to_rowmajor(i)];
    return out;
  }

  // -------------------------------------------------------------------------
  // Sorting
  // -------------------------------------------------------------------------

  /// One odd-even transposition sort of every row in parallel. Rows with
  /// `snake_direction` sort even rows ascending and odd rows descending
  /// (the shearsort row phase); otherwise all rows ascend. Returns steps.
  /// Each phase runs host-parallel over rows: rows touch disjoint cells, so
  /// the result is bit-identical at any thread count; small grids fall back
  /// to the serial path via the grain (see DESIGN.md §5.6).
  template <typename Cmp>
  std::size_t sort_rows(Cmp cmp, bool snake_direction) {
    const std::uint32_t s = side();
    for (std::uint32_t phase = 0; phase < s; ++phase) {
      util::parallel_for(
          std::size_t{0}, s,
          [&](std::size_t row) {
            const auto r = static_cast<std::uint32_t>(row);
            const bool descending = snake_direction && (r & 1u);
            for (std::uint32_t c = phase & 1u; c + 1 < s; c += 2) {
              T& a = at(r, c);
              T& b = at(r, c + 1);
              const bool out_of_order = descending ? cmp(a, b) : cmp(b, a);
              if (out_of_order) std::swap(a, b);
            }
          },
          /*grain=*/16);
    }
    return s;
  }

  /// Odd-even transposition sort of every column (ascending top->bottom).
  /// Host-parallel over columns per phase (disjoint cells per column).
  template <typename Cmp>
  std::size_t sort_cols(Cmp cmp) {
    const std::uint32_t s = side();
    for (std::uint32_t phase = 0; phase < s; ++phase) {
      util::parallel_for(
          std::size_t{0}, s,
          [&](std::size_t col) {
            const auto c = static_cast<std::uint32_t>(col);
            for (std::uint32_t r = phase & 1u; r + 1 < s; r += 2) {
              T& a = at(r, c);
              T& b = at(r + 1, c);
              if (cmp(b, a)) std::swap(a, b);
            }
          },
          /*grain=*/16);
    }
    return s;
  }

  /// Shearsort into snake order. O(sqrt(p) log p) steps — deliberately the
  /// simple suboptimal sort; see mesh/cost.hpp for the discussion.
  template <typename Cmp = std::less<T>>
  std::size_t shearsort(Cmp cmp = {}) {
    std::size_t steps = 0;
    const std::uint32_t s = side();
    std::uint32_t rounds = 1;
    for (std::uint32_t x = 1; x < s; x <<= 1) ++rounds;  // ceil(log2 s) + 1
    for (std::uint32_t i = 0; i < rounds; ++i) {
      steps += sort_rows(cmp, /*snake_direction=*/true);
      steps += sort_cols(cmp);
    }
    steps += sort_rows(cmp, /*snake_direction=*/true);
    steps += lockstep_faults(steps);
    record(trace::Primitive::kSort, steps);
    return steps;
  }

  // -------------------------------------------------------------------------
  // Scan / broadcast
  // -------------------------------------------------------------------------

  /// Inclusive prefix scan along the snake with associative op.
  /// Classic 3-sweep construction: row scans, a column scan of row totals,
  /// then a row broadcast of offsets.
  template <typename Op>
  std::size_t snake_scan(Op op) {
    const std::uint32_t s = side();
    // 1) Each row scans in its snake direction: s-1 steps. Rows are
    //    independent — host-parallel over rows.
    util::parallel_for(
        std::size_t{0}, s,
        [&](std::size_t row) {
          const auto r = static_cast<std::uint32_t>(row);
          if ((r & 1u) == 0)
            for (std::uint32_t c = 1; c < s; ++c)
              at(r, c) = op(at(r, c - 1), at(r, c));
          else
            for (std::uint32_t c = s - 1; c-- > 0;)
              at(r, c) = op(at(r, c + 1), at(r, c));
        },
        /*grain=*/16);
    // 2) Row totals live at the snake-exit end of each row. Scan them down
    //    a single column: s-1 steps to collect + s-1 to scan == modelled as
    //    s steps (totals hop to the exit column first is free: they are
    //    already there).
    std::vector<T> row_total(s);
    for (std::uint32_t r = 0; r < s; ++r)
      row_total[r] = (r & 1u) == 0 ? at(r, s - 1) : at(r, 0);
    std::vector<T> offset(s);  // offset[r] = combined totals of rows < r
    for (std::uint32_t r = 1; r < s; ++r)
      offset[r] = r == 1 ? row_total[0] : op(offset[r - 1], row_total[r - 1]);
    // 3) Broadcast offsets across rows and combine: s-1 steps. Each row
    //    combines its own offset — host-parallel over rows.
    util::parallel_for(
        std::size_t{1}, s,
        [&](std::size_t row) {
          const auto r = static_cast<std::uint32_t>(row);
          for (std::uint32_t c = 0; c < s; ++c)
            at(r, c) = op(offset[r], at(r, c));
        },
        /*grain=*/16);
    std::size_t steps = 3 * static_cast<std::size_t>(s);
    steps += lockstep_faults(steps);
    record(trace::Primitive::kScan, steps);
    return steps;
  }

  /// Broadcast the value at (0,0) to every processor: 2(s-1) steps.
  std::size_t broadcast_from_origin() {
    const std::uint32_t s = side();
    for (std::uint32_t c = 1; c < s; ++c) at(0, c) = at(0, 0);
    // Row 0 is read-only below — the per-row fill parallelizes cleanly.
    util::parallel_for(
        std::size_t{1}, s,
        [&](std::size_t row) {
          const auto r = static_cast<std::uint32_t>(row);
          for (std::uint32_t c = 0; c < s; ++c) at(r, c) = at(0, c);
        },
        /*grain=*/16);
    std::size_t steps = 2 * static_cast<std::size_t>(s - 1);
    steps += lockstep_faults(steps);
    record(trace::Primitive::kBroadcast, steps);
    return steps;
  }

  // -------------------------------------------------------------------------
  // Routing
  // -------------------------------------------------------------------------

  /// Permutation routing of the grid's cells through route_xy: the value
  /// at row-major position i moves to row-major position dest_rm[i];
  /// dest_rm is a permutation. Returns (and records) the measured steps.
  std::size_t route_permutation(const std::vector<std::uint32_t>& dest_rm);

 private:
  void record(trace::Primitive prim, std::size_t steps) const {
    if (trace_ != nullptr)
      trace_->count(prim, static_cast<double>(shape_.size()),
                    static_cast<double>(steps));
  }

  /// Lockstep primitives (sort/scan/broadcast) synchronize every step, so a
  /// stalled processor is detected immediately and the step simply re-runs:
  /// the data outcome is unchanged, only the measured step count grows.
  std::size_t lockstep_faults(std::size_t steps) const {
    return fault_ != nullptr && fault_->armed() ? fault_->lockstep_extra(steps)
                                                : 0;
  }

  MeshShape shape_;
  std::vector<T> cells_;
  trace::TraceRecorder* trace_ = nullptr;
  FaultPlan* fault_ = nullptr;
};

/// Greedy XY (dimension-order) routing, the cycle engine's one router:
/// payload_rm[i] travels from row-major cell i to row-major dest_rm[i]
/// (< 0 = no packet); destinations must be distinct. out_rm[d] receives the
/// payload, every cell that receives nothing holds `fill`. One packet per
/// link per step, FIFO queues, X (row) dimension first. Returns the number
/// of synchronous steps until delivery completes; records nothing.
///
/// `fault` (null or disarmed = none) draws one routing epoch per call and
/// then injects per-step processor stalls, link drops and in-transit
/// payload corruption (caught by per-payload checksums, mesh/integrity.hpp):
/// a stalled cell emits nothing for one step; a dropped or corrupted word
/// stays at its queue head and retransmits next step, blocking that queue
/// for the rest of the step. Data is never changed, only steps are added;
/// the convergence guard is scaled while armed and throws
/// FaultExhaustedError (site "route_xy", the plan's seed, the epoch as
/// occurrence) when congestion plus faults exceed it.
template <typename T>
std::size_t route_xy(MeshShape shape, const std::vector<T>& payload_rm,
                     const std::vector<std::int64_t>& dest_rm,
                     std::vector<T>& out_rm, T fill, FaultPlan* fault) {
  const std::uint32_t s = shape.side();
  const std::size_t p = shape.size();
  MS_CHECK(payload_rm.size() == p && dest_rm.size() == p);
  out_rm.assign(p, fill);

  struct Packet {
    T value;
    std::uint32_t dr, dc;   // destination coordinates
    std::uint64_t sum = 0;  // payload checksum (computed while armed)
  };
  // Per-cell FIFO queues: packets still travelling horizontally, and
  // packets travelling vertically.
  struct Cell {
    std::deque<Packet> horiz, vert;
  };
  // Checksums need byte access to the payload; every T the engines route is
  // trivially copyable, but keep non-copyable instantiations compiling
  // (without transport integrity — corruption needs bit access too).
  constexpr bool kChecksummed = std::is_trivially_copyable_v<T>;
  const bool faulty = fault != nullptr && fault->armed();
  std::vector<Cell> state(p);
  std::size_t undelivered = 0;
#ifndef NDEBUG
  std::vector<std::uint8_t> seen(p, 0);
#endif
  for (std::size_t i = 0; i < p; ++i) {
    if (dest_rm[i] < 0) continue;
    const auto d = static_cast<std::size_t>(dest_rm[i]);
    MS_CHECK(d < p);
#ifndef NDEBUG
    MS_CHECK_MSG(!seen[d], "route_xy: destination collision");
    seen[d] = 1;
#endif
    Packet pk{payload_rm[i], static_cast<std::uint32_t>(d / s),
              static_cast<std::uint32_t>(d % s), 0};
    if constexpr (kChecksummed) {
      // Checksum at injection; every delivery below verifies it, so any
      // in-transit flip is detected-and-retransmitted, never silent.
      if (faulty) pk.sum = integrity::payload_checksum(pk.value);
    }
    const std::uint32_t r = static_cast<std::uint32_t>(i / s);
    const std::uint32_t c = static_cast<std::uint32_t>(i % s);
    if (r == pk.dr && c == pk.dc) {
      out_rm[d] = pk.value;  // already home
    } else {
      ++undelivered;
      if (c != pk.dc)
        state[i].horiz.push_back(pk);
      else
        state[i].vert.push_back(pk);
    }
  }

  std::size_t steps = 0;
  // Each call is its own fault epoch, so two routings at the same step
  // index draw independent stall/drop/corrupt decisions.
  const std::uint64_t epoch = faulty ? fault->next_route_epoch() : 0;
  const std::size_t base_cap = 64 * static_cast<std::size_t>(s) + 64;
  const std::size_t cap =
      faulty ? static_cast<std::size_t>(static_cast<double>(base_cap) *
                                        kFaultRouteCapFactor)
             : base_cap;
  const auto error_context = [&](const char* site) {
    ErrorContext ctx;
    ctx.engine = "cycle";
    ctx.phase = "route";
    ctx.site = site;
    ctx.seed = fault->config().seed;
    ctx.occurrence = epoch;
    ctx.has_seed = true;
    return ctx;
  };
  // Per-queue "a drop blocked this queue at step N" stamps. A dropped packet
  // is detected by the receiver's per-step validation and stays at the head
  // of its FIFO for retransmission; any later same-step departure from that
  // queue must also wait (it would dequeue the wrong packet otherwise).
  std::vector<std::uint64_t> blocked_h, blocked_v;
  if (faulty) {
    blocked_h.assign(p, 0);
    blocked_v.assign(p, 0);
  }
  // Synchronous rounds: each cell forwards at most one packet per outgoing
  // link per step. Moves computed against the pre-step state.
  while (undelivered > 0) {
    ++steps;
    if (!faulty) {
      MS_CHECK_MSG(steps <= cap, "greedy XY routing failed to converge");
    } else if (steps > cap) {
      throw FaultExhaustedError(
          "routing exceeded its scaled convergence guard under injected "
          "faults",
          error_context("route_xy"));
    }
    struct Move {
      std::size_t from_cell;
      bool from_horiz;
      std::size_t to_cell;
      bool to_horiz;  // which queue it joins (false = vertical/done)
    };
    // Move generation only READS the pre-step queues, so rows can be
    // scanned host-parallel; per-row move lists are concatenated in row
    // order, which reproduces the serial sweep order exactly (the apply
    // phase below is order-sensitive: pops are FIFO per queue).
    std::vector<std::vector<Move>> row_moves(s);
    util::parallel_for(
        std::size_t{0}, s,
        [&](std::size_t row) {
          const auto r = static_cast<std::uint32_t>(row);
          auto& moves = row_moves[row];
          for (std::uint32_t c = 0; c < s; ++c) {
            const std::size_t cell = static_cast<std::size_t>(r) * s + c;
            // A stalled processor emits nothing this step; its queued
            // packets simply wait. (Pure hash draw — safe from any thread.)
            if (faulty && fault->stall(epoch, steps, cell)) continue;
            // One horizontal departure per step per direction (east and
            // west links are separate).
            auto& hq = state[cell].horiz;
            int east = 0, west = 0;
            for (std::size_t k = 0; k < hq.size();) {
              const bool go_east = hq[k].dc > c;
              if (go_east && east == 0) {
                moves.push_back({cell, true, cell + 1, hq[k].dc != c + 1});
                ++east;
                ++k;
              } else if (!go_east && west == 0) {
                moves.push_back({cell, true, cell - 1, hq[k].dc != c - 1});
                ++west;
                ++k;
              } else {
                break;  // FIFO: head blocked means the rest of the queue waits
              }
            }
            // One vertical departure per step per direction.
            auto& vq = state[cell].vert;
            int south = 0, north = 0;
            for (std::size_t k = 0; k < vq.size();) {
              const bool go_south = vq[k].dr > r;
              if (go_south && south == 0) {
                moves.push_back({cell, false, cell + s, false});
                ++south;
                ++k;
              } else if (!go_south && north == 0) {
                moves.push_back({cell, false, cell - s, false});
                ++north;
                ++k;
              } else {
                break;
              }
            }
          }
        },
        /*grain=*/16);
    std::vector<Move> moves;
    for (const auto& rm : row_moves)
      moves.insert(moves.end(), rm.begin(), rm.end());
    // Apply moves: pop in order recorded (heads first), push to targets.
    for (const Move& mv : moves) {
      auto& q = mv.from_horiz ? state[mv.from_cell].horiz
                              : state[mv.from_cell].vert;
      if (faulty) {
        const auto from = static_cast<std::uint64_t>(mv.from_cell);
        const auto to = static_cast<std::uint64_t>(mv.to_cell);
        auto& blocked = mv.from_horiz ? blocked_h : blocked_v;
        if (blocked[mv.from_cell] == steps) continue;  // behind a drop
        if (fault->drop(epoch, steps, from, to)) {
          blocked[mv.from_cell] = steps;  // head retransmits next step
          continue;
        }
        if constexpr (kChecksummed) {
          if (fault->corrupt(epoch, steps, from, to)) {
            // The link flips one payload bit of the transmitted copy. The
            // receiver's checksum verification catches the mismatch, the
            // corrupted copy is discarded, and the intact head packet
            // retransmits next step — corruption behaves like a detected
            // drop, never a silent value change.
            Packet sent = q.front();
            integrity::flip_payload_bit(
                sent.value, fault->corrupt_bit(epoch, steps, from, to));
            if (integrity::payload_checksum(sent.value) == sent.sum) {
              // Unreachable by construction (a single-bit flip always
              // changes the position-mixed fold) — if it ever fires, the
              // integrity layer itself is broken.
              throw IntegrityError(
                  "corrupted payload passed checksum verification",
                  error_context("route_xy.corrupt"));
            }
            fault->count_corrupt_detected();
            fault->count_corrupt_recovered();
            blocked[mv.from_cell] = steps;
            continue;
          }
        }
      }
      Packet pk = q.front();
      q.pop_front();
      if constexpr (kChecksummed) {
        // Receiver-side validation of every (non-corrupted) delivery: the
        // payload must still match its injection-time checksum.
        if (faulty && integrity::payload_checksum(pk.value) != pk.sum)
          throw IntegrityError("routed payload failed checksum verification",
                               error_context("route_xy.verify"));
      }
      const auto tr = static_cast<std::uint32_t>(mv.to_cell / s);
      const auto tc = static_cast<std::uint32_t>(mv.to_cell % s);
      if (tr == pk.dr && tc == pk.dc) {
        out_rm[mv.to_cell] = pk.value;
        --undelivered;
      } else if (mv.to_horiz) {
        state[mv.to_cell].horiz.push_back(pk);
      } else {
        state[mv.to_cell].vert.push_back(pk);
      }
    }
  }
  return steps;
}

template <typename T>
std::size_t Grid<T>::route_permutation(const std::vector<std::uint32_t>& dest_rm) {
  const std::vector<std::int64_t> dest(dest_rm.begin(), dest_rm.end());
  std::vector<T> routed;
  const std::size_t steps = route_xy(shape_, cells_, dest, routed, T{}, fault_);
  cells_ = std::move(routed);
  record(trace::Primitive::kRoute, steps);
  return steps;
}

}  // namespace meshsearch::mesh
