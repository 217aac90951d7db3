#include "mesh/cycle_ops.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>

#include "mesh/integrity.hpp"
#include "util/check.hpp"
#include "util/parallel_for.hpp"

namespace meshsearch::mesh {

namespace {

/// Greedy XY routing of a partial packet set: payload_rm[i] travels from
/// row-major cell i to row-major dest_rm[i] (< 0 = no packet). Destinations
/// must be distinct. out_rm[d] receives the payload (others keep `fill`).
/// Same synchronous queue model as Grid::route_permutation.
template <typename T>
std::size_t route_partial_generic(MeshShape shape,
                                  const std::vector<T>& payload_rm,
                                  const std::vector<std::int64_t>& dest_rm,
                                  std::vector<T>& out_rm, T fill,
                                  FaultPlan* fault = nullptr) {
  const std::uint32_t s = shape.side();
  const std::size_t p = shape.size();
  MS_CHECK(payload_rm.size() == p && dest_rm.size() == p);
  out_rm.assign(p, fill);

  struct Packet {
    T value;
    std::uint32_t dr, dc;
    std::uint64_t sum = 0;  // payload checksum (computed while armed)
  };
  struct Cell {
    std::deque<Packet> horiz, vert;
  };
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
    MS_CHECK_MSG(!seen[d], "route_partial: destination collision");
    seen[d] = 1;
#endif
    Packet pk{payload_rm[i], static_cast<std::uint32_t>(d / s),
              static_cast<std::uint32_t>(d % s), 0};
    if constexpr (kChecksummed) {
      // Checksum at injection, verified at every delivery below.
      if (faulty) pk.sum = integrity::payload_checksum(pk.value);
    }
    const std::uint32_t r = static_cast<std::uint32_t>(i / s);
    const std::uint32_t c = static_cast<std::uint32_t>(i % s);
    if (r == pk.dr && c == pk.dc) {
      out_rm[d] = pk.value;
    } else {
      ++undelivered;
      if (c != pk.dc)
        state[i].horiz.push_back(pk);
      else
        state[i].vert.push_back(pk);
    }
  }

  std::size_t steps = 0;
  // Fault injection mirrors Grid::route_permutation: stalls suppress a
  // cell's departures for one step, drops and detected corruptions leave
  // the packet at its queue head (blocking that queue for the rest of the
  // step) and the convergence guard is scaled while armed.
  const std::uint64_t epoch = faulty ? fault->next_route_epoch() : 0;
  const std::size_t base_cap = 64 * static_cast<std::size_t>(s) + 64;
  const std::size_t cap =
      faulty ? static_cast<std::size_t>(static_cast<double>(base_cap) *
                                        kFaultRouteCapFactor)
             : base_cap;
  std::vector<std::uint64_t> blocked_h, blocked_v;
  if (faulty) {
    blocked_h.assign(p, 0);
    blocked_v.assign(p, 0);
  }
  while (undelivered > 0) {
    ++steps;
    if (!faulty) {
      MS_CHECK_MSG(steps <= cap, "partial routing failed to converge");
    } else if (steps > cap) {
      ErrorContext ctx;
      ctx.engine = "cycle";
      ctx.phase = "route";
      ctx.site = "route_partial";
      ctx.seed = fault->config().seed;
      ctx.occurrence = epoch;
      ctx.has_seed = true;
      throw FaultExhaustedError(
          "partial routing exceeded its scaled convergence guard under "
          "injected faults",
          std::move(ctx));
    }
    struct Move {
      std::size_t from_cell;
      bool from_horiz;
      std::size_t to_cell;
      bool to_horiz;
    };
    // Same scheme as Grid::route_permutation: read-only move generation
    // runs host-parallel over rows; per-row lists concatenate in row order
    // so the (order-sensitive) apply phase sees the serial sweep order.
    std::vector<std::vector<Move>> row_moves(s);
    util::parallel_for(
        std::size_t{0}, s,
        [&](std::size_t row) {
          const auto r = static_cast<std::uint32_t>(row);
          auto& moves = row_moves[row];
          for (std::uint32_t c = 0; c < s; ++c) {
            const std::size_t cell = static_cast<std::size_t>(r) * s + c;
            if (faulty && fault->stall(epoch, steps, cell)) continue;
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
                break;
              }
            }
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
    for (const auto& mv : moves) {
      if (faulty) {
        auto& blocked = mv.from_horiz ? blocked_h : blocked_v;
        if (blocked[mv.from_cell] == steps) continue;
        if (fault->drop(epoch, steps, static_cast<std::uint64_t>(mv.from_cell),
                        static_cast<std::uint64_t>(mv.to_cell))) {
          blocked[mv.from_cell] = steps;
          continue;
        }
        if constexpr (kChecksummed) {
          if (fault->corrupt(epoch, steps,
                             static_cast<std::uint64_t>(mv.from_cell),
                             static_cast<std::uint64_t>(mv.to_cell))) {
            // One payload bit flips in transit; the receiver's checksum
            // catches it, the copy is discarded and the intact head packet
            // retransmits next step (same recovery as a drop).
            auto& q = mv.from_horiz ? state[mv.from_cell].horiz
                                    : state[mv.from_cell].vert;
            Packet sent = q.front();
            integrity::flip_payload_bit(
                sent.value,
                fault->corrupt_bit(epoch, steps,
                                   static_cast<std::uint64_t>(mv.from_cell),
                                   static_cast<std::uint64_t>(mv.to_cell)));
            if (integrity::payload_checksum(sent.value) == sent.sum) {
              ErrorContext ctx;
              ctx.engine = "cycle";
              ctx.phase = "route";
              ctx.site = "route_partial.corrupt";
              ctx.seed = fault->config().seed;
              ctx.occurrence = epoch;
              ctx.has_seed = true;
              throw IntegrityError(
                  "corrupted payload passed checksum verification",
                  std::move(ctx));
            }
            fault->count_corrupt_detected();
            fault->count_corrupt_recovered();
            blocked[mv.from_cell] = steps;
            continue;
          }
        }
      }
      auto& q = mv.from_horiz ? state[mv.from_cell].horiz
                              : state[mv.from_cell].vert;
      Packet pk = q.front();
      q.pop_front();
      if constexpr (kChecksummed) {
        if (faulty && integrity::payload_checksum(pk.value) != pk.sum) {
          ErrorContext ctx;
          ctx.engine = "cycle";
          ctx.phase = "route";
          ctx.site = "route_partial.verify";
          ctx.seed = fault->config().seed;
          ctx.occurrence = epoch;
          ctx.has_seed = true;
          throw IntegrityError("routed payload failed checksum verification",
                               std::move(ctx));
        }
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

}  // namespace

namespace {

void record(trace::TraceRecorder* trace, trace::Primitive prim,
            MeshShape shape, std::size_t steps) {
  if (trace != nullptr)
    trace->count(prim, static_cast<double>(shape.size()),
                 static_cast<double>(steps));
}

}  // namespace

std::size_t route_partial(Grid<std::int64_t>& g,
                          const std::vector<std::int64_t>& dest_rm,
                          std::int64_t fill, trace::TraceRecorder* trace,
                          FaultPlan* fault) {
  const MeshShape shape = g.shape();
  std::vector<std::int64_t> payload(shape.size());
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = g.at_rm(i);
  std::vector<std::int64_t> out;
  const std::size_t steps =
      route_partial_generic(shape, payload, dest_rm, out, fill, fault);
  for (std::size_t i = 0; i < out.size(); ++i) g.at_rm(i) = out[i];
  record(trace, trace::Primitive::kRoute, shape, steps);
  return steps;
}

std::size_t segmented_snake_broadcast(
    MeshShape shape, std::vector<std::int64_t>& values,
    const std::vector<std::uint8_t>& seg_start, trace::TraceRecorder* trace,
    FaultPlan* fault) {
  MS_CHECK(values.size() == shape.size() && seg_start.size() == shape.size());
  using Pair = std::array<std::int64_t, 2>;  // {is_leader, value}
  std::vector<Pair> packed(shape.size());
  for (std::size_t i = 0; i < packed.size(); ++i)
    packed[i] = Pair{seg_start[i] ? 1 : 0, values[i]};
  auto g = Grid<Pair>::from_snake(shape, packed);
  g.set_fault(fault);
  const std::size_t steps = g.snake_scan(
      [](const Pair& a, const Pair& b) { return b[0] ? b : a; });
  const auto out = g.to_snake();
  for (std::size_t i = 0; i < out.size(); ++i) values[i] = out[i][1];
  record(trace, trace::Primitive::kBroadcast, shape, steps);
  return steps;
}

CycleRarResult cycle_random_access_read(MeshShape shape,
                                        const std::vector<std::int64_t>& table,
                                        const std::vector<std::int64_t>& addr,
                                        std::int64_t fill,
                                        trace::TraceRecorder* trace,
                                        FaultPlan* fault) {
  const std::size_t p = shape.size();
  MS_CHECK(table.size() == p && addr.size() == p);
  CycleRarResult res;

  // Packet: {sort key (address, kNoAddr last), original snake index, value}.
  using Pk = std::array<std::int64_t, 3>;
  constexpr std::int64_t kLast = std::numeric_limits<std::int64_t>::max();
  std::vector<Pk> reqs(p);
  for (std::size_t i = 0; i < p; ++i) {
    MS_CHECK(addr[i] == kNoAddr ||
             (addr[i] >= 0 && static_cast<std::size_t>(addr[i]) <
                                  static_cast<std::size_t>(p)));
    reqs[i] = Pk{addr[i] == kNoAddr ? kLast : addr[i],
                 static_cast<std::int64_t>(i), 0};
  }

  // 1. Sort requests by address into snake order.
  auto g = Grid<Pk>::from_snake(shape, reqs);
  g.set_fault(fault);
  res.steps += g.shearsort(
      [](const Pk& a, const Pk& b) { return a[0] < b[0]; });
  auto sorted = g.to_snake();

  // 2. Mark group leaders (compare with the snake predecessor: 1 step).
  res.steps += 1;
  std::vector<std::uint8_t> leader(p, 0);
  for (std::size_t j = 0; j < p; ++j) {
    if (sorted[j][0] == kLast) continue;
    leader[j] = j == 0 || sorted[j - 1][0] != sorted[j][0];
  }

  // 3. Leaders travel to their target processors (distinct addresses =>
  //    a partial permutation). Payload carries the leader's sorted slot.
  std::vector<std::int64_t> dest_rm(p, -1);
  std::vector<std::int64_t> slot_payload_rm(p, -1);
  for (std::size_t j = 0; j < p; ++j) {
    if (!leader[j]) continue;
    const std::size_t rm_src = shape.snake_to_rowmajor(j);
    dest_rm[rm_src] = static_cast<std::int64_t>(
        shape.snake_to_rowmajor(static_cast<std::size_t>(sorted[j][0])));
    slot_payload_rm[rm_src] = static_cast<std::int64_t>(j);
  }
  std::vector<std::int64_t> arrived_slot_rm;
  res.steps += route_partial_generic(shape, slot_payload_rm, dest_rm,
                                     arrived_slot_rm, std::int64_t{-1}, fault);

  // 4. Targets send their table entry back to the leader's slot.
  std::vector<std::int64_t> back_dest_rm(p, -1), value_payload_rm(p, 0);
  for (std::size_t rm = 0; rm < p; ++rm) {
    if (arrived_slot_rm[rm] < 0) continue;
    const std::size_t snake_here = shape.rowmajor_to_snake(rm);
    back_dest_rm[rm] = static_cast<std::int64_t>(shape.snake_to_rowmajor(
        static_cast<std::size_t>(arrived_slot_rm[rm])));
    value_payload_rm[rm] = table[snake_here];
  }
  std::vector<std::int64_t> fetched_rm;
  res.steps += route_partial_generic(shape, value_payload_rm, back_dest_rm,
                                     fetched_rm, std::int64_t{0}, fault);

  // 5. Segmented broadcast of the fetched records down each address group.
  std::vector<std::int64_t> values(p, 0);
  for (std::size_t j = 0; j < p; ++j)
    values[j] = fetched_rm[shape.snake_to_rowmajor(j)];
  res.steps += segmented_snake_broadcast(shape, values, leader,
                                         /*trace=*/nullptr, fault);

  // 6. Answers travel back to the requesting processors (permutation by
  //    original index).
  std::vector<std::int64_t> ans_dest_rm(p, -1), ans_payload_rm(p, 0);
  for (std::size_t j = 0; j < p; ++j) {
    if (sorted[j][0] == kLast) continue;
    const std::size_t rm_src = shape.snake_to_rowmajor(j);
    ans_dest_rm[rm_src] = static_cast<std::int64_t>(shape.snake_to_rowmajor(
        static_cast<std::size_t>(sorted[j][1])));
    ans_payload_rm[rm_src] = values[j];
  }
  std::vector<std::int64_t> answers_rm;
  res.steps += route_partial_generic(shape, ans_payload_rm, ans_dest_rm,
                                     answers_rm, fill, fault);

  res.out.assign(p, fill);
  for (std::size_t i = 0; i < p; ++i) {
    if (addr[i] == kNoAddr) continue;
    res.out[i] = answers_rm[shape.snake_to_rowmajor(i)];
  }
  record(trace, trace::Primitive::kRar, shape, res.steps);
  return res;
}

CycleRawResult cycle_random_access_write(
    MeshShape shape, std::vector<std::int64_t> table,
    const std::vector<std::int64_t>& addr,
    const std::vector<std::int64_t>& value, trace::TraceRecorder* trace,
    FaultPlan* fault) {
  const std::size_t p = shape.size();
  MS_CHECK(table.size() == p && addr.size() == p && value.size() == p);
  CycleRawResult res;

  // Packet: {address (kNoAddr last), value, unused}.
  using Pk = std::array<std::int64_t, 3>;
  constexpr std::int64_t kLast = std::numeric_limits<std::int64_t>::max();
  std::vector<Pk> reqs(p);
  for (std::size_t i = 0; i < p; ++i) {
    MS_CHECK(addr[i] == kNoAddr ||
             (addr[i] >= 0 &&
              static_cast<std::size_t>(addr[i]) < static_cast<std::size_t>(p)));
    reqs[i] = Pk{addr[i] == kNoAddr ? kLast : addr[i], value[i], 0};
  }

  // 1. Sort by address.
  auto g = Grid<Pk>::from_snake(shape, reqs);
  g.set_fault(fault);
  res.steps += g.shearsort(
      [](const Pk& a, const Pk& b) { return a[0] < b[0]; });
  auto sorted = g.to_snake();

  // 2. Segmented SUM along the snake (group = equal addresses); after the
  //    scan the LAST element of each group holds the group total. Run the
  //    scan over {address, running sum} pairs.
  {
    auto g2 = Grid<Pk>::from_snake(shape, sorted);
    g2.set_fault(fault);
    res.steps += g2.snake_scan([](const Pk& a, const Pk& b) {
      if (a[0] != b[0]) return b;  // new group: restart the sum
      return Pk{b[0], a[1] + b[1], 0};
    });
    sorted = g2.to_snake();
  }

  // 3. Group-total holders (last of each group) route to the targets:
  //    one per distinct address — a partial permutation. (Identifying the
  //    last of a group is one neighbour comparison.)
  res.steps += 1;
  std::vector<std::int64_t> dest_rm(p, -1), payload_rm(p, 0);
  for (std::size_t j = 0; j < p; ++j) {
    if (sorted[j][0] == kLast) continue;
    const bool last = j + 1 == p || sorted[j + 1][0] != sorted[j][0];
    if (!last) continue;
    const std::size_t rm_src = shape.snake_to_rowmajor(j);
    dest_rm[rm_src] = static_cast<std::int64_t>(
        shape.snake_to_rowmajor(static_cast<std::size_t>(sorted[j][0])));
    payload_rm[rm_src] = sorted[j][1];
  }
  std::vector<std::int64_t> totals_rm;
  res.steps += route_partial_generic(shape, payload_rm, dest_rm, totals_rm,
                                     std::int64_t{0}, fault);

  // 4. Targets combine the arrived total into their table entry (local).
  res.table = std::move(table);
  std::vector<std::uint8_t> got(p, 0);
  for (std::size_t rm = 0; rm < p; ++rm)
    if (dest_rm[rm] >= 0) got[static_cast<std::size_t>(dest_rm[rm])] = 1;
  for (std::size_t rm = 0; rm < p; ++rm) {
    if (!got[rm]) continue;
    res.table[shape.rowmajor_to_snake(rm)] += totals_rm[rm];
  }
  record(trace, trace::Primitive::kRaw, shape, res.steps);
  return res;
}

}  // namespace meshsearch::mesh
