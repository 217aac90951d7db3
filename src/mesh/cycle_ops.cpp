#include "mesh/cycle_ops.hpp"

#include <array>
#include <limits>

#include "util/check.hpp"

namespace meshsearch::mesh {

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
  const std::size_t steps = route_xy(shape, payload, dest_rm, out, fill, fault);
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
  res.steps += route_xy(shape, slot_payload_rm, dest_rm, arrived_slot_rm,
                        std::int64_t{-1}, fault);

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
  res.steps += route_xy(shape, value_payload_rm, back_dest_rm, fetched_rm,
                        std::int64_t{0}, fault);

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
  res.steps +=
      route_xy(shape, ans_payload_rm, ans_dest_rm, answers_rm, fill, fault);

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
  res.steps += route_xy(shape, payload_rm, dest_rm, totals_rm,
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
