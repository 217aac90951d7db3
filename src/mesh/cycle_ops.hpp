// Composite operations on the cycle engine, built only from the grid's
// step-level primitives: partial greedy routing (route_xy, mesh/grid.hpp,
// the engine's one router), segmented snake broadcast, and the
// centerpiece — the full sort-based concurrent-read RANDOM ACCESS READ,
// the workhorse every multisearch algorithm charges via CostModel::rar.
// Running it physically validates that the charged operation is
// implementable on the machine model and measures its real step count (a
// sqrt(p) log p object here, because the cycle engine's sort is shearsort;
// the counting engine charges the optimal bound instead).
//
// The RAR construction (standard, e.g. Miller & Stout):
//   1. sort the requests by target address into snake order   (shearsort)
//   2. mark group leaders (first request of each address run) (1 step)
//   3. leaders' requests travel to their target processors    (partial route)
//   4. targets send the fetched record back to the leaders    (partial route)
//   5. the fetched record is propagated down each group       (segmented
//      snake broadcast ~ one scan)
//   6. answers travel back to the requesting processors       (route by qid)
#pragma once

#include <cstdint>
#include <vector>

#include "mesh/grid.hpp"
#include "mesh/snake.hpp"
#include "trace/trace.hpp"

namespace meshsearch::mesh {

// Every composite operation takes an optional trace sink and records its
// MEASURED step count under the same primitive label the counting engine
// charges (kRoute / kBroadcast / kRar / kRaw), so one workload run through
// both engines yields directly comparable traces. The optional FaultPlan
// (mesh/fault.hpp) goes to route_xy, which injects stalls, drops and
// corruption into every routing, and adds retried steps to the lockstep
// sub-operations: data outcomes are unchanged, only the measured step
// counts grow; null or disarmed changes nothing.

/// Partial permutation routing on a value grid through route_xy: packet i
/// (row-major) goes to row-major dest_rm[i]; entries < 0 carry no packet.
/// Destinations must be distinct. Cells that receive no packet get `fill`.
/// Returns (and records) the measured steps.
std::size_t route_partial(Grid<std::int64_t>& g,
                          const std::vector<std::int64_t>& dest_rm,
                          std::int64_t fill,
                          trace::TraceRecorder* trace = nullptr,
                          FaultPlan* fault = nullptr);

/// Segmented broadcast along the snake: positions where seg_start is true
/// keep their value; every other position copies the nearest seg_start
/// value above it in snake order. Implemented as a snake scan over
/// (flag, value) pairs. Returns steps (~3 * side).
std::size_t segmented_snake_broadcast(MeshShape shape,
                                      std::vector<std::int64_t>& values,
                                      const std::vector<std::uint8_t>& seg_start,
                                      trace::TraceRecorder* trace = nullptr,
                                      FaultPlan* fault = nullptr);

struct CycleRarResult {
  std::vector<std::int64_t> out;  ///< out[i] = table[addr[i]] or `fill`
  std::size_t steps = 0;          ///< exact simulated steps
};

/// Physical random access read: each processor i (snake order) holds table
/// entry table[i] and (optionally) a request addr[i] (snake address;
/// kNoAddr = none). Concurrent reads of one address are served by the
/// group-leader + segmented-broadcast construction above.
inline constexpr std::int64_t kNoAddr = -1;
CycleRarResult cycle_random_access_read(MeshShape shape,
                                        const std::vector<std::int64_t>& table,
                                        const std::vector<std::int64_t>& addr,
                                        std::int64_t fill = 0,
                                        trace::TraceRecorder* trace = nullptr,
                                        FaultPlan* fault = nullptr);

struct CycleRawResult {
  std::vector<std::int64_t> table;  ///< updated table
  std::size_t steps = 0;
};

/// Physical random access write with combining: table[addr[i]] +=
/// value[i] (sum combining — the canonical associative+commutative merge).
/// Construction: sort (addr, value) pairs by address, segmented snake SUM
/// per address group (leaders end with the group total), leaders route
/// their totals to the targets.
CycleRawResult cycle_random_access_write(MeshShape shape,
                                         std::vector<std::int64_t> table,
                                         const std::vector<std::int64_t>& addr,
                                         const std::vector<std::int64_t>& value,
                                         trace::TraceRecorder* trace = nullptr,
                                         FaultPlan* fault = nullptr);

}  // namespace meshsearch::mesh
