// Counting engine: the standard mesh operations.
//
// Each primitive transforms host arrays exactly as the corresponding mesh
// operation would and returns the Cost charged on a p-processor (sub)mesh
// (see mesh/cost.hpp for the charged bounds). The array index is the snake
// position of the owning processor; arrays may be shorter than p when the
// submesh is partially occupied (cost is still a function of p — idle
// processors do not speed a mesh up).
//
// The physically faithful counterparts of these primitives live in
// mesh/grid.hpp (the cycle engine); the cross-engine tests assert both
// produce identical data.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <type_traits>
#include <vector>

#include "mesh/cost.hpp"
#include "mesh/ops_soa.hpp"
#include "util/check.hpp"

namespace meshsearch::mesh::ops {

namespace detail {
/// Always-on failure path for the random-access primitives: throws
/// IntegrityError carrying the primitive name, the offending request index,
/// the address, and the table size. Out-of-line so the [[unlikely]] check in
/// the hot loops costs one compare + never-taken branch.
[[noreturn]] void throw_address_violation(const char* op, std::size_t index,
                                          Addr addr, std::size_t table_size);
}  // namespace detail

// ---------------------------------------------------------------------------
// Sorting and order maintenance
// ---------------------------------------------------------------------------

/// Sort `data` into snake order by `cmp`. Stable, so equal keys keep their
/// snake order and results are deterministic. Integer keys under the default
/// comparator take the SoA radix path (same order, same bits, less wall
/// clock); the charged cost is the comparison-sort bound either way, since
/// the mesh algorithm being modeled is unchanged.
template <typename T, typename Cmp = std::less<T>>
Cost sort(std::vector<T>& data, const CostModel& m, double p, Cmp cmp = {}) {
  MS_CHECK(static_cast<double>(data.size()) <= p);
  if constexpr (std::is_same_v<T, std::int64_t> &&
                std::is_same_v<Cmp, std::less<std::int64_t>>) {
    soa::sort_values(data);
  } else {
    std::stable_sort(data.begin(), data.end(), cmp);
  }
  return m.sort(p);
}

/// Rank of each element after sorting by cmp, without moving the data
/// (sort + scan on the mesh). Integer keys under the default comparator rank
/// through the SoA radix index sort, which produces the identical stable
/// order permutation.
template <typename T, typename Cmp = std::less<T>>
Cost rank(const std::vector<T>& data, std::vector<std::uint32_t>& ranks,
          const CostModel& m, double p, Cmp cmp = {}) {
  std::vector<std::uint32_t> order;
  if constexpr (std::is_same_v<T, std::int64_t> &&
                std::is_same_v<Cmp, std::less<std::int64_t>>) {
    order = soa::sort_index(std::span<const std::int64_t>(data));
  } else {
    order.resize(data.size());
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return cmp(data[a], data[b]);
                     });
  }
  ranks.assign(data.size(), 0);
  for (std::uint32_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return m.sort(p) + m.scan(p);
}

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Inclusive prefix scan along the snake with associative `op`.
template <typename T, typename Op = std::plus<T>>
Cost scan_inclusive(std::vector<T>& data, const CostModel& m, double p,
                    Op op = {}) {
  for (std::size_t i = 1; i < data.size(); ++i)
    data[i] = op(data[i - 1], data[i]);
  return m.scan(p);
}

/// Segmented inclusive scan: restarts where seg_start[i] is true. The
/// additive case carries the segment-start select as a zeroed operand (a
/// cmov, not a branch) — identical arithmetic within a segment, identity at
/// each restart — so the pass vectorizes despite the flag array.
template <typename T, typename Op = std::plus<T>>
Cost scan_segmented(std::vector<T>& data, const std::vector<std::uint8_t>& seg_start,
                    const CostModel& m, double p, Op op = {}) {
  MS_CHECK(seg_start.size() == data.size());
  if constexpr (std::is_arithmetic_v<T> && std::is_same_v<Op, std::plus<T>>) {
    for (std::size_t i = 1; i < data.size(); ++i) {
      const T carry = seg_start[i] ? T{} : data[i - 1];
      data[i] = static_cast<T>(data[i] + carry);
    }
  } else {
    for (std::size_t i = 1; i < data.size(); ++i)
      if (!seg_start[i]) data[i] = op(data[i - 1], data[i]);
  }
  return m.scan(p);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

/// Permutation routing: element i moves to snake position dest[i].
/// dest entries must be unique and < out_size.
template <typename T>
Cost route(const std::vector<T>& data, const std::vector<std::uint32_t>& dest,
           std::vector<T>& out, std::size_t out_size, const CostModel& m,
           double p) {
  MS_CHECK(dest.size() == data.size());
  out.assign(out_size, T{});
  // Collision detection stays on in release builds: a colliding "permutation"
  // silently drops a record, which would corrupt a measurement. The
  // generation-stamped arena replaces a per-call O(out_size) `seen`
  // allocation + clear.
  soa::ScratchArena& seen = soa::route_scratch();
  seen.begin(out_size);
  for (std::size_t i = 0; i < data.size(); ++i) {
    MS_CHECK_MSG(dest[i] < out_size, "route: destination out of range");
    MS_CHECK_MSG(seen.mark(dest[i]), "route: destination collision");
    out[dest[i]] = data[i];
  }
  return m.route(p);
}

// ---------------------------------------------------------------------------
// Random access read / write (the concurrent-access workhorses)
// ---------------------------------------------------------------------------

/// Random access read: out[i] = table[addr[i]] for addr[i] != kNone.
/// Concurrent reads of one address are legal (the mesh construction sorts
/// the requests, fetches once per distinct address, and segmented-broadcasts
/// copies — that is what makes the naive multisearch baselines pay, and the
/// cost charged here is the full construction, duplicates or not).
template <typename T>
Cost random_access_read(std::span<const T> table, std::span<const Addr> addr,
                        std::vector<T>& out, const CostModel& m, double p) {
  out.assign(addr.size(), T{});
  // Hoist the kNone test into a mask pass so the gather loop reads a byte
  // instead of branching on the sentinel; bounds stay checked in release
  // builds (a bad address is data corruption, not a debug-only concern).
  // The unsigned compare catches negatives in the same test.
  thread_local std::vector<std::uint8_t> mask;
  soa::valid_mask(addr, mask);
  for (std::size_t i = 0; i < addr.size(); ++i) {
    if (!mask[i]) continue;
    const Addr a = addr[i];
    if (static_cast<std::uint64_t>(a) >= table.size()) [[unlikely]]
      detail::throw_address_violation("random_access_read", i, a,
                                      table.size());
    out[i] = table[static_cast<std::size_t>(a)];
  }
  return m.rar(p);
}

/// Random access write with combining: table[addr[i]] = combine(table[addr[i]],
/// value[i]). Concurrent writes to one address are merged by `combine`
/// (associative+commutative), as the sort-based mesh RAW does.
template <typename T, typename Combine>
Cost random_access_write(std::span<const Addr> addr, std::span<const T> values,
                         std::vector<T>& table, Combine combine,
                         const CostModel& m, double p) {
  MS_CHECK(addr.size() == values.size());
  for (std::size_t i = 0; i < addr.size(); ++i) {
    const Addr a = addr[i];
    if (a == kNone) continue;
    if (static_cast<std::uint64_t>(a) >= table.size()) [[unlikely]]
      detail::throw_address_violation("random_access_write", i, a,
                                      table.size());
    auto& slot = table[static_cast<std::size_t>(a)];
    slot = combine(slot, values[i]);
  }
  return m.raw(p);
}

/// Histogram RAW: counts[a] = number of requests with addr == a.
inline Cost random_access_count(std::span<const Addr> addr,
                                std::vector<std::uint32_t>& counts,
                                std::size_t table_size, const CostModel& m,
                                double p) {
  counts.assign(table_size, 0);
  for (std::size_t i = 0; i < addr.size(); ++i) {
    const Addr a = addr[i];
    if (a == kNone) continue;
    if (static_cast<std::uint64_t>(a) >= table_size) [[unlikely]]
      detail::throw_address_violation("random_access_count", i, a, table_size);
    ++counts[static_cast<std::size_t>(a)];
  }
  return m.raw(p);
}

// ---------------------------------------------------------------------------
// Compression
// ---------------------------------------------------------------------------

/// Move elements satisfying `pred` to a contiguous prefix, preserving order.
/// Two passes: count first so the output is sized once (no reallocation
/// copies mid-stream), then a fill pass with the capacity check gone.
template <typename T, typename Pred>
Cost compress(const std::vector<T>& data, Pred pred, std::vector<T>& out,
              const CostModel& m, double p) {
  std::size_t k = 0;
  for (const auto& x : data) k += pred(x) ? 1u : 0u;
  out.clear();
  out.reserve(k);
  for (const auto& x : data)
    if (pred(x)) out.push_back(x);
  return m.compress(p);
}

}  // namespace meshsearch::mesh::ops
