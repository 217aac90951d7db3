#include "multisearch/validate.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace meshsearch::msearch {

void invalid_input(const std::string& message, const char* site) {
  ErrorContext ctx;
  ctx.site = site;
  throw InvalidInputError(message, std::move(ctx));
}

void capacity_error(const std::string& message, const char* site) {
  ErrorContext ctx;
  ctx.site = site;
  throw CapacityError(message, std::move(ctx));
}

void validate_graph(const DistributedGraph& g, const char* engine) {
  for (std::size_t i = 0; i < g.vertex_count(); ++i) {
    const auto& v = g.vert(static_cast<Vid>(i));
    if (v.id != static_cast<Vid>(i))
      invalid_input("vertex id != address at " + std::to_string(i), engine);
    if (v.degree > kMaxDegree)
      invalid_input("vertex " + std::to_string(i) + " exceeds kMaxDegree",
                    engine);
    for (std::uint8_t d = 0; d < v.degree; ++d) {
      const Vid w = v.nbr[d];
      if (w < 0 || static_cast<std::size_t>(w) >= g.vertex_count())
        invalid_input("vertex " + std::to_string(i) +
                          " has a neighbour out of range",
                      engine);
      if (w == v.id)
        invalid_input("self loop at vertex " + std::to_string(i), engine);
      for (std::uint8_t e = 0; e < d; ++e)
        if (v.nbr[e] == w)
          invalid_input("duplicate edge " + std::to_string(i) + " -> " +
                            std::to_string(w),
                        engine);
    }
  }
}

void validate_hierarchical_graph(const DistributedGraph& g,
                                 std::int32_t level_work) {
  constexpr const char* kSite = "hierarchical-dag";
  if (level_work < 1) invalid_input("level_work must be >= 1", kSite);
  if (g.vertex_count() == 0)
    invalid_input("hierarchical DAG has no vertices", kSite);
  std::int32_t h = -1;
  for (const auto& v : g.verts()) {
    if (v.level < 0)
      invalid_input("vertex " + std::to_string(v.id) + " has no level",
                    kSite);
    h = std::max(h, v.level);
  }
  std::vector<std::size_t> level_size(static_cast<std::size_t>(h) + 1, 0);
  for (const auto& v : g.verts())
    ++level_size[static_cast<std::size_t>(v.level)];
  for (std::size_t i = 0; i < level_size.size(); ++i)
    if (level_size[i] == 0)
      invalid_input("empty level " + std::to_string(i) +
                        " in hierarchical DAG",
                    kSite);
  // Level monotonicity: every edge goes one level down (same-level edges
  // only in the generalized level_work > 1 model).
  for (const auto& v : g.verts())
    for (std::uint8_t d = 0; d < v.degree; ++d) {
      const std::int32_t nl = g.vert(v.nbr[d]).level;
      const bool ok = nl == v.level + 1 || (level_work > 1 && nl == v.level);
      if (!ok)
        invalid_input("edge " + std::to_string(v.id) + " -> " +
                          std::to_string(v.nbr[d]) +
                          " not between consecutive levels",
                      kSite);
    }
}

void validate_piece_family(const DistributedGraph& g, const Splitting& s,
                           const char* engine) {
  if (s.piece.size() != g.vertex_count())
    invalid_input("splitting size != vertex count", engine);
  const auto pieces = static_cast<std::int64_t>(s.num_pieces());
  for (std::size_t v = 0; v < s.piece.size(); ++v)
    if (s.piece[v] < -1 || s.piece[v] >= pieces)
      invalid_input("vertex " + std::to_string(v) +
                        " assigned an out-of-range piece",
                    engine);
}

void validate_splitting_input(const DistributedGraph& g, const Splitting& s,
                              const char* engine) {
  validate_piece_family(g, s, engine);
  for (std::size_t v = 0; v < s.piece.size(); ++v)
    if (s.piece[v] < 0)
      invalid_input("vertex " + std::to_string(v) +
                        " not covered by any piece",
                    engine);
}

void validate_graph_fits(const DistributedGraph& g, mesh::MeshShape shape,
                         const char* engine) {
  if (g.vertex_count() > shape.size())
    capacity_error("graph has " + std::to_string(g.vertex_count()) +
                       " vertices but the mesh holds " +
                       std::to_string(shape.size()),
                   engine);
}

void validate_batch_size(std::size_t batch_size, std::size_t capacity,
                         const char* engine) {
  if (batch_size > capacity)
    capacity_error("batch of " + std::to_string(batch_size) +
                       " queries exceeds mesh capacity " +
                       std::to_string(capacity) +
                       " (one query per processor)",
                   engine);
}

void validate_points_in_bounds(const std::vector<geom::Point2>& pts,
                               const char* site) {
  for (std::size_t i = 0; i < pts.size(); ++i)
    if (std::abs(pts[i].x) > geom::kMaxCoord ||
        std::abs(pts[i].y) > geom::kMaxCoord)
      invalid_input("point " + std::to_string(i) +
                        " outside the +-kMaxCoord predicate bound",
                    site);
}

void validate_points_distinct(const std::vector<geom::Point2>& pts,
                              const char* site) {
  std::vector<geom::Point2> sorted = pts;
  std::sort(sorted.begin(), sorted.end(),
            [](const geom::Point2& a, const geom::Point2& b) {
              return a.x != b.x ? a.x < b.x : a.y < b.y;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i)
    if (sorted[i] == sorted[i - 1])
      invalid_input("duplicate point (" + std::to_string(sorted[i].x) + ", " +
                        std::to_string(sorted[i].y) + ")",
                    site);
}

void validate_point_set_2d(const std::vector<geom::Point2>& pts,
                           const char* site) {
  if (pts.size() < 3)
    invalid_input("point set needs at least 3 points", site);
  validate_points_in_bounds(pts, site);
  validate_points_distinct(pts, site);
  // Not all collinear: scan for one witness triple off the line a-b.
  const geom::Point2& a = pts[0];
  const geom::Point2& b = pts[1];
  for (std::size_t i = 2; i < pts.size(); ++i)
    if (geom::orient2d(a, b, pts[i]) != 0) return;
  invalid_input("all points collinear", site);
}

// ---------------------------------------------------------------------------
// Paranoid mode
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_paranoid_override{-1};

bool paranoid_from_env() {
  const char* v = std::getenv("MESHSEARCH_PARANOID");
  if (v == nullptr) {
#ifdef MESHSEARCH_PARANOID_DEFAULT
    return true;
#else
    return false;
#endif
  }
  return v[0] != '\0' && std::strcmp(v, "0") != 0;
}

}  // namespace

bool paranoid_enabled() {
  const int o = g_paranoid_override.load(std::memory_order_relaxed);
  if (o >= 0) return o != 0;
  static const bool cached = paranoid_from_env();
  return cached;
}

void set_paranoid_override(int mode) {
  g_paranoid_override.store(mode, std::memory_order_relaxed);
}

std::uint64_t outcome_checksum(const std::vector<Query>& queries) {
  std::uint64_t acc = 0;
  for (const auto& q : queries) {
    // Hash a packed word array, not the QueryOutcome struct: its int32/int64
    // mix leaves padding bytes whose values are indeterminate.
    const std::uint64_t words[4] = {
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.steps)),
        static_cast<std::uint64_t>(q.acc0),
        static_cast<std::uint64_t>(q.acc1),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.result))};
    acc = mesh::integrity::fold_checksum(
        acc, mesh::integrity::payload_checksum(words));
  }
  return acc;
}

namespace detail {

void paranoid_mismatch(const char* engine, std::size_t index,
                       std::uint64_t engine_sum, std::uint64_t oracle_sum) {
  std::ostringstream os;
  os << "paranoid audit: query " << index
     << " diverged from the sequential oracle (outcome checksum "
     << engine_sum << " vs " << oracle_sum << ")";
  ErrorContext ctx;
  ctx.engine = engine;
  ctx.phase = "paranoid-audit";
  throw IntegrityError(os.str(), std::move(ctx));
}

void paranoid_checksum_mismatch_check(const char* engine,
                                      std::uint64_t engine_sum,
                                      std::uint64_t oracle_sum) {
  if (engine_sum == oracle_sum) return;
  std::ostringstream os;
  os << "paranoid audit: end-to-end outcome checksum mismatch (" << engine_sum
     << " vs oracle " << oracle_sum << ") with no per-query divergence";
  ErrorContext ctx;
  ctx.engine = engine;
  ctx.phase = "paranoid-audit";
  throw IntegrityError(os.str(), std::move(ctx));
}

}  // namespace detail

}  // namespace meshsearch::msearch
