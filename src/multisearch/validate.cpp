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

// ---------------------------------------------------------------------------
// Paranoid mode
// ---------------------------------------------------------------------------

namespace {

std::atomic<int> g_paranoid_override{-1};

bool paranoid_from_env() {
  const char* v = std::getenv("MESHSEARCH_PARANOID");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
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

namespace detail {

void paranoid_mismatch(const char* engine, std::size_t index,
                       const QueryOutcome& got, const QueryOutcome& want) {
  std::ostringstream os;
  os << "paranoid audit: query " << index
     << " diverged from the sequential oracle (engine steps " << got.steps
     << " acc0 " << got.acc0 << " acc1 " << got.acc1 << " result "
     << got.result << "; oracle steps " << want.steps << " acc0 " << want.acc0
     << " acc1 " << want.acc1 << " result " << want.result << ")";
  ErrorContext ctx;
  ctx.engine = engine;
  ctx.phase = "paranoid-audit";
  throw IntegrityError(os.str(), std::move(ctx));
}

}  // namespace detail

}  // namespace meshsearch::msearch
