// Hardened front door: input validation for every public entry point.
//
// Scattered input checks used to live inside the engines (MS_CHECK sites in
// DistributedGraph::validate, validate_splitting, verify_label_capacity,
// the HierarchicalDag constructor, the geometry builders) and tripped as
// CheckFailedError from deep inside a phase. This header consolidates them
// into named validators that every public entry point (PreparedSearch,
// StreamScheduler::run, the four engine run functions, the geometry and
// data-structure builders) calls FIRST, so malformed input surfaces as
//
//   InvalidInputError — the input violates a structural precondition
//                       (duplicate edges, non-monotone levels, degenerate
//                       points, ...). Nothing was charged; nothing ran.
//   CapacityError     — the input is well-formed but exceeds a declared
//                       limit (more vertices/queries than processors).
//                       Split or shrink and retry.
//
// before any phase is charged. MS_CHECK remains the vocabulary for INTERNAL
// invariants — after the front door, a tripped check is a library bug.
//
// This header also hosts paranoid mode (MESHSEARCH_PARANOID env var): every
// engine call shadow-runs the sequential oracle on a copy of its input and
// compares every query's outcome, throwing IntegrityError on any divergence
// — the runtime analogue of the determinism test suite.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geometry/predicates.hpp"
#include "mesh/snake.hpp"
#include "multisearch/graph.hpp"
#include "multisearch/query.hpp"
#include "multisearch/sequential.hpp"
#include "multisearch/splitter.hpp"
#include "util/error.hpp"

namespace meshsearch::msearch {

/// Throw InvalidInputError with `site` context. The shared exit for every
/// validator here and for the entry-point checks refit in the builders.
[[noreturn]] void invalid_input(const std::string& message, const char* site);

/// Throw CapacityError with `site` context.
[[noreturn]] void capacity_error(const std::string& message, const char* site);

// ---------------------------------------------------------------------------
// Graph and splitting validation
// ---------------------------------------------------------------------------

/// Full structural validation of a distributed graph: vertex id == address,
/// degree within kMaxDegree, neighbours in range, no self loops, and no
/// duplicate (parallel) edges. Throws InvalidInputError.
void validate_graph(const DistributedGraph& g, const char* engine);

/// Hierarchical-DAG shape: every vertex carries a level >= 0, levels are
/// contiguous and non-empty, and every edge goes from L_i to L_{i+1}
/// (same-level edges allowed only when level_work > 1). Degree bounds ride
/// on validate_graph. Throws InvalidInputError.
void validate_hierarchical_graph(const DistributedGraph& g,
                                 std::int32_t level_work);

/// Family shape (Constrained-Multisearch's Psi): one piece id per vertex,
/// each in [-1, num_pieces), where -1 puts the vertex in no piece. Throws
/// InvalidInputError.
void validate_piece_family(const DistributedGraph& g, const Splitting& s,
                           const char* engine);

/// Splitting shape: a piece family that covers every vertex. Alpha/beta
/// edge conditions stay in validate_alpha_splitting (they are structural
/// theorems about the splitting, checked where it is built). Throws
/// InvalidInputError.
void validate_splitting_input(const DistributedGraph& g, const Splitting& s,
                              const char* engine);

/// The mesh must hold the graph: vertex_count <= processors. Throws
/// CapacityError.
void validate_graph_fits(const DistributedGraph& g, mesh::MeshShape shape,
                         const char* engine);

/// The initial configuration stores at most one query per processor.
/// Throws CapacityError. (An empty batch is valid — engines return an
/// empty result without charging anything.)
void validate_batch_size(std::size_t batch_size, std::size_t capacity,
                         const char* engine);

// ---------------------------------------------------------------------------
// Geometry input validation (via geometry/predicates.hpp)
// ---------------------------------------------------------------------------

/// All coordinates within +-kMaxCoord (the predicate overflow bound).
void validate_points_in_bounds(const std::vector<geom::Point2>& pts,
                               const char* site);

/// No two points coincide. O(n log n). Throws InvalidInputError naming the
/// first duplicate pair.
void validate_points_distinct(const std::vector<geom::Point2>& pts,
                              const char* site);

// ---------------------------------------------------------------------------
// Paranoid mode
// ---------------------------------------------------------------------------

/// True when the MESHSEARCH_PARANOID environment variable is set to a
/// non-empty, non-"0" value. Cached after the first call (the env is not
/// re-read).
bool paranoid_enabled();

/// Test hook: force paranoid mode on (1), off (0), or back to the
/// environment (-1).
void set_paranoid_override(int mode);

namespace detail {
/// Throw IntegrityError naming query `index` and its engine (`got`) and
/// oracle (`want`) outcomes.
[[noreturn]] void paranoid_mismatch(const char* engine, std::size_t index,
                                    const QueryOutcome& got,
                                    const QueryOutcome& want);
}  // namespace detail

/// Shadow-run the sequential oracle on `shadow` (a copy of the engine's
/// post-reset input) and compare every outcome against the engine's final
/// `actual` state. Any divergence throws IntegrityError naming the first
/// diverging query. The oracle runs fault-free and unmetered, so this
/// audits the data path only.
template <SearchProgram P>
void paranoid_audit(const DistributedGraph& g, const P& prog,
                    std::vector<Query> shadow,
                    const std::vector<Query>& actual, const char* engine) {
  sequential_multisearch(g, prog, shadow);
  const auto want = outcomes(shadow);
  const auto got = outcomes(actual);
  for (std::size_t i = 0; i < got.size(); ++i)
    if (!(got[i] == want[i]))
      detail::paranoid_mismatch(engine, i, got[i], want[i]);
}

}  // namespace meshsearch::msearch
