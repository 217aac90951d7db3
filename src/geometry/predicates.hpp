// Exact geometric predicates on integer coordinates.
//
// All meshsearch geometry works on integer grids with |coordinate| <=
// kMaxCoord, so that every predicate below is exact using __int128
// arithmetic — no epsilons, fully deterministic tests. Inputs are validated
// by the structures that ingest points.
#pragma once

#include <array>
#include <cstdint>

namespace meshsearch::geom {

using Scalar = std::int64_t;

/// Coordinate bound ensuring orient3d's determinant fits in __int128.
inline constexpr Scalar kMaxCoord = 1 << 20;

struct Point2 {
  Scalar x = 0, y = 0;
  friend bool operator==(const Point2&, const Point2&) = default;
};

struct Point3 {
  Scalar x = 0, y = 0, z = 0;
  friend bool operator==(const Point3&, const Point3&) = default;
};

/// Sign of the cross product (b-a) x (c-a): > 0 if a,b,c make a left turn
/// (counter-clockwise), < 0 right turn, 0 collinear.
int orient2d(const Point2& a, const Point2& b, const Point2& c);

/// Sign of det[b-a; c-a; d-a]: > 0 iff (a,b,c) appears counter-clockwise
/// when viewed from d, 0 iff coplanar.
int orient3d(const Point3& a, const Point3& b, const Point3& c,
             const Point3& d);

/// Dot product d . p (exact in __int128, returned as Scalar after checking
/// it fits; callers bound coordinates by kMaxCoord so it always does).
std::int64_t dot3(const Point3& d, const Point3& p);

/// p inside or on the closed triangle (a,b,c); orientation of the triangle
/// may be either way (degenerate triangles are rejected).
bool point_in_triangle(const Point2& p, const Point2& a, const Point2& b,
                       const Point2& c);

/// Closed triangles (a1,b1,c1) and (a2,b2,c2) have intersecting interiors.
/// Exact separating-axis test; both triangles must be non-degenerate.
bool triangles_overlap(const std::array<Point2, 3>& t1,
                       const std::array<Point2, 3>& t2);

}  // namespace meshsearch::geom
