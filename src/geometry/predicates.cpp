#include "geometry/predicates.hpp"

#include "util/check.hpp"

namespace meshsearch::geom {

namespace {
using Wide = __int128;

int sign_of(Wide v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }
}  // namespace

int orient2d(const Point2& a, const Point2& b, const Point2& c) {
  const Wide abx = b.x - a.x, aby = b.y - a.y;
  const Wide acx = c.x - a.x, acy = c.y - a.y;
  return sign_of(abx * acy - aby * acx);
}

int orient3d(const Point3& a, const Point3& b, const Point3& c,
             const Point3& d) {
  const Wide adx = b.x - a.x, ady = b.y - a.y, adz = b.z - a.z;
  const Wide bdx = c.x - a.x, bdy = c.y - a.y, bdz = c.z - a.z;
  const Wide cdx = d.x - a.x, cdy = d.y - a.y, cdz = d.z - a.z;
  const Wide det = adx * (bdy * cdz - bdz * cdy) -
                   ady * (bdx * cdz - bdz * cdx) +
                   adz * (bdx * cdy - bdy * cdx);
  return sign_of(det);
}

std::int64_t dot3(const Point3& d, const Point3& p) {
  const Wide v = Wide(d.x) * p.x + Wide(d.y) * p.y + Wide(d.z) * p.z;
  MS_DCHECK(v <= Wide(INT64_MAX) && v >= Wide(INT64_MIN));
  return static_cast<std::int64_t>(v);
}

bool point_in_triangle(const Point2& p, const Point2& a, const Point2& b,
                       const Point2& c) {
  const int o = orient2d(a, b, c);
  MS_DCHECK(o != 0);
  // Normalize to counter-clockwise.
  const Point2 &v0 = a, &v1 = o > 0 ? b : c, &v2 = o > 0 ? c : b;
  return orient2d(v0, v1, p) >= 0 && orient2d(v1, v2, p) >= 0 &&
         orient2d(v2, v0, p) >= 0;
}

bool triangles_overlap(const std::array<Point2, 3>& t1,
                       const std::array<Point2, 3>& t2) {
  // Separating axis test for convex polygons with exact orientations:
  // the interiors are disjoint iff some edge of either triangle has all
  // vertices of the other on its non-interior side (<= 0 when the triangle
  // is oriented counter-clockwise).
  auto ccw = [](std::array<Point2, 3> t) {
    if (orient2d(t[0], t[1], t[2]) < 0) std::swap(t[1], t[2]);
    return t;
  };
  const auto p = ccw(t1), q = ccw(t2);
  auto separated_by_edge_of = [](const std::array<Point2, 3>& u,
                                 const std::array<Point2, 3>& v) {
    for (int i = 0; i < 3; ++i) {
      const Point2& e0 = u[static_cast<std::size_t>(i)];
      const Point2& e1 = u[static_cast<std::size_t>((i + 1) % 3)];
      bool all_out = true;
      for (const auto& w : v) all_out &= orient2d(e0, e1, w) <= 0;
      if (all_out) return true;
    }
    return false;
  };
  return !separated_by_edge_of(p, q) && !separated_by_edge_of(q, p);
}

}  // namespace meshsearch::geom
