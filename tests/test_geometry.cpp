// Geometry substrate tests: exact predicates, 2-d hulls, the incremental
// triangulation, and the 3-d convex hull.
#include <gtest/gtest.h>

#include <algorithm>

#include "geometry/hull2d.hpp"
#include "geometry/hull3d.hpp"
#include "geometry/predicates.hpp"
#include "geometry/triangulate.hpp"

namespace {

using namespace meshsearch;
using namespace meshsearch::geom;

// ---------------------------------------------------------------------------
// predicates
// ---------------------------------------------------------------------------

TEST(Predicates, Orient2d) {
  EXPECT_GT(orient2d({0, 0}, {1, 0}, {0, 1}), 0);
  EXPECT_LT(orient2d({0, 0}, {0, 1}, {1, 0}), 0);
  EXPECT_EQ(orient2d({0, 0}, {1, 1}, {2, 2}), 0);
  // Near-overflow coordinates stay exact.
  const Scalar M = kMaxCoord;
  EXPECT_GT(orient2d({-M, -M}, {M, -M}, {M - 1, -M + 1}), 0);
  EXPECT_EQ(orient2d({-M, -M}, {0, 0}, {M, M}), 0);
}

TEST(Predicates, Orient3d) {
  // Convention: positive when (a,b,c) appears counter-clockwise from d.
  const Point3 a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0};
  EXPECT_GT(orient3d(a, b, c, {0, 0, 1}), 0);
  EXPECT_LT(orient3d(a, b, c, {0, 0, -1}), 0);
  EXPECT_EQ(orient3d(a, b, c, {5, 7, 0}), 0);
}

TEST(Predicates, PointInTriangle) {
  const Point2 a{0, 0}, b{10, 0}, c{0, 10};
  EXPECT_TRUE(point_in_triangle({1, 1}, a, b, c));
  EXPECT_TRUE(point_in_triangle({0, 0}, a, b, c));     // corner
  EXPECT_TRUE(point_in_triangle({5, 0}, a, b, c));     // edge
  EXPECT_FALSE(point_in_triangle({6, 6}, a, b, c));
  // Clockwise triangle works too.
  EXPECT_TRUE(point_in_triangle({1, 1}, a, c, b));
}

TEST(Predicates, TrianglesOverlap) {
  const std::array<Point2, 3> t1{{{0, 0}, {10, 0}, {0, 10}}};
  // Identical.
  EXPECT_TRUE(triangles_overlap(t1, t1));
  // Proper overlap.
  EXPECT_TRUE(triangles_overlap(t1, {{{1, 1}, {11, 1}, {1, 11}}}));
  // Contained.
  EXPECT_TRUE(triangles_overlap(t1, {{{1, 1}, {3, 1}, {1, 3}}}));
  // Sharing an edge only (adjacent in a triangulation).
  EXPECT_FALSE(triangles_overlap(t1, {{{10, 0}, {10, 10}, {0, 10}}}));
  // Sharing one vertex only.
  EXPECT_FALSE(triangles_overlap(t1, {{{10, 0}, {20, 0}, {10, 10}}}));
  // Disjoint.
  EXPECT_FALSE(triangles_overlap(t1, {{{100, 100}, {110, 100}, {100, 110}}}));
  // Clockwise inputs are normalized.
  EXPECT_TRUE(triangles_overlap({{{0, 0}, {0, 10}, {10, 0}}},
                                {{{1, 1}, {1, 3}, {3, 1}}}));
}

// ---------------------------------------------------------------------------
// 2-d hull
// ---------------------------------------------------------------------------

TEST(Hull2d, Square) {
  const auto hull = convex_hull({{0, 0}, {10, 0}, {10, 10}, {0, 10}, {5, 5},
                                 {5, 0}});
  EXPECT_EQ(hull.size(), 4u);
  EXPECT_TRUE(is_strictly_convex_ccw(hull));
}

TEST(Hull2d, CollinearAndDuplicates) {
  const auto hull =
      convex_hull({{0, 0}, {5, 0}, {10, 0}, {10, 10}, {0, 0}, {10, 0}});
  EXPECT_EQ(hull.size(), 3u);
}

TEST(Hull2d, RandomPointsAllInsideHull) {
  util::Rng rng(1);
  const auto pts = random_points_in_disk(500, 1000, rng);
  const auto hull = convex_hull(pts);
  ASSERT_GE(hull.size(), 3u);
  EXPECT_TRUE(is_strictly_convex_ccw(hull));
  for (const auto& p : pts)
    for (std::size_t i = 0; i < hull.size(); ++i)
      EXPECT_GE(orient2d(hull[i], hull[(i + 1) % hull.size()], p), 0);
}

TEST(Hull2d, RandomConvexPolygonIsConvex) {
  util::Rng rng(2);
  for (const std::size_t target : {8u, 64u, 256u}) {
    const auto poly = random_convex_polygon(target, 100000, rng);
    EXPECT_TRUE(is_strictly_convex_ccw(poly));
    EXPECT_GE(poly.size(), 3u);
  }
}

// ---------------------------------------------------------------------------
// triangulation
// ---------------------------------------------------------------------------

TEST(Triangulation, SinglePoint) {
  Triangulation t({{3, 4}}, 100);
  EXPECT_EQ(t.alive_ids().size(), 3u);
  const auto id = t.locate({3, 4});
  const auto c = t.corners(id);
  EXPECT_TRUE(point_in_triangle({3, 4}, c[0], c[1], c[2]));
}

TEST(Triangulation, AliveTrianglesCoverAndCount) {
  util::Rng rng(3);
  const auto pts = random_points_in_disk(200, 500, rng);
  // Deduplicate (the builder requires distinct points).
  auto dedup = pts;
  std::sort(dedup.begin(), dedup.end(), [](const Point2& a, const Point2& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  Triangulation t(dedup, 512);
  const auto alive = t.alive_ids();
  // Euler: a triangulation of k interior points in a triangle has 2k+1
  // triangles, plus extra splits for on-edge insertions.
  EXPECT_GE(alive.size(), 2 * dedup.size() + 1);
  // Every input point is covered by the triangle locate() returns.
  for (const auto& p : dedup) {
    const auto c = t.corners(t.locate(p));
    EXPECT_TRUE(point_in_triangle(p, c[0], c[1], c[2]));
  }
  // All alive triangles are ccw and non-degenerate.
  for (const auto id : alive) {
    const auto c = t.corners(id);
    EXPECT_GT(orient2d(c[0], c[1], c[2]), 0);
  }
}

TEST(Triangulation, LocateRandomProbes) {
  util::Rng rng(4);
  const auto pts = random_points_in_disk(100, 300, rng);
  auto dedup = pts;
  std::sort(dedup.begin(), dedup.end(), [](const Point2& a, const Point2& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  });
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  Triangulation t(dedup, 400);
  // Probes stay inside the bounding triangle of radius 400.
  for (int i = 0; i < 500; ++i) {
    const Point2 p{rng.uniform_range(-350, 350),
                   rng.uniform_range(-350, 350)};
    const auto c = t.corners(t.locate(p));
    EXPECT_TRUE(point_in_triangle(p, c[0], c[1], c[2]));
  }
}

TEST(Triangulation, OnEdgeInsertion) {
  // Second point exactly on an edge created by the first insertion.
  Triangulation t({{0, 0}, {50, 50}}, 200);
  const auto alive = t.alive_ids();
  for (const auto id : alive) {
    const auto c = t.corners(id);
    EXPECT_GT(orient2d(c[0], c[1], c[2]), 0);
  }
  const auto c = t.corners(t.locate({50, 50}));
  EXPECT_TRUE(point_in_triangle({50, 50}, c[0], c[1], c[2]));
}

// ---------------------------------------------------------------------------
// 3-d hull
// ---------------------------------------------------------------------------

TEST(Hull3d, Tetrahedron) {
  util::Rng rng(5);
  const std::vector<Point3> pts{{0, 0, 0}, {10, 0, 0}, {0, 10, 0}, {0, 0, 10}};
  const auto hull = convex_hull3(pts, rng);
  EXPECT_EQ(hull.faces.size(), 4u);
  EXPECT_EQ(hull.vertices.size(), 4u);
}

TEST(Hull3d, InteriorPointExcluded) {
  util::Rng rng(6);
  const std::vector<Point3> pts{{0, 0, 0},   {100, 0, 0}, {0, 100, 0},
                                {0, 0, 100}, {10, 10, 10}};
  const auto hull = convex_hull3(pts, rng);
  EXPECT_EQ(hull.vertices.size(), 4u);
  EXPECT_TRUE(std::find(hull.vertices.begin(), hull.vertices.end(), 4) ==
              hull.vertices.end());
}

TEST(Hull3d, AllPointsInsideAllFaces) {
  util::Rng rng(7);
  const auto pts = random_points_in_ball(400, 1000, rng);
  const auto hull = convex_hull3(pts, rng);
  for (const auto& f : hull.faces) {
    const auto &a = pts[static_cast<std::size_t>(f[0])],
               &b = pts[static_cast<std::size_t>(f[1])],
               &c = pts[static_cast<std::size_t>(f[2])];
    for (const auto& p : pts) EXPECT_LE(orient3d(a, b, c, p), 0);
  }
}

TEST(Hull3d, EulerFormula) {
  util::Rng rng(8);
  const auto pts = random_points_on_sphere(300, 10000, rng);
  const auto hull = convex_hull3(pts, rng);
  // Triangulated sphere: F = 2V - 4, E = 3F/2, V - E + F = 2.
  EXPECT_EQ(hull.faces.size(), 2 * hull.vertices.size() - 4);
}

TEST(Hull3d, ExtremeValuesMatchBruteForce) {
  util::Rng rng(9);
  const auto pts = random_points_on_sphere(200, 5000, rng);
  const auto hull = convex_hull3(pts, rng);
  // For random directions, max dot over hull vertices == max over all pts.
  for (int i = 0; i < 50; ++i) {
    const Point3 d{rng.uniform_range(-1000, 1000),
                   rng.uniform_range(-1000, 1000),
                   rng.uniform_range(-1000, 1000)};
    std::int64_t best_hull = std::numeric_limits<std::int64_t>::min();
    for (const auto v : hull.vertices)
      best_hull = std::max(best_hull, dot3(d, pts[static_cast<std::size_t>(v)]));
    const auto brute = dot3(d, pts[static_cast<std::size_t>(
                                   extreme_point_brute(pts, d))]);
    EXPECT_EQ(best_hull, brute);
  }
}

TEST(Hull3d, AdjacencySymmetricAndBounded) {
  util::Rng rng(10);
  const auto pts = random_points_on_sphere(150, 4000, rng);
  const auto hull = convex_hull3(pts, rng);
  const auto adj = hull_adjacency(hull, pts.size());
  std::size_t edges = 0;
  for (std::size_t v = 0; v < adj.size(); ++v) {
    edges += adj[v].size();
    for (const auto w : adj[v]) {
      const auto& back = adj[static_cast<std::size_t>(w)];
      EXPECT_TRUE(std::find(back.begin(), back.end(),
                            static_cast<std::int32_t>(v)) != back.end());
    }
  }
  // Sum of degrees = 2E = 6V - 12 for a triangulated sphere.
  EXPECT_EQ(edges, 6 * hull.vertices.size() - 12);
}

TEST(Hull3d, RejectsDegenerateInput) {
  util::Rng rng(11);
  const std::vector<Point3> coplanar{{0, 0, 0}, {10, 0, 0}, {0, 10, 0},
                                     {10, 10, 0}, {5, 5, 0}};
  EXPECT_THROW(convex_hull3(coplanar, rng), std::logic_error);
  const std::vector<Point3> collinear{{0, 0, 0}, {1, 1, 1}, {2, 2, 2},
                                      {3, 3, 3}};
  EXPECT_THROW(convex_hull3(collinear, rng), std::logic_error);
}

}  // namespace
