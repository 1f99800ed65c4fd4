// Unit tests for the uniform grid and its Lattice: cell assignment, ring
// enumeration order and coverage, and the ring-tail lower bound that the
// ring cursors and the hierarchical SSPA relax (whose coarse level is the
// same Lattice) rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "geo/grid.h"

namespace cca {
namespace {

std::vector<Point> UniformPoints(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)});
  }
  return pts;
}

// Calls fn(cx, cy, slice) for every occupied cell of ring `ring` around q.
template <typename Fn>
void VisitOccupied(const UniformGrid& grid, const Point& q, int ring, Fn&& fn) {
  const Lattice& lattice = grid.lattice();
  lattice.VisitRing(q, ring, [&](int cx, int cy) {
    const CellSlice slice = grid.Cell(lattice.CellIndex(cx, cy));
    if (slice.count > 0) fn(cx, cy, slice);
  });
}

// Collects (ring, id) pairs in visit order.
std::vector<std::pair<int, std::int32_t>> EnumerateAll(const UniformGrid& grid, const Point& q) {
  std::vector<std::pair<int, std::int32_t>> out;
  for (int ring = 0; ring <= grid.lattice().MaxRing(q); ++ring) {
    VisitOccupied(grid, q, ring, [&](int, int, const CellSlice& slice) {
      for (std::size_t i = 0; i < slice.count; ++i) out.emplace_back(ring, slice.ids[i]);
    });
  }
  return out;
}

TEST(UniformGridTest, RingsCoverEveryPointExactlyOnce) {
  const auto pts = UniformPoints(500, 7);
  const UniformGrid grid(pts);
  for (const Point& q : {Point{500, 500}, Point{0, 0}, Point{999, 1}, Point{-50, 1200}}) {
    const auto visited = EnumerateAll(grid, q);
    std::set<std::int32_t> ids;
    for (const auto& [ring, id] : visited) ids.insert(id);
    EXPECT_EQ(visited.size(), pts.size());
    EXPECT_EQ(ids.size(), pts.size());
  }
}

TEST(UniformGridTest, CellSlicesCarryMatchingCoordinates) {
  const auto pts = UniformPoints(200, 11);
  const UniformGrid grid(pts);
  const Point q{321, 654};
  const Lattice& lattice = grid.lattice();
  for (int ring = 0; ring <= lattice.MaxRing(q); ++ring) {
    VisitOccupied(grid, q, ring, [&](int cx, int cy, const CellSlice& slice) {
      const Rect cell = lattice.CellRect(lattice.CellIndex(cx, cy));
      for (std::size_t i = 0; i < slice.count; ++i) {
        const Point original = pts[static_cast<std::size_t>(slice.ids[i])];
        EXPECT_DOUBLE_EQ(slice.xs[i], original.x);
        EXPECT_DOUBLE_EQ(slice.ys[i], original.y);
        // Closed cell rectangles: boundary points may land in either
        // neighbouring cell, so containment holds with a half-open caveat
        // only at the grid's far edge; Contains is inclusive, so it holds.
        EXPECT_TRUE(cell.Contains(original))
            << "point " << slice.ids[i] << " outside its cell";
      }
    });
  }
}

TEST(UniformGridTest, RingOrderMatchesChebyshevDistance) {
  const auto pts = UniformPoints(300, 13);
  const UniformGrid grid(pts);
  const Point q{500, 500};
  int qx = 0, qy = 0;
  grid.lattice().Locate(q, &qx, &qy);
  for (int ring = 0; ring <= grid.lattice().MaxRing(q); ++ring) {
    VisitOccupied(grid, q, ring, [&](int cx, int cy, const CellSlice&) {
      const int cheb = std::max(std::abs(cx - qx), std::abs(cy - qy));
      EXPECT_EQ(cheb, ring);
    });
  }
}

TEST(UniformGridTest, RingTailMinDistLowerBoundsAllLaterRings) {
  const auto pts = UniformPoints(400, 17);
  const UniformGrid grid(pts);
  Rng rng(19);
  for (int trial = 0; trial < 20; ++trial) {
    const Point q{rng.Uniform(-100.0, 1100.0), rng.Uniform(-100.0, 1100.0)};
    const auto visited = EnumerateAll(grid, q);
    for (int ring = 0; ring <= grid.lattice().MaxRing(q); ++ring) {
      const double bound = grid.lattice().RingTailMinDist(q, ring);
      double actual_min = std::numeric_limits<double>::infinity();
      for (const auto& [r, id] : visited) {
        if (r >= ring) {
          actual_min = std::min(actual_min, Distance(q, pts[static_cast<std::size_t>(id)]));
        }
      }
      if (actual_min < std::numeric_limits<double>::infinity()) {
        EXPECT_LE(bound, actual_min + 1e-9)
            << "ring " << ring << " bound overshoots at trial " << trial;
      }
    }
  }
}

TEST(UniformGridTest, RingTailMinDistMonotone) {
  const auto pts = UniformPoints(400, 23);
  const UniformGrid grid(pts);
  const Point q{250, 750};
  double prev = 0.0;
  for (int ring = 0; ring <= grid.lattice().MaxRing(q) + 3; ++ring) {
    const double bound = grid.lattice().RingTailMinDist(q, ring);
    EXPECT_GE(bound, prev - 1e-12) << "ring " << ring;
    prev = bound;
  }
}

TEST(UniformGridTest, DegenerateInputs) {
  // Empty set.
  const UniformGrid empty_grid(std::vector<Point>{});
  EXPECT_EQ(empty_grid.size(), 0u);
  EXPECT_EQ(empty_grid.lattice().MaxRing(Point{0, 0}), 0);

  // All points coincide.
  const UniformGrid point_grid(std::vector<Point>(10, Point{5, 5}));
  EXPECT_EQ(point_grid.size(), 10u);
  const auto visited = EnumerateAll(point_grid, Point{5, 5});
  EXPECT_EQ(visited.size(), 10u);

  // Collinear (zero height): grid degenerates to one row.
  std::vector<Point> line;
  for (int i = 0; i < 50; ++i) line.push_back(Point{static_cast<double>(i), 3.0});
  const UniformGrid line_grid(line);
  EXPECT_EQ(line_grid.lattice().rows(), 1);
  EXPECT_EQ(EnumerateAll(line_grid, Point{25, 3}).size(), 50u);
}

TEST(UniformGridTest, ResolutionTracksTarget) {
  const auto pts = UniformPoints(1000, 29);
  const UniformGrid coarse(pts, 50.0);
  const UniformGrid fine(pts, 2.0);
  EXPECT_GT(fine.lattice().num_cells(), coarse.lattice().num_cells());
}

}  // namespace
}  // namespace cca
