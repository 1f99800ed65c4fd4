// Unit tests for the shared discovery cursors (geo/grid_cursor.h): cell
// enumeration order and coverage, the certified tail lower bound, the
// exact incremental-NN refinement, and the annular range helper.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "geo/grid.h"
#include "geo/grid_cursor.h"

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

TEST(GridRingCursorTest, CoversEveryPointExactlyOnce) {
  const auto pts = UniformPoints(600, 3);
  const UniformGrid grid(pts);
  for (const Point& q : {Point{500, 500}, Point{0, 0}, Point{1200, -40}}) {
    GridRingCursor cursor(grid, q);
    std::set<std::int32_t> seen;
    std::size_t total = 0;
    while (const auto cell = cursor.NextCell()) {
      for (std::size_t i = 0; i < cell->slice.count; ++i) seen.insert(cell->slice.ids[i]);
      total += cell->slice.count;
    }
    EXPECT_EQ(total, pts.size());
    EXPECT_EQ(seen.size(), pts.size());
    EXPECT_TRUE(cursor.exhausted());
    EXPECT_EQ(cursor.points_remaining(), 0u);
  }
}

TEST(GridRingCursorTest, RingsNonDecreasingAndCellsSortedWithinRing) {
  const auto pts = UniformPoints(400, 5);
  const UniformGrid grid(pts);
  const Point q{321, 654};
  GridRingCursor cursor(grid, q);
  int prev_ring = -1;
  double prev_min_dist = -1.0;
  while (const auto cell = cursor.NextCell()) {
    EXPECT_GE(cell->ring, prev_ring);
    if (cell->ring > prev_ring) {
      prev_ring = cell->ring;
      prev_min_dist = -1.0;
    }
    EXPECT_GE(cell->min_dist, prev_min_dist);
    prev_min_dist = cell->min_dist;
    EXPECT_DOUBLE_EQ(cell->min_dist, MinDist(q, grid.lattice().CellRect(cell->cell)));
  }
}

TEST(GridRingCursorTest, TailMinDistCertifiedAndMonotone) {
  const auto pts = UniformPoints(500, 7);
  const UniformGrid grid(pts);
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const Point q{rng.Uniform(-100.0, 1100.0), rng.Uniform(-100.0, 1100.0)};
    GridRingCursor cursor(grid, q);
    // Replay the enumeration: before each NextCell, the bound must not
    // exceed the true nearest distance among the not-yet-returned points.
    std::vector<char> returned(pts.size(), 0);
    double prev_bound = 0.0;
    while (true) {
      const double bound = cursor.TailMinDist();
      EXPECT_GE(bound, prev_bound - 1e-12);
      prev_bound = bound;
      double actual_min = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!returned[i]) actual_min = std::min(actual_min, Distance(q, pts[i]));
      }
      if (actual_min < std::numeric_limits<double>::infinity()) {
        EXPECT_LE(bound, actual_min + 1e-9) << "trial " << trial;
      } else {
        EXPECT_TRUE(cursor.exhausted());
      }
      const auto cell = cursor.NextCell();
      if (!cell) break;
      for (std::size_t i = 0; i < cell->slice.count; ++i) {
        returned[static_cast<std::size_t>(cell->slice.ids[i])] = 1;
      }
    }
  }
}

TEST(GridNnCursorTest, MatchesBruteForceOrder) {
  const auto pts = UniformPoints(300, 13);
  const UniformGrid grid(pts);
  Rng rng(17);
  for (int trial = 0; trial < 8; ++trial) {
    const Point q{rng.Uniform(-50.0, 1050.0), rng.Uniform(-50.0, 1050.0)};
    std::vector<double> expected;
    for (const auto& p : pts) expected.push_back(Distance(q, p));
    std::sort(expected.begin(), expected.end());

    GridNnCursor cursor(grid, q);
    std::set<std::int32_t> seen;
    std::size_t i = 0;
    double prev = 0.0;
    while (const auto hit = cursor.Next()) {
      ASSERT_LT(i, expected.size());
      EXPECT_NEAR(hit->second, expected[i], 1e-9) << "rank " << i;
      EXPECT_GE(hit->second, prev);
      prev = hit->second;
      seen.insert(hit->first);
      ++i;
    }
    EXPECT_EQ(i, pts.size());
    EXPECT_EQ(seen.size(), pts.size());
  }
}

TEST(GridNnCursorTest, PeekDoesNotConsume) {
  const auto pts = UniformPoints(50, 19);
  const UniformGrid grid(pts);
  GridNnCursor cursor(grid, Point{500, 500});
  const double peeked = cursor.PeekDistance();
  const auto hit = cursor.Next();
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->second, peeked);
}

TEST(GridNnCursorTest, EmptyGridExhaustsImmediately) {
  const UniformGrid grid(std::vector<Point>{});
  GridNnCursor cursor(grid, Point{1, 2});
  EXPECT_EQ(cursor.PeekDistance(), std::numeric_limits<double>::infinity());
  EXPECT_FALSE(cursor.Next().has_value());
}

// RIA's grid backend drains the NN stream batch-by-batch against
// PeekDistance; nested batches must partition the point set exactly like
// independent annulus filters would.
TEST(GridNnCursorTest, NestedBatchDrainsPartitionLikeAnnuli) {
  const auto pts = UniformPoints(400, 23);
  const UniformGrid grid(pts);
  Rng rng(29);
  for (int trial = 0; trial < 6; ++trial) {
    const Point q{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)};
    GridNnCursor cursor(grid, q);
    double lo = -1.0;
    std::set<std::int32_t> got;
    for (double hi = 150.0; hi <= 1500.0; lo = hi, hi += 450.0) {
      std::set<std::int32_t> expected;
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const double d = Distance(q, pts[i]);
        if (d <= hi && d > lo) expected.insert(static_cast<std::int32_t>(i));
      }
      std::set<std::int32_t> batch;
      while (cursor.PeekDistance() <= hi) batch.insert(cursor.Next()->first);
      EXPECT_EQ(batch, expected) << "trial " << trial << " lo=" << lo << " hi=" << hi;
      got.insert(batch.begin(), batch.end());
    }
    EXPECT_EQ(got.size(), pts.size()) << "batches must cover the whole set";
  }
}

}  // namespace
}  // namespace cca
