// Unit tests for the two-level hierarchical adaptive grid
// (geo/hier_grid.h): structural invariants of the coarse/fine CSR, the
// adaptive split policy, the coarse ring-tail lower bound, the exactness
// of the two-level tau floors under randomized monotone raises (the
// aggregation invariant the SSPA coarse-tail rejection is sound against)
// and the coarse ring cursor's bound contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"
#include "test_util.h"

namespace cca {
namespace {

using test::ClusteredPoints;
using test::RandomPoints;
using test::SkewedPoints;

double Dist(const Point& a, const Point& b) {
  return std::sqrt((a.x - b.x) * (a.x - b.x) + (a.y - b.y) * (a.y - b.y));
}

// Every point indexed exactly once; every inverse map agrees with the CSR;
// fine cells of a coarse cell are contiguous in both id and slot space, so
// coarse_count is exact.
void CheckStructure(const std::vector<Point>& pts, const HierarchicalGrid& grid) {
  ASSERT_EQ(grid.size(), pts.size());
  std::vector<int> seen(pts.size(), 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < grid.num_coarse(); ++c) {
    ASSERT_GE(grid.split(c), 1);
    ASSERT_LE(grid.split(c), HierarchicalGrid::Options::kMaxSplit);
    ASSERT_EQ(grid.fine_end(c) - grid.fine_begin(c),
              static_cast<std::size_t>(grid.split(c)) * static_cast<std::size_t>(grid.split(c)));
    std::size_t count = 0;
    const Rect coarse_rect = grid.CoarseRect(c);
    for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
      ASSERT_EQ(grid.coarse_of_fine(f), c);
      const Rect fine_rect = grid.FineRect(f);
      // Children tile their parent (within float slack at the seams).
      EXPECT_GE(fine_rect.lo.x, coarse_rect.lo.x - 1e-9);
      EXPECT_LE(fine_rect.hi.y, coarse_rect.hi.y + 1e-9);
      const UniformGrid::CellSlice slice = grid.FineCell(f);
      ASSERT_EQ(slice.first_slot, grid.fine_cell_begin(f));
      ASSERT_EQ(slice.count, grid.fine_cell_end(f) - grid.fine_cell_begin(f));
      for (std::size_t s = 0; s < slice.count; ++s) {
        const std::size_t id = static_cast<std::size_t>(slice.ids[s]);
        ASSERT_LT(id, pts.size());
        ++seen[id];
        EXPECT_DOUBLE_EQ(slice.xs[s], pts[id].x);
        EXPECT_DOUBLE_EQ(slice.ys[s], pts[id].y);
        EXPECT_EQ(grid.fine_of_point(id), f);
        EXPECT_EQ(grid.coarse_of_point(id), c);
        EXPECT_EQ(grid.slot_of_point(id), slice.first_slot + s);
      }
      count += slice.count;
    }
    EXPECT_EQ(grid.coarse_count(c), count);
    total += count;
  }
  EXPECT_EQ(total, pts.size());
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](int n) { return n == 1; }));
  // nonempty_coarse lists exactly the occupied coarse cells, ascending.
  std::vector<std::int32_t> expect;
  for (std::size_t c = 0; c < grid.num_coarse(); ++c) {
    if (grid.coarse_count(c) > 0) expect.push_back(static_cast<std::int32_t>(c));
  }
  EXPECT_EQ(grid.nonempty_coarse(), expect);
}

TEST(HierGridTest, StructureInvariantsAcrossDistributions) {
  CheckStructure(RandomPoints(700, 11), HierarchicalGrid(RandomPoints(700, 11)));
  CheckStructure(ClusteredPoints(900, 12), HierarchicalGrid(ClusteredPoints(900, 12)));
  CheckStructure(SkewedPoints(1200, 13), HierarchicalGrid(SkewedPoints(1200, 13)));
}

TEST(HierGridTest, HandlesDegenerateInputs) {
  CheckStructure({}, HierarchicalGrid({}));
  const std::vector<Point> one{{3.0, 4.0}};
  CheckStructure(one, HierarchicalGrid(one));
  // All points coincident: one hot coarse cell, split capped at kMaxSplit.
  const std::vector<Point> same(500, Point{10.0, 10.0});
  HierarchicalGrid grid(same);
  CheckStructure(same, grid);
  EXPECT_EQ(grid.splits(), 1u);
}

TEST(HierGridTest, SplitPolicyIsOccupancyDriven) {
  // Skewed data: the hot box must split, sparse cells must not.
  const auto pts = SkewedPoints(4000, 21);
  HierarchicalGrid::Options options;
  HierarchicalGrid grid(pts, options);
  EXPECT_GT(grid.splits(), 0u);
  const std::size_t threshold =
      static_cast<std::size_t>(std::ceil(4.0 * options.fine_target_per_cell));
  std::size_t splits = 0;
  for (std::size_t c = 0; c < grid.num_coarse(); ++c) {
    if (grid.coarse_count(c) <= threshold) {
      EXPECT_EQ(grid.split(c), 1) << "sparse coarse cell " << c << " split anyway";
    } else {
      EXPECT_GT(grid.split(c), 1) << "hot coarse cell " << c << " not split";
      ++splits;
    }
  }
  EXPECT_EQ(grid.splits(), splits);
  // A higher threshold suppresses splits entirely.
  options.split_threshold = pts.size() + 1;
  HierarchicalGrid flat(pts, options);
  EXPECT_EQ(flat.splits(), 0u);
  EXPECT_EQ(flat.num_fine(), flat.num_coarse());
  CheckStructure(pts, flat);
}

TEST(HierGridTest, RingTailMinDistIsSoundAndMonotone) {
  const auto pts = ClusteredPoints(800, 31);
  const HierarchicalGrid grid(pts);
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const Point q{rng.Uniform(-100.0, 1100.0), rng.Uniform(-100.0, 1100.0)};
    // Distance of every resident, bucketed by its coarse ring around q.
    int cx = 0, cy = 0;
    grid.LocateCoarse(q, &cx, &cy);
    const int max_ring = grid.MaxRing(q);
    std::vector<double> ring_min(static_cast<std::size_t>(max_ring) + 1,
                                 std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const std::size_t c = grid.coarse_of_point(i);
      const int px = static_cast<int>(c % static_cast<std::size_t>(grid.coarse_cols()));
      const int py = static_cast<int>(c / static_cast<std::size_t>(grid.coarse_cols()));
      const int ring = std::max(std::abs(px - cx), std::abs(py - cy));
      ring_min[static_cast<std::size_t>(ring)] =
          std::min(ring_min[static_cast<std::size_t>(ring)], Dist(q, pts[i]));
    }
    double prev = -1.0;
    for (int ring = 0; ring <= max_ring; ++ring) {
      const double bound = grid.RingTailMinDist(q, ring);
      EXPECT_GE(bound, prev) << "tail bound not monotone at ring " << ring;
      prev = bound;
      double actual = std::numeric_limits<double>::infinity();
      for (int r = ring; r <= max_ring; ++r) {
        actual = std::min(actual, ring_min[static_cast<std::size_t>(r)]);
      }
      EXPECT_LE(bound, actual + 1e-9)
          << "tail bound overshoots the true tail min at ring " << ring;
    }
  }
}

TEST(HierRingCursorTest, CoversEveryCoarseCellWithSoundTailBound) {
  const auto pts = SkewedPoints(900, 41);
  const HierarchicalGrid grid(pts);
  for (const Point& q : {Point{500, 500}, Point{40, 25}, Point{-60, 1100}}) {
    HierRingCursor cursor(grid, q);
    std::set<std::size_t> seen_cells;
    std::size_t total = 0;
    double prev_tail = -1.0;
    while (true) {
      const double tail = cursor.TailMinDist();
      EXPECT_GE(tail, prev_tail - 1e-12) << "TailMinDist regressed";
      prev_tail = tail;
      const auto view = cursor.NextCoarse();
      if (!view) break;
      EXPECT_TRUE(seen_cells.insert(view->cell).second);
      EXPECT_EQ(view->count, grid.coarse_count(view->cell));
      EXPECT_GT(view->count, 0u);
      // The tail bound published before the pop lower-bounds this cell.
      EXPECT_LE(tail, MinDist(q, grid.CoarseRect(view->cell)) + 1e-9);
      total += view->count;
    }
    EXPECT_TRUE(cursor.exhausted());
    EXPECT_EQ(total, pts.size());
    EXPECT_EQ(cursor.points_remaining(), 0u);
    EXPECT_EQ(cursor.TailMinDist(), std::numeric_limits<double>::infinity());
  }
}

// The aggregation invariant under randomized monotone raises: fine floors
// stay the exact min of their residents, coarse floors the exact min of
// their children, the global floor the exact min over everything.
TEST(HierTauTableTest, FloorsStayExactUnderRandomizedRaises) {
  const auto pts = SkewedPoints(600, 51);
  const HierarchicalGrid grid(pts);
  HierTauTable table(grid);
  std::vector<double> truth(pts.size(), 0.0);
  Rng rng(99);
  for (int step = 0; step < 3000; ++step) {
    const std::size_t id = static_cast<std::size_t>(rng.NextBelow(pts.size()));
    // Mostly raises, occasionally a stale lower value (must be a no-op).
    const double value = rng.NextDouble() < 0.9 ? truth[id] + rng.Uniform(0.0, 5.0)
                                                : truth[id] * rng.NextDouble();
    table.Raise(id, value);
    truth[id] = std::max(truth[id], value);
    if (step % 250 != 0 && step + 1 != 3000) continue;
    std::vector<double> fine_truth(grid.num_fine(), std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      fine_truth[grid.fine_of_point(i)] = std::min(fine_truth[grid.fine_of_point(i)], truth[i]);
      // Slot-ordered values stay aligned with the clustered slices.
      ASSERT_DOUBLE_EQ(table.values()[grid.slot_of_point(i)], truth[i]);
    }
    double global_truth = pts.empty() ? 0.0 : std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < grid.num_coarse(); ++c) {
      double coarse_truth = std::numeric_limits<double>::infinity();
      for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
        ASSERT_DOUBLE_EQ(table.FineFloor(f), fine_truth[f]);
        coarse_truth = std::min(coarse_truth, fine_truth[f]);
      }
      ASSERT_DOUBLE_EQ(table.CoarseFloor(c), coarse_truth);
      // The consumer-facing inequality: coarse floor never exceeds any
      // child floor (what makes one coarse compare a union of fine ones).
      for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
        ASSERT_LE(table.CoarseFloor(c), table.FineFloor(f));
      }
      global_truth = std::min(global_truth, coarse_truth);
    }
    ASSERT_DOUBLE_EQ(table.GlobalFloor(), global_truth);
  }
}

// Between-solve population edits (the AssignmentEngine contract): seeded
// construction starts exact at every level, and raises — including to
// +infinity, which masks a departed resident out — refloor fine -> coarse
// -> global exactly, down to a fine cell whose residents are all removed
// reading +infinity.
TEST(HierTauTableTest, SeededRaisesAndRemovalsRefloorEveryLevelExactly) {
  const auto pts = ClusteredPoints(400, 57);
  const HierarchicalGrid grid(pts);
  std::vector<double> truth(pts.size());
  Rng rng(21);
  for (auto& v : truth) v = rng.Uniform(0.0, 40.0);
  HierTauTable table(grid, truth);
  const double inf = std::numeric_limits<double>::infinity();
  const auto check_exact = [&] {
    std::vector<double> fine_truth(grid.num_fine(), inf);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      fine_truth[grid.fine_of_point(i)] = std::min(fine_truth[grid.fine_of_point(i)], truth[i]);
    }
    double global_truth = inf;
    for (std::size_t c = 0; c < grid.num_coarse(); ++c) {
      double coarse_truth = inf;
      for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
        ASSERT_DOUBLE_EQ(table.FineFloor(f), fine_truth[f]);
        coarse_truth = std::min(coarse_truth, fine_truth[f]);
      }
      ASSERT_DOUBLE_EQ(table.CoarseFloor(c), coarse_truth);
      global_truth = std::min(global_truth, coarse_truth);
    }
    ASSERT_DOUBLE_EQ(table.GlobalFloor(), global_truth);
  };
  check_exact();  // seeded construction is exact before any edit
  for (int round = 0; round < 150; ++round) {
    const std::size_t i = static_cast<std::size_t>(rng.NextBelow(pts.size()));
    const double value = rng.NextDouble() < 0.4 ? inf : truth[i] + rng.Uniform(0.0, 20.0);
    truth[i] = value;
    table.Raise(i, value);
    if (round % 25 == 24) check_exact();
  }
  // Remove every resident of the fullest fine cell: it floors at +infinity.
  std::size_t fullest = 0;
  for (std::size_t f = 1; f < grid.num_fine(); ++f) {
    if (grid.fine_cell_end(f) - grid.fine_cell_begin(f) >
        grid.fine_cell_end(fullest) - grid.fine_cell_begin(fullest)) {
      fullest = f;
    }
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (grid.fine_of_point(i) != fullest) continue;
    truth[i] = inf;
    table.Raise(i, inf);
  }
  EXPECT_EQ(table.FineFloor(fullest), inf);
  check_exact();
}

}  // namespace
}  // namespace cca
