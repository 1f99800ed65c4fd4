// Unit tests for the two-level hierarchical adaptive grid
// (geo/hier_grid.h): structural invariants of the coarse/fine CSR, the
// adaptive split policy, the coarse ring-tail lower bound, the exactness
// of the two-level tau floors under randomized monotone raises (the
// aggregation invariant the SSPA coarse-tail rejection is sound against)
// and the memoized coarse ring walk against a brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
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
  for (std::size_t c = 0; c < grid.coarse().num_cells(); ++c) {
    ASSERT_GE(grid.split(c), 1);
    ASSERT_LE(grid.split(c), HierarchicalGrid::Options::kMaxSplit);
    ASSERT_EQ(grid.fine_end(c) - grid.fine_begin(c),
              static_cast<std::size_t>(grid.split(c)) * static_cast<std::size_t>(grid.split(c)));
    std::size_t count = 0;
    const Rect coarse_rect = grid.coarse().CellRect(c);
    for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
      ASSERT_EQ(grid.coarse_of_fine(f), c);
      const Rect fine_rect = grid.FineRect(f);
      // Children tile their parent (within float slack at the seams).
      EXPECT_GE(fine_rect.lo.x, coarse_rect.lo.x - 1e-9);
      EXPECT_LE(fine_rect.hi.y, coarse_rect.hi.y + 1e-9);
      const CellSlice slice = grid.FineCell(f);
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
  for (std::size_t c = 0; c < grid.coarse().num_cells(); ++c) {
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
  for (std::size_t c = 0; c < grid.coarse().num_cells(); ++c) {
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
  EXPECT_EQ(flat.num_fine(), flat.coarse().num_cells());
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
    grid.coarse().Locate(q, &cx, &cy);
    const int max_ring = grid.coarse().MaxRing(q);
    std::vector<double> ring_min(static_cast<std::size_t>(max_ring) + 1,
                                 std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const std::size_t c = grid.coarse_of_point(i);
      const int px = static_cast<int>(c % static_cast<std::size_t>(grid.coarse().cols()));
      const int py = static_cast<int>(c / static_cast<std::size_t>(grid.coarse().cols()));
      const int ring = std::max(std::abs(px - cx), std::abs(py - cy));
      ring_min[static_cast<std::size_t>(ring)] =
          std::min(ring_min[static_cast<std::size_t>(ring)], Dist(q, pts[i]));
    }
    double prev = -1.0;
    for (int ring = 0; ring <= max_ring; ++ring) {
      const double bound = grid.coarse().RingTailMinDist(q, ring);
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

TEST(HierRingWalkTest, CoversEveryCoarseCellWithSoundTailBound) {
  const auto pts = SkewedPoints(900, 41);
  const HierarchicalGrid grid(pts);
  for (const Point& q : {Point{500, 500}, Point{40, 25}, Point{-60, 1100}}) {
    HierRingWalk walk(grid.layout(), q);
    walk.Bind(grid);
    std::set<std::size_t> seen_cells;
    std::size_t total = 0;
    double prev_tail = -1.0;
    std::size_t i = 0;
    for (; walk.At(i) != nullptr; ++i) {
      const HierRingWalk::Entry& e = *walk.At(i);
      EXPECT_GE(e.tail_before, prev_tail - 1e-12) << "tail bound regressed";
      prev_tail = e.tail_before;
      EXPECT_TRUE(seen_cells.insert(e.cell).second);
      EXPECT_EQ(e.count, grid.coarse_count(e.cell));
      EXPECT_EQ(e.remaining_before, pts.size() - total);
      // The tail bound published before the cell lower-bounds this cell.
      EXPECT_LE(e.tail_before, MinDist(q, grid.coarse().CellRect(e.cell)) + 1e-9);
      total += e.count;
    }
    EXPECT_EQ(walk.entries(), i);
    EXPECT_EQ(i, grid.coarse().num_cells());
    EXPECT_EQ(total, pts.size());
    EXPECT_EQ(walk.At(i + 5), nullptr);
  }
}

// Brute-force reference for one query: every occupied coarse cell (every
// cell of the layout when `all_cells`) with its Chebyshev ring around the
// query's (clamped) coarse cell and its MinDist, ordered by (ring,
// min_dist, cell id).
struct RefCell {
  int ring;
  double min_dist;
  std::size_t cell;
};
std::vector<RefCell> BruteForceWalk(const HierarchicalGrid& grid, const Point& q,
                                    bool all_cells = false) {
  int qx = 0, qy = 0;
  grid.coarse().Locate(q, &qx, &qy);
  std::vector<RefCell> cells;
  for (int cy = 0; cy < grid.coarse().rows(); ++cy) {
    for (int cx = 0; cx < grid.coarse().cols(); ++cx) {
      const std::size_t c = grid.coarse().CellIndex(cx, cy);
      if (!all_cells && grid.coarse_count(c) == 0) continue;
      cells.push_back(RefCell{std::max(std::abs(cx - qx), std::abs(cy - qy)),
                              MinDist(q, grid.coarse().CellRect(c)), c});
    }
  }
  std::sort(cells.begin(), cells.end(), [](const RefCell& a, const RefCell& b) {
    if (a.ring != b.ring) return a.ring < b.ring;
    if (a.min_dist != b.min_dist) return a.min_dist < b.min_dist;
    return a.cell < b.cell;
  });
  return cells;
}

// Checks one walk over `grid`'s layout, bound to `grid`, against brute
// force: it lists every cell of the layout and every child of each.
void CheckWalkAgainstBruteForce(const std::vector<Point>& pts, const HierarchicalGrid& grid,
                                const Point& q, const std::string& label) {
  const std::vector<RefCell> ref = BruteForceWalk(grid, q, /*all_cells=*/true);
  HierRingWalk walk(grid.layout(), q);
  walk.Bind(grid);
  // Copies: an Entry pointer only lives until the walk next grows.
  std::vector<HierRingWalk::Entry> seq;
  for (std::size_t i = 0; walk.At(i) != nullptr; ++i) seq.push_back(*walk.At(i));
  ASSERT_EQ(seq.size(), ref.size()) << label;
  // Same coarse sequence, entry by entry: exact MinDist ties are served by
  // ascending cell id.
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ASSERT_EQ(seq[i].ring, ref[i].ring) << label << " entry " << i;
    ASSERT_EQ(seq[i].min_dist, ref[i].min_dist) << label << " entry " << i;
    ASSERT_EQ(seq[i].cell, ref[i].cell) << label << " entry " << i;
  }
  // Tail bounds and points_remaining: the cursor state before each cell,
  // and the tail bound is sound against the true distances behind it.
  std::vector<double> true_tail(seq.size() + 1, std::numeric_limits<double>::infinity());
  std::vector<std::size_t> true_remaining(seq.size() + 1, 0);
  for (std::size_t i = seq.size(); i-- > 0;) {
    double nearest = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < pts.size(); ++p) {
      if (grid.coarse_of_point(p) == seq[i].cell) nearest = std::min(nearest, Dist(q, pts[p]));
    }
    true_tail[i] = std::min(true_tail[i + 1], nearest);
    true_remaining[i] = true_remaining[i + 1] + grid.coarse_count(seq[i].cell);
  }
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const HierRingWalk::Entry& e = seq[i];
    EXPECT_EQ(e.count, grid.coarse_count(e.cell)) << label;
    EXPECT_EQ(e.remaining_before, true_remaining[i]) << label << " entry " << i;
    EXPECT_EQ(e.tail_before, std::min(e.min_dist, grid.coarse().RingTailMinDist(q, e.ring + 1)))
        << label << " entry " << i;
    EXPECT_LE(e.tail_before, true_tail[i] + 1e-9) << label << " entry " << i;
    if (i > 0) EXPECT_GE(e.tail_before, seq[i - 1].tail_before) << label << " entry " << i;
  }
  // Fine lists: every child, sorted by (min_dist, id), each with the
  // residents of itself and its successors.
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const std::size_t c = seq[i].cell;
    std::size_t n = 0;
    const HierRingWalk::Fine* fines = walk.Fines(i, &n);
    std::set<std::size_t> want, got;
    std::uint32_t occupied = 0;
    for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
      const bool empty = grid.fine_cell_end(f) == grid.fine_cell_begin(f);
      occupied += empty ? 0 : 1;
      want.insert(f);
    }
    std::size_t suffix = 0;
    for (std::size_t k = n; k-- > 0;) {
      const auto f = static_cast<std::size_t>(fines[k].fine);
      got.insert(f);
      suffix += grid.fine_cell_end(f) - grid.fine_cell_begin(f);
      EXPECT_EQ(fines[k].suffix_residents, suffix) << label << " entry " << i << " child " << k;
      EXPECT_EQ(fines[k].min_dist, MinDist(q, grid.FineRect(f))) << label;
      if (k + 1 < n) {
        const bool ordered = fines[k].min_dist != fines[k + 1].min_dist
                                 ? fines[k].min_dist < fines[k + 1].min_dist
                                 : fines[k].fine < fines[k + 1].fine;
        EXPECT_TRUE(ordered) << label << " entry " << i << " child " << k;
      }
    }
    EXPECT_EQ(got, want) << label << " entry " << i;
    EXPECT_EQ(suffix, grid.coarse_count(c)) << label << " entry " << i;
    EXPECT_EQ(walk.At(i)->fines_occupied, occupied) << label << " entry " << i;
  }
}

TEST(HierRingWalkTest, MatchesBruteForceEnumeration) {
  std::vector<Point> collinear;
  for (int i = 0; i < 400; ++i) collinear.push_back(Point{2.5 * i, 0.5 * i});
  std::vector<Point> coincident(300, Point{250.0, 250.0});
  for (int i = 0; i < 200; ++i) coincident.push_back(Point{700.0, 100.0});
  const std::vector<std::pair<std::string, std::vector<Point>>> inputs = {
      {"uniform", RandomPoints(800, 61)},     {"clustered", ClusteredPoints(900, 62)},
      {"skewed", SkewedPoints(1200, 63)},     {"coincident", coincident},
      {"collinear", collinear},
  };
  for (const auto& [name, pts] : inputs) {
    const HierarchicalGrid grid(pts);
    const Rect box = grid.coarse().bounds();
    const Point queries[] = {
        Point{(box.lo.x + box.hi.x) / 2, (box.lo.y + box.hi.y) / 2},  // interior
        Point{box.lo.x + (box.hi.x - box.lo.x) / 3, box.lo.y + (box.hi.y - box.lo.y) / 7},
        box.lo,                                                       // corner
        box.hi,                                                       // corner
        Point{box.lo.x - 300.0, box.hi.y + 120.0},                    // exterior
        Point{box.hi.x + 5.0, (box.lo.y + box.hi.y) / 2},             // exterior
    };
    for (const Point& q : queries) {
      CheckWalkAgainstBruteForce(
          pts, grid, q, name + " q=(" + std::to_string(q.x) + "," + std::to_string(q.y) + ")");
    }
  }
}

// The access pattern of repeated pops: each relax replays the walk from
// entry 0 and stops wherever its bound exits, descending some cells. The
// memo must hand back the same sequence whatever the order it was grown in.
TEST(HierRingWalkTest, PartialReplaysMatchAFullWalk) {
  const auto pts = ClusteredPoints(1500, 71);
  const HierarchicalGrid grid(pts);
  Rng rng(72);
  for (const Point& q : {Point{500, 500}, Point{10, 990}, Point{1200, -40}}) {
    HierRingWalk full(grid.layout(), q);
    full.Bind(grid);
    std::vector<HierRingWalk::Entry> want;
    std::vector<std::vector<std::pair<std::int32_t, std::uint32_t>>> want_fines;
    for (std::size_t i = 0; full.At(i) != nullptr; ++i) {
      want.push_back(*full.At(i));
      std::size_t n = 0;
      const HierRingWalk::Fine* fines = full.Fines(i, &n);
      want_fines.emplace_back();
      for (std::size_t k = 0; k < n; ++k) {
        want_fines.back().emplace_back(fines[k].fine, fines[k].suffix_residents);
      }
    }
    HierRingWalk walk(grid.layout(), q);
    walk.Bind(grid);
    for (int replay = 0; replay < 60; ++replay) {
      const std::size_t stop = static_cast<std::size_t>(rng.NextBelow(want.size() + 2));
      for (std::size_t i = 0; i <= stop; ++i) {
        const HierRingWalk::Entry* e = walk.At(i);
        if (i >= want.size()) {
          ASSERT_EQ(e, nullptr);
          break;
        }
        ASSERT_NE(e, nullptr);
        ASSERT_EQ(e->cell, want[i].cell) << "replay " << replay << " entry " << i;
        ASSERT_EQ(e->ring, want[i].ring);
        ASSERT_EQ(e->min_dist, want[i].min_dist);
        ASSERT_EQ(e->tail_before, want[i].tail_before);
        ASSERT_EQ(e->remaining_before, want[i].remaining_before);
        if (rng.NextDouble() < 0.3) {
          std::size_t n = 0;
          const HierRingWalk::Fine* fines = walk.Fines(i, &n);
          ASSERT_EQ(n, want_fines[i].size());
          for (std::size_t k = 0; k < n; ++k) {
            ASSERT_EQ(fines[k].fine, want_fines[i][k].first);
            ASSERT_EQ(fines[k].suffix_residents, want_fines[i][k].second);
          }
        }
      }
    }
    EXPECT_LE(walk.entries(), want.size());
    EXPECT_LE(walk.fines_built(), full.fines_built());
  }
}

// Re-bucketing keeps the layout object, builds an exact CSR over the new
// points and puts every point inside its fine rect.
TEST(HierGridTest, RebucketKeepsTheLayoutAndBuildsAnExactCsr) {
  Rng rng(84);
  for (const auto& pts :
       {RandomPoints(700, 81), ClusteredPoints(900, 82), SkewedPoints(1200, 83)}) {
    const HierarchicalGrid laid(pts);
    // Every other point stays; new ones arrive anywhere in the box.
    std::vector<Point> next;
    for (std::size_t i = 0; i < pts.size(); i += 2) next.push_back(pts[i]);
    const Rect box = laid.coarse().bounds();
    for (int i = 0; i < 300; ++i) {
      next.push_back(Point{rng.Uniform(box.lo.x, box.hi.x), rng.Uniform(box.lo.y, box.hi.y)});
    }
    next.push_back(box.lo);
    next.push_back(box.hi);
    const HierarchicalGrid grid(next, laid);
    EXPECT_EQ(grid.layout(), laid.layout());
    EXPECT_EQ(grid.coarse().bounds(), box);
    EXPECT_EQ(grid.splits(), laid.splits());
    ASSERT_EQ(grid.num_fine(), laid.num_fine());
    for (std::size_t c = 0; c < grid.coarse().num_cells(); ++c) {
      ASSERT_EQ(grid.split(c), laid.split(c));
      ASSERT_EQ(grid.fine_begin(c), laid.fine_begin(c));
    }
    CheckStructure(next, grid);
    for (std::size_t i = 0; i < next.size(); ++i) {
      EXPECT_TRUE(grid.FineRect(grid.fine_of_point(i)).Contains(next[i])) << "point " << i;
    }
  }
}

// A kept walk, grown over one grid and bound to another of its layout,
// serves the new grid's occupied cells in brute-force order, with the new
// grid's counts. It lists every cell of the layout: cells that emptied,
// and cells the first grid left empty that the new points occupy.
TEST(HierRingWalkTest, KeptWalkServesAReBucketedGrid) {
  const auto pts = ClusteredPoints(1500, 91);
  const HierarchicalGrid laid(pts);
  std::vector<Point> next;  // departures, and arrivals anywhere in the box
  for (std::size_t i = 0; i < pts.size(); i += 3) next.push_back(pts[i]);
  const Rect box = laid.coarse().bounds();
  Rng rng(92);
  for (int i = 0; i < 200; ++i) {
    next.push_back(Point{rng.Uniform(box.lo.x, box.hi.x), rng.Uniform(box.lo.y, box.hi.y)});
  }
  const HierarchicalGrid grid(next, laid);
  std::size_t arrived_in_empty = 0;
  for (std::size_t i = 0; i < next.size(); ++i) {
    const std::size_t f = grid.fine_of_point(i);
    arrived_in_empty += laid.fine_cell_end(f) == laid.fine_cell_begin(f) ? 1 : 0;
  }
  ASSERT_GT(arrived_in_empty, 0u);
  for (const Point& q : {Point{500, 500}, Point{10, 990}, Point{1200, -40}}) {
    HierRingWalk walk(laid.layout(), q);
    walk.Bind(laid);
    // Grow part of the walk over the first grid, as an earlier solve would.
    for (std::size_t i = 0; i < 12 && walk.At(i) != nullptr; ++i) {
      std::size_t n = 0;
      walk.Fines(i, &n);
    }
    walk.Bind(grid);
    std::vector<std::size_t> served;
    std::size_t seen = 0, listed = 0;
    for (std::size_t i = 0; walk.At(i) != nullptr; ++i) {
      const HierRingWalk::Entry e = *walk.At(i);
      ++listed;
      EXPECT_EQ(e.count, grid.coarse_count(e.cell));
      EXPECT_EQ(e.remaining_before, next.size() - seen);
      seen += e.count;
      if (e.count > 0) served.push_back(e.cell);
      std::size_t n = 0;
      const HierRingWalk::Fine* fines = walk.Fines(i, &n);
      EXPECT_EQ(n, grid.fine_end(e.cell) - grid.fine_begin(e.cell));
      std::uint32_t residents = 0, cells = 0;
      for (std::size_t k = n; k-- > 0;) {
        const auto f = static_cast<std::size_t>(fines[k].fine);
        const auto r = static_cast<std::uint32_t>(grid.fine_cell_end(f) - grid.fine_cell_begin(f));
        residents += r;
        cells += r > 0 ? 1 : 0;
        EXPECT_EQ(fines[k].suffix_residents, residents);
      }
      EXPECT_EQ(residents, e.count);
      EXPECT_EQ(walk.At(i)->fines_occupied, cells);
    }
    EXPECT_EQ(seen, next.size());
    EXPECT_EQ(listed, laid.coarse().num_cells());
    const std::vector<RefCell> ref = BruteForceWalk(grid, q);
    ASSERT_EQ(served.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(served[i], ref[i].cell) << i;
  }
}

TEST(HierRingWalkTest, BindDiesOnAnotherLayout) {
  const auto pts = ClusteredPoints(400, 93);
  const HierarchicalGrid laid(pts);
  const HierarchicalGrid same(std::vector<Point>(pts.begin(), pts.begin() + 300), laid);
  HierRingWalk walk(laid.layout(), Point{500, 500});
  walk.Bind(same);
  EXPECT_NE(walk.At(0), nullptr);
  const HierarchicalGrid other(pts);  // same points, another layout
  EXPECT_DEBUG_DEATH(walk.Bind(other), "its own layout");
}

// The aggregation invariant under randomized monotone raises: fine floors
// stay the exact min of their residents, coarse floors the exact min of
// their children, the global floor the exact min over everything.
TEST(HierTauTableTest, FloorsStayExactUnderRandomizedRaises) {
  const auto pts = SkewedPoints(600, 51);
  const HierarchicalGrid grid(pts);
  std::vector<double> truth(pts.size(), 0.0);
  HierTauTable table(grid, truth);
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
    for (std::size_t c = 0; c < grid.coarse().num_cells(); ++c) {
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

// Seeded construction starts exact at every level, and raises — including
// to +infinity, which removes a resident — refloor fine -> coarse ->
// global exactly, down to a fine cell whose residents are all removed
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
    for (std::size_t c = 0; c < grid.coarse().num_cells(); ++c) {
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
