// CellTauTable (geo/grid.h): the incremental per-cell floor of a
// monotonically raised per-point value (the SSPA customer potentials).
// The solver-facing invariant is that a cell's floor never exceeds the
// min value of the cell's residents — that is what makes the per-cell
// reduced-cost bound a certified lower bound (src/flow/README.md). The
// implementation additionally keeps floors *exact* after every Raise,
// which these tests pin down under randomized augmentation-like update
// sequences, along with the cached global floor and the slot alignment
// of the value array with the grid's clustered slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "geo/grid.h"
#include "test_util.h"

namespace cca {
namespace {

// Brute-force per-cell minimum over a shadow (point-id-indexed) copy.
double BruteFloor(const UniformGrid& grid, const std::vector<double>& by_id,
                  std::size_t cell) {
  double floor = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < by_id.size(); ++i) {
    if (grid.cell_of_point(i) == cell) floor = std::min(floor, by_id[i]);
  }
  return floor;
}

TEST(CellTauFloorTest, StartsAtZeroEverywhere) {
  const auto pts = test::RandomPoints(300, 11);
  const UniformGrid grid(pts, 4.0);
  CellTauTable table(grid);
  EXPECT_EQ(table.GlobalFloor(), 0.0);
  for (const std::int32_t c : grid.nonempty_cells()) {
    EXPECT_EQ(table.CellFloor(static_cast<std::size_t>(c)), 0.0);
  }
}

TEST(CellTauFloorTest, EmptyCellsFloorAtInfinity) {
  // A sparse set over a wide box leaves most cells empty; their floor must
  // never win a min against occupied cells.
  std::vector<Point> pts{{0, 0}, {1000, 1000}};
  const UniformGrid grid(pts, 1.0);
  CellTauTable table(grid);
  std::size_t empty_cells = 0;
  for (std::size_t c = 0; c < grid.lattice().num_cells(); ++c) {
    if (grid.cell_begin(c) == grid.cell_end(c)) {
      EXPECT_EQ(table.CellFloor(c), std::numeric_limits<double>::infinity());
      ++empty_cells;
    }
  }
  EXPECT_GT(empty_cells, 0u);
  EXPECT_EQ(table.GlobalFloor(), 0.0);
}

// The core invariant under randomized monotone update sequences: after
// every batch of raises (an "augmentation"), each touched or untouched
// cell's floor equals — and in particular never exceeds — the min value
// of its residents, and the global floor equals the min over all points.
TEST(CellTauFloorTest, RandomizedAugmentationSequencesKeepFloorsExact) {
  for (const std::uint64_t seed : {1u, 7u, 23u}) {
    const auto pts = test::RandomPoints(400, 31 + seed);
    const UniformGrid grid(pts, 4.0);
    CellTauTable table(grid);
    std::vector<double> by_id(pts.size(), 0.0);
    Rng rng(seed);
    for (int round = 0; round < 60; ++round) {
      // A batch of raises, like one augmentation's shortest-path tree:
      // a random subset of points receives a positive delta.
      const std::size_t touched = 1 + rng.UniformInt(0, 40);
      for (std::size_t t = 0; t < touched; ++t) {
        const auto i = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(pts.size()) - 1));
        by_id[i] += rng.Uniform(0.0, 10.0);
        table.Raise(i, by_id[i]);
      }
      double global = std::numeric_limits<double>::infinity();
      for (const std::int32_t c : grid.nonempty_cells()) {
        const auto cell = static_cast<std::size_t>(c);
        const double brute = BruteFloor(grid, by_id, cell);
        EXPECT_LE(table.CellFloor(cell), brute) << "round " << round;  // soundness
        EXPECT_EQ(table.CellFloor(cell), brute) << "round " << round;  // exactness
        global = std::min(global, brute);
      }
      EXPECT_EQ(table.GlobalFloor(), global) << "round " << round;
    }
  }
}

TEST(CellTauFloorTest, LoweringAttemptsAreIgnored) {
  const auto pts = test::RandomPoints(50, 77);
  const UniformGrid grid(pts, 4.0);
  CellTauTable table(grid);
  table.Raise(7, 5.0);
  const std::size_t cell = grid.cell_of_point(7);
  table.Raise(7, 3.0);  // violates the monotone contract: must be a no-op
  EXPECT_EQ(table.values()[grid.slot_of_point(7)], 5.0);
  const double expect = BruteFloor(grid, [&] {
    std::vector<double> by_id(pts.size(), 0.0);
    by_id[7] = 5.0;
    return by_id;
  }(), cell);
  EXPECT_EQ(table.CellFloor(cell), expect);
}

TEST(CellTauFloorTest, ValuesAlignWithClusteredSlices) {
  const auto pts = test::RandomPoints(200, 91);
  const UniformGrid grid(pts, 4.0);
  CellTauTable table(grid);
  std::vector<double> by_id(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    by_id[i] = static_cast<double>(i) + 1.0;
    table.Raise(i, by_id[i]);
  }
  // values()[slice.first_slot + i] must be the value of slice.ids[i] — the
  // contract that lets DistanceBlockSelect stream taus next to xs/ys.
  for (const std::int32_t c : grid.nonempty_cells()) {
    const CellSlice slice = grid.Cell(static_cast<std::size_t>(c));
    for (std::size_t i = 0; i < slice.count; ++i) {
      EXPECT_EQ(table.values()[slice.first_slot + i],
                by_id[static_cast<std::size_t>(slice.ids[i])]);
    }
  }
}

// --- seeded tables and removal by raising to +infinity ------------------
// Raise is the table's only write; a resident raised to +infinity drops out
// of its cell's floor and of the global floor, exactly.

TEST(CellTauFloorTest, SeededConstructionStartsExact) {
  const auto pts = test::RandomPoints(300, 101);
  const UniformGrid grid(pts, 4.0);
  std::vector<double> by_id(pts.size());
  Rng rng(5);
  for (auto& v : by_id) v = rng.Uniform(0.0, 50.0);
  CellTauTable table(grid, by_id);
  double global = std::numeric_limits<double>::infinity();
  for (const std::int32_t c : grid.nonempty_cells()) {
    const auto cell = static_cast<std::size_t>(c);
    EXPECT_EQ(table.CellFloor(cell), BruteFloor(grid, by_id, cell));
    global = std::min(global, BruteFloor(grid, by_id, cell));
    // Seeds land slot-ordered, aligned with the grid's clustered slices.
    const CellSlice slice = grid.Cell(cell);
    for (std::size_t i = 0; i < slice.count; ++i) {
      EXPECT_EQ(table.values()[slice.first_slot + i],
                by_id[static_cast<std::size_t>(slice.ids[i])]);
    }
  }
  EXPECT_EQ(table.GlobalFloor(), global);
}

TEST(CellTauFloorTest, RemoveRefloorsCellAndGlobalExactly) {
  // Removal is a raise to +infinity. One cell holding the global min plus
  // a far cell: raising the min
  // resident to +infinity must lift the cell floor to the runner-up, and
  // raising the whole cell must leave it at +infinity (like a
  // never-occupied cell) with the global floor migrating to the survivors.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Point> pts{{0, 0}, {1, 1}, {900, 900}};
  const UniformGrid grid(pts, 2.0);
  CellTauTable table(grid, {3.0, 8.0, 5.0});
  const std::size_t cell_a = grid.cell_of_point(0);
  ASSERT_EQ(cell_a, grid.cell_of_point(1));
  ASSERT_NE(cell_a, grid.cell_of_point(2));
  EXPECT_EQ(table.GlobalFloor(), 3.0);
  table.Raise(0, kInf);
  EXPECT_EQ(table.CellFloor(cell_a), 8.0);
  EXPECT_EQ(table.GlobalFloor(), 5.0);
  EXPECT_EQ(table.values()[grid.slot_of_point(0)], kInf);
  table.Raise(1, kInf);  // cell_a now fully raised
  EXPECT_EQ(table.CellFloor(cell_a), kInf);
  EXPECT_EQ(table.GlobalFloor(), 5.0);
  table.Raise(2, kInf);  // every resident gone: global floor drains to +infinity
  EXPECT_EQ(table.GlobalFloor(), kInf);
}

TEST(CellTauFloorTest, RandomizedEditSequencesKeepFloorsExact) {
  const auto pts = test::RandomPoints(250, 113);
  const UniformGrid grid(pts, 4.0);
  std::vector<double> by_id(pts.size(), 0.0);
  CellTauTable table(grid, by_id);
  Rng rng(17);
  for (int round = 0; round < 200; ++round) {
    const auto i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(pts.size()) - 1));
    if (rng.NextDouble() < 0.4) {
      by_id[i] = std::numeric_limits<double>::infinity();
    } else {
      by_id[i] += rng.Uniform(0.0, 30.0);
    }
    table.Raise(i, by_id[i]);
    if (round % 20 != 19) continue;
    double global = std::numeric_limits<double>::infinity();
    for (const std::int32_t c : grid.nonempty_cells()) {
      const auto cell = static_cast<std::size_t>(c);
      EXPECT_EQ(table.CellFloor(cell), BruteFloor(grid, by_id, cell))
          << "round " << round;
      global = std::min(global, BruteFloor(grid, by_id, cell));
    }
    EXPECT_EQ(table.GlobalFloor(), global) << "round " << round;
  }
}

TEST(CellTauFloorTest, GlobalFloorTracksDisplacedMinimumAcrossCells) {
  // Two far-apart clumps in different cells: raise the clump holding the
  // global min and the cached global floor must migrate to the other.
  std::vector<Point> pts{{0, 0}, {1, 1}, {900, 900}, {901, 901}};
  const UniformGrid grid(pts, 2.0);
  CellTauTable table(grid);
  ASSERT_NE(grid.cell_of_point(0), grid.cell_of_point(2));
  table.Raise(2, 4.0);
  table.Raise(3, 6.0);
  EXPECT_EQ(table.GlobalFloor(), 0.0);  // clump A still at 0
  table.Raise(0, 10.0);
  table.Raise(1, 12.0);
  EXPECT_EQ(table.GlobalFloor(), 4.0);  // min moved to clump B
  table.Raise(2, 20.0);
  EXPECT_EQ(table.GlobalFloor(), 6.0);
}

}  // namespace
}  // namespace cca
