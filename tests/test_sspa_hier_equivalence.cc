// Soundness gate for the hierarchical ring relax (geo/hier_grid.h): SSPA
// on the two-level grid and the index-free reference scan must produce the
// *same trajectory* — matching cost, Dijkstra pops (up to boundary ties)
// and augmentation count all agree — because every coarse, fine and
// per-lane rejection only ever discards relaxes certified irrelevant
// (coarse floor <= every resident tau, fine floor likewise). Randomized
// across distributions (uniform / clustered / skewed) and unit and weighted
// customers; the grid's shape (split threshold) and its provenance (a
// SharedIndex-borrowed grid) must not matter either.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "flow/sspa.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"
#include "runtime/query_runner.h"
#include "test_util.h"

namespace cca {
namespace {

SspaResult Solve(const Problem& problem, bool use_grid) {
  SspaConfig config;
  config.use_grid = use_grid;
  return SolveSspa(problem, config);
}

std::uint64_t PopGap(const SspaResult& a, const SspaResult& b) {
  return a.metrics.dijkstra_pops > b.metrics.dijkstra_pops
             ? a.metrics.dijkstra_pops - b.metrics.dijkstra_pops
             : b.metrics.dijkstra_pops - a.metrics.dijkstra_pops;
}

// Identical trajectory: cost within float tolerance, augmentation count
// exactly equal, pops equal up to boundary ties. (Every Dijkstra run ends
// by popping the path's final customer and then the sink at the same key,
// and zero-reduced-cost arcs after potential updates routinely put more
// nodes at exactly that key; which of those tied nodes the binary heap
// surfaces before the sink depends on insertion history, which
// legitimately differs between coarse-first ring enumeration and the
// reference's index order. Labels strictly below the path distance — and
// hence the matching and the augmentation structure — are
// enumeration-order independent, which is what the bounds' soundness
// argument certifies. Relax counts may drift further and are not
// compared: the order shifts *which* certified-irrelevant candidates get
// bound-checked, never the labels.)
void ExpectSameTrajectory(const SspaResult& got, const SspaResult& reference,
                          const std::string& tag) {
  EXPECT_NEAR(got.matching.cost(), reference.matching.cost(),
              1e-6 * std::max(1.0, reference.matching.cost()))
      << tag;
  // At most a handful of tie pops per Dijkstra run; one run per
  // augmentation bounds the total drift.
  EXPECT_LE(PopGap(got, reference), reference.metrics.augmentations) << tag;
  EXPECT_EQ(got.metrics.augmentations, reference.metrics.augmentations) << tag;
}

void ExpectMatchesReference(const Problem& problem, const std::string& label) {
  const SspaResult hier = Solve(problem, /*use_grid=*/true);
  const SspaResult reference = Solve(problem, /*use_grid=*/false);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, hier.matching, &error)) << label << ": " << error;
  ExpectSameTrajectory(hier, reference, label);
  // The hierarchy actually engaged (it is not equivalence-by-vacuity), and
  // the reference never touches it.
  if (problem.customers.size() > 1) {
    EXPECT_GT(hier.metrics.coarse_cells_descended + hier.metrics.coarse_tails_pruned, 0u)
        << label;
    EXPECT_EQ(reference.metrics.coarse_cells_descended, 0u) << label;
    EXPECT_EQ(reference.metrics.coarse_tails_pruned, 0u) << label;
    EXPECT_EQ(reference.metrics.hier_splits, 0u) << label;
  }
}

Problem MakeInstance(const char* dist, std::size_t nq, std::size_t np, bool weighted,
                     std::uint64_t seed) {
  Problem problem;
  const auto q_pts = test::RandomPoints(nq, seed * 7 + 1);
  Rng rng(seed * 31 + 3);
  problem.providers.reserve(nq);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(2, 8))});
  }
  if (std::string(dist) == "clustered") {
    problem.customers = test::ClusteredPoints(np, seed * 13 + 2);
  } else if (std::string(dist) == "skewed") {
    problem.customers = test::SkewedPoints(np, seed * 13 + 2);
  } else {
    problem.customers = test::RandomPoints(np, seed * 13 + 2);
  }
  if (weighted) {
    problem.weights.resize(np);
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
  }
  return problem;
}

TEST(SspaHierEquivalence, RandomizedAcrossDistributionsAndWeights) {
  for (const char* dist : {"uniform", "clustered", "skewed"}) {
    for (const bool weighted : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Problem problem = MakeInstance(dist, 6 + seed, 120 + 60 * seed, weighted, seed);
        ExpectMatchesReference(problem, std::string(dist) + (weighted ? " weighted" : " unit") +
                                            " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(SspaHierEquivalence, SplitThresholdVariantsAgree) {
  // The split policy only redistributes points between fine cells; any
  // threshold (including "never split") must leave the trajectory alone.
  const Problem problem = MakeInstance("skewed", 8, 400, /*weighted=*/true, 5);
  const SspaResult reference = Solve(problem, /*use_grid=*/false);
  for (const std::size_t threshold : {1u, 64u, 100000u}) {
    HierarchicalGrid::Options options;
    options.split_threshold = threshold;
    const HierarchicalGrid grid(problem.customers, options);
    SspaConfig config;
    config.shared_index.grid = &grid;
    const SspaResult got = SolveSspa(problem, config);
    ExpectSameTrajectory(got, reference, "threshold " + std::to_string(threshold));
    EXPECT_EQ(got.metrics.hier_splits, grid.splits()) << "threshold " << threshold;
  }
}

TEST(SspaHierEquivalence, SharedIndexInjectionMatchesPrivateBuild) {
  // A solve borrowing the SharedIndex's hierarchical grid must be
  // bit-identical to one building its own (same counters included — the
  // borrowed structure is the same structure).
  const Problem problem = MakeInstance("skewed", 8, 300, /*weighted=*/false, 9);
  SharedIndex::Options options;
  options.build_customer_db = false;
  const SharedIndex index(problem.customers, options);
  QueryRunner runner(&index, 1);
  QuerySpec spec;
  spec.solver = QuerySolver::kSspa;
  spec.problem = problem;
  const QueryOutcome outcome = runner.Run({spec}).front();
  const SspaResult direct = SolveSspa(problem, spec.sspa);
  EXPECT_NEAR(outcome.matching.cost(), direct.matching.cost(),
              1e-9 * std::max(1.0, direct.matching.cost()));
  EXPECT_EQ(outcome.metrics.dijkstra_pops, direct.metrics.dijkstra_pops);
  EXPECT_EQ(outcome.metrics.dijkstra_relaxes, direct.metrics.dijkstra_relaxes);
  EXPECT_EQ(outcome.metrics.coarse_tails_pruned, direct.metrics.coarse_tails_pruned);
  EXPECT_EQ(outcome.metrics.coarse_cells_descended, direct.metrics.coarse_cells_descended);
  EXPECT_EQ(outcome.metrics.hier_splits, direct.metrics.hier_splits);
}

TEST(SspaHierEquivalence, KeptWalksSkipEmptiedCellsLikeAFreshGrid) {
  // Every walk lists every cell of its layout, kept or built by the solve;
  // the relax must skip the ones empty in the bound grid, so a solve over
  // a re-bucketed grid with kept walks counts exactly like one over a
  // freshly laid-out grid of the same lattice, splits and points with its
  // own walks. Construction: `subset` laid out on its own, and `full` = subset
  // minus a few `moved` residents plus extra customers, twice subset's
  // size, laid out with twice the coarse target, so both get the same
  // lattice. A tiny fine target splits exactly the coarse cells holding two
  // or more residents 8x8, so the split factors agree too: the extras join
  // only such cells, or sit alone in a coarse cell the subset leaves empty,
  // and a moved resident is alone in its coarse cell or one of three or
  // more. Re-bucketed into full's layout, the subset leaves the extras'
  // cells empty and puts the moved residents in cells full left empty.
  Rng rng(77);
  std::vector<Point> subset = test::RandomPoints(500, 78);
  subset.front() = Point{0.0, 0.0};
  subset.back() = Point{1000.0, 1000.0};
  HierarchicalGrid::Options sub_options;
  sub_options.coarse_target_per_cell = 4.0;
  sub_options.fine_target_per_cell = 1e-6;
  const HierarchicalGrid fresh_grid(subset, sub_options);
  const Rect box = fresh_grid.coarse().bounds();
  std::vector<Point> extras;
  std::vector<std::size_t> crowded;
  for (std::size_t c = 0; c < fresh_grid.coarse().num_cells(); ++c) {
    const Rect r = fresh_grid.coarse().CellRect(c);
    const Point inside{std::min((r.lo.x + r.hi.x) / 2, box.hi.x),
                       std::min((r.lo.y + r.hi.y) / 2, box.hi.y)};
    if (fresh_grid.coarse_count(c) == 0) extras.push_back(inside);
    if (fresh_grid.coarse_count(c) >= 2) crowded.push_back(c);
  }
  ASSERT_FALSE(crowded.empty());
  // At most one moved resident per coarse cell; the box corners stay.
  Problem full = MakeInstance("uniform", 8, 0, /*weighted=*/false, 31);
  std::vector<char> moved_from(fresh_grid.coarse().num_cells(), 0);
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const std::size_t c = fresh_grid.coarse_of_point(i);
    const std::size_t n = fresh_grid.coarse_count(c);
    const bool corner = i == 0 || i + 1 == subset.size();
    if (!corner && !moved_from[c] && (n == 1 || n >= 3)) {
      moved_from[c] = 1;
    } else {
      full.customers.push_back(subset[i]);
    }
  }
  while (full.customers.size() + extras.size() < 2 * subset.size()) {
    const Rect r = fresh_grid.coarse().CellRect(crowded[rng.NextBelow(crowded.size())]);
    extras.push_back(Point{rng.Uniform(r.lo.x, std::min(r.hi.x, box.hi.x)),
                           rng.Uniform(r.lo.y, std::min(r.hi.y, box.hi.y))});
  }
  full.customers.insert(full.customers.end(), extras.begin(), extras.end());
  ASSERT_EQ(full.customers.size(), 2 * subset.size());
  HierarchicalGrid::Options full_options = sub_options;
  full_options.coarse_target_per_cell = 8.0;
  const HierarchicalGrid laid(full.customers, full_options);
  ASSERT_EQ(laid.coarse().cell_size(), fresh_grid.coarse().cell_size());
  ASSERT_EQ(laid.coarse().num_cells(), fresh_grid.coarse().num_cells());
  for (std::size_t c = 0; c < laid.coarse().num_cells(); ++c) {
    ASSERT_EQ(laid.split(c), fresh_grid.split(c)) << "coarse cell " << c;
  }

  // Grow one walk per provider over the full population, then re-bucket.
  std::vector<HierRingWalk> walks;
  for (const Provider& q : full.providers) walks.emplace_back(laid.layout(), q.pos);
  SspaConfig grow;
  grow.shared_index = SspaSharedIndex{&laid, &walks};
  EXPECT_GT(SolveSspa(full, grow).metrics.walk_cells_built, 0u);
  Problem problem = full;
  problem.customers = subset;
  const HierarchicalGrid grid(subset, laid);
  // Residents in coarse cells, and in fine cells of occupied coarse cells,
  // that full left empty.
  std::size_t new_coarse = 0, new_fine = 0;
  for (std::size_t i = 0; i < subset.size(); ++i) {
    const std::size_t f = grid.fine_of_point(i);
    if (laid.coarse_count(grid.coarse_of_point(i)) == 0) {
      ++new_coarse;
    } else if (laid.fine_cell_end(f) == laid.fine_cell_begin(f)) {
      ++new_fine;
    }
  }
  ASSERT_GT(new_coarse, 0u);
  ASSERT_GT(new_fine, 0u);
  SspaConfig kept;
  kept.shared_index = SspaSharedIndex{&grid, &walks};
  SspaConfig fresh;
  fresh.shared_index.grid = &fresh_grid;
  const SspaResult a = SolveSspa(problem, kept);
  const SspaResult b = SolveSspa(problem, fresh);
  EXPECT_EQ(a.matching.cost(), b.matching.cost());
  const Metrics& m = a.metrics;
  const Metrics& r = b.metrics;
  EXPECT_EQ(m.dijkstra_pops, r.dijkstra_pops);
  EXPECT_EQ(m.dijkstra_relaxes, r.dijkstra_relaxes);
  EXPECT_EQ(m.augmentations, r.augmentations);
  EXPECT_EQ(m.relaxes_pruned, r.relaxes_pruned);
  EXPECT_EQ(m.distances_computed, r.distances_computed);
  EXPECT_EQ(m.cells_pruned, r.cells_pruned);
  EXPECT_EQ(m.coarse_tails_pruned, r.coarse_tails_pruned);
  EXPECT_EQ(m.coarse_cells_descended, r.coarse_cells_descended);
  EXPECT_EQ(m.grid_rings_scanned, r.grid_rings_scanned);
  EXPECT_EQ(m.grid_cursor_cells, r.grid_cursor_cells);
  EXPECT_EQ(m.hier_splits, r.hier_splits);
  // The grown walks were replayed: new walks over the same grid build more
  // cells.
  std::vector<HierRingWalk> new_walks;
  for (const Provider& q : problem.providers) new_walks.emplace_back(laid.layout(), q.pos);
  SspaConfig unwalked;
  unwalked.shared_index = SspaSharedIndex{&grid, &new_walks};
  const SspaResult c = SolveSspa(problem, unwalked);
  EXPECT_EQ(c.metrics.distances_computed, m.distances_computed);
  EXPECT_LT(m.walk_cells_built, c.metrics.walk_cells_built);
}

// A solve that builds its own walks builds the walks an engine would lend:
// lending fresh walks over the same grid changes no cost and no counter,
// walk_cells_built included, on seeded, capacity-limited and weighted
// solves alike.
TEST(SspaHierEquivalence, OwnWalksEqualFreshLentWalks) {
  struct Shape {
    const char* label;
    std::size_t nq, np;
    bool weighted, seeded;
  };
  const Shape shapes[] = {
      {"seeded", 60, 200, false, true},
      {"capacity-limited", 12, 500, false, false},
      {"weighted", 40, 150, true, false},
  };
  for (const char* dist : {"uniform", "clustered"}) {
    for (const Shape& shape : shapes) {
      const std::string tag = std::string(dist) + " " + shape.label;
      const Problem problem = MakeInstance(dist, shape.nq, shape.np, shape.weighted, 41);
      ASSERT_EQ(problem.TotalCapacity() >= problem.TotalWeight(), shape.seeded) << tag;
      const HierarchicalGrid grid(problem.customers);
      SspaConfig own;
      own.shared_index.grid = &grid;
      std::vector<HierRingWalk> walks;
      for (const Provider& q : problem.providers) walks.emplace_back(grid.layout(), q.pos);
      SspaConfig lent;
      lent.shared_index = SspaSharedIndex{&grid, &walks};
      const SspaResult a = SolveSspa(problem, own);
      const SspaResult b = SolveSspa(problem, lent);
      EXPECT_EQ(a.metrics.seed_millis > 0.0, shape.seeded) << tag;
      EXPECT_GT(a.metrics.walk_cells_built, 0u) << tag;
      EXPECT_EQ(a.matching.cost(), b.matching.cost()) << tag;
#define CCA_EXPECT_COUNTER_EQ(field, label) \
  EXPECT_EQ(a.metrics.field, b.metrics.field) << tag << " " << label;
      CCA_METRICS_COUNTER_FIELDS(CCA_EXPECT_COUNTER_EQ)
#undef CCA_EXPECT_COUNTER_EQ
    }
  }
}

}  // namespace
}  // namespace cca
