// Property test: the hierarchical ring relax and the reference scan must
// produce matchings of equal total cost (the optimum is unique in cost, not
// in pairing) with the same augmentation structure on seeded random
// instances across distributions, plus a relax-count regression guard for
// the pruning itself.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

SspaResult RunGrid(const Problem& problem) {
  SspaConfig config;
  config.use_grid = true;
  return SolveSspa(problem, config);
}

SspaResult RunDense(const Problem& problem) {
  SspaConfig config;
  config.use_grid = false;
  return SolveSspa(problem, config);
}

// Candidates the reference scan looked at: it examines every customer on
// every provider pop and either relaxes it or prunes it against the
// certified upper bound, so relaxes + pruned equals the pre-prune count.
std::uint64_t DenseExamined(const SspaResult& dense) {
  return dense.metrics.dijkstra_relaxes + dense.metrics.relaxes_pruned;
}

void ExpectEquivalent(const Problem& problem, const std::string& label) {
  const SspaResult grid = RunGrid(problem);
  const SspaResult dense = RunDense(problem);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, grid.matching, &error)) << label << ": " << error;
  EXPECT_TRUE(ValidateMatching(problem, dense.matching, &error)) << label << ": " << error;
  EXPECT_NEAR(grid.matching.cost(), dense.matching.cost(),
              1e-6 * std::max(1.0, dense.matching.cost()))
      << label;
  // The pruned path must never relax (meaningfully) more than the
  // candidates dense examined; dense itself may relax far fewer, since its
  // per-candidate upper-bound prune is finer-grained than the grid's cell
  // bound. The small slack absorbs tie-induced differences in which nodes
  // get popped (and hence relax their customer-side edges) between runs.
  EXPECT_LE(grid.metrics.dijkstra_relaxes, DenseExamined(dense) * 11 / 10 + 8) << label;
  // Identical augmentation structure: both run one Dijkstra per path.
  EXPECT_EQ(grid.metrics.augmentations, dense.metrics.augmentations) << label;
  // Pops agree up to boundary ties: at most a handful of tied nodes per
  // Dijkstra run surface before the sink in enumeration-dependent order
  // (tests/test_sspa_hier_equivalence.cc spells out why).
  const auto pop_gap = grid.metrics.dijkstra_pops > dense.metrics.dijkstra_pops
                           ? grid.metrics.dijkstra_pops - dense.metrics.dijkstra_pops
                           : dense.metrics.dijkstra_pops - grid.metrics.dijkstra_pops;
  EXPECT_LE(pop_gap, dense.metrics.augmentations) << label;
}

Problem SkewedProblem(std::size_t nq, std::size_t np, std::int32_t k_lo, std::int32_t k_hi,
                      std::uint64_t seed) {
  Problem problem;
  const auto q_pts = test::SkewedPoints(nq, seed * 3 + 1);
  Rng rng(seed * 5 + 2);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(k_lo, k_hi))});
  }
  problem.customers = test::SkewedPoints(np, seed * 7 + 3);
  return problem;
}

TEST(SspaGridEquivalence, UniformInstances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 5 + seed;
    spec.np = 60 + 15 * seed;
    spec.k_lo = 1;
    spec.k_hi = static_cast<std::int32_t>(2 + seed % 4);
    spec.seed = seed;
    ExpectEquivalent(test::RandomProblem(spec), "uniform seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, GaussianClusteredInstances) {
  for (std::uint64_t seed = 10; seed <= 15; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 8;
    spec.np = 120;
    spec.k_lo = 2;
    spec.k_hi = 8;
    spec.clustered_q = true;
    spec.clustered_p = true;
    spec.seed = seed;
    ExpectEquivalent(test::RandomProblem(spec), "clustered seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, SkewedInstances) {
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    ExpectEquivalent(SkewedProblem(7, 90, 1, 5, seed), "skewed seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, WeightedCustomers) {
  for (std::uint64_t seed = 30; seed <= 35; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 40;
    spec.k_lo = 3;
    spec.k_hi = 12;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 5));
    ExpectEquivalent(problem, "weighted seed " + std::to_string(seed));
  }
}

TEST(SspaGridEquivalence, ScarceCapacity) {
  // gamma limited by capacity: most customers stay unassigned, so the sink
  // label stays small and pruning is at its most aggressive.
  test::InstanceSpec spec;
  spec.nq = 3;
  spec.np = 150;
  spec.k_lo = 1;
  spec.k_hi = 2;
  spec.seed = 77;
  ExpectEquivalent(test::RandomProblem(spec), "scarce");
}

TEST(SspaGridEquivalence, DegenerateGeometries) {
  // Collinear customers (zero-height grid) and coincident points.
  Problem collinear;
  collinear.providers = {Provider{{0, 0}, 2}, Provider{{100, 0}, 2}};
  for (int i = 0; i < 20; ++i) collinear.customers.push_back(Point{5.0 * i, 0.0});
  ExpectEquivalent(collinear, "collinear");

  Problem coincident;
  coincident.providers = {Provider{{10, 10}, 3}};
  for (int i = 0; i < 5; ++i) coincident.customers.push_back(Point{10, 10});
  ExpectEquivalent(coincident, "coincident");
}

// The pruning regression guard: on a mid-size uniform instance the grid
// path must relax at least 5x fewer edges than the candidates the
// reference scan has to examine.
TEST(SspaGridEquivalence, PruningActuallyPrunes) {
  test::InstanceSpec spec;
  spec.nq = 20;
  spec.np = 2000;
  spec.k_lo = 10;
  spec.k_hi = 10;
  spec.seed = 42;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult grid = RunGrid(problem);
  const SspaResult dense = RunDense(problem);
  EXPECT_NEAR(grid.matching.cost(), dense.matching.cost(), 1e-6 * dense.matching.cost());
  EXPECT_LE(grid.metrics.dijkstra_relaxes * 5, DenseExamined(dense))
      << "grid=" << grid.metrics.dijkstra_relaxes << " dense=" << DenseExamined(dense);
  EXPECT_GT(grid.metrics.relaxes_pruned, 0u);
  EXPECT_GT(grid.metrics.grid_rings_scanned, 0u);
  EXPECT_GT(grid.metrics.grid_cursor_cells, 0u);
  // The fused kernel keeps the materialised-distance count at the same
  // order as the surviving relaxes (it can sit below dijkstra_relaxes,
  // which also counts the distance-free customer-side reverse/sink
  // relaxes) — nowhere near the examined candidates.
  EXPECT_GT(grid.metrics.cells_pruned, 0u);
  EXPECT_GT(grid.metrics.distances_computed, 0u);
  EXPECT_LE(grid.metrics.distances_computed, grid.metrics.dijkstra_relaxes);
  EXPECT_LE(grid.metrics.distances_computed * 5, DenseExamined(dense))
      << "distances=" << grid.metrics.distances_computed;
}

// The reference scan's upper-bound prune (index-free run_ub trick): it must
// actually skip heap work on a capacity-scarce instance, without changing
// the optimum.
TEST(SspaGridEquivalence, DenseUpperBoundPruneActive) {
  test::InstanceSpec spec;
  spec.nq = 10;
  spec.np = 800;
  spec.k_lo = 2;
  spec.k_hi = 4;
  spec.seed = 7;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult dense = RunDense(problem);
  EXPECT_GT(dense.metrics.relaxes_pruned, 0u);
  EXPECT_LT(dense.metrics.dijkstra_relaxes, DenseExamined(dense));
  EXPECT_NEAR(dense.matching.cost(), RunGrid(problem).matching.cost(),
              1e-6 * std::max(1.0, dense.matching.cost()));
}

}  // namespace
}  // namespace cca
