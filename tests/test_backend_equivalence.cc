// Cross-backend equivalence for the discovery layer: RIA/NIA/IDA must
// produce cost-identical matchings whether candidates come from the R-tree
// (the grouped-ANN traversal) or from grid ring cursors, across uniform,
// clustered and skewed instances, unit and weighted; kGridBatched must
// return kGrid's matching pair for pair. Plus the node-access
// regression guard: at |P|=10k memory-resident, the grid backend must do
// >= 5x less index work than the grouped R-tree traversal. Plus the kAuto
// pin: auto is the grouped ANN traversal at every provider count (a lone
// provider is a group of one), ledger for ledger.
#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/matching.h"
#include "test_util.h"

namespace cca {
namespace {

ExactConfig BackendConfig(DiscoveryBackend backend) {
  ExactConfig config;
  config.discovery_backend = backend;
  return config;
}

void ExpectCostEqual(const Problem& problem, const ExactResult& a, const ExactResult& b,
                     const std::string& label) {
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, a.matching, &error)) << label << ": " << error;
  EXPECT_TRUE(ValidateMatching(problem, b.matching, &error)) << label << ": " << error;
  EXPECT_EQ(a.matching.size(), b.matching.size()) << label;
  EXPECT_NEAR(a.matching.cost(), b.matching.cost(),
              1e-6 * std::max(1.0, a.matching.cost()))
      << label;
}

void ExpectBackendsEquivalent(const Problem& problem, const std::string& label) {
  auto db = test::MakeDb(problem);
  const ExactConfig rtree = BackendConfig(DiscoveryBackend::kAuto);  // grouped ANN
  const ExactConfig grid = BackendConfig(DiscoveryBackend::kGrid);
  const ExactConfig batched = BackendConfig(DiscoveryBackend::kGridBatched);

  const ExactResult ida_rtree = SolveIda(problem, db.get(), rtree);
  const ExactResult ida_grid = SolveIda(problem, db.get(), grid);
  const ExactResult ida_batched = SolveIda(problem, db.get(), batched);
  ExpectCostEqual(problem, ida_rtree, ida_grid, label + " ida");
  ExpectCostEqual(problem, ida_rtree, ida_batched, label + " ida batched");
  // The grid backends read the memory-resident point array only.
  EXPECT_EQ(ida_grid.metrics.node_accesses, 0u) << label;
  EXPECT_GT(ida_grid.metrics.grid_cursor_cells, 0u) << label;
  EXPECT_EQ(ida_grid.metrics.index_node_accesses, ida_grid.metrics.grid_cursor_cells) << label;
  EXPECT_EQ(ida_batched.metrics.node_accesses, 0u) << label;
  EXPECT_EQ(ida_batched.metrics.grid_cursor_cells,
            ida_batched.metrics.shared_frontier_cell_fetches)
      << label;
  EXPECT_LE(ida_batched.metrics.grid_cursor_cells, ida_grid.metrics.grid_cursor_cells) << label;

  const ExactResult nia_rtree = SolveNia(problem, db.get(), rtree);
  const ExactResult nia_grid = SolveNia(problem, db.get(), grid);
  const ExactResult nia_batched = SolveNia(problem, db.get(), batched);
  ExpectCostEqual(problem, nia_rtree, nia_grid, label + " nia");
  ExpectCostEqual(problem, nia_rtree, nia_batched, label + " nia batched");

  const ExactResult ria_rtree = SolveRia(problem, db.get(), rtree);
  const ExactResult ria_grid = SolveRia(problem, db.get(), grid);
  const ExactResult ria_batched = SolveRia(problem, db.get(), batched);
  ExpectCostEqual(problem, ria_rtree, ria_grid, label + " ria");
  ExpectCostEqual(problem, ria_rtree, ria_batched, label + " ria batched");
  EXPECT_EQ(ria_grid.metrics.node_accesses, 0u) << label;
  // All backends issue one (annular) range search per provider per batch.
  EXPECT_EQ(ria_rtree.metrics.range_searches, ria_grid.metrics.range_searches) << label;
  EXPECT_EQ(ria_rtree.metrics.range_searches, ria_batched.metrics.range_searches) << label;
}

TEST(BackendEquivalence, UniformUnit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6 + seed;
    spec.np = 80 + 20 * seed;
    spec.k_lo = 1;
    spec.k_hi = 4;
    spec.seed = seed;
    ExpectBackendsEquivalent(test::RandomProblem(spec), "uniform seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, ClusteredUnit) {
  for (std::uint64_t seed = 10; seed <= 12; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 8;
    spec.np = 150;
    spec.k_lo = 2;
    spec.k_hi = 8;
    spec.clustered_q = true;
    spec.clustered_p = true;
    spec.seed = seed;
    ExpectBackendsEquivalent(test::RandomProblem(spec), "clustered seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, SkewedUnit) {
  for (std::uint64_t seed = 20; seed <= 22; ++seed) {
    Problem problem;
    Rng rng(seed * 5 + 2);
    for (const auto& pos : test::SkewedPoints(7, seed * 3 + 1)) {
      problem.providers.push_back(
          Provider{pos, static_cast<std::int32_t>(rng.UniformInt(1, 5))});
    }
    problem.customers = test::SkewedPoints(110, seed * 7 + 3);
    ExpectBackendsEquivalent(problem, "skewed seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, WeightedCustomers) {
  for (std::uint64_t seed = 30; seed <= 32; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 60;
    spec.k_lo = 3;
    spec.k_hi = 10;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
    ExpectBackendsEquivalent(problem, "weighted seed " + std::to_string(seed));
  }
}

TEST(BackendEquivalence, GroupedBackendAndGreedyStillWork) {
  test::InstanceSpec spec;
  spec.nq = 6;
  spec.np = 90;
  spec.seed = 55;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  const ExactResult grouped =
      SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreeGrouped));
  const ExactResult grid = SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid));
  ExpectCostEqual(problem, grouped, grid, "grouped vs grid");
  const double g1 =
      SolveGreedySm(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreeGrouped))
          .matching.cost();
  const double g2 =
      SolveGreedySm(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid)).matching.cost();
  EXPECT_NEAR(g1, g2, 1e-9);
}

TEST(BackendEquivalence, AutoIsGroupedAtEveryProviderCount) {
  for (const std::size_t nq : {std::size_t{1}, std::size_t{6}}) {
    test::InstanceSpec spec;
    spec.nq = nq;
    spec.np = 300;
    spec.k_lo = 4;
    spec.k_hi = 12;
    spec.seed = 70 + nq;
    const Problem problem = test::RandomProblem(spec);
    auto db = test::MakeDb(problem);
    db->CoolDown();
    const ExactResult automatic =
        SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kAuto));
    db->CoolDown();
    const ExactResult pinned =
        SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreeGrouped));
    const std::string label = "nq=" + std::to_string(nq);
    EXPECT_EQ(automatic.matching.cost(), pinned.matching.cost()) << label;
    EXPECT_EQ(automatic.metrics.node_accesses, pinned.metrics.node_accesses) << label;
    EXPECT_EQ(automatic.metrics.edges_inserted, pinned.metrics.edges_inserted) << label;
    EXPECT_GT(automatic.metrics.node_accesses, 0u) << label;
  }
}

// kGridBatched only adds a per-group fetch ledger to kGrid's cursors, so
// every batched stream is the kGrid stream: the solvers take identical
// steps and return identical pairs, not merely equal costs, and the
// batched deliveries are exactly kGrid's cell reads.
TEST(BackendEquivalence, BatchedGridMatchesGridPairForPair) {
  test::InstanceSpec spec;
  spec.nq = 40;
  spec.np = 2000;
  spec.k_lo = 10;
  spec.k_hi = 40;
  spec.clustered_q = true;
  spec.clustered_p = true;
  spec.seed = 91;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  const ExactConfig grid = BackendConfig(DiscoveryBackend::kGrid);
  const ExactConfig batched = BackendConfig(DiscoveryBackend::kGridBatched);
  const auto expect_same = [](const ExactResult& g, const ExactResult& b, const char* label) {
    ASSERT_EQ(g.matching.pairs.size(), b.matching.pairs.size()) << label;
    for (std::size_t i = 0; i < g.matching.pairs.size(); ++i) {
      const MatchPair& x = g.matching.pairs[i];
      const MatchPair& y = b.matching.pairs[i];
      ASSERT_EQ(x.provider, y.provider) << label << " pair " << i;
      ASSERT_EQ(x.customer, y.customer) << label << " pair " << i;
      ASSERT_EQ(x.units, y.units) << label << " pair " << i;
      ASSERT_EQ(x.distance, y.distance) << label << " pair " << i;
    }
    EXPECT_EQ(g.metrics.edges_inserted, b.metrics.edges_inserted) << label;
    EXPECT_EQ(g.metrics.nn_searches, b.metrics.nn_searches) << label;
    EXPECT_EQ(g.metrics.dijkstra_runs, b.metrics.dijkstra_runs) << label;
    EXPECT_EQ(b.metrics.shared_frontier_fanout, g.metrics.grid_cursor_cells) << label;
    EXPECT_EQ(b.metrics.shared_frontier_cell_fetches, b.metrics.grid_cursor_cells) << label;
    // Two Hilbert groups or more, clustered: the ledger shares fetches.
    EXPECT_LT(b.metrics.shared_frontier_cell_fetches, g.metrics.grid_cursor_cells) << label;
  };
  expect_same(SolveIda(problem, db.get(), grid), SolveIda(problem, db.get(), batched), "ida");
  expect_same(SolveNia(problem, db.get(), grid), SolveNia(problem, db.get(), batched), "nia");
  expect_same(SolveRia(problem, db.get(), grid), SolveRia(problem, db.get(), batched), "ria");
}

// The acceptance-bar regression guard: grid-backed IDA at |P|=10k
// (memory-resident customers) must do >= 5x fewer index accesses (grid
// cells fetched) than the grouped R-tree traversal's node reads, with
// identical cost.
TEST(BackendEquivalence, GridCutsIndexAccessesAtTenThousandCustomers) {
  test::InstanceSpec spec;
  spec.nq = 100;
  spec.np = 10000;
  spec.k_lo = 10;
  spec.k_hi = 10;
  spec.seed = 123;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);  // buffer covers the whole tree

  const ExactResult rtree =
      SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kRTreeGrouped));
  const ExactResult grid = SolveIda(problem, db.get(), BackendConfig(DiscoveryBackend::kGrid));
  ExpectCostEqual(problem, rtree, grid, "10k regression");
  EXPECT_GT(rtree.metrics.index_node_accesses, 0u);
  EXPECT_GT(grid.metrics.index_node_accesses, 0u);
  EXPECT_LE(grid.metrics.index_node_accesses * 5, rtree.metrics.index_node_accesses)
      << "grid cells=" << grid.metrics.index_node_accesses
      << " rtree nodes=" << rtree.metrics.index_node_accesses;
}

}  // namespace
}  // namespace cca
