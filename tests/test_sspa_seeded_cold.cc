// Seeded cold SSPA solves (src/flow/README.md, "Seeded cold solves"): a
// cold, grid-backed, unit-weight solve with ample capacity and at least two
// occupied coarse cells is seeded coarse to fine from its grid's cells and
// finished by the warm path. The seed moves only the speed: every seeded
// cost must equal the unseeded reference scan's, and the exported duals
// must pass the LP-duality certificate. Every other shape runs the plain
// path, which these tests pin by its counters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow/oracle.h"
#include "flow/sspa.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"
#include "test_util.h"

namespace cca {
namespace {

SspaResult Reference(const Problem& problem) {
  SspaConfig config;
  config.use_grid = false;
  return SolveSspa(problem, config);
}

Problem WithProviders(std::vector<Point> customers, std::size_t nq, std::int32_t k,
                      std::uint64_t seed) {
  Problem problem;
  for (const Point& pos : test::RandomPoints(nq, seed)) {
    problem.providers.push_back(Provider{pos, k});
  }
  problem.customers = std::move(customers);
  return problem;
}

// Seeded: the seed phase ran, the result is the reference's optimum, its
// duals certify it, and the phase clocks reconcile with cpu_millis.
void ExpectSeededExact(const Problem& problem, const std::string& label) {
  const SspaResult seeded = SolveSspa(problem);
  const SspaResult reference = Reference(problem);
  EXPECT_GT(seeded.metrics.seed_millis, 0.0) << label;
  EXPECT_GT(seeded.metrics.warm_units_adopted, 0u) << label;
  EXPECT_LE(seeded.metrics.warm_units_adopted, static_cast<std::uint64_t>(problem.Gamma()))
      << label;
  EXPECT_FALSE(seeded.deadline_exceeded) << label;
  EXPECT_EQ(seeded.unassigned_units, 0) << label;
  EXPECT_NEAR(seeded.matching.cost(), reference.matching.cost(),
              1e-9 * std::max(1.0, reference.matching.cost()))
      << label;
  test::ExpectCertified(problem, seeded, label);
  EXPECT_EQ(reference.metrics.seed_millis, 0.0) << label;
  const Metrics& m = seeded.metrics;
  const double phases =
      m.seed_millis + m.adopt_millis + m.augment_millis + m.cancel_millis + m.extract_millis;
  EXPECT_LE(phases, m.cpu_millis + 1e-9) << label;
}

// Plain: no seed phase, nothing adopted, one Dijkstra run per unit.
void ExpectPlain(const Problem& problem, const SspaResult& result, const std::string& label) {
  EXPECT_EQ(result.metrics.seed_millis, 0.0) << label;
  EXPECT_EQ(result.metrics.warm_units_adopted, 0u) << label;
  EXPECT_EQ(result.metrics.dijkstra_runs, static_cast<std::uint64_t>(problem.Gamma())) << label;
  test::ExpectCertified(problem, result, label);
}

TEST(SspaSeededCold, UniformMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectSeededExact(WithProviders(test::RandomPoints(800, seed * 11), 20, 50, seed),
                      "uniform seed " + std::to_string(seed));
  }
}

TEST(SspaSeededCold, ClusteredMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectSeededExact(WithProviders(test::ClusteredPoints(800, seed * 13), 20, 50, seed),
                      "clustered seed " + std::to_string(seed));
  }
}

TEST(SspaSeededCold, SkewedMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectSeededExact(WithProviders(test::SkewedPoints(800, seed * 17), 20, 50, seed),
                      "skewed seed " + std::to_string(seed));
  }
}

// The dispatch bootstrap's shape: 30 providers at k=80 over 1500 customers.
TEST(SspaSeededCold, DispatchBootstrapShape) {
  ExpectSeededExact(WithProviders(test::RandomPoints(1500, 5), 30, 80, 6), "30x1500 k80");
}

// Total capacity exactly equal to the demand: still ample, so seeded, and
// every provider ends full.
TEST(SspaSeededCold, CapacityEqualToDemand) {
  const Problem problem = WithProviders(test::RandomPoints(800, 21), 20, 40, 22);
  ASSERT_EQ(problem.TotalCapacity(), problem.TotalWeight());
  ExpectSeededExact(problem, "capacity == demand");
}

// Duplicate customers (five copies of each site) and co-located
// providers: ties everywhere, in the centroids, the seed gains and the
// reduced costs.
TEST(SspaSeededCold, DuplicatePoints) {
  std::vector<Point> customers;
  for (const Point& pos : test::RandomPoints(160, 31)) {
    for (int copy = 0; copy < 5; ++copy) customers.push_back(pos);
  }
  Problem problem = WithProviders(customers, 20, 50, 32);
  for (std::size_t q = 1; q < problem.providers.size(); q += 2) {
    problem.providers[q].pos = problem.providers[q - 1].pos;
  }
  ExpectSeededExact(problem, "duplicates");
}

// The seed levels come from a lent grid as well as from a private one.
TEST(SspaSeededCold, LentGridIsSeeded) {
  const Problem problem = WithProviders(test::ClusteredPoints(800, 41), 20, 50, 42);
  const HierarchicalGrid grid(problem.customers);
  SspaConfig config;
  config.shared_index.grid = &grid;
  const SspaResult lent = SolveSspa(problem, config);
  const SspaResult own = SolveSspa(problem);
  EXPECT_GT(lent.metrics.seed_millis, 0.0);
  EXPECT_EQ(lent.matching.cost(), own.matching.cost());
  EXPECT_EQ(lent.metrics.dijkstra_pops, own.metrics.dijkstra_pops);
  EXPECT_EQ(lent.metrics.distances_computed, own.metrics.distances_computed);
  test::ExpectCertified(problem, lent);
}

// The levels' work counters are charged to the result. A second solve
// over walks the first one grew replays them without growing them, so what
// it reports built is exactly its levels' own walks: the first solve's
// count less what its lent walks grew.
TEST(SspaSeededCold, ChargesTheLevelsWalkCells) {
  const Problem problem = WithProviders(test::RandomPoints(800, 101), 20, 50, 102);
  const HierarchicalGrid grid(problem.customers);
  std::vector<HierRingWalk> walks;
  for (const Provider& q : problem.providers) walks.emplace_back(grid.layout(), q.pos);
  const auto lent_cells = [&walks] {
    std::uint64_t cells = 0;
    for (const HierRingWalk& walk : walks) cells += walk.entries() + walk.fines_built();
    return cells;
  };
  SspaConfig config;
  config.shared_index = SspaSharedIndex{&grid, &walks};
  const SspaResult first = SolveSspa(problem, config);
  const std::uint64_t grown = lent_cells();
  const SspaResult second = SolveSspa(problem, config);
  EXPECT_GT(first.metrics.seed_millis, 0.0);
  EXPECT_EQ(lent_cells(), grown);
  EXPECT_GT(second.metrics.walk_cells_built, 0u);
  EXPECT_EQ(second.metrics.walk_cells_built, first.metrics.walk_cells_built - grown);
  EXPECT_EQ(second.metrics.dijkstra_pops, first.metrics.dijkstra_pops);
}

// Same-input seeded solves are deterministic, counters included.
TEST(SspaSeededCold, Deterministic) {
  const Problem problem = WithProviders(test::SkewedPoints(800, 51), 20, 50, 52);
  const SspaResult a = SolveSspa(problem);
  const SspaResult b = SolveSspa(problem);
  EXPECT_EQ(a.matching.cost(), b.matching.cost());
  EXPECT_EQ(a.metrics.dijkstra_runs, b.metrics.dijkstra_runs);
  EXPECT_EQ(a.metrics.dijkstra_pops, b.metrics.dijkstra_pops);
  EXPECT_EQ(a.metrics.dijkstra_relaxes, b.metrics.dijkstra_relaxes);
  EXPECT_EQ(a.metrics.distances_computed, b.metrics.distances_computed);
  EXPECT_EQ(a.metrics.warm_units_adopted, b.metrics.warm_units_adopted);
}

// Every customer in one coarse cell: nothing to seed from, the plain path.
// 62 customers in a square bounding box lay out as one coarse cell.
TEST(SspaSeededCold, OneCoarseCellTakesThePlainPath) {
  std::vector<Point> customers = test::RandomPoints(60, 61);
  customers.push_back(Point{0.0, 0.0});
  customers.push_back(Point{1000.0, 1000.0});
  const Problem problem = WithProviders(customers, 10, 10, 62);
  ASSERT_EQ(HierarchicalGrid(problem.customers).nonempty_coarse().size(), 1u);
  const SspaResult result = SolveSspa(problem);
  ExpectPlain(problem, result, "one coarse cell");
  EXPECT_NEAR(result.matching.cost(), Reference(problem).matching.cost(),
              1e-9 * std::max(1.0, result.matching.cost()));
}

// Capacity below demand: the plain partial solve.
TEST(SspaSeededCold, CapacityLimitedTakesThePlainPath) {
  const Problem problem = WithProviders(test::RandomPoints(800, 71), 20, 30, 72);
  ASSERT_LT(problem.TotalCapacity(), problem.TotalWeight());
  const SspaResult result = SolveSspa(problem);
  ExpectPlain(problem, result, "capacity-limited");
  EXPECT_EQ(result.unassigned_units, problem.TotalWeight() - problem.TotalCapacity());
}

// Weighted customers (the concise instances of paper Section 4 are such
// solves): the plain path even with ample capacity. Unit capacities keep
// every augmentation at one unit, so the plain path makes gamma runs.
TEST(SspaSeededCold, WeightedTakesThePlainPath) {
  Problem problem = WithProviders(test::RandomPoints(100, 81), 300, 1, 82);
  Rng rng(83);
  for (std::size_t p = 0; p < problem.customers.size(); ++p) {
    problem.weights.push_back(static_cast<std::int32_t>(rng.UniformInt(1, 3)));
  }
  ASSERT_GE(problem.TotalCapacity(), problem.TotalWeight());
  const SspaResult result = SolveSspa(problem);
  ExpectPlain(problem, result, "weighted");
  EXPECT_EQ(result.unassigned_units, 0);
}

// A deadline that fires inside a seed level: a clean breach with no flow
// and every customer in the unassigned ledger.
TEST(SspaSeededCold, DeadlineInsideASeedLevel) {
  const Problem problem = WithProviders(test::RandomPoints(800, 91), 20, 50, 92);
  SspaConfig config;
  config.deadline_ms = 1e-6;
  const SspaResult result = SolveSspa(problem, config);
  EXPECT_TRUE(result.deadline_exceeded);
  EXPECT_GT(result.metrics.seed_millis, 0.0);
  EXPECT_GE(result.metrics.cpu_millis, result.metrics.seed_millis);
  EXPECT_EQ(result.metrics.warm_units_adopted, 0u);
  EXPECT_TRUE(result.matching.pairs.empty());
  EXPECT_EQ(result.unassigned_units, problem.TotalWeight());
  ASSERT_EQ(result.unassigned.size(), problem.customers.size());
  for (std::size_t p = 0; p < result.unassigned.size(); ++p) {
    EXPECT_EQ(result.unassigned[p].customer, static_cast<std::int32_t>(p));
    EXPECT_EQ(result.unassigned[p].units, 1);
  }
  EXPECT_EQ(result.potentials.tau_q.size(), problem.providers.size());
  EXPECT_EQ(result.potentials.tau_p.size(), problem.customers.size());
}

}  // namespace
}  // namespace cca
