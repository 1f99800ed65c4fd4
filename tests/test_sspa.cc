// SSPA baseline tests: paper worked example, optimality against the
// Hungarian solver and the duality certificate, weighted customers, metric
// sanity, one solve's exact work counters, warm starts under churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

#include "common/rng.h"
#include "core/matching.h"
#include "flow/hungarian.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "gen/generator.h"
#include "geo/point.h"
#include "test_util.h"

namespace cca {
namespace {

TEST(SspaTest, PaperFigure2Example) {
  // Collinear embedding of the paper's Figure 2: q1.k=1, q2.k=2,
  // d(q1,p1)=4, d(q1,p2)=3, d(q2,p2)=7. The greedy first path (q1,p2) must
  // be rerouted by the second augmentation, as in the paper's walk-through.
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  const SspaResult result = SolveSspa(problem);
  // gamma = min(2, 3) = 2 augmenting iterations; optimal matching is
  // (q1,p1) + (q2,p2) with cost 11 (paper Section 2.2 walk-through).
  EXPECT_EQ(result.matching.size(), 2);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 11.0);
  EXPECT_EQ(result.conceptual_edges, 4u);
  test::ExpectCertified(problem, result);
  bool q1_p1 = false, q2_p2 = false;
  for (const auto& pair : result.matching.pairs) {
    if (pair.provider == 0 && pair.customer == 0) q1_p1 = true;
    if (pair.provider == 1 && pair.customer == 1) q2_p2 = true;
  }
  EXPECT_TRUE(q1_p1);
  EXPECT_TRUE(q2_p2);
}

TEST(SspaTest, SecondPathReroutesThroughResidualEdge) {
  // Instance where the optimal solution requires undoing a greedy choice:
  // p0 sits between q0 and q1; q0 must give p0 up.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{100, 0}, 1}};
  problem.customers = {Point{45, 0}, Point{10, 0}};
  // Greedy by closest pair: (q0,p1)=10 then (q1,p0)=55: total 65.
  // Optimal: (q0,p1)=10, (q1,p0)=55 -> same here. Make it interesting:
  problem.customers = {Point{45, 0}, Point{55, 0}};
  // Greedy: (q0,p0)=45, then (q1,p1)=45: total 90. Also optimal... choose
  // an asymmetric instance instead:
  problem.providers = {Provider{{0, 0}, 1}, Provider{{60, 0}, 1}};
  problem.customers = {Point{20, 0}, Point{30, 0}};
  // Options: q0-p0 + q1-p1 = 20 + 30 = 50; q0-p1 + q1-p0 = 30 + 40 = 70.
  const SspaResult result = SolveSspa(problem);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 50.0);
  test::ExpectCertified(problem, result);
}

struct SspaCase {
  std::size_t nq;
  std::size_t np;
  std::int32_t k_lo;
  std::int32_t k_hi;
  std::uint64_t seed;
};

class SspaRandomTest : public ::testing::TestWithParam<SspaCase> {};

TEST_P(SspaRandomTest, OptimalAndValid) {
  const auto& c = GetParam();
  test::InstanceSpec spec;
  spec.nq = c.nq;
  spec.np = c.np;
  spec.k_lo = c.k_lo;
  spec.k_hi = c.k_hi;
  spec.seed = c.seed;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult result = SolveSspa(problem);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
  test::ExpectCertified(problem, result);
  // Cross-check the cost against the independent Hungarian solver.
  EXPECT_NEAR(result.matching.cost(), SolveHungarian(problem).matching.cost(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, SspaRandomTest,
    ::testing::Values(SspaCase{2, 10, 1, 2, 1},     // scarce capacity
                      SspaCase{4, 20, 10, 10, 2},   // abundant capacity
                      SspaCase{5, 25, 5, 5, 3},     // sum k == |P|
                      SspaCase{3, 30, 1, 6, 4},     // mixed
                      SspaCase{8, 40, 2, 8, 5},     //
                      SspaCase{1, 15, 7, 7, 6},     // single provider
                      SspaCase{10, 10, 1, 1, 7},    // perfect matching
                      SspaCase{6, 18, 2, 4, 8}));

TEST(SspaTest, WeightedCustomersMatchOracle) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 4;
    spec.np = 8;
    spec.k_lo = 2;
    spec.k_hi = 8;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
    const SspaResult result = SolveSspa(problem);
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
    test::ExpectCertified(problem, result, "seed " + std::to_string(seed));
    const Matching oracle = SolveHungarian(test::UnitExpanded(problem)).matching;
    EXPECT_NEAR(result.matching.cost(), oracle.cost(), 1e-6) << "seed " << seed;
  }
}

TEST(SspaTest, ZeroCapacityProvidersIgnored) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 0}, Provider{{100, 0}, 2}};
  problem.customers = {Point{1, 0}, Point{2, 0}};
  const SspaResult result = SolveSspa(problem);
  EXPECT_EQ(result.matching.size(), 2);
  for (const auto& pair : result.matching.pairs) EXPECT_EQ(pair.provider, 1);
  test::ExpectCertified(problem, result);
}

TEST(SspaTest, EmptyCustomerSet) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 3}};
  const SspaResult result = SolveSspa(problem);
  EXPECT_EQ(result.matching.size(), 0);
  test::ExpectCertified(problem, result);
}

TEST(SspaTest, MetricsPopulated) {
  test::InstanceSpec spec;
  spec.nq = 4;
  spec.np = 40;
  spec.seed = 9;
  const Problem problem = test::RandomProblem(spec);
  const SspaResult result = SolveSspa(problem);
  EXPECT_EQ(result.conceptual_edges, 4u * 40u);
  EXPECT_GT(result.metrics.dijkstra_runs, 0u);
  EXPECT_EQ(result.metrics.augmentations, result.metrics.dijkstra_runs);
  EXPECT_GE(result.metrics.dijkstra_pops, result.metrics.dijkstra_runs);
  test::ExpectCertified(problem, result);
}

// Pins one solve's traversal exactly: the 10x200 uniform row of
// bench_micro_flow (same instance recipe as MakeBenchProblem there) must
// reproduce BENCH_sspa.json's cost and work counters to the unit. The CI
// bench diff allows 10% slack; a change to the ring walk, the bounds or
// their evaluation order that drifts even one pop fails here.
TEST(SspaTest, PinsBenchMicroFlowCounters) {
  const RoadNetwork net = DefaultNetwork(99);
  DatasetSpec q_spec;
  q_spec.count = 10;
  q_spec.seed = 5;
  q_spec.distribution = PointDistribution::kUniform;
  DatasetSpec p_spec;
  p_spec.count = 200;
  p_spec.seed = 6;
  p_spec.distribution = PointDistribution::kUniform;
  const Problem problem = MakeProblem(net, q_spec, p_spec, FixedCapacities(10, 10));
  const SspaResult result = SolveSspa(problem);
  const Metrics& m = result.metrics;
  EXPECT_NEAR(result.matching.cost(), 13153.740, 5e-4);
  EXPECT_EQ(m.augmentations, 100u);
  EXPECT_EQ(m.dijkstra_pops, 2419u);
  EXPECT_EQ(m.dijkstra_relaxes, 3903u);
  EXPECT_EQ(m.relaxes_pruned, 161281u);
  EXPECT_EQ(m.distances_computed, 2419u);
  EXPECT_EQ(m.grid_rings_scanned, 1259u);
  EXPECT_EQ(m.grid_cursor_cells, 5110u);
  EXPECT_EQ(m.coarse_cells_descended, 1401u);
  EXPECT_EQ(m.coarse_tails_pruned, 0u);
  EXPECT_EQ(m.cells_pruned, 14400u);
  EXPECT_EQ(m.hier_splits, 4u);
  test::ExpectCertified(problem, result);
}

// Successive shortest path costs are non-decreasing, so the matching cost
// must be convex in gamma: solving prefixes cannot cost more per unit.
TEST(SspaTest, CostMonotoneInCapacity) {
  test::InstanceSpec spec;
  spec.nq = 3;
  spec.np = 30;
  spec.k_lo = 2;
  spec.k_hi = 2;
  spec.seed = 11;
  Problem problem = test::RandomProblem(spec);
  const SspaResult small = SolveSspa(problem);
  test::ExpectCertified(problem, small, "k=2");
  for (auto& q : problem.providers) q.capacity = 4;
  const SspaResult large = SolveSspa(problem);
  test::ExpectCertified(problem, large, "k=4");
  const double cost_small = small.matching.cost();
  const double cost_large = large.matching.cost();
  // More capacity => larger gamma => strictly more assigned pairs => cost
  // can only grow (every pair has non-negative distance).
  EXPECT_GE(cost_large, cost_small - 1e-9);
}

// Zero duals and no flow: the trivial warm start of `problem`.
SspaWarmStart ZeroWarmStart(const Problem& problem) {
  SspaWarmStart warm;
  warm.potentials.tau_q.assign(problem.providers.size(), 0.0);
  warm.potentials.tau_p.assign(problem.customers.size(), 0.0);
  return warm;
}

// The unassigned ledger is the matching's exact per-customer complement
// and sums to total weight - total capacity.
void ExpectExactLedger(const Problem& problem, const SspaResult& res, const std::string& label) {
  const std::int64_t overflow = problem.TotalWeight() - problem.TotalCapacity();
  EXPECT_EQ(res.unassigned_units, overflow) << label;
  const auto loads = res.matching.CustomerLoads(problem.customers.size());
  std::int64_t ledger_sum = 0;
  for (const UnassignedUnit& u : res.unassigned) {
    EXPECT_GT(u.units, 0) << label;
    EXPECT_EQ(loads[static_cast<std::size_t>(u.customer)] + u.units,
              problem.weight(static_cast<std::size_t>(u.customer)))
        << label << " customer " << u.customer;
    ledger_sum += u.units;
  }
  EXPECT_EQ(ledger_sum, overflow) << label;
}

// A warm solve derives the virtual overflow provider on an infeasible
// instance; a cold one never does. Both reach the same partial optimum and
// the same exact ledger, but only the warm solve augments the overflow
// units (to the virtual slot), one per Dijkstra run on unit customers.
TEST(SspaWarmStartTest, OverflowProviderExactlyWhenWarmAndInfeasible) {
  test::InstanceSpec spec;
  spec.nq = 5;
  spec.np = 60;
  spec.k_lo = 3;
  spec.k_hi = 6;
  spec.seed = 31;
  const Problem problem = test::RandomProblem(spec);
  ASSERT_LT(problem.TotalCapacity(), problem.TotalWeight());
  const SspaWarmStart zero = ZeroWarmStart(problem);
  for (const bool use_grid : {true, false}) {
    const std::string label = use_grid ? "grid" : "reference";
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    const SspaResult cold = SolveSspa(problem, cfg);
    cfg.warm = &zero;
    const SspaResult warm = SolveSspa(problem, cfg);
    EXPECT_EQ(cold.metrics.augmentations, static_cast<std::uint64_t>(problem.TotalCapacity()))
        << label;
    EXPECT_EQ(warm.metrics.augmentations, static_cast<std::uint64_t>(problem.TotalWeight()))
        << label;
    EXPECT_EQ(warm.metrics.warm_units_adopted, 0u) << label;
    EXPECT_NEAR(warm.matching.cost(), cold.matching.cost(),
                1e-9 * std::max(1.0, cold.matching.cost()))
        << label;
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, cold.matching, &error)) << label << ": " << error;
    EXPECT_TRUE(ValidateMatching(problem, warm.matching, &error)) << label << ": " << error;
    ExpectExactLedger(problem, cold, label + " cold");
    ExpectExactLedger(problem, warm, label + " warm");
    test::ExpectCertified(problem, cold, label + " cold");
    test::ExpectCertified(problem, warm, label + " warm");
  }
}

// Warm-starting from a solve's own exported duals and matching on the
// unchanged instance keeps the cost and re-adopts flow instead of
// re-augmenting it.
TEST(SspaWarmStartTest, SelfWarmStartAdoptsFlowAndKeepsCost) {
  for (const std::int32_t k : {4, 12}) {  // infeasible (20 < 48), then ample
    test::InstanceSpec spec;
    spec.nq = 5;
    spec.np = 48;
    spec.k_lo = k;
    spec.k_hi = k;
    spec.seed = 37;
    const Problem problem = test::RandomProblem(spec);
    for (const bool use_grid : {true, false}) {
      const std::string label = "k=" + std::to_string(k) + (use_grid ? " grid" : " reference");
      SspaConfig cfg;
      cfg.use_grid = use_grid;
      const SspaResult cold = SolveSspa(problem, cfg);
      SspaWarmStart self;
      self.potentials = cold.potentials;
      self.matching = cold.matching;
      cfg.warm = &self;
      const SspaResult warm = SolveSspa(problem, cfg);
      EXPECT_NEAR(warm.matching.cost(), cold.matching.cost(),
                  1e-9 * std::max(1.0, cold.matching.cost()))
          << label;
      EXPECT_GT(warm.metrics.warm_units_adopted, 0u) << label;
      EXPECT_LT(warm.metrics.augmentations, static_cast<std::uint64_t>(problem.TotalWeight()))
          << label;
      EXPECT_EQ(warm.unassigned_units, cold.unassigned_units) << label;
      test::ExpectCertified(problem, cold, label + " cold");
      test::ExpectCertified(problem, warm, label + " warm");
    }
  }
}

// The warm start a caller hands the solver after customer `gone` departs:
// the solve's duals and matching, re-indexed past the departed customer.
SspaWarmStart AfterCustomerDeparture(const SspaResult& solved, std::size_t gone) {
  SspaWarmStart warm;
  warm.potentials = solved.potentials;
  warm.potentials.tau_p.erase(warm.potentials.tau_p.begin() + static_cast<std::ptrdiff_t>(gone));
  const auto gone_index = static_cast<std::int32_t>(gone);
  for (const MatchPair& pair : solved.matching.pairs) {
    if (pair.customer == gone_index) continue;
    warm.matching.Add(pair.provider, pair.customer - (pair.customer > gone_index ? 1 : 0),
                      pair.units, 0.0);
  }
  return warm;
}

Problem WithoutCustomer(Problem problem, std::size_t gone) {
  problem.customers.erase(problem.customers.begin() + static_cast<std::ptrdiff_t>(gone));
  return problem;
}

// Solves `problem` warm and cold, checks that they agree and that each is
// certified by its own duals, and returns the warm result.
SspaResult ExpectWarmEqualsCold(const Problem& problem, const SspaWarmStart& warm_start,
                                bool use_grid, const std::string& label) {
  SspaConfig cfg;
  cfg.use_grid = use_grid;
  const SspaResult cold = SolveSspa(problem, cfg);
  cfg.warm = &warm_start;
  SspaResult warm = SolveSspa(problem, cfg);
  EXPECT_NEAR(warm.matching.cost(), cold.matching.cost(),
              1e-9 * std::max(1.0, cold.matching.cost()))
      << label;
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, warm.matching, &error)) << label << ": " << error;
  EXPECT_EQ(warm.unassigned_units, cold.unassigned_units) << label;
  test::ExpectCertified(problem, cold, label + " cold");
  test::ExpectCertified(problem, warm, label + " warm");
  return warm;
}

// A departure frees a slot at the full provider q0. No customer is closer
// to q0 than to its own server, so no one-hop exchange pays; but moving p1
// to q0 lets q1 take p2 from q2, and the two-hop source cycle
// s -> q0 -> p1 -> q1 -> p2 -> q2 -> s costs (6 - 4) + (3 - 7) = -2.
TEST(SspaWarmStartTest, TwoHopSourceCycleAfterDeparture) {
  Problem before;
  before.providers = {Provider{Point{0.0, 0.0}, 1}, Provider{Point{10.0, 0.0}, 1},
                      Provider{Point{20.0, 0.0}, 1}};
  // p0 (departs) sits on q0; p1 and p2 sit between the providers.
  before.customers = {Point{0.0, 0.0}, Point{6.0, 0.0}, Point{13.0, 0.0}};
  const Problem after = WithoutCustomer(before, 0);
  for (const bool use_grid : {true, false}) {
    const std::string label = use_grid ? "grid" : "reference";
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    const SspaResult solved = SolveSspa(before, cfg);
    ASSERT_NEAR(solved.matching.cost(), 11.0, 1e-9) << label;
    test::ExpectCertified(before, solved, label);
    const SspaWarmStart warm_start = AfterCustomerDeparture(solved, 0);
    for (const MatchPair& pair : warm_start.matching.pairs) {
      const Point& pos = after.customers[static_cast<std::size_t>(pair.customer)];
      EXPECT_GE(Distance(after.providers[0].pos, pos),
                Distance(after.providers[static_cast<std::size_t>(pair.provider)].pos, pos))
          << label << ": q0 undercuts customer " << pair.customer;
    }
    const SspaResult warm = ExpectWarmEqualsCold(after, warm_start, use_grid, label);
    EXPECT_NEAR(warm.matching.cost(), BruteForceOptimal(after).cost(), 1e-9) << label;
    EXPECT_NEAR(warm.matching.cost(), 9.0, 1e-9) << label;
    EXPECT_EQ(warm.metrics.warm_units_adopted, 2u) << label;
    EXPECT_EQ(warm.metrics.augmentations, 1u) << label;  // the one cancelled cycle
  }
}

test::InstanceSpec ClusteredDispatchSpec() {
  test::InstanceSpec spec;
  spec.nq = 30;
  spec.np = 1500;
  spec.k_lo = 80;
  spec.k_hi = 80;
  spec.clustered_p = true;
  spec.seed = 17;
  return spec;
}

// One departure at a full provider of a solved clustered dispatch-shaped
// instance: every surviving unit is adopted and only the few source cycles
// the freed slot opens are cancelled, instead of re-augmenting every
// customer a full provider holds against geometry. With no deficit there
// is no deficit run to meet them, so the certificate pass after the
// deficit loop must find every one: each augmentation is such a cycle.
TEST(SspaWarmStartTest, DepartureAtFullProviderCancelsFewCycles) {
  const Problem before = test::RandomProblem(ClusteredDispatchSpec());
  ASSERT_GE(before.TotalCapacity(), before.TotalWeight());
  for (const bool use_grid : {true, false}) {
    const std::string label = use_grid ? "grid" : "reference";
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    const SspaResult solved = SolveSspa(before, cfg);
    test::ExpectCertified(before, solved, label);
    const auto loads = solved.matching.ProviderLoads(before.providers.size());
    std::size_t gone = before.customers.size();
    for (const MatchPair& pair : solved.matching.pairs) {
      const auto q = static_cast<std::size_t>(pair.provider);
      if (loads[q] == before.providers[q].capacity) {
        gone = static_cast<std::size_t>(pair.customer);
        break;
      }
    }
    ASSERT_LT(gone, before.customers.size()) << label << ": no full provider";
    const Problem after = WithoutCustomer(before, gone);
    const SspaResult warm =
        ExpectWarmEqualsCold(after, AfterCustomerDeparture(solved, gone), use_grid, label);
    EXPECT_EQ(warm.metrics.warm_units_adopted, 1499u) << label;
    EXPECT_LE(warm.metrics.augmentations, 10u) << label;
    EXPECT_GT(warm.metrics.source_cycles_cancelled, 0u) << label;
    EXPECT_EQ(warm.metrics.source_cycles_cancelled, warm.metrics.augmentations) << label;
  }
}

// A provider arrival on the same instance, its dual seeded at the largest
// feasible value, min_p(dist + tau_p), or left at +infinity for the clamp
// pass to derive (how AssignmentEngine seeds one). Either way the warm
// solve matches cold and exports duals that certify it.
TEST(SspaWarmStartTest, ProviderArrivalMatchesCold) {
  const Problem before = test::RandomProblem(ClusteredDispatchSpec());
  for (const bool use_grid : {true, false}) {
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    const SspaResult solved = SolveSspa(before, cfg);
    test::ExpectCertified(before, solved, use_grid ? "grid" : "reference");
    Problem after = before;
    // Arrive on a customer, i.e. inside the densest demand.
    const Point pos = before.customers[0];
    after.providers.push_back(Provider{pos, 80});
    double seed = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < after.customers.size(); ++p) {
      seed = std::min(seed, Distance(pos, after.customers[p]) + solved.potentials.tau_p[p]);
    }
    for (const bool derive : {false, true}) {
      const std::string label =
          std::string(use_grid ? "grid" : "reference") + (derive ? " derived" : " seeded");
      SspaWarmStart warm_start;
      warm_start.potentials = solved.potentials;
      warm_start.matching = solved.matching;
      warm_start.potentials.tau_q.push_back(derive ? std::numeric_limits<double>::infinity()
                                                   : std::max(0.0, seed));
      const SspaResult warm = ExpectWarmEqualsCold(after, warm_start, use_grid, label);
      if (derive) {
        EXPECT_GE(warm.metrics.dual_repairs, 1u) << label;
      }
    }
  }
}

// Weighted customers whose demand grew while their served units stayed:
// each keeps partial sink flow, so it enters the deficit seed heap while
// its served units stay adopted.
TEST(SspaWarmStartTest, WeightedPartialSinkFlowMatchesCold) {
  test::InstanceSpec spec;
  spec.nq = 8;
  spec.np = 200;
  spec.k_lo = 60;
  spec.k_hi = 80;
  spec.seed = 41;
  Problem before = test::RandomProblem(spec);
  Rng rng(43);
  for (std::size_t p = 0; p < before.customers.size(); ++p) {
    before.weights.push_back(static_cast<std::int32_t>(rng.UniformInt(1, 3)));
  }
  Problem after = before;
  for (std::size_t p = 0; p < after.customers.size(); p += 10) after.weights[p] += 2;
  ASSERT_GE(after.TotalCapacity(), after.TotalWeight());
  for (const bool use_grid : {true, false}) {
    const std::string label = use_grid ? "grid" : "reference";
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    const SspaResult solved = SolveSspa(before, cfg);
    test::ExpectCertified(before, solved, label);
    SspaWarmStart warm_start;
    warm_start.potentials = solved.potentials;
    warm_start.matching = solved.matching;
    const SspaResult warm = ExpectWarmEqualsCold(after, warm_start, use_grid, label);
    EXPECT_EQ(warm.metrics.warm_units_adopted, static_cast<std::uint64_t>(before.TotalWeight()))
        << label;
    EXPECT_TRUE(warm.unassigned.empty()) << label;
  }
}

// Arrivals onto an infeasible instance whose real providers are all full
// after adoption: no deficit run can be seeded with a direct path, so each
// starts unarmed and the overflow routes to the virtual provider.
TEST(SspaWarmStartTest, OverflowWithFullProvidersKeepsExactLedger) {
  test::InstanceSpec spec;
  spec.nq = 5;
  spec.np = 60;
  spec.k_lo = 3;
  spec.k_hi = 6;
  spec.seed = 31;
  const Problem before = test::RandomProblem(spec);
  Problem after = before;
  for (const Point& pos : test::RandomPoints(12, 33)) after.customers.push_back(pos);
  for (const bool use_grid : {true, false}) {
    const std::string label = use_grid ? "grid" : "reference";
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    const SspaResult solved = SolveSspa(before, cfg);
    ASSERT_EQ(solved.unassigned_units, before.TotalWeight() - before.TotalCapacity()) << label;
    test::ExpectCertified(before, solved, label);
    // The engine's arrival seed: the smallest dual feasible against every
    // provider.
    SspaWarmStart warm_start;
    warm_start.potentials = solved.potentials;
    warm_start.matching = solved.matching;
    for (std::size_t p = before.customers.size(); p < after.customers.size(); ++p) {
      double seed = 0.0;
      for (std::size_t q = 0; q < after.providers.size(); ++q) {
        seed = std::max(seed, solved.potentials.tau_q[q] -
                                  Distance(after.providers[q].pos, after.customers[p]));
      }
      warm_start.potentials.tau_p.push_back(seed);
    }
    const SspaResult warm = ExpectWarmEqualsCold(after, warm_start, use_grid, label);
    EXPECT_EQ(warm.metrics.warm_units_adopted,
              static_cast<std::uint64_t>(after.TotalCapacity()))
        << label;
    ExpectExactLedger(after, warm, label);
  }
}

// A derived (+infinity) provider dual with no customers to derive it
// against: the warm solve completes with an empty matching.
TEST(SspaWarmStartTest, DerivedProviderDualWithoutCustomers) {
  Problem problem;
  problem.providers = {Provider{Point{0.0, 0.0}, 2}, Provider{Point{5.0, 5.0}, 3}};
  SspaWarmStart warm_start;
  warm_start.potentials.tau_q = {0.0, std::numeric_limits<double>::infinity()};
  for (const bool use_grid : {true, false}) {
    SspaConfig cfg;
    cfg.use_grid = use_grid;
    cfg.warm = &warm_start;
    const SspaResult warm = SolveSspa(problem, cfg);
    EXPECT_TRUE(warm.matching.pairs.empty());
    EXPECT_TRUE(warm.unassigned.empty());
    EXPECT_FALSE(warm.deadline_exceeded);
    EXPECT_EQ(warm.metrics.augmentations, 0u);
    EXPECT_EQ(warm.potentials.tau_q.size(), 2u);
    test::ExpectCertified(problem, warm);
  }
}

}  // namespace
}  // namespace cca
