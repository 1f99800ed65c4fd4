// Greedy spatial-matching baseline tests: validity, determinism, and the
// quality gap relative to optimal CCA.
#include <gtest/gtest.h>

#include "core/greedy.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

TEST(GreedySmTest, CommitsGloballyClosestPairsInOrder) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{60, 0}, 1}};
  problem.customers = {Point{20, 0}, Point{30, 0}};
  auto db = test::MakeDb(problem);
  const ExactResult greedy = SolveGreedySm(problem, db.get(), ExactConfig{});
  // Greedy: closest pair is (q0, p0) at 20; then q1 must take p1 at 30:
  // total 50 -- here this coincides with the optimum.
  EXPECT_DOUBLE_EQ(greedy.matching.cost(), 50.0);
}

TEST(GreedySmTest, IsSuboptimalWhereChainsAreNeeded) {
  // p0 sits just left of q1; greedy gives it to q1, forcing p1 to trek to
  // q0. Optimal swaps both.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{50, 0}, 1}};
  problem.customers = {Point{45, 0}, Point{55, 0}};
  auto db = test::MakeDb(problem);
  const ExactResult greedy = SolveGreedySm(problem, db.get(), ExactConfig{});
  const double optimal = SolveSspa(problem).matching.cost();
  // Greedy: (q1,p0)=5 then (q0,p1)=55 -> 60. Optimal: 45 + 5 = 50.
  EXPECT_DOUBLE_EQ(greedy.matching.cost(), 60.0);
  EXPECT_DOUBLE_EQ(optimal, 50.0);
}

TEST(GreedySmTest, AlwaysValidAndNeverBelowOptimal) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 6;
    spec.np = 60;
    spec.k_lo = 2;
    spec.k_hi = 6;
    spec.clustered_p = (seed % 2 == 0);
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);
    auto db = test::MakeDb(problem);
    const ExactResult greedy = SolveGreedySm(problem, db.get(), ExactConfig{});
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, greedy.matching, &error)) << error;
    const double optimal = SolveSspa(problem).matching.cost();
    EXPECT_GE(greedy.matching.cost(), optimal - 1e-9) << "seed " << seed;
  }
}

TEST(GreedySmTest, RespectsCapacitiesUnderPressure) {
  Problem problem;
  problem.providers = {Provider{{500, 500}, 3}};
  problem.customers = test::RandomPoints(20, 77);
  auto db = test::MakeDb(problem);
  const ExactResult greedy = SolveGreedySm(problem, db.get(), ExactConfig{});
  EXPECT_EQ(greedy.matching.size(), 3);
  // With a single provider, greedy == optimal (k nearest customers).
  EXPECT_NEAR(greedy.matching.cost(), SolveSspa(problem).matching.cost(), 1e-9);
}

TEST(GreedySmTest, DeterministicAcrossNnSources) {
  const Problem problem = [] {
    test::InstanceSpec spec;
    spec.nq = 5;
    spec.np = 80;
    spec.seed = 42;
    return test::RandomProblem(spec);
  }();
  auto db = test::MakeDb(problem);
  ExactConfig grid;
  grid.discovery_backend = DiscoveryBackend::kGrid;
  ExactConfig grouped;
  const double a = SolveGreedySm(problem, db.get(), grid).matching.cost();
  const double b = SolveGreedySm(problem, db.get(), grouped).matching.cost();
  EXPECT_NEAR(a, b, 1e-9);
}

}  // namespace
}  // namespace cca
