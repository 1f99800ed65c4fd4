// Oracle tests: brute force and the LP-duality certificate.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow/oracle.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

// A collinear embedding of the paper's Figure 2 example: q1.k=1, q2.k=2,
// d(q1,p1)=4, d(q1,p2)=3, d(q2,p2)=7 (d(q2,p1)=14 instead of 10, which
// affects no decision). SSPA first matches (q1,p2) at cost 3, then the
// second augmenting path reroutes through the residual edge p2->q1,
// yielding the paper's optimal matching (q1,p1),(q2,p2) of cost 11.
Problem TwoByTwo() {
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  EXPECT_DOUBLE_EQ(Distance(problem.providers[0].pos, problem.customers[0]), 4.0);
  EXPECT_DOUBLE_EQ(Distance(problem.providers[0].pos, problem.customers[1]), 3.0);
  EXPECT_DOUBLE_EQ(Distance(problem.providers[1].pos, problem.customers[1]), 7.0);
  EXPECT_DOUBLE_EQ(Distance(problem.providers[1].pos, problem.customers[0]), 14.0);
  return problem;
}

TEST(BruteForceTest, TrivialOneToOne) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}};
  problem.customers = {Point{1, 0}, Point{5, 0}};
  const Matching m = BruteForceOptimal(problem);
  ASSERT_EQ(m.pairs.size(), 1u);
  EXPECT_EQ(m.pairs[0].customer, 0);
  EXPECT_DOUBLE_EQ(m.cost(), 1.0);
}

TEST(BruteForceTest, CapacityForcesSplit) {
  // Two customers next to q0 but q0.k = 1: the second goes to q1.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{10, 0}, 1}};
  problem.customers = {Point{1, 0}, Point{2, 0}};
  const Matching m = BruteForceOptimal(problem);
  EXPECT_EQ(m.size(), 2);
  // q0 takes p0 (1 < 2), q1 takes p1 (8).
  EXPECT_DOUBLE_EQ(m.cost(), 1.0 + 8.0);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, m, &error)) << error;
}

TEST(BruteForceTest, MoreCapacityThanCustomers) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 5}};
  problem.customers = {Point{1, 0}, Point{2, 0}, Point{3, 0}};
  const Matching m = BruteForceOptimal(problem);
  EXPECT_EQ(m.size(), 3);
  EXPECT_DOUBLE_EQ(m.cost(), 6.0);
}

TEST(BruteForceTest, MoreCustomersThanCapacity) {
  // gamma = 1: the cheapest single pair must be chosen.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}};
  problem.customers = {Point{5, 0}, Point{2, 0}, Point{9, 0}};
  const Matching m = BruteForceOptimal(problem);
  EXPECT_EQ(m.size(), 1);
  EXPECT_DOUBLE_EQ(m.cost(), 2.0);
  EXPECT_EQ(m.pairs[0].customer, 1);
}

// Random tiny unit instances: 3x7 with k in [1, 3] and 3x6 with k in
// [1, 4], the shapes brute force still enumerates.
std::vector<Problem> TinyInstances() {
  std::vector<Problem> problems;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 7;
    spec.k_lo = 1;
    spec.k_hi = 3;
    spec.seed = seed;
    problems.push_back(test::RandomProblem(spec));
  }
  for (std::uint64_t seed = 30; seed < 45; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 6;
    spec.k_lo = 1;
    spec.k_hi = 4;
    spec.seed = seed;
    problems.push_back(test::RandomProblem(spec));
  }
  return problems;
}

// Expects `cert` to fail and its message to name `condition`.
void ExpectFails(const Status& cert, const std::string& condition) {
  EXPECT_FALSE(cert.ok());
  EXPECT_NE(cert.message().find(condition), std::string::npos) << cert.message();
}

TEST(CertifyOptimalTest, AcceptsSspaSolvesThatMatchBruteForce) {
  int index = 0;
  for (const Problem& problem : TinyInstances()) {
    const SspaResult sspa = SolveSspa(problem);
    EXPECT_NEAR(sspa.matching.cost(), BruteForceOptimal(problem).cost(), 1e-6) << index;
    test::ExpectCertified(problem, sspa, "instance " + std::to_string(index++));
  }
}

TEST(CertifyOptimalTest, AcceptsPaperExample) {
  const Problem problem = TwoByTwo();
  const SspaResult sspa = SolveSspa(problem);
  // Optimal: (q1,p1) + (q2,p2) = 4 + 7 = 11 (not 3 + 10 = 13).
  EXPECT_DOUBLE_EQ(sspa.matching.cost(), 11.0);
  test::ExpectCertified(problem, sspa);
}

TEST(CertifyOptimalTest, AcceptsWeightedExample) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 3}, Provider{{10, 0}, 3}};
  problem.customers = {Point{1, 0}, Point{9, 0}};
  problem.weights = {4, 1};
  // gamma = min(5, 6) = 5. Best: q0 takes 3 units of p0, q1 takes 1 unit of
  // p0 (cost 9) and 1 of p1 (cost 1).
  const SspaResult sspa = SolveSspa(problem);
  EXPECT_EQ(sspa.matching.size(), 5);
  EXPECT_DOUBLE_EQ(sspa.matching.cost(), 3.0 * 1.0 + 9.0 + 1.0);
  test::ExpectCertified(problem, sspa);
}

TEST(CertifyOptimalTest, RejectsSuboptimalSwap) {
  const Problem problem = TwoByTwo();
  const SspaPotentials optimum = SolveSspa(problem).potentials;
  Matching bad;
  bad.Add(0, 1, 1, 3.0);   // q1 <- p2
  bad.Add(1, 0, 1, 14.0);  // q2 <- p1, total 17 > 11
  EXPECT_FALSE(CertifyOptimal(problem, bad, optimum).ok());
}

TEST(CertifyOptimalTest, RejectsUndersizedMatching) {
  const Problem problem = TwoByTwo();
  const SspaPotentials optimum = SolveSspa(problem).potentials;
  Matching tiny;
  tiny.Add(0, 0, 1, 4.0);  // size 1 < gamma 2
  ExpectFails(CertifyOptimal(problem, tiny, optimum), "primal feasibility");
}

TEST(CertifyOptimalTest, RejectsCapacityViolation) {
  const Problem problem = TwoByTwo();
  const SspaPotentials optimum = SolveSspa(problem).potentials;
  Matching bad;
  bad.Add(0, 0, 1, 4.0);
  bad.Add(0, 1, 1, 3.0);  // q1 has k=1
  ExpectFails(CertifyOptimal(problem, bad, optimum), "primal feasibility");
}

// Moving one unit of an optimum to another provider, or exchanging two
// customers' providers, never lowers the cost; wherever it raises it the
// optimum's own duals must reject the result.
TEST(CertifyOptimalTest, RejectsEveryCostIncreasingMove) {
  int rejected = 0;
  for (const Problem& problem : TinyInstances()) {
    const SspaResult sspa = SolveSspa(problem);
    const std::vector<MatchPair>& pairs = sspa.matching.pairs;
    const auto dist = [&](std::int32_t q, std::int32_t p) {
      return Distance(problem.providers[static_cast<std::size_t>(q)].pos,
                      problem.customers[static_cast<std::size_t>(p)]);
    };
    std::vector<Matching> moved;
    for (std::size_t a = 0; a < pairs.size(); ++a) {
      for (std::size_t b = a + 1; b < pairs.size(); ++b) {
        Matching swap = sspa.matching;
        swap.pairs[a] = MatchPair{pairs[b].provider, pairs[a].customer, 1,
                                  dist(pairs[b].provider, pairs[a].customer)};
        swap.pairs[b] = MatchPair{pairs[a].provider, pairs[b].customer, 1,
                                  dist(pairs[a].provider, pairs[b].customer)};
        moved.push_back(swap);
      }
      for (std::int32_t q = 0; q < static_cast<std::int32_t>(problem.providers.size()); ++q) {
        Matching shift = sspa.matching;
        shift.pairs[a] = MatchPair{q, pairs[a].customer, 1, dist(q, pairs[a].customer)};
        moved.push_back(shift);
      }
    }
    for (const Matching& m : moved) {
      std::string error;
      if (!ValidateMatching(problem, m, &error)) continue;
      EXPECT_GE(m.cost(), sspa.matching.cost() - 1e-9);
      if (m.cost() <= sspa.matching.cost() + 1e-6) continue;
      EXPECT_FALSE(CertifyOptimal(problem, m, sspa.potentials).ok());
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 100);
}

// Hand-set duals for the paper example's optimum (q1,p1) + (q2,p2), where
// q2 both carries flow and has a spare slot: every arc condition holds
// with tau_q = {4, 8}, tau_p = {0, 1}. Each case below breaks exactly one
// condition and the Status names it.
TEST(CertifyOptimalTest, NamesEachFailedCondition) {
  const Problem problem = TwoByTwo();
  Matching optimum;
  optimum.Add(0, 0, 1, 4.0);
  optimum.Add(1, 1, 1, 7.0);
  const SspaPotentials duals{{4.0, 8.0}, {0.0, 1.0}};
  EXPECT_TRUE(CertifyOptimal(problem, optimum, duals).ok());

  // (2) only: tau_q1 = 5 leaves the saturated unit arc (q1,p1) at r = -1,
  // which is fine, but the residual arc (q1,p2) at r = 3 - 5 + 1 = -1.
  ExpectFails(CertifyOptimal(problem, optimum, SspaPotentials{{5.0, 8.0}, {0.0, 1.0}}),
              "(2) residual arc");
  // (3) only: tau_q1 = 3 leaves the flow arc (q1,p1) at r = +1.
  ExpectFails(CertifyOptimal(problem, optimum, SspaPotentials{{3.0, 8.0}, {0.0, 1.0}}),
              "(3) flow arc");
}

TEST(CertifyOptimalTest, NamesFailedSourceCondition) {
  // q0 serves p0 at distance 1; q1 stays spare 99 away. Any tau_q1 in
  // [1, 99] certifies; 0.5 keeps every arc feasible but sits below the
  // flow-carrying tau_q0 = 1.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{100, 0}, 1}};
  problem.customers = {Point{1, 0}};
  Matching optimum;
  optimum.Add(0, 0, 1, 1.0);
  EXPECT_TRUE(CertifyOptimal(problem, optimum, SspaPotentials{{1.0, 50.0}, {0.0}}).ok());
  ExpectFails(CertifyOptimal(problem, optimum, SspaPotentials{{1.0, 0.5}, {0.0}}),
              "(4) source condition");
}

TEST(CertifyOptimalTest, NamesFailedSinkCondition) {
  // gamma = 1: q0 serves p0 at distance 1 and p1 (distance 5) goes
  // unserved. tau_p1 = 2 keeps the residual arc (q0,p1) feasible but sits
  // above the served tau_p0 = 0.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}};
  problem.customers = {Point{1, 0}, Point{5, 0}};
  Matching optimum;
  optimum.Add(0, 0, 1, 1.0);
  EXPECT_TRUE(CertifyOptimal(problem, optimum, SspaPotentials{{1.0}, {0.0, 0.0}}).ok());
  ExpectFails(CertifyOptimal(problem, optimum, SspaPotentials{{1.0}, {0.0, 2.0}}),
              "(5) sink condition");
}

TEST(CertifyOptimalTest, RejectsDeadlineCutSolve) {
  test::InstanceSpec spec;
  spec.nq = 4;
  spec.np = 200;
  spec.seed = 3;
  const Problem problem = test::RandomProblem(spec);
  SspaConfig cfg;
  cfg.deadline_ms = 1e-7;  // breaches before the first augmentation
  const SspaResult cut = SolveSspa(problem, cfg);
  ASSERT_TRUE(cut.deadline_exceeded);
  ExpectFails(CertifyOptimal(problem, cut.matching, cut.potentials), "(1) primal feasibility");
}

}  // namespace
}  // namespace cca
