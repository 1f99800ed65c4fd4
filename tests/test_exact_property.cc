// Cross-algorithm property sweep: RIA == NIA == IDA == SSPA optimal cost on
// randomized instances across capacity regimes, distributions and RIA's
// theta; the SSPA optimum they are held to is certified by its
// own duals (CertifyOptimal).
#include <string>

#include <gtest/gtest.h>

#include "core/exact.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

struct SweepCase {
  std::string label;
  test::InstanceSpec spec;
  ExactConfig config;
};

SweepCase Case(std::string label, test::InstanceSpec spec, ExactConfig config = {}) {
  return SweepCase{std::move(label), spec, config};
}

test::InstanceSpec Spec(std::size_t nq, std::size_t np, std::int32_t k_lo, std::int32_t k_hi,
                        bool cq, bool cp, std::uint64_t seed) {
  test::InstanceSpec s;
  s.nq = nq;
  s.np = np;
  s.k_lo = k_lo;
  s.k_hi = k_hi;
  s.clustered_q = cq;
  s.clustered_p = cp;
  s.seed = seed;
  return s;
}

ExactConfig BigTheta() {
  ExactConfig c;
  c.theta = 200.0;
  return c;
}

ExactConfig TinyTheta() {
  ExactConfig c;
  c.theta = 5.0;
  return c;
}

class ExactPropertyTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ExactPropertyTest, AllSolversOptimal) {
  const auto& param = GetParam();
  const Problem problem = test::RandomProblem(param.spec);
  auto db = test::MakeDb(problem);

  const SspaResult sspa = SolveSspa(problem);
  test::ExpectCertified(problem, sspa);
  const double optimal = sspa.matching.cost();

  const ExactResult ria = SolveRia(problem, db.get(), param.config);
  const ExactResult nia = SolveNia(problem, db.get(), param.config);
  const ExactResult ida = SolveIda(problem, db.get(), param.config);

  const double tol = 1e-6 * (1.0 + optimal);
  EXPECT_NEAR(ria.matching.cost(), optimal, tol) << "RIA";
  EXPECT_NEAR(nia.matching.cost(), optimal, tol) << "NIA";
  EXPECT_NEAR(ida.matching.cost(), optimal, tol) << "IDA";

  for (const auto* result : {&ria, &nia, &ida}) {
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, result->matching, &error)) << error;
  }

  // Incremental algorithms must not materialise the complete bipartite
  // graph (that is the whole point); allow equality only for tiny inputs.
  const auto full = problem.providers.size() * problem.customers.size();
  EXPECT_LE(nia.metrics.edges_inserted, full);
  EXPECT_LE(ida.metrics.edges_inserted, full);
  // IDA's lift can only help: it never explores more than NIA.
  EXPECT_LE(ida.metrics.edges_inserted, nia.metrics.edges_inserted + 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExactPropertyTest,
    ::testing::Values(
        // Capacity regimes (sum k vs |P|).
        Case("ScarceCapacity", Spec(5, 60, 1, 3, false, false, 1)),
        Case("BalancedCapacity", Spec(5, 50, 10, 10, false, false, 2)),
        Case("AbundantCapacity", Spec(5, 40, 20, 30, false, false, 3)),
        Case("UnitCapacities", Spec(20, 20, 1, 1, false, false, 4)),
        Case("SingleProvider", Spec(1, 30, 12, 12, false, false, 5)),
        Case("ManyProvidersFewCustomers", Spec(25, 12, 1, 2, false, false, 6)),
        // Distribution mixes (paper Figure 13).
        Case("UniformVsClustered", Spec(6, 80, 4, 8, false, true, 7)),
        Case("ClusteredVsUniform", Spec(6, 80, 4, 8, true, false, 8)),
        Case("ClusteredVsClustered", Spec(6, 80, 4, 8, true, true, 9)),
        // RIA's range increment, the one tunable exact-solver setting.
        Case("RiaBigTheta", Spec(5, 50, 3, 6, false, false, 13), BigTheta()),
        Case("RiaTinyTheta", Spec(4, 40, 3, 6, false, false, 14), TinyTheta()),
        // More seeds for the default config.
        Case("Seed15", Spec(8, 70, 2, 6, false, false, 15)),
        Case("Seed16", Spec(8, 70, 2, 6, true, true, 16)),
        Case("Seed17", Spec(3, 90, 5, 15, false, false, 17)),
        Case("Seed18", Spec(12, 45, 1, 4, true, false, 18))),
    [](const ::testing::TestParamInfo<SweepCase>& info) { return info.param.label; });

// Determinism: same instance + same config => identical matchings.
TEST(ExactDeterminismTest, RepeatRunsIdentical) {
  const Problem problem = test::RandomProblem(Spec(6, 50, 2, 5, true, false, 99));
  auto db = test::MakeDb(problem);
  const ExactResult a = SolveIda(problem, db.get(), ExactConfig{});
  const ExactResult b = SolveIda(problem, db.get(), ExactConfig{});
  ASSERT_EQ(a.matching.pairs.size(), b.matching.pairs.size());
  for (std::size_t i = 0; i < a.matching.pairs.size(); ++i) {
    EXPECT_EQ(a.matching.pairs[i].provider, b.matching.pairs[i].provider);
    EXPECT_EQ(a.matching.pairs[i].customer, b.matching.pairs[i].customer);
  }
}

// The RIA theta knob trades range searches against subgraph size, never
// correctness.
TEST(ExactThetaTest, CostInvariantUnderTheta) {
  const Problem problem = test::RandomProblem(Spec(5, 60, 3, 6, false, false, 123));
  auto db = test::MakeDb(problem);
  double reference = -1.0;
  for (double theta : {2.0, 10.0, 50.0, 400.0}) {
    ExactConfig config;
    config.theta = theta;
    const ExactResult result = SolveRia(problem, db.get(), config);
    if (reference < 0) {
      reference = result.matching.cost();
    } else {
      EXPECT_NEAR(result.matching.cost(), reference, 1e-6) << "theta " << theta;
    }
  }
}

}  // namespace
}  // namespace cca
