// RIA / NIA / IDA on small hand-checkable instances: each must equal the
// brute-force optimum.
#include <gtest/gtest.h>

#include "core/exact.h"
#include "flow/oracle.h"
#include "test_util.h"

namespace cca {
namespace {

struct Solver {
  const char* name;
  ExactResult (*solve)(const Problem&, CustomerDb*, const ExactConfig&);
};

const Solver kSolvers[] = {
    {"RIA", SolveRia},
    {"NIA", SolveNia},
    {"IDA", SolveIda},
};

class ExactSmallTest : public ::testing::TestWithParam<Solver> {};

TEST_P(ExactSmallTest, PaperFigure2Example) {
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  auto db = test::MakeDb(problem);
  const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
  EXPECT_DOUBLE_EQ(result.matching.cost(), 11.0) << GetParam().name;
  EXPECT_EQ(result.matching.size(), 2);
}

TEST_P(ExactSmallTest, SingleProviderTakesNearest) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 2}};
  problem.customers = {Point{5, 0}, Point{1, 0}, Point{9, 0}, Point{2, 0}};
  auto db = test::MakeDb(problem);
  const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
  EXPECT_DOUBLE_EQ(result.matching.cost(), 3.0) << GetParam().name;  // 1 + 2
}

TEST_P(ExactSmallTest, RequiresReassignmentChain) {
  // A line instance where greedy NN assignment is suboptimal and a
  // residual-path reassignment is required for optimality.
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{60, 0}, 1}};
  problem.customers = {Point{20, 0}, Point{30, 0}};
  auto db = test::MakeDb(problem);
  const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
  EXPECT_DOUBLE_EQ(result.matching.cost(), 50.0) << GetParam().name;
}

TEST_P(ExactSmallTest, AllProvidersFullLeavesCustomersOut) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{100, 0}, 1}};
  problem.customers = {Point{1, 0}, Point{99, 0}, Point{50, 0}};
  auto db = test::MakeDb(problem);
  const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
  EXPECT_EQ(result.matching.size(), 2);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 2.0);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
}

TEST_P(ExactSmallTest, RandomTinyAgainstBruteForce) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 8;
    spec.k_lo = 1;
    spec.k_hi = 3;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);
    auto db = test::MakeDb(problem);
    const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
    const Matching brute = BruteForceOptimal(problem);
    EXPECT_NEAR(result.matching.cost(), brute.cost(), 1e-6)
        << GetParam().name << " seed " << seed;
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
  }
}

TEST_P(ExactSmallTest, DegenerateGammaZero) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 4}};
  // No customers at all.
  auto db = test::MakeDb(problem);
  const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
  EXPECT_EQ(result.matching.size(), 0);
}

TEST_P(ExactSmallTest, CoincidentPoints) {
  Problem problem;
  problem.providers = {Provider{{5, 5}, 2}, Provider{{5, 5}, 1}};
  problem.customers = {Point{5, 5}, Point{5, 5}, Point{5, 5}};
  auto db = test::MakeDb(problem);
  const ExactResult result = GetParam().solve(problem, db.get(), ExactConfig{});
  EXPECT_EQ(result.matching.size(), 3);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Solvers, ExactSmallTest, ::testing::ValuesIn(kSolvers),
                         [](const ::testing::TestParamInfo<Solver>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace cca
