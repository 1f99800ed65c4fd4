// Hungarian baseline tests: must agree with SSPA/brute force on every
// capacity regime it supports.
#include <gtest/gtest.h>

#include "flow/hungarian.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

TEST(HungarianTest, OneToOneTinyInstance) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}, Provider{{10, 0}, 1}};
  problem.customers = {Point{1, 0}, Point{9, 0}};
  const HungarianResult result = SolveHungarian(problem);
  EXPECT_EQ(result.matching.size(), 2);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 2.0);
  EXPECT_EQ(result.matrix_cells, 4u);
}

TEST(HungarianTest, PaperFigure2Example) {
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  const HungarianResult result = SolveHungarian(problem);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 11.0);
  // Capacity expansion: 3 slots x 2 customers.
  EXPECT_EQ(result.matrix_cells, 6u);
}

TEST(HungarianTest, CapacityExpansionRespectsLimits) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 2}, Provider{{100, 0}, 3}};
  problem.customers = {Point{1, 0}, Point{2, 0}, Point{3, 0}, Point{99, 0}};
  const HungarianResult result = SolveHungarian(problem);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, result.matching, &error)) << error;
  // q0 (k=2) takes the two nearest, q1 takes p2 and p3.
  const auto loads = result.matching.ProviderLoads(2);
  EXPECT_LE(loads[0], 2);
  EXPECT_LE(loads[1], 3);
}

TEST(HungarianTest, MoreSlotsThanCustomers) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 5}};
  problem.customers = {Point{3, 0}, Point{4, 0}};
  const HungarianResult result = SolveHungarian(problem);
  EXPECT_EQ(result.matching.size(), 2);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 7.0);
}

TEST(HungarianTest, MoreCustomersThanSlots) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 1}};
  problem.customers = {Point{8, 0}, Point{2, 0}, Point{5, 0}};
  const HungarianResult result = SolveHungarian(problem);
  EXPECT_EQ(result.matching.size(), 1);
  EXPECT_DOUBLE_EQ(result.matching.cost(), 2.0);
}

TEST(HungarianTest, EmptyInstances) {
  Problem no_customers;
  no_customers.providers = {Provider{{0, 0}, 3}};
  EXPECT_EQ(SolveHungarian(no_customers).matching.size(), 0);
  Problem no_capacity;
  no_capacity.providers = {Provider{{0, 0}, 0}};
  no_capacity.customers = {Point{1, 1}};
  EXPECT_EQ(SolveHungarian(no_capacity).matching.size(), 0);
}

struct HungarianCase {
  std::size_t nq;
  std::size_t np;
  std::int32_t k_lo;
  std::int32_t k_hi;
  std::uint64_t seed;
};

class HungarianRandomTest : public ::testing::TestWithParam<HungarianCase> {};

TEST_P(HungarianRandomTest, AgreesWithSspa) {
  const auto& c = GetParam();
  test::InstanceSpec spec;
  spec.nq = c.nq;
  spec.np = c.np;
  spec.k_lo = c.k_lo;
  spec.k_hi = c.k_hi;
  spec.seed = c.seed;
  const Problem problem = test::RandomProblem(spec);
  const HungarianResult hungarian = SolveHungarian(problem);
  const SspaResult sspa = SolveSspa(problem);
  EXPECT_NEAR(hungarian.matching.cost(), sspa.matching.cost(),
              1e-6 * (1.0 + sspa.matching.cost()));
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, hungarian.matching, &error)) << error;
  test::ExpectCertified(problem, sspa);
}

INSTANTIATE_TEST_SUITE_P(Regimes, HungarianRandomTest,
                         ::testing::Values(HungarianCase{3, 12, 1, 1, 1},   // one-to-one-ish
                                           HungarianCase{4, 20, 2, 5, 2},   // scarce
                                           HungarianCase{4, 10, 5, 8, 3},   // abundant
                                           HungarianCase{6, 24, 4, 4, 4},   // balanced
                                           HungarianCase{2, 30, 3, 9, 5},   //
                                           HungarianCase{8, 16, 1, 3, 6}));

}  // namespace
}  // namespace cca
