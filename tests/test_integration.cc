// End-to-end integration: generated road-network workload, disk-resident
// R-tree with a 1% LRU buffer, all exact solvers agreeing, approximations
// within bounds, and I/O accounting behaving sensibly.
#include <gtest/gtest.h>

#include "core/approx.h"
#include "core/exact.h"
#include "flow/sspa.h"
#include "gen/generator.h"
#include "test_util.h"

namespace cca {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto net = DefaultNetwork(4242);
    DatasetSpec q_spec;
    q_spec.count = 25;
    q_spec.seed = 1001;
    q_spec.distribution = PointDistribution::kClustered;
    DatasetSpec p_spec;
    p_spec.count = 2500;
    p_spec.seed = 1002;
    p_spec.distribution = PointDistribution::kClustered;
    problem_ = MakeProblem(net, q_spec, p_spec, FixedCapacities(25, 80));

    CustomerDb::Options options;
    options.rtree.page_size = 1024;  // the paper's page size
    options.buffer_fraction = 0.01;  // the paper's buffer size
    db_ = std::make_unique<CustomerDb>(problem_.customers, options);
  }

  Problem problem_;
  std::unique_ptr<CustomerDb> db_;
};

TEST_F(IntegrationTest, AllExactSolversAgreeOnRoadNetworkData) {
  const double optimal = SolveSspa(problem_).matching.cost();
  const ExactResult ria = SolveRia(problem_, db_.get(), ExactConfig{});
  const ExactResult nia = SolveNia(problem_, db_.get(), ExactConfig{});
  const ExactResult ida = SolveIda(problem_, db_.get(), ExactConfig{});

  const double tol = 1e-5 * (1.0 + optimal);
  EXPECT_NEAR(ria.matching.cost(), optimal, tol);
  EXPECT_NEAR(nia.matching.cost(), optimal, tol);
  EXPECT_NEAR(ida.matching.cost(), optimal, tol);

  std::string error;
  EXPECT_TRUE(ValidateMatching(problem_, ida.matching, &error)) << error;

  // The incremental solvers must prune the bipartite graph hard: on this
  // workload, well below 50% of |Q| x |P| edges.
  const auto full = problem_.providers.size() * problem_.customers.size();
  EXPECT_LT(ida.metrics.edges_inserted, full / 2);
  EXPECT_LE(ida.metrics.edges_inserted, nia.metrics.edges_inserted + 2);
}

TEST_F(IntegrationTest, IoAccountingBehaves) {
  const ExactResult ida = SolveIda(problem_, db_.get(), ExactConfig{});
  EXPECT_GT(ida.metrics.node_accesses, 0u);
  EXPECT_GT(ida.metrics.page_faults, 0u);
  // Faults cannot exceed logical node accesses.
  EXPECT_LE(ida.metrics.page_faults, ida.metrics.node_accesses);
  EXPECT_GT(ida.metrics.io_millis(), 0.0);
  // The buffer is tiny (1%), so there must be misses beyond the cold set,
  // yet hits too (locality).
  EXPECT_LT(db_->tree()->buffer().capacity(), db_->tree()->page_count());
}

TEST_F(IntegrationTest, ApproximationsWithinBoundsAndCheaper) {
  const ExactResult ida = SolveIda(problem_, db_.get(), ExactConfig{});
  const double optimal = ida.matching.cost();

  ApproxConfig sa_config;
  sa_config.delta = 40.0;  // the paper's SA default
  const ApproxResult sa = SolveSa(problem_, db_.get(), sa_config);
  ApproxConfig ca_config;
  ca_config.delta = 10.0;  // the paper's CA default
  const ApproxResult ca = SolveCa(problem_, db_.get(), ca_config);

  std::string error;
  EXPECT_TRUE(ValidateMatching(problem_, sa.matching, &error)) << error;
  EXPECT_TRUE(ValidateMatching(problem_, ca.matching, &error)) << error;

  EXPECT_LE(sa.matching.cost(), optimal + SaErrorBound(problem_.Gamma(), sa_config.delta));
  EXPECT_LE(ca.matching.cost(), optimal + CaErrorBound(problem_.Gamma(), ca_config.delta));
  EXPECT_GE(sa.matching.cost(), optimal - 1e-6);
  EXPECT_GE(ca.matching.cost(), optimal - 1e-6);

  // CA's headline property (paper Figure 14): near-optimal quality at a
  // fraction of IDA's cost. Check the quality side deterministically.
  EXPECT_LT(ca.matching.cost() / optimal, 1.5);
}

TEST_F(IntegrationTest, MixedCapacitiesStillOptimal) {
  Problem mixed = problem_;
  const auto caps = MixedCapacities(mixed.providers.size(), 40, 120, 77);
  for (std::size_t i = 0; i < mixed.providers.size(); ++i) {
    mixed.providers[i].capacity = caps[i];
  }
  const double optimal = SolveSspa(mixed).matching.cost();
  const ExactResult ida = SolveIda(mixed, db_.get(), ExactConfig{});
  EXPECT_NEAR(ida.matching.cost(), optimal, 1e-5 * (1.0 + optimal));
}

}  // namespace
}  // namespace cca
