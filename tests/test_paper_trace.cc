// Step-by-step replay of the paper's Figure 3 walk-through on the engine.
//
// The paper's example (Section 2.2) runs two SSPA iterations and reports
// the node potentials after each augmentation. In our fixed-source
// convention (DESIGN.md 3.1), the potentials of the providers and
// customers must match the paper's exactly:
//   after augmenting sp1: tau(q1) = tau(q2) = 3, tau(p2) = 0;
//   after augmenting sp2: tau(q2) = 8, tau(q1) = 4, tau(p2) = 1,
//                         tau(p1) = 0 (Figure 3(d)).
// and the real path costs are 3 and 8 (total 11 = Psi of the optimum).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "flow/sspa.h"

namespace cca {
namespace {

// Collinear realisation of Figure 2's distances: d(q1,p1)=4, d(q1,p2)=3,
// d(q2,p2)=7; the q2-p1 edge (14 here vs 10 in the paper) is never used by
// any shortest path in the walk-through.
Problem FigureTwoProblem() {
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  return problem;
}

TEST(PaperTraceTest, Figure3PotentialsAndPathCosts) {
  const Problem problem = FigureTwoProblem();
  Metrics metrics;
  IncrementalEngine engine(problem, &metrics);
  // Full flow graph, as in plain SSPA.
  engine.InsertEdge(0, 0, 4.0);
  engine.InsertEdge(0, 1, 3.0);
  engine.InsertEdge(1, 0, 14.0);
  engine.InsertEdge(1, 1, 7.0);

  // Iteration 1: sp1 = {s, q1, p2, t} of real cost 3.
  const double d1 = engine.ComputeShortestPath();
  EXPECT_DOUBLE_EQ(d1, 3.0);
  engine.AcceptPath();
  EXPECT_DOUBLE_EQ(engine.DebugProviderTau(0), 3.0);  // q1
  EXPECT_DOUBLE_EQ(engine.DebugProviderTau(1), 3.0);  // q2
  EXPECT_DOUBLE_EQ(engine.DebugCustomerTau(1), 0.0);  // p2
  EXPECT_TRUE(engine.IsProviderFull(0));              // q1.k = 1 used up

  // Iteration 2: sp2 = {s, q2, p2, q1, p1, t}; real cost 7 - 3 + 4 = 8.
  const double d2 = engine.ComputeShortestPath();
  EXPECT_DOUBLE_EQ(d2, 8.0);
  engine.AcceptPath();
  // Figure 3(d) potentials.
  EXPECT_DOUBLE_EQ(engine.DebugProviderTau(1), 8.0);  // q2
  EXPECT_DOUBLE_EQ(engine.DebugProviderTau(0), 4.0);  // q1
  EXPECT_DOUBLE_EQ(engine.DebugCustomerTau(1), 1.0);  // p2
  EXPECT_DOUBLE_EQ(engine.DebugCustomerTau(0), 0.0);  // p1

  // Final matching: (q1,p1) and (q2,p2), Psi = 11 (paper Section 2.2).
  EXPECT_TRUE(engine.Done());
  const Matching m = engine.BuildMatching();
  EXPECT_DOUBLE_EQ(m.cost(), 11.0);
  bool q1_p1 = false, q2_p2 = false;
  for (const auto& pair : m.pairs) {
    if (pair.provider == 0 && pair.customer == 0) q1_p1 = true;
    if (pair.provider == 1 && pair.customer == 1) q2_p2 = true;
  }
  EXPECT_TRUE(q1_p1);
  EXPECT_TRUE(q2_p2);

  std::string error;
  EXPECT_TRUE(engine.CheckReducedCosts(&error)) << error;
}

// The same trace must hold when sp2's reroute is discovered through PUA
// repairs (edges fed in one at a time in ascending length order).
TEST(PaperTraceTest, Figure3WithIncrementalDiscovery) {
  const Problem problem = FigureTwoProblem();
  Metrics metrics;
  IncrementalEngine engine(problem, &metrics);

  struct E {
    int q, p;
    double d;
  };
  const E sorted[] = {{0, 1, 3.0}, {0, 0, 4.0}, {1, 1, 7.0}, {1, 0, 14.0}};
  std::size_t next = 0;
  while (!engine.Done()) {
    const double d = engine.ComputeShortestPath();
    const double frontier = next < 4 ? sorted[next].d : 1e100;
    if (d <= frontier + 1e-12) {
      engine.AcceptPath();
    } else {
      engine.InsertEdge(sorted[next].q, sorted[next].p, sorted[next].d);
      ++next;
    }
  }
  EXPECT_DOUBLE_EQ(engine.BuildMatching().cost(), 11.0);
  // The longest edge (q2, p1) is never needed.
  EXPECT_LT(metrics.edges_inserted, 4u);
  EXPECT_DOUBLE_EQ(engine.last_path_cost(), 8.0);
}

// Successive augmenting path costs are non-decreasing (the SSPA lemma all
// bound soundness rests on), checked on a bigger instance.
TEST(PaperTraceTest, AugmentingCostsMonotone) {
  Problem problem;
  Rng rng(4242);
  for (int i = 0; i < 6; ++i) {
    problem.providers.push_back(
        Provider{{rng.Uniform(0, 1000), rng.Uniform(0, 1000)}, 4});
  }
  for (int i = 0; i < 40; ++i) {
    problem.customers.push_back(Point{rng.Uniform(0, 1000), rng.Uniform(0, 1000)});
  }
  Metrics metrics;
  IncrementalEngine engine(problem, &metrics);
  for (std::size_t q = 0; q < problem.providers.size(); ++q) {
    for (std::size_t p = 0; p < problem.customers.size(); ++p) {
      engine.InsertEdge(static_cast<int>(q), static_cast<int>(p),
                        Distance(problem.providers[q].pos, problem.customers[p]));
    }
  }
  double prev = 0.0;
  while (!engine.Done()) {
    const double d = engine.ComputeShortestPath();
    EXPECT_GE(d, prev - 1e-9) << "augmenting path cost decreased";
    prev = d;
    engine.AcceptPath();
  }
}

}  // namespace
}  // namespace cca
