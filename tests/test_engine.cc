// IncrementalEngine tests: the engine run on the full edge set must agree
// with SSPA; reduced-cost invariants hold after every augmentation; PUA
// repair and the Theorem-2 fast path preserve results exactly.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "flow/hungarian.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

// Feeds every provider->customer edge up front and augments until done,
// checking the reduced-cost invariant after each accepted path.
Matching RunEngineAllEdges(const Problem& problem, bool check_invariants) {
  Metrics metrics;
  IncrementalEngine engine(problem, &metrics);
  for (std::size_t q = 0; q < problem.providers.size(); ++q) {
    for (std::size_t p = 0; p < problem.customers.size(); ++p) {
      engine.InsertEdge(static_cast<int>(q), static_cast<int>(p),
                        Distance(problem.providers[q].pos, problem.customers[p]));
    }
  }
  while (!engine.Done()) {
    const double d = engine.ComputeShortestPath();
    EXPECT_LT(d, 1e30) << "sink unreachable although gamma not met";
    engine.AcceptPath();
    if (check_invariants) {
      std::string error;
      EXPECT_TRUE(engine.CheckReducedCosts(&error)) << error;
    }
  }
  return engine.BuildMatching();
}

TEST(EngineTest, FullGraphMatchesSspaPaperExample) {
  Problem problem;
  problem.providers = {Provider{{0.0, 0.0}, 1}, Provider{{10.0, 0.0}, 2}};
  problem.customers = {Point{-4.0, 0.0}, Point{3.0, 0.0}};
  const Matching m = RunEngineAllEdges(problem, true);
  EXPECT_DOUBLE_EQ(m.cost(), 11.0);
}

TEST(EngineTest, FullGraphOptimalAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 5;
    spec.np = 25;
    spec.k_lo = 1;
    spec.k_hi = 5;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);
    const Matching m = RunEngineAllEdges(problem, true);
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, m, &error)) << error << " seed " << seed;
    const double oracle = SolveSspa(problem).matching.cost();
    EXPECT_NEAR(m.cost(), oracle, 1e-6) << "seed " << seed;
  }
}

// Edge-by-edge insertion interleaved with (possibly invalid) shortest path
// computations: exercises the PUA repair path specifically.
TEST(EngineTest, IncrementalInsertionWithPuaRepairs) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 15;
    spec.k_lo = 2;
    spec.k_hi = 4;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);

    // All (q, p, dist) edges sorted by length, inserted one at a time.
    struct E {
      int q, p;
      double d;
    };
    std::vector<E> all;
    for (std::size_t q = 0; q < problem.providers.size(); ++q) {
      for (std::size_t p = 0; p < problem.customers.size(); ++p) {
        all.push_back(E{static_cast<int>(q), static_cast<int>(p),
                        Distance(problem.providers[q].pos, problem.customers[p])});
      }
    }
    std::sort(all.begin(), all.end(), [](const E& a, const E& b) { return a.d < b.d; });

    Metrics metrics;
    IncrementalEngine engine(problem, &metrics);
    std::size_t next = 0;
    while (!engine.Done()) {
      const double d = engine.ComputeShortestPath();
      const double frontier = next < all.size() ? all[next].d : 1e100;
      if (d <= frontier + 1e-9) {
        engine.AcceptPath();
        std::string error;
        ASSERT_TRUE(engine.CheckReducedCosts(&error)) << error;
      } else {
        ASSERT_LT(next, all.size());
        engine.InsertEdge(all[next].q, all[next].p, all[next].d);
        ++next;
      }
    }
    const Matching m = engine.BuildMatching();
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, m, &error)) << error;
    EXPECT_NEAR(m.cost(), SolveSspa(problem).matching.cost(), 1e-6) << "seed " << seed;
    // The point of incremental discovery: not all edges were needed.
    EXPECT_LT(metrics.edges_inserted, all.size()) << "seed " << seed;
  }
}

// Fast path: feed globally sorted edges and use FastAssign while legal;
// finish with Dijkstra iterations. Must remain optimal.
TEST(EngineTest, FastPathThenGeneralPhaseOptimal) {
  for (std::uint64_t seed = 60; seed < 68; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 4;
    spec.np = 18;
    spec.k_lo = 1;
    spec.k_hi = 3;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);

    struct E {
      int q, p;
      double d;
    };
    std::vector<E> all;
    for (std::size_t q = 0; q < problem.providers.size(); ++q) {
      for (std::size_t p = 0; p < problem.customers.size(); ++p) {
        all.push_back(E{static_cast<int>(q), static_cast<int>(p),
                        Distance(problem.providers[q].pos, problem.customers[p])});
      }
    }
    std::sort(all.begin(), all.end(), [](const E& a, const E& b) { return a.d < b.d; });

    Metrics metrics;
    IncrementalEngine engine(problem, &metrics);
    std::size_t next = 0;
    while (!engine.Done() && engine.fast_mode() && next < all.size()) {
      const auto& e = all[next++];
      const int eid = engine.InsertEdge(e.q, e.p, e.d);
      if (engine.CustomerResidual(e.p) > 0) {
        EXPECT_GT(engine.FastAssign(eid), 0);
        std::string error;
        ASSERT_TRUE(engine.CheckReducedCosts(&error)) << error << " seed " << seed;
      }
    }
    while (!engine.Done()) {
      const double d = engine.ComputeShortestPath();
      const double frontier = next < all.size() ? all[next].d : 1e100;
      if (d <= frontier + 1e-9) {
        engine.AcceptPath();
        std::string error;
        ASSERT_TRUE(engine.CheckReducedCosts(&error)) << error;
      } else {
        ASSERT_LT(next, all.size());
        engine.InsertEdge(all[next].q, all[next].p, all[next].d);
        ++next;
      }
    }
    EXPECT_GT(metrics.fast_path_assigns, 0u);
    const Matching m = engine.BuildMatching();
    EXPECT_NEAR(m.cost(), SolveSspa(problem).matching.cost(), 1e-6) << "seed " << seed;
  }
}

TEST(EngineTest, ProviderBoundIsZeroUntilFull) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 2}};
  problem.customers = {Point{1, 0}, Point{2, 0}, Point{3, 0}};
  Metrics metrics;
  IncrementalEngine engine(problem, &metrics);
  for (int p = 0; p < 3; ++p) {
    engine.InsertEdge(0, p, Distance(problem.providers[0].pos, problem.customers[p]));
  }
  EXPECT_DOUBLE_EQ(engine.ProviderBound(0), 0.0);
  engine.ComputeShortestPath();
  engine.AcceptPath();
  EXPECT_FALSE(engine.IsProviderFull(0));
  EXPECT_DOUBLE_EQ(engine.ProviderBound(0), 0.0);
  engine.ComputeShortestPath();
  engine.AcceptPath();
  EXPECT_TRUE(engine.IsProviderFull(0));
  EXPECT_TRUE(engine.Done());
}

TEST(EngineTest, WeightedCustomersViaGeneralPhase) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 3}, Provider{{10, 0}, 3}};
  problem.customers = {Point{1, 0}, Point{9, 0}};
  problem.weights = {4, 1};
  const Matching m = RunEngineAllEdges(problem, true);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, m, &error)) << error;
  EXPECT_NEAR(m.cost(), SolveHungarian(test::UnitExpanded(problem)).matching.cost(), 1e-6);
}

TEST(EngineTest, GammaZeroInstances) {
  Problem problem;
  problem.providers = {Provider{{0, 0}, 3}};
  Metrics metrics;
  IncrementalEngine engine(problem, &metrics);
  EXPECT_TRUE(engine.Done());
  EXPECT_EQ(engine.BuildMatching().size(), 0);
}

}  // namespace
}  // namespace cca
