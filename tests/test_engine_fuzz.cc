// Randomised stress tests for the incremental engine: arbitrary edge
// insertion orders, PUA repair torture, weighted-customer fuzz. Every run
// must end optimal (vs. independent solvers) with clean reduced costs.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "flow/hungarian.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

struct EdgeTriple {
  int q, p;
  double d;
};

std::vector<EdgeTriple> AllEdges(const Problem& problem) {
  std::vector<EdgeTriple> edges;
  for (std::size_t q = 0; q < problem.providers.size(); ++q) {
    for (std::size_t p = 0; p < problem.customers.size(); ++p) {
      edges.push_back(EdgeTriple{static_cast<int>(q), static_cast<int>(p),
                                 Distance(problem.providers[q].pos, problem.customers[p])});
    }
  }
  return edges;
}

// Feed all edges in a random (non-sorted!) order before solving: Esub
// construction order must not matter once the graph is complete.
TEST(EngineFuzzTest, RandomInsertionOrderStillOptimal) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 4;
    spec.np = 22;
    spec.k_lo = 1;
    spec.k_hi = 6;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);
    auto edges = AllEdges(problem);
    Rng rng(seed * 17);
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[static_cast<std::size_t>(rng.NextBelow(i))]);
    }
    Metrics metrics;
    IncrementalEngine engine(problem, &metrics);
    for (const auto& e : edges) engine.InsertEdge(e.q, e.p, e.d);
    while (!engine.Done()) {
      ASSERT_LT(engine.ComputeShortestPath(), 1e30);
      engine.AcceptPath();
    }
    std::string error;
    EXPECT_TRUE(engine.CheckReducedCosts(&error)) << error;
    EXPECT_NEAR(engine.BuildMatching().cost(), SolveSspa(problem).matching.cost(), 1e-6)
        << "seed " << seed;
  }
}

// PUA torture: edges arrive one at a time in random order while a Dijkstra
// run is live; a path is accepted only when it beats every edge still
// outside Esub (sound because shorter unexplored edges are a superset of
// what any bound could exclude).
TEST(EngineFuzzTest, PuaRepairWithRandomArrivalOrder) {
  for (std::uint64_t seed = 30; seed <= 40; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 16;
    spec.k_lo = 2;
    spec.k_hi = 4;
    spec.seed = seed;
    const Problem problem = test::RandomProblem(spec);
    auto edges = AllEdges(problem);
    Rng rng(seed * 23);
    for (std::size_t i = edges.size(); i > 1; --i) {
      std::swap(edges[i - 1], edges[static_cast<std::size_t>(rng.NextBelow(i))]);
    }
    Metrics metrics;
    IncrementalEngine engine(problem, &metrics);
    std::size_t next = 0;
    // Minimum length among edges not yet inserted (recomputed lazily).
    auto remaining_min = [&] {
      double best = 1e100;
      for (std::size_t i = next; i < edges.size(); ++i) best = std::min(best, edges[i].d);
      return best;
    };
    while (!engine.Done()) {
      const double d = engine.ComputeShortestPath();
      if (d <= remaining_min() + 1e-9) {
        engine.AcceptPath();
        std::string error;
        ASSERT_TRUE(engine.CheckReducedCosts(&error)) << error << " seed " << seed;
      } else {
        ASSERT_LT(next, edges.size());
        engine.InsertEdge(edges[next].q, edges[next].p, edges[next].d);
        ++next;
      }
    }
    EXPECT_NEAR(engine.BuildMatching().cost(), SolveSspa(problem).matching.cost(), 1e-6)
        << "seed " << seed;
  }
}

// Weighted customers with random weights, engine vs. the generic network
// oracle.
TEST(EngineFuzzTest, WeightedCustomersRandomised) {
  for (std::uint64_t seed = 50; seed <= 62; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 7;
    spec.k_lo = 2;
    spec.k_hi = 9;
    spec.seed = seed;
    Problem problem = test::RandomProblem(spec);
    Rng rng(seed * 31);
    problem.weights.resize(problem.customers.size());
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 5));

    Metrics metrics;
    IncrementalEngine engine(problem, &metrics);
    for (std::size_t q = 0; q < problem.providers.size(); ++q) {
      for (std::size_t p = 0; p < problem.customers.size(); ++p) {
        engine.InsertEdge(static_cast<int>(q), static_cast<int>(p),
                          Distance(problem.providers[q].pos, problem.customers[p]));
      }
    }
    while (!engine.Done()) {
      ASSERT_LT(engine.ComputeShortestPath(), 1e30);
      engine.AcceptPath();
      std::string error;
      ASSERT_TRUE(engine.CheckReducedCosts(&error)) << error;
    }
    const Matching m = engine.BuildMatching();
    std::string error;
    EXPECT_TRUE(ValidateMatching(problem, m, &error)) << error;
    EXPECT_NEAR(m.cost(), SolveHungarian(test::UnitExpanded(problem)).matching.cost(), 1e-6) << "seed " << seed;
  }
}

// Multi-unit augmentation consistency: weighted instances where bottleneck
// pushes >1 unit must match a unit-expanded formulation of the same
// problem (each weighted customer cloned into unit copies).
TEST(EngineFuzzTest, WeightedEqualsUnitExpansion) {
  for (std::uint64_t seed = 70; seed <= 78; ++seed) {
    test::InstanceSpec spec;
    spec.nq = 3;
    spec.np = 5;
    spec.k_lo = 3;
    spec.k_hi = 7;
    spec.seed = seed;
    Problem weighted = test::RandomProblem(spec);
    Rng rng(seed * 37);
    weighted.weights.resize(weighted.customers.size());
    for (auto& w : weighted.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));

    Problem expanded;
    expanded.providers = weighted.providers;
    for (std::size_t j = 0; j < weighted.customers.size(); ++j) {
      for (int u = 0; u < weighted.weights[j]; ++u) {
        expanded.customers.push_back(weighted.customers[j]);
      }
    }
    const double weighted_cost = SolveSspa(weighted).matching.cost();
    const double expanded_cost = SolveSspa(expanded).matching.cost();
    EXPECT_NEAR(weighted_cost, expanded_cost, 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cca
