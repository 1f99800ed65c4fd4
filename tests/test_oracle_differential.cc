// Randomized differential suite: RIA/NIA/IDA (rotating through every
// discovery backend) and SSPA (grid + dense) are diffed against the
// independent Hungarian oracle (src/flow/hungarian.cc) on ~50 seeded
// random instances spanning uniform/clustered/skewed point sets and
// unit/weighted customers, |P| <= 64. This replaces reliance on
// hand-built small cases: the oracle is a matrix-style solver that shares
// no code with the incremental flow engine, the spatial indexes, or the
// potential bookkeeping, so any cost drift in the solver stack trips it.
// Every SSPA solve is also certified by its own duals (CertifyOptimal),
// which reaches sizes the oracle cannot.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/exact.h"
#include "core/matching.h"
#include "flow/hungarian.h"
#include "flow/sspa.h"
#include "test_util.h"

namespace cca {
namespace {

enum class Dist { kUniform, kClustered, kSkewed };

std::vector<Point> MakePoints(Dist dist, std::size_t n, std::uint64_t seed) {
  switch (dist) {
    case Dist::kUniform:
      return test::RandomPoints(n, seed);
    case Dist::kClustered:
      return test::ClusteredPoints(n, seed, /*clusters=*/3, /*sigma=*/60.0);
    case Dist::kSkewed:
      return test::SkewedPoints(n, seed);
  }
  return {};
}

Problem MakeInstance(Dist dist, bool weighted, std::uint64_t seed) {
  Rng rng(seed * 97 + 11);
  Problem problem;
  const std::size_t nq = 3 + rng.NextBelow(6);   // 3..8 providers
  const std::size_t np = 20 + rng.NextBelow(45); // 20..64 customers
  for (const auto& pos : MakePoints(dist, nq, seed * 31 + 5)) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(1, 6))});
  }
  problem.customers = MakePoints(dist, np, seed * 57 + 7);
  if (weighted) {
    problem.weights.resize(np);
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 3));
  }
  return problem;
}

const char* DistName(Dist dist) {
  switch (dist) {
    case Dist::kUniform:
      return "uniform";
    case Dist::kClustered:
      return "clustered";
    case Dist::kSkewed:
      return "skewed";
  }
  return "?";
}

TEST(OracleDifferential, SolversMatchHungarianOnRandomInstances) {
  // Rotate the discovery backend across instances so every backend faces
  // every distribution/weight combination at least once.
  const DiscoveryBackend backends[] = {DiscoveryBackend::kRTreeGrouped, DiscoveryBackend::kGrid,
                                       DiscoveryBackend::kGridBatched};
  std::size_t case_index = 0;
  for (const Dist dist : {Dist::kUniform, Dist::kClustered, Dist::kSkewed}) {
    for (const bool weighted : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 9; ++seed, ++case_index) {
        const Problem problem = MakeInstance(dist, weighted, seed * 13 + case_index);
        const std::string label = std::string(DistName(dist)) +
                                  (weighted ? " weighted" : " unit") + " seed " +
                                  std::to_string(seed);

        const HungarianResult oracle = SolveHungarian(test::UnitExpanded(problem));
        const double tol = 1e-6 * std::max(1.0, oracle.matching.cost());

        auto db = test::MakeDb(problem);
        ExactConfig config;
        config.discovery_backend = backends[case_index % 3];

        const ExactResult ria = SolveRia(problem, db.get(), config);
        const ExactResult nia = SolveNia(problem, db.get(), config);
        const ExactResult ida = SolveIda(problem, db.get(), config);
        SspaConfig sspa_config;
        sspa_config.use_grid = case_index % 2 == 0;
        const SspaResult sspa = SolveSspa(problem, sspa_config);

        std::string error;
        EXPECT_TRUE(ValidateMatching(problem, ria.matching, &error)) << label << ": " << error;
        EXPECT_TRUE(ValidateMatching(problem, nia.matching, &error)) << label << ": " << error;
        EXPECT_TRUE(ValidateMatching(problem, ida.matching, &error)) << label << ": " << error;
        EXPECT_TRUE(ValidateMatching(problem, sspa.matching, &error)) << label << ": " << error;
        EXPECT_NEAR(ria.matching.cost(), oracle.matching.cost(), tol) << label << " ria";
        EXPECT_NEAR(nia.matching.cost(), oracle.matching.cost(), tol) << label << " nia";
        EXPECT_NEAR(ida.matching.cost(), oracle.matching.cost(), tol) << label << " ida";
        EXPECT_NEAR(sspa.matching.cost(), oracle.matching.cost(), tol) << label << " sspa";
        EXPECT_EQ(ria.matching.size(), oracle.matching.size()) << label;
        EXPECT_EQ(sspa.matching.size(), oracle.matching.size()) << label;
        test::ExpectCertified(problem, sspa, label);
      }
    }
  }
  EXPECT_EQ(case_index, 54u);  // 3 distributions x {unit, weighted} x 9 seeds
}

TEST(OracleDifferential, InfeasibleInstancesMatchHungarianPartialOptimum) {
  // Infeasible instances (total demand > total capacity). The Hungarian
  // oracle's transpose orientation assigns every provider slot a customer:
  // the independent min-cost *partial* optimum of size gamma = total
  // capacity. Both SSPA flavours must reproduce its cost — the plain
  // capacity-limited (cold) solve directly, and the warm solve, which
  // derives the virtual overflow provider, through its real sub-matching
  // (the virtual slot's capacity equals the overflow exactly, so every
  // feasible flow saturates the real providers and the penalty never
  // biases which real pairs win). The overflow solve must additionally
  // account for every unserved unit in its ledger.
  std::size_t case_index = 0;
  for (const Dist dist : {Dist::kUniform, Dist::kClustered, Dist::kSkewed}) {
    for (const bool weighted : {false, true}) {
      for (std::uint64_t seed = 101; seed <= 104; ++seed, ++case_index) {
        Problem problem = MakeInstance(dist, weighted, seed * 13 + case_index);
        // Clamp every provider to capacity 1-2: at most 8 providers * 2 <
        // 20+ customers, so every instance is strictly infeasible.
        Rng rng(seed * 7 + 3);
        std::int64_t total_capacity = 0;
        for (auto& q : problem.providers) {
          q.capacity = static_cast<std::int32_t>(rng.UniformInt(1, 2));
          total_capacity += q.capacity;
        }
        std::int64_t total_weight = 0;
        for (std::size_t p = 0; p < problem.customers.size(); ++p) {
          total_weight += problem.weight(p);
        }
        ASSERT_LT(total_capacity, total_weight);
        const std::int64_t overflow = total_weight - total_capacity;
        const std::string label = std::string(DistName(dist)) +
                                  (weighted ? " weighted" : " unit") + " seed " +
                                  std::to_string(seed);

        const HungarianResult oracle = SolveHungarian(test::UnitExpanded(problem));
        const double tol = 1e-6 * std::max(1.0, oracle.matching.cost());
        ASSERT_EQ(oracle.matching.size(), total_capacity) << label;

        // The zero warm start (zero duals, no flow) derives the virtual
        // overflow provider on an infeasible instance.
        SspaWarmStart zero;
        zero.potentials.tau_q.assign(problem.providers.size(), 0.0);
        zero.potentials.tau_p.assign(problem.customers.size(), 0.0);
        SspaConfig cfg;
        cfg.warm = &zero;
        cfg.use_grid = case_index % 2 == 0;
        const SspaResult res = SolveSspa(problem, cfg);
        std::string error;
        EXPECT_TRUE(ValidateMatching(problem, res.matching, &error)) << label << ": " << error;
        EXPECT_EQ(res.matching.size(), total_capacity) << label;
        EXPECT_NEAR(res.matching.cost(), oracle.matching.cost(), tol) << label;
        // Exact ledger: unassigned units complement the matching per
        // customer and sum to the overflow.
        EXPECT_EQ(res.unassigned_units, overflow) << label;
        std::int64_t ledger_sum = 0;
        const auto loads = res.matching.CustomerLoads(problem.customers.size());
        for (const UnassignedUnit& u : res.unassigned) {
          EXPECT_GT(u.units, 0) << label;
          EXPECT_EQ(loads[static_cast<std::size_t>(u.customer)] + u.units,
                    problem.weight(static_cast<std::size_t>(u.customer)))
              << label << " customer " << u.customer;
          ledger_sum += u.units;
        }
        EXPECT_EQ(ledger_sum, overflow) << label;
        test::ExpectCertified(problem, res, label + " warm");

        // The plain capacity-limited solve finds the same partial optimum,
        // and the ledger (computed uniformly as the matching's complement)
        // accounts for the same overflow.
        const SspaResult plain = SolveSspa(problem);
        EXPECT_NEAR(plain.matching.cost(), oracle.matching.cost(), tol) << label;
        EXPECT_EQ(plain.unassigned_units, overflow) << label;
        test::ExpectCertified(problem, plain, label + " cold");
      }
    }
  }
  EXPECT_EQ(case_index, 24u);  // 3 distributions x {unit, weighted} x 4 seeds
}

// Sizes no independent solver reaches, where the ring relax prunes most
// of the graph: the certificate alone proves these solves optimal, one
// capacity-limited (4000 slots for 10000 customers) and one ample (4000
// slots for 3000).
TEST(OracleDifferential, CertifiesUniformSolvesBeyondTheOracles) {
  for (const std::size_t np : {10000u, 3000u}) {
    test::InstanceSpec spec;
    spec.nq = 100;
    spec.np = np;
    spec.k_lo = 40;
    spec.k_hi = 40;
    spec.seed = 7;
    const Problem problem = test::RandomProblem(spec);
    const SspaResult res = SolveSspa(problem);
    EXPECT_EQ(res.matching.size(), problem.Gamma());
    EXPECT_GT(res.metrics.relaxes_pruned, res.metrics.dijkstra_relaxes);
    test::ExpectCertified(problem, res, "100x" + std::to_string(np));
  }
}

}  // namespace
}  // namespace cca
