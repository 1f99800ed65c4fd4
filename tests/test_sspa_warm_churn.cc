// Seeded warm-vs-cold differential for SolveSspa's warm start, below the
// engine: random customer and provider arrivals and departures over unit
// and weighted customers, on instances that start feasible or infeasible,
// with both relax paths. The caller-side bookkeeping (dropping departed
// endpoints, re-indexing the matching, seeding arrivals' duals) is done
// here the way AssignmentEngine does it, so a failure isolates the solver.
//
// Every step asserts that the warm solve matches a cold solve of the same
// instance (1e-9 relative), passes ValidateMatching, reports an exact
// unassigned ledger, exports duals that certify its matching optimal
// (CertifyOptimal, as do the cold solve's), and matches the independent
// Hungarian oracle (every instance keeps |P| <= 64).
// Odd-indexed streams leave an arriving provider's dual at +infinity for
// the solver to derive, as the engine does; even-indexed streams seed it
// at the largest feasible value themselves.
//
// The seed is pinned here AND in the ctest name
// (test_sspa_warm_churn_seed20080609 in CMakeLists.txt), so a red run
// names the exact churn sequence it replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/matching.h"
#include "flow/hungarian.h"
#include "flow/sspa.h"
#include "geo/point.h"
#include "test_util.h"

namespace cca {
namespace {

constexpr std::uint64_t kChurnSeed = 20080609;
constexpr std::size_t kMaxCustomers = 64;
constexpr int kSteps = 25;

Point RandomPoint(Rng& rng) { return Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)}; }

// One solver-level churn stream: the instance plus the warm start the next
// solve receives, kept index-aligned with it.
class ChurnStream {
 public:
  ChurnStream(bool weighted, bool feasible, bool derive_arrivals, std::uint64_t seed)
      : weighted_(weighted), derive_arrivals_(derive_arrivals), rng_(seed) {
    const std::size_t np = 30 + rng_.NextBelow(20);
    for (std::size_t p = 0; p < np; ++p) AddCustomer();
    // Capacity 1.1-1.3x the demand (feasible) or 0.6-0.8x (infeasible),
    // spread over 4-7 providers, so many providers start full.
    const double ratio = feasible ? rng_.Uniform(1.1, 1.3) : rng_.Uniform(0.6, 0.8);
    const std::size_t nq = 4 + rng_.NextBelow(4);
    const double share =
        ratio * static_cast<double>(problem_.TotalWeight()) / static_cast<double>(nq);
    const auto capacity =
        static_cast<std::int32_t>(feasible ? std::ceil(share) : std::floor(share));
    for (std::size_t q = 0; q < nq; ++q) {
      problem_.providers.push_back(Provider{RandomPoint(rng_), capacity});
    }
    warm_.potentials.tau_q.assign(problem_.providers.size(), 0.0);
    warm_.potentials.tau_p.assign(problem_.customers.size(), 0.0);
  }

  const Problem& problem() const { return problem_; }
  const SspaWarmStart& warm() const { return warm_; }

  // Adopts a solve's duals and matching as the next warm start.
  void Retain(const SspaResult& result) {
    warm_.potentials = result.potentials;
    warm_.matching = result.matching;
  }

  // One churn window: a few customer departures and arrivals, sometimes a
  // provider departure or arrival.
  void Churn() {
    const std::size_t departures = rng_.NextBelow(4);
    for (std::size_t i = 0; i < departures && problem_.customers.size() > 2; ++i) {
      RemoveCustomer(rng_.NextBelow(problem_.customers.size()));
    }
    const std::size_t arrivals = rng_.NextBelow(4);
    for (std::size_t i = 0; i < arrivals && problem_.customers.size() < kMaxCustomers; ++i) {
      AddCustomer();
      // Seeded at the smallest dual feasible against every provider.
      double seed = 0.0;
      for (std::size_t q = 0; q < problem_.providers.size(); ++q) {
        seed = std::max(seed, warm_.potentials.tau_q[q] -
                                  Distance(problem_.providers[q].pos, problem_.customers.back()));
      }
      warm_.potentials.tau_p.push_back(seed);
    }
    const double roll = rng_.NextDouble();
    if (roll < 0.15 && problem_.providers.size() > 2) {
      RemoveProvider(rng_.NextBelow(problem_.providers.size()));
    } else if (roll < 0.30) {
      AddProvider();
    }
  }

 private:
  void AddCustomer() {
    problem_.customers.push_back(RandomPoint(rng_));
    if (weighted_) problem_.weights.push_back(static_cast<std::int32_t>(rng_.UniformInt(1, 3)));
  }

  // Swap-erase, as the engine does: the last customer takes index p.
  void RemoveCustomer(std::size_t p) {
    const auto last = static_cast<std::int32_t>(problem_.customers.size() - 1);
    problem_.customers[p] = problem_.customers.back();
    problem_.customers.pop_back();
    if (weighted_) {
      problem_.weights[p] = problem_.weights.back();
      problem_.weights.pop_back();
    }
    warm_.potentials.tau_p[p] = warm_.potentials.tau_p.back();
    warm_.potentials.tau_p.pop_back();
    Matching kept;
    for (const MatchPair& pair : warm_.matching.pairs) {
      if (pair.customer == static_cast<std::int32_t>(p)) continue;
      kept.Add(pair.provider, pair.customer == last ? static_cast<std::int32_t>(p) : pair.customer,
               pair.units, 0.0);
    }
    warm_.matching = std::move(kept);
  }

  void RemoveProvider(std::size_t q) {
    const auto last = static_cast<std::int32_t>(problem_.providers.size() - 1);
    problem_.providers[q] = problem_.providers.back();
    problem_.providers.pop_back();
    warm_.potentials.tau_q[q] = warm_.potentials.tau_q.back();
    warm_.potentials.tau_q.pop_back();
    Matching kept;
    for (const MatchPair& pair : warm_.matching.pairs) {
      if (pair.provider == static_cast<std::int32_t>(q)) continue;
      kept.Add(pair.provider == last ? static_cast<std::int32_t>(q) : pair.provider, pair.customer,
               pair.units, 0.0);
    }
    warm_.matching = std::move(kept);
  }

  // Seeded at the largest dual feasible against every customer, or left at
  // +infinity for the solver to derive.
  void AddProvider() {
    const Point pos = RandomPoint(rng_);
    problem_.providers.push_back(Provider{pos, static_cast<std::int32_t>(rng_.UniformInt(1, 12))});
    double seed = std::numeric_limits<double>::infinity();
    for (std::size_t p = 0; p < problem_.customers.size() && !derive_arrivals_; ++p) {
      seed = std::min(seed, Distance(pos, problem_.customers[p]) + warm_.potentials.tau_p[p]);
    }
    warm_.potentials.tau_q.push_back(std::max(0.0, seed));  // churn keeps >= 2 customers
  }

  bool weighted_;
  bool derive_arrivals_;
  Rng rng_;
  Problem problem_;
  SspaWarmStart warm_;
};

void ExpectExactLedger(const Problem& problem, const SspaResult& res, const std::string& label) {
  const std::int64_t overflow =
      std::max<std::int64_t>(0, problem.TotalWeight() - problem.TotalCapacity());
  EXPECT_EQ(res.unassigned_units, overflow) << label;
  const auto loads = res.matching.CustomerLoads(problem.customers.size());
  std::vector<std::int64_t> unserved(problem.customers.size(), 0);
  for (const UnassignedUnit& u : res.unassigned) {
    EXPECT_GT(u.units, 0) << label;
    unserved[static_cast<std::size_t>(u.customer)] += u.units;
  }
  for (std::size_t p = 0; p < problem.customers.size(); ++p) {
    EXPECT_EQ(loads[p] + unserved[p], problem.weight(p)) << label << " customer " << p;
  }
}

TEST(SspaWarmChurn, WarmMatchesColdAndHungarianAcrossChurn) {
  std::uint64_t stream_index = 0;
  std::uint64_t warm_augmentations = 0;
  for (const bool weighted : {false, true}) {
    for (const bool feasible : {true, false}) {
      for (const bool use_grid : {true, false}) {
        ++stream_index;
        ChurnStream stream(weighted, feasible, stream_index % 2 == 1, kChurnSeed + stream_index);
        ASSERT_EQ(stream.problem().TotalCapacity() >= stream.problem().TotalWeight(), feasible);
        SspaConfig cfg;
        cfg.use_grid = use_grid;
        const SspaResult first = SolveSspa(stream.problem(), cfg);
        test::ExpectCertified(stream.problem(), first, "first");
        stream.Retain(first);
        for (int step = 0; step < kSteps; ++step) {
          stream.Churn();
          const Problem& problem = stream.problem();
          const std::string label = std::string(weighted ? "weighted" : "unit") +
                                    (feasible ? " feasible" : " infeasible") +
                                    (use_grid ? " grid" : " reference") + " step " +
                                    std::to_string(step);
          ASSERT_LE(problem.customers.size(), kMaxCustomers) << label;
          SspaConfig warm_cfg = cfg;
          warm_cfg.warm = &stream.warm();
          const SspaResult warm = SolveSspa(problem, warm_cfg);
          const SspaResult cold = SolveSspa(problem, cfg);
          const double oracle = SolveHungarian(test::UnitExpanded(problem)).matching.cost();
          const double tol = 1e-9 * std::max(1.0, cold.matching.cost());
          EXPECT_NEAR(warm.matching.cost(), cold.matching.cost(), tol) << label;
          EXPECT_NEAR(warm.matching.cost(), oracle, 1e-6 * std::max(1.0, oracle)) << label;
          std::string error;
          EXPECT_TRUE(ValidateMatching(problem, warm.matching, &error)) << label << ": " << error;
          ExpectExactLedger(problem, warm, label + " warm");
          ExpectExactLedger(problem, cold, label + " cold");
          test::ExpectCertified(problem, warm, label + " warm");
          test::ExpectCertified(problem, cold, label + " cold");
          EXPECT_FALSE(warm.deadline_exceeded) << label;
          warm_augmentations += warm.metrics.augmentations;
          stream.Retain(warm);
        }
      }
    }
  }
  EXPECT_EQ(stream_index, 8u);  // {unit, weighted} x {feasible, infeasible} x 2 relax paths
  EXPECT_GT(warm_augmentations, 0u);
}

}  // namespace
}  // namespace cca
