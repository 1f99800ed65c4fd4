// Randomized churn suite for the incremental AssignmentEngine
// (src/runtime/engine.h): every Resolve that is not degraded is certified
// optimal by the duals it retains (CertifyOptimal), and a warm-started
// Resolve is cost-identical to a cold solve of the same snapshot, across
// insert/remove churn of both point sets, every point distribution and
// unit/weighted customers.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/matching.h"
#include "flow/oracle.h"
#include "flow/sspa.h"
#include "geo/point.h"
#include "runtime/engine.h"
#include "test_util.h"

namespace cca {
namespace {

enum class Dist { kUniform, kClustered, kSkewed };

std::vector<Point> MakePoints(Dist dist, std::size_t n, std::uint64_t seed) {
  switch (dist) {
    case Dist::kClustered:
      return test::ClusteredPoints(n, seed);
    case Dist::kSkewed:
      return test::SkewedPoints(n, seed);
    case Dist::kUniform:
    default:
      return test::RandomPoints(n, seed);
  }
}

struct ChurnSpec {
  Dist dist = Dist::kUniform;
  bool weighted = false;
  std::uint64_t seed = 1;
  int events = 500;
};

// Cold-solves the engine's current snapshot from scratch: no shared index,
// no warm start — the reference the warm path must match.
double ColdCost(const Problem& problem) { return SolveSspa(problem).matching.cost(); }

// One Resolve whose retained duals, unless it degraded, certify the
// matching it returned.
AssignmentEngine::ResolveOutcome CertifiedResolve(AssignmentEngine* engine) {
  AssignmentEngine::ResolveOutcome out = engine->Resolve();
  if (!out.degraded) {
    test::ExpectCertified(engine->problem(), out.matching, engine->potentials(),
                          out.warm ? "warm" : "cold");
  }
  return out;
}

// One certified Resolve, checked against a cold solve of the same snapshot.
void ExpectResolveMatchesCold(AssignmentEngine* engine, Metrics* totals, int* warm_resolves) {
  const AssignmentEngine::ResolveOutcome out = CertifiedResolve(engine);
  std::string error;
  ASSERT_TRUE(ValidateMatching(engine->problem(), out.matching, &error)) << error;
  const double cold = ColdCost(engine->problem());
  const double tol = 1e-9 * std::max(1.0, std::abs(cold));
  EXPECT_NEAR(out.cost, cold, tol)
      << "warm=" << out.warm << " |Q|=" << engine->num_providers()
      << " |P|=" << engine->num_customers();
  totals->Merge(out.metrics);
  if (out.warm) ++*warm_resolves;
}

// Drives `spec.events` random population edits interleaved with Resolves,
// checking every Resolve against a cold solve of the same snapshot.
void RunChurn(const ChurnSpec& spec) {
  Rng rng(spec.seed * 101 + 7);
  const auto customer_pool = MakePoints(spec.dist, 4096, spec.seed * 3 + 1);
  const auto provider_pool = MakePoints(spec.dist, 512, spec.seed * 5 + 2);
  std::size_t next_customer = 0, next_provider = 0;

  AssignmentEngine engine;

  std::vector<AssignmentEngine::Id> customers, providers;
  auto insert_customer = [&] {
    const Point& pos = customer_pool[next_customer++ % customer_pool.size()];
    const auto w = spec.weighted ? static_cast<std::int32_t>(rng.UniformInt(1, 3)) : 1;
    customers.push_back(engine.InsertCustomer(pos, w).value());
  };
  auto insert_provider = [&] {
    const Point& pos = provider_pool[next_provider++ % provider_pool.size()];
    providers.push_back(
        engine.InsertProvider(pos, static_cast<std::int32_t>(rng.UniformInt(2, 6))).value());
  };

  for (int i = 0; i < 6; ++i) insert_provider();
  for (int i = 0; i < 50; ++i) insert_customer();

  Metrics totals;
  int warm_resolves = 0;
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);

  for (int e = 0; e < spec.events; ++e) {
    const double r = rng.NextDouble();
    if (r < 0.32) {
      insert_customer();
    } else if (r < 0.52 && !customers.empty()) {
      const std::size_t i = rng.NextBelow(customers.size());
      EXPECT_TRUE(engine.RemoveCustomer(customers[i]));
      customers[i] = customers.back();
      customers.pop_back();
    } else if (r < 0.60) {
      insert_provider();
    } else if (r < 0.68 && providers.size() > 1) {
      const std::size_t i = rng.NextBelow(providers.size());
      EXPECT_TRUE(engine.RemoveProvider(providers[i]));
      providers[i] = providers.back();
      providers.pop_back();
    } else {
      ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);

  // The sequence must actually exercise the warm path, and churn between
  // solves leaves some previous duals infeasible, so the repair pass has
  // real work across the run.
  EXPECT_GT(warm_resolves, 0);
  EXPECT_GT(totals.dual_repairs, 0u);
}

TEST(EngineChurn, UniformUnit) { RunChurn({Dist::kUniform, false, 11, 500}); }
TEST(EngineChurn, UniformWeighted) { RunChurn({Dist::kUniform, true, 12, 500}); }
TEST(EngineChurn, ClusteredUnit) { RunChurn({Dist::kClustered, false, 13, 500}); }
TEST(EngineChurn, ClusteredWeighted) { RunChurn({Dist::kClustered, true, 14, 500}); }
TEST(EngineChurn, SkewedUnit) { RunChurn({Dist::kSkewed, false, 15, 500}); }
TEST(EngineChurn, SkewedWeighted) { RunChurn({Dist::kSkewed, true, 16, 500}); }

TEST(EngineChurn, DegradedResolveIsNotCertifiedAndDoesNotAbort) {
  // Debug builds certify every Resolve that is not degraded and abort when
  // the certificate fails. A degraded outcome is a greedy stop-gap, so it
  // fails the certificate and must not be checked. The first Resolve, a
  // seeded cold 100x20000 solve whose seed phase alone takes well over
  // 100 ms, breaches its 20 ms budget inside a seed level; after most
  // customers leave, the next Resolve fits.
  AssignmentEngine::Options options;
  options.resolve_deadline_ms = 20.0;
  AssignmentEngine engine(options);
  for (const Point& pos : test::RandomPoints(100, 81)) {
    ASSERT_TRUE(engine.InsertProvider(pos, 240).ok());
  }
  std::vector<AssignmentEngine::Id> ids;
  for (const Point& pos : test::RandomPoints(20000, 82)) {
    ids.push_back(engine.InsertCustomer(pos).value());
  }
  const auto degraded = CertifiedResolve(&engine);
  ASSERT_TRUE(degraded.degraded);
  // The breach fired inside a seed level: the seed phase ran, and no
  // customer was adopted because the final warm solve never started.
  EXPECT_GT(degraded.metrics.seed_millis, 0.0);
  EXPECT_EQ(degraded.metrics.warm_units_adopted, 0u);
  EXPECT_FALSE(
      CertifyOptimal(engine.problem(), degraded.matching, engine.potentials()).ok());
  for (std::size_t i = 20; i < ids.size(); ++i) ASSERT_TRUE(engine.RemoveCustomer(ids[i]));
  const auto cold = CertifiedResolve(&engine);
  EXPECT_FALSE(cold.degraded);
  EXPECT_FALSE(cold.warm);
  ASSERT_TRUE(engine.InsertCustomer(Point{500.0, 500.0}).ok());
  const auto warm = CertifiedResolve(&engine);
  EXPECT_FALSE(warm.degraded);
  EXPECT_TRUE(warm.warm);
  EXPECT_EQ(engine.stats().degraded_resolves, 1u);
}

// Asserts the outcome's unassigned ledger is the exact per-customer
// complement of its matching and sums to max(0, demand - capacity).
void ExpectExactLedger(const AssignmentEngine& engine,
                       const AssignmentEngine::ResolveOutcome& out) {
  const Problem& problem = engine.problem();
  std::int64_t total_weight = 0, total_capacity = 0;
  for (std::size_t p = 0; p < problem.customers.size(); ++p) total_weight += problem.weight(p);
  for (const Provider& q : problem.providers) total_capacity += q.capacity;
  const std::int64_t overflow = std::max<std::int64_t>(0, total_weight - total_capacity);
  EXPECT_EQ(out.unassigned_units, overflow);
  const auto loads = out.matching.CustomerLoads(problem.customers.size());
  std::int64_t ledger_sum = 0;
  for (const UnassignedUnit& u : out.unassigned) {
    ASSERT_GE(u.customer, 0);
    ASSERT_LT(static_cast<std::size_t>(u.customer), problem.customers.size());
    EXPECT_GT(u.units, 0);
    EXPECT_EQ(loads[static_cast<std::size_t>(u.customer)] + u.units,
              problem.weight(static_cast<std::size_t>(u.customer)))
        << "customer " << u.customer;
    ledger_sum += u.units;
  }
  EXPECT_EQ(ledger_sum, overflow);
}

TEST(EngineChurn, CapacityExhaustionPhasesCrossFeasibilityBoundary) {
  // Drives the engine across the feasibility boundary in both directions:
  // feasible -> infeasible (customer arrivals exhaust capacity) ->
  // feasible again (departures free it). Every Resolve must stay
  // warm/cold cost-identical — the virtual overflow provider's capacity
  // equals the overflow exactly, so the real sub-matching is the min-cost
  // partial optimum on both sides — and the unassigned ledger must be the
  // exact complement of the matching in every phase.
  AssignmentEngine engine;
  Rng rng(271);
  const auto q_pts = test::RandomPoints(4, 61);
  const auto p_pts = test::RandomPoints(64, 62);
  for (const auto& q : q_pts) ASSERT_TRUE(engine.InsertProvider(q, 5).ok());  // capacity 20
  std::vector<AssignmentEngine::Id> ids;
  std::size_t next = 0;
  Metrics totals;
  int warm_resolves = 0;

  // Phase 1: feasible (12 < 20). Nothing unassigned.
  for (int i = 0; i < 12; ++i) ids.push_back(engine.InsertCustomer(p_pts[next++]).value());
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
  {
    const auto out = CertifiedResolve(&engine);
    EXPECT_FALSE(out.degraded);
    EXPECT_TRUE(out.unassigned.empty());
    ExpectExactLedger(engine, out);
  }

  // Phase 2: infeasible (22 > 20), deepening across several resolves.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) ids.push_back(engine.InsertCustomer(p_pts[next++]).value());
    ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
    if (::testing::Test::HasFatalFailure()) return;
    const auto out = CertifiedResolve(&engine);
    EXPECT_FALSE(out.degraded);
    EXPECT_FALSE(out.unassigned.empty());
    ExpectExactLedger(engine, out);
  }

  // Phase 3: back to feasible; the ledger empties again and the warm
  // start (seeded across the boundary) still matches cold.
  while (ids.size() > 15) {
    const std::size_t i = rng.NextBelow(ids.size());
    ASSERT_TRUE(engine.RemoveCustomer(ids[i]));
    ids[i] = ids.back();
    ids.pop_back();
  }
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
  {
    const auto out = CertifiedResolve(&engine);
    EXPECT_FALSE(out.degraded);
    EXPECT_TRUE(out.unassigned.empty());
    ExpectExactLedger(engine, out);
  }
  EXPECT_GT(warm_resolves, 0);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.deadline_breaches, 0u);
  EXPECT_EQ(stats.degraded_resolves, 0u);
  EXPECT_GT(stats.unassigned_units, 0u);  // the infeasible phase was real
}

TEST(EngineChurn, DeadlineBreachDegradesWithoutCrashing) {
  // An unmeetable Resolve budget must never crash or stall: every Resolve
  // comes back degraded with a valid capacity-respecting matching (the
  // greedy patch still places exactly gamma units, so ValidateMatching
  // holds) and an exact ledger, and the engine keeps serving across
  // further churn.
  AssignmentEngine::Options options;
  options.resolve_deadline_ms = 1e-7;  // breaches before the solver starts
  AssignmentEngine engine(options);
  const auto q_pts = test::RandomPoints(5, 71);
  const auto p_pts = test::RandomPoints(40, 72);
  for (const auto& q : q_pts) ASSERT_TRUE(engine.InsertProvider(q, 4).ok());
  std::vector<AssignmentEngine::Id> ids;
  for (const auto& p : p_pts) ids.push_back(engine.InsertCustomer(p).value());

  for (int round = 0; round < 3; ++round) {
    const auto out = CertifiedResolve(&engine);
    EXPECT_TRUE(out.degraded);
    std::string error;
    EXPECT_TRUE(ValidateMatching(engine.problem(), out.matching, &error)) << error;
    ExpectExactLedger(engine, out);
    ASSERT_TRUE(engine.RemoveCustomer(ids.back()));
    ids.pop_back();
  }
  const auto stats = engine.stats();
  EXPECT_EQ(stats.resolves, 3u);
  EXPECT_EQ(stats.deadline_breaches, 3u);
  EXPECT_EQ(stats.degraded_resolves, 3u);

  // A generous budget on the same workload never degrades and produces
  // the true optimum (the deadline path is strictly opt-in).
  AssignmentEngine::Options relaxed;
  relaxed.resolve_deadline_ms = 60'000.0;
  AssignmentEngine reference(relaxed);
  for (const auto& q : q_pts) ASSERT_TRUE(reference.InsertProvider(q, 4).ok());
  for (std::size_t p = 0; p + 3 < p_pts.size(); ++p) {
    ASSERT_TRUE(reference.InsertCustomer(p_pts[p]).ok());
  }
  const auto out = CertifiedResolve(&reference);
  EXPECT_FALSE(out.degraded);
  const SspaResult cold = SolveSspa(reference.problem(), SspaConfig{});
  EXPECT_NEAR(out.cost, cold.matching.cost(), 1e-9 * std::max(1.0, cold.matching.cost()));
  EXPECT_EQ(reference.stats().deadline_breaches, 0u);
}

TEST(EngineChurn, InsertValidationRejectsBadInputAndMutatesNothing) {
  // Boundary validation (the Status contract): non-finite coordinates and
  // non-positive weight/capacity come back kInvalidArgument and leave the
  // engine untouched — the next valid edit and Resolve see clean state.
  AssignmentEngine engine;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(engine.InsertCustomer(Point{nan, 0.0}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.InsertCustomer(Point{0.0, inf}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.InsertCustomer(Point{1.0, 1.0}, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.InsertCustomer(Point{1.0, 1.0}, -3).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.InsertProvider(Point{-inf, 0.0}, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.InsertProvider(Point{1.0, 1.0}, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.num_customers(), 0u);
  EXPECT_EQ(engine.num_providers(), 0u);
  EXPECT_EQ(engine.stats().customers_inserted, 0u);
  EXPECT_EQ(engine.stats().providers_inserted, 0u);

  const auto c = engine.InsertCustomer(Point{1.0, 2.0});
  ASSERT_TRUE(c.ok());
  const auto q = engine.InsertProvider(Point{3.0, 4.0}, 2);
  ASSERT_TRUE(q.ok());
  const auto out = CertifiedResolve(&engine);
  EXPECT_EQ(out.matching.size(), 1);
  EXPECT_TRUE(out.unassigned.empty());
}

TEST(EngineChurn, RemoveUnknownIdReturnsFalse) {
  AssignmentEngine engine;
  const auto c = engine.InsertCustomer(Point{1.0, 2.0}).value();
  const auto q = engine.InsertProvider(Point{3.0, 4.0}, 2).value();
  EXPECT_FALSE(engine.RemoveCustomer(q));   // provider id is not a customer
  EXPECT_FALSE(engine.RemoveProvider(c));   // and vice versa
  EXPECT_TRUE(engine.RemoveCustomer(c));
  EXPECT_FALSE(engine.RemoveCustomer(c));   // ids are never reused
  EXPECT_TRUE(engine.RemoveProvider(q));
  EXPECT_EQ(engine.num_customers(), 0u);
  EXPECT_EQ(engine.num_providers(), 0u);
}

TEST(EngineChurn, StableIdsAcrossSwapRemove) {
  AssignmentEngine engine;
  const auto pts = test::RandomPoints(8, 33);
  std::vector<AssignmentEngine::Id> ids;
  for (const auto& p : pts) ids.push_back(engine.InsertCustomer(p).value());
  ASSERT_TRUE(engine.RemoveCustomer(ids[2]));  // back element swaps into slot 2
  // Every surviving id still maps to its original coordinates.
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i == 2) continue;
    bool found = false;
    for (std::size_t j = 0; j < engine.num_customers(); ++j) {
      if (engine.customer_id(j) == ids[i]) {
        EXPECT_EQ(engine.problem().customers[j].x, pts[i].x);
        EXPECT_EQ(engine.problem().customers[j].y, pts[i].y);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "id " << ids[i];
  }
}

TEST(EngineChurn, WarmStartReducesPopsOnSmallPerturbation) {
  // The performance claim behind the engine: after a small perturbation the
  // warm duals leave most of the previous solution tight, so the re-solve
  // explores far less than a cold solve of the same snapshot.
  AssignmentEngine::Options options;
  AssignmentEngine engine(options);
  const auto q_pts = test::RandomPoints(30, 41);
  const auto p_pts = test::RandomPoints(1500, 42);
  Rng rng(43);
  for (const auto& q : q_pts) {
    ASSERT_TRUE(engine.InsertProvider(q, static_cast<std::int32_t>(rng.UniformInt(60, 80))).ok());
  }
  std::vector<AssignmentEngine::Id> ids;
  for (const auto& p : p_pts) ids.push_back(engine.InsertCustomer(p).value());
  CertifiedResolve(&engine);

  for (int j = 0; j < 3; ++j) {
    const std::size_t i = rng.NextBelow(ids.size());
    ASSERT_TRUE(engine.RemoveCustomer(ids[i]));
    ids[i] = ids.back();
    ids.pop_back();
  }
  for (int j = 0; j < 3; ++j) {
    ids.push_back(engine.InsertCustomer(
        Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)}).value());
  }

  const auto warm = CertifiedResolve(&engine);
  EXPECT_TRUE(warm.warm);
  const SspaResult cold = SolveSspa(engine.problem(), SspaConfig{});
  const double tol = 1e-9 * std::max(1.0, std::abs(cold.matching.cost()));
  EXPECT_NEAR(warm.cost, cold.matching.cost(), tol);
  EXPECT_LT(warm.metrics.dijkstra_pops, cold.metrics.dijkstra_pops);
  EXPECT_LT(warm.metrics.augmentations, cold.metrics.augmentations);
  // Nearly all of the previous flow must survive adoption — that is the
  // mechanism behind the two inequalities above.
  EXPECT_GT(warm.metrics.warm_units_adopted, 1400u);
}

// Fills `engine` with the 30x1500 instance both tests below grow from —
// random providers of capacity 90 (2700 slots) — and solves it once, so
// every later Resolve is warm. Returns that first, cold outcome.
AssignmentEngine::ResolveOutcome SolveDispatchEngine(AssignmentEngine* engine,
                                                     std::uint64_t seed) {
  for (const Point& pos : test::RandomPoints(30, seed)) {
    EXPECT_TRUE(engine->InsertProvider(pos, 90).ok());
  }
  for (const Point& pos : test::RandomPoints(1500, seed + 1)) {
    EXPECT_TRUE(engine->InsertCustomer(pos).ok());
  }
  AssignmentEngine::ResolveOutcome first = CertifiedResolve(engine);
  EXPECT_FALSE(first.warm);
  return first;
}

// One arrival right next to a provider with spare capacity. The spare
// providers share one dual, so the last of them pops after the others.
// Its deficit run starts armed with the arrival's direct path, so each
// provider popped before the sink prunes against that bound from its
// first cell. An unarmed run relaxes the popped providers' neighbourhoods
// unbounded until one of them reaches the arrival: 1408 relaxes here.
TEST(EngineChurn, ArrivalNextToSpareProviderRelaxesLittle) {
  AssignmentEngine engine;
  const auto loads = SolveDispatchEngine(&engine, 51).matching.ProviderLoads(engine.num_providers());
  std::size_t spare = engine.num_providers();
  for (std::size_t q = 0; q < engine.num_providers(); ++q) {
    if (loads[q] < engine.problem().providers[q].capacity) spare = q;
  }
  ASSERT_LT(spare, engine.num_providers());
  const Point at = engine.problem().providers[spare].pos;
  ASSERT_TRUE(engine.InsertCustomer(Point{at.x + 0.5, at.y - 0.5}).ok());
  const auto warm = CertifiedResolve(&engine);
  ASSERT_TRUE(warm.warm);
  const double cold = ColdCost(engine.problem());
  EXPECT_NEAR(warm.cost, cold, 1e-9 * std::max(1.0, cold));
  EXPECT_EQ(warm.metrics.warm_units_adopted, 1500u);
  EXPECT_LE(warm.metrics.dijkstra_relaxes, 10u) << warm.metrics.ToString();
}

// A burst of 1000 arrivals onto a solved 30x1500 engine: one warm Resolve
// routes the whole deficit, its lazy seed heap re-evaluating stale entries
// as providers fill, and still matches cold with certified duals.
TEST(EngineChurn, ThousandArrivalsMatchCold) {
  AssignmentEngine engine;
  SolveDispatchEngine(&engine, 53);
  for (const Point& pos : test::ClusteredPoints(1000, 55)) {
    ASSERT_TRUE(engine.InsertCustomer(pos).ok());
  }
  const auto warm = CertifiedResolve(&engine);
  ASSERT_TRUE(warm.warm);
  EXPECT_TRUE(warm.unassigned.empty());
  const double cold = ColdCost(engine.problem());
  EXPECT_NEAR(warm.cost, cold, 1e-9 * std::max(1.0, cold));
}

// A provider arrival's dual is the solver's to derive: the engine seeds it
// at +infinity, and the next Resolve's clamp pass sets it to the largest
// feasible value over the current, tightened customer duals. A customer
// inserted after the arrival must not read that +infinity (its seed would
// be infinite and the warm solve would never end).
TEST(EngineChurn, ProviderArrivalDualIsDerivedBySolver) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  AssignmentEngine engine;
  Rng rng(61);
  std::vector<AssignmentEngine::Id> customers;
  for (const Point& pos : test::RandomPoints(8, 62)) {
    ASSERT_TRUE(engine.InsertProvider(pos, static_cast<std::int32_t>(rng.UniformInt(30, 45))).ok());
  }
  for (const Point& pos : test::ClusteredPoints(300, 63)) {
    customers.push_back(engine.InsertCustomer(pos).value());
  }
  // Before the first solve every dual seeds at zero.
  ASSERT_EQ(engine.potentials().tau_q.back(), 0.0);
  Metrics totals;
  int warm_resolves = 0;
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
  const auto& tau_p = engine.potentials().tau_p;
  // Capacity pressure leaves positive customer duals: the derived dual is
  // not the plain nearest-neighbour distance.
  ASSERT_GT(*std::max_element(tau_p.begin(), tau_p.end()), 0.0);

  const std::vector<Point> arrivals = {Point{500.0, 500.0}, Point{120.0, 880.0},
                                       Point{-300.0, 1400.0}};
  for (const Point& pos : arrivals) {
    ASSERT_TRUE(engine.InsertProvider(pos, 3).ok());
    EXPECT_EQ(engine.potentials().tau_q.back(), kInf);
    // Arrives after the provider, right next to it.
    customers.push_back(engine.InsertCustomer(Point{pos.x + 1.0, pos.y - 1.0}).value());
    ASSERT_TRUE(std::isfinite(engine.potentials().tau_p.back()));
  }
  ASSERT_TRUE(engine.RemoveCustomer(customers.front()));
  customers.erase(customers.begin());
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
  EXPECT_EQ(warm_resolves, 1);
  EXPECT_GE(totals.dual_repairs, arrivals.size());

  // Every customer gone: an arrival has nothing to derive its dual
  // against, and the warm solve over zero customers completes.
  for (const AssignmentEngine::Id id : customers) ASSERT_TRUE(engine.RemoveCustomer(id));
  ASSERT_TRUE(engine.InsertProvider(Point{400.0, 300.0}, 3).ok());
  const auto empty = CertifiedResolve(&engine);
  EXPECT_TRUE(empty.warm);
  EXPECT_EQ(empty.cost, 0.0);
  EXPECT_TRUE(empty.matching.pairs.empty());
  // The next customer seeds finite against the providers that have duals,
  // and the following Resolve derives the missing one.
  ASSERT_TRUE(engine.InsertCustomer(Point{410.0, 300.0}).ok());
  ASSERT_TRUE(std::isfinite(engine.potentials().tau_p.back()));
  ExpectResolveMatchesCold(&engine, &totals, &warm_resolves);
}

// One certified warm Resolve after churn, checked against a cold solve of
// the same snapshot.
AssignmentEngine::ResolveOutcome ExpectWarmResolveMatchesCold(AssignmentEngine* engine) {
  AssignmentEngine::ResolveOutcome warm = CertifiedResolve(engine);
  EXPECT_TRUE(warm.warm);
  const double cold = ColdCost(engine->problem());
  EXPECT_NEAR(warm.cost, cold, 1e-9 * std::max(1.0, cold));
  return warm;
}

// Departures at full providers plus arrivals: the deficit runs meet the
// cycles the freed slots open and cancel them where they pop the closing
// provider, so the certificate pass exits on its O(|Q|) test without a
// Dijkstra run of its own — every run augments. Cancelling only in the
// certificate pass costs one more run here, which finds no cycle.
TEST(EngineChurn, DeparturesAndArrivalsCancelCyclesInDeficitRuns) {
  AssignmentEngine engine;
  const auto solved = SolveDispatchEngine(&engine, 57);
  const auto loads = solved.matching.ProviderLoads(engine.num_providers());
  std::vector<AssignmentEngine::Id> gone;
  for (const MatchPair& pair : solved.matching.pairs) {
    const auto q = static_cast<std::size_t>(pair.provider);
    if (gone.size() < 3 && loads[q] == engine.problem().providers[q].capacity) {
      gone.push_back(engine.customer_id(static_cast<std::size_t>(pair.customer)));
    }
  }
  ASSERT_EQ(gone.size(), 3u) << "too few customers at full providers";
  for (const AssignmentEngine::Id id : gone) ASSERT_TRUE(engine.RemoveCustomer(id));
  for (const Point& pos : test::RandomPoints(8, 64)) {
    ASSERT_TRUE(engine.InsertCustomer(pos).ok());
  }
  const auto warm = ExpectWarmResolveMatchesCold(&engine);
  EXPECT_GT(warm.metrics.source_cycles_cancelled, 0u) << warm.metrics.ToString();
  EXPECT_EQ(warm.metrics.dijkstra_runs, warm.metrics.augmentations) << warm.metrics.ToString();
}

// Dispatch-like churn on a clustered 30x1500 engine: each window brings a
// few arrivals and as many departures, now and then a provider arrival.
// A Resolve whose Dijkstra runs outnumber its augmentations paid for a
// run that found neither a path nor a cycle; with cycles cancelled where
// the deficit runs meet them, at most one Resolve in ten may do so
// (cancelling in the certificate pass alone did on 19 of 20 windows).
TEST(EngineChurn, DispatchChurnRarelyRunsAnIdleDijkstra) {
  constexpr int kWindows = 20;
  Rng rng(71);
  const auto customer_pool = test::ClusteredPoints(4500, 72);
  const auto provider_pool = test::ClusteredPoints(60, 73);
  std::size_t next_customer = 0, next_provider = 0;
  AssignmentEngine engine;
  std::vector<AssignmentEngine::Id> ids;
  for (int q = 0; q < 30; ++q) {
    ASSERT_TRUE(engine.InsertProvider(provider_pool[next_provider++], 80).ok());
  }
  for (int p = 0; p < 1500; ++p) {
    ids.push_back(engine.InsertCustomer(customer_pool[next_customer++]).value());
  }
  CertifiedResolve(&engine);
  int idle = 0;
  std::uint64_t cycles = 0;
  for (int w = 0; w < kWindows; ++w) {
    const auto churn = rng.UniformInt(3, 12);
    for (std::int64_t a = 0; a < churn; ++a) {
      const Point& pos = customer_pool[next_customer++ % customer_pool.size()];
      ids.push_back(engine.InsertCustomer(pos).value());
    }
    for (std::int64_t d = 0; d < churn; ++d) {
      const std::size_t i = rng.NextBelow(ids.size());
      ASSERT_TRUE(engine.RemoveCustomer(ids[i]));
      ids[i] = ids.back();
      ids.pop_back();
    }
    if (rng.NextDouble() < 0.05) {
      const Point& pos = provider_pool[next_provider++ % provider_pool.size()];
      ASSERT_TRUE(engine.InsertProvider(pos, 80).ok());
    }
    const auto out = CertifiedResolve(&engine);
    ASSERT_TRUE(out.warm);
    if (out.metrics.dijkstra_runs > out.metrics.augmentations) ++idle;
    cycles += out.metrics.source_cycles_cancelled;
  }
  EXPECT_GT(cycles, 0u);
  EXPECT_LE(idle, kWindows / 10);
  const double cold = ColdCost(engine.problem());
  EXPECT_NEAR(CertifiedResolve(&engine).cost, cold, 1e-9 * std::max(1.0, cold));
}

// An infeasible engine (demand above capacity) under departures and
// arrivals: the warm solve routes the overflow to its virtual provider
// while its deficit runs cancel the source cycles they meet. The ledger
// stays the exact overflow and the cost matches cold.
TEST(EngineChurn, OverflowDeficitRunsCancelCyclesAndKeepExactLedger) {
  Rng rng(52);
  AssignmentEngine engine;
  std::vector<AssignmentEngine::Id> ids;
  for (const Point& pos : test::RandomPoints(6, 4)) {
    ASSERT_TRUE(
        engine.InsertProvider(pos, static_cast<std::int32_t>(rng.UniformInt(4, 8))).ok());
  }
  for (const Point& pos : test::RandomPoints(60, 5)) {
    ids.push_back(engine.InsertCustomer(pos).value());
  }
  CertifiedResolve(&engine);
  for (int d = 0; d < 4; ++d) {
    const std::size_t i = rng.NextBelow(ids.size());
    ASSERT_TRUE(engine.RemoveCustomer(ids[i]));
    ids[i] = ids.back();
    ids.pop_back();
  }
  for (const Point& pos : test::RandomPoints(4, 400)) {
    ASSERT_TRUE(engine.InsertCustomer(pos).ok());
  }
  const Problem& problem = engine.problem();
  ASSERT_GT(problem.TotalWeight(), problem.TotalCapacity());
  const auto warm = ExpectWarmResolveMatchesCold(&engine);
  EXPECT_GT(warm.metrics.source_cycles_cancelled, 0u) << warm.metrics.ToString();
  EXPECT_EQ(warm.metrics.dijkstra_runs, warm.metrics.augmentations) << warm.metrics.ToString();
  EXPECT_EQ(warm.unassigned_units, problem.TotalWeight() - problem.Gamma());
  const auto loads = warm.matching.CustomerLoads(problem.customers.size());
  std::int64_t ledger = 0;
  for (const UnassignedUnit& u : warm.unassigned) {
    EXPECT_EQ(loads[static_cast<std::size_t>(u.customer)] + u.units,
              problem.weight(static_cast<std::size_t>(u.customer)));
    ledger += u.units;
  }
  EXPECT_EQ(ledger, problem.TotalWeight() - problem.Gamma());
}

// The kept solve index (src/runtime/README.md, "Lifecycle"): a warm engine
// keeps its grid layout and one ring walk per provider across Resolves.
// Every Resolve below is still checked against a cold solve with feasible
// duals; the stats show which rule fired.

// Two customer clumps in opposite corners of [0, 1000]^2 with an empty
// middle, and providers spread between them. At the default size the
// middle coarse cells of the layout hold no customer.
AssignmentEngine TwoClumpEngine(std::vector<AssignmentEngine::Id>* customers,
                                std::vector<AssignmentEngine::Id>* providers,
                                int num_customers = 1200) {
  AssignmentEngine engine;
  Rng rng(404);
  for (int q = 0; q < 8; ++q) {
    providers->push_back(
        engine.InsertProvider(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)}, 200)
            .value());
  }
  for (int p = 0; p < num_customers; ++p) {
    const double base = p % 2 == 0 ? 0.0 : 900.0;
    customers->push_back(
        engine.InsertCustomer(Point{base + rng.Uniform(0.0, 100.0), base + rng.Uniform(0.0, 100.0)})
            .value());
  }
  return engine;
}

TEST(EngineChurn, ArrivalOutsideTheLayoutLaysTheGridOutAgain) {
  std::vector<AssignmentEngine::Id> customers, providers;
  AssignmentEngine engine = TwoClumpEngine(&customers, &providers);
  Metrics totals;
  int warm = 0;
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  EXPECT_EQ(engine.stats().layout_rebuilds, 1u);
  // Inside the bootstrap bounding box: re-bucketed into the kept layout.
  ASSERT_TRUE(engine.InsertCustomer(Point{50.0, 60.0}).ok());
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  EXPECT_EQ(engine.stats().layout_rebuilds, 1u);
  // Outside it: Lattice::Locate would clamp the point into an edge cell
  // whose MinDist does not bound it, so the grid is laid out again.
  ASSERT_TRUE(engine.InsertCustomer(Point{1400.0, 1250.0}).ok());
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  EXPECT_EQ(engine.stats().layout_rebuilds, 2u);
  // The new layout covers the arrival; nearby arrivals keep it.
  ASSERT_TRUE(engine.InsertCustomer(Point{1390.0, 1240.0}).ok());
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  EXPECT_EQ(engine.stats().layout_rebuilds, 2u);
  EXPECT_EQ(warm, 3);
}

TEST(EngineChurn, ArrivalInAnEmptyCellKeepsTheWalks) {
  std::vector<AssignmentEngine::Id> customers, providers;
  AssignmentEngine engine = TwoClumpEngine(&customers, &providers);
  Metrics totals;
  int warm = 0;
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  // The empty middle is inside the layout's bounding box but in a cell no
  // customer occupied at layout time. The kept walks list every cell of
  // the layout, so the arrival is re-bucketed and served by them.
  ASSERT_TRUE(engine.InsertCustomer(Point{500.0, 480.0}).ok());
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  EXPECT_EQ(engine.stats().layout_rebuilds, 1u);
  // The walks survived: a Resolve without churn builds no walk cell.
  const AssignmentEngine::ResolveOutcome out = CertifiedResolve(&engine);
  EXPECT_TRUE(out.warm);
  EXPECT_EQ(out.metrics.walk_cells_built, 0u);
  // The cell empties and fills again, still on the same layout.
  ASSERT_TRUE(engine.RemoveCustomer(customers[0]));
  ASSERT_TRUE(engine.InsertCustomer(Point{500.0, 480.0}).ok());
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  EXPECT_EQ(engine.stats().layout_rebuilds, 1u);
  EXPECT_EQ(warm, 2);
}

TEST(EngineChurn, ProviderChurnKeepsEachWalkWithItsProvider) {
  // Fifty Resolves, each after a departure from the middle of the provider
  // array (a swap-remove that moves the last walk into the hole), a
  // provider arrival and customer churn onto resident positions. Debug
  // builds assert that every lent walk sits at its provider's position; a
  // misaligned walk would prune against the wrong query and miss the cold
  // cost.
  std::vector<AssignmentEngine::Id> customers, providers;
  AssignmentEngine engine = TwoClumpEngine(&customers, &providers, 300);
  Rng rng(405);
  Metrics totals;
  int warm = 0;
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  for (int round = 0; round < 50; ++round) {
    const std::size_t middle = engine.num_providers() / 2;
    ASSERT_TRUE(engine.RemoveProvider(engine.provider_id(middle)));
    ASSERT_TRUE(engine.InsertProvider(Point{rng.Uniform(0.0, 1000.0), rng.Uniform(0.0, 1000.0)},
                                      static_cast<std::int32_t>(rng.UniformInt(180, 220)))
                    .ok());
    for (int j = 0; j < 3; ++j) {
      const std::size_t i = rng.NextBelow(customers.size());
      ASSERT_TRUE(engine.RemoveCustomer(customers[i]));
      customers[i] = customers.back();
      customers.pop_back();
      const Point resident =
          engine.problem().customers[rng.NextBelow(engine.num_customers())];
      customers.push_back(engine.InsertCustomer(resident).value());
    }
    ExpectResolveMatchesCold(&engine, &totals, &warm);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(warm, 50);
  // The walks lived through every swap-remove: no re-layout.
  EXPECT_EQ(engine.stats().layout_rebuilds, 1u);
}

TEST(EngineChurn, RepeatedResolveWithoutChurnBuildsNoWalkCells) {
  std::vector<AssignmentEngine::Id> customers, providers;
  AssignmentEngine engine = TwoClumpEngine(&customers, &providers);
  Metrics totals;
  int warm = 0;
  const AssignmentEngine::ResolveOutcome first = CertifiedResolve(&engine);
  EXPECT_GT(first.metrics.walk_cells_built, 0u);
  ASSERT_TRUE(engine.RemoveCustomer(customers[5]));
  ASSERT_TRUE(engine.InsertProvider(Point{500.0, 500.0}, 10).ok());
  ExpectResolveMatchesCold(&engine, &totals, &warm);
  for (int repeat = 0; repeat < 2; ++repeat) {
    const AssignmentEngine::ResolveOutcome out = CertifiedResolve(&engine);
    EXPECT_TRUE(out.warm);
    EXPECT_EQ(out.metrics.walk_cells_built, 0u) << "repeat " << repeat;
    EXPECT_EQ(out.metrics.warm_units_adopted, 1199u) << "repeat " << repeat;
    // The Resolve before left duals that already meet the source
    // condition, so the certificate pass exits without a run.
    EXPECT_EQ(out.metrics.dijkstra_runs, 0u) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace cca
