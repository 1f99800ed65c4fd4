// Soundness gate for the hierarchical ring relax (geo/hier_grid.h): SSPA
// on the two-level grid and the index-free reference scan must produce the
// *same trajectory* — matching cost, Dijkstra pops (up to boundary ties)
// and augmentation count all agree — because every coarse, fine and
// per-lane rejection only ever discards relaxes certified irrelevant
// (coarse floor <= every resident tau, fine floor likewise). Randomized
// across distributions (uniform / clustered / skewed) and unit and weighted
// customers; the grid's shape (split threshold) and its provenance (a
// SharedIndex-borrowed grid) must not matter either.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.h"
#include "flow/sspa.h"
#include "geo/hier_grid.h"
#include "runtime/query_runner.h"
#include "test_util.h"

namespace cca {
namespace {

SspaResult Solve(const Problem& problem, bool use_grid) {
  SspaConfig config;
  config.use_grid = use_grid;
  return SolveSspa(problem, config);
}

std::uint64_t PopGap(const SspaResult& a, const SspaResult& b) {
  return a.metrics.dijkstra_pops > b.metrics.dijkstra_pops
             ? a.metrics.dijkstra_pops - b.metrics.dijkstra_pops
             : b.metrics.dijkstra_pops - a.metrics.dijkstra_pops;
}

// Identical trajectory: cost within float tolerance, augmentation count
// exactly equal, pops equal up to boundary ties. (Every Dijkstra run ends
// by popping the path's final customer and then the sink at the same key,
// and zero-reduced-cost arcs after potential updates routinely put more
// nodes at exactly that key; which of those tied nodes the binary heap
// surfaces before the sink depends on insertion history, which
// legitimately differs between coarse-first ring enumeration and the
// reference's index order. Labels strictly below the path distance — and
// hence the matching and the augmentation structure — are
// enumeration-order independent, which is what the bounds' soundness
// argument certifies. Relax counts may drift further and are not
// compared: the order shifts *which* certified-irrelevant candidates get
// bound-checked, never the labels.)
void ExpectSameTrajectory(const SspaResult& got, const SspaResult& reference,
                          const std::string& tag) {
  EXPECT_NEAR(got.matching.cost(), reference.matching.cost(),
              1e-6 * std::max(1.0, reference.matching.cost()))
      << tag;
  // At most a handful of tie pops per Dijkstra run; one run per
  // augmentation bounds the total drift.
  EXPECT_LE(PopGap(got, reference), reference.metrics.augmentations) << tag;
  EXPECT_EQ(got.metrics.augmentations, reference.metrics.augmentations) << tag;
}

void ExpectMatchesReference(const Problem& problem, const std::string& label) {
  const SspaResult hier = Solve(problem, /*use_grid=*/true);
  const SspaResult reference = Solve(problem, /*use_grid=*/false);
  std::string error;
  EXPECT_TRUE(ValidateMatching(problem, hier.matching, &error)) << label << ": " << error;
  ExpectSameTrajectory(hier, reference, label);
  // The hierarchy actually engaged (it is not equivalence-by-vacuity), and
  // the reference never touches it.
  if (problem.customers.size() > 1) {
    EXPECT_GT(hier.metrics.coarse_cells_descended + hier.metrics.coarse_tails_pruned, 0u)
        << label;
    EXPECT_EQ(reference.metrics.coarse_cells_descended, 0u) << label;
    EXPECT_EQ(reference.metrics.coarse_tails_pruned, 0u) << label;
    EXPECT_EQ(reference.metrics.hier_splits, 0u) << label;
  }
}

Problem MakeInstance(const char* dist, std::size_t nq, std::size_t np, bool weighted,
                     std::uint64_t seed) {
  Problem problem;
  const auto q_pts = test::RandomPoints(nq, seed * 7 + 1);
  Rng rng(seed * 31 + 3);
  problem.providers.reserve(nq);
  for (const auto& pos : q_pts) {
    problem.providers.push_back(
        Provider{pos, static_cast<std::int32_t>(rng.UniformInt(2, 8))});
  }
  if (std::string(dist) == "clustered") {
    problem.customers = test::ClusteredPoints(np, seed * 13 + 2);
  } else if (std::string(dist) == "skewed") {
    problem.customers = test::SkewedPoints(np, seed * 13 + 2);
  } else {
    problem.customers = test::RandomPoints(np, seed * 13 + 2);
  }
  if (weighted) {
    problem.weights.resize(np);
    for (auto& w : problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 4));
  }
  return problem;
}

TEST(SspaHierEquivalence, RandomizedAcrossDistributionsAndWeights) {
  for (const char* dist : {"uniform", "clustered", "skewed"}) {
    for (const bool weighted : {false, true}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Problem problem = MakeInstance(dist, 6 + seed, 120 + 60 * seed, weighted, seed);
        ExpectMatchesReference(problem, std::string(dist) + (weighted ? " weighted" : " unit") +
                                            " seed " + std::to_string(seed));
      }
    }
  }
}

TEST(SspaHierEquivalence, SplitThresholdVariantsAgree) {
  // The split policy only redistributes points between fine cells; any
  // threshold (including "never split") must leave the trajectory alone.
  const Problem problem = MakeInstance("skewed", 8, 400, /*weighted=*/true, 5);
  const SspaResult reference = Solve(problem, /*use_grid=*/false);
  for (const std::size_t threshold : {1u, 64u, 100000u}) {
    HierarchicalGrid::Options options;
    options.split_threshold = threshold;
    const HierarchicalGrid grid(problem.customers, options);
    SspaConfig config;
    config.shared_hier_grid = &grid;
    const SspaResult got = SolveSspa(problem, config);
    ExpectSameTrajectory(got, reference, "threshold " + std::to_string(threshold));
    EXPECT_EQ(got.metrics.hier_splits, grid.splits()) << "threshold " << threshold;
  }
}

TEST(SspaHierEquivalence, SharedIndexInjectionMatchesPrivateBuild) {
  // A solve borrowing the SharedIndex's hierarchical grid must be
  // bit-identical to one building its own (same counters included — the
  // borrowed structure is the same structure).
  const Problem problem = MakeInstance("skewed", 8, 300, /*weighted=*/false, 9);
  SharedIndex::Options options;
  options.build_customer_db = false;
  const SharedIndex index(problem.customers, options);
  QueryRunner runner(&index, 1);
  QuerySpec spec;
  spec.solver = QuerySolver::kSspa;
  spec.problem = problem;
  const QueryOutcome outcome = runner.Run({spec}).front();
  const SspaResult direct = SolveSspa(problem, spec.sspa);
  EXPECT_NEAR(outcome.matching.cost(), direct.matching.cost(),
              1e-9 * std::max(1.0, direct.matching.cost()));
  EXPECT_EQ(outcome.metrics.dijkstra_pops, direct.metrics.dijkstra_pops);
  EXPECT_EQ(outcome.metrics.dijkstra_relaxes, direct.metrics.dijkstra_relaxes);
  EXPECT_EQ(outcome.metrics.coarse_tails_pruned, direct.metrics.coarse_tails_pruned);
  EXPECT_EQ(outcome.metrics.coarse_cells_descended, direct.metrics.coarse_cells_descended);
  EXPECT_EQ(outcome.metrics.hier_splits, direct.metrics.hier_splits);
}

}  // namespace
}  // namespace cca
