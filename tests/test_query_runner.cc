// Concurrent query engine tests (src/runtime/query_runner.h).
//
// The engine's contract is determinism: a batch's outcomes are identical
// at any thread count, and identical to calling the solvers directly —
// concurrency buys throughput, never different answers. Page faults are
// the one exception on R-tree-backed queries (the shared LRU sees a
// different interleaving), so those comparisons skip the fault ledger;
// grid-backed queries never touch the pool and must match it exactly.
// Plus raw concurrent-cursor stress: many threads draining grid cursors /
// R-tree NN iterators over one shared index must each see exactly the
// serial answer stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/greedy.h"
#include "flow/sspa.h"
#include "geo/grid.h"
#include "geo/grid_cursor.h"
#include "rtree/nn_iterator.h"
#include "rtree/rtree.h"
#include "runtime/query_runner.h"
#include "test_util.h"

namespace cca {
namespace {

bool UsesRTree(const QuerySpec& spec) {
  return spec.solver != QuerySolver::kSspa &&
         spec.exact.discovery_backend != DiscoveryBackend::kGrid &&
         spec.exact.discovery_backend != DiscoveryBackend::kGridBatched;
}

// A mixed batch over `customers`: every solver, both grid and R-tree
// discovery, distinct provider fleets.
std::vector<QuerySpec> MixedBatch(const std::vector<Point>& customers) {
  const struct {
    QuerySolver solver;
    DiscoveryBackend backend;
  } mix[] = {
      {QuerySolver::kIda, DiscoveryBackend::kGrid},
      {QuerySolver::kIda, DiscoveryBackend::kGridBatched},
      {QuerySolver::kIda, DiscoveryBackend::kRTreeGrouped},
      {QuerySolver::kNia, DiscoveryBackend::kGrid},
      {QuerySolver::kRia, DiscoveryBackend::kGrid},
      {QuerySolver::kGreedy, DiscoveryBackend::kGrid},
      {QuerySolver::kSspa, DiscoveryBackend::kGrid},
      {QuerySolver::kIda, DiscoveryBackend::kGrid},
      {QuerySolver::kNia, DiscoveryBackend::kGridBatched},
  };
  std::vector<QuerySpec> batch;
  std::uint64_t seed = 40;
  for (const auto& m : mix) {
    QuerySpec spec;
    spec.solver = m.solver;
    spec.exact.discovery_backend = m.backend;
    spec.problem.customers = customers;
    Rng rng(++seed);
    for (const Point& pos : test::RandomPoints(7, seed * 11 + 1)) {
      spec.problem.providers.push_back(
          Provider{pos, static_cast<std::int32_t>(rng.UniformInt(2, 6))});
    }
    batch.push_back(std::move(spec));
  }
  return batch;
}

void ExpectOutcomesIdentical(const std::vector<QuerySpec>& batch,
                             const std::vector<QueryOutcome>& a,
                             const std::vector<QueryOutcome>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = label + " query " + std::to_string(i);
    EXPECT_EQ(a[i].matching.cost(), b[i].matching.cost()) << at;  // bit-identical
    EXPECT_EQ(a[i].matching.size(), b[i].matching.size()) << at;
    EXPECT_EQ(a[i].metrics.dijkstra_pops, b[i].metrics.dijkstra_pops) << at;
    EXPECT_EQ(a[i].metrics.dijkstra_relaxes, b[i].metrics.dijkstra_relaxes) << at;
    EXPECT_EQ(a[i].metrics.augmentations, b[i].metrics.augmentations) << at;
    EXPECT_EQ(a[i].metrics.edges_inserted, b[i].metrics.edges_inserted) << at;
    EXPECT_EQ(a[i].metrics.nn_searches, b[i].metrics.nn_searches) << at;
    if (!UsesRTree(batch[i])) {
      // Grid queries never touch the shared LRU: the whole I/O ledger is
      // reproducible, faults included.
      EXPECT_EQ(a[i].metrics.page_faults, b[i].metrics.page_faults) << at;
      EXPECT_EQ(a[i].metrics.index_node_accesses, b[i].metrics.index_node_accesses) << at;
      EXPECT_EQ(a[i].metrics.grid_cursor_cells, b[i].metrics.grid_cursor_cells) << at;
    } else {
      // R-tree traversal order is deterministic even if fault counts are
      // not: logical node accesses must match.
      EXPECT_EQ(a[i].metrics.node_accesses, b[i].metrics.node_accesses) << at;
    }
  }
}

TEST(QueryRunnerTest, ThreadCountNeverChangesAnswers) {
  const std::vector<Point> customers = test::RandomPoints(600, 77);
  const std::vector<QuerySpec> batch = MixedBatch(customers);
  SharedIndex index(customers);

  QueryRunner serial(&index, 1);
  const std::vector<QueryOutcome> base = serial.Run(batch);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    QueryRunner runner(&index, threads);
    ExpectOutcomesIdentical(batch, base, runner.Run(batch),
                            std::to_string(threads) + " threads");
    // Re-running on the same pool must be stable too (workers park and
    // wake across batches).
    ExpectOutcomesIdentical(batch, base, runner.Run(batch),
                            std::to_string(threads) + " threads rerun");
  }
}

TEST(QueryRunnerTest, MatchesDirectSolverCalls) {
  const std::vector<Point> customers = test::RandomPoints(500, 9);
  const std::vector<QuerySpec> batch = MixedBatch(customers);
  SharedIndex index(customers);
  QueryRunner runner(&index, 4);
  const std::vector<QueryOutcome> outcomes = runner.Run(batch);

  // Direct calls with private per-solve state (own CustomerDb, own grids):
  // the runner's shared-index injection must be invisible in the results.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const QuerySpec& spec = batch[i];
    auto db = std::make_unique<CustomerDb>(customers, CustomerDb::Options{});
    Matching direct;
    Metrics direct_metrics;
    if (spec.solver == QuerySolver::kSspa) {
      SspaResult r = SolveSspa(spec.problem, spec.sspa);
      direct = std::move(r.matching);
      direct_metrics = r.metrics;
    } else {
      ExactResult r;
      switch (spec.solver) {
        case QuerySolver::kRia: r = SolveRia(spec.problem, db.get(), spec.exact); break;
        case QuerySolver::kNia: r = SolveNia(spec.problem, db.get(), spec.exact); break;
        case QuerySolver::kGreedy: r = SolveGreedySm(spec.problem, db.get(), spec.exact); break;
        default: r = SolveIda(spec.problem, db.get(), spec.exact); break;
      }
      direct = std::move(r.matching);
      direct_metrics = r.metrics;
    }
    const std::string at = "query " + std::to_string(i);
    EXPECT_EQ(direct.cost(), outcomes[i].matching.cost()) << at;
    EXPECT_EQ(direct_metrics.dijkstra_pops, outcomes[i].metrics.dijkstra_pops) << at;
    EXPECT_EQ(direct_metrics.augmentations, outcomes[i].metrics.augmentations) << at;
    EXPECT_EQ(direct_metrics.dijkstra_relaxes, outcomes[i].metrics.dijkstra_relaxes) << at;
    if (!UsesRTree(spec)) {
      // Same resolution, so borrowing the shared grid must not change the
      // cell ledger either.
      EXPECT_EQ(direct_metrics.grid_cursor_cells, outcomes[i].metrics.grid_cursor_cells) << at;
    }
  }
}

TEST(QueryRunnerTest, AggregateSumsPerQueryBundles) {
  const std::vector<Point> customers = test::RandomPoints(300, 5);
  SharedIndex index(customers);
  std::vector<QuerySpec> batch = MixedBatch(customers);
  QueryRunner runner(&index, 3);
  const std::vector<QueryOutcome> outcomes = runner.Run(batch);
  const Metrics total = QueryRunner::Aggregate(outcomes);
  std::uint64_t pops = 0, aug = 0;
  for (const auto& o : outcomes) {
    pops += o.metrics.dijkstra_pops;
    aug += o.metrics.augmentations;
  }
  EXPECT_EQ(total.dijkstra_pops, pops);
  EXPECT_EQ(total.augmentations, aug);
  EXPECT_GT(total.augmentations, 0u);
}

TEST(QueryRunnerTest, WeightedSspaRunsThroughTheRunner) {
  const std::vector<Point> customers = test::RandomPoints(200, 31);
  SharedIndex::Options options;
  options.build_customer_db = false;  // SSPA-only batch needs no R-tree
  SharedIndex index(customers, options);
  QuerySpec spec;
  spec.solver = QuerySolver::kSspa;
  spec.problem.customers = customers;
  Rng rng(8);
  for (const Point& pos : test::RandomPoints(5, 88)) {
    spec.problem.providers.push_back(Provider{pos, 40});
  }
  spec.problem.weights.resize(customers.size());
  for (auto& w : spec.problem.weights) w = static_cast<std::int32_t>(rng.UniformInt(1, 3));
  const std::vector<QuerySpec> batch(6, spec);
  QueryRunner runner(&index, 3);
  const std::vector<QueryOutcome> outcomes = runner.Run(batch);
  const SspaResult direct = SolveSspa(spec.problem, spec.sspa);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.matching.cost(), direct.matching.cost());
    EXPECT_EQ(o.metrics.dijkstra_pops, direct.metrics.dijkstra_pops);
  }
}

// Exact and greedy queries read the index's CustomerDb (point array or
// R-tree). On an index built without it the runner must fail loudly in
// every build type, naming the solver, instead of dereferencing null.
TEST(QueryRunnerDeathTest, ExactQueryWithoutCustomerDbAborts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Point> customers = test::RandomPoints(60, 12);
  SharedIndex::Options options;
  options.build_customer_db = false;
  const SharedIndex index(customers, options);
  QuerySpec spec;
  spec.problem.customers = customers;
  spec.problem.providers.push_back(Provider{Point{500.0, 500.0}, 3});
  const auto run = [&index](const QuerySpec& s) {
    QueryRunner runner(&index, 1);
    runner.Run({s});
  };
  spec.solver = QuerySolver::kNia;
  spec.exact.discovery_backend = DiscoveryBackend::kGrid;
  EXPECT_DEATH(run(spec), "nia query needs the SharedIndex CustomerDb");
  spec.solver = QuerySolver::kGreedy;
  spec.exact.discovery_backend = DiscoveryBackend::kRTreeGrouped;
  EXPECT_DEATH(run(spec), "greedy query needs the SharedIndex CustomerDb");
}

// QuerySpec's contract is the index's customer set, point for point. The
// runner lends its shared grids on a count match, so a different set of the
// same size must trip the Debug assert rather than be solved over the
// index's points. Release builds only compare counts and run the query.
TEST(QueryRunnerDeathTest, SameSizeDifferentCustomerSetAssertsInDebug) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::vector<Point> customers = test::RandomPoints(60, 12);
  const SharedIndex index(customers);
  QuerySpec spec;
  spec.solver = QuerySolver::kIda;
  spec.exact.discovery_backend = DiscoveryBackend::kGrid;
  spec.problem.customers = test::RandomPoints(60, 13);
  spec.problem.providers.push_back(Provider{Point{500.0, 500.0}, 3});
  const auto run = [&index](const QuerySpec& s) {
    QueryRunner runner(&index, 1);
    runner.Run({s});
  };
  EXPECT_DEBUG_DEATH(run(spec), "QuerySpec customers must be the SharedIndex's customer set");
}

// --- raw shared-structure stress --------------------------------------------

// Many threads each drain a private GridNnCursor over ONE shared grid; every
// thread must observe exactly the stream a serial drain of the same query
// point produces.
TEST(ConcurrentCursorStress, GridCursorsShareOneGrid) {
  const std::vector<Point> points = test::ClusteredPoints(2000, 17);
  const UniformGrid grid(points);
  const std::vector<Point> queries = test::RandomPoints(8, 4);

  // Serial expectation per query.
  std::vector<std::vector<std::pair<std::int32_t, double>>> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    GridNnCursor cursor(grid, queries[i]);
    for (int n = 0; n < 200; ++n) {
      const auto next = cursor.Next();
      if (!next) break;
      expected[i].push_back(*next);
    }
  }

  std::vector<std::vector<std::pair<std::int32_t, double>>> got(queries.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      GridNnCursor cursor(grid, queries[i]);
      for (int n = 0; n < 200; ++n) {
        const auto next = cursor.Next();
        if (!next) break;
        got[i].push_back(*next);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(got[i].size(), expected[i].size()) << "query " << i;
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
}

// Same for best-first NN iterators over one paged R-tree: the buffer pool
// serializes page reads and the per-thread scratch keeps deserialisation
// private, so concurrent streams must equal the serial ones exactly.
TEST(ConcurrentCursorStress, NnIteratorsShareOneRTree) {
  const std::vector<Point> points = test::RandomPoints(1500, 23);
  RTree::Options options;
  options.page_size = 512;
  options.buffer_pages = 8;  // tiny pool: force heavy concurrent faulting
  const std::unique_ptr<RTree> tree = RTree::BulkLoad(points, options);
  const std::vector<Point> queries = test::RandomPoints(8, 91);

  std::vector<std::vector<std::uint32_t>> expected(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    NnIterator it(tree.get(), queries[i]);
    for (int n = 0; n < 120; ++n) {
      const auto next = it.Next();
      if (!next) break;
      expected[i].push_back(next->oid);
    }
  }

  std::vector<std::vector<std::uint32_t>> got(queries.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    threads.emplace_back([&, i] {
      NnIterator it(tree.get(), queries[i]);
      for (int n = 0; n < 120; ++n) {
        const auto next = it.Next();
        if (!next) break;
        got[i].push_back(next->oid);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "query " << i;
  }
}

}  // namespace
}  // namespace cca
