// Batched grid discovery (kGridBatched, src/core/nn_source.cc): each
// provider streams from its own GridNnCursor and its Hilbert group keeps a
// fetched-cell ledger. Every batched stream must equal a solo GridNnCursor
// stream id for id under any interleaving, while the ledger charges each
// cell once per group — across the edge cases the per-cursor backend never
// hits (empty provider sets, members left unadvanced, duplicate and
// co-located points), plus the fetch-amortisation regression guard at
// |Q|=100, |P|=10k.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "core/exact.h"
#include "core/greedy.h"
#include "core/matching.h"
#include "core/nn_source.h"
#include "geo/grid_cursor.h"
#include "test_util.h"

namespace cca {
namespace {

// Full expected stream of (oid, dist) for one query, ascending (dist, oid).
std::vector<std::pair<std::int32_t, double>> BruteForceStream(const std::vector<Point>& pts,
                                                              const Point& q) {
  std::vector<std::pair<std::int32_t, double>> hits;
  hits.reserve(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    hits.emplace_back(static_cast<std::int32_t>(i), Distance(q, pts[i]));
  }
  std::sort(hits.begin(), hits.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second < b.second : a.first < b.first;
  });
  return hits;
}

// A batched source over `grid` (borrowed, so tests pick the cell size)
// for unit-capacity providers at `queries`.
struct BatchedFixture {
  BatchedFixture(const std::vector<Point>& customers, const std::vector<Point>& queries,
                 const UniformGrid& grid) {
    problem.customers = customers;
    for (const Point& q : queries) problem.providers.push_back(Provider{q, 1});
    db = test::MakeDb(problem);
    ExactConfig config;
    config.discovery_backend = DiscoveryBackend::kGridBatched;
    config.shared_stream_grid = &grid;
    source = MakeNnSource(db.get(), problem, config, &metrics);
  }

  Problem problem;
  std::unique_ptr<CustomerDb> db;
  Metrics metrics;
  std::unique_ptr<NnSource> source;
};

// The lazy contract: under an arbitrary interleaving of NextNN/PeekDistance
// calls, each member's stream is the solo cursor's stream, hit for hit, and
// the deliveries (fanout) are exactly the solo cursors' cell reads.
TEST(SharedFrontierTest, InterleavedStreamsEqualSoloCursorsIdForId) {
  const auto pts = test::RandomPoints(600, 43);
  const UniformGrid grid(pts, 16.0);
  // Two tight clumps (more than one Hilbert group of 16) plus far loners.
  std::vector<Point> queries;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    queries.push_back(Point{480 + rng.Uniform(0, 40), 490 + rng.Uniform(0, 40)});
  }
  for (int i = 0; i < 6; ++i) {
    queries.push_back(Point{100 + rng.Uniform(0, 30), 800 + rng.Uniform(0, 30)});
  }
  queries.push_back(Point{0, 0});
  queries.push_back(Point{1200, -40});
  BatchedFixture batched(pts, queries, grid);
  std::vector<GridNnCursor> solo;
  for (const Point& q : queries) solo.emplace_back(grid, q);

  // Each member stops after its own prefix of the stream, as a solver's
  // providers do; a full drain would deliver every cell to every member
  // under any delivery rule.
  std::vector<std::size_t> want(queries.size());
  for (auto& w : want) w = static_cast<std::size_t>(rng.UniformInt(1, 200));
  want.back() = pts.size();
  std::vector<std::size_t> served(queries.size(), 0);
  std::size_t live = queries.size();
  while (live > 0) {
    const auto uq = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<std::int64_t>(queries.size()) - 1));
    const auto q = static_cast<int>(uq);
    GridNnCursor& cursor = solo[uq];
    if (served[uq] == want[uq]) continue;
    if (rng.Uniform(0, 1) < 0.3) {
      ASSERT_EQ(batched.source->PeekDistance(q), cursor.PeekDistance()) << "provider " << q;
      continue;
    }
    const auto hit = batched.source->NextNN(q);
    const auto expect = cursor.Next();
    ASSERT_EQ(hit.has_value(), expect.has_value()) << "provider " << q;
    if (!hit) continue;
    ASSERT_EQ(hit->oid, expect->first) << "provider " << q << " hit " << served[uq];
    ASSERT_EQ(hit->dist, expect->second) << "provider " << q << " hit " << served[uq];
    if (++served[uq] == want[uq]) --live;
  }
  EXPECT_FALSE(batched.source->NextNN(static_cast<int>(queries.size()) - 1).has_value());
  std::uint64_t solo_cells = 0;
  for (const GridNnCursor& cursor : solo) solo_cells += cursor.cells_visited();
  // Members received only the cells their own walks read; the groups
  // shared the fetches.
  EXPECT_EQ(batched.metrics.shared_frontier_fanout, solo_cells);
  EXPECT_LT(batched.metrics.shared_frontier_cell_fetches, solo_cells);
  EXPECT_EQ(batched.metrics.grid_cursor_cells, batched.metrics.shared_frontier_cell_fetches);
  EXPECT_EQ(batched.metrics.index_node_accesses, batched.metrics.shared_frontier_cell_fetches);
}

TEST(SharedFrontierTest, LoneProviderFetchesWhatItsCursorReads) {
  const auto pts = test::RandomPoints(500, 41);
  const UniformGrid grid(pts, 32.0);
  for (const Point& q : {Point{500, 500}, Point{0, 0}, Point{1200, -40}}) {
    BatchedFixture batched(pts, {q}, grid);
    GridNnCursor cursor(grid, q);
    while (const auto hit = batched.source->NextNN(0)) {
      const auto expect = cursor.Next();
      ASSERT_TRUE(expect.has_value());
      ASSERT_EQ(hit->oid, expect->first);
    }
    EXPECT_FALSE(cursor.Next().has_value());
    // A lone member shares with nobody: every read is a fetch.
    EXPECT_EQ(batched.metrics.shared_frontier_cell_fetches, cursor.cells_visited());
    EXPECT_EQ(batched.metrics.shared_frontier_fanout, cursor.cells_visited());
  }
}

// A member that stops being advanced (greedy's retired provider) costs
// nothing: its clump-mate's reads are not delivered to it, and it resumes
// exactly where it stopped.
TEST(SharedFrontierTest, UnadvancedMemberCostsNothing) {
  const auto pts = test::RandomPoints(300, 61);
  const UniformGrid grid(pts, 32.0);
  const std::vector<Point> queries{{500, 480}, {520, 500}};
  BatchedFixture batched(pts, queries, grid);
  const auto expect0 = BruteForceStream(pts, queries[0]);
  const auto expect1 = BruteForceStream(pts, queries[1]);
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(batched.source->NextNN(0)->dist, expect0[i].second);
    EXPECT_DOUBLE_EQ(batched.source->NextNN(1)->dist, expect1[i].second);
  }
  const std::uint64_t fanout_before = batched.metrics.shared_frontier_fanout;
  GridNnCursor solo0(grid, queries[0]);
  for (std::size_t i = 0; i < 20; ++i) solo0.Next();
  const std::uint64_t solo0_before = solo0.cells_visited();
  for (std::size_t i = 20; i < expect0.size(); ++i) {
    const auto hit = batched.source->NextNN(0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->dist, expect0[i].second) << "hit " << i;
    solo0.Next();
  }
  EXPECT_FALSE(batched.source->NextNN(0).has_value());
  // Draining member 0 delivered only to member 0.
  EXPECT_EQ(batched.metrics.shared_frontier_fanout - fanout_before,
            solo0.cells_visited() - solo0_before);
  // Member 1 was never touched meanwhile, and its stream is intact.
  for (std::size_t i = 20; i < expect1.size(); ++i) {
    const auto hit = batched.source->NextNN(1);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->dist, expect1[i].second) << "hit " << i;
  }
}

TEST(SharedFrontierTest, EmptyProviderSetBuildsThroughFactory) {
  Problem problem;
  problem.customers = test::RandomPoints(60, 53);
  auto db = test::MakeDb(problem);
  ExactConfig config;
  config.discovery_backend = DiscoveryBackend::kGridBatched;
  Metrics metrics;
  auto source = MakeNnSource(db.get(), problem, config, &metrics);
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(metrics.shared_frontier_cell_fetches, 0u);
  EXPECT_EQ(metrics.shared_frontier_fanout, 0u);
}

TEST(SharedFrontierTest, DuplicateAndColocatedPointsServedOncePerMember) {
  // Three stacked duplicates plus co-located pairs inside one cell.
  std::vector<Point> pts{{10, 10}, {10, 10}, {10, 10}, {12, 11}, {12, 11},
                         {40, 40}, {40, 45}, {90, 15}, {15, 90}, {60, 60}};
  const UniformGrid grid(pts, 4.0);
  const std::vector<Point> queries{{10, 10}, {85, 80}};
  BatchedFixture batched(pts, queries, grid);
  for (std::size_t s = 0; s < queries.size(); ++s) {
    const auto expect = BruteForceStream(pts, queries[s]);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const auto hit = batched.source->NextNN(static_cast<int>(s));
      ASSERT_TRUE(hit.has_value());
      EXPECT_DOUBLE_EQ(hit->dist, expect[i].second);
      // Co-located points land in one cell, so equal-distance candidates
      // are all heap-resident together and tie-break on ascending id.
      EXPECT_EQ(hit->oid, expect[i].first) << "member " << s << " hit " << i;
    }
    EXPECT_FALSE(batched.source->NextNN(static_cast<int>(s)).has_value());
  }
}

// Greedy retires providers as their capacity saturates; a retired stream
// is simply never advanced again, so the batched matching is the grid one.
TEST(SharedFrontierBackend, GreedyRetiresProvidersAndMatchesGridBackend) {
  test::InstanceSpec spec;
  spec.nq = 20;
  spec.np = 3000;
  spec.k_lo = 2;
  spec.k_hi = 5;
  spec.seed = 71;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  ExactConfig grid;
  grid.discovery_backend = DiscoveryBackend::kGrid;
  ExactConfig batched;
  batched.discovery_backend = DiscoveryBackend::kGridBatched;
  const ExactResult g = SolveGreedySm(problem, db.get(), grid);
  const ExactResult b = SolveGreedySm(problem, db.get(), batched);
  EXPECT_NEAR(g.matching.cost(), b.matching.cost(), 1e-9);
  EXPECT_EQ(b.metrics.shared_frontier_fanout, g.metrics.grid_cursor_cells);
}

// The acceptance-bar regression guard: at |Q|=100, |P|=10k the batched
// ledger must charge at most half the cells the per-provider cursors
// fetch, with a cost-identical matching.
TEST(SharedFrontierBackend, HalvesCellFetchesAtHundredProvidersTenThousandCustomers) {
  test::InstanceSpec spec;
  spec.nq = 100;
  spec.np = 10000;
  spec.k_lo = 10;
  spec.k_hi = 10;
  spec.seed = 123;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  ExactConfig grid;
  grid.discovery_backend = DiscoveryBackend::kGrid;
  ExactConfig batched;
  batched.discovery_backend = DiscoveryBackend::kGridBatched;

  const ExactResult per_cursor = SolveIda(problem, db.get(), grid);
  const ExactResult shared = SolveIda(problem, db.get(), batched);
  EXPECT_NEAR(per_cursor.matching.cost(), shared.matching.cost(),
              1e-6 * std::max(1.0, per_cursor.matching.cost()));
  EXPECT_GT(shared.metrics.shared_frontier_cell_fetches, 0u);
  EXPECT_LE(shared.metrics.shared_frontier_cell_fetches * 2,
            per_cursor.metrics.grid_cursor_cells)
      << "shared fetches=" << shared.metrics.shared_frontier_cell_fetches
      << " per-cursor cells=" << per_cursor.metrics.grid_cursor_cells;
  // The batched ledger stays consistent: every charged cell is a fetch,
  // and the deliveries are exactly the per-provider cursors' reads.
  EXPECT_EQ(shared.metrics.grid_cursor_cells, shared.metrics.shared_frontier_cell_fetches);
  EXPECT_EQ(shared.metrics.index_node_accesses, shared.metrics.shared_frontier_cell_fetches);
  EXPECT_EQ(shared.metrics.shared_frontier_fanout, per_cursor.metrics.grid_cursor_cells);
}

}  // namespace
}  // namespace cca
