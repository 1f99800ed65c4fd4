// Shared-frontier batched discovery (geo/shared_frontier.h and the
// grid-batched NnSource backend): per-subscriber streams must stay exact
// incremental NN streams while cells are fetched once per group, across
// the edge cases the per-cursor backends never hit — empty subscriber
// sets, mid-stream retirement, duplicate/co-located points — plus the
// fetch-amortisation regression guard at |Q|=100, |P|=10k.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/exact.h"
#include "core/greedy.h"
#include "core/matching.h"
#include "core/nn_source.h"
#include "geo/grid_cursor.h"
#include "geo/shared_frontier.h"
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

TEST(SharedFrontierTest, SingleSubscriberDegeneratesToGridNnCursor) {
  const auto pts = test::RandomPoints(500, 41);
  const UniformGrid grid(pts, 32.0);
  for (const Point& q : {Point{500, 500}, Point{0, 0}, Point{1200, -40}}) {
    SharedFrontier frontier(grid, {q});
    GridNnCursor cursor(grid, q);
    std::size_t served = 0;
    while (true) {
      const auto from_frontier = frontier.NextNN(0);
      const auto from_cursor = cursor.Next();
      ASSERT_EQ(from_frontier.has_value(), from_cursor.has_value());
      if (!from_frontier) break;
      // Identical hit order, not merely identical distances.
      ASSERT_EQ(from_frontier->first, from_cursor->first) << "hit " << served;
      ASSERT_DOUBLE_EQ(from_frontier->second, from_cursor->second) << "hit " << served;
      ++served;
    }
    EXPECT_EQ(served, pts.size());
    // A lone subscriber shares with nobody: every fetch is delivered once,
    // and the fetch count matches the private cursor exactly.
    EXPECT_EQ(frontier.stats().cell_fetches, cursor.cells_visited());
    EXPECT_EQ(frontier.stats().fanout, frontier.stats().cell_fetches);
  }
}

TEST(SharedFrontierTest, MultiSubscriberStreamsAreExactAndShareFetches) {
  const auto pts = test::RandomPoints(400, 43);
  const UniformGrid grid(pts, 64.0);
  // A tight clump of subscribers (the Hilbert-group case) plus one far.
  const std::vector<Point> queries{{480, 510}, {505, 505}, {520, 490}, {40, 960}};
  SharedFrontier frontier(grid, queries);
  std::uint64_t solo_fetches = 0;
  for (std::size_t s = 0; s < queries.size(); ++s) {
    const auto expect = BruteForceStream(pts, queries[s]);
    double prev = -1.0;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_DOUBLE_EQ(frontier.PeekDistance(static_cast<int>(s)), expect[i].second);
      const auto hit = frontier.NextNN(static_cast<int>(s));
      ASSERT_TRUE(hit.has_value());
      EXPECT_DOUBLE_EQ(hit->second, expect[i].second) << "subscriber " << s << " hit " << i;
      EXPECT_GE(hit->second, prev);
      prev = hit->second;
    }
    EXPECT_FALSE(frontier.NextNN(static_cast<int>(s)).has_value());
    GridNnCursor solo(grid, queries[s]);
    while (solo.Next()) {
    }
    solo_fetches += solo.cells_visited();
  }
  // Full drains touch every cell once per subscriber when solo; the shared
  // frontier fetches each cell exactly once.
  EXPECT_LT(frontier.stats().cell_fetches, solo_fetches);
  EXPECT_GT(frontier.stats().fanout, frontier.stats().cell_fetches);
}

TEST(SharedFrontierTest, EmptySubscriberSetIsInert) {
  const auto pts = test::RandomPoints(50, 47);
  const UniformGrid grid(pts, 8.0);
  SharedFrontier frontier(grid, {});
  EXPECT_EQ(frontier.num_subscribers(), 0u);
  EXPECT_EQ(frontier.stats().cell_fetches, 0u);
  EXPECT_EQ(frontier.stats().fanout, 0u);
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
}

TEST(SharedFrontierTest, DuplicateAndColocatedPointsServedOncePerSubscriber) {
  // Three stacked duplicates plus co-located pairs inside one cell.
  std::vector<Point> pts{{10, 10}, {10, 10}, {10, 10}, {12, 11}, {12, 11},
                         {40, 40}, {40, 45}, {90, 15}, {15, 90}, {60, 60}};
  const UniformGrid grid(pts, 4.0);
  const std::vector<Point> queries{{10, 10}, {85, 80}};
  SharedFrontier frontier(grid, queries);
  for (std::size_t s = 0; s < queries.size(); ++s) {
    const auto expect = BruteForceStream(pts, queries[s]);
    for (std::size_t i = 0; i < expect.size(); ++i) {
      const auto hit = frontier.NextNN(static_cast<int>(s));
      ASSERT_TRUE(hit.has_value());
      EXPECT_DOUBLE_EQ(hit->second, expect[i].second);
      // Co-located points land in one cell, so equal-distance candidates
      // are all heap-resident together and tie-break on ascending id.
      EXPECT_EQ(hit->first, expect[i].first) << "subscriber " << s << " hit " << i;
    }
    EXPECT_FALSE(frontier.NextNN(static_cast<int>(s)).has_value());
  }
}

TEST(SharedFrontierTest, UnsubscribedMemberStopsReceivingDeliveries) {
  const auto pts = test::RandomPoints(300, 59);
  const UniformGrid grid(pts, 32.0);
  SharedFrontier frontier(grid, {Point{200, 200}, Point{210, 190}});
  frontier.Unsubscribe(1);
  const auto expect = BruteForceStream(pts, Point{200, 200});
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const auto hit = frontier.NextNN(0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->second, expect[i].second);
  }
  EXPECT_FALSE(frontier.subscribed(1));
  // Every fetch delivered to subscriber 0 alone; the terminated stream
  // serves nothing.
  EXPECT_EQ(frontier.stats().fanout, frontier.stats().cell_fetches);
  EXPECT_FALSE(frontier.NextNN(1).has_value());
  EXPECT_EQ(frontier.PeekDistance(1), std::numeric_limits<double>::infinity());
}

TEST(SharedFrontierTest, MidStreamUnsubscribeKeepsRemainingStreamsExact) {
  const auto pts = test::RandomPoints(300, 61);
  const UniformGrid grid(pts, 32.0);
  SharedFrontier frontier(grid, {Point{500, 480}, Point{520, 500}});
  const auto expect0 = BruteForceStream(pts, Point{500, 480});
  const auto expect1 = BruteForceStream(pts, Point{520, 500});
  // Interleave a while, retire subscriber 1 (capacity exhausted), then
  // finish subscriber 0: its stream must not miss or reorder anything.
  for (std::size_t i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(frontier.NextNN(0)->second, expect0[i].second);
    EXPECT_DOUBLE_EQ(frontier.NextNN(1)->second, expect1[i].second);
  }
  frontier.Unsubscribe(1);
  for (std::size_t i = 20; i < expect0.size(); ++i) {
    const auto hit = frontier.NextNN(0);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->second, expect0[i].second) << "hit " << i;
  }
  EXPECT_FALSE(frontier.NextNN(0).has_value());
  // Unsubscribing terminates the stream: no more hits, ever — the slot's
  // pending candidates were released, and subscriber 0's later demand
  // cannot resurrect it.
  EXPECT_FALSE(frontier.NextNN(1).has_value());
  EXPECT_EQ(frontier.PeekDistance(1), std::numeric_limits<double>::infinity());
}

// The leak regression Unsubscribe fixes: a retired slot used to keep its
// whole candidate heap (every delivered-but-unserved point) and its
// per-cell delivery map alive for the frontier's lifetime, while shared
// deliveries kept refilling the heap of the *demanding* retiree.
TEST(SharedFrontierTest, UnsubscribeReleasesQueuedCandidatesAndSlot) {
  const auto pts = test::RandomPoints(400, 63);
  const UniformGrid grid(pts, 32.0);
  SharedFrontier frontier(grid, {Point{500, 500}, Point{505, 495}});
  // Pull a few hits so subscriber 1's heap holds delivered-but-unserved
  // candidates (its clump-mate's demand multiplexes whole cells to it).
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(frontier.NextNN(0).has_value());
    ASSERT_TRUE(frontier.NextNN(1).has_value());
  }
  ASSERT_GT(frontier.queued_candidates(1), 0u);
  ASSERT_GT(frontier.delivered_map_capacity(1), 0u);
  frontier.Unsubscribe(1);
  EXPECT_EQ(frontier.queued_candidates(1), 0u);
  EXPECT_EQ(frontier.delivered_map_capacity(1), 0u);
  // Draining subscriber 0 afterwards must not repopulate the freed slot.
  while (frontier.NextNN(0)) {
  }
  EXPECT_EQ(frontier.queued_candidates(1), 0u);
  EXPECT_EQ(frontier.delivered_map_capacity(1), 0u);
  EXPECT_FALSE(frontier.subscribed(1));
}

// Greedy retires providers as their capacity saturates — the end-to-end
// exercise of NnSource::Retire on the batched backend.
TEST(SharedFrontierBackend, GreedyRetiresProvidersAndMatchesGridBackend) {
  test::InstanceSpec spec;
  spec.nq = 10;
  spec.np = 200;
  spec.k_lo = 2;
  spec.k_hi = 5;
  spec.seed = 71;
  const Problem problem = test::RandomProblem(spec);
  auto db = test::MakeDb(problem);
  ExactConfig grid;
  grid.discovery_backend = DiscoveryBackend::kGrid;
  ExactConfig batched;
  batched.discovery_backend = DiscoveryBackend::kGridBatched;
  const double g = SolveGreedySm(problem, db.get(), grid).matching.cost();
  const double b = SolveGreedySm(problem, db.get(), batched).matching.cost();
  EXPECT_NEAR(g, b, 1e-9);
}

// The acceptance-bar regression guard: at |Q|=100, |P|=10k the batched
// frontier must fetch at most half the cells the per-provider cursors
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
  // and sharing delivered each fetch to more than one subscriber overall.
  EXPECT_EQ(shared.metrics.grid_cursor_cells, shared.metrics.shared_frontier_cell_fetches);
  EXPECT_EQ(shared.metrics.index_node_accesses, shared.metrics.shared_frontier_cell_fetches);
  EXPECT_GT(shared.metrics.shared_frontier_fanout, shared.metrics.shared_frontier_cell_fetches);
}

}  // namespace
}  // namespace cca
