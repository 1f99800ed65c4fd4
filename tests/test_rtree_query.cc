// R-tree query correctness against brute force: circular and annular
// ranges across data distributions and query shapes.
#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace cca {
namespace {

using test::ClusteredPoints;
using test::RandomPoints;

std::vector<std::uint32_t> BruteRange(const std::vector<Point>& pts, const Point& c, double lo,
                                      double hi) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double d = Distance(c, pts[i]);
    if (d <= hi && d > lo) out.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::uint32_t> Oids(const std::vector<RTree::Hit>& hits) {
  std::vector<std::uint32_t> out;
  out.reserve(hits.size());
  for (const auto& h : hits) out.push_back(h.oid);
  std::sort(out.begin(), out.end());
  return out;
}

struct QueryCase {
  bool clustered;
  std::size_t n;
  std::uint64_t seed;
};

class RangeQueryTest : public ::testing::TestWithParam<QueryCase> {};

TEST_P(RangeQueryTest, CircularRangeMatchesBruteForce) {
  const auto& param = GetParam();
  const auto pts = param.clustered ? ClusteredPoints(param.n, param.seed)
                                   : RandomPoints(param.n, param.seed);
  RTree::Options options;
  options.page_size = 256;
  auto tree = RTree::BulkLoad(pts, options);
  Rng rng(param.seed * 3 + 1);
  std::vector<RTree::Hit> hits;
  for (int iter = 0; iter < 25; ++iter) {
    const Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double r = rng.Uniform(0, 300);
    tree->RangeSearch(c, r, &hits);
    EXPECT_EQ(Oids(hits), BruteRange(pts, c, -1.0, r));
    for (const auto& h : hits) EXPECT_NEAR(h.dist, Distance(c, h.pos), 1e-9);
  }
}

TEST_P(RangeQueryTest, AnnularRangeMatchesBruteForce) {
  const auto& param = GetParam();
  const auto pts = param.clustered ? ClusteredPoints(param.n, param.seed)
                                   : RandomPoints(param.n, param.seed);
  RTree::Options options;
  options.page_size = 256;
  auto tree = RTree::BulkLoad(pts, options);
  Rng rng(param.seed * 5 + 2);
  std::vector<RTree::Hit> hits;
  for (int iter = 0; iter < 25; ++iter) {
    const Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double lo = rng.Uniform(0, 200);
    const double hi = lo + rng.Uniform(0, 200);
    tree->AnnularRangeSearch(c, lo, hi, &hits);
    EXPECT_EQ(Oids(hits), BruteRange(pts, c, lo, hi));
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, RangeQueryTest,
                         ::testing::Values(QueryCase{false, 60, 1}, QueryCase{false, 500, 2},
                                           QueryCase{false, 3000, 3}, QueryCase{true, 500, 4},
                                           QueryCase{true, 3000, 5}));

TEST(RangeQueryEdgeTest, ZeroRadiusFindsExactPoint) {
  const auto pts = RandomPoints(200, 9);
  auto tree = RTree::BulkLoad(pts);
  std::vector<RTree::Hit> hits;
  tree->RangeSearch(pts[17], 0.0, &hits);
  ASSERT_GE(hits.size(), 1u);
  bool found = false;
  for (const auto& h : hits) found |= (h.oid == 17);
  EXPECT_TRUE(found);
}

TEST(RangeQueryEdgeTest, NegativeRadiusEmpty) {
  const auto pts = RandomPoints(50, 10);
  auto tree = RTree::BulkLoad(pts);
  std::vector<RTree::Hit> hits;
  tree->RangeSearch({500, 500}, -5.0, &hits);
  EXPECT_TRUE(hits.empty());
}

TEST(RangeQueryEdgeTest, AnnulusBoundariesAreHalfOpen) {
  // Points at distance exactly lo are excluded; at exactly hi included.
  std::vector<Point> pts{{10, 0}, {20, 0}, {30, 0}};
  auto tree = RTree::BulkLoad(pts);
  std::vector<RTree::Hit> hits;
  tree->AnnularRangeSearch({0, 0}, 10.0, 20.0, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].oid, 1u);
}

TEST(RangeQueryEdgeTest, PruningTouchesFewNodesOnSmallRanges) {
  const auto pts = RandomPoints(5000, 12);
  RTree::Options options;
  options.page_size = 512;
  auto tree = RTree::BulkLoad(pts, options);
  tree->ResetCounters();
  std::vector<RTree::Hit> hits;
  tree->RangeSearch({500, 500}, 10.0, &hits);
  const auto small_range = tree->node_accesses();
  tree->ResetCounters();
  tree->RangeSearch({500, 500}, 800.0, &hits);
  const auto big_range = tree->node_accesses();
  EXPECT_LT(small_range * 5, big_range);  // pruning must actually prune
}

}  // namespace
}  // namespace cca
