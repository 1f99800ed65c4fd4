// R-tree behaviour across page sizes and fill factors (parameterised
// property sweep): structure and query correctness must be invariant.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace cca {
namespace {

struct PageCase {
  std::uint32_t page_size;
  double bulk_fill;
  std::size_t n;
};

class PageSizeTest : public ::testing::TestWithParam<PageCase> {};

TEST_P(PageSizeTest, BulkLoadStructureAndQueries) {
  const auto& param = GetParam();
  RTree::Options options;
  options.page_size = param.page_size;
  options.bulk_fill = param.bulk_fill;
  const auto pts = test::RandomPoints(param.n, 101 + param.page_size);
  auto tree = RTree::BulkLoad(pts, options);
  ASSERT_EQ(tree->size(), pts.size());
  std::string error;
  ASSERT_TRUE(tree->CheckInvariants(&error)) << error;

  // Representative queries vs brute force.
  Rng rng(55);
  std::vector<RTree::Hit> hits;
  for (int iter = 0; iter < 8; ++iter) {
    const Point c{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double r = rng.Uniform(10, 250);
    tree->RangeSearch(c, r, &hits);
    std::size_t brute = 0;
    for (const auto& p : pts) {
      if (Distance(c, p) <= r) ++brute;
    }
    EXPECT_EQ(hits.size(), brute);
  }
}

INSTANTIATE_TEST_SUITE_P(Pages, PageSizeTest,
                         ::testing::Values(PageCase{128, 0.7, 400},   // fanout 5/3
                                           PageCase{256, 0.85, 800},  //
                                           PageCase{512, 0.85, 1500}, //
                                           PageCase{1024, 0.85, 3000},// the paper's page
                                           PageCase{2048, 0.99, 2000},
                                           PageCase{1024, 0.55, 1000}),
                         [](const ::testing::TestParamInfo<PageCase>& info) {
                           return "p" + std::to_string(info.param.page_size) + "_n" +
                                  std::to_string(info.param.n);
                         });

// Smaller pages mean deeper trees; sanity-check the relation.
TEST(PageSizeRelationTest, SmallerPagesDeeperTrees) {
  const auto pts = test::RandomPoints(4000, 77);
  RTree::Options small_pages;
  small_pages.page_size = 128;
  RTree::Options big_pages;
  big_pages.page_size = 2048;
  const auto small_tree = RTree::BulkLoad(pts, small_pages);
  const auto big_tree = RTree::BulkLoad(pts, big_pages);
  EXPECT_GT(small_tree->height(), big_tree->height());
  EXPECT_GT(small_tree->page_count(), big_tree->page_count());
}

}  // namespace
}  // namespace cca
