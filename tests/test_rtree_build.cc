// R-tree construction tests: STR bulk loading and its structural
// invariants (MBR tightness, aggregate counts, balance).
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rtree/node.h"
#include "rtree/rtree.h"
#include "test_util.h"

namespace cca {
namespace {

using test::RandomPoints;

TEST(RTreeNodeTest, CapacitiesForDefaultPage) {
  // 1 KB pages: 8-byte header, 24-byte leaf entries, 40-byte internal.
  EXPECT_EQ(RTreeNode::LeafCapacity(1024), (1024u - 8) / 24);
  EXPECT_EQ(RTreeNode::InternalCapacity(1024), (1024u - 8) / 40);
}

TEST(RTreeNodeTest, SerializeRoundTripLeaf) {
  RTreeNode node;
  node.is_leaf = true;
  node.leaf_entries = {{{1.5, 2.5}, 7}, {{-3.0, 4.0}, 9}};
  std::vector<std::uint8_t> page(1024);
  node.Serialize(page.data(), 1024);
  const RTreeNode back = RTreeNode::Deserialize(page.data(), 1024);
  ASSERT_TRUE(back.is_leaf);
  ASSERT_EQ(back.leaf_entries.size(), 2u);
  EXPECT_EQ(back.leaf_entries[0].pos, (Point{1.5, 2.5}));
  EXPECT_EQ(back.leaf_entries[0].oid, 7u);
  EXPECT_EQ(back.leaf_entries[1].oid, 9u);
}

TEST(RTreeNodeTest, SerializeRoundTripInternal) {
  RTreeNode node;
  node.is_leaf = false;
  node.entries = {{Rect::FromCorners({0, 0}, {5, 5}), 3, 100},
                  {Rect::FromCorners({10, 10}, {20, 30}), 4, 250}};
  std::vector<std::uint8_t> page(1024);
  node.Serialize(page.data(), 1024);
  const RTreeNode back = RTreeNode::Deserialize(page.data(), 1024);
  ASSERT_FALSE(back.is_leaf);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].child, 3u);
  EXPECT_EQ(back.entries[0].count, 100u);
  EXPECT_EQ(back.entries[1].mbr, Rect::FromCorners({10, 10}, {20, 30}));
  EXPECT_EQ(back.TotalCount(), 350u);
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0);
  std::vector<RTree::Hit> hits;
  tree.RangeSearch({0, 0}, 100, &hits);
  EXPECT_TRUE(hits.empty());
  std::string error;
  EXPECT_TRUE(tree.CheckInvariants(&error));
}

TEST(RTreeTest, SinglePointBulkLoad) {
  auto tree = RTree::BulkLoad({Point{5, 5}});
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(tree->height(), 1);
  std::vector<RTree::Hit> hits;
  tree->RangeSearch({5, 5}, 0.1, &hits);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0].oid, 0u);
}

class RTreeBuildParamTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RTreeBuildParamTest, BulkLoadInvariants) {
  RTree::Options options;
  options.page_size = 256;
  const auto points = RandomPoints(GetParam(), 23 + GetParam());
  auto tree = RTree::BulkLoad(points, options);
  EXPECT_EQ(tree->size(), points.size());
  std::string error;
  EXPECT_TRUE(tree->CheckInvariants(&error)) << error;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeBuildParamTest,
                         ::testing::Values<std::size_t>(1, 2, 9, 10, 11, 40, 100, 500, 2000));

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTree::Options options;
  options.page_size = 256;
  const auto small = RTree::BulkLoad(RandomPoints(50, 1), options);
  const auto large = RTree::BulkLoad(RandomPoints(5000, 2), options);
  EXPECT_GE(large->height(), small->height());
  EXPECT_LE(large->height(), 6);
}

TEST(RTreeTest, BulkLoadOidsMatchInput) {
  const auto points = RandomPoints(300, 5);
  auto tree = RTree::BulkLoad(points);
  std::vector<RTree::Hit> hits;
  tree->RangeSearch({500, 500}, 2000.0, &hits);  // grab everything
  ASSERT_EQ(hits.size(), points.size());
  std::vector<char> seen(points.size(), 0);
  for (const auto& h : hits) {
    EXPECT_EQ(h.pos, points[h.oid]);
    EXPECT_FALSE(seen[h.oid]) << "duplicate oid";
    seen[h.oid] = 1;
  }
}

TEST(RTreeTest, DuplicatePointsSupported) {
  RTree::Options options;
  options.page_size = 256;
  auto tree = RTree::BulkLoad(std::vector<Point>(150, Point{7, 7}), options);
  EXPECT_EQ(tree->size(), 150u);
  std::string error;
  EXPECT_TRUE(tree->CheckInvariants(&error)) << error;
  std::vector<RTree::Hit> hits;
  tree->RangeSearch({7, 7}, 0.0, &hits);
  EXPECT_EQ(hits.size(), 150u);
}

TEST(RTreeTest, BufferFractionSizesPool) {
  const auto points = RandomPoints(5000, 8);
  auto tree = RTree::BulkLoad(points);
  tree->SetBufferFraction(0.01);
  EXPECT_GE(tree->buffer().capacity(), 1u);
  EXPECT_LT(tree->buffer().capacity(), tree->page_count() / 50 + 2);
}

TEST(RTreeTest, NodeAccessCounterAdvances) {
  const auto points = RandomPoints(1000, 9);
  auto tree = RTree::BulkLoad(points);
  tree->ResetCounters();
  std::vector<RTree::Hit> hits;
  tree->RangeSearch({500, 500}, 50.0, &hits);
  EXPECT_GT(tree->node_accesses(), 0u);
}

}  // namespace
}  // namespace cca
