// CustomerDb and IoScope accounting tests.
#include <gtest/gtest.h>

#include "core/customer_db.h"
#include "rtree/nn_iterator.h"
#include "test_util.h"

namespace cca {
namespace {

TEST(CustomerDbTest, BuildsTreeWithRequestedOptions) {
  const auto pts = test::RandomPoints(2000, 3);
  CustomerDb::Options options;
  options.rtree.page_size = 512;
  options.buffer_fraction = 0.01;
  CustomerDb db(pts, options);
  EXPECT_EQ(db.size(), 2000u);
  EXPECT_EQ(db.tree()->size(), 2000u);
  EXPECT_GE(db.tree()->buffer().capacity(), 1u);
  EXPECT_LT(db.tree()->buffer().capacity(), db.tree()->page_count());
  // Counters start clean.
  EXPECT_EQ(db.page_faults(), 0u);
  EXPECT_EQ(db.node_accesses(), 0u);
}

TEST(CustomerDbTest, MinBufferPagesFloorApplies) {
  const auto pts = test::RandomPoints(500, 4);  // tiny tree
  CustomerDb::Options options;
  options.rtree.page_size = 1024;
  options.buffer_fraction = 0.01;
  options.min_buffer_pages = 16;
  CustomerDb db(pts, options);
  EXPECT_GE(db.tree()->buffer().capacity(), 16u);
}

TEST(CustomerDbTest, FullBufferFractionCachesEverything) {
  const auto pts = test::RandomPoints(1500, 5);
  CustomerDb::Options options;
  options.buffer_fraction = 2.0;
  CustomerDb db(pts, options);
  db.Prewarm();
  const auto faults_before = db.page_faults();
  std::vector<RTree::Hit> hits;
  db.tree()->RangeSearch({500, 500}, 400.0, &hits);
  NnIterator nn(db.tree(), {100, 100});
  for (int i = 0; i < 25; ++i) ASSERT_TRUE(nn.Next().has_value());
  EXPECT_EQ(db.page_faults(), faults_before);  // all hits after prewarm
}

TEST(CustomerDbTest, CoolDownForcesColdStart) {
  const auto pts = test::RandomPoints(1500, 6);
  CustomerDb::Options options;
  options.buffer_fraction = 2.0;
  CustomerDb db(pts, options);
  std::vector<RTree::Hit> hits;
  db.tree()->RangeSearch({500, 500}, 100.0, &hits);
  const auto warm = db.page_faults();
  db.tree()->RangeSearch({500, 500}, 100.0, &hits);
  EXPECT_EQ(db.page_faults(), warm);  // warm: no new faults
  db.CoolDown();
  db.tree()->RangeSearch({500, 500}, 100.0, &hits);
  EXPECT_GT(db.page_faults(), warm);  // cold again
}

TEST(IoScopeTest, DiffsExactlyTheScopedWork) {
  const auto pts = test::RandomPoints(3000, 7);
  CustomerDb::Options options;
  options.rtree.page_size = 512;
  options.buffer_fraction = 0.05;
  CustomerDb db(pts, options);
  std::vector<RTree::Hit> hits;
  db.tree()->RangeSearch({200, 200}, 150.0, &hits);  // outside any scope

  Metrics m;
  {
    IoScope scope(&db, &m);
    db.tree()->RangeSearch({800, 800}, 150.0, &hits);
  }
  EXPECT_GT(m.node_accesses, 0u);
  EXPECT_GT(m.page_faults, 0u);
  EXPECT_LE(m.page_faults, m.node_accesses);

  // Finish() is idempotent via the destructor: no double counting.
  Metrics m2;
  IoScope scope2(&db, &m2);
  scope2.Finish();
  scope2.Finish();
  EXPECT_EQ(m2.node_accesses, 0u);
}

TEST(IoScopeTest, NestedScopesAccumulateIndependently) {
  const auto pts = test::RandomPoints(3000, 8);
  CustomerDb::Options options;
  options.rtree.page_size = 512;
  options.buffer_fraction = 0.05;
  CustomerDb db(pts, options);
  std::vector<RTree::Hit> hits;

  Metrics outer, inner;
  IoScope outer_scope(&db, &outer);
  db.tree()->RangeSearch({100, 900}, 100.0, &hits);
  {
    IoScope inner_scope(&db, &inner);
    db.tree()->RangeSearch({900, 100}, 100.0, &hits);
  }
  outer_scope.Finish();
  EXPECT_GT(inner.node_accesses, 0u);
  EXPECT_GE(outer.node_accesses, inner.node_accesses);
}

}  // namespace
}  // namespace cca
