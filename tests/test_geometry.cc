// Geometry kernel tests: distances, MBR algebra, mindist/maxdist bounds.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace cca {
namespace {

TEST(PointTest, DistanceBasics) {
  EXPECT_DOUBLE_EQ(Distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(SquaredDistance({0, 0}, {3, 4}), 25.0);
}

TEST(PointTest, DistanceSymmetry) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const Point a{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    const Point b{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    EXPECT_DOUBLE_EQ(Distance(a, b), Distance(b, a));
  }
}

TEST(PointTest, TriangleInequality) {
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    const Point a{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Point b{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    const Point c{rng.Uniform(0, 1), rng.Uniform(0, 1)};
    EXPECT_LE(Distance(a, c), Distance(a, b) + Distance(b, c) + 1e-12);
  }
}

TEST(RectTest, EmptyRect) {
  Rect r;
  EXPECT_TRUE(r.empty());
  EXPECT_DOUBLE_EQ(r.Area(), 0.0);
  EXPECT_DOUBLE_EQ(r.Diagonal(), 0.0);
  EXPECT_FALSE(r.Contains(Point{0, 0}));
  EXPECT_TRUE(std::isinf(MinDist(Point{0, 0}, r)));
}

TEST(RectTest, ExpandFromEmptyAdoptsPoint) {
  Rect r;
  r.Expand(Point{2, 3});
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.lo, (Point{2, 3}));
  EXPECT_EQ(r.hi, (Point{2, 3}));
  EXPECT_DOUBLE_EQ(r.Diagonal(), 0.0);
}

TEST(RectTest, ExpandGrowsMonotonically) {
  Rect r = Rect::FromPoint({5, 5});
  r.Expand(Point{1, 9});
  EXPECT_EQ(r.lo, (Point{1, 5}));
  EXPECT_EQ(r.hi, (Point{5, 9}));
  r.Expand(Point{3, 7});  // interior point: no change
  EXPECT_EQ(r.lo, (Point{1, 5}));
  EXPECT_EQ(r.hi, (Point{5, 9}));
}

TEST(RectTest, AreaDiagonal) {
  const Rect r = Rect::FromCorners({0, 0}, {3, 4});
  EXPECT_DOUBLE_EQ(r.Area(), 12.0);
  EXPECT_DOUBLE_EQ(r.Diagonal(), 5.0);
  EXPECT_EQ(r.Center(), (Point{1.5, 2.0}));
}

TEST(RectTest, ContainsAndIntersects) {
  const Rect a = Rect::FromCorners({0, 0}, {10, 10});
  const Rect b = Rect::FromCorners({2, 2}, {4, 4});
  const Rect c = Rect::FromCorners({9, 9}, {12, 12});
  const Rect d = Rect::FromCorners({20, 20}, {30, 30});
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Intersects(c));
  EXPECT_FALSE(a.Intersects(d));
  EXPECT_TRUE(a.Contains(Point{10, 10}));  // closed boundaries
  EXPECT_FALSE(a.Contains(Point{10.0001, 10}));
}

TEST(RectTest, Union) {
  const Rect a = Rect::FromCorners({0, 0}, {2, 2});
  const Rect b = Rect::FromCorners({4, 4}, {6, 6});
  const Rect u = Rect::Union(a, b);
  EXPECT_EQ(u, Rect::FromCorners({0, 0}, {6, 6}));
  EXPECT_EQ(Rect::Union(a, a), a);
}

TEST(MinDistTest, PointRectCases) {
  const Rect r = Rect::FromCorners({2, 2}, {4, 4});
  EXPECT_DOUBLE_EQ(MinDist(Point{3, 3}, r), 0.0);   // inside
  EXPECT_DOUBLE_EQ(MinDist(Point{2, 2}, r), 0.0);   // corner
  EXPECT_DOUBLE_EQ(MinDist(Point{0, 3}, r), 2.0);   // left face
  EXPECT_DOUBLE_EQ(MinDist(Point{3, 7}, r), 3.0);   // above
  EXPECT_DOUBLE_EQ(MinDist(Point{0, 0}, r), std::sqrt(8.0));  // diagonal
}

TEST(MaxDistTest, PointRectCases) {
  const Rect r = Rect::FromCorners({2, 2}, {4, 4});
  EXPECT_DOUBLE_EQ(MaxDist(Point{3, 3}, r), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(MaxDist(Point{0, 0}, r), std::sqrt(32.0));
}

// MinDist/MaxDist must bound the distance to every point inside the rect.
TEST(MinMaxDistTest, BoundsRandomisedProperty) {
  Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const Rect r = Rect::FromCorners({rng.Uniform(0, 50), rng.Uniform(0, 50)},
                                     {rng.Uniform(50, 100), rng.Uniform(50, 100)});
    const Point q{rng.Uniform(-50, 150), rng.Uniform(-50, 150)};
    for (int s = 0; s < 20; ++s) {
      const Point inside{rng.Uniform(r.lo.x, r.hi.x), rng.Uniform(r.lo.y, r.hi.y)};
      const double d = Distance(q, inside);
      EXPECT_LE(MinDist(q, r), d + 1e-9);
      EXPECT_GE(MaxDist(q, r), d - 1e-9);
    }
  }
}

TEST(RectRectMinDistTest, Cases) {
  const Rect a = Rect::FromCorners({0, 0}, {2, 2});
  EXPECT_DOUBLE_EQ(MinDist(a, Rect::FromCorners({1, 1}, {3, 3})), 0.0);  // overlap
  EXPECT_DOUBLE_EQ(MinDist(a, Rect::FromCorners({5, 0}, {6, 2})), 3.0);  // right gap
  EXPECT_DOUBLE_EQ(MinDist(a, Rect::FromCorners({5, 6}, {7, 8})),
                   Distance({2, 2}, {5, 6}));  // diagonal gap
}

// mindist(A, B) lower-bounds the distance between any two contained points.
TEST(RectRectMinDistTest, LowerBoundProperty) {
  Rng rng(123);
  for (int iter = 0; iter < 100; ++iter) {
    const Rect a = Rect::FromCorners({rng.Uniform(0, 40), rng.Uniform(0, 40)},
                                     {rng.Uniform(40, 80), rng.Uniform(40, 80)});
    const Rect b = Rect::FromCorners({rng.Uniform(100, 140), rng.Uniform(0, 140)},
                                     {rng.Uniform(140, 180), rng.Uniform(140, 180)});
    for (int s = 0; s < 10; ++s) {
      const Point pa{rng.Uniform(a.lo.x, a.hi.x), rng.Uniform(a.lo.y, a.hi.y)};
      const Point pb{rng.Uniform(b.lo.x, b.hi.x), rng.Uniform(b.lo.y, b.hi.y)};
      EXPECT_LE(MinDist(a, b), Distance(pa, pb) + 1e-9);
    }
  }
}

}  // namespace
}  // namespace cca
