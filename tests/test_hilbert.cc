// Hilbert curve tests: bijectivity, locality, world quantisation.
#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/hilbert.h"

namespace cca {
namespace {

TEST(HilbertTest, Order1IsTheBasicU) {
  // Order-1 curve visits (0,0), (0,1), (1,1), (1,0).
  EXPECT_EQ(HilbertIndex(0, 0, 1), 0u);
  EXPECT_EQ(HilbertIndex(0, 1, 1), 1u);
  EXPECT_EQ(HilbertIndex(1, 1, 1), 2u);
  EXPECT_EQ(HilbertIndex(1, 0, 1), 3u);
}

TEST(HilbertTest, BijectiveSmallOrders) {
  for (int order = 1; order <= 5; ++order) {
    const std::uint32_t n = 1u << order;
    std::set<std::uint64_t> seen;
    for (std::uint32_t x = 0; x < n; ++x) {
      for (std::uint32_t y = 0; y < n; ++y) {
        const std::uint64_t d = HilbertIndex(x, y, order);
        EXPECT_LT(d, static_cast<std::uint64_t>(n) * n);
        EXPECT_TRUE(seen.insert(d).second) << "duplicate index at order " << order;
      }
    }
  }
}

TEST(HilbertTest, RoundTrip) {
  for (int order = 1; order <= 6; ++order) {
    const std::uint32_t n = 1u << order;
    for (std::uint32_t x = 0; x < n; x += 3) {
      for (std::uint32_t y = 0; y < n; y += 3) {
        const std::uint64_t d = HilbertIndex(x, y, order);
        std::uint32_t rx = 0, ry = 0;
        HilbertCell(d, &rx, &ry, order);
        EXPECT_EQ(rx, x);
        EXPECT_EQ(ry, y);
      }
    }
  }
}

// Consecutive curve positions are adjacent cells (the defining property).
TEST(HilbertTest, ConsecutiveIndicesAreNeighbours) {
  const int order = 5;
  const std::uint64_t cells = 1ull << (2 * order);
  std::uint32_t px = 0, py = 0;
  HilbertCell(0, &px, &py, order);
  for (std::uint64_t d = 1; d < cells; ++d) {
    std::uint32_t x = 0, y = 0;
    HilbertCell(d, &x, &y, order);
    const std::uint32_t manhattan =
        (x > px ? x - px : px - x) + (y > py ? y - py : py - y);
    EXPECT_EQ(manhattan, 1u) << "jump at index " << d;
    px = x;
    py = y;
  }
}

TEST(HilbertValueTest, QuantisationAndClamping) {
  const Rect world = Rect::FromCorners({0, 0}, {1000, 1000});
  // Identical points map to identical values.
  EXPECT_EQ(HilbertValue({500, 500}, world), HilbertValue({500, 500}, world));
  // Out-of-world points clamp instead of overflowing.
  const auto corner = HilbertValue({1000, 1000}, world);
  EXPECT_EQ(HilbertValue({2000, 5000}, world), corner);
  const auto origin = HilbertValue({0, 0}, world);
  EXPECT_EQ(HilbertValue({-100, -100}, world), origin);
}

TEST(HilbertValueTest, LocalityBeatsShuffledOrder) {
  // HilbertOrder is a permutation sorted by Hilbert value, and the total
  // tour length of Hilbert-consecutive points must be far below that of a
  // random visiting order (the locality the ANN grouping and SA
  // partitioning rely on; both walk HilbertOrder).
  std::vector<Point> pts;
  const Rect world = Rect::FromCorners({0, 0}, {1000, 1000});
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 64; ++j) {
      pts.push_back(Point{i * 1000.0 / 63, j * 1000.0 / 63});
    }
  }
  const std::vector<int> order = HilbertOrder(pts, world);
  // A permutation, sorted by Hilbert value.
  ASSERT_EQ(std::set<int>(order.begin(), order.end()).size(), pts.size());
  const auto at = [&](const std::vector<int>& o, std::size_t i) {
    return pts[static_cast<std::size_t>(o[i])];
  };
  for (std::size_t i = 1; i < order.size(); ++i) {
    ASSERT_LE(HilbertValue(at(order, i - 1), world), HilbertValue(at(order, i), world));
  }
  std::vector<int> shuffled = order;
  Rng rng(5);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(rng.NextBelow(i))]);
  }
  double hilbert_total = 0.0, shuffled_total = 0.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    hilbert_total += Distance(at(order, i - 1), at(order, i));
    shuffled_total += Distance(at(shuffled, i - 1), at(shuffled, i));
  }
  EXPECT_LT(hilbert_total, shuffled_total * 0.1);
}

}  // namespace
}  // namespace cca
