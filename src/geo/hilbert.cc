#include "geo/hilbert.h"

#include <algorithm>
#include <numeric>

namespace cca {
namespace {

// One step of the classic Hilbert rotation/reflection.
inline void Rotate(std::uint32_t n, std::uint32_t* x, std::uint32_t* y, std::uint32_t rx,
                   std::uint32_t ry) {
  if (ry == 0) {
    if (rx == 1) {
      *x = n - 1 - *x;
      *y = n - 1 - *y;
    }
    std::swap(*x, *y);
  }
}

}  // namespace

std::uint64_t HilbertIndex(std::uint32_t x, std::uint32_t y, int order) {
  std::uint64_t d = 0;
  for (std::uint32_t s = 1u << (order - 1); s > 0; s >>= 1) {
    const std::uint32_t rx = (x & s) > 0 ? 1u : 0u;
    const std::uint32_t ry = (y & s) > 0 ? 1u : 0u;
    d += static_cast<std::uint64_t>(s) * s * ((3 * rx) ^ ry);
    Rotate(s, &x, &y, rx, ry);
  }
  return d;
}

void HilbertCell(std::uint64_t index, std::uint32_t* x, std::uint32_t* y, int order) {
  std::uint32_t cx = 0;
  std::uint32_t cy = 0;
  for (std::uint32_t s = 1; s < (1u << order); s <<= 1) {
    const std::uint32_t rx = 1u & static_cast<std::uint32_t>(index / 2);
    const std::uint32_t ry = 1u & static_cast<std::uint32_t>(index ^ rx);
    Rotate(s, &cx, &cy, rx, ry);
    cx += s * rx;
    cy += s * ry;
    index /= 4;
  }
  *x = cx;
  *y = cy;
}

std::uint64_t HilbertValue(const Point& p, const Rect& world, int order) {
  const double n = static_cast<double>(1u << order);
  const double w = std::max(world.width(), 1e-12);
  const double h = std::max(world.height(), 1e-12);
  double fx = (p.x - world.lo.x) / w * n;
  double fy = (p.y - world.lo.y) / h * n;
  const double max_cell = n - 1.0;
  fx = std::clamp(fx, 0.0, max_cell);
  fy = std::clamp(fy, 0.0, max_cell);
  return HilbertIndex(static_cast<std::uint32_t>(fx), static_cast<std::uint32_t>(fy), order);
}

std::vector<int> HilbertOrder(const std::vector<Point>& points, const Rect& world) {
  std::vector<int> order(points.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::uint64_t> hv(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) hv[i] = HilbertValue(points[i], world);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return hv[static_cast<std::size_t>(a)] < hv[static_cast<std::size_t>(b)];
  });
  return order;
}

}  // namespace cca
