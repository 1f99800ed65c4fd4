#include "geo/lattice.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cca {

Lattice::Lattice(const std::vector<Point>& points, double target_per_cell) {
  assert(target_per_cell > 0.0);
  for (const auto& p : points) bounds_.Expand(p);
  if (bounds_.empty()) bounds_ = Rect::FromPoint(Point{0.0, 0.0});
  const double w = bounds_.width();
  const double h = bounds_.height();
  const double cells_target =
      std::max(1.0, static_cast<double>(points.size()) / std::max(1.0, target_per_cell));
  if (w > 0.0 && h > 0.0) {
    cell_ = std::sqrt(w * h / cells_target);
  } else if (w > 0.0 || h > 0.0) {
    cell_ = std::max(w, h) / cells_target;  // collinear: one row/column
  } else {
    cell_ = 1.0;  // all points coincide (or empty): a single cell
  }
  cols_ = std::max(1, static_cast<int>(std::ceil(w / cell_)));
  rows_ = std::max(1, static_cast<int>(std::ceil(h / cell_)));
}

void Lattice::Locate(const Point& q, int* cx, int* cy) const {
  const int x = static_cast<int>(std::floor((q.x - bounds_.lo.x) / cell_));
  const int y = static_cast<int>(std::floor((q.y - bounds_.lo.y) / cell_));
  *cx = std::clamp(x, 0, cols_ - 1);
  *cy = std::clamp(y, 0, rows_ - 1);
}

std::vector<std::int32_t> Lattice::CellsOf(const std::vector<Point>& points) const {
  std::vector<std::int32_t> cell_of(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    int cx = 0, cy = 0;
    Locate(points[i], &cx, &cy);
    cell_of[i] = static_cast<std::int32_t>(CellIndex(cx, cy));
  }
  return cell_of;
}

Rect Lattice::CellRect(std::size_t c) const {
  const auto cx = static_cast<double>(c % static_cast<std::size_t>(cols_));
  const auto cy = static_cast<double>(c / static_cast<std::size_t>(cols_));
  const double lx = bounds_.lo.x + cx * cell_;
  const double ly = bounds_.lo.y + cy * cell_;
  return Rect{{lx, ly}, {lx + cell_, ly + cell_}};
}

int Lattice::MaxRing(const Point& q) const {
  int cx = 0, cy = 0;
  Locate(q, &cx, &cy);
  const int dx = std::max(cx, cols_ - 1 - cx);
  const int dy = std::max(cy, rows_ - 1 - cy);
  return std::max(dx, dy);
}

double Lattice::RingTailMinDist(const Point& q, int ring) const {
  // Every indexed point lies inside the bounding box, so its distance to
  // an exterior query is at least MinDist(q, bounds): without this floor a
  // query outside the box gets a useless 0 bound for the small rings whose
  // cell square does not contain it, and NN cursors for exterior providers
  // could never certify a candidate before exhausting the lattice.
  const double outside = MinDist(q, bounds_);
  if (ring <= 0) return outside;
  int cx = 0, cy = 0;
  Locate(q, &cx, &cy);
  // Every point in ring >= r lies outside the square of cells at Chebyshev
  // distance <= r-1; if q is inside that square, its distance to the
  // square's boundary bounds all remaining rings from below.
  const int half = ring - 1;
  const double lx = bounds_.lo.x + static_cast<double>(cx - half) * cell_;
  const double hx = bounds_.lo.x + static_cast<double>(cx + half + 1) * cell_;
  const double ly = bounds_.lo.y + static_cast<double>(cy - half) * cell_;
  const double hy = bounds_.lo.y + static_cast<double>(cy + half + 1) * cell_;
  if (q.x < lx || q.x > hx || q.y < ly || q.y > hy) return outside;
  const double side = std::min(std::min(q.x - lx, hx - q.x), std::min(q.y - ly, hy - q.y));
  return std::max(std::max(side, 0.0), outside);
}

CellCsr::CellCsr(const std::vector<Point>& points, const std::vector<std::int32_t>& cell_of,
                 std::size_t num_cells)
    : start_(num_cells + 1, 0),
      items_(points.size()),
      xs_(points.size()),
      ys_(points.size()),
      slot_of_(points.size()) {
  for (const std::int32_t c : cell_of) ++start_[static_cast<std::size_t>(c) + 1];
  for (std::size_t c = 0; c < num_cells; ++c) start_[c + 1] += start_[c];
  std::vector<std::int32_t> cursor(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto slot = static_cast<std::size_t>(cursor[static_cast<std::size_t>(cell_of[i])]++);
    items_[slot] = static_cast<std::int32_t>(i);
    xs_[slot] = points[i].x;
    ys_[slot] = points[i].y;
    slot_of_[i] = static_cast<std::int32_t>(slot);
  }
}

CellSlice CellCsr::Slice(std::size_t c) const {
  const std::size_t begin = cell_begin(c);
  CellSlice slice;
  slice.ids = items_.data() + begin;
  slice.xs = xs_.data() + begin;
  slice.ys = ys_.data() + begin;
  slice.count = cell_end(c) - begin;
  slice.first_slot = begin;
  return slice;
}

}  // namespace cca
