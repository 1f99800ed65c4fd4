#include "geo/grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cca {

UniformGrid::UniformGrid(const std::vector<Point>& points, double target_per_cell) {
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

  const std::size_t num_cells = static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  start_.assign(num_cells + 1, 0);
  items_.resize(points.size());
  xs_.resize(points.size());
  ys_.resize(points.size());

  cell_of_.resize(points.size());
  slot_of_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    int cx = 0, cy = 0;
    Locate(points[i], &cx, &cy);
    cell_of_[i] = static_cast<std::int32_t>(CellIndex(cx, cy));
    ++start_[static_cast<std::size_t>(cell_of_[i]) + 1];
  }
  for (std::size_t c = 0; c < num_cells; ++c) start_[c + 1] += start_[c];
  std::vector<std::int32_t> cursor(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto slot = static_cast<std::size_t>(cursor[static_cast<std::size_t>(cell_of_[i])]++);
    items_[slot] = static_cast<std::int32_t>(i);
    xs_[slot] = points[i].x;
    ys_[slot] = points[i].y;
    slot_of_[i] = static_cast<std::int32_t>(slot);
  }
  for (std::size_t c = 0; c < num_cells; ++c) {
    if (start_[c + 1] > start_[c]) nonempty_cells_.push_back(static_cast<std::int32_t>(c));
  }
}

void UniformGrid::Locate(const Point& q, int* cx, int* cy) const {
  const int x = static_cast<int>(std::floor((q.x - bounds_.lo.x) / cell_));
  const int y = static_cast<int>(std::floor((q.y - bounds_.lo.y) / cell_));
  *cx = std::clamp(x, 0, cols_ - 1);
  *cy = std::clamp(y, 0, rows_ - 1);
}

int UniformGrid::MaxRing(const Point& q) const {
  int cx = 0, cy = 0;
  Locate(q, &cx, &cy);
  const int dx = std::max(cx, cols_ - 1 - cx);
  const int dy = std::max(cy, rows_ - 1 - cy);
  return std::max(dx, dy);
}

double UniformGrid::RingTailMinDist(const Point& q, int ring) const {
  // Every indexed point lies inside the bounding box, so its distance to
  // an exterior query is at least MinDist(q, bounds): without this floor a
  // query outside the box gets a useless 0 bound for the small rings whose
  // cell square does not contain it, and NN cursors for exterior providers
  // could never certify a candidate before exhausting the grid.
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

Rect UniformGrid::CellRect(int cx, int cy) const {
  const double lx = bounds_.lo.x + static_cast<double>(cx) * cell_;
  const double ly = bounds_.lo.y + static_cast<double>(cy) * cell_;
  return Rect{{lx, ly}, {lx + cell_, ly + cell_}};
}

UniformGrid::CellSlice UniformGrid::Cell(int cx, int cy) const {
  const std::size_t c = CellIndex(cx, cy);
  const auto begin = static_cast<std::size_t>(start_[c]);
  const auto end = static_cast<std::size_t>(start_[c + 1]);
  CellSlice slice;
  slice.ids = items_.data() + begin;
  slice.xs = xs_.data() + begin;
  slice.ys = ys_.data() + begin;
  slice.count = end - begin;
  slice.first_slot = begin;
  return slice;
}

CellTauTable::CellTauTable(const UniformGrid& grid)
    : grid_(&grid),
      values_(grid.size(), 0.0),
      floors_(grid.num_cells(), std::numeric_limits<double>::infinity()) {
  for (const std::int32_t c : grid.nonempty_cells()) {
    floors_[static_cast<std::size_t>(c)] = 0.0;
  }
}

CellTauTable::CellTauTable(const UniformGrid& grid, const std::vector<double>& initial)
    : grid_(&grid),
      values_(grid.size()),
      floors_(grid.num_cells(), std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[grid.slot_of_point(i)] = initial[i];
  }
  for (const std::int32_t c : grid.nonempty_cells()) {
    const auto cell = static_cast<std::size_t>(c);
    double floor = values_[grid.cell_begin(cell)];
    for (std::size_t s = grid.cell_begin(cell) + 1; s < grid.cell_end(cell); ++s) {
      floor = std::min(floor, values_[s]);
    }
    floors_[cell] = floor;
  }
  // Cached global starts stale; the first GlobalFloor() call rescans.
  global_dirty_ = !grid.nonempty_cells().empty();
}

void CellTauTable::Raise(std::size_t point_id, double value) {
  if (value <= values_[grid_->slot_of_point(point_id)]) {
    return;  // monotone contract: never lower a value
  }
  Set(point_id, value);
}

void CellTauTable::Remove(std::size_t point_id) {
  Set(point_id, std::numeric_limits<double>::infinity());
}

void CellTauTable::Set(std::size_t point_id, double value) {
  const std::size_t slot = grid_->slot_of_point(point_id);
  const double old = values_[slot];
  if (value == old) return;
  values_[slot] = value;
  const std::size_t cell = grid_->cell_of_point(point_id);
  double floor = floors_[cell];
  if (value < floor) {
    // New cell minimum: no rescan needed, and the cached global can only
    // move down to the same value.
    floor = value;
  } else if (old <= floors_[cell]) {
    // The old value held the cell's minimum (old > floor means somebody
    // else holds it and the floor is unaffected): rescan the residents.
    // Removed residents read +infinity, so a fully-removed cell floors at
    // +infinity exactly like an empty one.
    const std::size_t end = grid_->cell_end(cell);
    floor = values_[grid_->cell_begin(cell)];
    for (std::size_t s = grid_->cell_begin(cell) + 1; s < end; ++s) {
      floor = std::min(floor, values_[s]);
    }
  }
  if (floor != floors_[cell]) {
    if (!global_dirty_) {
      if (floor < global_floor_) {
        // Lowered below the cached global: the new global is exactly this.
        global_floor_ = floor;
      } else if (floors_[cell] == global_floor_) {
        // The global floor is the min over cell floors; it can only move
        // when the cell holding it moves, so defer the rescan until
        // someone asks.
        global_dirty_ = true;
      }
    }
    floors_[cell] = floor;
  }
}

double CellTauTable::GlobalFloor() {
  if (global_dirty_) {
    global_dirty_ = false;
    global_floor_ = std::numeric_limits<double>::infinity();
    for (const std::int32_t c : grid_->nonempty_cells()) {
      global_floor_ = std::min(global_floor_, floors_[static_cast<std::size_t>(c)]);
    }
    if (grid_->nonempty_cells().empty()) global_floor_ = 0.0;
  }
  return global_floor_;
}

}  // namespace cca
