#include "geo/hier_grid.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cca {

namespace {

// Same resolution rule as UniformGrid::ResolutionFor, applied to the coarse
// lattice (square cells near `target_per_cell` residents on average, with
// the collinear / coincident fallbacks).
void CoarseResolutionFor(const Rect& bounds, std::size_t n_points, double target_per_cell,
                         double* cell, int* cols, int* rows) {
  const double w = bounds.width();
  const double h = bounds.height();
  const double n = static_cast<double>(n_points);
  const double cells_target = std::max(1.0, n / std::max(1.0, target_per_cell));
  if (w > 0.0 && h > 0.0) {
    *cell = std::sqrt(w * h / cells_target);
  } else if (w > 0.0 || h > 0.0) {
    *cell = std::max(w, h) / cells_target;  // collinear: one row/column
  } else {
    *cell = 1.0;  // all points coincide (or empty): a single cell
  }
  *cols = std::max(1, static_cast<int>(std::ceil(w / *cell)));
  *rows = std::max(1, static_cast<int>(std::ceil(h / *cell)));
}

}  // namespace

HierarchicalGrid::HierarchicalGrid(const std::vector<Point>& points, const Options& options) {
  for (const auto& p : points) bounds_.Expand(p);
  if (bounds_.empty()) bounds_ = Rect::FromPoint(Point{0.0, 0.0});

  const double coarse_target = options.coarse_target_per_cell > 0.0
                                   ? options.coarse_target_per_cell
                                   : 16.0 * UniformGrid::kDefaultTargetPerCell;
  const double fine_target = options.fine_target_per_cell > 0.0
                                 ? options.fine_target_per_cell
                                 : UniformGrid::kDefaultTargetPerCell;
  split_threshold_ =
      options.split_threshold > 0
          ? options.split_threshold
          : static_cast<std::size_t>(std::max(1.0, std::ceil(4.0 * fine_target)));

  CoarseResolutionFor(bounds_, points.size(), coarse_target, &cell_, &cols_, &rows_);
  const std::size_t num_coarse_cells = num_coarse();

  // Pass 1: coarse occupancy decides each cell's split factor.
  coarse_of_.resize(points.size());
  std::vector<std::int32_t> coarse_count(num_coarse_cells, 0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    int cx = 0, cy = 0;
    LocateCoarse(points[i], &cx, &cy);
    coarse_of_[i] = static_cast<std::int32_t>(CoarseIndex(cx, cy));
    ++coarse_count[static_cast<std::size_t>(coarse_of_[i])];
  }
  split_.resize(num_coarse_cells);
  fine_offset_.assign(num_coarse_cells + 1, 0);
  for (std::size_t c = 0; c < num_coarse_cells; ++c) {
    const auto occ = static_cast<std::size_t>(coarse_count[c]);
    int s = 1;
    if (occ > split_threshold_) {
      // Aim the children near the fine target; at least 2x2 (otherwise the
      // split buys nothing), at most kMaxSplit x kMaxSplit.
      const double want = std::ceil(std::sqrt(static_cast<double>(occ) / fine_target));
      s = std::clamp(static_cast<int>(want), 2, Options::kMaxSplit);
      ++splits_;
    }
    split_[c] = s;
    fine_offset_[c + 1] = fine_offset_[c] + static_cast<std::int32_t>(s) * s;
  }
  const auto num_fine_cells = static_cast<std::size_t>(fine_offset_[num_coarse_cells]);
  fine_owner_.resize(num_fine_cells);
  for (std::size_t c = 0; c < num_coarse_cells; ++c) {
    for (auto f = fine_offset_[c]; f < fine_offset_[c + 1]; ++f) {
      fine_owner_[static_cast<std::size_t>(f)] = static_cast<std::int32_t>(c);
    }
  }

  // Pass 2: CSR over fine cells (counting sort, like UniformGrid::Build).
  // Fine ids of a coarse cell are consecutive, so the slot order clusters
  // by coarse cell first, then by fine child — coarse_count(c) is one
  // subtraction on the CSR bounds.
  start_.assign(num_fine_cells + 1, 0);
  items_.resize(points.size());
  xs_.resize(points.size());
  ys_.resize(points.size());
  fine_of_.resize(points.size());
  slot_of_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<std::size_t>(coarse_of_[i]);
    const int s = split_[c];
    std::size_t f = static_cast<std::size_t>(fine_offset_[c]);
    if (s > 1) {
      const Rect r = CoarseRect(c);
      const double sub = cell_ / static_cast<double>(s);
      const int fx = std::clamp(
          static_cast<int>(std::floor((points[i].x - r.lo.x) / sub)), 0, s - 1);
      const int fy = std::clamp(
          static_cast<int>(std::floor((points[i].y - r.lo.y) / sub)), 0, s - 1);
      f += static_cast<std::size_t>(fy) * static_cast<std::size_t>(s) +
           static_cast<std::size_t>(fx);
    }
    fine_of_[i] = static_cast<std::int32_t>(f);
    ++start_[f + 1];
  }
  for (std::size_t f = 0; f < num_fine_cells; ++f) start_[f + 1] += start_[f];
  std::vector<std::int32_t> cursor(start_.begin(), start_.end() - 1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto slot = static_cast<std::size_t>(cursor[static_cast<std::size_t>(fine_of_[i])]++);
    items_[slot] = static_cast<std::int32_t>(i);
    xs_[slot] = points[i].x;
    ys_[slot] = points[i].y;
    slot_of_[i] = static_cast<std::int32_t>(slot);
  }
  nonempty_coarse_.clear();
  for (std::size_t c = 0; c < num_coarse_cells; ++c) {
    if (coarse_count[c] > 0) nonempty_coarse_.push_back(static_cast<std::int32_t>(c));
  }
}

void HierarchicalGrid::LocateCoarse(const Point& q, int* cx, int* cy) const {
  const int x = static_cast<int>(std::floor((q.x - bounds_.lo.x) / cell_));
  const int y = static_cast<int>(std::floor((q.y - bounds_.lo.y) / cell_));
  *cx = std::clamp(x, 0, cols_ - 1);
  *cy = std::clamp(y, 0, rows_ - 1);
}

int HierarchicalGrid::MaxRing(const Point& q) const {
  int cx = 0, cy = 0;
  LocateCoarse(q, &cx, &cy);
  const int dx = std::max(cx, cols_ - 1 - cx);
  const int dy = std::max(cy, rows_ - 1 - cy);
  return std::max(dx, dy);
}

double HierarchicalGrid::RingTailMinDist(const Point& q, int ring) const {
  // Same reasoning as UniformGrid::RingTailMinDist, on the coarse lattice:
  // the bound is floored by MinDist(q, bounds) so exterior queries keep a
  // useful bound on the rings whose cell square does not contain them.
  const double outside = MinDist(q, bounds_);
  if (ring <= 0) return outside;
  int cx = 0, cy = 0;
  LocateCoarse(q, &cx, &cy);
  const int half = ring - 1;
  const double lx = bounds_.lo.x + static_cast<double>(cx - half) * cell_;
  const double hx = bounds_.lo.x + static_cast<double>(cx + half + 1) * cell_;
  const double ly = bounds_.lo.y + static_cast<double>(cy - half) * cell_;
  const double hy = bounds_.lo.y + static_cast<double>(cy + half + 1) * cell_;
  if (q.x < lx || q.x > hx || q.y < ly || q.y > hy) return outside;
  const double side = std::min(std::min(q.x - lx, hx - q.x), std::min(q.y - ly, hy - q.y));
  return std::max(std::max(side, 0.0), outside);
}

Rect HierarchicalGrid::CoarseRect(std::size_t c) const {
  const auto cx = static_cast<double>(c % static_cast<std::size_t>(cols_));
  const auto cy = static_cast<double>(c / static_cast<std::size_t>(cols_));
  const double lx = bounds_.lo.x + cx * cell_;
  const double ly = bounds_.lo.y + cy * cell_;
  return Rect{{lx, ly}, {lx + cell_, ly + cell_}};
}

Rect HierarchicalGrid::FineRect(std::size_t f) const {
  const auto c = static_cast<std::size_t>(fine_owner_[f]);
  const int s = split_[c];
  const Rect coarse = CoarseRect(c);
  if (s == 1) return coarse;
  const auto local = f - static_cast<std::size_t>(fine_offset_[c]);
  const auto fx = static_cast<double>(local % static_cast<std::size_t>(s));
  const auto fy = static_cast<double>(local / static_cast<std::size_t>(s));
  const double sub = cell_ / static_cast<double>(s);
  const double lx = coarse.lo.x + fx * sub;
  const double ly = coarse.lo.y + fy * sub;
  return Rect{{lx, ly}, {lx + sub, ly + sub}};
}

UniformGrid::CellSlice HierarchicalGrid::FineCell(std::size_t f) const {
  const auto begin = static_cast<std::size_t>(start_[f]);
  const auto end = static_cast<std::size_t>(start_[f + 1]);
  UniformGrid::CellSlice slice;
  slice.ids = items_.data() + begin;
  slice.xs = xs_.data() + begin;
  slice.ys = ys_.data() + begin;
  slice.count = end - begin;
  slice.first_slot = begin;
  return slice;
}

HierTauTable::HierTauTable(const HierarchicalGrid& grid)
    : grid_(&grid),
      values_(grid.size(), 0.0),
      fine_floors_(grid.num_fine(), std::numeric_limits<double>::infinity()),
      coarse_floors_(grid.num_coarse(), std::numeric_limits<double>::infinity()) {
  for (std::size_t f = 0; f < grid.num_fine(); ++f) {
    if (grid.fine_cell_end(f) > grid.fine_cell_begin(f)) fine_floors_[f] = 0.0;
  }
  for (const std::int32_t c : grid.nonempty_coarse()) {
    coarse_floors_[static_cast<std::size_t>(c)] = 0.0;
  }
}

HierTauTable::HierTauTable(const HierarchicalGrid& grid, const std::vector<double>& initial)
    : grid_(&grid),
      values_(grid.size()),
      fine_floors_(grid.num_fine(), std::numeric_limits<double>::infinity()),
      coarse_floors_(grid.num_coarse(), std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    values_[grid.slot_of_point(i)] = initial[i];
  }
  for (std::size_t f = 0; f < grid.num_fine(); ++f) {
    const std::size_t begin = grid.fine_cell_begin(f);
    const std::size_t end = grid.fine_cell_end(f);
    if (begin == end) continue;
    double floor = values_[begin];
    for (std::size_t s = begin + 1; s < end; ++s) floor = std::min(floor, values_[s]);
    fine_floors_[f] = floor;
  }
  for (const std::int32_t c : grid.nonempty_coarse()) {
    const auto coarse = static_cast<std::size_t>(c);
    double floor = std::numeric_limits<double>::infinity();
    for (std::size_t f = grid.fine_begin(coarse); f < grid.fine_end(coarse); ++f) {
      floor = std::min(floor, fine_floors_[f]);
    }
    coarse_floors_[coarse] = floor;
  }
  // Cached global starts stale; the first GlobalFloor() call rescans.
  global_dirty_ = !grid.nonempty_coarse().empty();
}

void HierTauTable::Raise(std::size_t point_id, double value) {
  const std::size_t slot = grid_->slot_of_point(point_id);
  const double old = values_[slot];
  if (value <= old) return;  // monotone contract: never lower a value
  values_[slot] = value;
  // Only a resident at the fine cell's minimum can move its floor (old >
  // floor means another resident holds it): rescan the cell. Residents
  // raised to +infinity read +infinity, so a fully-removed fine cell
  // floors at +infinity.
  const std::size_t fine = grid_->fine_of_point(point_id);
  const double old_fine = fine_floors_[fine];
  if (old > old_fine) return;
  const std::size_t end = grid_->fine_cell_end(fine);
  double fine_floor = values_[grid_->fine_cell_begin(fine)];
  for (std::size_t s = grid_->fine_cell_begin(fine) + 1; s < end; ++s) {
    fine_floor = std::min(fine_floor, values_[s]);
  }
  if (fine_floor == old_fine) return;
  fine_floors_[fine] = fine_floor;
  // Cascade one level up: the coarse floor is the min over child fine
  // floors, so it only moves when the child holding it moved.
  const std::size_t coarse = grid_->coarse_of_point(point_id);
  if (old_fine > coarse_floors_[coarse]) return;
  double coarse_floor = std::numeric_limits<double>::infinity();
  const std::size_t fine_end = grid_->fine_end(coarse);
  for (std::size_t f = grid_->fine_begin(coarse); f < fine_end; ++f) {
    coarse_floor = std::min(coarse_floor, fine_floors_[f]);
  }
  if (coarse_floor == coarse_floors_[coarse]) return;
  // The global floor only moves with the coarse cell that held it; defer
  // the rescan until someone asks.
  if (coarse_floors_[coarse] == global_floor_) global_dirty_ = true;
  coarse_floors_[coarse] = coarse_floor;
}

double HierTauTable::MinAugmentedDistance(const Point& q, double cutoff,
                                          std::uint64_t* distances) const {
  const HierarchicalGrid& grid = *grid_;
  double best = cutoff;
  for (const std::int32_t cc : grid.nonempty_coarse()) {
    const auto c = static_cast<std::size_t>(cc);
    if (MinDist(q, grid.CoarseRect(c)) + coarse_floors_[c] >= best) continue;
    for (std::size_t f = grid.fine_begin(c); f < grid.fine_end(c); ++f) {
      if (grid.fine_cell_begin(f) == grid.fine_cell_end(f)) continue;
      if (MinDist(q, grid.FineRect(f)) + fine_floors_[f] >= best) continue;
      const UniformGrid::CellSlice slice = grid.FineCell(f);
      const double* taus = values_.data() + slice.first_slot;
      *distances += slice.count;
      for (std::size_t i = 0; i < slice.count; ++i) {
        best = std::min(best, Distance(q, Point{slice.xs[i], slice.ys[i]}) + taus[i]);
      }
    }
  }
  return best;
}

double HierTauTable::GlobalFloor() {
  if (global_dirty_) {
    global_dirty_ = false;
    global_floor_ = std::numeric_limits<double>::infinity();
    for (const std::int32_t c : grid_->nonempty_coarse()) {
      global_floor_ = std::min(global_floor_, coarse_floors_[static_cast<std::size_t>(c)]);
    }
    if (grid_->nonempty_coarse().empty()) global_floor_ = 0.0;
  }
  return global_floor_;
}

}  // namespace cca
