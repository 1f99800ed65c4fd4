#include "geo/hier_grid.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cca {

namespace {

// Non-positive Options targets fall back to the defaults.
double OrDefault(double target, double fallback) { return target > 0.0 ? target : fallback; }

}  // namespace

HierarchicalGrid::HierarchicalGrid(const std::vector<Point>& points, const Options& options) {
  const double coarse_target =
      OrDefault(options.coarse_target_per_cell, 16.0 * UniformGrid::kDefaultTargetPerCell);
  auto layout = std::make_shared<Layout>(Lattice(points, coarse_target));
  coarse_of_ = layout->coarse.CellsOf(points);
  const double fine_target =
      OrDefault(options.fine_target_per_cell, UniformGrid::kDefaultTargetPerCell);
  layout->split_threshold =
      options.split_threshold > 0
          ? options.split_threshold
          : static_cast<std::size_t>(std::max(1.0, std::ceil(4.0 * fine_target)));
  const std::size_t num_coarse_cells = layout->coarse.num_cells();

  // Pass 1: coarse occupancy decides each cell's split factor.
  std::vector<std::int32_t> coarse_count(num_coarse_cells, 0);
  for (const std::int32_t c : coarse_of_) ++coarse_count[static_cast<std::size_t>(c)];
  layout->split.resize(num_coarse_cells);
  layout->fine_offset.assign(num_coarse_cells + 1, 0);
  for (std::size_t c = 0; c < num_coarse_cells; ++c) {
    const auto occ = static_cast<std::size_t>(coarse_count[c]);
    int s = 1;
    if (occ > layout->split_threshold) {
      // Aim the children near the fine target; at least 2x2 (otherwise the
      // split buys nothing), at most kMaxSplit x kMaxSplit.
      const double want = std::ceil(std::sqrt(static_cast<double>(occ) / fine_target));
      s = std::clamp(static_cast<int>(want), 2, Options::kMaxSplit);
      ++layout->splits;
    }
    layout->split[c] = s;
    layout->fine_offset[c + 1] = layout->fine_offset[c] + static_cast<std::int32_t>(s) * s;
  }
  layout->fine_owner.resize(static_cast<std::size_t>(layout->fine_offset[num_coarse_cells]));
  for (std::size_t c = 0; c < num_coarse_cells; ++c) {
    for (auto f = layout->fine_offset[c]; f < layout->fine_offset[c + 1]; ++f) {
      layout->fine_owner[static_cast<std::size_t>(f)] = static_cast<std::int32_t>(c);
    }
  }
  layout_ = std::move(layout);
  Bucket(points);
}

HierarchicalGrid::HierarchicalGrid(const std::vector<Point>& points,
                                   const HierarchicalGrid& kept)
    : layout_(kept.layout_),
      coarse_of_(kept.coarse().CellsOf(points)) {
  assert(std::all_of(points.begin(), points.end(),
                     [&](const Point& p) { return coarse().bounds().Contains(p); }) &&
         "re-bucketed points must lie inside the layout's bounding box");
  Bucket(points);
}

void HierarchicalGrid::Bucket(const std::vector<Point>& points) {
  // Pass 2: CSR over fine cells. Fine ids of a coarse cell are
  // consecutive, so the slot order clusters by coarse cell first, then by
  // fine child — coarse_count(c) is one subtraction on the CSR bounds.
  const Layout& layout = *layout_;
  fine_of_.resize(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto c = static_cast<std::size_t>(coarse_of_[i]);
    const int s = layout.split[c];
    std::size_t f = layout.fine_begin(c);
    if (s > 1) {
      const Rect r = layout.coarse.CellRect(c);
      const double sub = layout.coarse.cell_size() / static_cast<double>(s);
      const int fx = std::clamp(
          static_cast<int>(std::floor((points[i].x - r.lo.x) / sub)), 0, s - 1);
      const int fy = std::clamp(
          static_cast<int>(std::floor((points[i].y - r.lo.y) / sub)), 0, s - 1);
      f += static_cast<std::size_t>(fy) * static_cast<std::size_t>(s) +
           static_cast<std::size_t>(fx);
    }
    fine_of_[i] = static_cast<std::int32_t>(f);
  }
  csr_ = CellCsr(points, fine_of_, num_fine());
  for (std::size_t c = 0; c < layout.coarse.num_cells(); ++c) {
    if (coarse_count(c) > 0) nonempty_coarse_.push_back(static_cast<std::int32_t>(c));
  }
}

Rect HierarchicalGrid::Layout::FineRect(std::size_t f) const {
  const auto c = static_cast<std::size_t>(fine_owner[f]);
  const int s = split[c];
  const Rect rect = coarse.CellRect(c);
  if (s == 1) return rect;
  const auto local = f - fine_begin(c);
  const auto fx = static_cast<double>(local % static_cast<std::size_t>(s));
  const auto fy = static_cast<double>(local / static_cast<std::size_t>(s));
  const double sub = coarse.cell_size() / static_cast<double>(s);
  const double lx = rect.lo.x + fx * sub;
  const double ly = rect.lo.y + fy * sub;
  return Rect{{lx, ly}, {lx + sub, ly + sub}};
}

HierTauTable::HierTauTable(const HierarchicalGrid& grid, const std::vector<double>& initial)
    : grid_(&grid),
      values_(grid.size()),
      fine_floors_(grid.num_fine(), std::numeric_limits<double>::infinity()),
      coarse_floors_(grid.coarse().num_cells(), std::numeric_limits<double>::infinity()) {
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
