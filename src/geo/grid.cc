#include "geo/grid.h"

#include <algorithm>
#include <limits>

namespace cca {

UniformGrid::UniformGrid(const std::vector<Point>& points, double target_per_cell)
    : lattice_(points, target_per_cell),
      cell_of_(lattice_.CellsOf(points)),
      csr_(points, cell_of_, lattice_.num_cells()) {
  for (std::size_t c = 0; c < lattice_.num_cells(); ++c) {
    if (csr_.cell_end(c) > csr_.cell_begin(c)) {
      nonempty_cells_.push_back(static_cast<std::int32_t>(c));
    }
  }
}

CellTauTable::CellTauTable(const UniformGrid& grid)
    : grid_(&grid),
      values_(grid.size(), 0.0),
      floors_(grid.lattice().num_cells(), std::numeric_limits<double>::infinity()) {
  for (const std::int32_t c : grid.nonempty_cells()) {
    floors_[static_cast<std::size_t>(c)] = 0.0;
  }
}

CellTauTable::CellTauTable(const UniformGrid& grid, const std::vector<double>& initial)
    : grid_(&grid),
      values_(grid.size()),
      floors_(grid.lattice().num_cells(), std::numeric_limits<double>::infinity()) {
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
  const std::size_t slot = grid_->slot_of_point(point_id);
  const double old = values_[slot];
  if (value <= old) return;  // monotone contract: never lower a value
  values_[slot] = value;
  // Only a resident at the cell's minimum can move its floor (old > floor
  // means another resident holds it): rescan the residents. Residents
  // raised to +infinity read +infinity, so a fully-raised cell floors at
  // +infinity exactly like an empty one.
  const std::size_t cell = grid_->cell_of_point(point_id);
  if (old > floors_[cell]) return;
  const std::size_t end = grid_->cell_end(cell);
  double floor = values_[grid_->cell_begin(cell)];
  for (std::size_t s = grid_->cell_begin(cell) + 1; s < end; ++s) {
    floor = std::min(floor, values_[s]);
  }
  if (floor == floors_[cell]) return;
  // The global floor is the min over cell floors; it can only move when
  // the cell holding it moves, so defer the rescan until someone asks.
  if (floors_[cell] == global_floor_) global_dirty_ = true;
  floors_[cell] = floor;
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
