// Uniform grid over a static point set: one Lattice (geo/lattice.h) whose
// cells store the points directly, clustered by a CellCsr. The lattice
// carries the geometry and the ring contract (`lattice()`); the grid adds
// the per-cell slices and the point -> cell/slot inverse maps.
#ifndef CCA_GEO_GRID_H_
#define CCA_GEO_GRID_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "geo/lattice.h"
#include "geo/point.h"

namespace cca {

class UniformGrid {
 public:
  // Default resolution: average points per cell the builder aims for.
  static constexpr double kDefaultTargetPerCell = 4.0;

  // Builds the grid over `points`. `target_per_cell` (must be positive)
  // tunes the resolution (Lattice has the degenerate-input fallbacks).
  // Skewed inputs are the HierarchicalGrid's business (geo/hier_grid.h).
  explicit UniformGrid(const std::vector<Point>& points,
                       double target_per_cell = kDefaultTargetPerCell);

  std::size_t size() const { return csr_.size(); }
  const Lattice& lattice() const { return lattice_; }

  // Contents of cell `cell_index` (Lattice::CellIndex addressing).
  CellSlice Cell(std::size_t cell_index) const { return csr_.Slice(cell_index); }

  // Inverse maps of the clustered layout: the cell holding point `i`, and
  // the slot of point `i` inside the clustered arrays (and any
  // slot-ordered side table).
  std::size_t cell_of_point(std::size_t i) const {
    return static_cast<std::size_t>(cell_of_[i]);
  }
  std::size_t slot_of_point(std::size_t i) const { return csr_.slot_of_point(i); }

  // Slot span [begin, end) of a cell inside the clustered arrays.
  std::size_t cell_begin(std::size_t cell_index) const { return csr_.cell_begin(cell_index); }
  std::size_t cell_end(std::size_t cell_index) const { return csr_.cell_end(cell_index); }

  // Linear indices of the occupied cells, ascending (CellTauTable's
  // global-floor rescan iterates it instead of the full lattice).
  const std::vector<std::int32_t>& nonempty_cells() const { return nonempty_cells_; }

 private:
  Lattice lattice_;
  std::vector<std::int32_t> cell_of_;  // point id -> cell index
  CellCsr csr_;
  std::vector<std::int32_t> nonempty_cells_;  // occupied cell indices, ascending
};

// Per-cell floor of a per-point scalar that only ever increases (the SSPA
// customer potentials tau_p), maintained incrementally. The table keeps
//
//   * `values()`: a slot-ordered copy of the scalar, aligned with the
//     grid's clustered coordinate slices so a kernel can stream
//     `values() + slice.first_slot` next to `slice.xs`/`slice.ys`;
//   * `CellFloor(c)`: the exact min over cell c's residents (+infinity for
//     empty cells), recomputed by an O(residents) slice scan only when the
//     raised point held the cell's minimum;
//   * `GlobalFloor()`: the exact min over all residents, re-derived from
//     the per-cell floors only when the cell that held it moved.
//
// Soundness under monotone updates (the src/flow/README.md invariant): a
// stored floor is the min of values current at some earlier time; values
// never decrease, so it remains a lower bound on the cell's residents even
// before the incremental recompute lands. This class keeps floors *exact*
// after every Raise, but consumers only ever rely on the lower-bound
// direction. Raise is the only write: raising a resident to +infinity
// removes it from every floor (kernels streaming values() reject it for
// free), and no floor ever moves down.
class CellTauTable {
 public:
  explicit CellTauTable(const UniformGrid& grid);
  // Seeded construction for warm starts: `initial[i]` is the starting
  // value of point id `i` (must cover every indexed point; values are
  // stored slot-ordered internally). Floors start exact over the seeds.
  CellTauTable(const UniformGrid& grid, const std::vector<double>& initial);

  // Raises point `point_id` to `value` (lower values are ignored, keeping
  // the monotone contract) and restores the exactness of the resident
  // cell's floor and the cached global floor. A cell whose residents are
  // all at +infinity floors at +infinity, like an empty cell.
  void Raise(std::size_t point_id, double value);

  // Exact min value over the residents of `cell_index` (+infinity when the
  // cell is empty).
  double CellFloor(std::size_t cell_index) const { return floors_[cell_index]; }

  // Exact min value over every indexed point (0 for an empty grid); cached,
  // rescanning the occupied cells' floors only after a Raise displaced it.
  double GlobalFloor();

  // Slot-ordered value array: values()[slice.first_slot + i] is the value
  // of point slice.ids[i].
  const double* values() const { return values_.data(); }

 private:
  const UniformGrid* grid_;
  std::vector<double> values_;  // slot-ordered, aligned with grid slices
  std::vector<double> floors_;  // per cell; +infinity when empty
  double global_floor_ = 0.0;
  bool global_dirty_ = false;
};

}  // namespace cca

#endif  // CCA_GEO_GRID_H_
