// Uniform grid over a static point set, with expanding-ring enumeration.
//
// The grid partitions the bounding box of the indexed points into square
// cells of roughly `target_per_cell` points each and stores, per cell, the
// point ids *and* a cell-clustered copy of the coordinates (SoA), so a
// caller can run the blocked distance kernel straight over a cell's slice
// without gathering.
//
// Ring enumeration serves the spatially-pruned SSPA relax (src/flow): ring r
// around a query point q is the set of cells at Chebyshev distance exactly r
// from q's (clamped) cell. `RingTailMinDist(q, r)` lower-bounds the
// Euclidean distance from q to every point stored in ring r *or any later
// ring*, and is non-decreasing in r, which is what makes the early exit in
// the relax loop sound (see src/flow/README.md).
#ifndef CCA_GEO_GRID_H_
#define CCA_GEO_GRID_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

class UniformGrid {
 public:
  // A cell's contents: point ids plus the matching cell-clustered
  // coordinate slices (xs[i]/ys[i] are the coordinates of ids[i]).
  // `first_slot` is the slice's offset into the grid's clustered arrays, so
  // side tables laid out in slot order (CellTauTable values) can be sliced
  // in lockstep with the coordinates.
  struct CellSlice {
    const std::int32_t* ids = nullptr;
    const double* xs = nullptr;
    const double* ys = nullptr;
    std::size_t count = 0;
    std::size_t first_slot = 0;
  };

  // Default resolution: average points per cell the builder aims for.
  static constexpr double kDefaultTargetPerCell = 4.0;

  // Builds the grid over `points`. `target_per_cell` (must be positive)
  // tunes the resolution; degenerate inputs (empty set, collinear points,
  // all-equal points) fall back to a single row/column/cell. Skewed inputs
  // are the HierarchicalGrid's business (geo/hier_grid.h).
  explicit UniformGrid(const std::vector<Point>& points,
                       double target_per_cell = kDefaultTargetPerCell);

  std::size_t size() const { return static_cast<std::size_t>(items_.size()); }
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  double cell_size() const { return cell_; }
  const Rect& bounds() const { return bounds_; }

  // Cell coordinates of `q`, clamped into the grid.
  void Locate(const Point& q, int* cx, int* cy) const;

  // Largest ring index that still intersects the grid when centred on the
  // (clamped) cell of `q`; rings beyond this are empty.
  int MaxRing(const Point& q) const;

  // Lower bound on dist(q, p) for every point p stored in ring `ring` or
  // any ring after it (non-decreasing in `ring`; 0 when no useful bound
  // exists, e.g. q outside the grid).
  double RingTailMinDist(const Point& q, int ring) const;

  // Geometric extent of cell (cx, cy); MinDist(q, CellRect(...)) gives the
  // per-cell lower bound used to skip individual cells inside a ring.
  Rect CellRect(int cx, int cy) const;

  CellSlice Cell(int cx, int cy) const;

  // Row-major index of cell (cx, cy) in [0, cols*rows): the addressing
  // contract for per-cell side tables (shared-frontier delivered/resident
  // bitmaps and CellTauTable floors key on it).
  std::size_t CellIndex(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(cx);
  }

  std::size_t num_cells() const {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }

  // Linear-index flavour of Cell, for callers that sweep cells without
  // ring geometry.
  CellSlice Cell(std::size_t cell_index) const {
    return Cell(static_cast<int>(cell_index % static_cast<std::size_t>(cols_)),
                static_cast<int>(cell_index / static_cast<std::size_t>(cols_)));
  }

  // Inverse maps of the clustered layout: the cell holding point `i`, and
  // the slot of point `i` inside the clustered arrays (items_/xs_/ys_ and
  // any slot-ordered side table).
  std::size_t cell_of_point(std::size_t i) const {
    return static_cast<std::size_t>(cell_of_[i]);
  }
  std::size_t slot_of_point(std::size_t i) const {
    return static_cast<std::size_t>(slot_of_[i]);
  }

  // Slot span [begin, end) of a cell inside the clustered arrays.
  std::size_t cell_begin(std::size_t cell_index) const {
    return static_cast<std::size_t>(start_[cell_index]);
  }
  std::size_t cell_end(std::size_t cell_index) const {
    return static_cast<std::size_t>(start_[cell_index + 1]);
  }

  // Linear indices of the occupied cells, ascending (CellTauTable's
  // global-floor rescan iterates it instead of the full cols*rows
  // lattice).
  const std::vector<std::int32_t>& nonempty_cells() const { return nonempty_cells_; }

  // Calls fn(cx, cy, slice) for every non-empty cell of ring `ring` around
  // the (clamped) cell of `q`.
  template <typename Fn>
  void VisitRing(const Point& q, int ring, Fn&& fn) const {
    int cx = 0, cy = 0;
    Locate(q, &cx, &cy);
    if (ring == 0) {
      VisitCell(cx, cy, fn);
      return;
    }
    const int x_lo = cx - ring, x_hi = cx + ring;
    const int y_lo = cy - ring, y_hi = cy + ring;
    // Top and bottom rows of the ring square.
    for (int y : {y_lo, y_hi}) {
      if (y < 0 || y >= rows_) continue;
      const int from = x_lo < 0 ? 0 : x_lo;
      const int to = x_hi >= cols_ ? cols_ - 1 : x_hi;
      for (int x = from; x <= to; ++x) VisitCell(x, y, fn);
    }
    // Left and right columns, excluding the corners already visited.
    for (int x : {x_lo, x_hi}) {
      if (x < 0 || x >= cols_) continue;
      const int from = y_lo + 1 < 0 ? 0 : y_lo + 1;
      const int to = y_hi - 1 >= rows_ ? rows_ - 1 : y_hi - 1;
      for (int y = from; y <= to; ++y) VisitCell(x, y, fn);
    }
  }

 private:
  template <typename Fn>
  void VisitCell(int cx, int cy, Fn& fn) const {
    const CellSlice slice = Cell(cx, cy);
    if (slice.count > 0) fn(cx, cy, slice);
  }

  Rect bounds_;
  double cell_ = 1.0;
  int cols_ = 1;
  int rows_ = 1;
  std::vector<std::int32_t> start_;  // CSR: cell -> first slot, size cols*rows+1
  std::vector<std::int32_t> items_;  // point ids, clustered by cell
  std::vector<double> xs_;           // coordinates aligned with items_
  std::vector<double> ys_;
  std::vector<std::int32_t> cell_of_;  // point id -> cell index
  std::vector<std::int32_t> slot_of_;  // point id -> slot in items_/xs_/ys_
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
// direction.
// Population edits (warm-started serving engines, src/runtime/engine.h):
// `Remove` masks a resident out of every floor (its value becomes
// +infinity, so kernels streaming values() reject it for free) and
// `Insert` re-admits one at an arbitrary value — both restore floor
// exactness, including *lowering* floors, which the in-solve Raise cascade
// never does. The contract is temporal, not structural: population edits
// happen between solves, while a solve in flight only ever calls the
// monotone Raise (src/geo/README.md).
class CellTauTable {
 public:
  explicit CellTauTable(const UniformGrid& grid);
  // Seeded construction for warm starts: `initial[i]` is the starting
  // value of point id `i` (must cover every indexed point; values are
  // stored slot-ordered internally). Floors start exact over the seeds.
  CellTauTable(const UniformGrid& grid, const std::vector<double>& initial);

  // Raises point `point_id` to `value` (must be >= the stored value;
  // lower values are ignored, keeping the monotone contract) and restores
  // the exactness of the resident cell's floor.
  void Raise(std::size_t point_id, double value);

  // Removes point `point_id` from the population: its value becomes
  // +infinity and its cell's floor is refloored exactly (a cell whose
  // residents are all removed reads +infinity, like an empty cell).
  void Remove(std::size_t point_id);

  // (Re)admits point `point_id` at `value` — the inverse of Remove, also
  // usable to overwrite a live value in either direction. Floors (cell and
  // global) are lowered or refloored exactly as needed.
  void Insert(std::size_t point_id, double value) { Set(point_id, value); }

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
  // Shared write path: assigns the value and restores cell/global floor
  // exactness in whichever direction the assignment moved the minimum.
  void Set(std::size_t point_id, double value);

  const UniformGrid* grid_;
  std::vector<double> values_;  // slot-ordered, aligned with grid slices
  std::vector<double> floors_;  // per cell; +infinity when empty
  double global_floor_ = 0.0;
  bool global_dirty_ = false;
};

}  // namespace cca

#endif  // CCA_GEO_GRID_H_
