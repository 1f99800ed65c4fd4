// The square-cell lattice under both customer grids, plus the counting-sort
// CSR that clusters points by cell.
//
// `Lattice` is the geometry: it partitions the bounding box of a point set
// into square cells of roughly `target_per_cell` points each. UniformGrid
// (grid.h) stores points directly in its lattice's cells; HierarchicalGrid
// (hier_grid.h) uses its lattice as the coarse level and subdivides hot
// cells. Ring enumeration is the lattice's: ring r around a query point q
// is the set of cells at Chebyshev distance exactly r from q's (clamped)
// cell. `RingTailMinDist(q, r)` lower-bounds the Euclidean distance from q
// to every point stored in ring r *or any later ring*, and is
// non-decreasing in r, which is what makes the early exits of the ring
// cursors and the SSPA relax sound (see src/flow/README.md).
//
// `CellCsr` is the storage: per cell, the point ids *and* a cell-clustered
// copy of the coordinates (SoA), so a caller can run the blocked distance
// kernel straight over a cell's slice without gathering.
#ifndef CCA_GEO_LATTICE_H_
#define CCA_GEO_LATTICE_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

class Lattice {
 public:
  // Square cells sized so `points` average about `target_per_cell` (must be
  // positive) per cell over their bounding box. Degenerate inputs (empty
  // set, collinear points, all-equal points) fall back to a single
  // row/column/cell.
  Lattice(const std::vector<Point>& points, double target_per_cell);

  const Rect& bounds() const { return bounds_; }
  double cell_size() const { return cell_; }
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  std::size_t num_cells() const {
    return static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  }

  // Cell coordinates of `q`, clamped into the lattice.
  void Locate(const Point& q, int* cx, int* cy) const;

  // Row-major index of cell (cx, cy) in [0, num_cells()): the addressing
  // contract for per-cell side tables (CSR offsets, batched-group fetch
  // ledgers, tau floors).
  std::size_t CellIndex(int cx, int cy) const {
    return static_cast<std::size_t>(cy) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(cx);
  }

  // CellIndex of the (clamped) cell of every point, in input order.
  std::vector<std::int32_t> CellsOf(const std::vector<Point>& points) const;

  // Geometric extent of cell `c`; MinDist(q, CellRect(c)) lower-bounds the
  // distance from q to every point stored in c.
  Rect CellRect(std::size_t c) const;

  // Largest ring index that still intersects the lattice when centred on
  // the (clamped) cell of `q`; rings beyond this are empty.
  int MaxRing(const Point& q) const;

  // Lower bound on dist(q, p) for every point p stored in ring `ring` or
  // any ring after it (non-decreasing in `ring`; floored by
  // MinDist(q, bounds()) so exterior queries keep a useful bound).
  double RingTailMinDist(const Point& q, int ring) const;

  // Calls fn(cx, cy) for every lattice cell of ring `ring` around the
  // (clamped) cell of `q`: the top and bottom rows of the ring square, then
  // its left and right columns without the corners. Occupancy filtering is
  // the caller's business.
  template <typename Fn>
  void VisitRing(const Point& q, int ring, Fn&& fn) const {
    int cx = 0, cy = 0;
    Locate(q, &cx, &cy);
    if (ring == 0) {
      fn(cx, cy);
      return;
    }
    const int x_lo = cx - ring, x_hi = cx + ring;
    const int y_lo = cy - ring, y_hi = cy + ring;
    for (int y : {y_lo, y_hi}) {
      if (y < 0 || y >= rows_) continue;
      const int from = x_lo < 0 ? 0 : x_lo;
      const int to = x_hi >= cols_ ? cols_ - 1 : x_hi;
      for (int x = from; x <= to; ++x) fn(x, y);
    }
    for (int x : {x_lo, x_hi}) {
      if (x < 0 || x >= cols_) continue;
      const int from = y_lo + 1 < 0 ? 0 : y_lo + 1;
      const int to = y_hi - 1 >= rows_ ? rows_ - 1 : y_hi - 1;
      for (int y = from; y <= to; ++y) fn(x, y);
    }
  }

 private:
  Rect bounds_;
  double cell_ = 1.0;
  int cols_ = 1;
  int rows_ = 1;
};

// A cell's contents: point ids plus the matching cell-clustered coordinate
// slices (xs[i]/ys[i] are the coordinates of ids[i]). `first_slot` is the
// slice's offset into the clustered arrays, so side tables laid out in slot
// order (the tau tables' values) can be sliced in lockstep with the
// coordinates.
struct CellSlice {
  const std::int32_t* ids = nullptr;
  const double* xs = nullptr;
  const double* ys = nullptr;
  std::size_t count = 0;
  std::size_t first_slot = 0;
};

// Points clustered by cell: one counting sort over `num_cells` cells lays
// the point ids and their coordinates out cell by cell (ascending point id
// within a cell), with the point -> slot inverse map.
class CellCsr {
 public:
  CellCsr() = default;
  // `cell_of[i]` is point i's cell, in [0, num_cells).
  CellCsr(const std::vector<Point>& points, const std::vector<std::int32_t>& cell_of,
          std::size_t num_cells);

  std::size_t size() const { return items_.size(); }
  // Slot span [cell_begin, cell_end) of cell `c`; cell_begin(num_cells) is
  // the total size, so contiguous cell ranges subtract in O(1).
  std::size_t cell_begin(std::size_t c) const { return static_cast<std::size_t>(start_[c]); }
  std::size_t cell_end(std::size_t c) const { return static_cast<std::size_t>(start_[c + 1]); }
  std::size_t slot_of_point(std::size_t i) const {
    return static_cast<std::size_t>(slot_of_[i]);
  }
  CellSlice Slice(std::size_t c) const;

 private:
  std::vector<std::int32_t> start_;    // cell -> first slot, size num_cells + 1
  std::vector<std::int32_t> items_;    // point ids, clustered by cell
  std::vector<double> xs_;             // coordinates aligned with items_
  std::vector<double> ys_;
  std::vector<std::int32_t> slot_of_;  // point id -> slot
};

}  // namespace cca

#endif  // CCA_GEO_LATTICE_H_
