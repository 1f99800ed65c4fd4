// Two-level hierarchical adaptive grid over a static point set.
//
// A coarse uniform lattice covers the bounding box; every coarse cell whose
// occupancy exceeds `split_threshold` subdivides into an s x s block of fine
// cells sized so the children land near `fine_target_per_cell` residents
// (quadtree-style, but the split factor adapts per region instead of
// recursing to a fixed depth). Sparse regions keep a single fine cell per
// coarse cell, dense regions get up to max_split x max_split children — the
// per-region answer to a flat grid's one-resolution-fits-all mis-sizing on
// skewed inputs.
//
// The coarse level carries the aggregates the SSPA pruning stack consumes
// (see src/geo/README.md for the contract):
//
//   * occupancy: a coarse cell's resident count is O(1) (its children's
//     slots are contiguous), so whole coarse tails are accounted without
//     touching children;
//   * tau floors: `HierTauTable` maintains the per-fine-cell floor of the
//     monotonically raised customer potentials exactly like CellTauTable,
//     plus a per-coarse floor = min over the cell's children, so the relax
//     loops can reject an entire coarse cell with one compare
//     (mindist(coarse) + coarse_floor >= upper bound) instead of s^2 fine
//     checks.
//
// The coarse level is a Lattice (geo/lattice.h), the same geometry and
// ring contract UniformGrid uses (`coarse()`). The lattice plus each coarse
// cell's split factor is the grid's *layout*, shared immutably with every
// grid re-bucketed into it (the re-bucketing constructor). Point storage is
// a CellCsr over *fine* cells, fine cells of a coarse cell contiguous in
// both the fine-cell and the slot order, plus id -> coarse/fine/slot
// inverse maps.
#ifndef CCA_GEO_HIER_GRID_H_
#define CCA_GEO_HIER_GRID_H_

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "geo/grid.h"
#include "geo/lattice.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

class HierarchicalGrid {
 public:
  struct Options {
    // Average residents per *coarse* cell the builder aims for. The
    // default keeps the coarse lattice ~16x coarser than the default fine
    // resolution, so a coarse-tail rejection retires ~16 fine checks.
    double coarse_target_per_cell = 16.0 * UniformGrid::kDefaultTargetPerCell;
    // Residents a split coarse cell's children aim for.
    double fine_target_per_cell = UniformGrid::kDefaultTargetPerCell;
    // A coarse cell splits when it holds more residents than this; 0
    // auto-derives 4x the fine target (cells already near the fine target
    // gain nothing from subdividing).
    std::size_t split_threshold = 0;
    // Cap on the per-cell subdivision factor (children per axis).
    static constexpr int kMaxSplit = 8;
  };

  // The cell layout: the coarse lattice plus each coarse cell's split
  // factor, decided once from the occupancy of the points it was laid out
  // over. Immutable and shared by every grid re-bucketed into it, so
  // pointer identity names a layout (HierRingWalk relies on it).
  struct Layout {
    explicit Layout(const Lattice& lattice) : coarse(lattice) {}
    std::size_t fine_begin(std::size_t c) const { return static_cast<std::size_t>(fine_offset[c]); }
    std::size_t fine_end(std::size_t c) const {
      return static_cast<std::size_t>(fine_offset[c + 1]);
    }
    Rect FineRect(std::size_t f) const;

    Lattice coarse;
    std::size_t split_threshold = 0;
    std::size_t splits = 0;                 // coarse cells with split > 1
    std::vector<std::int32_t> split;        // per coarse cell: children per axis
    std::vector<std::int32_t> fine_offset;  // coarse -> first fine id, size C+1
    std::vector<std::int32_t> fine_owner;   // fine -> coarse
  };

  explicit HierarchicalGrid(const std::vector<Point>& points)
      : HierarchicalGrid(points, Options{}) {}
  // Lays out a new grid over `points`.
  HierarchicalGrid(const std::vector<Point>& points, const Options& options);
  // Re-buckets `points` into `kept`'s layout, rebuilding only the CSR and
  // the inverse maps. Every point must lie inside the layout's bounding box
  // (`coarse().bounds()`, asserted in Debug builds): a point outside it
  // would be clamped into an edge cell whose MinDist does not bound it.
  HierarchicalGrid(const std::vector<Point>& points, const HierarchicalGrid& kept);

  std::size_t size() const { return csr_.size(); }
  const std::shared_ptr<const Layout>& layout() const { return layout_; }
  // The coarse lattice: geometry, cell index and the ring contract.
  const Lattice& coarse() const { return layout_->coarse; }
  std::size_t num_fine() const { return layout_->fine_owner.size(); }
  // Coarse cells that subdivided (split factor > 1).
  std::size_t splits() const { return layout_->splits; }
  std::size_t split_threshold() const { return layout_->split_threshold; }

  // --- per-coarse aggregates ---------------------------------------------
  // Subdivision factor of coarse cell `c` (1 = unsplit).
  int split(std::size_t c) const { return layout_->split[c]; }
  // Global fine-cell id range of `c`: [fine_begin, fine_begin + split^2).
  std::size_t fine_begin(std::size_t c) const { return layout_->fine_begin(c); }
  std::size_t fine_end(std::size_t c) const { return layout_->fine_end(c); }
  // Residents of coarse cell `c`, O(1) (children are slot-contiguous).
  std::size_t coarse_count(std::size_t c) const {
    return csr_.cell_begin(fine_end(c)) - csr_.cell_begin(fine_begin(c));
  }
  // Linear indices of the occupied coarse cells, ascending.
  const std::vector<std::int32_t>& nonempty_coarse() const { return nonempty_coarse_; }

  // --- fine cells ---------------------------------------------------------
  // Owning coarse cell of fine cell `f`.
  std::size_t coarse_of_fine(std::size_t f) const {
    return static_cast<std::size_t>(layout_->fine_owner[f]);
  }
  Rect FineRect(std::size_t f) const { return layout_->FineRect(f); }
  // Slot span and clustered slice of fine cell `f`.
  std::size_t fine_cell_begin(std::size_t f) const { return csr_.cell_begin(f); }
  std::size_t fine_cell_end(std::size_t f) const { return csr_.cell_end(f); }
  CellSlice FineCell(std::size_t f) const { return csr_.Slice(f); }

  // --- inverse maps -------------------------------------------------------
  std::size_t coarse_of_point(std::size_t i) const {
    return static_cast<std::size_t>(coarse_of_[i]);
  }
  std::size_t fine_of_point(std::size_t i) const {
    return static_cast<std::size_t>(fine_of_[i]);
  }
  std::size_t slot_of_point(std::size_t i) const { return csr_.slot_of_point(i); }

 private:
  // Buckets `points` (coarse_of_ already set) into the layout's fine cells:
  // fine_of_, the CSR and nonempty_coarse_.
  void Bucket(const std::vector<Point>& points);

  std::shared_ptr<const Layout> layout_;
  std::vector<std::int32_t> coarse_of_;    // point id -> coarse index
  std::vector<std::int32_t> fine_of_;      // point id -> fine index
  CellCsr csr_;                            // over fine cells
  std::vector<std::int32_t> nonempty_coarse_;
};

// Two-level floor table of a per-point scalar that only ever increases (the
// SSPA customer potentials tau_p), the hierarchical sibling of
// CellTauTable. Fine floors follow the same incremental recipe (a raise
// refloors its fine cell only when it held the min); a changed fine floor
// propagates into its coarse cell's floor the same way, and the cached
// global floor rescans coarse floors only when displaced. The aggregation
// invariant consumers rely on — CoarseFloor(c) <= FineFloor(f) for every
// child f, and every floor is a lower bound on its residents' values — is
// maintained exactly (src/geo/README.md spells out why that makes the
// coarse-tail rejection sound under in-flight monotone raises).
// Raise is the only write, so no floor ever has to move down; a value
// raised to +infinity drops out of every floor.
class HierTauTable {
 public:
  // `initial[i]` seeds point id `i` (all zeros on a cold solve); fine and
  // coarse floors start exact over the seeds.
  HierTauTable(const HierarchicalGrid& grid, const std::vector<double>& initial);

  // Raises point `point_id` to `value` (lower values are ignored, keeping
  // the monotone contract) and restores the exactness of its fine, coarse
  // and global floors. Raising to +infinity removes the point: it never
  // wins a floor again.
  void Raise(std::size_t point_id, double value);

  double FineFloor(std::size_t f) const { return fine_floors_[f]; }
  double CoarseFloor(std::size_t c) const { return coarse_floors_[c]; }
  // Exact min value over every indexed point (0 for an empty grid);
  // cached, rescanning occupied coarse floors only after displacement.
  double GlobalFloor();

  // Slot-ordered value array aligned with the grid's clustered slices:
  // values()[slice.first_slot + i] is the value of slice.ids[i].
  const double* values() const { return values_.data(); }

 private:
  const HierarchicalGrid* grid_;
  std::vector<double> values_;         // slot-ordered
  std::vector<double> fine_floors_;    // per fine cell; +infinity when empty
  std::vector<double> coarse_floors_;  // per coarse cell; +infinity when empty
  double global_floor_ = 0.0;
  bool global_dirty_ = false;
};

}  // namespace cca

#endif  // CCA_GEO_HIER_GRID_H_
