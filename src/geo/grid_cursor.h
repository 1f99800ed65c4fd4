// Stateful candidate-discovery cursors over the customer grids.
//
// These are the shared primitives behind every grid-backed discovery path:
// the grid NN sources that drive NIA/IDA's edge frontier and RIA's grid
// annuli (src/core/nn_source.cc, directly or through SharedFrontier), and
// the hierarchical SSPA relax (src/flow/sspa.cc). The contract (see
// src/core/README.md):
//
//   * `GridRingCursor` enumerates the non-empty cells around one query
//     point in expanding Chebyshev rings, cells within a ring served in
//     ascending MinDist(query, cell) order. `TailMinDist()` is a certified
//     lower bound on dist(query, p) for every point in a cell that has not
//     been returned yet, and is non-decreasing across NextCell() calls.
//   * `GridNnCursor` refines the cell stream into an exact incremental
//     nearest-neighbour stream (non-decreasing point distances) by holding
//     fetched points in a candidate heap and serving the top as soon as its
//     distance is within `TailMinDist()`.
//   * `HierRingCursor` is GridRingCursor's coarse-level sibling over a
//     HierarchicalGrid, serving SSPA's coarse-tail exit.
// (RIA's nested annular batches need no separate range primitive: the
// grid backend drains a persistent NN stream per provider up to each new
// T, so inner cells are never re-fetched across batches — see
// src/core/ria.cc.)
//
// The flat cursors report the number of cells fetched so backends can be
// compared apples-to-apples against R-tree node accesses
// (Metrics::grid_cursor_cells / Metrics::index_node_accesses).
#ifndef CCA_GEO_GRID_CURSOR_H_
#define CCA_GEO_GRID_CURSOR_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "geo/hier_grid.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

// Candidate-heap entry for exact-NN refinement over fetched cells, and
// its ordering: nearest first, equal distances by ascending id. Shared by
// GridNnCursor and SharedFrontier so their streams tie-break identically
// (SharedFrontier's single-subscriber degeneracy depends on it).
struct NnCandidate {
  double dist;
  std::int32_t oid;
};
struct NnCandidateFarther {
  bool operator()(const NnCandidate& a, const NnCandidate& b) const {
    return a.dist != b.dist ? a.dist > b.dist : a.oid > b.oid;
  }
};

class GridRingCursor {
 public:
  struct CellView {
    int cx = 0;
    int cy = 0;
    int ring = 0;
    std::size_t cell = 0;   // UniformGrid::CellIndex(cx, cy), the side-table key
    double min_dist = 0.0;  // MinDist(query, cell rect)
    UniformGrid::CellSlice slice;
  };

  GridRingCursor(const UniformGrid& grid, const Point& query);

  // Rewinds the cursor onto a new query point, reusing the ring buffer's
  // capacity — hot loops (one relax per provider pop in SSPA) reset one
  // cursor instead of constructing fresh ones.
  void Reset(const Point& query);

  // Lower bound on dist(query, p) over every point not yet returned by
  // NextCell(); +infinity once the grid is exhausted. Non-decreasing.
  // Remaining cells are the still-buffered cells of the current ring
  // (sorted by min_dist, so the head is their minimum) and everything in
  // later rings (next_ring_bound_, cached once per ring fill — this sits
  // on the per-cell hot path of the SSPA relax).
  double TailMinDist() const {
    if (exhausted_) return std::numeric_limits<double>::infinity();
    return pos_ < buffer_.size() ? std::min(buffer_[pos_].min_dist, next_ring_bound_)
                                 : next_ring_bound_;
  }

  bool exhausted() const { return exhausted_; }

  // Next non-empty cell, or nullopt when every cell has been served.
  std::optional<CellView> NextCell();

  // Total points held by cells not yet returned (for prune accounting).
  std::size_t points_remaining() const { return points_remaining_; }

  // Number of cells fetched so far (the grid analogue of node accesses).
  std::uint64_t cells_visited() const { return cells_visited_; }

 private:
  // Buffers the cells of the next non-empty ring, sorted by min_dist;
  // marks the cursor exhausted when no ring remains.
  void FillRing();

  const UniformGrid* grid_;
  Point query_;
  int ring_ = 0;
  int max_ring_ = 0;
  bool exhausted_ = false;
  double next_ring_bound_ = 0.0;  // RingTailMinDist(query, ring_ + 1)
  std::size_t pos_ = 0;
  std::size_t points_remaining_ = 0;
  std::uint64_t cells_visited_ = 0;
  std::vector<CellView> buffer_;
};

// Exact incremental NN stream over a grid: Next() yields (point id,
// distance) pairs in non-decreasing distance order until the grid is
// exhausted. Equal-distance candidates already fetched are served in
// ascending id order (the stream is deterministic; ties spanning a
// not-yet-fetched cell are served in fetch order).
class GridNnCursor {
 public:
  GridNnCursor(const UniformGrid& grid, const Point& query);

  std::optional<std::pair<std::int32_t, double>> Next();

  // Distance the next Next() would return (+infinity when exhausted); may
  // fetch cells to find out, like NnIterator::PeekDistance.
  double PeekDistance();

  std::uint64_t cells_visited() const { return cells_.cells_visited(); }

 private:
  // Fetches cells until the heap top is certified (<= TailMinDist) or the
  // grid drains.
  void Refine();

  GridRingCursor cells_;
  Point query_;
  std::priority_queue<NnCandidate, std::vector<NnCandidate>, NnCandidateFarther> heap_;
};

// Coarse-level ring cursor over a HierarchicalGrid (geo/hier_grid.h): the
// hierarchical sibling of GridRingCursor, enumerating occupied *coarse*
// cells in expanding coarse rings, nearest-first within a ring. A served
// CoarseView carries the O(1) aggregates (resident count, fine-child id
// range); the consumer decides per coarse cell whether to reject its whole
// tail on the aggregated bound or descend into FineCell() slices — that
// split is what makes the SSPA coarse-tail exit O(1) per rejected region
// (see src/geo/README.md). TailMinDist() keeps the GridRingCursor contract:
// a non-decreasing certified lower bound on dist(query, p) over every point
// in a coarse cell not yet returned.
class HierRingCursor {
 public:
  struct CoarseView {
    int cx = 0;
    int cy = 0;
    int ring = 0;
    std::size_t cell = 0;   // HierarchicalGrid::CoarseIndex(cx, cy)
    double min_dist = 0.0;  // MinDist(query, coarse rect)
    std::size_t count = 0;  // residents of the whole coarse cell
    std::size_t fine_begin = 0;  // global fine-cell id range [begin, end)
    std::size_t fine_end = 0;
  };

  HierRingCursor(const HierarchicalGrid& grid, const Point& query);

  // Rewinds onto a new query, reusing the ring buffer's capacity (one
  // cursor per SSPA solve, reset per provider pop).
  void Reset(const Point& query);

  // Lower bound on dist(query, p) over every point in a not-yet-returned
  // coarse cell; +infinity once exhausted. Non-decreasing.
  double TailMinDist() const {
    if (exhausted_) return std::numeric_limits<double>::infinity();
    return pos_ < buffer_.size() ? std::min(buffer_[pos_].min_dist, next_ring_bound_)
                                 : next_ring_bound_;
  }

  bool exhausted() const { return exhausted_; }

  // Next occupied coarse cell, or nullopt when all have been served.
  std::optional<CoarseView> NextCoarse();

  // Points held by coarse cells not yet returned (for prune accounting).
  std::size_t points_remaining() const { return points_remaining_; }

 private:
  void FillRing();

  const HierarchicalGrid* grid_;
  Point query_;
  int ring_ = 0;
  int max_ring_ = 0;
  bool exhausted_ = false;
  double next_ring_bound_ = 0.0;  // grid_->RingTailMinDist(query, ring_ + 1)
  std::size_t pos_ = 0;
  std::size_t points_remaining_ = 0;
  std::vector<CoarseView> buffer_;
};

}  // namespace cca

#endif  // CCA_GEO_GRID_CURSOR_H_
