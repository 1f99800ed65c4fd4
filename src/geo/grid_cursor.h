// Stateful candidate-discovery cursors over the customer grids.
//
// These are the shared primitives behind every grid-backed discovery path:
// the grid NN sources that drive NIA/IDA's edge frontier and RIA's grid
// annuli (src/core/nn_source.cc, per provider or Hilbert-grouped), and
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
//     distance is within `TailMinDist()`. Cursors of one batched group
//     share a fetched-cell ledger that only counts the group's distinct
//     cell reads; it never changes a stream.
//   * `HierRingWalk` is GridRingCursor's coarse-level sibling over a
//     HierarchicalGrid's layout, memoized per query, serving SSPA's
//     coarse-tail exit and descent across every pop of one provider, and
//     across solves for as long as the layout is kept.
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
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "geo/hier_grid.h"
#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

class GridRingCursor {
 public:
  struct CellView {
    int ring = 0;
    std::size_t cell = 0;   // Lattice::CellIndex(cx, cy), the side-table key
    double min_dist = 0.0;  // MinDist(query, cell rect)
    CellSlice slice;
  };

  GridRingCursor(const UniformGrid& grid, const Point& query);

  // Lower bound on dist(query, p) over every point not yet returned by
  // NextCell(); +infinity once the grid is exhausted. Non-decreasing.
  // Remaining cells are the still-buffered cells of the current ring
  // (sorted by min_dist, so the head is their minimum) and everything in
  // later rings (next_ring_bound_, cached once per ring fill — this sits
  // on the per-cell hot path of the NN streams).
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
  // `group_fetched`, when given, is the fetch ledger of a batched group:
  // one flag per grid cell (Lattice::CellIndex), shared by the group's
  // cursors. A cell this cursor reads before any other cursor of the group
  // counts in cells_fetched(). The ledger is accounting only: the stream
  // is identical with or without it.
  GridNnCursor(const UniformGrid& grid, const Point& query,
               std::vector<char>* group_fetched = nullptr);

  std::optional<std::pair<std::int32_t, double>> Next();

  // Distance the next Next() would return (+infinity when exhausted); may
  // fetch cells to find out, like NnIterator::PeekDistance.
  double PeekDistance();

  // Cells this cursor's walk has read into its candidate heap.
  std::uint64_t cells_visited() const { return cells_.cells_visited(); }
  // Of those, the cells no other cursor of its group had read (all of
  // them without a group).
  std::uint64_t cells_fetched() const { return cells_fetched_; }

 private:
  // Candidate-heap entry: nearest first, equal distances by ascending id.
  struct Candidate {
    double dist;
    std::int32_t oid;
  };
  struct Farther {
    bool operator()(const Candidate& a, const Candidate& b) const {
      return a.dist != b.dist ? a.dist > b.dist : a.oid > b.oid;
    }
  };

  // Fetches cells until the heap top is certified (<= TailMinDist) or the
  // grid drains.
  void Refine();

  GridRingCursor cells_;
  Point query_;
  std::vector<char>* group_fetched_;  // null outside a batched group
  std::uint64_t cells_fetched_ = 0;
  std::priority_queue<Candidate, std::vector<Candidate>, Farther> heap_;
};

// Memoized coarse ring walk around one fixed query over a HierarchicalGrid
// layout (geo/hier_grid.h), the coarse-level sibling of GridRingCursor:
// coarse cells in expanding coarse rings, nearest-first within a ring (ties
// by ascending cell id). It keeps what it served, so a consumer that
// returns to the same query (SSPA pops each provider once per Dijkstra run,
// and a provider never moves) replays the walk instead of rebuilding and
// re-sorting the rings and every descended cell's children.
//
// A walk lists every cell of its layout, so it stays valid for every grid
// bucketed into that layout: a solver builds one per provider and binds it
// to its own grid, and a caller that keeps the layout (AssignmentEngine)
// keeps the walks and binds them to each re-bucketed grid. Bind asserts the
// layout in Debug builds; listed cells that are empty in the bound grid
// carry count 0. The walk grows one ring at a time when At() asks past its
// end. An Entry holds static geometry plus two counts from the bound grid:
// `count` (the cell's residents) and `remaining_before` (the residents of
// this cell and every later one), next to `tail_before`
// (GridRingCursor::TailMinDist()'s contract, over this cell and every later
// one). Fines(i) builds entry i's fine children on first call. Counts (the
// entry's, and its children's `suffix_residents` and `fines_occupied`) are
// re-read from the bound grid once per Bind, lazily, as At() reaches each
// entry; nothing value-dependent (floors, labels, bounds) is cached.
// Memory is O(entries reached + fine children built); the contract is in
// src/geo/README.md.
class HierRingWalk {
 public:
  static constexpr std::uint32_t kNotBuilt = 0xffffffffu;
  struct Entry {
    double min_dist = 0.0;             // MinDist(query, coarse rect)
    double tail_before = 0.0;          // tail bound over this cell and the rest
    std::size_t remaining_before = 0;  // residents of this cell and the rest
    std::uint32_t count = 0;           // residents of the coarse cell (may be 0)
    std::uint32_t cell = 0;            // coarse Lattice::CellIndex(cx, cy)
    std::int32_t ring = 0;
    // Fine children in fines_[fines_begin, fines_begin + fines_count);
    // fines_begin == kNotBuilt until the first Fines() call. Of those,
    // fines_occupied hold residents.
    std::uint32_t fines_begin = kNotBuilt;
    std::uint32_t fines_count = 0;
    std::uint32_t fines_occupied = 0;
  };
  struct Fine {
    double min_dist = 0.0;               // MinDist(query, fine rect)
    std::int32_t fine = 0;               // global fine-cell id
    std::uint32_t suffix_residents = 0;  // residents of this child and the ones after it
  };

  // A walk over every cell of `layout`, unbound until the first Bind.
  HierRingWalk(std::shared_ptr<const HierarchicalGrid::Layout> layout, const Point& query);

  // Binds the walk to `grid` for its counts: a grid of the walk's layout.
  // The bound grid must outlive every At()/Fines() call until the next
  // Bind.
  void Bind(const HierarchicalGrid& grid);

  const Point& query() const { return query_; }

  // Entry i of the walk, extending it on first reach; nullptr once every
  // coarse cell has been served (i >= the walk's full length). The pointer
  // is valid until the next call that extends the walk. Inline fast path:
  // every replay re-reads the entries it reached.
  const Entry* At(std::size_t i) { return i < counted_ ? &entries_[i] : Reach(i); }

  // Entry i's fine children (At(i) must have returned non-null), built on
  // the first call; `*count` receives their number. The pointer is valid
  // until the next call that builds another entry's children.
  const Fine* Fines(std::size_t i, std::size_t* count) {
    const Entry& e = entries_[i];
    if (e.fines_begin == kNotBuilt) BuildFines(i);
    *count = e.fines_count;
    return fines_.data() + e.fines_begin;
  }

  // Entries reached and fine children built so far (memo size).
  std::size_t entries() const { return entries_.size(); }
  std::size_t fines_built() const { return fines_.size(); }

 private:
  // At() past the counted entries: extends the walk as far as entry i and
  // reads the counts of every entry up to it.
  const Entry* Reach(std::size_t i);
  // Appends the next ring's cells, sorted; marks the walk exhausted when no
  // ring remains.
  void FillRing();
  // Lists entry i's children, sorted, and counts them.
  void BuildFines(std::size_t i);
  // Reads entry e's children's counts from the bound grid.
  void CountFines(Entry* e);

  std::shared_ptr<const HierarchicalGrid::Layout> layout_;
  const HierarchicalGrid* grid_ = nullptr;  // the bound grid, for counts
  Point query_;
  int ring_ = 0;  // next ring to fill
  int max_ring_ = 0;
  bool exhausted_ = false;
  std::size_t counted_ = 0;  // entries [0, counted_) carry the bound grid's counts
  std::vector<Entry> entries_;
  std::vector<Fine> fines_;
};

}  // namespace cca

#endif  // CCA_GEO_GRID_CURSOR_H_
