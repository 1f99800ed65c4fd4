// Shared-frontier batched discovery over a UniformGrid.
//
// Per-provider `GridNnCursor`s re-fetch the same cells when nearby
// providers sweep overlapping neighbourhoods (ROADMAP: "Batched
// multi-provider relaxation"). `SharedFrontier` amortises those cell
// visits, the grid analogue of the paper's grouped-ANN traversal
// (Section 3.4.2, rtree/ann_iterator.h): it serves one *group* of
// subscribed query points with exact incremental NN streams from a single
// cell sweep. Cells expand on demand in the demanding subscriber's mindist
// order; each first expansion is one `cell_fetches` unit and its points
// are multiplexed into the candidate heap of every active subscriber that
// has not been handed the cell yet (`fanout` counts the deliveries). A
// subscriber's walker skips cells it already received, so while
// subscribers stay active a cell is fetched at most once per frontier no
// matter how many of them need it. (Unsubscribing *terminates* a stream
// and releases its queued candidates; see `Unsubscribe`.)
//
// Soundness of the per-subscriber tail bounds (the core/README.md
// contract): subscriber q's uncertified candidates all lie in cells q's
// walker has not served, and every such cell c satisfies
// MinDist(q, c) >= walker.TailMinDist(); points delivered early sit in
// q's heap already, so serving the heap top once
// top.dist <= walker.TailMinDist() never skips a closer unseen point.
#ifndef CCA_GEO_SHARED_FRONTIER_H_
#define CCA_GEO_SHARED_FRONTIER_H_

#include <cstdint>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "geo/grid.h"
#include "geo/grid_cursor.h"
#include "geo/point.h"

namespace cca {

// Cell-fetch accounting of a SharedFrontier. `cell_fetches`
// counts first materialisations (the index-read unit, charged into
// Metrics::grid_cursor_cells / index_node_accesses by callers);
// `fanout` counts cell -> subscriber deliveries, so fanout / cell_fetches
// is the achieved sharing factor (1.0 = no sharing).
struct SharedFrontierStats {
  std::uint64_t cell_fetches = 0;
  std::uint64_t fanout = 0;
};

// One shared sweep serving exact per-subscriber NN streams. Subscribers
// are fixed at construction (callers group nearby providers, e.g. by
// Hilbert order); `Unsubscribe` terminates one and releases its state.
class SharedFrontier {
 public:
  SharedFrontier(const UniformGrid& grid, const std::vector<Point>& queries);

  std::size_t num_subscribers() const { return subs_.size(); }
  bool subscribed(int q) const { return subs_[static_cast<std::size_t>(q)].active; }

  // Terminates `q`'s stream (provider retired: capacity exhausted or the
  // solver is done with it) and releases its subscription slot — the
  // queued candidate heap and the per-cell delivery map, which together
  // dominate a subscriber's footprint and previously leaked for the rest
  // of the frontier's lifetime. Other members' streams are unaffected;
  // they also stop paying fanout work into `q`. After unsubscribing,
  // NextNN(q) returns nullopt and PeekDistance(q) is +infinity — the
  // stream is over, not merely un-amortised.
  void Unsubscribe(int q);

  // Next nearest point of subscriber `q` as (point id, distance), in
  // non-decreasing distance (ties among fetched candidates in ascending
  // id, exactly like GridNnCursor), or nullopt when the grid is exhausted.
  std::optional<std::pair<std::int32_t, double>> NextNN(int q);

  // Distance the next NextNN(q) would return (+infinity when exhausted);
  // may expand cells to certify, never consumes candidates.
  double PeekDistance(int q);

  const SharedFrontierStats& stats() const { return stats_; }

  // Test-only introspection: queued candidates and delivery-map capacity
  // of `q`'s slot, both zero once Unsubscribe released it.
  std::size_t queued_candidates(int q) const {
    return subs_[static_cast<std::size_t>(q)].heap.size();
  }
  std::size_t delivered_map_capacity(int q) const {
    return subs_[static_cast<std::size_t>(q)].delivered.capacity();
  }

 private:
  struct Subscriber {
    Point query;
    GridRingCursor walker;
    // NnCandidate ordering shared with GridNnCursor: the tie-break must
    // match for the single-subscriber degeneracy to hold.
    std::priority_queue<NnCandidate, std::vector<NnCandidate>, NnCandidateFarther> heap;
    std::vector<char> delivered;  // cell index -> points already in heap
    bool active = true;
  };

  // Expands q's sweep until its heap top is certified by its walker's
  // tail bound (or the grid drains), multiplexing each fetched cell.
  // (Cells carry their own side-table key, CellView::cell, so no grid
  // pointer is needed here.)
  void Refine(int q);

  std::vector<Subscriber> subs_;
  SharedFrontierStats stats_;
};

}  // namespace cca

#endif  // CCA_GEO_SHARED_FRONTIER_H_
