#include "geo/shared_frontier.h"

#include <limits>

#include "common/trace.h"

namespace cca {

SharedFrontier::SharedFrontier(const UniformGrid& grid, const std::vector<Point>& queries) {
  const std::size_t num_cells = grid.lattice().num_cells();
  subs_.reserve(queries.size());
  for (const auto& q : queries) {
    subs_.push_back(Subscriber{q, GridRingCursor(grid, q), {}, std::vector<char>(num_cells, 0),
                               /*active=*/true});
  }
}

void SharedFrontier::Unsubscribe(int q) {
  Subscriber& sub = subs_[static_cast<std::size_t>(q)];
  sub.active = false;
  // Release the slot, not just the delivery flag: the candidate heap and
  // the per-cell delivery map are the subscriber's footprint, and a
  // frontier outlives its retirees (greedy retires providers one by one
  // while the group keeps sweeping).
  sub.heap = {};
  sub.delivered.clear();
  sub.delivered.shrink_to_fit();
}

void SharedFrontier::Refine(int q) {
  Subscriber& sub = subs_[static_cast<std::size_t>(q)];
  if (!sub.active) return;  // terminated stream: nothing to expand into
  while (!sub.walker.exhausted() &&
         (sub.heap.empty() || sub.heap.top().dist > sub.walker.TailMinDist())) {
    const auto cell = sub.walker.NextCell();
    if (!cell) break;
    const std::size_t id = cell->cell;
    // Multiplexed to this subscriber on an earlier fetch: the points are
    // already in its heap, the walk past the cell just tightens the bound.
    if (sub.delivered[id]) continue;
    CCA_TRACE_SPAN_VAR(fetch_span, "frontier.cell_fetch");
    fetch_span.Arg("cell", static_cast<std::uint64_t>(id));
    ++stats_.cell_fetches;
    // One fetch, every active subscriber that still lacks the cell gets
    // its points — the grouped-ANN delivery rule. The demander is active
    // by construction (Refine returns early for terminated streams).
    for (Subscriber& member : subs_) {
      if (!member.active || member.delivered[id]) continue;
      member.delivered[id] = 1;
      ++stats_.fanout;
      for (std::size_t i = 0; i < cell->slice.count; ++i) {
        member.heap.push(
            NnCandidate{Distance(member.query, Point{cell->slice.xs[i], cell->slice.ys[i]}),
                        cell->slice.ids[i]});
      }
    }
  }
}

std::optional<std::pair<std::int32_t, double>> SharedFrontier::NextNN(int q) {
  Refine(q);
  auto& heap = subs_[static_cast<std::size_t>(q)].heap;
  if (heap.empty()) return std::nullopt;
  const NnCandidate top = heap.top();
  heap.pop();
  return std::make_pair(top.oid, top.dist);
}

double SharedFrontier::PeekDistance(int q) {
  Refine(q);
  const auto& heap = subs_[static_cast<std::size_t>(q)].heap;
  return heap.empty() ? std::numeric_limits<double>::infinity() : heap.top().dist;
}

}  // namespace cca
