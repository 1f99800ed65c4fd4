#include "geo/grid_cursor.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/trace.h"

namespace cca {

GridRingCursor::GridRingCursor(const UniformGrid& grid, const Point& query)
    : grid_(&grid),
      query_(query),
      max_ring_(grid.lattice().MaxRing(query)),
      points_remaining_(grid.size()) {
  FillRing();
}

void GridRingCursor::FillRing() {
  buffer_.clear();
  pos_ = 0;
  const Lattice& lattice = grid_->lattice();
  while (ring_ <= max_ring_) {
    lattice.VisitRing(query_, ring_, [&](int cx, int cy) {
      const std::size_t c = lattice.CellIndex(cx, cy);
      const CellSlice slice = grid_->Cell(c);
      if (slice.count == 0) return;
      buffer_.push_back(CellView{ring_, c, MinDist(query_, lattice.CellRect(c)), slice});
    });
    if (!buffer_.empty()) {
      // Serving a ring's cells nearest-first lets TailMinDist() tighten
      // past the coarse ring bound as soon as the close cells are consumed.
      // (Single-cell rings — ring 0, and clipped boundary rings — are the
      // common case on the SSPA hot path; skip the sort call for them.)
      if (buffer_.size() > 1) {
        std::sort(buffer_.begin(), buffer_.end(),
                  [](const CellView& a, const CellView& b) { return a.min_dist < b.min_dist; });
      }
      next_ring_bound_ = lattice.RingTailMinDist(query_, ring_ + 1);
      return;
    }
    ++ring_;  // empty ring: skip it (no points to bound)
  }
  exhausted_ = true;
}

std::optional<GridRingCursor::CellView> GridRingCursor::NextCell() {
  if (exhausted_) return std::nullopt;
  const CellView cell = buffer_[pos_++];
  ++cells_visited_;
  points_remaining_ -= cell.slice.count;
  if (pos_ == buffer_.size()) {
    ++ring_;
    FillRing();
  }
  return cell;
}

GridNnCursor::GridNnCursor(const UniformGrid& grid, const Point& query,
                           std::vector<char>* group_fetched)
    : cells_(grid, query), query_(query), group_fetched_(group_fetched) {}

void GridNnCursor::Refine() {
  while (!cells_.exhausted() && (heap_.empty() || heap_.top().dist > cells_.TailMinDist())) {
    const auto cell = cells_.NextCell();
    if (!cell) break;
    if (group_fetched_ == nullptr) {
      ++cells_fetched_;
    } else if (!(*group_fetched_)[cell->cell]) {
      // The group's first read of this cell: one shared fetch.
      CCA_TRACE_SPAN_VAR(fetch_span, "frontier.cell_fetch");
      fetch_span.Arg("cell", static_cast<std::uint64_t>(cell->cell));
      (*group_fetched_)[cell->cell] = 1;
      ++cells_fetched_;
    }
    for (std::size_t i = 0; i < cell->slice.count; ++i) {
      heap_.push(Candidate{Distance(query_, Point{cell->slice.xs[i], cell->slice.ys[i]}),
                           cell->slice.ids[i]});
    }
  }
}

std::optional<std::pair<std::int32_t, double>> GridNnCursor::Next() {
  Refine();
  if (heap_.empty()) return std::nullopt;
  const Candidate top = heap_.top();
  heap_.pop();
  return std::make_pair(top.oid, top.dist);
}

double GridNnCursor::PeekDistance() {
  Refine();
  return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.top().dist;
}

HierRingWalk::HierRingWalk(std::shared_ptr<const HierarchicalGrid::Layout> layout,
                           const Point& query)
    : layout_(std::move(layout)), query_(query), max_ring_(layout_->coarse.MaxRing(query)) {}

void HierRingWalk::Bind(const HierarchicalGrid& grid) {
  assert(grid.layout() == layout_ && "a walk replays only against its own layout");
  grid_ = &grid;
  counted_ = 0;
}

const HierRingWalk::Entry* HierRingWalk::Reach(std::size_t i) {
  while (i >= entries_.size() && !exhausted_) FillRing();
  if (i >= entries_.size()) return nullptr;
  for (; counted_ <= i; ++counted_) {
    Entry& e = entries_[counted_];
    e.count = static_cast<std::uint32_t>(grid_->coarse_count(e.cell));
    e.remaining_before = counted_ == 0 ? grid_->size()
                                       : entries_[counted_ - 1].remaining_before -
                                             entries_[counted_ - 1].count;
    if (e.fines_begin != kNotBuilt) CountFines(&e);
  }
  return &entries_[i];
}

void HierRingWalk::FillRing() {
  const Lattice& coarse = layout_->coarse;
  const std::size_t first = entries_.size();
  while (ring_ <= max_ring_) {
    coarse.VisitRing(query_, ring_, [&](int cx, int cy) {
      const std::size_t c = coarse.CellIndex(cx, cy);
      Entry e;
      e.min_dist = MinDist(query_, coarse.CellRect(c));
      e.cell = static_cast<std::uint32_t>(c);
      e.ring = ring_;
      entries_.push_back(e);
    });
    const int ring = ring_++;
    if (entries_.size() == first) continue;  // empty ring: skip it (no points to bound)
    // Nearest-first within a ring, same as GridRingCursor: the tail bound
    // tightens past the ring bound as the close coarse cells drain. Ties
    // by ascending cell id keep the order deterministic.
    const auto begin = entries_.begin() + static_cast<std::ptrdiff_t>(first);
    if (entries_.size() - first > 1) {
      std::sort(begin, entries_.end(), [](const Entry& a, const Entry& b) {
        return a.min_dist != b.min_dist ? a.min_dist < b.min_dist : a.cell < b.cell;
      });
    }
    const double next_ring_bound = coarse.RingTailMinDist(query_, ring + 1);
    for (auto it = begin; it != entries_.end(); ++it) {
      it->tail_before = std::min(it->min_dist, next_ring_bound);
    }
    return;
  }
  exhausted_ = true;
}

void HierRingWalk::BuildFines(std::size_t i) {
  Entry& e = entries_[i];
  const std::size_t first = fines_.size();
  for (std::size_t f = layout_->fine_begin(e.cell); f < layout_->fine_end(e.cell); ++f) {
    fines_.push_back(Fine{MinDist(query_, layout_->FineRect(f)), static_cast<std::int32_t>(f)});
  }
  // Ties by ascending fine id keep the descent order deterministic.
  const auto begin = fines_.begin() + static_cast<std::ptrdiff_t>(first);
  std::sort(begin, fines_.end(), [](const Fine& a, const Fine& b) {
    return a.min_dist != b.min_dist ? a.min_dist < b.min_dist : a.fine < b.fine;
  });
  e.fines_begin = static_cast<std::uint32_t>(first);
  e.fines_count = static_cast<std::uint32_t>(fines_.size() - first);
  CountFines(&e);
}

void HierRingWalk::CountFines(Entry* e) {
  Fine* fines = fines_.data() + e->fines_begin;
  std::uint32_t residents = 0;
  e->fines_occupied = 0;
  for (std::size_t k = e->fines_count; k-- > 0;) {
    const auto f = static_cast<std::size_t>(fines[k].fine);
    const auto n = static_cast<std::uint32_t>(grid_->fine_cell_end(f) - grid_->fine_cell_begin(f));
    residents += n;
    e->fines_occupied += n > 0 ? 1 : 0;
    fines[k].suffix_residents = residents;
  }
}

}  // namespace cca
