#include "geo/grid_cursor.h"

#include <algorithm>

namespace cca {

GridRingCursor::GridRingCursor(const UniformGrid& grid, const Point& query) : grid_(&grid) {
  Reset(query);
}

void GridRingCursor::Reset(const Point& query) {
  query_ = query;
  ring_ = 0;
  max_ring_ = grid_->MaxRing(query);
  exhausted_ = false;
  points_remaining_ = grid_->size();
  cells_visited_ = 0;
  FillRing();
}

void GridRingCursor::FillRing() {
  buffer_.clear();
  pos_ = 0;
  while (ring_ <= max_ring_) {
    grid_->VisitRing(query_, ring_, [&](int cx, int cy, const UniformGrid::CellSlice& slice) {
      buffer_.push_back(CellView{cx, cy, ring_, grid_->CellIndex(cx, cy),
                                 MinDist(query_, grid_->CellRect(cx, cy)), slice});
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
      next_ring_bound_ = grid_->RingTailMinDist(query_, ring_ + 1);
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

GridNnCursor::GridNnCursor(const UniformGrid& grid, const Point& query)
    : cells_(grid, query), query_(query) {}

void GridNnCursor::Refine() {
  while (!cells_.exhausted() && (heap_.empty() || heap_.top().dist > cells_.TailMinDist())) {
    const auto cell = cells_.NextCell();
    if (!cell) break;
    for (std::size_t i = 0; i < cell->slice.count; ++i) {
      heap_.push(NnCandidate{Distance(query_, Point{cell->slice.xs[i], cell->slice.ys[i]}),
                             cell->slice.ids[i]});
    }
  }
}

std::optional<std::pair<std::int32_t, double>> GridNnCursor::Next() {
  Refine();
  if (heap_.empty()) return std::nullopt;
  const NnCandidate top = heap_.top();
  heap_.pop();
  return std::make_pair(top.oid, top.dist);
}

double GridNnCursor::PeekDistance() {
  Refine();
  return heap_.empty() ? std::numeric_limits<double>::infinity() : heap_.top().dist;
}

HierRingCursor::HierRingCursor(const HierarchicalGrid& grid, const Point& query)
    : grid_(&grid) {
  Reset(query);
}

void HierRingCursor::Reset(const Point& query) {
  query_ = query;
  ring_ = 0;
  max_ring_ = grid_->MaxRing(query);
  exhausted_ = false;
  points_remaining_ = grid_->size();
  FillRing();
}

void HierRingCursor::FillRing() {
  buffer_.clear();
  pos_ = 0;
  while (ring_ <= max_ring_) {
    grid_->VisitCoarseRing(query_, ring_, [&](int cx, int cy) {
      const std::size_t c = grid_->CoarseIndex(cx, cy);
      const std::size_t count = grid_->coarse_count(c);
      if (count == 0) return;
      buffer_.push_back(CoarseView{cx, cy, ring_, c, MinDist(query_, grid_->CoarseRect(c)),
                                   count, grid_->fine_begin(c), grid_->fine_end(c)});
    });
    if (!buffer_.empty()) {
      // Nearest-first within a ring, same as GridRingCursor: TailMinDist()
      // tightens past the ring bound as the close coarse cells drain.
      if (buffer_.size() > 1) {
        std::sort(buffer_.begin(), buffer_.end(), [](const CoarseView& a, const CoarseView& b) {
          return a.min_dist < b.min_dist;
        });
      }
      next_ring_bound_ = grid_->RingTailMinDist(query_, ring_ + 1);
      return;
    }
    ++ring_;  // empty ring: skip it (no points to bound)
  }
  exhausted_ = true;
}

std::optional<HierRingCursor::CoarseView> HierRingCursor::NextCoarse() {
  if (exhausted_) return std::nullopt;
  const CoarseView cell = buffer_[pos_++];
  points_remaining_ -= cell.count;
  if (pos_ == buffer_.size()) {
    ++ring_;
    FillRing();
  }
  return cell;
}

}  // namespace cca
