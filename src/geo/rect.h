// Axis-aligned minimum bounding rectangle (MBR).
#ifndef CCA_GEO_RECT_H_
#define CCA_GEO_RECT_H_

#include <algorithm>
#include <limits>

#include "geo/point.h"

namespace cca {

// Closed axis-aligned rectangle [lo.x, hi.x] x [lo.y, hi.y].
//
// A default-constructed Rect is *empty* (inverted bounds); Expand() on an
// empty rectangle adopts the argument. Empty rectangles have zero area and
// infinite mindist to everything.
struct Rect {
  Point lo{std::numeric_limits<double>::infinity(), std::numeric_limits<double>::infinity()};
  Point hi{-std::numeric_limits<double>::infinity(), -std::numeric_limits<double>::infinity()};

  static Rect FromPoint(const Point& p) { return Rect{p, p}; }
  static Rect FromCorners(const Point& a, const Point& b) {
    return Rect{{std::min(a.x, b.x), std::min(a.y, b.y)},
                {std::max(a.x, b.x), std::max(a.y, b.y)}};
  }

  bool empty() const { return lo.x > hi.x || lo.y > hi.y; }

  double width() const { return empty() ? 0.0 : hi.x - lo.x; }
  double height() const { return empty() ? 0.0 : hi.y - lo.y; }
  double Area() const { return width() * height(); }
  // Length of the MBR diagonal; the delta constraint of Section 4 bounds it.
  double Diagonal() const;
  Point Center() const { return {(lo.x + hi.x) * 0.5, (lo.y + hi.y) * 0.5}; }

  bool Contains(const Point& p) const {
    return !empty() && p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y;
  }
  bool Contains(const Rect& r) const {
    return r.empty() || (!empty() && r.lo.x >= lo.x && r.hi.x <= hi.x && r.lo.y >= lo.y &&
                         r.hi.y <= hi.y);
  }
  bool Intersects(const Rect& r) const {
    return !empty() && !r.empty() && lo.x <= r.hi.x && r.lo.x <= hi.x && lo.y <= r.hi.y &&
           r.lo.y <= hi.y;
  }

  // Grows this rectangle to cover `p` / `r`.
  void Expand(const Point& p);
  void Expand(const Rect& r);

  // Smallest enclosing rectangle of the union.
  static Rect Union(const Rect& a, const Rect& b);

  friend bool operator==(const Rect& a, const Rect& b) { return a.lo == b.lo && a.hi == b.hi; }
};

// Minimum Euclidean distance from point `p` to rectangle `r` (0 if inside).
// Lower-bounds the distance from `p` to every point stored under `r`;
// drives best-first NN search and circular range pruning.
double MinDist(const Point& p, const Rect& r);

// Maximum Euclidean distance from `p` to any point of `r`; upper bound used
// by the annular range search to prune fully-inside subtrees.
double MaxDist(const Point& p, const Rect& r);

// Minimum distance between two rectangles (0 if intersecting). Used by the
// grouped incremental ANN search (paper Section 3.4.2) which orders R-tree
// entries by mindist(MBR(group), MBR(entry)).
double MinDist(const Rect& a, const Rect& b);

}  // namespace cca

#endif  // CCA_GEO_RECT_H_
