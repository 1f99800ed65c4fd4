#include "geo/rect.h"

#include <cmath>

namespace cca {

double Rect::Diagonal() const {
  if (empty()) return 0.0;
  const double w = width();
  const double h = height();
  return std::sqrt(w * w + h * h);
}

void Rect::Expand(const Point& p) {
  lo.x = std::min(lo.x, p.x);
  lo.y = std::min(lo.y, p.y);
  hi.x = std::max(hi.x, p.x);
  hi.y = std::max(hi.y, p.y);
}

void Rect::Expand(const Rect& r) {
  if (r.empty()) return;
  Expand(r.lo);
  Expand(r.hi);
}

Rect Rect::Union(const Rect& a, const Rect& b) {
  Rect u = a;
  u.Expand(b);
  return u;
}

double MinDist(const Point& p, const Rect& r) {
  if (r.empty()) return std::numeric_limits<double>::infinity();
  const double dx = std::max({r.lo.x - p.x, 0.0, p.x - r.hi.x});
  const double dy = std::max({r.lo.y - p.y, 0.0, p.y - r.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

double MaxDist(const Point& p, const Rect& r) {
  if (r.empty()) return 0.0;
  const double dx = std::max(std::abs(p.x - r.lo.x), std::abs(p.x - r.hi.x));
  const double dy = std::max(std::abs(p.y - r.lo.y), std::abs(p.y - r.hi.y));
  return std::sqrt(dx * dx + dy * dy);
}

double MinDist(const Rect& a, const Rect& b) {
  if (a.empty() || b.empty()) return std::numeric_limits<double>::infinity();
  const double dx = std::max({b.lo.x - a.hi.x, 0.0, a.lo.x - b.hi.x});
  const double dy = std::max({b.lo.y - a.hi.y, 0.0, a.lo.y - b.hi.y});
  return std::sqrt(dx * dx + dy * dy);
}

}  // namespace cca
