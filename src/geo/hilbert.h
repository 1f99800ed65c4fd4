// 2-D Hilbert space-filling curve.
//
// The paper uses Hilbert ordering twice: to group service providers for the
// incremental ANN search (Section 3.4.2) and to order providers during SA
// partitioning (Section 4.1). We expose a fixed-order (2^16 cells per axis)
// encoder over an arbitrary bounding rectangle.
#ifndef CCA_GEO_HILBERT_H_
#define CCA_GEO_HILBERT_H_

#include <cstdint>
#include <vector>

#include "geo/point.h"
#include "geo/rect.h"

namespace cca {

// Number of bits of resolution per axis used when quantising coordinates.
inline constexpr int kHilbertOrder = 16;

// Maps discrete cell coordinates (x, y), each in [0, 2^order), to the
// Hilbert curve index (d2xy inverse). `order` <= 31.
std::uint64_t HilbertIndex(std::uint32_t x, std::uint32_t y, int order = kHilbertOrder);

// Inverse mapping: Hilbert index -> cell coordinates.
void HilbertCell(std::uint64_t index, std::uint32_t* x, std::uint32_t* y,
                 int order = kHilbertOrder);

// Quantises `p` onto the `world` rectangle and returns its Hilbert index.
// Points outside `world` are clamped.
std::uint64_t HilbertValue(const Point& p, const Rect& world, int order = kHilbertOrder);

// Indices of `points`, sorted by HilbertValue over `world`: the order that
// both provider groupings (ANN groups, SA partitions) and CA's customer
// merge step walk.
std::vector<int> HilbertOrder(const std::vector<Point>& points, const Rect& world);

}  // namespace cca

#endif  // CCA_GEO_HILBERT_H_
