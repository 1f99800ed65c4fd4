#include "core/partition.h"

#include <algorithm>

#include "geo/hilbert.h"

namespace cca {

std::vector<ProviderGroup> PartitionProviders(const std::vector<Provider>& providers,
                                              double delta, const Rect& world) {
  // Process providers in Hilbert order (paper Section 4.1).
  std::vector<Point> positions;
  positions.reserve(providers.size());
  for (const auto& q : providers) positions.push_back(q.pos);

  std::vector<ProviderGroup> groups;
  for (int idx : HilbertOrder(positions, world)) {
    const Point pos = providers[static_cast<std::size_t>(idx)].pos;
    ProviderGroup* target = nullptr;
    for (auto& g : groups) {
      Rect merged = g.mbr;
      merged.Expand(pos);
      if (merged.Diagonal() <= delta) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      groups.emplace_back();
      target = &groups.back();
    }
    target->members.push_back(idx);
    target->mbr.Expand(pos);
    target->capacity += providers[static_cast<std::size_t>(idx)].capacity;
  }

  // Capacity-weighted centroids (paper: coordinates averaged with weights
  // q.k, so a high-capacity provider pulls the representative toward it).
  for (auto& g : groups) {
    double wx = 0.0, wy = 0.0, wsum = 0.0;
    for (int idx : g.members) {
      const auto& q = providers[static_cast<std::size_t>(idx)];
      const double w = std::max<double>(1.0, static_cast<double>(q.capacity));
      wx += q.pos.x * w;
      wy += q.pos.y * w;
      wsum += w;
    }
    g.representative = Point{wx / wsum, wy / wsum};
  }
  return groups;
}

std::vector<CustomerGroup> PartitionCustomers(RTree* tree, double delta, const Rect& world) {
  std::vector<BaseEntry> base = DeltaPartition(tree, delta);

  // Merge step (paper Section 4.2): Hilbert-order the delta-entries by MBR
  // centre and first-fit them into hyper-entries under the same diagonal
  // constraint.
  std::vector<Point> centres;
  centres.reserve(base.size());
  for (const auto& entry : base) centres.push_back(entry.rect.Center());

  std::vector<CustomerGroup> groups;
  for (int idx : HilbertOrder(centres, world)) {
    BaseEntry& entry = base[static_cast<std::size_t>(idx)];
    if (entry.count == 0) continue;
    CustomerGroup* target = nullptr;
    for (auto& g : groups) {
      const Rect merged = Rect::Union(g.mbr, entry.rect);
      if (merged.Diagonal() <= delta) {
        target = &g;
        break;
      }
    }
    if (target == nullptr) {
      groups.emplace_back();
      target = &groups.back();
    }
    target->mbr.Expand(entry.rect);
    target->count += entry.count;
    target->parts.push_back(std::move(entry));
  }
  for (auto& g : groups) g.representative = g.mbr.Center();
  return groups;
}

}  // namespace cca
