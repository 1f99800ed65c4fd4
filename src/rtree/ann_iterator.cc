#include "rtree/ann_iterator.h"

#include <algorithm>
#include <limits>

#include "geo/hilbert.h"

namespace cca {

std::vector<std::vector<int>> FormHilbertGroups(const std::vector<Point>& points,
                                                std::size_t max_group_size, const Rect& world) {
  const std::vector<int> order = HilbertOrder(points, world);
  std::vector<std::vector<int>> groups;
  for (std::size_t begin = 0; begin < order.size(); begin += max_group_size) {
    const std::size_t end = std::min(order.size(), begin + max_group_size);
    groups.emplace_back(order.begin() + static_cast<std::ptrdiff_t>(begin),
                        order.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return groups;
}

GroupAnnSearcher::GroupAnnSearcher(RTree* tree, const std::vector<Point>& providers,
                                   const std::vector<std::vector<int>>& groups)
    : tree_(tree), providers_(providers) {
  group_of_.assign(providers.size(), -1);
  candidates_.resize(providers.size());
  groups_.resize(groups.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Group& group = groups_[g];
    group.members = groups[g];
    for (int idx : group.members) {
      group.mbr.Expand(providers_[static_cast<std::size_t>(idx)]);
      group_of_[static_cast<std::size_t>(idx)] = static_cast<int>(g);
    }
    if (tree_->root() != kInvalidPage) {
      group.frontier.push(FrontierItem{0.0, tree_->root()});
    }
  }
}

void GroupAnnSearcher::AdvanceUntilServable(int g, int idx) {
  Group& group = groups_[static_cast<std::size_t>(g)];
  auto& res = candidates_[static_cast<std::size_t>(idx)];
  while (!group.frontier.empty() &&
         (res.empty() || res.top().dist > group.frontier.top().key)) {
    const FrontierItem item = group.frontier.top();
    group.frontier.pop();
    const RTreeNode node = tree_->ReadNode(item.page);
    if (node.is_leaf) {
      // Every point feeds the candidate heap of every group member.
      for (const auto& e : node.leaf_entries) {
        for (int member : group.members) {
          candidates_[static_cast<std::size_t>(member)].push(
              Candidate{Distance(providers_[static_cast<std::size_t>(member)], e.pos), e.oid,
                        e.pos});
        }
      }
    } else {
      for (const auto& e : node.entries) {
        group.frontier.push(FrontierItem{MinDist(group.mbr, e.mbr), e.child});
      }
    }
  }
}

std::optional<RTree::Hit> GroupAnnSearcher::NextNN(int idx) {
  const int g = group_of_[static_cast<std::size_t>(idx)];
  AdvanceUntilServable(g, idx);
  auto& res = candidates_[static_cast<std::size_t>(idx)];
  if (res.empty()) return std::nullopt;
  const Candidate c = res.top();
  res.pop();
  return RTree::Hit{c.oid, c.pos, c.dist};
}

double GroupAnnSearcher::PeekDistance(int idx) {
  const int g = group_of_[static_cast<std::size_t>(idx)];
  AdvanceUntilServable(g, idx);
  const auto& res = candidates_[static_cast<std::size_t>(idx)];
  return res.empty() ? std::numeric_limits<double>::infinity() : res.top().dist;
}

}  // namespace cca
