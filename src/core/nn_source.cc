#include "core/nn_source.h"

#include <vector>

#include "core/customer_db.h"
#include "geo/grid.h"
#include "geo/grid_cursor.h"
#include "geo/shared_frontier.h"
#include "rtree/ann_iterator.h"
#include "rtree/nn_iterator.h"
#include "rtree/rtree.h"

namespace cca {
namespace {

// Providers per SharedFrontier group (kGridBatched). Grid streaming cells
// (~256 points) are fatter than R-tree leaf pages and multiplexing a
// fetched cell is cheap in-memory work, so the sweet spot sits above the
// ANN group size: 16 roughly halves the fetch count again versus groups of
// 8 at |Q|=100, |P|=10k.
constexpr std::size_t kBatchGroupSize = 16;

std::optional<NnSource::Hit> FromRTreeHit(const std::optional<RTree::Hit>& hit) {
  if (!hit) return std::nullopt;
  return NnSource::Hit{static_cast<std::int32_t>(hit->oid), hit->dist};
}

// One independent best-first NN iterator per provider.
class PlainNnSource : public NnSource {
 public:
  PlainNnSource(RTree* tree, const std::vector<Provider>& providers) {
    iterators_.reserve(providers.size());
    for (const auto& q : providers) iterators_.emplace_back(tree, q.pos);
  }

  std::optional<Hit> NextNN(int q) override {
    return FromRTreeHit(iterators_[static_cast<std::size_t>(q)].Next());
  }

  double PeekDistance(int q) override {
    return iterators_[static_cast<std::size_t>(q)].PeekDistance();
  }

 private:
  std::vector<NnIterator> iterators_;
};

// Hilbert-grouped shared traversal (paper Algorithm 6).
class GroupedNnSource : public NnSource {
 public:
  GroupedNnSource(RTree* tree, const std::vector<Provider>& providers,
                  std::size_t max_group_size, const Rect& world) {
    std::vector<Point> positions;
    positions.reserve(providers.size());
    for (const auto& q : providers) positions.push_back(q.pos);
    const auto groups = FormHilbertGroups(positions, max_group_size, world);
    searcher_ = std::make_unique<GroupAnnSearcher>(tree, positions, groups);
  }

  std::optional<Hit> NextNN(int q) override { return FromRTreeHit(searcher_->NextNN(q)); }

  double PeekDistance(int q) override { return searcher_->PeekDistance(q); }

 private:
  std::unique_ptr<GroupAnnSearcher> searcher_;
};

// Grid ring cursors over the memory-resident customer array. The grid is
// either borrowed (a caller-owned shared immutable grid, so concurrent
// queries skip the per-solve build) or built and owned here.
class GridNnSource : public NnSource {
 public:
  GridNnSource(const std::vector<Point>& customers, const std::vector<Provider>& providers,
               const UniformGrid* borrowed_grid, Metrics* metrics)
      : owned_grid_(borrowed_grid != nullptr
                        ? nullptr
                        : std::make_unique<UniformGrid>(customers, kNnStreamTargetPerCell)),
        grid_(borrowed_grid != nullptr ? borrowed_grid : owned_grid_.get()),
        metrics_(metrics) {
    cursors_.reserve(providers.size());
    for (const auto& q : providers) cursors_.emplace_back(*grid_, q.pos);
  }

  // Runs `op` and charges any cells it fetched to the metrics bundle —
  // the single place grid cursor work is accounted. (Defined before its
  // uses: in-class `auto` return deduction needs the body first.)
  template <typename Op>
  auto Charged(GridNnCursor* cursor, Op&& op) {
    const std::uint64_t before = cursor->cells_visited();
    auto result = op();
    if (metrics_ != nullptr) {
      const std::uint64_t cells = cursor->cells_visited() - before;
      metrics_->grid_cursor_cells += cells;
      metrics_->index_node_accesses += cells;
    }
    return result;
  }

  std::optional<Hit> NextNN(int q) override {
    GridNnCursor& cursor = cursors_[static_cast<std::size_t>(q)];
    const auto next = Charged(&cursor, [&] { return cursor.Next(); });
    if (!next) return std::nullopt;
    return Hit{next->first, next->second};
  }

  double PeekDistance(int q) override {
    GridNnCursor& cursor = cursors_[static_cast<std::size_t>(q)];
    return Charged(&cursor, [&] { return cursor.PeekDistance(); });
  }

 private:
  std::unique_ptr<UniformGrid> owned_grid_;  // null when borrowing
  const UniformGrid* grid_;
  Metrics* metrics_;
  std::vector<GridNnCursor> cursors_;
};

// Hilbert-grouped shared frontiers over the grid: one SharedFrontier per
// group of adjacent providers (FormHilbertGroups, the same run-length
// grouping the ANN backend uses). Every cell a group fetches is charged
// once and multiplexed to all members, so nearby providers popped at
// similar keys stop re-fetching each other's cells.
class BatchedGridSource : public NnSource {
 public:
  BatchedGridSource(const std::vector<Point>& customers, const std::vector<Provider>& providers,
                    const Rect& world, const UniformGrid* borrowed_grid, Metrics* metrics)
      : owned_grid_(borrowed_grid != nullptr
                        ? nullptr
                        : std::make_unique<UniformGrid>(customers, kNnStreamTargetPerCell)),
        grid_(borrowed_grid != nullptr ? borrowed_grid : owned_grid_.get()),
        metrics_(metrics) {
    std::vector<Point> positions;
    positions.reserve(providers.size());
    for (const auto& q : providers) positions.push_back(q.pos);
    const auto groups = FormHilbertGroups(positions, kBatchGroupSize, world);
    member_of_.resize(providers.size());
    frontiers_.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
      std::vector<Point> members;
      members.reserve(groups[g].size());
      for (const int idx : groups[g]) {
        member_of_[static_cast<std::size_t>(idx)] = {static_cast<int>(g),
                                                     static_cast<int>(members.size())};
        members.push_back(positions[static_cast<std::size_t>(idx)]);
      }
      frontiers_.push_back(std::make_unique<SharedFrontier>(*grid_, members));
    }
  }

  // Runs `op` and charges the cells it fetched (and the deliveries it
  // produced) to the metrics bundle, mirroring GridNnSource::Charged
  // (defined before its uses: in-class `auto` deduction needs the body
  // first).
  template <typename Op>
  auto Charged(SharedFrontier& frontier, Op&& op) {
    const SharedFrontierStats before = frontier.stats();
    auto result = op(frontier);
    if (metrics_ != nullptr) {
      const SharedFrontierStats& after = frontier.stats();
      const std::uint64_t fetches = after.cell_fetches - before.cell_fetches;
      metrics_->grid_cursor_cells += fetches;
      metrics_->index_node_accesses += fetches;
      metrics_->shared_frontier_cell_fetches += fetches;
      metrics_->shared_frontier_fanout += after.fanout - before.fanout;
    }
    return result;
  }

  std::optional<Hit> NextNN(int q) override {
    const auto [g, m] = member_of_[static_cast<std::size_t>(q)];
    const auto next = Charged(*frontiers_[static_cast<std::size_t>(g)],
                              [&](SharedFrontier& f) { return f.NextNN(m); });
    if (!next) return std::nullopt;
    return Hit{next->first, next->second};
  }

  double PeekDistance(int q) override {
    const auto [g, m] = member_of_[static_cast<std::size_t>(q)];
    return Charged(*frontiers_[static_cast<std::size_t>(g)],
                   [&](SharedFrontier& f) { return f.PeekDistance(m); });
  }

  void Retire(int q) override {
    const auto [g, m] = member_of_[static_cast<std::size_t>(q)];
    frontiers_[static_cast<std::size_t>(g)]->Unsubscribe(m);
  }

 private:
  struct MemberRef {
    int group = 0;
    int member = 0;
  };

  std::unique_ptr<UniformGrid> owned_grid_;  // null when borrowing
  const UniformGrid* grid_;
  Metrics* metrics_;
  std::vector<MemberRef> member_of_;
  std::vector<std::unique_ptr<SharedFrontier>> frontiers_;
};

}  // namespace

DiscoveryBackend ResolveDiscoveryBackend(const ExactConfig& config, std::size_t num_providers) {
  if (config.discovery_backend != DiscoveryBackend::kAuto) return config.discovery_backend;
  return num_providers > 1 ? DiscoveryBackend::kRTreeGrouped : DiscoveryBackend::kRTreePlain;
}

std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics) {
  switch (ResolveDiscoveryBackend(config, problem.providers.size())) {
    case DiscoveryBackend::kGrid:
      return std::make_unique<GridNnSource>(db->points(), problem.providers,
                                            config.shared_stream_grid, metrics);
    case DiscoveryBackend::kGridBatched:
      return std::make_unique<BatchedGridSource>(db->points(), problem.providers, problem.World(),
                                                 config.shared_stream_grid, metrics);
    case DiscoveryBackend::kRTreeGrouped:
      return std::make_unique<GroupedNnSource>(db->tree(), problem.providers,
                                               config.ann_group_size, problem.World());
    default:
      return std::make_unique<PlainNnSource>(db->tree(), problem.providers);
  }
}

}  // namespace cca
