#include "core/nn_source.h"

#include <vector>

#include "core/customer_db.h"
#include "geo/grid.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"
#include "geo/shared_frontier.h"
#include "rtree/ann_iterator.h"
#include "rtree/nn_iterator.h"
#include "rtree/rtree.h"

namespace cca {
namespace {

// Coarse default resolution for NN streaming: unlike the SSPA relax (which
// wants fine cells for pruning granularity), an NN cursor keeps every
// fetched point in its candidate heap, so fat cells simply amortise the
// per-fetch cost — one fetch is one contiguous SoA scan, the grid analogue
// of reading an R-tree leaf page.
constexpr double kNnStreamTargetPerCell = 256.0;

// Default SharedFrontier group size (ExactConfig::batch_group_size == 0).
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
               double target_per_cell, const UniformGrid* borrowed_grid, Metrics* metrics)
      : owned_grid_(borrowed_grid != nullptr
                        ? nullptr
                        : std::make_unique<UniformGrid>(customers, target_per_cell)),
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

// Hierarchical flavour of GridNnSource: HierNnCursor streams (coarse ring
// cursor + fine-cell bound heap) over a two-level grid built at the same
// streaming resolution (fine cells at the stream target, coarse cells 16x
// fatter). Exact and ordered identically to GridNnSource; `cells_visited`
// counts fine materialisations, the ledger unit comparable to flat cell
// fetches.
class HierGridNnSource : public NnSource {
 public:
  HierGridNnSource(const std::vector<Point>& customers, const std::vector<Provider>& providers,
                   double target_per_cell, const HierarchicalGrid* shared_hier, Metrics* metrics)
      : metrics_(metrics) {
    if (shared_hier != nullptr) {
      grid_ = shared_hier;
    } else {
      HierarchicalGrid::Options opts;
      opts.fine_target_per_cell = target_per_cell;
      opts.coarse_target_per_cell = 16.0 * target_per_cell;
      owned_grid_ = std::make_unique<HierarchicalGrid>(customers, opts);
      grid_ = owned_grid_.get();
    }
    cursors_.reserve(providers.size());
    for (const auto& q : providers) cursors_.emplace_back(*grid_, q.pos);
  }

  // Mirrors GridNnSource::Charged (defined before its uses: in-class
  // `auto` deduction needs the body first).
  template <typename Op>
  auto Charged(HierNnCursor* cursor, Op&& op) {
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
    HierNnCursor& cursor = cursors_[static_cast<std::size_t>(q)];
    const auto next = Charged(&cursor, [&] { return cursor.Next(); });
    if (!next) return std::nullopt;
    return Hit{next->first, next->second};
  }

  double PeekDistance(int q) override {
    HierNnCursor& cursor = cursors_[static_cast<std::size_t>(q)];
    return Charged(&cursor, [&] { return cursor.PeekDistance(); });
  }

 private:
  std::unique_ptr<HierarchicalGrid> owned_grid_;  // null when borrowing
  const HierarchicalGrid* grid_ = nullptr;
  Metrics* metrics_;
  std::vector<HierNnCursor> cursors_;
};

// Hilbert-grouped shared frontiers over the grid: one SharedFrontier per
// group of adjacent providers (FormHilbertGroups, the same run-length
// grouping the ANN backend uses). Every cell a group fetches is charged
// once and multiplexed to all members, so nearby providers popped at
// similar keys stop re-fetching each other's cells.
class BatchedGridSource : public NnSource {
 public:
  BatchedGridSource(const std::vector<Point>& customers, const std::vector<Provider>& providers,
                    double target_per_cell, std::size_t max_group_size, const Rect& world,
                    const UniformGrid* borrowed_grid, Metrics* metrics)
      : owned_grid_(borrowed_grid != nullptr
                        ? nullptr
                        : std::make_unique<UniformGrid>(customers, target_per_cell)),
        grid_(borrowed_grid != nullptr ? borrowed_grid : owned_grid_.get()),
        metrics_(metrics) {
    std::vector<Point> positions;
    positions.reserve(providers.size());
    for (const auto& q : providers) positions.push_back(q.pos);
    const auto groups = FormHilbertGroups(positions, max_group_size, world);
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
  return (config.use_ann_grouping && num_providers > 1) ? DiscoveryBackend::kRTreeGrouped
                                                        : DiscoveryBackend::kRTreePlain;
}

double ResolveGridTargetPerCell(const ExactConfig& config) {
  return config.grid_stream_target_per_cell > 0.0 ? config.grid_stream_target_per_cell
                                                  : kNnStreamTargetPerCell;
}

std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics) {
  switch (ResolveDiscoveryBackend(config, problem.providers.size())) {
    case DiscoveryBackend::kGrid:
      if (config.use_hierarchy) {
        return std::make_unique<HierGridNnSource>(db->points(), problem.providers,
                                                  ResolveGridTargetPerCell(config),
                                                  config.shared_stream_hier, metrics);
      }
      return std::make_unique<GridNnSource>(db->points(), problem.providers,
                                            ResolveGridTargetPerCell(config),
                                            config.shared_stream_grid, metrics);
    case DiscoveryBackend::kGridBatched:
      return std::make_unique<BatchedGridSource>(
          db->points(), problem.providers, ResolveGridTargetPerCell(config),
          config.batch_group_size > 0 ? config.batch_group_size : kBatchGroupSize,
          problem.World(), config.shared_stream_grid, metrics);
    case DiscoveryBackend::kRTreeGrouped:
      return std::make_unique<GroupedNnSource>(db->tree(), problem.providers,
                                               config.ann_group_size, problem.World());
    default:
      return std::make_unique<PlainNnSource>(db->tree(), problem.providers);
  }
}

}  // namespace cca
