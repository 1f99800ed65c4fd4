#include "core/nn_source.h"

#include <vector>

#include "core/customer_db.h"
#include "geo/grid.h"
#include "geo/grid_cursor.h"
#include "rtree/ann_iterator.h"
#include "rtree/rtree.h"

namespace cca {
namespace {

// Providers per Hilbert group of the grouped ANN traversal (kRTreeGrouped,
// paper Section 3.4.2). A provider's distance stream does not depend on
// the group size; the size only trades shared page reads against
// per-group heap work.
constexpr std::size_t kAnnGroupSize = 8;

// Providers per batched grid group (kGridBatched). Grid streaming cells
// (~256 points) are fatter than R-tree leaf pages and a group's ledger is
// one flag per cell, so the sweet spot sits above the ANN group size: 16
// roughly halves the fetch count again versus groups of 8 at |Q|=100,
// |P|=10k.
constexpr std::size_t kBatchGroupSize = 16;

std::optional<NnSource::Hit> FromRTreeHit(const std::optional<RTree::Hit>& hit) {
  if (!hit) return std::nullopt;
  return NnSource::Hit{static_cast<std::int32_t>(hit->oid), hit->dist};
}

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

// Grid ring cursors over the memory-resident customer array, one exact NN
// stream per provider. The grid is either borrowed (a caller-owned shared
// immutable grid, so concurrent queries skip the per-solve build) or built
// and owned here.
//
// With `group_size` > 0 (kGridBatched) the providers are Hilbert-grouped
// (FormHilbertGroups, the run-length grouping the ANN backend uses) and
// each group keeps one fetched-cell ledger: a cell is charged once per
// group no matter how many members' walks reach it. Members still refine
// only from their own walks, so every stream is the kGrid stream.
class GridNnSource : public NnSource {
 public:
  GridNnSource(const std::vector<Point>& customers, const std::vector<Provider>& providers,
               const UniformGrid* borrowed_grid, Metrics* metrics, std::size_t group_size,
               const Rect& world)
      : owned_grid_(borrowed_grid != nullptr
                        ? nullptr
                        : std::make_unique<UniformGrid>(customers, kNnStreamTargetPerCell)),
        grid_(borrowed_grid != nullptr ? borrowed_grid : owned_grid_.get()),
        metrics_(metrics),
        batched_(group_size > 0) {
    std::vector<Point> positions;
    positions.reserve(providers.size());
    for (const auto& q : providers) positions.push_back(q.pos);
    std::vector<std::vector<char>*> ledger_of(providers.size(), nullptr);
    if (batched_) {
      const auto groups = FormHilbertGroups(positions, group_size, world);
      // Sized once: cursors keep pointers into ledgers_.
      ledgers_.assign(groups.size(), std::vector<char>(grid_->lattice().num_cells(), 0));
      for (std::size_t g = 0; g < groups.size(); ++g) {
        for (const int idx : groups[g]) ledger_of[static_cast<std::size_t>(idx)] = &ledgers_[g];
      }
    }
    cursors_.reserve(providers.size());
    for (std::size_t q = 0; q < providers.size(); ++q) {
      cursors_.emplace_back(*grid_, positions[q], ledger_of[q]);
    }
  }

  // Runs `op` and charges the cells it fetched to the metrics bundle —
  // the single place grid cursor work is accounted. Batched streams also
  // book the group-distinct fetches and the member deliveries (cells the
  // member's own walk read). (Defined before its uses: in-class `auto`
  // return deduction needs the body first.)
  template <typename Op>
  auto Charged(GridNnCursor* cursor, Op&& op) {
    const std::uint64_t fetched = cursor->cells_fetched();
    const std::uint64_t visited = cursor->cells_visited();
    auto result = op();
    if (metrics_ != nullptr) {
      const std::uint64_t fetches = cursor->cells_fetched() - fetched;
      metrics_->grid_cursor_cells += fetches;
      metrics_->index_node_accesses += fetches;
      if (batched_) {
        metrics_->shared_frontier_cell_fetches += fetches;
        metrics_->shared_frontier_fanout += cursor->cells_visited() - visited;
      }
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
  bool batched_;
  std::vector<std::vector<char>> ledgers_;  // one fetched-cell flag per cell, per group
  std::vector<GridNnCursor> cursors_;
};

}  // namespace

std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics) {
  switch (config.discovery_backend) {
    case DiscoveryBackend::kGrid:
      return std::make_unique<GridNnSource>(db->points(), problem.providers,
                                            config.shared_stream_grid, metrics,
                                            /*group_size=*/0, problem.World());
    case DiscoveryBackend::kGridBatched:
      return std::make_unique<GridNnSource>(db->points(), problem.providers,
                                            config.shared_stream_grid, metrics, kBatchGroupSize,
                                            problem.World());
    case DiscoveryBackend::kAuto:
    case DiscoveryBackend::kRTreeGrouped:
      break;
  }
  return std::make_unique<GroupedNnSource>(db->tree(), problem.providers, kAnnGroupSize,
                                           problem.World());
}

}  // namespace cca
