// Incremental NN streams for the edge-discovery side of NIA/IDA.
//
// `NnSource` hands out, per service provider, the next nearest customer on
// demand. The interface is backend-neutral — a `Hit` is just (customer id,
// distance), with no R-tree types leaking through — and four backends
// implement it (see src/core/README.md for the layer contract):
//
//   * PlainNnSource    independent best-first R-tree iterators, one per
//                      provider;
//   * GroupedNnSource  the shared Hilbert-grouped ANN traversal of paper
//                      Section 3.4.2;
//   * GridNnSource     uniform-grid ring cursors over the memory-resident
//                      customer array (src/geo/grid_cursor.h) — no R-tree
//                      nodes are touched and no page I/O is charged;
//   * BatchedGridSource Hilbert-grouped SharedFrontier sweeps
//                      (src/geo/shared_frontier.h): each group fetches a
//                      cell once and multiplexes its points to every
//                      member, the grid analogue of GroupedNnSource.
//
// The concrete classes live in nn_source.cc; callers go through the
// factory, which resolves ExactConfig::discovery_backend.
#ifndef CCA_CORE_NN_SOURCE_H_
#define CCA_CORE_NN_SOURCE_H_

#include <cstdint>
#include <memory>
#include <optional>

#include "common/metrics.h"
#include "core/exact.h"
#include "core/problem.h"

namespace cca {

class CustomerDb;

class NnSource {
 public:
  // Backend-neutral discovery hit: the customer's object id (== index into
  // Problem::customers) and its distance to the querying provider.
  struct Hit {
    std::int32_t oid = -1;
    double dist = 0.0;
  };

  virtual ~NnSource() = default;
  // Next nearest customer of provider `q` (non-decreasing distance per
  // provider), or nullopt when exhausted.
  virtual std::optional<Hit> NextNN(int q) = 0;
  // Distance the next NextNN(q) would return (+infinity when exhausted)
  // without consuming it; may read index structures to find out. RIA's
  // grid path drains a source batch-by-batch against this bound.
  virtual double PeekDistance(int q) = 0;
  // Provider `q`'s stream will not be consumed again (capacity exhausted,
  // or the solver retired it). Batched sources terminate the stream and
  // release its subscription slot — queued candidates and delivery
  // bookkeeping — so a retiree stops costing both memory and fanout work;
  // per-provider backends ignore the call. After Retire, NextNN(q)
  // returns nullopt and PeekDistance(q) is +infinity on batched sources.
  virtual void Retire(int q) { (void)q; }
};

// Grid resolution for NN *streaming* (kGrid/kGridBatched), in average
// customers per cell. Unlike the SSPA relax (which wants fine cells for
// pruning granularity), an NN cursor keeps every fetched point in its
// candidate heap, so fat cells simply amortise the per-fetch cost — one
// fetch is one contiguous SoA scan, the grid analogue of reading an R-tree
// leaf page.
inline constexpr double kNnStreamTargetPerCell = 256.0;

// Resolves kAuto: the grouped ANN traversal when there is more than one
// provider to group, otherwise the plain per-provider iterator.
DiscoveryBackend ResolveDiscoveryBackend(const ExactConfig& config, std::size_t num_providers);

// Factory honouring ExactConfig::discovery_backend. The grid backend reads
// `db->points()` and reports its cursor cells into `metrics`
// (grid_cursor_cells / index_node_accesses); the R-tree backends report
// through the tree's own counters (harvested by IoScope).
std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics);

}  // namespace cca

#endif  // CCA_CORE_NN_SOURCE_H_
