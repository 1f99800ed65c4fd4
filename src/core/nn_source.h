// Incremental NN streams for the edge-discovery side of NIA/IDA.
//
// `NnSource` hands out, per service provider, the next nearest customer on
// demand. The interface is backend-neutral — a `Hit` is just (customer id,
// distance), with no R-tree types leaking through — and two classes
// implement its three backends (see src/core/README.md for the layer
// contract):
//
//   * GroupedNnSource  the shared Hilbert-grouped ANN traversal of paper
//                      Section 3.4.2 over the R-tree (kRTreeGrouped, and
//                      kAuto); a lone provider is a group of one;
//   * GridNnSource     uniform-grid ring cursors over the memory-resident
//                      customer array (src/geo/grid_cursor.h), one per
//                      provider — no R-tree nodes are touched and no page
//                      I/O is charged (kGrid). Batched (kGridBatched), the
//                      providers are Hilbert-grouped and each group keeps
//                      one fetched-cell ledger, so a cell any member reads
//                      is charged once to the group: the grid analogue of
//                      GroupedNnSource's shared page reads. Each member
//                      still reads a cell's points only when its own walk
//                      reaches the cell, so its stream is the kGrid one.
//
// The concrete classes live in nn_source.cc; callers go through the
// factory, which switches on ExactConfig::discovery_backend.
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
};

// Grid resolution for NN *streaming* (kGrid/kGridBatched), in average
// customers per cell. Unlike the SSPA relax (which wants fine cells for
// pruning granularity), an NN cursor keeps every fetched point in its
// candidate heap, so fat cells simply amortise the per-fetch cost — one
// fetch is one contiguous SoA scan, the grid analogue of reading an R-tree
// leaf page.
inline constexpr double kNnStreamTargetPerCell = 256.0;

// Factory honouring ExactConfig::discovery_backend. The grid backend reads
// `db->points()` and reports its cursor cells into `metrics`
// (grid_cursor_cells / index_node_accesses); the R-tree backend reports
// through the tree's own counters (harvested by IoScope).
std::unique_ptr<NnSource> MakeNnSource(CustomerDb* db, const Problem& problem,
                                       const ExactConfig& config, Metrics* metrics);

}  // namespace cca

#endif  // CCA_CORE_NN_SOURCE_H_
