// Exact CCA solvers: RIA, NIA and IDA (paper Section 3).
//
// All three produce the optimal capacity-constrained assignment; they
// differ in how the flow subgraph Esub is grown and how aggressively
// shortest paths can be certified against unexplored edges:
//
//   RIA  grows Esub with batched (annular) range searches of radius T,
//        T advancing by theta; a path is final once its cost <= T.
//   NIA  grows Esub one edge at a time from per-provider incremental NN
//        streams; a path is final once its cost is at most the shortest
//        pending (undiscovered) edge.
//   IDA  refines NIA with full-provider distance lifts (paths through a
//        full provider q cost at least realdist(q) + edge length) and the
//        Theorem-2 fast path that assigns without any Dijkstra runs while
//        no provider is full.
//
// All three always run the paper's configuration: PUA repairs a live
// Dijkstra run after every edge insert (3.4.1), IDA always lifts its
// pending keys (3.3), and the R-tree backend is the Hilbert-grouped ANN
// traversal (3.4.2) with a fixed group size.
#ifndef CCA_CORE_EXACT_H_
#define CCA_CORE_EXACT_H_

#include "common/metrics.h"
#include "core/customer_db.h"
#include "core/matching.h"
#include "core/problem.h"

namespace cca {

class UniformGrid;

// Candidate-discovery backend for the exact solvers (see src/core/README.md
// for the layer contract). All backends yield cost-identical matchings;
// they differ in how the "next nearest candidate" primitive is served:
//
//   kRTreeGrouped  the paper's shared Hilbert-grouped ANN traversal (3.4.2)
//                  over the paged R-tree; a lone provider is a group of one,
//   kGrid          uniform-grid ring cursors over the raw point array
//                  (memory-resident customers: no R-tree, no page I/O),
//   kGridBatched   the grid analogue of kRTreeGrouped: kGrid's cursors,
//                  Hilbert-grouped, with one fetched-cell ledger per group
//                  — a cell is charged once per group, and each member
//                  reads its points only when its own walk reaches it.
enum class DiscoveryBackend {
  kAuto = 0,  // kRTreeGrouped
  kRTreeGrouped,
  kGrid,
  kGridBatched,
};

struct ExactConfig {
  // RIA: range increment theta (paper default 0.8 on the [0,1000]^2 world).
  double theta = 0.8;
  // How RIA/NIA/IDA (and the greedy baseline) discover spatial candidates.
  DiscoveryBackend discovery_backend = DiscoveryBackend::kAuto;
  // Prebuilt grid for the kGrid/kGridBatched backends, owned by the caller
  // (the runtime's SharedIndex builds one per customer set and shares it
  // across concurrent queries). Must cover the same points the solver is
  // given, built at kNnStreamTargetPerCell (core/nn_source.h); null means
  // each solve builds (and owns) a private grid. The grid is read-only
  // during solves, so sharing is safe.
  const UniformGrid* shared_stream_grid = nullptr;
};

struct ExactResult {
  Matching matching;
  Metrics metrics;
};

// Range Incremental Algorithm (paper Algorithm 2).
ExactResult SolveRia(const Problem& problem, CustomerDb* db, const ExactConfig& config = {});

// Nearest Neighbor Incremental Algorithm (paper Algorithm 3).
ExactResult SolveNia(const Problem& problem, CustomerDb* db, const ExactConfig& config = {});

// Incremental On-demand Algorithm (paper Algorithm 4); the best exact
// method in the paper's evaluation and the engine behind SA/CA concise
// matching.
ExactResult SolveIda(const Problem& problem, CustomerDb* db, const ExactConfig& config = {});

}  // namespace cca

#endif  // CCA_CORE_EXACT_H_
