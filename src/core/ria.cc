// Range Incremental Algorithm (RIA), paper Algorithm 2.
//
// Esub holds exactly the provider->customer edges of length <= T, grown in
// annular batches of width theta. With the fixed-source potential
// convention a computed shortest path is globally valid as soon as its
// (real) cost is within T, since every unexplored edge is longer than T
// and real path costs through it cannot be smaller (Theorem 1; see
// DESIGN.md Section 3.2 for why no tau_max slack is needed).
//
// The annular batches are served by the configured discovery backend. On
// the R-tree (kAuto, kRTreeGrouped) RIA needs no NN stream: it issues one
// AnnularRangeSearch per provider per batch. The grid paths
// (memory-resident customer sets, kGrid and kGridBatched) hold a grid
// NnSource and, per batch, drain each provider's stream up to the new T
// against PeekDistance(): successive annuli are nested (each batch's lo equals the
// previous hi), so resuming the incremental NN stream yields exactly the
// (lo, hi] batch without ever re-fetching inner-disk cells, charges no
// page I/O, and keeps the grid semantics and cell accounting in
// nn_source.cc alone.
#include <cassert>
#include <memory>

#include "common/timer.h"
#include "core/engine.h"
#include "core/exact.h"
#include "core/nn_source.h"
#include "rtree/rtree.h"

namespace cca {

ExactResult SolveRia(const Problem& problem, CustomerDb* db, const ExactConfig& config) {
  ExactResult result;
  Timer timer;
  IoScope io(db, &result.metrics);

  IncrementalEngine engine(problem, &result.metrics);

  const double world_diag = problem.World().Diagonal();
  const auto nq = problem.providers.size();

  std::unique_ptr<NnSource> grid_source;  // grid backends: resumable stream per provider
  if (config.discovery_backend == DiscoveryBackend::kGrid ||
      config.discovery_backend == DiscoveryBackend::kGridBatched) {
    grid_source = MakeNnSource(db, problem, config, &result.metrics);
  }
  std::vector<RTree::Hit> hits;
  // Inserts every edge q -> p with lo < dist(q, p) <= hi (lo < 0 is the
  // initial full-disk batch) through whichever backend is configured.
  const auto insert_annulus = [&](std::size_t q, double lo, double hi) {
    ++result.metrics.range_searches;
    if (grid_source) {
      // Everything below lo was consumed by the previous batches.
      while (grid_source->PeekDistance(static_cast<int>(q)) <= hi) {
        const auto hit = grid_source->NextNN(static_cast<int>(q));
        engine.InsertEdge(static_cast<int>(q), hit->oid, hit->dist);
      }
      return;
    }
    db->tree()->AnnularRangeSearch(problem.providers[q].pos, lo, hi, &hits);
    for (const auto& h : hits) {
      engine.InsertEdge(static_cast<int>(q), static_cast<int>(h.oid), h.dist);
    }
  };

  double t_range = config.theta;
  bool exhausted = false;

  // Initial batch: all edges of length <= theta.
  for (std::size_t q = 0; q < nq; ++q) insert_annulus(q, -1.0, t_range);

  while (!engine.Done()) {
    const double d = engine.ComputeShortestPath();
    if (d <= t_range + 1e-9 || exhausted) {
      assert(d < std::numeric_limits<double>::infinity());
      engine.AcceptPath();
      continue;
    }
    // Invalid path: widen the annulus (T-theta, T] and retry (Algorithm 2
    // lines 12-15).
    ++result.metrics.invalid_paths;
    const double lo = t_range;
    t_range += config.theta;
    for (std::size_t q = 0; q < nq; ++q) insert_annulus(q, lo, t_range);
    if (t_range >= world_diag) exhausted = true;  // Esub == E from here on
  }

  result.matching = engine.BuildMatching();
  io.Finish();
  result.metrics.cpu_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace cca
