// Incremental On-demand Algorithm (IDA), paper Algorithm 4.
//
// Two improvements over NIA:
//  1. Theorem-2 fast path: while no provider is full, the shortest pending
//     edge to an unsaturated customer *is* the shortest augmenting path,
//     so assignments happen straight off the frontier without Dijkstra.
//  2. Full-provider distance lift: once a provider q is full, any path
//     through an undiscovered edge of q costs at least
//     realdist(q) + dist(q, p). Pending keys are lifted accordingly, which
//     both delays those edges' insertion and loosens the acceptance test
//     (paper Section 3.3; the engine certifies the lift, DESIGN.md 3.2).
#include <cassert>
#include <limits>

#include "common/timer.h"
#include "core/engine.h"
#include "core/exact.h"
#include "core/frontier.h"

namespace cca {

ExactResult SolveIda(const Problem& problem, CustomerDb* db, const ExactConfig& config) {
  ExactResult result;
  Timer timer;
  IoScope io(db, &result.metrics);

  IncrementalEngine engine(problem, &result.metrics);

  auto source = MakeNnSource(db, problem, config, &result.metrics);
  EdgeFrontier frontier(problem, source.get(), &result.metrics);
  const auto zero_lift = [](int) { return 0.0; };

  // Phase 1 (Theorem 2): direct assignments while no provider is full.
  // All pending keys equal plain edge lengths here.
  while (!engine.Done() && engine.fast_mode()) {
    const auto [q, key] = frontier.MinKey(zero_lift);
    (void)key;
    if (q < 0) break;
    const EdgeFrontier::Candidate cand = frontier.at(q);
    const int eid = engine.InsertEdge(q, cand.cust, cand.dist);
    frontier.Advance(q);
    if (engine.CustomerResidual(cand.cust) > 0) {
      const std::int64_t units = engine.FastAssign(eid);
      assert(units > 0);
      (void)units;
    }
    // Saturated customer: the edge merely joins Esub (it may carry flow in
    // later residual paths), exactly as Algorithm 4 lines 7-8 prescribe.
  }

  // Phase 2: NIA-style loop with lifted keys.
  const auto lift = [&](int q) { return engine.ProviderBound(q); };
  while (!engine.Done()) {
    while (true) {
      const auto [q, key] = frontier.MinKey(lift);
      (void)key;
      if (q >= 0) {
        const EdgeFrontier::Candidate cand = frontier.at(q);
        engine.InsertEdge(q, cand.cust, cand.dist);
        frontier.Advance(q);
      }
      const double d = engine.ComputeShortestPath();
      // Keys are re-evaluated against the freshly terminated run (the
      // paper's line 10-12 key refresh happens implicitly here).
      const double bound = frontier.MinKey(lift).second;
      if (d <= bound + 1e-9) {
        assert(d < std::numeric_limits<double>::infinity());
        engine.AcceptPath();
        break;
      }
      ++result.metrics.invalid_paths;
      assert(q >= 0 && "subgraph exhausted but path still invalid");
    }
  }

  result.matching = engine.BuildMatching();
  io.Finish();
  result.metrics.cpu_millis = timer.ElapsedMillis();
  return result;
}

}  // namespace cca
