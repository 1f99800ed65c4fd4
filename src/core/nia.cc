// Nearest Neighbor Incremental Algorithm (NIA), paper Algorithm 3.
//
// Esub grows one edge at a time, always the globally shortest undiscovered
// provider->customer edge (incremental NN streams merged by length). A
// computed shortest path is accepted once its real cost is at most the
// shortest pending edge: any path through an undiscovered edge costs at
// least that edge's length (Theorem 1 under the fixed-source convention).
#include <cassert>
#include <limits>

#include "common/timer.h"
#include "core/engine.h"
#include "core/exact.h"
#include "core/frontier.h"

namespace cca {

ExactResult SolveNia(const Problem& problem, CustomerDb* db, const ExactConfig& config) {
  ExactResult result;
  Timer timer;
  IoScope io(db, &result.metrics);

  IncrementalEngine engine(problem, &result.metrics);

  auto source = MakeNnSource(db, problem, config, &result.metrics);
  EdgeFrontier frontier(problem, source.get(), &result.metrics);
  const auto zero_lift = [](int) { return 0.0; };

  while (!engine.Done()) {
    // One iteration: keep de-heaping pending edges into Esub until the
    // sub-graph shortest path is certified valid, then augment it.
    while (true) {
      const auto [q, key] = frontier.MinKey(zero_lift);
      (void)key;
      if (q >= 0) {
        const EdgeFrontier::Candidate cand = frontier.at(q);
        engine.InsertEdge(q, cand.cust, cand.dist);
        frontier.Advance(q);
      }
      const double d = engine.ComputeShortestPath();
      const double bound = frontier.MinKey(zero_lift).second;  // TopKey(H)
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
