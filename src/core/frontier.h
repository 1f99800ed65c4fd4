// Pending-edge frontier for NIA/IDA.
//
// Mirrors the paper's heap H: for every provider exactly one pending edge
// (to its next undiscovered nearest neighbour) is outstanding at any time.
// The frontier is backend-agnostic: it consumes neutral NnSource::Hit
// records, so the same loop runs over R-tree iterators, the grouped ANN
// traversal, or grid ring cursors (see src/core/README.md).
// Keys are computed on demand as lift(q) + dist so that IDA's
// full-provider distance lifts stay current without heap rebuilds; with
// |Q| in the thousands a linear scan is cheaper than maintaining a heap
// whose keys change after every Dijkstra execution.
#ifndef CCA_CORE_FRONTIER_H_
#define CCA_CORE_FRONTIER_H_

#include <limits>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "core/nn_source.h"
#include "core/problem.h"

namespace cca {

class EdgeFrontier {
 public:
  struct Candidate {
    int cust = -1;
    double dist = 0.0;
    bool valid = false;
  };

  EdgeFrontier(const Problem& problem, NnSource* source, Metrics* metrics)
      : source_(source), metrics_(metrics), candidates_(problem.providers.size()) {
    for (std::size_t q = 0; q < candidates_.size(); ++q) Advance(static_cast<int>(q));
  }

  const Candidate& at(int q) const { return candidates_[static_cast<std::size_t>(q)]; }

  // Fetches the next nearest neighbour of provider q.
  void Advance(int q) {
    Candidate& c = candidates_[static_cast<std::size_t>(q)];
    if (auto hit = source_->NextNN(q)) {
      c.cust = static_cast<int>(hit->oid);
      c.dist = hit->dist;
      c.valid = true;
      ++metrics_->nn_searches;
    } else {
      c.valid = false;
    }
  }

  // Permanently removes provider q's pending edge (used by the greedy
  // baseline once a provider's capacity is exhausted). Its stream is never
  // advanced again, which costs no backend anything.
  void Retire(int q) { candidates_[static_cast<std::size_t>(q)].valid = false; }

  // Minimum key over pending edges, key(q) = lift(q) + dist(q, candidate).
  // Returns {provider, key}; provider == -1 when all streams are
  // exhausted (key == +inf).
  template <typename LiftFn>
  std::pair<int, double> MinKey(LiftFn lift) const {
    int best = -1;
    double best_key = std::numeric_limits<double>::infinity();
    for (std::size_t q = 0; q < candidates_.size(); ++q) {
      const Candidate& c = candidates_[q];
      if (!c.valid) continue;
      const double key = lift(static_cast<int>(q)) + c.dist;
      if (key < best_key) {
        best_key = key;
        best = static_cast<int>(q);
      }
    }
    return {best, best_key};
  }

 private:
  NnSource* source_;
  Metrics* metrics_;
  std::vector<Candidate> candidates_;
};

}  // namespace cca

#endif  // CCA_CORE_FRONTIER_H_
