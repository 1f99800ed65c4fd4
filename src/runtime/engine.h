// AssignmentEngine: a long-lived incremental serving engine over one
// mutable CCA instance (the ROADMAP's dispatch-style workload).
//
// The batch solvers treat every problem as static: build indexes, solve,
// throw everything away. A dispatch service (ride-hailing, delivery,
// clinic triage) instead sees customers and providers arrive and leave and
// must re-solve continuously. The engine keeps the problem state mutable
// behind stable caller-visible ids and makes each `Resolve` cheap in two
// ways:
//
//   * Warm-started duals *and flow*. Every solve exports its node
//     potentials (SspaResult::potentials) and the next solve is seeded
//     with them together with the previous matching remapped through the
//     churn (SspaConfig::warm): pairs that survived and stayed tight are
//     adopted as initial flow, so only the perturbed units are
//     re-augmented. Between solves the engine keeps the dual vectors
//     aligned with the point sets: removals drop the entry, an inserted
//     customer is seeded at the smallest value feasible against every
//     provider dual (max_q(tau_q - dist), clamped at 0), and an inserted
//     provider at +infinity, which tells the solver to derive its dual
//     (the largest feasible one, min_p(dist + tau_p), from the warm-start
//     clamp pass). The solver's own repair pass remains the safety net, so
//     seed quality affects only speed — never the matching
//     (src/runtime/README.md has the soundness argument).
//   * A kept solve layout and ring walks. The customer HierarchicalGrid
//     keeps the layout (coarse lattice plus split factors) of the first
//     solve: a Resolve that follows a customer insert/remove only
//     re-buckets the customers into it, and one kept HierRingWalk per
//     provider, listing every cell of the layout, lives as long as the
//     layout. Both are lent to the solver through
//     SspaConfig::shared_index. The grid is laid out again, and the walks
//     dropped, only when a customer arrives outside the layout's bounding
//     box; provider churn swap-removes or appends one walk
//     (src/runtime/README.md, "The kept solve index").
//
// Correctness anchor: every Resolve that is not degraded returns an
// optimal matching, and the duals it retains prove it (the LP-duality
// certificate, CertifyOptimal in flow/oracle.h). Debug builds check the
// certificate on every such Resolve and abort if it fails;
// the randomized churn suite (tests/test_engine_churn.cc) and
// bench_engine_dispatch check it in CI, the latter in Release.
//
// The engine is deliberately single-threaded: one mutable owner. For
// concurrent read-only query serving over an immutable snapshot, see
// QueryRunner (src/runtime/query_runner.h).
#ifndef CCA_RUNTIME_ENGINE_H_
#define CCA_RUNTIME_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/metrics.h"
#include "common/status.h"
#include "core/matching.h"
#include "core/problem.h"
#include "flow/sspa.h"
#include "geo/grid_cursor.h"
#include "geo/hier_grid.h"

namespace cca {

class AssignmentEngine {
 public:
  // Stable handle for an inserted customer/provider; never reused.
  using Id = std::int64_t;

  // Every Resolve after the first is seeded with the previous solve's duals
  // and flow over the kept layout and walks; a from-scratch SolveSspa of
  // problem() is the cold reference the churn suite and
  // bench_engine_dispatch compare against.
  struct Options {
    // Wall-clock budget for one Resolve, in milliseconds; <= 0 disables.
    // The budget covers the whole serving path (index rebuild + warm-start
    // assembly + solve): whatever remains after the pre-solve work is
    // handed to the solver as its cooperative deadline. On a breach the
    // engine never crashes or stalls — it degrades to the last-known-good
    // matching remapped through the churn plus a greedy nearest-residual
    // patch for unserved demand, reports it with ResolveOutcome::degraded
    // set (plus the exact unassigned ledger), and leaves the retained
    // duals and adoption flow untouched so the next Resolve warm-starts
    // from the last *optimal* solution, not the degraded stop-gap.
    double resolve_deadline_ms = 0.0;
  };

  AssignmentEngine() : AssignmentEngine(Options{}) {}
  explicit AssignmentEngine(const Options& options);

  // Population edits. Weight/capacity follow Problem's semantics (weight 1
  // = unit customer; the weights array stays empty until a non-unit weight
  // appears, keeping the solver on its unit fast path). Invalid input —
  // non-finite coordinates, weight < 1, capacity < 1 — is rejected with
  // kInvalidArgument and leaves the engine untouched (the Status contract
  // in src/core/README.md; these were Debug-only asserts before). Removals
  // return false for unknown ids.
  StatusOr<Id> InsertCustomer(const Point& pos, std::int32_t weight = 1);
  StatusOr<Id> InsertProvider(const Point& pos, std::int32_t capacity);
  bool RemoveCustomer(Id id);
  bool RemoveProvider(Id id);

  struct ResolveOutcome {
    double cost = 0.0;
    bool warm = false;  // previous duals seeded this solve
    // The resolve deadline fired: `matching` is the last-known-good
    // matching remapped through the churn plus a greedy patch — valid and
    // capacity-respecting, but not certified optimal. Never set when
    // resolve_deadline_ms is disabled.
    bool degraded = false;
    // Pairs index the engine's dense arrays as of this Resolve; map back
    // to stable handles via customer_id() / provider_id().
    Matching matching;
    // Demand no provider serves, by customer index (same space as the
    // matching): overflow on an infeasible snapshot (total demand > total
    // capacity) and/or demand a degraded resolve could not patch. Empty
    // exactly when every customer is served in full.
    std::vector<UnassignedUnit> unassigned;
    std::int64_t unassigned_units = 0;
    Metrics metrics;
  };
  // Solves the current snapshot (warm-started when a previous solution
  // exists) and retains duals + indexes for the next round.
  ResolveOutcome Resolve();

  // Cumulative runtime stats since construction: the serving engine's
  // observability surface. Everything is maintained inline (O(1) per edit,
  // one Metrics::Merge + one Histogram::Record per Resolve), so snapshots
  // are cheap enough to export per dispatch step. Latencies cover the
  // engine's own work (index rebuild + warm-start assembly + solve), not
  // the Debug builds' optimality certificate, which the Release serving
  // path never pays for.
  struct Stats {
    std::uint64_t resolves = 0;
    std::uint64_t warm_resolves = 0;  // seeded with previous duals + flow
    std::uint64_t customers_inserted = 0;
    std::uint64_t customers_removed = 0;
    std::uint64_t providers_inserted = 0;
    std::uint64_t providers_removed = 0;
    // Units assigned by the most recent Resolve and, for the warm-start
    // ratio, the cumulative totals across all resolves.
    std::uint64_t units_matched = 0;
    std::uint64_t warm_units_adopted = 0;
    // Failure-model ledger (src/runtime/README.md "Failure model"):
    // resolves whose deadline fired, resolves that served a degraded
    // matching (currently identical — every breach degrades), and the
    // cumulative units reported unassigned across all resolves (nonzero
    // only on infeasible snapshots or degraded resolves).
    std::uint64_t deadline_breaches = 0;
    std::uint64_t degraded_resolves = 0;
    std::uint64_t unassigned_units = 0;
    // Solve-index lifecycle: grid layouts built, the first Resolve's
    // included (a customer outside the layout's bounding box lays it out
    // again and drops the walks).
    std::uint64_t layout_rebuilds = 0;
    // Solver counters merged across every Resolve (same ledger the batch
    // benches gate on, so regressions surface on the serving path too).
    Metrics totals;
    // Per-Resolve latency in milliseconds (Histogram::Percentile for
    // p50/p99 without retaining samples).
    Histogram resolve_latency_ms;

    // Fraction of all matched units re-adopted from the previous solution
    // instead of re-augmented: the warm-start effectiveness signal
    // (1.0 - ratio is the churn the solver actually paid for).
    double warm_adoption_ratio() const {
      return units_matched > 0
                 ? static_cast<double>(warm_units_adopted) / static_cast<double>(units_matched)
                 : 0.0;
    }
    // One JSON object: "schema_version" first, then the counters, the
    // adoption ratio and the latency percentiles. Version 1's key set and
    // invariants are checked by tools/check_stats.py; a change to either
    // bumps the version there and here.
    static constexpr int kSchemaVersion = 1;
    std::string ToJson() const;
  };
  // Snapshot of the cumulative stats (copy: the engine keeps mutating).
  Stats stats() const { return stats_; }

  const Problem& problem() const { return problem_; }
  std::size_t num_customers() const { return problem_.customers.size(); }
  std::size_t num_providers() const { return problem_.providers.size(); }
  Id customer_id(std::size_t index) const { return customer_ids_[index]; }
  Id provider_id(std::size_t index) const { return provider_ids_[index]; }
  bool has_solution() const { return have_solution_; }
  // Duals retained from the last Resolve, aligned with problem()'s arrays
  // (entries for customers inserted since are their feasibility seeds;
  // providers inserted since read +infinity until the next Resolve derives
  // their duals).
  const SspaPotentials& potentials() const { return warm_.potentials; }

 private:
  double WarmCustomerDual(const Point& pos) const;
  void RebuildIndexesIfStale();
  void BuildDegradedOutcome(ResolveOutcome* out) const;

  Options options_;
  Problem problem_;
  std::vector<Id> customer_ids_;
  std::vector<Id> provider_ids_;
  std::unordered_map<Id, std::size_t> customer_index_;
  std::unordered_map<Id, std::size_t> provider_index_;
  Id next_id_ = 0;

  // Warm-start state handed to the solver. `potentials` holds the duals,
  // aligned with problem_'s arrays at all times (zero-seeded before the
  // first solve); `matching` is rebuilt from last_flow_ at each warm
  // Resolve.
  SspaWarmStart warm_;
  // Previous solve's flow keyed by stable ids, remapped to current indices
  // at the next warm Resolve (pairs with departed endpoints drop out).
  struct FlowRec {
    Id provider;
    Id customer;
    std::int32_t units;
  };
  std::vector<FlowRec> last_flow_;
  bool have_solution_ = false;

  // Shared solve index over the customers, re-bucketed (or laid out
  // again, see RebuildIndexesIfStale) only when the customer population
  // changed since it was built, and one kept ring walk per provider over
  // its layout: empty before the first Resolve, aligned with
  // problem_.providers after it.
  std::unique_ptr<HierarchicalGrid> solve_hier_;
  std::vector<HierRingWalk> walks_;
  bool customers_dirty_ = true;
  // A customer arrived outside the layout's bounding box.
  bool outside_layout_ = false;

  Stats stats_;
};

}  // namespace cca

#endif  // CCA_RUNTIME_ENGINE_H_
