// SSPA: the Successive Shortest Path Algorithm on the complete bipartite
// CCA flow graph (paper Algorithm 1, Section 2.2).
//
// This is the main-memory baseline the incremental algorithms are compared
// against (paper Figure 8). The implementation keeps node potentials with
// the fixed-source convention (DESIGN.md Section 3.1) and relaxes the
// conceptual |Q| x |P| edge set on the fly instead of materialising it; the
// `conceptual_edges` metric reports the full graph size that a literal
// implementation would allocate.
//
// One production relax path plus one reference:
//   * hierarchical ring relax (default): provider pops pull customers from
//     a two-level HierarchicalGrid (geo/hier_grid.h) in expanding coarse
//     rings and stop as soon as the ring lower bound on reduced cost can no
//     longer improve the tentative sink label. Coarse cells whose
//     aggregated tau floor rules them out are rejected in O(1), surviving
//     fine cells run through the fused DistanceBlockSelect kernel, so the
//     matchings stay cost-identical to the reference while the relax count
//     drops by orders of magnitude (src/flow/README.md has the invariant);
//   * reference (use_grid = false): the index-free scan of every customer
//     on every provider pop, with only the per-candidate upper-bound prune.
//     It exists as the test oracle (`--dense` in cca_cli).
#ifndef CCA_FLOW_SSPA_H_
#define CCA_FLOW_SSPA_H_

#include <cstdint>
#include <vector>

#include "common/metrics.h"
#include "core/matching.h"
#include "core/problem.h"

namespace cca {

class HierarchicalGrid;

// Node potentials (duals) of one SSPA solve, indexed like the problem's
// provider/customer arrays. Exported by every solve and accepted back as a
// warm start for the next one: successive shortest paths from zero flow
// are exact for *any* duals satisfying the feasibility condition
//
//   tau >= 0  and  dist(q, p) - tau_q[q] + tau_p[p] >= 0 for every pair,
//
// because the zero flow is trivially min-cost for its value under any
// feasible duals. End-of-solve duals violate the pair condition on matched
// edges (only their reverse direction was constrained), so a warm-started
// solve opens with a feasibility-repair pass clamping each tau_q down to
// min_p(dist + tau_p) where needed — see src/runtime/README.md for the
// full soundness argument.
struct SspaPotentials {
  std::vector<double> tau_q;
  std::vector<double> tau_p;
};

struct SspaConfig {
  // Hierarchical ring relax. Off = the reference scan of every customer on
  // every provider pop (index-free; it still applies the per-candidate
  // run_ub prune, so candidates that cannot beat the certified upper bound
  // are never relaxed). Matchings, augmentation counts and (up to boundary
  // ties) pop counts agree between the two.
  bool use_grid = true;
  // Prebuilt hierarchical grid for the relax scans, owned by the caller
  // (the runtime's SharedIndex shares one across concurrent queries, the
  // AssignmentEngine one across Resolves). Any HierarchicalGrid over
  // exactly problem.customers is valid: its shape (Options) moves the
  // relax counters, never the matching. Null means each solve builds a
  // private grid with default Options. Only the geometry is shared — the
  // tau floors and the ring cursor stay private to the solve. Ignored by
  // the reference scan.
  const HierarchicalGrid* shared_hier_grid = nullptr;
  // Infeasible-instance graceful degradation. When total demand exceeds
  // total capacity, gamma = total capacity and a plain solve returns the
  // min-cost *partial* matching of that size with no record of who was
  // left out — and, worse for the serving engine, the capacity-limited
  // regime disables flow adoption, so every churn step pays a full
  // re-solve. With allow_overflow the solver adds one internal *virtual*
  // provider whose capacity is exactly the overflow (total weight - total
  // capacity) and whose edge to every customer costs a flat
  // overflow_penalty: the effective gamma becomes the total weight, the
  // ample-capacity regime (and warm flow adoption) applies on both sides
  // of the feasibility boundary, and the units routed to the virtual
  // provider come back in SspaResult::unassigned instead of silently
  // vanishing. Because the virtual capacity equals the overflow exactly,
  // every feasible flow saturates the real providers, so the real
  // sub-matching is the min-cost maximum matching regardless of the
  // penalty's magnitude (the penalty contributes the constant
  // overflow * penalty, which is excluded from the reported cost along
  // with the virtual pairs). Feasible instances are bit-identical with
  // the flag on or off — the virtual provider only materialises when
  // overflow > 0. Default off so committed batch-bench trajectories are
  // untouched; AssignmentEngine turns it on.
  bool allow_overflow = false;
  // Cost of the virtual provider's edge to every customer. <= 0 derives
  // the documented default: 2x the instance's bounding-box diagonal + 1,
  // strictly above any real distance so the virtual provider never
  // undercuts real capacity in any Dijkstra run's path ordering.
  double overflow_penalty = 0.0;
  // Cooperative deadline for the whole solve, in wall milliseconds;
  // <= 0 disables. Checked once per augmentation (Dijkstra-run
  // granularity — one run is the smallest unit that leaves the duals and
  // partial flow consistent). On breach the solver stops cleanly:
  // SspaResult::deadline_exceeded is set, the matching holds the
  // (capacity-respecting, possibly partial) flow augmented so far, and
  // the unassigned ledger accounts for every unit not served by a real
  // provider. Callers own the degradation policy (AssignmentEngine falls
  // back to its last-known-good matching, src/runtime/README.md).
  double deadline_ms = 0.0;
  // Warm start (src/runtime/engine.h AssignmentEngine): duals to seed the
  // solve with, typically a previous solve's SspaResult::potentials after
  // the point sets were perturbed. Sizes must match the problem's provider
  // and customer counts; negative entries are clamped to zero. The solver
  // runs a feasibility-repair pass before the first Dijkstra (repaired
  // providers are counted in Metrics::dual_repairs), so any dual vector of
  // the right shape is safe — quality only affects speed, never the
  // matching cost. Null = cold start from zero duals.
  const SspaPotentials* initial_potentials = nullptr;
  // Flow-carrying warm start: the previous solve's matching, re-expressed
  // in *this* problem's indices (pairs whose endpoints were removed must be
  // dropped by the caller; out-of-range or over-capacity pairs are ignored
  // defensively). Surviving pairs are adopted as initial flow
  // (Metrics::warm_units_adopted) and the duals are repaired around them in
  // five single-pass steps (AdoptFlow in sspa.cc): adopt; tighten each
  // adopted customer's tau_p until its serving arc is tight; clamp each
  // tau_q forward-feasible; release any adopted pair a clamp left with
  // positive reduced cost; and release every *contested* pair — one whose
  // customer has a strictly closer non-serving provider — because churn
  // (freed capacity at a full provider, or a provider arrival) can turn
  // exactly those into negative residual cycles that successive shortest
  // paths would never cancel. Only the remaining gamma deficit is then
  // re-augmented, which is what makes a small-perturbation re-solve cheap
  // (duals alone cannot: successive shortest paths from zero flow redo all
  // gamma augmentations whatever the seeds). Adoption applies in the
  // ample-capacity regime (gamma == total weight); capacity-limited solves
  // fall back to duals-only warm start, exact but not faster —
  // src/runtime/README.md has the full argument. Ignored unless
  // initial_potentials is set.
  const Matching* initial_matching = nullptr;
};

// One customer's unserved demand in SspaResult::unassigned.
struct UnassignedUnit {
  std::int32_t customer = -1;
  std::int64_t units = 0;
};

struct SspaResult {
  Matching matching;
  Metrics metrics;
  // Final duals, feasible for this solve's flow; feed them back through
  // SspaConfig::initial_potentials to warm-start a follow-up solve.
  SspaPotentials potentials;
  std::uint64_t conceptual_edges = 0;  // |Q| * |P|
  // Units not served by any real provider, sorted by customer index: the
  // matching's exact per-customer complement. Populated whenever demand
  // goes unserved — overflow routed to the virtual provider (allow_overflow
  // on an infeasible instance), a plain capacity-limited partial solve, or
  // demand cut off by a deadline breach. Empty exactly when the matching
  // serves every customer in full.
  std::vector<UnassignedUnit> unassigned;
  std::int64_t unassigned_units = 0;
  // The cooperative deadline (SspaConfig::deadline_ms) fired before all
  // augmentations completed; matching/unassigned describe the partial
  // flow at the breach.
  bool deadline_exceeded = false;
};

// Computes the optimal CCA matching with SSPA. Supports weighted customers
// (used by approximate concise matching tests).
SspaResult SolveSspa(const Problem& problem, const SspaConfig& config);
SspaResult SolveSspa(const Problem& problem);

}  // namespace cca

#endif  // CCA_FLOW_SSPA_H_
