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
//     longer improve the tentative sink label. The ring enumeration is
//     memoized per provider (a HierRingWalk replayed on every pop: static
//     geometry cached, floors and bounds read live, so the counters are
//     those of a fresh enumeration), for the whole solve or, when the
//     caller lends its walks (SspaSharedIndex), across solves over one
//     grid layout; a warm start's dual clamp replays the same walks.
//     Coarse cells whose aggregated tau floor rules them out are rejected
//     in O(1), surviving fine cells run through the fused
//     DistanceBlockSelect kernel, so the matchings stay cost-identical to
//     the reference while the relax count drops by orders of magnitude
//     (src/flow/README.md has the invariant);
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
class HierRingWalk;

// Node potentials (duals) of one SSPA solve, indexed like the problem's
// provider/customer arrays. Exported by every solve and accepted back, with
// a matching, as a warm start for the next one (SspaWarmStart).
struct SspaPotentials {
  std::vector<double> tau_q;
  std::vector<double> tau_p;
};

// The one warm-start shape: a previous solve's duals plus its matching,
// both re-expressed in *this* problem's indices (pairs whose endpoints were
// removed must be dropped by the caller; out-of-range or over-capacity
// pairs are ignored defensively). Potential sizes must match the problem's
// provider and customer counts; negative entries are clamped to zero. Any
// potentials of the right shape are safe — seed quality only affects
// speed, never the matching cost; zero duals with an empty matching are
// the trivial warm start.
//
// A +infinity provider entry means "no dual yet, derive it" (such a
// provider carries no pairs): the clamp pass below sets it to the largest
// feasible value, min_p(dist + tau_p) over the tightened customer duals
// (one Metrics::dual_repairs). This is how AssignmentEngine seeds a
// provider arrival. With no customers there is nothing to derive it
// against, and it is exported as +infinity. Customer entries must be
// finite (asserted in Debug builds).
//
// A warm solve always runs in the ample-capacity regime: when total weight
// exceeds total capacity the solver adds one internal *virtual* provider
// whose capacity is exactly the overflow (total weight - total capacity)
// and whose edge to every customer costs a flat penalty (2x the instance's
// bounding-box diagonal + 1, strictly above any real distance). Because the
// virtual capacity equals the overflow exactly, every feasible flow
// saturates the real providers, so the real sub-matching is the min-cost
// maximum matching whatever the penalty; the virtual pairs surface in
// SspaResult::unassigned and never in the matching or its cost. Cold solves
// never add the slot (a plain capacity-limited solve reaches the same cost
// and ledger), so batch trajectories are untouched.
//
// Surviving pairs are adopted as initial flow (Metrics::warm_units_adopted)
// and the duals are repaired around them in four single-pass steps
// (AdoptFlow in sspa.cc): adopt; tighten each adopted customer's tau_p
// until its serving arc is tight; clamp each tau_q forward-feasible
// (Metrics::dual_repairs); and release any adopted pair a clamp left with
// positive reduced cost. The solver then re-augments only the deficit and
// cancels the negative residual cycles through the source that churn can
// open (a slot freed at a full provider, or a provider arrival), one
// Dijkstra run per cycle: a deficit run that pops a cycle's closing
// provider before the sink cancels that cycle there, and a certificate
// pass after the deficit loop cancels any left over — usually none, which
// it proves in O(|Q|) without a run (Metrics::source_cycles_cancelled
// counts both kinds). Every deficit run starts with a certified sink
// bound: it first relaxes the cheapest direct path from a spare real
// provider to a deficit customer, taken from a lazy min-heap built once
// per warm solve (src/flow/README.md). Both steps cost work in proportion
// to the churn, which is what makes a small-perturbation re-solve cheap —
// src/runtime/README.md has the full argument.
//
// The same warm path finishes every seeded cold solve (SspaConfig::warm
// below): the solver builds the warm start itself from concise levels of
// its grid, and the adopt/clamp/certificate steps above are what keep the
// result exact whatever the seed.
struct SspaWarmStart {
  SspaPotentials potentials;
  Matching matching;
};

// A customer index a caller lends to SolveSspa: the grid, and optionally
// the per-provider ring walks over its layout. Only geometry is shared —
// the tau floors stay private to the solve.
struct SspaSharedIndex {
  // Any HierarchicalGrid over exactly problem.customers: its shape
  // (Options, or a layout kept from an earlier population) moves the relax
  // counters, never the matching. Null = the solve builds a private one.
  const HierarchicalGrid* grid = nullptr;
  // One HierRingWalk per provider, aligned with problem.providers, each
  // built over `grid`'s layout (asserted in Debug builds when the solve
  // binds them to `grid`). The solve replays and grows them, and the
  // caller may lend them again to a later solve over any grid re-bucketed
  // into the same layout. Null = the solve builds the same walks over
  // `grid`'s layout itself and frees them when it returns. Either way the
  // counters and the matching are the same. Requires `grid`.
  std::vector<HierRingWalk>* walks = nullptr;
};

struct SspaConfig {
  // Hierarchical ring relax. Off = the reference scan of every customer on
  // every provider pop (index-free; it still applies the per-candidate
  // run_ub prune, so candidates that cannot beat the certified upper bound
  // are never relaxed) and is never seeded (see `warm`). Matching costs
  // agree between the two; on unseeded shapes so do augmentation counts
  // and, up to boundary ties, pop counts.
  bool use_grid = true;
  // Prebuilt relax index, owned by the caller (the runtime's SharedIndex
  // shares one grid across concurrent queries, the AssignmentEngine a grid
  // and its walks across Resolves). Empty means each solve builds its own
  // grid with default Options and its own walks. Ignored by the reference
  // scan.
  SspaSharedIndex shared_index;
  // Cooperative deadline for the whole solve, in wall milliseconds, timed
  // from SolveSspa entry (a private grid's construction and a seeded
  // solve's concise levels count, like Metrics::cpu_millis); <= 0
  // disables. Checked once per augmentation, in every level (Dijkstra-run
  // granularity — one run is the smallest unit that leaves the duals and
  // partial flow consistent). On breach the solver stops cleanly:
  // SspaResult::deadline_exceeded is set, the matching holds the
  // (capacity-respecting, possibly partial) flow augmented so far — none
  // when the breach fell inside a seed level — and the unassigned ledger
  // accounts for every unit not served by a real provider. Callers own the
  // degradation policy (AssignmentEngine falls back to its last-known-good
  // matching, src/runtime/README.md).
  double deadline_ms = 0.0;
  // Warm start (src/runtime/engine.h AssignmentEngine), owned by the
  // caller. Null = a cold start. A cold, grid-backed solve of unit
  // customers with ample capacity (TotalCapacity() >= TotalWeight()) and at
  // least two occupied coarse cells seeds itself: its first phase solves
  // its grid's coarse and fine cells, as weighted concise instances, coarse
  // to fine, and their duals become the solve's own warm start for this
  // same warm path (src/flow/README.md, "Seeded cold solves";
  // Metrics::seed_millis times the phase). Every other cold solve — the
  // reference scan, capacity-limited and weighted ones — starts from zero
  // duals and zero flow.
  const SspaWarmStart* warm = nullptr;
};

// One customer's unserved demand in SspaResult::unassigned.
struct UnassignedUnit {
  std::int32_t customer = -1;
  std::int64_t units = 0;
};

struct SspaResult {
  Matching matching;
  Metrics metrics;
  // Final duals. Unless the deadline fired, they witness the matching's
  // optimality, warm or cold: CertifyOptimal (flow/oracle.h) accepts them.
  // Feed them back through SspaConfig::warm (with the matching) to
  // warm-start a follow-up solve.
  SspaPotentials potentials;
  std::uint64_t conceptual_edges = 0;  // |Q| * |P|
  // Units not served by any real provider, sorted by customer index: the
  // matching's exact per-customer complement. Populated whenever demand
  // goes unserved — overflow routed to the virtual provider (a warm solve of
  // an infeasible instance), a plain capacity-limited partial solve, or
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
