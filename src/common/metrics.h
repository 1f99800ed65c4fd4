// Execution metrics collected by every CCA solver and substrate component.
//
// The paper (Section 5.1) reports three quantities per experiment: the size
// of the explored subgraph |Esub|, CPU time, and I/O time charged
// analytically at 10 ms per page fault. `Metrics` aggregates those plus a
// number of internal counters that the tests and ablation benchmarks use.
#ifndef CCA_COMMON_METRICS_H_
#define CCA_COMMON_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace cca {

// Cost charged per physical page read, following the paper's methodology
// (Section 5.1, citing Silberschatz et al.).
inline constexpr double kIoMillisPerFault = 10.0;

// The single source of truth for Metrics' uint64 counters: every counter,
// in declaration order, with the label ToString prints it under. Merge,
// ToString and kMetricsCounterCount are all generated from this table
// (metrics.cc), so adding a counter means adding a struct field AND a row
// here — forget either and the layout static_assert in metrics.cc fires;
// the memcpy-view test in tests/test_metrics.cc then proves both Merge and
// ToString cover every slot.
#define CCA_METRICS_COUNTER_FIELDS(X)                       \
  X(edges_inserted, "Esub")                                 \
  X(dijkstra_runs, "dijkstra_runs")                         \
  X(dijkstra_resumes, "dijkstra_resumes")                   \
  X(dijkstra_pops, "dijkstra_pops")                         \
  X(dijkstra_relaxes, "dijkstra_relaxes")                   \
  X(augmentations, "augmentations")                         \
  X(invalid_paths, "invalid_paths")                         \
  X(fast_path_assigns, "fast_path_assigns")                 \
  X(grid_rings_scanned, "grid_rings_scanned")               \
  X(relaxes_pruned, "relaxes_pruned")                       \
  X(distances_computed, "distances_computed")               \
  X(cells_pruned, "cells_pruned")                           \
  X(coarse_tails_pruned, "coarse_tails_pruned")             \
  X(coarse_cells_descended, "coarse_cells_descended")       \
  X(hier_splits, "hier_splits")                             \
  X(walk_cells_built, "walk_cells_built")                   \
  X(dual_repairs, "dual_repairs")                           \
  X(warm_units_adopted, "warm_units_adopted")               \
  X(source_cycles_cancelled, "source_cycles_cancelled")     \
  X(nn_searches, "nn_searches")                             \
  X(range_searches, "range_searches")                       \
  X(node_accesses, "node_accesses")                         \
  X(grid_cursor_cells, "grid_cursor_cells")                 \
  X(shared_frontier_cell_fetches, "shared_frontier_fetches") \
  X(shared_frontier_fanout, "shared_frontier_fanout")       \
  X(index_node_accesses, "index_node_accesses")             \
  X(page_faults, "faults")

// Counter bundle for one solver execution.
//
// All counters start at zero; solvers reset the bundle they are handed at
// the beginning of a run. The struct is deliberately plain data so tests
// can compare snapshots.
struct Metrics {
  // --- flow-graph side -----------------------------------------------------
  std::uint64_t edges_inserted = 0;    // |Esub|: edges added to the subgraph
  std::uint64_t dijkstra_runs = 0;     // full Dijkstra executions
  std::uint64_t dijkstra_resumes = 0;  // PUA-assisted resumed executions
  std::uint64_t dijkstra_pops = 0;     // nodes de-heaped across all runs
  std::uint64_t dijkstra_relaxes = 0;  // edge relaxations across all runs
  // Accepted (valid) shortest paths; on a warm SSPA solve this also counts
  // each negative source cycle cancelled (source_cycles_cancelled).
  std::uint64_t augmentations = 0;
  std::uint64_t invalid_paths = 0;     // Theorem-1 rejections
  std::uint64_t fast_path_assigns = 0; // Theorem-2 direct assignments
  std::uint64_t grid_rings_scanned = 0;  // grid rings visited by pruned SSPA
  std::uint64_t relaxes_pruned = 0;    // relaxations skipped by ring/cell/upper bounds
  // Exact (sqrt) distances materialised by the SSPA relax kernels: every
  // lane of a DistanceBlock call plus the surviving lanes of a
  // DistanceBlockSelect call (rejected lanes stop at the squared compare
  // and are counted in relaxes_pruned instead), plus those a warm solve's
  // dual clamp and deficit-run seeding compute. This is the quadratic term
  // the cell-level pruning exists to kill; CI gates it via bench_diff.py.
  std::uint64_t distances_computed = 0;
  // Fine cells skipped by their own reduced-cost bound (mindist + fine tau
  // floor) during the hierarchical ring relax, the cell-granular
  // counterpart of relaxes_pruned.
  std::uint64_t cells_pruned = 0;
  // Hierarchical grid (geo/hier_grid.h): coarse cells whose aggregated
  // bound (mindist + coarse tau floor) failed the reduced-cost test, so
  // their entire fine-cell tail exited in O(1)...
  std::uint64_t coarse_tails_pruned = 0;
  // ...and coarse cells whose bound survived, paying a descend into their
  // fine children. descended / (descended + tails_pruned) is the fraction
  // of the coarse lattice the scan actually opens.
  std::uint64_t coarse_cells_descended = 0;
  // Coarse cells the hierarchical build split into finer children (one
  // count per solve-owned or shared grid consulted; a pure build-shape
  // diagnostic for the per-region adaptation).
  std::uint64_t hier_splits = 0;
  // Coarse entries plus fine children the SSPA ring walks materialised
  // (HierRingWalk, geo/grid_cursor.h): everything a solve's own walks
  // built, or what a solve added to walks its caller keeps across solves
  // (AssignmentEngine). A steady warm Resolve over kept walks builds
  // almost none.
  std::uint64_t walk_cells_built = 0;
  // Warm-started solves only (flow/sspa.h SspaWarmStart): provider duals
  // AdoptFlow's clamp pass had to lower before the first Dijkstra run.
  // Zero on cold solves; on a warm solve it counts how much of the previous
  // dual solution drifted infeasible around the adopted flow, plus one per
  // arriving provider whose +infinity entry the clamp derived.
  std::uint64_t dual_repairs = 0;
  // Warm-started solves only: units of the previous matching re-adopted as
  // initial flow because their arc stayed tight under the repaired seed
  // duals (AdoptFlow in src/flow/sspa.cc). adopted close to gamma is the
  // small-perturbation fast path: only gamma - adopted units are
  // re-augmented. Cycle cancellation may later re-route adopted units; they
  // still count as adopted.
  std::uint64_t warm_units_adopted = 0;
  // Warm-started solves only: negative residual cycles through the source
  // cancelled, whether a deficit run met the cycle's closing provider
  // before the sink or the certificate pass after the deficit loop found
  // it (CancelSourceCycles in src/flow/sspa.cc). Each one is also an
  // augmentation. Deterministic, like every counter here.
  std::uint64_t source_cycles_cancelled = 0;

  // --- spatial side --------------------------------------------------------
  std::uint64_t nn_searches = 0;     // incremental NN advances served
  std::uint64_t range_searches = 0;  // (annular) range searches issued
  std::uint64_t node_accesses = 0;   // logical R-tree node touches
  std::uint64_t grid_cursor_cells = 0;  // grid cells fetched by ring cursors
  // Batched grid discovery (kGridBatched, core/nn_source.h): cells first
  // read by any member of a Hilbert group (the group's fetch ledger), and
  // cell -> member deliveries, i.e. the cells each member's own walk read
  // (equal to a kGrid run's grid_cursor_cells). fanout / cell_fetches is
  // the achieved sharing factor; fetches are also charged into
  // grid_cursor_cells so batched and per-cursor runs compare on one ledger.
  std::uint64_t shared_frontier_cell_fetches = 0;
  std::uint64_t shared_frontier_fanout = 0;
  // Backend-neutral index work: R-tree node touches plus grid cells
  // fetched, so rtree- and grid-backed runs compare apples-to-apples.
  std::uint64_t index_node_accesses = 0;
  std::uint64_t page_faults = 0;     // physical page reads (buffer misses)

  // --- outcome ---------------------------------------------------------—--
  // Measured wall time of the compute phase (SSPA: from SolveSspa entry,
  // a private index build and a seeded solve's concise levels included).
  double cpu_millis = 0.0;
  // SSPA phase clocks, each read once per phase (never per relax) and
  // summed by Merge. They are wall time, not counters, so they stay out of
  // CCA_METRICS_COUNTER_FIELDS: same-seed runs must keep identical
  // counters. cpu_millis minus their sum is the index and ring-walk set-up.
  // Seeded cold solve: the concise levels, their solves and the seeds
  // (src/flow/README.md, "Seeded cold solves"); 0 on every other solve.
  double seed_millis = 0.0;
  double adopt_millis = 0.0;    // warm start: AdoptFlow's four passes
  double augment_millis = 0.0;  // the deficit loop and, warm, its seed heap build
  // Warm start: the certificate pass (CancelSourceCycles) only. Cycles a
  // deficit run cancels where it meets them are timed in augment_millis.
  double cancel_millis = 0.0;
  double extract_millis = 0.0;  // matching, unassigned ledger and dual export

  // Analytic I/O time in milliseconds (page_faults * 10 ms).
  double io_millis() const { return static_cast<double>(page_faults) * kIoMillisPerFault; }
  // Total simulated response time.
  double total_millis() const { return cpu_millis + io_millis(); }

  void Reset() { *this = Metrics{}; }

  // Merges counters from another bundle. Two callers rely on it: drivers
  // that run phases with separate bundles (approximate partition + concise
  // + refine), and the concurrent QueryRunner (src/runtime/), which hands
  // every query its own bundle and merges after the batch joins — counters
  // stay exact under concurrency because no bundle is ever shared between
  // threads.
  void Merge(const Metrics& other);
  // Merges the counters only, not cpu_millis or the phase clocks: how a
  // seeded SSPA solve charges its concise levels' work, whose time is
  // already inside its own seed_millis.
  void MergeCounters(const Metrics& other);

  // Human-readable one-line summary, used by examples and benches:
  // `label=value` for every non-zero counter in the field table, then
  // cpu/io and every non-zero phase clock. Generated from
  // CCA_METRICS_COUNTER_FIELDS, so it can never silently omit a counter
  // the way the old hand-written list could.
  std::string ToString() const;
};

// Number of uint64 counters in Metrics, in declaration order (everything
// before cpu_millis and the phase clocks), derived from the field table.
// The static_assert in metrics.cc pins the struct layout to it, so a
// counter added to the struct but not the table (or vice versa) fails to
// compile; Merge and ToString are generated from the same table, and the
// memcpy-view tests in tests/test_metrics.cc cover both.
#define CCA_METRICS_COUNT_ONE(field, label) +1
inline constexpr std::size_t kMetricsCounterCount =
    0 CCA_METRICS_COUNTER_FIELDS(CCA_METRICS_COUNT_ONE);
#undef CCA_METRICS_COUNT_ONE

}  // namespace cca

#endif  // CCA_COMMON_METRICS_H_
