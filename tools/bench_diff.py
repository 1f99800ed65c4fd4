#!/usr/bin/env python3
"""Diff a freshly produced BENCH_*.json against a committed baseline.

Usage: bench_diff.py NEW.json BASELINE.json [--relax-slack FRAC] [--cost-tol FRAC]

CI runs this over BENCH_sspa.json (bench_micro_flow) and the fig10/fig11
trajectories (bench_fig10_providers / bench_fig11_customers), each against
the baseline committed at the repo root.

Rows are matched on their identifying keys (n_q/n_p/k/mode for
bench_micro_flow output, setting/algo for the figure benches).
Baseline-only rows are allowed but listed (CI runs a size-capped subset of
the committed baseline); a row present only in the NEW file is a hard
error -- it means the run produced data nothing gates, typically a renamed
identifying key or a baseline that was never regenerated, which previously
let whole benches go silently unchecked. For every matched pair the check
fails when

  * the matching cost differs by more than --cost-tol relative (default
    1e-6: the solvers are exact, so any cost drift beyond float noise is a
    correctness bug -- loosen only for approximate-solver rows), or
  * a deterministic work counter (relaxes, pops, node accesses, cursor
    cells, shared-frontier fetches) regresses by more than --relax-slack
    (default 0.10, i.e. 10% growth) over the baseline. Counters are exact
    re-runs of deterministic code, so the slack only absorbs intentional
    small drifts; raise it in CI alongside a justifying comment when a PR
    deliberately trades one counter for another, or
  * a counter where more is better (warm_units_adopted) falls below the
    baseline by more than the same slack.

Independently of any baseline, a NEW row whose `certified` column is false
(bench_micro_flow and bench_engine_dispatch: CertifyOptimal rejected the
duals of one of the row's solves) fails the check: its cost is not proven
optimal, whatever it matches.

Timing fields (and the dispatch rows' `cycles`) are reported but never
gated: wall clock is machine-dependent, the work counters are not.
"""
import argparse
import json
import sys

ID_KEYS = ("n_q", "n_p", "k", "mode", "dist", "setting", "algo",
           # bench_engine_qps rows: mixed-workload batches per thread count.
           "workload", "queries", "threads")
COUNTER_KEYS = (
    "relaxes",
    "pops",
    "grid_rings_scanned",
    "grid_cursor_cells",
    "shared_frontier_cell_fetches",
    # Batched-grid deliveries: the cells each member's own walk read, equal
    # to the per-provider grid run's grid_cursor_cells. Gated so a return to
    # eager multiplexing (every fetched cell pushed into every member's
    # candidate heap) fails here.
    "shared_frontier_fanout",
    # Hierarchical-grid activity (geo/hier_grid.h): the coarse counters pin
    # how much work the two-level sweep does. coarse_tails_pruned growth
    # would be an improvement, but a pruned tail is also a descent avoided,
    # so both directions of drift are gated and a deliberate trade needs a
    # comment.
    "coarse_tails_pruned",
    "coarse_cells_descended",
    "hier_splits",
    # The quadratic term the cell-level pruning + fused early-reject kernel
    # exist to kill: exact (sqrt) distances materialised by the relax
    # kernels. Gated so a refactor cannot silently reintroduce it.
    # (cells_pruned and relaxes_pruned are reported but not gated: growth
    # there means *more* pruning, which is an improvement.)
    "distances_computed",
    # Ring-walk cells materialised (Metrics::walk_cells_built): a warm
    # engine keeps its walks across Resolves, so dispatch warm rows build
    # few; a return to per-solve walks fails here.
    "walk_cells_built",
    "esub",
    "node_accesses",
    "index_node_accesses",
    "nn_searches",
    # Augmentations per instance: fixed for a plain cold solve, where any
    # drift is a correctness bug; a seeded or warm SSPA solve re-augments
    # only what its seed left, so growth there is lost seeding (qps and
    # dispatch rows).
    "augmentations",
    # Failure-model counters (runtime/engine.h Stats). The dispatch bench
    # sets no deadline and generates feasible instances, so the committed
    # baseline pins all three at 0 — any nonzero value (a breach, a
    # degraded resolve, or silently unserved demand) fails the gate
    # outright since slack over a 0 baseline is still 0.
    "deadline_breaches",
    "degraded_resolves",
    "unassigned_units",
)
# Counters where more is better, gated from below with the same slack:
# units a warm solve re-adopted instead of re-augmenting (dispatch rows),
# so a warm-start regression cannot hide behind an unchanged cost.
FLOOR_KEYS = ("warm_units_adopted",)
# Timing / latency fields: carried through and reported per row so drift
# stays visible, but NEVER gated -- wall clock and percentile latencies are
# machine-dependent (both serving benches report exact nearest-rank
# values over each row's samples).
REPORT_KEYS = ("qps", "wall_ms", "p50_ms", "p99_ms", "p999_ms", "mean_ms",
               "bootstrap_ms",
               # SSPA phase clocks (common/metrics.h), dispatch rows.
               "seed_ms", "adopt_ms", "augment_ms", "cancel_ms", "extract_ms",
               # Negative source cycles the warm solves cancelled (dispatch
               # rows). Deterministic, but which cycles exist depends on
               # where the deficit runs meet them, so neither direction
               # is a regression.
               "cycles")


def row_id(row):
    return tuple((k, row[k]) for k in ID_KEYS if k in row)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new_json")
    parser.add_argument("baseline_json")
    parser.add_argument("--relax-slack", type=float, default=0.10,
                        help="allowed fractional counter growth over baseline")
    parser.add_argument("--cost-tol", type=float, default=1e-6,
                        help="allowed relative matching-cost drift")
    args = parser.parse_args()

    with open(args.new_json) as f:
        new_rows = {row_id(r): r for r in json.load(f)}
    with open(args.baseline_json) as f:
        base_rows = {row_id(r): r for r in json.load(f)}

    shared = sorted(set(new_rows) & set(base_rows))
    if not shared:
        print(f"bench_diff: no shared rows between {args.new_json} and "
              f"{args.baseline_json}", file=sys.stderr)
        return 1

    # A produced row the baseline cannot gate is a hard error, not a skip:
    # silently unmatched rows meant a renamed key or a stale baseline could
    # disable the gate for an entire bench without anyone noticing.
    new_only = sorted(set(new_rows) - set(base_rows))
    if new_only:
        print(f"bench_diff: {len(new_only)} row(s) in {args.new_json} have no "
              f"baseline match in {args.baseline_json}:", file=sys.stderr)
        for key in new_only:
            print("  " + " ".join(f"{k}={v}" for k, v in key), file=sys.stderr)
        print("bench_diff: regenerate the committed baseline (or fix the "
              "identifying keys) so every produced row is gated.",
              file=sys.stderr)
        return 1

    base_only = sorted(set(base_rows) - set(new_rows))
    if base_only:
        print(f"bench_diff: {len(base_only)} baseline-only row(s) not exercised "
              "by this run (size-capped subset):")
        for key in base_only:
            print("  " + " ".join(f"{k}={v}" for k, v in key))

    failures = []
    for key, new in sorted(new_rows.items()):
        if new.get("certified") is False:
            label = " ".join(f"{k}={v}" for k, v in key)
            failures.append(f"{label}: certified is false (a solve failed "
                            "its LP-duality certificate)")
    for key in shared:
        new, base = new_rows[key], base_rows[key]
        label = " ".join(f"{k}={v}" for k, v in key)
        reported = [
            f"{k} {base[k]:g} -> {new[k]:g}"
            for k in REPORT_KEYS
            if k in new and k in base
        ]
        if reported:
            print(f"  [reported, not gated] {label}: " + ", ".join(reported))
        if "cost" in new and "cost" in base:
            tol = args.cost_tol * max(1.0, abs(base["cost"]))
            if abs(new["cost"] - base["cost"]) > tol:
                failures.append(
                    f"{label}: cost {new['cost']} != baseline {base['cost']}")
        for counter in COUNTER_KEYS:
            if counter not in new or counter not in base:
                continue
            limit = base[counter] * (1.0 + args.relax_slack)
            if new[counter] > limit:
                failures.append(
                    f"{label}: {counter} {new[counter]} exceeds baseline "
                    f"{base[counter]} by more than {args.relax_slack:.0%}")
        for counter in FLOOR_KEYS:
            if counter not in new or counter not in base:
                continue
            floor = base[counter] * (1.0 - args.relax_slack)
            if new[counter] < floor:
                failures.append(
                    f"{label}: {counter} {new[counter]} falls below baseline "
                    f"{base[counter]} by more than {args.relax_slack:.0%}")

    print(f"bench_diff: compared {len(shared)} shared rows "
          f"({len(base_only)} baseline-only listed above)")
    if failures:
        print("bench_diff: REGRESSIONS FOUND", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("bench_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
