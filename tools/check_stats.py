#!/usr/bin/env python3
"""Validate an AssignmentEngine stats export (bench_engine_dispatch --stats-out).

The file is a JSON list of `AssignmentEngine::Stats::ToJson()` snapshots,
one per Resolve, engines one after another. Every snapshot must carry
schema version 1 and, within it:
  1. exactly version 1's key set (top level and `resolve_ms`);
  2. non-negative integer counters;
  3. warm_resolves <= resolves and degraded_resolves == deadline_breaches
     (every breach degrades);
  4. warm_adoption_ratio == warm_units_adopted / units_matched to within
     1e-6 (ToJson prints it with %.6f), or 0 when nothing matched;
  5. resolve_ms.count == resolves and p50 <= p99 <= max.
Across snapshots: a snapshot with resolves == 1 starts a new engine; within
one engine resolves rises by exactly 1 per snapshot and no cumulative
counter falls.

Options:
  --expect-layout-rebuilds N   every snapshot must report layout_rebuilds
                               == N (1 on every dispatch bench shape: the
                               kept layout survives the whole stream).

Exit codes: 0 valid, 1 validation failure, 2 usage/setup error.
"""

import argparse
import json
import sys

SCHEMA_VERSION = 1

COUNTERS = (
    "resolves",
    "warm_resolves",
    "customers_inserted",
    "customers_removed",
    "providers_inserted",
    "providers_removed",
    "units_matched",
    "warm_units_adopted",
    "deadline_breaches",
    "degraded_resolves",
    "unassigned_units",
    "layout_rebuilds",
    "dijkstra_pops",
    "dijkstra_relaxes",
    "augmentations",
    "faults",
)
KEYS = {"schema_version", "warm_adoption_ratio", "resolve_ms", *COUNTERS}
LATENCY_KEYS = {"count", "mean", "p50", "p99", "max"}
RATIO_TOL = 1e-6


def fail(msg):
    print(f"check_stats: FAIL: {msg}", file=sys.stderr)
    return 1


def is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_snapshot(s):
    """Returns an error string for one snapshot, or None."""
    if not isinstance(s, dict):
        return "not a JSON object"
    if s.get("schema_version") != SCHEMA_VERSION:
        return f"schema_version {s.get('schema_version')!r}, expected {SCHEMA_VERSION}"
    if set(s) != KEYS:
        return f"key set differs: missing {sorted(KEYS - set(s))}, extra {sorted(set(s) - KEYS)}"
    lat = s["resolve_ms"]
    if not isinstance(lat, dict) or set(lat) != LATENCY_KEYS:
        return f"resolve_ms keys {sorted(lat) if isinstance(lat, dict) else lat!r}"
    for key in COUNTERS:
        if not is_count(s[key]):
            return f"{key} = {s[key]!r} is not a non-negative integer"
    if not is_count(lat["count"]):
        return f"resolve_ms.count = {lat['count']!r} is not a non-negative integer"
    if s["warm_resolves"] > s["resolves"]:
        return f"warm_resolves {s['warm_resolves']} > resolves {s['resolves']}"
    if s["degraded_resolves"] != s["deadline_breaches"]:
        return (f"degraded_resolves {s['degraded_resolves']} != "
                f"deadline_breaches {s['deadline_breaches']}")
    matched = s["units_matched"]
    ratio = s["warm_units_adopted"] / matched if matched > 0 else 0.0
    if abs(s["warm_adoption_ratio"] - ratio) > RATIO_TOL:
        return f"warm_adoption_ratio {s['warm_adoption_ratio']} != {ratio:.6f}"
    if lat["count"] != s["resolves"]:
        return f"resolve_ms.count {lat['count']} != resolves {s['resolves']}"
    if not lat["p50"] <= lat["p99"] <= lat["max"]:
        return f"resolve_ms p50 {lat['p50']} <= p99 {lat['p99']} <= max {lat['max']} fails"
    return None


def validate(snapshots, expect_layout_rebuilds):
    if not isinstance(snapshots, list) or not snapshots:
        return fail("expected a non-empty JSON list of snapshots")
    prev = None
    for i, s in enumerate(snapshots):
        error = check_snapshot(s)
        if error:
            return fail(f"snapshot {i}: {error}")
        if expect_layout_rebuilds is not None and s["layout_rebuilds"] != expect_layout_rebuilds:
            return fail(f"snapshot {i}: layout_rebuilds {s['layout_rebuilds']}, "
                        f"expected {expect_layout_rebuilds}")
        if s["resolves"] == 1:
            prev = None  # a new engine
        elif prev is None:
            return fail(f"snapshot {i}: resolves {s['resolves']} does not start an engine at 1")
        else:
            if s["resolves"] != prev["resolves"] + 1:
                return fail(f"snapshot {i}: resolves {prev['resolves']} -> {s['resolves']}, "
                            "expected +1")
            for key in COUNTERS:
                if s[key] < prev[key]:
                    return fail(f"snapshot {i}: cumulative {key} fell {prev[key]} -> {s[key]}")
        prev = s
    if snapshots[-1]["resolves"] <= 0:
        return fail("last snapshot reports no resolves")
    engines = sum(1 for s in snapshots if s["resolves"] == 1)
    print(f"check_stats: OK: {len(snapshots)} snapshots over {engines} engine(s)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("stats", help="JSON file written by --stats-out")
    parser.add_argument("--expect-layout-rebuilds", type=int, default=None,
                        help="require layout_rebuilds == N in every snapshot")
    args = parser.parse_args()
    try:
        with open(args.stats) as f:
            snapshots = json.load(f)
    except (OSError, ValueError) as e:
        print(f"check_stats: cannot read {args.stats}: {e}", file=sys.stderr)
        return 2
    return validate(snapshots, args.expect_layout_rebuilds)


if __name__ == "__main__":
    sys.exit(main())
