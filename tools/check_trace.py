#!/usr/bin/env python3
"""Validate a Chrome trace JSON emitted by the span tracer (common/trace.h).

Checks, in order:
  1. the file parses as JSON with a `traceEvents` list of complete ("X")
     events carrying name/pid/tid/ts/dur;
  2. per thread, spans are properly nested: sorted by start time, every
     span either starts after the previous one ended or closes before it
     does (overlap without containment = a broken RAII pairing);
  3. nothing was dropped (droppedEvents == 0);
  4. optionally (--expect-nesting, on in --bench mode) the serving
     hierarchy is present: at least one engine.resolve span that
     time-contains a sspa.dijkstra span and a sspa.adopt_flow span on the
     same thread (a warm Resolve).

Modes:
  check_trace.py TRACE.json
      validate an existing trace file.
  check_trace.py --bench PATH/TO/bench_engine_dispatch [--work-dir DIR]
      run the dispatch bench with --trace-out (smallest shape that still
      resolves: --max-np 2000) and validate what it wrote. This is the
      ctest entry point registered when CCA_ENABLE_TRACING is ON.

Exit codes: 0 valid, 1 validation failure, 2 usage/setup error.
"""

import argparse
import json
import os
import subprocess
import sys

REQUIRED_FIELDS = ("name", "ph", "pid", "tid", "ts", "dur")

# ts/dur are microseconds rounded to 3 decimals (ns resolution); allow half
# an ulp of that rounding when comparing edges.
EPS_US = 0.0015


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    return 1


def validate(path, expect_nesting):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(f"{path}: not readable as JSON: {e}")

    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return fail(f"{path}: missing traceEvents list")
    events = doc["traceEvents"]
    if not events:
        return fail(f"{path}: traceEvents is empty (tracing never started?)")
    if doc.get("droppedEvents", 0) != 0:
        return fail(f"{path}: droppedEvents = {doc['droppedEvents']}")

    by_tid = {}
    for i, e in enumerate(events):
        for field in REQUIRED_FIELDS:
            if field not in e:
                return fail(f"event {i}: missing field '{field}': {e}")
        if e["ph"] != "X":
            return fail(f"event {i}: expected complete event ph='X', got {e['ph']!r}")
        if not isinstance(e["tid"], int) or e["tid"] < 0:
            return fail(f"event {i}: tid must be a non-negative int, got {e['tid']!r}")
        if e["dur"] < 0 or e["ts"] < 0:
            return fail(f"event {i}: negative ts/dur: {e}")
        by_tid.setdefault(e["tid"], []).append(e)

    # Balanced nesting per thread: walking spans in start order with a
    # stack of open intervals, every span must fit inside the innermost
    # still-open span (or start after it closed). RAII spans on one thread
    # can never partially overlap.
    for tid, tid_events in sorted(by_tid.items()):
        tid_events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # end timestamps of open spans, innermost last
        for e in tid_events:
            start, end = e["ts"], e["ts"] + e["dur"]
            while stack and stack[-1] <= start + EPS_US:
                stack.pop()
            if stack and end > stack[-1] + EPS_US:
                return fail(
                    f"tid {tid}: span '{e['name']}' [{start}, {end}] overlaps the "
                    f"enclosing span's end {stack[-1]} without nesting"
                )
            stack.append(end)

    if expect_nesting:
        def contains(parent, child):
            return (
                parent["tid"] == child["tid"]
                and child["ts"] >= parent["ts"] - EPS_US
                and child["ts"] + child["dur"] <= parent["ts"] + parent["dur"] + EPS_US
            )

        resolves = [e for e in events if e["name"] == "engine.resolve"]
        if not resolves:
            return fail("no engine.resolve spans in trace")
        dijkstras = [e for e in events if e["name"] == "sspa.dijkstra"]
        phases = [e for e in events if e["name"] == "sspa.adopt_flow"]
        if not any(
            any(contains(r, d) for d in dijkstras)
            and any(contains(r, p) for p in phases)
            for r in resolves
        ):
            return fail(
                "no engine.resolve span contains both a sspa.dijkstra and a "
                "sspa.adopt_flow span"
            )

    names = sorted({e["name"] for e in events})
    print(
        f"check_trace: OK: {len(events)} events, {len(by_tid)} thread(s), "
        f"span names: {', '.join(names)}"
    )
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("trace", nargs="?", help="existing trace JSON to validate")
    parser.add_argument("--bench", help="bench_engine_dispatch binary to run first")
    parser.add_argument("--work-dir", default="check_trace_tmp")
    parser.add_argument(
        "--expect-nesting",
        action="store_true",
        help="require the engine.resolve -> sspa.* hierarchy (implied by --bench)",
    )
    args = parser.parse_args()

    if bool(args.trace) == bool(args.bench):
        parser.error("pass exactly one of TRACE.json or --bench BINARY")

    if args.bench:
        os.makedirs(args.work_dir, exist_ok=True)
        trace_path = os.path.join(args.work_dir, "trace.json")
        cmd = [
            args.bench,
            # Smallest shape that still resolves (np=1500 < 2000); keeps the
            # ctest fast while producing a full warm/cold step stream.
            "--max-np", "2000",
            "--out", os.path.join(args.work_dir, "bench.json"),
            "--stats-out", os.path.join(args.work_dir, "stats.json"),
            "--trace-out", trace_path,
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout.decode(errors="replace"))
            return fail(f"bench exited {proc.returncode}")
        return validate(trace_path, expect_nesting=True)

    return validate(args.trace, expect_nesting=args.expect_nesting)


if __name__ == "__main__":
    sys.exit(main())
