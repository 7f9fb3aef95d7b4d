#!/usr/bin/env python3
"""Schema check for the telemetry exporters (stdlib only).

Usage: check_trace.py TRACE_JSON METRICS_JSONL
           [--profile PROFILE_JSON]...
           [--profile-same A_JSON B_JSON]

Validates that
  - TRACE_JSON is valid JSON with a non-empty "traceEvents" array, every
    event carries the Chrome trace-event required fields (name, ph, pid,
    tid, ts except for metadata events), phases are limited to the set the
    recorder emits (X/i/b/e/M), async begin/end events pair up per id, and
    thread-name metadata covers every tid that emits events;
  - METRICS_JSONL is one JSON object per line, each with a metric "name",
    a "node" id and a "kind" in {counter, gauge, histogram}, sorted by
    (name, node) within each kind block the exporter writes, and its
    network counters conserve messages: the per-type rows sum to the
    per-sender rows (net.msgs.<TYPE> to net.msgs_sent, net.bytes.<TYPE> to
    net.bytes_sent), and the per-type rejections to net.msgs_rejected;
  - each --profile PROFILE_JSON (gpbft_cli profile --profile-out) is a
    {"profiler": {"sites": N, "tree": ...}} document whose tree nodes all
    carry name/calls/wall_ns/self_ns/children with self_ns <= wall_ns;
  - --profile-same A B: the two profile exports agree on every
    DETERMINISTIC field (tree shape, site names, call counts). Wall-clock
    fields (wall_ns / self_ns) are machine noise by design and are
    excluded — this is the double-run gate for profiling itself: same
    seed profiled twice must visit the identical call tree the identical
    number of times.

Exit status 0 on success; 1 with a diagnostic on the first violation.
"""

import argparse
import json
import sys

TRACE_PHASES = {"X", "i", "b", "e", "M"}
METRIC_KINDS = {"counter", "gauge", "histogram"}


def fail(message: str) -> None:
    print(f"check_trace: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(path: str) -> None:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"{path}: not valid JSON: {err}")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: missing or empty traceEvents array")
    named_tids = set()
    emitting_tids = set()
    open_async = {}
    for index, event in enumerate(events):
        for field in ("name", "ph", "pid", "tid"):
            if field not in event:
                fail(f"{path}: event {index} lacks required field {field!r}")
        phase = event["ph"]
        if phase not in TRACE_PHASES:
            fail(f"{path}: event {index} has unexpected phase {phase!r}")
        if phase == "M":
            if event["name"] == "thread_name":
                named_tids.add(event["tid"])
            continue
        if "ts" not in event:
            fail(f"{path}: event {index} ({event['name']}) lacks ts")
        emitting_tids.add(event["tid"])
        if phase in ("b", "e"):
            if "id" not in event:
                fail(f"{path}: async event {index} lacks id")
            key = (event["name"], event["id"])
            if phase == "b":
                open_async[key] = open_async.get(key, 0) + 1
            elif open_async.get(key, 0) > 0:
                open_async[key] -= 1
            else:
                fail(f"{path}: async end without begin for {key}")
    unnamed = emitting_tids - named_tids
    if unnamed:
        fail(f"{path}: tids without thread_name metadata: {sorted(unnamed)}")
    print(
        f"check_trace: {path}: {len(events)} events, "
        f"{len(emitting_tids)} timeline rows, "
        f"{sum(open_async.values())} unclosed async spans"
    )


def check_metrics(path: str) -> None:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                fail(f"{path}:{lineno}: not valid JSON: {err}")
            for field in ("name", "node", "kind"):
                if field not in row:
                    fail(f"{path}:{lineno}: lacks required field {field!r}")
            if row["kind"] not in METRIC_KINDS:
                fail(f"{path}:{lineno}: unexpected kind {row['kind']!r}")
            if row["kind"] == "histogram" and "count" not in row:
                fail(f"{path}:{lineno}: histogram lacks count")
            rows.append(row)
    if not rows:
        fail(f"{path}: no metric rows")
    # The exporter writes each kind as one block sorted by (name, node).
    for kind in METRIC_KINDS:
        block = [(r["name"], r["node"]) for r in rows if r["kind"] == kind]
        if block != sorted(block):
            fail(f"{path}: {kind} rows are not sorted by (name, node)")
    check_net_conservation(path, rows)
    print(f"check_trace: {path}: {len(rows)} metric rows")


# (per-type family prefix, the family it must sum to)
NET_CONSERVATION = (
    ("net.msgs.", "net.msgs_sent"),
    ("net.bytes.", "net.bytes_sent"),
    ("net.msgs_rejected.", "net.msgs_rejected"),
)


def check_net_conservation(path: str, rows: list) -> None:
    """Each send is one net.msgs.<TYPE> and one sender's net.msgs_sent, and
    each rejection one net.msgs_rejected.<TYPE> and one net.msgs_rejected,
    so the families' sums must agree."""
    counters = [r for r in rows if r["kind"] == "counter"]
    for prefix, family in NET_CONSERVATION:
        by_type = sum(r["value"] for r in counters if r["name"].startswith(prefix))
        total = sum(r["value"] for r in counters if r["name"] == family)
        if by_type != total:
            fail(f"{path}: {prefix}<TYPE> rows sum to {by_type}, {family} rows to {total}")


PROFILE_NODE_FIELDS = {"name": str, "calls": int, "wall_ns": int, "self_ns": int,
                       "children": list}


def load_profile(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as err:
            fail(f"{path}: not valid JSON: {err}")
    profiler = doc.get("profiler")
    if not isinstance(profiler, dict):
        fail(f"{path}: missing top-level 'profiler' object")
    if not isinstance(profiler.get("sites"), int) or profiler["sites"] < 0:
        fail(f"{path}: profiler.sites must be a non-negative integer")
    if "tree" not in profiler:
        fail(f"{path}: profiler lacks 'tree'")
    return doc


def check_profile(path: str) -> None:
    doc = load_profile(path)
    nodes = 0

    def walk(node, trail):
        nonlocal nodes
        nodes += 1
        if not isinstance(node, dict):
            fail(f"{path}: node at {trail} is not an object")
        for field, kind in PROFILE_NODE_FIELDS.items():
            if not isinstance(node.get(field), kind):
                fail(f"{path}: node at {trail} lacks {kind.__name__} field {field!r}")
        if node["self_ns"] > node["wall_ns"]:
            fail(f"{path}: node {node['name']!r} at {trail}: self_ns > wall_ns")
        if min(node["calls"], node["wall_ns"], node["self_ns"]) < 0:
            fail(f"{path}: node {node['name']!r} at {trail}: negative sample field")
        for i, child in enumerate(node["children"]):
            walk(child, f"{trail}/{i}")

    walk(doc["profiler"]["tree"], "tree")
    print(f"check_trace: {path}: profile OK, {nodes} tree nodes")


def profile_shape(node):
    """The deterministic projection of a profile tree: names, call counts
    and structure survive a same-seed re-run; wall_ns/self_ns do not."""
    return (node["name"], node["calls"],
            [profile_shape(c) for c in node["children"]])


def check_profile_same(path_a: str, path_b: str) -> None:
    doc_a, doc_b = load_profile(path_a), load_profile(path_b)
    if doc_a["profiler"]["sites"] != doc_b["profiler"]["sites"]:
        fail(f"profile mismatch: sites {doc_a['profiler']['sites']} != "
             f"{doc_b['profiler']['sites']} ({path_a} vs {path_b})")
    shape_a = profile_shape(doc_a["profiler"]["tree"])
    shape_b = profile_shape(doc_b["profiler"]["tree"])
    if shape_a != shape_b:
        fail(f"profile mismatch: deterministic fields (tree shape / names / "
             f"call counts) differ between {path_a} and {path_b}")
    print(f"check_trace: {path_a} == {path_b} on deterministic profile fields")


def main() -> None:
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("trace")
    parser.add_argument("metrics")
    parser.add_argument("--profile", action="append", default=[])
    parser.add_argument("--profile-same", nargs=2, default=None,
                        metavar=("A_JSON", "B_JSON"))
    try:
        args = parser.parse_args()
    except SystemExit:
        fail("usage: check_trace.py TRACE_JSON METRICS_JSONL "
             "[--profile P]... [--profile-same A B]")
    check_trace(args.trace)
    check_metrics(args.metrics)
    for path in args.profile:
        check_profile(path)
    if args.profile_same:
        check_profile_same(*args.profile_same)


if __name__ == "__main__":
    main()
