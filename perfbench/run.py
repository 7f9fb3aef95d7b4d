#!/usr/bin/env python3
"""Benchmark entry point: builds the driver from source, runs one workload in a
fresh process, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The driver is built with CMake into
$CARGO_TARGET_DIR (default .bench_build) under the checkout. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json
"end_to_end"); with --trace 1 they are the per-layer ones ("per_layer"), from
a separate profiled run. Lines before it are a human-readable report. See
perfbench/README.md for the workloads and the metric map.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170

WORKLOADS = ("pbft-n202", "gpbft-n202-macs", "plane-pbft-n20-failover")

# Layer -> profiler sites whose self time it owns.
LAYER_SITES = {
    "net.simulator": ["sim.event"],
    "net.network": ["net.send", "net.arrival", "net.deliver.*"],
    "crypto": ["crypto.seal", "crypto.open"],
    "pbft": ["pbft.replica.handle", "pbft.propose", "pbft.execute", "pbft.client.handle"],
    "gpbft": ["gpbft.endorser.handle"],
}

# Predicted share of wall time per layer (percent), from the trial profiles
# the workloads were chosen by; README.md records where the measured split
# differs.
PREDICTED = {
    "pbft-n202": {"pbft": 73, "net.simulator": 10, "net.network": 10, "crypto": 3,
                  "storage": 0, "gpbft": 0},
    "gpbft-n202-macs": {"crypto": 40, "pbft": 23, "gpbft": 15, "net.simulator": 5,
                        "net.network": 5, "storage": 2},
    "plane-pbft-n20-failover": {"storage": 63, "pbft": 20, "net.simulator": 5,
                                "net.network": 5, "crypto": 2, "gpbft": 0},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log("perfbench: " + msg)
    sys.exit(code)


# --- build ---------------------------------------------------------------------


def build_driver():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src: run from a full source checkout" % ROOT, 2)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    return os.path.join(build_dir, "perfbench_driver")


def run_build_step(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail("build step failed: " + " ".join(cmd), 2)


# --- host fingerprint ------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_commit():
    """The git commit when there is one; otherwise a digest of src/."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


# --- driver --------------------------------------------------------------------


def run_driver(driver, args, extra=()):
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        fail("driver exited with code %d" % proc.returncode)
    try:
        return json.loads(proc.stdout)
    except ValueError:
        fail("driver printed no JSON result")


def check_outcome(workload, o, problems, label):
    """Correctness of one simulation's deterministic outputs."""
    if not o["tips_agree"]:
        problems.append("%s: live replicas disagree on the tip" % label)
    if o["committed"] != o["submitted"]:
        problems.append("%s: committed %d of %d" % (label, o["committed"], o["submitted"]))
    if o["latency_samples"] != o["committed"]:
        problems.append("%s: %d latency samples for %d commits"
                        % (label, o["latency_samples"], o["committed"]))
    if o["violations"] != 0:
        problems.append("%s: %d invariant violations\n%s"
                        % (label, o["violations"], o["violation_report"]))
    if workload == "plane-pbft-n20-failover" and o["committed"] < 1000:
        problems.append("%s: only %d commits behind commit_p99_s" % (label, o["committed"]))
    if o["submitted"] == 0 or o["height"] == 0:
        problems.append("%s: nothing committed" % label)


def end_to_end(o, wall_s, setup_s, peak_rss_mb):
    committed = max(1, o["committed"])
    return {
        "wall_s": (wall_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "commit_p50_s": (o["commit_p50_s"], "s"),
        "commit_p99_s": (o["commit_p99_s"], "s"),
        "committed_ratio": (o["committed"] / max(1, o["submitted"]), "ratio"),
        "consensus_kb_per_tx": (o["consensus_kb"] / committed, "KB"),
        "msgs_per_tx": (o["msgs"] / committed, "msgs"),
        "outage_s": (o["outage_s"], "s"),
    }


def timed_run(driver, args, problems):
    data = run_driver(driver, args)
    reps = data["reps"]
    first = reps[0]["outcome"]
    for i, rep in enumerate(reps):
        check_outcome(args.workload, rep["outcome"], problems, "rep %d" % i)
        if rep["outcome"] != first:
            problems.append("rep %d: deterministic outputs differ from rep 0" % i)
    if not data["segments_agree"]:
        problems.append("repetitions ran different numbers of simulated-time segments")
    metrics = end_to_end(first, data["wall_s"], data["setup_s"], data["peak_rss_mb"])
    log_meta(data)
    print("workload %s seed %d: %d reps of %d segments, host wall s per rep %s (median %.3f)"
          % (args.workload, args.seed, len(reps), data["segments"],
             " ".join("%.3f" % r["wall_s"] for r in reps), data["wall_host_median_s"]))
    print("  at reference host speed %s: wall_s, their median, %.3f"
          % (" ".join("%.3f" % r["reference_wall_s"] for r in reps), data["wall_s"]))
    print("  setup_s, the median of %d batch means at reference host speed: %.6f (host %.6f)"
          % (len(data["setup_batches"]), data["setup_s"], data["setup_host_s"]))
    print("  batch means at reference host speed: %s"
          % " ".join("%.6f" % b for b in data["setup_batches"]))
    print("  tip %s height %d, %d events, %d msgs, %d/%d committed, p99 over %d samples"
          % (first["tip"], first["height"], first["events"], first["msgs"], first["committed"],
             first["submitted"], first["latency_samples"]))
    attempted = sum(r["outcome"]["submitted"] for r in reps)
    failed = sum(r["outcome"]["submitted"] - r["outcome"]["committed"] for r in reps)
    return metrics, attempted, failed


def log_meta(data):
    meta = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": data["compiler"],
        "cxx_flags": data["cxx_flags"].strip(),
        "build_type": data["build_type"],
        "commit": source_commit(),
        "host_probe_alu_ns": data["host_probe_alu_ns"],
        "host_probe_mem_ns": data["host_probe_mem_ns"],
    }
    print("meta " + json.dumps(meta, sort_keys=True))


# --- traced run ------------------------------------------------------------------


def site_rollup(profile):
    """Per-site calls and self ns, summed over every call-tree position."""
    sites = {}

    def walk(node):
        name = node.get("name")
        if name and name != "root":
            calls, self_ns = sites.get(name, (0, 0))
            sites[name] = (calls + node.get("calls", 0), self_ns + node.get("self_ns", 0))
        for child in node.get("children", []):
            walk(child)

    walk(profile["profiler"]["tree"])
    return sites


def site_stats(sites, pattern):
    if pattern.endswith("*"):
        picked = [v for k, v in sites.items() if k.startswith(pattern[:-1])]
    else:
        picked = [sites[pattern]] if pattern in sites else []
    return sum(c for c, _ in picked), sum(ns for _, ns in picked)


def per_call_ns(sites, pattern):
    calls, ns = site_stats(sites, pattern)
    return ns / calls if calls else 0.0


def traced_run(driver, args, problems):
    data = run_driver(driver, args, ["--trace"])
    untraced, traced = data["untraced"], data["traced"]
    check_outcome(args.workload, untraced, problems, "untraced")
    if traced != untraced:
        problems.append("profiled run's deterministic outputs differ from the untraced run's")
    if not data["replay_ok"]:
        problems.append("ledger/serde replay disagrees with the committed chain")
    log_meta(data)

    sites = site_rollup(data["profile"])
    wall_ns = data["traced_wall_s"] * 1e9
    counts, means, ledger, storage = data["counts"], data["means"], data["ledger"], data["storage"]
    saves_per_block = storage["first_live_saves"] / max(1, untraced["height"])

    m = {
        "sim.make_deployment_s": (data["setup"]["make_deployment_s"], "s"),
        "sim.start_s": (data["setup"]["start_s"], "s"),
        "sim.schedule_workload_s": (data["setup"]["schedule_workload_s"], "s"),
        "net.simulator.events": (traced["events"], "count"),
        "net.simulator.max_queue_depth": (traced["max_queue_depth"], "count"),
        "net.simulator.event_self_ns": (per_call_ns(sites, "sim.event"), "ns"),
        "net.network.msgs": (traced["msgs"], "count"),
        "net.network.dropped": (traced["dropped"], "count"),
        "net.network.send_ns": (per_call_ns(sites, "net.send"), "ns"),
        "net.network.arrival_ns": (per_call_ns(sites, "net.arrival"), "ns"),
        "net.network.deliver_ns": (per_call_ns(sites, "net.deliver.*"), "ns"),
        "net.network.queue_wait_s": (means["net.recv_stall_seconds"], "s"),
        "crypto.seal_calls": (site_stats(sites, "crypto.seal")[0], "count"),
        "crypto.open_calls": (site_stats(sites, "crypto.open")[0], "count"),
        "crypto.seal_ns": (per_call_ns(sites, "crypto.seal"), "ns"),
        "crypto.open_ns": (per_call_ns(sites, "crypto.open"), "ns"),
        "pbft.handle_ns": (per_call_ns(sites, "pbft.replica.handle"), "ns"),
        "pbft.execute_us": (per_call_ns(sites, "pbft.execute") / 1e3, "us"),
        "pbft.propose_ns": (per_call_ns(sites, "pbft.propose"), "ns"),
        "pbft.client_handle_ns": (per_call_ns(sites, "pbft.client.handle"), "ns"),
        "pbft.txs_per_batch": (ledger["txs"] / max(1, ledger["blocks"]), "txs"),
        "pbft.view_changes_started": (counts["pbft.view_changes_started"], "count"),
        "pbft.view_changes_completed": (counts["pbft.view_changes_completed"], "count"),
        "pbft.prepare_s": (means["pbft.phase.prepare_seconds"], "s"),
        "pbft.commit_s": (means["pbft.phase.commit_seconds"], "s"),
        "gpbft.handle_ns": (per_call_ns(sites, "gpbft.endorser.handle"), "ns"),
        "gpbft.era_switches": (counts["gpbft.era_switches"], "count"),
        "gpbft.elections": (counts["gpbft.elections"], "count"),
        "gpbft.geo_reports": (counts["gpbft.geo_reports_sent"], "count"),
        "gpbft.era_switch_s": (means["gpbft.era_switch_seconds"], "s"),
        "ledger.append_us": (ledger["append_us"], "us"),
        "ledger.merkle_us": (ledger["merkle_us"], "us"),
        "ledger.tx_digest_ns": (ledger["tx_digest_ns"], "ns"),
        "serde.block_encode_us": (ledger["block_encode_us"], "us"),
        "serde.block_decode_us": (ledger["block_decode_us"], "us"),
        "serde.block_encode_us_per_kb": (ledger["block_encode_us_per_kb"], "us/KB"),
        "serde.block_decode_us_per_kb": (ledger["block_decode_us_per_kb"], "us/KB"),
        "storage.saves": (storage["saves"], "count"),
        "storage.saves_per_block": (saves_per_block, "ratio"),
        "storage.image_kb": (ledger["image_kb"], "KB"),
        "storage.serialize_chain_ms": (ledger["serialize_chain_ms"], "ms"),
        "plane.submitted": (counts["plane.submitted"], "count"),
        "obs.traced_over_untraced": (data["traced_wall_s"] / data["untraced_wall_s"], "ratio"),
    }

    # Layer shares of the profiled run's wall time. Storage has no probe: it
    # runs inside the pbft handler that sees a checkpoint become stable. Its
    # estimate is saves x the cost of serializing half the final chain (the
    # image grows linearly with the chain), and it is split out of pbft only
    # for the comparison with the predictions.
    shares = {}
    for layer, patterns in LAYER_SITES.items():
        shares[layer] = 100.0 * sum(site_stats(sites, p)[1] for p in patterns) / wall_ns
    shares["other"] = max(0.0, 100.0 - sum(shares.values()))
    storage_est = 100.0 * storage["saves"] * ledger["serialize_chain_ms"] * 1e6 / 2 / wall_ns
    for layer, share in shares.items():
        m["%s.share" % layer] = (share, "%")
    m["storage.share_est"] = (storage_est, "%")
    report_shares(args.workload, data["traced_wall_s"], shares, storage_est, sites, wall_ns)
    return m, untraced["submitted"] * 2, 2 * (untraced["submitted"] - untraced["committed"])


def report_shares(workload, wall_s, shares, storage_est, sites, wall_ns):
    split = dict(shares)
    split["pbft"] = max(0.0, split["pbft"] - storage_est)
    split["storage"] = storage_est
    predicted = PREDICTED[workload]
    print("layer shares of profiled wall time (%.2f s), %s:" % (wall_s, workload))
    print("  %-14s %9s %10s" % ("layer", "measured", "predicted"))
    for layer, share in sorted(split.items(), key=lambda kv: -kv[1]):
        pred = predicted.get(layer)
        print("  %-14s %8.1f%% %10s" % (layer, share, "-" if pred is None else "%d%%" % pred))
    print("  (pbft excludes the storage estimate; pbft.share includes it)")
    print("  top sites by self time:")
    for name, (calls, ns) in sorted(sites.items(), key=lambda kv: -kv[1][1])[:8]:
        print("    %-26s %5.1f%% %10d calls %10.0f ns/call"
              % (name, 100.0 * ns / wall_ns, calls, ns / max(1, calls)))
    measured_top = max(split, key=split.get)
    predicted_top = max(predicted, key=predicted.get)
    if measured_top != predicted_top:
        print("  dominant layer: measured %s, predicted %s" % (measured_top, predicted_top))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    driver = build_driver()
    problems = []
    if args.trace:
        metrics, attempted, failed = traced_run(driver, args, problems)
    else:
        metrics, attempted, failed = timed_run(driver, args, problems)
    for problem in problems:
        print("INCORRECT: " + problem)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
