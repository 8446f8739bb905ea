#!/usr/bin/env python3
"""End-to-end benchmark of the ACR simulator.

    python3 perfbench/run.py --workload halo-1k --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench, then runs one
simulated job per child process, closed-loop, until --seconds have passed.
Every job's verified answer must equal the workload's pinned fault-free
digest, and every job of a run must leave the same simulation fingerprint;
a job that misses either, or does not complete within its caps, counts as
failed.

--trace 0 prints the end-to-end metrics (tracing off), --trace 1 the
per-layer split from alternating untraced and traced jobs. The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("halo-1k", "ckpt-rs-lz", "recover-256", "lossy-256")
MIN_JOBS = 3
WALL_CAP_S = 60.0  # the binary's own per-job cap (Caps in main.cpp)

# Per-layer metrics: (name, unit). Names ending in "_s" are medians of the
# traced jobs; the rest are counts that must repeat exactly.
PER_LAYER_COUNTS = (
    ("rt.events", "count"),
    ("rt.pending_peak", "count"),
    ("rt.trace_events", "count"),
    ("apps.handler.calls", "count"),
    ("rt.send.calls", "count"),
    ("rt.send.bytes", "B"),
    ("acr.progress.calls", "count"),
    ("acr.checkpoints", "count"),
    ("acr.recoveries", "count"),
    ("acr.hard_failures", "count"),
    ("acr.sdc_detected", "count"),
    ("acr.scratch_restarts", "count"),
    ("acr.l2_fetch_waves", "count"),
    ("pup.pack.calls", "count"),
    ("pup.unpack.calls", "count"),
    ("ckpt.image_bytes", "B"),
    ("ckpt.parity.encode_bytes", "B"),
    ("ckpt.parity.rebuild_bytes", "B"),
    ("ckpt.parity.rebuilds", "count"),
    ("ckpt.codec.wire_bytes", "B"),
    ("ckpt.codec.raw_bytes", "B"),
    ("ckpt.codec.hit_ratio", "ratio"),
    ("ckpt.tier.flush_bytes", "B"),
    ("ckpt.tier.fetches", "count"),
    ("net.frames", "count"),
    ("net.retransmits", "count"),
    ("net.crc_drops", "count"),
    ("net.first_try_ratio", "ratio"),
    ("sim.virtual_s", "s"),
)
PER_LAYER_TIMES = (
    "apps.handler.self_s",
    "rt.send.self_s",
    "acr.progress.self_s",
    "pup.pack.self_s",
    "pup.unpack.self_s",
    "runtime.other_s",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the benchmark binary; return its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"perfbench: no simulator sources at {ROOT / 'src'}")
        return None
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    bdir = target / "perfbench"
    exe = bdir / "acr_perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    fresh = not (bdir / "CMakeCache.txt").is_file()
    if fresh:
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs])
    if fresh:  # a new build checks itself once on the miniatures
        steps.append([str(exe), "smoke"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: failed: " + " ".join(cmd))
            return None
    return exe


def run_job(exe, workload, seed, traced=False, fault_free=False):
    """One job in its own process; its JSON record, or None if it broke."""
    cmd = [str(exe), "job", "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if fault_free:
        cmd.append("--fault-free")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=WALL_CAP_S + 60.0)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} seed {seed} killed after the wall cap")
        return None
    if p.returncode != 0:
        log(f"perfbench: {workload} seed {seed} exited {p.returncode}: "
            + p.stderr.strip()[-500:])
        return None
    try:
        return json.loads(p.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log(f"perfbench: {workload} seed {seed}: unreadable job output")
        return None


def run_until(seconds, make_jobs):
    """Call make_jobs() (which returns a list of records) until the time
    budget would be exceeded by one more call; at least MIN_JOBS calls."""
    rounds = []
    t0 = time.monotonic()
    while True:
        r0 = time.monotonic()
        rounds.append(make_jobs())
        per_round = (time.monotonic() - t0) / len(rounds)
        if len(rounds) >= MIN_JOBS and (
                time.monotonic() - t0 + per_round > seconds):
            return rounds
        if time.monotonic() - r0 > WALL_CAP_S:  # a job hit its cap: stop
            return rounds


class Checker:
    """Counts jobs and applies the per-job correctness rules."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.fingerprint = None

    def ok(self, job):
        self.attempted += 1
        good = job is not None and job["complete"] and job["digest_ok"]
        if good and self.fingerprint is None:
            self.fingerprint = job["fingerprint"]
        good = good and job["fingerprint"] == self.fingerprint
        if not good:
            self.failed += 1
            log(f"perfbench: failed job: {json.dumps(job)[:400]}")
        return good


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(exe, workload, seed, seconds):
    check = Checker()
    jobs = [j for [j] in run_until(
        seconds, lambda: [run_job(exe, workload, seed)])]
    good = [j for j in jobs if check.ok(j)]
    if not good:
        return check, None, jobs
    node_iters = [2 * j["nodes_per_replica"] * j["iterations"] / j["wall_s"]
                  for j in good]
    metrics = {
        "wall_s": metric(statistics.median(j["wall_s"] for j in good), "s"),
        "node_iters_per_s": metric(statistics.median(node_iters), "1/s"),
        "peak_rss_mb": metric(
            statistics.median(j["peak_rss_kb"] / 1024.0 for j in good), "MB"),
        "setup_s": metric(statistics.median(j["setup_s"] for j in good), "s"),
    }
    return check, metrics, jobs


def per_layer(exe, workload, seed, seconds):
    check = Checker()
    rounds = run_until(seconds, lambda: [run_job(exe, workload, seed),
                                         run_job(exe, workload, seed,
                                                 traced=True)])
    plain = [p for p, _ in rounds if check.ok(p)]
    traced = [t for _, t in rounds if check.ok(t)]
    jobs = [j for pair in rounds for j in pair]
    if not plain or not traced:
        return check, None, jobs
    counts = traced[0]["counts"]
    # Handler calls of the fault-free job over this job's: the useful share
    # of the app work. A job without faults is its own reference.
    useful_calls = counts["apps.handler.calls"]
    if not traced[0]["fault_free"]:
        reference = run_job(exe, workload, seed, traced=True, fault_free=True)
        jobs.append(reference)
        check.attempted += 1
        if reference is None or not reference["digest_ok"]:
            check.failed += 1
            return check, None, jobs
        useful_calls = reference["counts"]["apps.handler.calls"]
    for t in traced[1:]:
        if t["counts"] != counts:
            check.failed += 1
            log("perfbench: per-layer counts did not repeat exactly")
    plain_wall = statistics.median(j["wall_s"] for j in plain)
    traced_wall = statistics.median(j["wall_s"] for j in traced)
    metrics = {name: metric(counts[name], unit)
               for name, unit in PER_LAYER_COUNTS}
    for name in PER_LAYER_TIMES:
        metrics[name] = metric(
            statistics.median(t["times"][name] for t in traced), "s")
    metrics["rt.events_per_s"] = metric(counts["rt.events"] / plain_wall, "1/s")
    metrics["apps.useful_ratio"] = metric(
        useful_calls / counts["apps.handler.calls"], "ratio")
    metrics["trace.overhead_s"] = metric(traced_wall - plain_wall, "s")
    return check, metrics, jobs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 1
    measure = per_layer if args.trace else end_to_end
    check, metrics, jobs = measure(exe, args.workload, args.seed, args.seconds)
    if metrics is None:
        log("perfbench: no job completed correctly; no result")
        return 1
    env = next(j["env"] for j in jobs if j is not None)
    walls = [round(j["wall_s"], 4) for j in jobs if j is not None]
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "env": env, "job_walls_s": walls}))
    print(json.dumps({"correct": check.failed == 0,
                      "attempted": check.attempted,
                      "failed": check.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
