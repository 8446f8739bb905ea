#!/usr/bin/env python3
"""Seeded byte-identity matrix for two acr_driver binaries.

Runs the same fixed list of `acr_driver --trace` invocations (app x feature
x seed) against binary A and binary B and compares, per run, the sha256 of
stdout, the sha256 of stderr, and the exit code. A change that claims not
to move output should report every run identical against a build of its
parent commit:

    tools/driver_identity.py base/build/examples/acr_driver \\
        build/examples/acr_driver

Each run has a wall-clock cap of TIMEOUT_S seconds; every run in the matrix
takes well under one. A run that times out on one side only is a
difference. A run that times out on both sides cannot be
compared; it is listed and counted in the summary, never dropped silently.

Exit status: 0 when every compared run is identical, 1 on any difference,
2 on a usage error.
"""

import argparse
import concurrent.futures
import hashlib
import os
import subprocess
import sys
import time

APPS = ["jacobi", "hpccg", "lulesh", "leanmd", "minimd"]

# Each feature reaches a different part of the protocol; together they
# cover both detection modes, all four recovery schemes, the adaptive
# interval, every redundancy scheme, the codec, the durable tier (flush,
# fetch waves and drain), burst failures with repair, and the reliable
# transport on a lossy network.
FEATURES = {
    "strong-sdc": "--fault-mtbf=0.03 --sdc-fraction=0.6",
    "checksum": "--detection=checksum --fault-mtbf=0.02 --sdc-fraction=0.5 "
                "--spares=16",
    "weak-adaptive": "--scheme=weak --adaptive --weibull-shape=0.6 "
                     "--fault-mtbf=0.02 --spares=16",
    "hardonly-local": "--scheme=hardonly --ckpt-scheme=local "
                      "--fault-mtbf=0.02 --spares=10",
    "medium-delta-tier": "--scheme=medium --ckpt-delta=on --ckpt-compress=lz "
                         "--l2-bandwidth=2e9 --fault-mtbf=0.03 "
                         "--sdc-fraction=0.4",
    "rs-burst-repair": "--ckpt-scheme=rs --nodes=16 --burst-mtbf=0.03 "
                       "--burst-follow=0.6 --spare-repair-time=0.01 "
                       "--degrade=shrink --l2-bandwidth=2e9 "
                       "--fault-mtbf=0.03",
    "lossy-net": "--net-loss=0.01 --net-dup=0.005 --net-reorder=0.01 "
                 "--net-corrupt=0.002 --fault-mtbf=0.03 --spares=10",
    # Endpoint resets (spare promotion, doubling, un-doubling) under a
    # lossy wire.
    "lossy-rs-burst": "--ckpt-scheme=rs --nodes=16 --burst-mtbf=0.03 "
                      "--burst-follow=0.6 --spare-repair-time=0.01 "
                      "--degrade=shrink --l2-bandwidth=2e9 "
                      "--net-loss=0.01 --net-dup=0.005 --net-reorder=0.01 "
                      "--net-corrupt=0.002",
    # L2 fetch waves as the main recovery path: local redundancy has no
    # remote copy, so most hard failures fall through to the durable tier.
    # The only row that sets the tier's latency, flush interval and a
    # drain (--halt-after).
    "local-tier-fetch": "--ckpt-scheme=local --l2-bandwidth=5e8 "
                        "--l2-latency=2e-4 --flush-interval=2 "
                        "--halt-after=0.2 --fault-mtbf=0.02 --spares=10",
}

SEEDS = [1, 2, 3]

TIMEOUT_S = 20.0  # wall-clock cap per run
JOBS = 2          # runs in flight at once

# Runs outside the grid. The lossy SDC storm below does not finish today:
# a kResume that lands a retransmit late leaves its node's tasks waiting
# for halos the resume gate dropped (ROADMAP, "Hold app messages at the
# resume gate"). It reports as a both-sides timeout until a fix lets one
# side finish, which then reports as a difference.
EXTRA = {
    "jacobi/lossy-sdc-storm/seed=8":
        "--nodes=8 --iterations=20 --fault-mtbf=0.01 --sdc-fraction=1.0 "
        "--net-loss=0.01 --seed=8 --trace",
}

# One command line per message the driver prints on rejected input, plus
# --help: their stderr and exit code must not move either.
EXTRA.update({f"reject/{flags}": flags for flags in [
    "--help", "--no-such-flag", "--nodes=abc", "--nodes", "positional",
    "--net-loss=1.5", "--net-dup=-0.1", "--net-reorder=2", "--net-corrupt=-1",
    "--net-retry-budget=0", "--burst-follow=1.5", "--burst-window=-1",
    "--burst-domain=0", "--spare-repair-time=-1", "--l2-bandwidth=-1",
    "--l2-latency=1e-4", "--flush-interval=2", "--halt-after=0.1",
    "--l2-bandwidth=2e9 --l2-latency=-1",
    "--l2-bandwidth=2e9 --flush-interval=0",
    "--l2-bandwidth=2e9 --halt-after=-1",
    "--l2-bandwidth=nan --halt-after=0.1",
    "--xor-group-size=4", "--ckpt-scheme=xor --rs-parity=2",
    "--ckpt-scheme=rs --xor-group-size=1", "--ckpt-scheme=rs --nodes=2",
    "--ckpt-scheme=rs --rs-parity=0", "--ckpt-scheme=rs --rs-parity=4",
    "--ckpt-scheme=rs --xor-group-size=255 --nodes=256",
    "--ckpt-scheme=rs --scheme=medium", "--ckpt-scheme=local --scheme=weak",
]})


def matrix():
    for app in APPS:
        for name, flags in FEATURES.items():
            for seed in SEEDS:
                args = [f"--app={app}", *flags.split(), f"--seed={seed}",
                        "--trace"]
                yield f"{app}/{name}/seed={seed}", args
    for label, flags in EXTRA.items():
        yield label, flags.split()


def run(binary, args):
    """(stdout sha256, stderr sha256, exit code), or None on timeout."""
    try:
        p = subprocess.run([binary, *args], capture_output=True,
                           timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None
    return (hashlib.sha256(p.stdout).hexdigest(),
            hashlib.sha256(p.stderr).hexdigest(), p.returncode)


def describe(result):
    if result is None:
        return "timeout"
    out, err, code = result
    return f"exit={code} stdout={out[:12]} stderr={err[:12]}"


def main():
    ap = argparse.ArgumentParser(
        description="Compare acr_driver --trace output of two binaries "
                    "over a fixed seeded matrix.")
    ap.add_argument("a", help="reference acr_driver binary (e.g. the parent)")
    ap.add_argument("b", help="acr_driver binary under test")
    opts = ap.parse_args()
    binaries = [os.path.abspath(opts.a), os.path.abspath(opts.b)]
    for binary in binaries:
        if not os.access(binary, os.X_OK):
            ap.error(f"{binary} is not an executable file")

    runs = list(matrix())
    start = time.monotonic()

    # A and B of one run go to the pool as separate jobs, so a run that
    # hangs on both sides costs one wall cap, not two.
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(
            lambda job: run(job[0], job[1]),
            [(b, args) for _, args in runs for b in binaries]))

    differ, both_timed_out = [], []
    for i, (label, args) in enumerate(runs):
        ra, rb = results[2 * i], results[2 * i + 1]
        if ra is None and rb is None:
            both_timed_out.append((label, args))
        elif ra != rb:
            differ.append((label, args, ra, rb))

    for label, args, ra, rb in differ:
        print(f"DIFFER  {label}\n  args: {' '.join(args)}\n"
              f"  A: {describe(ra)}\n  B: {describe(rb)}")
    for label, args in both_timed_out:
        print(f"TIMEOUT {label} (both sides, not compared)\n"
              f"  args: {' '.join(args)}")
    identical = len(runs) - len(differ) - len(both_timed_out)
    print(f"{len(runs)} runs in {time.monotonic() - start:.1f} s: "
          f"{identical} identical, {len(differ)} differ, "
          f"{len(both_timed_out)} timed out on both sides "
          f"(cap {TIMEOUT_S:g} s)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
