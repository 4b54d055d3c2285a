"""pslab benchmark entry point.

    python3 perfbench/run.py --workload spectral_march --seed 1 --seconds 20 --trace 0

Run from the root of a pslab checkout; pslab is loaded from src/, as the
tests load it. Set-up is timed in fresh processes: set-up-only workers
before and after the measuring worker, and the measuring worker itself,
each report the time from spawn to their first timed call, and setup_s is
the median. Workers run one at a time, with BLAS and OpenMP pools pinned
to one thread and a fixed PYTHONHASHSEED.

Prints a provenance line, then, as the last line, one JSON object with
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits 2 without a result
when the checkout holds no pslab sources or a worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170.0

HERE = os.path.dirname(os.path.abspath(__file__))


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit(root):
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _cache_bytes(name):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True,
                             timeout=10).stdout.strip()
        return str(int(out))
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _worker(argv, env, deadline):
    """Run one worker to completion; its JSON line, or None on failure."""
    spawned_at = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *argv,
           "--spawned-at", repr(spawned_at)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("spectral_march", "singular_march", "frozen_kernel"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shortened tasks, for the smoke tests")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pslab", "__init__.py")):
        return _fail("no pslab sources under ./src; run from a pslab checkout")
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    work_dir = os.path.join(root, ".perfbench",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", work_dir] + (["--tiny"] if args.tiny else [])
    setups = []

    def setup_probes(count):
        for _ in range(count):
            probe = _worker(common + ["--setup-only"], env, deadline)
            if probe is None:
                return False
            setups.append(probe["setup_s"])
        return True

    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--commit", _commit(root)]
    for flag, name in (("--l2-bytes", "LEVEL2_CACHE_SIZE"),
                       ("--l3-bytes", "LEVEL3_CACHE_SIZE")):
        size = _cache_bytes(name)
        if size is not None:
            extra += [flag, size]
    try:
        # probes on both sides of the measuring worker, so the set-up
        # samples span the run rather than one stretch of host speed
        if not setup_probes(SETUP_PROBES // 2):
            return _fail("set-up probe failed")
        result = _worker(common + extra, env, deadline)
        if result is None:
            return _fail("measuring worker failed")
        if not setup_probes(SETUP_PROBES - SETUP_PROBES // 2):
            return _fail("set-up probe failed")
    finally:
        # keep the trace, drop the run outputs
        trace = os.path.join(work_dir, "trace.csv")
        if os.path.exists(trace):
            os.replace(trace, work_dir + "-trace.csv")
        shutil.rmtree(work_dir, ignore_errors=True)

    setups.append(result["setup_s"])
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    provenance = dict(result["provenance"], setup_samples_s=setups,
                      raw=result["raw"])
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
