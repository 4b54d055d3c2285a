"""One measuring process of the benchmark; started by run.py.

Closed loop, one thread: each task starts when the previous one ends and a
pass runs every task of the workload once. After set-up, one untimed
warm-up pass fills caches and lazy state, and one task is run again to
check that its outputs are byte-identical. Then passes repeat until the
measuring time is used up.

With --trace 0 every pass is timed without wrappers. With --trace 1
untraced and traced passes alternate; the traced ones give the per-layer
metrics and the untraced ones the per-task times and the tracing
overhead.

Prints one JSON line for run.py: set-up seconds, attempted and failed
tasks, metrics, the raw seconds behind them, and provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import tracer as tracing
import workloads

# warm-up reruns this task and compares its outputs byte for byte
RERUN_TASK = {"spectral_march": "heat", "singular_march": "muskat_st_n256"}


class Reference:
    """Fixed numpy kernels timed between tasks.

    The host's throughput drifts by 15-30% over tens of seconds (other
    tenants share the physical cores), while the ratio of pslab work to
    similar kernels timed in the same stretch of seconds moves by a few
    percent. End-to-end times are therefore reported in units of this
    reference's mean time over the same run. It mixes the operation kinds
    pslab spends its time in: 512-point FFTs, small-array numpy calls, and
    complex elementwise work on N x N arrays inside and beyond the L2
    cache. It uses only numpy, so no pslab change can move it.
    """

    INTERVAL_S = 0.6

    def __init__(self):
        rng = np.random.default_rng(0)
        self.signal = rng.standard_normal(512)
        self.basis = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        self.mats = rng.standard_normal((2, 3, 3))
        self.grids = [rng.standard_normal((n, n)) + 0.5j for n in (256, 512)]
        self.seconds = []
        self.last = -np.inf

    def _kernels(self):
        for _ in range(300):
            np.fft.ifft(np.fft.fft(self.signal) * 0.5)
        for i in range(700):
            m = (self.basis * np.sin(0.3 * i + np.arange(3))) @ self.basis.T
            np.einsum("bij,bjk->bik", np.stack([m, m]), self.mats)
        for _ in range(3):
            np.tan(self.grids[0]).real.sum(axis=0)
        np.tan(self.grids[1]).real.sum(axis=0)

    def maybe_sample(self):
        if time.perf_counter() - self.last >= self.INTERVAL_S:
            t0 = time.perf_counter()
            self._kernels()
            self.last = time.perf_counter()
            self.seconds.append(self.last - t0)


class Run:
    def __init__(self, tasks):
        self.tasks = tasks
        self.attempted = 0
        self.failed = 0
        self.clock = workloads.CoreClock()

    def attempt(self, label, fn):
        self.attempted += 1
        try:
            fn()
        except Exception:
            self.failed += 1
            print(f"perfbench: {label} failed", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)

    def one_pass(self, tracer=None, reference=None):
        """Per task: wall seconds, seconds inside the core call, and core
        operations. Reference samples fall between tasks, outside them."""
        out = []
        for task in self.tasks:
            if reference is not None:
                reference.maybe_sample()
            ops, core = self.clock.ops, self.clock.seconds
            t0 = time.perf_counter()
            rec = tracer.open("bench.task") if tracer else None
            try:
                self.attempt(task.name, lambda: task.run(self.clock, tracer))
            finally:
                if rec is not None:
                    tracer.close(rec)
            out.append((time.perf_counter() - t0, self.clock.seconds - core,
                        self.clock.ops - ops))
        return out

    def byte_identical_rerun(self, name):
        task = next(t for t in self.tasks if t.name == name)

        def check():
            task.run(self.clock)
            first = task.output_bytes()
            task.run(self.clock)
            if task.output_bytes() != first:
                raise workloads.CheckFailed(f"{name}: outputs differ on rerun")

        self.attempt(f"{name} rerun", check)


def provenance(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "l2_bytes": args.l2_bytes,
        "l3_bytes": args.l3_bytes,
        "commit": args.commit,
    }


def measure(run, seconds):
    """Timed passes, no wrappers: the end-to-end metrics, in units of the
    mean reference time of the same run."""
    passes = []
    reference = Reference()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run.one_pass(reference=reference))
    reference.maybe_sample()
    unit = statistics.fmean(reference.seconds)
    wall_s = statistics.fmean(sum(task[0] for task in p) for p in passes)
    core_s = sum(task[1] for p in passes for task in p)
    ops = sum(task[2] for p in passes for task in p)
    metrics = {
        "wall_ref": (wall_s / unit, "ref"),
        "ops_per_ref": (ops / core_s * unit, "1/ref"),
    }
    raw = {"passes": len(passes), "wall_s": wall_s, "ops_per_s": ops / core_s,
           "reference_s": unit, "reference_samples": len(reference.seconds)}
    return metrics, raw


def measure_traced(run, seconds, trace_path):
    """Alternating untraced and traced passes: the per-layer metrics, the
    per-task seconds (untraced passes) and the tracing overhead."""
    tr = tracing.Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(run.one_pass())
        tr.install()
        try:
            rec = tr.open("bench.pass")
            traced.append(run.one_pass(tr))
            tr.close(rec)
        finally:
            tr.uninstall()
        tr.passes += 1
    tr.write(trace_path)
    plain_s = statistics.fmean(sum(t[0] for t in p) for p in plain)
    traced_s = statistics.fmean(sum(t[0] for t in p) for p in traced)
    metrics = tr.layer_metrics(traced_s * len(traced))
    per_metric = dict.fromkeys(workloads.TASK_METRICS, 0.0)
    for task, samples in zip(run.tasks, zip(*plain)):
        per_metric[task.metric] += statistics.fmean(s[0] for s in samples)
    metrics.update((k, (v, "s")) for k, v in per_metric.items())
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.untraced_wall_s"] = (plain_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--l2-bytes", type=int, default=None)
    parser.add_argument("--l3-bytes", type=int, default=None)
    parser.add_argument("--commit", default="unknown")
    args = parser.parse_args(argv)

    run = Run(workloads.build(args.workload, args.seed, args.work_dir, args.tiny))
    workloads.install_evolve_clock(run.clock)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # warm-up: untimed, checked
    run.one_pass()
    if args.workload in RERUN_TASK:
        run.byte_identical_rerun(RERUN_TASK[args.workload])

    if args.trace:
        trace_path = os.path.join(args.work_dir, "trace.csv")
        metrics = measure_traced(run, args.seconds, trace_path)
        raw = {}
    else:
        metrics, raw = measure(run, args.seconds)
        metrics["peak_mem_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(json.dumps({
        "setup_s": setup_s,
        "attempted": run.attempted,
        "failed": run.failed,
        "raw": raw,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "provenance": provenance(args),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
