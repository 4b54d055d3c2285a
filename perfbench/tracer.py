"""Span tracer for the traced benchmark run.

Wrappers are installed from outside pslab: every module-level binding of
a traced function is replaced (pslab modules import each other's functions
by name, so one function can have several bindings), together with the
model methods, PeriodicField construction and numpy's FFT entry points.
``uninstall`` restores every binding, so untraced passes run the original
code.

A span records name, start, end and parent, and is kept in memory until
``write`` dumps the whole list. Hot leaf calls (FFTs, symbol evaluations,
field constructions, spectral derivatives) are aggregated as counts and
seconds instead of spans; their time is still charged to the enclosing
span, so self times stay exact.
"""

from __future__ import annotations

import os
import time

import numpy as np

import pslab.cli
import pslab.grid
import pslab.kernels
import pslab.models
import pslab.nonlocal_ops
import pslab.ratefit
import pslab.stepper

PSLAB_MODULES = (pslab.grid, pslab.kernels, pslab.nonlocal_ops, pslab.models,
                 pslab.stepper, pslab.ratefit, pslab.cli)

NONLOCAL_FUNCS = ("muskat_st_rhs", "peskin_rhs", "fractional_mean_curvature",
                  "dirichlet_neumann_op", "stretch_ratio")

FFT_FUNCS = ("fft", "ifft", "fft2", "ifft2", "rfft", "irfft")

LAYERS = ("stepper", "grid", "models", "nonlocal_ops", "kernels", "ratefit",
          "cli", "bench")

NAME, START, END, PARENT, CHILD_S = range(5)


def _field_n(args, kwargs, key):
    field = args[0] if args else kwargs[key]
    return field.n


def _pair_evals(fn_name, args, kwargs):
    """Computed (not measured) pair evaluations of one singular-integral
    call: N nodes times N quadrature shifts, or N(N-1)/2 node pairs for the
    stretch ratio. Fourier-backend operator calls make none."""
    if fn_name == "stretch_ratio":
        n = _field_n(args, kwargs, "X")
        return n * (n - 1) // 2
    if fn_name == "dirichlet_neumann_op":
        backend = args[3] if len(args) > 3 else kwargs.get("backend", "fourier")
        if backend != "quadrature":
            return 0
        n = _field_n(args, kwargs, "field")
        return n * n
    key = {"muskat_st_rhs": "f", "peskin_rhs": "X",
           "fractional_mean_curvature": "u"}[fn_name]
    n = _field_n(args, kwargs, key)
    return n * n


class Tracer:
    """Collects spans and counters across the traced passes of one run."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, child seconds]
        self.stack = []
        self.leaf = {}         # name -> [calls, seconds]
        self.counts = {}       # name -> integer
        self._restore = []
        self.passes = 0

    # -- recording ---------------------------------------------------------

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec):
        rec[END] = end = time.perf_counter()
        self.stack.pop()
        if rec[PARENT] >= 0:
            self.spans[rec[PARENT]][CHILD_S] += end - rec[START]

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def add_leaf(self, name, seconds):
        stat = self.leaf.setdefault(name, [0, 0.0])
        stat[0] += 1
        stat[1] += seconds
        if self.stack:
            self.spans[self.stack[-1]][CHILD_S] += seconds

    # -- wrappers ----------------------------------------------------------

    def span_wrapper(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            rec = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(rec)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def leaf_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add_leaf(name, time.perf_counter() - t0)

        return wrapper

    def count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _rebind(self, home, attr, make):
        """Replace home.attr, and every other pslab binding of the same
        object, with make(original). Missing names are skipped, so a later
        refactor that drops a private helper only zeroes its metric."""
        orig = getattr(home, attr, None)
        if orig is None:
            return
        wrapped = make(orig)
        for module in PSLAB_MODULES:
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._restore.append((module, key, orig))
                    setattr(module, key, wrapped)

    def _rebind_method(self, cls, attr, make):
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def install(self):
        st, grid, kern = pslab.stepper, pslab.grid, pslab.kernels
        cli, models, ops = pslab.cli, pslab.models, pslab.nonlocal_ops

        def after_evolve(args, kwargs, result):
            horizon = args[2] if len(args) > 2 else kwargs["T"]
            config = args[3] if len(args) > 3 else kwargs["config"]
            self.count("stepper.accepted_steps", int(round(horizon / config.dt)))

        self._rebind(st, "evolve",
                     lambda f: self.span_wrapper("stepper.evolve", f, after_evolve))
        for name in ("imex_frozen_phi_step", "frozen_pointwise_step"):
            self._rebind(st, name, lambda f: self.span_wrapper("stepper.step", f))
        self._rebind(st, "ledger_entry",
                     lambda f: self.span_wrapper("stepper.ledger", f))

        self._rebind(grid, "spectral_derivative",
                     lambda f: self.count_wrapper("grid.spectral_derivative", f))
        self._rebind(grid, "holder_seminorm",
                     lambda f: self.span_wrapper("grid.holder_seminorm", f))
        self._rebind_method(grid.PeriodicField, "__post_init__",
                            lambda f: self.count_wrapper("grid.field_construction", f))
        for name in FFT_FUNCS:
            orig = getattr(np.fft, name)
            self._restore.append((np.fft, name, orig))
            setattr(np.fft, name, self.leaf_wrapper("grid.fft", orig))

        for cls in vars(models).values():
            if isinstance(cls, type) and cls.__module__ == models.__name__:
                for attr in ("rhs", "remainder"):
                    if attr in cls.__dict__:
                        self._rebind_method(
                            cls, attr,
                            lambda f, a=attr: self.span_wrapper(f"models.{a}", f))

        for fn_name in NONLOCAL_FUNCS:
            def after_pairs(args, kwargs, result, fn_name=fn_name):
                self.count("nonlocal_ops.pair_evals",
                           _pair_evals(fn_name, args, kwargs))
            self._rebind(ops, fn_name, lambda f, n=fn_name, a=after_pairs:
                         self.span_wrapper(f"nonlocal_ops.{n}", f, a))

        self._rebind(kern, "frozen_kernel_hat",
                     lambda f: self.span_wrapper("kernels.frozen_kernel_hat", f))
        self._rebind(kern, "ellipticity_probe",
                     lambda f: self.span_wrapper("kernels.ellipticity_probe", f))

        for name in ("fit_power_law", "fit_exponential"):
            self._rebind(pslab.ratefit, name,
                         lambda f: self.span_wrapper("ratefit.fit", f))

        def after_write(args, kwargs, result):
            self.count("cli.bytes_written", os.path.getsize(args[0]))

        self._rebind(cli, "main", lambda f: self.span_wrapper("cli.main", f))
        self._rebind(cli, "load_config", lambda f: self.span_wrapper("cli.load", f))
        self._rebind(cli, "build_initial_field",
                     lambda f: self.span_wrapper("cli.load", f))
        self._rebind(models, "make_model", lambda f: self.span_wrapper("cli.load", f))
        for name in ("write_snapshot", "write_ledger_csv", "_write_manifest"):
            self._rebind(cli, name,
                         lambda f: self.span_wrapper("cli.write", f, after_write))

    def uninstall(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    # -- reduction ---------------------------------------------------------

    def layer_metrics(self, traced_wall_s):
        """Per-layer metrics per traced pass, as {name: (value, unit)}.

        traced_wall_s is the summed wall time of the traced passes; each
        share.<layer> is that layer's self time over it. A span's self time
        is its duration minus its child spans and aggregated leaf calls.
        Times and counts are totals over the traced passes divided by their
        number, so a count repeats exactly when the passes repeat the work.
        """
        spans = self.spans
        calls, inclusive, self_s = {}, {}, {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        first_step, guard_ledger, guard_rem = {}, {}, {}
        evolve_of = []                 # enclosing evolve span of each span
        evolve_steps, evolve_stretch = {}, {}
        for i, rec in enumerate(spans):
            name, start, end, parent, child = rec
            if name == "stepper.evolve":
                evolve_of.append(i)
            else:
                evolve_of.append(evolve_of[parent] if parent >= 0 else -1)
            owner = evolve_of[i]
            if owner >= 0 and name == "stepper.step":
                evolve_steps[owner] = evolve_steps.get(owner, 0) + 1
            if owner >= 0 and name == "nonlocal_ops.stretch_ratio":
                evolve_stretch[owner] = evolve_stretch.get(owner, 0) + 1
            dur = end - start
            layer = name.split(".", 1)[0]
            layer_self[layer if layer in layer_self else "bench"] += dur - child
            self_s[name] = self_s.get(name, 0.0) + dur - child
            if parent < 0 or spans[parent][NAME] != name:
                calls[name] = calls.get(name, 0) + 1
                inclusive[name] = inclusive.get(name, 0.0) + dur
            if parent >= 0 and spans[parent][NAME] == "stepper.evolve" \
                    and parent not in first_step:
                if name == "stepper.step":
                    first_step[parent] = start
                elif name == "stepper.ledger":
                    guard_ledger[parent] = guard_ledger.get(parent, 0.0) + dur
                elif name == "models.remainder":
                    guard_rem[parent] = guard_rem.get(parent, 0) + 1
        guard_s = sum(t - spans[p][START] - guard_ledger.get(p, 0.0)
                      for p, t in first_step.items())
        guard_calls = sum(guard_rem.get(p, 0) for p in first_step)

        fft_calls, fft_s = self.leaf.get("grid.fft", (0, 0.0))
        sym_calls, sym_s = self.leaf.get("kernels.symbol_eval", (0, 0.0))
        layer_self["grid"] += fft_s
        # the symbol is the caller's callback, but kernels decides how often
        # to evaluate it, so its time is charged to kernels
        layer_self["kernels"] += sym_s

        n = max(self.passes, 1)
        steps = self.counts.get("stepper.accepted_steps", 0)
        tabulations = calls.get("kernels.frozen_kernel_hat", 0)

        def per_pass(value):
            return value / n

        out = {
            "stepper.step_s": (per_pass(inclusive.get("stepper.step", 0.0)), "s"),
            "stepper.step_calls": (per_pass(calls.get("stepper.step", 0)), "count"),
            "stepper.step_self_s": (per_pass(self_s.get("stepper.step", 0.0)), "s"),
            "stepper.ledger_s": (per_pass(inclusive.get("stepper.ledger", 0.0)), "s"),
            "stepper.ledger_rows": (per_pass(calls.get("stepper.ledger", 0)), "count"),
            "stepper.guard_s": (per_pass(guard_s), "s"),
            "stepper.guard_remainder_calls": (per_pass(guard_calls), "count"),
            "stepper.evolve_s": (per_pass(inclusive.get("stepper.evolve", 0.0)), "s"),
            "stepper.accepted_steps": (per_pass(steps), "count"),
            "grid.fft_calls": (per_pass(fft_calls), "count"),
            "grid.fft_s": (per_pass(fft_s), "s"),
            "grid.field_constructions":
                (per_pass(self.counts.get("grid.field_construction", 0)), "count"),
            "grid.spectral_derivative_calls":
                (per_pass(self.counts.get("grid.spectral_derivative", 0)), "count"),
            "grid.holder_seminorm_s":
                (per_pass(inclusive.get("grid.holder_seminorm", 0.0)), "s"),
            "models.rhs_calls": (per_pass(calls.get("models.rhs", 0)), "count"),
            "models.remainder_calls":
                (per_pass(calls.get("models.remainder", 0)), "count"),
            "models.remainder_self_s":
                (per_pass(self_s.get("models.remainder", 0.0)), "s"),
        }
        for fn_name in NONLOCAL_FUNCS:
            key = f"nonlocal_ops.{fn_name}"
            out[f"{key}_s"] = (per_pass(inclusive.get(key, 0.0)), "s")
            out[f"{key}_calls"] = (per_pass(calls.get(key, 0)), "count")
        # per step of the marches that evaluate the stretch ratio at all
        contour_steps = sum(evolve_steps.get(e, 0) for e in evolve_stretch)
        out["nonlocal_ops.stretch_ratio_calls_per_step"] = (
            sum(evolve_stretch.values()) / contour_steps if contour_steps else 0.0,
            "ratio")
        out["nonlocal_ops.pair_evals_computed"] = (
            per_pass(self.counts.get("nonlocal_ops.pair_evals", 0)), "count")
        out.update({
            "kernels.frozen_kernel_hat_s":
                (per_pass(inclusive.get("kernels.frozen_kernel_hat", 0.0)), "s"),
            "kernels.tabulations": (per_pass(tabulations), "count"),
            "kernels.symbol_evals": (per_pass(sym_calls), "count"),
            "kernels.symbol_evals_per_tabulation":
                (sym_calls / tabulations if tabulations else 0.0, "ratio"),
            "kernels.symbol_eval_s": (per_pass(sym_s), "s"),
            "kernels.ellipticity_probe_s":
                (per_pass(inclusive.get("kernels.ellipticity_probe", 0.0)), "s"),
            "ratefit.fits": (per_pass(calls.get("ratefit.fit", 0)), "count"),
            "ratefit.fit_s": (per_pass(inclusive.get("ratefit.fit", 0.0)), "s"),
            "cli.load_s": (per_pass(inclusive.get("cli.load", 0.0)), "s"),
            "cli.write_s": (per_pass(inclusive.get("cli.write", 0.0)), "s"),
            "cli.bytes_written":
                (per_pass(self.counts.get("cli.bytes_written", 0)), "bytes"),
        })
        for layer in LAYERS:
            share = layer_self[layer] / traced_wall_s if traced_wall_s > 0 else 0.0
            out[f"share.{layer}"] = (share, "ratio")
        return out

    # -- output ------------------------------------------------------------

    def write(self, path):
        """Dump every span as CSV: index, name, start, end, parent, self seconds."""
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,self_s\n")
            for i, (name, start, end, parent, child) in enumerate(self.spans):
                fh.write(f"{i},{name},{start:.9f},{end:.9f},{parent},"
                         f"{end - start - child:.9f}\n")
