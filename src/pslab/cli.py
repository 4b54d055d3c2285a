"""Batch entry point: configured evolution runs, verification suites, and
rate fits over ledger CSVs.

Commands
--------
``pslab run <config>``
    March one model and write snapshots, a ledger CSV, and a manifest.
``pslab verify <suite>``
    Run a named check suite (kernels, operators, models); NDJSON results.
``pslab ratefit <csv> [--column ...] [--kind ...] [--expect ...]``
    Fit a decay rate to one ledger column; NDJSON result.

Config format: one ``key = value`` per line, ``#`` starts a comment,
unknown or duplicate keys are rejected. Each model class declares its
``model.*`` parameters, whether it needs grid.L = 2*pi and whether its
state is a 2-component contour; the lines below list them. Keys:

    model.tag            one of the model tags (required)
    model.a              nonlocal_mcf order parameter in (0, 1)
    model.rho0           muskat_st density offset
    model.hbar0          surface_diffusion_axi reference radius (> 1)
    model.theta_cap      peskin2d stretch-ratio abort threshold (> 0)
    grid.N               samples per period, power of two from 16 to
                         65536 (required)
    grid.L               finite domain length (defaults to 2*pi;
                         nonlocal_mcf, peskin2d and muskat_st require 2*pi
                         to an absolute 1e-12)
    stepper.dt           time step, positive and finite (required)
    stepper.scheme       etd_rk2 | imex_frozen_phi | frozen_pointwise
                         (the last for scalar models with a coefficient
                         profile at N <= 1024)
    run.T                final time, an integer number of steps (required)
    initial.preset       cosine | triangle | random_band | sd_cylinder |
                         ellipse | circle  (required unless initial.file)
    initial.file         snapshot file to restart from; its sample count
                         must equal grid.N and its length grid.L (to a
                         relative 1e-12; the run uses grid.L), and like a
                         preset it must give peskin2d a contour and every
                         other model a scalar field
    initial.amplitude    preset scale          (cosine, triangle,
                         random_band, sd_cylinder)
    initial.mode         integer wavenumber    (cosine, sd_cylinder)
    initial.mean         additive offset       (cosine, sd_cylinder)
    initial.kmin         lowest random band mode   (random_band)
    initial.kmax         highest random band mode  (random_band)
    initial.a            horizontal semi-axis  (ellipse)
    initial.b            vertical semi-axis    (ellipse)
    initial.radius       circle radius         (circle)
    ledger.stride        record every stride-th step (default 1)
    ledger.derivative_sup   comma-separated derivative orders, e.g. 1,2
    ledger.holder        comma-separated k:kappa pairs, e.g. 1:0.5, with
                         0 < kappa < 1 and 0 <= k <= N/4 - 2 (neither key
                         is accepted for a contour model; the run and its
                         manifest use both sorted and without repeats)
    ledger.theta         true | false | auto (default auto); a contour
                         model's key only, like model.theta_cap
    output.dir           output directory, created if missing (required);
                         relative paths resolve under $PLAB_OUTPUT_ROOT
                         when that is set
    seed                 integer seed >= 0 for randomized presets (default 0)

Outputs of ``run``: initial.bin and final.bin (64-byte header: magic
"PLAB1\\0", component count, samples per component, domain length, time;
then little-endian float64 samples), ledger.csv with a fixed column order
(t, l2, linf, mean columns, derivative sups, Holder seminorms named
holder_{k}_{kappa} with kappa in its shortest exact form, theta), and
manifest.txt, itself a loadable config that reproduces the run. Exit codes:
0 success, 1 failed check or missed expectation, 2 config or file errors
(a preset with NaN or Inf samples among them; checked before anything is
written), 3 numerical abort or a dt refused by the stability guard, 4 an
unexpected internal error (its traceback on stderr; a run then writes no
diagnostics.txt). An exit-3 run also writes diagnostics.txt (aborted_at,
reason), with initial.bin, final.bin and ledger.csv holding the march up
to its last kept row; when the initial state already breaks the stretch
cap, or its ledger row cannot be built (a derivative that overflows), no
row is kept, so only manifest.txt and diagnostics.txt are written. A run first removes
initial.bin, final.bin, ledger.csv and diagnostics.txt, nothing else, from a
reused output directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import struct
import sys
import traceback
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import grid, kernels, models, nonlocal_ops
from .grid import TWO_PI, PeriodicField, apply_multiplier, multiplier_table
from .ratefit import fit_exponential, fit_power_law
from .stepper import (
    EvolutionAbort,
    LedgerSpec,
    StepperConfig,
    Trajectory,
    _n_steps,
    check_pointwise,
    evolve,
)

SCHEMA_VERSION = 1
MAX_N = 65536  # 64 times the lab's N <= 1024; a larger grid.N is a config error
_LINE_ENDS = ("\n", "\r\n", "\r")  # the whole of a blank ledger line

_MAGIC = b"PLAB1\x00"
_HEADER = struct.Struct("<6s2xIIdd")
_HEADER_SIZE = 64


class ConfigError(ValueError):
    """Unusable config or input file; maps to exit code 2."""


@lru_cache(maxsize=None)
def _version() -> str:
    try:
        from importlib.metadata import version

        return version("pslab")
    except Exception:
        return "unknown"


# ---------------------------------------------------------------------------
# snapshot files

def write_snapshot(path: str, field: PeriodicField, t: float) -> None:
    data = np.atleast_2d(np.asarray(field.samples, dtype=float))
    ncomp, n = data.shape
    header = _HEADER.pack(_MAGIC, ncomp, n, float(field.domain_length),
                          float(t))
    with open(path, "wb") as fh:
        fh.write(header.ljust(_HEADER_SIZE, b"\x00"))
        fh.write(np.ascontiguousarray(data, dtype="<f8").tobytes())


def read_snapshot(path: str) -> Tuple[PeriodicField, float]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read snapshot: {exc}")
    if len(raw) < _HEADER_SIZE:
        raise ConfigError(f"{path}: truncated snapshot header")
    magic, ncomp, n, length, t = _HEADER.unpack(raw[: _HEADER.size])
    if magic != _MAGIC:
        raise ConfigError(f"{path}: not a snapshot file")
    expected = _HEADER_SIZE + 8 * ncomp * n
    if len(raw) != expected:
        raise ConfigError(f"{path}: expected {expected} bytes, got {len(raw)}")
    data = np.frombuffer(raw, dtype="<f8", offset=_HEADER_SIZE).reshape(ncomp, n)
    samples = data[0] if ncomp == 1 else data
    try:
        return PeriodicField(np.array(samples), domain_length=length), t
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# config parsing

# each initial preset's parameters with their defaults, an int default
# marking an integer parameter; ellipse and circle build 2-component
# contours, the others scalar fields
_PRESETS = {
    "cosine": {"amplitude": 1.0, "mode": 1, "mean": 0.0},
    "triangle": {"amplitude": 1.0},
    "random_band": {"amplitude": 1.0, "kmin": 1, "kmax": 8},
    "sd_cylinder": {"amplitude": 0.01, "mode": 1, "mean": 2.0},
    "ellipse": {"a": 1.1, "b": 0.9},
    "circle": {"radius": 1.0},
}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated run description; serializes back to config text."""

    tag: str
    params: Dict[str, float]
    n: int
    domain_length: float
    stepper: StepperConfig
    horizon: float
    initial: Dict[str, str]
    ledger: LedgerSpec
    output_dir: str
    seed: int


def parse_config_text(text: str) -> Dict[str, str]:
    pairs: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key}")
        pairs[key] = value
    return pairs


def _pop_number(pairs, key, cast=float, default=None, required=False):
    if key not in pairs:
        if required:
            raise ConfigError(f"missing required key {key}")
        return default
    try:
        return cast(pairs.pop(key))
    except ValueError:
        kind = "a number" if cast is float else "an integer"
        raise ConfigError(f"{key} must be {kind}")


def build_run_config(pairs: Dict[str, str]) -> RunConfig:
    pairs = dict(pairs)

    tag = pairs.pop("model.tag", None)
    if tag is None:
        raise ConfigError("missing required key model.tag")
    if tag not in models.MODELS:
        raise ConfigError(f"unknown model.tag {tag!r}")
    model_cls = models.MODELS[tag]
    params = {}
    for name in model_cls.params:
        value = _pop_number(pairs, f"model.{name}")
        if value is not None:
            params[name] = value

    n = _pop_number(pairs, "grid.N", int, required=True)
    if not 16 <= n <= MAX_N or n & (n - 1):
        raise ConfigError(f"grid.N must be a power of two from 16 to {MAX_N}")
    length = _pop_number(pairs, "grid.L", default=TWO_PI)
    if not 0 < length < np.inf:
        raise ConfigError("grid.L must be positive and finite")
    if model_cls.needs_two_pi and not grid.on_two_pi_torus(length):
        raise ConfigError(f"{tag} quadratures assume grid.L = 2*pi")

    dt = _pop_number(pairs, "stepper.dt", required=True)
    try:
        stepper_config = StepperConfig(dt, pairs.pop("stepper.scheme", "etd_rk2"))
        if stepper_config.scheme == "frozen_pointwise":
            check_pointwise(model_cls, n, 2 if model_cls.is_contour else 1)
    except ValueError as exc:
        raise ConfigError(f"stepper.{exc}")

    horizon = _pop_number(pairs, "run.T", required=True)
    try:
        _n_steps(horizon, stepper_config.dt)
    except ValueError as exc:
        raise ConfigError(f"run.{exc}")

    initial: Dict[str, str] = {}
    preset = pairs.pop("initial.preset", None)
    source = pairs.pop("initial.file", None)
    if (preset is None) == (source is None):
        raise ConfigError("exactly one of initial.preset / initial.file "
                          "is required")
    if source is not None:
        initial["file"] = source
    else:
        if preset not in _PRESETS:
            raise ConfigError(f"unknown initial.preset {preset!r}")
        initial["preset"] = preset
        for name in _PRESETS[preset]:
            key = f"initial.{name}"
            if key in pairs:
                initial[name] = pairs.pop(key)

    stride = _pop_number(pairs, "ledger.stride", int, default=1)
    derivative_sup: Tuple[int, ...] = ()
    if "ledger.derivative_sup" in pairs:
        try:
            derivative_sup = tuple(
                int(tok) for tok in pairs.pop("ledger.derivative_sup").split(","))
        except ValueError:
            raise ConfigError("ledger.derivative_sup must be integers")
        if any(m < 1 for m in derivative_sup):
            raise ConfigError("derivative orders must be >= 1")
    holder_targets = []
    if "ledger.holder" in pairs:
        for tok in pairs.pop("ledger.holder").split(","):
            k, sep, kappa = tok.partition(":")
            try:
                holder_targets.append((int(k), float(kappa)))
            except ValueError:
                sep = ""
            if not sep:
                raise ConfigError("ledger.holder entries must be k:kappa")
            try:
                grid.check_holder_target(n, *holder_targets[-1])
            except ValueError as exc:
                raise ConfigError(f"ledger.holder {tok.strip()}: {exc}")
    if model_cls.is_contour and (derivative_sup or holder_targets):
        raise ConfigError(f"{tag} is a contour: ledger.derivative_sup and "
                          "ledger.holder take scalar fields")
    if "ledger.theta" in pairs and not model_cls.is_contour:
        raise ConfigError(f"{tag} is a scalar field: ledger.theta takes a contour")
    theta_raw = pairs.pop("ledger.theta", "auto").lower()
    if theta_raw not in ("auto", "true", "false"):
        raise ConfigError("ledger.theta must be true, false, or auto")
    record_theta = None if theta_raw == "auto" else theta_raw == "true"
    try:
        ledger = LedgerSpec(stride=stride, derivative_sup=derivative_sup,
                            holder_targets=holder_targets,
                            record_theta=record_theta)
    except ValueError as exc:
        raise ConfigError(f"ledger.{exc}")

    out_dir = pairs.pop("output.dir", None)
    if out_dir is None:
        raise ConfigError("missing required key output.dir")
    seed = _pop_number(pairs, "seed", int, default=0)
    if seed < 0:
        raise ConfigError("seed must be >= 0")

    if pairs:
        raise ConfigError(f"unknown keys: {', '.join(sorted(pairs))}")
    return RunConfig(tag=tag, params=params, n=n, domain_length=length,
                     stepper=stepper_config, horizon=horizon,
                     initial=initial, ledger=ledger, output_dir=out_dir,
                     seed=seed)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}")
    return build_run_config(parse_config_text(text))


def config_lines(config: RunConfig) -> List[str]:
    """The effective config, defaults included, as loadable text lines."""
    lines = [f"model.tag = {config.tag}"]
    for name in sorted(config.params):
        lines.append(f"model.{name} = {config.params[name]:.17g}")
    lines.append(f"grid.N = {config.n}")
    lines.append(f"grid.L = {config.domain_length:.17g}")
    lines.append(f"stepper.dt = {config.stepper.dt:.17g}")
    lines.append(f"stepper.scheme = {config.stepper.scheme}")
    lines.append(f"run.T = {config.horizon:.17g}")
    for name in sorted(config.initial):
        lines.append(f"initial.{name} = {config.initial[name]}")
    lines.append(f"ledger.stride = {config.ledger.stride}")
    if config.ledger.derivative_sup:
        joined = ",".join(str(m) for m in config.ledger.derivative_sup)
        lines.append(f"ledger.derivative_sup = {joined}")
    if config.ledger.holder_targets:
        joined = ",".join(f"{k}:{kappa!r}"
                          for k, kappa in config.ledger.holder_targets)
        lines.append(f"ledger.holder = {joined}")
    if config.ledger.record_theta is not None:
        lines.append(
            f"ledger.theta = {str(config.ledger.record_theta).lower()}")
    lines.append(f"output.dir = {config.output_dir}")
    lines.append(f"seed = {config.seed}")
    return lines


# ---------------------------------------------------------------------------
# initial data presets

def _band_samples(rng, x, scale, kmin, kmax):
    """sum over kmin <= k <= kmax of c_k cos(scale k x) + s_k sin(scale k x),
    with c_k then s_k drawn standard normal from rng in order of k."""
    samples = np.zeros(x.size)
    for k in range(kmin, kmax + 1):
        phase = scale * k * x
        samples += rng.standard_normal() * np.cos(phase)
        samples += rng.standard_normal() * np.sin(phase)
    return samples


@np.errstate(over="ignore", invalid="ignore")  # non-finite: ConfigError below
def _preset_field(config: RunConfig) -> PeriodicField:
    preset = config.initial["preset"]
    p = {}
    for name, default in _PRESETS[preset].items():
        try:
            p[name] = float(config.initial.get(name, default))
        except ValueError:
            raise ConfigError(f"initial.{name} must be a number")
        if isinstance(default, int) and not p[name].is_integer():
            raise ConfigError(f"initial.{name} must be an integer")
    n, length = config.n, config.domain_length
    x = np.arange(n) * (length / n)
    if preset in ("cosine", "sd_cylinder"):
        mode = int(p["mode"])
        samples = p["mean"] + p["amplitude"] * np.cos(
            mode * (TWO_PI / length) * x)
    elif preset == "triangle":
        samples = p["amplitude"] * (
            1.0 - (4.0 / length) * np.abs(x - length / 2.0))
    elif preset == "random_band":
        kmin, kmax = int(p["kmin"]), int(p["kmax"])
        if not 1 <= kmin <= kmax < n // 2:
            raise ConfigError("random_band needs 1 <= kmin <= kmax < N/2")
        samples = _band_samples(np.random.default_rng(config.seed), x,
                                TWO_PI / length, kmin, kmax)
        samples *= p["amplitude"] / max(float(np.max(np.abs(samples))), 1e-300)
    else:
        # a circle is the ellipse with both semi-axes equal to its radius
        a, b = (p["a"], p["b"]) if preset == "ellipse" else (p["radius"],) * 2
        theta = TWO_PI * np.arange(n) / n
        samples = np.stack([a * np.cos(theta), b * np.sin(theta)])
    try:
        return PeriodicField(samples, domain_length=length)
    except ValueError as exc:
        raise ConfigError(f"preset {preset}: {exc}")


def build_initial_field(config: RunConfig) -> PeriodicField:
    """The run's initial state, from a preset or a snapshot file, with the
    component count its model declares (2 for a contour, else 1)."""
    if "file" in config.initial:
        source = f"snapshot {config.initial['file']}"
        field, _ = read_snapshot(config.initial["file"])
        if field.n != config.n:
            raise ConfigError(
                f"snapshot has {field.n} samples, config asks for {config.n}")
        gap = abs(field.domain_length - config.domain_length)
        if not gap <= 1e-12 * config.domain_length:
            raise ConfigError(
                f"snapshot has length {field.domain_length:.17g}, config "
                f"asks for grid.L = {config.domain_length:.17g}")
        # the run, its manifest and its snapshots all carry grid.L
        field = PeriodicField(field.samples, config.domain_length)
    else:
        source = f"preset {config.initial['preset']}"
        field = _preset_field(config)
    model_cls = models.MODELS[config.tag]
    want = 2 if model_cls.is_contour else 1
    if field.components != want:
        shape = "a 2-component contour" if want == 2 else "a scalar field"
        raise ConfigError(f"{model_cls.tag} needs {shape}; {source} has "
                          f"{field.components} components")
    return field


# ---------------------------------------------------------------------------
# ledger CSV

def write_ledger_csv(path: str, ledger: Dict[str, np.ndarray]) -> None:
    """Write a ledger {column name: float64 array} as CSV: its names, then
    one line per row, one %-format of its values with %.17g, the bytes of
    format(float(v), ".17g") cell by cell, which read back bit for bit."""
    line = ",".join(["%.17g"] * len(ledger)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ledger) + "\n")
        fh.writelines(line % row for row in zip(*(col.tolist() for col in ledger.values())))


def _parse_rows(lines, **columns) -> np.ndarray:
    """The float64 table of comma-separated lines, shape (rows, columns);
    ValueError on an entry that is not a number."""
    return np.loadtxt(lines, dtype=float, delimiter=",", comments=None,
                      ndmin=2, **columns)


def read_ledger_csv(path: str) -> Dict[str, np.ndarray]:
    """The columns of a ledger CSV by header name. Lines end in \\n, \\r\\n
    or \\r, and blank lines are skipped. A repeated header name, a row whose
    field count differs from the header's (named by its line), or an entry
    that is not a number (named by its column, the first in header order)
    is a ConfigError.

    Every comma splits a field and np.loadtxt parses the fields, so a
    quote is no CSV quote: it stays in its field, and a quoted cell holding
    a comma is two fields. Unlike float(), np.loadtxt takes no digits
    grouped by underscores and no non-ASCII digits, but it does take the
    ASCII separators 0x1c-0x1f around a number, and unlike csv it takes a
    field of any length. pslab writes none of these."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read CSV: {exc}")
    if not lines:
        raise ConfigError(f"{path}: empty CSV")
    first = lines[0].rstrip("\r\n")
    header = first.split(",") if first else []
    data = []
    for number, line in enumerate(lines[1:], 2):
        if line in _LINE_ENDS:  # a blank line
            continue
        fields = line.count(",") + 1
        if fields != len(header):
            raise ConfigError(f"{path}: line {number} has {fields} "
                              f"fields, the header {len(header)}")
        data.append(line)
    if not data:
        raise ConfigError(f"{path}: no data rows")
    try:
        table = _parse_rows(data)
    except ValueError:
        table = None
    seen = set()
    for i, name in enumerate(header):
        if name in seen:
            raise ConfigError(f"{path}: column {name} appears twice in the header")
        seen.add(name)
        # each line is one row of the header's width, so a table that fails
        # to parse has a column that fails alone
        if table is None:
            try:
                _parse_rows(data, usecols=i)
            except ValueError:
                raise ConfigError(f"{path}: non-numeric entry in column {name}")
    return {name: col for name, col in zip(header, table.T.copy())}


# ---------------------------------------------------------------------------
# run command

def _resolve_output_dir(out_dir: str) -> str:
    root = os.environ.get("PLAB_OUTPUT_ROOT")
    if root and not os.path.isabs(out_dir):
        return os.path.join(root, out_dir)
    return out_dir


def _write_manifest(path: str, config: RunConfig) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# pslab run manifest; loadable as a run config\n")
        fh.write(f"# pslab_version = {_version()}\n")
        for line in config_lines(config):
            fh.write(line + "\n")


def _write_run_outputs(out_dir: str, traj: Trajectory) -> None:
    # an abort before the first record leaves nothing to write
    if not traj.snapshots:
        return
    t0, first = traj.snapshots[0]
    t1, last = traj.snapshots[-1]
    write_snapshot(os.path.join(out_dir, "initial.bin"), first, t0)
    write_snapshot(os.path.join(out_dir, "final.bin"), last, t1)
    write_ledger_csv(os.path.join(out_dir, "ledger.csv"), traj.ledger)


def cmd_run(config_path: str) -> int:
    config = load_config(config_path)
    try:
        model = models.make_model(config.tag, config.params)
    except ValueError as exc:
        raise ConfigError(str(exc))
    u0 = build_initial_field(config)

    out_dir = _resolve_output_dir(config.output_dir)
    try:
        os.makedirs(out_dir, exist_ok=True)
        # a reused directory must not keep an earlier run's artifacts
        for name in ("initial.bin", "final.bin", "ledger.csv", "diagnostics.txt"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out_dir, name))
        _write_manifest(os.path.join(out_dir, "manifest.txt"), config)
    except OSError as exc:
        raise ConfigError(f"cannot write to output dir: {exc}")

    try:
        traj = evolve(model, u0, config.horizon, config.stepper,
                      config.ledger)
    except EvolutionAbort as exc:
        _write_run_outputs(out_dir, exc.trajectory)
        with open(os.path.join(out_dir, "diagnostics.txt"), "w") as fh:
            fh.write(f"aborted_at = {exc.time:.17g}\n")
            fh.write(f"reason = {exc.reason}\n")
        print(f"pslab: run aborted at t={exc.time:.6g}: {exc.reason}",
              file=sys.stderr)
        return 3
    except ValueError as exc:
        raise ConfigError(str(exc))

    _write_run_outputs(out_dir, traj)
    print(f"run complete: {len(traj.snapshots)} ledger rows -> {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# verify command

def _check(name, measured, expected, tolerance, lower_bound=False):
    if lower_bound:
        ok = measured >= expected - tolerance
    else:
        ok = abs(measured - expected) <= tolerance
    return {
        "check": name,
        "status": "pass" if ok else "fail",
        "measured": float(measured),
        "expected": float(expected),
        "tolerance": float(tolerance),
        "schema_version": SCHEMA_VERSION,
    }


def _verify_kernels() -> List[dict]:
    checks = []
    for d, b, z in (
        (1, (0.0,), 1.0),
        (1, (0.5,), 0.1),
        (1, (2.0,), 10.0),
        (2, (1.0, 0.0), 1.0),
    ):
        kern = kernels.PoissonAnisoKernel(b=np.array(b), d=d)
        mass = kernels.poisson_aniso_mass(kern, z)
        label = "x".join(str(v) for v in b)
        checks.append(_check(f"poisson_aniso_mass_d{d}_b{label}_z{z:g}",
                             mass, 1.0, 1e-5))

    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5):
        s = float(rng.uniform(1.0, 2.0))
        c0 = float(rng.uniform(0.2, 0.8))
        dim = int(rng.integers(1, 4))
        spread = float(rng.uniform(0.0, 1.0))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]

        def symbol_eval(t, xi, c0=c0, dim=dim, spread=spread, basis=basis,
                        s=s):
            eigs = c0 + spread * (1.0 + np.sin(t + np.arange(dim)))
            return (basis * (eigs * abs(xi) ** s)) @ basis.T

        sym = kernels.FrozenSymbol(s=s, c0=c0, dim_N=dim, eval=symbol_eval)
        khat = kernels.frozen_kernel_hat(sym, t=0.5, xi_grid=[1.0, 2.0, 4.0])
        worst = np.maximum(worst, khat.frobenius_excess())  # keeps a NaN
    checks.append(_check("frozen_kernel_frobenius_excess", worst, 1.0, 1e-6))

    heat = kernels.fractional_heat_kernel(t=0.1, s=1.5, n=256)
    mass = float(np.sum(heat.samples) * heat.spacing)
    checks.append(_check("fractional_heat_kernel_mass", mass, 1.0, 1e-10))

    times = np.linspace(0.1, 5.0, 50)
    l1 = [float(np.sum(np.abs(kernels.periodic_sd_kernel(t, 2.0, 256).samples))
                * (TWO_PI / 256)) for t in times]
    rate = fit_exponential(times, l1, window=(0.1, 5.0)).estimate
    checks.append(_check("periodic_sd_kernel_decay_rate", rate,
                         kernels.sd_decay_floor(2.0), 0.0, lower_bound=True))
    return checks


def _verify_operators() -> List[dict]:
    checks = []
    c1 = nonlocal_ops.lemz0_constant(1)
    checks.append(_check("lemz0_constant_d1", c1, 1.0 / np.pi, 1e-6))

    for d, b, e in (
        (1, np.array([0.5]), np.array([1.0])),
        (1, np.array([2.0]), np.array([-1.0])),
        (2, np.array([1.0, 0.0]), np.array([0.0, 1.0])),
        (2, np.array([0.5, 0.5]), np.array([1.0, 0.0])),
    ):
        bb2 = 1.0 + float(b @ b)
        be = float(b @ e)
        expected = np.sqrt(bb2 - be * be) / bb2
        measured = nonlocal_ops.lemz0_constant(d) * \
            nonlocal_ops.contc_integral(d, b, e)
        label = "x".join(f"{v:g}" for v in b)
        checks.append(_check(f"lemz0_identity_d{d}_b{label}", measured,
                             expected, 1e-4))

    x = np.arange(256) * (TWO_PI / 256)
    rng = np.random.default_rng(1)
    worst = 0.0
    for b in (0.0, 0.5, 1.0, 3.0):
        for _ in range(2):
            field = PeriodicField(_band_samples(rng, x, 1.0, 1, 20) / np.sqrt(20))
            four = nonlocal_ops.dirichlet_neumann_op(field, b, "+",
                                                     backend="fourier")
            quad = nonlocal_ops.dirichlet_neumann_op(field, b, "+",
                                                     backend="quadrature")
            scale = float(np.max(np.abs(four.samples)))
            gap = float(np.max(np.abs(four.samples - quad.samples))) / scale
            worst = np.maximum(worst, gap)  # keeps a NaN
    checks.append(_check("dirichlet_neumann_backend_gap", worst, 0.0, 1e-3))

    h = nonlocal_ops.hilbert_transform(PeriodicField(np.cos(x)))
    gap = float(np.max(np.abs(h.samples - np.sin(x))))
    checks.append(_check("hilbert_transform_cosine", gap, 0.0, 1e-12))
    return checks


def _verify_models() -> List[dict]:
    checks = []
    n = 256
    x = np.arange(n) * (TWO_PI / n)
    theta = TWO_PI * np.arange(n) / n

    circle = PeriodicField(np.stack([np.cos(theta), np.sin(theta)]))
    peskin = models.Peskin2dModel()
    sup = float(np.max(np.abs(peskin.rhs(circle).samples)))
    checks.append(_check("peskin_circle_stationary", sup, 0.0, 1e-6))

    flat = PeriodicField(np.full(n, 0.7))
    sup = float(np.max(np.abs(models.McfGraphModel().rhs(flat).samples)))
    checks.append(_check("mcf_constant_stationary", sup, 0.0, 1e-14))

    h = PeriodicField(2.0 + 0.3 * np.cos(x))
    sd = models.SurfaceDiffusionModel(hbar0=2.0)
    drift = float(np.sum(h.samples * sd.rhs(h).samples) * h.spacing)
    checks.append(_check("surface_diffusion_volume_flux", drift, 0.0, 1e-10))

    bumpy = PeriodicField(0.1 * np.cos(x) + 0.05 * np.sin(2 * x))
    for name, model in (
        ("thinfilm_rhs_mean", models.ThinfilmExpModel()),
        ("muskat_rhs_mean", models.MuskatStModel()),
    ):
        mean = float(np.mean(model.rhs(bumpy).samples))
        checks.append(_check(name, mean, 0.0, 1e-12))

    for tag, field in (
        ("heat", bumpy),
        ("mcf_graph", bumpy),
        ("nonlocal_mcf", bumpy),
        ("thinfilm_exp", PeriodicField(0.01 * np.cos(x))),
    ):
        model = models.MODELS[tag]()
        lhs = model.rhs(field).samples
        linear = apply_multiplier(field, multiplier_table(model, n, field.domain_length)).samples
        gap = float(np.max(np.abs(lhs + linear
                                  - model.remainder(field).samples)))
        checks.append(_check(f"splitting_identity_{tag}", gap, 0.0, 1e-10))

    rate = models.mode1_rate(models.NonlocalMcfModel(a=0.5))
    expected = -models.NonlocalMcfModel(a=0.5).multiplier_constant
    checks.append(_check("nonlocal_mcf_mode1_rate", rate, expected,
                         1e-3 * abs(expected)))
    return checks


_SUITES = {
    "kernels": _verify_kernels,
    "operators": _verify_operators,
    "models": _verify_models,
}


def cmd_verify(suite: str) -> int:
    checks = _SUITES[suite]()
    for record in checks:
        print(json.dumps(record))
    return 0 if all(c["status"] == "pass" for c in checks) else 1


# ---------------------------------------------------------------------------
# ratefit command

def _parse_expect(text: str) -> Tuple[float, float]:
    entries = {}
    for token in text.split(","):
        key, sep, value = token.partition("=")
        if not sep:
            raise ConfigError("--expect entries must be key=value")
        key = key.strip()
        try:
            number = float(value)
        except ValueError:
            raise ConfigError(f"--expect {key} must be a number")
        if not np.isfinite(number):
            raise ConfigError(f"--expect {key} must be finite")
        if key not in ("exponent", "rate", "tol"):
            raise ConfigError(f"unknown --expect key {key!r}")
        if key in entries or {key, *entries} >= {"exponent", "rate"}:
            raise ConfigError(f"--expect takes one target and one tol, got {text!r}")
        entries[key] = number
    target = entries.get("exponent", entries.get("rate"))
    if target is None or "tol" not in entries:
        raise ConfigError("--expect needs exponent=<value>,tol=<value>")
    if entries["tol"] < 0:
        raise ConfigError("--expect tol must be >= 0")
    return target, entries["tol"]


def _parse_window(text: Optional[str]):
    if text is None:
        return None
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ConfigError("--window must be lo:hi")
    try:
        return (float(lo), float(hi))
    except ValueError:
        raise ConfigError("--window bounds must be numbers")


def cmd_ratefit(csv_path: str, column: str, kind: str,
                window_text: Optional[str],
                expect_text: Optional[str]) -> int:
    table = read_ledger_csv(csv_path)
    if "t" not in table:
        raise ConfigError(f"{csv_path}: no t column")
    if column not in table:
        raise ConfigError(f"{csv_path}: no column {column!r} "
                          f"(has {', '.join(table)})")
    window = _parse_window(window_text)
    expect = None if expect_text is None else _parse_expect(expect_text)
    fitter = fit_power_law if kind == "power_law" else fit_exponential
    try:
        fit = fitter(table["t"], table[column], window=window)
    except ValueError as exc:
        raise ConfigError(str(exc))

    print(json.dumps({
        "kind": fit.kind,
        "column": column,
        "estimate": fit.estimate,
        "stderr": fit.stderr,
        "r_squared": fit.r_squared,
        "window": list(fit.window),
        "n_points": fit.n_points,
        "schema_version": SCHEMA_VERSION,
    }))
    if expect is None:
        return 0
    record = _check("expected_estimate", fit.estimate, *expect)
    print(json.dumps(record))
    return 0 if record["status"] == "pass" else 1


# ---------------------------------------------------------------------------
# entry point

@lru_cache(maxsize=None)  # parse_args leaves the parser as it found it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslab",
        description="pseudo-spectral model runs, checks, and rate fits")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="march a configured model")
    p_run.add_argument("config", help="path to a key = value config file")

    p_verify = sub.add_parser("verify", help="run a named check suite")
    p_verify.add_argument("suite", choices=sorted(_SUITES))

    p_fit = sub.add_parser("ratefit", help="fit a rate to a ledger column")
    p_fit.add_argument("csv", help="ledger CSV from a run")
    p_fit.add_argument("--column", default="linf")
    p_fit.add_argument("--kind", choices=("power_law", "exponential"),
                       default="power_law")
    p_fit.add_argument("--window", default=None, help="fit window lo:hi")
    p_fit.add_argument("--expect", default=None,
                       help="pass/fail spec, e.g. exponent=-0.5,tol=0.05")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config)
        if args.command == "verify":
            return cmd_verify(args.suite)
        return cmd_ratefit(args.csv, args.column, args.kind, args.window,
                           args.expect)
    except ConfigError as exc:
        print(f"pslab: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
