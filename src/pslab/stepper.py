"""Time integration built on exact exponential propagation of each model's
frozen linear multiplier, with the nonlinear remainder treated explicitly
through phi-function weights.

Schemes
-------
imex_frozen_phi   exponential Euler: u+ = E u + dt phi1(-dt A) R(u)
etd_rk2           adds the standard second-order correction through phi2
frozen_pointwise  row i propagates u under the symbol frozen at x_i,
                  a(x_i) m(k), and is read at x_i; remainder explicit

An ETD stage forms its state and the derivative rows its model's
remainder reads in one batched irfft, and a march carries the last
stage's spectrum and rows to the next step. A march allocates the arrays
its steps write once, in a StepWork: the stage and end spectra and rows,
the product feeding each irfft and one spectral temporary. A step writes
only into those, never into the spectrum, rows or remainder it is handed,
so every step is bit for bit the one that allocates each array afresh;
each state owns a copy of its row, and a call without work allocates and
returns arrays of its own. A step checks each stage row and its end row
finite once, and that check stands in for the field's own: the end
state is built without the public constructor's checks.

Because the linear part is integrated exactly, explicit treatment of the
remainder stays stable as long as its damped response remains below the
linear damping; evolve() enforces that with a measured surrogate (see
_stability_bound) rather than a raw Jacobian norm, which would wrongly
reject stiff-but-dominated remainders.

picard_solve iterates the whole-window linear solve g -> S g and reports
the successive-iterate distances; contraction is a smallness statement
about the time window, so the caller bisects T on failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .grid import (
    NonFiniteError,
    NumericalFailure,
    PeriodicField,
    _derivative_table,
    _read_only,
    _trusted_field,
    check_holder_target,
    derivative_rows,
    holder_rows,
    irfft,
    model_cache,
    multiplier_table,
    norm_rows,
    rfft,
    sup_rows,
)
from .nonlocal_ops import stretch_ratio

SCHEMES = ("imex_frozen_phi", "etd_rk2", "frozen_pointwise")
POINTWISE_MAX_N = 1024
MAX_PICARD_ITERS = 25
PICARD_TOL = 1e-10
LEDGER_BLOCK = 16  # kept states whose ledger rows evolve builds in one call


class EvolutionAbort(RuntimeError):
    """March stopped early; carries the trajectory up to the last healthy
    snapshot and the reason."""

    def __init__(self, trajectory, reason: str, time: float):
        self.trajectory = trajectory
        self.reason = reason
        self.time = time
        super().__init__(f"evolution aborted at t={time:.6g}: {reason}")


class StepSizeRefused(EvolutionAbort, ValueError):
    """dt exceeds half the measured stability bound of the explicit
    remainder; raised before the first step, with the initial row attached."""


class PicardDivergenceError(RuntimeError):
    """Whole-window iteration failed to contract; carries the distance log."""

    def __init__(self, log, message: str):
        self.log = list(log)
        super().__init__(message)


@dataclass(frozen=True)
class StepperConfig:
    dt: float
    scheme: str = "etd_rk2"

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")


@dataclass(frozen=True)
class LedgerSpec:
    """What to record at each kept snapshot, in ledger column order.

    derivative_sup: spectral-derivative orders m recorded as d{m}_linf.
    holder_targets: (k, kappa) pairs recorded as holder_column(k, kappa).
    Both are stored sorted and without repeats, as ints and (int, float)
    pairs, so ledger_rows emits its columns in the ledger CSV's order.
    record_theta: None means record theta for models with a theta_cap only.
    stride: keep every stride-th step (the initial and final states are
    always kept).
    """

    stride: int = 1
    derivative_sup: tuple = ()
    holder_targets: tuple = ()
    record_theta: Optional[bool] = None

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        object.__setattr__(self, "derivative_sup", tuple(
            sorted({int(m) for m in self.derivative_sup})))
        object.__setattr__(self, "holder_targets", tuple(sorted(
            {(int(k), float(kappa)) for k, kappa in self.holder_targets})))


def holder_column(k: int, kappa: float) -> str:
    """Column of the C^{k+kappa} seminorm, kappa in shortest exact form."""
    return f"holder_{k}_{float(kappa)!r}"


@dataclass(frozen=True)
class Trajectory:
    snapshots: tuple  # ((t, PeriodicField), ...)
    ledger: dict      # {column: float64 array, one entry per snapshot}, CSV order

    def __post_init__(self):
        times = [t for t, _ in self.snapshots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")
        if not (np.array_equal(self.ledger.get("t", ()), times)
                and all(len(col) == len(times) for col in self.ledger.values())):
            raise ValueError("ledger and snapshots must align")
        for col in self.ledger.values():
            col.flags.writeable = False  # series hands out the columns themselves

    def times(self) -> np.ndarray:
        return self.series("t")

    def final(self) -> PeriodicField:
        return self.snapshots[-1][1]

    def series(self, key: str) -> np.ndarray:
        # an abort before the first kept state leaves no columns
        return self.ledger[key] if self.snapshots else np.empty(0)


@np.errstate(over="ignore", invalid="ignore")  # overflows end in NonFiniteError
def ledger_rows(snaps, spec: LedgerSpec):
    """Diagnostics recorded for a block of snapshots (t, field) on one grid,
    evolve's LEDGER_BLOCK (16) kept states, the theta column aside, built
    together: one rfft and one batched irfft give every derivative row, the
    norms are reductions along each row (one max and one min of a row stack
    give each of its sup columns), and the Holder differences of every
    dyadic shift fill one array.

    Returns (columns, error): {column name: float64 array} in ledger CSV
    order over the leading run of snapshots whose rows can be built, and the
    NonFiniteError of the first that cannot (None when every row is built).
    A row is a pure function of its own snapshot, the same bits in any
    block, so any ledger row can be recomputed bit-identically from its
    field."""
    if not snaps:
        return {}, None
    first = snaps[0][1]
    if first.components > 1 and (spec.derivative_sup or spec.holder_targets):
        raise ValueError("derivative and Holder columns take scalar fields")
    for k, kappa in spec.holder_targets:
        check_holder_target(first.n, k, kappa)
    s = np.array([w.samples for _, w in snaps])
    h = first.spacing
    # one max and one min of a scalar stack serve linf and osc_linf
    extremes = (s.max(axis=-1), s.min(axis=-1)) if first.components == 1 else None
    l2, linf, mean = norm_rows(h, s, extremes)
    cols = {"t": np.array([t for t, _ in snaps], dtype=float), "l2": l2, "linf": linf}
    # (failed rows, message) in the order a row's columns are built, so a
    # row's error is the first of its failures
    failures = [(~(np.isfinite(l2) & np.isfinite(linf)), "norms overflow the float range")]
    if first.components > 1:
        cols.update((f"mean_{i}", mean[:, i]) for i in range(first.components))
    else:
        cols["mean"] = mean
        # max |s - mean|: the extremes of s - mean are those of s, less the
        # mean, rounded alike
        top, bottom = extremes
        cols["osc_linf"] = sup_rows(top - mean, bottom - mean)
        failures.append((~np.isfinite(cols["osc_linf"]),
                         "osc_linf overflows the float range"))
        # every derivative and Holder column comes from one batch; a C^kappa
        # column (k = 0) reads the samples themselves. Each derivative order
        # feeds a d{m}_linf or a Holder column, and a non-finite entry makes
        # that column non-finite, so the columns fail their row for a
        # derivative that overflows, as for a shift difference or a Holder
        # quotient that does
        overflow = np.zeros(len(snaps), dtype=bool)
        orders = sorted({*spec.derivative_sup, *(k for k, _ in spec.holder_targets if k)})
        d = {m: row for m, row in zip(orders, derivative_rows(
            s, first.domain_length, orders))} if orders else {}
        for m in spec.derivative_sup:
            col = cols[f"d{m}_linf"] = sup_rows(d[m].max(axis=-1), d[m].min(axis=-1))
            overflow |= ~np.isfinite(col)
        for k, kappa in spec.holder_targets:
            col = cols[holder_column(k, kappa)] = holder_rows(d[k] if k else s, kappa, h)
            overflow |= np.isnan(col)
        failures.append((overflow, "samples contain NaN/Inf"))
    failed = np.logical_or.reduce([mask for mask, _ in failures])
    built = int(np.argmax(failed)) if failed.any() else len(snaps)
    error = None
    if built < len(snaps):
        error = NonFiniteError(next(msg for mask, msg in failures if mask[built]))
    return {name: col[:built] for name, col in cols.items()}, error


def ledger_entry(t: float, field: PeriodicField, spec: LedgerSpec) -> dict:
    """The ledger row of one snapshot, {column name: float}, the theta
    column aside: ledger_rows of the block (t, field), raising
    NonFiniteError when the row cannot be built. Every ledger row evolve
    writes equals ledger_entry of its snapshot, whichever block built it."""
    cols, error = ledger_rows([(t, field)], spec)
    if error is not None:
        raise error
    return {name: float(col[0]) for name, col in cols.items()}


def _phi1(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    safe = np.where(z == 0.0, 1.0, z)
    out = np.expm1(safe) / safe
    return np.where(z == 0.0, 1.0, out)


def _phi2(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < 1e-4
    safe = np.where(small, 1.0, z)
    out = (np.expm1(safe) - safe) / safe**2
    series = 0.5 + z / 6.0 + z**2 / 24.0
    return np.where(small, series, out)


@model_cache
def _etd_weights(model, n: int, L: float, dt: float, scheme: str):
    """exp(z), dt phi1(z) and, for etd_rk2 only, dt phi2(z) at the frozen
    multiplier z = -dt m(k); the third weight is None otherwise. Cached per
    (model, n, L, dt, scheme) for as long as the model lives, and
    read-only, like grid.wavenumbers."""
    z = -dt * multiplier_table(model, n, L)
    w2 = _read_only(dt * _phi2(z)) if scheme == "etd_rk2" else None
    return _read_only(np.exp(z)), _read_only(dt * _phi1(z)), w2


class StepWork:
    """What every ETD step of one march reads unchanged, the weights E, w1,
    w2 and the derivative table (i k)^m of its rows, and the arrays it
    writes: the stage spectrum and rows, two end slots of a spectrum and
    rows, the product of a spectrum with the table and one spectral
    temporary. Built for one (model, field shape, L, dt, scheme), which
    it records, and check refuses a step asked for any other; a step
    writes its end into the slot that holds neither the spectrum nor the
    rows it was handed, so a march can hand each step what the last one
    returned."""

    def __init__(self, model, u: PeriodicField, dt: float, scheme: str):
        n, L = u.n, u.domain_length
        orders = (0, *model.remainder_orders)
        lead = u.samples.shape[:-1]
        self.model, self.settings = model, (u.samples.shape, L, dt, scheme)
        self.n = n
        self.weights = _etd_weights(model, n, L, dt, scheme)
        # each order's row serves every component
        self.mults = _derivative_table(n, L, orders).reshape(
            len(orders), *(1,) * len(lead), -1)
        spectrum, rows = (*lead, n // 2 + 1), (len(orders), *u.samples.shape)
        self.product = np.empty((len(orders), *spectrum), dtype=complex)
        self.temp = np.empty(spectrum, dtype=complex)
        self.stage = np.empty(spectrum, dtype=complex), np.empty(rows)
        self.ends = tuple((np.empty(spectrum, dtype=complex), np.empty(rows))
                          for _ in range(2))

    def check(self, model, u: PeriodicField, dt: float, scheme: str) -> None:
        """Raise ValueError naming the first setting of a step on model, u,
        dt and scheme that differs from the one this work was built for."""
        settings = (u.samples.shape, u.domain_length, dt, scheme)
        if model is self.model and settings == self.settings:
            return
        if model is not self.model:
            raise ValueError(f"work was built for another model object, not this {model.tag}")
        for name, want, got in zip(("samples shape", "L", "dt", "scheme"),
                                   self.settings, settings):
            if got != want:
                raise ValueError(f"work was built for {name} {want!r}, not {got!r}")

    def rows(self, wh: np.ndarray, out: np.ndarray) -> np.ndarray:
        """grid.spectral_rows of wh written into out: one batched irfft."""
        np.multiply(wh, self.mults, out=self.product)
        return irfft(self.product, self.n, out=out)

    def free_end(self, uh, rows):
        """The end slot holding neither uh nor rows: the other slot when
        they are the last end a step on this work returned."""
        first, second = self.ends
        slot = second if uh is first[0] or rows is first[1] else first
        if uh is slot[0] or rows is slot[1]:
            raise ValueError("uh and rows must come from one step on this work")
        return slot


def imex_frozen_phi_step(u: PeriodicField, model, dt: float,
                         scheme: str = "etd_rk2",
                         uh: Optional[np.ndarray] = None,
                         rows: Optional[np.ndarray] = None,
                         work: Optional[StepWork] = None,
                         r1: Optional[np.ndarray] = None):
    """One step with exact propagation of the frozen linear multiplier and
    an explicit phi-weighted remainder (Euler or ETD-RK2 correction).

    uh is the half spectrum of u, rfft(u) when None, and rows are the rows
    of u its model's remainder reads (models.remainder_from_rows), built
    from uh when None. r1 is the remainder's spectrum at u, which the step
    computes when None; evolve hands its first step the one its dt guard
    took at u0, model.remainder_hat(u0, uh). Returns the new state, the
    spectrum it is the irfft of and its rows, which a march hands to the
    next step; the ETD-RK2 stage likewise reads its own spectrum and rows,
    so neither transforms forward. That spectrum differs from rfft(state)
    at round-off only, since the remainder is the half spectrum of a real
    field and the weights are real. Each stage is one batched irfft of its
    state and rows; a stage must be finite, and only the end state is a
    field. A model whose remainder is None skips the ETD-RK2 stage.

    work (a StepWork for this model, shape, L, dt and scheme; one built
    for anything else raises ValueError) holds the arrays the step writes;
    without it the step allocates its own, so the spectrum and rows it
    returns are fresh. With it they are the work's end slot, which the
    next step but one on the same work overwrites. The step never writes
    into uh, rows or a remainder's spectrum; the state owns a copy of its
    row."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if scheme not in ("imex_frozen_phi", "etd_rk2"):
        raise ValueError("scheme must be imex_frozen_phi or etd_rk2")
    if work is None:
        work = StepWork(model, u, dt, scheme)
    else:
        work.check(model, u, dt, scheme)
    L, (E, w1, w2) = u.domain_length, work.weights
    fh, end = work.free_end(uh, rows)
    if uh is None:
        uh = rfft(u.samples)
    if r1 is None:
        r1 = (model.remainder_hat(u, uh) if rows is None
              else model.remainder_from_rows(rows, uh, L))
    # in the operation order of E * uh + w1 * r1 and ah + w2 * (r2 - r1),
    # so every bit is that of the allocating expressions
    two_stage = w2 is not None and r1 is not None
    ah = work.stage[0] if two_stage else fh
    np.multiply(E, uh, out=ah)
    if r1 is not None:
        ah += np.multiply(w1, r1, out=work.temp)
    if two_stage:
        stage = work.rows(ah, work.stage[1])
        if not _all_finite(stage[0]):
            raise NonFiniteError("samples contain NaN/Inf")
        dr = np.subtract(model.remainder_from_rows(stage, ah, L), r1, out=work.temp)
        np.add(ah, np.multiply(w2, dr, out=dr), out=fh)
    end = work.rows(fh, end)
    if not _all_finite(end[0]):
        raise NonFiniteError("samples contain NaN/Inf")
    # the end state owns its row, as the work's rows are overwritten
    # later, and is checked already, so its construction checks nothing
    return _trusted_field(end[0].copy(), L), fh, end


def _all_finite(x: np.ndarray) -> bool:
    """np.isfinite(x).all(): a finite sum of squares proves every entry
    finite, and only one that is not (an entry NaN or Inf, or an overflow)
    looks at the entries. np.vdot reports no floating-point errors, so a
    step called outside evolve's np.errstate warns of nothing here."""
    return math.isfinite(np.vdot(x, x)) or bool(np.isfinite(x).all())


def check_pointwise(model, n: int, components: int) -> None:
    """Raise ValueError unless frozen_pointwise_step, one row per grid point,
    can march the model (class or instance) on fields of this shape."""
    if components != 1:
        raise ValueError("scheme frozen_pointwise takes scalar 1D fields")
    if n > POINTWISE_MAX_N:
        raise ValueError(f"scheme frozen_pointwise is dense: N must be <= {POINTWISE_MAX_N}")
    if model.coefficient_profile is None:
        raise ValueError(f"scheme frozen_pointwise: {model.tag} has no pointwise symbol")


def frozen_pointwise_step(u: PeriodicField, model, dt: float) -> PeriodicField:
    """One step of the frozen-coefficient method: row i propagates u exactly
    under the symbol frozen at x_i, a(x_i) m(k), and the step reads row i
    at x_i; see check_pointwise for where it applies."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    check_pointwise(model, u.n, u.components)
    a, m, uh, rem = _pointwise_parts(model, u)
    rows = irfft(np.exp(-dt * np.outer(a, m)) * uh, u.n)
    return u.with_samples(np.diagonal(rows) + dt * rem)


def _pointwise_parts(model, u: PeriodicField):
    """Profile a(x), symbol m(k), uh = rfft(u) and the explicit part of a
    frozen_pointwise step: the full right side plus the frozen-symbol action
    a(x) m(k) u that the rows already carry."""
    a = np.asarray(model.coefficient_profile(u), dtype=float)
    m = multiplier_table(model, u.n, u.domain_length)
    uh = rfft(u.samples)
    return a, m, uh, model.rhs(u).samples + a * irfft(uh * m, u.n)


def _stability_bound(model, u0: PeriodicField, config: StepperConfig,
                     r0: Optional[np.ndarray] = None) -> float:
    """Largest step tau for which the remainder's response to a probe dv,
    tau ||dR|| / ||dv||, stays below 1 under the scheme's damping. The ETD
    schemes damp dR by phi1(-tau A) (probed over a dyadic tau window), so a
    stiff remainder with coefficient ratio < 1 reports an unbounded window;
    frozen_pointwise adds dR undamped, so its bound is ||dv|| / ||dR||.
    r0 is the ETD remainder spectrum at u0, model.remainder_hat(u0,
    rfft(u0)), which evolve hands on to its first step; it is computed
    here when None."""
    rng = np.random.default_rng(0)
    scale = 1e-6 * max(float(np.max(np.abs(u0.samples))), 1.0)
    dv = rng.standard_normal(u0.samples.shape) * scale
    probe = u0.with_samples(u0.samples + dv)
    dv_sup = float(np.max(np.abs(dv)))
    if config.scheme == "frozen_pointwise":
        dr_sup = float(np.max(np.abs(
            _pointwise_parts(model, probe)[3] - _pointwise_parts(model, u0)[3])))
        return np.inf if dr_sup == 0.0 else dv_sup / dr_sup
    rh0 = model.remainder_hat(u0, rfft(u0.samples)) if r0 is None else r0
    if rh0 is None:
        return np.inf
    if not np.any(diff_hat := model.remainder_hat(probe, rfft(probe.samples)) - rh0):
        return np.inf
    m = multiplier_table(model, u0.n, u0.domain_length)
    bound = 0.0
    for j in range(-2, 16):
        tau = config.dt * 2.0**j
        resp = irfft(_phi1(-tau * m) * diff_hat, u0.n)
        q = tau * float(np.max(np.abs(resp))) / dv_sup
        if q <= 1.0:
            bound = tau
        elif bound > 0.0:
            break
    return np.inf if bound == config.dt * 2.0**15 else bound


def _n_steps(T: float, dt: float) -> int:
    if not 0 < T < np.inf:
        raise ValueError("T must be positive and finite")
    # T / dt overflows for a subnormal dt: no step count
    n_steps = int(round(T / dt)) if np.isfinite(T / dt) else 0
    if n_steps < 1 or abs(T / dt - n_steps) > 1e-9 * n_steps:
        raise ValueError("T must be an integer number of steps")
    return n_steps


# every non-finite state or ledger row below ends in a typed EvolutionAbort,
# so numpy's overflow and invalid-value warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def evolve(model, u0: PeriodicField, T: float, config: StepperConfig,
           ledger_spec: Optional[LedgerSpec] = None) -> Trajectory:
    """Uniform-dt march to time T. Deterministic; raises EvolutionAbort
    (with the partial trajectory attached) on non-finite values in the
    state or in a ledger row, contour stretch at or beyond the model's
    theta_cap on any accepted state, or a NumericalFailure of the model
    (positivity, a vanishing tangent), and its subclass StepSizeRefused when
    dt fails the stability guard. Any other exception from a step or the
    guard, a NotImplementedError say, propagates unchanged.

    An ETD march runs imex_frozen_phi_step and hands each step the
    spectrum and rows the previous one returned, so only u0 is
    transformed forward, once: its spectrum and the remainder there serve
    both the dt guard and the first step, through the step's r1. It
    allocates one StepWork after the guard, and every step writes its
    stages, rows and temporaries into that; the work's arrays stay inside
    the march, and each state it keeps owns its samples.

    Kept states wait for their ledger rows, which ledger_rows builds in
    blocks: right after the t = 0 row, every LEDGER_BLOCK kept states, at
    the end, and before any exception leaves the march. A pending row that
    cannot be built predates whatever stopped the march, so its abort wins:
    the march ends with the same time, reason and kept rows as if every row
    had been built when its state was accepted."""
    n_steps = _n_steps(T, config.dt)
    if config.scheme == "frozen_pointwise":
        check_pointwise(model, u0.n, u0.components)
    spec = ledger_spec if ledger_spec is not None else LedgerSpec()
    cap = getattr(model, "theta_cap", None)
    want_theta = spec.record_theta if spec.record_theta is not None else cap is not None

    snaps, blocks, pending = [], [], []  # pending: (t, state, theta) awaiting rows

    def kept():
        return Trajectory(tuple(snaps), {name: np.concatenate([b[name] for b in blocks])
                                         for name in (blocks[0] if blocks else ())})

    def flush():
        if not pending:
            return
        cols, error = ledger_rows([(t, w) for t, w, _ in pending], spec)
        built, rest = pending[:len(cols["t"])], pending[len(cols["t"]):]
        pending.clear()
        if want_theta:
            cols["theta"] = np.array([theta for _, _, theta in built], dtype=float)
        blocks.append(cols)
        snaps.extend((t, w) for t, w, _ in built)
        if error is not None:
            # a finite state whose derivatives overflow is a numerical
            # abort, not a config error
            raise EvolutionAbort(kept(), "non-finite values in a ledger row",
                                 rest[0][0]) from error

    def abort(reason, t):
        flush()
        return EvolutionAbort(kept(), reason, t)

    def accept(t, w, keep):
        # the one stretch measurement of each accepted state serves both
        # the cap and the ledger's theta column
        theta = stretch_ratio(w) if want_theta or cap is not None else None
        if cap is not None and not theta < cap:
            raise abort(f"stretch ratio {theta:.3g} reached the cap {cap:.3g}", t)
        if keep:
            pending.append((t, w, theta))
            if len(pending) == LEDGER_BLOCK:
                flush()

    accept(0.0, u0, True)
    flush()
    pointwise = config.scheme == "frozen_pointwise"
    uh = r1 = None
    try:
        if not pointwise:
            uh = rfft(u0.samples)
            r1 = model.remainder_hat(u0, uh)
        bound = _stability_bound(model, u0, config, r1)
    except (NumericalFailure, NonFiniteError, FloatingPointError) as exc:
        raise EvolutionAbort(kept(), str(exc), 0.0) from exc
    if not config.dt <= 0.5 * bound:
        raise StepSizeRefused(
            kept(),
            f"dt={config.dt:.3e} exceeds half the measured stability bound "
            f"{bound:.3e} for the explicit remainder", 0.0)
    u, urows = u0, None
    work = None if pointwise else StepWork(model, u0, config.dt, config.scheme)
    try:
        for j in range(1, n_steps + 1):
            t = j * config.dt
            try:
                if pointwise:
                    u = frozen_pointwise_step(u, model, config.dt)
                else:
                    # through the module binding, positionally, as a
                    # tracer or a test that wraps the step calls it
                    u, uh, urows = imex_frozen_phi_step(
                        u, model, config.dt, config.scheme, uh, urows, work, r1)
                    r1 = None
            except (NumericalFailure, FloatingPointError) as exc:
                raise abort(str(exc), t) from exc
            except NonFiniteError as exc:
                # field construction rejects NaN/Inf, so numeric blowup inside
                # a step or a model evaluation surfaces here
                raise abort("non-finite values in the state", t) from exc
            accept(t, u, j % spec.stride == 0 or j == n_steps)
    except Exception:
        # a model's own ValueError, say: the pending rows still come first
        flush()
        raise
    flush()
    return kept()


def _picard_apply(model, g_snaps, config: StepperConfig):
    """One application of the whole-window map: solve the linear problem
    d/dt f = -A f + R(g(t)) with the same exponential weights as evolve."""
    u0 = g_snaps[0][1]
    E, w1, w2 = _etd_weights(model, u0.n, u0.domain_length, config.dt, config.scheme)
    r_hats = [model.remainder_hat(w, rfft(w.samples)) for _, w in g_snaps]
    r_hats = [0.0 if r is None else r for r in r_hats]
    source_free = not any(np.any(r) for r in r_hats)
    out = [g_snaps[0]]
    fh = rfft(u0.samples)
    for j in range(len(g_snaps) - 1):
        fh = E * fh + w1 * r_hats[j]
        if w2 is not None:
            fh = fh + w2 * (r_hats[j + 1] - r_hats[j])
        t = g_snaps[j + 1][0]
        out.append((t, u0.with_samples(irfft(fh, u0.n))))
    return out, source_free


def picard_solve(model, u0: PeriodicField, T: float, config: StepperConfig):
    """Iterate the whole-window map from the constant-in-time trajectory.

    Returns (Trajectory, contraction_log) where the log holds the
    successive-iterate sup distances. Raises PicardDivergenceError (log
    attached) when the ratio is >= 1 three times in a row or the iteration
    budget runs out; contraction is a property of the window length, so
    the caller should retry on a shorter window. Only the ETD schemes have
    a whole-window map; frozen_pointwise raises ValueError.
    """
    if config.scheme not in ("imex_frozen_phi", "etd_rk2"):
        raise ValueError("picard_solve takes scheme imex_frozen_phi or etd_rk2")
    g = [(j * config.dt, u0) for j in range(_n_steps(T, config.dt) + 1)]
    log = []
    prev = None
    rising = 0
    for _ in range(MAX_PICARD_ITERS):
        f, source_free = _picard_apply(model, g, config)
        d = max(float(np.max(np.abs(wf.samples - wg.samples)))
                for (_, wf), (_, wg) in zip(f, g))
        log.append(d)
        g = f
        # a remainder that vanishes identically on the window makes the map
        # constant, so its first output is already the fixed point
        if d < PICARD_TOL or source_free:
            cols, error = ledger_rows(g, LedgerSpec())
            if error is not None:
                raise error
            return Trajectory(tuple(g), cols), log
        if prev is not None and prev > 0 and d / prev >= 1.0:
            rising += 1
            if rising >= 3:
                raise PicardDivergenceError(
                    log, "successive-iterate distances rose three times in a "
                         "row; shorten the window")
        elif prev is not None:
            rising = 0
        prev = d
    raise PicardDivergenceError(
        log, f"no contraction to tol within {MAX_PICARD_ITERS} iterates")
