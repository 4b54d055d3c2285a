"""Least-squares rate extraction from trajectory ledgers: power-law and
exponential fits, smoothing-rate reports against the t^{-(k+kappa)/s}
scale, and contraction summaries for whole-window iteration logs.

Sign conventions: a power-law fit returns the log-log slope itself (decay
is negative); an exponential fit returns the decay rate, so growth comes
out negative. Both are stated in each record's kind field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .stepper import holder_column

DEFAULT_KAPPA_SURROGATE = 0.05


@dataclass(frozen=True)
class RateFit:
    kind: str
    estimate: float
    stderr: float
    r_squared: float
    window: Tuple[float, float]
    n_points: int

    def __post_init__(self):
        if self.kind not in ("power_law", "exponential"):
            raise ValueError("kind must be power_law or exponential")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError("r_squared must lie in [0, 1]")
        if self.n_points < 4:
            raise ValueError("a rate fit needs at least 4 points")
        if not self.window[0] < self.window[1]:
            raise ValueError("window must be increasing")


@dataclass(frozen=True)
class SmoothingRate:
    """One smoothing-rate fit with the expected theorem-scale exponent
    -(k+kappa)/s attached; source names the ledger column that was fitted
    (a derivative sup stands in for the Holder seminorm at kappa near 0)."""

    fit: RateFit
    k: int
    kappa: float
    expected_exponent: float
    source: str


@dataclass(frozen=True)
class ContractionReport:
    max_ratio: float
    geometric_factor: float
    r_squared: float
    n_iterates: int
    contractive: bool


def _least_squares(x: np.ndarray, y: np.ndarray):
    n = len(x)
    xm, ym = np.mean(x), np.mean(y)
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise ValueError("fit abscissae are degenerate")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    res = y - (slope * x + intercept)
    ss_res = float(np.sum(res**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if ss_tot <= 1e-30 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    stderr = np.sqrt(ss_res / (n - 2) / sxx) if n > 2 else 0.0
    return slope, float(stderr), r2


def default_window(times: np.ndarray) -> Tuple[float, float]:
    """Early-time window [10 dt, T/10] from the ledger spacing; rate fits
    record whichever window they actually used."""
    times = np.asarray(times, dtype=float)
    if len(times) < 2:
        raise ValueError("need at least two times")
    dt = float(np.min(np.diff(times)))
    return (10.0 * dt, float(times.max()) / 10.0)


def _select(times, values, window):
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError("times and values must align")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if window is None:
        window = default_window(times)
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError("window must be increasing")
    if lo < float(times.min()) or hi > float(times.max()):
        raise ValueError("window must lie inside the sampled span")
    mask = (times >= lo) & (times <= hi)
    if int(mask.sum()) < 4:
        raise ValueError("window holds fewer than 4 points")
    if not np.isfinite(values[mask]).all():
        raise ValueError("window holds non-finite values")
    return times[mask], values[mask], (lo, hi)


def fit_power_law(times, values, window=None) -> RateFit:
    """Slope of log(value) against log(t) over the window."""
    t, v, win = _select(times, values, window)
    if np.any(t <= 0):
        raise ValueError("power-law fits need positive times")
    if np.any(v <= 0):
        raise ValueError("power-law fits need positive values")
    slope, stderr, r2 = _least_squares(np.log(t), np.log(v))
    return RateFit("power_law", slope, stderr, r2, win, len(t))


def fit_exponential(times, values, window=None) -> RateFit:
    """Decay rate from the slope of log(value) against t; growth reports a
    negative rate rather than an error."""
    t, v, win = _select(times, values, window)
    if np.any(v <= 0):
        raise ValueError("exponential fits need positive values")
    slope, stderr, r2 = _least_squares(t, np.log(v))
    return RateFit("exponential", -slope, stderr, r2, win, len(t))


def smoothing_report(traj, s: float, targets: Sequence[Tuple[int, float]],
                     window: Optional[Tuple[float, float]] = None):
    """Power-law fits of ledgered regularity estimates over an early-time
    window, one per (k, kappa) target, each with its expected exponent
    -(k+kappa)/s (the instant-smoothing scale for data with one bounded
    derivative). A kappa at or below 0.05 selects the d{k+1}_linf
    derivative-sup column as the seminorm surrogate."""
    if not 0 < s < np.inf:
        raise ValueError("order s must be positive and finite")
    out = []
    for k, kappa in targets:
        k, kappa = int(k), float(kappa)
        if kappa <= DEFAULT_KAPPA_SURROGATE:
            key = f"d{k + 1}_linf"
        else:
            key = holder_column(k, kappa)
        if key not in traj.ledger:
            raise ValueError(f"ledger does not carry {key}")
        fit = fit_power_law(traj.ledger["t"], traj.ledger[key], window)
        out.append(SmoothingRate(fit=fit, k=k, kappa=kappa,
                                 expected_exponent=-(k + kappa) / s,
                                 source=key))
    return out


def contraction_report(contraction_log: Sequence[float]) -> ContractionReport:
    """Max successive ratio and geometric-decay fit of iterate distances.

    The log is the list of successive-iterate distances from picard_solve;
    a trailing exact zero (identically satisfied fixed point) is dropped
    before fitting. Non-contractive means some successive ratio reached 1.
    """
    d = np.asarray(list(contraction_log), dtype=float)
    if len(d) < 3:
        raise ValueError("need at least 3 iterate distances")
    if not np.all(np.isfinite(d) & (d >= 0)):
        raise ValueError("distances must be finite and nonnegative, not NaN or inf")
    while len(d) > 0 and d[-1] == 0.0:
        d = d[:-1]
    if len(d) < 3:
        raise ValueError("need at least 3 nonzero iterate distances")
    if np.any(d == 0.0):
        raise ValueError("interior zero distances leave ratios undefined")
    ratios = d[1:] / d[:-1]
    max_ratio = float(np.max(ratios))
    idx = np.arange(len(d), dtype=float)
    slope, _, r2 = _least_squares(idx, np.log(d))
    return ContractionReport(
        max_ratio=max_ratio,
        geometric_factor=float(np.exp(slope)),
        r_squared=r2,
        n_iterates=len(d),
        contractive=max_ratio < 1.0,
    )
