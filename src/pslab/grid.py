"""Periodic grids, discrete Fourier calculus, and norm estimators.

Fields live on a uniform grid over the torus [0, L) with N a power of two.
They are real, so a spectrum is the half spectrum ``rfft(u)`` of modes
n = 0..N/2 (unnormalized; ``irfft(modes, N)`` inverts it with 1/N and drops
the imaginary part of modes 0 and N/2). Applying a real operator's symbol
m(k) means ``modes[n] *= m(k_n)`` and nothing else, at the physical
wavenumbers k_n = 2*pi*n/L (Nyquist at +N/2) on which every table is built.
Every field derivative, scalar or contour, is a row of ``derivatives``, or
of ``derivative_rows`` for a stack of fields, or of ``spectral_rows`` from a
spectrum.

``rfft`` and ``irfft`` here are the one transform route of the package:
every forward and inverse transform calls numpy's pocketfft gufuncs
through them, bit for bit ``np.fft.rfft``/``np.fft.irfft`` on the last axis
without that wrapper's per-call work, and this is the only module that
names ``numpy.fft``. The gufuncs, like the FFT ``out=`` argument the march
writes its work arrays through, came with numpy 2.0, hence that floor.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Optional

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

TWO_PI = 2.0 * np.pi
# the gufuncs' axes argument: transform the last axis of the input into the
# last axis of the output; the normalization factor is a scalar
_LAST_AXIS = [(-1,), (), (-1,)]


def on_two_pi_torus(length: float) -> bool:
    """Whether a period is 2pi to an absolute 1e-12, as torus folds assume."""
    return abs(length - TWO_PI) <= 1e-12


class NonFiniteError(ValueError):
    """A field was built from samples holding NaN or Inf, or a diagnostic of
    a finite field overflows the float range."""


class NumericalFailure(RuntimeError):
    """A state the equations cannot continue from, though it is finite: the
    model-level failures a march aborts on, as it does on NonFiniteError and
    FloatingPointError."""


@dataclass(frozen=True)
class PeriodicField:
    """Uniformly sampled real field on the 1D torus.

    Parameters
    ----------
    samples : ndarray
        Real, shape (N,) for a scalar field or (c, N) with 2 <= c < 16 for
        a multi-component field (e.g. a planar curve with c=2).
    domain_length : float
        Period L of the torus, default 2*pi.

    Invariants: N is a power of two with N >= 16, L is positive and
    finite, and every sample is finite. All are checked at construction (a
    non-finite sample raises NonFiniteError), with one private exception:
    the states an ETD march computes, which its step has already checked,
    are built by _trusted_field. Operations in this module return new
    fields, never mutate.
    """

    samples: np.ndarray
    domain_length: float = TWO_PI

    def __post_init__(self):
        arr = np.asarray(self.samples)
        if arr.dtype.kind == "c":
            raise ValueError("samples must be real")
        arr = np.asarray(arr, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim not in (1, 2):
            raise ValueError("samples must have shape (N,) or (c, N)")
        if arr.ndim == 2 and not 2 <= arr.shape[0] < 16:
            raise ValueError("a (c, N) field needs 2 <= c < 16 components")
        n = arr.shape[-1]
        if n < 16 or n & (n - 1):
            raise ValueError(f"N must be a power of two >= 16, got {n}")
        if not np.isfinite(arr).all():
            raise NonFiniteError("samples contain NaN/Inf")
        if not 0 < self.domain_length < math.inf:
            raise ValueError("domain_length must be positive and finite")

    @property
    def n(self) -> int:
        return self.samples.shape[-1]

    @property
    def components(self) -> int:
        return 1 if self.samples.ndim == 1 else self.samples.shape[0]

    @property
    def spacing(self) -> float:
        return self.domain_length / self.n

    def nodes(self) -> np.ndarray:
        return np.arange(self.n) * self.spacing

    def with_samples(self, samples) -> "PeriodicField":
        return PeriodicField(samples, self.domain_length)


def _trusted_field(samples: np.ndarray, L: float) -> PeriodicField:
    """PeriodicField(samples, L) without its checks, for samples its caller
    has already checked: float64, owned, of a valid shape and finite, on
    the period of a field. Only the ETD step's end state and the generic
    remainder's field of a checked row are built this way."""
    field = object.__new__(PeriodicField)
    object.__setattr__(field, "samples", samples)
    object.__setattr__(field, "domain_length", L)
    return field


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _check_out(out: np.ndarray, shape: tuple, dtype) -> None:
    # the gufuncs fill an out of any length and broadcast into extra axes
    if out.shape != shape or out.dtype != dtype:
        raise ValueError(f"out must have shape {shape} and dtype {np.dtype(dtype)}, "
                         f"got {out.shape} and {out.dtype}")


def rfft(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Half spectrum of x along its last axis: np.fft.rfft(x, axis=-1) bit
    for bit, in double precision. out, when given, must have x's leading
    shape, N/2 + 1 modes and dtype complex128, or ValueError is raised;
    otherwise a fresh array is returned."""
    n = x.shape[-1]
    shape = (*x.shape[:-1], n // 2 + 1)
    if out is None:
        out = np.empty(shape, dtype=complex)
    else:
        _check_out(out, shape, complex)
    # the even-length gufunc gives wrong values on an odd length
    gufunc = _pocketfft.rfft_n_even if n % 2 == 0 else _pocketfft.rfft_n_odd
    return gufunc(x, 1.0, axes=_LAST_AXIS, out=out)


def irfft(xh: np.ndarray, n: int, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Real field of n samples whose half spectrum is xh along its last
    axis, scaled by 1/n: np.fft.irfft(xh, n, axis=-1) bit for bit, in
    double precision. out, when given, must have xh's leading shape, n
    samples and dtype float64, or ValueError is raised; otherwise a fresh
    array is returned."""
    shape = (*xh.shape[:-1], n)
    if out is None:
        out = np.empty(shape)
    else:
        _check_out(out, shape, float)
    return _pocketfft.irfft(xh, 1.0 / n, axes=_LAST_AXIS, out=out)


@lru_cache(maxsize=32)
def wavenumbers(n: int, L: float = TWO_PI) -> np.ndarray:
    """Physical wavenumbers k_n = 2*pi*n/L, n = 0..N/2 (rfftfreq order); on
    the default 2pi-torus these are the integer frequencies themselves.

    The table is cached per (n, L) and shared by every caller, so it is
    read-only: derive new arrays from it, never write into it.
    """
    return _read_only(np.fft.rfftfreq(n, d=1.0 / n) * (TWO_PI / L))


# a transform or product that overflows gives a field that its construction
# rejects with NonFiniteError, so numpy's warnings would only repeat that
@np.errstate(over="ignore", invalid="ignore")
def apply_multiplier(field: PeriodicField, mult: np.ndarray) -> PeriodicField:
    """Multiply every component's half spectrum by mult (on the wavenumbers
    table) and transform back."""
    return field.with_samples(irfft(rfft(field.samples) * mult, field.n))


def fractional_laplacian(field: PeriodicField, a: float) -> PeriodicField:
    """Apply Lambda^a = (-Delta)^{a/2}, the multiplier |k|^a.

    The zero mode is annihilated: |0|^a = 0 by convention for every a > 0.

    Parameters
    ----------
    field : PeriodicField
        Scalar or multi-component field; components transform separately.
    a : float
        Positive, finite order; anything else is rejected.
    """
    if not 0 < a < math.inf:
        raise ValueError(f"order a must satisfy 0 < a < inf, got {a!r}")
    k = wavenumbers(field.n, field.domain_length)
    return apply_multiplier(field, np.abs(k) ** a)


@lru_cache(maxsize=32)
def _derivative_table(n: int, L: float, orders: tuple) -> np.ndarray:
    """Rows (i k)^m on the wavenumbers for m in orders, the Nyquist mode
    zeroed for odd m, the usual convention that keeps odd derivatives of
    real fields real. Cached per (n, L, orders) and read-only, like
    wavenumbers."""
    table = np.stack([(1j * wavenumbers(n, L)) ** m for m in orders])
    table[np.array(orders) % 2 == 1, -1] = 0.0
    return _read_only(table)


@lru_cache(maxsize=32)
def _dealiased_derivative_table(n: int, L: float) -> np.ndarray:
    """The first-derivative row of _derivative_table with the modes above
    N/3 zeroed (_dealias_mask): dealiasing then differentiating as one
    multiplier. Cached per (n, L) and read-only, like wavenumbers."""
    return _read_only(_dealias_mask(n) * _derivative_table(n, L, (1,))[0])


@np.errstate(over="ignore", invalid="ignore")  # as in apply_multiplier
def derivatives(field: PeriodicField, orders) -> np.ndarray:
    """d^m/dx^m of every component for each m in orders, shape
    (len(orders), *field.samples.shape): see derivative_rows. Raises
    NonFiniteError when a derivative overflows."""
    if min(orders) < 0:
        raise ValueError("derivative orders must be >= 0")
    rows = derivative_rows(field.samples, field.domain_length, orders)
    if not np.isfinite(rows).all():
        raise NonFiniteError("samples contain NaN/Inf")
    return rows


def derivative_rows(samples: np.ndarray, L: float, orders) -> np.ndarray:
    """d^m/dx^m along the last axis of samples on period L for each m in
    orders, shape (len(orders), *samples.shape): spectral_rows of one rfft.
    Run under np.errstate: overflows are left in place for the caller."""
    return spectral_rows(rfft(samples), samples.shape[-1], L, orders)


def spectral_rows(wh: np.ndarray, n: int, L: float, orders) -> np.ndarray:
    """irfft(wh * (i k)^m, n) for each m in orders on period L, shape
    (len(orders), *wh.shape[:-1], n), from one batched irfft. Each row is
    bit for bit the irfft of its own product; order 0 gives irfft(wh, n)."""
    mults = _derivative_table(n, L, tuple(orders))
    # each order's row serves every leading index of wh
    mults = mults.reshape(len(mults), *(1,) * (wh.ndim - 1), -1)
    return irfft(wh * mults, n)


def model_cache(build):
    """Cache build(model, *key) per model and key, in a table that dies
    with its model: a finished model and its tables are not kept alive by
    the cache, as an lru_cache keyed by the instance would keep them. The
    undecorated builder is the wrapper's __wrapped__."""
    tables = weakref.WeakKeyDictionary()

    @wraps(build)
    def cached(model, *key):
        per_model = tables.setdefault(model, {})
        if key not in per_model:
            per_model[key] = build(model, *key)
        return per_model[key]

    return cached


@model_cache
def multiplier_table(model, n: int, L: float) -> np.ndarray:
    """model.linear_multiplier on wavenumbers(n, L): read-only and cached
    per (model, n, L), like that table, for as long as the model lives."""
    return _read_only(model.linear_multiplier(wavenumbers(n, L)))


def hilbert_transform(field: PeriodicField) -> PeriodicField:
    """Periodic Hilbert transform, multiplier -i*sign(n) on every component.

    The sign convention is the one derived from principal-value quadrature
    of the convolution against (1/2pi) cot(alpha/2); the quadrature oracle
    is a permanent regression test. Under it, H(sin) = -cos and the
    composition H o d/dx equals Lambda. Mode 0 is annihilated.
    """
    return apply_multiplier(field, _hilbert_multiplier(field.n))


@lru_cache(maxsize=32)
def _hilbert_multiplier(n: int) -> np.ndarray:
    """-i sign(k), zero at modes 0 and N/2; cached read-only per n."""
    mult = -1j * np.sign(wavenumbers(n))
    mult[-1] = 0.0
    return _read_only(mult)


def shift_windows(x: np.ndarray) -> np.ndarray:
    """Read-only view w with w[..., k, i] = x[..., (i + k) % N], k = 0..N:
    the length-N windows of x doubled along its last axis, so that a run of
    consecutive shifts reads one strided slice and no index table.

    The view is numpy's sliding_window_view of the doubled samples, its
    shape and strides included, made by one ndarray call on their buffer:
    window k starts k entries into a row, so both window axes step one
    entry."""
    doubled = np.concatenate([x, x], axis=-1)
    n, step = x.shape[-1], doubled.strides[-1]
    return _read_only(np.ndarray((*x.shape[:-1], n + 1, n), doubled.dtype, doubled,
                                 strides=(*doubled.strides[:-1], step, step)))


@lru_cache(maxsize=32)
def _holder_shifts(n: int) -> np.ndarray:
    """Dyadic shifts j = 1, 2, 4, ..., N/4; cached read-only per n."""
    return _read_only(2 ** np.arange(n.bit_length() - 2))


def check_holder_target(n: int, k: int, kappa: float) -> None:
    """Raise ValueError unless the ledger's Holder shifts can estimate the
    C^{k+kappa} seminorm of a field of n samples."""
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0,1)")
    if k < 0:
        raise ValueError("k must be >= 0")
    if k + 2 > n // 4:
        raise ValueError("derivative order not resolvable at this N")


def holder_rows(d: np.ndarray, kappa: float, h: float) -> np.ndarray:
    """max_j ||d - d(. - j h)||_inf / (j h)^kappa over the dyadic shifts for
    each row of d, shape (B, N), on spacing h; NaN where a row holds a
    non-finite entry, or where a difference or its quotient by (j h)^kappa
    overflows. Run under np.errstate.

    The shifted rows are plain slices of one copy of d doubled along its
    last axis; the log2(N) - 2 shifts read too few of the N + 1 windows of
    shift_windows to pay for its view.

    The estimate is monotone nondecreasing as shifts are added and differs
    from the continuum C^{k+kappa} seminorm by an O(1) constant, so the
    slopes of rate fits are unaffected."""
    n = d.shape[-1]
    shifts = _holder_shifts(n)
    doubled = np.concatenate([d, d], axis=-1)
    # one (shifts, B, N) array of the differences, shift j's against
    # doubled[..., N - j:2N - j], which reads x - j h; then one abs and one
    # max over it
    diffs = np.empty((len(shifts), *d.shape))
    for i, j in enumerate(shifts):
        np.subtract(d, doubled[..., n - j:2 * n - j], out=diffs[i])
    sups = np.abs(diffs, out=diffs).max(axis=-1)
    # (j h)^kappa by Python's pow: np.power rounds some of them differently
    divisors = np.array([(h * int(j)) ** kappa for j in shifts])
    values = np.max(sups / divisors[:, None], axis=0)
    # np.max carries an overflowed difference (inf, or NaN from inf - inf)
    # into its row, and a finite difference can overflow its quotient
    values[~np.isfinite(values)] = np.nan
    return values


def sup_rows(top: np.ndarray, bottom: np.ndarray) -> np.ndarray:
    """max |x| along the last axis of x from top = x.max(-1) and bottom =
    x.min(-1): |max(top, -bottom)|, bit for bit np.max(np.abs(x), -1).
    max and min pick entries and negation is exact, so no value is rounded;
    the outer abs maps a -0.0 to 0.0 and clears the sign of a NaN, which
    any NaN in the row gives."""
    sup = np.negative(bottom)
    np.maximum(top, sup, out=sup)
    return np.abs(sup, out=sup)


@np.errstate(over="ignore", invalid="ignore")  # overflows are left non-finite
def norm_rows(w: float, s: np.ndarray, extremes=None):
    """Grid L2 (uniform trapezoid weights), sup norm and mean of each field
    in a stack s of shape (B, N) or (B, c, N) on spacing w: arrays of shape
    (B,), (B,) and (B,) or (B, c); a contour's l2 and linf take the
    pointwise Euclidean magnitude. A (B, N) stack's linf is sup_rows of its
    row extremes, which a caller that already holds them passes as extremes
    = (s.max(-1), s.min(-1)). A row whose norms overflow is measured again
    in units of its largest entry and left non-finite if they overflow even
    so."""
    l2, linf, mean = _l2_linf_mean(w, s, extremes)
    # a sum of |s| can only overflow where the sum of squares already has
    for b in np.flatnonzero(~(np.isfinite(l2) & np.isfinite(linf))):
        top = np.max(np.abs(s[b]))
        scaled = _l2_linf_mean(w, s[b:b + 1] / top)
        l2[b], linf[b] = top * scaled[0][0], top * scaled[1][0]
        mean[b] = np.where(np.isfinite(mean[b]), mean[b], top * scaled[2][0])
    return l2, linf, mean


def _l2_linf_mean(w: float, s: np.ndarray, extremes=None):
    mean = np.mean(s, axis=-1)
    if s.ndim > 2:
        mag2 = np.sum(s**2, axis=1)
        return np.sqrt(w * np.sum(mag2, axis=-1)), np.sqrt(np.max(mag2, axis=-1)), mean
    top, bottom = extremes or (s.max(axis=-1), s.min(axis=-1))
    return np.sqrt(w * np.sum(s**2, axis=-1)), sup_rows(top, bottom), mean


@lru_cache(maxsize=32)
def _dealias_mask(n: int) -> np.ndarray:
    return _read_only(np.abs(wavenumbers(n)) <= n / 3.0)
