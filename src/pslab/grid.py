"""Periodic grids, discrete Fourier calculus, and norm estimators.

Fields live on a uniform grid over the torus [0, L) with N a power of two.
The transform convention is the unnormalized forward FFT with 1/N inverse,
so multiplier actions are normalization free: applying a symbol m(k) means
``modes[n] *= m(2*pi*n/L)`` and nothing else.

Wavenumbers are the physical ones, k_n = 2*pi*n/L for integer n in
[-N/2, N/2), stored in FFT order.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace

import numpy as np

TWO_PI = 2.0 * np.pi

# Relative spectral-tail energy above which a derivative is flagged as
# under-resolved by holder_seminorm.
TAIL_ENERGY_THRESHOLD = 1e-8


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


class NonFiniteError(ValueError):
    """A field was built from samples holding NaN or Inf."""


@dataclass(frozen=True)
class PeriodicField:
    """Uniformly sampled real field on the 1D torus.

    Parameters
    ----------
    samples : ndarray
        Shape (N,) for a scalar field, or (c, N) with small c for a
        multi-component field (e.g. a planar curve with c=2).
    domain_length : float
        Period L of the torus, default 2*pi.

    Invariants: N is a power of two with N >= 16, and every sample is
    finite. Both are checked at construction (a non-finite sample raises
    NonFiniteError); operations in this module return new fields, never
    mutate.
    """

    samples: np.ndarray
    domain_length: float = TWO_PI

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=float)
        object.__setattr__(self, "samples", arr)
        if arr.ndim not in (1, 2):
            raise ValueError("samples must have shape (N,) or (c, N)")
        if arr.ndim == 2 and arr.shape[0] >= 16:
            raise ValueError("component count must be small")
        n = arr.shape[-1]
        if not _is_power_of_two(n) or n < 16:
            raise ValueError(f"N must be a power of two >= 16, got {n}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("samples contain NaN/Inf")
        if self.domain_length <= 0:
            raise ValueError("domain_length must be positive")

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
        return replace(self, samples=samples)


@dataclass(frozen=True)
class SpectralCoeffs:
    """Fourier modes of a real field, unnormalized forward convention.

    ``modes[n]`` multiplies e^{i k_n x} / N after the inverse transform,
    with integer frequencies in FFT order (0, 1, ..., N/2-1, -N/2, ..., -1).
    Conjugate symmetry mode(-n) = conj(mode(n)) holds for real fields.
    """

    modes: np.ndarray
    domain_length: float = TWO_PI

    @property
    def n(self) -> int:
        return self.modes.shape[-1]


def wavenumbers(n: int, L: float = TWO_PI) -> np.ndarray:
    """Physical wavenumbers k_n = 2*pi*n/L in FFT order; on the default
    2pi-torus these are the integer frequencies themselves."""
    return np.fft.fftfreq(n, d=1.0 / n) * (TWO_PI / L)


def to_spectral(field: PeriodicField) -> SpectralCoeffs:
    """Forward DFT along the last axis (unnormalized; inverse divides by N);
    multi-component fields transform componentwise."""
    modes = np.fft.fft(field.samples, axis=-1)
    return SpectralCoeffs(modes=modes, domain_length=field.domain_length)


def to_physical(coeffs: SpectralCoeffs) -> PeriodicField:
    """Inverse DFT; discards the imaginary round-off of real fields."""
    samples = np.fft.ifft(coeffs.modes, axis=-1)
    return PeriodicField(samples=samples.real, domain_length=coeffs.domain_length)


def apply_multiplier(field: PeriodicField, mult: np.ndarray) -> PeriodicField:
    """Multiply every component's modes by mult (FFT order) and transform
    back, keeping the real part."""
    modes = np.fft.fft(field.samples, axis=-1)
    out = np.fft.ifft(modes * mult, axis=-1).real
    return field.with_samples(out)


def fractional_laplacian(field: PeriodicField, a: float) -> PeriodicField:
    """Apply Lambda^a = (-Delta)^{a/2}, the multiplier |k|^a.

    The zero mode is annihilated: |0|^a = 0 by convention for every a > 0.

    Parameters
    ----------
    field : PeriodicField
        Scalar or multi-component field; components transform separately.
    a : float
        Positive order. a <= 0 is rejected.
    """
    if a <= 0:
        raise ValueError("order a must be positive")
    k = wavenumbers(field.n, field.domain_length)
    return apply_multiplier(field, np.abs(k) ** a)


def spectral_derivative(field: PeriodicField, order: int = 1) -> PeriodicField:
    """d^order/dx^order via the multiplier (i k)^order.

    For odd orders the Nyquist mode is zeroed, the usual convention that
    keeps odd derivatives of real fields real.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    k = wavenumbers(field.n, field.domain_length)
    mult = (1j * k) ** order
    if order % 2 == 1:
        mult[field.n // 2] = 0.0
    return apply_multiplier(field, mult)


def hilbert_transform(field: PeriodicField) -> PeriodicField:
    """Periodic Hilbert transform, multiplier -i*sign(n).

    The sign convention is the one derived from principal-value quadrature
    of the convolution against (1/2pi) cot(alpha/2); the quadrature oracle
    is a permanent regression test. Under it, H(sin) = -cos and the
    composition H o d/dx equals Lambda. Mode 0 is annihilated.
    """
    if field.components != 1:
        raise ValueError("hilbert_transform takes a scalar 1D field")
    n = field.n
    mult = -1j * np.sign(wavenumbers(n))
    mult[n // 2] = 0.0  # unpaired Nyquist mode, keep output real
    return apply_multiplier(field, mult)


def shift(field: PeriodicField, alpha: float) -> PeriodicField:
    """Band-limited evaluation of x -> field(x - alpha) for arbitrary alpha.

    Grid multiples reduce to an exact roll; other shifts use the Fourier
    phase e^{-i k alpha}, exact for band-limited data.
    """
    j = alpha / field.spacing
    j_round = int(np.round(j))
    if abs(j - j_round) < 1e-12:
        return field.with_samples(np.roll(field.samples, j_round, axis=-1))
    k = wavenumbers(field.n, field.domain_length)
    return apply_multiplier(field, np.exp(-1j * k * alpha))


def finite_difference(field: PeriodicField, alpha: float, flavor: str = "delta") -> PeriodicField:
    """Finite differences with periodic wraparound.

    flavor:
      "delta"  delta_alpha f(x) = f(x) - f(x - alpha)
      "Delta"  delta_alpha f(x) / alpha            (signed slope, 1D)
      "O"      (2 f(x) - f(x+alpha) - f(x-alpha)) / |alpha|

    alpha must be a multiple of the grid spacing (no interpolation); zero
    alpha is rejected for the divided flavors.
    """
    h = field.spacing
    j = alpha / h
    j_round = int(np.round(j))
    if abs(j - j_round) > 1e-9:
        raise ValueError("alpha must be a multiple of the grid spacing")
    if flavor == "delta":
        back = np.roll(field.samples, j_round, axis=-1)
        return field.with_samples(field.samples - back)
    if j_round == 0:
        raise ValueError(f"alpha=0 invalid for flavor {flavor!r}")
    if flavor == "Delta":
        back = np.roll(field.samples, j_round, axis=-1)
        return field.with_samples((field.samples - back) / (j_round * h))
    if flavor == "O":
        back = np.roll(field.samples, j_round, axis=-1)
        fwd = np.roll(field.samples, -j_round, axis=-1)
        return field.with_samples((2.0 * field.samples - fwd - back) / abs(j_round * h))
    raise ValueError(f"unknown flavor {flavor!r}")


@dataclass(frozen=True)
class HolderEstimate:
    """Discrete Holder seminorm surrogate.

    value = max over the tested shifts h of ||delta_h grad^k u||_inf / h^kappa.
    The estimate is monotone nondecreasing as shifts are added, and differs
    from the continuum seminorm by an O(1) constant; slopes of rate fits
    are unaffected.
    """

    k: int
    kappa: float
    value: float
    scales_used: tuple = dc_field(default_factory=tuple)
    under_resolved: bool = False


def holder_seminorm(field: PeriodicField, k: int, kappa: float) -> HolderEstimate:
    """Estimate the C^{k+kappa} seminorm over dyadic grid-aligned shifts.

    Shifts run over h in {L/N, 2L/N, 4L/N, ..., L/4}. The k-th derivative
    is spectral; if its relative spectral-tail energy (top quarter band)
    exceeds TAIL_ENERGY_THRESHOLD the estimate is flagged under_resolved in
    the returned record, not rejected.
    """
    if field.components != 1:
        raise ValueError("holder_seminorm takes a scalar 1D field")
    if not 0 < kappa < 1:
        raise ValueError("kappa must lie in (0,1)")
    if k < 0:
        raise ValueError("k must be >= 0")
    n = field.n
    if k + 2 > n // 4:
        raise ValueError("derivative order not resolvable at this N")
    deriv = spectral_derivative(field, k) if k > 0 else field

    modes = np.abs(np.fft.fft(deriv.samples))
    freqs = np.abs(wavenumbers(n))
    total = float(np.sum(modes[1:] ** 2))
    tail = float(np.sum(modes[freqs >= n // 4] ** 2))
    flagged = total > 0 and tail / total > TAIL_ENERGY_THRESHOLD

    value = 0.0
    scales = []
    h = field.spacing
    while h <= field.domain_length / 4 + 1e-15:
        d = finite_difference(deriv, h, "delta")
        value = max(value, float(np.max(np.abs(d.samples))) / h**kappa)
        scales.append(h)
        h *= 2.0
    return HolderEstimate(k=k, kappa=kappa, value=value,
                          scales_used=tuple(scales), under_resolved=flagged)


def norms(field: PeriodicField) -> dict:
    """Grid L2 (trapezoid weights, which are uniform on a periodic grid),
    sup norm, and mean. Multi-component fields use the pointwise Euclidean
    magnitude for l2/linf and the componentwise mean stacked into a vector.
    """
    w = field.spacing
    s = field.samples
    if field.components > 1:
        mag2 = np.sum(s**2, axis=0)
        return {
            "l2": float(np.sqrt(w * np.sum(mag2))),
            "linf": float(np.sqrt(np.max(mag2))),
            "mean": np.mean(s, axis=-1),
        }
    return {
        "l2": float(np.sqrt(w * np.sum(s**2))),
        "linf": float(np.max(np.abs(s))),
        "mean": float(np.mean(s)),
    }


def dealias(field: PeriodicField) -> PeriodicField:
    """2/3-rule filter: zero all modes with |n| > N/3."""
    n = field.n
    return apply_multiplier(field, np.abs(wavenumbers(n)) <= n / 3.0)
