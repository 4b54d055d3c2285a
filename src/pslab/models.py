"""Six evolution equations in a shared splitting contract: each model
exposes the full right side, its symbol once as the linear multiplier for
exact exponential propagation, and the spectrum of the explicit remainder.

Splitting convention on half spectra u_hat = rfft(u) (grid.wavenumbers):
d/dt u_hat = -multiplier * u_hat + remainder_from_rows(rows, u_hat, L),
the rfft of rhs(u) + L u with (L u)^ = multiplier * u_hat, or None where
it vanishes. rows are the state, then its derivatives of the orders the
model declares as remainder_orders on period L, as an ETD stage takes
them from one batched irfft with its state; a model with a dedicated,
better conditioned form reads those rows, the others build the state
field from rows[0]. remainder_hat(u, u_hat) builds a field's rows. In a
march the rows and u_hat are the step's work arrays, which the next
stage overwrites: a remainder reads them, writes its temporaries in
place in arrays of its own and returns a spectrum of its own.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .grid import (
    NumericalFailure,
    PeriodicField,
    _dealiased_derivative_table,
    _derivative_table,
    _trusted_field,
    derivative_rows,
    derivatives,
    irfft,
    multiplier_table,
    rfft,
    spectral_rows,
)
from .kernels import sd_symbol
from .nonlocal_ops import fractional_mean_curvature, muskat_st_rhs, peskin_rhs


class PositivityError(NumericalFailure):
    """Surface-diffusion state touched zero; the local theory needs a
    positive lower bound."""

    def __init__(self, min_value):
        self.min_value = min_value
        super().__init__(f"state minimum {min_value:.3e} is not positive")


class _ModelBase:
    """Shared splitting plumbing; concrete models fill in the physics.

    Each model declares what it is once: its config tag, the names of its
    constructor parameters (each kept as the attribute of that name),
    whether its state is a 2-component contour, whether its quadratures
    assume the 2pi-periodic domain, and its symbol linear_multiplier(k) at
    physical wavenumbers k. A model whose rhs factors as
    ~ -a(x) * linear_multiplier(k) defines coefficient_profile(field)
    returning a(x), the ratio of the symbol frozen at x to
    linear_multiplier; it is None on the others. remainder_from_rows is
    rhs + L u unless a model gives a dedicated form or, with no remainder,
    None; remainder_orders are the derivative rows it reads.
    """

    tag: str = ""
    params: tuple = ()
    is_contour: bool = False
    needs_two_pi: bool = False
    coefficient_profile = None
    remainder_orders: tuple = ()

    def rhs(self, field: PeriodicField) -> PeriodicField:
        raise NotImplementedError

    def linear_multiplier(self, k: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def remainder_hat(self, field: PeriodicField, uh: np.ndarray) -> Optional[np.ndarray]:
        """remainder_from_rows at a field, given uh = rfft(u): its rows are
        the field's own samples over the derivatives of uh."""
        rows, L = field.samples[None], field.domain_length
        if self.remainder_orders:
            rows = np.concatenate(
                [rows, spectral_rows(uh, field.n, L, self.remainder_orders)])
        return self.remainder_from_rows(rows, uh, L)

    def remainder_from_rows(self, rows, uh, L) -> Optional[np.ndarray]:
        """Half spectrum of rhs(u) + L u, u the field of rows[0] on period L
        and uh its spectrum; None if zero. rows[0] is a state or stage row
        that its step or field has checked, so the field is built from it
        unchecked."""
        field = _trusted_field(rows[0], L)
        lin = irfft(uh * multiplier_table(self, field.n, L), field.n)
        lin += self.rhs(field).samples
        return rfft(lin)

    def remainder(self, field: PeriodicField) -> PeriodicField:
        rh = self.remainder_hat(field, rfft(field.samples))
        return field.with_samples(np.zeros_like(field.samples) if rh is None
                                  else irfft(rh, field.n))

    def conserved(self, field: PeriodicField):
        """(name, value) of the model's conservation-law diagnostic, or None."""
        return None


class HeatModel(_ModelBase):
    """d/dt u = u_xx; the remainder is identically zero."""

    tag = "heat"

    def rhs(self, field):
        return field.with_samples(derivatives(field, (2,))[0])

    def linear_multiplier(self, k):
        return k**2

    def coefficient_profile(self, field):
        return np.ones(field.n)

    def remainder_from_rows(self, rows, uh, L):
        return None

    def conserved(self, field):
        return ("mean", float(np.mean(field.samples)))


class VarCoefHeatModel(_ModelBase):
    """d/dt u = a(x) u_xx with a(x) = 1.25 + 0.75 cos x, which ranges over
    [0.5, 2]; the exercise problem for pointwise freezing (the remainder
    vanishes at the frozen point)."""

    tag = "varcoef_heat"

    @staticmethod
    def profile(x):
        return 1.25 + 0.75 * np.cos(x)

    def rhs(self, field):
        a = self.profile(field.nodes())
        return field.with_samples(a * derivatives(field, (2,))[0])

    def linear_multiplier(self, k):
        # the frozen constant coefficient is the profile mean
        return 1.25 * k**2

    def coefficient_profile(self, field):
        return self.profile(field.nodes()) / 1.25


class McfGraphModel(_ModelBase):
    """Graph mean curvature flow d/dt f = f_xx / (1 + f_x^2)."""

    tag = "mcf_graph"
    remainder_orders = (1, 2)

    def rhs(self, field):
        fx, fxx = derivatives(field, (1, 2))
        return field.with_samples(fxx / (1.0 + fx * fx))

    def linear_multiplier(self, k):
        return k**2

    def coefficient_profile(self, field):
        fx = derivatives(field, (1,))[0]
        return 1.0 / (1.0 + fx * fx)

    def remainder_from_rows(self, rows, uh, L):
        # (A[f'] - A[0]) f_xx = -f_x^2 f_xx/(1+f_x^2); written this way it
        # is O(f^3) without cancellation
        _, fx, fxx = rows
        g = fx * fx
        g += 1.0
        np.divide(1.0, g, out=g)
        g -= 1.0
        g *= fxx
        return rfft(g)


class NonlocalMcfModel(_ModelBase):
    """d/dt u = -<u_x> H_a[u]; linearization about 0 is -M(a) Lambda^{1+a}
    with M(a) = 2 int (1-cos b)/|b|^{2+a} db = -4 Gamma(-1-a) cos(pi(1+a)/2)."""

    tag = "nonlocal_mcf"
    params = ("a",)
    needs_two_pi = True

    def __init__(self, a: float = 0.5):
        if not 0.0 < a < 1.0:
            raise ValueError("a must lie in (0, 1)")
        self.a = float(a)
        # Gamma(-1-a) by the recurrence down from Gamma(2-a), within 7e-16
        # relative on (0, 1)
        gamma = math.gamma(2.0 - self.a) / ((1.0 + self.a) * self.a * (1.0 - self.a))
        self.multiplier_constant = float(
            -4.0 * gamma * np.cos(0.5 * np.pi * (1.0 + self.a)))

    def rhs(self, field):
        ux = derivatives(field, (1,))[0]
        H = fractional_mean_curvature(field, self.a).samples
        return field.with_samples(-np.sqrt(1.0 + ux * ux) * H)

    def linear_multiplier(self, k):
        return self.multiplier_constant * np.abs(k) ** (1.0 + self.a)


class Peskin2dModel(_ModelBase):
    """Hookean elastic filament in Stokes flow, tension T(|X'|) = |X'|;
    linear part (1/4) Lambda applied componentwise, remainder the three
    drift integrals."""

    tag = "peskin2d"
    params = ("theta_cap",)
    is_contour = True
    needs_two_pi = True

    def __init__(self, theta_cap: float = 100.0):
        self.theta_cap = float(theta_cap)
        if not self.theta_cap > 0.0:
            raise ValueError("theta_cap must be positive")

    def rhs(self, field):
        return peskin_rhs(field)

    def linear_multiplier(self, k):
        return 0.25 * np.abs(k)

    def conserved(self, field):
        return ("area", enclosed_area(field))


class MuskatStModel(_ModelBase):
    """Surface-tension Muskat interface; linear part Lambda^3."""

    tag = "muskat_st"
    params = ("rho0",)
    needs_two_pi = True

    def __init__(self, rho0: float = 0.0):
        self.rho0 = float(rho0)
        if not np.isfinite(self.rho0):
            raise ValueError("rho0 must be finite")

    def rhs(self, field):
        return muskat_st_rhs(field, rho0=self.rho0)

    def linear_multiplier(self, k):
        return np.abs(k) ** 3

    def coefficient_profile(self, field):
        fp = derivatives(field, (1,))[0]
        return (1.0 + fp * fp) ** -1.5

    def conserved(self, field):
        return ("mean", float(np.mean(field.samples)))


class SurfaceDiffusionModel(_ModelBase):
    """Axisymmetric surface diffusion of a near-cylinder profile h(x) > 0:
    d/dt h = (1/h) ( (h/<h_x>) (curv)_x )_x with curv = 1/(h <h_x>)
    - h_xx/<h_x>^3. Linear part about the reference radius hbar0 is
    -h_xxxx - h_xx/hbar0^2.

    The outer (1/h) d/dx(...) structure is kept unfiltered so that
    sum h * rhs = sum d/dx(flux) = 0 exactly on the grid; the conserved
    integral of h^2 then drifts only through time discretization.
    """

    tag = "surface_diffusion_axi"
    params = ("hbar0",)
    remainder_orders = (1, 2)

    def __init__(self, hbar0: float):
        if not hbar0 > 1.0:
            raise ValueError("reference radius must exceed 1")
        self.hbar0 = float(hbar0)

    def _velocity(self, rows, L):
        # rhs samples from the rows h, h_x, h_xx, on three real and one
        # spectral temporary; dealiasing then differentiating is one
        # multiplier, mask * (i k)
        h, hx, hxx = rows
        if float(h.min()) <= 0.0:
            raise PositivityError(float(h.min()))
        n = h.size
        dx = _dealiased_derivative_table(n, L)
        br = hx * hx
        br += 1.0
        np.sqrt(br, out=br)
        a = h * br
        np.divide(1.0, a, out=a)
        b = br**3
        np.divide(hxx, b, out=b)
        a -= b  # the curvature 1/(h br) - h_xx/br^3
        s = rfft(a)
        s *= dx
        curv_x = irfft(s, n, out=b)
        np.divide(h, br, out=a)
        a *= curv_x  # the flux (h/br) curv_x
        rfft(a, out=s)
        s *= dx
        flux_x = irfft(s, n, out=a)
        flux_x /= h
        return flux_x

    def rhs(self, field):
        d = derivative_rows(field.samples, field.domain_length, (1, 2))
        return field.with_samples(self._velocity([field.samples, *d], field.domain_length))

    def remainder_from_rows(self, rows, uh, L):
        m = multiplier_table(self, rows.shape[-1], L)
        rh = rfft(self._velocity(rows, L))
        rh += m * uh
        return rh

    def linear_multiplier(self, k):
        # sd_symbol(n, hbar0) = n^4 - n^2/hbar0^2 in integer frequencies;
        # k here is physical, identical on the 2pi-torus
        return sd_symbol(k, self.hbar0)

    def conserved(self, field):
        return ("volume", float(field.spacing * np.sum(field.samples**2)))


class ThinfilmExpModel(_ModelBase):
    """d/dt u = (e^{-u_xx})_xx; linear part -u_xxxx, remainder
    (g(u_xx))_xx with g(v) = e^{-v} - 1 + v kept cancellation-free."""

    tag = "thinfilm_exp"
    remainder_orders = (2,)

    def rhs(self, field):
        w = field.with_samples(np.exp(-derivatives(field, (2,))[0]))
        return w.with_samples(derivatives(w, (2,))[0])

    def linear_multiplier(self, k):
        return k**4

    def remainder_from_rows(self, rows, uh, L):
        v = rows[1]
        g = np.negative(v)
        np.expm1(g, out=g)
        g += v
        gh = rfft(g)
        gh *= _derivative_table(v.size, L, (2,))[0]
        return gh

    def conserved(self, field):
        return ("mean", float(np.mean(field.samples)))


MODELS = {cls.tag: cls for cls in (
    McfGraphModel,
    NonlocalMcfModel,
    Peskin2dModel,
    MuskatStModel,
    SurfaceDiffusionModel,
    ThinfilmExpModel,
    # baselines used by the stepper and CLI, not part of the six
    HeatModel,
    VarCoefHeatModel,
)}


def make_model(tag: str, params: dict) -> _ModelBase:
    """Instantiate MODELS[tag] from its declared parameters; ValueError for
    an unknown tag, an undeclared parameter or a missing required one."""
    if tag not in MODELS:
        raise ValueError(f"unknown model tag {tag!r}")
    cls = MODELS[tag]
    for name in params:
        if name not in cls.params:
            raise ValueError(f"{tag} has no parameter {name!r}")
    try:
        return cls(**params)
    except TypeError as exc:
        # a required parameter left out
        raise ValueError(f"{tag}: {exc}") from exc


# ---------------------------------------------------------------------------
# diagnostics

def enclosed_area(X: PeriodicField) -> float:
    """Signed area (1/2) closed-integral (x dy - y dx), spectral tangents."""
    if X.components != 2:
        raise ValueError("enclosed_area takes a 2-component contour")
    xs, ys = X.samples
    xp, yp = derivatives(X, (1,))[0]
    return 0.5 * X.spacing * float(np.sum(xs * yp - ys * xp))


def mode1_rate(model: _ModelBase, base: Optional[PeriodicField] = None) -> float:
    """Linearized growth rate at mode 1, measured from the right side:
    project rhs(base + eps cos) - rhs(base) onto cos(x), eps = 1e-6, with
    base the zero field of 256 samples by default."""
    eps = 1e-6
    if base is None:
        base = PeriodicField(np.zeros(256))
    x = base.nodes()
    pert = base.with_samples(base.samples + eps * np.cos(x))
    r = model.rhs(pert).samples - model.rhs(base).samples
    return float(2.0 * np.mean(r * np.cos(x)) / eps)

