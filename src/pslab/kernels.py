"""Closed-form and ODE-defined fundamental solutions with checkable bounds.

Three kernel families live here: the periodic fractional heat kernel
e^{-t|k|^s}, the frozen-symbol kernel solving a per-frequency matrix ODE
and the anisotropic Poisson kernel of the flat-interface elliptic problem,
plus the fourth-order periodic kernel of the linearized axisymmetric
surface diffusion model. The frozen-symbol ODE is integrated by the
fourth-order Magnus step on Simpson nodes, the ends and the midpoint of
each step (Iserles & Norsett 1999; Blanes, Casas, Oteo & Ros 2009), which
nest under step doubling; its batched matrix exponentials are built here
in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma
from typing import Callable

import numpy as np

from .grid import PeriodicField, TWO_PI, irfft, wavenumbers

# Frozen-kernel refinement target: the Richardson-extrapolated kernel values
# of two consecutive step doublings must differ by less than this.
REFINE_TOL = 1e-9
# Intervals of the tabulated tau grid, and the Magnus steps of the first level.
TAU_STEPS = 16
# Float64 entries a refinement level's node table may hold (32 MiB); a
# doubling past it raises RefinementError instead.
_MAX_NODE_ENTRIES = 1 << 22


# ---------------------------------------------------------------------------
# periodic fractional heat kernel

def fractional_heat_kernel(t: float, s: float, n: int, domain_length: float = TWO_PI) -> PeriodicField:
    """Kernel of d_t u + Lambda^s u = 0 on the torus at time t > 0.

    Built in frequency space as e^{-t|k|^s} with the mode-0 weight chosen
    so the grid mass (L/N) sum K equals 1 exactly.
    """
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    if not 0 < s < np.inf:
        raise ValueError("s must be positive and finite")
    k = wavenumbers(n, domain_length)
    modes = (n / domain_length) * np.exp(-t * np.abs(k) ** s)
    return PeriodicField(irfft(modes, n), domain_length=domain_length)


# ---------------------------------------------------------------------------
# frozen-symbol kernel

@dataclass(frozen=True)
class FrozenSymbol:
    """Elliptic symbol A(t, xi) of order s, valued in symmetric matrices.

    eval(t, xi) must return a (dim_N, dim_N) symmetric matrix with
    A(t, xi) >= c0 |xi|^s Id; the ellipticity is probed on a grid before
    any kernel integration.
    """

    s: float
    c0: float
    dim_N: int
    eval: Callable[[float, float], np.ndarray]

    def __post_init__(self):
        if not 0 < self.c0 < 1:
            raise ValueError("c0 must lie in (0,1)")
        if not 0 < self.s < np.inf:
            raise ValueError("s must be positive and finite")
        if self.dim_N < 1:
            raise ValueError("dim_N must be >= 1")


class EllipticityError(ValueError):
    def __init__(self, t, xi, min_eig, floor):
        self.t, self.xi, self.min_eig, self.floor = t, xi, min_eig, floor
        super().__init__(
            f"symbol not elliptic at (t={t}, xi={xi}): "
            f"min eigenvalue {min_eig:.3e} < c0|xi|^s = {floor:.3e}"
        )


def _symbol_table(symbol: FrozenSymbol, taus, xis) -> np.ndarray:
    """A(tau, xi) for tau in taus (outer) and xi in xis (inner), shape
    (len(taus), len(xis), dim_N, dim_N), each pair asked once and all the
    returns converted by one np.array; a scalar stands for a 1 x 1 matrix.
    A return of another shape is named, the first in call order."""
    ev, dim = symbol.eval, symbol.dim_N
    values = [ev(t, xi) for t in taus for xi in xis]
    shape = (len(taus), len(xis), dim, dim)
    try:
        table = np.array(values, dtype=float)
    except (TypeError, ValueError):  # ragged or unconvertible returns
        pass
    else:
        if table.shape[1:] == (dim, dim) or dim == 1 and table.ndim == 1:
            return table.reshape(shape)
    # one return at a time: a dim-1 table that mixes scalars and 1 x 1
    # matrices is stacked, any other mix fails at its first wrong return
    table = np.empty((len(values), dim, dim))
    for k, value in enumerate(values):
        m = np.asarray(value, dtype=float)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.shape != (dim, dim):
            raise ValueError(f"symbol eval returned shape {m.shape}, expected {(dim, dim)}")
        table[k] = m
    return table.reshape(shape)


def ellipticity_probe(symbol: FrozenSymbol, ts, xis) -> np.ndarray:
    """Check A(t, xi) >= c0 |xi|^s Id at every probe pair and return the
    checked matrices, shape (len(ts), len(xis), dim_N, dim_N).

    The symbol is asked at every pair first, t outer and xi inner. Then one
    batched eigvalsh of the symmetric parts gives every minimum eigenvalue,
    a matrix whose symmetric part is not finite failing with a NaN one at
    any dim_N (eigvalsh sees the identity in its place), and the probe
    raises at the first failing pair in the same order."""
    out = _symbol_table(symbol, ts, xis)
    floors = np.array([symbol.c0 * abs(xi) ** symbol.s for xi in xis])
    sym = out + out.swapaxes(-1, -2)
    sym *= 0.5
    finite = np.isfinite(sym).all(axis=(-2, -1))
    if not finite.all():
        sym[~finite] = np.eye(symbol.dim_N)
    min_eig = np.linalg.eigvalsh(sym)[..., 0]
    min_eig[~finite] = np.nan
    ok = min_eig >= floors - 1e-10 * np.maximum(1.0, floors)  # False at a NaN
    if not ok.all():
        i, k = divmod(int(np.argmin(ok)), len(xis))
        raise EllipticityError(ts[i], xis[k], float(min_eig[i, k]), float(floors[k]))
    return out


class RefinementError(ValueError):
    """The frozen-kernel step doubling reached its node-table cap before two
    Richardson values agreed to REFINE_TOL: gap is the last level's
    disagreement (NaN where a value was not finite), steps its Magnus step
    count and (tau, xi) the grid pair where the gap is largest."""

    def __init__(self, gap, steps, tau, xi):
        self.gap, self.steps, self.tau, self.xi = gap, steps, tau, xi
        super().__init__(
            f"frozen kernel did not converge: Richardson gap {gap:.3e} "
            f"(tolerance {REFINE_TOL:.0e}) at (tau={tau}, xi={xi}) after {steps} steps; "
            f"the next level's node table would pass {_MAX_NODE_ENTRIES} entries")


@dataclass(frozen=True)
class FrozenKernelHat:
    """Frequency-side fundamental solution of the frozen adjoint system.

    values[i, j] is the dim_N x dim_N matrix at (tau_grid[i], xi_grid[j]);
    the value at tau = t_final is the identity, and the Frobenius norm obeys
    |K(tau, xi)|_F <= sqrt(dim_N) e^{-c0 (t_final - tau)|xi|^s}.
    """

    values: np.ndarray          # (n_tau, n_xi, dim_N, dim_N)
    tau_grid: np.ndarray
    xi_grid: np.ndarray
    t_final: float
    symbol: FrozenSymbol

    def frobenius_excess(self) -> float:
        """Max of |K|_F / (sqrt(N) e^{-c0 (t-tau)|xi|^s}) over all probes.

        Values <= 1 mean the decay bound holds; the acceptance slack is
        multiplicative 1 + 1e-6.
        """
        fro = np.sqrt(np.sum(self.values**2, axis=(2, 3)))
        age = self.t_final - self.tau_grid  # elapsed integration time
        bound = np.sqrt(self.symbol.dim_N) * np.exp(
            -self.symbol.c0 * np.outer(age, np.abs(self.xi_grid) ** self.symbol.s)
        )
        # where the bound underflows to 0 the values have underflowed too
        safe = bound > 0
        ratio = np.zeros_like(bound)
        ratio[safe] = fro[safe] / bound[safe]
        return float(np.max(ratio))


def _expm(x: np.ndarray) -> np.ndarray:
    """exp of every matrix in the batch x (..., d, d): scaling and squaring
    over the degree-12 Taylor sum, one scaling for the whole batch. The
    scaled 1-norms are at most 1/4, where the first dropped term is below
    1e-17 relative."""
    norm = float(np.max(np.sum(np.abs(x), axis=-2), initial=0.0))
    squarings = max(0, int(np.frexp(4.0 * norm)[1]))
    x = x / 2.0**squarings
    eye = np.eye(x.shape[-1])
    e = eye + x / 12.0
    for k in range(11, 0, -1):
        e = eye + (x @ e) / k
    for _ in range(squarings):
        e = e @ e
    return e


def _halve(symbol: FrozenSymbol, t: float, xis: np.ndarray,
           nodes: np.ndarray) -> np.ndarray:
    """The node table at half the spacing: nodes[i] holds A(t - w_i, xi)
    at w_i = i t / M for i = 0..M, and the result holds it at
    w_i = i t / (2 M), the old entries copied to the even rows and the
    symbol called only for the odd ones, all of them in one table, w outer
    and xi inner."""
    spans = 2 * (len(nodes) - 1)
    out = np.empty((spans + 1,) + nodes.shape[1:])
    out[::2] = nodes
    odd = _symbol_table(
        symbol, (np.arange(spans - 1, 0, -2) * (t / spans)).tolist(), xis.tolist())
    if not np.isfinite(odd).all():
        raise ValueError("symbol returned a non-finite value at an integration node")
    out[1::2] = odd
    return out


def _magnus_table(nodes: np.ndarray, t: float) -> np.ndarray:
    """Fourth-order Magnus steps for dm/dw = -m A(t - w, xi) from w=0 (m=Id)
    to w=t, batched over xi, on a node table of 2 n + 1 rows (row i at
    w = i h / 2, h = t / n, n a multiple of TAU_STEPS); returns the
    snapshots on the tau grid, row i at tau = i t / TAU_STEPS.

    Step j reads B = -A(t - w) at its start, midpoint and end, B0, B_half
    and B1, and is m <- m exp(Omega_j) with
    Omega = (h/6)(B0 + 4 B_half + B1) + (h^2/12)[B_half, B1 - B0]
    (the commutator in this order because B multiplies m from the right).
    Every exp(Omega_j) is built in one batch, each tau interval's steps are
    multiplied pairwise in step order, and only the TAU_STEPS interval
    products run one after another.
    """
    n_steps = (len(nodes) - 1) // 2
    h = t / n_steps
    a0, a_half, a1 = nodes[:-1:2], nodes[1::2], nodes[2::2]
    da = a1 - a0
    omega = (-h / 6.0) * (a0 + 4.0 * a_half + a1) + \
        (h * h / 12.0) * (a_half @ da - da @ a_half)
    prop = _expm(omega)
    while len(prop) > TAU_STEPS:
        prop = prop[0::2] @ prop[1::2]
    out = np.empty((TAU_STEPS + 1,) + nodes.shape[1:])
    out[TAU_STEPS] = np.eye(nodes.shape[-1])
    for i, interval in enumerate(prop):
        np.matmul(out[TAU_STEPS - i], interval, out=out[TAU_STEPS - 1 - i])
    return out


def frozen_kernel_hat(symbol: FrozenSymbol, t: float, xi_grid) -> FrozenKernelHat:
    """Integrate the frozen-kernel ODE per frequency and tabulate it.

    The matrix ODE runs in the time-reversed variable w = t - tau from the
    identity at w = 0, so the stored array carries the identity at
    tau = t and the decayed kernel at tau = 0. Each step is the
    fourth-order Magnus step on the step's ends and midpoint (Simpson
    moments; Iserles & Norsett, Phil. Trans. R. Soc. A 357, 1999; Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470, 2009). For a symmetric symbol
    Omega is a negative definite symmetric part plus an antisymmetric
    commutator, so every step contracts at any step size and the step
    count starts at TAU_STEPS, then doubles. Each doubling turns the
    coarse table K_c and the fine table K_f into the Richardson value
    K_f + (K_f - K_c) / 15, which cancels the step's h^4 error term; the
    doubling stops once that value moves by less than REFINE_TOL from the
    previous level's, where the first doubling compares it with the plain
    starting table. The last Richardson value is returned.

    The ellipticity probe asks the symbol at every tau grid pair, checks
    them all with one batched eigvalsh, fails on a non-finite symbol value
    and runs before any integration node is evaluated; its matrices are the
    first level's even nodes. The nodes nest: a level of n steps holds
    A(t - i t / (2 n), xi) for i = 0..2 n, and its doubling calls the
    symbol only at the odd entries of the next, one array per level.
    A tabulation that stops at n_final steps calls the symbol (2 n_final + 1)
    n_xi times, each (tau, xi) pair once, in O(n_final n_xi dim_N^2) memory.

    The memory is bounded: a level's node table holds (2 n + 1) n_xi dim_N^2
    float64 entries, and no doubling builds one of more than
    max(_MAX_NODE_ENTRIES, (4 TAU_STEPS + 1) n_xi dim_N^2) entries (32 MiB,
    or the first doubling's table if that is larger; the Magnus step's
    temporaries are a few times the table). A level that has not converged
    (a NaN gap never has) when the next table would pass that raises
    RefinementError with its gap, step count and worst (tau, xi).
    """
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    xis = np.asarray(xi_grid, dtype=float)
    if xis.ndim != 1 or xis.size == 0 or not np.isfinite(xis).all():
        raise ValueError("xi_grid must be a non-empty 1-D array of finite values")
    tau_grid = np.linspace(0.0, t, TAU_STEPS + 1)
    # the probe runs tau upward; the node table runs w = t - tau upward
    nodes = _halve(symbol, t, xis, ellipticity_probe(symbol, tau_grid, xis)[::-1])
    prev = coarse = _magnus_table(nodes, t)
    while True:
        nodes = _halve(symbol, t, xis, nodes)
        fine = _magnus_table(nodes, t)
        extrapolated = fine + (fine - coarse) / 15.0
        gaps = np.abs(extrapolated - prev)
        gap = float(np.max(gaps))
        prev, coarse = extrapolated, fine
        if gap < REFINE_TOL:
            break
        if (2 * len(nodes) - 1) * nodes[0].size > _MAX_NODE_ENTRIES:
            i, k = np.unravel_index(np.argmax(gaps), gaps.shape)[:2]
            raise RefinementError(gap, (len(nodes) - 1) // 2, float(tau_grid[i]),
                                  float(xis[k]))
    return FrozenKernelHat(values=prev, tau_grid=tau_grid, xi_grid=xis,
                           t_final=t, symbol=symbol)


# ---------------------------------------------------------------------------
# anisotropic Poisson kernel

@dataclass(frozen=True)
class PoissonAnisoKernel:
    """K_b(x, z) = c_d |z| / ((x.b + z)^2 + |x|^2)^{(d+1)/2}.

    c_d = Gamma((d+1)/2) / pi^{(d+1)/2} normalizes the mass to 1 for every
    z != 0 and drift b. Nonnegative everywhere; even in x when b = 0.
    """

    b: np.ndarray
    d: int

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError("d must be 1 or 2")
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if b.shape != (self.d,):
            raise ValueError(f"b must have shape ({self.d},)")
        if not np.all(np.isfinite(b)):
            raise ValueError("b must be finite")
        object.__setattr__(self, "b", b)

    @property
    def c_d(self) -> float:
        return gamma((self.d + 1) / 2.0) / np.pi ** ((self.d + 1) / 2.0)


def poisson_aniso_eval(kernel: PoissonAnisoKernel, x, z: float):
    """Pointwise kernel value; z = 0 is rejected (the limit is delta(x))."""
    if not (z != 0 and np.isfinite(z)):
        raise ValueError("z must be finite and nonzero")
    x = np.asarray(x, dtype=float)
    if kernel.d == 1:
        xb = x * kernel.b[0]
        xx = x * x
    else:
        xb = x[..., 0] * kernel.b[0] + x[..., 1] * kernel.b[1]
        xx = x[..., 0] ** 2 + x[..., 1] ** 2
    return kernel.c_d * abs(z) / ((xb + z) ** 2 + xx) ** ((kernel.d + 1) / 2.0)


def poisson_aniso_mass(kernel: PoissonAnisoKernel, z: float) -> float:
    """Numerically integrated kernel mass; equals 1 independent of z and b.

    d=1 integrates the kernel directly over R. d=2 integrates the second
    coordinate in closed form (int dv / (A v^2 + D)^{3/2} = 2/(D sqrt(A)))
    and quadratures the remaining 1D integral adaptively.
    """
    if not (z != 0 and np.isfinite(z)):
        raise ValueError("z must be finite and nonzero")
    from scipy import integrate

    if kernel.d == 1:
        val, err = integrate.quad(
            lambda x: poisson_aniso_eval(kernel, x, z), -np.inf, np.inf,
            limit=400, epsabs=1e-10, epsrel=1e-10,
        )
    else:
        b1, b2 = kernel.b
        aa = 1.0 + b2 * b2

        def inner(x1):
            # quadratic in x2: (b1 x1 + b2 x2 + z)^2 + x1^2 + x2^2
            lin = b1 * x1 + z
            bb = 2.0 * b2 * lin
            cc = lin * lin + x1 * x1
            dd = cc - bb * bb / (4.0 * aa)
            return 2.0 / (dd * np.sqrt(aa))

        val, err = integrate.quad(inner, -np.inf, np.inf,
                                  limit=400, epsabs=1e-10, epsrel=1e-10)
        val *= kernel.c_d * abs(z)
    if not err <= 1e-6:
        raise RuntimeError(f"mass quadrature did not converge: error estimate {err:.2e}")
    return float(val)


# ---------------------------------------------------------------------------
# periodic surface-diffusion kernel

def sd_symbol(n, hbar0: float):
    """A(n) = n^4 - n^2 / hbar0^2, the linearized axisymmetric symbol."""
    n = np.asarray(n, dtype=float)
    return n**4 - n**2 / hbar0**2

def sd_decay_floor(hbar0: float) -> float:
    """c0 = (1/4)(1 - 1/hbar0^2), the guaranteed kernel decay rate."""
    return 0.25 * (1.0 - 1.0 / hbar0**2)


def periodic_sd_kernel(t: float, hbar0: float, n: int) -> PeriodicField:
    """K_{!=0}(t, x) = (1/2pi) sum_{n != 0} e^{-A(n) t} e^{inx}, truncated at
    |n| <= N/2, on the 2pi-torus (the model's native domain).

    Requires hbar0 > 1 so A(n) > 0 for every n != 0 (stable regime).
    """
    if not hbar0 > 1:
        raise ValueError("hbar0 must exceed 1 (A(n) > 0 for all n != 0)")
    if not 0 < t < np.inf:
        raise ValueError("t must be positive and finite")
    modes = (n / TWO_PI) * np.exp(-sd_symbol(wavenumbers(n), hbar0) * t)
    modes[0] = 0.0
    return PeriodicField(irfft(modes, n), domain_length=TWO_PI)
