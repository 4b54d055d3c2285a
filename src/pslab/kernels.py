"""Closed-form and ODE-defined fundamental solutions with checkable bounds.

Three kernel families live here: the periodic fractional heat kernel
e^{-t|k|^s}, the frozen-symbol kernel solving a per-frequency matrix ODE
and the anisotropic Poisson kernel of the flat-interface elliptic problem,
plus the fourth-order periodic kernel of the linearized axisymmetric
surface diffusion model.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gamma
from typing import Callable

import numpy as np
from scipy import integrate

from .grid import PeriodicField, TWO_PI, wavenumbers

# Fixed-step RK4 refinement target: the Richardson-extrapolated kernel values
# of two consecutive step doublings must differ by less than this.
RK4_REFINE_TOL = 1e-9
# Intervals of the tabulated tau grid, and the fewest RK4 steps per tabulation.
TAU_STEPS = 16


# ---------------------------------------------------------------------------
# periodic fractional heat kernel

def fractional_heat_kernel(t: float, s: float, n: int, domain_length: float = TWO_PI) -> PeriodicField:
    """Kernel of d_t u + Lambda^s u = 0 on the torus at time t > 0.

    Built in frequency space as e^{-t|k|^s} with the mode-0 weight chosen
    so the grid mass (L/N) sum K equals 1 exactly.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if s <= 0:
        raise ValueError("s must be positive")
    k = wavenumbers(n, domain_length)
    modes = (n / domain_length) * np.exp(-t * np.abs(k) ** s)
    return PeriodicField(np.fft.irfft(modes, n), domain_length=domain_length)


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
        if self.s <= 0:
            raise ValueError("s must be positive")
        if self.dim_N < 1:
            raise ValueError("dim_N must be >= 1")


class EllipticityError(ValueError):
    def __init__(self, t, xi, min_eig, floor):
        self.t, self.xi, self.min_eig, self.floor = t, xi, min_eig, floor
        super().__init__(
            f"symbol not elliptic at (t={t}, xi={xi}): "
            f"min eigenvalue {min_eig:.3e} < c0|xi|^s = {floor:.3e}"
        )


def _as_matrix(a, dim):
    m = np.asarray(a, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.shape != (dim, dim):
        raise ValueError(f"symbol eval returned shape {m.shape}, expected {(dim, dim)}")
    return m


def ellipticity_probe(symbol: FrozenSymbol, ts, xis, out=None) -> float:
    """Check A(t, xi) >= c0 |xi|^s Id at every probe pair, t outer and xi
    inner; raise at the first failure.

    Returns the largest probed eigenvalue, floored at 0. If out is given,
    of shape (len(ts), len(xis), dim_N, dim_N), out[i, j] receives the
    probed matrix A(ts[i], xis[j]).
    """
    lam_max = 0.0
    for i, t in enumerate(ts):
        for j, xi in enumerate(xis):
            m = _as_matrix(symbol.eval(t, xi), symbol.dim_N)
            if out is not None:
                out[i, j] = m
            floor = symbol.c0 * abs(xi) ** symbol.s
            eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
            min_eig = float(eigs[0])
            if min_eig < floor - 1e-10 * max(1.0, floor):
                raise EllipticityError(t, xi, min_eig, floor)
            lam_max = max(lam_max, float(eigs[-1]))
    return lam_max


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


def _refine_nodes(symbol: FrozenSymbol, t: float, xis: np.ndarray,
                  known: np.ndarray, stride: int, n_steps: int) -> np.ndarray:
    """Symbol values A(t - w, xi) at the 2 n_steps + 1 RK4 nodes
    w = j t / (2 n_steps), shaped (2 n_steps + 1, n_xi, dim_N, dim_N).

    known holds the values at every stride-th node j = 0, stride, ..., so
    only the other nodes call the symbol: after a doubling the previous
    level's table fills the even nodes (stride 2), and on the first level
    the ellipticity probe's matrices fill the tau-grid nodes.
    """
    dim = symbol.dim_N
    out = np.empty((2 * n_steps + 1, len(xis), dim, dim))
    out[::stride] = known
    fresh = np.flatnonzero(np.arange(2 * n_steps + 1) % stride)
    ws = fresh * t / (2 * n_steps)
    xi_list = xis.tolist()
    for j, w in zip(fresh.tolist(), ws.tolist()):
        row = out[j]
        for k, xi in enumerate(xi_list):
            row[k] = _as_matrix(symbol.eval(t - w, xi), dim)
    return out


def _integrate_khat(a_nodes: np.ndarray, t: float, tau_grid: np.ndarray) -> np.ndarray:
    """RK4 for dm/dw = -m A(t - w, xi) from w=0 (m=Id) to w=t, batched over
    xi; returns snapshots on tau_grid (tau = t - w).

    a_nodes[j] holds A at w = j t / (2 n) for n steps: step i reads nodes
    2i, 2i+1 and 2i+2, so no node is evaluated twice. The ODE is linear, so
    a step is m <- m R_i with the propagator
    R = I + (h/6)(K1 + 2 K2 + 2 K3 + K4), K1 = -a1, K2 = -(I + h/2 K1) a2,
    K3 = -(I + h/2 K2) a2, K4 = -(I + h K3) a3; every R_i is built in one
    batched product and only m @ R_i runs step by step.
    """
    n_steps = (len(a_nodes) - 1) // 2
    dim = a_nodes.shape[-1]
    eye = np.eye(dim)
    h = t / n_steps
    a1, a2, a3 = a_nodes[0:-1:2], a_nodes[1::2], a_nodes[2::2]
    k1 = -a1
    k2 = -(eye + 0.5 * h * k1) @ a2
    k3 = -(eye + 0.5 * h * k2) @ a2
    k4 = -(eye + h * k3) @ a3
    prop = eye + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    # snapshots wanted at w = t - tau; tau_grid ascending => w targets descending
    w_targets = t - tau_grid
    out = np.empty((len(tau_grid),) + a_nodes.shape[1:])
    snap = {}
    for i, w in enumerate(w_targets):
        snap.setdefault(int(round(w / h)), []).append(i)
    m = np.broadcast_to(eye, a_nodes.shape[1:]).copy()
    for idx in snap.get(0, []):
        out[idx] = m
    for step in range(n_steps):
        m = m @ prop[step]
        for idx in snap.get(step + 1, []):
            out[idx] = m
    return out


def frozen_kernel_hat(symbol: FrozenSymbol, t: float, xi_grid) -> FrozenKernelHat:
    """Integrate the frozen-kernel ODE per frequency and tabulate it.

    The matrix ODE runs in the time-reversed variable w = t - tau from the
    identity at w = 0, so the stored array carries the identity at
    tau = t and the decayed kernel at tau = 0. The step count starts at the
    larger of TAU_STEPS and a stability estimate from the symbol's largest
    probed eigenvalue, then doubles. Each doubling turns the coarse table
    K_c and the fine table K_f into the Richardson value
    K_f + (K_f - K_c) / 15, fifth order for RK4 (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4); the doubling stops once that value moves by less
    than RK4_REFINE_TOL from the previous level's, where the first doubling
    compares it with the plain starting table. The last Richardson value is
    returned.

    The ellipticity probe runs before any integration node is evaluated,
    and its matrices fill the tau-grid nodes of the first level, which the
    step grid embeds (they are taken at tau_grid[i], which may differ from
    the node time t - w by an ulp). Each doubling keeps the symbol values
    of the previous level as its even nodes, so every distinct node is
    evaluated once: the symbol is called (2 n_final + 1) n_xi times in
    all, probe included, and the node table takes
    O(n_final n_xi dim_N^2) memory for the final step count n_final.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xis = np.asarray(xi_grid, dtype=float)
    tau_grid = np.linspace(0.0, t, TAU_STEPS + 1)
    probed = np.empty((TAU_STEPS + 1, len(xis), symbol.dim_N, symbol.dim_N))
    lam_max = ellipticity_probe(symbol, tau_grid, xis, out=probed)
    n_steps = max(TAU_STEPS, int(np.ceil(4.0 * t * lam_max)))
    # keep the tau grid embedded in the step grid
    n_steps = int(np.ceil(n_steps / TAU_STEPS)) * TAU_STEPS

    # node w = t - tau_grid[i] is j = (TAU_STEPS - i) 2 n_steps / TAU_STEPS
    a_nodes = _refine_nodes(symbol, t, xis, probed[::-1],
                            2 * n_steps // TAU_STEPS, n_steps)
    prev = coarse = _integrate_khat(a_nodes, t, tau_grid)
    for _ in range(24):
        n_steps *= 2
        a_nodes = _refine_nodes(symbol, t, xis, a_nodes, 2, n_steps)
        fine = _integrate_khat(a_nodes, t, tau_grid)
        extrapolated = fine + (fine - coarse) / 15.0
        converged = float(np.max(np.abs(extrapolated - prev))) < RK4_REFINE_TOL
        prev, coarse = extrapolated, fine
        if converged:
            break
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
        object.__setattr__(self, "b", b)

    @property
    def c_d(self) -> float:
        return gamma((self.d + 1) / 2.0) / np.pi ** ((self.d + 1) / 2.0)


def poisson_aniso_eval(kernel: PoissonAnisoKernel, x, z: float):
    """Pointwise kernel value; z = 0 is rejected (the limit is delta(x))."""
    if z == 0:
        raise ValueError("z must be nonzero")
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
    if z == 0:
        raise ValueError("z must be nonzero")
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
    if err > 1e-6:
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
    if hbar0 <= 1:
        raise ValueError("hbar0 must exceed 1 (A(n) > 0 for all n != 0)")
    if t <= 0:
        raise ValueError("t must be positive")
    modes = (n / TWO_PI) * np.exp(-sd_symbol(wavenumbers(n), hbar0) * t)
    modes[0] = 0.0
    return PeriodicField(np.fft.irfft(modes, n), domain_length=TWO_PI)
