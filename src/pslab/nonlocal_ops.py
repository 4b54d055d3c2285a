"""Nonlocal operators realized two ways: Fourier multipliers and direct
principal-value quadratures on the torus.

The singular integrals here are all posed on the real line against kernels
1/alpha, 1/alpha^2, or 1/|alpha|^{1+a}. Integrands built from periodic
fields are periodic in alpha, so the line integrals fold onto (-pi, pi]
exactly: sum_k 1/(alpha+2pik) = (1/2)cot(alpha/2), sum_k 1/(alpha+2pik)^2
= 1/(4 sin^2(alpha/2)), and the interface drift kernel folds in closed form
through the complex cotangent (see muskat_st_rhs). The |alpha|^{1+a} kernel
has no closed fold: every integral against it goes through one
antiderivative, and its far periods are a Hurwitz-zeta series in the
increment (DLMF 25.11) that, past a third of its radius, starts after the
nearest three periods. Shift sums over data-dependent kernels run blockwise from one
cached per-N _ShiftPlan; sums over fixed kernels are circulants applied
through the plan's kernel spectra (the Muskat convolutions), or by the
closed-form symbol pi c_1 |k| of the Dirichlet-Neumann rule, whose two
backends are thus one multiplier. A shifted read is a strided window of the
samples doubled along their last axis (grid.shift_windows), and a plan
block reads one slice of it: no shift sum gathers through an index table.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from .grid import (
    NumericalFailure,
    PeriodicField,
    TWO_PI,
    _derivative_table,
    _read_only,
    apply_multiplier,
    derivatives,
    fractional_laplacian,
    hilbert_transform,
    irfft,
    on_two_pi_torus,
    rfft,
    shift_windows,
    wavenumbers,
)

# Dual-backend agreement target for the drifted half-Laplacian; the checked
# mode errors at 10x this.
BACKEND_TOL = 1e-3


# ---------------------------------------------------------------------------
# dimensional constants of the flat-interface operator

# 1 / contc_integral(1, [0], [1], 1e-12), the QUADPACK value of c_1 as its
# bits: pi c_1 - 1 = 1.7e-11, where the exact c_1 is 1/pi
_C1_QUADRATURE = float.fromhex("0x1.45f306dcb4b95p-2")


@lru_cache(maxsize=None)
def lemz0_constant(d: int) -> float:
    """c_d = (int (1-cos alpha_1)/|alpha|^{d+1} d alpha)^{-1} over R^d, the
    contc_integral at b = 0 and e the first unit vector. d = 2 runs that
    quadrature; d = 1 returns the value it gives, 1 / contc_integral(1, [0],
    [1], 1e-12), stored bit for bit, so that the Dirichlet-Neumann backends
    that read it need no quadrature."""
    if d == 1:
        return _C1_QUADRATURE
    return 1.0 / contc_integral(d, np.zeros(d), np.eye(d)[0], 1e-12)


def _one_minus_cos_over_square(c: float, tol: float = 1e-12) -> float:
    """int_0^inf (1 - cos(c alpha)) / alpha^2 d alpha by adaptive quadrature."""
    from scipy import integrate

    c = abs(float(c))
    if c == 0.0:
        return 0.0
    head, e1 = integrate.quad(lambda a: (1.0 - np.cos(c * a)) / a**2, 0.0, 1.0,
                              epsabs=tol, epsrel=tol, limit=200)
    # tail: int_1^inf 1/a^2 - int_1^inf cos(c a)/a^2, the latter by the
    # oscillatory-weight rule
    osc, e2 = integrate.quad(lambda a: 1.0 / a**2, 1.0, np.inf,
                             weight="cos", wvar=c, limit=200)
    if not (e1 <= 1e-7 and abs(e2) <= 1e-7):
        raise RuntimeError("oscillatory tail quadrature did not converge")
    return head + 1.0 - osc


def contc_integral(d: int, b, e, tol: float = 1e-10) -> float:
    """int (1 - cos(e.alpha)) / ((alpha.b)^2 + |alpha|^2)^{(d+1)/2} d alpha.

    Multiplied by lemz0_constant(d) this equals
    sqrt(<b>^2 - (b.e)^2) / <b>^2 for unit e.
    """
    b = np.atleast_1d(np.asarray(b, dtype=float))
    e = np.atleast_1d(np.asarray(e, dtype=float))
    if b.shape != (d,) or e.shape != (d,):
        raise ValueError(f"b and e must have shape ({d},)")
    for name, v in (("b", b), ("e", e)):
        if not np.all(np.isfinite(v)):
            raise ValueError(f"{name} must be finite")
    if d == 1:
        return _one_minus_cos_over_square(e[0], tol) * 2.0 / (1.0 + b[0] ** 2)
    if d != 2:
        raise ValueError("d must be 1 or 2")
    from scipy import integrate

    def angular(th):
        w = np.array([np.cos(th), np.sin(th)])
        ce = float(e @ w)
        cb = float(b @ w)
        return 0.5 * np.pi * abs(ce) / (cb * cb + 1.0) ** 1.5

    # kinks where e.omega = 0
    th_e = np.arctan2(e[1], e[0])
    pts = sorted(((th_e + 0.5 * np.pi * k) % TWO_PI) for k in range(1, 4, 2))
    val, err = integrate.quad(angular, 0.0, TWO_PI, points=pts, limit=200,
                              epsabs=tol, epsrel=tol)
    if not err <= 1e-7:
        raise RuntimeError(f"angular quadrature error {err:.2e}")
    return val


# ---------------------------------------------------------------------------
# drifted half-Laplacian

def _normalize_sign(sign) -> int:
    if sign in (+1, -1):
        return int(sign)
    if sign in ("+", "-"):
        return +1 if sign == "+" else -1
    raise ValueError("sign must be +1, -1, '+' or '-'")


# Entries per (shifts x N) block temporary: 256 KB of float64 stays in L2 at
# every N; a Peskin block's 2-component temporaries are twice 256 KB.
_BLOCK_PAIRS = 1 << 15


class _ShiftPlan:
    """Per-N shift-sum tables on the 2pi-torus, shared read-only through the
    cache. The nodes alpha_s = j_s h, j_s = -N/2..-1, 1..N/2, are the
    punctured periodic trapezoid rule: strict +/- pairs, no alpha = 0 node
    (each caller adds its pair limit), and two half-weighted +/-pi nodes that
    share the rule's single pi node. The plan also holds per-node trig
    columns, the spectra of the weighted fixed kernels, so that sum_s
    weights_s K_s g(x - j_s h) = irfft(K_hat rfft(g)), and the blocks: runs
    of at most _BLOCK_PAIRS // N rows of one shift sign, each paired with
    its slice of shift_windows(g). Row s reads g(x - j_s h), window
    (-j_s) % N, and within one sign the windows fall by one per row, so a
    block's read is one strided slice; the first half of the blocks holds
    the -alpha rows, the second the +alpha rows."""

    def __init__(self, n: int):
        h = TWO_PI / n
        steps = np.concatenate([np.arange(-n // 2, 0), np.arange(1, n // 2 + 1)])
        self.alpha = _read_only(steps * h)
        self.weights = _read_only(np.where(np.abs(steps) == n // 2, 0.5 * h, h))
        self.half_cot = _read_only(0.5 / np.tan(0.5 * self.alpha))
        self.sin = _read_only(np.sin(self.alpha))
        self.two_sin2 = _read_only(2.0 * np.sin(0.5 * self.alpha) ** 2)
        self.inv_four_sin2 = _read_only(0.5 / self.two_sin2)
        # kernels laid on the shift lattice steps % n, where the two
        # half-weighted +/-pi nodes add at index n/2
        self.inv_four_sin2_hat, self.half_cot_hat = (
            _read_only(rfft(np.bincount(steps % n, self.weights * kernel, minlength=n)))
            for kernel in (self.inv_four_sin2, self.half_cot))
        rows = self.block_rows = max(1, min(_BLOCK_PAIRS // n, n // 2))
        starts = np.arange(0, n, rows)
        self.blocks = [(slice(i, i + rows), slice(k, k - rows, -1))
                       for i, k in zip(starts.tolist(), (-steps[starts] % n).tolist())]


_shift_plan = lru_cache(maxsize=4)(_ShiftPlan)


class BackendMismatchError(RuntimeError):
    """Raised when the multiplier and quadrature routes disagree."""

    def __init__(self, gap, fourier_field, quadrature_field):
        self.gap, self.fourier_field, self.quadrature_field = gap, fourier_field, quadrature_field
        super().__init__(f"backend disagreement {gap:.3e} exceeds {10 * BACKEND_TOL:.0e}")


def dirichlet_neumann_op(field: PeriodicField, b: float, sign,
                         backend: str = "fourier") -> PeriodicField:
    """L_{+/-,b} f = (b f' +/- Lambda f) / <b>^2 in one dimension.

    Both backends apply one symbol, (i b k +/- c |k|) / <b>^2, and differ
    only in c. "fourier" takes the exact c = 1: in one dimension the drifted
    root sqrt(<b>^2 k^2 - (b k)^2) is |k|. "quadrature" takes c = pi c_1,
    c_1 = lemz0_constant(1), the stored value of its adaptive quadrature
    (pi c_1 - 1 = 1.7e-11), the symbol of b f'/<b>^2 +/- c_1
    P.V. int delta_alpha f /<b>^2 d alpha/alpha^2 under the shift plan's rule.
    On the 2pi-torus the rule's sum of w_s K_s (f(x) - f(x - j_s h)) against
    the fold K = 1/(4 sin^2(alpha/2)) of 1/alpha^2 has at mode m the symbol
    (h/2) sum_{j=1}^{n-1} sin^2(pi m j/n) / sin^2(pi j/n) = (h/2) m (n - m),
    and the alpha = 0 pair limit -h f''/2 (without which an O(h) hole is left)
    adds h m^2/2: pi |m| exactly, pi |k| on length L. So AC-03 and the verify
    check dirichlet_neumann_backend_gap measure only |pi c_1 - 1|. "checked"
    runs both and raises BackendMismatchError on disagreement.
    """
    if field.components != 1:
        raise ValueError("dirichlet_neumann_op takes scalar 1D fields")
    sgn = _normalize_sign(sign)
    b = float(b)
    if not np.isfinite(b):
        raise ValueError(f"drift b must be finite, got {b!r}")
    if backend == "checked":
        four = dirichlet_neumann_op(field, b, sgn, backend="fourier")
        quad = dirichlet_neumann_op(field, b, sgn, backend="quadrature")
        scale = max(float(np.max(np.abs(four.samples))), 1e-300)
        gap = float(np.max(np.abs(four.samples - quad.samples))) / scale
        if gap > 10 * BACKEND_TOL:
            raise BackendMismatchError(gap, four, quad)
        return four
    if backend not in ("fourier", "quadrature"):
        raise ValueError(f"unknown backend {backend!r}")
    c = 1.0 if backend == "fourier" else np.pi * lemz0_constant(1)
    n, L = field.n, field.domain_length
    lam = c * np.abs(wavenumbers(n, L))
    return apply_multiplier(
        field, (b * _derivative_table(n, L, (1,))[0] + sgn * lam) / (1.0 + b * b))


# ---------------------------------------------------------------------------
# fractional mean curvature

def _horner(x: np.ndarray, coef, out: np.ndarray | None = None) -> np.ndarray:
    """np.polynomial.polynomial.polyval(x, coef, tensor=False) bit for bit,
    each term's product and sum taken in place, in out when given."""
    out = np.empty(x.shape) if out is None else out
    out[...] = coef[-1]
    for c in coef[-2::-1]:
        out *= x
        out += c
    return out


# Largest |z| on which F(z) = z g(z^2); past it g would need degree 54-118.
_PAIR_Z_MAX = 0.5


@lru_cache(maxsize=8)
def _pair_antiderivative(a: float) -> np.ndarray:
    """Monomial coefficients of g(w) = int_0^1 (1 + w t^2)^{-(2+a)/2} dt, so
    that F(z) = z g(z^2) = int_0^z <s>^{-(2+a)} ds: 1, then those of h in
    g = 1 + w h(w), h the degree-11 Chebyshev interpolant on
    [0, _PAIR_Z_MAX^2] of 96-node Gauss-Legendre values summed through
    expm1 and log1p, which keep their relative accuracy as w -> 0. Within
    4e-16 of g there."""
    deg, w_max = 11, _PAIR_Z_MAX ** 2
    t, wts = np.polynomial.legendre.leggauss(96)
    t, wts = 0.5 * (t + 1.0), 0.5 * wts
    w = 0.5 * w_max * (1.0 - np.cos(np.pi * (np.arange(deg + 1) + 0.5) / (deg + 1)))
    h = np.expm1(-0.5 * (2 + a) * np.log1p(w[:, None] * t * t)) @ wts / w
    h_coef = np.polynomial.Chebyshev.fit(w, h, deg, domain=[0.0, w_max]).convert(
        kind=np.polynomial.Polynomial).coef
    return _read_only(np.concatenate([[1.0], h_coef]))


@lru_cache(maxsize=8)
def _arctan_antiderivative(a: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(p, q, F(inf)) for F past _PAIR_Z_MAX. With s = tan theta, F(z) =
    int_0^phi cos^a, phi = arctan z: F = phi p(phi^2) for |z| <= 1, and past
    it F = sign(z) (F(inf) - psi^{1+a} q(psi^2)), psi = arctan(1/|z|), the
    integral of sin^a over [0, psi]. p and q integrate term by term the
    degree-12 and -10 Chebyshev interpolants on [0, (pi/4)^2] of
    cos^a(sqrt w) and (sin(sqrt w)/sqrt w)^a. Their constant terms then take
    up the gap between the branches at |z| = _PAIR_Z_MAX and 1, so F steps
    across each switch to round-off."""
    def monomials(fun, deg):
        return np.polynomial.Chebyshev.interpolate(fun, deg, [0.0, (0.25 * np.pi) ** 2]).convert(
            kind=np.polynomial.Polynomial).coef

    m = np.arange(13)
    p = monomials(lambda w: np.cos(np.sqrt(w)) ** a, 12) / (2 * m + 1)
    q = monomials(lambda w: (np.sin(np.sqrt(w)) / np.sqrt(w)) ** a, 10) / (2 * m[:11] + 1 + a)
    f_inf = 0.5 * math.sqrt(math.pi) * math.gamma(0.5 * (1 + a)) / math.gamma(1 + 0.5 * a)
    z0, phi, psi = np.float64(_PAIR_Z_MAX), np.arctan(_PAIR_Z_MAX), np.arctan(1.0)
    p[0] += (z0 * _horner(z0 * z0, _pair_antiderivative(a)) - phi * _horner(phi * phi, p)) / phi
    q[0] += (f_inf - psi * _horner(psi * psi, p)) / psi ** (1 + a) - _horner(psi * psi, q)
    return _read_only(p), _read_only(q), f_inf


def _antiderivative(z: np.ndarray, a: float, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """F(z) = int_0^z <s>^{-(2+a)} ds for every real z, odd bit for bit:
    z g(z^2) (_pair_antiderivative) where |z| <= _PAIR_Z_MAX, past it the
    arctan branches of _arctan_antiderivative. Written to out when given.

    Where some |z| passes _PAIR_Z_MAX, one stable sort by branch lays the
    entries of each branch in one run of a copy of z, each branch runs on
    its own run and one scatter writes them back: the same elementwise
    operations as on the entries gathered branch by branch. The runs live
    in work, a float64 array of 3 z.size entries, when given, so that a
    caller's loop reuses one set of arrays whatever the mix of branches."""
    mag = np.abs(z)
    steep = mag > _PAIR_Z_MAX
    if not steep.any():
        out = _horner(z * z, _pair_antiderivative(a), out)
        out *= z
        return out
    far = mag > 1.0
    order = np.argsort(np.add(steep, far, dtype=np.int8).ravel(), kind="stable")
    # runs [0, mid), [mid, tail) and [tail, size) hold the entries with
    # |z| <= _PAIR_Z_MAX, <= 1 and > 1, each in its order in z; phi and psi
    # replace their entries in zs
    mid, tail = z.size - np.count_nonzero(steep), z.size - np.count_nonzero(far)
    near, inner, outer = slice(0, mid), slice(mid, tail), slice(tail, None)
    zs, x, val = np.empty((3, z.size)) if work is None else work.reshape(3, z.size)
    np.take(z.ravel(), order, out=zs, mode="clip")
    p, q, f_inf = _arctan_antiderivative(a)
    _horner(np.multiply(zs[near], zs[near], out=x[near]), _pair_antiderivative(a), val[near])
    val[near] *= zs[near]
    phi = np.arctan(zs[inner], out=zs[inner])
    _horner(np.multiply(phi, phi, out=x[inner]), p, val[inner])
    val[inner] *= phi
    psi = zs[outer]
    np.arctan(np.divide(1.0, np.abs(psi, out=psi), out=psi), out=psi)
    _horner(np.multiply(psi, psi, out=x[outer]), q, val[outer])
    val[outer] *= np.power(psi, 1 + a, out=x[outer])
    np.subtract(f_inf, val[outer], out=val[outer])
    out = np.empty(z.shape) if out is None else out
    np.put(out, order, val)
    # the tail branch is F(|z|) so far: its sign is z's
    return np.copysign(out, z, out=out, where=far)


def fractional_mean_curvature(u: PeriodicField, a: float) -> PeriodicField:
    """H[u](x) = P.V. int_R G(Delta_alpha u)/|alpha|^{1+a} d alpha for a 1D
    graph, with Delta_alpha u = delta_alpha u/|alpha|.

    The +/- pair sum G(Delta_alpha u) - G(-Delta_{-alpha} u) is the divided
    difference 2 (F(back/alpha) - F(fwd/alpha)) of F(z) = int_0^z <s>^{-(2+a)}
    ds (_antiderivative), back = delta_alpha u and fwd = -delta_{-alpha} u:
    exact and free of cancellation at every slope. Since fwd_j(x) =
    back_j(x + j h), F is evaluated once per (j, x) and its fwd term read
    back by one skewed window (_read_ahead). The remaining |alpha|^{-a}
    singularity at 0 is subtracted analytically and its integral added back
    in closed form. Periods beyond |alpha| = pi enter through _fmc_fold, which
    is odd in the increment, so it runs once, on back, and the -alpha fold is
    the negated read-ahead of its output, in the same read as F.
    """
    if u.components != 1:
        raise ValueError("fractional_mean_curvature takes scalar 1D graphs")
    if not 0.0 < a < 1.0:
        raise ValueError("a must lie in (0, 1)")
    if not on_two_pi_torus(u.domain_length):
        raise ValueError("the period fold assumes the 2pi-torus")

    n, v = u.n, u.samples
    plan = _shift_plan(n)
    alpha, wts = np.abs(plan.alpha), plan.weights

    up, upp = derivatives(u, (1, 2))
    # pair-limit coefficient of the |alpha|^{-a} singularity
    csing = -2.0 * upp * (1.0 + up * up) ** (-0.5 * (2 + a))

    # pairs j = 1..n/2 in the +alpha blocks: node row half-1+j holds
    # +alpha_j, whose window n - j reads x - j h; window j reads x + j h
    half = n // 2
    windows = shift_windows(v)
    acc = np.zeros(n)
    # work arrays shared by every block, as in peskin_rhs, in one allocation;
    # each row of doubled holds the block's term twice over, for _read_ahead.
    # The steep path of _antiderivative has the last three, doubled's among
    # them, to itself until it returns
    work = np.empty((6, plan.block_rows, n))
    back, z, term = work[:3]
    doubled = work[3:5].reshape(plan.block_rows, 2 * n)
    for rows, behind in plan.blocks[len(plan.blocks) // 2:]:
        j = np.arange(rows.start, rows.stop) - (half - 1)
        al = alpha[rows, None]
        np.subtract(v, windows[behind], out=back)   # delta_alpha u
        # F(back/al) and the +alpha fold; the same at x + j h is the F(fwd/al)
        # and -alpha fold term
        _antiderivative(np.divide(back, al, out=z), a, out=term, work=work[3:])
        term *= 2.0 / al ** (1 + a)
        term += _fmc_fold(back, j, n, a)
        np.concatenate([term, term], axis=1, out=doubled)
        acc += wts[rows] @ np.subtract(term, _read_ahead(doubled, int(j[0])), out=z)
    acc += csing * (np.pi ** (1 - a) / (1 - a) - wts[half:] @ alpha[half:] ** (-a))
    return u.with_samples(acc)


def _read_ahead(doubled: np.ndarray, j0: int) -> np.ndarray:
    """Read-only view of t[r, (i + j0 + r) % N] for each row r of t, shape
    (rows, N), from doubled = [t, t] along each row: row r read j0 + r nodes
    ahead, with j0 + rows <= N + 1. Laid end to end, the rows of doubled put
    entry i of that read at flat position r (2N + 1) + j0 + i, so it is
    every (2N + 1)-th length-N window: numpy's sliding_window_view of that
    flat run, sliced so, shape and strides included, made by one ndarray
    call on the buffer of doubled, which must be C-contiguous."""
    rows, n = doubled.shape[0], doubled.shape[1] // 2
    step = doubled.itemsize
    return _read_only(np.ndarray((rows, n), doubled.dtype, doubled, offset=j0 * step,
                                 strides=((2 * n + 1) * step, step)))


# Far-period fold: terms kept in the Hurwitz series; the largest
# |delta| / (2pi - |alpha|) the series over every period serves (1e-15 from
# 400 periods there, 4e-11 at 1/2); and the periods either side that entries
# past it take through F.
_SERIES_TERMS = 14
_SERIES_RATIO = 1 / 3
_FAR_PERIODS = 3


# Cephes zeta.c: (2j)!/B_2j for j = 1..12, the Euler-Maclaurin terms of
# the Hurwitz zeta function, and the relative size of a last term
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
            -1.8924375803183791606e9, 7.47242496e10, -2.950130727918164224e12,
            1.1646782814350067249e14, -4.5979787224074726105e15,
            1.8152105401943546773e17, -7.1661652561756670113e18)
_MACHEP = 2.0 ** -53


def _hurwitz_zeta(x: float, q: float) -> float:
    """zeta(x, q) = sum_{k>=0} (q + k)^{-x} for x > 1 and 0 < q < 1e8, by
    Cephes' algorithm in its operation order, so scipy.special.zeta bit for
    bit: the terms one by one until q + k > 9 with k >= 9, then the
    Euler-Maclaurin tail, up to 12 Bernoulli terms (DLMF 25.11); either sum
    stops at the first term below _MACHEP relative to the sum."""
    total = math.pow(q, -x)
    w, i, b = q, 0, 0.0
    while i < 9 or w <= 9.0:
        i += 1
        w += 1.0
        b = math.pow(w, -x)
        total += b
        if abs(b / total) < _MACHEP:
            return total
    total += b * w / (x - 1.0)
    total -= 0.5 * b
    rise, k = 1.0, 0.0
    for coef in _ZETA_EM:
        rise *= x + k
        b /= w
        t = rise * b / coef
        total += t
        if abs(t / total) < _MACHEP:
            break
        k += 1.0
        rise *= x + k
        b /= w
        k += 1.0
    return total


def _binom(n: float, k: int) -> float:
    """binom(n, k) for 0 <= k < 20 and a non-integer n as scipy.special.binom
    takes it, bit for bit: prod (i + n - k) / prod i over i = 1..k, one
    division (its rescaling past 1e50 never starts for |n| < 2)."""
    num = den = 1.0
    for i in range(1, k + 1):
        num *= i + n - k
        den *= i
    return num / den


@lru_cache(maxsize=16)
def _fold_series(n: int, a: float, start: int = 1) -> np.ndarray:
    """(terms, n/2, 1) coefficients 2 binom(-(2+a)/2, m)/(2m+1) (2pi)^{-s}
    [zeta(s, start+q) + zeta(s, start-q)], s = 2m+2+a, of delta^{2m+1} in the
    periods |k| >= start of the fold at alpha_j = 2pi q, q = j/n, j = 1..n/2;
    even in alpha, so -alpha_j shares them. binom and the Hurwitz zeta come
    from _binom and _hurwitz_zeta, scipy.special's values to the bit."""
    m = np.arange(_SERIES_TERMS)[:, None]
    s = 2 * m + 2 + a
    q = (np.arange(1, n // 2 + 1) / n).tolist()
    binom = np.array([[_binom(-0.5 * (2 + a), k)] for k in range(_SERIES_TERMS)])
    zeta = np.array([[_hurwitz_zeta(x, start + y) + _hurwitz_zeta(x, start - y)
                      for y in q] for x in s[:, 0].tolist()])
    table = 2.0 * binom / (2 * m + 1) * TWO_PI ** (-s) * zeta
    return _read_only(table[..., None])


def _fmc_fold(delta: np.ndarray, j: np.ndarray, n: int, a: float) -> np.ndarray:
    """sum_{k != 0} G(delta/|alpha+2pik|)/|alpha+2pik|^{1+a}, G = 2F, at
    alpha_j = 2pi j/n, one row of delta per j in 1..n/2: Horner in delta^2 on
    the _fold_series table, and where |delta| > _SERIES_RATIO (2pi - alpha_j)
    G of the _FAR_PERIODS nearest periods either side plus the series of the
    rest, whose radius is 8pi - alpha_j; at N=128 within 4e-15 of 400 periods
    for |delta| up to 1.5 (2pi - alpha_j). The far entries, gathered row by
    row, take their series coefficients a row's run at a time and share one
    set of work arrays over the six periods."""
    x = np.multiply(delta, delta)
    out = _horner(x, _fold_series(n, a)[:, j - 1])
    out *= delta
    far = np.abs(delta, out=x) > _SERIES_RATIO * (TWO_PI - (TWO_PI / n) * j[:, None])
    if far.any():
        per_row = np.count_nonzero(far, axis=1)
        d = delta[far]
        al = np.repeat((TWO_PI / n) * j, per_row)
        tail = _fold_series(n, a, _FAR_PERIODS + 1)[:, j - 1, 0]
        work = np.empty((7, d.size))
        dd, total, r, term = work[:4]
        np.multiply(d, d, out=dd)
        series = np.repeat(tail[-1], per_row)
        for c in tail[-2::-1]:
            series *= dd
            series += np.repeat(c, per_row)
        series *= d
        # G(d/r)/r^{1+a} at r = 2pi k +/- alpha, summed in that order from 0
        total[...] = 0.0
        for k, period in itertools.product(range(1, _FAR_PERIODS + 1), (np.add, np.subtract)):
            period(TWO_PI * k, al, out=r)
            _antiderivative(np.divide(d, r, out=dd), a, out=term, work=work[4:])
            term *= 2.0
            term /= np.power(r, 1 + a, out=r)
            total += term
        series += total
        out[far] = series
    return out


# ---------------------------------------------------------------------------
# Peskin membrane

class WellStretchedError(NumericalFailure):
    """Contour tangent speed |X'| vanishes at a node."""

    def __init__(self, node):
        self.node = node
        super().__init__(f"contour tangent speed vanishes at node {node}")


@lru_cache(maxsize=4)
def _torus_distances(n: int, L: float) -> np.ndarray:
    """(n/2, n) torus distances from node i to node i + j, j = 1..n/2, on
    period L, the rows stretch_ratio divides by its chords; cached per
    (n, L) and read-only."""
    x = np.arange(n) * (L / n)
    dx = np.abs(x - shift_windows(x)[1:n // 2 + 1])
    return _read_only(np.minimum(dx, L - dx, out=dx))


def stretch_ratio(X: PeriodicField) -> float:
    """Theta = max over node pairs of torus distance / chord length;
    coincident nodes give inf."""
    if X.components != 2:
        raise ValueError("stretch_ratio takes a 2-component contour")
    n = X.n
    # window j pairs node i with node i+j, j = 1..n/2: every pair once, the
    # antipodal ones twice
    d0, d1 = X.samples[:, None, :] - shift_windows(X.samples)[:, 1:n // 2 + 1]
    d0 *= d0
    d1 *= d1
    d0 += d1
    chord = np.sqrt(d0, out=d0)
    with np.errstate(divide="ignore"):
        ratios = np.divide(_torus_distances(n, X.domain_length), chord, out=chord)
    return float(ratios.max())


def peskin_rhs(X: PeriodicField) -> PeriodicField:
    """Full membrane velocity of the Hookean filament: tension T(|X'|) = |X'|,
    so the tension vector V = T X'/|X'| is X' itself; -(1/4) H(X') + the
    three drift integrals of the torus reformulation.

    Writing c(alpha) = (1/2)cot(alpha/2), the fold of d alpha/alpha, every
    power of c cancels between the half-slope vectors c*deltaX and the
    denominators |c*deltaX|^2, leaving bounded combinations of deltaX and
    E = X'(x-alpha) - c*deltaX. The integrand extends by 0 at alpha = 0 and
    is regular at alpha = pi where c vanishes.
    """
    if X.components != 2:
        raise ValueError("peskin_rhs takes a 2-component contour")
    if not on_two_pi_torus(X.domain_length):
        raise ValueError("the cotangent reformulation assumes the 2pi-torus")

    xp = derivatives(X, (1,))[0]
    speed = np.sqrt(xp[0] ** 2 + xp[1] ** 2)
    if float(speed.min()) <= 1e-12:
        raise WellStretchedError(int(np.argmin(speed)))

    main = -0.25 * hilbert_transform(X.with_samples(xp)).samples

    plan = _shift_plan(X.n)
    Xs = X.samples
    X_windows, xp_windows = shift_windows(Xs), shift_windows(xp)
    acc = np.zeros_like(Xs)
    # work arrays shared by every block: fresh block temporaries would be
    # page-faulted in again on each block
    dX, E, dV = np.empty((3, 2, plan.block_rows, X.n))
    for rows, behind in plan.blocks:
        np.subtract(Xs[:, None, :], X_windows[:, behind], out=dX)
        np.subtract(xp[:, None, :], xp_windows[:, behind], out=dV)
        np.multiply(plan.half_cot[rows, None], dX, out=E)
        np.subtract(xp_windows[:, behind], E, out=E)
        # term = a dV - b E - s dX with a = dX.E/r2, b = dX.dV/r2 and
        # s = E.dV/r2 - 2ab, assembled in place
        r2 = dX[0] ** 2 + dX[1] ** 2
        a = (dX[0] * E[0] + dX[1] * E[1]) / r2
        b = (dX[0] * dV[0] + dX[1] * dV[1]) / r2
        s = (E[0] * dV[0] + E[1] * dV[1]) / r2 - 2.0 * a * b
        dV *= a
        E *= b
        dX *= s
        dV -= E
        dV -= dX
        acc += plan.weights[rows] @ dV
    return X.with_samples(main + acc / (4.0 * np.pi))


# ---------------------------------------------------------------------------
# Muskat with surface tension

def muskat_st_rhs(f: PeriodicField, rho0: float = 0.0) -> PeriodicField:
    """Interface velocity -Lambda^3 f/<f'>^3 + N1 + N2 + rho0 N3.

    The 1/alpha^2 commutator integral N2 folds through 1/(4 sin^2(alpha/2)).
    N1 and N3 share the kernel B(x,alpha)/alpha with B = Delta_alpha f (f' -
    Delta_alpha f)/<Delta_alpha f>^2, which is rational in 1/(alpha + 2pik)
    with delta_alpha f as data, so the period sum has the closed form
        G = -f' Im S(alpha + i delta f) - S(alpha) + Re S(alpha + i delta f),
    S(z) = (1/2)cot(z/2). The assembled right side is projected onto mean
    zero, matching the perfect-derivative form of the original equation.

    S(alpha + i deltaf) = (sin alpha - i sinh deltaf) / (2 (cosh deltaf -
    cos alpha)) asks no transcendental function of a pair: with P =
    e^{(f - c)/2} and 1/P at the nodes, c the midrange of f, a pair reads
    p = P(x) (1/P)(x - alpha) = e^{deltaf/2} and 1/p, and then
        2 sinh(deltaf/2) = p - 1/p,   2 sinh deltaf = (p - 1/p)(p + 1/p),
        2 (cosh deltaf - cos alpha) = (p - 1/p)^2 + 4 sin^2(alpha/2).
    P and 1/P lie within e^{+-range(f)/4}, so the kernel overflows only where
    (p - 1/p)^2, that is sinh^2(deltaf/2), does: at |deltaf| ~ 710, as the
    sinh of deltaf itself would. The rounding of the node exponentials
    enters p - 1/p as an absolute error of a few ulps, which at the nearest
    shifts, where deltaf is small, is a relative error ~ ulp/|deltaf|: the
    kernel is that of f perturbed by about an ulp.
    """
    if f.components != 1:
        raise ValueError("muskat_st_rhs takes scalar 1D fields")
    if not on_two_pi_torus(f.domain_length):
        raise ValueError("the period fold assumes the 2pi-torus")
    h = f.spacing
    v = f.samples

    fp, fpp, fppp = derivatives(f, (1, 2, 3))
    w = (1.0 + fp * fp) ** -1.5
    wp, wpp = derivatives(PeriodicField(w, domain_length=f.domain_length), (1, 2))
    q = derivatives(PeriodicField(fpp * w, domain_length=f.domain_length), (1,))[0]

    main = -fractional_laplacian(f, 3.0).samples * w
    plan = _shift_plan(f.n)
    # the fixed-kernel sums as convolutions: the N2 commutator
    # sum wk2 fpp(x-alpha) (w(x-alpha) - w(x)) = conv(fpp wc) - wc conv(fpp), and
    # the -S(alpha) part of G against q, and against fp under gravity; the
    # commutator ignores constants in w, and the centred wc = w - mean(w)
    # keeps its two large cancelling convolutions small
    wc = w - w.mean()
    modes = rfft(np.stack([fpp * wc, fpp, q, fp] if rho0 else [fpp * wc, fpp, q]))
    modes[:2] *= plan.inv_four_sin2_hat
    modes[2:] *= plan.half_cot_hat
    conv = irfft(modes, f.n)
    # the alpha = 0 node carries the pair limits G0 and limit2
    G0 = fp * fpp / (2.0 * (1.0 + fp * fp))
    sum_q = h * G0 * q - conv[2]
    sum_fp = h * G0 * fp - conv[3] if rho0 else None
    sum_2 = h * (0.5 * fpp * wpp + fppp * wp) + conv[0] - wc * conv[1]
    wts = plan.weights
    # e^{(f - c)/2} and e^{-(f - c)/2} about the midrange c, so that neither
    # overflows before the kernel does: the pair (x, x - alpha) reads
    # p = e^{deltaf/2} and 1/p as the product of one at x and the window of
    # the other
    half = 0.5 * (v - 0.5 * (v.max() + v.min()))
    e = np.exp(np.stack([half, -half]))
    e_windows, q_windows = shift_windows(e[::-1]), shift_windows(q)
    fp_windows = shift_windows(fp) if rho0 else None
    hfp = 0.5 * fp
    # work arrays reused by every block, as in peskin_rhs
    work = np.empty((3, plan.block_rows, f.n))
    p, r, g = work
    for rows, behind in plan.blocks:
        np.multiply(e[:, None, :], e_windows[:, behind], out=work[:2])  # p, 1/p
        # g = G + S(alpha) = Re S(alpha + i deltaf) - f' Im S(alpha + i deltaf),
        # where S(alpha + i deltaf) = (sin alpha - i sinh deltaf) / den with the
        # cancellation-free den = 2 (cosh deltaf - cos alpha)
        #                       = 4 sinh^2(deltaf/2) + 4 sin^2(alpha/2),
        # 2 sinh(deltaf/2) = p - 1/p and 2 sinh deltaf = (p - 1/p)(p + 1/p)
        np.subtract(p, r, out=g)
        p += r
        den = np.multiply(g, g, out=r)
        den += 2.0 * plan.two_sin2[rows, None]
        g *= p
        g *= hfp
        g += plan.sin[rows, None]
        g /= den
        if rho0:
            sum_fp += wts[rows] @ np.multiply(g, fp_windows[behind], out=den)
        g *= q_windows[behind]
        sum_q += wts[rows] @ g

    # N1 + N2 + rho0 N3; without gravity N3 is neither read nor added
    gravity = rho0 * (sum_fp / np.pi + fractional_laplacian(f, 1.0).samples) if rho0 else 0.0
    rhs = main + (sum_q - sum_2) / np.pi - gravity
    rhs = rhs - rhs.mean()
    return f.with_samples(rhs)
