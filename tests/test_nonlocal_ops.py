"""Nonlocal operators: dimensional constants against adaptive quadrature,
dual-backend agreement for the drifted half-Laplacian, linearized-multiplier
oracles, and a direct Stokeslet single-layer computation that re-derives the
membrane velocity without the cotangent reformulation."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import beta, binom, gamma, zeta

from pslab.grid import (
    PeriodicField,
    apply_multiplier,
    derivatives,
    fractional_laplacian,
    hilbert_transform,
    shift_windows,
)
from pslab.nonlocal_ops import (
    BackendMismatchError,
    WellStretchedError,
    contc_integral,
    dirichlet_neumann_op,
    fractional_mean_curvature,
    lemz0_constant,
    muskat_st_rhs,
    peskin_rhs,
    stretch_ratio,
)
from pslab import nonlocal_ops

TWO_PI = 2.0 * np.pi


def grid_1d(n):
    return np.arange(n) * (TWO_PI / n)


def band_limited(n, rng, max_mode=12, decay=2.0):
    x = grid_1d(n)
    u = np.zeros(n)
    for m in range(1, max_mode + 1):
        u += rng.normal(0.0, 1.0 / (1.0 + m**decay)) * np.cos(m * x + rng.uniform(0.0, TWO_PI))
    return u


def circle(n, radius=1.0, center=(0.0, 0.0)):
    x = grid_1d(n)
    return PeriodicField(np.stack([center[0] + radius * np.cos(x),
                                   center[1] + radius * np.sin(x)]))


class TestLemz0Constant:
    def test_d1_is_inverse_pi(self):
        assert abs(lemz0_constant(1) - 1.0 / np.pi) < 1e-6

    def test_d2_is_inverse_two_pi(self):
        assert abs(lemz0_constant(2) - 1.0 / TWO_PI) < 1e-8

    def test_d1_is_the_quadrature_value(self):
        # stored bit for bit, so that the Dirichlet-Neumann backends need no
        # quadrature
        assert lemz0_constant(1) == 1.0 / contc_integral(1, np.zeros(1), np.eye(1)[0], 1e-12)

    def test_rejects_other_dimensions(self):
        with pytest.raises(ValueError):
            lemz0_constant(3)

    def test_d2_radial_reduction_oracle(self):
        # the d=2 route rests on int_0^inf (1-cos(c r))/r^2 dr = pi|c|/2;
        # confirm that identity numerically for a few frequencies
        for c in (0.3, 1.0, 2.5):
            val = nonlocal_ops._one_minus_cos_over_square(c)
            assert val == pytest.approx(0.5 * np.pi * c, rel=1e-9)


class TestContcIdentity:
    def test_identity_sampled(self):
        # c_d * int (1-cos(e.alpha))/((alpha.b)^2+|alpha|^2)^{(d+1)/2}
        # = sqrt(<b>^2 - (b.e)^2)/<b>^2 for unit e
        rng = np.random.default_rng(42)
        for _ in range(10):
            b = rng.uniform(-3.0, 3.0, size=1)
            e = np.array([rng.choice([-1.0, 1.0])])
            lhs = lemz0_constant(1) * contc_integral(1, b, e)
            g2 = 1.0 + float(b @ b)
            rhs = np.sqrt(g2 - float(b @ e) ** 2) / g2
            assert abs(lhs - rhs) < 1e-4
        for _ in range(10):
            b = rng.uniform(-3.0, 3.0, size=2)
            th = rng.uniform(0.0, TWO_PI)
            e = np.array([np.cos(th), np.sin(th)])
            lhs = lemz0_constant(2) * contc_integral(2, b, e)
            g2 = 1.0 + float(b @ b)
            rhs = np.sqrt(g2 - float(b @ e) ** 2) / g2
            assert abs(lhs - rhs) < 1e-4

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            contc_integral(2, [1.0], [1.0, 0.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("d", [1, 2])
    def test_non_finite_drift_or_direction_rejected(self, d, bad):
        # unchecked, a nan b or e comes back as a nan integral
        finite = np.eye(d)[0]
        for name, b, e in (("b", np.full(d, bad), finite),
                           ("e", finite, np.full(d, bad))):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                contc_integral(d, b, e)


def drifted_sqrt_symbol(k, b, sign):
    """lambda^{+/-}(k, b) = (i b k +/- sqrt(<b>^2 k^2 - (b k)^2)) / <b>^2, the
    drifted root written out; in one dimension it is |k|."""
    bk = b * k
    g2 = 1.0 + b * b
    return (1j * bk + sign * np.sqrt(g2 * (k * k) - bk * bk)) / g2


class TestDriftedSqrtSymbol:
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_fourier_backend_matches_sqrt_oracle(self, n):
        rng = np.random.default_rng(n + 11)
        for length in (TWO_PI, 2.0 * TWO_PI, 1.0):
            f = PeriodicField(rng.standard_normal(n), domain_length=length)
            k = np.fft.rfftfreq(n, d=1.0 / n) * (TWO_PI / length)
            for b in (0.0, 0.5, 3.0, -1.7):
                for sign in (+1, -1):
                    got = dirichlet_neumann_op(f, b, sign, backend="fourier").samples
                    want = apply_multiplier(f, drifted_sqrt_symbol(k, b, sign)).samples
                    assert relative_gap(got, want) <= 1e-15, (length, b, sign)

    def test_sum_and_product_identities(self):
        # with c = 1 (fourier) or pi c_1 (quadrature): L+ f + L- f = 2 b f'/<b>^2,
        # L+ f - L- f = 2 c Lambda f/<b>^2, L+ L- f = (b^2 + c^2) f''/<b>^4
        rng = np.random.default_rng(7)
        for backend, c in (("fourier", 1.0), ("quadrature", np.pi * lemz0_constant(1))):
            for length in (TWO_PI, 3.0):
                f = PeriodicField(band_limited(256, rng), domain_length=length)
                fp, fpp = derivatives(f, (1, 2))
                lam = fractional_laplacian(f, 1.0).samples
                for b in (0.0, 0.5, -2.5):
                    g2 = 1.0 + b * b
                    lp = dirichlet_neumann_op(f, b, +1, backend=backend)
                    lm = dirichlet_neumann_op(f, b, "-", backend=backend)
                    drift = lp.samples + lm.samples - 2.0 * b * fp / g2
                    assert np.max(np.abs(drift)) <= 1e-13 * np.max(np.abs(fp))
                    assert relative_gap(lp.samples - lm.samples, 2.0 * c * lam / g2) <= 1e-13
                    # (i b k)^2 - c^2 k^2 = (b^2 + c^2) (i k)^2
                    lpm = dirichlet_neumann_op(lm, b, +1, backend=backend).samples
                    assert relative_gap(lpm, (b * b + c * c) * fpp / g2**2) <= 1e-12

    @given(b=st.floats(-5, 5), sign=st.sampled_from([+1, -1, "+", "-"]),
           level=st.floats(-1e3, 1e3), backend=st.sampled_from(["fourier", "quadrature"]))
    @settings(max_examples=50, deadline=None)
    def test_zero_frequency_annihilated(self, b, sign, level, backend):
        f = PeriodicField(np.full(64, level))
        got = dirichlet_neumann_op(f, b, sign, backend=backend).samples
        assert np.max(np.abs(got)) <= 1e-14 * max(1.0, abs(level))

    @pytest.mark.parametrize("b", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("backend", ["fourier", "quadrature", "checked"])
    def test_rejects_non_finite_drift_by_name(self, b, backend):
        # rejected before any arithmetic, so numpy has nothing to warn about
        f = PeriodicField(np.cos(grid_1d(64)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="drift b must be finite"):
                dirichlet_neumann_op(f, b, +1, backend=backend)

    def test_rejects_bad_sign(self):
        f = PeriodicField(np.cos(grid_1d(64)))
        for backend in ("fourier", "quadrature", "checked"):
            for sign in (2, 0, "plus"):
                with pytest.raises(ValueError, match="sign"):
                    dirichlet_neumann_op(f, 1.0, sign, backend=backend)


class TestShiftPlan:
    def test_node_structure(self):
        plan = nonlocal_ops._shift_plan(64)
        assert plan.alpha.shape == (64,)
        assert np.max(np.abs(plan.alpha)) == pytest.approx(np.pi)
        assert np.all(plan.weights > 0)
        assert not np.any(plan.alpha == 0.0)
        srt = np.sort(plan.alpha)
        assert np.allclose(srt, -srt[::-1], atol=1e-15)
        # the two half-weighted endpoints add up to one trapezoid node,
        # leaving total weight 2 pi minus the origin node
        assert plan.weights.sum() == pytest.approx(TWO_PI - TWO_PI / 64)

    def test_tables_are_shared_and_read_only(self):
        plan = nonlocal_ops._shift_plan(64)
        series = nonlocal_ops._fold_series(64, 0.5)
        tail = nonlocal_ops._fold_series(64, 0.5, nonlocal_ops._FAR_PERIODS + 1)
        pair = nonlocal_ops._pair_antiderivative(0.5)
        arctan = nonlocal_ops._arctan_antiderivative(0.5)
        assert nonlocal_ops._shift_plan(64) is plan
        assert nonlocal_ops._fold_series(64, 0.5) is series
        assert nonlocal_ops._fold_series(64, 0.5, nonlocal_ops._FAR_PERIODS + 1) is tail
        assert nonlocal_ops._pair_antiderivative(0.5) is pair
        assert nonlocal_ops._arctan_antiderivative(0.5) is arctan
        tables = (plan.alpha, plan.weights, plan.half_cot, plan.sin,
                  plan.two_sin2, plan.inv_four_sin2, plan.inv_four_sin2_hat,
                  plan.half_cot_hat, series, tail, pair, *arctan[:2])
        for table in tables:
            with pytest.raises(ValueError):
                table[0] = 1
            with pytest.raises(ValueError):
                table *= 2

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
    def test_blocks_read_one_window_each(self, n):
        # every block is a run of one shift sign whose window read is the
        # gather the plan's index table used to make, bit for bit
        plan = nonlocal_ops._shift_plan(n)
        steps = np.concatenate([np.arange(-n // 2, 0), np.arange(1, n // 2 + 1)])
        assert np.array_equal(steps * (TWO_PI / n), plan.alpha)
        rng = np.random.default_rng(n)
        scalar, contour = rng.standard_normal(n), rng.standard_normal((2, n))
        windows = [shift_windows(scalar), shift_windows(contour)]
        covered = []
        for rows, behind in plan.blocks:
            signs = np.sign(steps[rows])
            assert signs.size == plan.block_rows and np.all(signs == signs[0])
            covered.extend(range(n)[rows])
            index = (np.arange(n) - steps[rows, None]) % n
            for x, w in zip((scalar, contour), windows):
                assert w[..., behind, :].tobytes() == x[..., index].tobytes()
        assert covered == list(range(n))
        assert len(plan.blocks) % 2 == 0
        # the tables are columns and spectra; the blocks hold slices only
        tables = [v for k, v in vars(plan).items() if k not in ("blocks", "block_rows")]
        assert all(isinstance(v, np.ndarray) and v.ndim == 1 for v in tables)
        assert all(isinstance(s, slice) for block in plan.blocks for s in block)


def quadrature_symbol_from_kernel(n, length):
    """The rule's symbol summed from the plan's kernel spectrum: against the
    fold K = 1/(4 sin^2(alpha/2)), the circulant sum of w_s K_s
    (f(x) - f(x - j_s h)) is K_hat(0) - K_hat(k), and the alpha=0 pair
    limit adds h k^2/2; on length L the weights scale by L/2pi and the
    kernel by (2pi/L)^2."""
    kernel = nonlocal_ops._shift_plan(n).inv_four_sin2_hat.real
    k = np.fft.rfftfreq(n, d=1.0 / n) * (TWO_PI / length)
    return ((TWO_PI / length) * (kernel[0] - kernel) + 0.5 * (length / n) * k * k) / np.pi


class TestDirichletNeumannOp:
    def test_pure_mode_action(self):
        # on cos(kx) the operator is (b f' +/- Lambda f)/<b>^2 exactly
        n, k, b = 128, 3, 1.5
        x = grid_1d(n)
        f = PeriodicField(np.cos(k * x))
        g2 = 1.0 + b * b
        want = {+1: (-b * k * np.sin(k * x) + k * np.cos(k * x)) / g2,
                -1: (-b * k * np.sin(k * x) - k * np.cos(k * x)) / g2}
        for sign in (+1, -1):
            for backend in ("fourier", "quadrature"):
                got = dirichlet_neumann_op(f, b, sign, backend=backend).samples
                assert np.max(np.abs(got - want[sign])) < 1e-9

    @pytest.mark.parametrize("length", [TWO_PI, 1.0])
    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_quadrature_symbol_is_abs_k(self, n, length):
        # the punctured trapezoid sum with its pair limit is exactly pi |m|:
        # sum_{j=1}^{n-1} sin^2(pi m j/n) / sin^2(pi j/n) = m (n - m), so the
        # backends differ only by the factor pi c_1 of the quadrature route
        k = np.abs(np.fft.rfftfreq(n, d=1.0 / n) * (TWO_PI / length))
        symbol = quadrature_symbol_from_kernel(n, length)
        assert np.max(np.abs(symbol - k)) <= 4e-16 * np.max(k)
        f = PeriodicField(np.random.default_rng(n).standard_normal(n), domain_length=length)
        got = dirichlet_neumann_op(f, 0.0, +1, backend="quadrature").samples
        want = apply_multiplier(f, np.pi * lemz0_constant(1) * symbol).samples
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_b_zero_is_half_laplacian(self):
        n = 128
        x = grid_1d(n)
        f = PeriodicField(np.cos(5 * x))
        got = dirichlet_neumann_op(f, 0.0, +1, backend="quadrature").samples
        assert np.max(np.abs(got - 5 * np.cos(5 * x))) < 1e-9

    def test_backends_agree_on_random_fields(self):
        rng = np.random.default_rng(19)
        for b in (0.0, 0.5, 1.0, 3.0):
            for _ in range(3):
                f = PeriodicField(band_limited(256, rng))
                four = dirichlet_neumann_op(f, b, +1, backend="fourier").samples
                quad = dirichlet_neumann_op(f, b, +1, backend="quadrature").samples
                scale = np.max(np.abs(four))
                assert np.max(np.abs(four - quad)) < 1e-3 * scale

    def test_linearity(self):
        rng = np.random.default_rng(5)
        u = band_limited(128, rng)
        v = band_limited(128, rng)
        fu = dirichlet_neumann_op(PeriodicField(u), 0.7, -1).samples
        fv = dirichlet_neumann_op(PeriodicField(v), 0.7, -1).samples
        fuv = dirichlet_neumann_op(PeriodicField(2.0 * u - 3.0 * v), 0.7, -1).samples
        assert np.max(np.abs(fuv - (2.0 * fu - 3.0 * fv))) < 1e-12

    def test_checked_backend_returns_fourier(self):
        rng = np.random.default_rng(23)
        f = PeriodicField(band_limited(128, rng))
        got = dirichlet_neumann_op(f, 1.0, +1, backend="checked").samples
        ref = dirichlet_neumann_op(f, 1.0, +1, backend="fourier").samples
        assert np.array_equal(got, ref)

    def test_checked_backend_reports_disagreement(self, monkeypatch):
        rng = np.random.default_rng(29)
        f = PeriodicField(band_limited(128, rng))
        monkeypatch.setattr(nonlocal_ops, "lemz0_constant", lambda d: 0.0)
        with pytest.raises(BackendMismatchError) as exc:
            dirichlet_neumann_op(f, 0.0, +1, backend="checked")
        assert exc.value.gap > 10 * nonlocal_ops.BACKEND_TOL
        assert exc.value.fourier_field.samples.shape == (128,)
        assert exc.value.quadrature_field.samples.shape == (128,)

    def test_rejects_2d_and_unknown_backend(self):
        with pytest.raises(ValueError):
            dirichlet_neumann_op(PeriodicField(np.zeros((2, 32))), 1.0, +1)
        f = PeriodicField(np.cos(grid_1d(64)))
        with pytest.raises(ValueError):
            dirichlet_neumann_op(f, 1.0, +1, backend="exact")


def gcal(rho: float, d: int, a: float) -> float:
    """G(rho) = int_{-rho}^{rho} d tau / <tau>^{d+a}, by adaptive quadrature.

    Odd in rho and bounded by the full-line integral.
    """
    r = abs(float(rho))
    if r == 0.0:
        return 0.0
    # split so the O(1) feature near the origin is never lost inside a
    # long decaying tail
    integrand = lambda t: (1.0 + t * t) ** (-0.5 * (d + a))
    val, err = integrate.quad(integrand, 0.0, min(r, 8.0),
                              epsabs=1e-13, epsrel=1e-13, limit=200)
    if r > 8.0:
        tail, terr = integrate.quad(integrand, 8.0, r, epsabs=1e-13,
                                    epsrel=1e-13, limit=200)
        val, err = val + tail, err + terr
    if abs(err) > 1e-10:
        raise RuntimeError(f"gcal quadrature error {err:.2e}")
    return float(np.sign(rho)) * 2.0 * val


class TestGcal:
    def test_odd_and_zero(self):
        assert gcal(0.0, 2, 0.5) == 0.0
        for rho in (0.3, 1.7):
            assert gcal(-rho, 2, 0.5) == pytest.approx(-gcal(rho, 2, 0.5), rel=1e-13)

    def test_bounded_by_full_line(self):
        for a in (0.25, 0.75):
            full, _ = integrate.quad(lambda t: (1.0 + t * t) ** (-0.5 * (2 + a)),
                                     -np.inf, np.inf)
            assert gcal(50.0, 2, a) < full
            assert gcal(1e6, 2, a) == pytest.approx(full, rel=1e-6)

    def test_remainder_route_avoids_cancellation(self):
        # G(rho) - 2 rho = 2 rho^3 h(rho^2) ~ -(2+a)/3 rho^3, where the pair
        # antiderivative's table holds 1 and then h; so the remainder keeps
        # full relative accuracy where direct subtraction loses every digit
        a, rho = 0.5, 1e-8
        h = np.polynomial.polynomial.polyval(rho * rho, nonlocal_ops._pair_antiderivative(a)[1:])
        lead = -(2 + a) / 3.0 * rho**3
        assert 2.0 * rho**3 * h == pytest.approx(lead, rel=1e-14)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_remainder_matches_adaptive_quadrature(self, a):
        # at moderate slopes, on every branch of F, the remainder
        # 2 F(rho) - 2 rho of G = 2F and the adaptive quadrature of G agree
        # to round-off
        rho = np.array([-3.0, -1.7, -0.3, 0.3, 1.0, 1.7, 2.5, 3.0])
        rem = 2.0 * nonlocal_ops._antiderivative(rho, a) - 2.0 * rho
        oracle = np.array([gcal(r, 2, a) for r in rho]) - 2.0 * rho
        assert np.all(np.abs(rem - oracle) <= 1e-11 * np.abs(oracle))


def antiderivative_by_quad(z, a):
    """F(z) = int_0^z <s>^{-(2+a)} ds by adaptive quadrature, split at |z| = 1."""
    integrand = lambda s: (1.0 + s * s) ** (-0.5 * (2 + a))
    r = abs(z)
    pieces = [integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
              for lo, hi in ((0.0, min(r, 1.0)), (1.0, r)) if hi > lo]
    return np.copysign(sum(pieces), z)


def antiderivative_by_branch_gathers(z, a, out=None):
    """_antiderivative as it ran with one boolean gather per branch: the
    steep entries, then their |z| <= 1 and |z| > 1 parts, each a fresh
    array."""
    steep = np.abs(z) > nonlocal_ops._PAIR_Z_MAX
    near = np.where(steep, 0.0, z)
    out = nonlocal_ops._horner(near * near, nonlocal_ops._pair_antiderivative(a), out)
    out *= near
    if steep.any():
        p, q, f_inf = nonlocal_ops._arctan_antiderivative(a)
        zs = z[steep]
        mid = np.abs(zs) <= 1.0
        phi, psi = np.arctan(zs[mid]), np.arctan(1.0 / np.abs(zs[~mid]))
        zs[mid] = phi * nonlocal_ops._horner(phi * phi, p)
        zs[~mid] = np.copysign(f_inf - psi ** (1 + a) * nonlocal_ops._horner(psi * psi, q),
                               zs[~mid])
        out[steep] = zs
    return out


def fold_by_entry_gathers(delta, j, n, a, work=None):
    """_fmc_fold as it ran with the far entries' series coefficients
    gathered per entry, (terms, far entries) at once, and each period's
    terms fresh arrays, summed by sum(); work, the caller's work arrays,
    goes unused."""
    out = nonlocal_ops._horner(delta * delta, nonlocal_ops._fold_series(n, a)[:, j - 1])
    out *= delta
    far = np.abs(delta) > nonlocal_ops._SERIES_RATIO * (TWO_PI - (TWO_PI / n) * j[:, None])
    if far.any():
        jf = j[np.nonzero(far)[0]]
        d, al = delta[far], (TWO_PI / n) * jf
        tail = nonlocal_ops._fold_series(n, a, nonlocal_ops._FAR_PERIODS + 1)[:, jf - 1, 0]
        out[far] = d * nonlocal_ops._horner(d * d, tail) + sum(
            2.0 * antiderivative_by_branch_gathers(d / r, a) / r ** (1 + a)
            for k in range(1, nonlocal_ops._FAR_PERIODS + 1)
            for r in (TWO_PI * k + al, TWO_PI * k - al))
    return out


class TestAntiderivative:
    """F(z) = int_0^z <s>^{-(2+a)} ds on all three of its branches: z g(z^2)
    to |z| = 1/2, phi p(phi^2) with phi = arctan z to |z| = 1, and the tail
    F(inf) - psi^{1+a} q(psi^2), psi = arctan(1/|z|), past it."""

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_matches_adaptive_quadrature(self, a):
        z = np.concatenate([np.linspace(-30.0, 30.0, 241), np.geomspace(1e-6, 1e3, 91)])
        got = nonlocal_ops._antiderivative(z, a)
        want = np.array([antiderivative_by_quad(x, a) for x in z])
        assert got[z == 0.0] == 0.0
        nonzero = z != 0.0
        assert np.max(np.abs(got - want)[nonzero] / np.abs(want[nonzero])) <= 2e-15
        # the whole line: int_R <s>^{-(2+a)} ds = B(1/2, (1+a)/2)
        full = nonlocal_ops._antiderivative(np.array([np.inf, 1e300]), a)
        assert np.all(np.abs(2.0 * full / beta(0.5, 0.5 * (1 + a)) - 1.0) <= 1e-15)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_odd_bit_for_bit(self, a):
        z = np.concatenate([np.geomspace(1e-300, 1e300, 4001), np.linspace(0.0, 2.0, 4001),
                            [np.nextafter(0.5, 1.0), np.nextafter(1.0, 2.0), np.inf]])
        plus = nonlocal_ops._antiderivative(z, a)
        assert np.array_equal(nonlocal_ops._antiderivative(-z, a), -plus)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_continuous_across_switches(self, a):
        # from the last double of one branch to the first of the next, F
        # moves by its slope times the step, to round-off
        for b in (0.5, 1.0):
            z = np.array([b, np.nextafter(b, 2.0)])
            below, above = nonlocal_ops._antiderivative(z, a)
            step = (1.0 + b * b) ** (-0.5 * (2 + a)) * (z[1] - z[0])
            assert abs(above - below - step) <= 2e-16 * below, b

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_branch_runs_are_the_branch_gathers_bit_for_bit(self, a):
        # every mix of branches, the switches, signed zeros and infinities,
        # in one and two dimensions, into fresh arrays and into out and work
        rng = np.random.default_rng(11)
        z = np.concatenate([rng.standard_normal(3000) * scale for scale in (0.2, 1.0, 30.0)] + [
            [0.0, -0.0, np.inf, -np.inf, 0.5, -0.5, 1.0, -1.0,
             np.nextafter(0.5, 1.0), np.nextafter(1.0, 2.0)]])
        for x in (z, z[:9000].reshape(90, 100), np.full(64, 0.3), np.full(64, 3.0)):
            want = antiderivative_by_branch_gathers(x, a).tobytes()
            assert nonlocal_ops._antiderivative(x, a).tobytes() == want
            out, work = np.empty(x.shape), np.empty((3, *x.shape))
            assert nonlocal_ops._antiderivative(x, a, out, work) is out
            assert out.tobytes() == want


def multiplier_on_mode_one(a):
    """4 int_0^inf (1-cos alpha)/alpha^{2+a} d alpha by singular-weight
    quadrature; the action of the linearized operator on cos(x)."""
    head, _ = integrate.quad(lambda al: 0.5 * np.sinc(al / TWO_PI) ** 2, 0.0, 1.0,
                             weight="alg", wvar=(-a, 0.0), epsabs=1e-12, epsrel=1e-12)
    osc, _ = integrate.quad(lambda al: al ** (-(2 + a)), 1.0, np.inf,
                            weight="cos", wvar=1.0, limit=200)
    return 4.0 * (head + 1.0 / (1.0 + a) - osc)


class TestFractionalMeanCurvature:
    def test_multiplier_oracle_self_consistent(self):
        # same constant via the Gamma-function evaluation of the integral
        for a in (0.25, 0.5, 0.75):
            exact = -4.0 * gamma(-1.0 - a) * np.cos(0.5 * np.pi * (1.0 + a))
            assert multiplier_on_mode_one(a) == pytest.approx(exact, abs=1e-9)

    def test_constant_graph_is_flat(self):
        u = PeriodicField(np.full(128, 0.8))
        assert np.max(np.abs(fractional_mean_curvature(u, 0.5).samples)) == 0.0

    def test_linearized_multiplier(self):
        n, eps = 256, 1e-6
        x = grid_1d(n)
        for a in (0.25, 0.5, 0.75):
            u = PeriodicField(eps * np.cos(x))
            got = fractional_mean_curvature(u, a).samples / eps
            want = multiplier_on_mode_one(a) * np.cos(x)
            assert np.max(np.abs(got - want)) < 1e-3 * np.max(np.abs(want))

    def test_nonnegative_at_interior_max(self):
        n = 128
        x = grid_1d(n)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            v = np.zeros(n)
            for m in range(1, 6):
                v += rng.normal(0.0, 1.0 / m**2) * np.cos(m * x + rng.uniform(0.0, TWO_PI))
            H = fractional_mean_curvature(PeriodicField(v), 0.5).samples
            assert H[int(np.argmax(v))] >= 0.0

    def test_translation_equivariance(self):
        x = grid_1d(256)
        v = PeriodicField(0.2 * np.cos(x) + 0.1 * np.sin(3 * x))
        H = fractional_mean_curvature(v, 0.5).samples
        Hs = fractional_mean_curvature(v.with_samples(np.roll(v.samples, 7)), 0.5).samples
        assert np.max(np.abs(Hs - np.roll(H, 7))) < 1e-11

    def test_rejects_bad_order_and_dim(self):
        u = PeriodicField(np.cos(grid_1d(64)))
        with pytest.raises(ValueError):
            fractional_mean_curvature(u, 1.5)


_GL32_NODES, _GL32_WEIGHTS = np.polynomial.legendre.leggauss(32)


def gcal_by_gauss_legendre(rho, a):
    """G(rho) = 2 rho int_0^1 <rho t>^{-(2+a)} dt on 32 Gauss-Legendre nodes,
    to round-off for |rho| <= 3."""
    t = rho[..., None] * (0.5 * (_GL32_NODES + 1.0))
    return rho * (((1.0 + t * t) ** (-0.5 * (2 + a))) @ _GL32_WEIGHTS)


def hurwitz_table(alpha, a, start, terms):
    """Coefficients of delta^{2m+1}, m < terms, in the fold's periods
    |k| >= start at alpha (any shape), along a new leading axis:
    2 binom(-(2+a)/2, m)/(2m+1) (2pi)^{-s} [zeta(s, start+q) + zeta(s, start-q)],
    s = 2m+2+a, q = alpha/2pi."""
    m = np.arange(terms).reshape((terms,) + (1,) * np.ndim(alpha))
    s = 2 * m + 2 + a
    q = alpha / TWO_PI
    return (2.0 * binom(-0.5 * (2 + a), m) / (2 * m + 1) * TWO_PI ** (-s)
            * (zeta(s, start + q) + zeta(s, start - q)))


def explicit_fold(delta, alpha, a, periods, tail):
    """sum_{k != 0} G(delta/|alpha+2pik|)/|alpha+2pik|^{1+a} for 0 < alpha <= pi:
    G on Gauss-Legendre nodes over `periods` periods either side, and the
    periods beyond as the odd series in delta whose hurwitz_table is tail."""
    out = delta * np.polynomial.polynomial.polyval(delta * delta, tail, tensor=False)
    for k in range(1, periods + 1):
        for r in (TWO_PI * k + alpha, TWO_PI * k - alpha):
            out = out + gcal_by_gauss_legendre(delta / r, a) / r ** (1 + a)
    return out


def period_sum(delta, alpha, a, periods):
    """explicit_fold with the linear and cubic terms of the periods beyond."""
    return explicit_fold(delta, alpha, a, periods, hurwitz_table(alpha, a, periods + 1, 2))


def converged_fold(delta, alpha, a):
    """The fold at one alpha per row of delta, to round-off by a route of its
    own: the Hurwitz series over every period to 40 terms where
    |delta| <= (2pi - alpha)/2 (dropped terms below 1e-24), and elsewhere 8
    periods either side on Gauss-Legendre nodes and 20 terms of the series of
    the rest, whose radius 18pi - alpha passes 17pi."""
    out = delta * np.polynomial.polynomial.polyval(
        delta * delta, hurwitz_table(alpha, a, 1, 40), tensor=False)
    far = np.abs(delta) > 0.5 * (TWO_PI - alpha)
    if far.any():
        row = np.nonzero(far)[0]
        out[far] = explicit_fold(delta[far], alpha[row, 0], a, 8,
                                 hurwitz_table(alpha[:, 0], a, 9, 20)[:, row])
    return out


class TestFarPeriodFold:
    """The fold against explicit period sums, on both sides of its switch
    from the series over every period to the nearest periods through F."""

    N = 128

    def cases(self, fractions):
        # every shift j = 1..N/2 (alpha = pi included), increments of both
        # signs at the given fractions of the series radius 2pi - alpha
        j = np.arange(1, self.N // 2 + 1)
        alpha = (TWO_PI * j / self.N)[:, None]
        frac = np.asarray(fractions)
        return j, alpha, (TWO_PI - alpha) * np.concatenate([-frac, frac])

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_series_branch_matches_forty_periods(self, a):
        r = nonlocal_ops._SERIES_RATIO
        j, alpha, delta = self.cases([0.01, 0.3 * r, 0.7 * r, 0.999 * r])
        got = nonlocal_ops._fmc_fold(delta, j, self.N, a)
        ref = period_sum(delta, alpha, a, 40)
        assert np.max(np.abs(got - ref)) < 1e-9

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_fallback_branch_matches_forty_periods(self, a):
        # forty periods with the cubic term of the rest leave a truncation
        # error quintic in delta, about 7e-15 |delta|^5
        r = nonlocal_ops._SERIES_RATIO
        j, alpha, delta = self.cases([1.001 * r, 0.5 * (1.0 + r), 0.999])
        got = nonlocal_ops._fmc_fold(delta, j, self.N, a)
        ref = period_sum(delta, alpha, a, 40)
        assert np.max(np.abs(got - ref) / np.abs(delta) ** 5) < 1e-14

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_far_branch_matches_four_hundred_periods(self, a):
        # past the series radius 2pi - alpha too, where the series over every
        # period diverges
        r = nonlocal_ops._SERIES_RATIO
        j, alpha, delta = self.cases([1.001 * r, 0.5 * (1.0 + r), 0.999, 1.25, 1.5])
        got = nonlocal_ops._fmc_fold(delta, j, self.N, a)
        ref = period_sum(delta, alpha, a, 400)
        assert np.max(np.abs(got - ref)) < 1e-13
        # the operator oracle's own fold
        assert np.max(np.abs(converged_fold(delta, alpha, a) - ref)) < 1e-14

    def test_curvature_matches_forty_period_fold(self, monkeypatch):
        # increments up to 1 stay in the series branch, where the whole
        # operator agrees with the 40-period fold to round-off (1.6e-16
        # relative here)
        x = grid_1d(self.N)
        u = PeriodicField(0.5 * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi)) + 0.1 * np.sin(3 * x))
        got = fractional_mean_curvature(u, 0.5).samples
        monkeypatch.setattr(nonlocal_ops, "_fmc_fold", lambda delta, j, n, a, work: period_sum(
            delta, (TWO_PI * j / n)[:, None], a, 40))
        ref = fractional_mean_curvature(u, 0.5).samples
        assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_tail_table_is_the_per_entry_expression(self, n, a):
        # the series of the periods beyond the far branch's explicit ones, as
        # one entry at alpha_j = 2pi j/n would compute it
        start = nonlocal_ops._FAR_PERIODS + 1
        m = np.arange(nonlocal_ops._SERIES_TERMS)
        s = 2 * m + 2 + a

        def tail(q):
            return (2.0 * binom(-0.5 * (2 + a), m) / (2 * m + 1) * TWO_PI ** (-s)
                    * (zeta(s, start + q) + zeta(s, start - q)))

        want = np.stack([tail(j / n) for j in range(1, n // 2 + 1)], axis=1)
        got = nonlocal_ops._fold_series(n, a, start)
        assert got.shape == (nonlocal_ops._SERIES_TERMS, n // 2, 1)
        assert np.array_equal(got[..., 0], want)

    @pytest.mark.parametrize("n", [128, 256, 512])
    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_series_table_is_the_per_entry_expression(self, n, a):
        # the series over every period, start = 1, against scipy's binom and
        # zeta entry by entry
        m = np.arange(nonlocal_ops._SERIES_TERMS)
        s = 2 * m + 2 + a

        def series(q):
            return (2.0 * binom(-0.5 * (2 + a), m) / (2 * m + 1) * TWO_PI ** (-s)
                    * (zeta(s, 1 + q) + zeta(s, 1 - q)))

        want = np.stack([series(j / n) for j in range(1, n // 2 + 1)], axis=1)
        assert np.array_equal(nonlocal_ops._fold_series(n, a)[..., 0], want)

    def test_scalar_zeta_and_binom_are_scipys(self):
        # off the tables too: both sums' exits and q past the direct terms
        rng = np.random.default_rng(11)
        x = rng.uniform(1.05, 40.0, 2000)
        q = np.exp(rng.uniform(np.log(1e-3), np.log(50.0), 2000))
        got = [nonlocal_ops._hurwitz_zeta(xx, qq) for xx, qq in zip(x.tolist(), q.tolist())]
        assert np.array_equal(got, zeta(x, q))
        n = -rng.uniform(0.5, 1.5, 200)
        for k in range(20):
            got = [nonlocal_ops._binom(nn, k) for nn in n.tolist()]
            assert np.array_equal(got, binom(n, k))

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_fold_is_odd_bit_for_bit(self, a):
        # the operator reads the -alpha fold as the negated gather of the
        # +alpha one, on both sides of the switch to the nearest periods
        r = nonlocal_ops._SERIES_RATIO
        j, _, delta = self.cases([0.01, 0.7 * r, 1.001 * r, 0.999, 1.5])
        plus = nonlocal_ops._fmc_fold(delta, j, self.N, a)
        minus = nonlocal_ops._fmc_fold(-delta, j, self.N, a)
        assert np.array_equal(minus, -plus)

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_fold_is_the_per_entry_gathers_bit_for_bit(self, a):
        r = nonlocal_ops._SERIES_RATIO
        j, _, delta = self.cases([0.01, 0.7 * r, 1.001 * r, 0.999, 1.5])
        got = nonlocal_ops._fmc_fold(delta, j, self.N, a)
        assert got.tobytes() == fold_by_entry_gathers(delta, j, self.N, a).tobytes()

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    def test_fold_into_work_is_the_allocating_fold(self, n):
        # one work array serves each block of a call, stale entries and all:
        # a block of gentle increments, all in the series, and of steep
        # ones, most past it, give the bits of the fold that allocates
        a, rows = 0.5, min(n // 2, 64)
        j = np.arange(1, n // 2 + 1)[::n // 2 // rows]
        radius = TWO_PI - (TWO_PI / n) * j[:, None]
        rng = np.random.default_rng(n)
        work = np.full(nonlocal_ops._FOLD_WORK * rows * n, np.nan)
        for scale in (0.2, 1.5, 0.2, 1.5):
            delta = scale * radius * rng.uniform(-1.0, 1.0, (rows, n))
            got = nonlocal_ops._fmc_fold(delta, j, n, a, work)
            assert got.tobytes() == nonlocal_ops._fmc_fold(delta, j, n, a).tobytes()
            assert got.tobytes() == fold_by_entry_gathers(delta, j, n, a).tobytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="counts minor faults as Linux does")
    def test_curvature_faults_in_no_fresh_arrays_per_call(self):
        # the far entries' arrays live in the call's one work allocation;
        # allocated block by block, at N=512 they made every call fault
        # about 1,000 pages in afresh (28 at N=256)
        code = (
            "import resource, sys; import numpy as np\n"
            "from pslab.grid import PeriodicField\n"
            "from pslab.nonlocal_ops import fractional_mean_curvature\n"
            "n = int(sys.argv[1]); x = np.arange(n) * (2 * np.pi / n)\n"
            "u = PeriodicField(2.0 * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi)))\n"
            "fractional_mean_curvature(u, 0.5)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(20):\n"
            "    fractional_mean_curvature(u, 0.5)\n"
            "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)\n")
        env = dict(os.environ)
        src = str(Path(nonlocal_ops.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for n in (256, 512):
            proc = subprocess.run([sys.executable, "-c", code, str(n)], env=env,
                                  capture_output=True, text=True, timeout=300, check=True)
            assert float(proc.stdout) <= 100, n

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_curvature_is_the_gathering_helpers_bit_for_bit(self, n, a, monkeypatch):
        # the steep path through the block's work arrays, which the
        # antiderivative's runs share with the read-ahead copy, against the
        # helpers that gathered into fresh arrays
        x = grid_1d(n)
        fields = [triangle_1d(n, 2.0), triangle_1d(n, 6.0), 0.4 * np.sin(3 * x),
                  np.random.default_rng(n).standard_normal(n)]
        got = [fractional_mean_curvature(PeriodicField(v), a).samples for v in fields]
        monkeypatch.setattr(nonlocal_ops, "_antiderivative",
                            lambda z, a, out=None, work=None:
                            antiderivative_by_branch_gathers(z, a, out))
        monkeypatch.setattr(nonlocal_ops, "_fmc_fold", fold_by_entry_gathers)
        for v, g in zip(fields, got):
            assert g.tobytes() == fractional_mean_curvature(PeriodicField(v), a).samples.tobytes()

    def test_horner_is_polyval_bit_for_bit(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, (8, 64))
        for coef in (rng.standard_normal(13), rng.standard_normal((14, 8, 1))):
            want = np.polynomial.polynomial.polyval(x, coef, tensor=False)
            assert np.array_equal(nonlocal_ops._horner(x, coef), want)
            assert np.array_equal(nonlocal_ops._horner(x, coef, np.empty_like(x)), want)


# ---------------------------------------------------------------------------
# the operator against a converged route with no table of the module's

GL96_NODES, GL96_WEIGHTS = np.polynomial.legendre.leggauss(96)


def fractional_mean_curvature_by_gauss_legendre(u, a):
    """The operator with every pair integral on 96 Gauss-Legendre nodes over
    (rows, N, 96) arrays and the fold of every backward increment by
    converged_fold. The forward increment at x_i is the backward one at
    x_{i+j} and the fold is odd, so the fold of -fwd is the negated fold of
    back read j entries ahead."""
    n = u.n
    v = u.samples
    plan = nonlocal_ops._shift_plan(n)
    alpha = np.abs(plan.alpha)
    wts = plan.weights
    nodes, weights = 0.5 * (GL96_NODES + 1.0), 0.5 * GL96_WEIGHTS
    up, upp = derivatives(u, (1, 2))
    csing = -2.0 * upp * (1.0 + up * up) ** (-0.5 * (2 + a))
    half = n // 2
    # row j - 1 holds shift j = 1..N/2
    shifts = np.arange(1, half + 1)[:, None]
    al = alpha[half:, None]
    ahead = (np.arange(n) + shifts) % n
    back = v - v[(np.arange(n) - shifts) % n]
    # far-branch rows cap converged_fold's (entries, 32) node arrays at 2^18
    step = max(1, (1 << 18) // (n * len(_GL32_NODES)))
    fold = np.concatenate([converged_fold(back[r:r + step], al[r:r + step], a)
                           for r in range(0, half, step)])
    fold -= np.take_along_axis(fold, ahead, axis=1)
    acc = np.zeros(n)
    rows = max(1, (1 << 18) // (n * len(nodes)))
    for r in range(0, half, rows):
        block = slice(r, r + rows)
        bmu = (v[ahead[block]] - v) / al[block]
        omu = back[block] / al[block] - bmu
        # in place: fresh (rows, N, 96) temporaries took about a sixth of the call
        args = nodes * omu[..., None]
        args += bmu[..., None]
        np.multiply(args, args, out=args)
        args += 1.0
        np.power(args, -0.5 * (2 + a), out=args)
        pair = 2.0 * omu * (args @ weights) / al[block] ** (1 + a)
        acc += wts[half + r:half + r + rows] @ (pair + fold[block])
    acc += csing * (np.pi ** (1 - a) / (1 - a) - wts[half:] @ alpha[half:] ** (-a))
    return u.with_samples(acc)


def triangle_1d(n, amplitude):
    return amplitude * (1.0 - (2.0 / np.pi) * np.abs(grid_1d(n) - np.pi))


def steep_rows(v):
    """Per shift j = 1..N/2, whether some |delta_alpha v / alpha| passes the
    pair antiderivative's range."""
    n = v.size
    j = np.arange(1, n // 2 + 1)
    z = (v - np.stack([np.roll(v, k) for k in j])) / (TWO_PI * j / n)[:, None]
    return np.max(np.abs(z), axis=1) > nonlocal_ops._PAIR_Z_MAX


class TestPairAntiderivative:
    @pytest.mark.parametrize("a", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_table_matches_96_node_reference(self, a):
        z = np.linspace(-nonlocal_ops._PAIR_Z_MAX, nonlocal_ops._PAIR_Z_MAX, 2001)
        t, w = 0.5 * (GL96_NODES + 1.0), 0.5 * GL96_WEIGHTS
        ref = ((1.0 + (z * z)[:, None] * t * t) ** (-0.5 * (2 + a))) @ w
        got = np.polynomial.polynomial.polyval(z * z, nonlocal_ops._pair_antiderivative(a))
        assert np.max(np.abs(got - ref)) <= 1e-15

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024])
    def test_matches_gauss_legendre_oracle(self, n, a):
        x = grid_1d(n)
        data = {
            "triangle": triangle_1d(n, 0.15 * np.pi),
            "smooth": 0.2 * np.cos(x) + 0.1 * np.sin(3 * x),
            "band": 0.3 * band_limited(n, np.random.default_rng(n)),
        }
        for name, v in data.items():
            u = PeriodicField(v)
            got = fractional_mean_curvature(u, a).samples
            want = fractional_mean_curvature_by_gauss_legendre(u, a).samples
            assert relative_gap(got, want) <= 1e-14, name

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_steep_rows_match_gauss_legendre_oracle(self, n, a):
        # the amplitude-2 triangle passes |z| = 0.5 on every row, and its
        # increments pass the series radius at every shift; the steep sine
        # passes |z| = 0.5 only on its short shifts
        x = grid_1d(n)
        for v, every in ((triangle_1d(n, 2.0), True), (0.4 * np.sin(3 * x), False)):
            steep = steep_rows(v)
            assert steep.all() if every else steep.any() and not steep.all()
            u = PeriodicField(v)
            got = fractional_mean_curvature(u, a).samples
            want = fractional_mean_curvature_by_gauss_legendre(u, a).samples
            assert relative_gap(got, want) <= 1e-14


def stretch_ratio_triu(X):
    """The N x N reference: the largest ratio over every pair i < k."""
    n = X.n
    x = np.arange(n) * X.spacing
    dx = np.abs(x[:, None] - x[None, :])
    dx = np.minimum(dx, X.domain_length - dx)
    chord2 = ((X.samples[:, :, None] - X.samples[:, None, :]) ** 2).sum(axis=0)
    iu = np.triu_indices(n, k=1)
    with np.errstate(divide="ignore"):
        ratios = dx[iu] / np.sqrt(chord2[iu])
    return float(np.max(ratios))


class TestStretchRatio:
    @pytest.mark.parametrize("n", [16, 128, 512])
    def test_matches_all_pairs_reference(self, n):
        x = grid_1d(n)
        rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
        coincident = circle(n).samples.copy()
        coincident[:, n - 2] = coincident[:, 3]  # a pair across the seam
        contours = [circle(n),  # every antipodal pair ties
                    PeriodicField(rot @ np.stack([1.3 * np.cos(x), 0.6 * np.sin(x)])),
                    PeriodicField(coincident)]
        for X in contours:
            assert stretch_ratio(X) == stretch_ratio_triu(X)
        assert stretch_ratio(contours[2]) == np.inf

    def test_unit_circle_value(self):
        assert stretch_ratio(circle(256)) == pytest.approx(0.5 * np.pi, abs=1e-6)

    def test_scales_inversely_with_radius(self):
        theta = stretch_ratio(circle(128, radius=3.0))
        assert theta == pytest.approx(np.pi / 6.0, abs=1e-6)

    def test_translation_invariant(self):
        t0 = stretch_ratio(circle(128))
        t1 = stretch_ratio(circle(128, center=(5.0, -2.0)))
        assert t0 == pytest.approx(t1, rel=1e-14)

    def test_requires_contour(self):
        with pytest.raises(ValueError):
            stretch_ratio(PeriodicField(np.zeros(32)))

    @pytest.mark.parametrize("length", [TWO_PI, 3.0])
    def test_distance_table_is_cached_and_read_only(self, length):
        # one table per (N, L), the torus distances of window j = 1..N/2
        table = nonlocal_ops._torus_distances(64, length)
        assert nonlocal_ops._torus_distances(64, length) is table
        x = np.arange(64) * (length / 64)
        dx = np.abs(x - np.stack([np.roll(x, -k) for k in range(1, 33)]))
        assert table.tobytes() == np.minimum(dx, length - dx).tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestPeskinRhs:
    def test_circles_are_steady(self):
        # uniform Hookean tension: every circle is an equilibrium,
        # regardless of radius or position
        for radius, center in [(1.0, (0.0, 0.0)), (2.0, (0.0, 0.0)), (1.0, (3.0, -1.0))]:
            rhs = peskin_rhs(circle(256, radius, center)).samples
            assert np.max(np.abs(rhs)) < 1e-12 * max(1.0, radius)

    def test_rotation_equivariance(self):
        x = grid_1d(128)
        ell = np.stack([1.1 * np.cos(x), 0.9 * np.sin(x)])
        base = peskin_rhs(PeriodicField(ell)).samples
        ang = 0.7
        R = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        rotated = peskin_rhs(PeriodicField(R @ ell)).samples
        assert np.max(np.abs(rotated - R @ base)) < 1e-10

    def test_translation_invariance(self):
        x = grid_1d(128)
        ell = np.stack([1.1 * np.cos(x), 0.9 * np.sin(x)])
        base = peskin_rhs(PeriodicField(ell)).samples
        moved = peskin_rhs(PeriodicField(ell + np.array([[2.0], [-1.0]]))).samples
        assert np.max(np.abs(moved - base)) < 1e-10

    def test_matches_stokeslet_single_layer(self):
        # independent route: G(r) = (1/4pi)(-log|r| I + r@r/|r|^2) against
        # the force density (T(|X'|)X')', with the log split into a smooth
        # ratio plus the exact Fourier weights pi/|n| of -log|2 sin(a/2)|
        n = 256
        x = grid_1d(n)
        for curve in [
            np.stack([1.1 * np.cos(x), 0.9 * np.sin(x)]),
            np.stack([(1.0 + 0.1 * np.cos(3 * x)) * np.cos(x) + 0.3,
                      (1.0 + 0.08 * np.sin(2 * x)) * np.sin(x) - 0.1]),
        ]:
            X = PeriodicField(curve)
            mine = peskin_rhs(X).samples
            orac = self._stokes_single_layer(X)
            assert np.max(np.abs(mine - orac)) < 1e-12

    @staticmethod
    def _stokes_single_layer(X):
        n, h = X.n, X.spacing
        xs = X.samples
        xp = derivatives(X, (1,))[0]
        speed = np.sqrt(xp[0] ** 2 + xp[1] ** 2)
        W = derivatives(PeriodicField(xp), (1,))[0]
        acc = np.zeros_like(xs)
        for j in range(1, n):
            alpha = j * h
            dX = xs - np.roll(xs, j, axis=1)
            r2 = dX[0] ** 2 + dX[1] ** 2
            Wj = np.roll(W, j, axis=1)
            ratio = np.sqrt(r2) / abs(2.0 * np.sin(0.5 * alpha))
            acc += h * (-np.log(ratio)) * Wj
            acc += h * dX * ((dX[0] * Wj[0] + dX[1] * Wj[1]) / r2)
        acc += h * (-np.log(speed)) * W
        acc += h * xp * ((xp[0] * W[0] + xp[1] * W[1]) / speed**2)
        freqs = np.fft.fftfreq(n, d=1.0 / n)
        mult = np.zeros(n)
        mult[1:] = np.pi / np.abs(freqs[1:])
        acc += np.fft.ifft(np.fft.fft(W, axis=1) * mult, axis=1).real
        return acc / (4.0 * np.pi)

    def test_zero_tangent_speed_rejected(self):
        # the astroid (cos^3, sin^3) has cusps, |X'| = 0, at nodes 0, 32,
        # 64 and 96 of N = 128
        x = grid_1d(128)
        with pytest.raises(WellStretchedError) as exc:
            peskin_rhs(PeriodicField(np.stack([np.cos(x) ** 3, np.sin(x) ** 3])))
        assert exc.value.node in (0, 32, 64, 96)

    def test_rejects_scalar_field(self):
        with pytest.raises(ValueError):
            peskin_rhs(PeriodicField(np.zeros(64)))


class TestMuskatStRhs:
    def test_flat_interface_is_steady(self):
        f = PeriodicField(np.full(128, 0.7))
        assert np.max(np.abs(muskat_st_rhs(f).samples)) == 0.0

    def test_linearization_is_minus_lambda_cubed(self):
        n, eps = 256, 1e-4
        x = grid_1d(n)
        for k in (1, 2):
            f = PeriodicField(eps * np.cos(k * x))
            got = muskat_st_rhs(f).samples / eps
            want = -float(k) ** 3 * np.cos(k * x)
            assert np.max(np.abs(got - want)) < 1e-6 * k**3

    def test_gravity_linearization_is_minus_lambda(self):
        n, eps = 256, 1e-4
        x = grid_1d(n)
        f = PeriodicField(eps * np.cos(x))
        n3 = (muskat_st_rhs(f, rho0=1.0).samples - muskat_st_rhs(f, rho0=0.0).samples) / eps
        assert np.max(np.abs(n3 + np.cos(x))) < 1e-6

    def test_affine_in_rho0(self):
        x = grid_1d(128)
        g = PeriodicField(0.05 * np.sin(x) + 0.03 * np.cos(2 * x))
        r0 = muskat_st_rhs(g, rho0=0.0).samples
        r1 = muskat_st_rhs(g, rho0=1.0).samples
        r2 = muskat_st_rhs(g, rho0=2.0).samples
        assert np.max(np.abs(r2 - (2.0 * r1 - r0))) < 1e-12

    def test_mirror_equivariance(self):
        # x -> -x maps solutions to solutions for any gravity coefficient
        n = 256
        x = grid_1d(n)
        idx = (-np.arange(n)) % n
        u = 0.05 * np.sin(x) + 0.03 * np.cos(2 * x) + 0.01 * np.sin(3 * x + 0.7)
        for rho0 in (0.0, 2.0):
            r = muskat_st_rhs(PeriodicField(u), rho0=rho0).samples
            rm = muskat_st_rhs(PeriodicField(u[idx]), rho0=rho0).samples
            assert np.max(np.abs(rm - r[idx])) < 1e-10

    def test_mean_projected(self):
        rng = np.random.default_rng(3)
        f = PeriodicField(0.3 * band_limited(256, rng))
        assert abs(np.mean(muskat_st_rhs(f, rho0=1.5).samples)) < 1e-14

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            muskat_st_rhs(PeriodicField(np.zeros((2, 64))))
        with pytest.raises(ValueError):
            muskat_st_rhs(PeriodicField(np.zeros(64), domain_length=4.0 * np.pi))


# ---------------------------------------------------------------------------
# the cached shift plan against the per-shift loops it replaced

def shift_nodes(n, h):
    """(j, weight) of the trapezoid nodes j h, 0 < |j| <= n/2; the two
    +/-pi nodes carry half weight each."""
    for j in (*range(-n // 2, 0), *range(1, n // 2 + 1)):
        yield j, (0.5 * h if abs(j) == n // 2 else h)


def muskat_loop(f, rho0):
    n, h, v = f.n, f.spacing, f.samples
    fp, fpp, fppp = derivatives(f, (1, 2, 3))
    w = (1.0 + fp * fp) ** -1.5
    wp, wpp = derivatives(PeriodicField(w), (1, 2))
    q = derivatives(PeriodicField(fpp * w), (1,))[0]
    g0 = fp * fpp / (2.0 * (1.0 + fp * fp))
    n1, n3 = h * g0 * q, h * g0 * fp
    n2 = h * (0.5 * fpp * wpp + fppp * wp)
    for j, wt in shift_nodes(n, h):
        alpha = j * h
        s = 0.5 / np.tan(0.5 * (alpha + 1j * (v - np.roll(v, j))))
        G = -fp * s.imag - 0.5 / np.tan(0.5 * alpha) + s.real
        n1 += wt * G * np.roll(q, j)
        n3 += wt * G * np.roll(fp, j)
        n2 += wt / (4.0 * np.sin(0.5 * alpha) ** 2) * np.roll(fpp, j) * (np.roll(w, j) - w)
    rhs = (-fractional_laplacian(f, 3.0).samples * w + (n1 - n2) / np.pi
           + rho0 * (-n3 / np.pi - fractional_laplacian(f, 1.0).samples))
    return rhs - rhs.mean()


def peskin_loop(X):
    # Hookean tension: T(|X'|) X' = X'
    xs = X.samples
    xp = derivatives(X, (1,))[0]
    main = -0.25 * np.stack([hilbert_transform(PeriodicField(c)).samples for c in xp])
    acc = np.zeros_like(xs)
    for j, wt in shift_nodes(X.n, X.spacing):
        c = 0.5 / np.tan(0.5 * j * X.spacing)
        dX = xs - np.roll(xs, j, axis=1)
        dV = xp - np.roll(xp, j, axis=1)
        E = np.roll(xp, j, axis=1) - c * dX
        r2 = dX[0] ** 2 + dX[1] ** 2
        dXdE = dX[0] * E[0] + dX[1] * E[1]
        dXdV = dX[0] * dV[0] + dX[1] * dV[1]
        EdV = E[0] * dV[0] + E[1] * dV[1]
        term = (dXdE / r2) * dV - (E * dXdV + dX * EdV) / r2 + 2.0 * dX * (dXdE * dXdV) / r2**2
        acc += wt * term / (4.0 * np.pi)
    return main + acc


def lambda_loop(field):
    u, h = field.samples, field.spacing
    scale = TWO_PI / field.domain_length
    acc = np.zeros_like(u)
    for j, wt in shift_nodes(field.n, h):
        acc += wt * scale**2 / (4.0 * np.sin(0.5 * j * h * scale) ** 2) * (u - np.roll(u, j))
    return (acc - 0.5 * h * derivatives(field, (2,))[0]) / np.pi


def blocked_lambda_loop(field):
    """The blocked gather loop over the cached shift plan that the quadrature
    backend ran before it applied the rule's symbol, on its own gather index."""
    plan = nonlocal_ops._shift_plan(field.n)
    u = field.samples
    n = field.n
    steps = np.rint(plan.alpha / (TWO_PI / n)).astype(int)
    index = (np.arange(n) - steps[:, None]) % n
    wk = (TWO_PI / field.domain_length) * plan.weights * plan.inv_four_sin2
    acc = sum(wk[rows] @ (u - u[index[rows]]) for rows, _ in plan.blocks)
    fpp = derivatives(field, (2,))[0]
    return (acc + field.spacing * (-0.5 * fpp)) / np.pi


def relative_gap(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def muskat_by_sinh_pairs(f, rho0):
    """muskat_st_rhs as it ran with two np.sinh calls per (x, alpha) pair:
    deltaf/2 from one window of f/2, then sinh(deltaf) for the numerator
    and 4 sinh^2(deltaf/2) + 4 sin^2(alpha/2) for the denominator."""
    h, v = f.spacing, f.samples
    fp, fpp, fppp = derivatives(f, (1, 2, 3))
    w = (1.0 + fp * fp) ** -1.5
    wp, wpp = derivatives(PeriodicField(w), (1, 2))
    q = derivatives(PeriodicField(fpp * w), (1,))[0]
    main = -fractional_laplacian(f, 3.0).samples * w
    plan = nonlocal_ops._shift_plan(f.n)
    wc = w - w.mean()
    modes = np.fft.rfft(np.stack([fpp * wc, fpp, q, fp]))
    modes[:2] *= plan.inv_four_sin2_hat
    modes[2:] *= plan.half_cot_hat
    conv = np.fft.irfft(modes, f.n)
    G0 = fp * fpp / (2.0 * (1.0 + fp * fp))
    sum_q = h * G0 * q - conv[2]
    sum_fp = h * G0 * fp - conv[3]
    sum_2 = h * (0.5 * fpp * wpp + fppp * wp) + conv[0] - wc * conv[1]
    hv_windows, q_windows, fp_windows = (shift_windows(g) for g in (0.5 * v, q, fp))
    for rows, behind in plan.blocks:
        d = 0.5 * v - hv_windows[behind]
        den = 4.0 * np.sinh(d) ** 2 + 2.0 * plan.two_sin2[rows, None]
        g = (np.sinh(2.0 * d) * fp + plan.sin[rows, None]) / den
        sum_fp += plan.weights[rows] @ (g * fp_windows[behind])
        sum_q += plan.weights[rows] @ (g * q_windows[behind])
    gravity = rho0 * (sum_fp / np.pi + fractional_laplacian(f, 1.0).samples)
    rhs = main + (sum_q - sum_2) / np.pi - gravity
    return rhs - rhs.mean()


class TestMuskatPairKernel:
    """The pair kernel read from e^{+-(f - c)/2} at the nodes, with no
    transcendental call per pair, against the sinh pairs it replaced."""

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_matches_the_sinh_pairs(self, n):
        # the node exponentials' rounding is an absolute error of a few ulps
        # in p - 1/p, relative ~ ulp/|deltaf| at the nearest shifts, so the
        # gap grows with N: 2.2e-15 at N = 256 and 1.05e-14 at N = 512 on
        # the smooth steep field, whose max|rhs| is small; against the sinh
        # pairs summed in long double there, this kernel is 1.05e-14 off and
        # the double sinh pairs 4.3e-16
        bound = 1e-14 if n <= 256 else 2e-14
        rng = np.random.default_rng(n + 7)
        x = grid_1d(n)
        fields = {"band": 0.3 * band_limited(n, rng),
                  "steep": 1.2 * np.sin(x + 0.4) + 0.3 * band_limited(n, rng),
                  "triangle": 2.0 * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi))}
        for name, v in fields.items():
            f = PeriodicField(v)
            if name != "band":
                assert np.max(np.abs(derivatives(f, (1,))[0])) >= 1.0, name
            for rho0 in (0.0, 1.0):
                got = muskat_st_rhs(f, rho0=rho0).samples
                assert relative_gap(got, muskat_by_sinh_pairs(f, rho0)) <= bound, (name, rho0)

    def test_height_range_600_stays_finite(self):
        # deltaf reaches 600: the sinh pairs stay finite up to |deltaf| ~ 710,
        # and so does e^{deltaf/2}, where e^{deltaf} would overflow
        f = PeriodicField(300.0 * np.sin(grid_1d(64)))
        for rho0 in (0.0, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = muskat_st_rhs(f, rho0=rho0).samples
            want = muskat_by_sinh_pairs(f, rho0)
            assert np.all(np.isfinite(got)) and np.all(np.isfinite(want))
            assert relative_gap(got, want) <= 1e-14


class TestShiftPlanAgainstLoops:
    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_muskat(self, n):
        rng = np.random.default_rng(n)
        f = PeriodicField(0.3 * band_limited(n, rng))
        for rho0 in (0.0, 1.0):
            got = muskat_st_rhs(f, rho0=rho0).samples
            assert relative_gap(got, muskat_loop(f, rho0)) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128, 256, 512])
    def test_peskin(self, n):
        rng = np.random.default_rng(n + 1)
        x = grid_1d(n)
        X = PeriodicField(np.stack([1.1 * np.cos(x) + 0.05 * band_limited(n, rng),
                                    0.9 * np.sin(x) + 0.05 * band_limited(n, rng)]))
        assert relative_gap(peskin_rhs(X).samples, peskin_loop(X)) <= 1e-12

    @pytest.mark.parametrize("n", [64, 128, 256])
    def test_dirichlet_neumann_quadrature(self, n):
        rng = np.random.default_rng(n + 2)
        for length in (TWO_PI, 3.0):
            f = PeriodicField(band_limited(n, rng), domain_length=length)
            fp = derivatives(f, (1,))[0]
            for b, sign in ((0.0, +1), (1.5, -1)):
                got = dirichlet_neumann_op(f, b, sign, backend="quadrature").samples
                lam = lemz0_constant(1) * np.pi * lambda_loop(f)
                want = (b * fp + sign * lam) / (1.0 + b * b)
                assert relative_gap(got, want) <= 1e-12

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_quadrature_symbol_matches_blocked_loop(self, n):
        # white-noise samples weigh every mode alike, so the gap is the
        # symbol's error relative to its largest value; the symbol is
        # K_hat(0) - K_hat(k) with K_hat(0) ~ N/2, so at low modes its
        # absolute error is a few ulps of N/2
        rng = np.random.default_rng(n + 3)
        for length in (TWO_PI, 2.0 * TWO_PI, 1.0):
            f = PeriodicField(rng.standard_normal(n), domain_length=length)
            fp = derivatives(f, (1,))[0]
            lam = lemz0_constant(1) * np.pi * blocked_lambda_loop(f)
            for b in (0.0, 0.5, 3.0):
                for sign in (+1, -1):
                    got = dirichlet_neumann_op(f, b, sign, backend="quadrature").samples
                    want = (b * fp + sign * lam) / (1.0 + b * b)
                    assert relative_gap(got, want) <= 1e-14
