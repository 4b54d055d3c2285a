"""Kernel module: closed-form oracles (wrapped Gaussian, Poisson kernel on R),
ODE kernels against exact exponentials, and frozen decay-statistic
regressions."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from pslab import kernels
from pslab.grid import PeriodicField, derivatives
from pslab.kernels import (
    REFINE_TOL,
    EllipticityError,
    FrozenSymbol,
    PoissonAnisoKernel,
    RefinementError,
    ellipticity_probe,
    fractional_heat_kernel,
    frozen_kernel_hat,
    periodic_sd_kernel,
    poisson_aniso_eval,
    poisson_aniso_mass,
    sd_decay_floor,
    sd_symbol,
)

TWO_PI = 2.0 * np.pi


def grid_mass(field):
    return field.spacing * field.samples.sum()


def l1_norm(field):
    return field.spacing * np.abs(field.samples).sum()


class TestFractionalHeatKernel:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            fractional_heat_kernel(0.0, 1.0, 64)
        with pytest.raises(ValueError):
            fractional_heat_kernel(0.1, -1.0, 64)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_or_order_rejected(self, bad):
        # a bad t or s must be named, not left to the samples' NaN/Inf check
        with pytest.raises(ValueError, match="^t must"):
            fractional_heat_kernel(bad, 1.0, 64)
        with pytest.raises(ValueError, match="^s must"):
            fractional_heat_kernel(0.1, bad, 64)

    def test_grid_mass_exact(self):
        for t, s, n in [(0.3, 1.0, 64), (0.01, 2.0, 256), (2.0, 3.0, 128)]:
            K = fractional_heat_kernel(t, s, n)
            assert grid_mass(K) == pytest.approx(1.0, abs=1e-13)

    def test_mode_weights(self):
        t, s, n = 0.37, 1.5, 128
        K = fractional_heat_kernel(t, s, n)
        modes = np.fft.fft(K.samples)
        k = np.fft.fftfreq(n, d=1.0 / n)
        expected = (n / TWO_PI) * np.exp(-t * np.abs(k) ** s)
        assert np.max(np.abs(modes - expected)) < 1e-10 * n

    def test_wrapped_gaussian_oracle(self):
        # s = 2 on the torus is the periodized heat kernel: sum the images
        # of (4 pi t)^{-1/2} e^{-x^2/(4t)} directly.
        t, n = 0.1, 256
        K = fractional_heat_kernel(t, 2.0, n)
        x = np.arange(n) * (TWO_PI / n)
        oracle = np.zeros(n)
        for m in range(-40, 41):
            oracle += np.exp(-((x - TWO_PI * m) ** 2) / (4.0 * t))
        oracle /= np.sqrt(4.0 * np.pi * t)
        assert np.max(np.abs(K.samples - oracle)) < 1e-13

    def test_convolution_semigroup(self):
        n = 128
        t1, t2, s = 0.2, 0.5, 1.0
        K1 = fractional_heat_kernel(t1, s, n)
        K2 = fractional_heat_kernel(t2, s, n)
        K12 = fractional_heat_kernel(t1 + t2, s, n)
        conv = K1.spacing * np.fft.ifft(
            np.fft.fft(K1.samples) * np.fft.fft(K2.samples)
        ).real
        assert np.max(np.abs(conv - K12.samples)) < 1e-12

    def test_positive_when_resolved(self):
        for s in (1.0, 2.0):
            for t in (0.01, 0.1, 1.0):
                K = fractional_heat_kernel(t, s, 512)
                assert K.samples.min() > -1e-12

    def test_derivative_l1_decay_constants(self):
        # frozen regressions: sup_t t^{m/s} ||d^m K||_L1 over [1e-2, 1],
        # measured 0.966 (s=1, m=1) and 0.485 (s=2, m=2) at N=512
        for s, m, cap in [(1.0, 1, 1.1), (2.0, 2, 0.55)]:
            stats = []
            for t in np.geomspace(1e-2, 1.0, 12):
                K = fractional_heat_kernel(t, s, 512)
                D = K.with_samples(derivatives(K, (m,))[0])
                stats.append(t ** (m / s) * l1_norm(D))
            assert max(stats) < cap

    def test_domain_length_mass(self):
        K = fractional_heat_kernel(0.2, 2.0, 128, domain_length=4.0 * np.pi)
        assert grid_mass(K) == pytest.approx(1.0, abs=1e-13)


def scalar_symbol(s, c0, rate=None):
    r = c0 if rate is None else rate
    return FrozenSymbol(s=s, c0=c0, dim_N=1,
                        eval=lambda t, xi: np.array([[r * abs(xi) ** s]]))


class TestFrozenSymbol:
    def test_validation(self):
        with pytest.raises(ValueError):
            scalar_symbol(1.0, 0.0)
        with pytest.raises(ValueError):
            scalar_symbol(1.0, 1.5)
        with pytest.raises(ValueError):
            FrozenSymbol(s=-1.0, c0=0.5, dim_N=1, eval=lambda t, xi: 0.0)

    def test_probe_passes_elliptic(self):
        ellipticity_probe(scalar_symbol(2.0, 0.3, rate=0.5), [0.0, 1.0], [1.0, 4.0])

    def test_probe_passes_time_dependent_matrix(self):
        sym = FrozenSymbol(s=1.0, c0=0.25, dim_N=2,
                           eval=lambda t, xi: np.diag([0.3, 0.7 + t]) * abs(xi))
        got = ellipticity_probe(sym, [0.0, 0.5], [1.0, -4.0])
        want = [[sym.eval(t, xi) for xi in (1.0, -4.0)] for t in (0.0, 0.5)]
        assert np.array_equal(got, want)

    def test_probe_raises_with_location(self):
        sym = FrozenSymbol(
            s=2.0, c0=0.5, dim_N=1,
            eval=lambda t, xi: np.array([[0.5 * xi**2 * (0.1 if t > 0.5 else 1.0)]]),
        )
        with pytest.raises(EllipticityError) as exc:
            ellipticity_probe(sym, [0.0, 1.0], [2.0])
        assert exc.value.t == 1.0 and exc.value.xi == 2.0
        assert exc.value.min_eig < exc.value.floor

    @pytest.mark.parametrize("s", [math.nan, math.inf])
    def test_non_finite_order_rejected(self, s):
        # a NaN order made the decay bound NaN, which frobenius_excess skipped
        with pytest.raises(ValueError, match="finite"):
            FrozenSymbol(s=s, c0=0.5, dim_N=1, eval=lambda t, xi: abs(xi))

    def test_probe_rejects_nan_eigenvalue(self):
        sym = FrozenSymbol(s=1.0, c0=0.5, dim_N=2,
                           eval=lambda t, xi: np.full((2, 2), np.nan))
        with pytest.raises(EllipticityError) as exc:
            ellipticity_probe(sym, [0.0], [1.0])
        assert math.isnan(exc.value.min_eig)

    @pytest.mark.parametrize("dim", [1.5, 2.0, np.float64(2.0), "2"])
    def test_non_integral_dim_rejected(self, dim):
        # a float dim_N was accepted, then failed inside the tabulation with
        # an untyped TypeError from the first table it sized
        with pytest.raises(ValueError, match="dim_N must be an integer"):
            FrozenSymbol(s=1.0, c0=0.5, dim_N=dim, eval=lambda t, xi: abs(xi) * np.eye(2))

    def test_numpy_integer_dim_accepted(self):
        def ev(t, xi):
            return abs(xi) * np.diag([0.6, 0.8 + t])

        plain = frozen_kernel_hat(FrozenSymbol(s=1.0, c0=0.5, dim_N=2, eval=ev), 0.5, [1.0])
        numpy_dim = frozen_kernel_hat(
            FrozenSymbol(s=1.0, c0=0.5, dim_N=np.int64(2), eval=ev), 0.5, [1.0])
        assert numpy_dim.values.tobytes() == plain.values.tobytes()


class TestFrozenKernelHat:
    @pytest.mark.parametrize("t", [math.nan, math.inf, 0.0])
    def test_bad_time_rejected_before_any_symbol_call(self, t):
        calls = []
        sym = FrozenSymbol(s=1.0, c0=0.5, dim_N=1,
                           eval=lambda u, xi: calls.append(u) or abs(xi))
        with pytest.raises(ValueError, match="positive and finite"):
            frozen_kernel_hat(sym, t, [1.0])
        assert calls == []

    @pytest.mark.parametrize("xi_grid", [[], [math.nan], [math.inf], [[1.0, 2.0]], 1.0],
                             ids=["empty", "nan", "inf", "2-D", "scalar"])
    def test_bad_xi_grid_rejected_before_any_symbol_call(self, xi_grid):
        calls = []
        sym = FrozenSymbol(s=1.0, c0=0.5, dim_N=1,
                           eval=lambda u, xi: calls.append(u) or abs(xi))
        with pytest.raises(ValueError, match="xi_grid"):
            frozen_kernel_hat(sym, 1.0, xi_grid)
        assert calls == []

    def test_non_finite_node_value_raises_at_first_level(self):
        # finite on the probe's tau grid (multiples of 0.1), NaN at every
        # node between, so the first level's odd nodes are the only ones
        # evaluated after the probe
        calls = []

        def ev(u, xi):
            calls.append((u, xi))
            return abs(xi) if abs(10.0 * u - round(10.0 * u)) < 1e-9 else math.nan

        sym = FrozenSymbol(s=1.0, c0=0.5, dim_N=1, eval=ev)
        with pytest.raises(ValueError, match="non-finite"):
            frozen_kernel_hat(sym, 1.6, [1.0, 2.0])
        assert check_nested_calls(calls, 1.6, [1.0, 2.0], kernels.TAU_STEPS) == \
            kernels.TAU_STEPS

    @pytest.mark.parametrize("dim,bad,xi_grid,at", [
        (1, [[math.inf]], [1.0, 4.0], (0.25, 4.0)),
        # eigvalsh gives 0 for this matrix, which would pass the floor 0 at xi = 0
        (2, [[math.nan, 0.0], [0.0, 0.0]], [0.0, 1.0], (0.25, 0.0)),
    ], ids=["inf", "nan-with-zero-eigenvalue"])
    def test_non_finite_probe_value_fails_the_probe(self, dim, bad, xi_grid, at,
                                                    monkeypatch):
        def never(nodes, t):
            raise AssertionError("integration reached past the probe")

        monkeypatch.setattr(kernels, "_magnus_table", never)
        sym = FrozenSymbol(s=1.0, c0=0.5, dim_N=dim,
                           eval=lambda u, xi: np.array(bad) if (u, xi) == at
                           else abs(xi) * np.eye(dim))
        with pytest.raises(EllipticityError) as exc:
            frozen_kernel_hat(sym, 1.0, xi_grid)
        assert (exc.value.t, exc.value.xi) == at
        assert math.isnan(exc.value.min_eig)

    def test_identity_at_t_final(self):
        sym = scalar_symbol(1.0, 0.4)
        khat = frozen_kernel_hat(sym, 0.8, [1.0, 3.0])
        assert np.allclose(khat.values[-1], np.eye(1), atol=1e-14)

    def test_constant_scalar_exact(self):
        # A independent of t: K(tau, xi) = e^{-c0 (t - tau) |xi|^s}
        sym = scalar_symbol(1.5, 0.3)
        t = 0.6
        khat = frozen_kernel_hat(sym, t, [1.0, 2.0, 5.0])
        for i, tau in enumerate(khat.tau_grid):
            for j, xi in enumerate(khat.xi_grid):
                exact = np.exp(-0.3 * (t - tau) * abs(xi) ** 1.5)
                assert khat.values[i, j, 0, 0] == pytest.approx(exact, rel=1e-8)
        assert khat.frobenius_excess() <= 1.0 + 1e-9

    def test_time_dependent_scalar_exact(self):
        # a(t) = c0 + beta (1 + sin t); the exact kernel uses the closed-form
        # antiderivative (c0 + beta) u - beta cos u.
        c0, beta, s, t = 0.2, 0.3, 2.0, 0.9
        sym = FrozenSymbol(
            s=s, c0=c0, dim_N=1,
            eval=lambda u, xi: np.array([[(c0 + beta * (1.0 + np.sin(u))) * abs(xi) ** s]]),
        )
        khat = frozen_kernel_hat(sym, t, [1.0, 2.0])

        def anti(u):
            return (c0 + beta) * u - beta * np.cos(u)

        for i, tau in enumerate(khat.tau_grid):
            for j, xi in enumerate(khat.xi_grid):
                exact = np.exp(-(anti(t) - anti(tau)) * abs(xi) ** s)
                assert khat.values[i, j, 0, 0] == pytest.approx(exact, rel=1e-7)
        assert khat.frobenius_excess() <= 1.0 + 1e-6

    def test_diagonal_decouples(self):
        s, t = 1.0, 0.5
        rates = (0.3, 0.7)
        sym = FrozenSymbol(
            s=s, c0=0.25, dim_N=2,
            eval=lambda u, xi: np.diag([r * abs(xi) ** s for r in rates]),
        )
        khat = frozen_kernel_hat(sym, t, [1.0, 4.0])
        for i, tau in enumerate(khat.tau_grid):
            for j, xi in enumerate(khat.xi_grid):
                block = khat.values[i, j]
                assert abs(block[0, 1]) < 1e-14 and abs(block[1, 0]) < 1e-14
                for a, r in enumerate(rates):
                    exact = np.exp(-r * (t - tau) * abs(xi))
                    assert block[a, a] == pytest.approx(exact, rel=1e-8)

    def test_random_psd_perturbation_obeys_bound(self):
        # c0 |xi|^s Id + |xi|^s P(tau) with P symmetric PSD: ellipticity holds
        # with the stated c0, so the Frobenius bound must hold too.
        rng = np.random.default_rng(7)
        g = rng.standard_normal((2, 2))
        psd = g @ g.T / 4.0
        c0, s, t = 0.35, 2.0, 0.5

        def ev(u, xi):
            p = psd * (1.0 + 0.5 * np.sin(3.0 * u))
            return abs(xi) ** s * (c0 * np.eye(2) + p)

        sym = FrozenSymbol(s=s, c0=c0, dim_N=2, eval=ev)
        khat = frozen_kernel_hat(sym, t, [0.5, 1.0, 2.0, 4.0])
        assert khat.frobenius_excess() <= 1.0 + 1e-6
        assert np.allclose(khat.values[-1], np.eye(2), atol=1e-14)

    def test_stiff_symbol_converges(self):
        # large t |xi|^s: the Magnus step contracts at any step size, so the
        # first level needs no stability-derived step count
        sym = scalar_symbol(2.0, 0.5)
        t = 2.0
        khat = frozen_kernel_hat(sym, t, [8.0])
        mid = len(khat.tau_grid) // 2
        tau = khat.tau_grid[mid]
        exact = np.exp(-0.5 * (t - tau) * 64.0)
        assert khat.values[mid, 0, 0, 0] == pytest.approx(exact, rel=1e-6)

    def test_refinement_stops_at_the_node_table_cap(self, monkeypatch):
        # a rate that turns over 80 times in t: no level within the cap
        # resolves it, so the Richardson values never agree to REFINE_TOL
        tables = []
        magnus = kernels._magnus_table

        def recorded(nodes, t):
            tables.append(nodes.size)
            return magnus(nodes, t)

        monkeypatch.setattr(kernels, "_magnus_table", recorded)
        monkeypatch.setattr(kernels, "_MAX_NODE_ENTRIES", 600)
        sym = FrozenSymbol(s=1.0, c0=0.1, dim_N=1,
                           eval=lambda u, xi: abs(xi) * (0.5 + 0.4 * np.sin(500.0 * u)))
        with pytest.raises(RefinementError) as exc:
            frozen_kernel_hat(sym, 1.0, [1.0, 2.0])
        # levels of 16, 32, 64 and 128 steps; 256 would hold 513 x 2 entries
        assert tables == [33 * 2, 65 * 2, 129 * 2, 257 * 2]
        err = exc.value
        assert isinstance(err, ValueError)
        assert err.steps == 128
        assert REFINE_TOL < err.gap < np.inf
        assert err.tau in np.linspace(0.0, 1.0, kernels.TAU_STEPS + 1)
        assert err.xi in (1.0, 2.0)
        assert "did not converge" in str(err)


def _reference_integrate(symbol, t, xis, tau_grid, n_steps):
    """Plain per-step RK4, the oracle of the Magnus tables: every step
    evaluates A at w, w + h/2 and w + h and advances m with four einsum
    products."""
    dim = symbol.dim_N
    m = np.broadcast_to(np.eye(dim), (len(xis), dim, dim)).copy()
    h = t / n_steps
    out = np.empty((len(tau_grid), len(xis), dim, dim))

    def stack_a(w):
        return np.stack([np.asarray(symbol.eval(t - w, xi), dtype=float).reshape(dim, dim)
                         for xi in xis])

    snap = {}
    for i, w in enumerate(t - tau_grid):
        snap.setdefault(int(round(w / h)), []).append(i)
    for idx in snap.get(0, []):
        out[idx] = m
    for step in range(n_steps):
        w = step * h
        a1, a2, a3 = stack_a(w), stack_a(w + 0.5 * h), stack_a(w + h)
        k1 = -np.einsum("bij,bjk->bik", m, a1)
        k2 = -np.einsum("bij,bjk->bik", m + 0.5 * h * k1, a2)
        k3 = -np.einsum("bij,bjk->bik", m + 0.5 * h * k2, a2)
        k4 = -np.einsum("bij,bjk->bik", m + h * k3, a3)
        m = m + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        for idx in snap.get(step + 1, []):
            out[idx] = m
    return out


def _reference_frozen_kernel_hat(symbol, t, xi_grid, tau_steps):
    """RK4 doubling from a stability-derived start of 4 t lambda_max steps,
    stopping on Richardson values K_f + (K_f - K_c) / 15 as
    frozen_kernel_hat does; returns the tabulated values."""
    xis = np.asarray(xi_grid, dtype=float)
    tau_grid = np.linspace(0.0, t, tau_steps + 1)
    lam_max = 0.0
    for tau in tau_grid:
        for xi in xis:
            m = np.asarray(symbol.eval(tau, xi), dtype=float).reshape(symbol.dim_N, -1)
            lam_max = max(lam_max, float(np.linalg.eigvalsh(0.5 * (m + m.T))[-1]))
    n_steps = max(tau_steps, int(np.ceil(4.0 * t * lam_max)))
    n_steps = int(np.ceil(n_steps / tau_steps)) * tau_steps
    coarse = prev = _reference_integrate(symbol, t, xis, tau_grid, n_steps)
    for _ in range(24):
        n_steps *= 2
        fine = _reference_integrate(symbol, t, xis, tau_grid, n_steps)
        cur = fine + (fine - coarse) / 15.0
        if float(np.max(np.abs(cur - prev))) < REFINE_TOL:
            prev = cur
            break
        prev, coarse = cur, fine
    return prev


def check_nested_calls(calls, t, xis, tau_steps):
    """Assert that the (tau, xi) symbol calls of one tabulation are the
    probe pairs (tau upward, xi inner), then for n = tau_steps,
    2 tau_steps, ... the odd nodes t - (2 j + 1) t / (2 n) of the level of
    n steps at every xi, with no pair asked twice; returns n_final, the
    step count of the last level, so that there are (2 n_final + 1) n_xi
    calls."""
    n_xi = len(xis)
    probe = [(float(tau), xi) for tau in np.linspace(0.0, t, tau_steps + 1) for xi in xis]
    assert calls[:len(probe)] == probe
    assert len(set(calls)) == len(calls)
    start, n = len(probe), tau_steps
    while start < len(calls):
        level = calls[start:start + n * n_xi]
        start += len(level)
        odd = np.sort(t - np.arange(1, 2 * n, 2) * t / (2 * n))
        for xi in xis:
            got = np.sort([tau for tau, x in level if x == xi])
            assert got.shape == odd.shape
            assert np.max(np.abs(got - odd)) <= 1e-15 * max(1.0, t)
        n *= 2
    n_final = n // 2
    assert len(calls) == (2 * n_final + 1) * n_xi
    return n_final


def _plane_rotation(dim, i, j, angle):
    q = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    q[i, i] = q[j, j] = c
    q[i, j], q[j, i] = -s, s
    return q


class CountingRotatingSymbol:
    """A(t, xi) = Q(t) diag(c0 + spread (1 + sin(freq t + k))) Q(t)^T |xi|^s
    with an eigenbasis Q(t) that turns in two planes, so A at different
    times does not commute; records every (t, xi) it is asked for."""

    def __init__(self, dim, s=1.5, c0=0.3, spread=1.2, freq=2.0):
        self.dim, self.s, self.c0, self.spread, self.freq = dim, s, c0, spread, freq
        self.calls = []

    def __call__(self, t, xi):
        self.calls.append((float(t), float(xi)))
        eigs = self.c0 + self.spread * (1.0 + np.sin(self.freq * t + np.arange(self.dim)))
        q = np.eye(self.dim)
        if self.dim > 1:
            q = q @ _plane_rotation(self.dim, 0, 1, 1.3 * t)
        if self.dim > 2:
            q = q @ _plane_rotation(self.dim, 1, 2, -0.7 * t + 0.4)
        return (q * (eigs * abs(xi) ** self.s)) @ q.T

    def symbol(self):
        return FrozenSymbol(s=self.s, c0=self.c0, dim_N=self.dim, eval=self)


class TestFrozenKernelNodeMemo:
    # the tau grid is the module constant TAU_STEPS; a case with another
    # value patches it, to check the step grid embeds any tau grid
    CASES = [(1, 16), (2, 24), (3, 16)]
    T, XIS = 0.5, [0.5, 1.0, 3.0]

    @pytest.mark.parametrize("dim,tau_steps", CASES)
    def test_matches_reference_loop(self, dim, tau_steps, monkeypatch):
        monkeypatch.setattr(kernels, "TAU_STEPS", tau_steps)
        sym = CountingRotatingSymbol(dim).symbol()
        ref = _reference_frozen_kernel_hat(sym, self.T, self.XIS, tau_steps)
        khat = frozen_kernel_hat(sym, self.T, self.XIS)
        assert khat.values.shape == ref.shape
        assert np.max(np.abs(khat.values - ref)) <= 1e-10

    @pytest.mark.parametrize("dim,tau_steps", CASES)
    def test_each_node_evaluated_once(self, dim, tau_steps, monkeypatch):
        monkeypatch.setattr(kernels, "TAU_STEPS", tau_steps)
        counter = CountingRotatingSymbol(dim)
        frozen_kernel_hat(counter.symbol(), self.T, self.XIS)
        # at least one doubling: n_final = tau_steps 2^k with k >= 1
        assert check_nested_calls(counter.calls, self.T, self.XIS, tau_steps) >= \
            2 * tau_steps

    @given(dim=st.integers(1, 3),
           xis=st.lists(st.sampled_from([0.25, 0.5, 1.0, 2.0, 3.0, 4.0]),
                        min_size=1, max_size=3, unique=True),
           eighths=st.integers(1, 8))
    @settings(max_examples=15, deadline=None)
    def test_nested_nodes_property(self, dim, xis, eighths):
        # t a multiple of 1/8, so that every node time t - i t / (2 n) with
        # n = TAU_STEPS 2^k is exact in binary and no rounding can make two
        # pairs equal
        t = eighths / 8.0
        counter = CountingRotatingSymbol(dim)
        khat = frozen_kernel_hat(counter.symbol(), t, xis)
        assert check_nested_calls(counter.calls, t, xis, kernels.TAU_STEPS) >= \
            2 * kernels.TAU_STEPS
        assert khat.frobenius_excess() <= 1.0 + 1e-6

    def test_close_to_fine_plain_rk4(self, monkeypatch):
        # plain RK4 at 3072 steps, far past the 96 where the Magnus
        # doubling stops, is the reference
        monkeypatch.setattr(kernels, "TAU_STEPS", 24)
        sym = CountingRotatingSymbol(2).symbol()
        khat = frozen_kernel_hat(sym, self.T, self.XIS)
        ref = _reference_integrate(sym, self.T, np.asarray(self.XIS), khat.tau_grid,
                                   4 * 768)
        assert np.max(np.abs(khat.values - ref)) <= 1e-10

    def test_non_elliptic_raises_before_integration(self):
        counter = CountingRotatingSymbol(2)

        def degenerate(t, xi):
            a = counter(t, xi)
            return 0.01 * a if t > 0.3 and xi > 2.0 else a

        sym = FrozenSymbol(s=counter.s, c0=counter.c0, dim_N=2, eval=degenerate)
        with pytest.raises(EllipticityError) as exc:
            frozen_kernel_hat(sym, self.T, self.XIS)
        tau_grid = np.linspace(0.0, self.T, 17)
        first_bad = int(np.argmax(tau_grid > 0.3))
        assert exc.value.t == tau_grid[first_bad] and exc.value.xi == 3.0
        probe = [(float(t), xi) for t in tau_grid for xi in self.XIS]
        assert counter.calls == probe


# ---------------------------------------------------------------------------
# oracle: the symbol gatherer, probe, halving and interval product one tau
# row at a time, which the one-array-per-level code must match bit for bit


def oracle_symbol_row(symbol, t, xis, row):
    for k, xi in enumerate(xis):
        m = np.asarray(symbol.eval(t, xi), dtype=float)
        if m.ndim == 0:
            m = m.reshape(1, 1)
        if m.shape != row.shape[1:]:
            raise ValueError(f"symbol eval returned shape {m.shape}, expected {row.shape[1:]}")
        row[k] = m


def oracle_ellipticity_probe(symbol, ts, xis):
    out = np.empty((len(ts), len(xis), symbol.dim_N, symbol.dim_N))
    floors = np.array([symbol.c0 * abs(xi) ** symbol.s for xi in xis])
    for row, t in zip(out, ts):
        oracle_symbol_row(symbol, t, xis, row)
        sym = 0.5 * (row + row.swapaxes(1, 2))
        # eigvalsh may not converge on a non-finite matrix: the identity
        # stands in, and the matrix fails with a NaN eigenvalue
        finite = np.isfinite(sym).all(axis=(1, 2))
        sym[~finite] = np.eye(symbol.dim_N)
        min_eig = np.linalg.eigvalsh(sym)[:, 0]
        min_eig[~finite] = np.nan
        ok = min_eig >= floors - 1e-10 * np.maximum(1.0, floors)
        if not ok.all():
            k = int(np.argmin(ok))
            raise EllipticityError(t, xis[k], float(min_eig[k]), float(floors[k]))
    return out


def oracle_halve(symbol, t, xis, nodes):
    spans = 2 * (len(nodes) - 1)
    out = np.empty((spans + 1,) + nodes.shape[1:])
    out[::2] = nodes
    xi_list = xis.tolist()
    for row, tau in zip(out[1::2], (np.arange(spans - 1, 0, -2) * (t / spans)).tolist()):
        oracle_symbol_row(symbol, tau, xi_list, row)
    if not np.isfinite(out[1::2]).all():
        raise ValueError("symbol returned a non-finite value at an integration node")
    return out


def oracle_magnus_table(nodes, t):
    n_steps = (len(nodes) - 1) // 2
    h = t / n_steps
    a0, a_half, a1 = nodes[:-1:2], nodes[1::2], nodes[2::2]
    da = a1 - a0
    omega = (-h / 6.0) * (a0 + 4.0 * a_half + a1) + \
        (h * h / 12.0) * (a_half @ da - da @ a_half)
    prop = kernels._expm(omega)
    while len(prop) > kernels.TAU_STEPS:
        prop = prop[0::2] @ prop[1::2]
    out = np.empty((kernels.TAU_STEPS + 1,) + nodes.shape[1:])
    m = out[kernels.TAU_STEPS] = np.eye(nodes.shape[-1])
    for i, interval in enumerate(prop):
        m = out[kernels.TAU_STEPS - 1 - i] = m @ interval
    return out


def oracle_frozen_kernel_hat(symbol, t, xis):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "ellipticity_probe", oracle_ellipticity_probe)
        mp.setattr(kernels, "_halve", oracle_halve)
        mp.setattr(kernels, "_magnus_table", oracle_magnus_table)
        return kernels.frozen_kernel_hat(symbol, t, xis)


def outcome(run):
    """The bytes a call returns, or the type, message and (t, xi) of what it
    raises."""
    try:
        got = run()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc), getattr(exc, "t", None), getattr(exc, "xi", None)
    return getattr(got, "values", got).tobytes()


class DefectSymbol:
    """CountingRotatingSymbol's elliptic matrices, with one kind of defect
    at the pair (at_t, at_xi): none, a matrix below the floor, one entry
    replaced by a non-finite value, or a return of the wrong shape.
    A dim-1 symbol returns a scalar, a 1 x 1 matrix, or each by turns."""

    def __init__(self, dim, kind, at, bad, returns):
        self.base = CountingRotatingSymbol(dim)
        self.dim, self.kind, self.at, self.bad, self.returns = dim, kind, at, bad, returns
        self.calls = []

    def __call__(self, t, xi):
        self.calls.append((float(t), float(xi)))
        a = self.base(t, xi)
        if (t, xi) == self.at:
            if self.kind == "non_elliptic":
                # with an antisymmetric part, which only the symmetric part
                # the probe takes hides from eigvalsh
                a = 0.01 * a - np.eye(self.dim)
                a[-1, 0] += 5.0
                a[0, -1] -= 5.0
            elif self.kind == "non_finite":
                value, (i, j) = self.bad
                a[i, j] = value
            elif self.kind == "wrong_shape":
                return self.bad
        if self.dim == 1 and (self.returns == "scalar" or
                              self.returns == "mixed" and len(self.calls) % 2):
            return a[0, 0]
        return a

    def symbol(self):
        return FrozenSymbol(s=self.base.s, c0=self.base.c0, dim_N=self.dim, eval=self)


@st.composite
def defect_symbol_specs(draw):
    dim = draw(st.integers(1, 3))
    xis = draw(st.lists(st.sampled_from([-4.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0]),
                        min_size=1, max_size=3, unique=True))
    # a multiple of 1/8, so every probe and first-level node time is exact
    t = draw(st.integers(1, 8)) / 8.0
    steps = kernels.TAU_STEPS
    # a probe time i t / TAU_STEPS, or a first-level node (2 j + 1) t / (2 TAU_STEPS)
    slot = draw(st.integers(0, 2 * steps))
    kind = draw(st.sampled_from(["elliptic", "non_elliptic", "non_finite", "wrong_shape"]))
    if kind == "non_elliptic":
        # only the probe checks ellipticity: at a node between its times the
        # doubling would chase the defect toward 16 2^24 steps
        slot -= slot % 2
    at = (slot * t / (2 * steps), draw(st.sampled_from(xis)))
    bad = None
    if kind == "non_finite":
        bad = (draw(st.sampled_from([math.nan, math.inf, -math.inf])),
               (draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))))
    elif kind == "wrong_shape":
        shapes = [np.zeros((dim, dim + 1)), np.zeros(dim), np.zeros((1, dim, dim)),
                  [[1.0] * dim, [1.0] * (dim + 1)]]
        bad = draw(st.sampled_from(shapes + ([0.5] if dim > 1 else [])))
    returns = draw(st.sampled_from(["matrix", "scalar", "mixed"])) if dim == 1 else "matrix"
    return dim, xis, t, kind, at, bad, returns


class TestOneArrayPerLevel:
    """The whole-grid gatherer and the one-eigvalsh probe against the
    row-at-a-time oracle: the same bytes, or the same exception at the same
    pair."""

    @given(spec=defect_symbol_specs())
    @settings(max_examples=200, deadline=None)
    def test_matches_row_oracle(self, spec):
        dim, xis, t, kind, at, bad, returns = spec
        xis = np.asarray(xis)
        tau_grid = np.linspace(0.0, t, kernels.TAU_STEPS + 1)

        def same(new_fn, old_fn, *args):
            new, old = (DefectSymbol(dim, kind, at, bad, returns) for _ in range(2))
            want = outcome(lambda: old_fn(old.symbol(), *args))
            assert outcome(lambda: new_fn(new.symbol(), *args)) == want
            assert len(set(new.calls)) == len(new.calls)
            return want

        probe = same(ellipticity_probe, oracle_ellipticity_probe, tau_grid, xis)
        if kind == "non_finite" and at[0] in tau_grid:
            # a non-finite matrix fails the probe at its pair, at any dim
            assert probe[0] is EllipticityError and "min eigenvalue nan" in probe[1]
            assert probe[2:] == at
        # the halving meets a defect at a first-level node, and the probe's
        # own pairs come from an elliptic copy
        nodes = oracle_ellipticity_probe(CountingRotatingSymbol(dim).symbol(),
                                         tau_grid, xis)[::-1].copy()
        same(kernels._halve, oracle_halve, t, xis, nodes)
        full = same(frozen_kernel_hat, oracle_frozen_kernel_hat, t, xis)
        if kind == "elliptic":
            assert isinstance(full, bytes)

    def test_every_non_finite_entry_matches_oracle(self):
        # eigvalsh alone gives NaN, a finite value or LinAlgError depending
        # on the entry, so every entry of every dimension is tried at one
        # probe pair: each fails there with a NaN eigenvalue
        xis = np.array([0.0, 1.0, -3.0])
        tau_grid = np.linspace(0.0, 0.5, kernels.TAU_STEPS + 1)
        at = (tau_grid[4], xis[1])
        for dim in (1, 2, 3):
            for value in (math.nan, math.inf, -math.inf):
                for entry in np.ndindex(dim, dim):
                    new, old = (DefectSymbol(dim, "non_finite", at, (value, entry),
                                             "matrix").symbol() for _ in range(2))
                    want = outcome(lambda: oracle_ellipticity_probe(old, tau_grid, xis))
                    assert outcome(lambda: ellipticity_probe(new, tau_grid, xis)) == want
                    assert want[0] is EllipticityError and want[2:] == at
                    assert "min eigenvalue nan" in want[1]

    def test_first_failing_pair_tau_outer(self):
        # failing at (tau_3, xi_2) and at (tau_5, xi_0): the probe names the
        # earlier tau, not the earlier xi
        xis = np.array([0.5, 1.0, 3.0])
        tau_grid = np.linspace(0.0, 0.5, kernels.TAU_STEPS + 1)
        bad = {(tau_grid[3], xis[2]), (tau_grid[5], xis[0])}
        base = CountingRotatingSymbol(2)
        sym = FrozenSymbol(s=base.s, c0=base.c0, dim_N=2,
                           eval=lambda t, xi: -base(t, xi) if (t, xi) in bad else base(t, xi))
        want = outcome(lambda: oracle_ellipticity_probe(sym, tau_grid, xis))
        assert outcome(lambda: ellipticity_probe(sym, tau_grid, xis)) == want
        assert want[2:] == (tau_grid[3], xis[2])


class TestMagnusStep:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_exponential_matches_scipy(self, dim):
        # Omega-shaped matrices: a negative semi-definite symmetric part plus
        # an antisymmetric commutator part, 1-norms 1e-3..50 in one batch, so
        # the small ones take the squarings the large ones need
        rng = np.random.default_rng(dim)
        batch = []
        for norm in np.geomspace(1e-3, 50.0, 12):
            g, k = rng.standard_normal((2, dim, dim))
            x = -(g @ g.T) + 0.3 * (k - k.T)
            batch.append(x * (norm / np.linalg.norm(x, 1)))
        for x, got in zip(batch, kernels._expm(np.array(batch))):
            want = expm(x)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(kernels._expm(np.zeros((1, dim, dim))), np.eye(dim)[None])

    @pytest.mark.parametrize("dim,s,t,xis", [(2, 1.5, 0.5, [8.0, 16.0]),
                                             (3, 2.0, 1.0, [4.0, 10.0])])
    def test_stiff_rotating_symbol(self, dim, s, t, xis):
        # t lambda_max 86 and 270 with an eigenbasis that turns: with no
        # stability floor the first level takes steps of h lambda_max 5.4 and
        # 17, and the Richardson values of such levels must not agree on a
        # wrong table
        sym = CountingRotatingSymbol(dim, s=s).symbol()
        khat = frozen_kernel_hat(sym, t, xis)
        ref = _reference_integrate(sym, t, np.asarray(xis), khat.tau_grid, 8192)
        assert np.max(np.abs(khat.values - ref)) <= 1e-10
        assert khat.frobenius_excess() <= 1.0 + 1e-6


# ---------------------------------------------------------------------------
# the first doubling's test: the Richardson correction of the 2 TAU_STEPS
# table, against the earlier rule that compared the Richardson value with
# the plain TAU_STEPS table


def parent_refinement(symbol, t, xis):
    """The doubling loop under the earlier rule: every doubling, the first
    included, stops when its Richardson value moves by less than REFINE_TOL
    from the previous one, the first comparing it with the plain
    TAU_STEPS-step table. Returns the table and its final step count."""
    xis = np.asarray(xis, dtype=float)
    tau_grid = np.linspace(0.0, t, kernels.TAU_STEPS + 1)
    nodes = kernels._halve(symbol, t, xis, ellipticity_probe(symbol, tau_grid, xis)[::-1])
    prev = coarse = kernels._magnus_table(nodes, t)
    while True:
        nodes = kernels._halve(symbol, t, xis, nodes)
        fine = kernels._magnus_table(nodes, t)
        extrapolated = fine + (fine - coarse) / 15.0
        gap = float(np.max(np.abs(extrapolated - prev)))
        prev, coarse = extrapolated, fine
        if gap < REFINE_TOL:
            return prev, (len(nodes) - 1) // 2


class Ac04Symbol:
    """A(t, xi) = Q diag(c0 + spread (1 + sin(freq t + k))) Q^T |xi|^s, the
    AC-04 family, with a fixed orthogonal Q: A at different times commutes,
    so the kernel is Q diag(e^{-|xi|^s int_tau^t lambda_k}) Q^T. Records
    every (t, xi) it is asked for."""

    def __init__(self, s, c0, dim, spread, freq, basis):
        self.s, self.c0, self.dim = s, c0, dim
        self.spread, self.freq, self.basis = spread, freq, basis
        self.calls = []

    def __call__(self, t, xi):
        self.calls.append((float(t), float(xi)))
        eigs = self.c0 + self.spread * (1.0 + np.sin(self.freq * t + np.arange(self.dim)))
        return (self.basis * (eigs * abs(xi) ** self.s)) @ self.basis.T

    def symbol(self):
        return FrozenSymbol(s=self.s, c0=self.c0, dim_N=self.dim, eval=self)

    def exact(self, t, taus, xis):
        k = np.arange(self.dim)
        # int_tau^t lambda_k, tau outer
        integral = (self.c0 + self.spread) * (t - taus)[:, None] - \
            (self.spread / self.freq) * (np.cos(self.freq * t + k)
                                         - np.cos(self.freq * taus[:, None] + k))
        decay = np.exp(-(np.abs(xis)[None, :, None] ** self.s) * integral[:, None, :])
        return np.einsum("ik,txk,jk->txij", self.basis, decay, self.basis)


def ac04_symbols():
    """Fresh copies of the 200 AC-04 symbols, drawn as the gate draws them;
    the gate tabulates each at t = 0.5 on xi = 1 and 4."""
    rng = np.random.default_rng(4)
    out = []
    for _ in range(200):
        s = float(rng.uniform(0.5, 2.0))
        c0 = float(rng.uniform(0.1, 0.9))
        dim = int(rng.integers(1, 4))
        spread = float(rng.uniform(0.0, 2.0))
        freq = float(rng.uniform(0.5, 3.0))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        out.append(Ac04Symbol(s, c0, dim, spread, freq, basis))
    return out


class TestFirstDoublingTestsItsCorrection:
    T, XIS = 0.5, [1.0, 4.0]

    def against_parent(self, counter, twin, t, xis):
        """Tabulate counter under the current rule and its fresh twin under
        the earlier one; assert the current rule takes no more steps,
        returns the same bytes at the same step count and stays within
        REFINE_TOL of the earlier table when it stops sooner. Returns the
        table and both step counts."""
        khat = frozen_kernel_hat(counter.symbol(), t, xis)
        steps = check_nested_calls(counter.calls, t, xis, kernels.TAU_STEPS)
        old, old_steps = parent_refinement(twin.symbol(), t, xis)
        assert steps <= old_steps
        if steps == old_steps:
            assert khat.values.tobytes() == old.tobytes()
        else:
            assert np.max(np.abs(khat.values - old)) < REFINE_TOL
        return khat, steps, old_steps

    def test_ac04_symbols_against_parent_rule(self):
        # every one stops at 32 steps, 65 (tau, xi) pairs per xi and 26,000
        # symbol calls in all; the earlier rule took 55 of them to 64 steps,
        # 33,040 calls
        calls = sooner = 0
        for counter, twin in zip(ac04_symbols(), ac04_symbols()):
            _, steps, old_steps = self.against_parent(counter, twin, self.T, self.XIS)
            calls += len(counter.calls)
            sooner += steps < old_steps
        assert (calls, sooner) == (26_000, 55)

    @pytest.mark.parametrize("dim,s,t,xis,steps", [
        (1, 1.5, 0.5, [0.5, 1.0, 3.0], 32),
        (2, 1.5, 0.5, [0.5, 1.0, 3.0], 64),
        (3, 1.5, 0.5, [0.5, 1.0, 3.0], 64),
        # stiff, the cases of TestMagnusStep.test_stiff_rotating_symbol
        (2, 1.5, 0.5, [8.0, 16.0], 64),
        (3, 2.0, 1.0, [4.0, 10.0], 512),
    ])
    def test_rotating_symbols_against_parent_rule(self, dim, s, t, xis, steps):
        _, got, old = self.against_parent(CountingRotatingSymbol(dim, s=s),
                                          CountingRotatingSymbol(dim, s=s), t, xis)
        assert got == old == steps

    def test_named_symbol_stops_at_32_steps(self):
        # the earlier rule asked the plain 16-step table to be within 1e-9
        # and took this symbol to 64 steps
        def make():
            return Ac04Symbol(s=1.25, c0=0.25, dim=2, spread=0.5, freq=3.0, basis=np.eye(2))

        khat, steps, old_steps = self.against_parent(make(), make(), self.T, self.XIS)
        assert (steps, old_steps) == (32, 64)
        exact = make().exact(self.T, khat.tau_grid, khat.xi_grid)
        assert np.max(np.abs(khat.values - exact)) <= khat.gap < REFINE_TOL

    def test_tables_within_their_gap_of_the_exact_kernel(self):
        for counter in ac04_symbols():
            khat = frozen_kernel_hat(counter.symbol(), self.T, self.XIS)
            exact = counter.exact(self.T, khat.tau_grid, khat.xi_grid)
            assert 0.0 < khat.gap < REFINE_TOL
            assert np.max(np.abs(khat.values - exact)) <= khat.gap

    def test_cap_at_the_first_doubling_reports_its_correction(self, monkeypatch):
        # the rate of test_refinement_stops_at_the_node_table_cap, with a cap
        # that stops the first doubling: the gap is max |K_32 - K_16| / 15
        # as the Richardson value minus the 32-step table, 1/16 of the
        # earlier rule's first test value
        sym = FrozenSymbol(s=1.0, c0=0.1, dim_N=1,
                           eval=lambda u, xi: abs(xi) * (0.5 + 0.4 * np.sin(500.0 * u)))
        xis = np.array([1.0, 2.0])
        monkeypatch.setattr(kernels, "_MAX_NODE_ENTRIES", 1)
        with pytest.raises(RefinementError) as exc:
            frozen_kernel_hat(sym, 1.0, xis)
        nodes = kernels._halve(sym, 1.0, xis, ellipticity_probe(
            sym, np.linspace(0.0, 1.0, kernels.TAU_STEPS + 1), xis)[::-1])
        coarse = kernels._magnus_table(nodes, 1.0)
        fine = kernels._magnus_table(kernels._halve(sym, 1.0, xis, nodes), 1.0)
        extrapolated = fine + (fine - coarse) / 15.0
        assert exc.value.steps == 2 * kernels.TAU_STEPS
        assert exc.value.gap == np.max(np.abs(extrapolated - fine))
        assert 16.0 * exc.value.gap == pytest.approx(
            np.max(np.abs(extrapolated - coarse)), rel=1e-12)
        assert exc.value.gap > REFINE_TOL


class TestPoissonAnisoKernel:
    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonAnisoKernel(b=0.0, d=3)
        with pytest.raises(ValueError):
            PoissonAnisoKernel(b=(1.0, 2.0), d=1)
        with pytest.raises(ValueError):
            poisson_aniso_eval(PoissonAnisoKernel(b=0.0, d=1), 0.3, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_drift_or_height_rejected(self, bad):
        # unchecked, a nan drift or z gives a nan mass and b = inf a mass of 0
        for b, d in ((bad, 1), ((0.5, bad), 2)):
            with pytest.raises(ValueError, match="^b must be finite"):
                PoissonAnisoKernel(b=b, d=d)
        for k in (PoissonAnisoKernel(b=0.5, d=1),
                  PoissonAnisoKernel(b=(0.5, 0.5), d=2)):
            with pytest.raises(ValueError, match="^z must"):
                poisson_aniso_mass(k, bad)
            with pytest.raises(ValueError, match="^z must"):
                poisson_aniso_eval(k, np.zeros(k.d), bad)

    def test_nan_error_estimate_fails_convergence(self, monkeypatch):
        # err > tol is false for a nan estimate; the test must not pass it
        monkeypatch.setattr(scipy.integrate, "quad",
                            lambda *args, **kw: (1.0, float("nan")))
        with pytest.raises(RuntimeError, match="did not converge"):
            poisson_aniso_mass(PoissonAnisoKernel(b=0.5, d=1), 1.0)

    def test_d1_drift_free_is_cauchy_kernel(self):
        k = PoissonAnisoKernel(b=0.0, d=1)
        for x in (-2.0, 0.0, 0.7):
            for z in (0.5, -3.0):
                expected = abs(z) / (np.pi * (x * x + z * z))
                assert poisson_aniso_eval(k, x, z) == pytest.approx(expected, rel=1e-14)

    def test_normalizing_constants(self):
        assert PoissonAnisoKernel(b=0.0, d=1).c_d == pytest.approx(1.0 / np.pi)
        assert PoissonAnisoKernel(b=(0.0, 0.0), d=2).c_d == pytest.approx(
            1.0 / (2.0 * np.pi**2) * math.gamma(1.5) * 2.0 * np.pi**0.5, rel=1e-12
        )

    def test_mass_one_smoke(self):
        for d, b in [(1, 0.0), (1, 2.0), (2, (1.0, 0.0)), (2, (2.0, -1.5))]:
            k = PoissonAnisoKernel(b=b, d=d)
            for z in (0.1, 1.0, -10.0):
                assert poisson_aniso_mass(k, z) == pytest.approx(1.0, abs=1e-5)

    def test_scaling_invariance(self):
        # K_b(x, z) = |z|^{-d} K_b(x / |z|, sign z)
        for d, b, x in [(1, 0.7, 1.3), (2, (0.5, -0.2), (0.4, -1.1))]:
            k = PoissonAnisoKernel(b=b, d=d)
            for z in (0.25, -4.0):
                lhs = poisson_aniso_eval(k, np.asarray(x), z)
                rhs = abs(z) ** (-d) * poisson_aniso_eval(
                    k, np.asarray(x) / abs(z), float(np.sign(z))
                )
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_drift_reflection_symmetry(self):
        # flipping both x and b leaves the kernel unchanged
        z = 0.8
        ka = PoissonAnisoKernel(b=1.7, d=1)
        kb = PoissonAnisoKernel(b=-1.7, d=1)
        for x in (0.3, -2.5):
            assert poisson_aniso_eval(ka, x, z) == pytest.approx(
                poisson_aniso_eval(kb, -x, z), rel=1e-14
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        k = PoissonAnisoKernel(b=(2.0, 1.0), d=2)
        pts = rng.standard_normal((50, 2)) * 3.0
        assert np.all(poisson_aniso_eval(k, pts, 0.7) >= 0.0)


class TestSurfaceDiffusionKernel:
    def test_symbol_values(self):
        assert sd_symbol(1, 2.0) == pytest.approx(0.75)
        assert sd_symbol(2, 2.0) == pytest.approx(15.0)
        assert sd_decay_floor(2.0) == pytest.approx(0.1875)

    def test_rejects_unstable_hbar0(self):
        with pytest.raises(ValueError):
            periodic_sd_kernel(0.5, 1.0, 64)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="^t must"):
            periodic_sd_kernel(bad, 2.0, 64)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="^hbar0 must"):
            periodic_sd_kernel(0.5, float("nan"), 64)

    def test_infinite_radius_is_the_planar_kernel(self):
        K = periodic_sd_kernel(0.1, float("inf"), 64)
        want = np.fft.irfft(np.r_[0.0, (64 / (2 * np.pi)) * np.exp(
            -0.1 * np.arange(1, 33) ** 4.0)], 64)
        assert np.allclose(K.samples, want, rtol=0, atol=1e-14)

    def test_mode_weights_and_mean(self):
        t, n = 0.4, 128
        K = periodic_sd_kernel(t, 2.0, n)
        modes = np.fft.fft(K.samples)
        assert abs(modes[0]) < 1e-11
        expected = (n / TWO_PI) * np.exp(-0.75 * t)
        assert modes[1] == pytest.approx(expected, rel=1e-10)
        assert grid_mass(K) == pytest.approx(0.0, abs=1e-12)

    def test_l1_decay_rate_exceeds_floor(self):
        # dominant surviving mode decays at A(1) = 0.75; the guaranteed
        # floor is c0 = 0.1875
        ts = np.linspace(0.1, 5.0, 20)
        l1 = [l1_norm(periodic_sd_kernel(t, 2.0, 256)) for t in ts]
        slope = np.polyfit(ts, np.log(l1), 1)[0]
        assert -slope >= sd_decay_floor(2.0)

    def test_derivative_l1_statistic_bounded(self):
        # frozen regression: ||dx K||_L1 t^{1/4} e^{c0 t} stayed in
        # [0.66, 0.81] over t in [1e-2, 1] at N=256
        c0 = sd_decay_floor(2.0)
        stats = []
        for t in np.geomspace(1e-2, 1.0, 15):
            K = periodic_sd_kernel(t, 2.0, 256)
            dK = K.with_samples(derivatives(K, (1,))[0])
            stats.append(l1_norm(dK) * t**0.25 * np.exp(c0 * t))
        assert max(stats) < 1.0

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.floats(min_value=0.05, max_value=2.0),
        hbar0=st.floats(min_value=1.2, max_value=4.0),
    )
    def test_even_in_x(self, t, hbar0):
        K = periodic_sd_kernel(t, hbar0, 64)
        u = K.samples
        assert np.max(np.abs(u[1:] - u[1:][::-1])) < 1e-10 * max(1.0, np.max(np.abs(u)))
