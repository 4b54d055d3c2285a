"""Grid module: transform round trips, multiplier actions, difference
operators, Holder estimator, and the quadrature-derived Hilbert convention."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pslab.grid import (
    NonFiniteError,
    PeriodicField,
    SpectralCoeffs,
    dealias,
    finite_difference,
    fractional_laplacian,
    hilbert_transform,
    holder_seminorm,
    norms,
    shift,
    spectral_derivative,
    to_physical,
    to_spectral,
    wavenumbers,
)

TWO_PI = 2.0 * np.pi


def make_field(fn, n=64, length=TWO_PI):
    x = np.arange(n) * (length / n)
    return PeriodicField(fn(x), domain_length=length)


def random_band_limited(rng, n=64, max_mode=8, length=TWO_PI):
    x = np.arange(n) * (length / n)
    u = np.zeros(n)
    for m in range(1, max_mode + 1):
        a, b = rng.standard_normal(2)
        u += a * np.cos(TWO_PI * m * x / length) + b * np.sin(TWO_PI * m * x / length)
    return PeriodicField(u, domain_length=length)


class TestFieldInvariants:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PeriodicField(np.zeros(48))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            PeriodicField(np.zeros(8))

    def test_rejects_nan(self):
        for bad in (np.nan, np.inf):
            u = np.zeros(32)
            u[3] = bad
            with pytest.raises(NonFiniteError):
                PeriodicField(u)

    def test_components(self):
        f = PeriodicField(np.zeros((2, 32)))
        assert f.components == 2 and f.n == 32

    def test_rejects_square_array(self):
        # an (N, N) array is not a field on the line; it must not pass as
        # N components or as a 2D grid
        with pytest.raises(ValueError):
            PeriodicField(np.zeros((32, 32)))


class TestWavenumbers:
    @pytest.mark.parametrize("length", [TWO_PI, 3.0])
    def test_matches_inline_formula_bitwise(self, length):
        for n in (16, 64, 256, 1024):
            inline = np.fft.fftfreq(n, d=1.0 / n) * (TWO_PI / length)
            assert np.array_equal(wavenumbers(n, length), inline)
        assert np.array_equal(wavenumbers(64), np.fft.fftfreq(64, d=1.0 / 64))


class TestTransforms:
    def test_constant_is_dc_only(self):
        f = make_field(lambda x: np.full_like(x, 3.5), n=32)
        c = to_spectral(f)
        assert c.modes[0] == pytest.approx(3.5 * 32)
        assert np.max(np.abs(c.modes[1:])) < 1e-12

    def test_cosine_single_harmonic(self):
        f = make_field(np.cos, n=64)
        c = to_spectral(f)
        mask = np.ones(64, dtype=bool)
        mask[[1, -1]] = False
        assert np.max(np.abs(c.modes[mask])) < 1e-10
        assert c.modes[1] == pytest.approx(32.0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        f = PeriodicField(rng.standard_normal(128))
        g = to_physical(to_spectral(f))
        assert np.max(np.abs(g.samples - f.samples)) <= 1e-12

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        f = PeriodicField(rng.standard_normal(64), domain_length=5.0)
        c = to_spectral(f)
        # l2^2 = (L/N) sum u^2 = (L/N^2) sum |modes|^2 under this convention
        lhs = norms(f)["l2"] ** 2
        rhs = f.domain_length / f.n**2 * np.sum(np.abs(c.modes) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestFractionalLaplacian:
    def test_rejects_nonpositive_order(self):
        f = make_field(np.cos)
        with pytest.raises(ValueError):
            fractional_laplacian(f, 0.0)

    def test_single_mode_eigenvalue(self):
        for m in (1, 3, 5):
            f = make_field(lambda x, m=m: np.cos(m * x), n=64)
            g = fractional_laplacian(f, 1.0)
            assert np.max(np.abs(g.samples - m * f.samples)) < 1e-10

    def test_lambda_squared_is_minus_laplace(self):
        f = make_field(np.cos)
        g = fractional_laplacian(f, 2.0)
        assert np.max(np.abs(g.samples - f.samples)) < 1e-10

    def test_dense_multiplier_oracle(self):
        # Independent dense-DFT application of |k|^a on a sawtooth.
        n = 64
        x = np.arange(n) * (TWO_PI / n)
        saw = np.abs(x - np.pi) - np.pi / 2
        f = PeriodicField(saw)
        a = 0.5
        j = np.arange(n)
        dft = np.exp(-2j * np.pi * np.outer(j, j) / n)
        freqs = np.fft.fftfreq(n, d=1.0 / n)
        sym = np.abs(freqs) ** a
        dense = (dft.conj().T @ (sym * (dft @ saw))).real / n
        g = fractional_laplacian(f, a)
        assert np.max(np.abs(g.samples - dense)) <= 1e-10 * np.max(np.abs(dense))

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        f = random_band_limited(rng)
        g1 = fractional_laplacian(fractional_laplacian(f, 0.7), 0.8)
        g2 = fractional_laplacian(f, 1.5)
        assert np.max(np.abs(g1.samples - g2.samples)) <= 1e-10 * norms(g2)["linf"]

    def test_nonunit_domain_scaling(self):
        # On L = pi the first harmonic has physical wavenumber 2.
        f = make_field(lambda x: np.cos(2 * x), n=64, length=np.pi)
        g = fractional_laplacian(f, 1.0)
        assert np.max(np.abs(g.samples - 2.0 * f.samples)) < 1e-10


class TestHilbert:
    def test_constant_maps_to_zero(self):
        f = make_field(lambda x: np.full_like(x, 2.0))
        assert norms(hilbert_transform(f))["linf"] < 1e-14

    def test_rejects_2d(self):
        f = PeriodicField(np.zeros((2, 32)))
        with pytest.raises(ValueError):
            hilbert_transform(f)

    def test_pv_quadrature_oracle(self):
        # Permanent regression fixing the sign convention: compare against
        # direct principal-value quadrature of (1/2pi) cot(alpha/2).
        n = 256
        x = np.arange(n) * (TWO_PI / n)
        f = PeriodicField(np.sin(x))
        got = hilbert_transform(f).samples

        h = TWO_PI / n
        alphas = np.arange(1, n // 2) * h  # pairs (alpha, -alpha), alpha in (0, pi)
        acc = np.zeros(n)
        for a in alphas:
            acc += (np.sin(x - a) - np.sin(x + a)) * (1.0 / np.tan(a / 2.0))
        # alpha -> 0 removable limit of the paired integrand is -4 f'(x);
        # alpha = pi endpoint carries weight cot(pi/2) = 0.
        limit0 = -4.0 * np.cos(x)
        oracle = (h / TWO_PI) * (acc + 0.5 * limit0)
        assert np.max(np.abs(got - oracle)) <= 1e-6
        assert np.max(np.abs(got + np.cos(x))) <= 1e-6  # H(sin) = -cos

    def test_hilbert_squared_is_minus_projection(self):
        rng = np.random.default_rng(3)
        f = random_band_limited(rng)
        hh = hilbert_transform(hilbert_transform(f))
        expect = -(f.samples - np.mean(f.samples))
        assert np.max(np.abs(hh.samples - expect)) <= 1e-10

    def test_hilbert_dx_equals_lambda(self):
        rng = np.random.default_rng(4)
        f = random_band_limited(rng)
        lhs = hilbert_transform(spectral_derivative(f, 1))
        rhs = fractional_laplacian(f, 1.0)
        assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-10

    @given(j=st.integers(-63, 63))
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_grid_translation(self, j):
        rng = np.random.default_rng(5)
        f = random_band_limited(rng)
        a = j * f.spacing
        lhs = hilbert_transform(shift(f, a)).samples
        rhs = shift(hilbert_transform(f), a).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


class TestFiniteDifference:
    def test_delta_constant_zero(self):
        f = make_field(lambda x: np.full_like(x, 1.7))
        d = finite_difference(f, f.spacing, "delta")
        assert norms(d)["linf"] == 0.0

    def test_rejects_zero_alpha_divided(self):
        f = make_field(np.cos)
        for flavor in ("Delta", "O"):
            with pytest.raises(ValueError):
                finite_difference(f, 0.0, flavor)

    def test_rejects_offgrid_alpha(self):
        f = make_field(np.cos)
        with pytest.raises(ValueError):
            finite_difference(f, 1.5 * f.spacing, "delta")

    def test_Delta_converges_to_derivative(self):
        f = make_field(np.sin, n=512)
        errs = []
        for mult in (8, 4, 2, 1):
            a = mult * f.spacing
            d = finite_difference(f, a, "Delta")
            errs.append(np.max(np.abs(d.samples - np.cos(np.arange(512) * f.spacing))))
        # first-order one-sided difference: error ratio ~ 2 per halving
        assert errs[-1] < errs[0] / 4
        ratios = [errs[i] / errs[i + 1] for i in range(3)]
        assert all(1.5 < r < 2.5 for r in ratios)

    def test_O_of_cosine_pointwise_oracle(self):
        n = 64
        f = make_field(np.cos, n=n)
        a = 3 * f.spacing
        got = finite_difference(f, a, "O")
        x = np.arange(n) * f.spacing
        expect = (2.0 * (1.0 - np.cos(a)) / a) * np.cos(x)
        assert np.max(np.abs(got.samples - expect)) <= 1e-12

    def test_delta_signed_vs_O(self):
        # O_alpha = (delta_alpha + delta_{-alpha}) / |alpha| by definition
        rng = np.random.default_rng(6)
        f = random_band_limited(rng)
        a = 5 * f.spacing
        d1 = finite_difference(f, a, "delta").samples
        d2 = finite_difference(f, -a, "delta").samples
        o = finite_difference(f, a, "O").samples
        assert np.max(np.abs((d1 + d2) / a - o)) <= 1e-12


class TestHolderSeminorm:
    def test_constant_zero(self):
        f = make_field(lambda x: np.full_like(x, 4.0))
        assert holder_seminorm(f, 0, 0.5).value == 0.0

    def test_exhaustive_shift_oracle(self):
        n = 64
        f = make_field(np.cos, n=n)
        est = holder_seminorm(f, 0, 0.5)
        x = np.arange(n) * f.spacing
        best = 0.0
        h = f.spacing
        while h <= f.domain_length / 4 + 1e-15:
            best = max(best, np.max(np.abs(np.cos(x) - np.cos(x - h))) / h**0.5)
            h *= 2
        assert est.value == pytest.approx(best, abs=1e-12)

    def test_lipschitz_surrogate_stabilizes(self):
        # |sin|-like corner: the (k=0, kappa->1) surrogate approaches the
        # Lipschitz constant 1 from below as kappa -> 1.
        f = make_field(lambda x: np.abs(np.sin(x)), n=512)
        est = holder_seminorm(f, 0, 0.99)
        assert 0.8 < est.value < 1.2

    def test_corner_flagged_at_first_derivative(self):
        f = make_field(lambda x: np.abs(np.sin(x)), n=256)
        est = holder_seminorm(f, 1, 0.5)
        assert est.under_resolved

    @given(j=st.integers(-31, 31), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_translation_and_sign_invariance(self, j, sign):
        rng = np.random.default_rng(8)
        f = random_band_limited(rng)
        base = holder_seminorm(f, 1, 0.3).value
        g = f.with_samples(sign * np.roll(f.samples, j))
        assert holder_seminorm(g, 1, 0.3).value == pytest.approx(base, rel=1e-10)


class TestNorms:
    def test_sine_norms(self):
        f = make_field(np.sin, n=256)
        r = norms(f)
        assert r["l2"] == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        assert r["linf"] == pytest.approx(1.0, abs=1e-3)  # grid misses the max
        assert abs(r["mean"]) < 1e-14

    def test_constant_norms(self):
        f = PeriodicField(np.full(32, -2.0), domain_length=3.0)
        r = norms(f)
        assert r["l2"] == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-14)
        assert r["linf"] == 2.0
        assert r["mean"] == -2.0

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(64)
        f = PeriodicField(u, domain_length=TWO_PI)
        r = norms(f)
        assert r["l2"] == np.sqrt(TWO_PI / 64 * np.sum(u * u))
        assert r["linf"] == np.max(np.abs(u))
        assert r["mean"] == np.mean(u)


class TestDealias:
    def test_low_modes_untouched(self):
        f = make_field(lambda x: np.cos(3 * x), n=64)
        g = dealias(f)
        assert np.max(np.abs(g.samples - f.samples)) < 1e-12

    def test_high_modes_zeroed(self):
        f = make_field(lambda x: np.cos(30 * x), n=64)
        g = dealias(f)
        assert norms(g)["linf"] < 1e-12
