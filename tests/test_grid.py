"""Grid module: field invariants, Parseval, multiplier actions, the ledger's
Holder shift differences against the per-shift loops they replaced, and the
quadrature-derived Hilbert convention."""

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import pslab
from pslab import nonlocal_ops
from pslab.grid import (
    NonFiniteError,
    PeriodicField,
    _dealias_mask,
    _dealiased_derivative_table,
    _derivative_table,
    _hilbert_multiplier,
    _holder_shifts,
    apply_multiplier,
    derivatives,
    fractional_laplacian,
    hilbert_transform,
    holder_rows,
    irfft,
    norm_rows,
    rfft,
    shift_windows,
    spectral_rows,
    wavenumbers,
)
from pslab.kernels import periodic_sd_kernel, sd_symbol
from pslab.stepper import LEDGER_BLOCK, LedgerSpec, holder_column, ledger_entry

TWO_PI = 2.0 * np.pi


def make_field(fn, n=64, length=TWO_PI):
    x = np.arange(n) * (length / n)
    return PeriodicField(fn(x), domain_length=length)


def norms_of(field):
    """l2, linf and mean of one field: norm_rows of its one-row stack."""
    l2, linf, mean = norm_rows(field.spacing, field.samples[None])
    return l2[0], linf[0], mean[0]


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

    @pytest.mark.parametrize("length", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_domain_length(self, length):
        with pytest.raises(ValueError, match="domain_length"):
            PeriodicField(np.zeros(16), domain_length=length)

    def test_components(self):
        f = PeriodicField(np.zeros((2, 32)))
        assert f.components == 2 and f.n == 32

    def test_rejects_square_array(self):
        # an (N, N) array is not a field on the line; it must not pass as
        # N components or as a 2D grid
        with pytest.raises(ValueError):
            PeriodicField(np.zeros((32, 32)))

    @pytest.mark.parametrize("rows", [0, 1, 16])
    def test_rejects_component_count_outside_2_to_15(self, rows):
        # a (1, N) or (0, N) array is neither a scalar field nor a contour
        with pytest.raises(ValueError, match="components"):
            PeriodicField(np.zeros((rows, 64)))

    @pytest.mark.parametrize("samples", [np.exp(1j * np.arange(32)),
                                         np.zeros((2, 32), dtype=complex)])
    def test_rejects_complex_samples_without_a_warning(self, samples):
        # a cast to float would drop the imaginary part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                PeriodicField(samples)


class TestWavenumbers:
    @pytest.mark.parametrize("length", [TWO_PI, 3.0])
    def test_matches_inline_formula_bitwise(self, length):
        for n in (16, 64, 256, 1024):
            inline = np.fft.rfftfreq(n, d=1.0 / n) * (TWO_PI / length)
            assert np.array_equal(wavenumbers(n, length), inline)
        assert np.array_equal(wavenumbers(64), np.arange(33.0))  # Nyquist at +N/2


def fresh_wavenumbers(n, length=TWO_PI):
    """The uncached table: a new array on every call."""
    return np.fft.rfftfreq(n, d=1.0 / n) * (TWO_PI / length)


def fresh_derivative_multiplier(n, length, order):
    mult = (1j * fresh_wavenumbers(n, length)) ** order
    if order % 2 == 1:
        mult[n // 2] = 0.0
    return mult


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPlanCache:
    @pytest.mark.parametrize("length", [TWO_PI, 3.0])
    @pytest.mark.parametrize("n", [16, 64, 512, 1024])
    def test_tables_equal_fresh_computation_bitwise(self, n, length):
        for _ in range(2):  # a miss, then a hit
            assert same_bits(wavenumbers(n, length), fresh_wavenumbers(n, length))
            for order in range(5):
                assert same_bits(_derivative_table(n, length, (order,))[0],
                                 fresh_derivative_multiplier(n, length, order))

    def test_tables_are_shared_and_read_only(self):
        k = wavenumbers(64, 3.0)
        mult = _derivative_table(64, 3.0, (1,))
        stacked = _derivative_table(64, 3.0, (2, 1))
        hilbert = _hilbert_multiplier(64)
        dealiased = _dealiased_derivative_table(64, 3.0)
        assert wavenumbers(64, 3.0) is k
        assert _derivative_table(64, 3.0, (1,)) is mult
        assert _derivative_table(64, 3.0, (2, 1)) is stacked
        assert _hilbert_multiplier(64) is hilbert
        assert _dealiased_derivative_table(64, 3.0) is dealiased
        assert same_bits(stacked, np.stack([fresh_derivative_multiplier(64, 3.0, m)
                                            for m in (2, 1)]))
        # the surface-diffusion flux's multiplier as it was built per call
        assert same_bits(dealiased, _dealias_mask(64)
                         * fresh_derivative_multiplier(64, 3.0, 1))
        for table in (k, mult, stacked, hilbert, dealiased):
            with pytest.raises(ValueError):
                table[0] = 1.0
            with pytest.raises(ValueError):
                table *= 2.0
        assert same_bits(k, fresh_wavenumbers(64, 3.0))

    def test_holder_tables_are_shared_and_read_only(self):
        # the shifts are the only table: each is read as a window, not
        # through a cached gather index
        shifts = _holder_shifts(64)
        assert _holder_shifts(64) is shifts
        assert shifts.tolist() == [1, 2, 4, 8, 16]
        with pytest.raises(ValueError):
            shifts[0] = 0

    @pytest.mark.parametrize("n", [16, 64, 512, 1024])
    def test_cached_callers_match_inline(self, n):
        rng = np.random.default_rng(n)
        f = PeriodicField(rng.standard_normal(n))
        k = fresh_wavenumbers(n)
        modes = np.fft.rfft(f.samples)
        mult = -1j * np.sign(k)
        mult[n // 2] = 0.0
        assert same_bits(hilbert_transform(f).samples,
                         np.fft.irfft(modes * mult, n))
        assert same_bits(apply_multiplier(f, _dealias_mask(n)).samples,
                         np.fft.irfft(modes * (np.abs(k) <= n / 3.0), n))
        kernel_modes = (n / TWO_PI) * np.exp(-sd_symbol(k, 2.0) * 0.1)
        kernel_modes[0] = 0.0
        assert same_bits(periodic_sd_kernel(0.1, 2.0, n).samples,
                         np.fft.irfft(kernel_modes, n))


def full_spectrum(samples, length, symbol):
    """The route every multiplier took before pslab kept half spectra: the
    full complex fft, the symbol on fftfreq wavenumbers (Nyquist at -N/2),
    and the real part of the full ifft."""
    n = samples.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n) * (TWO_PI / length)
    return np.fft.ifft(np.fft.fft(samples, axis=-1) * symbol(k), axis=-1).real


class TestHalfSpectrumAgainstFullSpectrum:
    @given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(4, 10),
           components=st.sampled_from([1, 2]), length=st.floats(0.1, 100.0),
           scale=st.floats(-3.0, 3.0), a=st.floats(0.1, 4.0), b=st.floats(-3.0, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_multipliers_derivatives_and_hilbert(self, seed, log2n, components,
                                                 length, scale, a, b):
        rng = np.random.default_rng(seed)
        n = 2**log2n
        shape = (n,) if components == 1 else (components, n)
        f = PeriodicField(10.0**scale * rng.standard_normal(shape), domain_length=length)
        k = wavenumbers(n, length)

        def nyquist_zeroed(mult):
            mult[n // 2] = 0.0  # mode N/2 sits at index N/2 on both tables
            return mult

        def check(got, want):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

        for symbol in (lambda k: np.abs(k) ** a,
                       lambda k: (1j * b * k + np.abs(k)) / (1.0 + b * b),
                       lambda k: nyquist_zeroed((1j * k) ** 3)):
            check(apply_multiplier(f, symbol(k)).samples,
                  full_spectrum(f.samples, length, symbol))
        check(hilbert_transform(f).samples,
              full_spectrum(f.samples, length, lambda k: nyquist_zeroed(-1j * np.sign(k))))
        orders = (0, 1, 2, 3, 4)
        for m, row in zip(orders, derivatives(f, orders)):
            check(row, full_spectrum(f.samples, length, lambda k: (
                nyquist_zeroed((1j * k) ** m) if m % 2 else (1j * k) ** m)))


def single_derivative(field, m):
    """The one-order route that derivatives replaced: apply_multiplier under a
    fresh (i k)^m, its Nyquist mode zeroed for odd m."""
    mult = (1j * wavenumbers(field.n, field.domain_length)) ** m
    if m % 2:
        mult[-1] = 0.0
    return apply_multiplier(field, mult).samples


class TestBatchedDerivatives:
    @pytest.mark.parametrize("length", [TWO_PI, 3.7, 1.0])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512, 1024])
    def test_rows_equal_single_derivatives_bitwise(self, n, length):
        rng = np.random.default_rng(n)
        fields = [PeriodicField(rng.standard_normal(n), domain_length=length),
                  random_band_limited(rng, n, max_mode=n // 8, length=length),
                  PeriodicField(rng.standard_normal((2, n)), domain_length=length)]
        for f in fields:
            for orders in ((0, 1, 2, 3), (3, 1), (2, 0, 3, 1), (1, 2), (2,), (1,)):
                rows = derivatives(f, orders)
                assert rows.shape == (len(orders), *f.samples.shape)
                for m, row in zip(orders, rows):
                    assert same_bits(row, single_derivative(f, m)), (orders, m)

    def test_overflow_raises_non_finite_without_warnings(self):
        x = np.arange(256) * (TWO_PI / 256)
        f = PeriodicField(1e305 * (1.0 - (4.0 / TWO_PI) * np.abs(x - np.pi)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NonFiniteError):
                derivatives(f, (1, 2))

    def test_rejects_contours_and_negative_orders(self):
        with pytest.raises(ValueError):
            derivatives(PeriodicField(np.zeros(32)), (1, -1))


class TestStateRowsInOneTransform:
    """An ETD stage takes its state and its remainder's derivative rows
    from one batched irfft; each row must be the bits of its own
    transform, so that no march drifts from the per-row route."""

    @given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(4, 10),
           orders=st.sampled_from([(1, 2), (2,), (1,)]),
           length=st.sampled_from([TWO_PI, 3.7, 0.1]), scale=st.floats(-3.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_batched_rows_equal_separate_transforms_bitwise(self, seed, log2n, orders,
                                                           length, scale):
        rng = np.random.default_rng(seed)
        n = 2**log2n
        # a random half spectrum, with imaginary parts at modes 0 and N/2
        # that irfft drops
        uh = 10.0**scale * (rng.standard_normal(n // 2 + 1)
                            + 1j * rng.standard_normal(n // 2 + 1))
        assert uh[0].imag != 0.0 and uh[-1].imag != 0.0
        rows = np.fft.irfft(uh * _derivative_table(n, length, (0, *orders)), n)
        assert np.array_equal(rows[0], np.fft.irfft(uh, n))
        assert np.array_equal(
            rows[1:], np.fft.irfft(uh * _derivative_table(n, length, orders), n))
        assert np.array_equal(spectral_rows(uh, n, length, (0, *orders)), rows)


class TestTransformRoute:
    """grid.rfft and grid.irfft call numpy's pocketfft gufuncs directly.
    Each must be np.fft's transform on the last axis bit for bit, odd
    lengths included, and refuse an out that the gufuncs would fill
    without complaint."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 2048),
           lead=st.sampled_from([(), (3,), (5, 2), (3, 4)]),
           strided=st.booleans(), with_out=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_equal_numpy_fft_bitwise(self, seed, n, lead, strided, with_out):
        # shapes (N,), (c, N), (B, c, N) and (orders, B, N); a strided
        # input reads every other entry of a wider array
        rng = np.random.default_rng(seed)
        step = 2 if strided else 1
        x = rng.standard_normal((*lead, step * n))[..., ::step]
        xh = (rng.standard_normal((*lead, step * (n // 2 + 1)))
              + 1j * rng.standard_normal((*lead, step * (n // 2 + 1))))[..., ::step]
        for got_of, want in ((lambda out: rfft(x, out=out), np.fft.rfft(x, axis=-1)),
                             (lambda out: irfft(xh, n, out=out),
                              np.fft.irfft(xh, n, axis=-1))):
            out = np.empty_like(want) if with_out else None
            got = got_of(out)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            if with_out:
                assert got is out

    @pytest.mark.parametrize("transform, out", [
        ("rfft", np.empty(200, dtype=complex)), ("rfft", np.empty(300, dtype=complex)),
        ("rfft", np.empty((2, 257), dtype=complex)), ("rfft", np.empty(257)),
        ("rfft", np.empty(257, dtype=np.complex64)), ("irfft", np.empty(511)),
        ("irfft", np.empty((2, 512))), ("irfft", np.empty(512, dtype=complex))],
        ids=["rfft-200-modes", "rfft-300-modes", "rfft-extra-axis", "rfft-real",
             "rfft-single", "irfft-511-samples", "irfft-extra-axis", "irfft-complex"])
    def test_bad_out_raises(self, transform, out):
        # the transforms of a 512-point field into a wrong length, an extra
        # axis or a wrong dtype
        with pytest.raises(ValueError, match="out must have shape"):
            if transform == "rfft":
                rfft(np.ones(512), out=out)
            else:
                irfft(np.ones(257, dtype=complex), 512, out=out)


class TestHalfSpectraOnly:
    def test_every_transform_in_the_package_is_a_half_spectrum_one(self):
        # fields are real, so each transform in pslab is rfft or irfft on
        # the rfftfreq wavenumbers, and grid.rfft/irfft are the one route to
        # numpy's transforms: grid.py alone names numpy.fft, and uses only
        # rfftfreq and the three half-spectrum gufuncs from it
        sources = sorted(Path(pslab.__file__).parent.glob("*.py"))
        naming = [path.name for path in sources
                  if re.search(r"\b(?:np|numpy)\.fft\b|_pocketfft", path.read_text())]
        assert naming == ["grid.py"]
        tree = ast.parse((Path(pslab.__file__).parent / "grid.py").read_text())
        imported = {(node.module, alias.name): alias.asname or alias.name
                    for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert [key for key in imported if "fft" in str(key)] == \
            [("numpy.fft", "_pocketfft_umath")]
        handle = imported["numpy.fft", "_pocketfft_umath"]
        used = {"np.fft": set(), handle: set()}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) in used:
                used[ast.unparse(node.value)].add(node.attr)
        assert used == {"np.fft": {"rfftfreq"},
                        handle: {"rfft_n_even", "rfft_n_odd", "irfft"}}
        # no full-spectrum or n-dimensional transform anywhere, in code or
        # in prose, once the module name numpy.fft itself is set aside
        for path in sources:
            text = re.sub(r"\b(?:np|numpy)\.fft\b", "", path.read_text())
            assert not re.findall(r"\b(?:i?fft[2n]?|i?rfft[2n]|i?hfft)\b", text), path


class TestTrustedFieldCallers:
    def test_only_the_step_end_and_the_generic_remainder_build_unchecked_fields(self):
        # grid._trusted_field skips every check of PeriodicField, so it may
        # serve only rows checked just before: the ETD step's end state and
        # the generic remainder's field of a stage or state row. A third
        # caller fails here instead of building an unchecked field
        sites = []

        def visit(node, path, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                if isinstance(child, ast.Call):
                    name = child.func.id if isinstance(child.func, ast.Name) else \
                        getattr(child.func, "attr", None)
                    if name == "_trusted_field":
                        sites.append((path.name, ".".join(scope)))
                visit(child, path, inner)

        references = 0
        for path in sorted(Path(pslab.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            visit(tree, path, ())
            for node in ast.walk(tree):
                if isinstance(node, ast.alias) and node.name == "_trusted_field":
                    assert node.asname is None, path
                references += (isinstance(node, ast.Name) and node.id == "_trusted_field"
                               or isinstance(node, ast.Attribute)
                               and node.attr == "_trusted_field")
        assert sorted(sites) == [("models.py", "_ModelBase.remainder_from_rows"),
                                 ("stepper.py", "imex_frozen_phi_step")]
        # and nothing hands the constructor on by name for a later call
        assert references == len(sites)


class TestStridedViews:
    """grid.shift_windows and nonlocal_ops._read_ahead lay a strided view
    on a buffer by hand: each is numpy's sliding_window_view, read-only."""

    @staticmethod
    def assert_same_view(got, want):
        assert got.shape == want.shape and got.strides == want.strides
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError):
            got[(0,) * got.ndim] = 1.0

    @pytest.mark.parametrize("n", [16, 17, 32, 33])
    @pytest.mark.parametrize("lead", [(), (2,)], ids=["N", "2xN"])
    def test_shift_windows_is_the_sliding_window_view(self, lead, n):
        x = np.random.default_rng(n).standard_normal((*lead, n))
        want = sliding_window_view(np.concatenate([x, x], axis=-1), n, axis=-1)
        self.assert_same_view(shift_windows(x), want)

    @pytest.mark.parametrize("n", [16, 17, 32, 33])
    @pytest.mark.parametrize("rows", [1, 2])
    def test_read_ahead_is_the_sliding_window_view(self, rows, n):
        # every start the fractional curvature's blocks can ask for:
        # j0 + rows <= N + 1
        doubled = np.random.default_rng(n + rows).standard_normal((rows, 2 * n))
        for j0 in range(n + 2 - rows):
            want = sliding_window_view(doubled.ravel(), n)[j0::2 * n + 1][:rows]
            self.assert_same_view(nonlocal_ops._read_ahead(doubled, j0), want)

    def test_only_the_two_window_builders_stride_a_buffer(self):
        # a view laid on a buffer by hand reads whatever its shape and
        # strides say, so only the two builders checked above may make one
        sites = []

        def visit(node, path, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = scope + (child.name,)
                if isinstance(child, ast.Call):
                    name = child.func.id if isinstance(child.func, ast.Name) else \
                        getattr(child.func, "attr", None)
                    if name in ("ndarray", "as_strided", "sliding_window_view") or any(
                            kw.arg == "strides" for kw in child.keywords):
                        sites.append((path.name, ".".join(scope)))
                visit(child, path, inner)

        for path in sorted(Path(pslab.__file__).parent.glob("*.py")):
            text = path.read_text()
            assert "stride_tricks" not in text, path
            visit(ast.parse(text), path, ())
        assert sorted(sites) == [("grid.py", "shift_windows"),
                                 ("nonlocal_ops.py", "_read_ahead")]


class TestTransforms:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        f = PeriodicField(rng.standard_normal(64), domain_length=5.0)
        modes = np.fft.fft(f.samples)
        # l2^2 = (L/N) sum u^2 = (L/N^2) sum |modes|^2 under this convention
        lhs = norms_of(f)[0] ** 2
        rhs = f.domain_length / f.n**2 * np.sum(np.abs(modes) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestFractionalLaplacian:
    def test_rejects_nonpositive_order(self):
        f = make_field(np.cos)
        with pytest.raises(ValueError):
            fractional_laplacian(f, 0.0)

    @pytest.mark.parametrize("a", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_non_finite_order_by_name(self, a):
        # a NaN order used to pass the a <= 0 test and fail later on the samples
        with pytest.raises(ValueError, match=r"0 < a < inf"):
            fractional_laplacian(make_field(np.cos), a)

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
        assert np.max(np.abs(g1.samples - g2.samples)) <= 1e-10 * np.max(np.abs(g2.samples))

    def test_nonunit_domain_scaling(self):
        # On L = pi the first harmonic has physical wavenumber 2.
        f = make_field(lambda x: np.cos(2 * x), n=64, length=np.pi)
        g = fractional_laplacian(f, 1.0)
        assert np.max(np.abs(g.samples - 2.0 * f.samples)) < 1e-10


class TestHilbert:
    def test_constant_maps_to_zero(self):
        f = make_field(lambda x: np.full_like(x, 2.0))
        assert np.max(np.abs(hilbert_transform(f).samples)) < 1e-14

    def test_contour_matches_per_component(self):
        # one multiplier for every component: the batched transform equals
        # the per-component one bit for bit
        rng = np.random.default_rng(17)
        for n in (64, 128, 256, 512, 1024):
            X = PeriodicField(rng.standard_normal((2, n)))
            rows = [hilbert_transform(PeriodicField(c)).samples for c in X.samples]
            assert same_bits(hilbert_transform(X).samples, np.stack(rows))

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
        lhs = hilbert_transform(f.with_samples(derivatives(f, (1,))[0]))
        rhs = fractional_laplacian(f, 1.0)
        assert np.max(np.abs(lhs.samples - rhs.samples)) <= 1e-10

    @given(j=st.integers(-63, 63))
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_grid_translation(self, j):
        rng = np.random.default_rng(5)
        f = random_band_limited(rng)
        lhs = hilbert_transform(f.with_samples(np.roll(f.samples, j))).samples
        rhs = np.roll(hilbert_transform(f).samples, j)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def ledger_holder(field, k, kappa):
    """The C^{k+kappa} seminorm estimate in field's ledger row."""
    row = ledger_entry(0.0, field, LedgerSpec(holder_targets=((k, kappa),)))
    return row[holder_column(k, kappa)]


class TestHolderSeminorm:
    def test_constant_zero(self):
        f = make_field(lambda x: np.full_like(x, 4.0))
        assert ledger_holder(f, 0, 0.5) == 0.0

    def test_exhaustive_shift_oracle(self):
        n = 64
        f = make_field(np.cos, n=n)
        est = ledger_holder(f, 0, 0.5)
        x = np.arange(n) * f.spacing
        best = 0.0
        h = f.spacing
        while h <= f.domain_length / 4 + 1e-15:
            best = max(best, np.max(np.abs(np.cos(x) - np.cos(x - h))) / h**0.5)
            h *= 2
        assert est == pytest.approx(best, abs=1e-12)

    def test_lipschitz_surrogate_stabilizes(self):
        # |sin|-like corner: the (k=0, kappa->1) surrogate approaches the
        # Lipschitz constant 1 from below as kappa -> 1.
        f = make_field(lambda x: np.abs(np.sin(x)), n=512)
        assert 0.8 < ledger_holder(f, 0, 0.99) < 1.2

    @given(j=st.integers(-31, 31), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=20, deadline=None)
    def test_translation_and_sign_invariance(self, j, sign):
        rng = np.random.default_rng(8)
        f = random_band_limited(rng)
        base = ledger_holder(f, 1, 0.3)
        g = f.with_samples(sign * np.roll(f.samples, j))
        assert ledger_holder(g, 1, 0.3) == pytest.approx(base, rel=1e-10)


@np.errstate(over="ignore", invalid="ignore")
def holder_by_shift_loop(field, k, kappa):
    """The per-shift np.roll loop the Holder estimate used before its single
    gather: one roll per dyadic shift of the k-th derivative."""
    deriv = field.with_samples(derivatives(field, (k,))[0]) if k > 0 else field
    value = 0.0
    h = field.spacing
    while h <= field.domain_length / 4 + 1e-15:
        back = np.roll(deriv.samples, int(np.round(h / field.spacing)))
        d = field.with_samples(deriv.samples - back)
        value = max(value, float(np.max(np.abs(d.samples))) / h**kappa)
        h *= 2.0
    return value


@np.errstate(over="ignore", invalid="ignore")
def holder_rows_by_roll(d, kappa, h):
    """holder_rows one row and one np.roll per dyadic shift at a time."""
    n = d.shape[-1]
    out = []
    for row in d:
        value = -np.inf
        j = 1
        while j <= n // 4:
            sup = np.max(np.abs(row - np.roll(row, j)))
            value = max(value, sup / (h * j) ** kappa)
            j *= 2
        out.append(value if np.isfinite(value) else np.nan)
    return np.array(out)


class TestHolderRowsAgainstRolls:
    @given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(4, 10),
           batch=st.integers(1, LEDGER_BLOCK), scale=st.floats(-300.0, 300.0),
           kappa=st.floats(0.01, 0.99), h=st.floats(1e-4, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_window_read_is_the_roll_loop_bit_for_bit(self, seed, log2n, batch,
                                                     scale, kappa, h):
        rng = np.random.default_rng(seed)
        n = 2**log2n
        d = 10.0**scale * rng.standard_normal((batch, n))
        # a near-limit alternating row, whose quotients overflow for small h
        d[-1] = np.tile([7e307, -7e307], n // 2)
        with np.errstate(over="ignore", invalid="ignore"):
            got = holder_rows(d, kappa, h)
        assert got.tobytes() == holder_rows_by_roll(d, kappa, h).tobytes()

    def test_overflowing_quotient_row_is_nan(self):
        d = np.stack([np.cos(np.arange(64.0)), np.tile([7e307, -7e307], 32)])
        with np.errstate(over="ignore", invalid="ignore"):
            got = holder_rows(d, 0.5, 0.1 / 64)
        want = holder_rows_by_roll(d, 0.5, 0.1 / 64)
        assert np.isfinite(got[0]) and np.isnan(got[1])
        assert got.tobytes() == want.tobytes()

    def test_windows_are_the_rolls(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 32))
        windows = shift_windows(x)
        assert windows.shape == (3, 33, 32)
        for k in range(33):
            assert windows[:, k].tobytes() == np.roll(x, -k, axis=-1).tobytes()
        with pytest.raises(ValueError):
            windows[0, 0, 0] = 1.0


class TestHolderAgainstShiftLoop:
    @pytest.mark.parametrize("length", [TWO_PI, 3.0])
    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_bit_identical_value_and_flag(self, n, length):
        rng = np.random.default_rng(n)
        x = np.arange(n) * (length / n)
        data = {
            "rough": rng.standard_normal(n),
            "smooth": random_band_limited(rng, n, max_mode=n // 8, length=length).samples,
            "abs_sin": np.abs(np.sin(TWO_PI * x / length)),
        }
        for name, samples in data.items():
            f = PeriodicField(samples, domain_length=length)
            for k in (0, 1, 2, 3):
                for kappa in (0.3, 0.5, 0.99):
                    if k + 2 > n // 4:
                        with pytest.raises(ValueError):
                            ledger_holder(f, k, kappa)
                        continue
                    value = holder_by_shift_loop(f, k, kappa)
                    assert ledger_holder(f, k, kappa) == value, (name, k, kappa)

    def test_overflowing_derivative_raises_non_finite(self):
        # the ledger-row reproducer: a finite triangle whose second
        # derivative overflows
        n = 256
        x = np.arange(n) * (TWO_PI / n)
        f = PeriodicField(1e305 * (1.0 - (4.0 / TWO_PI) * np.abs(x - np.pi)))
        with pytest.raises(NonFiniteError):
            ledger_holder(f, 2, 0.5)
        with pytest.raises(NonFiniteError):
            holder_by_shift_loop(f, 2, 0.5)

    def test_overflowing_increment_raises_non_finite(self):
        # finite samples of opposite sign near the float limit: the loop's
        # increment field was rejected, so the gather must reject it too;
        # the short period keeps the row's norms finite, so the gather is
        # what raises
        f = PeriodicField(np.tile([1.5e308, -1.5e308], 32), domain_length=0.1)
        assert np.isfinite(ledger_entry(0.0, f, LedgerSpec())["l2"])
        with pytest.raises(NonFiniteError):
            holder_by_shift_loop(f, 0, 0.5)
        with pytest.raises(NonFiniteError):
            ledger_holder(f, 0, 0.5)

    def test_overflow_raises_the_typed_error_without_warnings(self):
        # the typed error is all a caller outside the march sees
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            self.test_overflowing_derivative_raises_non_finite()
            self.test_overflowing_increment_raises_non_finite()
            x = np.arange(256) * (TWO_PI / 256)
            f = PeriodicField(1e305 * (1.0 - (4.0 / TWO_PI) * np.abs(x - np.pi)))
            with pytest.raises(NonFiniteError):
                derivatives(f, (2,))


class TestNorms:
    def test_sine_norms(self):
        l2, linf, mean = norms_of(make_field(np.sin, n=256))
        assert l2 == pytest.approx(np.sqrt(np.pi), rel=1e-12)
        assert linf == pytest.approx(1.0, abs=1e-3)  # grid misses the max
        assert abs(mean) < 1e-14

    def test_constant_norms(self):
        l2, linf, mean = norms_of(PeriodicField(np.full(32, -2.0), domain_length=3.0))
        assert l2 == pytest.approx(2.0 * np.sqrt(3.0), rel=1e-14)
        assert linf == 2.0
        assert mean == -2.0

    def test_direct_summation_oracle(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal(64)
        l2, linf, mean = norms_of(PeriodicField(u, domain_length=TWO_PI))
        assert l2 == np.sqrt(TWO_PI / 64 * np.sum(u * u))
        assert linf == np.max(np.abs(u))
        assert mean == np.mean(u)

    def test_scalar_beyond_square_overflow_stays_finite(self):
        # squares of 1e200 overflow; the l2 must still scale linearly
        unit = make_field(lambda x: 1.0 - (2.0 / np.pi) * np.abs(x - np.pi),
                          n=256)
        l2, linf, _ = norms_of(unit.with_samples(1e200 * unit.samples))
        assert l2 == pytest.approx(1e200 * norms_of(unit)[0], rel=1e-12)
        assert linf == 1e200

    def test_mean_beyond_sum_overflow_stays_exact(self):
        # the sum of 32 samples of 5e307 overflows; the mean is still 0
        f = PeriodicField(np.repeat([5e307, -5e307], 32))
        l2, linf, mean = norms_of(f)
        assert mean == 0.0
        assert linf == 5e307
        assert l2 == pytest.approx(5e307 * np.sqrt(TWO_PI), rel=1e-12)
        contour = norms_of(PeriodicField(np.stack([f.samples, -f.samples])))
        assert contour[2].tolist() == [0.0, 0.0]

    def test_overflowing_mean_sum_warns_nothing(self):
        # the mean's sum of 32 pairs of +/-1.5e308 on a 0.1 period overflows
        # to inf - inf; norm_rows rescales it without a numpy warning
        f = PeriodicField(np.tile([1.5e308, -1.5e308], 32), domain_length=0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            l2, linf, mean = norms_of(f)
        assert mean == 0.0
        assert linf == 1.5e308
        assert l2 == pytest.approx(1.5e308 * np.sqrt(0.1), rel=1e-12)

    def test_contour_beyond_square_overflow_stays_finite(self):
        theta = TWO_PI * np.arange(128) / 128
        unit = PeriodicField(np.stack([1.1 * np.cos(theta), 0.9 * np.sin(theta)]))
        big, ref = norms_of(unit.with_samples(1e200 * unit.samples)), norms_of(unit)
        assert big[0] == pytest.approx(1e200 * ref[0], rel=1e-12)
        assert big[1] == pytest.approx(1e200 * ref[1], rel=1e-12)


class TestDealias:
    def test_low_modes_untouched(self):
        f = make_field(lambda x: np.cos(3 * x), n=64)
        g = apply_multiplier(f, _dealias_mask(64))
        assert np.max(np.abs(g.samples - f.samples)) < 1e-12

    def test_high_modes_zeroed(self):
        f = make_field(lambda x: np.cos(30 * x), n=64)
        g = apply_multiplier(f, _dealias_mask(64))
        assert np.max(np.abs(g.samples)) < 1e-12
