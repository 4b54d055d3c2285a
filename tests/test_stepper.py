"""Stepper checks: exact linear propagation, Richardson self-convergence at
the formal orders, pointwise-frozen consistency, whole-window iteration,
ledger reproducibility, and the abort paths."""

import copy
import gc
import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pslab import grid, models, stepper
from pslab.grid import (
    NonFiniteError,
    PeriodicField,
    _dealias_mask,
    apply_multiplier,
    check_holder_target,
    derivative_rows,
    derivatives,
    holder_rows,
    multiplier_table,
    norm_rows,
    spectral_rows,
    sup_rows,
    wavenumbers,
)
from pslab.models import (
    MODELS,
    HeatModel,
    McfGraphModel,
    MuskatStModel,
    NonlocalMcfModel,
    Peskin2dModel,
    PositivityError,
    SurfaceDiffusionModel,
    ThinfilmExpModel,
    VarCoefHeatModel,
    _ModelBase,
)
from pslab.nonlocal_ops import WellStretchedError, stretch_ratio
from pslab.stepper import (
    LEDGER_BLOCK,
    EvolutionAbort,
    LedgerSpec,
    PICARD_TOL,
    PicardDivergenceError,
    StepSizeRefused,
    StepWork,
    StepperConfig,
    Trajectory,
    evolve,
    frozen_pointwise_step,
    holder_column,
    imex_frozen_phi_step,
    ledger_entry,
    ledger_rows,
    picard_solve,
    _etd_weights,
    _n_steps,
    _phi1,
    _phi2,
    _stability_bound,
)


def grid_x(n):
    return np.arange(n) * (2 * np.pi / n)


def triangle(n, amplitude):
    x = grid_x(n)
    return PeriodicField(amplitude * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi)))


def smooth(n):
    x = grid_x(n)
    return PeriodicField(0.3 * np.sin(x) + 0.1 * np.cos(3 * x) + 0.02 * np.sin(7 * x))


def ellipse(n, rx=1.1, ry=0.9):
    th = grid_x(n)
    return PeriodicField(np.stack([rx * np.cos(th), ry * np.sin(th)]))


class FractionalHeatModel(_ModelBase):
    """d/dt u = -Lambda^s u with no remainder; linear exactness probe."""

    tag = "toy_symbol"

    def __init__(self, s):
        self.s = float(s)

    def linear_multiplier(self, k):
        return np.abs(k) ** self.s

    def rhs(self, field):
        k = np.fft.fftfreq(field.n, d=1.0 / field.n)
        out = np.fft.ifft(-np.abs(k) ** self.s * np.fft.fft(field.samples)).real
        return field.with_samples(out)

    def remainder_from_rows(self, rows, uh, L):
        return None


class QuadraticGrowthModel(_ModelBase):
    """d/dt u = u^2: finite-time blowup exercises the abort machinery."""

    tag = "toy_quadratic"

    def linear_multiplier(self, k):
        return np.zeros_like(np.asarray(k, dtype=float))

    def rhs(self, field):
        return field.with_samples(field.samples**2)

    def remainder_from_rows(self, rows, uh, L):
        # through a field, so an overflowing square is a NonFiniteError
        return np.fft.rfft(self.rhs(PeriodicField(rows[0], L)).samples)


class ExponentialGrowthModel(QuadraticGrowthModel):
    """d/dt u = 5 u, propagated exactly with no remainder: a finite state
    grows past the range in which its derivatives stay finite."""

    def linear_multiplier(self, k):
        return np.full(np.shape(k), -5.0)

    def rhs(self, field):
        return field.with_samples(5.0 * field.samples)

    def remainder_from_rows(self, rows, uh, L):
        return None


class ShrinkingContourModel(_ModelBase):
    """d/dt (x, y) = (-x, 0) with zero multiplier: a circle flattens into
    ever thinner ellipses, so its stretch ratio rises every step."""

    tag = "toy_contour"
    is_contour = True

    def __init__(self, theta_cap):
        self.theta_cap = float(theta_cap)

    def linear_multiplier(self, k):
        return np.zeros_like(np.asarray(k, dtype=float))

    def remainder_from_rows(self, rows, uh, L):
        return uh * np.array([[-1.0], [0.0]])


class LateValueErrorModel(ExponentialGrowthModel):
    """Zero remainder spectrum whose call number fail_at raises a
    ValueError naming NaN/Inf: the guard makes two calls, the first of
    which serves step 1, step 1 one more and each later ETD-RK2 step two,
    so the fifth call fails inside the second step."""

    def __init__(self, fail_at=5):
        self.fail_at = fail_at
        self.calls = 0

    def remainder_from_rows(self, rows, uh, L):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ValueError("toy remainder rejects NaN/Inf by itself")
        return np.zeros_like(uh)


class FailingRemainderModel(McfGraphModel):
    """mcf_graph whose remainder call number fail_at raises error: the
    guard makes calls 1 and 2, and the fifth falls inside the second
    ETD-RK2 step (step 1 makes only call 3)."""

    def __init__(self, fail_at, error):
        self.fail_at = fail_at
        self.error = error
        self.calls = 0

    def remainder_from_rows(self, rows, uh, L):
        self.calls += 1
        if self.calls == self.fail_at:
            raise self.error
        return super().remainder_from_rows(rows, uh, L)


class CappedGrowthModel(ExponentialGrowthModel):
    """ExponentialGrowthModel with a theta cap, for marches that measure
    a stand-in stretch ratio of the scalar state."""

    def __init__(self, theta_cap):
        self.theta_cap = float(theta_cap)


def log_sup(field):
    """Stand-in stretch ratio that rises by 5 dt per step of the growth models."""
    return float(np.log(np.max(np.abs(field.samples))))


def per_row_evolve(model, u0, T, config, spec):
    """The march of evolve under an ETD scheme with each ledger row built
    as its state is accepted: (rows, stop), stop None or (what stopped the
    march, time), with what one of "ledger", "state", "cap" or the plain
    exception a step raised."""
    cap = getattr(model, "theta_cap", None)
    want_theta = spec.record_theta if spec.record_theta is not None else cap is not None
    n_steps = _n_steps(T, config.dt)
    # the guard's remainder calls; its remainder at u0 serves step 1
    uh = np.fft.rfft(u0.samples, axis=-1)
    r1 = model.remainder_hat(u0, uh)
    _stability_bound(model, u0, config, r1)
    rows, u, urows = [], u0, None
    for j in range(n_steps + 1):
        t = j * config.dt
        if j:
            try:
                # each step starts from the spectrum and rows the last formed
                u, uh, urows = imex_frozen_phi_step(u, model, config.dt, config.scheme,
                                                    uh, urows, None, r1)
                r1 = None
            except NonFiniteError:
                return rows, ("state", t)
            except ValueError as exc:
                return rows, (exc, t)
        theta = stepper.stretch_ratio(u) if want_theta or cap is not None else None
        if cap is not None and not theta < cap:
            return rows, ("cap", t)
        if j % spec.stride == 0 or j == n_steps:
            try:
                row = ledger_entry(t, u, spec)
            except NonFiniteError:
                return rows, ("ledger", t)
            if want_theta:
                row["theta"] = theta
            rows.append(row)
    return rows, None


def columns(rows):
    """The ledger {column name: float64 array} of ledger rows {name: float}."""
    return {name: np.array([row[name] for row in rows]) for name in rows[0]} if rows else {}


def assert_same_ledger(got, want):
    """The same columns in the same order, each float64 and bit for bit."""
    assert list(got) == list(want)
    for name, col in want.items():
        assert got[name].dtype == np.float64, name
        assert got[name].tobytes() == np.asarray(col, dtype=float).tobytes(), name


def richardson_order(model, u0, T, scheme, base):
    finals = []
    for dt in (T / base, T / (2 * base), T / (4 * base)):
        traj = evolve(model, u0, T, StepperConfig(dt=dt, scheme=scheme),
                      LedgerSpec(stride=10**9))
        finals.append(traj.final().samples)
    d1 = np.max(np.abs(finals[0] - finals[1]))
    d2 = np.max(np.abs(finals[1] - finals[2]))
    return np.log2(d1 / d2)


class TestPhiFunctions:
    def test_values_at_zero(self):
        assert _phi1(np.array([0.0]))[0] == 1.0
        assert _phi2(np.array([0.0]))[0] == 0.5

    def test_match_direct_formulas(self):
        z = np.array([-0.5, -2.0, -10.0])
        assert np.allclose(_phi1(z), (np.exp(z) - 1) / z, rtol=1e-13)
        assert np.allclose(_phi2(z), (np.exp(z) - 1 - z) / z**2, rtol=1e-13)

    def test_series_branch_continuity(self):
        # the series takes over below |z| = 1e-4; both branches must agree
        for z in (np.array([-9.9e-5]), np.array([-1.01e-4])):
            direct = (np.expm1(z) - z) / z**2
            assert _phi2(z)[0] == pytest.approx(direct[0], rel=1e-9)


class TestConfigValidation:
    def test_bad_configs(self):
        for dt in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="positive and finite"):
                StepperConfig(dt=dt)
        with pytest.raises(ValueError):
            StepperConfig(dt=0.1, scheme="rk4")
        with pytest.raises(ValueError):
            LedgerSpec(stride=0)

    def test_step_argument_validation(self):
        u = PeriodicField(np.cos(grid_x(32)))
        with pytest.raises(ValueError):
            imex_frozen_phi_step(u, HeatModel(), -0.1)
        with pytest.raises(ValueError):
            imex_frozen_phi_step(u, HeatModel(), 0.1, scheme="frozen_pointwise")

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("step", [
        lambda u, dt: imex_frozen_phi_step(u, HeatModel(), dt),
        lambda u, dt: frozen_pointwise_step(u, HeatModel(), dt),
    ], ids=["imex_frozen_phi_step", "frozen_pointwise_step"])
    def test_non_finite_dt_rejected(self, step, dt):
        u = PeriodicField(np.cos(grid_x(32)))
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            step(u, dt)

    @pytest.mark.parametrize("T, dt", [(1.0, 1e-320)])
    def test_overflowing_step_count_is_a_value_error(self, T, dt):
        with pytest.raises(ValueError, match="integer number of steps"):
            _n_steps(T, dt)

    @pytest.mark.parametrize("T, dt", [(1.5e-10, 1e-10), (2.4e-9, 1e-9)])
    def test_fractional_step_count_rejected_at_small_dt(self, T, dt):
        with pytest.raises(ValueError, match="integer number of steps"):
            _n_steps(T, dt)

    @pytest.mark.parametrize("T, dt, steps", [(2e-10, 1e-10, 2), (0.3, 0.1, 3)])
    def test_whole_step_counts_accepted_to_round_off(self, T, dt, steps):
        # 0.3 / 0.1 is 2.9999999999999996 in floating point
        assert _n_steps(T, dt) == steps

    @pytest.mark.parametrize("T", [float("nan"), float("inf"), 0.0, -1.0])
    def test_horizon_must_be_positive_and_finite(self, T):
        with pytest.raises(ValueError, match="T must be positive and finite"):
            _n_steps(T, 0.01)


class TestTrajectoryType:
    def test_times_strictly_increasing(self):
        u = PeriodicField(np.zeros(16))
        row = ledger_entry(0.0, u, LedgerSpec())
        with pytest.raises(ValueError):
            Trajectory(((0.0, u), (0.0, u)), columns([row, row]))

    def test_ledger_alignment(self):
        u = PeriodicField(np.zeros(16))
        row = ledger_entry(0.0, u, LedgerSpec())
        for ledger in ({}, columns([row, row]), {**columns([row]), "l2": np.zeros(2)},
                       columns([{**row, "t": 0.5}])):
            with pytest.raises(ValueError, match="align"):
                Trajectory(((0.0, u),), ledger)
        # an abort before the first kept state: no rows, whatever the column
        empty = Trajectory((), {})
        assert empty.times().tolist() == [] and empty.series("l2").tolist() == []

    def test_series_helper(self):
        traj = evolve(HeatModel(), PeriodicField(np.cos(grid_x(32))), 0.1,
                      StepperConfig(dt=0.02))
        assert len(traj.series("l2")) == len(traj.snapshots)
        assert traj.times()[0] == 0.0 and traj.times()[-1] == pytest.approx(0.1)
        # a column read is the trajectory's own column, so it is read-only
        with pytest.raises(ValueError, match="read-only"):
            traj.series("l2")[0] = 0.0


class TestLedger:
    def test_rows_recomputable_bit_identical(self):
        spec = LedgerSpec(stride=2, derivative_sup=(2, 3),
                          holder_targets=((1, 0.5),))
        traj = evolve(HeatModel(), triangle(128, 0.4), 0.1,
                      StepperConfig(dt=0.01), spec)
        assert_same_ledger(traj.ledger, columns(
            [ledger_entry(t, field, spec) for t, field in traj.snapshots]))

    def test_spec_targets_sorted_unique_python_scalars(self):
        spec = LedgerSpec(derivative_sup=(np.int64(3), 1, 3),
                          holder_targets=((np.int64(1), np.float64(0.5)),
                                          (0, 0.25), (1, 0.5)))
        assert spec.derivative_sup == (1, 3)
        assert spec.holder_targets == ((0, 0.25), (1, 0.5))
        assert all(type(m) is int for m in spec.derivative_sup)
        assert all(type(k) is int and type(kappa) is float
                   for k, kappa in spec.holder_targets)

    def test_close_kappas_get_separate_exact_columns(self):
        spec = LedgerSpec(holder_targets=((0, 0.5), (0, 0.5000001)))
        row = ledger_entry(0.0, triangle(128, 0.4), spec)
        assert [c for c in row if c.startswith("holder_")] == [
            "holder_0_0.5", "holder_0_0.5000001"]
        assert row["holder_0_0.5"] != row["holder_0_0.5000001"]
        assert holder_column(1, np.float64(0.5)) == "holder_1_0.5"

    def test_stride_keeps_endpoints(self):
        traj = evolve(HeatModel(), PeriodicField(np.cos(grid_x(32))), 0.1,
                      StepperConfig(dt=0.01), LedgerSpec(stride=3))
        times = traj.times()
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.1)
        # interior records at multiples of 3 steps
        assert np.allclose(times[1:-1], [0.03, 0.06, 0.09])

    def test_contour_ledger_has_theta_and_means(self):
        traj = evolve(Peskin2dModel(), ellipse(64), 0.05,
                      StepperConfig(dt=0.01), LedgerSpec(stride=5))
        assert list(traj.ledger) == ["t", "l2", "linf", "mean_0", "mean_1", "theta"]


def holder_by_shift_loop(field, k, kappa):
    """max over the dyadic shifts j h <= L/4 of ||d - d(. - j h)||_inf /
    (j h)^kappa for the k-th spectral derivative d, one np.roll per shift."""
    d = derivatives(field, (k,))[0] if k else field.samples
    value, j = 0.0, 1
    while j <= field.n // 4:
        sup = float(np.max(np.abs(d - np.roll(d, j))))
        value = max(value, sup / (j * field.spacing) ** kappa)
        j *= 2
    return value


def ledger_row_by_columns(t, field, spec):
    """A scalar ledger row built column by column from the public grid
    functions, each derivative with its own FFT and each Holder column from
    the shift loop, as ledger_entry built it before its columns shared one
    spectrum."""
    l2, linf, mean = (float(v[0]) for v in norm_rows(field.spacing, field.samples[None]))
    row = {"t": float(t), "l2": l2, "linf": linf, "mean": mean,
           "osc_linf": float(np.max(np.abs(field.samples - mean)))}
    for m in spec.derivative_sup:
        d = derivatives(field, (int(m),))[0]
        row[f"d{int(m)}_linf"] = float(np.max(np.abs(d)))
    for k, kappa in spec.holder_targets:
        row[holder_column(k, kappa)] = \
            holder_by_shift_loop(field, int(k), float(kappa))
    return row


REUSE_CASES = {
    "heat": (HeatModel(), triangle(256, 0.47), 1e-4),
    "mcf_graph": (McfGraphModel(), triangle(256, 0.47), 1e-4),
    "thinfilm_exp": (ThinfilmExpModel(),
                     PeriodicField(2e-3 * np.cos(grid_x(256))), 1e-5),
    "surface_diffusion_axi": (SurfaceDiffusionModel(hbar0=2.0),
                              PeriodicField(2.0 + 0.01 * np.cos(grid_x(256))),
                              1e-3),
    # the rhs + L u models build their state field from the stage's row 0
    "varcoef_heat": (VarCoefHeatModel(), triangle(256, 0.47), 1e-4),
    "muskat_st": (MuskatStModel(), smooth(64), 1e-4),
    "peskin2d": (Peskin2dModel(), ellipse(64), 1e-4),
    "nonlocal_mcf": (NonlocalMcfModel(a=0.5), smooth(64), 1e-4),
}


class TestReuseAgainstFreshBuilds:
    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_prebuilt_weights_give_the_same_steps(self, tag, scheme, monkeypatch):
        model, u0, dt = REUSE_CASES[tag]
        key = (model, u0.n, u0.domain_length, dt, scheme)
        weights = _etd_weights(*key)
        assert _etd_weights(*key) is weights
        assert not any(w.flags.writeable for w in weights if w is not None)

        def three_steps():
            u, out = u0, []
            for _ in range(3):
                u = imex_frozen_phi_step(u, model, dt, scheme=scheme)[0]
                out.append(u.samples)
            return out

        shared = three_steps()  # one cached triple serves every step
        monkeypatch.setattr(stepper, "_etd_weights", _etd_weights.__wrapped__)
        for a, b in zip(shared, three_steps()):  # weights rebuilt per step
            assert np.array_equal(a, b)

    def test_shared_spectrum_row_equals_per_column_row(self):
        spec = LedgerSpec(derivative_sup=(0, 1, 2, 3),
                          holder_targets=((0, 0.5), (1, 0.5), (2, 0.99)))
        rng = np.random.default_rng(3)
        traj = evolve(McfGraphModel(), triangle(256, 0.47), 1e-3,
                      StepperConfig(dt=1e-4), LedgerSpec(stride=5))
        fields = [triangle(256, 0.47), triangle(64, 3.0),
                  PeriodicField(rng.standard_normal(128), domain_length=3.0),
                  *(w for _, w in traj.snapshots)]
        for field in fields:
            assert ledger_entry(0.5, field, spec) == \
                ledger_row_by_columns(0.5, field, spec)

    @pytest.mark.parametrize("spec", [LedgerSpec(derivative_sup=(2,)),
                                      LedgerSpec(holder_targets=((2, 0.5),))])
    def test_overflowing_row_raises_non_finite(self, spec):
        with pytest.raises(NonFiniteError):
            ledger_entry(0.0, triangle(256, 1e305), spec)

    def test_infinite_holder_quotient_raises_non_finite(self):
        # the shift difference 1.4e308 is finite, its quotient by
        # h^0.5 = 0.04 is not
        field = PeriodicField(np.tile([7e307, -7e307], 32), domain_length=0.1)
        with pytest.raises(NonFiniteError):
            ledger_entry(0.0, field, LedgerSpec(holder_targets=((0, 0.5),)))

    def test_near_limit_row_is_finite_and_exact(self):
        row = ledger_entry(0.0, PeriodicField(np.repeat([5e307, -5e307], 32)),
                           LedgerSpec())
        assert row["mean"] == 0.0
        assert row["osc_linf"] == 5e307

    def test_row_beyond_float_range_raises_non_finite(self):
        # l2 = 1.5e308 sqrt(2 pi) is not a float, whatever the rescale
        with pytest.raises(NonFiniteError):
            ledger_entry(0.0, PeriodicField(np.repeat([1.5e308, -1.5e308], 32)),
                         LedgerSpec())
        # finite norms on a short period, but |u - mean| = 2.95e308 is not
        samples = np.r_[-1.5e308, np.full(63, 1.5e308)]
        field = PeriodicField(samples, domain_length=0.1)
        assert np.isfinite(norm_rows(field.spacing, samples[None])[0]).all()
        with pytest.raises(NonFiniteError):
            ledger_entry(0.0, field, LedgerSpec())

    @pytest.mark.parametrize("spec", [LedgerSpec(derivative_sup=(1,)),
                                      LedgerSpec(holder_targets=((1, 0.5),))])
    def test_contour_rejects_derivative_and_holder_columns(self, spec):
        theta = 2.0 * np.pi * np.arange(64) / 64
        X = PeriodicField(np.stack([np.cos(theta), np.sin(theta)]))
        with pytest.raises(ValueError):
            ledger_entry(0.0, X, spec)


class TestImexStep:
    def test_heat_single_step_exact(self):
        n = 64
        u = PeriodicField(np.cos(grid_x(n)) + 0.2 * np.sin(3 * grid_x(n)))
        dt = 0.3
        k = np.fft.fftfreq(n, d=1.0 / n)
        want = np.fft.ifft(np.exp(-k**2 * dt) * np.fft.fft(u.samples)).real
        for scheme in ("imex_frozen_phi", "etd_rk2"):
            got = imex_frozen_phi_step(u, HeatModel(), dt, scheme=scheme)[0]
            assert np.max(np.abs(got.samples - want)) < 1e-14

    @pytest.mark.parametrize("s", [1.0, 2.0, 3.0, 4.0])
    def test_linear_exactness_across_orders(self, s):
        n = 64
        u0 = PeriodicField(np.cos(grid_x(n)) - 0.5 * np.sin(2 * grid_x(n)))
        T = 0.7
        traj = evolve(FractionalHeatModel(s), u0, T, StepperConfig(dt=0.07))
        k = np.fft.fftfreq(n, d=1.0 / n)
        want = np.fft.ifft(np.exp(-np.abs(k)**s * T) * np.fft.fft(u0.samples)).real
        assert np.max(np.abs(traj.final().samples - want)) < 1e-12


def physical_remainder(model, u):
    """Remainder samples formed in physical space: zero for heat, the
    dedicated forms of mcf_graph, thinfilm_exp and surface_diffusion_axi
    (its flux chain dealiasing and differentiating as separate transforms),
    rhs(u) + L u for the rest."""
    if model.tag == "heat":
        return np.zeros_like(u.samples)
    if model.tag == "mcf_graph":
        fx, fxx = derivatives(u, (1, 2))
        return (1.0 / (1.0 + fx * fx) - 1.0) * fxx
    if model.tag == "thinfilm_exp":
        v = derivatives(u, (2,))[0]
        return derivatives(u.with_samples(np.expm1(-v) + v), (2,))[0]
    if model.tag == "surface_diffusion_axi":
        h = u.samples
        hx, hxx = derivatives(u, (1, 2))
        br = np.sqrt(1.0 + hx * hx)
        curv = apply_multiplier(u.with_samples(1.0 / (h * br) - hxx / br**3),
                                _dealias_mask(u.n))
        curv_x = derivatives(curv, (1,))[0]
        flux = apply_multiplier(u.with_samples((h / br) * curv_x), _dealias_mask(u.n))
        rhs = derivatives(flux, (1,))[0] / h
    else:
        rhs = model.rhs(u).samples
    k = wavenumbers(u.n, u.domain_length)
    return rhs + apply_multiplier(u, model.linear_multiplier(k)).samples


def etd_step_by_physical_remainder(u, model, dt, scheme):
    """The ETD step that transforms a physical remainder at u and at the
    stage value: the reference the spectral step must reproduce."""
    E, w1, w2 = _etd_weights(model, u.n, u.domain_length, dt, scheme)
    r1 = np.fft.rfft(physical_remainder(model, u), axis=-1)
    ah = E * np.fft.rfft(u.samples, axis=-1) + w1 * r1
    a = u.with_samples(np.fft.irfft(ah, u.n, axis=-1))
    if w2 is None:
        return a
    r2 = np.fft.rfft(physical_remainder(model, a), axis=-1)
    return u.with_samples(np.fft.irfft(ah + w2 * (r2 - r1), u.n, axis=-1))


def full_spectrum_step(u, model, dt, scheme):
    """imex_frozen_phi_step as it ran on full complex spectra before the
    stepper kept half spectra: fft/ifft over fftfreq wavenumbers (Nyquist at
    -N/2), weights built per call, and the remainder spectrum
    fft(rhs(u) + ifft(m fft(u)).real), none for heat. The oracle of the
    switch to rfft/irfft."""
    k = np.fft.fftfreq(u.n, d=1.0 / u.n) * (2 * np.pi / u.domain_length)
    m = model.linear_multiplier(k)
    z = -dt * m
    E, w1 = np.exp(z), dt * _phi1(z)
    w2 = dt * _phi2(z) if scheme == "etd_rk2" else None

    def remainder_hat(w, wh):
        if model.tag == "heat":
            return None
        lin = np.fft.ifft(wh * m, axis=-1).real
        return np.fft.fft(model.rhs(w).samples + lin, axis=-1)

    uh = np.fft.fft(u.samples, axis=-1)
    r1 = remainder_hat(u, uh)
    ah = E * uh if r1 is None else E * uh + w1 * r1
    a = u.with_samples(np.fft.ifft(ah, axis=-1).real)
    if w2 is None or r1 is None:
        return a
    r2 = remainder_hat(a, np.fft.fft(a.samples, axis=-1))
    return u.with_samples(np.fft.ifft(ah + w2 * (r2 - r1), axis=-1).real)


class TestSpectralRemainderStep:
    """The step reads each model's remainder_hat; it must match the
    physical-remainder step bit for bit where the spectrum is formed the
    same way, and to round-off where a dedicated form skips a transform."""

    @staticmethod
    def state(model, n):
        x = grid_x(n)
        if model.is_contour:
            return ellipse(n)
        if model.tag == "surface_diffusion_axi":
            return PeriodicField(2.0 + 0.3 * np.cos(x) + 0.05 * np.sin(3 * x))
        return smooth(n)

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("model", [
        HeatModel(), VarCoefHeatModel(), McfGraphModel(), MuskatStModel(),
        NonlocalMcfModel(a=0.5), Peskin2dModel()], ids=lambda m: m.tag)
    def test_bit_identical(self, model, n, scheme):
        # at dt = 0.1 the remainder carries enough of the step that one
        # extra transform pair on it changes bits for every model here.
        # The exponential-Euler step is the ETD-RK2 stage value, so it pins
        # the stage bit for bit; the ETD-RK2 step then hands the model the
        # stage spectrum, where the reference transforms the stage value
        # again, so with a remainder it skips a transform: round-off
        u = self.state(model, n)
        for dt in (1e-4, 0.1):
            got = imex_frozen_phi_step(u, model, dt, scheme)[0].samples
            want = etd_step_by_physical_remainder(u, model, dt, scheme).samples
            if scheme == "imex_frozen_phi" or model.tag == "heat":
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("model", [
        HeatModel(), VarCoefHeatModel(), McfGraphModel(), MuskatStModel(),
        NonlocalMcfModel(a=0.5), Peskin2dModel(), ThinfilmExpModel(),
        SurfaceDiffusionModel(hbar0=2.0)], ids=lambda m: m.tag)
    def test_round_off_to_full_spectrum_step(self, model, n):
        u = self.state(model, n)
        for scheme in ("imex_frozen_phi", "etd_rk2"):
            for dt in (1e-4, 0.1):
                got = imex_frozen_phi_step(u, model, dt, scheme)[0].samples
                want = full_spectrum_step(u, model, dt, scheme).samples
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("model", [
        ThinfilmExpModel(), SurfaceDiffusionModel(hbar0=2.0)], ids=lambda m: m.tag)
    def test_round_off(self, model, n, scheme):
        u = self.state(model, n)
        for dt in (1e-4, 0.1):
            got = imex_frozen_phi_step(u, model, dt, scheme)[0].samples
            want = etd_step_by_physical_remainder(u, model, dt, scheme).samples
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


ALL_MODELS = [HeatModel(), VarCoefHeatModel(), McfGraphModel(), MuskatStModel(),
              NonlocalMcfModel(a=0.5), Peskin2dModel(), ThinfilmExpModel(),
              SurfaceDiffusionModel(hbar0=2.0)]


class TestCarriedSpectrum:
    """An ETD march hands each step the half spectrum the previous step
    formed its state from, and every step ends where the public step
    would."""

    @pytest.mark.parametrize("tag, per_step", [
        ("heat", [1, 1, 1, 1, 1]), ("mcf_graph", [3, 4, 4, 4, 4]),
        ("thinfilm_exp", [3, 4, 4, 4, 4]),
        ("surface_diffusion_axi", [7, 12, 12, 12, 12]),
        ("varcoef_heat", [6, 10, 10, 10, 10]),
        ("muskat_st", [14, 26, 26, 26, 26]),
        ("peskin2d", [8, 14, 14, 14, 14]),
        ("nonlocal_mcf", [8, 14, 14, 14, 14])],
        ids=["heat", "mcf_graph", "thinfilm_exp", "surface_diffusion_axi",
             "varcoef_heat", "muskat_st", "peskin2d", "nonlocal_mcf"])
    def test_transforms_per_accepted_step(self, tag, per_step, monkeypatch):
        # the ledger has no derivative or Holder column; the first step
        # takes the spectrum of u0 and the remainder there from the dt
        # guard, so it transforms nothing forward and evaluates no remainder
        # at u0, and later steps carry over the last stage's rows
        model, u0, dt = REUSE_CASES[tag]
        calls, per_call = [0], []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return wrapper

        # every transform in the package goes through grid's gufunc handle
        gufuncs = {name: counted(getattr(grid._pocketfft, name))
                   for name in ("rfft_n_even", "rfft_n_odd", "irfft")}
        monkeypatch.setattr(grid, "_pocketfft", SimpleNamespace(**gufuncs))
        step = stepper.imex_frozen_phi_step

        def counted_step(*args):
            before = calls[0]
            out = step(*args)
            per_call.append(calls[0] - before)
            return out

        monkeypatch.setattr(stepper, "imex_frozen_phi_step", counted_step)
        evolve(model, u0, 5 * dt, StepperConfig(dt=dt), LedgerSpec())
        assert per_call == per_step

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.tag)
    def test_one_step_march_ends_at_the_public_step(self, model, scheme):
        # thinfilm_exp takes the small amplitude its dt guard accepts
        _, u0, dt = REUSE_CASES.get(
            model.tag, (model, TestSpectralRemainderStep.state(model, 64), 1e-4))
        traj = evolve(model, u0, dt, StepperConfig(dt=dt, scheme=scheme))
        want = imex_frozen_phi_step(u0, model, dt, scheme)[0]
        assert np.array_equal(traj.final().samples, want.samples)

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_march_stays_at_round_off_of_a_public_step_loop(self, tag, scheme):
        model, u0, dt = REUSE_CASES[tag]
        traj = evolve(model, u0, 200 * dt, StepperConfig(dt=dt, scheme=scheme),
                      LedgerSpec(stride=10**9))
        u = u0
        for _ in range(200):  # each step transforms its state forward
            u = imex_frozen_phi_step(u, model, dt, scheme)[0]
        got, want = traj.final().samples, u.samples
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class InfiniteRemainderModel(McfGraphModel):
    """mcf_graph whose remainder call number inf_at gives an infinite
    spectrum: the guard makes calls 1 and 2, and call 1, at u0, is the
    first of step 1 too, so step 1 makes one more and each later ETD-RK2
    step two."""

    def __init__(self, inf_at):
        self.inf_at = inf_at
        self.calls = 0

    def remainder_from_rows(self, rows, uh, L):
        self.calls += 1
        if self.calls == self.inf_at:
            return np.full_like(uh, np.inf)
        return super().remainder_from_rows(rows, uh, L)


class DrainedSurfaceModel(SurfaceDiffusionModel):
    """surface diffusion whose fourth remainder call, the first of step 2
    (the guard's two calls and step 1's stage come before it), drains twice
    the mean radius: step 2's stage has the mean radius negated, so it
    touches zero while u0 and every earlier state are positive."""

    def __init__(self, dt):
        super().__init__(hbar0=2.0)
        self.dt = dt
        self.calls = 0

    def remainder_from_rows(self, rows, uh, L):
        self.calls += 1
        r = super().remainder_from_rows(rows, uh, L)
        if self.calls == 4:
            r = r.copy()
            r[0] -= 2.0 * uh[0].real / self.dt  # dt phi1(0) = dt at mode 0
        return r


def retired_generic_step(u, model, dt, scheme, uh):
    """The ETD step of heat and the rhs + L u models as it ran before every
    model read its remainder from the stage rows: the remainder spectrum is
    rfft(rhs(w) + irfft(m wh)) at a field, None for heat, and the stage is
    a field of its own irfft. Returns (state, spectrum), as a march carried
    them."""
    n, L = u.n, u.domain_length
    E, w1, w2 = _etd_weights(model, n, L, dt, scheme)

    def remainder_hat(w, wh):
        if model.tag == "heat":
            return None
        lin = np.fft.irfft(wh * multiplier_table(model, n, L), n, axis=-1)
        return np.fft.rfft(model.rhs(w).samples + lin, axis=-1)

    if uh is None:
        uh = np.fft.rfft(u.samples, axis=-1)
    r1 = remainder_hat(u, uh)
    ah = E * uh if r1 is None else E * uh + w1 * r1
    a = u.with_samples(np.fft.irfft(ah, n, axis=-1))
    if w2 is None or r1 is None:
        return a, ah
    fh = ah + w2 * (remainder_hat(a, ah) - r1)
    return u.with_samples(np.fft.irfft(fh, n, axis=-1)), fh


class TestCarriedRows:
    """Every ETD march forms each stage and the rows its model's remainder
    reads in one irfft, row 0 the stage state, and carries the last
    stage's rows to the next step; only the end state of a step is a
    field. A model without a dedicated remainder builds its state field
    from row 0."""

    def test_no_model_overrides_the_field_adapter(self):
        # remainder_hat only builds a field's rows; the physics is in
        # remainder_from_rows, the one hook the step reads
        assert not [tag for tag, cls in MODELS.items() if "remainder_hat" in vars(cls)]

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", ["heat", "varcoef_heat", "muskat_st",
                                     "peskin2d", "nonlocal_mcf"])
    def test_generic_march_is_the_retired_step_loop(self, tag, scheme):
        model, u0, dt = REUSE_CASES[tag]
        traj = evolve(model, u0, 20 * dt, StepperConfig(dt=dt, scheme=scheme))
        u, uh, want = u0, None, [u0.samples.tobytes()]
        for _ in range(20):
            u, uh = retired_generic_step(u, model, dt, scheme, uh)
            want.append(u.samples.tobytes())
        assert [w.samples.tobytes() for _, w in traj.snapshots] == want

    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_kept_snapshots_own_their_samples(self, tag):
        # a state built on a view of its (1 + k, N) row block would keep
        # the whole block alive as long as the snapshot
        model, u0, dt = REUSE_CASES[tag]
        traj = evolve(model, u0, 20 * dt, StepperConfig(dt=dt), LedgerSpec())
        assert len(traj.snapshots) == 21
        for _, w in traj.snapshots:
            base = w.samples.base
            assert base is None or base.size == u0.n

    @pytest.mark.parametrize("inf_at, steps", [(3, 1), (4, 2), (5, 2)])
    def test_non_finite_stage_aborts_at_its_step(self, inf_at, steps):
        # call 3 makes step 1's end state non-finite, call 4, which reads
        # the carried rows, step 2's stage and call 5 step 2's end state
        _, u0, dt = REUSE_CASES["mcf_graph"]
        model = InfiniteRemainderModel(inf_at)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EvolutionAbort) as err:
                evolve(model, u0, 5 * dt, StepperConfig(dt=dt), LedgerSpec())
        assert not isinstance(err.value, StepSizeRefused)
        assert err.value.reason == "non-finite values in the state"
        assert isinstance(err.value.__cause__, NonFiniteError)
        assert err.value.time == steps * dt
        assert model.calls == inf_at
        assert err.value.trajectory.times().tolist() == [j * dt for j in range(steps)]

    def test_field_rows_start_with_the_field_itself(self):
        # at a field (the guard, the first step) surface diffusion reads h
        # from the samples, not from irfft(rfft(h)), which differs from h
        # in its last bits: its remainder is rfft(rhs) + m uh bit for bit
        model = SurfaceDiffusionModel(hbar0=2.0)
        u = PeriodicField(2.0 + 0.3 * np.cos(grid_x(256))
                          + 0.01 * np.random.default_rng(5).standard_normal(256))
        uh = np.fft.rfft(u.samples)
        assert not np.array_equal(np.fft.irfft(uh, u.n), u.samples)
        m = model.linear_multiplier(wavenumbers(u.n, u.domain_length))
        want = np.fft.rfft(model.rhs(u).samples) + m * uh
        assert np.array_equal(model.remainder_hat(u, uh), want)

    def test_surface_diffusion_stage_at_zero_raises_positivity(self):
        _, u0, dt = REUSE_CASES["surface_diffusion_axi"]
        with pytest.raises(EvolutionAbort) as err:
            evolve(DrainedSurfaceModel(dt), u0, 5 * dt, StepperConfig(dt=dt))
        assert isinstance(err.value.__cause__, PositivityError)
        assert err.value.reason == str(err.value.__cause__)
        assert err.value.reason == "state minimum -2.010e+00 is not positive"
        assert err.value.time == 2 * dt
        model = DrainedSurfaceModel(dt)
        model.calls = 3  # the public step's first call is the drained one
        with pytest.raises(PositivityError):
            imex_frozen_phi_step(u0, model, dt)


class TestGuardRemainderReused:
    """evolve takes rfft(u0) and the remainder at u0 once, for its dt guard
    and its first step alike."""

    @pytest.mark.parametrize("scheme, per_step", [("imex_frozen_phi", 1), ("etd_rk2", 2)])
    @pytest.mark.parametrize("tag", [tag for tag in REUSE_CASES if tag != "heat"])
    def test_march_makes_one_remainder_call_fewer(self, tag, scheme, per_step):
        # the guard evaluates the remainder at u0 and at its probe and each
        # step per_step times; the first step's call at u0 was a repeat of
        # the guard's first, and is the one saved
        model, u0, dt = REUSE_CASES[tag]
        model, calls = copy.copy(model), [0]
        remainder = model.remainder_from_rows

        def counted(*args):
            calls[0] += 1
            return remainder(*args)

        model.remainder_from_rows = counted
        evolve(model, u0, 5 * dt, StepperConfig(dt=dt, scheme=scheme), LedgerSpec())
        assert calls[0] == (2 + 5 * per_step) - 1

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_first_step_given_the_guard_remainder_is_the_same_bytes(self, tag, scheme):
        model, u0, dt = REUSE_CASES[tag]
        uh0 = np.fft.rfft(u0.samples, axis=-1)
        r0 = model.remainder_hat(u0, uh0)
        kept = (uh0.copy(), None if r0 is None else r0.copy())
        given = imex_frozen_phi_step(u0, model, dt, scheme, uh0, None, None, r0)
        computed = imex_frozen_phi_step(u0, model, dt, scheme)
        assert [a.tobytes() for a in (given[0].samples, *given[1:])] == \
            [a.tobytes() for a in (computed[0].samples, *computed[1:])]
        # the step read the spectrum and the remainder it was handed
        assert uh0.tobytes() == kept[0].tobytes()
        assert r0 is None or r0.tobytes() == kept[1].tobytes()


def allocating_step(u, model, dt, scheme, uh, rows):
    """imex_frozen_phi_step as it ran before the march wrote its stages,
    rows and temporaries into work arrays: every product, sum and row
    block is a fresh array. Returns (state, spectrum, rows), as the step
    does."""
    n, L, orders = u.n, u.domain_length, (0, *model.remainder_orders)
    E, w1, w2 = _etd_weights(model, n, L, dt, scheme)
    if uh is None:
        uh = np.fft.rfft(u.samples, axis=-1)
    r1 = (model.remainder_hat(u, uh) if rows is None
          else model.remainder_from_rows(rows, uh, L))
    ah = E * uh if r1 is None else E * uh + w1 * r1
    if w2 is not None and r1 is not None:
        rows = spectral_rows(ah, n, L, orders)
        if not np.isfinite(rows[0]).all():
            raise NonFiniteError("samples contain NaN/Inf")
        ah = ah + w2 * (model.remainder_from_rows(rows, ah, L) - r1)
    rows = spectral_rows(ah, n, L, orders)
    return u.with_samples(rows[0].copy()), ah, rows


def read_only(arr):
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


class ReadOnlyMcfGraphModel(McfGraphModel):
    """mcf_graph whose remainder spectrum is read-only: a step that writes
    into what a remainder returned raises."""

    def remainder_from_rows(self, rows, uh, L):
        return read_only(super().remainder_from_rows(rows, uh, L))


class ReadOnlyVarCoefHeatModel(VarCoefHeatModel):
    """varcoef_heat, on the generic rhs + L u remainder, made read-only."""

    def remainder_from_rows(self, rows, uh, L):
        return read_only(super().remainder_from_rows(rows, uh, L))


def shares_any(arrays, others):
    return any(np.shares_memory(a, b) for a in arrays for b in others)


class TestStepWork:
    """An ETD march writes each step's stages, rows and temporaries into
    work arrays it allocates once. The step never writes into an array a
    caller passed or a remainder returned, the end state owns a copy of
    its row, a public call without work returns fresh arrays, and no
    buffer lives on a model or at module level; every bit is that of the
    allocating step."""

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_march_is_the_allocating_step_loop(self, tag, scheme):
        model, u0, dt = REUSE_CASES[tag]
        traj = evolve(model, u0, 20 * dt, StepperConfig(dt=dt, scheme=scheme))
        u, uh, rows, want = u0, None, None, [u0.samples.tobytes()]
        for _ in range(20):
            u, uh, rows = allocating_step(u, model, dt, scheme, uh, rows)
            want.append(u.samples.tobytes())
        assert [w.samples.tobytes() for _, w in traj.snapshots] == want

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_march_is_a_chain_of_public_steps(self, tag, scheme):
        model, u0, dt = REUSE_CASES[tag]
        spec = (LedgerSpec() if model.is_contour else
                LedgerSpec(derivative_sup=(1, 2), holder_targets=((0, 0.5),)))
        traj = evolve(model, u0, 20 * dt, StepperConfig(dt=dt, scheme=scheme), spec)
        snaps, u, uh, rows = [(0.0, u0)], u0, None, None
        for j in range(1, 21):  # each call allocates its own arrays
            u, uh, rows = imex_frozen_phi_step(u, model, dt, scheme, uh, rows)
            snaps.append((j * dt, u))
        want, error = ledger_rows(snaps, spec)
        assert error is None
        if getattr(model, "theta_cap", None) is not None:
            want["theta"] = np.array([stretch_ratio(w) for _, w in snaps])
        assert np.array_equal(traj.final().samples, u.samples)
        assert_same_ledger(traj.ledger, want)

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_steps_write_only_their_own_arrays(self, tag, scheme):
        model, u0, dt = REUSE_CASES[tag]
        # a read-only spectrum and rows: writing into them raises
        u, uh, rows = imex_frozen_phi_step(u0, model, dt, scheme)
        uh, rows = read_only(uh), read_only(rows)
        fresh = [imex_frozen_phi_step(u, model, dt, scheme, uh, rows) for _ in range(2)]
        work = StepWork(model, u0, dt, scheme)
        worked = imex_frozen_phi_step(u, model, dt, scheme, uh, rows, work)
        for out in (*fresh, worked):
            assert np.array_equal(out[0].samples, fresh[0][0].samples)
            assert not shares_any(out, (uh, rows))
        # without work each call returns arrays of its own
        assert not shares_any(fresh[0], fresh[1])
        # a march hands each step what the last one returned on its work
        state = worked
        for _ in range(4):
            out = imex_frozen_phi_step(*state[:1], model, dt, scheme, *state[1:], work)
            assert not shares_any(out[1:], state[1:])
            assert not shares_any([out[0].samples], (*out[1:], *state[1:]))
            state = out

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("model, tag", [
        (ReadOnlyMcfGraphModel(), "mcf_graph"),
        (ReadOnlyVarCoefHeatModel(), "varcoef_heat")], ids=["dedicated", "generic"])
    def test_read_only_remainder_marches(self, model, tag, scheme):
        plain, u0, dt = REUSE_CASES[tag]
        got = evolve(model, u0, 20 * dt, StepperConfig(dt=dt, scheme=scheme))
        want = evolve(plain, u0, 20 * dt, StepperConfig(dt=dt, scheme=scheme))
        assert [w.samples.tobytes() for _, w in got.snapshots] == \
            [w.samples.tobytes() for _, w in want.snapshots]

    def test_mixed_ends_are_refused(self):
        model, u0, dt = REUSE_CASES["mcf_graph"]
        work = StepWork(model, u0, dt, "etd_rk2")
        u1, uh1, rows1 = imex_frozen_phi_step(u0, model, dt, "etd_rk2", None, None, work)
        u2, uh2, rows2 = imex_frozen_phi_step(u1, model, dt, "etd_rk2", uh1, rows1, work)
        with pytest.raises(ValueError, match="one step on this work"):
            imex_frozen_phi_step(u2, model, dt, "etd_rk2", uh2, rows1, work)

    @pytest.mark.parametrize("asked, match", [
        (dict(dt=1e-3, scheme="etd_rk2"), "dt 1e-05, not 0.001"),
        (dict(scheme="etd_rk2"), "scheme 'imex_frozen_phi', not 'etd_rk2'"),
        (dict(model=ThinfilmExpModel()), "another model"),
        (dict(model=McfGraphModel()), "another model"),
        (dict(n=512), r"samples shape \(256,\), not \(512,\)"),
        (dict(length=3.7), "L 6.28"),
    ], ids=["dt-and-scheme", "scheme", "other-model", "other-instance", "other-n",
            "other-length"])
    def test_work_for_other_settings_is_refused(self, asked, match):
        # a work's weights and arrays fit only what it was built for; used
        # for another dt it would return that dt's step without an error
        def state(n=256, length=2 * np.pi):
            return PeriodicField(0.3 * np.cos(np.arange(n) * (2 * np.pi / n)), length)

        built = dict(model=McfGraphModel(), dt=1e-5, scheme="imex_frozen_phi")
        work = StepWork(built["model"], state(), built["dt"], built["scheme"])
        asked = {**built, **asked}
        with pytest.raises(ValueError, match=match):
            imex_frozen_phi_step(state(asked.get("n", 256), asked.get("length", 2 * np.pi)),
                                 asked["model"], asked["dt"], asked["scheme"], None, None, work)

    @pytest.mark.parametrize("scheme", ["imex_frozen_phi", "etd_rk2"])
    @pytest.mark.parametrize("tag", list(REUSE_CASES))
    def test_model_and_its_tables_die_after_a_march(self, tag, scheme):
        # the weights and the symbol table are cached per model only for
        # as long as the model lives
        model = copy.copy(REUSE_CASES[tag][0])
        _, u0, dt = REUSE_CASES[tag]
        attrs = dict(vars(model))
        evolve(model, u0, 3 * dt, StepperConfig(dt=dt, scheme=scheme))
        assert vars(model).keys() == attrs.keys()  # no buffer on the model
        assert not [name for module in (stepper, models) for name, value
                    in vars(module).items() if isinstance(value, (np.ndarray, StepWork))]
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None


class TestTrustedStates:
    """A march builds the states its step computes with grid._trusted_field,
    which checks nothing, once the step's one finite check of the row,
    stepper._all_finite, has passed: both must give what the checked
    construction and np.isfinite give."""

    @given(seed=st.integers(0, 2**32 - 1), log2n=st.integers(4, 10),
           components=st.sampled_from([1, 2]), length=st.floats(1e-3, 1e3),
           poison=st.sampled_from(["none", "overflow", "nan", "inf", "-inf"]),
           spots=st.lists(st.integers(0, 2**11 - 1), min_size=1, max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_trusted_field_and_finite_check_are_the_checked_ones(
            self, seed, log2n, components, length, poison, spots):
        rng = np.random.default_rng(seed)
        n = 2**log2n
        x = rng.standard_normal((n,) if components == 1 else (2, n))
        if poison == "overflow":
            # finite entries whose sum and sum of squares overflow
            x = np.sign(x[..., :1]) * np.full_like(x, 1.5e308)
        elif poison != "none":
            x.flat[[i % x.size for i in spots]] = float(poison)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            finite = stepper._all_finite(x)
        assert finite is bool(np.isfinite(x).all())
        if finite:
            trusted, checked = grid._trusted_field(x, length), PeriodicField(x, length)
            assert trusted.samples.tobytes() == checked.samples.tobytes()
            assert (trusted.domain_length, trusted.n, trusted.components) == \
                (checked.domain_length, checked.n, checked.components)


def pointwise_step_by_dense_sum(u, model, dt):
    """The frozen pointwise step as a dense sum over the half spectrum: the
    value at x_i is sum_k w_k exp(-dt a(x_i) m(k)) u_hat_k exp(i k x_i) / n
    with pair weights w = 1, 2, ..., 2, 1 (the symbol is even, so an
    interior mode stands for n and -n), and the explicit part
    rhs(u) + a(x) m(k) u built on its own, through a field."""
    a = np.asarray(model.coefficient_profile(u), dtype=float)
    k = wavenumbers(u.n, u.domain_length)
    m = model.linear_multiplier(k)
    E = np.exp(-dt * np.outer(a, m))
    phase = np.exp(1j * np.outer(u.nodes(), k))
    pairs = np.where((k == 0) | (k == k[-1]), 1.0, 2.0)
    prop = ((E * phase) @ (pairs * np.fft.rfft(u.samples))).real / u.n
    lin = a * apply_multiplier(u, m).samples
    rem = u.with_samples(model.rhs(u).samples + lin)
    return u.with_samples(prop + dt * rem.samples)


class TestFrozenPointwise:
    def test_matches_imex_for_space_independent_symbol(self):
        u = PeriodicField(np.cos(grid_x(128)) + 0.1 * np.sin(5 * grid_x(128)))
        a = imex_frozen_phi_step(u, HeatModel(), 1e-3, scheme="imex_frozen_phi")[0]
        b = frozen_pointwise_step(u, HeatModel(), 1e-3)
        assert np.max(np.abs(a.samples - b.samples)) < 1e-10

    def test_varcoef_self_convergence_first_order(self):
        u0 = PeriodicField(np.cos(grid_x(128)))
        order = richardson_order(VarCoefHeatModel(), u0, 0.02,
                                 "frozen_pointwise", base=10)
        assert order > 0.8

    def test_gap_to_imex_linear_in_dt(self):
        u0 = PeriodicField(np.cos(grid_x(128)) + 0.3 * np.sin(2 * grid_x(128)))
        model = VarCoefHeatModel()
        gaps = []
        for dt in (2e-3, 1e-3):
            a = evolve(model, u0, 0.02, StepperConfig(dt=dt, scheme="frozen_pointwise"),
                       LedgerSpec(stride=10**9))
            b = evolve(model, u0, 0.02, StepperConfig(dt=dt, scheme="imex_frozen_phi"),
                       LedgerSpec(stride=10**9))
            gaps.append(np.max(np.abs(a.final().samples - b.final().samples)))
        assert 1.6 < gaps[0] / gaps[1] < 2.4

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("model", [VarCoefHeatModel(), McfGraphModel(),
                                       HeatModel(), MuskatStModel()],
                             ids=lambda m: m.tag)
    def test_bit_identical_to_separate_remainder(self, model, n):
        # the rows' inverse transforms and the dense sum add the same terms
        # in another order, so they agree to round-off, not bit for bit
        x = grid_x(n)
        u = PeriodicField(0.3 * np.sin(x) + 0.1 * np.cos(3 * x) + 0.02 * np.sin(7 * x))
        for dt in (1e-3, 1e-5):
            got = frozen_pointwise_step(u, model, dt).samples
            want = pointwise_step_by_dense_sum(u, model, dt).samples
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_guard_refuses_a_dt_the_undamped_remainder_cannot_take(self):
        # the step adds dt * rem undamped; the guard's bound ||dv|| / ||dR||
        # is 3.32e-4 here, and dt = 1e-3 would overflow the state by t = 0.02
        u0 = PeriodicField(0.5 * np.cos(grid_x(256)))
        config = StepperConfig(dt=1e-3, scheme="frozen_pointwise")
        with pytest.raises(StepSizeRefused, match="stability bound 3.320e-04") as err:
            evolve(MuskatStModel(), u0, 0.05, config)
        assert err.value.time == 0.0
        assert err.value.trajectory.times().tolist() == [0.0]
        assert _stability_bound(MuskatStModel(), u0, config) == pytest.approx(3.32e-4, rel=1e-3)

    def test_guard_accepts_a_dt_below_half_the_bound(self):
        u0 = PeriodicField(0.5 * np.cos(grid_x(256)))
        traj = evolve(MuskatStModel(), u0, 2e-3,
                      StepperConfig(dt=1e-4, scheme="frozen_pointwise"))
        assert len(traj.snapshots) == 21
        assert np.all(np.isfinite(traj.final().samples))

    def test_guard_bound_is_unlimited_without_a_remainder(self):
        # heat's explicit part is rhs(u) + u_xx-symbol action = 0 exactly
        u0 = triangle(128, 0.4)
        config = StepperConfig(dt=1.0, scheme="frozen_pointwise")
        assert _stability_bound(HeatModel(), u0, config) == np.inf

    @pytest.mark.parametrize("model, u0, match", [
        (NonlocalMcfModel(a=0.5), PeriodicField(np.cos(grid_x(64))), "pointwise"),
        (Peskin2dModel(), ellipse(32), "scalar"),
        (HeatModel(), PeriodicField(np.zeros(2048)), "1024"),
    ], ids=["no_profile", "contour", "above_max_n"])
    def test_evolve_rejects_before_the_guard(self, model, u0, match):
        with pytest.raises(ValueError, match=match) as err:
            evolve(model, u0, 1e-3, StepperConfig(dt=1e-3, scheme="frozen_pointwise"))
        assert not isinstance(err.value, EvolutionAbort)

    def test_rejections(self):
        with pytest.raises(ValueError, match="scalar"):
            frozen_pointwise_step(ellipse(32), Peskin2dModel(), 1e-3)
        with pytest.raises(ValueError, match="1024"):
            frozen_pointwise_step(PeriodicField(np.zeros(2048)), HeatModel(), 1e-3)
        u = PeriodicField(np.cos(grid_x(64)))
        with pytest.raises(ValueError, match="pointwise"):
            frozen_pointwise_step(u, NonlocalMcfModel(a=0.5), 1e-3)


class TestRichardsonOrders:
    def test_mcf_sawtooth_formal_orders(self):
        u0 = triangle(128, 0.05 * np.pi / 2)
        euler = richardson_order(McfGraphModel(), u0, 0.01, "imex_frozen_phi", 80)
        rk2 = richardson_order(McfGraphModel(), u0, 0.01, "etd_rk2", 80)
        assert euler == pytest.approx(1.0, abs=0.25)
        assert rk2 == pytest.approx(2.0, abs=0.2)

    def test_smooth_data_orders_at_least_formal(self):
        x = grid_x(128)
        u0 = PeriodicField(0.4 * np.sin(x) + 0.2 * np.cos(2 * x))
        assert richardson_order(McfGraphModel(), u0, 0.01,
                                "imex_frozen_phi", 40) > 0.8
        assert richardson_order(McfGraphModel(), u0, 0.01, "etd_rk2", 40) > 1.8

    def test_varcoef_imex_first_order(self):
        u0 = PeriodicField(np.cos(grid_x(128)))
        assert richardson_order(VarCoefHeatModel(), u0, 0.02,
                                "imex_frozen_phi", 10) > 0.9


class TestEvolve:
    def test_heat_cosine_exact(self):
        n = 128
        u0 = PeriodicField(np.cos(grid_x(n)))
        traj = evolve(HeatModel(), u0, 1.0, StepperConfig(dt=0.05))
        want = np.exp(-1.0) * np.cos(grid_x(n))
        assert np.max(np.abs(traj.final().samples - want)) < 1e-10

    def test_l2_strictly_decreasing(self):
        traj = evolve(HeatModel(), triangle(128, 0.5), 0.2,
                      StepperConfig(dt=0.01), LedgerSpec(stride=2))
        l2 = traj.series("l2")
        assert np.all(np.diff(l2) < 0)

    def test_determinism(self):
        u0 = triangle(128, 0.3)
        a = evolve(McfGraphModel(), u0, 0.05, StepperConfig(dt=1e-3),
                   LedgerSpec(stride=10, derivative_sup=(2,)))
        b = evolve(McfGraphModel(), u0, 0.05, StepperConfig(dt=1e-3),
                   LedgerSpec(stride=10, derivative_sup=(2,)))
        for (ta, wa), (tb, wb) in zip(a.snapshots, b.snapshots):
            assert ta == tb and np.array_equal(wa.samples, wb.samples)
        assert_same_ledger(a.ledger, b.ledger)

    def test_horizon_must_be_step_multiple(self):
        u0 = PeriodicField(np.cos(grid_x(32)))
        with pytest.raises(ValueError, match="integer"):
            evolve(HeatModel(), u0, 0.105, StepperConfig(dt=0.01))

    def test_dt_guard_rejects_unstable_remainder(self):
        u0 = PeriodicField(np.full(32, 5.0))
        with pytest.raises(ValueError, match="stability"):
            evolve(QuadraticGrowthModel(), u0, 10.0, StepperConfig(dt=1.0))

    def test_refusal_is_typed_with_initial_row(self):
        u0 = PeriodicField(np.full(32, 5.0))
        with pytest.raises(StepSizeRefused) as err:
            evolve(QuadraticGrowthModel(), u0, 10.0, StepperConfig(dt=1.0))
        refusal = err.value
        assert isinstance(refusal, EvolutionAbort)
        assert isinstance(refusal, ValueError)
        assert refusal.time == 0
        assert "stability" in refusal.reason
        assert refusal.trajectory.times().tolist() == [0.0]
        assert len(refusal.trajectory.series("l2")) == 1
        assert refusal.trajectory.final() is u0

    def test_non_finite_guard_probe_aborts_at_start(self):
        # u^2 overflows in the guard's remainder probe, before any step
        u0 = PeriodicField(np.full(32, 1e200))
        with pytest.raises(EvolutionAbort) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                evolve(QuadraticGrowthModel(), u0, 1.0, StepperConfig(dt=0.1))
        assert not isinstance(err.value, StepSizeRefused)
        assert err.value.time == 0.0
        assert "NaN/Inf" in err.value.reason
        assert err.value.trajectory.times().tolist() == [0.0]

    def test_non_finite_ledger_row_aborts_with_rows_so_far(self):
        # the state stays finite; its second derivative overflows at step
        # 19, inside the second block of rows after t = 0, so the march
        # stops there with the rows before it
        spec = LedgerSpec(derivative_sup=(2,))
        model, u0, cfg = ExponentialGrowthModel(), triangle(256, 1e300), StepperConfig(dt=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            rows, stop = per_row_evolve(model, u0, 2.2, cfg, spec)
            with pytest.raises(EvolutionAbort) as err:
                evolve(model, u0, 2.2, cfg, spec)
        assert stop == ("ledger", 19 * 0.1)
        assert len(rows) == 19 and len(rows) % LEDGER_BLOCK
        traj = err.value.trajectory
        assert not isinstance(err.value, StepSizeRefused)
        assert err.value.reason == "non-finite values in a ledger row"
        assert isinstance(err.value.__cause__, NonFiniteError)
        assert err.value.time == stop[1]
        assert_same_ledger(traj.ledger, columns(rows))
        assert traj.times().tolist() == [row["t"] for row in rows]
        assert np.all(np.isfinite(traj.series("d2_linf")))

    def test_infinite_holder_row_aborts_with_rows_so_far(self):
        # the state grows by e^0.5 a step; at step 12 its shift difference
        # 8.1e305, its spectrum and its norms are finite, but the difference
        # over h^0.5 = 0.004 overflows
        spec = LedgerSpec(holder_targets=((0, 0.5),))
        model, cfg = ExponentialGrowthModel(), StepperConfig(dt=0.1)
        u0 = PeriodicField(np.tile([1e303, -1e303], 32), domain_length=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            rows, stop = per_row_evolve(model, u0, 1.5, cfg, spec)
            with pytest.raises(EvolutionAbort) as err:
                evolve(model, u0, 1.5, cfg, spec)
        assert stop == ("ledger", 12 * 0.1)
        assert err.value.reason == "non-finite values in a ledger row"
        assert isinstance(err.value.__cause__, NonFiniteError)
        assert err.value.time == stop[1]
        assert len(rows) == 12
        assert_same_ledger(err.value.trajectory.ledger, columns(rows))
        assert np.all(np.isfinite(err.value.trajectory.series("holder_0_0.5")))

    def test_model_value_error_is_not_an_abort(self):
        # only NonFiniteError from field construction counts as blowup; a
        # model's own ValueError propagates whatever its message says
        model = LateValueErrorModel()
        u0 = PeriodicField(np.cos(grid_x(32)))
        with pytest.raises(ValueError, match="NaN/Inf") as err:
            evolve(model, u0, 0.5, StepperConfig(dt=0.1))
        assert not isinstance(err.value, EvolutionAbort)
        assert model.calls == 5

    @pytest.mark.parametrize("fail_at", [1, 5], ids=["guard", "step"])
    def test_bug_is_not_an_abort(self, fail_at):
        # NotImplementedError is a RuntimeError, but a bug, not a numerical
        # failure: it leaves evolve as it was raised
        model = FailingRemainderModel(fail_at, NotImplementedError("forgot a branch"))
        with pytest.raises(NotImplementedError, match="forgot a branch") as err:
            evolve(model, triangle(64, 0.3), 0.01, StepperConfig(dt=1e-3))
        assert type(err.value) is NotImplementedError
        assert model.calls == fail_at

    @pytest.mark.parametrize("error", [PositivityError(-0.5), WellStretchedError(3)],
                             ids=["positivity", "tangent"])
    @pytest.mark.parametrize("fail_at, time", [(1, 0.0), (5, 2e-3)], ids=["guard", "step"])
    def test_numerical_failure_aborts(self, fail_at, time, error):
        model = FailingRemainderModel(fail_at, error)
        with pytest.raises(EvolutionAbort) as err:
            evolve(model, triangle(64, 0.3), 0.01, StepperConfig(dt=1e-3))
        assert err.value.reason == str(error)
        assert err.value.time == time
        assert err.value.__cause__ is error

    def test_blowup_aborts_with_partial_trajectory(self):
        u0 = PeriodicField(np.full(32, 5.0))
        with pytest.raises(EvolutionAbort) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                evolve(QuadraticGrowthModel(), u0, 5.0, StepperConfig(dt=0.05))
        abort = err.value
        assert "non-finite" in abort.reason
        assert len(abort.trajectory.snapshots) >= 1
        for _, w in abort.trajectory.snapshots:
            assert np.all(np.isfinite(w.samples))

    def test_theta_cap_aborts(self):
        model = Peskin2dModel(theta_cap=1.2)  # ellipse starts at ~1.75
        with pytest.raises(EvolutionAbort) as err:
            evolve(model, ellipse(64), 0.1, StepperConfig(dt=0.01))
        assert "stretch" in err.value.reason
        assert err.value.time == 0.0

    def test_theta_cap_checked_on_every_accepted_state(self):
        # no ledger row between t = 0 and T = 0.2, yet the cap, set between
        # theta after steps 5 and 6, stops the march at step 6
        cfg = StepperConfig(dt=0.01)
        free = evolve(ShrinkingContourModel(np.inf), ellipse(64, 1.0, 1.0),
                      0.06, cfg, LedgerSpec(record_theta=True))
        theta = free.series("theta")
        assert np.all(np.diff(theta) > 0.0)
        cap = 0.5 * (theta[5] + theta[6])
        with pytest.raises(EvolutionAbort) as err:
            evolve(ShrinkingContourModel(cap), ellipse(64, 1.0, 1.0), 0.2, cfg,
                   LedgerSpec(stride=10**9))
        assert "stretch" in err.value.reason
        assert err.value.time == pytest.approx(0.06)
        assert err.value.trajectory.times().tolist() == [0.0]


def stride_steps(kept, stride):
    """Steps after which a march at this stride keeps exactly kept states
    after t = 0 (the last step is always kept)."""
    return stride * kept - (stride - 1)


class TestLedgerBlocks:
    """evolve builds the rows of kept states LEDGER_BLOCK at a time; each
    row and each abort is as if every row had been built alone."""

    # at h = 5/64 np.power and Python's pow can round a (j h)^kappa divisor
    # of kappa = 0.123456789 differently; the ledger takes Python's
    SPEC = dict(derivative_sup=(1, 2),
                holder_targets=((0, 0.123456789), (1, 0.5), (2, 0.25)))

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("kept", [1, 14, 15, 16, 17, 36, 37])
    def test_scalar_rows_equal_rows_built_alone(self, kept, stride):
        spec = LedgerSpec(stride=stride, **self.SPEC)
        rng = np.random.default_rng(kept)
        u0 = PeriodicField(triangle(64, 0.4).samples
                           + 1e-3 * rng.standard_normal(64), domain_length=5.0)
        n_steps = stride_steps(kept, stride)
        traj = evolve(McfGraphModel(), u0, n_steps * 1e-5,
                      StepperConfig(dt=1e-5), spec)
        assert len(traj.snapshots) == kept + 1
        for oracle in (ledger_entry, ledger_row_by_columns):
            assert_same_ledger(traj.ledger, columns(
                [oracle(t, field, spec) for t, field in traj.snapshots]))

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("kept", [1, 15, 16, 17, 37])
    def test_contour_rows_with_theta_equal_rows_built_alone(self, kept, stride):
        spec = LedgerSpec(stride=stride, record_theta=True)
        n_steps = stride_steps(kept, stride)
        traj = evolve(Peskin2dModel(), ellipse(64), n_steps * 1e-3,
                      StepperConfig(dt=1e-3), spec)
        assert len(traj.snapshots) == kept + 1
        assert_same_ledger(traj.ledger, columns(
            [{**ledger_entry(t, X, spec), "theta": stretch_ratio(X)}
             for t, X in traj.snapshots]))

    def test_block_stops_at_its_first_unbuildable_row(self):
        spec = LedgerSpec(derivative_sup=(2,), holder_targets=((0, 0.5),))
        good, bad = triangle(256, 0.4), triangle(256, 1e305)
        limit = PeriodicField(np.repeat([1.5e308, -1.5e308], 128))
        snaps = [(0.0, good), (0.1, good), (0.2, bad), (0.3, good), (0.4, limit)]
        cols, error = ledger_rows(snaps, spec)
        assert_same_ledger(cols, columns([ledger_entry(t, w, spec) for t, w in snaps[:2]]))
        with pytest.raises(NonFiniteError) as alone:
            ledger_entry(0.2, bad, spec)
        assert isinstance(error, NonFiniteError)
        assert str(error) == str(alone.value)
        # each failing row names its own first failure
        assert str(ledger_rows(snaps[3:], spec)[1]) == "norms overflow the float range"
        assert ledger_rows([], spec) == ({}, None)

    @pytest.mark.parametrize("make, first, later", [
        (ExponentialGrowthModel, "ledger", "state"),
        (lambda: LateValueErrorModel(fail_at=2 + 2 * 23 + 1), "ledger",
         ValueError),
        (lambda: CappedGrowthModel(np.log(1e300) + 0.5 * 23.5), "ledger", "cap"),
        (lambda: CappedGrowthModel(np.log(1e300) + 0.5 * 17.5), "cap", "cap"),
    ], ids=["state", "value_error", "cap", "cap_first"])
    def test_first_stop_of_a_pending_block_wins(self, make, first, later,
                                                monkeypatch):
        # the d2 row of step 19 overflows while rows 17-32 are pending, and
        # the march runs on towards a later stop in the same block: the
        # state overflows at step 27, step 24 raises, or the cap is reached
        # at step 24 (at step 18 in cap_first, before the row)
        monkeypatch.setattr(stepper, "stretch_ratio", log_sup)
        spec, u0, cfg = LedgerSpec(derivative_sup=(2,)), triangle(256, 1e300), StepperConfig(dt=0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            _, free = per_row_evolve(make(), u0, 3.0, cfg, LedgerSpec())
            rows, stop = per_row_evolve(make(), u0, 3.0, cfg, spec)
            with pytest.raises(EvolutionAbort) as err:
                evolve(make(), u0, 3.0, cfg, spec)
        assert (free[0] if isinstance(later, str) else type(free[0])) == later
        assert stop[0] == first
        block = [(round(t / cfg.dt) - 1) // LEDGER_BLOCK for t in (stop[1], free[1])]
        assert block == [1, 1]
        reason = {"ledger": "non-finite values in a ledger row", "cap": "stretch"}
        assert reason[first] in err.value.reason
        assert err.value.time == stop[1]
        assert_same_ledger(err.value.trajectory.ledger, columns(rows))


def ledger_rows_by_abs(snaps, spec):
    """ledger_rows with each sup column a max of an np.abs temporary and a
    finite pass of its own over the derivative batch, as it was built
    before its sup columns came from one max and one min per row stack."""
    first = snaps[0][1]
    for k, kappa in spec.holder_targets:
        check_holder_target(first.n, k, kappa)
    s = np.array([w.samples for _, w in snaps])
    h = first.spacing
    l2, _, mean = norm_rows(h, s)
    # finite samples: the sup is an entry, and never measured again
    linf = np.max(np.abs(s), axis=-1)
    cols = {"t": np.array([t for t, _ in snaps], dtype=float), "l2": l2, "linf": linf}
    failures = [(~(np.isfinite(l2) & np.isfinite(linf)), "norms overflow the float range")]
    cols["mean"] = mean
    dev = s - mean[:, None]
    cols["osc_linf"] = np.max(np.abs(dev, out=dev), axis=-1)
    failures.append((~np.isfinite(cols["osc_linf"]),
                     "osc_linf overflows the float range"))
    overflow = np.zeros(len(snaps), dtype=bool)
    orders = sorted({*spec.derivative_sup, *(k for k, _ in spec.holder_targets if k)})
    d = {}
    if orders:
        batch = derivative_rows(s, first.domain_length, orders)
        overflow |= ~np.isfinite(batch).all(axis=(0, 2))
        d = dict(zip(orders, batch))
    for m in spec.derivative_sup:
        cols[f"d{m}_linf"] = np.max(np.abs(d[m]), axis=-1)
    for k, kappa in spec.holder_targets:
        col = cols[holder_column(k, kappa)] = holder_rows(d[k] if k else s, kappa, h)
        overflow |= np.isnan(col)
    failures.append((overflow, "samples contain NaN/Inf"))
    failed = np.logical_or.reduce([mask for mask, _ in failures])
    built = int(np.argmax(failed)) if failed.any() else len(snaps)
    error = None
    if built < len(snaps):
        error = NonFiniteError(next(msg for mask, msg in failures if mask[built]))
    return {name: col[:built] for name, col in cols.items()}, error


BIG = 1.7976931348623157e308
EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, BIG, -BIG, 1.0, -2.5]
NON_FINITE = [np.inf, -np.inf, np.nan, -np.nan]


def extreme_rows(values):
    """(B, N) rows of the given values and of any finite double."""
    return st.tuples(st.integers(1, 5), st.integers(4, 7)).flatmap(
        lambda shape: arrays(np.float64, (shape[0], 2**shape[1]), elements=st.one_of(
            st.sampled_from(values), st.floats(allow_nan=False, allow_infinity=False))))


class TestSupColumns:
    """Every sup column of a ledger row is sup_rows of one max and one min
    per row stack, and each derivative that overflows fails its row through
    the column it feeds: rows, failures and messages are those of sup
    columns taken as np.max(np.abs(.)) with a finite pass over the
    derivative batch."""

    @given(x=extreme_rows(EXTREMES + NON_FINITE))
    @settings(max_examples=300, deadline=None)
    def test_max_and_min_give_the_abs_sup(self, x):
        with np.errstate(over="ignore", invalid="ignore"):
            mean = np.mean(x, axis=-1)
            top, bottom = x.max(axis=-1), x.min(axis=-1)
            assert sup_rows(top, bottom).tobytes() == np.max(np.abs(x), axis=-1).tobytes()
            osc = np.max(np.abs(x - mean[:, None]), axis=-1)
            assert sup_rows(top - mean, bottom - mean).tobytes() == osc.tobytes()

    @given(x=extreme_rows(EXTREMES),
           sups=st.sets(st.integers(1, 3)),
           targets=st.sets(st.sampled_from([(0, 0.5), (1, 0.25), (2, 0.75)])))
    @example(x=np.array([[0.0] * 16, [-0.0] * 16]), sups={1}, targets={(0, 0.5)})
    @settings(max_examples=200, deadline=None)
    def test_rows_and_failures_are_those_of_the_abs_route(self, x, sups, targets):
        spec = LedgerSpec(derivative_sup=tuple(sups), holder_targets=tuple(targets))
        snaps = [(0.1 * b, PeriodicField(row, 3.0)) for b, row in enumerate(x)]
        # the block, and each row alone: its own failure and message
        for block in [snaps] + [[snap] for snap in snaps]:
            with np.errstate(over="ignore", invalid="ignore"):
                want, want_error = ledger_rows_by_abs(block, spec)
            cols, error = ledger_rows(block, spec)
            assert_same_ledger(cols, want)
            assert type(error) is type(want_error)
            assert str(error) == str(want_error)


class TestPicard:
    def test_zero_nonlinearity_single_iterate(self):
        n = 128
        u0 = PeriodicField(np.cos(grid_x(n)))
        traj, log = picard_solve(HeatModel(), u0, 0.1, StepperConfig(dt=0.01))
        assert len(log) == 1
        want = np.exp(-0.1) * np.cos(grid_x(n))
        assert np.max(np.abs(traj.final().samples - want)) < 1e-12

    def test_mcf_contracts(self):
        u0 = PeriodicField(0.05 * np.sin(grid_x(128)))
        cfg = StepperConfig(dt=2e-3, scheme="imex_frozen_phi")
        traj, log = picard_solve(McfGraphModel(), u0, 0.1, cfg)
        ratios = [b / a for a, b in zip(log, log[1:])]
        assert all(r < 1.0 for r in ratios)
        direct = evolve(McfGraphModel(), u0, 0.1, cfg)
        gap = np.max(np.abs(traj.final().samples - direct.final().samples))
        assert gap <= 10 * PICARD_TOL

    def test_reapplying_map_moves_little(self):
        u0 = PeriodicField(0.05 * np.sin(grid_x(128)))
        cfg = StepperConfig(dt=2e-3, scheme="imex_frozen_phi")
        traj, _ = picard_solve(McfGraphModel(), u0, 0.1, cfg)
        snaps, _ = stepper._picard_apply(McfGraphModel(), list(traj.snapshots), cfg)
        move = max(np.max(np.abs(wa.samples - wb.samples))
                   for (_, wa), (_, wb) in zip(traj.snapshots, snaps))
        assert move <= 2 * PICARD_TOL

    def test_divergence_carries_log(self):
        u0 = PeriodicField(np.full(32, 2.0))
        with pytest.raises(PicardDivergenceError) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                picard_solve(QuadraticGrowthModel(), u0, 1.0,
                             StepperConfig(dt=0.02))
        assert len(err.value.log) >= 4

    def test_horizon_validation(self):
        u0 = PeriodicField(np.zeros(32))
        with pytest.raises(ValueError):
            picard_solve(HeatModel(), u0, -1.0, StepperConfig(dt=0.01))

    def test_pointwise_scheme_rejected_before_any_iterate(self, monkeypatch):
        # the pointwise scheme has no whole-window map, and the ETD weights
        # would silently give it the exponential-Euler one
        def no_iterate(*args):
            raise AssertionError("iterated")

        monkeypatch.setattr(stepper, "_picard_apply", no_iterate)
        u0 = PeriodicField(0.2 * np.cos(grid_x(128)))
        with pytest.raises(ValueError, match="scheme imex_frozen_phi or etd_rk2"):
            picard_solve(McfGraphModel(), u0, 0.05,
                         StepperConfig(dt=1e-3, scheme="frozen_pointwise"))
