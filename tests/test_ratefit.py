"""Rate extraction: power-law and exponential fits, smoothing-rate
reports against ledgered trajectories, and contraction summaries."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pslab.grid import PeriodicField
from pslab.models import HeatModel, ThinfilmExpModel
from pslab.ratefit import (
    ContractionReport,
    RateFit,
    contraction_report,
    default_window,
    fit_exponential,
    fit_power_law,
    smoothing_report,
)
from pslab.stepper import LedgerSpec, StepperConfig, evolve, picard_solve


def grid_x(n):
    return np.arange(n) * (2.0 * np.pi / n)


def triangle(n, amplitude):
    x = grid_x(n)
    return PeriodicField(amplitude * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi)))


@pytest.fixture(scope="module")
def heat_sawtooth_traj():
    u0 = triangle(512, 0.3 * np.pi / 2.0)
    spec = LedgerSpec(stride=1, derivative_sup=(1, 2))
    return evolve(HeatModel(), u0, 1e-2, StepperConfig(dt=1e-5), spec)


@pytest.fixture(scope="module")
def heat_square_traj():
    x = grid_x(512)
    u0 = PeriodicField(np.where(x < np.pi, 1.0, -1.0))
    spec = LedgerSpec(stride=5, holder_targets=((1, 0.5),))
    return evolve(HeatModel(), u0, 1e-2, StepperConfig(dt=1e-5), spec)


class TestRateFitValidation:
    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            RateFit("cubic", 1.0, 0.0, 1.0, (0.1, 1.0), 5)

    def test_r_squared_bounds(self):
        with pytest.raises(ValueError, match="r_squared"):
            RateFit("power_law", 1.0, 0.0, 1.2, (0.1, 1.0), 5)
        with pytest.raises(ValueError, match="r_squared"):
            RateFit("power_law", 1.0, 0.0, -0.1, (0.1, 1.0), 5)

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="4 points"):
            RateFit("power_law", 1.0, 0.0, 1.0, (0.1, 1.0), 3)

    def test_window_order(self):
        with pytest.raises(ValueError, match="increasing"):
            RateFit("power_law", 1.0, 0.0, 1.0, (1.0, 0.1), 5)

    def test_frozen(self):
        fit = RateFit("power_law", 1.0, 0.0, 1.0, (0.1, 1.0), 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            fit.estimate = 2.0


class TestFitPowerLaw:
    def test_exact_exponent_recovered(self):
        t = np.geomspace(1e-3, 1.0, 60)
        fit = fit_power_law(t, 2.7 * t**-0.5, window=(1e-3, 1.0))
        assert fit.kind == "power_law"
        assert fit.estimate == pytest.approx(-0.5, abs=1e-12)
        assert fit.stderr < 1e-10
        assert fit.r_squared > 1.0 - 1e-12
        assert fit.n_points == 60
        assert fit.window == (1e-3, 1.0)

    def test_noisy_exponent_within_tolerance(self):
        rng = np.random.default_rng(7)
        t = np.linspace(0.1, 5.0, 40)
        v = 3.0 * t**-2.0 * (1.0 + 0.01 * rng.standard_normal(40))
        fit = fit_power_law(t, v, window=(0.1, 5.0))
        assert fit.estimate == pytest.approx(-2.0, abs=0.05)
        assert fit.stderr < 0.01
        assert fit.r_squared > 0.999

    def test_constant_values_give_zero_slope(self):
        t = np.geomspace(0.01, 1.0, 20)
        fit = fit_power_law(t, np.full(20, 3.0), window=(0.01, 1.0))
        assert fit.estimate == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_growth_keeps_sign(self):
        t = np.geomspace(0.1, 2.0, 30)
        fit = fit_power_law(t, t**1.7, window=(0.1, 2.0))
        assert fit.estimate == pytest.approx(1.7, abs=1e-12)

    def test_nonpositive_values_rejected(self):
        t = np.geomspace(0.1, 1.0, 10)
        v = t.copy()
        v[4] = 0.0
        with pytest.raises(ValueError, match="positive values"):
            fit_power_law(t, v, window=(0.1, 1.0))

    def test_nonpositive_times_rejected(self):
        t = np.linspace(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="positive times"):
            fit_power_law(t, np.ones(10), window=(0.0, 1.0))

    @settings(max_examples=25, deadline=None)
    @given(logc=st.floats(min_value=-6.0, max_value=6.0))
    def test_estimate_invariant_under_value_scaling(self, logc):
        t = np.geomspace(0.05, 2.0, 25)
        v = 4.2 * t**-1.3
        base = fit_power_law(t, v, window=(0.05, 2.0)).estimate
        scaled = fit_power_law(t, 10.0**logc * v, window=(0.05, 2.0)).estimate
        assert scaled == pytest.approx(base, abs=1e-9)


class TestFitExponential:
    def test_exact_decay_rate_recovered(self):
        t = np.linspace(0.0, 4.0, 50)
        fit = fit_exponential(t, np.exp(-0.75 * t), window=(0.0, 4.0))
        assert fit.kind == "exponential"
        assert fit.estimate == pytest.approx(0.75, abs=1e-12)
        assert fit.r_squared > 1.0 - 1e-12

    def test_noisy_decay_within_two_stderr(self):
        rng = np.random.default_rng(11)
        t = np.linspace(0.0, 4.0, 50)
        v = np.exp(-1.5 * t) * (1.0 + 0.01 * rng.standard_normal(50))
        fit = fit_exponential(t, v, window=(0.0, 4.0))
        assert abs(fit.estimate - 1.5) <= 2.0 * fit.stderr
        assert fit.estimate == pytest.approx(1.5, abs=0.01)

    def test_growth_reports_negative_rate(self):
        t = np.linspace(0.0, 3.0, 30)
        fit = fit_exponential(t, np.exp(0.8 * t), window=(0.0, 3.0))
        assert fit.estimate == pytest.approx(-0.8, abs=1e-12)
        assert fit.r_squared > 1.0 - 1e-12

    def test_nonpositive_values_rejected(self):
        t = np.linspace(0.0, 1.0, 10)
        v = np.exp(-t)
        v[-1] = 0.0
        with pytest.raises(ValueError, match="positive values"):
            fit_exponential(t, v, window=(0.0, 1.0))

    @settings(max_examples=25, deadline=None)
    @given(rate=st.floats(min_value=0.1, max_value=5.0))
    def test_exact_rates_recovered(self, rate):
        t = np.linspace(0.0, 2.0, 30)
        fit = fit_exponential(t, np.exp(-rate * t), window=(0.0, 2.0))
        assert fit.estimate == pytest.approx(rate, abs=1e-9)


class TestWindows:
    def test_default_window_from_spacing(self):
        t = np.arange(1, 1001) * 1e-5
        lo, hi = default_window(t)
        assert lo == pytest.approx(1e-4)
        assert hi == pytest.approx(1e-3)

    def test_default_window_used_when_omitted(self):
        t = np.arange(1, 1001) * 1e-5
        fit = fit_power_law(t, t**-0.5)
        assert fit.estimate == pytest.approx(-0.5, abs=1e-12)
        assert fit.window[0] == pytest.approx(1e-4)
        assert fit.window[1] == pytest.approx(1e-3)

    def test_window_outside_span_rejected(self):
        t = np.geomspace(0.1, 1.0, 20)
        with pytest.raises(ValueError, match="span"):
            fit_power_law(t, t, window=(0.01, 1.0))
        with pytest.raises(ValueError, match="span"):
            fit_power_law(t, t, window=(0.1, 2.0))

    def test_window_with_too_few_points_rejected(self):
        t = np.geomspace(0.1, 1.0, 20)
        with pytest.raises(ValueError, match="fewer than 4"):
            fit_power_law(t, t, window=(0.5, 0.55))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            fit_power_law(np.ones(5), np.ones(6), window=(0.5, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fit", [fit_power_law, fit_exponential])
    def test_non_finite_value_in_window_rejected(self, fit, bad):
        t = np.linspace(0.1, 0.5, 5)
        v = np.exp(-t)
        v[2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fit(t, v, window=(0.1, 0.5))

    def test_non_finite_value_outside_window_ignored(self):
        t = np.linspace(0.1, 0.6, 6)
        v = t ** -0.5
        v[-1] = np.nan
        fit = fit_power_law(t, v, window=(0.1, 0.5))
        assert fit.estimate == pytest.approx(-0.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, bad):
        t = np.linspace(0.1, 0.6, 6)
        t[3] = bad
        with pytest.raises(ValueError, match="times must be finite"):
            fit_power_law(t, np.ones(6), window=(0.1, 0.5))


class TestSmoothingReport:
    def test_sawtooth_derivative_surrogate(self, heat_sawtooth_traj):
        reports = smoothing_report(heat_sawtooth_traj, s=2.0,
                                   targets=[(1, 0.0)], window=(1e-4, 1e-2))
        rep = reports[0]
        assert rep.source == "d2_linf"
        assert rep.expected_exponent == pytest.approx(-0.5)
        assert rep.fit.estimate == pytest.approx(-0.5, abs=0.05)
        assert rep.fit.r_squared > 0.99

    def test_square_wave_holder_path(self, heat_square_traj):
        reports = smoothing_report(heat_square_traj, s=2.0,
                                   targets=[(1, 0.5)], window=(2e-4, 1e-2))
        rep = reports[0]
        assert rep.source == "holder_1_0.5"
        assert rep.expected_exponent == pytest.approx(-0.75)
        assert rep.fit.estimate == pytest.approx(-0.75, abs=0.05)
        assert rep.fit.r_squared > 0.99

    def test_fourth_order_surrogate(self):
        # small-amplitude data keeps the nonlinearity negligible, so the
        # k^4 linear part sets the observed rate
        u0 = triangle(512, 2e-3)
        spec = LedgerSpec(stride=1, derivative_sup=(3,))
        traj = evolve(ThinfilmExpModel(), u0, 1e-2, StepperConfig(dt=1e-5),
                      spec)
        rep = smoothing_report(traj, s=4.0, targets=[(2, 0.0)],
                               window=(1e-4, 1e-2))[0]
        assert rep.source == "d3_linf"
        assert rep.expected_exponent == pytest.approx(-0.5)
        assert rep.fit.estimate == pytest.approx(-0.5, abs=0.05)

    def test_smooth_data_shows_no_blowup_rate(self):
        x = grid_x(128)
        u0 = PeriodicField(np.cos(x))
        spec = LedgerSpec(stride=1, derivative_sup=(2,))
        traj = evolve(HeatModel(), u0, 2e-3, StepperConfig(dt=1e-5), spec)
        rep = smoothing_report(traj, s=2.0, targets=[(1, 0.0)],
                               window=(2e-4, 2e-3))[0]
        assert abs(rep.fit.estimate) < 0.01

    def test_multiple_targets_in_order(self, heat_sawtooth_traj):
        reports = smoothing_report(heat_sawtooth_traj, s=2.0,
                                   targets=[(0, 0.0), (1, 0.0)],
                                   window=(1e-4, 1e-2))
        assert [r.source for r in reports] == ["d1_linf", "d2_linf"]
        assert [r.expected_exponent for r in reports] == [0.0, -0.5]

    def test_missing_ledger_column_rejected(self, heat_sawtooth_traj):
        with pytest.raises(ValueError, match="holder_1_0.5"):
            smoothing_report(heat_sawtooth_traj, s=2.0, targets=[(1, 0.5)],
                             window=(1e-4, 1e-2))

    def test_nonpositive_order_rejected(self, heat_sawtooth_traj):
        with pytest.raises(ValueError, match="positive"):
            smoothing_report(heat_sawtooth_traj, s=0.0, targets=[(1, 0.0)])

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_non_finite_order_rejected(self, heat_sawtooth_traj, s):
        # unchecked, nan gives a nan expected exponent and inf gives -0.0
        with pytest.raises(ValueError, match="order s"):
            smoothing_report(heat_sawtooth_traj, s=s, targets=[(1, 0.0)])


class TestContractionReport:
    def test_halving_distances(self):
        rep = contraction_report([1.0, 0.5, 0.25])
        assert rep.contractive
        assert rep.max_ratio == pytest.approx(0.5)
        assert rep.geometric_factor == pytest.approx(0.5)
        assert rep.r_squared > 1.0 - 1e-12
        assert rep.n_iterates == 3

    def test_stalling_distances_flagged(self):
        rep = contraction_report([1.0, 0.9, 0.95])
        assert not rep.contractive
        assert rep.max_ratio >= 0.95

    def test_trailing_zero_dropped(self):
        rep = contraction_report([1.0, 0.5, 0.25, 0.0])
        assert rep.n_iterates == 3
        assert rep.max_ratio == pytest.approx(0.5)

    def test_too_few_entries_rejected(self):
        with pytest.raises(ValueError, match="at least 3"):
            contraction_report([1.0, 0.5])
        with pytest.raises(ValueError, match="at least 3"):
            contraction_report([1.0, 0.5, 0.0, 0.0])

    def test_interior_zero_rejected(self):
        with pytest.raises(ValueError, match="interior"):
            contraction_report([1.0, 0.0, 0.25])

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            contraction_report([1.0, -0.5, 0.25])

    def test_nan_distance_rejected(self):
        # a NaN passes d < 0 and min(1.0, nan) once read as r_squared 1.0
        with pytest.raises(ValueError, match="NaN"):
            contraction_report([1.0, np.nan, 0.25, 0.125])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_distance_rejected(self, bad):
        # an inf passed d >= 0 and its NaN residuals read as r_squared 1.0
        with pytest.raises(ValueError, match="inf"):
            contraction_report([1.0, bad, 0.25, 0.125])

    @settings(max_examples=25, deadline=None)
    @given(factor=st.floats(min_value=0.05, max_value=0.9))
    def test_geometric_sequences_recovered(self, factor):
        log = [factor**j for j in range(6)]
        rep = contraction_report(log)
        assert rep.contractive
        assert rep.max_ratio == pytest.approx(factor, rel=1e-9)
        assert rep.geometric_factor == pytest.approx(factor, rel=1e-9)

    def test_iteration_log_end_to_end(self):
        x = grid_x(128)
        u0 = PeriodicField(0.05 * np.sin(x))
        from pslab.models import McfGraphModel
        config = StepperConfig(dt=2e-3, scheme="imex_frozen_phi")
        _, log = picard_solve(McfGraphModel(), u0, 2e-2, config)
        rep = contraction_report(log)
        assert rep.contractive
        assert rep.max_ratio < 0.01
        assert rep.r_squared > 0.95
