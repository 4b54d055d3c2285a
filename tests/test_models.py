"""Model-level checks: splitting identities, stationary states, linearized
mode-1 rates against their analytic values, conservation diagnostics, and
the tag and parameters that make each equation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pslab import cli
from pslab.grid import PeriodicField
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
    enclosed_area,
    make_model,
    mode1_rate,
)
from pslab.nonlocal_ops import stretch_ratio
from pslab.stepper import LedgerSpec, StepperConfig, evolve, frozen_pointwise_step


def grid_x(n):
    return np.arange(n) * (2 * np.pi / n)


def triangle(n, amplitude):
    x = grid_x(n)
    return PeriodicField(amplitude * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi)))


def circle(n, radius=1.0, center=(0.0, 0.0)):
    th = grid_x(n)
    return PeriodicField(np.stack([center[0] + radius * np.cos(th),
                                   center[1] + radius * np.sin(th)]))


def splitting_gap(model, field):
    k = np.fft.rfftfreq(field.n, d=1.0 / field.n)
    mult = model.linear_multiplier(k)
    lin = np.fft.irfft(mult * np.fft.rfft(field.samples, axis=-1), field.n, axis=-1)
    full = model.rhs(field).samples
    split = -lin + model.remainder(field).samples
    return float(np.max(np.abs(full - split)))


class TestModelSpec:
    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError, match="advection"):
            make_model("advection", {})

    def test_make_model_round_trip(self):
        m = make_model("nonlocal_mcf", {"a": 0.75})
        assert isinstance(m, NonlocalMcfModel) and m.a == 0.75
        m = make_model("muskat_st", {"rho0": 2.0})
        assert isinstance(m, MuskatStModel) and m.rho0 == 2.0
        m = make_model("surface_diffusion_axi", {"hbar0": 3.0})
        assert isinstance(m, SurfaceDiffusionModel) and m.hbar0 == 3.0

    def test_make_model_missing_radius(self):
        with pytest.raises(ValueError, match="hbar0"):
            make_model("surface_diffusion_axi", {})


# a valid value for each declared model parameter
PARAM_SAMPLES = {"a": 0.75, "theta_cap": 7.0, "rho0": 2.0, "hbar0": 3.0}


@pytest.mark.parametrize("tag", list(MODELS))
class TestModelDeclarations:
    def test_spec_round_trips(self, tag):
        params = {name: PARAM_SAMPLES[name] for name in MODELS[tag].params}
        model = make_model(tag, params)
        for name, value in params.items():
            assert getattr(model, name) == value

    def test_undeclared_parameter_rejected(self, tag):
        with pytest.raises(ValueError, match="bogus"):
            make_model(tag, {"bogus": 1.0})

    def test_config_keys_documented(self, tag):
        # every model.<name> line of the cli docstring names a declared
        # parameter of the models it mentions, and every one is listed
        doc = {}
        for line in cli.__doc__.splitlines():
            key, _, text = line.strip().partition(" ")
            if key.startswith("model.") and key != "model.tag":
                doc[key[len("model."):]] = text
        declared = [name for name in doc if tag in doc[name].split()]
        assert sorted(declared) == sorted(MODELS[tag].params)
        assert all(set(text.split()) & set(MODELS) for text in doc.values())


class TestSplittingIdentity:
    # rhs must equal -L u + remainder with (L u)^ = multiplier * u_hat;
    # the overridden remainders (heat, mcf, thinfilm) are the real checks
    def test_scalar_models(self):
        n = 256
        x = grid_x(n)
        cases = [
            (HeatModel(), PeriodicField(np.cos(x) + 0.3 * np.sin(2 * x))),
            (VarCoefHeatModel(), PeriodicField(np.cos(x))),
            (McfGraphModel(), PeriodicField(0.3 * np.sin(x) + 0.1 * np.cos(3 * x))),
            (MuskatStModel(rho0=0.5), PeriodicField(0.05 * np.sin(x))),
            (SurfaceDiffusionModel(hbar0=2.0), PeriodicField(2.0 + 0.02 * np.cos(x))),
            (ThinfilmExpModel(), PeriodicField(0.01 * np.cos(x))),
        ]
        for model, field in cases:
            assert splitting_gap(model, field) < 1e-10, model.tag

    def test_contour_model(self):
        X = circle(128, radius=1.2)
        assert splitting_gap(Peskin2dModel(), X) < 1e-12

    @given(amp=st.floats(1e-4, 0.2), mode=st.integers(1, 5))
    @settings(max_examples=15, deadline=None)
    def test_mcf_identity_random_cosines(self, amp, mode):
        x = grid_x(128)
        f = PeriodicField(amp * np.cos(mode * x))
        assert splitting_gap(McfGraphModel(), f) < 1e-10


class TestHeat:
    def test_rhs_is_second_derivative(self):
        x = grid_x(64)
        f = PeriodicField(np.cos(3 * x))
        assert np.allclose(HeatModel().rhs(f).samples, -9.0 * np.cos(3 * x),
                           atol=1e-10)

    def test_remainder_identically_zero(self):
        f = triangle(128, 0.4)
        assert np.all(HeatModel().remainder(f).samples == 0.0)

    def test_mode1_rate(self):
        assert mode1_rate(HeatModel()) == pytest.approx(-1.0, abs=1e-10)


class TestVarCoefHeat:
    def test_rhs_matches_product(self):
        n = 128
        x = grid_x(n)
        f = PeriodicField(np.sin(2 * x))
        got = VarCoefHeatModel().rhs(f).samples
        want = (1.25 + 0.75 * np.cos(x)) * (-4.0 * np.sin(2 * x))
        assert np.max(np.abs(got - want)) < 1e-10

    def test_frozen_symbol_is_rhs_symbol(self):
        # the profile is the symbol frozen at x over linear_multiplier, so
        # their product is the rhs symbol (1.25 + 0.75 cos x) k^2
        n = 128
        x = grid_x(n)
        model = VarCoefHeatModel()
        k = np.fft.rfftfreq(n, d=1.0 / n)
        frozen = np.outer(model.coefficient_profile(PeriodicField(np.zeros(n))),
                          model.linear_multiplier(k))
        want = np.outer(1.25 + 0.75 * np.cos(x), k**2)
        assert np.max(np.abs(frozen - want)) <= 1e-15 * np.max(want)

    def test_pointwise_remainder_vanishes(self):
        # freezing at the evaluation point is exact for a(x) u_xx, so the
        # pointwise step adds nothing to its bare frozen propagation
        n, dt = 128, 1e-3
        x = grid_x(n)
        f = PeriodicField(np.sin(2 * x))
        k = np.fft.fftfreq(n, d=1.0 / n)
        a = 1.25 + 0.75 * np.cos(x)
        kernel = np.exp(-dt * np.outer(a, k**2) + 1j * np.outer(x, k))
        bare = (kernel @ np.fft.fft(f.samples)).real / n
        step = frozen_pointwise_step(f, VarCoefHeatModel(), dt).samples
        assert np.max(np.abs(step - bare)) < 1e-10 * dt


class TestMcfGraph:
    def test_single_cosine_linearization(self):
        eps = 1e-3
        x = grid_x(128)
        f = PeriodicField(eps * np.cos(x))
        r = McfGraphModel().rhs(f).samples
        assert np.max(np.abs(r + eps * np.cos(x))) < 2 * eps**3

    def test_remainder_is_cubic(self):
        eps = 1e-3
        f = PeriodicField(eps * np.cos(grid_x(128)))
        assert np.max(np.abs(McfGraphModel().remainder(f).samples)) < 2 * eps**3

    def test_mode1_rate(self):
        assert mode1_rate(McfGraphModel()) == pytest.approx(-1.0, abs=1e-8)

    def test_coefficient_profile(self):
        x = grid_x(128)
        f = PeriodicField(0.3 * np.sin(x))
        prof = McfGraphModel().coefficient_profile(f)
        assert np.allclose(prof, 1.0 / (1.0 + (0.3 * np.cos(x)) ** 2), atol=1e-10)

    def test_small_data_sup_contracts(self):
        u0 = triangle(128, 0.05 * np.pi / 2)
        traj = evolve(McfGraphModel(), u0, 0.2, StepperConfig(dt=2e-3),
                      LedgerSpec(stride=10))
        osc = traj.series("osc_linf")
        assert np.all(np.diff(osc) < 0)


class TestNonlocalMcf:
    # oracle: M(a) = 2 int_R (1-cos b)/|b|^{2+a} db, frozen from an
    # adaptive quadrature cross-checked against the Gamma closed form
    ORACLE = {0.25: 6.0025173731, 0.5: 6.6843420657, 0.75: 10.2083863988}

    def test_multiplier_constant(self):
        for a, want in self.ORACLE.items():
            got = NonlocalMcfModel(a=a).multiplier_constant
            assert got == pytest.approx(want, rel=1e-9)

    @staticmethod
    def scipy_multiplier(a):
        from scipy.special import gamma

        return float(-4.0 * gamma(-1.0 - a) * np.cos(0.5 * np.pi * (1.0 + a)))

    def test_multiplier_constant_is_scipys_at_the_preset(self):
        # a = 0.5, every preset's and acceptance check's value: the same bits
        # as scipy's Gamma(-1.5), so no run at a = 0.5 moves
        assert NonlocalMcfModel(a=0.5).multiplier_constant == self.scipy_multiplier(0.5)

    def test_multiplier_constant_near_scipys_on_the_range(self):
        # the recurrence from math.gamma(2 - a) is within 7e-16 of Gamma(-1-a)
        # on (0, 1). scipy is handed -1 - a rounded to the 2.2e-16 spacing of
        # [-2, -1], where Gamma's relative condition is about 1/a + 1/(1-a),
        # the inverse distances to its poles at -1 and -2: its value moves by
        # up to 1.1e-16 (1/a + 1/(1-a)), 1.1e-13 at a = 0.001 and 0.999
        for a in (np.arange(1, 1000) / 1000).tolist():
            got = NonlocalMcfModel(a=a).multiplier_constant
            want = self.scipy_multiplier(a)
            bound = 1.2e-16 * (1.0 / a + 1.0 / (1.0 - a)) + 2e-15
            assert abs(got - want) <= bound * abs(want), a

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    def test_mode1_rate_matches_multiplier(self, a):
        model = NonlocalMcfModel(a=a)
        rate = mode1_rate(model)
        assert rate == pytest.approx(-model.multiplier_constant, rel=1e-3)

    def test_constant_state_stationary(self):
        f = PeriodicField(np.full(128, 0.7))
        assert np.max(np.abs(NonlocalMcfModel(a=0.5).rhs(f).samples)) < 1e-12

    def test_evolution_sup_decay_and_roll_equivariance(self):
        model = NonlocalMcfModel(a=0.5)
        u0 = triangle(128, 0.5)
        config, spec = StepperConfig(dt=1e-3), LedgerSpec(stride=1)
        traj = evolve(model, u0, 1e-2, config, spec)
        assert len(traj.snapshots) == 11
        linf = traj.series("linf")
        assert np.all(np.diff(linf) <= 0.0)
        rolled = evolve(model, u0.with_samples(np.roll(u0.samples, 7)), 1e-2, config, spec)
        gap = rolled.final().samples - np.roll(traj.final().samples, 7)
        assert np.max(np.abs(gap)) < 1e-11

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            NonlocalMcfModel(a=1.0)
        with pytest.raises(ValueError):
            NonlocalMcfModel(a=0.0)


class TestPeskinModel:
    def test_circles_stationary(self):
        for X in (circle(128), circle(128, radius=2.0, center=(3.0, -1.0))):
            r = Peskin2dModel().rhs(X).samples
            assert np.max(np.abs(r)) < 1e-11

    def test_circle_fixed_under_evolve(self):
        # remainder(circle) = (1/4) Lambda X exactly cancels the linear
        # decay through the phi1 weight, so the circle never moves
        X0 = circle(64)
        traj = evolve(Peskin2dModel(), X0, 0.5, StepperConfig(dt=0.05))
        assert np.max(np.abs(traj.final().samples - X0.samples)) < 1e-10

    def test_theta_cap_recorded_in_params(self):
        assert make_model("peskin2d", {"theta_cap": 7.0}).theta_cap == 7.0

    @pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.5])
    def test_theta_cap_must_be_positive(self, cap):
        with pytest.raises(ValueError, match="theta_cap"):
            Peskin2dModel(theta_cap=cap)


class TestMuskatModel:
    @pytest.mark.parametrize("rho0", [float("nan"), float("inf")])
    def test_non_finite_rho0_rejected(self, rho0):
        with pytest.raises(ValueError, match="rho0"):
            MuskatStModel(rho0=rho0)


class TestSurfaceDiffusion:
    def test_reference_radius_validation(self):
        with pytest.raises(ValueError):
            SurfaceDiffusionModel(hbar0=1.0)

    def test_nan_reference_radius_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            SurfaceDiffusionModel(hbar0=float("nan"))

    def test_positivity_abort(self):
        h = PeriodicField(0.5 + 0.6 * np.cos(grid_x(128)))
        with pytest.raises(PositivityError):
            SurfaceDiffusionModel(hbar0=2.0).rhs(h)

    def test_mode1_rate(self):
        base = PeriodicField(np.full(256, 2.0))
        rate = mode1_rate(SurfaceDiffusionModel(hbar0=2.0), base=base)
        assert rate == pytest.approx(-0.75, rel=1e-6)

    def test_semidiscrete_volume_identity(self):
        # sum h * rhs = sum d/dx(flux) = 0 exactly: the outer division by h
        # is never filtered, so the discrete volume integral is stationary
        x = grid_x(256)
        h = PeriodicField(2.0 + 0.3 * np.cos(x) + 0.1 * np.sin(3 * x))
        model = SurfaceDiffusionModel(hbar0=2.0)
        r = model.rhs(h).samples
        assert abs(float(np.sum(h.samples * r))) < 1e-10

    def test_volume_conserved_under_evolve(self):
        model = SurfaceDiffusionModel(hbar0=2.0)
        h0 = PeriodicField(2.0 + 0.01 * np.cos(grid_x(128)))
        traj = evolve(model, h0, 0.2, StepperConfig(dt=1e-3), LedgerSpec(stride=20))
        v0 = model.conserved(h0)[1]
        vT = model.conserved(traj.final())[1]
        assert abs(vT - v0) / abs(v0) < 1e-10


class TestThinfilm:
    def test_constants_stationary(self):
        f = PeriodicField(np.full(64, 1.3))
        assert np.max(np.abs(ThinfilmExpModel().rhs(f).samples)) < 1e-13

    def test_mode1_rate(self):
        assert mode1_rate(ThinfilmExpModel()) == pytest.approx(-1.0, abs=1e-6)

    def test_remainder_is_quadratic(self):
        eps = 1e-3
        f = PeriodicField(eps * np.cos(grid_x(128)))
        rem = ThinfilmExpModel().remainder(f).samples
        assert np.max(np.abs(rem)) < 2 * eps**2

    def test_rhs_mean_free(self):
        f = triangle(256, 2e-3)
        assert abs(float(np.mean(ThinfilmExpModel().rhs(f).samples))) < 1e-13


class TestDiagnostics:
    def test_theta_monitor_circle(self):
        assert stretch_ratio(circle(128)) == pytest.approx(np.pi / 2, abs=1e-6)
        assert stretch_ratio(circle(128, radius=3.0)) == pytest.approx(
            np.pi / 6, abs=1e-6)

    def test_enclosed_area(self):
        assert enclosed_area(circle(128)) == pytest.approx(np.pi, rel=1e-12)
        th = grid_x(128)
        ell = PeriodicField(np.stack([1.1 * np.cos(th), 0.9 * np.sin(th)]))
        assert enclosed_area(ell) == pytest.approx(np.pi * 1.1 * 0.9, rel=1e-12)

    def test_enclosed_area_orientation(self):
        th = grid_x(64)
        clockwise = PeriodicField(np.stack([np.cos(-th), np.sin(-th)]))
        assert enclosed_area(clockwise) == pytest.approx(-np.pi, rel=1e-12)

    def test_enclosed_area_needs_contour(self):
        with pytest.raises(ValueError):
            enclosed_area(PeriodicField(np.cos(grid_x(64))))


class TestFunctionalAliases:
    def test_mcf_symbol_flat_reference(self):
        k = np.array([0.0, 1.0, -2.0, 3.0])
        assert np.allclose(McfGraphModel().linear_multiplier(k), k**2)
