"""Acceptance gate: the fourteen quantitative checks the library promises,
one test per criterion, each printing a single pass/fail line.

Each check pins tolerances up front and computes everything it asserts;
nothing here depends on state from the other tests.
"""

import numpy as np
import pytest

from pslab import kernels, nonlocal_ops
from pslab.grid import PeriodicField
from pslab.models import (
    McfGraphModel,
    MuskatStModel,
    NonlocalMcfModel,
    Peskin2dModel,
    SurfaceDiffusionModel,
    ThinfilmExpModel,
    HeatModel,
    VarCoefHeatModel,
    enclosed_area,
)
from pslab.ratefit import contraction_report, fit_exponential, fit_power_law, smoothing_report
from pslab.stepper import (
    LedgerSpec,
    StepperConfig,
    evolve,
    frozen_pointwise_step,
    imex_frozen_phi_step,
    picard_solve,
)

TWO_PI = 2.0 * np.pi


def _line(num, label, ok, detail):
    print(f"AC-{num:02d} {label}: {detail} -> {'PASS' if ok else 'FAIL'}")
    return ok


def grid_x(n):
    return np.arange(n) * (TWO_PI / n)


def triangle(n, amplitude):
    x = grid_x(n)
    return PeriodicField(amplitude * (1.0 - (2.0 / np.pi) * np.abs(x - np.pi)))


def test_ac01_poisson_kernel_mass():
    cases = [(1, (0.0,)), (1, (0.5,)), (1, (2.0,)),
             (2, (0.0, 0.0)), (2, (0.5, 0.5)), (2, (2.0, 2.0)),
             (2, (1.0, 0.0))]
    worst = 0.0
    for d, b in cases:
        kern = kernels.PoissonAnisoKernel(b=np.array(b), d=d)
        for z in (0.1, 1.0, 10.0):
            worst = max(worst, abs(kernels.poisson_aniso_mass(kern, z) - 1.0))
    ok = worst <= 1e-5
    assert _line(1, "poisson kernel mass", ok,
                 f"max |mass-1| = {worst:.3e}, tol 1e-05")


def test_ac02_slice_constant_identity():
    c1 = nonlocal_ops.lemz0_constant(1)
    c1_ok = abs(c1 - 1.0 / np.pi) <= 1e-6

    rng = np.random.default_rng(3)
    worst = 0.0
    for i in range(20):
        d = 1 + (i % 2)
        b = rng.uniform(-2.0, 2.0, size=d)
        if d == 1:
            e = np.array([rng.choice([-1.0, 1.0])])
        else:
            angle = rng.uniform(0.0, TWO_PI)
            e = np.array([np.cos(angle), np.sin(angle)])
        bb2 = 1.0 + float(b @ b)
        be = float(b @ e)
        expected = np.sqrt(bb2 - be * be) / bb2
        measured = nonlocal_ops.lemz0_constant(d) * \
            nonlocal_ops.contc_integral(d, b, e)
        worst = max(worst, abs(measured - expected))
    ok = c1_ok and worst <= 1e-4
    assert _line(2, "slice constant identity", ok,
                 f"|c1 - 1/pi| = {abs(c1 - 1.0 / np.pi):.3e}, "
                 f"max identity error = {worst:.3e} over 20 samples")


def test_ac03_dual_backend_agreement():
    def band_field(rng, n=256, kmax=20):
        x = grid_x(n)
        samples = np.zeros(n)
        for k in range(1, kmax + 1):
            samples += rng.standard_normal() * np.cos(k * x)
            samples += rng.standard_normal() * np.sin(k * x)
        return PeriodicField(samples / np.sqrt(kmax))

    rng = np.random.default_rng(5)
    worst = 0.0
    for i in range(50):
        field = band_field(rng)
        sign = "+" if i % 2 == 0 else "-"
        for b in (0.0, 0.5, 1.0, 3.0):
            four = nonlocal_ops.dirichlet_neumann_op(field, b, sign,
                                                     backend="fourier")
            quad = nonlocal_ops.dirichlet_neumann_op(field, b, sign,
                                                     backend="quadrature")
            gap = float(np.max(np.abs(four.samples - quad.samples))) / \
                float(np.max(np.abs(four.samples)))
            worst = max(worst, gap)
    ok = worst <= 1e-3
    assert _line(3, "dual-backend agreement", ok,
                 f"max rel gap = {worst:.3e} over 50 fields x 4 drifts")


def test_ac04_frozen_kernel_bound():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(200):
        s = float(rng.uniform(0.5, 2.0))
        c0 = float(rng.uniform(0.1, 0.9))
        dim = int(rng.integers(1, 4))
        spread = float(rng.uniform(0.0, 2.0))
        freq = float(rng.uniform(0.5, 3.0))
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]

        def symbol_eval(t, xi, c0=c0, dim=dim, spread=spread, freq=freq,
                        basis=basis, s=s):
            eigs = c0 + spread * (1.0 + np.sin(freq * t + np.arange(dim)))
            return (basis * (eigs * abs(xi) ** s)) @ basis.T

        sym = kernels.FrozenSymbol(s=s, c0=c0, dim_N=dim, eval=symbol_eval)
        khat = kernels.frozen_kernel_hat(sym, t=0.5, xi_grid=[1.0, 4.0])
        worst = max(worst, khat.frobenius_excess())
    ok = worst <= 1.0 + 1e-6
    assert _line(4, "frozen kernel decay bound", ok,
                 f"max Frobenius excess = {worst:.9f} over 200 symbols")


def test_ac05_heat_smoothing_rate():
    u0 = triangle(512, 0.15 * np.pi)
    traj = evolve(HeatModel(), u0, 1e-2, StepperConfig(dt=1e-5),
                  LedgerSpec(stride=1, derivative_sup=(2,)))
    rep = smoothing_report(traj, s=2.0, targets=[(1, 0.0)],
                           window=(1e-4, 1e-2))[0]
    ok = abs(rep.fit.estimate + 0.5) <= 0.05
    assert _line(5, "heat smoothing rate", ok,
                 f"fitted exponent = {rep.fit.estimate:.4f}, "
                 f"target -0.50 +/- 0.05")


def test_ac06_mcf_smoothing_rate():
    u0 = triangle(512, 0.15 * np.pi)  # sup |u0'| = 0.3
    traj = evolve(McfGraphModel(), u0, 1e-2, StepperConfig(dt=1e-5),
                  LedgerSpec(stride=1, derivative_sup=(2,)))
    rep = smoothing_report(traj, s=2.0, targets=[(1, 0.0)],
                           window=(1e-4, 1e-2))[0]
    ok = abs(rep.fit.estimate + 0.5) <= 0.1
    assert _line(6, "graph MCF smoothing rate", ok,
                 f"fitted exponent = {rep.fit.estimate:.4f}, "
                 f"target -0.5 +/- 0.1")


def test_ac07_muskat_smoothing_and_mean():
    u0 = triangle(512, 0.05)
    traj = evolve(MuskatStModel(rho0=0.0), u0, 1e-4, StepperConfig(dt=2e-7),
                  LedgerSpec(stride=1, derivative_sup=(2,)))
    # accumulated step times land a few ulp short of 1e-4; use the last sample
    rep = smoothing_report(traj, s=3.0, targets=[(1, 0.0)],
                           window=(1e-6, float(traj.times()[-1])))[0]
    means = traj.series("mean")
    drift = float(np.max(np.abs(means - means[0])))
    ok = abs(rep.fit.estimate + 1.0 / 3.0) <= 0.1 and drift <= 1e-10
    assert _line(7, "Muskat smoothing rate", ok,
                 f"fitted exponent = {rep.fit.estimate:.4f} "
                 f"(target -1/3 +/- 0.1), mean drift = {drift:.3e}")


def test_ac08_surface_diffusion_decay():
    x = grid_x(256)
    h0 = PeriodicField(2.0 + 0.01 * np.cos(x))
    traj = evolve(SurfaceDiffusionModel(hbar0=2.0), h0, 1.0,
                  StepperConfig(dt=1e-3), LedgerSpec(stride=10))
    fit = fit_exponential(traj.times(), traj.series("osc_linf"),
                          window=(0.1, 0.9))
    l2 = traj.series("l2")
    drift = float(np.max(np.abs(l2**2 - l2[0] ** 2)) / l2[0] ** 2)
    ok = abs(fit.estimate - 0.75) <= 0.05 * 0.75 and drift <= 1e-6
    assert _line(8, "surface diffusion decay", ok,
                 f"decay rate = {fit.estimate:.4f} (target 0.75 +/- 5%), "
                 f"volume drift = {drift:.3e}")


def test_ac09_periodic_kernel_decay():
    floor = kernels.sd_decay_floor(2.0)
    times = np.linspace(0.1, 5.0, 50)
    l1 = [float(np.sum(np.abs(kernels.periodic_sd_kernel(t, 2.0, 256).samples))
                * (TWO_PI / 256)) for t in times]
    fit = fit_exponential(times, l1, window=(0.1, 5.0))
    ok = fit.estimate >= floor
    assert _line(9, "periodic kernel decay", ok,
                 f"fitted rate = {fit.estimate:.4f} >= floor {floor:.4f}")


def test_ac10_peskin_circle_dynamics():
    theta_nodes = TWO_PI * np.arange(128) / 128
    circle = PeriodicField(np.stack([np.cos(theta_nodes),
                                     np.sin(theta_nodes)]))
    model = Peskin2dModel()
    stationary = float(np.max(np.abs(model.rhs(circle).samples)))

    ellipse = PeriodicField(np.stack([1.1 * np.cos(theta_nodes),
                                      0.9 * np.sin(theta_nodes)]))
    traj = evolve(model, ellipse, 5.0, StepperConfig(dt=0.01),
                  LedgerSpec(stride=10))
    theta = traj.series("theta")
    theta_ok = bool(np.all(theta <= 2.0 * theta[0]))

    area0 = enclosed_area(traj.snapshots[0][1])
    area_drift = max(abs(enclosed_area(w) - area0) / abs(area0)
                     for _, w in traj.snapshots)

    distances = []
    for _, w in traj.snapshots:
        xs, ys = w.samples
        r = np.hypot(xs - xs.mean(), ys - ys.mean())
        distances.append(float(np.max(np.abs(r - r.mean()))))
    fit = fit_exponential(traj.times(), distances, window=(0.2, 4.0))

    ok = (stationary <= 1e-6 and theta_ok and fit.r_squared >= 0.98
          and area_drift <= 5e-3)
    assert _line(10, "Peskin circle dynamics", ok,
                 f"|rhs(circle)| = {stationary:.2e}, "
                 f"max theta/theta0 = {float(np.max(theta/theta[0])):.3f}, "
                 f"log-linear R^2 = {fit.r_squared:.6f}, "
                 f"area drift = {area_drift:.2e}")


def test_ac11_thinfilm_smoothing_and_mean():
    u0 = triangle(512, 2e-3)  # Lipschitz second derivative
    traj = evolve(ThinfilmExpModel(), u0, 1e-2, StepperConfig(dt=1e-5),
                  LedgerSpec(stride=1, derivative_sup=(3,)))
    rep = smoothing_report(traj, s=4.0, targets=[(2, 0.0)],
                           window=(1e-4, 1e-2))[0]
    means = traj.series("mean")
    drift = float(np.max(np.abs(means - means[0])))
    ok = abs(rep.fit.estimate + 0.5) <= 0.1 and drift <= 1e-10
    assert _line(11, "thin film smoothing rate", ok,
                 f"fitted exponent = {rep.fit.estimate:.4f} "
                 f"(target -0.5 +/- 0.1), mean drift = {drift:.3e}")


def test_ac12_picard_contraction():
    x = grid_x(128)
    u0 = PeriodicField(0.05 * np.sin(x))  # sup |u0'| = 0.05
    config = StepperConfig(dt=2e-3, scheme="imex_frozen_phi")
    _, log = picard_solve(McfGraphModel(), u0, 0.1, config)
    rep = contraction_report(log)
    ok = rep.contractive and rep.r_squared >= 0.95
    assert _line(12, "Picard contraction", ok,
                 f"max ratio = {rep.max_ratio:.3e}, "
                 f"geometric fit R^2 = {rep.r_squared:.4f}")


def test_ac13_freezing_consistency():
    x = grid_x(128)
    u0 = PeriodicField(0.4 * np.cos(x) + 0.1 * np.sin(2 * x))
    model = VarCoefHeatModel()
    horizon = 0.02

    gaps = []
    for dt in (2e-3, 1e-3, 5e-4):
        steps = int(round(horizon / dt))
        pointwise = mean_frozen = u0
        for _ in range(steps):
            pointwise = frozen_pointwise_step(pointwise, model, dt)
            mean_frozen = imex_frozen_phi_step(mean_frozen, model, dt,
                                               scheme="imex_frozen_phi")[0]
        gaps.append(float(np.max(np.abs(pointwise.samples
                                        - mean_frozen.samples))))
    orders = [np.log2(gaps[i] / gaps[i + 1]) for i in range(2)]
    ok = all(abs(order - 1.0) <= 0.2 for order in orders)
    assert _line(13, "freezing consistency", ok,
                 f"gap orders in dt = {orders[0]:.3f}, {orders[1]:.3f} "
                 f"(target 1.0 +/- 0.2)")


def test_ac14_fractional_mcf_smoothing_rate():
    # s = 1 + a: the first derivative's Lipschitz constant smooths at
    # t^{-1/(1+a)} from a Lipschitz triangle
    u0 = triangle(256, 0.15 * np.pi)
    exponents, ok = [], True
    for a in (0.25, 0.5, 0.75):
        traj = evolve(NonlocalMcfModel(a=a), u0, 2e-2, StepperConfig(dt=1e-4),
                      LedgerSpec(stride=1, derivative_sup=(2,)))
        rep = smoothing_report(traj, s=1.0 + a, targets=[(1, 0.0)],
                               window=(1e-3, 2e-2))[0]
        exponents.append(rep.fit.estimate)
        ok = ok and abs(rep.fit.estimate - rep.expected_exponent) <= 0.05
    assert _line(14, "fractional MCF smoothing rate", ok,
                 "fitted exponents = " + ", ".join(f"{e:.4f}" for e in exponents)
                 + " for a = 0.25, 0.5, 0.75 (targets -1/(1+a) +/- 0.05)")
