"""Stochastic integrator, noise process, and trajectory estimators."""

import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.signal import welch

import estimator_oracle
import sde_oracle
from nmpo import sde
from nmpo.errors import (
    InsufficientSamples,
    NonStationary,
    ParameterError,
    SlowPumpWarning,
    StepOverflow,
)
from nmpo.linres import build_diffusion
from nmpo.meanfield import steady_state
from nmpo.model import SystemParams
from nmpo.sde import (
    BLOCK,
    RECORDABLE,
    SimConfig,
    Trajectory,
    _unwrap,
    estimate_order_parameters,
    estimate_quadrature_variances,
    integrate_ensemble,
    _ou_coefficients,
    _start_row,
    integrate_trajectory,
    lockstep_key,
)
from nmpo.spectra import integrate_variances, psd, variances_u1xz2


def params(mu, kappa, gammaP=20.0, nth=0.0, nth_p=None):
    return SystemParams.from_kappa(
        gamma0=1.0, gammaP=gammaP, kappa=kappa, g=0.01, mu=mu,
        n_th_i=nth, n_th_s=nth, n_th_P=nth if nth_p is None else nth_p,
    )


def config(**kw):
    base = dict(dt=0.005, t_burn=40.0, t_sample=50.0, n_traj=4, seed=1)
    base.update(kw)
    return SimConfig(**base)


# === configuration validation =================================================


def test_config_field_validation_collects_violations():
    with pytest.raises(ParameterError) as exc:
        SimConfig(dt=-1.0, t_burn=-2.0, t_sample=0.0, n_traj=0, seed=-1,
                  scheme="rk4", record_stride=0, record_fields=("A_i", "bogus"))
    fields = {f for f, _ in exc.value.violations}
    assert {"dt", "t_burn", "t_sample", "n_traj", "seed", "scheme",
            "record_stride", "record_fields"} <= fields


@pytest.mark.parametrize(
    "field, value",
    [("n_traj", 2.5), ("n_traj", True), ("n_traj", "4"), ("n_traj", np.float64(4.0)),
     ("record_stride", 2.5), ("record_stride", True), ("record_stride", None)],
)
def test_config_counts_must_be_integers(field, value):
    with pytest.raises(ParameterError) as exc:
        config(**{field: value})
    assert exc.value.violations == [(field, f"must be an integer >= 1, got {value!r}")]
    # numpy integers are counts too
    assert getattr(config(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("seed", [True, False, np.bool_(True), -1, 1.0, "3"])
def test_config_seed_must_be_a_non_negative_integer(seed):
    # bool is an int subclass; the seed refuses it as n_traj and record_stride do.
    with pytest.raises(ParameterError) as exc:
        config(seed=seed)
    assert exc.value.violations == [("seed", f"must be a non-negative integer, got {seed!r}")]
    assert config(seed=np.int64(3)).seed == 3 and config(seed=0).seed == 0


@pytest.mark.parametrize(
    "times, field",
    [
        (dict(dt=math.inf), "dt"),
        (dict(t_burn=math.inf), "t_burn"),
        (dict(t_burn=math.nan), "t_burn"),
        (dict(t_sample=math.inf), "t_sample"),
        (dict(dt=1e-300, t_sample=1e300), "t_sample"),  # the step count overflows
    ],
)
def test_config_requires_finite_times_and_step_counts(times, field):
    with pytest.raises(ParameterError) as exc:
        config(**times)
    assert [f for f, _ in exc.value.violations] == [field]


def test_config_step_and_burn_floors():
    p = params(0.5, 1.0)
    with pytest.raises(ParameterError) as exc:
        config(dt=0.01).check_against(p)
    assert exc.value.violations[0][0] == "dt"
    with pytest.raises(ParameterError) as exc:
        config(t_burn=5.0).check_against(p)
    assert exc.value.violations[0][0] == "t_burn"
    # exactly at both floors is accepted
    config(dt=0.005, t_burn=20.0).check_against(p)
    # memory time enters both floors
    slow = params(0.5, 0.05)  # tau_r = 20
    with pytest.raises(ParameterError):
        config(dt=0.005, t_burn=40.0).check_against(slow)
    config(dt=0.005, t_burn=400.0).check_against(slow)


# === colored-noise forces ====================================================


def _force_c0(p):
    """Stationary complex variance <|f|^2> of the colored forces."""
    return 8.0 * p.g**2 / (p.gamma0**2 * p.gammaP * p.tau_r) * (p.n_th_i + 0.5)


def _mean_and_se(per_traj):
    return per_traj.mean(), per_traj.std(ddof=1) / math.sqrt(per_traj.size)


def test_ou_step_reaches_stationary_variance_in_one_long_step():
    # One exact step over dt >> tau_r forgets the start: <|f|^2> -> c0.
    rng = np.random.default_rng(1)
    decay, eta = _ou_coefficients(2.5, 50.0, 1.0)
    z = rng.standard_normal((2, 200_000))
    out = np.zeros(200_000, complex) * decay + eta * (z[0] + 1j * z[1])
    assert out.real.var() + out.imag.var() == pytest.approx(2.5, rel=0.02)
    assert abs(out.mean()) < 0.02


def test_ou_step_autocorrelation_decay():
    # The forces the integrator records have <conj f(t) f(t + k Delta)> =
    # C0 e^{-k Delta / tau_r} (k = 0 is the stationary variance), each
    # estimated per trajectory and checked to 4 standard errors across the
    # independent trajectories.
    p = params(0.5, 1.0, nth=0.3)
    cfg = config(t_burn=20.0, t_sample=10.0, n_traj=400, record_stride=2,
                 record_fields=("f_i", "f_s"))
    tr = integrate_trajectory(p, cfg)
    c0 = _force_c0(p)
    lag = 2 * cfg.dt
    for f in (tr.f_i, tr.f_s):
        mean, se = _mean_and_se(np.mean(np.abs(f) ** 2, axis=0) / c0)
        assert abs(mean - 1.0) < 4 * se
        for k in (1, 10, 50):
            corr = np.mean((np.conj(f[:-k]) * f[k:]).real, axis=0) / c0
            mean, se = _mean_and_se(corr)
            assert abs(mean - math.exp(-k * lag / p.tau_r)) < 4 * se


def test_noise_free_forces_decay_exactly():
    # With noise off the update is f -> f e^{-dt/tau_r}: after n steps the
    # recorded force is f0 e^{-n dt/tau_r} up to one rounding per step.
    p = params(0.5, 2.0)
    cfg = config(t_burn=20.0, t_sample=10.0, n_traj=2, record_stride=5,
                 record_fields=("f_i", "f_s"), noise=False)
    f0 = np.array([1.0 + 2.0j, -0.5j])
    tr = integrate_trajectory(p, cfg, initial={"f_i": f0, "f_s": 3.0})
    n = np.rint((cfg.t_burn + tr.t) / cfg.dt)
    decay = np.exp(-n * cfg.dt / p.tau_r)[:, None]
    rtol = n[-1] * np.finfo(float).eps
    assert np.allclose(tr.f_i, f0 * decay, rtol=rtol, atol=0)
    assert np.allclose(tr.f_s, 3.0 * decay, rtol=rtol, atol=0)


@pytest.mark.parametrize("kappa", [math.inf, 0.3])
@pytest.mark.parametrize("nth_i,nth_s", [(0.3, 0.3), (0.7, 0.1)])
@pytest.mark.parametrize("pump_noise", [True, False])
def test_one_step_noise_covariance_is_the_diffusion(kappa, nth_i, nth_s, pump_noise):
    # The per-step noise of the integrator is the white-noise diffusion D of
    # the linear response, times dt: on the quadratures x+- = (A_i +- A_s)/sqrt 2
    # when Markovian, through the OU forces on the memory variables otherwise.
    # Pump noise follows the phase: on at mu = 2 (broken at both kappa), off
    # at mu = 0.5.
    p = SystemParams.from_kappa(
        gamma0=1.3, gammaP=130.0, kappa=kappa, g=0.02, mu=2.0 if pump_noise else 0.5,
        n_th_i=nth_i, n_th_s=nth_s, n_th_P=0.4,
    )
    fastest, slowest = p.timescales
    cfg = config(dt=fastest / 25.0, t_burn=20.0 * slowest)
    row = _start_row(p, cfg, None)
    assert row.pumped is pump_noise
    w_i, w_s, w_p = row.amp
    d = build_diffusion(p, steady_state(p))
    assert w_p**2 == pytest.approx(d[2, 2] * cfg.dt, rel=1e-14, abs=0.0)
    assert d[2, 2] == d[5, 5]
    if p.markovian:
        for q in (0, 3):
            assert w_i**2 == pytest.approx((d[q, q] + d[q, q + 1]) * cfg.dt, rel=1e-14)
            assert w_s**2 == pytest.approx((d[q, q] - d[q, q + 1]) * cfg.dt, rel=1e-14)
        return
    # c0 from the OU step scales: an OU force of stationary variance c0 and
    # correlation time tau_r has white-noise power c0 / tau_r, scaled by gamma0^2.
    c0_i, c0_s = (2.0 * w**2 / (1.0 - row.decay**2) for w in (w_i, w_s))
    for q in (6, 8):
        assert p.gamma0**2 * c0_i / p.tau_r == pytest.approx(d[q, q] + d[q, q + 1], rel=1e-14)
        assert p.gamma0**2 * c0_s / p.tau_r == pytest.approx(d[q, q] - d[q, q + 1], rel=1e-14)


# === integrator basics ========================================================


def test_noise_free_decay_below_threshold():
    p = params(0.5, 1.0)
    tr = integrate_trajectory(p, config(t_burn=20.0, t_sample=10.0, noise=False))
    assert np.max(np.abs(tr.A_i)) < 1e-5
    assert np.max(np.abs(tr.A_s)) < 1e-5
    # pump settles on its driven value i*mu
    assert np.max(np.abs(tr.A_P - 0.5j)) < 1e-8


def test_recording_grid_and_shapes():
    p = params(0.5, 1.0)
    cfg = config(t_sample=10.0, n_traj=3, record_stride=4)
    tr = integrate_trajectory(p, cfg)
    n_expect = int(round(10.0 / 0.005)) // 4
    assert tr.A_i.shape == (n_expect, 3)
    assert tr.t[0] == pytest.approx(4 * 0.005)
    assert np.allclose(np.diff(tr.t), 4 * 0.005)
    assert np.all(np.isfinite(tr.A_i.real)) and np.all(np.isfinite(tr.A_P.imag))


def test_record_field_subsets():
    p = params(0.5, 1.0)
    tr = integrate_trajectory(p, config(t_sample=5.0, record_fields=("A_i", "f_i")))
    assert tr.A_i is not None and tr.f_i is not None
    assert tr.A_s is None and tr.A_P is None and tr.c_i is None


def test_initial_state_handling():
    p = params(0.5, 1.0)
    cfg = config(t_burn=20.0, t_sample=5.0, n_traj=3, noise=False)
    tr = integrate_trajectory(p, cfg, initial={"A_i": 0.5j, "A_s": np.array([0.1, 0.2, 0.3]),
                                               "c_i": 0.0, "f_i": 0.0})
    assert tr.A_i.shape[1] == 3
    with pytest.raises(ParameterError):
        integrate_trajectory(p, cfg, initial={"A_s": np.array([0.1, 0.2])})
    with pytest.raises(ParameterError):
        integrate_trajectory(p, cfg, initial={"A_q": 1.0})


def test_markovian_rejects_memory_fields():
    p = params(0.5, math.inf)
    cfg = config(t_burn=20.0, t_sample=5.0)
    with pytest.raises(ParameterError):
        integrate_trajectory(p, cfg, initial={"c_i": 1.0})
    with pytest.raises(ParameterError):
        integrate_trajectory(p, SimConfig(dt=0.005, t_burn=20.0, t_sample=5.0, n_traj=2,
                                          seed=0, record_fields=("A_i", "f_s")))
    tr = integrate_trajectory(p, cfg)
    assert tr.c_i is None and tr.f_s is None
    assert np.all(np.isfinite(tr.A_i.real))


def test_seed_determinism_is_bit_exact():
    p = params(0.8, 0.5, nth=0.2)
    tr1 = integrate_trajectory(p, config(t_sample=5.0, seed=42))
    tr2 = integrate_trajectory(p, config(t_sample=5.0, seed=42))
    assert np.array_equal(tr1.A_i, tr2.A_i)
    assert np.array_equal(tr1.A_P, tr2.A_P)
    tr3 = integrate_trajectory(p, config(t_sample=5.0, seed=43))
    assert not np.array_equal(tr3.A_i, tr1.A_i)


def test_step_overflow_reported():
    # drive strong enough that the parametric gain outruns the step size
    p = params(2000.0, 1.0)
    cfg = config(t_burn=20.0, t_sample=10.0, noise=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(StepOverflow):
            integrate_trajectory(p, cfg, initial={"A_i": 1.0, "A_s": 1.0})


def test_pump_noise_defaults_by_phase():
    below = integrate_trajectory(params(0.5, 1.0, nth=1.0), config(t_sample=20.0, n_traj=8))
    # pump force off below threshold: A_P pinned to i*mu up to the tiny
    # feedback through the signal-idler product
    assert np.max(np.abs(below.A_P - 0.5j)) < 1e-3
    above = integrate_trajectory(params(2.0, 1.0, nth=1.0), config(t_sample=20.0, n_traj=8))
    assert np.std(above.A_P.real) > 1e-4


# === order-parameter estimation ===============================================


def test_order_estimator_sample_requirements():
    p = params(0.5, 1.0)
    single = integrate_trajectory(p, config(t_sample=10.0, n_traj=1))
    with pytest.raises(InsufficientSamples):
        estimate_order_parameters(single)
    short = integrate_trajectory(p, config(t_sample=0.05, t_burn=20.0, n_traj=4))
    with pytest.raises(InsufficientSamples):
        estimate_order_parameters(short)
    ok = integrate_trajectory(p, config(t_sample=10.0, n_traj=4))
    with pytest.raises(InsufficientSamples):
        estimate_order_parameters(ok, window=9.0)
    no_signal = integrate_trajectory(p, config(t_sample=10.0, record_fields=("A_i",)))
    for estimate in (estimate_order_parameters, estimate_quadrature_variances):
        with pytest.raises(InsufficientSamples, match="'A_s'"):
            estimate(no_signal)


@pytest.mark.parametrize("window", [0.0, -1.0, -math.inf, math.inf, math.nan, 1e308])
def test_order_estimator_window_must_be_a_finite_positive_width(window):
    # 1e308 is finite, but not a finite number of samples at cadence 0.005;
    # a window that is not a finite width is named before the samples' needs
    checks = [lambda: sde.check_samples(4, 2000, (0.005, 0.01), window)]
    if not 0 < window < math.inf:
        checks.append(lambda: sde.check_samples(1, 0, None, window))
    for check in checks:
        with pytest.raises(ParameterError) as info:
            check()
        assert type(info.value) is ParameterError
        assert [name for name, _ in info.value.violations] == ["window"]


@pytest.mark.parametrize("t", [(0.0, 0.0), (0.01, 0.0), (math.nan, 0.0), (0.0, math.inf)])
def test_order_estimator_cadence_must_be_finite_and_positive(t):
    # equal, decreasing, NaN and infinite record times: the cadence is named,
    # not a division by zero, a negative sample count or the window
    with pytest.raises(ParameterError) as info:
        sde.check_samples(4, 2000, t, 5.0)
    assert type(info.value) is ParameterError
    assert [name for name, _ in info.value.violations] == ["t"]


def test_order_parameters_static_broken_phase():
    p = params(2.0, 1.0)
    tr = integrate_trajectory(p, config(t_sample=150.0, n_traj=48, record_stride=10, seed=11))
    est = estimate_order_parameters(tr)
    assert est.amp_mean == pytest.approx(1.0, rel=0.02)
    assert not est.branch_locked
    assert abs(est.delta_est) <= 2.0 * est.delta_se
    assert est.n_traj == 48


def test_order_parameters_rotating_phase():
    p = params(1.0, 0.2)
    cfg = config(t_burn=120.0, t_sample=200.0, n_traj=64, record_stride=10, seed=12)
    est = estimate_order_parameters(integrate_trajectory(p, cfg))
    assert est.branch_locked
    assert est.delta_est == pytest.approx(0.2449489743, rel=0.02)
    assert est.amp_mean == pytest.approx(math.sqrt(0.6), rel=0.03)
    assert est.var_phi_dot > 0
    assert est.window == pytest.approx(5.0)


# === quadrature-variance estimation ===========================================


def test_quadrature_estimator_frame_validation():
    p = params(0.5, 1.0)
    tr = integrate_trajectory(p, config(t_sample=10.0))
    with pytest.raises(ParameterError):
        estimate_quadrature_variances(tr, frame="lab")


def test_quadrature_variances_thermal():
    # window >> correlation time: per-trajectory mean subtraction biases the
    # sample variance by ~2 tau_c / T, so T = 300 keeps it nearer 1%
    p = params(0.0, 1.0, nth=0.5)
    tr = integrate_trajectory(p, config(t_sample=300.0, n_traj=64, record_stride=4, seed=21))
    rep = estimate_quadrature_variances(tr)
    for lab, val in rep.normalized().items():
        assert val == pytest.approx(1.0, rel=0.05)
    assert rep.stderr is not None and max(rep.stderr.values()) < 0.05
    assert not any(rep.divergent.values())


def test_quadrature_variances_match_theory_above_threshold():
    p = params(2.0, 1.0)
    tr = integrate_trajectory(p, config(t_sample=200.0, n_traj=48, record_stride=4, seed=22))
    rep = estimate_quadrature_variances(tr)
    th = integrate_variances(psd(p, steady_state(p), omega_grid=()))
    assert math.isinf(rep.sigma_x_minus) and rep.divergent["x-"]
    assert rep.sigma_x_plus == pytest.approx(th.sigma_x_plus, rel=0.10)
    assert rep.sigma_y_plus == pytest.approx(th.sigma_y_plus, rel=0.10)
    assert rep.sigma_y_minus == pytest.approx(th.sigma_y_minus, rel=0.10)


def test_quadrature_variances_corotating_frame():
    p = params(1.0, 0.2)
    cfg = config(t_burn=120.0, t_sample=400.0, n_traj=48, record_stride=4, seed=23)
    rep = estimate_quadrature_variances(integrate_trajectory(p, cfg), frame="corotating")
    th = variances_u1xz2(p)
    assert math.isinf(rep.sigma_x_minus) and rep.divergent["x-"]
    assert rep.sigma_x_plus == pytest.approx(th.sigma_x_plus, rel=0.10)
    assert rep.sigma_y_plus == pytest.approx(th.sigma_y_plus, rel=0.10)
    assert rep.sigma_y_minus == pytest.approx(th.sigma_y_minus, rel=0.10)


def test_quadrature_estimator_flags_transients():
    p = params(0.95, 1.0)
    cfg = config(t_burn=20.0, t_sample=80.0, n_traj=16, seed=24)
    tr = integrate_trajectory(p, cfg, initial={"A_i": 1.0})
    with pytest.raises(NonStationary):
        estimate_quadrature_variances(tr)


# === statistical physics properties ===========================================


def test_z2_ergodicity_breaking():
    # individual trajectories keep one rotation sense; the ensemble samples
    # both branches symmetrically
    p = params(1.0, 0.2, nth=0.01)
    cfg = config(t_burn=120.0, t_sample=600.0, n_traj=16, record_stride=20, seed=31)
    tr = integrate_trajectory(p, cfg)
    phi_d = np.unwrap(np.angle(tr.A_i) - np.angle(tr.A_s), axis=0)
    slopes = np.polyfit(tr.t, phi_d, 1)[0]
    assert np.any(slopes > 0) and np.any(slopes < 0)
    assert abs(slopes.mean()) < 0.6 * 2 * 0.2449
    # windowed slopes never change sign within a trajectory
    n_win = 12
    edges = np.linspace(0, phi_d.shape[0], n_win + 1, dtype=int)
    for j in range(tr.A_i.shape[1]):
        signs = []
        for a, b in zip(edges[:-1], edges[1:]):
            signs.append(np.sign(np.polyfit(tr.t[a:b], phi_d[a:b, j], 1)[0]))
        assert len(set(signs)) == 1


def test_scheme_consistency():
    p = params(0.5, 1.0)
    runs = {
        "heun": config(t_sample=200.0, n_traj=150, record_stride=4, seed=7),
        "euler": config(t_sample=200.0, n_traj=150, record_stride=4, seed=8,
                        scheme="euler-maruyama"),
        "fine": config(dt=0.0025, t_sample=200.0, n_traj=150, record_stride=8, seed=9),
    }
    reports = {k: estimate_quadrature_variances(integrate_trajectory(p, c))
               for k, c in runs.items()}
    vals = {k: r.sigma_x_plus for k, r in reports.items()}
    errs = {k: r.stderr["x+"] for k, r in reports.items()}
    names = list(runs)
    for a in names:
        for b in names:
            if a < b:
                assert abs(vals[a] - vals[b]) <= 3.0 * math.hypot(errs[a], errs[b])
    assert vals["heun"] == pytest.approx(2 * 1.0 / (1.5 * 2.5), rel=0.05)


def test_welch_spectrum_matches_linear_theory():
    p = params(0.5, 1.0)
    cfg = config(t_sample=300.0, n_traj=250, record_stride=2, seed=6,
                 record_fields=("A_i", "A_s"))
    tr = integrate_trajectory(p, cfg)
    xp = (tr.A_i.real + tr.A_s.real) / math.sqrt(2.0)
    fs = 1.0 / (0.005 * 2)
    freq, pxx = welch(xp, fs=fs, nperseg=4096, axis=0, detrend=False)
    om = 2.0 * math.pi * freq
    s_num = pxx.mean(axis=1) / (4.0 * math.pi)  # one-sided per-Hz -> two-sided per-rad/s
    sel = (om > 0.05) & (om <= 5.0)
    sd = psd(p, steady_state(p), omega_grid=om[sel])
    s_th = np.array([m[0, 0].real for m in sd.matrices])
    rel = np.abs(s_num[sel] / s_th - 1.0)
    assert rel.max() < 0.10


# === bit identity with the per-step reference integrator ======================

# gamma0 = 1.3 makes 1j * gamma0 an inexact factor, so a reassociated product
# changes low bits.  gammaP = 10 gamma0 allows dt = 0.0075 and a burn-in of
# 2053 steps; no case below is a whole number of noise blocks.
ORACLE_BASE = dict(dt=0.0075, t_burn=15.4, t_sample=1.03, n_traj=3, seed=3, record_stride=3)


NEG_ZERO = complex(-0.0, -0.0)


def oracle_params(mu, kappa, nth=0.3):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowPumpWarning)
        return SystemParams.from_kappa(gamma0=1.3, gammaP=13.0, kappa=kappa, g=0.01, mu=mu,
                                       n_th_i=nth, n_th_s=nth, n_th_P=0.1)


def assert_same_records(got, want):
    # Bytes, not values: np.array_equal counts -0.0 equal to +0.0.
    for name in ("t",) + RECORDABLE:
        a, b = getattr(got, name), getattr(want, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert a.shape == b.shape and a.dtype == b.dtype, name
            assert np.array_equal(np.ascontiguousarray(a).view(np.uint8),
                                  np.ascontiguousarray(b).view(np.uint8)), name


@pytest.mark.parametrize(
    "mu, kappa, cfg, initial",
    [
        # memory rows: Heun and Euler, pumped (mu = 2) and unpumped (mu = 0.5)
        (0.5, 1.0, dict(record_fields=RECORDABLE), None),
        (2.0, 1.5, dict(record_fields=("A_i", "c_i", "f_s"), scheme="euler-maruyama"), None),
        (2.0, 1.0, dict(record_stride=1), None),
        (0.5, 1.0, dict(n_traj=1), None),
        (0.5, 1.0, dict(noise=False, record_fields=RECORDABLE), None),
        (0.5, 1.0, dict(record_fields=RECORDABLE),
         {"A_i": 0.5j, "A_s": np.array([0.1, 0.2, -0.3j]), "c_i": 0.0, "f_i": 0.2}),
        # Markovian rows
        (0.5, math.inf, dict(), None),
        (2.0, math.inf, dict(scheme="euler-maruyama"), None),
        (2.0, math.inf, dict(n_traj=1, record_stride=1), None),
        (0.5, math.inf, dict(noise=False), {"A_P": 0.4j}),
        # signed zeros on rows without white noise, whose zero-noise add is skipped:
        # an unpumped memory row, and a Markovian row whose first two lanes stay
        # at the zero fixed point
        (0.5, 1.0, dict(record_fields=RECORDABLE),
         {"A_P": NEG_ZERO, "c_i": NEG_ZERO, "f_s": NEG_ZERO}),
        (0.5, math.inf, dict(noise=False, record_stride=1),
         {"A_i": NEG_ZERO, "A_s": np.array([NEG_ZERO, -0.0, 0.1]), "A_P": NEG_ZERO}),
    ],
)
def test_integrator_is_bit_identical_to_the_oracle(mu, kappa, cfg, initial):
    p = oracle_params(mu, kappa)
    c = SimConfig(**{**ORACLE_BASE, **cfg})
    assert (round(c.t_burn / c.dt) + round(c.t_sample / c.dt)) % BLOCK != 0
    got = integrate_trajectory(p, c, initial=initial)
    want = sde_oracle.integrate_trajectory(p, c, initial=initial)
    assert_same_records(got, want)


def test_step_overflow_matches_the_oracle():
    p = oracle_params(2000.0, 1.0)
    c = SimConfig(**{**ORACLE_BASE, "noise": False, "t_sample": 10.0})
    start = {"A_i": 1.0, "A_s": 1.0}
    with pytest.raises(StepOverflow) as want:
        sde_oracle.integrate_trajectory(p, c, initial=start)
    with pytest.raises(StepOverflow) as got:
        integrate_trajectory(p, c, initial=start)
    assert str(got.value) == str(want.value)


# Two rows of 128 lanes: enough that numpy releases the GIL inside the step
# loop, so the helper thread really draws the next noise block while the
# loop reads the current one.
WIDE = dict(n_traj=128)


def wide_rows(p, **cfg):
    return [(p, SimConfig(**{**ORACLE_BASE, **WIDE, **cfg, "seed": seed})) for seed in (3, 4)]


@pytest.mark.parametrize("mu, kappa", [(2.0, 1.0), (0.5, math.inf)])
@pytest.mark.parametrize(
    "plan, steps",
    [
        # no burn-in floor: the whole run is 20 steps, one partial noise block
        (dict(t_burn=0.0, t_sample=0.15, record_stride=1), 20),
        # 2080 + 128 steps: 69 whole noise blocks
        (dict(t_burn=15.6, t_sample=0.96), 69 * BLOCK),
    ],
    ids=["one-partial-block", "whole-blocks"],
)
def test_block_edges_are_bit_identical_to_the_oracle(monkeypatch, mu, kappa, plan, steps):
    monkeypatch.setattr(sde, "_BURN_FACTOR", 0.0)
    p = oracle_params(mu, kappa)
    fields = RECORDABLE if kappa < math.inf else ("A_i", "A_s", "A_P")
    rows = wide_rows(p, **plan, record_fields=fields)
    c = rows[0][1]
    assert round(c.t_burn / c.dt) + round(c.t_sample / c.dt) == steps
    # switch threads often, so a block overwritten while in use would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = integrate_ensemble(rows)
    finally:
        sys.setswitchinterval(interval)
    for (p, c), tr in zip(rows, got):
        assert_same_records(tr, sde_oracle.integrate_trajectory(p, c))


class _Unstarted:
    """An executor whose work never begins: the loop draws every block."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        return Future()


class _Eager(_Unstarted):
    """An executor that finishes each block as it is handed over."""

    def submit(self, fn, *args):
        done = Future()
        done.set_result(fn(*args))
        return done


@pytest.mark.parametrize("executor", [_Unstarted, _Eager], ids=["loop-draws", "helper-draws"])
@pytest.mark.parametrize("mu, kappa", [(2.0, 1.0), (0.5, math.inf)])
def test_blocks_drawn_by_the_loop_or_the_helper_match_the_oracle(monkeypatch, executor, mu, kappa):
    monkeypatch.setattr(sde, "ThreadPoolExecutor", lambda workers: executor())
    rows = wide_rows(oracle_params(mu, kappa), t_sample=1.0)
    for (p, c), tr in zip(rows, integrate_ensemble(rows)):
        assert_same_records(tr, sde_oracle.integrate_trajectory(p, c))


def test_no_thread_outlives_an_integration():
    before = threading.active_count()
    integrate_ensemble(wide_rows(oracle_params(0.5, 1.0)))
    assert threading.active_count() == before
    # the overflow of test_step_overflow_matches_the_oracle, without and with noise
    p = oracle_params(2000.0, 1.0)
    for noise in (False, True):
        with pytest.raises(StepOverflow):
            integrate_ensemble(wide_rows(p, noise=noise, t_sample=10.0))
        assert threading.active_count() == before


def test_a_failed_noise_draw_surfaces_and_stops_the_helper(monkeypatch):
    # The third block is drawn while the loop steps through the second, on
    # the helper thread or, if it has not begun, by the loop; either way its
    # error reaches the caller.
    class FailingDraws:
        def __init__(self, rng):
            self.rng, self.calls = rng, 0

        def standard_normal(self, *args, **kwargs):
            self.calls += 1
            if self.calls == 3:
                raise RuntimeError("draw failed")
            return self.rng.standard_normal(*args, **kwargs)

    start_row = sde._start_row

    def failing_start(*args):
        row = start_row(*args)
        row.rng = FailingDraws(row.rng)
        return row

    monkeypatch.setattr(sde, "_start_row", failing_start)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="draw failed"):
        integrate_ensemble(wide_rows(oracle_params(0.5, 1.0)))
    assert threading.active_count() == before


@pytest.mark.parametrize("scheme", ["stochastic-heun", "euler-maruyama"])
@pytest.mark.parametrize(
    "points, pumped",
    [
        # mu = 0.9: the kappa = 0.3 row is u1xz2, the kappa >= 1 rows disordered
        (((0.9, 0.3), (0.9, 1.0), (0.9, 2.0)), [True, False, False]),
        (((0.9, math.inf), (0.9, math.inf)), [False, False]),
        # rows that differ in the drive: disordered at mu = 0.3, u1xz2 at
        # (0.9, 0.3), u1 at mu = 1.7
        (((0.3, 1.0), (0.9, 0.3), (1.7, 1.0)), [False, True, True]),
        (((1.7, math.inf), (0.3, math.inf), (0.9, math.inf)), [True, False, False]),
    ],
    ids=["kappa-axis", "markovian", "mu-axis", "markovian-mu-axis"],
)
def test_ensemble_rows_equal_single_oracle_runs(points, pumped, scheme):
    # Pump noise is on in the broken phases only; rows differ in seed, n_traj
    # and occupancy.  The burn-in meets the kappa = 0.3 floor of 20 tau_r.
    rows = []
    for i, (mu, kappa) in enumerate(points):
        p = oracle_params(mu, kappa, nth=0.2 * i)
        rows.append((p, SimConfig(**{**ORACLE_BASE, "t_burn": 51.3, "seed": 10 + i,
                                     "n_traj": 2 + i, "scheme": scheme})))
    assert len({lockstep_key(p, c) for p, c in rows}) == 1
    assert [_start_row(p, c, None).pumped for p, c in rows] == pumped
    for (p, c), got in zip(rows, integrate_ensemble(rows)):
        assert_same_records(got, sde_oracle.integrate_trajectory(p, c))


def test_ensemble_overflow_in_any_row_matches_the_oracle():
    # at mu = 388 the kappa = 5 row stays finite and the kappa = 1 row overflows
    stable, failing = [(oracle_params(388.0, kappa), SimConfig(**{**ORACLE_BASE, "seed": seed}))
                       for kappa, seed in ((5.0, 2), (1.0, 1))]
    sde_oracle.integrate_trajectory(*stable)
    with pytest.raises(StepOverflow) as want:
        sde_oracle.integrate_trajectory(*failing)
    for rows in ([stable, failing], [failing, stable]):
        with pytest.raises(StepOverflow) as got:
            integrate_ensemble(rows)
        assert str(got.value) == str(want.value)


def test_ensemble_rejects_rows_that_cannot_share_steps():
    p = oracle_params(0.5, 1.0)
    rows = [(p, SimConfig(**ORACLE_BASE)), (p, SimConfig(**{**ORACLE_BASE, "scheme": "euler-maruyama"}))]
    with pytest.raises(ParameterError):
        integrate_ensemble(rows)
    mixed = [(p, SimConfig(**ORACLE_BASE)), (oracle_params(0.5, math.inf), SimConfig(**ORACLE_BASE))]
    assert lockstep_key(*mixed[0]) != lockstep_key(*mixed[1])
    with pytest.raises(ParameterError):
        integrate_ensemble(mixed)


# === estimators against the frozen oracle =====================================


def _bits(value):
    """A value with every float as its type and IEEE bytes, so -0.0 != 0.0."""
    if dataclasses.is_dataclass(value):
        return [(f.name, _bits(getattr(value, f.name))) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [(k, _bits(v)) for k, v in value.items()]
    if isinstance(value, (float, np.floating)):
        return type(value).__name__, np.float64(value).tobytes()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return repr(value)


def _outcome(estimate, *args):
    try:
        return _bits(estimate(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize(
    "mu, kappa, t_burn, initial",
    [
        (0.5, 1.0, 40.0, None),  # disordered
        (2.0, 1.0, 40.0, None),  # u1
        (1.0, 0.2, 120.0, None),  # u1xz2
        (0.95, 1.0, 20.0, {"A_i": 1.0}),  # a transient: NonStationary
    ],
)
def test_estimators_are_bit_identical_to_the_oracle(mu, kappa, t_burn, initial):
    cfg = config(t_burn=t_burn, t_sample=30.0, n_traj=8, record_stride=2, seed=41)
    tr = integrate_trajectory(params(mu, kappa), cfg, initial=initial)
    for window in (None, 2.0):
        got = _outcome(estimate_order_parameters, tr, window)
        assert got == _outcome(estimator_oracle.estimate_order_parameters, tr, window)
    for frame in ("static", "corotating"):
        got = _outcome(estimate_quadrature_variances, tr, frame)
        assert got == _outcome(estimator_oracle.estimate_quadrature_variances, tr, frame)


PHASE_VALUES = st.sampled_from(
    [0.0, -0.0, math.pi, -math.pi, 3 * math.pi, -3 * math.pi, 2 * math.pi, 0.5 * math.pi,
     math.nan, math.inf, -math.inf]
)
PHASES = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12),
    elements=st.floats(-20.0, 20.0) | st.floats() | PHASE_VALUES,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(PHASES)
@example(np.array([[0.0, 1.0]]))  # one row
@example(np.array([0.0, math.pi, 0.0, -math.pi, 2 * math.pi, -math.pi]))  # jumps of exactly pi
@example(np.array([[0.0], [3 * math.pi], [-3 * math.pi], [math.nan], [0.0], [math.inf], [1.0]]))
def test_unwrap_is_numpy_unwrap_bit_for_bit(p):
    # NaN and inf inputs make both warn alike; a new warning still shows.
    with np.errstate(invalid="ignore"):
        got, want = _unwrap(p), np.unwrap(p, axis=0)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "mu, kappa, t_burn, initial",
    [
        (0.5, 1.0, 40.0, None),  # disordered
        (2.0, 1.0, 40.0, None),  # u1
        (1.0, 0.2, 120.0, None),  # u1xz2
        (0.95, 1.0, 20.0, {"A_i": 1.0}),  # a transient: NonStationary
    ],
)
def test_estimator_blocks_are_bit_identical_to_the_oracle(monkeypatch, mu, kappa, t_burn, initial):
    # Blocks of the floor width with every remainder of n_traj below the
    # floor (a last block that narrow joins the one before), and wider
    # blocks with none, the narrowest and the widest remainder.
    floor = sde._MIN_BLOCK
    plans = [(floor, 2 * floor + r) for r in range(floor)]
    plans += [(23, 2 * 23 + r) for r in (0, 1, floor - 1)]
    cfg = config(t_burn=t_burn, t_sample=30.0, n_traj=max(n for _, n in plans),
                 record_stride=2, seed=41)
    full = integrate_trajectory(params(mu, kappa), cfg, initial=initial)
    n_samples = full.A_i.shape[0]
    for width, n_traj in plans:
        monkeypatch.setattr(sde, "_BLOCK_BYTES", width * 16 * n_samples)
        assert len(sde._blocks(n_samples, n_traj)) == 2
        tr = dataclasses.replace(full, A_i=full.A_i[:, :n_traj].copy(),
                                 A_s=full.A_s[:, :n_traj].copy())
        for window in (None, 2.0):
            got = _outcome(estimate_order_parameters, tr, window)
            assert got == _outcome(estimator_oracle.estimate_order_parameters, tr, window)
        for frame in ("static", "corotating"):
            got = _outcome(estimate_quadrature_variances, tr, frame)
            assert got == _outcome(estimator_oracle.estimate_quadrature_variances, tr, frame)


@pytest.mark.parametrize("n_samples", [32, 2200, 10**6])
def test_estimator_blocks_cover_the_columns_at_least_a_floor_wide(n_samples):
    for n_traj in (2, 15, 16, 17, 31, 32, 33, 100, 1000, 1031):
        blocks = sde._blocks(n_samples, n_traj)
        assert (blocks[0].start, blocks[-1].stop) == (0, n_traj)
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        widths = [b.stop - b.start for b in blocks]
        assert len(blocks) == 1 or min(widths) >= sde._MIN_BLOCK
        # about _BLOCK_BYTES of complex samples, unless held at the floor
        assert all(16 * n_samples * w < 2 * sde._BLOCK_BYTES for w in widths[:-1]
                   if w > sde._MIN_BLOCK)


def test_plan_counts_past_1e15_print_in_scientific_notation():
    assert sde._count(10**15) == "1000000000000000"
    assert sde._count(10**15 + 1) == "1.000e+15"
    assert sde._count(123456789012345678) == "1.235e+17"
    # past the float range, where float(n) would overflow
    assert sde._count(10**400 - 1) == "1.000e+400"


def test_check_plan_allocates_nothing_and_stops_past_numpys_limit():
    p = params(0.5, 1.0)
    # 10**10 steps of 8 lanes recorded every 1000th: 1.28 GB per recorded
    # field, checked without allocating it
    rows = [(p, config(dt=1e-9, t_burn=0.0, t_sample=10.0, n_traj=8, record_stride=1000))]
    tracemalloc.start()
    try:
        sde.check_plan(rows)
        assert tracemalloc.get_traced_memory()[1] < 10**5
    finally:
        tracemalloc.stop()
    # every record of 10**8 lanes kept: 1.6e19 bytes, past np.intp
    rows = [(p, config(dt=1e-9, t_burn=0.0, t_sample=10.0, n_traj=10**8))]
    with pytest.raises(ParameterError, match=r"record buffers of shape \(10000000000, 100000000\) "
                       r"cannot be allocated: a record buffer of 1\.600e\+19 bytes is past"):
        sde.check_plan(rows)


def _peak_planes(estimate, tr, plane):
    """Peak memory an estimator allocates beyond its input, in planes."""
    tracemalloc.start()
    try:
        estimate(tr)
        return tracemalloc.get_traced_memory()[1] / plane
    finally:
        tracemalloc.stop()


def test_estimators_hold_few_planes_at_once(monkeypatch):
    # Uncorrelated samples: the phases jump at about every other sample, the
    # most work the unwrap can be given.
    n_samples, n_traj = 2000, 200
    rng = np.random.default_rng(5)
    A_i, A_s = (
        (rng.standard_normal((n_samples, n_traj)) + 1j * rng.standard_normal((n_samples, n_traj)))
        * 0.01
        for _ in range(2)
    )
    plane = n_samples * n_traj * 8

    def peaks(mu, kappa, frame):
        p = params(mu, kappa)
        tr = Trajectory(t=np.arange(1, n_samples + 1) * 0.02, A_i=A_i, A_s=A_s, A_P=None,
                        c_i=None, c_s=None, f_i=None, f_s=None, params=p,
                        config=config(t_sample=n_samples * 0.02, n_traj=n_traj))
        return (_peak_planes(estimate_order_parameters, tr, plane),
                _peak_planes(lambda tr: estimate_quadrature_variances(tr, frame), tr, plane))

    # At the default blocks, three to these 200 trajectories: (order,
    # quadratures) for the disordered, u1 static and u1xz2 corotating routes.
    # Before blocks they held 3.3 planes, and 2.0, 6.0 and 10.0.
    limits = {(0.5, 1.0, "static"): (2.3, 0.9), (2.0, 1.0, "static"): (2.3, 3.3),
              (1.0, 0.2, "corotating"): (2.3, 5.3)}
    for case, (order_limit, quad_limit) in limits.items():
        order, quad = peaks(*case)
        assert order <= order_limit and quad <= quad_limit, (case, order, quad)
    # At the floor width, blocks of 16 columns, what is left scales with the
    # plane: the order estimator's one slope plane (lstsq's copy of it is
    # not traced), and the corotating branch's.
    monkeypatch.setattr(sde, "_BLOCK_BYTES", 0)
    limits = {(0.5, 1.0, "static"): (1.5, 0.4), (2.0, 1.0, "static"): (1.5, 1.1),
              (1.0, 0.2, "corotating"): (1.5, 1.7)}
    for case, (order_limit, quad_limit) in limits.items():
        order, quad = peaks(*case)
        assert order <= order_limit and quad <= quad_limit, (case, order, quad)
