"""Noise spectra, integrated variances, closed forms, and negativity."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import nmpo
import spectral_oracle as oracle
from psd_oracle import default_grid
from nmpo import linres, spectra
from nmpo.errors import OutOfRegime, ParameterError, SingularAtFrequency
from nmpo.linres import build_embedded_matrix
from nmpo.meanfield import Phase, steady_state, steady_state_branch
from nmpo.model import SystemParams
from nmpo.spectra import (
    integrate_variances,
    log_negativity,
    negativity_map,
    negativity_occupancy_sweep,
    psd,
    susceptibility_at,
    variances_above_threshold_u1,
    variances_below_threshold,
    variances_u1xz2,
)


def params(mu, kappa, gammaP=100.0, nth=0.0, nth_p=None, nth_s=None):
    return SystemParams.from_kappa(
        gamma0=1.0, gammaP=gammaP, kappa=kappa, g=0.01, mu=mu,
        n_th_i=nth, n_th_s=nth if nth_s is None else nth_s,
        n_th_P=nth if nth_p is None else nth_p,
    )


# === susceptibility ===========================================================


def test_susceptibility_diagonal_at_zero_drive():
    p = params(0.0, 1.0)
    m = susceptibility_at(build_embedded_matrix(p, steady_state(p)), 0.0)
    diag = np.diag(m)
    for q in (0, 1, 3, 4):
        assert diag[q] == pytest.approx(-0.5)
    for q in (2, 5):
        assert diag[q] == pytest.approx(-50.0)
    # no drive: no off-diagonal mixing beyond the pump coupling rows
    off = m - np.diag(diag)
    assert np.max(np.abs(off)) == pytest.approx(0.0, abs=1e-14)


def test_susceptibility_singular_at_critical_zero_frequency():
    p = params(1.0, 0.5)
    ss = steady_state_branch(p, Phase.DISORDERED)
    with pytest.raises(SingularAtFrequency):
        susceptibility_at(build_embedded_matrix(p, ss), 0.0)


def test_susceptibility_determinant_double_root():
    # at the coincidence point the determinant vanishes quadratically per
    # sector; |det| scales as omega^4 near zero
    p = params(1.0, 0.5)
    ss = steady_state_branch(p, Phase.DISORDERED)
    a = build_embedded_matrix(p, ss)
    d1 = abs(np.linalg.det(susceptibility_at(a, 1e-3)))
    d2 = abs(np.linalg.det(susceptibility_at(a, 2e-3)))
    assert d2 / d1 == pytest.approx(16.0, rel=0.05)


def test_susceptibility_markovian_frequency_dependence_trivial():
    p = params(0.5, math.inf)
    ss = steady_state(p)
    a = build_embedded_matrix(p, ss)
    m1 = susceptibility_at(a, 0.3) - 1j * 0.3 * np.eye(6)
    m2 = susceptibility_at(a, 1.7) - 1j * 1.7 * np.eye(6)
    assert np.allclose(m1, m2, atol=1e-14)


# === diffusion matrix =========================================================


def diffusion_matrix(p, ss, omega):
    """The force PSD D(omega) at one frequency."""
    feed = spectra._eliminate_memory(linres.build_embedded_matrix(p, ss), [omega])[2]
    return spectra._force_psd(linres.build_diffusion(p, ss), feed)[0]


def test_diffusion_even_in_frequency_static_frame():
    p = params(0.5, 0.7, nth=0.3)
    ss = steady_state(p)
    for w in (0.0, 0.4, 2.2):
        dp = diffusion_matrix(p, ss, w)
        dm = diffusion_matrix(p, ss, -w)
        assert np.allclose(dp, dm, atol=1e-15)
        assert np.all(np.diag(dp).real >= 0)
        assert np.max(np.abs(dp.imag)) == 0.0


def test_diffusion_rotating_frame_hermitian_pair():
    p = params(1.0, 0.2, nth=0.5)
    ss = steady_state(p)
    d = diffusion_matrix(p, ss, 0.9)
    dm = diffusion_matrix(p, ss, -0.9)
    assert np.allclose(d, d.conj().T, atol=1e-15)
    assert np.allclose(dm, d.conj(), atol=1e-15)


def test_diffusion_tails_and_pump_rows():
    p = params(0.5, 0.5, nth=0.0)
    ss = steady_state(p)
    small = diffusion_matrix(p, ss, 1e3)
    assert abs(small[0, 0]) < 1e-4 * abs(diffusion_matrix(p, ss, 0.0)[0, 0])
    # pump entries are white: frequency independent, included above threshold
    p2 = params(2.0, 1.0, nth=0.0)
    ss2 = steady_state(p2)
    d0 = diffusion_matrix(p2, ss2, 0.0)
    d9 = diffusion_matrix(p2, ss2, 9.0)
    sp2 = 2.0 * p2.g**2 / p2.gamma0**2
    assert d0[2, 2] == pytest.approx(sp2 * p2.gammaP * 0.5, rel=1e-12)
    assert d9[2, 2] == pytest.approx(d0[2, 2], rel=1e-12)


def test_diffusion_pump_rows_excluded_below_threshold():
    p = params(0.5, 1.0)
    ss = steady_state(p)
    assert not ss.phase.broken
    d = diffusion_matrix(p, ss, 0.0)
    assert d[2, 2] == 0.0 and d[5, 5] == 0.0


# === power spectral density ===================================================


def test_psd_hermitian_positive_and_mirror_symmetric():
    p = params(0.5, 0.5, nth=0.2)
    ss = steady_state(p)
    sd = psd(p, ss, default_grid(p, ss, 128))
    assert sd.omega.size == 128
    assert np.allclose(sd.omega, -sd.omega[::-1])
    scale = np.max(np.abs(sd.matrices))
    for k, w in enumerate(sd.omega):
        s = sd.matrices[k]
        assert np.allclose(s, s.conj().T, atol=1e-12 * scale)
        ev = np.linalg.eigvalsh(s)
        assert ev.min() >= -1e-12 * scale
    # S(-w) is the transpose partner (real underlying time series)
    mid = sd.omega.size // 2
    for k in range(mid):
        assert np.allclose(sd.matrices[k], sd.matrices[-1 - k].T, atol=1e-12 * scale)


def test_psd_refuses_unstable_state():
    p = params(2.0, 1.0)
    ss = steady_state_branch(p, Phase.DISORDERED)
    with pytest.raises(OutOfRegime):
        psd(p, ss)


@pytest.mark.parametrize(
    "mu, kappa, phase",
    [(0.5, 1.0, Phase.DISORDERED), (2.0, 1.0, Phase.DISORDERED), (2.0, 1.0, Phase.U1),
     (1.0, 0.2, Phase.U1XZ2), (0.5, math.inf, Phase.DISORDERED), (2.0, math.inf, Phase.U1)],
)
def test_diffusion_follows_the_state_it_is_given(mu, kappa, phase):
    # (2.0, 1.0) is above threshold: its disordered branch has no pump noise.
    p = params(mu, kappa, nth=0.3)
    ss = steady_state_branch(p, phase)
    d = linres.build_diffusion(p, ss)
    pump = p.pump_noise_power if ss.phase.broken else 0.0
    assert (d[2, 2], d[5, 5]) == (pump, pump)
    if ss.phase is steady_state(p).phase:
        assert psd(p, ss, omega_grid=()).diffusion.tobytes() == d.tobytes()


# === integrated variances =====================================================


@pytest.mark.parametrize("kappa", [0.05, 0.3, 1.0, 10.0])
def test_thermal_sum_rule(kappa):
    p = params(0.0, kappa, nth=0.7)
    rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
    for lab, val in rep.normalized().items():
        assert val == pytest.approx(1.0, rel=1e-3)


def test_integrated_variances_below_threshold_example():
    p = params(0.5, 0.5)
    rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
    assert rep.sigma_x_plus == pytest.approx(2 * 0.5 / (1.5 * 1.5), rel=1e-3)
    assert rep.sigma_y_minus == pytest.approx(2 * 0.5 / (1.5 * 1.5), rel=1e-3)
    assert rep.sigma_x_minus == pytest.approx(1.0 / (0.5 * 0.5), rel=1e-3)
    assert rep.sigma_y_plus == pytest.approx(1.0 / (0.5 * 0.5), rel=1e-3)
    assert rep.squeezed in ("x+", "y-")
    assert rep.amplified in ("x-", "y+")


def test_integrated_variances_u1_goldstone_flagged():
    p = params(2.0, 1.0, gammaP=10000.0)
    rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
    assert math.isinf(rep.sigma_x_minus)
    assert rep.divergent["x-"] and not rep.divergent["y-"]
    assert rep.covariance is not None
    assert math.isinf(rep.covariance[1, 1])
    # finite entries match the adiabatic closed forms
    assert rep.sigma_y_minus == pytest.approx(1.0 / 3.0, rel=1e-3)
    assert rep.sigma_y_plus == pytest.approx(5.0 / 3.0, rel=1e-3)
    assert rep.sigma_x_plus == pytest.approx(7.0 / 10.0, rel=1e-3)


# === the (A, D) route against the frequency-domain reference ==================

# (mu, kappa, extra params): rotating, static, Markovian, boundary (kappa = 1/2)
# and thermal frames, with unequal idler/signal and pump occupancies.
ORACLE_POINTS = [
    (1.0, 0.2, {}),
    (1.5, 0.2, {"nth": 0.4}),
    (1.0, 0.3, {"nth": 0.3, "nth_s": 0.9}),
    (0.5, 0.7, {"nth": 0.3, "nth_s": 0.9}),
    (2.0, 1.0, {"nth": 0.5, "nth_p": 2.0}),
    (0.5, math.inf, {}),
    (2.0, math.inf, {"nth": 1.0, "nth_p": 0.0}),
    (1.0, 0.5, {}),
    (1.1, 0.5, {}),
    (1.9, 0.5, {}),
]


@pytest.mark.parametrize("mu,kappa,extra", ORACLE_POINTS)
def test_schur_complements_match_frequency_domain_forms(mu, kappa, extra):
    p = params(mu, kappa, **extra)
    ss = steady_state(p)
    a = build_embedded_matrix(p, ss)
    for w in (-3.0, -0.4, 0.1, 0.77, 5.0):
        chi_inv = oracle.drift_freq(p, ss, w) + 1j * w * np.eye(6)
        assert np.max(np.abs(susceptibility_at(a, w) - chi_inv)) < 1e-14
        want = oracle.force_psd(p, ss, w, ss.phase.broken)
        got = diffusion_matrix(p, ss, w)
        assert np.max(np.abs(got - want)) < 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("mu,kappa,extra", ORACLE_POINTS)
def test_lyapunov_covariance_matches_quadrature_oracle(mu, kappa, extra):
    p = params(mu, kappa, **extra)
    ss = steady_state(p)
    sd = psd(p, ss, omega_grid=())
    rep = variances_u1xz2(p) if ss.phase is Phase.U1XZ2 else integrate_variances(sd)
    flagged = [q for q in range(6) if math.isinf(rep.covariance[q, q])]
    ref = oracle.quadrature_covariance(p, ss, ss.phase.broken, exclude=flagged)
    # below threshold the pump quadratures carry no noise at all
    kept = [q for q in range(6) if q not in flagged and ref[q, q] > 0]
    got = rep.covariance[np.ix_(kept, kept)]
    want = ref[np.ix_(kept, kept)]
    # relative to the diagonal scale, so near-zero cross terms are compared fairly
    scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
    assert np.max(np.abs(got - want) / scale) < 1e-4
    if ss.phase is Phase.U1XZ2:
        assert abs(want[kept.index(0), kept.index(4)]) > 1e-3 * scale[kept.index(0), kept.index(4)]


def test_rotating_threshold_and_defective_zero_mode():
    # threshold of the rotating regime: marginal pair at +-delta, amplified
    # quadratures divergent, squeezed pair at its closed form
    p = params(0.4, 0.2)
    rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
    assert rep.sigma_x_plus == pytest.approx(0.4 / (1.4 * 0.8), rel=1e-9)
    assert rep.sigma_y_minus == pytest.approx(0.4 / (1.4 * 0.8), rel=1e-9)
    assert rep.divergent == {"x+": False, "x-": True, "y+": True, "y-": False}
    # kappa = 1/2: the defective zero mode splits by ~1e-8 and is still marginal
    p = params(1.9, 0.5)
    rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
    assert rep.divergent == {"x+": False, "x-": True, "y+": False, "y-": False}
    assert rep.sigma_x_plus == pytest.approx(0.66133, rel=1e-4)
    assert rep.sigma_y_plus == pytest.approx(1.88308, rel=1e-4)
    assert rep.sigma_y_minus == pytest.approx(0.25, rel=1e-9)


def test_near_threshold_states_finite_below_flagged_above():
    below = params(1.0 - 1e-9, 1.0)
    rep = integrate_variances(psd(below, steady_state(below), omega_grid=()))
    assert not any(rep.divergent.values())
    assert rep.sigma_x_minus > 1e9 and rep.sigma_y_plus > 1e9
    above = params(1.0 + 1e-9, 1.0)
    rep = integrate_variances(psd(above, steady_state(above), omega_grid=()))
    assert rep.divergent == {"x+": False, "x-": True, "y+": True, "y-": False}
    assert rep.sigma_y_minus == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_cli_import_leaves_out_spectral_quadrature():
    code = "import sys, nmpo.cli; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nmpo.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def _cli_in_fresh_interpreter(argv):
    """(exit code, whether any scipy module got loaded) of nmpo.cli.main(argv)
    run in a new interpreter."""
    code = (
        "import sys, nmpo.cli\n"
        f"rc = nmpo.cli.main({list(argv) + ['--out', os.devnull]!r})\n"
        "print(rc, any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nmpo.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    rc, loaded = out.split()
    return int(rc), loaded == "True"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param("phase-diagram --mu 0:2:5 --kappa 0.2,1,inf", id="phase-diagram"),
        pytest.param("eigenflow --mu 0:2:9 --kappa 0.5,1", id="eigenflow"),
        pytest.param("steady-state --mu 1.5 --kappa 0.2", id="steady-state"),
        pytest.param("negativity --mu 0.1:0.9:5 --kappa 0.2,1", id="negativity"),
        pytest.param("variances --mu 0:2:5 --kappa 1,inf --method closed", id="variances-closed"),
        pytest.param("simulate --mu 2 --kappa 1 --gammaP 20 --dt 0.005 --t-burn 20 "
                     "--t-sample 11 --n-traj 2 --record-stride 10", id="simulate"),
    ],
)
def test_numpy_only_subcommands_leave_out_scipy(argv):
    assert _cli_in_fresh_interpreter(argv.split()) == (0, False)


def test_lyapunov_route_loads_scipy_when_called():
    argv = "variances --mu 0.5,2 --kappa 1 --method integrate"
    assert _cli_in_fresh_interpreter(argv.split()) == (0, True)


# === closed forms =============================================================


def test_below_threshold_formulas():
    rep = variances_below_threshold(0.0, 1.0)
    assert rep.sigma_x_plus == 1.0 and rep.sigma_x_minus == 1.0
    rep2 = variances_below_threshold(0.5, 0.5)
    assert rep2.sigma_x_plus == pytest.approx(2 * 0.5 / (1.5 * 1.5), rel=1e-12)
    assert rep2.sigma_x_minus == pytest.approx(4.0, rel=1e-12)


def test_below_threshold_markovian_limits():
    rep = variances_below_threshold(0.8, math.inf)
    assert rep.sigma_x_plus == pytest.approx(1.0 / 1.8, rel=1e-12)
    assert rep.sigma_x_minus == pytest.approx(1.0 / 0.2, rel=1e-12)


def test_below_threshold_out_of_regime():
    with pytest.raises(OutOfRegime):
        variances_below_threshold(0.4, 0.2)
    with pytest.raises(OutOfRegime):
        variances_below_threshold(1.0, math.inf)


def test_below_threshold_extrapolation_for_scaling():
    rep = variances_below_threshold(10.0, 0.2, extrapolate=True)
    assert rep.sigma_x_plus == pytest.approx(0.4 / (11.0 * 10.4), rel=1e-12)
    assert math.isinf(rep.sigma_x_minus)
    assert rep.divergent["x-"] and rep.divergent["y+"]


def test_u1_formulas_symmetric_occupancies():
    rep = variances_above_threshold_u1(2.0, 1.0)
    assert rep.sigma_x_plus == pytest.approx(7.0 / 10.0, rel=1e-12)
    assert rep.sigma_y_plus == pytest.approx(5.0 / 3.0, rel=1e-12)
    assert rep.sigma_y_minus == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert math.isinf(rep.sigma_x_minus)
    assert rep.divergent == {"x+": False, "x-": True, "y+": False, "y-": False}


def test_u1_formulas_markovian_limit():
    rep = variances_above_threshold_u1(2.0, math.inf)
    assert rep.sigma_y_minus == pytest.approx(0.5, rel=1e-12)
    assert rep.sigma_x_plus == pytest.approx(0.5 + 0.25, rel=1e-12)
    assert rep.sigma_y_plus == pytest.approx(1.0 + 0.5, rel=1e-12)


def test_u1_formulas_pump_occupancy_ratio():
    # pump occupancy enters through r = (n_P + 1/2)/(n + 1/2)
    rep = variances_above_threshold_u1(2.0, 1.0, n_th=1.0, n_th_P=0.0)
    r = 0.5 / 1.5
    assert rep.sigma_x_plus == pytest.approx((2 * r * 1.0 * 3.0 + 1.0) / (2.0 * 5.0), rel=1e-12)
    assert rep.sigma_y_minus == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_u1_formulas_out_of_regime():
    with pytest.raises(OutOfRegime):
        variances_above_threshold_u1(0.9, 1.0)
    with pytest.raises(OutOfRegime):
        variances_above_threshold_u1(2.0, 0.2)


# === rotating-phase integration ===============================================


def test_rotating_variances_continuous_at_threshold():
    p = params(0.401, 0.2, gammaP=10000.0)
    rep = variances_u1xz2(p)
    below = 2 * 0.2 / (1.4 * 0.8)
    assert rep.min_sigma() == pytest.approx(below, rel=4e-3)


def test_rotating_variances_reduce_to_static_formulas():
    # just below the rotation onset (vanishing precession) the squeezed pair
    # and the reported minimum converge to the static closed forms at the
    # kappa = 1/2 boundary; the amplified finite quadrature does not: a
    # weakly damped mode pair keeps a finite extra weight in y+ (limit 9/4
    # instead of the static 7/4; cross-checked by a time-domain Lyapunov
    # solve of the co-rotating linear system)
    p = params(2.0, 0.499, gammaP=10000.0)
    rep = variances_u1xz2(p)
    ref = variances_above_threshold_u1(2.0, 0.5)
    assert rep.sigma_y_minus == pytest.approx(ref.sigma_y_minus, rel=0.01)
    assert rep.sigma_x_plus == pytest.approx(ref.sigma_x_plus, rel=0.01)
    assert rep.min_sigma() == pytest.approx(min(ref.sigma_x_plus, ref.sigma_y_minus), rel=0.01)
    assert rep.sigma_y_plus == pytest.approx(2.2412, rel=5e-3)
    assert math.isinf(rep.sigma_x_minus)


def test_rotating_variances_z2_symmetric():
    p = params(1.0, 0.2)
    rp = variances_u1xz2(p, steady_state(p, z2_branch=1))
    rm = variances_u1xz2(p, steady_state(p, z2_branch=-1))
    assert rp.sigma_x_plus == pytest.approx(rm.sigma_x_plus, rel=1e-9)
    assert rp.sigma_y_minus == pytest.approx(rm.sigma_y_minus, rel=1e-9)
    assert rp.sigma_sq_scan == pytest.approx(rm.sigma_sq_scan, rel=1e-9)


def test_rotating_variances_angle_scan():
    p = params(1.0, 0.2)
    rep = variances_u1xz2(p)
    assert rep.sigma_sq_scan is not None and rep.theta_sq is not None
    assert 0.0 <= rep.theta_sq < math.pi
    assert rep.sigma_sq_scan <= min(rep.sigma_x_plus, rep.sigma_y_minus) + 1e-12
    assert math.isinf(rep.sigma_x_minus) and rep.divergent["x-"]


@pytest.mark.parametrize(
    "divergent, want",
    [(("y-",), ("x+", 0.0)), (("x+",), ("y-", 0.5 * math.pi)), (("x+", "y-"), (None, None))],
    ids=["y-", "x+", "both"],
)
def test_angle_scan_with_a_divergent_axis(monkeypatch, divergent, want):
    # A divergent axis leaves the other one, at its own angle, or inf.
    p = params(1.0, 0.2)
    rep = spectra.integrate_variances(psd(p, steady_state(p), omega_grid=()))
    cov = rep.covariance.copy()
    values = rep.normalized()
    for lab in divergent:
        q = spectra._VAR_INDEX[lab]
        cov[q, :] = cov[:, q] = math.nan
        cov[q, q] = values[lab] = math.inf
    forced = spectra._make_report(values, rep.n_th, covariance=cov)
    monkeypatch.setattr(spectra, "integrate_variances", lambda sd: forced)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = variances_u1xz2(p)
    label, theta = want
    assert got.sigma_sq_scan == (math.inf if label is None else values[label])
    assert got.theta_sq == theta


@pytest.mark.parametrize("branch", [1, -1])
@pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3, 0.45])
def test_angle_scan_never_finds_a_variance_below_the_exact_minimum(kappa, branch):
    # sigma(theta) = cos^2 sigma_x+ + sin^2 sigma_y- + 2 cos sin c on a
    # 64-point mixing-angle grid never falls below the reported 2x2 minimum
    thetas = np.linspace(0.0, math.pi, 64, endpoint=False)
    for mu in (2.05 * kappa, 3.0 * kappa, 1.0, 2.0):
        p = params(mu, kappa, nth=0.4)
        ss = steady_state(p, z2_branch=branch)
        assert ss.phase is Phase.U1XZ2
        rep = variances_u1xz2(p, ss)
        c = float(rep.covariance[0, 4]) / (p.variance_scale * (p.n_avg + 0.5))
        scan = (np.cos(thetas) ** 2 * rep.sigma_x_plus + np.sin(thetas) ** 2 * rep.sigma_y_minus
                + 2.0 * np.cos(thetas) * np.sin(thetas) * c)
        lowest = float(scan.min())
        assert rep.sigma_sq_scan <= lowest + 1e-9 * (abs(lowest) + 1e-30), (mu, kappa)
        assert 0.0 <= rep.theta_sq < math.pi


# === logarithmic negativity ===================================================


def test_negativity_zero_above_zero_point():
    assert log_negativity(0.5).e_n == 0.0
    assert log_negativity(1.7).e_n == 0.0


def test_negativity_markovian_threshold_value():
    sigma_abs = 0.5 * (1.0 / 2.0)
    res = log_negativity(sigma_abs)
    assert res.e_n == pytest.approx(0.5, rel=1e-12)


def test_negativity_memory_threshold_value():
    sigma_norm = 2 * 0.2 / (1.4 * 0.8)
    res = log_negativity(0.5 * sigma_norm)
    assert 0.5 * sigma_norm == pytest.approx(0.178571428571, rel=1e-9)
    assert res.e_n == pytest.approx(0.742713413585, rel=1e-9)


def test_negativity_validation():
    with pytest.raises(Exception):
        log_negativity(-0.1)


@pytest.mark.parametrize("mu,kappa", [(0.5, -0.1), (0.5, 0.0), (math.inf, 0.2), (-1.0, 0.2)])
def test_negativity_map_rejects_invalid_points(mu, kappa):
    with pytest.raises(ParameterError, match="negativity map point"):
        negativity_map([0.1, mu], [1.0, kappa])


# === negativity sweeps ========================================================


def test_negativity_map_rows_and_zero_drive():
    rows = negativity_map([0.0, 0.5, 2.0], [0.2, 1.0], n_th=0.0)
    assert len(rows) == 6
    assert [r[1] for r in rows[:3]] == [0.2] * 3
    for mu, kappa, n_th, e_n, s_abs in rows:
        assert e_n >= 0.0
        if mu == 0.0:
            assert e_n == 0.0


def test_negativity_monotone_in_occupancy():
    values = []
    for n_th in (0.0, 1.0, 5.0, 10.0):
        (row,) = negativity_map([2.0], [0.2], n_th=n_th)
        values.append(row[3])
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_negativity_saturating_occupancy_gives_zero_map():
    rows = negativity_map(np.linspace(0.0, 3.0, 7), [1.0], n_th=50.0)
    assert all(r[3] == 0.0 for r in rows)


def test_negativity_memory_beats_markovian_at_high_occupancy():
    (mem,) = negativity_map([2.0], [0.2], n_th=5.0)
    (mk,) = negativity_map([2.0], [math.inf], n_th=5.0)
    assert mem[3] > 0.0
    assert mk[3] == 0.0


def test_negativity_occupancy_sweep_with_comparator():
    rows = negativity_occupancy_sweep(0.2, [1.0, 2.0], [0.0, 5.0], markovian_comparator=True)
    assert len(rows) == 8
    kappas = [r[1] for r in rows]
    assert kappas == [0.2, 0.2, math.inf, math.inf] * 2
    assert [r[2] for r in rows] == [0.0] * 4 + [5.0] * 4
