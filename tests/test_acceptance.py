"""End-to-end acceptance gate: eleven criteria, one printed line each.

Each test prints "ACCEPTANCE n: PASS/FAIL - ..." so the suite output doubles
as a checklist.  Budgeted criteria assert wall time with time.monotonic().
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from psd_oracle import default_grid
from nmpo.linres import (
    build_embedded_matrix,
    disordered_eigenvalues_closed_form,
    eigenspectrum,
    exceptional_point_drive,
    locate_critical_drive,
)
from nmpo.meanfield import (
    Phase,
    critical_drive,
    frequency_shift,
    steady_state,
    steady_state_branch,
    steady_state_residual,
)
from nmpo.model import SystemParams
from nmpo.sde import SimConfig, estimate_order_parameters, estimate_quadrature_variances, integrate_trajectory
from nmpo.spectra import (
    integrate_variances,
    negativity_occupancy_sweep,
    psd,
    variances_above_threshold_u1,
    variances_below_threshold,
)


def make_params(mu, kappa, gammaP=100.0, nth=0.0):
    return SystemParams.from_kappa(
        gamma0=1.0, gammaP=gammaP, kappa=kappa, g=0.01, mu=mu,
        n_th_i=nth, n_th_s=nth, n_th_P=nth,
    )


@contextmanager
def criterion(capsys, n, label):
    info = {"detail": ""}
    t0 = time.monotonic()
    try:
        yield info
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {n}: FAIL - {label}")
        raise
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        tail = f"; {info['detail']}" if info["detail"] else ""
        print(f"ACCEPTANCE {n}: PASS - {label} ({elapsed:.1f}s{tail})")


# === 1: phase boundaries ======================================================


def test_criterion_01_phase_boundaries(capsys):
    with criterion(capsys, 1, "critical drive matches closed form at 20 kappa values") as info:
        t0 = time.monotonic()
        worst = 0.0
        for kappa in np.geomspace(0.05, 5.0, 20):
            p = make_params(0.0, kappa)
            phase = Phase.U1 if kappa >= 0.5 else Phase.U1XZ2
            found = locate_critical_drive(p, phase)
            worst = max(worst, abs(found - critical_drive(kappa)))
        assert worst < 1e-6
        assert time.monotonic() - t0 < 10.0
        info["detail"] = f"max |dmu| {worst:.2e}"


# === 2: eigenvalue equivalence ================================================


def test_criterion_02_eigenvalue_equivalence(capsys):
    with criterion(capsys, 2, "embedded spectrum reproduces closed-form pairs on 50x50 grid") as info:
        t0 = time.monotonic()
        worst = 0.0
        for kappa in np.geomspace(0.05, 5.0, 50):
            for mu in np.linspace(0.0, 3.0, 50):
                p = make_params(mu, kappa)
                ss = steady_state_branch(p, Phase.DISORDERED)
                evs = np.asarray(eigenspectrum(build_embedded_matrix(p, ss)).eigenvalues)
                for squeezed in (False, True):
                    for lam in disordered_eigenvalues_closed_form(mu, kappa, squeezed=squeezed):
                        worst = max(worst, np.min(np.abs(evs - lam)))
        assert worst < 1e-9
        assert time.monotonic() - t0 < 5.0
        info["detail"] = f"max |dlambda| {worst:.2e}"


# === 3: exceptional-point / critical coincidence ==============================


def test_criterion_03_ep_critical_ordering(capsys):
    with criterion(capsys, 3, "EP-vs-threshold coincidence at kappa=1/2 and ordering") as info:
        mu_ep = exceptional_point_drive(0.5)
        mu_cr = locate_critical_drive(make_params(0.0, 0.5), Phase.U1)
        assert abs(mu_ep - 1.0) < 1e-8
        assert abs(mu_cr - 1.0) < 1e-6
        ep_hi = exceptional_point_drive(1.25)
        cr_hi = locate_critical_drive(make_params(0.0, 1.25), Phase.U1)
        assert ep_hi < cr_hi
        ep_lo = exceptional_point_drive(0.15)
        cr_lo = locate_critical_drive(make_params(0.0, 0.15), Phase.U1XZ2)
        assert ep_lo > cr_lo
        info["detail"] = f"kappa=1.25: {ep_hi:.4f} < {cr_hi:.4f}; kappa=0.15: {ep_lo:.4f} > {cr_lo:.4f}"


# === 4: marginal frequency ====================================================


def test_criterion_04_marginal_frequency(capsys):
    with criterion(capsys, 4, "marginal eigenfrequency equals the onset shift") as info:
        worst = 0.0
        for kappa in (0.1, 0.2, 0.3, 0.4):
            p = make_params(critical_drive(kappa), kappa)
            ss = steady_state_branch(p, Phase.DISORDERED)
            evs = np.asarray(eigenspectrum(build_embedded_matrix(p, ss)).eigenvalues)
            marginal = evs[np.abs(evs.real) < 1e-8]
            assert marginal.size == 4
            worst = max(worst, float(np.max(np.abs(np.abs(marginal.imag) - frequency_shift(kappa)))))
        assert worst < 1e-8
        info["detail"] = f"max |dIm| {worst:.2e}"


# === 5: variance oracle =======================================================


def test_criterion_05_variance_integration_matches_closed_forms(capsys):
    with criterion(capsys, 5, "spectral integration matches closed-form variances to 0.1%") as info:
        t0 = time.monotonic()
        worst = 0.0
        margin = 1e-3
        for kappa in np.geomspace(0.05, 5.0, 10):
            p0 = make_params(0.0, kappa, gammaP=1e4)
            for mu in np.linspace(0.0, critical_drive(kappa) - margin, 10):
                p = make_params(mu, kappa, gammaP=1e4)
                rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
                ref = variances_below_threshold(mu, kappa)
                for lab in ("sigma_x_plus", "sigma_x_minus", "sigma_y_plus", "sigma_y_minus"):
                    worst = max(worst, abs(getattr(rep, lab) / getattr(ref, lab) - 1.0))
        for kappa in np.geomspace(0.5 + margin, 5.0, 10):
            for mu in np.linspace(1.0 + margin, 3.0, 10):
                p = make_params(mu, kappa, gammaP=1e4)
                rep = integrate_variances(psd(p, steady_state(p), omega_grid=()))
                ref = variances_above_threshold_u1(mu, kappa)
                assert rep.divergent["x-"] and math.isinf(rep.sigma_x_minus)
                for lab in ("sigma_x_plus", "sigma_y_plus", "sigma_y_minus"):
                    worst = max(worst, abs(getattr(rep, lab) / getattr(ref, lab) - 1.0))
        assert worst < 1e-3
        assert time.monotonic() - t0 < 60.0
        info["detail"] = f"max rel err {worst:.2e}"


# === 6: scaling exponents =====================================================


def test_criterion_06_squeezing_scaling_exponents(capsys):
    with criterion(capsys, 6, "drive scaling of the squeezed variance") as info:
        mu = np.linspace(10.0, 100.0, 50)

        def slope(kappa):
            sig = [variances_below_threshold(m, kappa, extrapolate=True).sigma_x_plus for m in mu]
            return np.polyfit(np.log(mu), np.log(sig), 1)[0]

        s_mem = slope(0.2)
        s_mk = slope(math.inf)
        assert s_mem == pytest.approx(-2.0, abs=0.05)
        assert s_mk == pytest.approx(-1.0, abs=0.05)
        info["detail"] = f"memory {s_mem:.4f}, Markovian {s_mk:.4f}"


# === 7: negativity persistence ================================================


def test_criterion_07_negativity_beats_markovian_comparator(capsys):
    with criterion(capsys, 7, "entanglement persists at nth=5 where the Markovian limit has none") as info:
        mu_grid = np.linspace(0.05, 8.0, 160)
        rows = negativity_occupancy_sweep(0.2, mu_grid, [5.0], markovian_comparator=True)
        mem = {r[0]: r[3] for r in rows if r[1] == 0.2}
        mk = {r[0]: r[3] for r in rows if math.isinf(r[1])}
        window = [m for m in mu_grid if mem[m] > 0.0]
        assert window
        assert all(mem[m] > mk[m] for m in window)
        info["detail"] = f"E_N > 0 for mu in [{window[0]:.2f}, {window[-1]:.2f}]"


# === 8: deterministic trajectories ============================================


def test_criterion_08_deterministic_mean_field_convergence(capsys):
    with criterion(capsys, 8, "noise-off integration lands on fixed point and limit cycle") as info:
        t0 = time.monotonic()
        p_fp = make_params(2.0, 1.0, gammaP=20.0)
        cfg_fp = SimConfig(dt=0.005, t_burn=60.0, t_sample=20.0, n_traj=2, seed=4, noise=False)
        est_fp = estimate_order_parameters(integrate_trajectory(p_fp, cfg_fp))
        err_fp = abs(est_fp.amp_mean - 1.0)
        assert err_fp < 1e-4
        assert abs(est_fp.delta_est) < 1e-3

        p_lc = make_params(1.0, 0.2, gammaP=20.0)
        cfg_lc = SimConfig(dt=0.005, t_burn=260.0, t_sample=40.0, n_traj=2, seed=5,
                           noise=False, record_stride=4)
        est_lc = estimate_order_parameters(integrate_trajectory(p_lc, cfg_lc))
        err_amp = abs(est_lc.amp_mean - math.sqrt(0.6))
        err_dlt = abs(est_lc.delta_est - frequency_shift(0.2))
        assert err_amp < 1e-4
        assert err_dlt < 1e-3
        assert time.monotonic() - t0 < 30.0
        info["detail"] = f"fp amp err {err_fp:.1e}; cycle amp err {err_amp:.1e}, shift err {err_dlt:.1e}"


# === 9: stochastic estimates ==================================================


def test_criterion_09_stochastic_estimates(capsys):
    with criterion(capsys, 9, "sampled squeezing and frequency shift match theory") as info:
        t0 = time.monotonic()
        p_sq = make_params(0.5, 1.0, gammaP=20.0)
        cfg_sq = SimConfig(dt=0.005, t_burn=40.0, t_sample=200.0, n_traj=500, seed=2,
                           record_stride=4, record_fields=("A_i", "A_s"))
        rep = estimate_quadrature_variances(integrate_trajectory(p_sq, cfg_sq))
        sig_sq = min(rep.sigma_x_plus, rep.sigma_y_minus)
        err_sq = abs(sig_sq / (8.0 / 15.0) - 1.0)
        assert err_sq < 0.05

        p_dl = make_params(1.0, 0.2, gammaP=20.0)
        cfg_dl = SimConfig(dt=0.005, t_burn=200.0, t_sample=200.0, n_traj=200, seed=3,
                           record_stride=4, record_fields=("A_i", "A_s"))
        est = estimate_order_parameters(integrate_trajectory(p_dl, cfg_dl))
        err_dl = abs(est.delta_est / frequency_shift(0.2) - 1.0)
        assert err_dl < 0.02
        assert time.monotonic() - t0 < 600.0
        info["detail"] = f"sigma_sq err {err_sq:.1%}, shift err {err_dl:.1%}"


# === 10: phase-velocity variance growth =======================================


def test_criterion_10_phase_velocity_variance_grows_toward_onset(capsys):
    with criterion(capsys, 10, "Var(phi_dot) rises monotonically as kappa approaches 1/2") as info:
        values = []
        for kappa in (1.5, 1.0, 0.7, 0.55):
            p = make_params(2.0, kappa, gammaP=20.0)
            t_burn = 40.0 if kappa > 0.6 else 400.0
            cfg = SimConfig(dt=0.005, t_burn=t_burn, t_sample=600.0, n_traj=100,
                            seed=int(10 * kappa), record_stride=10,
                            record_fields=("A_i", "A_s"))
            est = estimate_order_parameters(integrate_trajectory(p, cfg), window=5.0)
            values.append(est.var_phi_dot)
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] / values[0] >= 5.0
        info["detail"] = f"ratio {values[-1] / values[0]:.1f}x across kappa 1.5 -> 0.55"


# === 11: property suites ======================================================


def test_criterion_11_property_suites(capsys):
    with criterion(capsys, 11, "structural invariants hold") as info:
        # PSD positive semidefinite and Hermitian on a mixed-phase sample
        for mu, kappa in ((0.4, 0.7), (1.5, 1.0), (0.9, 0.2)):
            p = make_params(mu, kappa, nth=0.3)
            ss = steady_state(p)
            sd = psd(p, ss, default_grid(p, ss, 32))
            scale = np.max(np.abs(sd.matrices))
            for s in sd.matrices:
                assert np.allclose(s, s.conj().T, atol=1e-12 * scale)
                assert np.linalg.eigvalsh(s).min() >= -1e-12 * scale

        # conjugate closure and Goldstone uniqueness
        for mu, kappa in ((1.5, 1.0), (0.9, 0.2), (0.3, 0.4)):
            p = make_params(mu, kappa)
            ss = steady_state(p)
            evs = np.asarray(eigenspectrum(build_embedded_matrix(p, ss)).eigenvalues)
            for lam in evs:
                assert np.min(np.abs(evs - np.conj(lam))) < 1e-9
            if ss.phase is not Phase.DISORDERED:
                assert np.sum(np.abs(evs) < 1e-8) == 1

        # gauge and Z2 symmetry of the mean field
        for phi in (0.0, 0.8, 2.4):
            for branch in (1, -1):
                p = make_params(1.0, 0.2)
                ss = steady_state(p, z2_branch=branch, phi=phi)
                assert steady_state_residual(p, ss) < 1e-10
        plus = steady_state(make_params(1.0, 0.2), z2_branch=1)
        minus = steady_state(make_params(1.0, 0.2), z2_branch=-1)
        assert plus.amp_signal == pytest.approx(minus.amp_signal, rel=1e-12)
        assert plus.delta == pytest.approx(minus.delta, rel=1e-12)

        # thermal sum rule
        p_th = make_params(0.0, 0.3, nth=0.7)
        rep = integrate_variances(psd(p_th, steady_state(p_th), omega_grid=()))
        for val in rep.normalized().values():
            assert val == pytest.approx(1.0, rel=1e-3)

        # seed determinism
        p_sd = make_params(0.8, 0.5, gammaP=20.0, nth=0.2)
        cfg = SimConfig(dt=0.005, t_burn=40.0, t_sample=5.0, n_traj=4, seed=77)
        tr1 = integrate_trajectory(p_sd, cfg)
        tr2 = integrate_trajectory(p_sd, cfg)
        assert np.array_equal(tr1.A_i, tr2.A_i) and np.array_equal(tr1.A_P, tr2.A_P)
        info["detail"] = "PSD, closure, Goldstone, gauge/Z2, sum rule, determinism"
