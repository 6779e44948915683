"""Steady states, phase classification, and the phase diagram."""

import cmath
import dataclasses
import math

import numpy as np
import pytest

from nmpo.errors import (
    EigensolverFailure,
    InconsistentSteadyState,
    OutOfRegime,
    ParameterError,
)
from nmpo.linres import RESIDUAL_TOL, build_embedded_matrix
from nmpo.meanfield import (
    Phase,
    classify_phase,
    critical_drive,
    frequency_shift,
    mode_amplitudes,
    phase_diagram,
    steady_state,
    steady_state_branch,
    steady_state_residual,
)
from nmpo.model import SystemParams


def params(mu, kappa, gammaP=100.0, **kw):
    return SystemParams.from_kappa(gamma0=1.0, gammaP=gammaP, kappa=kappa, g=0.01, mu=mu, **kw)


# === threshold and frequency shift ============================================


def test_critical_drive_branches():
    assert critical_drive(2.0) == 1.0
    assert critical_drive(0.25) == pytest.approx(0.5)
    assert critical_drive(0.5) == 1.0
    assert critical_drive(math.inf) == 1.0
    # continuity at the branch point
    assert critical_drive(0.5 - 1e-12) == pytest.approx(1.0, abs=1e-11)


def test_frequency_shift_values():
    assert frequency_shift(1.0) == 0.0
    assert frequency_shift(0.25) == pytest.approx(0.25)
    assert frequency_shift(0.2) == pytest.approx(0.2 * math.sqrt(1.5), rel=1e-12)
    assert frequency_shift(math.inf) == 0.0


def test_frequency_shift_vanishes_at_onset():
    assert frequency_shift(0.5) == 0.0
    assert frequency_shift(0.5 - 1e-10) == pytest.approx(0.0, abs=1e-4)
    for kappa in (0.05, 0.2, 0.4, 0.4999):
        assert frequency_shift(kappa) > 0.0


# === phase classification =====================================================


def test_classify_phase_examples():
    assert classify_phase(1.5, 2.0) is Phase.U1
    assert classify_phase(1.5, 0.3) is Phase.U1XZ2
    assert classify_phase(0.3, 0.3) is Phase.DISORDERED


def test_classify_boundary_is_disordered():
    assert classify_phase(1.0, 2.0) is Phase.DISORDERED
    assert classify_phase(0.6, 0.3) is Phase.DISORDERED
    assert classify_phase(1.0, 0.5) is Phase.DISORDERED


def test_classify_deep_drive_with_memory_is_rotating():
    # long memory keeps the rotating phase stable even at large drive
    assert classify_phase(5.0, 0.3) is Phase.U1XZ2


# === steady states ============================================================


def test_disordered_state():
    ss = steady_state(params(0.5, 1.0))
    assert ss.phase is Phase.DISORDERED
    assert ss.amp_signal == 0.0
    assert ss.pump_amp == pytest.approx(0.5j)
    assert ss.delta == 0.0
    assert ss.mu_cr == 1.0


def test_u1_state():
    ss = steady_state(params(2.0, 1.0))
    assert ss.phase is Phase.U1
    assert ss.amp_signal == pytest.approx(1.0)
    assert ss.pump_amp == pytest.approx(1.0j)
    assert ss.delta == 0.0


def test_u1xz2_state():
    ss = steady_state(params(1.0, 0.2))
    assert ss.phase is Phase.U1XZ2
    assert ss.mu_cr == pytest.approx(0.4)
    assert ss.amp_signal == pytest.approx(math.sqrt(0.6), rel=1e-12)
    assert ss.delta == pytest.approx(0.2 * math.sqrt(1.5), rel=1e-12)
    assert ss.pump_amp == pytest.approx(0.4j)


def test_amplitude_continuous_at_threshold():
    for kappa in (0.2, 1.0):
        mu_cr = critical_drive(kappa)
        amp = steady_state(params(mu_cr + 1e-10, kappa)).amp_signal
        assert amp == pytest.approx(0.0, abs=2e-5)


def test_mode_amplitudes_time_dependence():
    ss = steady_state(params(1.0, 0.2), z2_branch=1, phi=0.8)
    a_i0, a_s0, a_p0 = mode_amplitudes(ss, 0.0)
    amp = math.sqrt(0.6)
    assert a_i0 == pytest.approx(1j * cmath.exp(0.4j) * amp)
    assert a_s0 == pytest.approx(1j * cmath.exp(-0.4j) * amp)
    assert a_p0 == pytest.approx(0.4j)
    # rotation advances idler phase by +delta*t on the +1 branch
    t = 0.7
    a_it, a_st, _ = mode_amplitudes(ss, t)
    assert a_it == pytest.approx(a_i0 * cmath.exp(1j * ss.delta * t))
    assert a_st == pytest.approx(a_s0 * cmath.exp(-1j * ss.delta * t))


def test_z2_branches_mirror():
    p = params(1.0, 0.2)
    plus = steady_state(p, z2_branch=1)
    minus = steady_state(p, z2_branch=-1)
    assert plus.amp_signal == minus.amp_signal
    assert plus.delta == minus.delta
    t = 1.3
    a_ip, _, _ = mode_amplitudes(plus, t)
    a_im, _, _ = mode_amplitudes(minus, t)
    # opposite winding directions, same modulus
    assert abs(a_ip) == pytest.approx(abs(a_im))
    assert cmath.phase(a_ip / 1j) == pytest.approx(-cmath.phase(a_im / 1j))


def test_branch_request_out_of_regime():
    with pytest.raises(OutOfRegime):
        steady_state_branch(params(0.5, 1.0), Phase.U1)
    with pytest.raises(OutOfRegime):
        steady_state_branch(params(2.0, 1.0), Phase.U1XZ2)
    with pytest.raises(ParameterError):
        steady_state_branch(params(1.0, 0.2), Phase.U1XZ2, z2_branch=2)


def test_unstable_branch_constructible():
    # the zero-amplitude branch continues above threshold (for eigenflow)
    ss = steady_state_branch(params(2.0, 1.0), Phase.DISORDERED)
    assert ss.amp_signal == 0.0 and ss.pump_amp == pytest.approx(2.0j)


# === residuals (stationarity of the ansatz) ===================================


@pytest.mark.parametrize("mu,kappa", [(0.0, 1.0), (0.5, 1.0), (0.9, 0.2), (2.0, 1.0),
                                      (2.0, math.inf), (1.0, 0.2), (3.0, 0.1)])
def test_residual_small_all_phases(mu, kappa):
    p = params(mu, kappa)
    ss = steady_state(p)
    assert steady_state_residual(p, ss) < 1e-10


@pytest.mark.parametrize("phi", [0.0, 1.3, math.pi, -2.2])
@pytest.mark.parametrize("z2", [1, -1])
def test_residual_gauge_and_branch_invariant(phi, z2):
    p = params(1.0, 0.2)
    ss = steady_state(p, z2_branch=z2, phi=phi)
    assert steady_state_residual(p, ss) < 1e-10


def test_residual_detects_wrong_state():
    p = params(0.5, 1.0)
    wrong = steady_state(p.replace(mu=0.9))
    assert steady_state_residual(p, wrong) > 1e-3


# Drives far above threshold, each family that exists there: the pump
# residual is taken relative to gammaP max(1, mu), so rounding of the drive
# does not reject them.
LARGE_DRIVES = [3e8, 1e9, 1e12]
FAMILIES = [(1.0, Phase.DISORDERED), (1.0, Phase.U1), (math.inf, Phase.U1),
            (0.2, Phase.DISORDERED), (0.2, Phase.U1XZ2)]


@pytest.mark.parametrize("mu", LARGE_DRIVES)
@pytest.mark.parametrize("kappa,phase", FAMILIES)
def test_large_drives_pass_the_residual_check(mu, kappa, phase):
    p = params(mu, kappa)
    ss = steady_state_branch(p, phase)
    assert steady_state_residual(p, ss) <= RESIDUAL_TOL
    build_embedded_matrix(p, ss)


@pytest.mark.parametrize("mu", LARGE_DRIVES)
@pytest.mark.parametrize("kappa,phase", FAMILIES)
def test_residual_check_rejects_an_amplitude_off_by_a_millionth(mu, kappa, phase):
    p = params(mu, kappa)
    ss = steady_state_branch(p, phase)
    fields = ("pump_amp",) if phase is Phase.DISORDERED else ("amp_signal", "pump_amp")
    for name in fields:
        off = dataclasses.replace(ss, **{name: getattr(ss, name) * (1 + 1e-6)})
        assert steady_state_residual(p, off) > RESIDUAL_TOL
        with pytest.raises(InconsistentSteadyState, match="stationarity residual"):
            build_embedded_matrix(p, off)


@pytest.mark.parametrize("kappa", [0.2, 1.0, math.inf])
def test_drives_past_spectral_resolution_are_refused(kappa):
    # At mu = 1e24 the eigen-solve rounds the pump coupling gammaP |A| / sqrt(2)
    # to about 1.6e-2: the rotating margin came out as -1.9e-5 for -0.1.
    with pytest.raises(EigensolverFailure, match="drive too large to resolve the spectrum"):
        phase_diagram([1e24], [kappa])
    # The one-state generator (the variances route) refuses a drive past the
    # same floor with the same message.
    p = params(1e16, kappa)
    with pytest.raises(EigensolverFailure, match=r"^drive too large to resolve the spectrum: "
                       r"rounding 1\.6e-06 exceeds 1e-06 gamma0$"):
        build_embedded_matrix(p, steady_state(p))


# === phase diagram ============================================================


def test_phase_diagram_grid_and_stability():
    mu_grid = np.linspace(0.0, 2.0, 9)
    kappa_grid = np.array([0.2, 0.5, 1.5])
    rows = phase_diagram(mu_grid, kappa_grid)
    assert len(rows) == mu_grid.size * kappa_grid.size
    # kappa-major ordering
    assert [r[1] for r in rows[: mu_grid.size]] == [0.2] * mu_grid.size
    for mu, kappa, ph, max_re in rows:
        assert ph is classify_phase(mu, kappa)
        assert max_re <= 1e-8


def test_phase_diagram_known_margins():
    rows = phase_diagram([0.0, 1.0], [0.5, 1.0])
    table = {(mu, kappa): max_re for mu, kappa, _, max_re in rows}
    # margin at the critical point vanishes
    assert table[(1.0, 0.5)] == pytest.approx(0.0, abs=1e-9)
    # no drive: relaxation at half the bare rate, kappa = 1 gives Re = -1/2
    assert table[(0.0, 1.0)] == pytest.approx(-0.5, abs=1e-9)


def test_phase_diagram_u1_interior_stable():
    (row,) = phase_diagram([2.0], [2.0])
    assert row[2] is Phase.U1
    assert row[3] < -1e-3
