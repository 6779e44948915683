"""Embedded linearization, eigenspectra, critical and exceptional points."""

import cmath
import math

import numpy as np
import pytest

from nmpo.errors import (
    BracketFailure,
    EigensolverFailure,
    InconsistentSteadyState,
    NumericsError,
    ParameterError,
)
from nmpo.linres import (
    EmbeddedMatrix,
    build_diffusion,
    build_embedded_matrix,
    disordered_eigenvalues_closed_form,
    eigenflow_sweep,
    eigenspectrum,
    exceptional_point_drive,
    locate_critical_drive,
)
from nmpo.meanfield import Phase, critical_drive, frequency_shift, steady_state, steady_state_branch
from nmpo.model import SystemParams


def params(mu, kappa, gammaP=100.0):
    return SystemParams.from_kappa(gamma0=1.0, gammaP=gammaP, kappa=kappa, g=0.01, mu=mu)


def spectrum_of(p, branch=None, **kw):
    ss = steady_state(p, **kw) if branch is None else steady_state_branch(p, branch, **kw)
    return eigenspectrum(build_embedded_matrix(p, ss))


def closest(values, target):
    return min(values, key=lambda v: abs(v - target))


# === closed-form pair =========================================================


def test_closed_form_double_root_at_coincidence():
    lp, lm = disordered_eigenvalues_closed_form(1.0, 0.5)
    assert lp == pytest.approx(0.0, abs=1e-15)
    assert lm == pytest.approx(0.0, abs=1e-15)


def test_closed_form_real_pair():
    lp, lm = disordered_eigenvalues_closed_form(0.0, 5.0)
    assert lp == pytest.approx((-10 + math.sqrt(60)) / 4, rel=1e-12)
    assert lm == pytest.approx((-10 - math.sqrt(60)) / 4, rel=1e-12)


def test_closed_form_complex_pair():
    lp, lm = disordered_eigenvalues_closed_form(0.5, 0.15)
    assert lp == pytest.approx(0.05 + 0.187082869339j, rel=1e-9)
    assert lm == pytest.approx(0.05 - 0.187082869339j, rel=1e-9)


def test_closed_form_gamma0_scaling():
    base = disordered_eigenvalues_closed_form(0.3, 0.8)
    scaled = disordered_eigenvalues_closed_form(0.3, 0.8, gamma0=2.5)
    assert scaled[0] == pytest.approx(2.5 * base[0])
    assert scaled[1] == pytest.approx(2.5 * base[1])


def test_closed_form_squeezed_branch_flips_drive():
    mu, kappa = 0.7, 1.3
    sq = disordered_eigenvalues_closed_form(mu, kappa, squeezed=True)
    expect_p = 0.25 * ((-mu - 2 * kappa) + cmath.sqrt((-mu + 2 * kappa) ** 2 - 8 * kappa))
    expect_m = 0.25 * ((-mu - 2 * kappa) - cmath.sqrt((-mu + 2 * kappa) ** 2 - 8 * kappa))
    assert sq[0] == pytest.approx(expect_p, rel=1e-12)
    assert sq[1] == pytest.approx(expect_m, rel=1e-12)


def test_closed_form_rejects_markovian():
    with pytest.raises(ParameterError):
        disordered_eigenvalues_closed_form(0.5, math.inf)


# === exceptional points =======================================================


def test_exceptional_point_values():
    assert exceptional_point_drive(0.5) == pytest.approx(1.0, rel=1e-12)
    assert exceptional_point_drive(2.0) == pytest.approx(0.0, abs=1e-12)
    assert exceptional_point_drive(0.15) == pytest.approx(math.sqrt(1.2) - 0.3, rel=1e-12)
    assert exceptional_point_drive(2.5) is None


def test_exceptional_point_ordering_vs_threshold():
    # coalescence before onset for weak memory, after it for strong memory
    assert exceptional_point_drive(1.25) < critical_drive(1.25)
    assert exceptional_point_drive(0.15) > critical_drive(0.15)


def test_eigenvector_coalescence_at_exceptional_point():
    kappa = 0.8
    mu_ep = exceptional_point_drive(kappa)
    p = params(mu_ep, kappa)
    em = build_embedded_matrix(p, steady_state(p))
    lam, vec = np.linalg.eig(em.matrix)
    target = 0.25 * (mu_ep - 2 * kappa)
    order = np.argsort(np.abs(lam - target))
    i, j = order[0], order[1]
    assert abs(lam[i] - lam[j]) < 1e-5
    vi = vec[:, i] / np.linalg.norm(vec[:, i])
    vj = vec[:, j] / np.linalg.norm(vec[:, j])
    angle = math.acos(min(1.0, abs(np.vdot(vi, vj))))
    assert angle < 1e-3


# === embedded matrix ==========================================================


def test_embedded_dimensions_and_labels():
    p = params(0.5, 1.0)
    em = build_embedded_matrix(p, steady_state(p))
    assert em.matrix.shape == (10, 10)
    assert em.labels[:6] == ("x+", "x-", "xP", "y+", "y-", "yP")
    assert em.frame == "static"
    pm = params(0.5, math.inf)
    emm = build_embedded_matrix(pm, steady_state(pm))
    assert emm.matrix.shape == (6, 6)


def test_embedded_matrix_is_real():
    for mu, kappa in ((0.5, 1.0), (2.0, 1.0), (1.0, 0.2)):
        p = params(mu, kappa)
        em = build_embedded_matrix(p, steady_state(p))
        assert np.isrealobj(em.matrix)


def test_rotating_frame_tagged():
    p = params(1.0, 0.2)
    em = build_embedded_matrix(p, steady_state(p))
    assert em.frame == "corotating"


def test_disordered_spectrum_contains_both_closed_form_pairs():
    for mu, kappa in ((0.0, 1.0), (0.5, 0.3), (0.9, 2.0)):
        p = params(mu, kappa)
        spec = spectrum_of(p, branch=Phase.DISORDERED)
        amp_pair = disordered_eigenvalues_closed_form(mu, kappa)
        sq_pair = disordered_eigenvalues_closed_form(mu, kappa, squeezed=True)
        for target in (*amp_pair, *sq_pair):
            assert abs(closest(spec.eigenvalues, target) - target) < 1e-9
        # pump relaxation appears twice
        near_pump = [v for v in spec.eigenvalues if abs(v + 50.0) < 1e-6]
        assert len(near_pump) == 2


def test_markovian_spectrum_exact():
    mu = 0.4
    p = params(mu, math.inf)
    spec = spectrum_of(p)
    expect = sorted(
        [0.5 * (mu - 1)] * 2 + [-0.5 * (mu + 1)] * 2 + [-50.0] * 2, reverse=True
    )
    got = sorted((v.real for v in spec.eigenvalues), reverse=True)
    assert np.allclose(got, expect, atol=1e-10)
    assert max(abs(v.imag) for v in spec.eigenvalues) < 1e-10


def test_goldstone_mode_unique_above_threshold():
    for mu, kappa in ((2.0, 1.0), (1.0, 0.2), (3.0, 0.35)):
        p = params(mu, kappa)
        spec = spectrum_of(p)
        small = [v for v in spec.eigenvalues if abs(v) < 1e-8]
        assert len(small) == 1
        rest = [v for v in spec.eigenvalues if abs(v) >= 1e-8]
        assert all(v.real < 0 for v in rest)


def test_inconsistent_steady_state_rejected():
    p = params(0.5, 1.0)
    wrong = steady_state(p.replace(mu=0.9))
    with pytest.raises(InconsistentSteadyState):
        build_embedded_matrix(p, wrong)


# === eigenspectrum bookkeeping ================================================


def test_eigenspectrum_sorted_and_conjugate_closed():
    p = params(0.5, 0.15)
    spec = spectrum_of(p)
    re = [v.real for v in spec.eigenvalues]
    assert re == sorted(re, reverse=True)
    vals = list(spec.eigenvalues)
    for v in vals:
        assert abs(closest(vals, v.conjugate()) - v.conjugate()) < 1e-10
    assert spec.max_re == pytest.approx(max(re))


def test_eigenspectrum_identity_matrix():
    em = EmbeddedMatrix(matrix=-np.eye(4), labels=("a", "b", "c", "d"), frame="static")
    spec = eigenspectrum(em)
    assert all(v == pytest.approx(-1.0) for v in spec.eigenvalues)
    assert spec.stable


def test_eigenspectrum_nonfinite_rejected():
    m = np.eye(3)
    m[0, 0] = math.nan
    with pytest.raises(EigensolverFailure):
        eigenspectrum(EmbeddedMatrix(matrix=m, labels=("a", "b", "c"), frame="static"))


def test_stability_flags():
    assert spectrum_of(params(0.5, 1.0)).stable
    assert not spectrum_of(params(2.0, 1.0), branch=Phase.DISORDERED).stable


# === marginal mode at onset ===================================================


@pytest.mark.parametrize("kappa", [0.1, 0.2, 0.3, 0.4])
def test_marginal_eigenvalue_oscillates_at_frequency_shift(kappa):
    p = params(critical_drive(kappa), kappa)
    spec = spectrum_of(p, branch=Phase.DISORDERED)
    marginal = [v for v in spec.eigenvalues if abs(v.real) < 1e-8]
    # amplified pair goes marginal in both quadrature sectors
    assert len(marginal) == 4
    ims = sorted(v.imag for v in marginal)
    delta = frequency_shift(kappa)
    for got, expect in zip(ims, (-delta, -delta, delta, delta)):
        assert got == pytest.approx(expect, abs=1e-8)


def test_marginal_eigenvalue_static_above_onset_kappa():
    p = params(1.0, 1.5)
    spec = spectrum_of(p, branch=Phase.DISORDERED)
    marginal = [v for v in spec.eigenvalues if abs(v.real) < 1e-8]
    assert len(marginal) == 2
    assert all(abs(v.imag) < 1e-10 for v in marginal)


# === critical-drive search ====================================================


def test_locate_critical_drive_examples():
    assert locate_critical_drive(params(0.0, 1.0), Phase.U1) == pytest.approx(1.0, abs=1e-6)
    assert locate_critical_drive(params(0.0, 0.2), Phase.U1XZ2) == pytest.approx(0.4, abs=1e-6)
    assert locate_critical_drive(params(0.0, 0.5), Phase.U1) == pytest.approx(1.0, abs=1e-6)


def test_locate_critical_drive_markovian():
    assert locate_critical_drive(params(0.0, math.inf), Phase.U1) == pytest.approx(1.0, abs=1e-6)


def test_locate_critical_drive_phase_mismatch():
    with pytest.raises(ParameterError):
        locate_critical_drive(params(0.0, 1.0), Phase.U1XZ2)
    with pytest.raises(ParameterError):
        locate_critical_drive(params(0.0, 1.0), Phase.DISORDERED)


def test_locate_critical_drive_bad_bracket():
    with pytest.raises(BracketFailure):
        locate_critical_drive(params(0.0, 1.0), Phase.U1, mu_lo=0.0, mu_hi=0.5)


# === Markovian degeneration of the embedding ==================================


def test_short_memory_converges_to_markovian_matrix():
    mu = 0.7
    markov = spectrum_of(params(mu, math.inf))
    mk_vals = list(markov.eigenvalues)

    def slow_block_error(kappa):
        spec = spectrum_of(params(mu, kappa))
        tau = 1.0 / kappa
        # keep everything well separated from the memory modes near -1/tau
        slow = [v for v in spec.eigenvalues if v.real > -0.7 / tau]
        assert len(slow) == 6
        return max(abs(closest(mk_vals, v) - v) for v in slow)

    e100 = slow_block_error(100.0)
    e1000 = slow_block_error(1000.0)
    assert e100 < 0.05
    # first-order convergence in the memory time
    assert e1000 < 0.25 * e100


# === branch sweeps ============================================================


def test_eigenflow_marks_special_drives():
    res = eigenflow_sweep(0.5, np.linspace(0.0, 2.0, 21))
    assert res.mu_cr == pytest.approx(1.0)
    assert res.mu_ep == pytest.approx(1.0)
    branches = {ph for _, ph, _ in res.rows}
    assert branches == {Phase.DISORDERED, Phase.U1}


def test_eigenflow_includes_rotating_branch_for_long_memory():
    res = eigenflow_sweep(0.15, np.linspace(0.0, 2.0, 11))
    branches = {ph for _, ph, _ in res.rows}
    assert Phase.U1XZ2 in branches
    assert res.mu_cr == pytest.approx(0.3)
    assert res.mu_ep == pytest.approx(math.sqrt(1.2) - 0.3)


def test_eigenflow_double_root_at_coincidence_point():
    res = eigenflow_sweep(0.5, np.array([1.0]))
    dis = [lams for mu, ph, lams in res.rows if ph is Phase.DISORDERED][0]
    # double root at zero in each quadrature sector
    near_zero = [v for v in dis if abs(v) < 1e-6]
    assert len(near_zero) == 4


def test_eigenflow_markovian_has_no_exceptional_point():
    res = eigenflow_sweep(math.inf, np.linspace(0.0, 0.8, 5), phases=(Phase.DISORDERED,))
    assert res.mu_ep is None


@pytest.mark.parametrize(
    "kappa, n_th_s, entry",
    [
        # the bath noise strength 4 s^2 gamma0 / tau_r^2 is subnormal on the diagonal
        (1e-154, 0.0, "4.000e-314"),
        # it is normal, but the +- correlation it carries is subnormal
        (1e-150, 2.0**-40, "-3.638e-318"),
    ],
)
def test_a_subnormal_diffusion_entry_is_a_numerics_error(kappa, n_th_s, entry):
    p = params(0.5, kappa).replace(n_th_s=n_th_s)
    with pytest.raises(NumericsError, match=f"^diffusion entry {entry} below the normal float"):
        build_diffusion(p, include_pump=False)
    # the same memory time with equal occupancies has no correlation entry
    if n_th_s:
        assert build_diffusion(p.replace(n_th_s=0.0), include_pump=False)[6, 7] == 0.0
