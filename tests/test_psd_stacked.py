"""The stacked PSD against the frequency-by-frequency oracle.

spectra.psd evaluates its grid as one (N, 6, 6) stack, and susceptibility_at
and the force PSD at one frequency are the one-frequency case of the same
elimination; tests/psd_oracle.py keeps the loop they replace.  Results must agree bit
for bit, and a singular grid must fail with the same message.
"""

import math
import warnings

import numpy as np
import pytest

import psd_oracle as oracle
from nmpo import linres, spectra
from nmpo.errors import OutOfRegime, ParameterError, SingularAtFrequency, SlowPumpWarning
from nmpo.linres import build_embedded_matrix
from nmpo.meanfield import Phase, critical_drive, steady_state, steady_state_branch
from nmpo.model import SystemParams
from nmpo.spectra import integrate_variances, psd, susceptibility_at


def params(mu, kappa):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowPumpWarning)
        return SystemParams.from_kappa(gamma0=1.0, gammaP=100.0, kappa=kappa, g=0.01, mu=mu)


# (mu, kappa) of one state per phase, the boundary at kappa above and below
# 1/2, and the Markovian limit below, at and above threshold.
STATES = {
    "disordered": (0.5, 1.0),
    "u1": (1.5, 1.0),
    "u1xz2": (1.5, 0.2),
    "boundary": (critical_drive(1.0), 1.0),
    "boundary-rotating": (critical_drive(0.2), 0.2),
    "markov-disordered": (0.5, math.inf),
    "markov-boundary": (critical_drive(math.inf), math.inf),
    "markov-u1": (1.5, math.inf),
}
# Each grid is made from (params, steady state); None is psd's default.
GRIDS = {
    "default": lambda p, ss: None,
    "n64": lambda p, ss: oracle.default_grid(p, ss, 64),
    "user": lambda p, ss: [-7.5, -0.3, 1e-3, 0.25, 2.0, 40.0],
    "user-short": lambda p, ss: [-2.0, 0.5, 3.0],
}


def at(name):
    p = params(*STATES[name])
    return p, steady_state(p)


def force_psd(p, ss, omega):
    """(omega, D(omega)) from the one-frequency elimination."""
    om, _, feed = spectra._eliminate_memory(linres.build_embedded_matrix(p, ss), [omega])
    return om[0], spectra._force_psd(linres.build_diffusion(p, ss), feed)[0]


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("state", STATES)
def test_psd_equals_the_frequency_loop(state, grid):
    p, ss = at(state)
    omega_grid = GRIDS[grid](p, ss)
    om, mats = oracle.psd(p, ss, omega_grid)
    sd = psd(p, ss, omega_grid)
    assert sd.omega.tobytes() == om.tobytes()
    assert sd.matrices.shape == mats.shape
    assert sd.matrices.tobytes() == mats.tobytes()


@pytest.mark.parametrize("state", STATES)
def test_one_frequency_helpers_equal_the_frequency_loop(state):
    p, ss = at(state)
    a = build_embedded_matrix(p, ss)
    for w in (-3.0, 0.25, 17.0):
        assert susceptibility_at(a, w).tobytes() == oracle.susceptibility_at(p, ss, w).tobytes()
        omega, got = force_psd(p, ss, w)
        assert got.tobytes() == oracle.diffusion_matrix(p, ss, w).tobytes()
        assert omega == w


@pytest.mark.parametrize(
    "grid",
    [[0.0, 1.0, 2.0], [-2.0, 1.0, 0.0], [-1e-300, 0.0, 1.0], [1.0, -0.0, 0.0]],
    ids=["first", "last", "after-tiny", "signed-zero-first"],
)
@pytest.mark.parametrize("state", ["u1", "markov-u1"])
def test_singular_grid_names_its_first_singular_frequency(state, grid):
    # The gauge zero mode makes the response singular at omega = 0.
    p, ss = at(state)
    with pytest.raises(SingularAtFrequency) as want:
        oracle.psd(p, ss, omega_grid=grid)
    with pytest.raises(SingularAtFrequency) as got:
        psd(p, ss, omega_grid=grid)
    assert str(got.value) == str(want.value)


def test_singular_frequency_message_at_one_frequency():
    p, ss = at("u1")
    with pytest.raises(SingularAtFrequency) as want:
        oracle.susceptibility_at(p, ss, 0.0)
    with pytest.raises(SingularAtFrequency) as got:
        susceptibility_at(build_embedded_matrix(p, ss), 0.0)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "grid",
    [[math.nan, 1.0], [math.inf], [-1.0, -math.inf], [[1.0, 2.0], [3.0, 4.0]], 1.0, ["x"],
     np.empty((0, 3)), [[]]],
    ids=["nan", "inf", "minus-inf", "2-d", "scalar", "not-a-number", "2-d-empty", "nested-empty"],
)
@pytest.mark.parametrize("state", ["disordered", "markov-disordered"])
def test_bad_grid_is_a_parameter_error(state, grid):
    p, ss = at(state)
    with pytest.raises(ParameterError) as exc:
        psd(p, ss, omega_grid=grid)
    assert exc.value.violations[0][0] == "omega_grid"


@pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
def test_one_frequency_helpers_reject_non_finite_omega(omega):
    p, ss = at("disordered")
    with pytest.raises(ParameterError):
        susceptibility_at(build_embedded_matrix(p, ss), omega)
    with pytest.raises(ParameterError):
        force_psd(p, ss, omega)


def _no_spectral_pass(monkeypatch):
    def fail(name):
        return lambda *args, **kwargs: pytest.fail(f"empty grid called {name}")

    monkeypatch.setattr(spectra, "_eliminate_memory", fail("_eliminate_memory"))
    monkeypatch.setattr(spectra, "_check_response", fail("_check_response"))
    monkeypatch.setattr(np.linalg, "inv", fail("np.linalg.inv"))


@pytest.mark.parametrize("state", ["disordered", "u1", "u1xz2", "markov-disordered", "markov-u1"])
@pytest.mark.parametrize("grid", [(), [], np.empty(0)], ids=["tuple", "list", "array"])
def test_empty_grid_gives_an_empty_stack(monkeypatch, state, grid):
    # The stability check of these states tests no marginal candidate, so
    # nothing here needs a response matrix: the empty grid is the pair alone.
    p, ss = at(state)
    want = psd(p, ss, oracle.default_grid(p, ss, 8))
    _no_spectral_pass(monkeypatch)
    sd = psd(p, ss, omega_grid=grid)
    assert sd.generator.tobytes() == want.generator.tobytes()
    assert sd.diffusion.tobytes() == want.diffusion.tobytes()
    assert sd.omega.shape == (0,) and sd.omega.dtype == float
    assert sd.matrices.shape == (0, 6, 6) and sd.matrices.dtype == complex


def test_empty_grid_still_refuses_an_unstable_state(monkeypatch):
    p = params(2.0, 1.0)
    ss = steady_state_branch(p, Phase.DISORDERED)
    _no_spectral_pass(monkeypatch)
    with pytest.raises(OutOfRegime):
        psd(p, ss, omega_grid=())


@pytest.mark.parametrize("state", ["disordered", "u1", "u1xz2", "markov-u1"])
def test_spectral_data_carries_the_pair_it_was_built_from(state):
    p, ss = at(state)
    sd = psd(p, ss, oracle.default_grid(p, ss, 8))
    assert sd.generator.tobytes() == linres.build_embedded_matrix(p, ss).tobytes()
    assert sd.diffusion.tobytes() == linres.build_diffusion(p, ss).tobytes()


def test_integrate_variances_does_not_rebuild_the_generator(monkeypatch):
    # A stable disordered state has no marginal candidate, so nothing in
    # integrate_variances needs A beyond the copy psd carries.
    p, ss = at("disordered")
    sd = psd(p, ss, omega_grid=())
    monkeypatch.setattr(linres, "build_embedded_matrix", lambda *args: pytest.fail("rebuilt A"))
    monkeypatch.setattr(linres, "build_diffusion", lambda *args: pytest.fail("rebuilt D"))
    rep = integrate_variances(sd)
    assert ss.phase is Phase.DISORDERED
    want = spectra.variances_below_threshold(0.5, 1.0).sigma_x_plus
    assert rep.sigma_x_plus == pytest.approx(want, rel=1e-12)


# (mu, kappa) over the disordered state, the threshold at kappa = 0.2, 1/2
# and 1, the u1 and u1xz2 phases, kappa just off 1/2, and the Markovian limit.
RULE_GRID = [
    (mu, kappa)
    for kappa in (0.2, 0.49, 0.5, 0.51, 1.0, math.inf)
    for mu in (0.5, critical_drive(kappa), 1.5, 3.0)
]


@pytest.mark.parametrize("mu,kappa", RULE_GRID)
def test_marginal_projector_on_the_prebuilt_generator_equals_the_rebuilding_rule(mu, kappa):
    p = params(mu, kappa)
    ss = steady_state(p)
    a = build_embedded_matrix(p, ss)
    got_proj, got_touched = spectra._marginal_projector(a, spectra._marginal_rule(a, p.gamma0))
    want_proj, want_touched = spectra._marginal_projector(a, oracle._marginal_rule(p, ss))
    assert got_proj.tobytes() == want_proj.tobytes()
    assert got_touched.tobytes() == want_touched.tobytes()
    # The gauge mode above threshold and the critical modes on it are marginal.
    assert bool(got_touched.any()) is (mu >= critical_drive(kappa))


@pytest.mark.parametrize(
    "mu,kappa", [(0.5, 1.0), (1.5, 1.0), (1.5, 0.2), (1.0, 0.5), (0.98, 0.49), (1.5, math.inf)]
)
def test_variances_point_builds_the_generator_once(monkeypatch, capsys, mu, kappa):
    from nmpo import cli

    # tests per candidate (re, im), one dict per rule made
    builds, tests, rules = [], [], []
    build, test, rule = linres.build_embedded_matrix, spectra.susceptibility_at, spectra._marginal_rule

    def counting_build(*args):
        builds.append(args)
        return build(*args)

    def counting_test(a, omega):
        tests.append(omega)
        return test(a, omega)

    def counting_rule(a, gamma0):
        is_marginal, per_candidate = rule(a, gamma0), {}
        rules.append(per_candidate)

        def spy(re, im):
            before = len(tests)
            out = is_marginal(re, im)
            per_candidate[re, im] = per_candidate.get((re, im), 0) + len(tests) - before
            return out

        return spy

    monkeypatch.setattr(linres, "build_embedded_matrix", counting_build)
    monkeypatch.setattr(spectra, "susceptibility_at", counting_test)
    monkeypatch.setattr(spectra, "_marginal_rule", counting_rule)
    argv = ["variances", "--mu", str(mu), "--kappa", str(kappa), "--method", "integrate"]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(builds) == 1
    # psd's instability check and integrate_variances' Schur sort each hold one rule.
    assert len(rules) == 2
    assert all(n <= 1 for per_candidate in rules for n in per_candidate.values())
    assert len(tests) == sum(n for per_candidate in rules for n in per_candidate.values())


def _projected_covariance(sd):
    """The solve of integrate_variances with the projector algebra spelled
    out for P = 0: A - (A + gamma0 I) P and (I - P) D (I - P)^T."""
    from scipy.linalg import solve_continuous_lyapunov

    a, d = sd.generator, sd.diffusion
    proj = np.zeros_like(a)
    eye = np.eye(a.shape[0])
    keep = eye - proj
    full = solve_continuous_lyapunov(a - (a + sd.params.gamma0 * eye) @ proj,
                                     -(keep @ d @ keep.T))
    return full[:6, :6]


# Disordered points, Markovian and with memory, gammaP from 20 to 1e3, and
# unequal occupancies, which correlate the + and - members of each pair in
# D (negatively where n_th_i < n_th_s).
DISORDERED = [
    (mu, kappa, gp, nth_i, nth_s)
    for mu, kappa in ((0.0, 1.0), (0.5, 1.0), (0.5, 0.3), (0.19, 0.1), (0.5, 50.0),
                      (0.3, math.inf), (0.999, math.inf), (critical_drive(0.7) * 0.99, 0.7))
    for gp, nth_i, nth_s in ((100.0, 0.0, 0.0), (20.0, 0.1, 2.5), (1e3, 3.0, 0.4))
]


@pytest.mark.parametrize("mu,kappa,gp,nth_i,nth_s", DISORDERED)
def test_covariance_without_a_marginal_mode_equals_the_projected_solve(mu, kappa, gp, nth_i,
                                                                        nth_s):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowPumpWarning)
        p = SystemParams.from_kappa(gamma0=1.0, gammaP=gp, kappa=kappa, g=0.01, mu=mu,
                                    n_th_i=nth_i, n_th_s=nth_s, n_th_P=0.7)
    ss = steady_state(p)
    assert ss.phase is Phase.DISORDERED
    sd = psd(p, ss, omega_grid=())
    a = sd.generator
    _, touched = spectra._marginal_projector(a, spectra._marginal_rule(a, p.gamma0))
    assert not touched.any()
    assert bool((sd.diffusion < 0).any()) is (nth_i < nth_s)
    rep = integrate_variances(sd)
    assert rep.covariance.tobytes() == _projected_covariance(sd).tobytes()
