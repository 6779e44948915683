"""The shared-Schur covariance solve against the projector-then-Lyapunov oracle.

spectra.integrate_variances takes one ordered real Schur form of A and
derives the marginal projector and the Lyapunov solve from it;
tests/variances_oracle.py keeps the route it replaces (solve_sylvester for
the projector, then solve_continuous_lyapunov of the shifted pair).  Where
no mode is marginal the covariances must agree bit for bit; elsewhere the
finite variances agree to SHARED_SCHUR_RTOL.
"""

import math

import numpy as np
import pytest
import scipy.linalg

import variances_oracle as oracle
from nmpo import cli, spectra
from nmpo.errors import NumericsError, ParameterError
from nmpo.meanfield import critical_drive, steady_state
from nmpo.model import SystemParams
from nmpo.spectra import integrate_variances, psd

# Largest relative change of a finite normalized variance between the two
# routes for kappa <= 1e3.  Measured worst: 1.3e-8 at kappa = 0.499 (a slow
# non-marginal mode beside the gauge mode makes X ill-conditioned), 5.5e-10
# at kappa = 1e3, 1e-11 at kappa = 0.49, below 5e-12 elsewhere.
SHARED_SCHUR_RTOL = 5e-8
GRID_KAPPAS = (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49, 0.499, 0.5, 0.501, 0.51, 0.6, 0.7,
               1.0, 1.5, 2.0, 5.0, 10.0, 100.0, 1e3, math.inf)
# Stiff memory (kappa >= 1e4): both routes lose digits to the rounding of
# the embedded generator (relative changes up to 3e-4 at kappa = 1e6), so
# the change is reported, not bounded.
STIFF_KAPPAS = (1e4, 1e5, 1e6)
MU_GRID = np.linspace(0.0, 3.0, 61).tolist()


def params(mu, kappa, n_th=0.0, gammaP=100.0, g=0.01):
    return SystemParams.from_kappa(gamma0=1.0, gammaP=gammaP, kappa=kappa, g=g, mu=mu,
                                   n_th_i=n_th, n_th_s=n_th, n_th_P=n_th)


def variances(p):
    return integrate_variances(psd(p, steady_state(p), omega_grid=()))


def both_routes(p):
    """(new, oracle) report or exception text of one point."""
    sd = psd(p, steady_state(p), omega_grid=())
    out = []
    for route in (integrate_variances, oracle.integrate_variances):
        try:
            out.append(route(sd))
        except NumericsError as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def largest_change(got, want):
    return max(
        (abs(got.normalized()[lab] - v) / abs(v)
         for lab, v in want.normalized().items() if math.isfinite(v)),
        default=0.0,
    )


@pytest.mark.parametrize("n_th,gammaP", [(0.0, 100.0), (0.3, 20.0)])
def test_shared_schur_covariance_matches_the_projector_route(n_th, gammaP, record_property):
    bitwise = marginal = 0
    worst = 0.0
    for kappa in GRID_KAPPAS + STIFF_KAPPAS:
        for mu in MU_GRID:
            try:
                got, want = both_routes(params(mu, kappa, n_th, gammaP))
            except ParameterError:
                continue
            where = f"mu={mu}, kappa={kappa}"
            if isinstance(want, str):
                assert got == want, where
                continue
            assert got.divergent == want.divergent, where
            if not any(want.divergent.values()):
                bitwise += 1
                assert got.covariance.tobytes() == want.covariance.tobytes(), where
                continue
            marginal += 1
            change = largest_change(got, want)
            if kappa in STIFF_KAPPAS:
                worst = max(worst, change)
            else:
                assert change <= SHARED_SCHUR_RTOL, (where, change)
    record_property("stiff_kappa_largest_relative_change", worst)
    assert bitwise > 100 and marginal > 100


@pytest.mark.parametrize("mu,kappa", [(0.5, 1.0), (1.5, 1.0), (1.5, 0.2)])
@pytest.mark.parametrize("g", [1e148, 1e150, 1e152])
def test_large_couplings_keep_their_normalized_variances(mu, kappa, g):
    # trsyl scales its solution down by about 1e-296 to stay in range here;
    # multiplying by that scale, as scipy does, gave zero variances.
    want = variances(params(mu, kappa))
    got = variances(params(mu, kappa, g=g))
    assert got.divergent == want.divergent
    assert largest_change(got, want) <= SHARED_SCHUR_RTOL


def run(capsys, argv):
    rc = cli.main(argv)
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("mu", ["0.4", "0.5", "1", "1.5"])
def test_stiff_kappa_exit_codes_and_messages_match_the_projector_route(monkeypatch, capsys, mu):
    for exponent in range(8, 309, 3):
        argv = ["variances", "--mu", mu, "--kappa", f"1e{exponent}", "--method", "integrate",
                "--format", "json"]
        got = run(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "integrate_variances", oracle.integrate_variances)
            m.setattr(spectra, "integrate_variances", oracle.integrate_variances)
            want = run(capsys, argv)
        assert got == want, argv


SCHUR_POINTS = [(0.5, 1.0), (1.5, 1.0), (1.5, 0.2), (critical_drive(1.0), 1.0), (1.5, math.inf)]


@pytest.mark.parametrize("mu,kappa", SCHUR_POINTS)
def test_one_schur_form_per_variances_point(monkeypatch, mu, kappa):
    p = params(mu, kappa)
    sd = psd(p, steady_state(p), omega_grid=())
    spectra._marginal_schur(sd.generator, lambda re, im: False)  # workspace query done
    sorted_gees, tests = [], []
    gees, test = scipy.linalg.lapack.dgees, spectra.susceptibility_at

    def counting_gees(select, a, **kwargs):
        sorted_gees.append(kwargs.get("sort_t", 0))
        return gees(select, a, **kwargs)

    def counting_test(a, omega):
        tests.append(omega)
        return test(a, omega)

    def refuse(*args, **kwargs):
        pytest.fail("a second decomposition")

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", counting_gees)
    monkeypatch.setattr(scipy.linalg, "schur", refuse)
    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", refuse)
    monkeypatch.setattr(scipy.linalg, "solve_sylvester", refuse)
    monkeypatch.setattr(spectra, "susceptibility_at", counting_test)
    rep = integrate_variances(sd)
    assert sorted_gees == [1]
    assert any(rep.divergent.values()) is (mu >= critical_drive(kappa))
    if (mu, kappa) == (1.5, 0.2):
        # The sort's marginal-mode rule tests the rotating phase's candidates.
        assert tests


@pytest.mark.parametrize(
    "mu,kappa",
    SCHUR_POINTS + [(mu, kappa) for kappa in (0.49, 0.5, 0.51, math.inf)
                    for mu in (0.5, critical_drive(kappa), 2.0)],
)
def test_marginal_schur_is_scipys_ordered_schur_bit_for_bit(mu, kappa):
    p = params(mu, kappa)
    a = psd(p, steady_state(p), omega_grid=()).generator
    assert a.shape == ((6, 6) if math.isinf(kappa) else (10, 10))
    t, z, k, _, _ = spectra._marginal_schur(a, spectra._marginal_rule(a, p.gamma0))
    want = scipy.linalg.schur(a, output="real", sort=spectra._marginal_rule(a, p.gamma0))
    assert (t.tobytes(), z.tobytes(), k) == (want[0].tobytes(), want[1].tobytes(), want[2])
    assert (k > 0) is (mu >= critical_drive(kappa))


def test_marginal_schur_refuses_a_non_finite_generator(monkeypatch):
    def refuse(*args, **kwargs):
        pytest.fail("LAPACK saw a non-finite matrix")

    monkeypatch.setattr(scipy.linalg.lapack, "dgees", refuse)
    a = np.eye(6)
    a[2, 3] = math.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectra._marginal_schur(a, lambda re, im: False)
