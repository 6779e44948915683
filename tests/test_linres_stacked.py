"""The stacked linear response against the point-by-point oracle.

phase_diagram and eigenflow_sweep solve each kappa row (each branch of it)
as one stack; tests/linres_oracle.py keeps the loops they replace.  Results
must agree bit for bit: phases exactly, margins and eigenvalues by repr.
"""

import math
import re
import warnings

import numpy as np
import pytest

import linres_oracle as oracle
from nmpo.errors import (
    InconsistentSteadyState,
    NonPositiveRate,
    ParameterError,
    SlowPumpWarning,
)
from nmpo.linres import build_embedded_matrix, eigenflow_sweep, eigenspectrum, row_spectra
from nmpo.meanfield import (
    Phase,
    check_grid,
    phase_diagram,
    row_residuals,
    steady_row,
    steady_state,
    steady_state_branch,
    steady_state_residual,
)
from nmpo.model import SystemParams

MU = np.linspace(0.0, 2.0, 201)
PHASE_MAP_KAPPAS = np.linspace(0.05, 2.0, 201)
# Twenty phase-map rows; all but 0, 50 and 100 have a kappa that does not
# survive the round trip through tau_r = 1/(gamma0 kappa) unchanged.
PHASE_MAP_ROWS = [0, 6, 18, 34, 35, 40, 42, 43, 50, 77, 79, 83, 85, 100, 145, 147, 152, 181,
                  190, 199]


def base(gamma0=1.0, gammaP=100.0):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SlowPumpWarning)
        return SystemParams(gamma0=gamma0, gammaP=gammaP, tau_r=1.0, g=0.01, mu=0.0)


def as_text(rows):
    return [(repr(mu), repr(kappa), phase, repr(max_re)) for mu, kappa, phase, max_re in rows]


def flow_text(res):
    rows = [(repr(mu), ph, [repr(v) for v in lams]) for mu, ph, lams in res.rows]
    return rows, repr(res.kappa), repr(res.mu_cr), repr(res.mu_ep)


@pytest.mark.parametrize("j", PHASE_MAP_ROWS)
def test_phase_map_rows_equal_the_point_loop(j):
    kappa = [PHASE_MAP_KAPPAS[j]]
    assert as_text(phase_diagram(MU, kappa)) == as_text(oracle.phase_diagram(MU, kappa))


@pytest.mark.parametrize(
    "kappas",
    [[math.inf], [0.5], [1e3], [0.2, math.inf, 1.0], [1e308, 1e200, 1e16]],
)
@pytest.mark.parametrize("gamma0,gammaP", [(1.0, 100.0), (1.3, 37.0)])
def test_phase_diagram_equals_the_point_loop(kappas, gamma0, gammaP):
    b = base(gamma0, gammaP)
    got = phase_diagram(MU, kappas, base=b)
    assert as_text(got) == as_text(oracle.phase_diagram(MU, kappas, base=b))


@pytest.mark.parametrize("gamma0,gammaP", [(1.0, 100.0), (1.3, 37.0)])
def test_drives_exactly_at_threshold(gamma0, gammaP):
    # mu = 1 and mu = 2 kappa sit on the boundary, where the kappa rebuilt
    # from tau_r decides the phase (0.45 comes back as 0.44999999999999996
    # at gamma0 = 1, 0.3 as 0.30000000000000004 at gamma0 = 1.3)
    kappas = [0.15, 0.25, 0.3, 0.35, 0.45, 0.5, 1.0, 2.0]
    mu = sorted({1.0, 2.0, *(2.0 * k for k in kappas), *np.nextafter(1.0, [0.0, 2.0])})
    b = base(gamma0, gammaP)
    got = phase_diagram(mu, kappas, base=b)
    assert as_text(got) == as_text(oracle.phase_diagram(mu, kappas, base=b))
    for kappa in kappas:
        assert flow_text(eigenflow_sweep(kappa, mu, base=b)) == flow_text(
            oracle.eigenflow_sweep(kappa, mu, base=b)
        )


@pytest.mark.parametrize("kappa", [1.25, 0.5, 0.15, 0.45, math.inf, 1e3, 1e308])
@pytest.mark.parametrize("gamma0,gammaP", [(1.0, 100.0), (1.3, 37.0)])
def test_eigenflow_equals_the_point_loop(kappa, gamma0, gammaP):
    b = base(gamma0, gammaP)
    mu = np.linspace(0.0, 2.0, 401)
    assert flow_text(eigenflow_sweep(kappa, mu, base=b)) == flow_text(
        oracle.eigenflow_sweep(kappa, mu, base=b)
    )


def test_eigenflow_requested_branches_in_order():
    phases = (Phase.U1XZ2, Phase.DISORDERED, Phase.U1XZ2)
    mu = np.linspace(0.0, 2.0, 21)
    got = eigenflow_sweep(0.2, mu, phases=phases)
    assert flow_text(got) == flow_text(oracle.eigenflow_sweep(0.2, mu, phases=phases))
    # a family absent at this memory gives no rows
    assert eigenflow_sweep(1.0, mu, phases=(Phase.U1XZ2,)).rows == ()


def states():
    """Stable and unstable states at odd gauges and branches, and a wrong one."""
    for mu, kappa in ((0.3, 0.2), (1.0, 0.2), (2.5, 1.0), (0.7, 0.3), (3.0, 0.1), (2.0, math.inf)):
        p = SystemParams.from_kappa(1.3, 130.0, kappa, 0.01, mu)
        for phase in Phase:
            for z2, phi in ((1, 0.0), (-1, 1.3), (1, -2.2), (-1, math.pi)):
                try:
                    yield p, steady_state_branch(p, phase, z2, phi)
                except ParameterError:
                    pass
    p = SystemParams.from_kappa(1.0, 100.0, 1.0, 0.01, 0.5)
    yield p, steady_state(p.replace(mu=0.9))


@pytest.mark.parametrize("p,ss", list(states()))
def test_single_state_routes_equal_the_oracle(p, ss):
    want_res = float(oracle.steady_state_residual(p, ss))
    assert repr(steady_state_residual(p, ss)) == repr(want_res)
    try:
        want = oracle.build_embedded_matrix(p, ss)
    except InconsistentSteadyState as exc:
        with pytest.raises(InconsistentSteadyState, match=f"^{re.escape(str(exc))}$"):
            build_embedded_matrix(p, ss)
        return
    got = build_embedded_matrix(p, ss)
    assert got.tobytes() == want.tobytes()
    assert repr(eigenspectrum(got)) == repr(oracle.eigenspectrum(want))


@pytest.mark.parametrize("kappa", [0.2, 1.0, math.inf])
def test_row_spectra_stack_the_single_state_spectra(kappa):
    p = SystemParams.from_kappa(1.0, 100.0, kappa, 0.01, 0.0)
    index, row = steady_row(p, MU, Phase.DISORDERED)
    vals, max_re = row_spectra(p, row)
    for i, lams, margin in zip(index, vals, max_re):
        spec = eigenspectrum(build_embedded_matrix(p.replace(mu=MU[i]), steady_state_branch(
            p.replace(mu=MU[i]), Phase.DISORDERED)))
        assert repr(tuple(lams.tolist())) == repr(spec.eigenvalues)
        assert repr(float(margin)) == repr(spec.max_re)


@pytest.mark.parametrize("kappa", [0.2, 1.0, math.inf])
@pytest.mark.parametrize("phase", [None, *Phase])
def test_row_residuals_are_the_single_state_residuals(kappa, phase):
    p = SystemParams.from_kappa(1.3, 37.0 * 1.3, kappa, 0.01, 0.0)
    mu = np.linspace(0.0, 3.0, 61)
    index, row = steady_row(p, mu, phase)
    got = row_residuals(p, row)
    assert got.shape == index.shape
    for i, res in zip(index, got):
        q = p.replace(mu=mu[i])
        ss = steady_state(q) if phase is None else steady_state_branch(q, phase)
        assert repr(float(res)) == repr(float(oracle.steady_state_residual(q, ss)))


def test_a_failing_point_is_named_as_in_the_point_loop():
    mu = [0.0, 0.5, 1e10, 1e30]
    with pytest.raises(InconsistentSteadyState) as want:
        oracle.phase_diagram(mu, [1e-5, 1.0])
    with pytest.raises(InconsistentSteadyState, match=f"^{re.escape(str(want.value))}$"):
        phase_diagram(mu, [1e-5, 1.0])


def test_the_first_invalid_point_is_named_before_any_is_solved():
    # kappa-major order: the bad drive of row j=0 comes before the bad kappa of row j=1
    with pytest.raises(ParameterError, match=r"^phase diagram point \(i=2, j=0\) mu=nan"):
        phase_diagram([0.0, 0.5, math.nan], [1.0, -1.0])
    with pytest.raises(NonPositiveRate, match=r"^phase diagram point \(i=0, j=1\) mu=0.0, kappa=-1"):
        phase_diagram([0.0, 0.5], [1.0, -1.0, math.nan])
    # a numerical failure earlier in the grid does not hide an invalid point
    with pytest.raises(ParameterError, match=r"\(i=1, j=0\) mu=-1.0"):
        phase_diagram([1e10, -1.0], [1.0])
    with pytest.raises(NonPositiveRate, match=r"^kappa must be > 0, got -1.0$"):
        check_grid(base(), [0.5], [1.0, -1.0])
    with pytest.raises(ParameterError, match=r"^mu: must be non-negative and finite, got inf$"):
        eigenflow_sweep(1.0, [0.0, math.inf])
