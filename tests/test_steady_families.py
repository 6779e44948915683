"""Property test of the stationary families stated once in steady_row.

steady_state_branch and steady_state are the one-drive case of
meanfield.steady_row; tests/linres_oracle.py keeps them as they were, each
family written out on its own.  Both must give the same state field by
field (by repr), and raise the same error class on the same inputs.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import linres_oracle as oracle
from nmpo.errors import NonPositiveRate, OutOfRegime, ParameterError
from nmpo.meanfield import (
    Phase,
    SteadyState,
    classify_phase,
    critical_drive,
    steady_row,
    steady_state,
    steady_state_branch,
)
from nmpo.model import SystemParams

MU = st.floats(min_value=0.0, max_value=10.0)
KAPPA = st.floats(min_value=0.0, max_value=5.0, exclude_min=True) | st.sampled_from([0.5, math.inf])
GAMMA0 = st.sampled_from([1.0, 1.3])
BRANCHES = [(1, 0.0), (-1, 0.3), (1, -2.2), (-1, math.pi)]


def params_at(gamma0, kappa, mu):
    """SystemParams at kappa, or None for a kappa whose tau_r = 1/(gamma0 kappa)
    overflows, after checking that from_kappa rejects it."""
    if math.isinf(1.0 / (gamma0 * kappa)):
        with pytest.raises(NonPositiveRate, match="too small"):
            SystemParams.from_kappa(gamma0, 100.0 * gamma0, kappa, 0.01, mu)
        return None
    return SystemParams.from_kappa(gamma0, 100.0 * gamma0, kappa, 0.01, mu)


def outcome(call):
    try:
        return repr(call())
    except ParameterError as exc:
        return type(exc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(MU, KAPPA, GAMMA0)
@example(0.4, 0.2, 1.0)  # mu = mu_cr = 2 kappa
@example(0.6, 0.3, 1.0)  # mu = 2 kappa
@example(1.0, 0.2, 1.0)  # mu = 1 with memory: u1 exists, unstable
@example(1.0, 1.0, 1.0)  # mu = mu_cr = 1
@example(1.0, 0.5, 1.0)  # kappa = 1/2 at mu_cr
@example(2.0, 0.5, 1.3)  # kappa = 1/2 above threshold
@example(1.0, math.inf, 1.0)
@example(0.0, 0.2, 1.3)
def test_branches_equal_the_frozen_families(mu, kappa, gamma0):
    p = params_at(gamma0, kappa, mu)
    if p is None:
        return
    for z2, phi in BRANCHES:
        for phase in Phase:
            got = outcome(lambda: steady_state_branch(p, phase, z2, phi))
            assert got == outcome(lambda: oracle.steady_state_branch(p, phase, z2, phi)), phase
        got = outcome(lambda: steady_state(p, z2, phi))
        assert got == outcome(lambda: oracle.steady_state(p, z2, phi))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(MU, max_size=12), KAPPA)
@example([0.0, 0.4, 0.5, 1.0, 2.0], 0.2)  # through mu_cr = 2 kappa, then mu = 1
@example([0.0, 1.0, 1.5], 0.5)
@example([0.0, 1.0, 1.5], math.inf)
def test_stable_row_phases_are_the_classified_phases(mus, kappa):
    p = params_at(1.0, kappa, 0.0)
    if p is None:
        return
    try:
        critical_drive(p.kappa)
    except ParameterError as exc:
        with pytest.raises(type(exc)):
            steady_row(p, np.array(mus, dtype=float))
        return
    index, row = steady_row(p, np.array(mus, dtype=float))
    assert index.tolist() == list(range(len(mus)))
    assert row.phase == tuple(classify_phase(mu, p.kappa) for mu in mus)


@pytest.mark.parametrize(
    "mu, kappa",
    [(0, 0.2), (1, 0.2), (2, 0.2), (1, 1.0), (2, 1.0), (3, 0.5), (2, math.inf), (0, math.inf)],
)
def test_integer_drive_gives_the_float_drive_states(mu, kappa):
    """An int mu (SystemParams keeps its type) must not truncate a family's
    pump or rotation: every phase, u1xz2 at kappa = 0.2 included, gives the
    state, or the error class, of the same float drive."""
    p_int = SystemParams.from_kappa(1, 100, kappa, 0.01, mu)
    p_float = SystemParams.from_kappa(1.0, 100.0, kappa, 0.01, float(mu))
    assert isinstance(p_int.mu, int)
    for phase in Phase:
        got = outcome(lambda: steady_state_branch(p_int, phase))
        assert got == outcome(lambda: steady_state_branch(p_float, phase)), phase
    assert repr(steady_state(p_int)) == repr(steady_state(p_float))


def row_state(p, phase, z2, phi):
    """The state steady_row gives at the one drive p.mu, or the OutOfRegime
    text where the family does not exist there."""
    index, row = steady_row(p, np.array([p.mu]), phase)
    if index.size == 0:
        return f"OutOfRegime: no {phase.value} state at mu = {p.mu}, kappa = {p.kappa}"
    return SteadyState(phase, float(row.amp_signal[0]), complex(row.a_p[0]),
                       float(row.rot[0]), z2, phi, critical_drive(p.kappa))


@pytest.mark.parametrize("gamma0", [1.0, 1.3])
@pytest.mark.parametrize("kappa", [0.2, 0.3, 0.5, 1.0, math.inf])
def test_one_drive_state_is_the_steady_row_state(kappa, gamma0):
    """steady_state_branch evaluates its family at the scalar drive; every
    field equals, by repr, the state of the one-drive steady_row, at mu_cr,
    1 and 2 kappa exactly and on either side."""
    drives = {0.0, critical_drive(kappa), 1.0, 1.5, 3.0}
    if math.isfinite(kappa):
        drives |= {2.0 * kappa, math.nextafter(2.0 * kappa, 0.0)}
    for mu in sorted(drives):
        p = SystemParams.from_kappa(gamma0, 100.0 * gamma0, kappa, 0.01, mu)
        for phase in Phase:
            for z2, phi in [(1, 0.4), (-1, -2.2)]:
                want = row_state(p, phase, z2, phi)
                try:
                    got = steady_state_branch(p, phase, z2, phi)
                except OutOfRegime as exc:
                    got = f"OutOfRegime: {exc}"
                assert repr(got) == repr(want), (mu, phase)
