"""The two-thread eigen-solve of large stacks (linres._eigvals).

A stack past linres._SPLIT_WORK is solved half on the calling thread and
half on one persistent helper thread.  The split must not show: spectra and
margins equal a whole-stack np.linalg.eigvals byte for byte, a failed solve
in either half names the drive the whole-stack route names, the helper is
one thread however often it is used, and a forked child starts its own.
The allowed CPUs are set per test, so that the split is taken (or not) on
any machine.
"""

import math
import os
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from nmpo import linres
from nmpo.errors import EigensolverFailure
from nmpo.meanfield import _BASE, _GOLDSTONE_TOL, Phase, phase_diagram, steady_row

MU = np.linspace(0.0, 2.0, 201)


def allow(monkeypatch, cpus):
    monkeypatch.setattr(linres, "_allowed_cpus", lambda pid: set(range(cpus)))


@pytest.fixture
def two_cpus(monkeypatch):
    allow(monkeypatch, 2)


def generators(kappa, mu, phase=None):
    p = _BASE.replace(kappa=kappa)
    _, row = steady_row(p, mu, phase)
    return p, row, linres._generators(p, row)


def solved(cpus, run):
    """run() with cpus allowed, and the (on the main thread, count, dtype kind)
    of each eigvals call."""
    calls = []
    eigvals = np.linalg.eigvals

    def recorded(a):
        vals = eigvals(a)
        calls.append((threading.current_thread() is threading.main_thread(), len(a), vals.dtype.kind))
        return vals

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "eigvals", recorded)
        allow(mp, cpus)
        return run(), calls


def assert_split_is_whole(run, count):
    """run() split and whole give the same bytes; returns the dtype kinds of
    the helper's half, the caller's half and the whole stack."""
    (vals, max_re), split = solved(2, run)
    (want_vals, want_max_re), whole = solved(1, run)
    (helper, *helper_half), (caller, *caller_half) = sorted(split)
    [(main, *whole_stack)] = whole
    assert (helper, caller, main) == (False, True, True)
    assert (helper_half[0], caller_half[0], whole_stack[0]) == ((count + 1) // 2, count // 2, count)
    assert vals.tobytes() == want_vals.tobytes()
    assert max_re.tobytes() == want_max_re.tobytes()
    return helper_half[1], caller_half[1], whole_stack[1]


def with_threshold(mu, kappa):
    # mu = 1 and, below kappa = 1/2, mu = 2 kappa are phase boundaries
    edges = [1.0, *np.nextafter(1.0, [0.0, 2.0]), *([2.0 * kappa] if kappa < 0.5 else [])]
    return np.unique(np.concatenate([mu, edges]))


@pytest.mark.parametrize("kappa", [0.3, 1.0, 3.0, 10.0])
def test_memory_rows_split_as_one_solve(kappa):
    mu = with_threshold(MU, kappa)
    p, row, mats = generators(kappa, mu)
    assert mats.shape[1:] == (10, 10)
    gauge_tol = _GOLDSTONE_TOL * p.gamma0
    assert_split_is_whole(lambda: linres.row_spectra(p, row, gauge_tol), len(mu))


def test_a_markovian_row_splits_as_one_solve():
    # every Markovian spectrum on this row is real: whole stack and halves come back float
    mu = with_threshold(np.linspace(0.0, 2.0, 801), math.inf)
    p, row, mats = generators(math.inf, mu)
    assert mats.shape[1:] == (6, 6)
    gauge_tol = _GOLDSTONE_TOL * p.gamma0
    kinds = assert_split_is_whole(lambda: linres.row_spectra(p, row, gauge_tol), len(mu))
    assert kinds == ("f", "f", "f")


@pytest.mark.parametrize(
    "real, other",
    [
        # kappa = 3: real spectra below threshold, complex pairs above it
        ((3.0, np.linspace(0.0, 1.0, 100), None), (3.0, np.linspace(1.5, 2.0, 100), None)),
        # Markovian: real on the stable states up to mu = 12, complex on u1 past 15
        ((math.inf, np.linspace(0.0, 12.0, 400), None),
         (math.inf, np.linspace(15.0, 40.0, 400), Phase.U1)),
    ],
    ids=["memory", "markovian"],
)
@pytest.mark.parametrize("real_half", ["helper", "caller"])
def test_a_half_of_real_spectra_splits_as_one_solve(real, other, real_half):
    # The half of real spectra comes back from eigvals as a float array, the
    # other half and the whole stack as complex ones.
    reals, others = generators(*real)[2], generators(*other)[2]
    assert len(reals) == len(others)
    mats = np.empty((len(reals) + len(others), *reals.shape[1:]))
    first, second = (reals, others) if real_half == "helper" else (others, reals)
    mats[0::2], mats[1::2] = first, second
    gauge = np.arange(len(mats)) % 3 == 0
    kinds = assert_split_is_whole(lambda: linres._spectra(mats, gauge, 1e-3), len(mats))
    assert kinds == (("f", "c", "c") if real_half == "helper" else ("c", "f", "c"))


def test_small_stacks_and_one_cpu_are_solved_whole_on_this_thread():
    mats = generators(1.0, MU)[2]
    for cpus, stack in ((1, mats), (2, mats[:1]), (2, mats[:149]),
                        (2, generators(math.inf, np.linspace(0.0, 2.0, 694))[2])):
        _, calls = solved(cpus, lambda: linres._spectra(stack))
        assert [call[:2] for call in calls] == [(True, len(stack))]


@pytest.mark.parametrize("bad", [100, 101], ids=["helper-half", "caller-half"])
def test_a_failed_solve_in_either_half_names_the_same_drive(monkeypatch, bad):
    poison = generators(1.0, MU)[2][bad]
    eigvals = np.linalg.eigvals
    failed_on = []

    def failing(a):
        if (a == poison).all(axis=(1, 2)).any():
            failed_on.append(threading.current_thread() is threading.main_thread())
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    messages = []
    for cpus in (1, 2):
        allow(monkeypatch, cpus)
        failed_on.clear()
        with pytest.raises(EigensolverFailure) as err:
            phase_diagram(MU, [1.0])
        messages.append(str(err.value))
    # the split row failed on the half holding the drive, its rerun on this thread
    assert failed_on == [bad % 2 == 1, True]
    assert messages[1] == messages[0]
    assert messages[0] == (
        f"phase diagram point (i={bad}, j=0) mu={MU[bad]}, kappa=1.0: "
        "eigensolver did not converge: Eigenvalues did not converge"
    )


def test_repeated_diagrams_keep_one_helper(two_cpus):
    before = threading.active_count()
    for _ in range(50):
        phase_diagram(MU, [1.0])
    assert threading.active_count() <= before + 1


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_solves_on_its_own_helper(two_cpus):
    # The parent's helper thread does not exist in the child; a child that
    # submitted to the parent's executor would wait for it forever.
    want = phase_diagram(MU, [1.0])
    assert any(t.name.startswith("nmpo-eigvals") for t in threading.enumerate())
    with warnings.catch_warnings():
        # Python 3.12 warns about forking a process that has threads
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if phase_diagram(MU, [1.0]) == want else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30.0
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child did not finish its phase diagram in 30 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
