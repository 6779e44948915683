"""Property tests at the boundary.

The closed forms: every input either raises a ParameterError, raises a
NumericsError because a finite variance overflows once scaled by
(n_th + 1/2), or gives NaN-free output whose infinities (normalized and
absolute) are flagged.  simulate's plan checks: every plan either exits 2
with one JSON diagnostic before anything is integrated, or reaches the
integrator.  `variances --method integrate`: every input, drawn across the
float range, exits 0 with NaN-free output whose infinities are flagged, or
exits 2 or 3 with one JSON diagnostic; stderr holds nothing else but the
slow-pump notice."""

import contextlib
import io
import json
import math
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nmpo import cli
from nmpo.errors import NumericsError, ParameterError, SlowPumpWarning
from nmpo.spectra import (
    VAR_LABELS,
    negativity_map,
    variances_above_threshold_u1,
    variances_below_threshold,
)

MU = st.floats(min_value=0.0, max_value=1e300)
KAPPA = st.floats(min_value=0.0, max_value=1e308, exclude_min=True) | st.just(math.inf)
OCCUPANCY = (
    st.floats(min_value=0.0, allow_infinity=False)
    | st.floats(max_value=0.0, exclude_max=True, allow_infinity=False)
    | st.sampled_from([math.nan, math.inf, -math.inf])
)


def _check_report(call):
    try:
        rep = call()
    except ParameterError:
        return
    except NumericsError as exc:
        assert "overflows" in str(exc), exc
        return
    for lab, value in rep.normalized().items():
        assert not math.isnan(value), (lab, value)
        assert not math.isinf(value) or rep.divergent[lab], (lab, value)
    for lab in VAR_LABELS:
        value = rep.absolute[lab]
        assert not math.isnan(value), (lab, rep.absolute)
        assert not math.isinf(value) or rep.divergent[lab], (lab, rep.absolute)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(MU, KAPPA, OCCUPANCY, st.none() | OCCUPANCY, st.booleans())
# y+ is finite (2e29) just above threshold, and (n_th + 1/2) y+ overflows
@example(1.000000000000001, 0.5, 1e300, None, False)
def test_closed_forms_raise_or_give_flagged_finite_values(mu, kappa, n_th, n_th_P, extrapolate):
    _check_report(lambda: variances_below_threshold(mu, kappa, n_th, extrapolate=extrapolate))
    _check_report(lambda: variances_above_threshold_u1(mu, kappa, n_th, n_th_P))
    try:
        rows = negativity_map([mu], [kappa], n_th)
    except ParameterError:
        return
    for row in rows:
        e_n, sigma_sq_abs = row[3], row[4]
        assert math.isfinite(e_n) and e_n >= 0.0, row
        assert math.isfinite(sigma_sq_abs) and sigma_sq_abs >= 0.0, row


ANY_FLOAT = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]) | st.floats()
ANY_INT = st.integers(-3, 40) | st.integers(-(10**20), 10**20) | st.just(10**400)


def plan(valid, wide):
    """An option left out (None), a value its check passes at kappa in [1, 10]
    (so that some plans reach the integrator), or any value at all."""
    return st.none() | valid | wide


DT = plan(st.floats(1e-4, 1e-3), ANY_FLOAT)
T_BURN = plan(st.floats(20.0, 100.0), ANY_FLOAT)
T_SAMPLE = plan(st.floats(20.0, 400.0), ANY_FLOAT)
STRIDE = plan(st.integers(1, 8), ANY_INT)
N_TRAJ = plan(st.integers(2, 400), ANY_INT)
KAPPAS = st.lists(st.floats(1.0, 10.0) | ANY_FLOAT, min_size=1, max_size=2)


class Reached(Exception):
    """The integrator was called: every plan check passed."""


def _reached(*args, **kwargs):
    raise Reached


@settings(max_examples=300, derandomize=True, deadline=None)
@given(DT, T_BURN, T_SAMPLE, STRIDE, N_TRAJ, KAPPAS)
@example(None, None, math.inf, None, None, [1.0])  # --t-sample inf
@example(None, math.nan, None, None, None, [1.0])  # --t-burn nan
@example(1e-300, None, 1e300, None, None, [1.0])  # t_sample / dt overflows
def test_simulate_plan_exits_2_or_reaches_the_integrator(dt, t_burn, t_sample, stride, n_traj,
                                                         kappas):
    argv = ["simulate", "--mu", "0.5", "--kappa=" + ",".join(repr(k) for k in kappas)]
    for option, value in (("--dt", dt), ("--t-burn", t_burn), ("--t-sample", t_sample),
                          ("--record-stride", stride), ("--n-traj", n_traj)):
        if value is not None:
            argv.append(f"{option}={value!r}")
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "integrate_trajectory", _reached), \
            mock.patch.object(cli, "integrate_ensemble", _reached), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Reached:
            return
    assert rc == 2, (argv, rc, err.getvalue())
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"]


def mostly(valid):
    """A value from valid four times in five, any float at all otherwise."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else ANY_FLOAT)


DRIVE = mostly(st.floats(0.0, 3.0))
MEMORY = st.sampled_from(["--kappa", "--tau-r"]).flatmap(
    lambda option: st.tuples(st.just(option), mostly(st.floats(0.05, 20.0))))
COUPLING = mostly(st.floats(1e-3, 1e3))
GAMMA0 = mostly(st.floats(0.1, 2.0))
GAMMA_P = mostly(st.floats(20.0, 1e3))
NTH = mostly(st.floats(0.0, 10.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(DRIVE, MEMORY, COUPLING, GAMMA0, GAMMA_P, NTH, NTH, st.sampled_from(["csv", "json"]))
# tau_r^2 overflows in the bath noise strength
@example(0.5, ("--kappa", 1e-300), 0.01, 1.0, 100.0, 0.0, 0.0, "json")
# g^2 overflows in the noise scale s^2
@example(0.5, ("--kappa", 1.0), 1e300, 1.0, 100.0, 0.0, 0.0, "csv")
# y- is divergent in the rotating phase: the mixing-angle minimum is x+'s
@example(2.0, ("--kappa", 1e-6), 0.01, 1.0, 100.0, 0.0, 0.0, "json")
def test_integrated_variances_exit_cleanly(mu, memory, g, gamma0, gamma_p, nth, nth_pump, fmt):
    argv = ["variances", "--method", "integrate", f"--format={fmt}", f"--mu={mu!r}",
            f"{memory[0]}={memory[1]!r}", f"--g={g!r}", f"--gamma0={gamma0!r}",
            f"--gammaP={gamma_p!r}", f"--nth={nth!r}", f"--nth-pump={nth_pump!r}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = cli.main(argv)
    assert [w for w in caught if not issubclass(w.category, SlowPumpWarning)] == [], argv
    lines = [line for line in err.getvalue().splitlines() if " warning: --gammaP " not in line]
    assert rc in (0, 2, 3), (argv, rc, err.getvalue())
    if rc:
        assert out.getvalue() == "", argv
        assert len(lines) == 1, (argv, lines)
        assert json.loads(lines[0])["error"]
        return
    assert lines == [], (argv, lines)
    text = out.getvalue()
    assert "nan" not in text, (argv, text)
    if fmt == "json":
        doc = json.loads(text)
        for lab, value in doc["sigma"].items():
            assert value != "inf" or doc["divergent"][lab], (argv, doc)
        for lab, value in doc["absolute"].items():
            assert value != "inf" or doc["divergent"][lab], (argv, doc)
        assert doc["sigma_sq_scan"] != "inf" or all(doc["divergent"][q] for q in ("x+", "y-"))
    else:
        *_, header, row = text.splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        for lab in ("x_plus", "x_minus", "y_plus", "y_minus"):
            assert values["sigma_" + lab] != "inf" or values["div_" + lab] == "1", (argv, text)
