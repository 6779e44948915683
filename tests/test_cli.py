"""Command-line interface: outputs, formats, exit codes, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace

import pytest

import sde_oracle
from psd_oracle import default_grid
import nmpo
from nmpo import cli, spectra
from nmpo.cli import main
from nmpo.meanfield import Phase
from nmpo.sde import integrate_trajectory

SIM_FAST = ["--gammaP", "20", "--dt", "0.005"]


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


SLOW_PUMP = "warning: --gammaP 20.0 is below 100 x --gamma0 1.0;"


def diagnostic(err):
    """The JSON diagnostic on stderr's last line; a run below --gammaP 100
    may put the one slow-pump notice before it, and nothing else."""
    *notes, last = err.splitlines()
    assert len(notes) <= 1 and all(SLOW_PUMP in line for line in notes)
    return json.loads(last)


def data_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return lines[0].split(","), [l.split(",") for l in lines[1:]]


# === parser-level behavior ====================================================


def test_version_and_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "nmpo" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_unknown_flag_gives_json_diagnostic(capsys):
    rc, _, err = run(capsys, "steady-state", "--bogus")
    assert rc == 2
    diag = json.loads(err)
    assert diag["error"] == "ParameterError"


def test_bad_grid_spec(capsys):
    rc, _, err = run(capsys, "phase-diagram", "--mu", "0:2", "--kappa", "1")
    assert rc == 2
    assert json.loads(err)["error"] == "ParameterError"


def test_main_reuses_one_parser_without_leaking_state(capsys):
    argvs = [
        ("steady-state", "--mu", "1", "--kappa", "0.2", "--z2-branch", "-1", "--phi", "0.4"),
        ("steady-state", "--bogus"),
        ("phase-diagram", "--mu", "0:2:5", "--kappa", "0.2,inf", "--gamma0", "1.3"),
        ("phase-diagram", "--mu", "0:2"),
        ("steady-state", "--mu", "1", "--kappa", "0.2"),
        ("eigenflow", "--mu", "0:2:3", "--tau-r", "2"),
        ("variances", "--mu", "0.5", "--method", "closed"),
        ("phase-diagram", "--mu", "0:2:5", "--kappa", "0.2,inf"),
    ]
    alone = []
    for argv in argvs:
        cli._build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    together = [run(capsys, *argv) for argv in argvs]
    assert together == alone
    assert [rc for rc, _, _ in together] == [0, 2, 0, 2, 0, 0, 0, 0]
    assert cli._build_parser.cache_info().misses == 1


# === scalar reports ===========================================================


def test_steady_state_report(capsys):
    rc, out, _ = run(capsys, "steady-state", "--mu", "1.0", "--kappa", "0.2")
    assert rc == 0
    doc = json.loads(out)
    assert {"phase", "mu_cr", "delta", "z2_branch", "phi", "A_i", "A_s", "A_P",
            "residual", "max_re_lambda", "stable"} <= set(doc)
    assert doc["phase"] == "u1xz2"
    assert doc["delta"] == pytest.approx(0.2449489743)
    assert doc["A_i"]["im"] == pytest.approx(math.sqrt(0.6))
    assert doc["residual"] < 1e-10
    assert doc["stable"] == 1
    rc, out, _ = run(capsys, "steady-state", "--mu", "1.0", "--kappa", "0.2",
                     "--z2-branch", "-1")
    doc = json.loads(out)
    # delta is the non-negative shift magnitude; the branch carries the sense
    assert doc["delta"] == pytest.approx(0.2449489743)
    assert doc["z2_branch"] == -1


def test_variances_scalar_closed(capsys):
    rc, out, _ = run(capsys, "variances", "--mu", "2", "--kappa", "1", "--method", "closed")
    assert rc == 0
    doc = json.loads(out)
    assert doc["phase"] == "u1"
    assert doc["method"] == "closed"
    assert doc["sigma"]["x+"] == pytest.approx(0.7)
    assert doc["sigma"]["x-"] == "inf"
    assert doc["divergent"] == {"x+": False, "x-": True, "y+": False, "y-": False}
    assert doc["squeezed"] in ("x+", "y-")


def test_variances_closed_unavailable_in_rotating_phase(capsys):
    rc, _, err = run(capsys, "variances", "--mu", "1.0", "--kappa", "0.2",
                     "--method", "closed")
    assert rc == 2
    diag = json.loads(err)
    assert diag["error"] == "ParameterError"
    assert diag["violations"][0][0] == "method"


def test_variances_report_the_occupancy_given(capsys):
    docs = {}
    for method in ("closed", "integrate"):
        rc, out, err = run(capsys, "variances", "--mu", "0.5", "--kappa", "1", "--nth", "0.3",
                           "--method", method, "--format", "json")
        assert rc == 0, err
        docs[method] = json.loads(out)
    assert docs["integrate"]["n_th"] == docs["closed"]["n_th"] == 0.3


@pytest.mark.parametrize("kappa", ["0.2", "0.5", "1", "inf"])
def test_variances_at_threshold_closed_agrees_with_integrate(capsys, kappa):
    from nmpo.meanfield import critical_drive

    mu = repr(critical_drive(float(kappa)))
    docs = {}
    for method in ("auto", "closed", "integrate"):
        rc, out, err = run(capsys, "variances", "--mu", mu, "--kappa", kappa,
                           "--method", method)
        assert rc == 0, err
        docs[method] = json.loads(out)
    want = docs["integrate"]
    assert want["divergent"] == {"x+": False, "x-": True, "y+": True, "y-": False}
    for method in ("auto", "closed"):
        doc = docs[method]
        assert doc["phase"] == "disordered"
        assert doc["divergent"] == want["divergent"]
        for lab in ("x+", "y-"):
            assert doc["sigma"][lab] == pytest.approx(want["sigma"][lab], rel=1e-9, abs=0.0)
        assert doc["sigma"]["x-"] == doc["sigma"]["y+"] == "inf"


def test_variances_grid_through_threshold_uses_the_closed_forms(capsys):
    rc, out, err = run(capsys, "variances", "--mu", "0:2:5", "--kappa", "1")
    assert rc == 0, err
    _, rows = data_rows(out)
    at_threshold = {r[0]: r for r in rows}["1"]
    assert at_threshold[2] == "disordered"
    assert at_threshold[-4:] == ["0", "1", "1", "0"]


def _spy_psd(monkeypatch, n_points=None):
    """Route both bindings of psd (spectra's and cli's) through a spy that
    records the size of each call's grid; with n_points, every call evaluates
    psd on n_points over the span of its default grid instead of the
    arguments it was given."""
    real, sizes = spectra.psd, []

    def spy(params, ss, *args, **kwargs):
        if n_points:
            sd = real(params, ss, default_grid(params, ss, n_points))
        else:
            sd = real(params, ss, *args, **kwargs)
        sizes.append(sd.omega.size)
        return sd

    monkeypatch.setattr(spectra, "psd", spy)
    monkeypatch.setattr(cli, "psd", spy)
    return sizes


def test_variances_integrate_evaluates_no_psd_grid(capsys, monkeypatch):
    # every point (disordered, threshold, u1, u1xz2, Markovian) takes only the
    # stability check and (A, D) from psd
    sizes = _spy_psd(monkeypatch)
    rc, _, err = run(capsys, "variances", "--mu", "0:2:21", "--kappa", "0.2,0.5,1,inf",
                     "--method", "integrate")
    assert rc == 0, err
    assert sizes == [0] * 84


@pytest.mark.parametrize(
    "mu, kappa",
    [(0.5, 1.0), (1.0, 1.0), (0.4, 0.2), (2.0, 1.0), (0.9, 0.2), (0.5, math.inf), (2.0, math.inf)],
    ids=["disordered", "threshold", "threshold-rotating", "u1", "u1xz2", "markov", "markov-u1"],
)
def test_variances_without_a_grid_equal_the_64_point_route(monkeypatch, mu, kappa):
    args = cli._build_parser().parse_args(["variances", "--method", "integrate", "--nth", "0.3"])
    with monkeypatch.context() as m:
        sizes = _spy_psd(m, n_points=64)
        want_phase, want = cli._variance_report_at(args, mu, kappa, "integrate")
    assert sizes == [64]
    phase, got = cli._variance_report_at(args, mu, kappa, "integrate")
    assert phase is want_phase
    assert (got.sigma_sq_scan is not None) == (phase is Phase.U1XZ2)
    # bit-equal: every field's repr, and the covariance's bytes (NaN included)
    assert repr(replace(got, covariance=None)) == repr(replace(want, covariance=None))
    assert got.covariance.tobytes() == want.covariance.tobytes()


# === grid outputs =============================================================


def test_phase_diagram_grid(capsys):
    rc, out, _ = run(capsys, "phase-diagram", "--mu", "0:2:5", "--kappa", "0.2,1.0")
    assert rc == 0
    assert "# columns: mu,kappa,phase,max_re_lambda" in out
    header, rows = data_rows(out)
    assert header == ["mu", "kappa", "phase", "max_re_lambda"]
    assert len(rows) == 10
    assert {r[2] for r in rows} <= {"disordered", "u1", "u1xz2"}
    assert {r[1] for r in rows} == {"0.2", "1"}
    assert all(float(r[3]) <= 1e-8 for r in rows)


@pytest.mark.parametrize(
    "argv, kappa_meta, row_kappas",
    [
        (("--kappa", "0.2,1.0"), "kappa=0.2,1.0", {"0.2", "1"}),
        ((), "kappa=0.05:2:201", None),
        (("--tau-r", "2"), "kappa=0.5", {"0.5"}),
        (("--gamma0", "2", "--gammaP", "200", "--tau-r", "2"), "kappa=0.25", {"0.25"}),
    ],
)
def test_phase_diagram_header_names_the_kappa_it_solved(capsys, argv, kappa_meta, row_kappas):
    rc, out, _ = run(capsys, "phase-diagram", "--mu", "0.5,2", *argv)
    assert rc == 0
    params_line = next(l for l in out.splitlines() if l.startswith("# params:"))
    assert params_line.endswith(f" mu=0.5,2 {kappa_meta}")
    _, rows = data_rows(out)
    solved = {r[1] for r in rows}
    if row_kappas is None:  # the default grid
        assert len(solved) == 201
    else:
        assert solved == row_kappas


@pytest.mark.parametrize(
    "argv",
    [
        ("negativity", "--mu", "0.5", "--tau-r", "2"),
        ("variances", "--mu", "0.5,1", "--tau-r", "2"),
        ("eigenflow", "--mu", "0:2:3", "--tau-r", "2"),
    ],
)
def test_csv_header_names_the_kappa_tau_r_solved(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    params_line = next(l for l in out.splitlines() if l.startswith("# params:"))
    assert " tau_r=2.0 " in params_line
    assert " kappa=0.5" in params_line and " kappa=1 " not in params_line
    header, rows = data_rows(out)
    assert {r[header.index("kappa")] for r in rows} == {"0.5"}


@pytest.mark.parametrize(
    "argv",
    [
        ("steady-state", "--mu", "0.5"),
        ("variances", "--mu", "0.5"),
        ("simulate", "--mu", "0.5", *SIM_FAST, "--n-traj", "2", "--t-burn", "40",
         "--t-sample", "11", "--record-stride", "10"),
    ],
)
def test_json_meta_names_the_memory_time_given(capsys, argv):
    rc, out, _ = run(capsys, *argv, "--tau-r", "2")
    assert rc == 0
    meta = json.loads(out)["meta"]
    assert meta["tau_r"] == 2.0
    assert float(meta["kappa"]) == 0.5
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert "tau_r" not in json.loads(out)["meta"]


def test_headers_name_only_the_options_taken(capsys):
    rc, out, _ = run(capsys, "phase-diagram", "--mu", "0.5", "--kappa", "1")
    assert rc == 0
    assert "# params: gamma0=1.0 gammaP=100.0 mu=0.5 kappa=1" in out.splitlines()
    rc, out, _ = run(capsys, "negativity", "--mu", "0.5", "--nth", "0,1")
    assert rc == 0
    assert "# params: gamma0=1.0 nth=0,1 mu=0.5 kappa=0.2 comparator=0" in out.splitlines()
    rc, out, _ = run(capsys, "steady-state", "--mu", "0.5")
    assert rc == 0
    assert set(json.loads(out)["meta"]) == {
        "tool", "version", "command", "gamma0", "gammaP", "mu", "kappa"
    }


def test_eigenflow_metadata_and_rows(capsys):
    rc, out, _ = run(capsys, "eigenflow", "--kappa", "0.5", "--mu", "0:2:5")
    assert rc == 0
    assert "mu_cr[kappa=0.5]=1" in out
    assert "mu_ep[kappa=0.5]=1" in out
    header, rows = data_rows(out)
    assert header == ["kappa", "mu", "branch", "index", "re_lambda", "im_lambda"]
    assert {r[2] for r in rows} <= {"disordered", "u1", "u1xz2"}
    # 10 eigenvalues per point: 6 quadratures + 4 kernel-damped partners
    assert {int(r[3]) for r in rows} == set(range(10))


def test_variances_grid_divergence_flags(capsys):
    rc, out, _ = run(capsys, "variances", "--mu", "0.5,2", "--kappa", "1",
                     "--method", "closed")
    assert rc == 0
    header, rows = data_rows(out)
    assert header[:3] == ["mu", "kappa", "phase"]
    assert header[-4:] == ["div_x_plus", "div_x_minus", "div_y_plus", "div_y_minus"]
    by_mu = {r[0]: r for r in rows}
    assert by_mu["0.5"][2] == "disordered" and by_mu["0.5"][-3] == "0"
    assert by_mu["2"][2] == "u1" and by_mu["2"][-3] == "1"
    assert by_mu["2"][4] == "inf"


def test_negativity_with_comparator(capsys):
    rc, out, _ = run(capsys, "negativity", "--kappa", "0.2", "--mu", "0.5:2:4",
                     "--nth", "0,5", "--markovian-comparator")
    assert rc == 0
    header, rows = data_rows(out)
    assert header == ["mu", "kappa", "n_th", "e_n", "sigma_sq_abs"]
    assert len(rows) == 16
    assert sum(1 for r in rows if r[1] == "inf") == 8
    lut = {(r[0], r[1], r[2]): float(r[3]) for r in rows}
    assert lut[("1", "0.2", "0")] == pytest.approx(0.5 * math.log2(7.0))
    assert lut[("1", "inf", "0")] == pytest.approx(0.5)


@pytest.mark.parametrize("kappa", ["1", "inf"])
def test_negativity_stays_finite_where_the_variance_underflows(capsys, kappa):
    # sigma_sq_abs is a normal float at mu = 1e150 and underflows at 1e308
    # (and at 1e200 with memory), so both routes are checked against E_N in
    # log form
    rc, out, _ = run(capsys, "negativity", "--mu", "1e150,1e200,1e308", "--kappa", kappa)
    assert rc == 0
    assert "nan" not in out
    k = float(kappa)
    for row in data_rows(out)[1]:
        mu = float(row[0])
        memory = 0.0 if math.isinf(k) else math.log2(2 * k + mu) - math.log2(2 * k)
        assert float(row[3]) == pytest.approx(0.5 * (math.log2(1 + mu) + memory), rel=1e-11)
    if kappa == "1":
        assert float(data_rows(out)[1][1][3]) == pytest.approx(663.886, abs=1e-3)


@pytest.mark.parametrize(
    "argv,error",
    [
        (("phase-diagram", "--mu", "0:1:3", "--kappa", "1,-1"), "NonPositiveRate"),
        (("phase-diagram", "--mu", "0:1:3", "--kappa", "1,0"), "NonPositiveRate"),
        (("negativity", "--mu", "0.5", "--kappa", "1,-1"), "ParameterError"),
        (("variances", "--mu", "inf", "--kappa", "1"), "ParameterError"),
        (("steady-state", "--mu", "inf"), "ParameterError"),
        (("steady-state", "--gamma0", "0"), "NonPositiveRate"),
        (("steady-state", "--gamma0", "0", "--tau-r", "1"), "NonPositiveRate"),
        (("variances", "--mu", "0.5", "--kappa", "1", "--method", "closed", "--nth", "nan",
          "--format", "json"), "ParameterError"),
        (("variances", "--mu", "0.5", "--kappa", "1", "--method", "closed", "--nth", "inf",
          "--format", "json"), "ParameterError"),
        (("variances", "--mu", "0.5", "--kappa", "1", "--method", "integrate", "--nth", "inf"),
         "NegativeOccupancy"),
        (("phase-diagram", "--mu", "nan"), "ParameterError"),
        (("phase-diagram", "--mu", "-1"), "ParameterError"),
        (("phase-diagram", "--mu", "0:1:3", "--kappa", "1,nan"), "NonPositiveRate"),
        (("eigenflow", "--mu", "0:1:3", "--kappa", "1,-1"), "NonPositiveRate"),
        (("variances", "--mu", "0.5,nan", "--kappa", "1", "--method", "integrate"),
         "ParameterError"),
        (("variances", "--mu", "0.5", "--kappa", "1,-1", "--method", "integrate"),
         "NonPositiveRate"),
        (("negativity", "--nth", "0,-1"), "ParameterError"),
        (("negativity", "--nth", "0,nan", "--markovian-comparator"), "ParameterError"),
        # the grid is checked against the rates given, on every route: the
        # closed forms hold for a fast pump only
        (("variances", "--mu", "0.5", "--kappa", "1", "--method", "closed", "--gammaP", "5"),
         "PumpNotFast"),
        # --gamma0 is checked though the closed forms do not read it
        (("negativity", "--gamma0", "-1"), "NonPositiveRate"),
        # options a subcommand does not read
        *[((command, "--format", "csv"), "ParameterError")
          for command in ("steady-state", "phase-diagram", "eigenflow", "negativity", "simulate")],
        *[((command, option, "1"), "ParameterError")
          for command in ("steady-state", "phase-diagram", "eigenflow")
          for option in ("--g", "--nth", "--nth-pump")],
        *[(("negativity", option, "1"), "ParameterError")
          for option in ("--gammaP", "--g", "--nth-pump")],
        # a gauge angle that is not finite
        *[(("steady-state", "--mu", "2", f"--phi={phi}"), "ParameterError")
          for phi in ("nan", "inf", "-inf")],
        # simulate plans too large to allocate; only sizes past the address
        # space, which numpy refuses at once
        (("simulate", "--mu", "0.5", "--dt", "1e-300"), "ParameterError"),
        # through the default dt = tau_r / 25
        (("simulate", "--mu", "0.5", "--kappa", "1e200"), "ParameterError"),
        (("simulate", "--mu", "0.5", "--n-traj", str(10**16)), "ParameterError"),
    ],
)
def test_invalid_grid_points_exit_2_with_their_error_class(capsys, argv, error):
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["error"] == error


@pytest.mark.parametrize("argv", [("--dt", "1e-300"), ("--kappa", "1e200"),
                                  ("--n-traj", str(10**16))])
def test_plans_too_large_print_counts_past_1e15_in_scientific_notation(capsys, argv):
    rc, _, err = run(capsys, "simulate", "--mu", "0.5", *argv)
    assert rc == 2
    count = r"(\d{1,16}|\d\.\d{3}e\+\d+)"
    detail = json.loads(err)["detail"]
    assert re.match(rf"a plan of {count} steps with record buffers of shape "
                    rf"\({count}, {count}\) cannot be allocated: ", detail)
    assert "e+" in detail


@pytest.mark.parametrize(
    "argv,detail",
    [
        (("--mu", "nan"), "phase diagram point (i=0, j=0) mu=nan, kappa=0.05: "
         "mu: must be non-negative and finite, got nan"),
        (("--mu", "-1"), "phase diagram point (i=0, j=0) mu=-1.0, kappa=0.05: "
         "mu: must be non-negative and finite, got -1.0"),
        (("--mu", "0:1:3", "--kappa", "1,nan"),
         "phase diagram point (i=0, j=1) mu=0.0, kappa=nan: kappa must be > 0, got nan"),
        (("--mu", "0:1:3", "--kappa", "1,-1"),
         "phase diagram point (i=0, j=1) mu=0.0, kappa=-1.0: kappa must be > 0, got -1.0"),
        # an invalid point is reported before a numerical failure earlier in the grid
        (("--mu", "1e10,0.5,nan", "--kappa", "1"), "phase diagram point (i=2, j=0) mu=nan, "
         "kappa=1.0: mu: must be non-negative and finite, got nan"),
        (("--mu", "0:1:3", "--kappa", "1,5e-324"), "phase diagram point (i=0, j=1) mu=0.0, "
         "kappa=5e-324: kappa = 5e-324 is too small: tau_r = 1/(gamma0*kappa) overflows"),
    ],
)
def test_invalid_phase_diagram_points_are_named(capsys, argv, detail):
    rc, out, err = run(capsys, "phase-diagram", *argv)
    assert rc == 2
    assert out == ""
    assert json.loads(err)["detail"] == detail


@pytest.mark.parametrize(
    "argv,detail",
    [
        (("variances", "--mu", "0.5,nan", "--kappa", "1", "--method", "integrate"),
         "variances at mu=nan, kappa=1.0: mu: must be non-negative and finite, got nan"),
        # an invalid point is reported before a numerical failure earlier in the grid
        (("variances", "--mu", "0.5", "--kappa", "1e14,-1", "--method", "integrate"),
         "variances at mu=0.5, kappa=-1.0: kappa must be > 0, got -1.0"),
        (("negativity", "--nth", "0,-1"), "negativity map point (i=0, j=0) mu=0.05, "
         "kappa=0.2: n_th must be >= 0 and finite, got -1.0"),
        (("negativity", "--kappa", "0.2", "--nth", "0,1", "--mu", "0.5,-1",
          "--markovian-comparator"), "negativity map point (i=1, j=0) mu=-1.0, kappa=0.2: "
         "mu must be >= 0 and finite, got -1.0"),
        (("variances", "--mu", "0.5", "--kappa", "1e14,5e-324", "--method", "integrate"),
         "variances at mu=0.5, kappa=5e-324: "
         "kappa = 5e-324 is too small: tau_r = 1/(gamma0*kappa) overflows"),
        # tau_r = 1/(gamma0 kappa) overflows at kappa = 1e-308 only for gamma0 < 1
        (("variances", "--mu", "0.5", "--kappa", "1e-308", "--gamma0", "0.5", "--method",
          "integrate"), "variances at mu=0.5, kappa=1e-308: "
         "kappa = 1e-308 is too small: tau_r = 1/(gamma0*kappa) overflows"),
        (("variances", "--mu", "0.5", "--kappa", "1,1e-308", "--gamma0", "0.5", "--method",
          "integrate"), "variances at mu=0.5, kappa=1e-308: "
         "kappa = 1e-308 is too small: tau_r = 1/(gamma0*kappa) overflows"),
    ],
)
def test_invalid_points_are_named_before_any_is_solved(capsys, monkeypatch, argv, detail):
    def solved(*args, **kwargs):
        raise AssertionError("a point was solved before the grid was checked")

    monkeypatch.setattr(cli, "_variance_report_at", solved)
    monkeypatch.setattr("nmpo.spectra._negativity_point", solved)
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "")
    assert json.loads(err)["detail"] == detail


@pytest.mark.parametrize(
    "command", ["phase-diagram", "eigenflow", "variances", "steady-state", "simulate", "negativity"]
)
def test_kappa_whose_memory_time_overflows_exits_2(capsys, monkeypatch, command):
    # tau_r = 1/(gamma0 kappa) is not finite at kappa = 5e-324
    def solved(*args, **kwargs):
        raise AssertionError("a point was solved before the grid was checked")

    monkeypatch.setattr(cli, "_variance_report_at", solved)
    monkeypatch.setattr("nmpo.spectra._negativity_point", solved)
    rc, out, err = run(capsys, command, "--mu", "0.5", "--kappa", "5e-324")
    assert (rc, out) == (2, "")
    diag = json.loads(err)
    assert diag["error"] == ("ParameterError" if command == "negativity" else "NonPositiveRate")
    assert "kappa = 5e-324 is too small" in diag["detail"]


@pytest.mark.parametrize(
    "command", ["phase-diagram", "eigenflow", "variances", "steady-state", "simulate", "negativity"]
)
@pytest.mark.parametrize("tau_r", ["inf", "-1"])
def test_memory_time_given_is_named_when_invalid(capsys, command, tau_r):
    rc, out, err = run(capsys, command, "--mu", "0.5", "--tau-r", tau_r)
    assert (rc, out) == (2, "")
    diag = json.loads(err)
    assert diag["error"] == "NonPositiveRate"
    assert diag["violations"] == [["tau_r", f"must be non-negative and finite, got {float(tau_r)}"]]


def test_memory_time_whose_kappa_overflows_is_named(capsys):
    # kappa = 1/(gamma0 tau_r) overflows: not the Markovian model
    rc, out, err = run(capsys, "steady-state", "--mu", "0.5", "--tau-r", "1e-320")
    assert (rc, out) == (2, "")
    diag = json.loads(err)
    assert diag["error"] == "NonPositiveRate"
    assert [f for f, _ in diag["violations"]] == ["tau_r"]


def test_failing_grid_points_are_named(capsys):
    # At mu = 1e30, kappa = 1e-5 the rotating state misses the signal
    # residual by rounding alone, and eigenflow's first family there is past
    # the spectrum's resolution; mu = 1e10 passes since the pump residual is
    # taken relative to the drive.
    rc, out, err = run(capsys, "phase-diagram", "--mu", "0,1e10,1e30", "--kappa", "1e-5,1")
    assert (rc, out) == (3, "")
    assert json.loads(err) == {
        "error": "InconsistentSteadyState",
        "detail": "phase diagram point (i=2, j=0) mu=1e+30, kappa=1e-05: "
        "stationarity residual 9.766e-04 exceeds 1e-08",
    }
    rc, out, err = run(capsys, "eigenflow", "--mu", "0,1e30", "--kappa", "1e-5")
    assert (rc, out) == (3, "")
    assert json.loads(err)["detail"] == (
        "eigenflow point (i=1) mu=1e+30, kappa=1e-05: "
        "drive too large to resolve the spectrum: rounding 1.6e+01 exceeds 1e-06 gamma0"
    )


def test_absolute_variance_overflow_exits_3(capsys):
    # sigma y+ = 2e29 is finite, (n_th + 1/2) sigma is not
    rc, out, err = run(capsys, "variances", "--mu", "1.000000000000001", "--kappa", "0.5",
                       "--method", "closed", "--nth", "1e300", "--format", "json")
    assert (rc, out) == (3, "")
    assert json.loads(err)["error"] == "NumericsError"


@pytest.mark.parametrize("kappa", ["1e11", "1e14"])
def test_negative_integrated_variance_exits_3(capsys, kappa):
    # the Lyapunov solve of the stiff embedded generator returns a negative
    # x+ variance here; it must never reach the output
    rc, out, err = run(capsys, "variances", "--mu", "0.5", "--kappa", kappa,
                       "--method", "integrate", "--format", "csv")
    assert (rc, out) == (3, "")
    diag = json.loads(err)
    assert diag["error"] == "NumericsError"
    assert diag["detail"].startswith(
        f"variances at mu=0.5, kappa={float(kappa)}: negative variance of x+: -"
    )


def test_numerical_failure_names_its_point_in_json(capsys):
    rc, out, err = run(capsys, "variances", "--mu", "0.5", "--kappa", "1e14",
                       "--method", "integrate")
    assert (rc, out) == (3, "")
    diag = json.loads(err)
    assert diag["error"] == "NumericsError"
    assert diag["detail"].startswith(
        "variances at mu=0.5, kappa=100000000000000.0: negative variance of x+: -"
    )


@pytest.mark.parametrize("kappa", ["1e200", "1e160"])
def test_bath_noise_overflow_exits_3(capsys, kappa):
    # tau_r^2 underflows to 0 at 1e200; 4 s^2 gamma0 / tau_r^2 overflows at 1e160
    rc, out, err = run(capsys, "variances", "--mu", "1.5", "--kappa", kappa,
                       "--method", "integrate")
    assert (rc, out) == (3, "")
    diag = json.loads(err)
    assert diag["error"] == "NumericsError"
    assert diag["detail"] == (
        f"variances at mu=1.5, kappa={float(kappa)}: "
        f"diffusion not finite: bath noise strength inf at tau_r = {1 / float(kappa):.3e}"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        # tau_r^2 overflows: 4 s^2 gamma0 / tau_r^2 is below the float range
        (("--kappa", "1e-300", "--method", "integrate"), "bath noise strength underflows to 0 "
         "at tau_r = 1.000e+300"),
        # the same on the auto method's u1xz2 route
        (("--kappa", "1e-160"), "bath noise strength underflows to 0 at tau_r = 1.000e+160"),
        (("--gamma0", "1e-300", "--method", "integrate"), "at tau_r = 1.000e+300"),
        # g^2 overflows in s^2
        (("--kappa", "1", "--g", "1e300", "--method", "integrate"),
         "noise scale s^2 = 2 g^2/(gamma0 gammaP) is inf, outside the float range, "
         "at g = 1.000e+300"),
    ],
    ids=["kappa-1e-300", "kappa-1e-160-auto", "gamma0-1e-300", "g-1e300"],
)
def test_noise_strength_outside_the_float_range_exits_3(capsys, argv, named):
    rc, out, err = run(capsys, "variances", "--mu", "0.5", *argv)
    assert (rc, out) == (3, "")
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "NumericsError"
    assert diag["detail"].startswith("variances at mu=0.5, kappa=")
    assert named in diag["detail"]


@pytest.mark.parametrize(
    "argv, named",
    [
        # g^2 and s^2 are subnormal
        (("--g", "1e-160"), "noise scale s^2 = 2 g^2/(gamma0 gammaP) is 1.976e-322, outside "
         "the float range, at g = 1.000e-160"),
        # g^2 is normal, s^2 = 2 g^2 / 100 is not
        (("--g", "1e-155"), "noise scale s^2 = 2 g^2/(gamma0 gammaP) is 2.000e-312"),
        # s^2 is normal, the bath noise strength 4 s^2 gamma0 / tau_r^2 is not
        (("--kappa", "1e-154"), "diffusion entry 4.000e-314 below the normal float range: "
         "bath noise strength 8.000e-314 at tau_r = 1.000e+154"),
    ],
    ids=["g-1e-160", "g-1e-155", "kappa-1e-154"],
)
def test_subnormal_noise_strength_exits_3(capsys, argv, named):
    # A subnormal scale keeps a few bits: --g 1e-160 wrote sigma x+ = 0.55
    # where 0.5333... is right, with exit 0.
    rc, out, err = run(capsys, "variances", "--mu", "0.5", *argv, "--method", "integrate")
    assert (rc, out) == (3, "")
    [line] = err.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "NumericsError"
    assert diag["detail"].startswith("variances at mu=0.5, kappa=")
    assert named in diag["detail"]


def test_smallest_noise_scale_kept_is_exact(capsys):
    # g = 1e-150: s^2 = 2e-302 is normal and the variances are the disordered ones
    rc, out, err = run(capsys, "variances", "--mu", "0.5", "--g", "1e-150", "--method",
                       "integrate", "--format", "json")
    assert rc == 0
    sigma = json.loads(out)["sigma"]
    assert [sigma[q] for q in ("x+", "x-", "y+", "y-")] == [
        0.5333333333333333, 2.6666666666666634, 2.666666666666665, 0.5333333333333333
    ]


def test_simulate_noise_scale_overflow_exits_3_and_names_it(capsys):
    rc, out, err = run(capsys, "simulate", "--mu", "0.5", "--g", "1e300", *SIM_FAST,
                       "--t-burn", "40", "--t-sample", "20", "--n-traj", "4")
    assert (rc, out) == (3, "")
    diag = diagnostic(err)
    assert diag["error"] == "NumericsError"
    assert diag["detail"].startswith("noise scale s^2 = 2 g^2/(gamma0 gammaP) is inf")
    assert "cannot be allocated" not in diag["detail"]


def test_rotating_phase_with_a_divergent_axis_writes_no_nan(capsys):
    # y- is divergent at kappa = 1e-6: the mixing-angle minimum is x+'s, at theta = 0
    rc, out, err = run(capsys, "variances", "--mu", "2", "--kappa", "1e-6", "--method",
                       "integrate", "--format", "json")
    assert (rc, err) == (0, "")
    assert "nan" not in out
    doc = json.loads(out)
    assert doc["phase"] == "u1xz2" and doc["divergent"]["y-"]
    assert (doc["sigma_sq_scan"], doc["theta_sq"]) == (doc["sigma"]["x+"], 0.0)


def test_perturbed_lyapunov_solve_exits_3_with_one_stderr_line():
    # scipy perturbs the solve's coefficients here and warns; the perturbed
    # covariance has sigma x+ = sigma y- = inf, where the closed forms give
    # 0.667 and 0.5.  The warning must not reach stderr beside the diagnostic.
    code = ("import sys, nmpo.cli; sys.exit(nmpo.cli.main(['variances', '--mu', '1.5', "
            "'--kappa', '1e155', '--method', 'integrate']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nmpo.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (3, "")
    [line] = done.stderr.splitlines()
    diag = json.loads(line)
    assert diag["error"] == "NumericsError"
    assert diag["detail"].startswith(
        "variances at mu=1.5, kappa=1e+155: Lyapunov solve warned: Input \"a\" has an eigenvalue"
    )


def _close(got, want):
    """Equal structure and text; floats equal to 1e-12."""
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_close(got[k], want[k]) for k in want)
    if isinstance(want, float):
        return isinstance(got, float) and got == pytest.approx(want, rel=1e-12, abs=1e-12)
    return got == want


@pytest.mark.parametrize(
    "argv",
    [
        ("negativity", "--mu", "1"),
        ("variances", "--mu", "0.5", "--method", "closed", "--format", "json"),
        ("variances", "--mu", "2", "--method", "closed", "--format", "json"),
    ],
)
def test_closed_forms_at_huge_kappa_match_the_markovian_limit(capsys, argv):
    # 2 kappa overflows at kappa = 1e308; the closed forms must still give
    # the kappa = inf values, not NaN or an all-divergent report
    docs = []
    for kappa in ("1e308", "inf"):
        rc, out, err = run(capsys, *argv, "--kappa", kappa)
        assert rc == 0, err
        assert "nan" not in out
        if argv[0] == "negativity":
            header, rows = data_rows(out)
            doc = {f"{i}:{k}": float(v) for i, row in enumerate(rows) for k, v in zip(header, row)}
        else:
            doc = json.loads(out)
        docs.append({k: v for k, v in doc.items() if k != "meta" and not k.endswith("kappa")})
    assert _close(*docs), docs


def test_negativity_comparator_needs_scalar_kappa(capsys):
    rc, _, err = run(capsys, "negativity", "--kappa", "0.2,1.0", "--mu", "1",
                     "--markovian-comparator")
    assert rc == 2
    assert json.loads(err)["error"] == "ParameterError"


# === simulate =================================================================


def test_simulate_scalar_report_with_quadratures(capsys, tmp_path):
    dump = tmp_path / "traj.csv"
    rc, out, _ = run(capsys, "simulate", "--mu", "0.5", "--kappa", "1", *SIM_FAST,
                     "--n-traj", "16", "--t-sample", "60", "--quadratures",
                     "--dump-traj", str(dump), "--decimate", "5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["scheme"] == "stochastic-heun"
    assert doc["config"]["dt"] == 0.005
    est = doc["order_parameters"]
    assert {"amp_mean", "amp_se", "delta_est", "delta_se", "var_phi_dot",
            "var_phi_dot_se", "branch_locked", "window"} <= set(est)
    quads = doc["quadrature_variances"]
    assert quads["frame"] == "static"
    assert set(quads["sigma"]) == {"x+", "x-", "y+", "y-"}
    text = dump.read_text()
    assert "# columns: t,re_A_i,im_A_i,re_A_s,im_A_s,re_A_P,im_A_P" in text
    _, rows = data_rows(text)
    assert len(rows) == 600  # 60 / (0.005 * stride 4) / decimate 5


def test_simulate_sweep_rows(capsys):
    rc, out, _ = run(capsys, "simulate", "--mu", "0.5", "--kappa", "0.5,1", *SIM_FAST,
                     "--n-traj", "4", "--t-sample", "30")
    assert rc == 0
    assert "seed_rule=seed+row_index" in out
    header, rows = data_rows(out)
    assert header == ["kappa", "mu", "amp_mean", "amp_se", "delta_est", "delta_se",
                      "var_phi_dot", "var_phi_dot_se"]
    assert [r[0] for r in rows] == ["0.5", "1"]


def test_simulate_records_the_pump_only_for_the_dump(capsys, monkeypatch, tmp_path):
    recorded = []

    def integrate(p, cfg):
        recorded.append(cfg.record_fields)
        return integrate_trajectory(p, cfg)

    monkeypatch.setattr(cli, "integrate_trajectory", integrate)
    argv = ["simulate", "--mu", "0.5", "--kappa", "1", *SIM_FAST, "--n-traj", "4",
            "--t-sample", "30"]
    rc, plain, _ = run(capsys, *argv)
    assert rc == 0
    dump = tmp_path / "traj.csv"
    rc, dumped, _ = run(capsys, *argv, "--dump-traj", str(dump))
    assert rc == 0
    assert recorded == [("A_i", "A_s"), ("A_i", "A_s", "A_P")]
    assert plain == dumped
    assert "re_A_P,im_A_P" in dump.read_text()


def test_dump_traj_dash_rewrites_a_file_named_dash(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-").write_text("x" * 100_000)
    argv = ["simulate", "--mu", "0.5", "--kappa", "1", *SIM_FAST, "--n-traj", "4",
            "--t-sample", "30"]
    rc, out, _ = run(capsys, *argv, "--dump-traj", "-")
    assert rc == 0 and json.loads(out)["mu"] == 0.5
    assert run(capsys, *argv, "--dump-traj", "fresh.csv")[0] == 0
    assert (tmp_path / "-").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_slow_pump_is_one_plain_line_naming_the_option(capsys):
    notice = ("nmpo simulate: warning: --gammaP 20.0 is below 100 x --gamma0 1.0; "
              "adiabatic pump-elimination formulas will be approximate")
    argv = ["simulate", "--mu", "2", "--kappa", "1.5,1", *SIM_FAST, "--t-burn", "20",
            "--t-sample", "11", "--n-traj", "4", "--record-stride", "10"]
    for _ in range(2):  # once per command, not once per process or per row
        rc, _, err = run(capsys, *argv)
        assert (rc, err.splitlines()) == (0, [notice])
    rc, _, err = run(capsys, "variances", "--mu", "0.5,2", "--kappa", "1", "--gammaP", "20",
                     "--method", "integrate")
    assert (rc, err.splitlines()) == (0, [notice.replace("simulate", "variances")])
    rc, _, err = run(capsys, "phase-diagram", "--mu", "0.5", "--kappa", "1")
    assert (rc, err) == (0, "")


def test_other_warnings_pass_through(capsys, monkeypatch):
    def warns(*args, **kwargs):
        warnings.warn("not about the pump", UserWarning)
        return []

    monkeypatch.setattr(cli, "phase_diagram", warns)
    with pytest.warns(UserWarning, match="not about the pump"):
        rc, _, err = run(capsys, "phase-diagram", "--mu", "0.5", "--gammaP", "20")
    assert rc == 0 and "not about the pump" not in err


def test_slow_pump_notice_replaces_the_python_warning():
    code = "import nmpo.cli; nmpo.cli.main(['phase-diagram', '--mu', '0.5', '--gammaP', '20'])"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nmpo.__file__)))
    err = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stderr
    assert err.splitlines() == [
        "nmpo phase-diagram: warning: --gammaP 20.0 is below 100 x --gamma0 1.0; "
        "adiabatic pump-elimination formulas will be approximate"
    ]


def test_large_drive_phase_diagram_exits_0(capsys):
    rc, out, _ = run(capsys, "phase-diagram", "--mu", "3e8,1e9,1e12", "--kappa", "0.2,1,inf")
    assert rc == 0
    _, rows = data_rows(out)
    assert [r[2] for r in rows] == ["u1xz2"] * 3 + ["u1"] * 6


def test_simulate_overflow_exit_code(capsys):
    rc, _, err = run(capsys, "simulate", "--mu", "2000", "--kappa", "1", *SIM_FAST,
                     "--no-noise", "--n-traj", "2", "--t-sample", "60")
    assert rc == 3
    assert diagnostic(err)["error"] == "StepOverflow"


def test_simulate_sweep_equals_per_row_oracle_runs(capsys, monkeypatch):
    # 1.5 and 1.2 integrate in lockstep; inf (Markovian) and 1 are runs of one
    argv = ["simulate", "--mu", "2", "--kappa", "1.5,1.2,inf,1", "--gamma0", "1.3",
            "--gammaP", "13", "--dt", "0.0075", "--t-burn", "15.4", "--t-sample", "10.5",
            "--record-stride", "2", "--n-traj", "3", "--seed", "5"]
    rc, got, _ = run(capsys, *argv)
    assert rc == 0
    monkeypatch.setattr(cli, "integrate_trajectory", sde_oracle.integrate_trajectory)
    monkeypatch.setattr(
        cli, "integrate_ensemble",
        lambda rows: [sde_oracle.integrate_trajectory(p, c) for p, c in rows],
    )
    rc, want, _ = run(capsys, *argv)
    assert rc == 0
    assert got == want
    assert len(data_rows(got)[1]) == 4


@pytest.mark.parametrize(
    "kappa, extra, error",
    [
        ("1,-1", (*SIM_FAST,), "NonPositiveRate"),
        ("1,0.01", (*SIM_FAST, "--t-burn", "20"), "ParameterError"),
        ("1", (*SIM_FAST, "--n-traj", "1"), "InsufficientSamples"),
        # the estimators' sample needs: no sample at all, fewer than twice the
        # 5 / gamma0 window, and fewer than 32 for --quadratures
        ("1", (*SIM_FAST, "--t-sample", "1", "--n-traj", "4", "--record-stride", "100000"),
         "InsufficientSamples"),
        ("1", (*SIM_FAST, "--t-sample", "1"), "InsufficientSamples"),
        ("1", (*SIM_FAST, "--quadratures", "--t-sample", "100", "--record-stride", "1000"),
         "InsufficientSamples"),
        # a later lockstep run whose record buffers numpy cannot allocate: the
        # default dt = tau_r / 25 at kappa = 1e200 gives another run
        ("1,1e200", ("--t-sample", "20", "--n-traj", "20"), "ParameterError"),
        # a seed numpy's generator rejects: a violation naming seed
        ("1", (*SIM_FAST, "--seed", "-1"), "ParameterError"),
    ],
)
def test_simulate_checks_every_row_before_integrating(capsys, monkeypatch, kappa, extra, error):
    def integrated(*args, **kwargs):
        raise AssertionError("a row was integrated before every row was checked")

    monkeypatch.setattr(cli, "integrate_trajectory", integrated)
    monkeypatch.setattr(cli, "integrate_ensemble", integrated)
    rc, _, err = run(capsys, "simulate", "--mu", "0.5", "--kappa", kappa, *extra)
    assert rc == 2
    diag = diagnostic(err)
    assert diag["error"] == error
    assert diag["violations"]
    if "--seed" in extra:
        assert [f for f, _ in diag["violations"]] == ["seed"]


@pytest.mark.parametrize(
    "argv, field",
    [
        (("steady-state", "--kappa", "0.2,1"), "kappa"),
        (("simulate", "--kappa", "1,2", "--quadratures"), "quadratures"),
        (("simulate", "--dump-traj", "d.csv", "--decimate", "0"), "decimate"),
        (("simulate", "--dump-traj", "d.csv", "--decimate", "-3"), "decimate"),
        (("simulate", "--n-traj", "4", "--dump-traj", "d.csv", "--traj-index", "7"),
         "traj_index"),
    ],
)
def test_scalar_only_options_are_checked_before_any_work(
    capsys, monkeypatch, tmp_path, argv, field
):
    def integrated(*args, **kwargs):
        raise AssertionError("integrated before the options were checked")

    monkeypatch.setattr(cli, "integrate_trajectory", integrated)
    monkeypatch.setattr(cli, "integrate_ensemble", integrated)
    monkeypatch.chdir(tmp_path)
    extra = ("--mu", "0.5", *SIM_FAST) if argv[0] == "simulate" else ()
    rc, out, err = run(capsys, *argv, *extra)
    assert (rc, out) == (2, "")
    diag = diagnostic(err)
    assert diag["error"] == "ParameterError"
    assert [f for f, _ in diag["violations"]] == [field]
    assert not (tmp_path / "d.csv").exists()


# === output plumbing ==========================================================


def test_write_failure_exit_code(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    rc, _, err = run(capsys, "steady-state", "--mu", "0.5", "--kappa", "1",
                     "--out", str(target))
    assert rc == 4
    assert json.loads(err)["error"] == "IOError"


def test_out_naming_a_directory_exits_4(capsys, tmp_path):
    rc, out, err = run(capsys, "phase-diagram", "--mu", "0:2:5", "--kappa", "1",
                       "--out", str(tmp_path))
    assert (rc, out) == (4, "")
    assert json.loads(err)["error"] == "IOError"


def test_out_dev_null_is_written_without_cutting(capsys):
    # ftruncate on a character device raises EINVAL; only regular files are cut.
    rc, out, err = run(capsys, "variances", "--mu", "0.5", "--kappa", "1",
                       "--method", "integrate", "--format", "json", "--out", os.devnull)
    assert (rc, out, err) == (0, "", "")


@pytest.mark.parametrize("first, second", [("0:2:201", "0:2:5"), ("0:2:5", "0:2:201")])
def test_rewriting_an_out_file_leaves_a_fresh_files_bytes(capsys, tmp_path, first, second):
    reused, fresh = tmp_path / "re.csv", tmp_path / "fresh.csv"
    for mu, path in ((first, reused), (second, reused), (second, fresh)):
        assert run(capsys, "phase-diagram", "--mu", mu, "--kappa", "0.2,1",
                   "--out", str(path))[0] == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_output_files_are_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        rc, _, _ = run(capsys, "negativity", "--kappa", "0.2", "--mu", "0.5:2:4",
                       "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().startswith(b"# nmpo")


def test_variances_grid_rows_are_the_scalar_points_in_input_order(capsys, tmp_path):
    grid = tmp_path / "grid.csv"
    args = ["variances", "--method", "integrate"]
    rc, _, _ = run(capsys, *args, "--mu", "0.2,0.8", "--kappa", "0.6,2", "--out", str(grid))
    assert rc == 0
    _, rows = data_rows(grid.read_text())
    points = [(mu, kappa) for kappa in ("0.6", "2") for mu in ("0.2", "0.8")]
    assert [(r[0], r[1]) for r in rows] == points
    for row, (mu, kappa) in zip(rows, points):
        rc, out, _ = run(capsys, *args, "--mu", mu, "--kappa", kappa, "--format", "json")
        assert rc == 0
        sigma = json.loads(out)["sigma"]
        assert row[3:7] == [cli._fmt(float(sigma[lab])) for lab in ("x+", "x-", "y+", "y-")]
