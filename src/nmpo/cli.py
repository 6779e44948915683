"""Command-line front end for sweeps and one-shot computations.

Each subcommand takes only the options it reads; an option it does not
take exits 2.  Outputs are reproducible artifacts: every file starts with a
metadata header (tool version, subcommand, the options taken, the kappa
solved, seed) and contains no timestamps, so re-running a command with the
echoed parameters reproduces the data section byte for byte.  --out
rewrites an existing file in place and cuts it to the written length, so a
rerun writes the same bytes as a fresh file.  CSV is long-format, one row
per grid point.  Exit codes: 0 success, 2 parameter validation (JSON
diagnostics on stderr), 3 numerical failure, 4 I/O failure (a failed write).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import stat
import sys
import warnings

import numpy as np

from . import __version__
from .errors import NumericsError, ParameterError, SlowPumpWarning, located
from .linres import build_embedded_matrix, eigenflow_sweep, eigenspectrum
from .meanfield import (
    _BASE,
    Phase,
    check_grid,
    classify_phase,
    mode_amplitudes,
    phase_diagram,
    steady_state,
    steady_state_residual,
)
from .model import ADIABATIC_PUMP_RATIO, SystemParams, _check_gamma0, kappa_of
from .sde import (
    SimConfig,
    check_plan,
    check_sample_plan,
    estimate_order_parameters,
    estimate_quadrature_variances,
    integrate_ensemble,
    integrate_trajectory,
    lockstep_key,
)
from .spectra import (
    integrate_variances,
    negativity_map,
    negativity_occupancy_sweep,
    psd,
    variances_above_threshold_u1,
    variances_below_threshold,
    variances_u1xz2,
)

_FMT = "%.12g"


# === shared plumbing ==========================================================


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors through the JSON diagnostic path and
    takes no abbreviations, which would parse an option a subcommand lacks as
    one it has (--g as --gamma0)."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ParameterError(message, [("argv", message)])


def _fmt(x) -> str:
    if type(x) is float:
        return _FMT % x
    if isinstance(x, Phase):
        return x.value
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FMT % float(x)


def _parse_values(spec: str, name: str) -> np.ndarray:
    """Grid syntax: 'min:max:count' (inclusive linspace), 'a,b,c', or 'a'."""
    spec = spec.strip()
    try:
        if ":" in spec:
            lo_s, hi_s, n_s = spec.split(":")
            lo, hi, n = float(lo_s), float(hi_s), int(n_s)
            if n < 1:
                raise ValueError("count must be >= 1")
            return np.linspace(lo, hi, n)
        return np.array([float(v) for v in spec.split(",")], dtype=float)
    except (ValueError, TypeError) as exc:
        raise ParameterError(
            f"{name}: expected 'min:max:count', 'a,b,c' or a number, got {spec!r} ({exc})",
            [(name, "bad grid spec")],
        ) from exc


def _kappa_values(args) -> np.ndarray:
    """The kappa grid given, or the kappa --tau-r solves; --gamma0 is checked either way."""
    if args.tau_r is not None:
        return np.array([kappa_of(args.gamma0, args.tau_r)])
    _check_gamma0(args.gamma0)
    return _parse_values(args.kappa, "--kappa")


def _kappa_header(args, kappa_grid) -> str:
    """The kappa a CSV header names: the spec as given, or the kappa --tau-r solved."""
    return args.kappa if args.tau_r is None else _fmt(kappa_grid[0])


def _scalar_kappa(kappa_grid: np.ndarray, what: str) -> float:
    if kappa_grid.size != 1:
        raise ParameterError(f"{what} needs a scalar --kappa", [("kappa", "must be scalar")])
    return float(kappa_grid[0])


def _params_at(args, mu: float, kappa: float) -> SystemParams:
    """The model at (mu, kappa); without --g and --nth, at the default coupling
    and zero occupancies, which those subcommands' outputs do not depend on."""
    nth, nth_p = getattr(args, "nth", 0.0), getattr(args, "nth_pump", None)
    g = getattr(args, "g", _BASE.g)
    return SystemParams.from_kappa(
        args.gamma0, args.gammaP, kappa, g, mu, nth, nth, nth if nth_p is None else nth_p
    )


def _header_fields(args, extra: dict) -> dict:
    """The model options this subcommand takes, --tau-r when given, then
    `extra`.  An option left at None is null in JSON and omitted in CSV."""
    fields = {
        name: getattr(args, name)
        for name in ("gamma0", "gammaP", "g", "nth", "nth_pump", "seed")
        if hasattr(args, name)
    }
    if args.tau_r is not None:
        fields["tau_r"] = args.tau_r
    fields.update(extra)
    return fields


def _keep_contents(path, flags):
    """open()'s opener: the flags of its mode without O_TRUNC."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _rewrite(path: str, text: str) -> None:
    """Write text to the file at path, rewriting an existing file in place.

    The file is opened without O_TRUNC, written, and then cut to the written
    length.  Truncating on open costs several times the write of a small
    file on ext4, whose replace-via-truncate heuristic (auto_da_alloc)
    allocates blocks and starts writeback at close.  Only a regular file is
    cut, so a device such as /dev/null or a pipe is written as it is.
    nmpo never calls fsync and its outputs can be regenerated byte for byte:
    a crash mid-write can leave the old bytes or a mix of old and new, where
    truncating on open could leave a short or empty file.
    """
    with open(path, "w", opener=_keep_contents) as fh:
        fh.write(text)
        fh.flush()
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            os.ftruncate(fh.fileno(), fh.tell())


def _write_text(path: str, text: str) -> None:
    if path in ("-", ""):
        sys.stdout.write(text)
    else:
        _rewrite(path, text)


def _fmt_column(col) -> list[str]:
    if {*map(type, col)} <= {float}:
        return [_FMT % v for v in col]
    return [_fmt(v) for v in col]


def _csv_lines(cols):
    """The CSV data lines of `cols`, a sequence of equal-length columns,
    formatted a column at a time as _fmt formats each value."""
    return map(",".join, zip(*map(_fmt_column, cols)))


def _csv_text(args, command, extra_meta, names, cols) -> str:
    fields = _header_fields(args, extra_meta)
    parts = " ".join(f"{k}={v}" for k, v in fields.items() if v is not None)
    lines = [f"# nmpo {__version__}", f"# command: {command}", f"# params: {parts}"]
    lines.append("# columns: " + ",".join(names))
    lines.append(",".join(names))
    lines += _csv_lines(cols)
    return "\n".join(lines) + "\n"


def _write_csv(args, command, extra_meta, names, rows) -> None:
    _write_text(args.out, _csv_text(args, command, extra_meta, names, zip(*rows)))


_quote = json.encoder.encode_basestring_ascii


def _json(obj, indent: str = "\n") -> str:
    """obj as json.dumps(obj, indent=2, sort_keys=True) writes it, in one pass:
    a Phase as its value, a complex as {"im", "re"}, numpy scalars and arrays
    as Python ones, and inf and nan as the strings "inf", "-inf" and "nan".
    The commonest types of a document are tested first."""
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return float.__repr__(f) if math.isfinite(f) else '"%s"' % f
    if isinstance(obj, str):
        return _quote(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{inner}{_quote(k)}: {_json(v, inner)}" for k, v in sorted(obj.items())]
        return "{" + ",".join(items) + indent + "}" if items else "{}"
    if obj is None or isinstance(obj, (bool, np.bool_)):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, Phase):
        return _quote(obj.value)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        items = [inner + _json(v, inner) for v in obj]
        return "[" + ",".join(items) + indent + "]" if items else "[]"
    if isinstance(obj, complex):
        return _json({"re": obj.real, "im": obj.imag}, indent)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_json(args, command, payload, extra_meta) -> None:
    meta = {"tool": "nmpo", "version": __version__, "command": command}
    meta.update(_header_fields(args, extra_meta))
    _write_text(args.out, _json({"meta": meta, **payload}) + "\n")


def _add_common(sub, kappa_default: str, *, pump: bool = True, bath: bool = False) -> None:
    """--gamma0, --gammaP if pump, --kappa | --tau-r, --g --nth --nth-pump if bath, --out."""
    sub.add_argument("--gamma0", type=float, default=1.0, help="bare damping rate (default 1)")
    if pump:
        sub.add_argument("--gammaP", type=float, default=100.0,
                         help="pump decay rate (default 100)")
    grp = sub.add_mutually_exclusive_group()
    grp.add_argument(
        "--kappa",
        default=kappa_default,
        help=f"normalized reservoir rate; grid or list (default {kappa_default})",
    )
    grp.add_argument("--tau-r", dest="tau_r", type=float, help="reservoir memory time (0 = Markovian)")
    if bath:
        sub.add_argument("--g", type=float, default=0.01, help="mode coupling (default 0.01)")
        sub.add_argument("--nth", type=float, default=0.0, help="thermal occupancy (default 0)")
        sub.add_argument(
            "--nth-pump", dest="nth_pump", type=float, default=None,
            help="pump occupancy (default: same as --nth)",
        )
    sub.add_argument("--out", default="-", help="output path; '-' for stdout (default)")


# === subcommands ==============================================================


def _cmd_steady_state(args) -> int:
    kappa = _scalar_kappa(_kappa_values(args), "steady-state")
    p = _params_at(args, args.mu, kappa)
    ss = steady_state(p, z2_branch=args.z2_branch, phi=args.phi)
    a_i, a_s, a_p = mode_amplitudes(ss, 0.0)
    spec = eigenspectrum(build_embedded_matrix(p, ss))
    payload = {
        "phase": ss.phase,
        "mu": args.mu,
        "kappa": kappa,
        "mu_cr": ss.mu_cr,
        "delta": ss.delta,
        "z2_branch": ss.z2_branch,
        "phi": ss.phi,
        "A_i": complex(a_i),
        "A_s": complex(a_s),
        "A_P": complex(a_p),
        "residual": steady_state_residual(p, ss),
        "max_re_lambda": spec.max_re,
        "stable": spec.stable,
    }
    _write_json(args, "steady-state", payload, {"mu": args.mu, "kappa": kappa})
    return 0


def _cmd_phase_diagram(args) -> int:
    mu_grid = _parse_values(args.mu, "--mu")
    kappa_grid = _kappa_values(args)
    base = _params_at(args, 0.0, float(kappa_grid[0]))
    rows = phase_diagram(mu_grid, kappa_grid, base=base)
    _write_csv(
        args,
        "phase-diagram",
        {"mu": args.mu, "kappa": _kappa_header(args, kappa_grid)},
        ("mu", "kappa", "phase", "max_re_lambda"),
        rows,
    )
    return 0


def _cmd_eigenflow(args) -> int:
    mu_grid = _parse_values(args.mu, "--mu")
    kappa_values = _kappa_values(args)
    meta = {"mu": args.mu, "kappa": _kappa_header(args, kappa_values)}
    base = _params_at(args, 0.0, float(kappa_values[0]))
    check_grid(base, mu_grid, kappa_values)
    out_rows = []
    for kappa in kappa_values:
        res = eigenflow_sweep(float(kappa), mu_grid, base=base)
        meta[f"mu_cr[kappa={_fmt(kappa)}]"] = _fmt(res.mu_cr)
        meta[f"mu_ep[kappa={_fmt(kappa)}]"] = "none" if res.mu_ep is None else _fmt(res.mu_ep)
        for mu, branch, lams in res.rows:
            for idx, lam in enumerate(lams):
                out_rows.append((kappa, mu, branch, idx, lam.real, lam.imag))
    _write_csv(
        args,
        "eigenflow",
        meta,
        ("kappa", "mu", "branch", "index", "re_lambda", "im_lambda"),
        out_rows,
    )
    return 0


def _variance_report_at(args, mu: float, kappa: float, method: str):
    phase = classify_phase(mu, kappa)
    if method == "auto":
        method = "integrate" if phase is Phase.U1XZ2 else "closed"
    if method == "closed":
        if phase is Phase.DISORDERED:
            # mu = mu_cr counts as disordered: the squeezed pair is exact
            # there and the amplified pair is flagged divergent.
            return phase, variances_below_threshold(mu, kappa, args.nth, extrapolate=True)
        if phase is Phase.U1:
            return phase, variances_above_threshold_u1(mu, kappa, args.nth, args.nth_pump)
        raise ParameterError(
            f"no closed-form variances in the rotating phase (mu={mu}, kappa={kappa}); "
            "use --method integrate",
            [("method", "closed form unavailable")],
        )
    p = _params_at(args, mu, kappa)
    if phase is Phase.U1XZ2:
        return phase, variances_u1xz2(p)
    # Variances need only psd's stability check and (A, D), not a grid.
    return phase, integrate_variances(psd(p, steady_state(p), omega_grid=()))


def _cmd_variances(args) -> int:
    mu_grid = _parse_values(args.mu, "--mu").tolist()
    kappa_grid = _kappa_values(args).tolist()
    single = len(mu_grid) == 1 and len(kappa_grid) == 1
    fmt = args.format or ("json" if single else "csv")
    if fmt == "json" and not single:
        raise ParameterError(
            "json output requires scalar --mu and --kappa", [("format", "grid needs csv")]
        )

    def where(i, j):
        return f"variances at mu={mu_grid[i]}, kappa={kappa_grid[j]}"

    rates = _BASE.replace(gamma0=args.gamma0, gammaP=args.gammaP, g=args.g)
    check_grid(rates, mu_grid, kappa_grid, where)
    reports = []
    for j, kappa in enumerate(kappa_grid):
        for i, mu in enumerate(mu_grid):
            try:
                reports.append((mu, kappa, *_variance_report_at(args, mu, kappa, args.method)))
            except NumericsError as exc:
                raise located(exc, where(i, j)) from exc
    if fmt == "json":
        mu, kappa, phase, rep = reports[0]
        payload = {
            "mu": mu,
            "kappa": kappa,
            "phase": phase,
            "method": args.method,
            "sigma": rep.normalized(),
            "absolute": rep.absolute,
            "divergent": rep.divergent,
            "squeezed": rep.squeezed,
            "amplified": rep.amplified,
            "n_th": rep.n_th,
            "sigma_sq_scan": rep.sigma_sq_scan,
            "theta_sq": rep.theta_sq,
        }
        _write_json(args, "variances", payload, {"mu": _fmt(mu), "kappa": _fmt(kappa)})
        return 0
    rows = [
        (mu, kappa, phase, *rep.normalized().values(), rep.min_sigma(), *rep.divergent.values())
        for mu, kappa, phase, rep in reports
    ]
    _write_csv(
        args,
        "variances",
        {"mu": args.mu, "kappa": _kappa_header(args, kappa_grid), "method": args.method},
        (
            "mu", "kappa", "phase",
            "sigma_x_plus", "sigma_x_minus", "sigma_y_plus", "sigma_y_minus", "sigma_sq",
            "div_x_plus", "div_x_minus", "div_y_plus", "div_y_minus",
        ),
        rows,
    )
    return 0


def _cmd_negativity(args) -> int:
    mu_grid = _parse_values(args.mu, "--mu")
    kappa_grid = _kappa_values(args)
    nth_values = _parse_values(args.nth, "--nth")
    if nth_values.size > 1 or args.markovian_comparator:
        rows = negativity_occupancy_sweep(
            _scalar_kappa(kappa_grid, "occupancy sweep"), mu_grid, nth_values,
            args.markovian_comparator,
        )
    else:
        rows = negativity_map(mu_grid, kappa_grid, float(nth_values[0]))
    _write_csv(
        args,
        "negativity",
        {"mu": args.mu, "kappa": _kappa_header(args, kappa_grid),
         "comparator": int(args.markovian_comparator)},
        ("mu", "kappa", "n_th", "e_n", "sigma_sq_abs"),
        rows,
    )
    return 0


def _dump_trajectory(args, traj) -> None:
    dec = args.decimate
    idx = args.traj_index
    names = ["t"]
    series = [traj.t[::dec]]
    for name in ("A_i", "A_s", "A_P"):
        arr = getattr(traj, name)
        if arr is None:
            continue
        names += [f"re_{name}", f"im_{name}"]
        series += [arr[::dec, idx].real, arr[::dec, idx].imag]
    # Always a file: --dump-traj - names a file called "-", not stdout.
    _rewrite(args.dump_traj, _csv_text(args, "simulate --dump-traj",
                                       {"traj_index": idx, "decimate": dec},
                                       names, [s.tolist() for s in series]))


def _cmd_simulate(args) -> int:
    kappa_values = _kappa_values(args)
    single = kappa_values.size == 1

    # The estimators read A_i and A_s; A_P is recorded only for the dump.
    fields = ("A_i", "A_s", "A_P") if args.dump_traj else ("A_i", "A_s")

    def config_for(p: SystemParams, seed: int) -> SimConfig:
        fastest, slowest = p.timescales
        dt = args.dt if args.dt is not None else fastest / 25.0
        t_burn = args.t_burn if args.t_burn is not None else 20.0 * slowest
        return SimConfig(
            dt=dt,
            t_burn=t_burn,
            t_sample=args.t_sample,
            n_traj=args.n_traj,
            seed=seed,
            scheme=args.scheme,
            record_stride=args.record_stride,
            record_fields=fields,
            noise=not args.no_noise,
        )

    # Build and check every row, its estimators' sample needs, and the
    # options read after integrating, before integrating any row.
    rows = []
    for i, kappa in enumerate(kappa_values):
        p = _params_at(args, args.mu, float(kappa))
        cfg = config_for(p, args.seed + i)
        cfg.check_against(p)
        check_sample_plan(p, cfg, args.quadratures)
        rows.append((p, cfg))
    bad = []
    if args.quadratures and not single:
        bad.append(("quadratures", "needs a scalar --kappa"))
    if args.decimate < 1:
        bad.append(("decimate", f"must be >= 1, got {args.decimate}"))
    if not 0 <= args.traj_index < args.n_traj:
        bad.append(("traj_index", f"{args.traj_index} out of range for n_traj={args.n_traj}"))
    if bad:
        raise ParameterError("; ".join(f"{f}: {m}" for f, m in bad), bad)
    # Runs of neighbouring rows that can share a step loop integrate in
    # lockstep; a run of one row is integrated alone.  Every run's record
    # buffers are checked against numpy's size limit before the first step.
    runs = [list(run) for _, run in itertools.groupby(rows, key=lambda row: lockstep_key(*row))]
    for run in runs:
        check_plan(run)
    estimated = []
    for run in runs:
        trajs = integrate_ensemble(run) if len(run) > 1 else [integrate_trajectory(*run[0])]
        estimated += [(traj, estimate_order_parameters(traj)) for traj in trajs]
    results = [
        (float(kappa), cfg, traj, est)
        for kappa, (_, cfg), (traj, est) in zip(kappa_values, rows, estimated)
    ]

    if single:
        kappa, cfg, traj, est = results[0]
        payload = {
            "mu": args.mu,
            "kappa": kappa,
            "order_parameters": {
                "amp_mean": est.amp_mean,
                "amp_se": est.amp_se,
                "delta_est": est.delta_est,
                "delta_se": est.delta_se,
                "var_phi_dot": est.var_phi_dot,
                "var_phi_dot_se": est.var_phi_dot_se,
                "window": est.window,
                "branch_locked": est.branch_locked,
            },
            "config": {
                "dt": cfg.dt,
                "t_burn": cfg.t_burn,
                "t_sample": cfg.t_sample,
                "n_traj": cfg.n_traj,
                "seed": cfg.seed,
                "scheme": cfg.scheme,
                "record_stride": cfg.record_stride,
                "noise": cfg.noise,
            },
        }
        if args.quadratures:
            rep = estimate_quadrature_variances(traj, frame=args.frame)
            payload["quadrature_variances"] = {
                "frame": args.frame,
                "sigma": rep.normalized(),
                "stderr": rep.stderr,
                "divergent": rep.divergent,
                "n_th": rep.n_th,
            }
        _write_json(args, "simulate", payload, {"mu": args.mu, "kappa": _fmt(kappa)})
        if args.dump_traj:
            _dump_trajectory(args, traj)
        return 0

    rows = [
        (
            kappa, args.mu, est.amp_mean, est.amp_se, est.delta_est, est.delta_se,
            est.var_phi_dot, est.var_phi_dot_se,
        )
        for kappa, cfg, traj, est in results
    ]
    _write_csv(
        args,
        "simulate",
        {"mu": args.mu, "kappa": _kappa_header(args, kappa_values), "seed_rule": "seed+row_index",
         "window": _fmt(results[0][3].window)},
        (
            "kappa", "mu", "amp_mean", "amp_se", "delta_est", "delta_se",
            "var_phi_dot", "var_phi_dot_se",
        ),
        rows,
    )
    if args.dump_traj:
        _dump_trajectory(args, results[0][2])
    return 0


# === driver ===================================================================


@functools.cache
def _build_parser() -> _Parser:
    """The argparse tree, built on the first main() call and reused."""
    parser = _Parser(
        prog="nmpo",
        description="Driven two-mode system with reservoir memory: sweeps and estimators.",
    )
    parser.add_argument("--version", action="version", version=f"nmpo {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    ss = subs.add_parser(
        "steady-state",
        help="mean-field steady state at one (mu, kappa) point",
        epilog="JSON fields: phase, mu_cr, delta, z2_branch, phi, A_i/A_s/A_P (re, im), "
        "residual, max_re_lambda, stable.",
    )
    _add_common(ss, "1")
    ss.add_argument("--mu", type=float, default=0.0, help="normalized drive (default 0)")
    ss.add_argument("--z2-branch", dest="z2_branch", type=int, choices=(1, -1), default=1,
                    help="rotation sense in the rotating phase (default 1)")
    ss.add_argument("--phi", type=float, default=0.0, help="gauge angle (default 0)")
    ss.set_defaults(func=_cmd_steady_state)

    pd = subs.add_parser(
        "phase-diagram",
        help="stable phase and spectral margin on a (mu, kappa) grid",
        epilog="CSV columns: mu, kappa, phase (disordered|u1|u1xz2), max_re_lambda "
        "(largest Re eigenvalue, gauge zero mode excluded above threshold).",
    )
    _add_common(pd, "0.05:2:201")
    pd.add_argument("--mu", default="0:2:201", help="drive grid (default 0:2:201)")
    pd.set_defaults(func=_cmd_phase_diagram)

    ef = subs.add_parser(
        "eigenflow",
        help="eigenvalue flow vs drive for each branch at fixed kappa",
        epilog="CSV columns: kappa, mu, branch (steady-state family), index (sorted by "
        "descending Re), re_lambda, im_lambda.  Header lists mu_cr and mu_ep per kappa.",
    )
    _add_common(ef, "1.25,0.5,0.15")
    ef.add_argument("--mu", default="0:2:401", help="drive grid (default 0:2:401)")
    ef.set_defaults(func=_cmd_eigenflow)

    va = subs.add_parser(
        "variances",
        help="stationary cross-quadrature variances (closed form or Lyapunov covariance)",
        epilog="CSV columns: mu, kappa, phase, sigma_x_plus, sigma_x_minus, sigma_y_plus, "
        "sigma_y_minus (normalized to n_th+1/2; inf when divergent), sigma_sq (minimum, "
        "over the (x+, y-) mixing angle in the rotating phase), div_x_plus, div_x_minus, "
        "div_y_plus, div_y_minus (0|1).  Scalar point with json format: full report with "
        "divergent flags.",
    )
    _add_common(va, "1", bath=True)
    va.add_argument("--format", choices=("csv", "json"), default=None, help="output format")
    va.add_argument("--mu", default="0", help="drive value or grid (default 0)")
    va.add_argument("--method", choices=("closed", "integrate", "auto"), default="auto",
                    help="closed forms, Lyapunov covariance of the linearized dynamics, or "
                    "per-phase choice (default auto)")
    va.set_defaults(func=_cmd_variances)

    ng = subs.add_parser(
        "negativity",
        help="logarithmic negativity sweeps/maps from the squeezed variance",
        epilog="CSV columns: mu, kappa (inf = Markovian comparator), n_th, e_n, "
        "sigma_sq_abs (absolute squeezed variance; zero-point is 0.5).",
    )
    _add_common(ng, "0.2", pump=False)
    ng.add_argument("--nth", default="0", help="thermal occupancy; comma list allowed")
    ng.add_argument("--mu", default="0.05:40:400", help="drive grid (default 0.05:40:400)")
    ng.add_argument("--markovian-comparator", action="store_true",
                    help="append kappa=inf rows for each occupancy")
    ng.set_defaults(func=_cmd_negativity)

    si = subs.add_parser(
        "simulate",
        help="nonlinear stochastic trajectories and ensemble estimators",
        epilog="Sweep CSV columns: kappa, mu, amp_mean, amp_se, delta_est, delta_se, "
        "var_phi_dot, var_phi_dot_se (row i uses seed+i).  Scalar kappa: JSON estimator "
        "report with config echoed.  --dump-traj CSV columns: t, re_A_i, im_A_i, re_A_s, "
        "im_A_s, re_A_P, im_A_P.",
    )
    _add_common(si, "1", bath=True)
    si.add_argument("--mu", type=float, default=0.0, help="normalized drive (default 0)")
    si.add_argument("--n-traj", dest="n_traj", type=int, default=100,
                    help="trajectory count (default 100)")
    si.add_argument("--dt", type=float, default=None,
                    help="time step (default: fastest timescale / 25)")
    si.add_argument("--t-burn", dest="t_burn", type=float, default=None,
                    help="discarded transient (default: 20 x slowest timescale)")
    si.add_argument("--t-sample", dest="t_sample", type=float, default=200.0,
                    help="measurement window (default 200)")
    si.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    si.add_argument("--scheme", choices=("euler-maruyama", "stochastic-heun"),
                    default="stochastic-heun", help="integration scheme")
    si.add_argument("--record-stride", dest="record_stride", type=int, default=4,
                    help="record every Nth step (default 4)")
    si.add_argument("--no-noise", action="store_true", help="deterministic integration")
    si.add_argument("--quadratures", action="store_true",
                    help="also estimate quadrature variances (scalar kappa only)")
    si.add_argument("--frame", choices=("static", "corotating"), default="static",
                    help="frame for quadrature estimation (default static)")
    si.add_argument("--dump-traj", dest="dump_traj", default=None,
                    help="write one trajectory as CSV to this path")
    si.add_argument("--decimate", type=int, default=1,
                    help="keep every Nth recorded sample in the dump (default 1)")
    si.add_argument("--traj-index", dest="traj_index", type=int, default=0,
                    help="which trajectory to dump (default 0)")
    si.set_defaults(func=_cmd_simulate)

    return parser


def _run(args) -> int:
    """args.func(args), with the model's SlowPumpWarning shown once per
    command as one plain stderr line naming the options."""
    show = warnings.showwarning
    noted = False

    def note(message, category, *rest):
        nonlocal noted
        if not issubclass(category, SlowPumpWarning):
            return show(message, category, *rest)
        if not noted:
            noted = True
            print(
                f"nmpo {args.subcommand}: warning: --gammaP {args.gammaP} is below "
                f"{ADIABATIC_PUMP_RATIO:g} x --gamma0 {args.gamma0}; adiabatic "
                "pump-elimination formulas will be approximate",
                file=sys.stderr,
            )

    with warnings.catch_warnings():
        warnings.simplefilter("always", SlowPumpWarning)
        warnings.showwarning = note
        return args.func(args)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _run(args)
    except ParameterError as exc:
        diag = {"error": type(exc).__name__, "violations": exc.violations, "detail": str(exc)}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 2
    except NumericsError as exc:
        diag = {"error": type(exc).__name__, "detail": str(exc)}
        print(json.dumps(diag, sort_keys=True), file=sys.stderr)
        return 3
    except OSError as exc:
        print(json.dumps({"error": "IOError", "detail": str(exc)}, sort_keys=True), file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
