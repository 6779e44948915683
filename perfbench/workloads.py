"""Workload definitions and output checks for the nmpo benchmark.

A workload is a list of operations, each one ``nmpo`` command line run
in-process through ``nmpo.cli.main``.  One pass runs every operation once;
the sweep workloads shuffle the order of each pass from the workload seed,
the SDE workloads pass the seed to ``--seed``.  The grids never depend on the
seed.  ``tiny=True`` shrinks every workload to a few seconds for the
benchmark's own tests.

Each workload also carries the check its outputs must pass.  A failed check
raises ``CheckFailed``; the runner counts it as a failed operation.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable

# Ops that fail, or may fail, at the commit that introduced the benchmark.
# They stay in the workload and are counted in ``failed``; a run is still
# ``correct`` when they fail in exactly this way (or succeed with outputs that
# pass the checks).  Keys are op keys; values are (exit code, error).
KNOWN_FAILURES = {
    # Grid points 4 and 19 of mu = 0:2:21.
    "variance-sweep": {
        (0.4, 0.2): (3, "SingularAtFrequency"),
        (1.9000000000000001, 0.5): (2, "OutOfRegime"),
    },
    # estimate_quadrature_variances raises NonStationary when the two halves
    # of the window differ by more than 3 standard errors in any of the four
    # quadratures: a valid ensemble trips it on about 1 seed in 100 (seed 9).
    "sde-wide": {
        (0.5, (1.0,)): (3, "NonStationary"),
    },
}

# Relative tolerance of spectral quadrature against the closed forms
# (acceptance criterion 5).
CLOSED_FORM_RTOL = 1e-3


class CheckFailed(Exception):
    """An operation's output is missing, malformed or wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation; ``argv`` omits ``--out``."""

    argv: tuple[str, ...]
    key: tuple
    points: int
    traj_steps: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    check: Callable[[Op, str], None]
    shuffle: bool
    known_failures: dict = field(default_factory=dict)
    # The op is one long loop over a small, cache-resident state (see
    # ``speed.SpeedProbe``).
    tight_loop: bool = False

    def pass_orders(self, seed: int):
        """Yield the operation order of each successive pass."""
        rng = random.Random(seed)
        while True:
            ops = list(self.ops)
            if self.shuffle:
                rng.shuffle(ops)
            yield ops


def linspace(lo: float, hi: float, n: int) -> list[float]:
    """The grid ``lo:hi:n`` as ``nmpo`` parses it (numpy.linspace)."""
    import numpy as np

    return [float(v) for v in np.linspace(lo, hi, n)]


# === checks ===================================================================


def _reject_nan(text: str) -> None:
    if "nan" in text.lower():
        raise CheckFailed("output contains NaN")


def _data_rows(text: str) -> list[dict]:
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


def check_phase_map(op: Op, text: str, mu_count: int) -> None:
    _reject_nan(text)
    rows = _data_rows(text)
    if len(rows) != mu_count:
        raise CheckFailed(f"expected {mu_count} rows, got {len(rows)}")
    kappa = op.key[0]
    for row in rows:
        if float(row["kappa"]) != float("%.12g" % kappa):
            raise CheckFailed(f"row kappa {row['kappa']} != {kappa}")
        if row["phase"] not in ("disordered", "u1", "u1xz2"):
            raise CheckFailed(f"unknown phase {row['phase']!r}")


def check_variances(op: Op, text: str) -> None:
    from nmpo.meanfield import critical_drive
    from nmpo.spectra import variances_below_threshold

    _reject_nan(text)
    doc = json.loads(text)
    mu, kappa = op.key
    sigma, divergent = doc["sigma"], doc["divergent"]
    for lab, val in sigma.items():
        if (val == "inf") != bool(divergent[lab]):
            raise CheckFailed(f"{lab}: value {val} disagrees with divergent={divergent[lab]}")
    mu_cr = critical_drive(kappa)
    if mu < mu_cr:
        ref = variances_below_threshold(mu, kappa).normalized()
        for lab, want in ref.items():
            got = float(sigma[lab])
            if not abs(got / want - 1.0) <= CLOSED_FORM_RTOL:
                raise CheckFailed(f"{lab} = {got} vs closed form {want} at mu={mu}, kappa={kappa}")
    elif mu == mu_cr and kappa >= 0.5:
        for lab in ("x-", "y+"):
            if sigma[lab] != "inf" or not divergent[lab]:
                raise CheckFailed(f"{lab} at threshold must be inf and flagged, got {sigma[lab]}")


def check_sde_sweep(op: Op, text: str, mu: float, kappas: list[float], rising: bool) -> None:
    """amp_mean at the mean-field value; var_phi_dot rising toward kappa = 1/2.

    Both are sampled estimates, so the tolerances are in the run's own
    standard errors: amp_mean within 5 se (plus 0.5% for the nonlinear bias),
    each var_phi_dot step not lower than 4 combined se below the previous.
    """
    _reject_nan(text)
    rows = _data_rows(text)
    if [float(r["kappa"]) for r in rows] != [float("%.12g" % k) for k in kappas]:
        raise CheckFailed(f"kappa column {[r['kappa'] for r in rows]} != {kappas}")
    amp_ref = math.sqrt(mu - 1.0)
    for r in rows:
        amp, se = float(r["amp_mean"]), float(r["amp_se"])
        if abs(amp - amp_ref) > 5.0 * se + 5e-3 * amp_ref:
            raise CheckFailed(f"amp_mean {amp} +- {se} vs mean field {amp_ref} at kappa={r['kappa']}")
    var = [float(r["var_phi_dot"]) for r in rows]
    se = [float(r["var_phi_dot_se"]) for r in rows]
    for k in range(1, len(var)):
        if var[k] - var[k - 1] < -4.0 * math.hypot(se[k], se[k - 1]):
            raise CheckFailed(f"var_phi_dot falls toward kappa = 1/2: {var}")
    if rising and not var[-1] > var[0]:
        raise CheckFailed(f"var_phi_dot does not rise toward kappa = 1/2: {var}")


def check_sde_wide(op: Op, text: str) -> None:
    _reject_nan(text)
    doc = json.loads(text)
    quad = doc["quadrature_variances"]
    for lab, val in quad["sigma"].items():
        if (val == "inf") != bool(quad["divergent"][lab]):
            raise CheckFailed(f"{lab}: value {val} disagrees with divergent flag")


# === workloads ================================================================


def _phase_map(tiny: bool) -> Workload:
    mu_spec, mu_count = ("0:2:5", 5) if tiny else ("0:2:201", 201)
    kappas = linspace(0.05, 2.0, 201)
    if tiny:
        kappas = kappas[::80]
    ops = tuple(
        Op(("phase-diagram", "--mu", mu_spec, "--kappa", repr(k)), (k,), mu_count)
        for k in kappas
    )
    return Workload(
        "phase-map", ops, lambda op, text: check_phase_map(op, text, mu_count), shuffle=True
    )


def _variance_sweep(tiny: bool) -> Workload:
    if tiny:
        points = [(0.2, 1.0), (1.0, 1.0), (0.4, 0.2)]
    else:
        points = [(mu, k) for k in (0.2, 0.5, 1.0, math.inf) for mu in linspace(0.0, 2.0, 21)]
    ops = tuple(
        Op(
            ("variances", "--mu", repr(mu), "--kappa", repr(k), "--method", "integrate",
             "--format", "json"),
            (mu, k),
            1,
        )
        for mu, k in points
    )
    return Workload(
        "variance-sweep", ops, check_variances, shuffle=True,
        known_failures=KNOWN_FAILURES["variance-sweep"],
    )


def _simulate_op(seed: int, mu: float, kappas: list[float], n_traj: int, t_burn: float,
                 t_sample: float, stride: int, extra: tuple[str, ...] = ()) -> Op:
    dt = 0.005
    steps = round(t_burn / dt) + round(t_sample / dt)
    argv = (
        "simulate", "--mu", repr(mu), "--kappa", ",".join(repr(k) for k in kappas),
        "--gammaP", "20", "--n-traj", str(n_traj), "--dt", repr(dt), "--t-burn", repr(t_burn),
        "--t-sample", repr(t_sample), "--record-stride", str(stride), "--seed", str(seed),
    ) + extra
    return Op(argv, (mu, tuple(kappas)), len(kappas), len(kappas) * n_traj * steps)


def _sde_sweep(seed: int, tiny: bool) -> Workload:
    mu = 2.0
    if tiny:
        kappas = [1.5, 1.0]
        op = _simulate_op(seed, mu, kappas, 8, 20.0, 11.0, 10)
    else:
        kappas = [1.5, 1.0, 0.7, 0.55]
        op = _simulate_op(seed, mu, kappas, 100, 40.0, SDE_SWEEP_T_SAMPLE, 10)
    return Workload(
        "sde-sweep", (op,),
        lambda op, text: check_sde_sweep(op, text, mu, kappas, rising=not tiny), shuffle=False,
        tight_loop=True,
    )


def _sde_wide(seed: int, tiny: bool) -> Workload:
    if tiny:
        op = _simulate_op(seed, 0.5, [1.0], 8, 20.0, 11.0, 1, ("--quadratures",))
    else:
        op = _simulate_op(seed, 0.5, [1.0], 1000, 40.0, SDE_WIDE_T_SAMPLE, 1, ("--quadratures",))
    return Workload("sde-wide", (op,), check_sde_wide, shuffle=False,
                    known_failures=KNOWN_FAILURES["sde-wide"], tight_loop=True)


# Sampling windows of the SDE workloads.  sde-wide records every step, and
# the order-parameter estimator needs more than 2 x (5 / gamma0) / dt samples.
SDE_SWEEP_T_SAMPLE = 20.0
SDE_WIDE_T_SAMPLE = 11.0

NAMES = ("phase-map", "variance-sweep", "sde-sweep", "sde-wide")


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    if name == "phase-map":
        return _phase_map(tiny)
    if name == "variance-sweep":
        return _variance_sweep(tiny)
    if name == "sde-sweep":
        return _sde_sweep(seed, tiny)
    if name == "sde-wide":
        return _sde_wide(seed, tiny)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
