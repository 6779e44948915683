"""Reference route for the stacked linear response: one point at a time.

nmpo.meanfield.phase_diagram and nmpo.linres.eigenflow_sweep build the
embedded generator A for a whole drive row as one (N, n, n) array and take
its spectra in one stacked eigen-solve.  This module keeps the plain form:
a SystemParams per point, the scalar steady state (each family written out
as nmpo.meanfield had it before the families were stated once, in
steady_row), the residual in Python complex arithmetic, A filled entry by entry and one eigen-solve per point,
sorted and trimmed in Python.  Both must give bit-identical results;
tests/test_linres_stacked.py checks that.
"""

from __future__ import annotations

import math

import numpy as np

from nmpo.errors import (
    EigensolverFailure,
    InconsistentSteadyState,
    OutOfRegime,
    ParameterError,
    located,
)
from nmpo.linres import (
    RESIDUAL_TOL,
    STABLE_TOL,
    EigenflowResult,
    EigenSpectrum,
    exceptional_point_drive,
)
from nmpo.meanfield import Phase, SteadyState, critical_drive, mode_amplitudes
from nmpo.model import SystemParams, kernel_freq

_GOLDSTONE_TOL = 1e-6


def steady_state_branch(
    params: SystemParams, phase: Phase, z2_branch: int = 1, phi: float = 0.0
) -> SteadyState:
    if z2_branch not in (1, -1):
        raise OutOfRegime(f"z2_branch must be +1 or -1, got {z2_branch}")
    mu, kappa = params.mu, params.kappa
    mu_cr = critical_drive(kappa)
    if phase is Phase.DISORDERED:
        return SteadyState(Phase.DISORDERED, 0.0, 1j * mu, 0.0, z2_branch, phi, mu_cr)
    if phase is Phase.U1:
        if mu < 1.0:
            raise OutOfRegime(f"u1 branch needs mu >= 1, got mu = {mu}")
        amp = math.sqrt(mu - 1.0)
        return SteadyState(Phase.U1, amp, 1j, 0.0, z2_branch, phi, mu_cr)
    if phase is Phase.U1XZ2:
        if kappa >= 0.5:
            raise OutOfRegime(f"u1xz2 branch needs kappa < 1/2, got kappa = {kappa}")
        if mu < 2.0 * kappa:
            raise OutOfRegime(f"u1xz2 branch needs mu >= 2*kappa, got mu = {mu}")
        amp = math.sqrt(mu - 2.0 * kappa)
        delta = kappa * math.sqrt(1.0 / (2.0 * kappa) - 1.0) * params.gamma0
        return SteadyState(Phase.U1XZ2, amp, 2j * kappa, delta, z2_branch, phi, mu_cr)
    raise OutOfRegime(f"unknown phase {phase!r}")


def steady_state(params: SystemParams, z2_branch: int = 1, phi: float = 0.0) -> SteadyState:
    mu, kappa = params.mu, params.kappa
    if mu <= critical_drive(kappa):
        phase = Phase.DISORDERED
    else:
        phase = Phase.U1 if kappa >= 0.5 else Phase.U1XZ2
    return steady_state_branch(params, phase, z2_branch, phi)


def steady_state_residual(params: SystemParams, ss: SteadyState) -> float:
    g0, gp, mu = params.gamma0, params.gammaP, params.mu
    a_i, a_s, a_p = mode_amplitudes(ss, 0.0)
    b = ss.z2_branch
    rot = b * ss.delta
    g_i = kernel_freq(params, -rot)
    g_s = kernel_freq(params, +rot)
    res_i = 0.5 * (-g_i * a_i + 1j * g0 * np.conj(a_s) * a_p) - 1j * rot * a_i
    res_s = 0.5 * (-g_s * a_s + 1j * g0 * np.conj(a_i) * a_p) + 1j * rot * a_s
    res_p = 0.5 * (-gp * a_p + 1j * gp * (a_i * a_s + mu))
    return max(abs(res_i) / g0, abs(res_s) / g0, abs(res_p) / (gp * max(1.0, mu)))


def build_embedded_matrix(params: SystemParams, ss: SteadyState) -> np.ndarray:
    res = steady_state_residual(params, ss)
    if res > RESIDUAL_TOL:
        raise InconsistentSteadyState(
            f"stationarity residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}"
        )
    g0, gp = params.gamma0, params.gammaP
    pump = ss.pump_amp
    if abs(pump.real) > 1e-12 * max(1.0, abs(pump)):
        raise InconsistentSteadyState("pump amplitude not on the imaginary axis")
    P = pump.imag
    S = ss.amp_signal
    dlt = ss.z2_branch * ss.delta
    gc = g0 * S / math.sqrt(2.0)
    gpc = gp * S / math.sqrt(2.0)
    markov = params.markovian
    n = 6 if markov else 10
    m = np.zeros((n, n))
    m[0, 0] += -g0 * P / 2.0
    m[0, 2] += gc
    m[1, 1] += +g0 * P / 2.0
    m[2, 0] += -gpc
    m[2, 2] += -gp / 2.0
    m[3, 3] += +g0 * P / 2.0
    m[3, 5] += gc
    m[4, 4] += -g0 * P / 2.0
    m[5, 3] += -gpc
    m[5, 5] += -gp / 2.0
    m[0, 4] += -dlt
    m[1, 3] += -dlt
    m[3, 1] += +dlt
    m[4, 0] += +dlt
    if markov:
        for q in (0, 1, 3, 4):
            m[q, q] += -g0 / 2.0
        return m
    tau = params.tau_r
    for k, q in enumerate((0, 1, 3, 4)):
        m[q, 6 + k] += -0.5
        m[6 + k, q] += g0 / tau
        m[6 + k, 6 + k] += -1.0 / tau
    m[6, 9] += -dlt
    m[7, 8] += -dlt
    m[8, 7] += +dlt
    m[9, 6] += +dlt
    return m


def eigenspectrum(a: np.ndarray) -> EigenSpectrum:
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise EigensolverFailure("eigensolver returned non-finite eigenvalues")
    ordered = sorted((complex(v) for v in vals), key=lambda z: (-z.real, -z.imag))
    max_re = ordered[0].real
    return EigenSpectrum(tuple(ordered), max_re, max_re <= STABLE_TOL)


def phase_diagram(mu_grid, kappa_grid, base: SystemParams | None = None):
    if base is None:
        base = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.0)
    rows = []
    for j, kappa in enumerate(np.asarray(kappa_grid, dtype=float)):
        for i, mu in enumerate(np.asarray(mu_grid, dtype=float)):
            try:
                p = base.replace(mu=float(mu), kappa=float(kappa))
                ss = steady_state(p)
                spec = eigenspectrum(build_embedded_matrix(p, ss))
                lam = list(spec.eigenvalues)
                if ss.phase is not Phase.DISORDERED:
                    zero = min(lam, key=abs)
                    if abs(zero) < _GOLDSTONE_TOL * p.gamma0:
                        lam.remove(zero)
                max_re = max(v.real for v in lam)
                rows.append((float(mu), float(kappa), ss.phase, max_re))
            except Exception as exc:
                raise located(
                    exc, f"phase diagram point (i={i}, j={j}) mu={mu}, kappa={kappa}"
                ) from exc
    return rows


def eigenflow_sweep(kappa, mu_grid, phases=None, base: SystemParams | None = None):
    if base is None:
        base = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.0)
    if phases is None:
        phases = (Phase.DISORDERED, Phase.U1)
        if kappa < 0.5:
            phases += (Phase.U1XZ2,)
    rows = []
    for mu in np.asarray(mu_grid, dtype=float):
        p = base.replace(mu=float(mu), kappa=float(kappa))
        for ph in phases:
            try:
                ss = steady_state_branch(p, ph)
            except ParameterError:
                continue
            spec = eigenspectrum(build_embedded_matrix(p, ss))
            rows.append((float(mu), ph, spec.eigenvalues))
    return EigenflowResult(
        kappa=float(kappa),
        rows=tuple(rows),
        mu_cr=critical_drive(kappa),
        mu_ep=exceptional_point_drive(kappa) if kappa != math.inf else None,
    )
