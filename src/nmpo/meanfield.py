"""Mean-field steady states and the phase boundary.

Scaled amplitude equations (time in 1/gamma0 units is never assumed; rates
carry units):

    dA_i/dt = (1/2) [ -(gamma * A_i)(t) + i*gamma0 * conj(A_s) * A_P ]
    dA_s/dt = (1/2) [ -(gamma * A_s)(t) + i*gamma0 * conj(A_i) * A_P ]
    dA_P/dt = (1/2) [ -gammaP * A_P + i*gammaP * (A_i A_s + mu) ]

where (gamma * A)(t) is the memory-kernel convolution.  Stationary families:

* disordered: A_i = A_s = 0, A_P = i*mu; exists for every mu,
* u1 (kappa >= 1/2): |A_i| = |A_s| = sqrt(mu - 1), A_P = i, no rotation;
  breaks the U(1) gauge symmetry A_i -> A_i e^{i theta}, A_s -> A_s e^{-i theta},
* u1xz2 (kappa < 1/2): |A_i| = |A_s| = sqrt(mu - 2*kappa), A_P = 2*kappa*i,
  counter-rotating at delta = kappa*sqrt(1/(2*kappa) - 1) * gamma0; the
  rotation direction breaks an extra Z2 symmetry (branch = +1 or -1).

Critical drive mu_cr(kappa) = min(1, 2*kappa) in units of F_cr.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveRate, OutOfRegime, ParameterError, located
from .model import SystemParams, _no_memory_time, kernel_freq

# |lambda| / gamma0 below which the gauge zero mode (at rounding error) is dropped.
_GOLDSTONE_TOL = 1e-6
# Parameters of a grid given without a base, and the base its mu and kappa are checked on.
_BASE = SystemParams(gamma0=1.0, gammaP=100.0, tau_r=1.0, g=0.01, mu=0.0)


class Phase(enum.Enum):
    DISORDERED = "disordered"
    U1 = "u1"
    U1XZ2 = "u1xz2"

    @property
    def broken(self) -> bool:
        """Whether the phase breaks the gauge symmetry (u1 and u1xz2): only
        these carry pump noise and the gauge zero mode."""
        return self is not Phase.DISORDERED


def critical_drive(kappa: float) -> float:
    """Threshold drive mu_cr = min(1, 2*kappa); kappa = inf allowed."""
    if not (kappa > 0):
        raise NonPositiveRate(f"kappa must be > 0, got {kappa}", [("kappa", "must be positive")])
    return min(1.0, 2.0 * kappa)


def frequency_shift(kappa: float) -> float:
    """Rotation rate of the broken phase in gamma0 units.

    Zero for kappa >= 1/2; kappa*sqrt(1/(2*kappa) - 1) below.  Continuous at
    kappa = 1/2.
    """
    if not (kappa > 0):
        raise NonPositiveRate(f"kappa must be > 0, got {kappa}", [("kappa", "must be positive")])
    if _broken(kappa) is Phase.U1:
        return 0.0
    return kappa * math.sqrt(1.0 / (2.0 * kappa) - 1.0)


def _broken(kappa: float) -> Phase:
    """The broken family that takes over past mu_cr: u1 at kappa >= 1/2, u1xz2 below."""
    return Phase.U1 if kappa >= 0.5 else Phase.U1XZ2


def classify_phase(mu: float, kappa: float) -> Phase:
    """Stable phase at drive mu; the boundary mu = mu_cr counts as disordered."""
    if mu <= critical_drive(kappa):
        return Phase.DISORDERED
    return _broken(kappa)


@dataclass(frozen=True)
class SteadyState:
    """One stationary solution, possibly on an unstable branch.

    amp_signal is the common magnitude of the signal and idler amplitudes; the full
    complex amplitudes follow from the gauge angle phi and branch via
    mode_amplitudes().  delta is the rotation rate (rad/time, >= 0 as stored;
    the branch carries the sign).  pump_amp is complex and non-rotating.
    """

    phase: Phase
    amp_signal: float
    pump_amp: complex
    delta: float
    z2_branch: int
    phi: float
    mu_cr: float


def mode_amplitudes(ss: SteadyState, t: float = 0.0) -> tuple[complex, complex, complex]:
    """Complex (A_i, A_s, A_P) of the mean field at time t."""
    b = ss.z2_branch
    ph = b * (0.5 * ss.phi + ss.delta * t)
    a_i = 1j * ss.amp_signal * cmath.exp(1j * ph)
    a_s = 1j * ss.amp_signal * cmath.exp(-1j * ph)
    return a_i, a_s, ss.pump_amp


def steady_state_branch(
    params: SystemParams, phase: Phase, z2_branch: int = 1, phi: float = 0.0
) -> SteadyState:
    """Stationary solution of the requested family at params.mu.

    The one-drive case of steady_row (_family at the scalar drive): the
    family is evaluated wherever it exists, including where it is unstable
    (needed for eigenvalue flow across crossings).  OutOfRegime if the family
    has no real solution here; ParameterError for a phi that is not finite.
    """
    if z2_branch not in (1, -1):
        raise OutOfRegime(f"z2_branch must be +1 or -1, got {z2_branch}")
    if not math.isfinite(phi):
        raise ParameterError(f"phi must be finite, got {phi}", [("phi", "must be finite")])
    mu, kappa = float(params.mu), params.kappa
    mu_cr = critical_drive(kappa)
    pump, rot = map(float, _family(params, phase, mu))
    if not mu >= pump:
        raise OutOfRegime(f"no {phase.value} state at mu = {params.mu}, kappa = {kappa}")
    return SteadyState(phase, math.sqrt(mu - pump), 1j * pump, rot, z2_branch, phi, mu_cr)


def steady_state(params: SystemParams, z2_branch: int = 1, phi: float = 0.0) -> SteadyState:
    """Stable stationary solution at params.mu (disordered on the boundary)."""
    return steady_state_branch(params, classify_phase(params.mu, params.kappa), z2_branch, phi)


@dataclass(frozen=True)
class SteadyRow:
    """Stationary states along a drive grid at one parameter set.

    The array form of SteadyState: state k sits at drive mu[k] in family
    phase[k], with signal magnitude amp_signal[k], mean-field amplitudes
    a_i[k], a_s[k], a_p[k] at t = 0 and signed rotation rate rot[k]
    (z2_branch * delta).  A row of one state (SteadyRow.of) holds scalars.
    """

    mu: np.ndarray
    phase: tuple[Phase, ...]
    amp_signal: np.ndarray
    a_i: np.ndarray
    a_s: np.ndarray
    a_p: np.ndarray
    rot: np.ndarray

    @classmethod
    def of(cls, params: SystemParams, ss: SteadyState) -> "SteadyRow":
        """The one-state row of ss at drive params.mu."""
        a_i, a_s, a_p = mode_amplitudes(ss, 0.0)
        return cls(params.mu, (ss.phase,), ss.amp_signal, a_i, a_s, a_p, ss.z2_branch * ss.delta)


def _family(params: SystemParams, phase: Phase, mu):
    """(pump P, rotation) of a family at drive(s) mu: pump amplitude i P, magnitude sqrt(mu - P).

    A family exists where mu >= P; u1xz2 exists only where it is the broken family.
    """
    kappa = params.kappa
    if phase is Phase.DISORDERED:
        return mu, 0.0
    if phase is Phase.U1:
        return 1.0, 0.0
    if _broken(kappa) is not Phase.U1XZ2:
        return math.inf, 0.0
    return 2.0 * kappa, frequency_shift(kappa) * params.gamma0


def steady_row(
    params: SystemParams, mu: np.ndarray, phase: Phase | None = None
) -> tuple[np.ndarray, SteadyRow]:
    """Stationary states across the drive grid mu at the memory of params.

    The one statement of which family exists, which is stable and what its
    amplitudes are.  phase=None takes the stable state at every drive
    (steady_state); a Phase takes that family wherever it exists, which may
    be nowhere (steady_state_branch is the one-drive case).  Returns the
    grid indices of the states and the row; z2_branch = +1 and phi = 0.
    """
    pump, rot = np.array(mu, dtype=float), np.zeros(np.shape(mu))
    if phase is None:
        broken = _broken(params.kappa)
        on = mu > critical_drive(params.kappa)
        pump[on], rot[on] = _family(params, broken, mu[on])
        index = np.arange(mu.size)
        phases = tuple(broken if b else Phase.DISORDERED for b in on.tolist())
    else:
        pump[:], rot[:] = _family(params, phase, mu)
        index = np.flatnonzero(mu >= pump)
        mu, pump, rot = mu[index], pump[index], rot[index]
        phases = (phase,) * mu.size
    amp = np.sqrt(mu - pump)
    a = 1j * amp
    return index, SteadyRow(mu, phases, amp, a, a, 1j * pump, rot)


def row_residuals(params: SystemParams, row: SteadyRow) -> np.ndarray:
    """steady_state_residual of every state of row.

    On arrays numpy may fuse the multiply-adds of a complex product, which
    moves last bits against Python's complex arithmetic; the purely
    imaginary amplitudes of steady_row leave one nonzero term per product,
    so there each state's residual is bit for bit its one-state value.
    """
    g0, gp, mu = params.gamma0, params.gammaP, row.mu
    a_i, a_s, a_p, rot = row.a_i, row.a_s, row.a_p, row.rot
    # Convolution of the kernel with a phase rotating as e^{+i rot t} gives
    # gamma~(-rot); the counter-rotating signal mode picks up gamma~(+rot).
    g_i = kernel_freq(params, -rot)
    g_s = kernel_freq(params, +rot)
    # With a drive or pump rate near the float range the terms and the pump
    # scale below overflow.  No warning is raised for it: such a state is
    # refused by the eigen-solve's resolution check (linres._generators).
    with np.errstate(over="ignore", invalid="ignore"):
        res_i = 0.5 * (-g_i * a_i + 1j * g0 * np.conj(a_s) * a_p) - 1j * rot * a_i
        res_s = 0.5 * (-g_s * a_s + 1j * g0 * np.conj(a_i) * a_p) + 1j * rot * a_s
        res_p = 0.5 * (-gp * a_p + 1j * gp * (a_i * a_s + mu))
        # hypot is the modulus Python takes; numpy's complex abs may differ.
        # The pump terms grow with the drive, so their residual is taken
        # relative to gammaP max(1, mu).
        out = np.hypot(res_i.real, res_i.imag) / g0
        pump_scale = gp * np.maximum(1.0, mu)
        for r in (np.hypot(res_s.real, res_s.imag) / g0,
                  np.hypot(res_p.real, res_p.imag) / pump_scale):
            out = np.where(r > out, r, out)  # max() as Python takes it, NaN included
    return out


def steady_state_residual(params: SystemParams, ss: SteadyState) -> float:
    """Stationarity defect of ss under the amplitude equations.

    Signal/idler residuals are normalized by gamma0, the pump residual by
    gammaP max(1, mu), the size of its terms, so the value is scale-free
    and a large drive is not rejected for the rounding of mu + A_i A_s.
    Exact solutions sit at rounding error (< 1e-10).
    """
    return float(row_residuals(params, SteadyRow.of(params, ss)))


def check_grid(base: SystemParams, mu_grid, kappa_grid, where=None) -> None:
    """Raise the error of the first invalid (mu, kappa) point, kappa-major.

    A point is valid when mu is finite and >= 0 and kappa is > 0 or inf
    with a finite tau_r = 1/(gamma0 kappa).  The first invalid one re-raises
    through base.replace, so it keeps the scalar route's class and message;
    where(i, j), if given, prefixes its grid location.
    """
    mu = np.asarray(mu_grid, dtype=float).tolist()
    bad_mu = next((i for i, m in enumerate(mu) if not 0.0 <= m < math.inf), None)
    for j, kappa in enumerate(np.asarray(kappa_grid, dtype=float).tolist()):
        # A kappa without a memory time makes its whole row invalid.
        i = 0 if mu and _no_memory_time(base.gamma0, kappa) else bad_mu
        if i is not None:
            break
    else:
        return
    try:
        base.replace(mu=mu[i], kappa=kappa)
    except Exception as exc:
        if where is None:
            raise
        raise located(exc, where(i, j)) from exc


def _run_row(run, mu: np.ndarray, where):
    """run(mu) on a whole drive row, or the first single drive that fails.

    When the row fails, each drive is rerun alone in grid order, and the
    first failure is raised with its location where(i): the error a
    point-by-point loop would have raised.
    """
    try:
        return run(mu)
    except Exception:
        for i in range(mu.size):
            try:
                run(mu[i : i + 1])
            except Exception as exc:
                raise located(exc, where(i)) from exc
        raise


def phase_diagram(
    mu_grid,
    kappa_grid,
    base: SystemParams | None = None,
) -> list[tuple[float, float, Phase, float]]:
    """Stable phase and spectral margin on a (mu, kappa) product grid.

    Returns rows (mu, kappa, phase, max_re_lambda) in kappa-major order.
    max_re_lambda is the largest real part of the linear-response spectrum
    about the stable state, excluding the single gauge zero mode above
    threshold (it sits at rounding error and carries no stability
    information).  The grid is validated first; each kappa row is then
    solved as one stack (linres.row_spectra).  Failures re-raise with the
    grid location of the first failing point.
    """
    from . import linres  # deferred: linres depends on this module

    base = base or _BASE
    mu = np.asarray(mu_grid, dtype=float)
    kappas = np.asarray(kappa_grid, dtype=float)

    def where(i, j):
        return f"phase diagram point (i={i}, j={j}) mu={mu[i]}, kappa={kappas[j]}"

    check_grid(base, mu, kappas, where)
    rows = []
    for j, kappa in enumerate(kappas.tolist()):
        # The per-point route's parameters: tau_r = 1/(gamma0 kappa) and the
        # kappa rebuilt from it, which may differ from kappa in its last bit.
        p = base.replace(kappa=kappa)

        def margins(drives):
            _, row = steady_row(p, drives)
            return row.phase, linres.row_spectra(p, row, _GOLDSTONE_TOL * p.gamma0)[1]

        phases, max_re = _run_row(margins, mu, lambda i: where(i, j))
        rows += zip(mu.tolist(), [kappa] * mu.size, phases, max_re.tolist())
    return rows
