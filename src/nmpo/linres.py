"""Linear response about a stationary state.

Fluctuations about the mean field are tracked in cross-quadratures

    x+- = (x_i +- x_s)/sqrt(2),  y+- = (y_i +- y_s)/sqrt(2),  xP, yP,

evaluated in the frame co-rotating with the state (static frame when the
rotation rate is zero).  With an exponential memory kernel the convolution
is equivalent to two auxiliary memory variables per damped quadrature pair,
giving a real embedded generator A of dimension 10 (6 in the Markovian
limit), driven by white noise of diffusion D.  Variable order:

    (x+, x-, xP, y+, y-, yP, cx+, cx-, cy+, cy-)

Closed form for the disordered parametric pair (finite kappa, gamma0 = 1):

    lambda_+- = (1/4) [ (mu - 2 kappa) +- sqrt((mu + 2 kappa)^2 - 8 kappa) ]

with the squeezed pair obtained by mu -> -mu.  The discriminant root
mu = sqrt(8 kappa) - 2 kappa is an exceptional point where the pair
coalesces; it exists for kappa <= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    EigensolverFailure,
    InconsistentSteadyState,
    ParameterError,
)
from .meanfield import (
    Phase,
    SteadyState,
    critical_drive,
    steady_state_branch,
    steady_state_residual,
)
from .model import SystemParams

LABELS_FULL = ("x+", "x-", "xP", "y+", "y-", "yP", "cx+", "cx-", "cy+", "cy-")
LABELS_MARKOV = ("x+", "x-", "xP", "y+", "y-", "yP")

# Residual ceiling for accepting a steady state as stationary.
RESIDUAL_TOL = 1e-8
# Spectral margin below which a state counts as stable.
STABLE_TOL = 1e-8


@dataclass(frozen=True)
class EmbeddedMatrix:
    """Real drift generator in embedded (memory-extended) variables."""

    matrix: np.ndarray
    labels: tuple[str, ...]
    frame: str  # "static" or "corotating"


@dataclass(frozen=True)
class EigenSpectrum:
    """Eigenvalues sorted by descending real part, then descending imag."""

    eigenvalues: tuple[complex, ...]
    max_re: float
    stable: bool


def disordered_eigenvalues_closed_form(
    mu: float, kappa: float, gamma0: float = 1.0, squeezed: bool = False
) -> tuple[complex, complex]:
    """Parametric eigenvalue pair of the disordered state at finite kappa.

    squeezed=True returns the pair of the damped (squeezed) sector, which is
    the same expression with the drive sign flipped.
    """
    if not (0 < kappa < math.inf):
        raise ParameterError(
            f"closed form requires finite kappa > 0, got {kappa}",
            [("kappa", "must be positive and finite")],
        )
    if squeezed:
        mu = -mu
    disc = (mu + 2.0 * kappa) ** 2 - 8.0 * kappa
    root = np.sqrt(complex(disc))
    lam_p = 0.25 * gamma0 * ((mu - 2.0 * kappa) + root)
    lam_m = 0.25 * gamma0 * ((mu - 2.0 * kappa) - root)
    return complex(lam_p), complex(lam_m)


def exceptional_point_drive(kappa: float) -> float | None:
    """Drive where the disordered pair coalesces; None if kappa > 2."""
    if not (kappa > 0):
        raise ParameterError(f"kappa must be > 0, got {kappa}", [("kappa", "must be positive")])
    if kappa > 2.0:
        return None
    return math.sqrt(8.0 * kappa) - 2.0 * kappa


def build_embedded_matrix(params: SystemParams, ss: SteadyState) -> EmbeddedMatrix:
    """Real linear-response generator about ss.

    Raises InconsistentSteadyState when ss is not stationary for params to
    within RESIDUAL_TOL.  The quadratures are defined in the gauge of ss
    (mean pump locked on the positive imaginary axis), in its co-rotating
    frame.
    """
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
    # Parametric couplings and pump relaxation.
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
    # Frame rotation mixes the cross-quadrature pairs (x+, y-) and (x-, y+).
    m[0, 4] += -dlt
    m[1, 3] += -dlt
    m[3, 1] += +dlt
    m[4, 0] += +dlt
    if markov:
        for q in (0, 1, 3, 4):
            m[q, q] += -g0 / 2.0
        return EmbeddedMatrix(m, LABELS_MARKOV, "corotating" if dlt != 0.0 else "static")
    tau = params.tau_r
    for k, q in enumerate((0, 1, 3, 4)):
        m[q, 6 + k] += -0.5
        m[6 + k, q] += g0 / tau
        m[6 + k, 6 + k] += -1.0 / tau
    # The memory variables rotate with the frame as well.
    m[6, 9] += -dlt
    m[7, 8] += -dlt
    m[8, 7] += +dlt
    m[9, 6] += +dlt
    return EmbeddedMatrix(m, LABELS_FULL, "corotating" if dlt != 0.0 else "static")


def build_diffusion(params: SystemParams, include_pump: bool) -> np.ndarray:
    """White-noise diffusion D paired with the embedded generator A.

    The coloured bath force is white noise 4 s^2 gamma0 / tau_r^2 (n_th + 1/2)
    on the memory variables (s^2 gamma0 (n_th + 1/2) on the quadratures in
    the Markovian limit), s^2 = 2 g^2 / (gamma0 gammaP); unequal occupancies
    correlate the + and - members of each pair.  The baths are isotropic, so
    D is frame independent.  Optional pump noise is white on xP and yP.
    """
    g0 = params.gamma0
    s2 = 2.0 * params.g**2 / (g0 * params.gammaP)
    if params.markovian:
        n, rows, scale = 6, (0, 1, 3, 4), s2 * g0
    else:
        n, rows, scale = 10, (6, 7, 8, 9), 4.0 * s2 * g0 / params.tau_r**2
    na = 0.5 * (params.n_th_i + params.n_th_s) + 0.5
    nd = 0.5 * (params.n_th_i - params.n_th_s)
    d = np.zeros((n, n))
    for q in rows:
        d[q, q] = scale * na
    xp, xm, yp, ym = rows
    d[xp, xm] = d[xm, xp] = d[yp, ym] = d[ym, yp] = scale * nd
    if include_pump:
        d[2, 2] = d[5, 5] = 2.0 * params.g**2 / g0**2 * params.gammaP * (params.n_th_P + 0.5)
    return d


def eigenspectrum(em: EmbeddedMatrix) -> EigenSpectrum:
    """Dense spectrum of the embedded generator."""
    try:
        vals = np.linalg.eigvals(em.matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise EigensolverFailure("eigensolver returned non-finite eigenvalues")
    ordered = sorted((complex(v) for v in vals), key=lambda z: (-z.real, -z.imag))
    max_re = ordered[0].real
    return EigenSpectrum(tuple(ordered), max_re, max_re <= STABLE_TOL)


def _disordered_margin(params: SystemParams, mu: float) -> float:
    p = params.replace(mu=float(mu))
    ss = steady_state_branch(p, Phase.DISORDERED)
    return eigenspectrum(build_embedded_matrix(p, ss)).max_re


def locate_critical_drive(
    params_at_kappa: SystemParams,
    phase: Phase,
    mu_lo: float = 0.0,
    mu_hi: float = 4.0,
    tol: float = 1e-10,
) -> float:
    """Instability onset of the disordered state, found by bisection.

    phase names the symmetry-broken state expected past the onset and is
    checked against the memory parameter.  Bisection runs on the spectral
    margin of the disordered branch over [mu_lo, mu_hi] until the margin at
    the midpoint is below tol in magnitude.
    """
    kappa = params_at_kappa.kappa
    expected = Phase.U1 if kappa >= 0.5 else Phase.U1XZ2
    if phase is Phase.DISORDERED:
        raise ParameterError(
            "phase must name the broken state whose onset is sought",
            [("phase", "disordered has no onset")],
        )
    if phase is not expected:
        raise ParameterError(
            f"at kappa = {kappa} the first instability is {expected.value}, not {phase.value}",
            [("phase", f"expected {expected.value}")],
        )
    f_lo = _disordered_margin(params_at_kappa, mu_lo)
    f_hi = _disordered_margin(params_at_kappa, mu_hi)
    if f_lo == 0.0:
        return mu_lo
    if f_hi == 0.0:
        return mu_hi
    if (f_lo > 0) == (f_hi > 0):
        raise BracketFailure(
            f"no sign change of the spectral margin on [{mu_lo}, {mu_hi}]: "
            f"f(lo) = {f_lo:.3e}, f(hi) = {f_hi:.3e}"
        )
    lo, hi = mu_lo, mu_hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _disordered_margin(params_at_kappa, mid)
        if abs(f_mid) < tol:
            return mid
        if (f_mid > 0) == (f_hi > 0):
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    raise BracketFailure(f"bisection did not reach |margin| < {tol:.0e}")


@dataclass(frozen=True)
class EigenflowResult:
    """Eigenvalue flow along a drive sweep at fixed memory parameter."""

    kappa: float
    rows: tuple[tuple[float, Phase, tuple[complex, ...]], ...]
    mu_cr: float
    mu_ep: float | None


def eigenflow_sweep(
    kappa: float,
    mu_grid,
    phases: tuple[Phase, ...] | None = None,
    base: SystemParams | None = None,
) -> EigenflowResult:
    """Embedded spectra of every requested branch across a drive grid.

    Branches are linearized about their analytically continued steady state
    wherever that state exists, including where it is unstable, so crossing
    and exchange structure is visible.  Grid points where a branch does not
    exist are skipped.
    """
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
                continue  # branch absent at this drive
            spec = eigenspectrum(build_embedded_matrix(p, ss))
            rows.append((float(mu), ph, spec.eigenvalues))
    return EigenflowResult(
        kappa=float(kappa),
        rows=tuple(rows),
        mu_cr=critical_drive(kappa),
        mu_ep=exceptional_point_drive(kappa) if kappa != math.inf else None,
    )
