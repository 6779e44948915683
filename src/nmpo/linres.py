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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    BracketFailure,
    EigensolverFailure,
    InconsistentSteadyState,
    NumericsError,
    ParameterError,
)
from .meanfield import (
    Phase,
    SteadyRow,
    SteadyState,
    _BASE,
    _GOLDSTONE_TOL,
    _broken,
    _run_row,
    check_grid,
    critical_drive,
    row_residuals,
    steady_row,
    steady_state_branch,
    steady_state_residual,
)
from .model import SystemParams

# Residual ceiling for accepting a steady state as stationary.
RESIDUAL_TOL = 1e-8
# Spectral margin below which a state counts as stable.
STABLE_TOL = 1e-8
_EPS = sys.float_info.epsilon


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


# Entries of A as (row, col).  Constant ones: pump relaxation, then the bare
# damping (Markovian) or the couplings of the memory variables.
_PUMP = [(2, 2), (5, 5)]
_DAMPING = [(0, 0), (1, 1), (3, 3), (4, 4)]
_MEMORY = [(0, 6), (1, 7), (3, 8), (4, 9), (6, 0), (7, 1), (8, 3), (9, 4),
           (6, 6), (7, 7), (8, 8), (9, 9)]
# State-dependent ones, in the order _entries lists their values:
# parametric couplings, then the frame rotation, which mixes the
# cross-quadrature pairs (x+, y-) and (x-, y+) and, with memory, their
# memory variables.
_COUPLING = [(0, 0), (1, 1), (3, 3), (4, 4), (0, 2), (3, 5), (2, 0), (5, 3)]
_ROTATION = [(0, 4), (1, 3), (3, 1), (4, 0)]
_MEMORY_ROTATION = [(6, 9), (7, 8), (8, 7), (9, 6)]


def _flat(entries, n):
    return np.array([r * n + c for r, c in entries])


# Flat indices into an n x n generator: n = 6 is Markovian, 10 has memory.
_CONSTANT = {6: _flat(_PUMP + _DAMPING, 6), 10: _flat(_PUMP + _MEMORY, 10)}
_VARYING = {6: _flat(_COUPLING + _ROTATION, 6),
            10: _flat(_COUPLING + _ROTATION + _MEMORY_ROTATION, 10)}


def _entries(params: SystemParams, h, gc, gpc, dlt):
    """(n, constant values, state-dependent values) of A, in the order of
    _CONSTANT[n] and _VARYING[n].

    h = gamma0 P / 2 for pump amplitude i P, gc and gpc are gamma0 and
    gammaP times the signal magnitude over sqrt(2), and dlt is the signed
    rotation rate: floats for one state, arrays for a row.
    """
    g0, gp = params.gamma0, params.gammaP
    vals = [-h, h, h, -h, gc, gc, -gpc, -gpc, -dlt, -dlt, dlt, dlt]
    if params.markovian:
        return 6, [-gp / 2.0] * 2 + [-g0 / 2.0] * 4, vals
    tau = params.tau_r
    const = [-gp / 2.0] * 2 + [-0.5] * 4 + [g0 / tau] * 4 + [-1.0 / tau] * 4
    return 10, const, vals + [-dlt, -dlt, dlt, dlt]


def _not_stationary(res) -> InconsistentSteadyState:
    return InconsistentSteadyState(f"stationarity residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}")


_OFF_AXIS = "pump amplitude not on the imaginary axis"


def _unresolved(floor) -> EigensolverFailure:
    # The eigen-solve resolves eigenvalues to about eps times the largest
    # coupling, gammaP |A| / sqrt(2), which grows as sqrt(mu).  Past the
    # gauge-mode tolerance the margin is rounding, not physics.
    return EigensolverFailure(
        f"drive too large to resolve the spectrum: rounding {floor:.1e} exceeds "
        f"{_GOLDSTONE_TOL:.0e} gamma0"
    )


def _generators(params: SystemParams, row: SteadyRow) -> np.ndarray:
    """Embedded generators about the states of row, as an (N, n, n) array.

    The stacked form of build_embedded_matrix, with the same checks on
    every state.
    """
    res = row_residuals(params, row)
    if (res > RESIDUAL_TOL).any():
        raise _not_stationary(res[np.argmax(res > RESIDUAL_TOL)])
    pump = row.a_p
    if (abs(pump.real) > 1e-12 * np.maximum(1.0, abs(pump))).any():
        raise InconsistentSteadyState(_OFF_AXIS)
    g0 = params.gamma0
    gc = g0 * row.amp_signal / math.sqrt(2.0)
    gpc = params.gammaP * row.amp_signal / math.sqrt(2.0)
    floor = _EPS * gpc
    if (floor > _GOLDSTONE_TOL * g0).any():
        raise _unresolved(floor[np.argmax(floor > _GOLDSTONE_TOL * g0)])
    n, const, vals = _entries(params, g0 * pump.imag / 2.0, gc, gpc, row.rot)
    m = np.zeros((len(row.mu), n, n))
    flat = m.reshape(len(m), n * n)
    # Entries are added into zeros, so that zeros come out positive, as
    # when A is filled one entry at a time.  Two terms meet only on the
    # Markovian diagonal, and their sum does not depend on the order.
    flat[:, _CONSTANT[n]] += const
    flat[:, _VARYING[n]] += np.array(vals).reshape(len(vals), -1).T
    return m


def build_embedded_matrix(params: SystemParams, ss: SteadyState) -> np.ndarray:
    """Real linear-response generator A about ss, as an (n, n) float array.

    n is 10, or 6 in the Markovian limit, in the variable order of the
    module docstring.  The quadratures are defined in the gauge of ss (mean
    pump locked on the positive imaginary axis), in its co-rotating frame:
    the rotation rate z2_branch * delta sits in the entries that mix
    (x+, y-) and (x-, y+), and is zero in a static frame.  Raises
    InconsistentSteadyState when ss is not stationary for params to within
    RESIDUAL_TOL, and EigensolverFailure when the drive is too large for
    the spectrum to be resolved.  The one-state case of _generators, with
    the same checks and entries, computed on Python floats.
    """
    res = steady_state_residual(params, ss)
    if res > RESIDUAL_TOL:
        raise _not_stationary(res)
    pump = ss.pump_amp
    if abs(pump.real) > 1e-12 * max(1.0, abs(pump)):
        raise InconsistentSteadyState(_OFF_AXIS)
    g0 = params.gamma0
    gc = g0 * ss.amp_signal / math.sqrt(2.0)
    gpc = params.gammaP * ss.amp_signal / math.sqrt(2.0)
    floor = _EPS * gpc
    if floor > _GOLDSTONE_TOL * g0:
        raise _unresolved(floor)
    n, const, vals = _entries(params, g0 * pump.imag / 2.0, gc, gpc, ss.z2_branch * ss.delta)
    m = np.zeros(n * n)
    m[_CONSTANT[n]] += const
    m[_VARYING[n]] += vals
    return m.reshape(n, n)


def build_diffusion(params: SystemParams, ss: SteadyState) -> np.ndarray:
    """White-noise diffusion D paired with the generator A about ss.

    The coloured bath force is white noise 4 s^2 gamma0 / tau_r^2 (n_th + 1/2)
    on the memory variables (s^2 gamma0 (n_th + 1/2) on the quadratures in
    the Markovian limit), s^2 = 2 g^2 / (gamma0 gammaP); unequal occupancies
    correlate the + and - members of each pair.  The baths are isotropic, so
    D is frame independent.  White pump noise of power pump_noise_power sits
    on xP and yP exactly when ss.phase is broken, as in the stochastic
    integrator; nothing else of ss is read.  NumericsError when a noise
    strength is outside the float range: s^2 or the pump noise power
    (SystemParams), a bath noise strength that underflows to 0 (at a memory
    time so long that tau_r^2 overflows), a nonzero entry of D below the
    normal float range, or a D that is not finite (at a memory time so short
    that tau_r^2 underflows, or where the bath noise strength overflows).
    """
    g0, s2 = params.gamma0, params.variance_scale
    if params.markovian:
        n, rows, scale = 6, (0, 1, 3, 4), s2 * g0
    else:
        try:
            tau2 = params.tau_r**2
        except OverflowError:
            tau2 = math.inf
        n, rows = 10, (6, 7, 8, 9)
        scale = math.inf if tau2 == 0.0 else 4.0 * s2 * g0 / tau2
    if scale == 0.0:
        raise NumericsError(
            f"bath noise strength underflows to 0 at tau_r = {params.tau_r:.3e}, s^2 = {s2:.3e}"
        )
    na = params.n_avg + 0.5
    nd = 0.5 * (params.n_th_i - params.n_th_s)
    # The bath entries of D; the pump ones are normal (SystemParams).
    bath, corr = scale * na, scale * nd
    d = np.zeros((n, n))
    for q in rows:
        d[q, q] = bath
    xp, xm, yp, ym = rows
    d[xp, xm] = d[xm, xp] = d[yp, ym] = d[ym, yp] = corr
    if ss.phase.broken:
        d[2, 2] = d[5, 5] = params.pump_noise_power
    if not np.isfinite(d).all():
        raise NumericsError(
            f"diffusion not finite: bath noise strength {scale:.3e} at tau_r = {params.tau_r:.3e}"
        )
    for entry in (bath, corr):
        if 0.0 < abs(entry) < sys.float_info.min:
            raise NumericsError(
                f"diffusion entry {entry:.3e} below the normal float range: bath noise "
                f"strength {scale:.3e} at tau_r = {params.tau_r:.3e}, s^2 = {s2:.3e}"
            )
    return d


# A stack whose matrix count times n^3 reaches this is split between the
# calling thread and the helper.  Measured on 2 vCPUs (numpy 2.4): waking
# the idle helper costs 0.2-0.4 ms, and eigvals holds the GIL on stacks of
# count x n <= 500, so the two halves of 100 10x10 matrices ran one after
# the other.  The split lost at 100 10x10 matrices (1.1 -> 1.5 ms) and won
# from 125 (1.4 -> 1.1 ms); at 6x6 it broke even at 201 matrices and won at
# 601 (1.3 -> 1.0 ms).  At this value 10x10 stacks split from 150 matrices,
# 6x6 ones from 695.
_SPLIT_WORK = 150_000

# The CPUs this process may run on.  Where the platform does not say, none
# are counted, and every stack is solved on the calling thread.
_allowed_cpus = getattr(os, "sched_getaffinity", lambda pid: ())

# The helper: one thread, started by the executor at the first split and
# kept.  A forked child does not have its parent's thread, so it makes an
# executor of its own.
_helper = ThreadPoolExecutor(1, thread_name_prefix="nmpo-eigvals")


def _new_helper() -> None:
    global _helper
    _helper = ThreadPoolExecutor(1, thread_name_prefix="nmpo-eigvals")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_helper)


def _eigvals(mats: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals(mats), on two cores when the stack is large.

    With two or more CPUs allowed and a stack past _SPLIT_WORK, the helper
    thread solves the even-indexed matrices while this one solves the odd
    ones (eigvals releases the GIL); the halves are interleaved because the
    cost per matrix rises with the drive.  Each matrix goes through the same
    LAPACK call as in one whole-stack solve, so the values are the same bit
    for bit; a split stack comes back complex.  The helper runs numpy only,
    and its solve is waited for even when this thread's half fails.
    """
    count, n = mats.shape[:2]
    if count < 2 or count * n**3 < _SPLIT_WORK or len(_allowed_cpus(0)) < 2:
        return np.linalg.eigvals(mats)
    even = _helper.submit(np.linalg.eigvals, mats[0::2])
    try:
        odd = np.linalg.eigvals(mats[1::2])
    finally:
        even.exception()
    vals = np.empty((count, n), complex)
    vals[0::2] = even.result()
    vals[1::2] = odd
    return vals


def _checked(solve, mats):
    """solve(mats), with a LAPACK failure or a non-finite eigenvalue raised
    as an EigensolverFailure."""
    try:
        vals = solve(mats)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"eigensolver did not converge: {exc}") from exc
    if not np.all(np.isfinite(vals)):
        raise EigensolverFailure("eigensolver returned non-finite eigenvalues")
    return vals


def _spectra(mats: np.ndarray, gauge=None, gauge_tol: float = 0.0):
    """Sorted spectra of a stack of generators and the margin of each.

    Returns the (N, n) eigenvalues, each row sorted by descending real part,
    then descending imaginary part, and the largest real part of each row.
    Where gauge is set, the margin skips the gauge zero mode: the first
    eigenvalue of least modulus, when that modulus is below gauge_tol.
    The eigen-solve of a large stack is split between this thread and one
    persistent helper thread (_eigvals), with the same values bit for bit.
    A LAPACK failure in either half is an EigensolverFailure.
    """
    vals = _checked(_eigvals, mats)
    rows = np.arange(len(vals))[:, None]
    vals = vals.astype(complex)[rows, np.lexsort((-vals.imag, -vals.real))]
    if gauge is None:
        return vals, vals[:, 0].real
    # The margin is the real part of the first eigenvalue kept, which is the
    # second one where the dropped mode comes first.
    mag = np.hypot(vals.real, vals.imag)
    dropped_first = gauge & (np.argmin(mag, axis=-1) == 0) & (mag[:, 0] < gauge_tol)
    return vals, vals[rows[:, 0], dropped_first.astype(int)].real


def _sorted_eigvals(a: np.ndarray) -> list[complex]:
    """The eigenvalues of one generator a, as complex numbers in the order
    _spectra gives a row: a stable sort by descending real part, then
    descending imaginary part (np.lexsort's order)."""
    vals = _checked(np.linalg.eigvals, a).tolist()
    return sorted(map(complex, vals), key=lambda z: (-z.real, -z.imag))


def eigenspectrum(a: np.ndarray) -> EigenSpectrum:
    """Dense spectrum of the square generator a (build_embedded_matrix)."""
    vals = _sorted_eigvals(a)
    max_re = vals[0].real
    return EigenSpectrum(tuple(vals), max_re, max_re <= STABLE_TOL)


def row_spectra(params: SystemParams, row: SteadyRow, gauge_tol: float | None = None):
    """Spectra about every state of row in one stacked eigen-solve.

    The stacked form of eigenspectrum(build_embedded_matrix(params, ss)):
    returns the (N, n) sorted eigenvalues and the margin (largest real
    part) of each state.  With gauge_tol, the margin of a state in a broken
    phase leaves out its gauge zero mode (see _spectra).  A long row is
    solved on two cores when two are allowed, with the same values bit for
    bit (see _eigvals).
    """
    gauge = None
    if gauge_tol is not None:
        gauge = np.array([ph.broken for ph in row.phase], dtype=bool)
    return _spectra(_generators(params, row), gauge, gauge_tol)


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
    expected = _broken(kappa)
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
    exist are skipped (steady_row gives them an empty row).  The grid is
    validated first; each branch is then solved as one stack (row_spectra).
    A failure re-raises with the drive of the first failing point.
    """
    base = base or _BASE
    if phases is None:
        phases = tuple(Phase)
    mu = np.asarray(mu_grid, dtype=float)
    check_grid(base, mu, [kappa])
    p = base.replace(kappa=float(kappa))

    def branches(drives):
        out = []
        for ph in phases:
            index, row = steady_row(p, drives, ph)
            out.append((ph, index, row_spectra(p, row)[0]))
        return out

    def where(i):
        return f"eigenflow point (i={i}) mu={mu[i]}, kappa={kappa}"

    # Rows in drive-major order, branches in the order requested.
    slots = [[] for _ in range(mu.size)]
    for ph, index, vals in _run_row(branches, mu, where):
        for i, lams in zip(index.tolist(), vals.tolist()):
            slots[i].append((float(mu[i]), ph, tuple(lams)))
    return EigenflowResult(
        kappa=float(kappa),
        rows=tuple(row for slot in slots for row in slot),
        mu_cr=critical_drive(kappa),
        mu_ep=exceptional_point_drive(kappa) if kappa != math.inf else None,
    )
