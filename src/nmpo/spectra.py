"""Fluctuation spectra, quadrature variances, and logarithmic negativity.

Everything here derives from the embedded pair of linres, the drift
generator A and its white-noise diffusion D, and is reported in the
cross-quadrature basis (x+, x-, xP, y+, y-, yP) of the co-rotating frame of
the supplied steady state.  With R = (-i omega - A_mm)^{-1}, eliminating the
memory variables m gives the response matrix and the Langevin force PSD as
Schur complements onto the quadratures p,

    Sigma~(omega) + i omega I = A_pp + i omega I + A_pm R A_mp
    D(omega)                  = D_pp + A_pm R D_mm R^H A_pm^T

(in a rotating frame D(omega) correlates (x+, y-) and (x-, y+), because the
+-delta sidebands of the coloured bath are sampled unevenly), and the PSD
S(omega) = (1/2 pi) chi D(omega) chi^H with chi = (Sigma~ + i omega I)^{-1}.

Equal-time variances are the stationary covariance C of the Ornstein-
Uhlenbeck process (A, D): A C + C A^T + D = 0 (Lyapunov; Gardiner,
Stochastic Methods).  Marginal modes (the gauge zero mode above threshold,
the critical modes on the boundary) are projected out, and the quadratures
they touch are reported divergent.  scipy.linalg is imported inside the two
functions of this route, so that every other route starts on numpy alone.

Normalized variances divide out the thermal scale: sigma = Var / [s^2
(n_th + 1/2)] with s^2 = 2 g^2/(gamma0 gammaP) the thermal variance of one
quadrature of the scaled amplitude per unit (n_th + 1/2).

Closed forms used for cross-validation and fast maps (kappa = 1/(gamma0
tau_r), r = (n_th_P + 1/2)/(n_th + 1/2)):

    below threshold:  sigma_sq  = 2 kappa / ((1 + mu)(2 kappa + mu))
                      sigma_amp = 2 kappa / ((1 - mu)(2 kappa - mu))
    u1 phase:         sigma_x+ = [2 r (mu-1)(mu+kappa) + kappa] / [mu (2 kappa + 2 mu - 1)]
                      sigma_x- -> divergent (gauge mode)
                      sigma_y+ = [2 r (mu-1+kappa)(mu-1) + kappa] / [(mu-1)(2 kappa + 2 mu - 3)]
                      sigma_y- = kappa / (1 + 2 kappa)

The u1 forms hold in the instantaneous-pump limit; at finite gammaP they
acquire O(gamma0/gammaP) corrections.  Markovian limits are the kappa -> inf
values of the same expressions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import linres
from .errors import (
    EigensolverFailure,
    NumericsError,
    OutOfRegime,
    ParameterError,
    SingularAtFrequency,
    located,
)
from .meanfield import Phase, SteadyState, classify_phase, critical_drive, steady_state
from .model import SystemParams, _check_memory_time

VAR_LABELS = ("x+", "x-", "y+", "y-")
_VAR_INDEX = {"x+": 0, "x-": 1, "y+": 3, "y-": 4}

# Zero-point variance of x = (a + a^dag)/sqrt(2).
SIGMA_ZPM = 0.5
# Relative singular-value floor below which a response matrix counts as singular.
_SINGULAR_RTOL = 1e-13
# |Re lambda| / gamma0 up to which a mode can be marginal.  Absorbs the
# sqrt(eps) splitting of a defective zero eigenvalue (about 1e-8 at kappa = 1/2).
_MARGINAL_RE = 1e-6
# A quadrature whose row weight in the marginal subspace exceeds this share
# of the largest row weight is touched by a marginal mode.
_TOUCH_FRAC = 1e-6
# Scale above which the u1 closed forms divide out max(mu, kappa) to stay in range.
_HUGE = 1e100
# dgees's workspace per matrix size: the optimal size that scipy.linalg.schur
# queries before each call, which depends on the size only.
_GEES_LWORK: dict[int, int] = {}
# dgees's info > 0 less the size, as scipy.linalg.schur words it.
_GEES_FAILED = {1: "Eigenvalues could not be separated for reordering.",
                2: "Leading eigenvalues do not satisfy sort condition."}
# trsyl's info = 1: it perturbed the coefficients to solve (scipy's wording).
_PERTURBED = (
    'Input "a" has an eigenvalue pair whose sum is very close to or exactly zero. '
    "The solution is obtained via perturbing the coefficients."
)


def _h(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def _frequencies(omega) -> np.ndarray:
    """omega as a 1-D float array; ParameterError unless it is one of finite
    frequencies."""
    try:
        om = np.asarray(omega, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParameterError(
            f"omega_grid must be real frequencies: {exc}", [("omega_grid", "must be real")]
        ) from exc
    if om.ndim != 1 or not np.isfinite(om).all():
        raise ParameterError(
            f"omega_grid must be a 1-D array of finite frequencies, got shape {om.shape} "
            f"with {np.count_nonzero(~np.isfinite(om))} non-finite",
            [("omega_grid", "must be 1-D and finite")],
        )
    return om


def _eliminate_memory(a: np.ndarray, omega) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(omega, Sigma~(omega) + i omega I, A_pm R) stacked over a frequency grid.

    omega must be a 1-D array of finite frequencies (ParameterError
    otherwise); the two stacks are (N, 6, 6) and (N, 6, n - 6).  The memory
    block of a Markovian a is empty, so A_pm R is 6x0 and adds nothing.
    """
    om = _frequencies(omega)
    iw = 1j * om[:, None, None]
    feed = a[:6, 6:] @ np.linalg.inv(-iw * np.eye(a.shape[0] - 6) - a[6:, 6:])
    return om, a[:6, :6] + iw * np.eye(6) + feed @ a[6:, :6], feed


def _force_psd(d: np.ndarray, feed: np.ndarray) -> np.ndarray:
    """D(omega) = D_pp + A_pm R D_mm R^H A_pm^T, made exactly Hermitian.

    Real and diagonal in a non-rotating frame; a rotating frame adds
    Hermitian (x+, y-) and (x-, y+) entries.  D(-omega) = D(omega)^T.
    """
    force = d[:6, :6] + feed @ d[6:, 6:] @ _h(feed)
    return 0.5 * (force + _h(force))


def _check_response(m: np.ndarray, om: np.ndarray) -> None:
    """SingularAtFrequency at the first omega of the grid where m is singular."""
    sv = np.linalg.svd(m, compute_uv=False)
    singular = sv[:, -1] < _SINGULAR_RTOL * sv[:, 0]
    if singular.any():
        k = int(np.argmax(singular))
        raise SingularAtFrequency(
            f"response matrix singular at omega = {om[k]}: "
            f"smallest/largest singular value = {sv[k, -1]:.3e}/{sv[k, 0]:.3e}"
        )


def susceptibility_at(a: np.ndarray, omega: float) -> np.ndarray:
    """Response matrix Sigma~(omega) + i omega I of the embedded generator a
    at one real frequency.

    The Schur complement of a (linres.build_embedded_matrix(params, ss))
    onto the six physical quadratures.  Raises SingularAtFrequency when the
    matrix is numerically singular (gapless states at omega = 0, or exactly
    at a critical point); the marginal-mode rule relies on this.
    """
    om, m, _ = _eliminate_memory(a, [omega])
    _check_response(m, om)
    return m[0]


def _marginal_rule(a: np.ndarray, gamma0: float):
    """Predicate on an eigenvalue (re, im) of a: does its mode count as marginal?

    Marginal needs both a real part within _MARGINAL_RE * gamma0 of zero and
    a response matrix of a that is singular at the mode's frequency -im.
    The second condition keeps merely slow modes (a drive just below
    threshold) finite.  The test runs on the a the caller already holds,
    once per distinct (re, im): the sorted Schur form asks about each
    eigenvalue more than once.
    """
    tol = _MARGINAL_RE * gamma0
    answers: dict[tuple[float, float], bool] = {}

    def is_marginal(re: float, im: float) -> bool:
        if abs(re) > tol:
            return False
        if (re, im) not in answers:
            try:
                susceptibility_at(a, -im)
                answers[re, im] = False
            except SingularAtFrequency:
                answers[re, im] = True
        return answers[re, im]

    return is_marginal


def _marginal_schur(a: np.ndarray, is_marginal):
    """(T, Z, k, X, touched): the one ordered real Schur form of a that the
    variances route derives everything from.

    a = Z T Z^T with the k marginal eigenvalues leading, so T11 = T[:k, :k]
    holds them and T22 = T[k:, k:] the rest.  X (k x (n - k)) solves
    T11 X - X T22 = -T12 with one trsyl on the blocks T already has; then
    [[I, X], [0, I]] block-diagonalizes T and P = Z [[I, -X], [0, 0]] Z^T is
    the real spectral projector onto the marginal modes, which (unlike
    eigenvectors) stays real when the zero eigenvalue is defective.
    touched masks the variables the marginal subspace reaches: all False
    when k = 0, else at least the variable of largest weight.  One sorted
    dgees call, with scipy.linalg.schur's workspace, gives T, Z and k as
    that function does, bit for bit, and its ValueError for a non-finite a.
    """
    from scipy.linalg import lapack

    n = np.asarray_chkfinite(a).shape[0]
    if n not in _GEES_LWORK:
        _GEES_LWORK[n] = int(lapack.dgees(lambda re, im: None, a, lwork=-1)[-2][0])
    t, k, _, _, z, _, info = lapack.dgees(is_marginal, a, lwork=_GEES_LWORK[n], sort_t=1)
    if info:
        reason = _GEES_FAILED.get(info - n, "Schur form not found. Possibly ill-conditioned.")
        raise EigensolverFailure(f"ordered Schur form failed: {reason}")
    if k == 0:
        return t, z, 0, np.zeros((0, n)), np.zeros(n, dtype=bool)
    # trsyl returns scale * X, with scale < 1 only where X would overflow.
    x, scale, _ = lapack.dtrsyl(t[:k, :k], t[k:, k:], -t[:k, k:], isgn=-1)
    weight = np.linalg.norm(z[:, :k], axis=1)
    return t, z, k, x / scale, weight > _TOUCH_FRAC * weight.max()


def _marginal_projector(a: np.ndarray, is_marginal) -> tuple[np.ndarray, np.ndarray]:
    """Real spectral projector P onto the marginal modes of a, and the mask
    of the variables its range touches: the P view of _marginal_schur.
    With no marginal mode P is zero."""
    _, z, k, x, touched = _marginal_schur(a, is_marginal)
    if k == 0:
        return np.zeros_like(a), touched
    return z[:, :k] @ (z[:, :k].T - x @ z[:, k:].T), touched


@dataclass(frozen=True)
class SpectralData:
    """PSD matrices of the cross-quadratures on a frequency grid.

    matrices[k] is the Hermitian 6x6 PSD at omega[k], in the quadrature
    order (x+, x-, xP, y+, y-, yP) of the co-rotating frame of ss; X and Y
    sectors sit in one matrix (block-diagonal unless the frame rotates).
    generator and diffusion are the arrays A = build_embedded_matrix(params,
    ss) and D = build_diffusion(params, ss) the spectrum was derived from.
    """

    omega: np.ndarray
    matrices: np.ndarray
    params: SystemParams
    ss: SteadyState
    generator: np.ndarray
    diffusion: np.ndarray


def psd(params: SystemParams, ss: SteadyState, omega_grid=None) -> SpectralData:
    """Hermitian PSD matrices on a frequency grid.

    The steady state must be stable or marginal; the marginal-mode rule
    (_marginal_rule) tests the one generator A built here, which
    SpectralData carries on.  The default grid is 2000 points over
    |omega| <= 30 gamma0 + 3 gammaP (3 gamma0 in place of 3 gammaP for a
    disordered state); its even count avoids omega = 0, so gapless states
    are fine.  An empty grid (validated like any other) gives only the
    stability check and the pair (A, D), which is all integrate_variances
    reads: no frequency is evaluated, and omega and matrices are the empty
    (0,) and (0, 6, 6) stacks.  Pump noise is on exactly when the state's
    phase is broken (build_diffusion).  The grid is evaluated as one
    (N, 6, 6) stack; SingularAtFrequency names its first singular frequency
    in grid order.
    """
    a = linres.build_embedded_matrix(params, ss)
    is_marginal = _marginal_rule(a, params.gamma0)
    # Sorted by descending real part: the first stable eigenvalue ends the check.
    for lam in linres._spectra(a[None])[0][0].tolist():
        if lam.real <= linres.STABLE_TOL:
            break
        if not is_marginal(lam.real, lam.imag):
            raise OutOfRegime(
                f"PSD of an unstable state (growth rate {lam.real:.3e}); "
                "linearized fluctuations have no stationary spectrum"
            )
    if omega_grid is None:
        w = 30.0 * params.gamma0 + 3.0 * (params.gammaP if ss.phase.broken else params.gamma0)
        omega_grid = np.linspace(-w, w, 2000)
    om = _frequencies(omega_grid)
    if om.size == 0:
        d = linres.build_diffusion(params, ss)
        return SpectralData(om, np.empty((0, 6, 6), dtype=complex), params, ss, a, d)
    om, m, feed = _eliminate_memory(a, om)
    _check_response(m, om)
    d = linres.build_diffusion(params, ss)
    chi = np.linalg.inv(m)
    s = chi @ _force_psd(d, feed) @ _h(chi) / (2.0 * math.pi)
    return SpectralData(om, 0.5 * (s + _h(s)), params, ss, a, d)


@dataclass(frozen=True)
class VarianceReport:
    """Equal-time cross-quadrature variances.

    sigma_* are normalized to the thermal variance (n_th + 1/2); absolute
    holds the same values in quadrature units where the zero-point variance
    is 1/2.  Divergent entries are reported as inf and flagged, never as a
    large finite number.  sigma_sq_scan / theta_sq are the minimum over the
    (x+, y-) mixing angle and the angle giving it (rotating phase);
    stderr carries ensemble standard errors for sampled estimates.
    """

    sigma_x_plus: float
    sigma_x_minus: float
    sigma_y_plus: float
    sigma_y_minus: float
    absolute: dict[str, float]
    divergent: dict[str, bool]
    squeezed: str
    amplified: str
    n_th: float
    sigma_sq_scan: float | None = None
    theta_sq: float | None = None
    covariance: np.ndarray | None = None
    stderr: dict[str, float] | None = None

    def normalized(self) -> dict[str, float]:
        return {
            "x+": self.sigma_x_plus,
            "x-": self.sigma_x_minus,
            "y+": self.sigma_y_plus,
            "y-": self.sigma_y_minus,
        }

    def min_sigma(self) -> float:
        """Smallest normalized variance, using the mixing-angle minimum when present."""
        best = min(v for v in self.normalized().values() if math.isfinite(v))
        if self.sigma_sq_scan is not None:
            best = min(best, self.sigma_sq_scan)
        return best


def _make_report(
    values: dict[str, float],
    n_th: float,
    stderr: dict[str, float] | None = None,
    sigma_sq_scan: float | None = None,
    theta_sq: float | None = None,
    covariance: np.ndarray | None = None,
) -> VarianceReport:
    divergent = {lab: not math.isfinite(values[lab]) for lab in VAR_LABELS}
    finite = {lab: v for lab, v in values.items() if math.isfinite(v)}
    if not finite:
        raise NumericsError("all quadrature variances divergent")
    squeezed = min(finite, key=finite.get)
    amplified = max(values, key=lambda lab: values[lab])
    absolute = {lab: (n_th + 0.5) * values[lab] for lab in VAR_LABELS}
    for lab in VAR_LABELS:
        if math.isinf(absolute[lab]) and not divergent[lab]:
            raise NumericsError(
                f"absolute variance of {lab} overflows: "
                f"(n_th + 1/2) * {values[lab]:.3e} with n_th = {n_th:.3e}"
            )
    return VarianceReport(
        sigma_x_plus=values["x+"],
        sigma_x_minus=values["x-"],
        sigma_y_plus=values["y+"],
        sigma_y_minus=values["y-"],
        absolute=absolute,
        divergent=divergent,
        squeezed=squeezed,
        amplified=amplified,
        n_th=n_th,
        sigma_sq_scan=sigma_sq_scan,
        theta_sq=theta_sq,
        covariance=covariance,
        stderr=stderr,
    )


def integrate_variances(sd: SpectralData) -> VarianceReport:
    """Equal-time variances: the stationary covariance of the pair (A, D).

    Solves A C + C A^T + D = 0 for the pair (A, D) that sd carries, in the
    embedded variables, and reads the cross-quadrature block.  No frequency
    grid is read, so sd may come from psd(params, ss, omega_grid=()), which
    runs only the stability check and builds (A, D).

    One ordered real Schur form A = Z T Z^T (_marginal_schur, marginal block
    of size k leading; see _marginal_rule) serves both the marginal
    projector and a Bartels-Stewart solve in its basis: one trsyl of
    T' Y + Y T'^T = F', and C = Z Y Z^T.  Marginal modes are removed with
    their real spectral projector P: the solve is that of A - (A + gamma0) P,
    which moves them to -gamma0, with the projected noise (I - P) D (I - P)^T.
    In the Schur basis these are T' = [[-gamma0 I, X (T22 + gamma0 I)],
    [0, T22]], still quasi-triangular, and F' = K Z^T (-D) Z K^T with
    K = [[0, X], [0, I]].  Without a marginal mode (every disordered point)
    T' = T and F' = Z^T (-D) Z, formed with scipy's products, so the
    covariance is scipy's solve_continuous_lyapunov(A, -D) bit for bit.
    trsyl's solution is divided by its overflow scale, so large couplings
    keep their variances.  Quadratures touched by the range of P (the gauge
    quadrature x- above threshold, the amplified pair on the boundary) are
    flagged divergent: inf on the diagonal of covariance, NaN in their
    off-diagonal entries.  A negative variance of a reported quadrature is a
    failed solve and raises NumericsError, as does a non-finite covariance
    and a solve whose coefficients trsyl had to perturb (an eigenvalue pair
    of T' summing to about zero).
    """
    from scipy.linalg import lapack

    params = sd.params
    a, d = sd.generator, sd.diffusion
    t, z, k, x, touched = _marginal_schur(a, _marginal_rule(a, params.gamma0))
    f = z.T.dot((-d).dot(z))
    if k:
        n, g0 = a.shape[0], params.gamma0
        t22 = t[k:, k:]
        shifted = np.zeros_like(t)
        shifted[:k, :k] = -g0 * np.eye(k)
        shifted[:k, k:] = x @ (t22 + g0 * np.eye(n - k))
        shifted[k:, k:] = t22
        keep = np.zeros_like(t)
        keep[:k, k:], keep[k:, k:] = x, np.eye(n - k)
        t, f = shifted, keep @ f @ keep.T
    y, scale, info = lapack.dtrsyl(t, t, f, tranb="T")
    if info == 1:
        raise NumericsError(f"Lyapunov solve warned: {_PERTURBED}")
    # An overflowing quotient is caught as non-finite below.
    with np.errstate(over="ignore"):
        full = z.dot(y / scale).dot(z.T)
    if not np.all(np.isfinite(full)):
        raise NumericsError("Lyapunov solve returned a non-finite covariance")

    div = np.flatnonzero(touched[:6])
    cov = full[:6, :6].copy()
    cov[div, :] = cov[:, div] = np.nan
    cov[div, div] = math.inf

    norm = params.thermal_variance
    values = {lab: cov[q, q] / norm for lab, q in _VAR_INDEX.items()}
    for lab, v in values.items():
        if v < 0:
            raise NumericsError(f"negative variance of {lab}: {v:.3e}")
    return _make_report(values, params.n_avg, covariance=cov)


# === closed forms =============================================================


def _check_regime_inputs(mu, kappa, n_th, n_th_P=0.0):
    if not (kappa > 0):
        raise ParameterError(f"kappa must be > 0, got {kappa}", [("kappa", "must be positive")])
    _check_memory_time(1.0, kappa, ParameterError)
    if not (0.0 <= mu < math.inf):
        raise ParameterError(
            f"mu must be >= 0 and finite, got {mu}", [("mu", "must be non-negative and finite")]
        )
    for name, n in (("n_th", n_th), ("n_th_P", n_th_P)):
        if not (0.0 <= n < math.inf):
            raise ParameterError(
                f"{name} must be >= 0 and finite, got {n}",
                [(name, "must be non-negative and finite")],
            )


def _sigma_sq_formula(mu: float, kappa: float) -> float:
    """Squeezed-variance closed form; exact below threshold, analytic
    continuation beyond (backbone of scaling studies and entanglement maps).
    At -mu it is the amplified-pair form."""
    den = (1.0 + mu) * (2.0 * kappa + mu)
    if math.isinf(den):
        # kappa = inf, or a product past the float range: kappa divided out.
        return 1.0 / ((1.0 + 0.5 * mu / kappa) * (1.0 + mu))
    return 2.0 * kappa / den


def variances_below_threshold(
    mu: float, kappa: float, n_th: float = 0.0, extrapolate: bool = False
) -> VarianceReport:
    """Closed-form variances of the disordered state.

    Squeezed pair (x+, y-) and amplified pair (x-, y+).  OutOfRegime at or
    beyond mu_cr unless extrapolate is set, in which case the squeezed
    formula is analytically continued and the amplified entries are flagged
    divergent (which they physically are past threshold).
    """
    _check_regime_inputs(mu, kappa, n_th)
    mu_cr = critical_drive(kappa)
    if mu >= mu_cr and not extrapolate:
        raise OutOfRegime(
            f"disordered closed forms need mu < mu_cr = {mu_cr}, got mu = {mu} "
            "(pass extrapolate=True for the continued squeezed formula)"
        )
    sq = _sigma_sq_formula(mu, kappa)
    amp = _sigma_sq_formula(-mu, kappa) if mu < mu_cr else math.inf
    values = {"x+": sq, "y-": sq, "x-": amp, "y+": amp}
    return _make_report(values, n_th)


def variances_above_threshold_u1(
    mu: float, kappa: float, n_th: float = 0.0, n_th_P: float | None = None
) -> VarianceReport:
    """Closed-form variances of the non-rotating broken phase.

    Valid for kappa >= 1/2 and mu > 1; exact in the instantaneous-pump
    limit, with O(gamma0/gammaP) corrections at finite pump rate.  x- is the
    gauge direction and divergent.  The pump-to-signal occupancy ratio
    r = (n_th_P + 1/2)/(n_th + 1/2) weighs the pump-noise terms.
    """
    if n_th_P is None:
        n_th_P = n_th
    _check_regime_inputs(mu, kappa, n_th, n_th_P)
    if classify_phase(mu, kappa) is not Phase.U1:
        raise OutOfRegime(f"u1 closed forms need the u1 phase, got mu = {mu}, kappa = {kappa}")
    r = (n_th_P + 0.5) / (n_th + 0.5)
    if math.isinf(kappa):
        x_plus = r * (mu - 1.0) / mu + 0.5 / mu
        y_plus = r + 0.5 / (mu - 1.0)
        y_minus = 0.5
    elif max(mu, kappa, r) <= _HUGE:
        d1 = mu * (2.0 * kappa + 2.0 * mu - 1.0)
        d3 = 2.0 * kappa + 2.0 * mu - 3.0
        x_plus = (r * 2.0 * (mu - 1.0) * (mu + kappa) + kappa) / d1
        y_plus = r * 2.0 * (mu - 1.0 + kappa) / d3 + kappa / ((mu - 1.0) * d3)
        y_minus = kappa / (1.0 + 2.0 * kappa)
    else:
        # The same forms with big = max(mu, kappa) divided out, so that no
        # product leaves the float range.
        big = max(mu, kappa)
        a, b, eps = mu / big, kappa / big, 1.0 / big
        x_plus = (2.0 * r * ((mu - 1.0) / mu) * (a + b) + b / mu) / (2.0 * (a + b) - eps)
        y_plus = (2.0 * r * (a + b - eps) + b / (mu - 1.0)) / (2.0 * (a + b) - 3.0 * eps)
        y_minus = 0.5 / (1.0 + 0.5 / kappa)
    values = {"x+": x_plus, "x-": math.inf, "y+": y_plus, "y-": y_minus}
    return _make_report(values, n_th)


def variances_u1xz2(
    params: SystemParams, ss: SteadyState | None = None
) -> VarianceReport:
    """Stationary variances of the rotating broken phase.

    The co-rotating-frame covariance of integrate_variances, including the
    delta-induced (x+, y-) cross-correlation; no compact closed forms exist
    here.  psd is called with an empty grid: only its stability check and
    the pair (A, D) are used.  The soft squeezing direction in the (x+, y-)
    plane is the exact minimum of the 2x2 quadratic form over the mixing
    angle, reported in sigma_sq_scan / theta_sq.  Where one of x+ and y- is
    divergent, the minimum is the finite one at its own axis (theta = 0 for
    x+, pi/2 for y-); where both are, it is inf and theta_sq is None.
    """
    if ss is None:
        ss = steady_state(params)
    if ss.phase is not Phase.U1XZ2:
        raise OutOfRegime(f"state is {ss.phase.value}, not the rotating broken phase")
    report = integrate_variances(psd(params, ss, omega_grid=()))
    cov = report.covariance
    sxp = report.sigma_x_plus
    sym = report.sigma_y_minus
    if report.divergent["x+"] or report.divergent["y-"]:
        # A divergent axis enters every mixing angle but the other axis's.
        sig_min, theta = min((sxp, 0.0), (sym, 0.5 * math.pi))
    else:
        c = float(cov[0, 4]) / params.thermal_variance
        half = 0.5 * (sxp + sym)
        diff = 0.5 * (sxp - sym)
        sig_min = half - math.hypot(diff, c)
        # sigma(theta) = half + hypot(diff, c) cos(2 theta - phi0); minimum at
        # 2 theta = phi0 + pi.
        theta = (0.5 * (math.atan2(c, diff) + math.pi)) % math.pi
    values = report.normalized()
    return _make_report(
        values,
        report.n_th,
        sigma_sq_scan=float(sig_min),
        theta_sq=float(theta) if math.isfinite(sig_min) else None,
        covariance=cov,
    )


# === entanglement =============================================================


@dataclass(frozen=True)
class NegativityResult:
    """Logarithmic negativity of the signal-idler pair."""

    e_n: float
    sigma_sq_abs: float
    sigma_zpm: float


def log_negativity(sigma_sq_abs: float, sigma_zpm: float = SIGMA_ZPM) -> NegativityResult:
    """E_N = -(1/2) log2[min(sigma_sq_abs/sigma_zpm, 1)]; zero when separable."""
    if sigma_sq_abs < 0 or math.isnan(sigma_sq_abs):
        raise ParameterError(
            f"sigma_sq_abs must be >= 0, got {sigma_sq_abs}",
            [("sigma_sq_abs", "must be non-negative")],
        )
    if not (sigma_zpm > 0):
        raise ParameterError(
            f"sigma_zpm must be > 0, got {sigma_zpm}", [("sigma_zpm", "must be positive")]
        )
    ratio = min(sigma_sq_abs / sigma_zpm, 1.0)
    e_n = 0.0 if ratio >= 1.0 else -0.5 * math.log2(ratio)
    return NegativityResult(e_n=e_n, sigma_sq_abs=float(sigma_sq_abs), sigma_zpm=float(sigma_zpm))


def _negativity_point(mu: float, kappa: float, n_th: float) -> tuple[float, float]:
    """(E_N, sigma_sq_abs) from the closed-form squeezed variance.

    The map construction evaluates the below-threshold squeezed formula at
    every drive (its analytic continuation past threshold), which is what
    produces the large-drive 1/mu^2 entanglement scaling; the numerically
    integrated co-rotating variances saturate above threshold instead (see
    variances_u1xz2).
    """
    sigma_abs = (n_th + 0.5) * _sigma_sq_formula(mu, kappa)
    if sigma_abs < sys.float_info.min:
        # Underflow at huge drive: E_N from the logarithm of the same form,
        # (1/2)[log2(1+mu) + log2(1 + mu/(2 kappa)) - log2(2 n_th+1)], the
        # middle term as log2(1 + 2^y) so that mu/(2 kappa) may overflow.
        log2_ratio = math.log2(n_th + 0.5) - math.log2(SIGMA_ZPM) - math.log2(1.0 + mu)
        log2_ratio -= float(np.logaddexp2(0.0, math.log2(0.5 * mu) - math.log2(kappa)))
        return max(0.0, -0.5 * log2_ratio), sigma_abs
    return log_negativity(sigma_abs).e_n, sigma_abs


def _map_points(mu_grid, kappa_grid, n_th: float) -> list[tuple[int, int, float, float]]:
    """(i, j, mu, kappa) of every map point, kappa-major; the first invalid one raises."""
    points = [
        (i, j, mu, kappa)
        for j, kappa in enumerate(np.asarray(kappa_grid, dtype=float).tolist())
        for i, mu in enumerate(np.asarray(mu_grid, dtype=float).tolist())
    ]
    for i, j, mu, kappa in points:
        try:
            _check_regime_inputs(mu, kappa, n_th)
        except ParameterError as exc:
            where = f"negativity map point (i={i}, j={j}) mu={mu}, kappa={kappa}"
            raise located(exc, where) from exc
    return points


def negativity_map(mu_grid, kappa_grid, n_th: float = 0.0) -> list[tuple[float, float, float, float, float]]:
    """E_N over a (mu, kappa) product grid at fixed occupancy.

    Rows are (mu, kappa, n_th, e_n, sigma_sq_abs), kappa-major.  kappa = inf
    rows give the Markovian comparator.  The whole grid is checked first;
    the first invalid point raises with its grid location.
    """
    return [
        (mu, kappa, float(n_th), *_negativity_point(mu, kappa, n_th))
        for _, _, mu, kappa in _map_points(mu_grid, kappa_grid, n_th)
    ]


def negativity_occupancy_sweep(
    kappa: float, mu_grid, n_th_values, markovian_comparator: bool = False
) -> list[tuple[float, float, float, float, float]]:
    """Drive sweeps of E_N at fixed kappa for several occupancies.

    Rows are (mu, kappa, n_th, e_n, sigma_sq_abs), one block per occupancy;
    with markovian_comparator, each occupancy gains a kappa = inf block.
    Every block is checked before any is solved.
    """
    kappas = [kappa, math.inf] if markovian_comparator else [kappa]
    blocks = [(mu_grid, [k], float(n_th)) for n_th in n_th_values for k in kappas]
    for block in blocks:
        _map_points(*block)
    return [row for block in blocks for row in negativity_map(*block)]
