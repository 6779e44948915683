"""Reference route for the stationary covariance: projector, then Lyapunov.

nmpo.spectra.integrate_variances takes one ordered real Schur form of the
embedded generator A and derives both the marginal projector and the
Lyapunov solve from it.  This module keeps the plain form: the ordered Schur
form gives the spectral projector P through scipy's solve_sylvester; the
marginal modes are moved to -gamma0 with A - (A + gamma0 I) P, the noise is
projected with (I - P) D (I - P)^T, and scipy's solve_continuous_lyapunov
solves the shifted pair from scratch.  Where no mode is marginal both give
bit-identical covariances; elsewhere they agree to rounding, which
tests/test_variances_schur.py bounds.  Like scipy, this route multiplies
trsyl's solution by its overflow scale instead of dividing by it, so it
returns zero variances where that scale is tiny (couplings g >~ 1e147).
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from nmpo.errors import EigensolverFailure, NumericsError
from nmpo.spectra import (
    _TOUCH_FRAC,
    _VAR_INDEX,
    SpectralData,
    VarianceReport,
    _make_report,
    _marginal_rule,
)


def marginal_projector(a: np.ndarray, is_marginal) -> tuple[np.ndarray, np.ndarray]:
    """Real spectral projector P onto the marginal modes of a, and a mask of
    the variables its range touches: T11 X - X T22 = -T12 by solve_sylvester,
    then P = Z [[I, -X], [0, 0]] Z^T."""
    from scipy.linalg import schur, solve_sylvester

    try:
        t, z, k = schur(a, output="real", sort=is_marginal)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(f"ordered Schur form failed: {exc}") from exc
    if k == 0:
        return np.zeros_like(a), np.zeros(a.shape[0], dtype=bool)
    x = solve_sylvester(t[:k, :k], -t[k:, k:], -t[:k, k:])
    proj = z[:, :k] @ (z[:, :k].T - x @ z[:, k:].T)
    weight = np.linalg.norm(z[:, :k], axis=1)
    return proj, weight > _TOUCH_FRAC * weight.max()


def covariance(sd: SpectralData) -> tuple[np.ndarray, np.ndarray]:
    """(full embedded covariance, touched mask) of the projected pair."""
    from scipy.linalg import solve_continuous_lyapunov

    a, d = sd.generator, sd.diffusion
    proj, touched = marginal_projector(a, _marginal_rule(a, sd.params.gamma0))
    if touched.any():
        eye = np.eye(a.shape[0])
        keep = eye - proj
        a, d = a - (a + sd.params.gamma0 * eye) @ proj, keep @ d @ keep.T
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            full = solve_continuous_lyapunov(a, -d)
        except RuntimeWarning as warning:
            raise NumericsError(f"Lyapunov solve warned: {warning}") from warning
    return full, touched


def integrate_variances(sd: SpectralData) -> VarianceReport:
    """nmpo.spectra.integrate_variances on the projector-then-Lyapunov route."""
    params = sd.params
    full, touched = covariance(sd)
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
