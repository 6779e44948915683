"""Reference route for the stacked PSD: one frequency at a time.

nmpo.spectra.psd evaluates its whole frequency grid as one (N, 6, 6) stack:
one batched elimination of the memory variables, one batched singularity
check and one batched inverse.  This module keeps the plain form: the
Schur complement, the singular-value check, the inverse and the sandwich
product for one frequency after another, the one-frequency
susceptibility_at and diffusion_matrix built on the same steps, and the
span of the default grid (default_grid).  Both must give bit-identical
results; tests/test_psd_stacked.py checks that.
"""

from __future__ import annotations

import math

import numpy as np

from nmpo import linres
from nmpo.errors import OutOfRegime, SingularAtFrequency
from nmpo.meanfield import SteadyState
from nmpo.model import SystemParams
from nmpo.spectra import _MARGINAL_RE, _SINGULAR_RTOL


def _eliminate_memory(a: np.ndarray, omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(Sigma~(omega) + i omega I, A_pm R); the memory block of a Markovian a
    is empty, so A_pm R is 6x0 and adds nothing."""
    iw = 1j * omega
    feed = a[:6, 6:] @ np.linalg.inv(-iw * np.eye(a.shape[0] - 6) - a[6:, 6:])
    return a[:6, :6] + iw * np.eye(6) + feed @ a[6:, :6], feed


def _force_psd(d: np.ndarray, feed: np.ndarray) -> np.ndarray:
    """D(omega) = D_pp + A_pm R D_mm R^H A_pm^T, made exactly Hermitian."""
    force = d[:6, :6] + feed @ d[6:, 6:] @ feed.conj().T
    return 0.5 * (force + force.conj().T)


def _check_response(m: np.ndarray, omega: float) -> None:
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] < _SINGULAR_RTOL * sv[0]:
        raise SingularAtFrequency(
            f"response matrix singular at omega = {omega}: "
            f"smallest/largest singular value = {sv[-1]:.3e}/{sv[0]:.3e}"
        )


def default_grid(params: SystemParams, ss: SteadyState, n: int = 2000) -> np.ndarray:
    """n points over the span of psd's default grid: |omega| <= 30 gamma0 +
    3 gammaP, or 30 gamma0 + 3 gamma0 where the phase is not broken."""
    w = 30.0 * params.gamma0 + 3.0 * (params.gammaP if ss.phase.broken else params.gamma0)
    return np.linspace(-w, w, n)


def susceptibility_at(params: SystemParams, ss: SteadyState, omega: float) -> np.ndarray:
    m, _ = _eliminate_memory(linres.build_embedded_matrix(params, ss), float(omega))
    _check_response(m, omega)
    return m


def diffusion_matrix(params: SystemParams, ss: SteadyState, omega: float) -> np.ndarray:
    _, feed = _eliminate_memory(linres.build_embedded_matrix(params, ss), float(omega))
    return _force_psd(linres.build_diffusion(params, ss), feed)


def _marginal_rule(params: SystemParams, ss: SteadyState):
    tol = _MARGINAL_RE * params.gamma0

    def is_marginal(re: float, im: float) -> bool:
        if abs(re) > tol:
            return False
        try:
            susceptibility_at(params, ss, -im)
        except SingularAtFrequency:
            return True
        return False

    return is_marginal


def psd(
    params: SystemParams, ss: SteadyState, omega_grid=None
) -> tuple[np.ndarray, np.ndarray]:
    """(omega, matrices) of spectra.psd, one frequency at a time."""
    a = linres.build_embedded_matrix(params, ss)
    is_marginal = _marginal_rule(params, ss)
    for lam in linres.eigenspectrum(a).eigenvalues:
        if lam.real > linres.STABLE_TOL and not is_marginal(lam.real, lam.imag):
            raise OutOfRegime(
                f"PSD of an unstable state (growth rate {lam.real:.3e}); "
                "linearized fluctuations have no stationary spectrum"
            )
    if omega_grid is None:
        omega_grid = default_grid(params, ss)
    om = np.asarray(omega_grid, dtype=float)
    d = linres.build_diffusion(params, ss)
    mats = np.empty((om.size, 6, 6), dtype=complex)
    for k, w_k in enumerate(om):
        m, feed = _eliminate_memory(a, float(w_k))
        _check_response(m, w_k)
        chi = np.linalg.inv(m)
        s = chi @ _force_psd(d, feed) @ chi.conj().T / (2.0 * math.pi)
        mats[k] = 0.5 * (s + s.conj().T)
    return om, mats
