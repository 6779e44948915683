"""Reference route for the linear-response layer: hand-written frequency-
domain drift and force spectrum, integrated by adaptive quadrature.

nmpo derives the response, the force spectrum and the equal-time covariance
from the embedded pair (A, D).  This module states the same physics
independently, directly in frequency space:

* Sigma~(omega) replaces the memory convolution by the kernel transform at
  omega shifted by the frame rotation +-delta,
* D(omega) weights Re gamma~ by (n_th + 1/2), with antisymmetric (x+, y-)
  and (x-, y+) sideband terms in a rotating frame,
* the covariance is the integral of S = chi D chi^H / 2 pi over omega,
  split at omega = 0, over [-W, W] with W doubled until the raw a/omega^2
  tail estimate is below 5e-4 of the accumulated integral, plus that tail.

It is slow (0.1-0.3 s per point) and only used by the tests.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad_vec

from nmpo.model import kernel_freq


def _kernel_freq_real(params, omega: float) -> float:
    """Damping quadrature Re gamma~ = gamma0 / (1 + (omega*tau_r)^2)."""
    return params.gamma0 / (1.0 + (omega * params.tau_r) ** 2)


def drift_freq(params, ss, omega: float) -> np.ndarray:
    """Frequency-domain drift Sigma~(omega), 6x6 complex."""
    g0, gp = params.gamma0, params.gammaP
    P = ss.pump_amp.imag
    S = ss.amp_signal
    dlt = ss.z2_branch * ss.delta
    g_plus = kernel_freq(params, omega + dlt)
    g_minus = kernel_freq(params, omega - dlt)
    g_c = 0.5 * (g_plus + g_minus)
    g_s = (g_plus - g_minus) / 2j
    gc = g0 * S / math.sqrt(2.0)
    gpc = gp * S / math.sqrt(2.0)
    m = np.zeros((6, 6), dtype=complex)
    m[0, 0] = -g_c / 2 - g0 * P / 2
    m[0, 2] = gc
    m[0, 4] = g_s / 2 - dlt
    m[1, 1] = -g_c / 2 + g0 * P / 2
    m[1, 3] = g_s / 2 - dlt
    m[2, 0] = -gpc
    m[2, 2] = -gp / 2
    m[3, 3] = -g_c / 2 + g0 * P / 2
    m[3, 5] = gc
    m[3, 1] = -g_s / 2 + dlt
    m[4, 4] = -g_c / 2 - g0 * P / 2
    m[4, 0] = -g_s / 2 + dlt
    m[5, 3] = -gpc
    m[5, 5] = -gp / 2
    return m


def force_psd(params, ss, omega: float, include_pump: bool) -> np.ndarray:
    """Langevin force PSD D(omega), 6x6 Hermitian."""
    dlt = ss.z2_branch * ss.delta
    s2 = 2.0 * params.g**2 / (params.gamma0 * params.gammaP)
    sp2 = 2.0 * params.g**2 / params.gamma0**2
    gp_plus = _kernel_freq_real(params, omega + dlt)
    gp_minus = _kernel_freq_real(params, omega - dlt)
    dd = 0.5 * (gp_plus + gp_minus)
    ww = 0.5 * (gp_plus - gp_minus)
    na = 0.5 * (params.n_th_i + params.n_th_s) + 0.5
    nd = 0.5 * (params.n_th_i - params.n_th_s)
    d = np.zeros((6, 6), dtype=complex)
    for q in (0, 1, 3, 4):
        d[q, q] = s2 * na * dd
    # Unequal signal/idler occupancies couple x+ with x- (and y+ with y-).
    d[0, 1] = d[1, 0] = s2 * nd * dd
    d[3, 4] = d[4, 3] = s2 * nd * dd
    if include_pump:
        d[2, 2] = d[5, 5] = sp2 * params.gammaP * (params.n_th_P + 0.5)
    # Uneven sampling of the +-delta sidebands correlates orthogonal
    # cross-quadratures; vanishes in a non-rotating frame.
    d[0, 4] = 1j * s2 * na * ww
    d[4, 0] = -1j * s2 * na * ww
    d[1, 3] = 1j * s2 * na * ww
    d[3, 1] = -1j * s2 * na * ww
    d[0, 3] = 1j * s2 * nd * ww
    d[3, 0] = -1j * s2 * nd * ww
    d[1, 4] = 1j * s2 * nd * ww
    d[4, 1] = -1j * s2 * nd * ww
    return d


def psd_at(params, ss, omega: float, include_pump: bool) -> np.ndarray:
    chi = np.linalg.inv(drift_freq(params, ss, omega) + 1j * omega * np.eye(6))
    s = chi @ force_psd(params, ss, omega, include_pump) @ chi.conj().T / (2.0 * math.pi)
    return 0.5 * (s + s.conj().T)


def quadrature_covariance(params, ss, include_pump: bool, exclude=(), epsrel: float = 1e-8):
    """Equal-time covariance of the six quadratures by spectral quadrature.

    Rows and columns in exclude (quadratures with a pole at omega = 0) are
    left out of the integrand and returned as NaN.
    """
    kept = [q for q in range(6) if q not in exclude]
    ix = np.ix_(kept, kept)

    def f(om):
        return psd_at(params, ss, float(om), include_pump)[ix]

    w = 30.0 * params.gamma0 + 3.0 * (params.gammaP if include_pump else params.gamma0)
    acc = quad_vec(f, -w, 0.0, epsrel=epsrel, epsabs=1e-16, limit=1000)[0]
    acc = acc + quad_vec(f, 0.0, w, epsrel=epsrel, epsabs=1e-16, limit=1000)[0]

    def tail_fraction(w_edge, acc_now):
        t = (f(w_edge) + f(-w_edge)) * w_edge
        diag_acc = np.abs(np.real(np.diag(acc_now)))
        big = diag_acc > 1e-12 * diag_acc.max()
        return t, float(np.max(np.abs(np.real(np.diag(t)))[big] / diag_acc[big]))

    tail, frac = tail_fraction(w, acc)
    for _ in range(8):
        if frac <= 5e-4:
            break
        acc = acc + quad_vec(f, w, 2.0 * w, epsrel=epsrel, epsabs=1e-16, limit=500)[0]
        acc = acc + quad_vec(f, -2.0 * w, -w, epsrel=epsrel, epsabs=1e-16, limit=500)[0]
        w *= 2.0
        tail, frac = tail_fraction(w, acc)
    assert frac <= 1e-3, f"oracle tail {frac:.2e} did not converge"
    cov = np.full((6, 6), np.nan)
    cov[ix] = np.real(acc + tail)
    return cov
