"""Reference route for the SDE estimators: the two estimators as they were.

nmpo.sde unwraps phases with its own helper, which runs numpy's mod and
boundary rule only at the jumps, and builds one quadrature plane at a time.
This module keeps the earlier form: np.unwrap(axis=0) on the whole plane and
all four quadrature planes held together.  Both must return bit-identical
fields for the same trajectory; tests/test_sde.py checks that.
"""

from __future__ import annotations

import math

import numpy as np

from nmpo.errors import InsufficientSamples, NonStationary, ParameterError
from nmpo.meanfield import Phase, steady_state
from nmpo.sde import OrderParameterEstimate, Trajectory
from nmpo.spectra import VarianceReport, _make_report


def _check_amplitudes(tr: Trajectory) -> None:
    for name in ("A_i", "A_s"):
        if getattr(tr, name) is None:
            raise InsufficientSamples(f"trajectory is missing recorded field {name!r}")


def estimate_order_parameters(tr: Trajectory, window: float | None = None) -> OrderParameterEstimate:
    """Order parameters from sampled trajectories.

    amp_mean averages |A_i| over time and ensemble.  delta_est is the mean
    slope of the unwrapped phase of A_i: when every trajectory's |slope|
    sits above half the ensemble mean magnitude the rotation is branch-
    locked and magnitudes are averaged (the two rotation senses are
    degenerate); otherwise signed slopes are averaged so an unbroken phase
    reports zero within noise.  var_phi_dot is the per-trajectory variance
    of the difference-phase slope over boxcar windows of the given width
    (default 5/gamma0), centered per trajectory, averaged over the ensemble.
    """
    _check_amplitudes(tr)
    n_samples, n_traj = tr.A_i.shape
    if n_traj < 2:
        raise InsufficientSamples(f"need >= 2 trajectories for ensemble errors, got {n_traj}")
    if n_samples < 16:
        raise InsufficientSamples(f"need >= 16 samples, got {n_samples}")
    if window is None:
        window = 5.0 / tr.params.gamma0
    dt_rec = float(tr.t[1] - tr.t[0])

    amp_per_traj = np.abs(tr.A_i).mean(axis=0)
    amp_mean = float(amp_per_traj.mean())
    amp_se = float(amp_per_traj.std(ddof=1) / math.sqrt(n_traj))

    angle = np.angle(tr.A_i)
    slopes = np.polyfit(tr.t, np.unwrap(angle, axis=0), 1)[0]
    mags = np.abs(slopes)
    mean_mag = float(mags.mean())
    locked = mean_mag > 0 and float(mags.min()) > 0.5 * mean_mag
    if locked:
        delta_est = mean_mag
        delta_se = float(mags.std(ddof=1) / math.sqrt(n_traj))
    else:
        delta_est = abs(float(slopes.mean()))
        delta_se = float(slopes.std(ddof=1) / math.sqrt(n_traj))

    angle -= np.angle(tr.A_s)
    phi_d = np.unwrap(angle, axis=0)
    m = int(round(window / dt_rec))
    if m < 1 or n_samples <= 2 * m:
        raise InsufficientSamples(
            f"smoothing window {window} needs more than {2 * m} samples at cadence {dt_rec}"
        )
    rates = (phi_d[m:] - phi_d[:-m]) / (m * dt_rec)
    rates = rates - rates.mean(axis=0, keepdims=True)
    v_per_traj = (rates**2).mean(axis=0)
    var_phi_dot = float(v_per_traj.mean())
    var_se = float(v_per_traj.std(ddof=1) / math.sqrt(n_traj))

    return OrderParameterEstimate(
        amp_mean=amp_mean,
        amp_se=amp_se,
        delta_est=delta_est,
        delta_se=delta_se,
        var_phi_dot=var_phi_dot,
        var_phi_dot_se=var_se,
        window=float(window),
        n_traj=n_traj,
        branch_locked=bool(locked),
    )


def estimate_quadrature_variances(tr: Trajectory, frame: str = "static") -> VarianceReport:
    """Sampled cross-quadrature variances about the mean-field solution.

    frame "static" uses the amplitudes as recorded; "corotating" first
    removes the mean-field rotation trajectory-by-trajectory (branch taken
    from the difference-phase slope sign).  Above threshold each trajectory
    is gauge-aligned to its own mean phase before the mean field is
    subtracted; the gauge quadrature x- is flagged divergent there (its
    sample variance grows with the window).  The remaining quadratures must
    pass a first/second-half stationarity check within 3 combined standard
    errors, else NonStationary.
    """
    if frame not in ("static", "corotating"):
        raise ParameterError(
            f"frame must be 'static' or 'corotating', got {frame!r}", [("frame", "unknown")]
        )
    _check_amplitudes(tr)
    params = tr.params
    n_samples, n_traj = tr.A_i.shape
    if n_traj < 2 or n_samples < 32:
        raise InsufficientSamples(
            f"need >= 2 trajectories and >= 32 samples, got {n_traj} x {n_samples}"
        )
    ss = steady_state(params)
    A_i = tr.A_i
    A_s = tr.A_s
    if ss.phase is Phase.DISORDERED:
        d_i, d_s = A_i, A_s
    else:
        if ss.phase is Phase.U1XZ2 and frame == "corotating":
            phi_d = np.unwrap(np.angle(A_i) - np.angle(A_s), axis=0)
            branch = np.sign(np.polyfit(tr.t, phi_d, 1)[0])
            branch[branch == 0] = 1.0
            rot = np.exp(-1j * ss.delta * np.outer(tr.t, branch))
            A_i = A_i * rot
            A_s = A_s * np.conj(rot)
        # Gauge angle per trajectory from the circular mean of the
        # difference phase, then fluctuations about the phi = 0 mean field.
        phi_hat = np.angle(np.exp(1j * (np.angle(A_i) - np.angle(A_s))).mean(axis=0))
        A_i = A_i * np.exp(-0.5j * phi_hat)[None, :]
        A_s = A_s * np.exp(+0.5j * phi_hat)[None, :]
        d_i = A_i - 1j * ss.amp_signal
        d_s = A_s - 1j * ss.amp_signal

    quads = {
        "x+": (d_i.real + d_s.real) / math.sqrt(2.0),
        "x-": (d_i.real - d_s.real) / math.sqrt(2.0),
        "y+": (d_i.imag + d_s.imag) / math.sqrt(2.0),
        "y-": (d_i.imag - d_s.imag) / math.sqrt(2.0),
    }
    norm = params.variance_scale * (params.n_avg + 0.5)
    soft = {"x-"} if ss.phase is not Phase.DISORDERED else set()

    values, stderr = {}, {}
    half = n_samples // 2
    for lab, q in quads.items():
        v_traj = q.var(axis=0)
        val = float(v_traj.mean()) / norm
        se = float(v_traj.std(ddof=1) / math.sqrt(n_traj)) / norm
        if lab in soft:
            values[lab] = math.inf
            stderr[lab] = math.inf
            continue
        v1 = q[:half].var(axis=0)
        v2 = q[half:].var(axis=0)
        m1, m2 = v1.mean() / norm, v2.mean() / norm
        s1 = v1.std(ddof=1) / math.sqrt(n_traj) / norm
        s2e = v2.std(ddof=1) / math.sqrt(n_traj) / norm
        if abs(m1 - m2) > 3.0 * math.hypot(s1, s2e):
            raise NonStationary(
                f"{lab}: first/second-half variances {m1:.4g} vs {m2:.4g} "
                f"differ by more than 3 combined standard errors"
            )
        values[lab] = val
        stderr[lab] = se
    return _make_report(values, params.n_avg, stderr=stderr)
