"""Reference route for the SDE kernel: the per-step, per-field integrator.

nmpo.sde steps one stacked state per lockstep ensemble, draws the noise in
blocks and records into preallocated buffers.  This module keeps the plain
form of the same scheme: separate arrays for each amplitude, memory variable
and force, separate Markovian and memory branches, one noise draw per step
and recorded samples appended to lists.  Both must give bit-identical output
for the same (seed, config, params, initial); tests/test_sde.py checks that.

It is slow (dozens of small numpy calls per step) and only used by the tests.
"""

from __future__ import annotations

import math

import numpy as np

from nmpo.errors import ParameterError, StepOverflow
from nmpo.meanfield import Phase, classify_phase
from nmpo.model import SystemParams
from nmpo.sde import SimConfig, Trajectory

_OVERFLOW_CHECK = 256


def _as_state(value, n_traj: int) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim == 0:
        return np.full(n_traj, complex(arr))
    if arr.shape != (n_traj,):
        raise ParameterError(
            f"initial state entry has shape {arr.shape}, expected scalar or ({n_traj},)",
            [("initial", "shape mismatch")],
        )
    return arr.copy()


def integrate_trajectory(
    params: SystemParams, config: SimConfig, initial: dict | None = None
) -> Trajectory:
    """Integrate the full nonlinear system; returns post-burn-in samples.

    initial may give starting values for any of A_i, A_s, A_P, c_i, c_s,
    f_i, f_s (scalar or per-trajectory); unspecified amplitudes start as a
    small seeded random perturbation, memory variables slaved (c = gamma0 A)
    and forces at zero.  Raises StepOverflow on non-finite state.
    """
    config.check_against(params)
    rng = np.random.default_rng(config.seed)
    n_traj = config.n_traj
    g0, gp, mu, tau = params.gamma0, params.gammaP, params.mu, params.tau_r
    markov = params.markovian
    heun = config.scheme == "stochastic-heun"
    noise = config.noise
    pump_noise = classify_phase(mu, params.kappa) is not Phase.DISORDERED
    s2 = 2.0 * params.g**2 / (g0 * gp)
    sp2 = 2.0 * params.g**2 / g0**2
    dt = config.dt

    initial = dict(initial or {})
    seed_amp = 1e-3
    A_i = (
        _as_state(initial.pop("A_i"), n_traj)
        if "A_i" in initial
        else (rng.standard_normal(n_traj) + 1j * rng.standard_normal(n_traj)) * seed_amp
    )
    A_s = (
        _as_state(initial.pop("A_s"), n_traj)
        if "A_s" in initial
        else (rng.standard_normal(n_traj) + 1j * rng.standard_normal(n_traj)) * seed_amp
    )
    A_P = _as_state(initial.pop("A_P"), n_traj) if "A_P" in initial else np.zeros(n_traj, complex)
    if markov:
        c_i = c_s = f_i = f_s = None
        for key in ("c_i", "c_s", "f_i", "f_s"):
            if key in initial:
                raise ParameterError(
                    f"{key} has no meaning in the Markovian limit", [(key, "tau_r = 0")]
                )
    else:
        c_i = _as_state(initial.pop("c_i"), n_traj) if "c_i" in initial else g0 * A_i.copy()
        c_s = _as_state(initial.pop("c_s"), n_traj) if "c_s" in initial else g0 * A_s.copy()
        f_i = _as_state(initial.pop("f_i"), n_traj) if "f_i" in initial else np.zeros(n_traj, complex)
        f_s = _as_state(initial.pop("f_s"), n_traj) if "f_s" in initial else np.zeros(n_traj, complex)
    if initial:
        raise ParameterError(
            f"unknown initial-state keys {sorted(initial)}", [("initial", "unknown keys")]
        )

    # Noise amplitudes: colored OU for the damped modes (exact update), white
    # for the Markovian limit and for the pump.
    n_avg_i, n_avg_s = params.n_th_i, params.n_th_s
    if not markov:
        c0_i = (8.0 * params.g**2 / (g0**2 * gp * tau)) * (n_avg_i + 0.5) if noise else 0.0
        c0_s = (8.0 * params.g**2 / (g0**2 * gp * tau)) * (n_avg_s + 0.5) if noise else 0.0
        ou_decay = math.exp(-dt / tau)
        eta_i = math.sqrt(max(c0_i * (1.0 - ou_decay**2), 0.0) / 2.0)
        eta_s = math.sqrt(max(c0_s * (1.0 - ou_decay**2), 0.0) / 2.0)
    else:
        w_i = math.sqrt(s2 * g0 * (n_avg_i + 0.5) * dt) if noise else 0.0
        w_s = math.sqrt(s2 * g0 * (n_avg_s + 0.5) * dt) if noise else 0.0
    w_p = math.sqrt(sp2 * gp * (params.n_th_P + 0.5) * dt) if (noise and pump_noise) else 0.0

    n_burn = int(round(config.t_burn / dt))
    n_samp = int(round(config.t_sample / dt))
    stride = config.record_stride
    record = config.record_fields
    out = {k: [] for k in record}
    t_rec = []

    def drift(ai, as_, ap, ci, cs, fi, fs):
        d_ai = 0.5 * (-ci + 1j * g0 * (np.conj(as_) * ap + fi))
        d_as = 0.5 * (-cs + 1j * g0 * (np.conj(ai) * ap + fs))
        d_ap = 0.5 * gp * (-ap + 1j * (ai * as_ + mu))
        d_ci = (g0 * ai - ci) / tau
        d_cs = (g0 * as_ - cs) / tau
        return d_ai, d_as, d_ap, d_ci, d_cs

    def drift_mk(ai, as_, ap):
        d_ai = 0.5 * (-g0 * ai + 1j * g0 * np.conj(as_) * ap)
        d_as = 0.5 * (-g0 * as_ + 1j * g0 * np.conj(ai) * ap)
        d_ap = 0.5 * gp * (-ap + 1j * (ai * as_ + mu))
        return d_ai, d_as, d_ap

    local: dict[str, np.ndarray | None] = {}
    total = n_burn + n_samp
    # Overflow en route to the StepOverflow check is deliberate; keep
    # numpy from spraying per-operation warnings about it.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(total):
            if not markov:
                f_i_new = f_i * ou_decay
                f_s_new = f_s * ou_decay
                if noise:
                    z = rng.standard_normal((4, n_traj))
                    f_i_new = f_i_new + eta_i * (z[0] + 1j * z[1])
                    f_s_new = f_s_new + eta_s * (z[2] + 1j * z[3])
                dW_P = 0.0
                if noise and w_p:
                    zp = rng.standard_normal((2, n_traj))
                    dW_P = w_p * (zp[0] + 1j * zp[1])
                k1 = drift(A_i, A_s, A_P, c_i, c_s, f_i, f_s)
                if not heun:
                    A_i = A_i + k1[0] * dt
                    A_s = A_s + k1[1] * dt
                    A_P = A_P + k1[2] * dt + dW_P
                    c_i = c_i + k1[3] * dt
                    c_s = c_s + k1[4] * dt
                else:
                    p = (
                        A_i + k1[0] * dt,
                        A_s + k1[1] * dt,
                        A_P + k1[2] * dt + dW_P,
                        c_i + k1[3] * dt,
                        c_s + k1[4] * dt,
                    )
                    k2 = drift(p[0], p[1], p[2], p[3], p[4], f_i_new, f_s_new)
                    A_i = A_i + 0.5 * (k1[0] + k2[0]) * dt
                    A_s = A_s + 0.5 * (k1[1] + k2[1]) * dt
                    A_P = A_P + 0.5 * (k1[2] + k2[2]) * dt + dW_P
                    c_i = c_i + 0.5 * (k1[3] + k2[3]) * dt
                    c_s = c_s + 0.5 * (k1[4] + k2[4]) * dt
                f_i, f_s = f_i_new, f_s_new
            else:
                dW_i = dW_s = dW_P = 0.0
                if noise:
                    z = rng.standard_normal((6, n_traj))
                    dW_i = w_i * (z[0] + 1j * z[1])
                    dW_s = w_s * (z[2] + 1j * z[3])
                    if w_p:
                        dW_P = w_p * (z[4] + 1j * z[5])
                k1 = drift_mk(A_i, A_s, A_P)
                if not heun:
                    A_i = A_i + k1[0] * dt + dW_i
                    A_s = A_s + k1[1] * dt + dW_s
                    A_P = A_P + k1[2] * dt + dW_P
                else:
                    p = (A_i + k1[0] * dt + dW_i, A_s + k1[1] * dt + dW_s, A_P + k1[2] * dt + dW_P)
                    k2 = drift_mk(*p)
                    A_i = A_i + 0.5 * (k1[0] + k2[0]) * dt + dW_i
                    A_s = A_s + 0.5 * (k1[1] + k2[1]) * dt + dW_s
                    A_P = A_P + 0.5 * (k1[2] + k2[2]) * dt + dW_P

            if (step + 1) % _OVERFLOW_CHECK == 0 or step == total - 1:
                if not (np.all(np.isfinite(A_i.real)) and np.all(np.isfinite(A_P.real))):
                    raise StepOverflow(
                        f"non-finite state at step {step + 1} (t = {(step + 1) * dt:.4g}); "
                        "reduce dt"
                    )
            k_rel = step + 1 - n_burn
            if k_rel >= 1 and k_rel % stride == 0:
                local["A_i"], local["A_s"], local["A_P"] = A_i, A_s, A_P
                local["c_i"], local["c_s"] = c_i, c_s
                local["f_i"], local["f_s"] = f_i, f_s
                for k in record:
                    if local[k] is None:
                        raise ParameterError(
                            f"cannot record {k!r} in the Markovian limit",
                            [("record_fields", f"{k} absent for tau_r = 0")],
                        )
                    out[k].append(local[k].copy())
                t_rec.append(k_rel * dt)

    series = {k: np.asarray(v) for k, v in out.items()}
    return Trajectory(
        t=np.asarray(t_rec),
        A_i=series.get("A_i"),
        A_s=series.get("A_s"),
        A_P=series.get("A_P"),
        c_i=series.get("c_i"),
        c_s=series.get("c_s"),
        f_i=series.get("f_i"),
        f_s=series.get("f_s"),
        params=params,
        config=config,
    )
