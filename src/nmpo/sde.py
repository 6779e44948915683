"""Nonlinear stochastic integrator for the scaled amplitude equations.

Evolves the full trilinear system (no linearization)

    dA_i/dt = (1/2) [ -c_i + i gamma0 (conj(A_s) A_P + f_i) ]
    dA_s/dt = (1/2) [ -c_s + i gamma0 (conj(A_i) A_P + f_s) ]
    dA_P/dt = (gammaP/2) [ -A_P + i (A_i A_s + mu) ]
    dc_k/dt = (gamma0 A_k - c_k) / tau_r

where c_k are exact exponential embeddings of the memory convolution and
f_k are Ornstein-Uhlenbeck colored forces with stationary complex variance

    C0 = (8 g^2 / (gamma0^2 gammaP tau_r)) (n_th + 1/2),

the scaled image of the bath correlator (n_th + 1/2)(gamma0/2 tau_r)
e^{-|u|/tau_r}.  Symmetric-ordered (n_th + 1/2) weights throughout: a single
classical process reproduces symmetric moments only.  In the Markovian
limit the forces become white complex increments of per-quadrature variance
s^2 gamma0 (n_th + 1/2) dt with s^2 = 2 g^2/(gamma0 gammaP).  Pump noise is
white with per-quadrature variance sP^2 gammaP (n_th_P + 1/2) dt,
sP^2 = 2 g^2/gamma0^2, and is on exactly when (mu, kappa) lies in a broken
phase (Phase.broken), as in spectra.psd.

The step loop holds one stacked complex state x, rows (A_i, A_s, A_P, c_i,
c_s) with memory and (A_i, A_s, A_P) in the Markovian limit, and with
memory the two colored forces and a constant mu row in f; columns are
trajectories ("lanes").  Markovian and memory rows, Heun and
Euler-Maruyama, share that one loop.  A step allocates nothing: the state,
the Heun predictor, both drift evaluations, the forces and the drift
scratch are allocated once, and every elementwise operation writes into
them through out=.  Each row's noise is drawn BLOCK steps at a time from
its own generator seeded by its config, in the same order as one draw per
step.  The next block is handed to one helper thread while the loop steps
through the current one (the normal fill releases the GIL); if the helper
has not begun it when the loop gets there, as happens when the lanes are
too narrow for numpy to release the GIL inside the step loop, the loop
draws the block itself.  There is no option for it.
Recorded samples go into preallocated buffers.  integrate_ensemble steps
several rows together, such as the points of a kappa sweep: their lanes
sit side by side and the per-row values (tau_r, the drive mu, OU decay,
noise amplitudes) are lane vectors.  integrate_trajectory is the one-row case.
Every elementwise expression keeps a fixed operand order, so identical
(seed, config, params) give bit-identical output whether a row runs alone
or in an ensemble.

A step's cost is set by the number of numpy calls, so rows that share an
operation share one call: one multiply applies i gamma0 to the damped rows
and i to the pump row, one add puts f on the damped rows and mu on the pump
row, and one subtraction takes A_P, c_i, c_s off rows 2-4.  Per element
these are the same operations as one call per row.  Three further fusions
rest on identities:

* The final factors 1/2 (A_i, A_s), gammaP/2 (A_P) and 1/tau_r (c_i, c_s)
  are one multiply of the drift's float64 view by a scale array.  A complex
  times a real a + 0j gives (r a - i 0, i a + r 0), and numpy divides a
  complex by tau + 0j as ((r + i 0)(1/tau), (i - r 0)(1/tau)); the added
  zero leaves a finite nonzero part unchanged, so both equal each part
  times the factor.  They can differ only in the sign of a zero part or
  beside an infinite one, which needs an exact zero in the drift or an
  overflow.
* Heun's 1/2 (k1 + k2) dt is one multiply by dt/2 instead of two.  Halving
  is exact, so both round the same product unless a part is subnormal.
* A row set without white noise skips adding the zero increment.  x + 0.0
  differs from x only at x = -0.0, and a part of x + k dt is -0.0 only when
  both terms are; the signed-zero starts of the oracle tests hold it.

The estimators read the records over blocks of trajectory columns, each
about _BLOCK_BYTES of complex samples and at least _MIN_BLOCK columns wide
(a narrower last block joins the one before), and write per-trajectory
vectors.  The one full plane they build is an unwrapped phase, for a single
least-squares slope fit on np.polyfit's route; lstsq run block by block
differs in the last bits.  Their memory is the records plus that plane and
lstsq's copy of it.  Axis-0 means and variances of a block are those of the
whole plane bit for bit: numpy adds row by row once a block is 2 columns
wide (one column it sums pairwise), and the corotating path's complex means
were seen to differ at 4 columns but not at 8, hence the floor of 16.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    InsufficientSamples,
    NonStationary,
    ParameterError,
    StepOverflow,
)
from .meanfield import Phase, classify_phase, steady_state
from .model import SystemParams, _noise_scale
from .spectra import VarianceReport, _make_report

SCHEMES = ("euler-maruyama", "stochastic-heun")
RECORDABLE = ("A_i", "A_s", "A_P", "c_i", "c_s", "f_i", "f_s")

# Time-step and burn-in safety factors.
_DT_FACTOR = 20.0
_BURN_FACTOR = 20.0
# Steps between finiteness checks.
_OVERFLOW_CHECK = 256
# Steps of noise drawn per generator call.
BLOCK = 32
# Default boxcar width of estimate_order_parameters, in units of 1/gamma0.
WINDOW = 5.0
# The estimators work over blocks of trajectory columns of about this many
# bytes of complex samples, and of at least _MIN_BLOCK columns.
_BLOCK_BYTES = 1 << 21
_MIN_BLOCK = 16
# Rows of the stacked state x and of the forces f holding each recordable field.
_X_ROWS = {"A_i": 0, "A_s": 1, "A_P": 2, "c_i": 3, "c_s": 4}
_F_ROWS = {"f_i": 0, "f_s": 1}


def _bad_count(name: str, value) -> list[tuple[str, str]]:
    """The violation of a count that must be an integer >= 1 (Python or
    numpy, not bool), or none."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        return [(name, f"must be an integer >= 1, got {value!r}")]
    if value < 1:
        return [(name, f"must be >= 1, got {value}")]
    return []


@dataclass(frozen=True)
class SimConfig:
    """Integration plan; times in the same units as the rate parameters.

    Pump noise is not part of the plan: it follows the phase of (mu, kappa).
    """

    dt: float
    t_burn: float
    t_sample: float
    n_traj: int
    seed: int
    scheme: str = "stochastic-heun"
    record_stride: int = 1
    record_fields: tuple[str, ...] = ("A_i", "A_s", "A_P")
    noise: bool = True

    def __post_init__(self):
        bad = []
        if not (0 < self.dt < math.inf):
            bad.append(("dt", f"must be > 0 and finite, got {self.dt}"))
        if not (0 <= self.t_burn < math.inf):
            bad.append(("t_burn", f"must be >= 0 and finite, got {self.t_burn}"))
        if not (0 < self.t_sample < math.inf):
            bad.append(("t_sample", f"must be > 0 and finite, got {self.t_sample}"))
        if not bad:
            for name in ("t_burn", "t_sample"):
                span = getattr(self, name)
                if math.isinf(span / self.dt):
                    bad.append((name, f"must be a finite number of steps of dt = {self.dt}, "
                                      f"got {span}"))
        bad += _bad_count("n_traj", self.n_traj)
        if isinstance(self.seed, bool) or not (
            isinstance(self.seed, (int, np.integer)) and self.seed >= 0
        ):
            bad.append(("seed", f"must be a non-negative integer, got {self.seed!r}"))
        if self.scheme not in SCHEMES:
            bad.append(("scheme", f"must be one of {SCHEMES}, got {self.scheme!r}"))
        bad += _bad_count("record_stride", self.record_stride)
        for name in self.record_fields:
            if name not in RECORDABLE:
                bad.append(("record_fields", f"unknown field {name!r}"))
        if bad:
            raise ParameterError("; ".join(f"{f}: {m}" for f, m in bad), bad)

    def check_against(self, params: SystemParams) -> None:
        """Step-size and burn-in floors relative to the system timescales."""
        fastest, slowest = params.timescales
        dt_max = fastest / _DT_FACTOR
        bad = []
        if self.dt > dt_max * (1 + 1e-12):
            bad.append(("dt", f"must be <= {dt_max:.3e} for these rates, got {self.dt}"))
        burn_min = _BURN_FACTOR * slowest
        if self.t_burn < burn_min * (1 - 1e-12):
            bad.append(("t_burn", f"must be >= {burn_min:.3e} for these rates, got {self.t_burn}"))
        if bad:
            raise ParameterError("; ".join(f"{f}: {m}" for f, m in bad), bad)


@dataclass
class Trajectory:
    """Recorded post-burn-in samples, shape (n_samples, n_traj) per field.

    t is the time since the end of burn-in at each recorded step.  Memory
    (c_i, c_s) and colored-force (f_i, f_s) series are None unless requested
    in record_fields (or in the Markovian limit, where they do not exist).
    """

    t: np.ndarray
    A_i: np.ndarray | None
    A_s: np.ndarray | None
    A_P: np.ndarray | None
    c_i: np.ndarray | None
    c_s: np.ndarray | None
    f_i: np.ndarray | None
    f_s: np.ndarray | None
    params: SystemParams
    config: SimConfig


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


def _steps(span: float, dt: float) -> int:
    return int(round(span / dt))


def lockstep_key(params: SystemParams, config: SimConfig) -> tuple:
    """Rows with equal keys can be integrated together by integrate_ensemble.

    The key holds everything the shared step loop treats as one value: the
    step plan, the scheme, the noise switch, the recorded fields, whether
    the row has memory, and the rates gamma0 and gammaP.  The drive mu is
    not in the key: like tau_r it is a lane value, so rows that differ only
    in mu share a loop.
    """
    dt = config.dt
    return (
        dt,
        _steps(config.t_burn, dt),
        _steps(config.t_sample, dt),
        config.record_stride,
        config.scheme,
        config.noise,
        tuple(config.record_fields),
        params.markovian,
        params.gamma0,
        params.gammaP,
    )


@dataclass
class _Row:
    """One row's generator, starting state and noise amplitudes."""

    rng: np.random.Generator
    x: np.ndarray  # (5, n_traj) with memory, (3, n_traj) Markovian
    f: np.ndarray | None  # (2, n_traj) colored forces; None when Markovian
    amp: tuple[float, float, float]  # noise scale of the f_i, f_s (or A_i, A_s) and A_P rows
    decay: float  # OU decay per step; 0 when Markovian
    pumped: bool


def _start_row(params: SystemParams, config: SimConfig, initial: dict | None) -> _Row:
    config.check_against(params)
    rng = np.random.default_rng(config.seed)
    n_traj = config.n_traj
    g0, gp, tau = params.gamma0, params.gammaP, params.tau_r
    markov = params.markovian
    noise = config.noise
    pump_noise = classify_phase(params.mu, params.kappa).broken
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
        x, f = np.stack([A_i, A_s, A_P]), None
        for key in ("c_i", "c_s", "f_i", "f_s"):
            if key in initial:
                raise ParameterError(
                    f"{key} has no meaning in the Markovian limit", [(key, "tau_r = 0")]
                )
    else:
        c_i = _as_state(initial.pop("c_i"), n_traj) if "c_i" in initial else g0 * A_i
        c_s = _as_state(initial.pop("c_s"), n_traj) if "c_s" in initial else g0 * A_s
        f_i = _as_state(initial.pop("f_i"), n_traj) if "f_i" in initial else np.zeros(n_traj, complex)
        f_s = _as_state(initial.pop("f_s"), n_traj) if "f_s" in initial else np.zeros(n_traj, complex)
        x, f = np.stack([A_i, A_s, A_P, c_i, c_s]), np.stack([f_i, f_s])
    if initial:
        raise ParameterError(
            f"unknown initial-state keys {sorted(initial)}", [("initial", "unknown keys")]
        )
    if markov:
        for k in config.record_fields:
            if k not in ("A_i", "A_s", "A_P"):
                raise ParameterError(
                    f"cannot record {k!r} in the Markovian limit",
                    [("record_fields", f"{k} absent for tau_r = 0")],
                )

    # Noise amplitudes: colored OU for the damped modes (exact update), white
    # for the Markovian limit and for the pump.
    n_i, n_s = params.n_th_i, params.n_th_s
    s2 = params.variance_scale
    w_p = math.sqrt(params.pump_noise_power * dt) if (noise and pump_noise) else 0.0
    if markov:
        w_i = math.sqrt(s2 * g0 * (n_i + 0.5) * dt) if noise else 0.0
        w_s = math.sqrt(s2 * g0 * (n_s + 0.5) * dt) if noise else 0.0
        return _Row(rng, x, f, (w_i, w_s, w_p), 0.0, pump_noise)
    c0 = _noise_scale(
        "coloured force variance 8 g^2/(gamma0^2 gammaP tau_r)",
        lambda: 8.0 * params.g**2 / (g0**2 * gp * tau),
        g=params.g, gamma0=g0, gammaP=gp, tau_r=tau,
    ) if noise else 0.0
    ou_decay, eta_i = _ou_coefficients(c0 * (n_i + 0.5), dt, tau)
    _, eta_s = _ou_coefficients(c0 * (n_s + 0.5), dt, tau)
    return _Row(rng, x, f, (eta_i, eta_s, w_p), ou_decay, pump_noise)


def _ou_coefficients(c0: float, dt: float, tau: float) -> tuple[float, float]:
    """Decay and noise scale of the exact Ornstein-Uhlenbeck step over dt.

    f' = f * decay + eta * (z1 + i z2) with z1, z2 standard normal keeps the
    stationary complex variance <|f|^2> = c0 and the correlation
    c0 e^{-|u|/tau} at any dt.
    """
    decay = math.exp(-dt / tau)
    return decay, math.sqrt(max(c0 * (1.0 - decay**2), 0.0) / 2.0)


def integrate_trajectory(
    params: SystemParams, config: SimConfig, initial: dict | None = None
) -> Trajectory:
    """Integrate the full nonlinear system; returns post-burn-in samples.

    initial may give starting values for any of A_i, A_s, A_P, c_i, c_s,
    f_i, f_s (scalar or per-trajectory); unspecified amplitudes start as a
    small seeded random perturbation, memory variables slaved (c = gamma0 A)
    and forces at zero.  Raises StepOverflow on non-finite state, and
    NumericsError, before any step, on a noise scale outside the float
    range (model._noise_scale).  This is the one-row case of
    integrate_ensemble's step loop.
    """
    return _integrate([(params, config)], [initial])[0]


def integrate_ensemble(rows) -> list[Trajectory]:
    """Integrate several (params, config) rows in lockstep, one Trajectory each.

    Every row must have the same lockstep_key.  Each row keeps its own
    generator seeded from its config, so row r is bit-identical to
    integrate_trajectory(*rows[r]).  A StepOverflow names the step of the
    first overflowing row in row order, as integrating the rows one after
    another would.
    """
    rows = list(rows)
    return _integrate(rows, [None] * len(rows))


# What numpy raises for a plan it cannot allocate: a dimension past its
# limit, a size past the address space, or memory it cannot get.
_ALLOCATION_ERRORS = (ValueError, OverflowError, MemoryError)


def _count(n: int) -> str:
    """n in full up to 1e15, past that in scientific notation read from its
    decimal digits (a float conversion can overflow)."""
    if n <= 10**15:
        return str(n)
    # Imported on this error path alone: decimal costs every run memory.
    from decimal import Decimal

    return format(Decimal(n), ".3e")


def _plan_error(rows, reason) -> ParameterError:
    config = rows[0][1]
    n_samp = _steps(config.t_sample, config.dt)
    total = _steps(config.t_burn, config.dt) + n_samp
    n_rec = n_samp // config.record_stride
    n_lanes = sum(c.n_traj for _, c in rows)
    return ParameterError(
        f"a plan of {_count(total)} steps with record buffers of shape "
        f"({_count(n_rec)}, {_count(n_lanes)}) cannot be allocated: {reason}",
        [("plan", "too large to allocate")],
    )


def check_plan(rows) -> None:
    """ParameterError if a record buffer integrate_ensemble(rows) would fill
    is past numpy's size limit, a dimension or byte count above np.intp.

    Nothing is allocated.  Memory the machine cannot give is found when the
    rows are integrated, and raises the same ParameterError there.
    """
    config = rows[0][1]
    if not config.record_fields:
        return
    n_rec = _steps(config.t_sample, config.dt) // config.record_stride
    limit = int(np.iinfo(np.intp).max)
    for _, c in rows:
        size = n_rec * c.n_traj * np.dtype(complex).itemsize
        if max(n_rec, c.n_traj, size) > limit:
            raise _plan_error(rows, f"a record buffer of {_count(size)} bytes is past "
                                    f"numpy's limit of {_count(limit)}")


def _integrate(rows, initials) -> list[Trajectory]:
    if not rows:
        return []
    if len({lockstep_key(p, c) for p, c in rows}) > 1:
        raise ParameterError(
            "rows differ in step plan, scheme, noise, recorded fields, memory or rates "
            "and cannot be integrated in lockstep",
            [("rows", "not lockstep-compatible")],
        )
    params, config = rows[0]
    g0, gp, dt = params.gamma0, params.gammaP, config.dt
    markov = params.markovian
    heun = config.scheme == "stochastic-heun"
    noise = config.noise
    n_burn, n_samp = _steps(config.t_burn, dt), _steps(config.t_sample, dt)
    stride = config.record_stride
    total = n_burn + n_samp
    n_rec = n_samp // stride

    # Trajectories of all rows side by side along the lane axis; per-row
    # values become lane vectors.
    sizes = [c.n_traj for _, c in rows]
    n_lanes = sum(sizes)
    # Allocation: the row starts, the work and noise buffers and the record
    # buffers.  A plan too large for numpy to allocate is a ParameterError.
    try:
        edges = np.cumsum([0] + sizes)
        starts = [_start_row(p, c, init) for (p, c), init in zip(rows, initials)]
        x = np.concatenate([s.x for s in starts], axis=1)
        tau = np.repeat([p.tau_r for p, _ in rows], sizes)
        mu = np.repeat([complex(p.mu) for p, _ in rows], sizes)
        decay = np.repeat([s.decay for s in starts], sizes)
        # White noise drives A_i, A_s, A_P when Markovian and A_P only with
        # memory; rows without pump noise get exact zeros there.
        white = slice(0, 3) if markov else slice(2, 3)
        width = 6 if markov or any(s.pumped for s in starts) else 4
        white_noise = noise and width == 6
        # Work buffers, allocated once: x is advanced in place, f and f_new swap.
        # With memory each force buffer holds f_i, f_s and a constant mu row, so
        # one add puts f on the damped rows and mu on the pump row.
        p, k1, k2 = np.empty_like(x), np.empty_like(x), np.empty_like(x)
        if markov:
            f = f_new = fq = fq_new = None
        else:
            f, f_new = np.empty((3, n_lanes), complex), np.empty((3, n_lanes), complex)
            f[2] = f_new[2] = mu
            fq, fq_new = f[:2], f_new[:2]
            fq[:] = np.concatenate([s.f for s in starts], axis=1)
        scratch = np.empty_like(x[:2]) if markov else None
        x_white, p_white = x[white], p[white]
        mul, add, sub = np.multiply, np.add, np.subtract
        half_dt = 0.5 * dt
        # i g0 on the damped rows and i on the pump row, applied by one multiply.
        rotate = np.array([1j * g0, 1j * g0, 1j])[:, None]
        # The final drift factors per real part: 1/2 on A_i, A_s, gammaP/2 on A_P
        # and 1/tau_r on c_i, c_s.
        scale = np.empty_like(x.view(float))
        scale[:2], scale[2] = 0.5, 0.5 * gp
        if not markov:
            scale[3:] = np.repeat(1.0 / tau, 2)

        # Noise: each row draws its standard normals at its own width (6 when
        # Markovian or pumped, else 4) into its own buffer, in the order of one
        # draw per step, and scales them into complex increments (k, width // 2,
        # lanes).  A row without pump noise keeps exact zeros in the pump column.
        # Block b + 1 is drawn into buffer set (b + 1) % 2 while the loop reads
        # block b from set b % 2, by the helper thread or, if the helper has not
        # begun it, by the loop; one block is pending at a time, so the
        # generators see the draws in order and one thread at a time.
        feeds = [
            (s.rng, 6 if markov or s.pumped else 4,
             np.array(s.amp[: 3 if s.pumped else 2])[:, None], slice(lo, hi))
            for s, lo, hi in zip(starts, edges[:-1], edges[1:])
        ]
        sets = [
            (
                [np.empty((BLOCK, w, lanes.stop - lanes.start)) for _, w, _, lanes in feeds],
                np.zeros((BLOCK, width // 2, n_lanes), complex),
            )
            for _ in range(2 if noise else 0)
        ]

        # Each row records into its own buffers, so no copy is made at the end.
        buffers = [
            {k: np.empty((n_rec, c.n_traj), complex) for k in config.record_fields}
            for _, c in rows
        ]
    except ParameterError:
        raise
    except _ALLOCATION_ERRORS as exc:
        raise _plan_error(rows, str(exc)) from exc
    sources = [
        (buf, k in _X_ROWS, _X_ROWS.get(k, _F_ROWS.get(k)), slice(lo, hi))
        for bufs, lo, hi in zip(buffers, edges[:-1], edges[1:])
        for k, buf in bufs.items()
    ]

    def drift_into(x, d):
        """The drift at (x, f) as a function of f that writes into d.

        The views of x and d are built here once, not on every call.  Each
        call is one ufunc per operation, rows sharing an operation sharing
        the call, and ends in one multiply by the scale array: exact by the
        identities in the module docstring.
        """
        x_swap, xq, xp, x0, x1, xc, x_tail = x[1::-1], x[:2], x[2], x[0], x[1], x[3:], x[2:]
        dq, dp, dc, d_top, d_tail, d_flat = d[:2], d[2], d[3:], d[:3], d[2:], d.view(float)

        if markov:
            def drift(f):
                # 1/2 (-g0 A + i g0 conj(A_swapped) A_P), gP/2 (-A_P + i (A_i A_s + mu))
                np.conj(x_swap, out=dq)
                mul(x0, x1, out=dp)
                add(dp, mu, out=dp)
                mul(rotate, d_top, out=d_top)
                mul(dq, xp, out=dq)
                mul(-g0, xq, out=scratch)
                add(scratch, dq, out=dq)
                sub(dp, xp, out=dp)
                mul(d_flat, scale, out=d_flat)
        else:
            def drift(f):
                # 1/2 (-c + i g0 (conj(A_swapped) A_P + f)), gP/2 (-A_P + i (A_i A_s + mu))
                # and (g0 A - c) / tau
                np.conj(x_swap, out=dq)
                mul(dq, xp, out=dq)
                mul(x0, x1, out=dp)
                add(d_top, f, out=d_top)
                mul(rotate, d_top, out=d_top)
                sub(dq, xc, out=dq)
                mul(g0, xq, out=dc)
                sub(d_tail, x_tail, out=d_tail)
                mul(d_flat, scale, out=d_flat)

        return drift

    drift_x, drift_p = drift_into(x, k1), drift_into(p, k2)

    def fill(b: int) -> np.ndarray:
        """Draw and scale the noise of block b into its buffer set."""
        zs, inc = sets[b % 2]
        k = min(BLOCK, total - b * BLOCK)
        for (rng, _, a, lanes), z in zip(feeds, zs):
            rng.standard_normal(out=z[:k])
            out = inc[:k, : len(a), lanes]
            mul(a, z[:k, 0 : 2 * len(a) : 2], out=out.real)
            mul(a, z[:k, 1 : 2 * len(a) : 2], out=out.imag)
        return inc

    failed: dict[int, int] = {}  # row -> first step seen non-finite
    # Overflow en route to the StepOverflow check is deliberate; keep
    # numpy from spraying per-operation warnings about it.  The executor
    # starts its thread at the first submit, so a run without noise starts
    # none.  A block the helper has not begun is cancelled and drawn here:
    # with narrow lanes the loop never releases the GIL, and waiting for the
    # helper would cost two thread switches per block for no overlap.
    with np.errstate(over="ignore", invalid="ignore"), ThreadPoolExecutor(1) as pool:
        if noise:
            pending = pool.submit(fill, 0)
        for step in range(total):
            j = step % BLOCK
            if noise and j == 0:
                b = step // BLOCK
                increments = fill(b) if pending.cancel() else pending.result()
                if step + BLOCK < total:
                    pending = pool.submit(fill, b + 1)
            if not markov:
                mul(fq, decay, out=fq_new)
                if noise:
                    add(fq_new, increments[j, :2], out=fq_new)
            if white_noise:
                dW = increments[j, white]
            drift_x(f)
            if heun:
                mul(k1, dt, out=p)
                add(x, p, out=p)
                if white_noise:
                    add(p_white, dW, out=p_white)
                drift_p(f_new)
                add(k1, k2, out=k2)
                mul(k2, half_dt, out=k2)
                add(x, k2, out=x)
            else:
                mul(k1, dt, out=k1)
                add(x, k1, out=x)
            if white_noise:
                add(x_white, dW, out=x_white)
            f, f_new, fq, fq_new = f_new, f, fq_new, fq

            if (step + 1) % _OVERFLOW_CHECK == 0 or step == total - 1:
                finite = np.isfinite(x[0].real) & np.isfinite(x[2].real)
                if not finite.all():
                    for r, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
                        if r not in failed and not finite[lo:hi].all():
                            failed[r] = step + 1
                    if 0 in failed:
                        break
            k_rel = step + 1 - n_burn
            if k_rel >= 1 and k_rel % stride == 0:
                i = k_rel // stride - 1
                for buf, in_x, row, lanes in sources:
                    buf[i] = x[row, lanes] if in_x else f[row, lanes]
    if failed:
        at = failed[min(failed)]
        raise StepOverflow(f"non-finite state at step {at} (t = {at * dt:.4g}); reduce dt")

    t = np.arange(stride, n_samp + 1, stride) * dt
    return [
        Trajectory(t=t, params=p, config=c, **{k: bufs.get(k) for k in RECORDABLE})
        for (p, c), bufs in zip(rows, buffers)
    ]


# === estimators ===============================================================


@dataclass(frozen=True)
class OrderParameterEstimate:
    """Ensemble estimates of the order parameters with standard errors."""

    amp_mean: float
    amp_se: float
    delta_est: float
    delta_se: float
    var_phi_dot: float
    var_phi_dot_se: float
    window: float
    n_traj: int
    branch_locked: bool


def check_samples(n_traj: int, n_samples: int, t=None, window: float | None = None,
                  quadratures: bool = False) -> None:
    """The estimators' needs of a sampled ensemble; InsufficientSamples if unmet.

    Both estimators need >= 2 trajectories.  With a window (and the record
    times t), estimate_order_parameters also needs >= 16 samples and more
    than 2 round(window / dt_rec), dt_rec = t[1] - t[0]; with quadratures,
    estimate_quadrature_variances needs >= 32 samples.  A window that is not
    > 0 and finite, or not a finite number of samples wide, is a
    ParameterError naming window; a cadence dt_rec that is not > 0 and
    finite is a ParameterError naming t.
    """
    if window is not None and not 0 < window < math.inf:
        _bad_input("window", f"must be > 0 and finite, got {window}")
    if n_traj < 2:
        need = f"ensemble estimates need >= 2 trajectories, got {n_traj}"
        raise InsufficientSamples(f"n_traj: {need}", [("n_traj", need)])
    need = None
    if window is not None:
        if n_samples < 16:
            need = f"need >= 16 samples, got {n_samples}"
        else:
            dt_rec = float(t[1] - t[0])
            if not 0 < dt_rec < math.inf:
                _bad_input("t", "record cadence t[1] - t[0] must be > 0 and finite, "
                                f"got {dt_rec}")
            width = window / dt_rec
            if not math.isfinite(width):
                _bad_input("window", f"must be a finite number of samples at cadence {dt_rec}, "
                                     f"got {window}")
            m = int(round(width))
            if m < 1 or n_samples <= 2 * m:
                need = (f"smoothing window {window} needs more than {2 * m} samples "
                        f"at cadence {dt_rec}")
    if need is None and quadratures and n_samples < 32:
        need = f"need >= 2 trajectories and >= 32 samples, got {n_traj} x {n_samples}"
    if need is not None:
        raise InsufficientSamples(need, [("samples", need)])


def _bad_input(name: str, message: str) -> None:
    raise ParameterError(f"{name}: {message}", [(name, message)])


def check_sample_plan(params: SystemParams, config: SimConfig, quadratures: bool = False) -> None:
    """check_samples for the records config will give, at the default window,
    before anything is integrated."""
    stride, dt = config.record_stride, config.dt
    n_samples = _steps(config.t_sample, dt) // stride
    # The first two record times as integration writes them, (k stride) dt,
    # where there is a second sample.
    t = (stride * dt, 2 * stride * dt) if n_samples >= 2 else None
    check_samples(config.n_traj, n_samples, t, WINDOW / params.gamma0, quadratures)


def _check_amplitudes(tr: Trajectory) -> None:
    for name in ("A_i", "A_s"):
        if getattr(tr, name) is None:
            raise InsufficientSamples(f"trajectory is missing recorded field {name!r}")


def _blocks(n_samples: int, n_traj: int) -> list[slice]:
    """The column blocks the estimators work over, covering n_traj columns.

    A block holds about _BLOCK_BYTES of complex samples and at least
    _MIN_BLOCK columns; a shorter last block joins the one before it.
    """
    width = max(_MIN_BLOCK, _BLOCK_BYTES // (16 * n_samples))
    starts = list(range(0, n_traj, width))
    if len(starts) > 1 and n_traj - starts[-1] < _MIN_BLOCK:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [n_traj])]


def _ensemble(per_traj: np.ndarray, scale: float = 1.0) -> tuple[float, float]:
    """The ensemble mean of a per-trajectory vector and its ddof = 1
    standard error, each divided by scale (exact at the default 1)."""
    return (float(per_traj.mean()) / scale,
            float(per_traj.std(ddof=1) / math.sqrt(per_traj.size)) / scale)


def _unwrap(p: np.ndarray) -> np.ndarray:
    """np.unwrap(p, axis=0), bit for bit, with less work and memory.

    numpy maps every difference d = p[k+1] - p[k] to mod(d + pi, 2 pi) - pi
    (pi where that lands on -pi with d > 0), takes the correction to d and
    then zeroes it wherever |d| < pi.  Here that mod and boundary rule run
    only on the jumps ~(|d| < pi), NaN included; the correction elsewhere is
    an exact zero, as numpy's is.  The differences, their cumulative sum and
    the final add share the output's rows 1:, so the work holds the output
    and one |d| plane, not numpy's six.
    """
    up = np.empty_like(p)
    d = up[1:]
    np.subtract(p[1:], p[:-1], out=d)
    jump = ~(np.abs(d) < np.pi)
    dj = d[jump]
    dmod = np.mod(dj + np.pi, 2 * np.pi) - np.pi
    np.copyto(dmod, np.pi, where=(dmod == -np.pi) & (dj > 0))
    d.fill(0.0)
    d[jump] = dmod - dj
    np.cumsum(d, axis=0, out=d)
    np.add(p[1:], d, out=d)
    up[:1] = p[:1]
    return up


def _slopes(t, y: np.ndarray) -> np.ndarray:
    """np.polyfit(t, y, 1)[0], bit for bit, without polyfit's copy of y.

    polyfit's route: the Vandermonde matrix of t with its columns scaled to
    unit norm, lstsq at rcond = len(t) eps, the scale divided out.  Its
    y + 0.0, which turns -0.0 into 0.0, is done here in place: y is the
    caller's scratch.
    """
    x = np.asarray(t) + 0.0
    lhs = np.vander(x, 2)
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    np.add(y, 0.0, out=y)
    return np.linalg.lstsq(lhs, y, len(x) * np.finfo(x.dtype).eps)[0][0] / scale[0]


def _phase_slopes(tr: Trajectory, blocks, angle_of_block) -> np.ndarray:
    """Per-trajectory slopes of the unwrapped phase angle_of_block(cols)
    gives for each column block: the one full plane the estimators build,
    fitted once by _slopes (a per-block fit is not bit-identical)."""
    phase = np.empty(tr.A_i.shape)
    for cols in blocks:
        phase[:, cols] = _unwrap(angle_of_block(cols))
    return _slopes(tr.t, phase)


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
    if window is None:
        window = WINDOW / tr.params.gamma0
    check_samples(n_traj, n_samples, tr.t, window)
    dt_rec = float(tr.t[1] - tr.t[0])
    m = int(round(window / dt_rec))

    blocks = _blocks(n_samples, n_traj)
    slopes = _phase_slopes(tr, blocks, lambda cols: np.angle(tr.A_i[:, cols]))
    # Per trajectory, over column blocks: the mean |A_i| and the variance of
    # the windowed difference-phase rate about its mean.
    amp_per_traj, v_per_traj = np.empty(n_traj), np.empty(n_traj)
    for cols in blocks:
        a_i = tr.A_i[:, cols]
        amp_per_traj[cols] = np.abs(a_i).mean(axis=0)
        phi = np.angle(a_i)
        phi -= np.angle(tr.A_s[:, cols])
        phi = _unwrap(phi)  # the difference phase
        rates = phi[m:] - phi[:-m]
        rates /= m * dt_rec
        rates -= rates.mean(axis=0, keepdims=True)
        v_per_traj[cols] = np.square(rates, out=rates).mean(axis=0)

    amp_mean, amp_se = _ensemble(amp_per_traj)
    mags = np.abs(slopes)
    delta_est, delta_se = _ensemble(mags)
    locked = delta_est > 0 and float(mags.min()) > 0.5 * delta_est
    if not locked:
        delta_est, delta_se = _ensemble(slopes)
        delta_est = abs(delta_est)
    var_phi_dot, var_se = _ensemble(v_per_traj)

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
    check_samples(n_traj, n_samples, quadratures=True)
    ss = steady_state(params)
    broken = ss.phase.broken
    blocks = _blocks(n_samples, n_traj)
    branch = None
    if broken and ss.phase is Phase.U1XZ2 and frame == "corotating":
        # The rotation sense of each trajectory from the sign of its
        # difference-phase slope, 0 taken as +1.
        branch = np.sign(_phase_slopes(
            tr, blocks, lambda cols: np.angle(tr.A_i[:, cols]) - np.angle(tr.A_s[:, cols])))
        branch[branch == 0] = 1.0

    # Per trajectory, over column blocks: each quadrature's variance over
    # the whole record and over its first and second halves.  In a broken
    # phase x-, the gauge quadrature, is divergent and not sampled.
    labels = ("x+", "y+", "y-") if broken else ("x+", "x-", "y+", "y-")
    combine = {"+": np.add, "-": np.subtract}
    half = n_samples // 2
    var = {lab: np.empty((3, n_traj)) for lab in labels}
    for cols in blocks:
        A_i, A_s = tr.A_i[:, cols], tr.A_s[:, cols]
        if broken:
            if branch is not None:
                rot = np.exp(-1j * ss.delta * np.outer(tr.t, branch[cols]))
                A_i = A_i * rot
                # numpy reuses np.conj's temporary as this product's output,
                # and a complex product written over one of its inputs can
                # round apart from one written to a fresh array: keep this
                # form, and the bits.
                A_s = A_s * np.conj(rot)
            # Gauge angle per trajectory from the circular mean of the
            # difference phase, then fluctuations about the phi = 0 mean field.
            phi_hat = np.angle(np.exp(1j * (np.angle(A_i) - np.angle(A_s))).mean(axis=0))
            A_i = A_i * np.exp(-0.5j * phi_hat)[None, :]
            A_s = A_s * np.exp(+0.5j * phi_hat)[None, :]
            A_i -= 1j * ss.amp_signal
            A_s -= 1j * ss.amp_signal
        parts = {"x": (A_i.real, A_s.real), "y": (A_i.imag, A_s.imag)}
        for lab in labels:
            # (a +- b) / sqrt(2), divided in place.
            q = combine[lab[1]](*parts[lab[0]])
            q /= math.sqrt(2.0)
            for v, part in zip(var[lab], (q, q[:half], q[half:])):
                v[cols] = part.var(axis=0)

    values = dict.fromkeys(("x+", "x-", "y+", "y-"), math.inf)
    stderr = dict(values)
    for lab, v_lab in var.items():
        whole, (m1, s1), (m2, s2) = (_ensemble(v, params.thermal_variance) for v in v_lab)
        if abs(m1 - m2) > 3.0 * math.hypot(s1, s2):
            raise NonStationary(
                f"{lab}: first/second-half variances {m1:.4g} vs {m2:.4g} "
                f"differ by more than 3 combined standard errors"
            )
        values[lab], stderr[lab] = whole
    return _make_report(values, params.n_avg, stderr=stderr)
