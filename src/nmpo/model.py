"""System parameters, the exponential memory kernel and the derived scales.

Conventions used throughout the package:

* gamma0  - signal/idler decay rate (sets the base frequency unit),
* gammaP  - pump decay rate, required fast: gammaP >= 10*gamma0,
* tau_r   - memory (response) time of the damping kernel; tau_r = 0 is the
  exact Markovian limit,
* kappa   - dimensionless memory parameter, kappa = 1/(gamma0*tau_r),
  kappa = inf in the Markovian limit,
* g       - parametric coupling rate,
* mu      - drive amplitude in units of the critical drive F_cr,
* n_th_*  - thermal occupancies of the baths (idler, signal, pump).

Memory kernel: gamma(t) = gamma0 * exp(-t/tau_r)/tau_r for t >= 0, zero for
t < 0.  Fourier transform gamma~(omega) = gamma0 / (1 - i*omega*tau_r); its
real part gamma0 / (1 + (omega*tau_r)^2) is the damping quadrature that
enters fluctuation-dissipation relations.
"""

from __future__ import annotations

import dataclasses
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativeOccupancy,
    NonPositiveRate,
    NumericsError,
    ParameterError,
    PumpNotFast,
    SlowPumpWarning,
)

# Pump must be at least this many times faster than the signal decay.
MIN_PUMP_RATIO = 10.0
# Below this ratio the adiabatic (instantaneous-pump) formulas degrade.
ADIABATIC_PUMP_RATIO = 100.0


def kernel_freq(params: SystemParams, omega):
    """Fourier transform gamma~(omega) = gamma0 / (1 - i*omega*tau_r).

    Markovian limit (tau_r = 0) is flat: gamma0 for every omega.  Satisfies
    gamma~(-omega) = conj(gamma~(omega)) and gamma~(0) = integral of the
    time-domain kernel.
    """
    om = np.asarray(omega, dtype=float)
    out = params.gamma0 / (1.0 - 1j * om * params.tau_r)
    if np.ndim(omega) == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter set for the driven two-mode system.

    kappa and F_cr are derived on construction; the noise scales and
    timescales derived from the set are read-only properties.  Use
    from_kappa() to specify the memory through kappa instead of tau_r.
    Validation raises the most specific ParameterError subclass for the
    first violation found, with the full violation list attached.
    """

    gamma0: float
    gammaP: float
    tau_r: float
    g: float
    mu: float
    n_th_i: float = 0.0
    n_th_s: float = 0.0
    n_th_P: float = 0.0
    kappa: float = field(init=False)
    F_cr: float = field(init=False)

    def __post_init__(self):
        violations = _collect_violations(self)
        if violations:
            by_kind = {"rate": NonPositiveRate, "occupancy": NegativeOccupancy, "pump": PumpNotFast}
            pairs = [(fieldname, msg) for _, fieldname, msg in violations]
            text = "; ".join(f"{f}: {m}" for f, m in pairs)
            raise by_kind.get(violations[0][0], ParameterError)(text, pairs)
        if self.gammaP < ADIABATIC_PUMP_RATIO * self.gamma0:
            warnings.warn(
                f"gammaP = {self.gammaP} is below {ADIABATIC_PUMP_RATIO}*gamma0; "
                "adiabatic pump-elimination formulas will be approximate",
                SlowPumpWarning,
                stacklevel=_caller_level(),
            )
        object.__setattr__(self, "kappa", kappa_of(self.gamma0, self.tau_r))
        object.__setattr__(self, "F_cr", self.gamma0 * self.gammaP / (4.0 * self.g))

    @classmethod
    def from_kappa(
        cls,
        gamma0: float,
        gammaP: float,
        kappa: float,
        g: float,
        mu: float,
        n_th_i: float = 0.0,
        n_th_s: float = 0.0,
        n_th_P: float = 0.0,
    ) -> "SystemParams":
        """Build from kappa; kappa = inf gives the Markovian tau_r = 0."""
        return cls(gamma0, gammaP, _tau_r_of(gamma0, kappa), g, mu, n_th_i, n_th_s, n_th_P)

    @property
    def markovian(self) -> bool:
        return self.tau_r == 0.0

    @property
    def variance_scale(self) -> float:
        """s^2 = 2 g^2 / (gamma0 gammaP): quadrature variance per (n_avg + 1/2).

        NumericsError when it is outside the float range (see _noise_scale).
        """
        return _noise_scale(
            "noise scale s^2 = 2 g^2/(gamma0 gammaP)",
            lambda: 2.0 * self.g**2 / (self.gamma0 * self.gammaP),
            g=self.g, gamma0=self.gamma0, gammaP=self.gammaP,
        )

    @property
    def n_avg(self) -> float:
        """Mean occupancy of the signal and idler baths."""
        return 0.5 * (self.n_th_i + self.n_th_s)

    @property
    def thermal_variance(self) -> float:
        """s^2 (n_avg + 1/2): the unit of the normalized quadrature variances."""
        return self.variance_scale * (self.n_avg + 0.5)

    @property
    def pump_noise_power(self) -> float:
        """White-noise power per pump quadrature, 2 g^2 / gamma0^2 gammaP (n_th_P + 1/2).

        NumericsError when it is outside the float range (see _noise_scale).
        """
        return _noise_scale(
            "pump noise power 2 g^2/gamma0^2 gammaP (n_th_P + 1/2)",
            lambda: 2.0 * self.g**2 / self.gamma0**2 * self.gammaP * (self.n_th_P + 0.5),
            g=self.g, gamma0=self.gamma0, gammaP=self.gammaP, n_th_P=self.n_th_P,
        )

    @property
    def timescales(self) -> tuple[float, float]:
        """(fastest, slowest) of the pump time 2/gammaP, 1/gamma0 and a nonzero tau_r."""
        scales = [2.0 / self.gammaP, 1.0 / self.gamma0]
        if self.tau_r > 0:
            scales.append(self.tau_r)
        return min(scales), max(scales)

    def replace(self, **changes) -> "SystemParams":
        """Copy with fields replaced (derived fields recomputed); kappa sets tau_r."""
        kappa = changes.pop("kappa", None)
        if kappa is not None:
            changes["tau_r"] = _tau_r_of(changes.get("gamma0", self.gamma0), kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowPumpWarning)
            return dataclasses.replace(self, **changes)


def _noise_scale(name: str, compute, **inputs: float) -> float:
    """compute(), a noise scale of valid parameters, when it is a positive
    finite float.  Otherwise NumericsError naming the scale and the inputs
    it is computed from: float ** raises OverflowError past the float range,
    a denominator can underflow to 0, and a product can overflow to inf or
    underflow to 0.  A scale in range is compute()'s value bit for bit.
    """
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.inf
    if 0.0 < value < math.inf:
        return value
    given = ", ".join(f"{k} = {v:.3e}" for k, v in inputs.items())
    raise NumericsError(f"{name} is {value:.3e}, outside the float range, at {given}")


def _caller_level() -> int:
    """warnings.warn stacklevel, for a call made here, of the first frame
    outside this module.  The dataclass-generated __init__ runs in this
    module's globals, so it is skipped with from_kappa and __post_init__."""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    return level


def _check_gamma0(gamma0: float) -> None:
    if not (gamma0 > 0):
        raise NonPositiveRate(
            f"gamma0 must be > 0, got {gamma0}", [("gamma0", "must be strictly positive")]
        )


def kappa_of(gamma0: float, tau_r: float) -> float:
    """kappa = 1/(gamma0 tau_r); tau_r = 0 gives the Markovian kappa = inf."""
    _check_gamma0(gamma0)
    msg = _tau_r_violation(tau_r, gamma0)
    if msg:
        raise NonPositiveRate(f"tau_r: {msg}", [("tau_r", msg)])
    return math.inf if tau_r == 0.0 else 1.0 / (gamma0 * tau_r)


def _tau_r_of(gamma0: float, kappa: float) -> float:
    """Memory time for kappa = 1/(gamma0 tau_r); kappa = inf gives tau_r = 0."""
    _check_gamma0(gamma0)
    if not (kappa > 0):
        raise NonPositiveRate(
            f"kappa must be > 0, got {kappa}", [("kappa", "must be strictly positive")]
        )
    _check_memory_time(gamma0, kappa)
    return 0.0 if math.isinf(kappa) else 1.0 / (gamma0 * kappa)


def _tau_r_violation(tau_r: float, gamma0: float) -> str | None:
    """The rule a memory time breaks, or None when it is finite and >= 0 and,
    if positive, kappa = 1/(gamma0 tau_r) is finite (checked for gamma0 > 0)."""
    if not (0.0 <= tau_r < math.inf):
        return f"must be non-negative and finite, got {tau_r}"
    if tau_r > 0 and gamma0 > 0 and _no_memory_time(gamma0, tau_r):
        return f"so small that kappa = 1/(gamma0*tau_r) overflows, got {tau_r}"
    return None


def _no_memory_time(gamma0: float, kappa: float) -> bool:
    """True unless tau_r = 1/(gamma0 kappa) is a finite float >= 0: kappa <= 0
    or NaN, or a kappa so small that tau_r overflows.  The relation is
    symmetric, so with tau_r in place of kappa it tells whether kappa overflows."""
    rate = gamma0 * kappa
    return not (rate > 0) or math.isinf(1.0 / rate)


def _check_memory_time(gamma0: float, kappa: float, error=NonPositiveRate) -> None:
    """Raise error for a kappa > 0 so small that tau_r = 1/(gamma0 kappa) overflows."""
    if _no_memory_time(gamma0, kappa):
        raise error(
            f"kappa = {kappa} is too small: tau_r = 1/(gamma0*kappa) overflows",
            [("kappa", "tau_r = 1/(gamma0 kappa) must be finite")],
        )


def _collect_violations(p) -> list[tuple[str, str, str]]:
    """Return (kind, field, message) triples; empty when the set is valid."""
    out = []
    for name in ("gamma0", "gammaP", "g"):
        v = getattr(p, name)
        if not (v > 0) or math.isinf(v) or math.isnan(v):
            out.append(("rate", name, f"must be strictly positive and finite, got {v}"))
    msg = _tau_r_violation(p.tau_r, p.gamma0)
    if msg:
        out.append(("rate", "tau_r", msg))
    if not (0.0 <= p.mu < math.inf):
        out.append(("drive", "mu", f"must be non-negative and finite, got {p.mu}"))
    for name in ("n_th_i", "n_th_s", "n_th_P"):
        v = getattr(p, name)
        if not (0.0 <= v < math.inf):
            out.append(("occupancy", name, f"must be non-negative and finite, got {v}"))
    rates_ok = not any(f in ("gamma0", "gammaP") for _, f, _ in out)
    if rates_ok and p.gammaP < MIN_PUMP_RATIO * p.gamma0:
        out.append(
            (
                "pump",
                "gammaP",
                f"must be at least {MIN_PUMP_RATIO}*gamma0 = {MIN_PUMP_RATIO * p.gamma0}, got {p.gammaP}",
            )
        )
    return out
