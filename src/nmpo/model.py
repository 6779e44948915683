"""System parameters and the exponential memory kernel.

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

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NegativeOccupancy,
    NonPositiveRate,
    ParameterError,
    PumpNotFast,
    SlowPumpWarning,
)

# Pump must be at least this many times faster than the signal decay.
MIN_PUMP_RATIO = 10.0
# Below this ratio the adiabatic (instantaneous-pump) formulas degrade.
ADIABATIC_PUMP_RATIO = 100.0


@dataclass(frozen=True)
class MemoryKernel:
    """Exponential damping kernel with total weight gamma0."""

    gamma0: float
    tau_r: float  # 0 means exact Markovian (delta kernel)

    def __post_init__(self):
        if not (self.gamma0 > 0):
            raise NonPositiveRate(
                f"gamma0 must be > 0, got {self.gamma0}",
                [("gamma0", "must be strictly positive")],
            )
        if self.tau_r < 0:
            raise NonPositiveRate(
                f"tau_r must be >= 0, got {self.tau_r}",
                [("tau_r", "must be non-negative")],
            )


def kernel_freq(kernel: MemoryKernel, omega):
    """Fourier transform gamma~(omega) = gamma0 / (1 - i*omega*tau_r).

    Markovian limit (tau_r = 0) is flat: gamma0 for every omega.  Satisfies
    gamma~(-omega) = conj(gamma~(omega)) and gamma~(0) = integral of the
    time-domain kernel.
    """
    om = np.asarray(omega, dtype=float)
    out = kernel.gamma0 / (1.0 - 1j * om * kernel.tau_r)
    if np.ndim(omega) == 0:
        return complex(out)
    return out


@dataclass(frozen=True)
class SystemParams:
    """Validated parameter set for the driven two-mode system.

    kappa and F_cr are derived on construction.  Use from_kappa() to specify
    the memory through kappa instead of tau_r.  Validation raises the most
    specific ParameterError subclass for the first violation found, with the
    full violation list attached.
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
                stacklevel=2,
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
    def kernel(self) -> MemoryKernel:
        return MemoryKernel(self.gamma0, self.tau_r)

    @property
    def markovian(self) -> bool:
        return self.tau_r == 0.0

    def replace(self, **changes) -> "SystemParams":
        """Copy with fields replaced (derived fields recomputed)."""
        values = dict(
            gamma0=self.gamma0,
            gammaP=self.gammaP,
            tau_r=self.tau_r,
            g=self.g,
            mu=self.mu,
            n_th_i=self.n_th_i,
            n_th_s=self.n_th_s,
            n_th_P=self.n_th_P,
        )
        kappa = changes.pop("kappa", None)
        values.update(changes)
        if kappa is not None:
            values["tau_r"] = _tau_r_of(values["gamma0"], kappa)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SlowPumpWarning)
            return SystemParams(**values)


def _check_gamma0(gamma0: float) -> None:
    if not (gamma0 > 0):
        raise NonPositiveRate(
            f"gamma0 must be > 0, got {gamma0}", [("gamma0", "must be strictly positive")]
        )


def kappa_of(gamma0: float, tau_r: float) -> float:
    """kappa = 1/(gamma0 tau_r); tau_r = 0 gives the Markovian kappa = inf."""
    _check_gamma0(gamma0)
    return math.inf if tau_r == 0.0 else 1.0 / (gamma0 * tau_r)


def _tau_r_of(gamma0: float, kappa: float) -> float:
    """Memory time for kappa = 1/(gamma0 tau_r); kappa = inf gives tau_r = 0."""
    _check_gamma0(gamma0)
    if not (kappa > 0):
        raise NonPositiveRate(
            f"kappa must be > 0, got {kappa}", [("kappa", "must be strictly positive")]
        )
    return 0.0 if math.isinf(kappa) else 1.0 / (gamma0 * kappa)


def _collect_violations(p) -> list[tuple[str, str, str]]:
    """Return (kind, field, message) triples; empty when the set is valid."""
    out = []
    for name in ("gamma0", "gammaP", "g"):
        v = getattr(p, name)
        if not (v > 0) or math.isinf(v) or math.isnan(v):
            out.append(("rate", name, f"must be strictly positive and finite, got {v}"))
    if p.tau_r < 0 or math.isnan(p.tau_r):
        out.append(("rate", "tau_r", f"must be non-negative, got {p.tau_r}"))
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
