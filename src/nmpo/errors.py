"""Exception hierarchy shared by all modules.

Two families: ParameterError for rejected inputs (bad physical parameters,
malformed parameter files, inconsistent solver configuration) and
NumericsError for failures of a numerical procedure on otherwise valid
input (bracketing, eigensolver breakdown, singular response, ...).
CLI maps ParameterError -> exit 2, NumericsError -> exit 3, I/O -> exit 4.
"""

from __future__ import annotations


class ParameterError(ValueError):
    """Invalid physical or configuration input.

    ``violations`` is a list of (field, message) pairs so callers can report
    every problem at once instead of the first one hit.
    """

    def __init__(self, message: str, violations: list[tuple[str, str]] | None = None):
        super().__init__(message)
        self.violations = violations if violations is not None else []


class NonPositiveRate(ParameterError):
    """A rate or timescale that must be strictly positive is not."""


class NegativeOccupancy(ParameterError):
    """A thermal occupancy is negative."""


class PumpNotFast(ParameterError):
    """Pump decay rate below the minimum ratio to the signal decay rate."""


class SlowPumpWarning(UserWarning):
    """Pump is fast enough to be valid but too slow for adiabatic formulas."""


class NumericsError(RuntimeError):
    """A numerical procedure failed on valid input."""


class InconsistentSteadyState(NumericsError):
    """Stationarity residual of a supplied steady state exceeds tolerance."""


class EigensolverFailure(NumericsError):
    """Dense eigensolver did not converge or returned non-finite values."""


class BracketFailure(NumericsError):
    """Root bracketing failed: no sign change over the search interval."""


class SingularAtFrequency(NumericsError):
    """Response matrix is numerically singular at the requested frequency."""


class OutOfRegime(ParameterError):
    """Closed-form result requested outside its regime of validity."""


class StepOverflow(NumericsError):
    """Stochastic integration produced non-finite state."""


class InsufficientSamples(ParameterError):
    """Too few samples or trajectories for the requested estimator."""


class NonStationary(NumericsError):
    """Sampled time series failed the stationarity consistency check."""


def located(exc: Exception, where: str) -> Exception:
    """exc with where (a grid location) prefixed to its message.

    nmpo errors keep their class and violations, so the CLI exit code is
    unchanged; any other exception becomes a NumericsError.
    """
    message = f"{where}: {exc}"
    if isinstance(exc, ParameterError):
        return type(exc)(message, exc.violations)
    if isinstance(exc, NumericsError):
        return type(exc)(message)
    return NumericsError(message)
