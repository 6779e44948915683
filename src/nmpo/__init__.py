"""Driven two-mode system with a non-Markovian memory kernel.

Mean-field phase structure, linear response about the steady states,
frequency-resolved noise spectra with closed-form variances, logarithmic
negativity of the cross-quadrature state, and a full nonlinear stochastic
integrator with ensemble estimators.
"""

from .errors import (
    BracketFailure,
    EigensolverFailure,
    InconsistentSteadyState,
    InsufficientSamples,
    NegativeOccupancy,
    NonPositiveRate,
    NonStationary,
    NumericsError,
    OutOfRegime,
    ParameterError,
    PumpNotFast,
    SingularAtFrequency,
    SlowPumpWarning,
    StepOverflow,
)
from .linres import (
    EigenSpectrum,
    build_diffusion,
    build_embedded_matrix,
    disordered_eigenvalues_closed_form,
    eigenflow_sweep,
    eigenspectrum,
    exceptional_point_drive,
    locate_critical_drive,
    row_spectra,
)
from .meanfield import (
    Phase,
    SteadyRow,
    SteadyState,
    check_grid,
    classify_phase,
    critical_drive,
    frequency_shift,
    mode_amplitudes,
    phase_diagram,
    row_residuals,
    steady_row,
    steady_state,
    steady_state_branch,
    steady_state_residual,
)
from .model import SystemParams, kernel_freq
from .sde import (
    OrderParameterEstimate,
    SimConfig,
    Trajectory,
    estimate_order_parameters,
    estimate_quadrature_variances,
    integrate_ensemble,
    integrate_trajectory,
    lockstep_key,
)
from .spectra import (
    NegativityResult,
    SpectralData,
    VarianceReport,
    integrate_variances,
    log_negativity,
    negativity_map,
    negativity_occupancy_sweep,
    psd,
    susceptibility_at,
    variances_above_threshold_u1,
    variances_below_threshold,
    variances_u1xz2,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ParameterError", "NonPositiveRate", "NegativeOccupancy", "PumpNotFast",
    "OutOfRegime", "InsufficientSamples", "SlowPumpWarning", "NumericsError",
    "InconsistentSteadyState", "EigensolverFailure", "BracketFailure",
    "SingularAtFrequency", "StepOverflow", "NonStationary",
    # model
    "SystemParams", "kernel_freq",
    # meanfield
    "Phase", "SteadyState", "classify_phase", "critical_drive",
    "frequency_shift", "steady_state", "steady_state_branch",
    "mode_amplitudes", "steady_state_residual", "phase_diagram",
    "SteadyRow", "steady_row", "row_residuals", "check_grid",
    # linres
    "EigenSpectrum", "build_embedded_matrix", "build_diffusion",
    "eigenspectrum", "disordered_eigenvalues_closed_form",
    "exceptional_point_drive", "locate_critical_drive", "eigenflow_sweep",
    "row_spectra",
    # spectra
    "SpectralData", "VarianceReport", "NegativityResult", "susceptibility_at",
    "psd", "integrate_variances", "variances_below_threshold",
    "variances_above_threshold_u1", "variances_u1xz2", "log_negativity",
    "negativity_map", "negativity_occupancy_sweep",
    # sde
    "SimConfig", "Trajectory", "OrderParameterEstimate",
    "integrate_trajectory", "integrate_ensemble", "lockstep_key",
    "estimate_order_parameters", "estimate_quadrature_variances",
]
