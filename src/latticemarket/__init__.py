"""Lattice-gas market model toolkit.

Simulates an Ising/lattice-gas market on a periodic hypercubic network,
evaluates the critical-dynamics predictions for return autocorrelations,
trend-strength variances and Hurst exponents, and runs the empirical
trend/regression pipeline that infers the network dimension and the
correlation time from return series.
"""

from .lattice import SpinLattice, new_lattice
from .dynamics import (
    CRITICAL_TEMPERATURE_2D,
    SimulationParams,
    MagnetizationSeries,
    glauber_flip_probability,
    run_simulation,
    magnetization_to_returns,
    binder_cumulant,
    autocorrelation_time,
)
from .trends import (
    ReturnSeries,
    TrendSeries,
    normalize_returns,
    normalize_raw_returns,
    trend_strength,
    adjacent_window_trends,
)
from .theory import (
    CriticalExponents,
    PropagatorModel,
    DomainError,
    PUBLISHED_EXPONENT_TABLE,
    critical_exponent_table,
    exponents_for_dimension,
    dimension_for_kappa,
    propagator,
    propagator_derivatives,
    predicted_return_autocorrelation,
    predicted_trend_return_correlation,
    predicted_trend_variance,
    predicted_adjacent_window_correlation,
    predicted_hurst,
)
from .stats import (
    RegressionReport,
    BootstrapResult,
    CrossValidationResult,
    ParabolicFit,
    ScalingFit,
    moment_sums,
    fit_cubic,
    bootstrap_errors,
    cross_validate,
    fit_parabolic_b,
    moment_scaling,
    fit_kappa,
    fractional_gaussian_noise,
    gaussian_process_from_propagator,
)

__version__ = "0.1.0"
