"""Small-noise backward-equation approximation with parameter learning.

The forward state follows a one-dimensional diffusion whose drift depends on
an unknown parameter; the quantity of interest is the solution pair of the
associated backward equation.  The package estimates the parameter from the
early segment of a single observed path (minimum-distance pilot, then a
one-step likelihood correction running in time), plugs the running estimate
into the value function, and measures how close the resulting approximation
comes to the small-noise efficiency bounds.
"""

from .bsde import (BsdeApproximation, ResidualDecomposition, approximate_bsde,
                   efficiency_bounds, residual_decomposition)
from .errors import (ConfigurationError, DiagnosticError, DomainError,
                     EvaluationError, ExperimentAbortedError,
                     FlatObjectiveError, IntegrationDivergedError,
                     ModelValidationError, PdeDivergenceError,
                     SimulationDivergedError, SingularInformationError,
                     SnbsdeError)
from .estimation import (EstimateTrace, EstimationWindow, fisher_information,
                         full_mle, mde_asymptotic_variance, mde_estimate,
                         one_step_mle, onestep_trace)
from .experiment import (ExperimentConfig, ExperimentReport, NormalityReport,
                         StudyReport, normality_diagnostics, run_monte_carlo,
                         shrinking_window_study)
from .grids import NoiseSource, Path, TimeGrid, window_grid
from .models import ModelSpec, simulate_forward, solve_limit_ode, validate_model
from .pde import (PdeGrid, PdeSolution, PdeValueFunction, default_domain,
                  eval_solution, solve_semilinear_pde,
                  theta_derivatives_by_bundle)
from .presets import MODEL_NAMES, TERMINALS, ModelBundle, build_preset
from .value_functions import (LinearModelSpec, LinearValueFunction,
                              TerminalCondition, characteristics_limit_value,
                              gauss_hermite_expectation)

__version__ = "0.1.0"

__all__ = [
    "BsdeApproximation", "ResidualDecomposition", "approximate_bsde",
    "efficiency_bounds", "residual_decomposition",
    "ConfigurationError", "DiagnosticError", "DomainError", "EvaluationError",
    "ExperimentAbortedError", "FlatObjectiveError", "IntegrationDivergedError",
    "ModelValidationError", "PdeDivergenceError", "SimulationDivergedError",
    "SingularInformationError", "SnbsdeError",
    "EstimateTrace", "EstimationWindow", "fisher_information", "full_mle",
    "mde_asymptotic_variance", "mde_estimate", "one_step_mle", "onestep_trace",
    "ExperimentConfig", "ExperimentReport", "NormalityReport", "StudyReport",
    "normality_diagnostics", "run_monte_carlo", "shrinking_window_study",
    "NoiseSource", "Path", "TimeGrid", "window_grid",
    "ModelSpec", "simulate_forward", "solve_limit_ode", "validate_model",
    "PdeGrid", "PdeSolution", "PdeValueFunction", "default_domain",
    "eval_solution", "solve_semilinear_pde", "theta_derivatives_by_bundle",
    "MODEL_NAMES", "TERMINALS", "ModelBundle", "build_preset",
    "LinearModelSpec", "LinearValueFunction", "TerminalCondition",
    "characteristics_limit_value", "gauss_hermite_expectation",
    "__version__",
]
