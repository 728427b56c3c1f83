"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the experiment harness can count and report them separately instead of
aborting a whole Monte Carlo run on one bad replication.
"""


class SnbsdeError(Exception):
    """Base class for all package errors."""


class ModelValidationError(SnbsdeError):
    """A model's declared derivatives or bounds fail the spot checks."""


class IntegrationDivergedError(SnbsdeError):
    """Deterministic ODE integration produced a non-finite state."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class SimulationDivergedError(SnbsdeError):
    """A simulated path blew up past the guard threshold."""

    def __init__(self, message, node_index=None):
        super().__init__(message)
        self.node_index = node_index


class FlatObjectiveError(SnbsdeError):
    """Minimum-distance objective is flat on the window; theta unidentifiable."""


class SingularInformationError(SnbsdeError):
    """Information integral fell below the invertibility floor."""


class PdeDivergenceError(SnbsdeError):
    """Finite-difference solution became non-finite during time stepping."""


class DomainError(SnbsdeError):
    """Evaluation point lies outside the solver's rectangle."""


class EvaluationError(SnbsdeError):
    """A user-supplied function returned a non-finite value."""


class DiagnosticError(SnbsdeError):
    """A statistical diagnostic is degenerate (for example zero variance)."""


class ConfigurationError(SnbsdeError):
    """Invalid run configuration."""


class ExperimentAbortedError(SnbsdeError):
    """Too many replications failed for the summary statistics to be trusted."""
