"""Exception taxonomy and sentinel values shared across the package."""

__all__ = [
    "SurvquackError",
    "DomainError",
    "InfeasibleScenario",
    "NumericalError",
    "UnsupportedCensoring",
    "NotReachedError",
    "ValidationError",
    "NOT_REACHED",
]


class SurvquackError(Exception):
    """Base class for every package-specific failure."""


class DomainError(SurvquackError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class InfeasibleScenario(SurvquackError):
    """A scenario's constraints cannot be met by any parameter value."""


class NumericalError(SurvquackError):
    """An iterative numeric routine failed to converge or lost stability.

    Solver state relevant for a post-mortem is kept in ``diagnostics``.
    """

    def __init__(self, message, **diagnostics):
        super().__init__(message)
        self.diagnostics = diagnostics


class UnsupportedCensoring(SurvquackError):
    """Censored observations reached an operation defined only for complete data."""


class NotReachedError(SurvquackError):
    """A survival curve never falls to the requested probability level.

    ``arm`` names the offending arm when the failure comes from a two-arm
    summary (``"Rx"`` or ``"C"``), else None.
    """

    def __init__(self, message, arm=None):
        super().__init__(message)
        self.arm = arm


class ValidationError(SurvquackError):
    """Bad user input: unparseable files, impossible options, schema violations.

    ``details`` lists individual diagnostics (one per offending line or field).
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = list(details or [])


class _NotReachedType:
    """Sentinel for step-function estimates that never drop to the target level."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotReached"


NOT_REACHED = _NotReachedType()
