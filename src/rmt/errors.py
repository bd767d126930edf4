"""Exception types shared across the package."""


class RmtError(Exception):
    """Base class for all library errors."""


class ParameterError(RmtError, ValueError):
    """An argument is outside its documented domain."""


class DimensionError(ParameterError):
    """Matrix/vector shapes are inconsistent with the operation."""


class SingularityError(RmtError):
    """Evaluation requested at (or numerically on top of) a singular point."""


class DegeneracyError(RmtError):
    """Coincident eigenvalues make the requested weights ill-defined."""


class RegimeError(ParameterError):
    """The asymptotic regime required by the statistic does not hold."""
