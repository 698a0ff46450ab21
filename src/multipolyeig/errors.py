"""Exception types raised by the solver pipeline."""

__all__ = [
    "MultiPolyEigError",
    "SingularMepError",
    "SingularPencilError",
    "ProjectionFailureError",
    "ParseError",
]


class MultiPolyEigError(Exception):
    """Base class for solver errors (as opposed to input validation errors)."""


class SingularMepError(MultiPolyEigError):
    """Operator-determinant solve requested on a numerically singular MEP."""


class SingularPencilError(MultiPolyEigError):
    """R(sigma), and with it A + sigma*B, is singular at every fixed shift:
    the pencil is singular."""


class ProjectionFailureError(MultiPolyEigError):
    """Projection did not reach the normal rank after the allowed redraws."""


class ParseError(ValueError):
    """A document violates the input schema; message names the offending field."""
