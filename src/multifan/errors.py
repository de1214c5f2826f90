"""Exception types shared across the library."""


class MultiFanError(Exception):
    """Base class for all library errors."""


class RankMismatch(MultiFanError):
    """Vector or matrix dimensions do not match the ambient rank."""


class EmptyFan(MultiFanError):
    """A multi-fan needs at least one top cone."""


class DependentRays(MultiFanError):
    """Edge vectors of a cone are linearly dependent."""


class InvalidFan(MultiFanError):
    """Structural defect in fan data (non-primitive ray, bad weight, ...)."""


class FaceNotInFan(MultiFanError):
    """The requested index set is not a face of the fan."""


class RayNotInterior(MultiFanError):
    """Subdivision ray is not strictly inside the target cone."""


class NonGenericVector(MultiFanError):
    """Vector lies on the span of some cone of positive codimension."""


class NonGenericPlane(MultiFanError):
    """Plane fails one of the genericity rank/pairing conditions."""


class SingularInput(MultiFanError):
    """Square input is singular, or rows fail to have full rank."""


class ConductorMismatch(MultiFanError):
    """Root-of-unity exponent does not live in the requested cyclotomic field."""


class DivisionByZero(MultiFanError, ZeroDivisionError):
    """Division by zero in exact scalar or series arithmetic."""


class NotRational(MultiFanError):
    """Cyclotomic number expected to be rational has nonzero higher coordinates."""


class SeriesWindowError(MultiFanError):
    """Requested coefficient lies outside the validity window of a series."""


class PoleResidueNonzero(MultiFanError):
    """Negative powers of t survive in a push-forward that should be polynomial."""


class RigidityViolation(MultiFanError):
    """Todd push-forward of a complete multi-fan is not constant in t."""


class PointOnWall(MultiFanError):
    """Evaluation point lies on a wall of the multi-polytope."""


class NotTCartier(MultiFanError):
    """Support class restricts to a non-integral vertex on some cone."""


class CrossCheckFailed(MultiFanError):
    """Two independent routes to the same number disagree, or an exact
    invariant of a computation fails."""


class BudgetExceeded(MultiFanError):
    """Input would take longer than a fixed work budget allows; the
    message names the size and the budget."""


class FanDocumentError(MultiFanError):
    """Fan document cannot be parsed; message carries the location."""
