"""Exception types shared across the package."""


class ZollfinsError(Exception):
    """Base class for all package errors."""


class ProfileError(ZollfinsError, ValueError):
    """Profile coefficients violate a construction invariant."""


class DomainError(ZollfinsError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class DegenerateMetricError(DomainError):
    """The surface metric degenerates at the requested point (a pole)."""


class PoleProximityError(DomainError):
    """Evaluation too close to a coordinate pole (sin r ~ 0)."""


class BandError(DomainError):
    """Latitude outside the band [r_c, pi - r_c] reachable by the geodesic."""


class QuadratureError(ZollfinsError, ArithmeticError):
    """A quadrature ladder was exhausted without reaching agreement."""


class StepFailureError(ZollfinsError, ArithmeticError):
    """An ODE integration or a phase inversion did not converge."""


class NoBracketError(ZollfinsError, ArithmeticError):
    """A ray solve ended on a curve point that is not on the ray's side.

    |h| < 1 brackets every ray solve on [0, pi], so the solve always ends at
    a sign change of the cross product; for a star-shaped indicatrix that
    point lies on the ray.  Signals a convexity violation of the profile.
    """


class ConvexityViolation(ZollfinsError, RuntimeError):
    """The indicatrix curve is not simple/convex.

    Carries a ``report`` attribute with the offending samples.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ChartExitError(ZollfinsError, RuntimeError):
    """A Finsler geodesic left the (R, Theta) chart.

    Carries the partial trace computed up to the chart boundary in the
    ``partial_trace`` attribute.
    """

    def __init__(self, message, partial_trace=None):
        super().__init__(message)
        self.partial_trace = partial_trace
