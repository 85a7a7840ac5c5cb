"""Exception types shared by the nilcat modules."""

# Largest argument allowed into exp, cosh and sinh; float64 overflows just
# past 709.78.  Samplers raise RangeError beyond it.
ARG_MAX = 700.0


class NilcatError(Exception):
    """Base class for all nilcat errors."""


class DomainError(NilcatError, ValueError):
    """Parameters outside the admissible region (alpha <= 0, (alpha, theta)
    outside the open parameter set where the quartic stays positive, ...)."""


class RangeError(NilcatError, ValueError):
    """Requested evaluation would overflow (|A| beyond the cosh budget)."""


class ResolutionError(NilcatError, ValueError):
    """Grid or sample count too small for the requested operation, or a
    solver tolerance finer than the grid can support."""


class DegeneracyError(NilcatError, RuntimeError):
    """First fundamental form numerically degenerate at the sample point."""


class TransversalityError(NilcatError, RuntimeError):
    """Tangent plane vertical at the sample point; the Gauss map has no
    finite value there."""


class BracketError(NilcatError, RuntimeError):
    """A sign bracket guaranteed by the theory failed numerically.  This
    always indicates a bug or broken input, never a tolerance issue, so it
    aborts loudly."""


class QuadratureError(NilcatError, RuntimeError):
    """A quadrature whose value a result depends on did not reach its
    tolerance; its error estimate is in the message."""
