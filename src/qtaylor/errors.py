"""Exception hierarchy for the q-Taylor verification engine.

Every failure mode raised by the numerical layer derives from
:class:`QTaylorError`, so callers (in particular the suite runner) can
distinguish "the mathematics rejected this input" from genuine bugs.
"""


class QTaylorError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QTaylorError):
    """An input lies outside the mathematical domain of the operation."""


class TruncationFailure(QTaylorError):
    """A product/series has no geometric tail, or needs more terms than max_terms."""


class DivergenceSuspected(QTaylorError):
    """Successive series terms kept growing; the series looks divergent."""


class ZeroDenominator(QTaylorError):
    """A denominator q-shifted-factorial factor vanished (or nearly so)."""


class NearSingularPoint(QTaylorError):
    """Evaluation point too close to a singular point of a divided difference."""


class ExceptionalPoint(QTaylorError):
    """A cardinal denominator of the explicit iterated-operator formula is nearly zero."""


class PoleProximity(QTaylorError):
    """Evaluation point too close to a declared pole set."""


class ConvergenceRegionViolation(QTaylorError):
    """Parameters violate the convergence condition of a series evaluation."""


class QuadratureNonConvergence(QTaylorError):
    """Contour quadrature failed to stabilise under node doubling."""


class ConfigError(QTaylorError):
    """Invalid runner configuration."""
