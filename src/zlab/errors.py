"""Exception and warning taxonomy shared across the package.

Every failure a caller can act on gets its own class; the CLI maps them to
exit codes (validation -> 1, numerical -> 2, positivity -> 3, reality -> 4).
"""

from __future__ import annotations


class ZlabError(Exception):
    """Base class for all package errors."""


class InvalidSpec(ZlabError):
    """Parameter set violates a constructor precondition."""


class DomainError(ZlabError):
    """Argument outside a function's mathematical domain."""


class NonConvergence(ZlabError):
    """Iterative scheme exhausted its budget above tolerance."""


class NonFinite(ZlabError):
    """An integrand or intermediate produced nan/inf."""


class PoleProximity(ZlabError):
    """Evaluation point too close to a pole."""

    def __init__(self, message: str, pole: complex | None = None):
        super().__init__(message)
        self.pole = pole


class NonIntegrableTransform(ZlabError):
    """Characteristic function decays too slowly to invert."""


class NonSmoothPoint(ZlabError):
    """Finite-difference derivative failed its Richardson consistency check."""


class SeriesDivergence(ZlabError):
    """Power series still growing at the term cap."""


class PrecisionExhausted(ZlabError):
    """Requested accuracy exceeds the extended-precision budget."""


class BoundaryTooCloseToZero(ZlabError):
    """Contour passes through a region where |Z| is not resolvable."""


class NonIntegerResult(ZlabError):
    """Winding number landed too far from an integer."""


class InsufficientData(ZlabError):
    """Statistic requested from too small a sample."""


class RangeExceeded(ZlabError):
    """Argument outside the documented working range."""


class TruncationCapExceeded(ZlabError):
    """Series truncation bound cannot be met within the term cap."""


class StepTooCoarseWarning(UserWarning):
    """Two sign changes inside one scan step; the scan auto-refined."""


class MomentConvexityWarning(UserWarning):
    """Even-moment log-convexity violated beyond tolerance."""
