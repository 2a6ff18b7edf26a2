"""Exception types shared across the package."""

__all__ = [
    "BergmanDPPError", "DomainError", "RegionError",
    "RejectionBudgetError", "OrthogonalizationError", "EnvelopeError",
]


class BergmanDPPError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BergmanDPPError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class RegionError(BergmanDPPError, ValueError):
    """A radial region or annulus-family specification violates an invariant."""


class RejectionBudgetError(BergmanDPPError, RuntimeError):
    """A rejection-sampling loop exceeded its proposal budget."""


class OrthogonalizationError(BergmanDPPError, RuntimeError):
    """Gram-Schmidt left a residual too small to normalize safely.

    Signals a numerically near-duplicate draw; the sampler aborts rather
    than renormalize silently.
    """


class EnvelopeError(BergmanDPPError, RuntimeError):
    """A proposal density exceeded its analytic rejection envelope."""
