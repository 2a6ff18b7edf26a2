"""Exception types shared across the package, and the one rule by which
arguments are checked: a count, index or seed must be a finite real equal
to an integer in range, a bounded real a finite real inside its interval;
anything else raises the named error instead of escaping as a bare
TypeError or OverflowError or being truncated silently."""

import math

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


def _as_int(value, name: str, minimum: int = 0, maximum: int | None = None, error=DomainError):
    """value as an int in [minimum, maximum), else error naming the argument."""
    try:
        n = int(value)
        ok = n == value and minimum <= n and (maximum is None or n < maximum)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        kind = {0: "non-negative", 1: "positive"}.get(minimum, f">= {minimum}")
        below = "" if maximum is None else f" below {maximum}"
        raise error(f"{name} must be a {kind} integer{below}, got {value}")
    return n


def _as_real(value, name: str, low=0, high=math.inf, error=DomainError, closed=False):
    """value as a float in (low, high), or in (low, high] when closed, else error."""
    try:
        # float() parses strings, which would let "0.5" pass for a number
        x = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (low < x <= high if closed else low < x < high):
        if (low, high) == (0, math.inf):
            want = "be positive and finite"
        else:
            want = f"lie in ({low}, {high}{']' if closed else ')'}"
        raise error(f"{name} must {want}, got {value}")
    return x
