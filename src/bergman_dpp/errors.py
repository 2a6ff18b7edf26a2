"""Exception types shared across the package, and the one rule by which
arguments are checked: a count, index or seed must be a finite real equal
to an integer in range, a bounded real a finite real inside its interval,
an interval or bin a pair of such reals; anything else raises the named
error instead of escaping as a bare TypeError or OverflowError or being
truncated silently."""

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
        kind = {0: "a non-negative", 1: "a positive", -math.inf: "an"}.get(minimum, f"a >= {minimum}")
        below = "" if maximum is None else f" below {maximum}"
        raise error(f"{name} must be {kind} integer{below}, got {value}")
    return n


def _as_real(value, name: str, low=0, high=math.inf, error=DomainError, ends="()"):
    """value as a float in (low, high), else error; ends "(]" or "[]" closes an end."""
    try:
        # float() parses strings, which would let "0.5" pass for a number
        x = math.nan if isinstance(value, (str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    above = low <= x if ends[0] == "[" else low < x
    below = x <= high if ends[1] == "]" else x < high
    if not (above and below):
        if (low, high, ends) == (0, math.inf, "()"):
            want = "be positive and finite"
        else:
            want = f"lie in {ends[0]}{low}, {high}{ends[1]}"
        raise error(f"{name} must {want}, got {value}")
    return x


def _as_pair(value, name: str, low=-math.inf, error=DomainError, ends="()"):
    """value as a tuple of two floats, each checked by _as_real from low up, else error."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise error(f"{name} {value!r} is not a pair of reals") from None
    return tuple(_as_real(x, f"{name} endpoint", low, math.inf, error, ends) for x in (a, b))
