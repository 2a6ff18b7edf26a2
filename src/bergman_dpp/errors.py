"""Exception types shared across the package, and the one rule by which
arguments are checked: a count, index or seed must be a finite real equal
to an integer in range, a bounded real a finite real inside its interval,
an interval or bin an increasing pair of such reals, an array of reals
(of indices) a rectangular array whose every element passes as a bounded
real (as an integer in range), a list an iterable, a library object an
instance of its class, a generator anything with a random() method;
anything else raises the named error instead of escaping as a bare
TypeError, ValueError, AttributeError or OverflowError or being truncated
silently."""

import math

import numpy as np

__all__ = [
    "BergmanDPPError", "DomainError", "RegionError",
    "RejectionBudgetError", "OrthogonalizationError", "EnvelopeError",
]

# indices and truncation orders are int64 array entries: below 2**63
_INDEX_END = 1 << 63


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


def _as_pair(value, name: str, low=-math.inf, high=math.inf, error=DomainError, ends="()"):
    """value as an increasing pair (a, b) of floats, a in (low, high) and b in
    (a, high) as _as_real checks them (ends applies to a), else error."""
    try:
        a, b = value
    except (TypeError, ValueError):
        raise error(f"{name} {value!r} is not a pair of reals") from None
    a = _as_real(a, f"{name} inner radius", low, high, error, ends)
    return a, _as_real(b, f"{name} outer radius", a, high, error)


def _as_reals(values, name: str, low=0, high=math.inf, error=DomainError, ends="()"):
    """values (a real or an array of reals) as a float array, every element
    checked as _as_real checks one, else error; arrays of strings or objects
    and ragged sequences are not arrays of reals."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        arr = None
    if arr is not None and arr.ndim == 0:
        return np.array(_as_real(values, name, low, high, error, ends))
    if arr is None or arr.dtype.kind not in "biuf":
        raise error(f"{name} must be a real or an array of reals, got {values!r}")
    arr = arr.astype(float)
    above = low <= arr if ends[0] == "[" else low < arr
    below = arr <= high if ends[1] == "]" else arr < high
    bad = ~(above & below)
    if bad.any():
        _as_real(arr[bad].flat[0], name, low, high, error, ends)
    return arr


def _as_ints(values, name: str, minimum: int, maximum: int, error=DomainError):
    """values (an integer or an array of them) as a flat int64 array, every
    element checked as _as_int checks one (maximum at most 2**63), else
    error; arrays of strings or objects (an integer beyond uint64 among
    them) and ragged sequences are not arrays of integers."""
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise error(f"{name} must be an integer or an array of integers, got {values!r}")
    # a bool array does not compare with 2**63; True and False pass as 1 and 0
    arr = arr.ravel().astype(np.uint8 if arr.dtype.kind == "b" else arr.dtype)
    bad = (arr < minimum) | (arr >= maximum)
    if arr.dtype.kind == "f":
        bad |= ~np.isfinite(arr) | (arr != np.trunc(arr))
    if bad.any():
        _as_int(arr[bad][0].item(), name, minimum, maximum, error)
    return arr.astype(np.int64)


def _items(values, name: str, error=DomainError) -> list:
    """The items of an iterable as a list, each left for the caller's rule."""
    try:
        return list(values)
    except TypeError:
        raise error(f"{name} must be a sequence, got {values!r}") from None


def _of_type(value, kind, name: str, error=DomainError):
    """value if it is an instance of kind (a class or a tuple of them), else error."""
    if not isinstance(value, kind):
        want = " or ".join(k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise error(f"{name} must be a {want}, got {type(value).__name__}")
    return value


def _generator(rng, error=DomainError):
    """rng if it has a random() method, as numpy's Generator has, else error."""
    if not callable(getattr(rng, "random", None)):
        raise error(f"rng must be a random generator, got {type(rng).__name__}")
    return rng


def _elements(values, name: str, error=DomainError) -> list:
    """The elements of a scalar or a rectangular nested sequence as a flat
    list, each left for the caller's rule; a ragged sequence raises error."""
    try:
        return np.ravel(values).tolist()
    except (TypeError, ValueError):
        raise error(f"{name} must be a scalar or a rectangular array, got {values!r}") from None


def _truncation(beta, trace: float) -> int:
    """max(1, ceil(beta * trace)), beta checked as a positive finite real; a
    product that overflows to infinity is a DomainError, not an OverflowError."""
    n = _as_real(beta, "beta") * trace
    if not math.isfinite(n):
        raise DomainError(f"beta * trace = {beta} * {trace} is not finite")
    return max(1, math.ceil(n))
