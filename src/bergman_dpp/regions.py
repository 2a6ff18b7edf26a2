"""Radial region algebra for the unit disc.

A radial region is {z in C : |z| in A} where A is a finite union of
disjoint closed intervals [a_j, b_j] with 0 <= a_0 < b_0 < a_1 < ... and
b_last < 1.  Keeping the outer radius strictly below 1 keeps the restricted
Bergman kernel trace class, so the restricted point process is almost
surely finite.

The module also builds nested annulus families that accumulate at the unit
circle while keeping the total trace finite: given summable positive
weights (u_n), each new annulus [a_{n+1}, b_{n+1}] starts beyond the
previous one (placement rule) and its outer radius solves

    b**2 / (1 - b**2) - a**2 / (1 - a**2) = u_n,

which makes the full-family trace  b_0**2/(1-b_0**2) - a_0**2/(1-a_0**2)
+ sum(u_n).  Under contracting placement rules successive annuli shrink
below float64 resolution after a few dozen steps (width ~ u_n * gap**2),
so construction and its invariant checks run in the standard library's
decimal arithmetic at adaptive precision, in a context of their own;
conversion to a float64 RadialRegion merges or drops intervals narrower
than one ulp and reports the trace mass lost that way.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from typing import Union

from .errors import _INDEX_END, RegionError, _as_int, _as_pair, _as_real, _items, _of_type

__all__ = [
    "RadialRegion",
    "make_region",
    "disc",
    "annulus",
    "region_measure",
    "region_trace",
    "parse_region_literal",
    "GeometricWeights",
    "FamilySpec",
    "FamilyBuild",
    "construct_family",
    "family_trace_closed_form",
    "PropertyReport",
    "check_properties",
]


def _logit_sq(r: float) -> float:
    # r**2 / (1 - r**2), the per-radius trace coordinate
    return r * r / ((1.0 - r) * (1.0 + r))


@dataclass(frozen=True)
class RadialRegion:
    """Finite union of closed radius intervals, strictly inside the unit disc.

    Construct through make_region / disc / annulus, which merge touching
    intervals and attach diagnostics; direct construction still validates.
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        # 0 <= a_0 < b_0 < a_1 < ... < b_last < 1, each endpoint bounded by the one before
        pairs, low, ends = [], 0, "[)"
        for j, pair in enumerate(_items(self.intervals, "intervals", RegionError)):
            pairs.append(_as_pair(pair, f"interval {j}", low, 1, RegionError, ends))
            low, ends = pairs[-1][1], "()"
        object.__setattr__(self, "intervals", tuple(pairs))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def outer_radius(self) -> float:
        if self.is_empty:
            raise RegionError("empty region has no outer radius")
        return self.intervals[-1][1]

    def contains_radius(self, r: float) -> bool:
        return any(a <= r <= b for a, b in self.intervals)

    def contains_point(self, z: complex) -> bool:
        return self.contains_radius(abs(z))

    def literal(self) -> str:
        """Literal form shared with the CLI: disc:R, annulus:r:R or intervals:..."""
        if len(self.intervals) == 1:
            a, b = self.intervals[0]
            if a == 0.0:
                return f"disc:{b!r}"
            return f"annulus:{a!r}:{b!r}"
        return "intervals:" + ",".join(f"{a!r}-{b!r}" for a, b in self.intervals)


def make_region(intervals) -> RadialRegion:
    """Build a RadialRegion, merging exactly-touching intervals first.

    Rejects unordered, overlapping, empty-width or out-of-range interval
    lists with a diagnostic naming the violated invariant.
    """
    cleaned: list[list[float]] = []
    for j, pair in enumerate(_items(intervals, "intervals", RegionError)):
        # a < b is checked here too: a reversed pair must not merge into a valid one
        a, b = _as_pair(pair, f"interval {j}", error=RegionError)
        if cleaned and a == cleaned[-1][1]:
            cleaned[-1][1] = b  # touching intervals are one interval
        else:
            cleaned.append([a, b])
    return RadialRegion(tuple((a, b) for a, b in cleaned))


def disc(radius: float) -> RadialRegion:
    """Centered disc of radius R, 0 < R < 1."""
    radius = _as_real(radius, "disc radius", 0, 1, RegionError)
    return RadialRegion(((0.0, radius),))


def annulus(inner: float, outer: float) -> RadialRegion:
    """Centered annulus r <= |z| <= R; inner = 0 reduces to the disc."""
    outer = _as_real(outer, "annulus outer radius", 0, 1, RegionError)
    inner = _as_real(inner, "annulus inner radius", 0, outer, RegionError, "[)")
    return RadialRegion(((inner, outer),))


def region_measure(region: RadialRegion) -> float:
    """Lebesgue area: sum of pi * (b**2 - a**2) over the intervals."""
    return math.pi * sum((b - a) * (b + a) for a, b in region.intervals)


def region_trace(region: RadialRegion) -> float:
    """Trace of the Bergman kernel restricted to the region.

    Closed form sum of b**2/(1-b**2) - a**2/(1-a**2) per interval; equals
    the expected number of points of the restricted process.
    """
    return sum((_logit_sq(b) - _logit_sq(a) for a, b in region.intervals), 0.0)


# ---------------------------------------------------------------------------
# nested annulus families


@dataclass(frozen=True)
class GeometricWeights:
    """Weights u_k = u0 * ratio**k with closed-form total and tails."""

    u0: float
    ratio: float

    def __post_init__(self):
        u0 = _as_real(self.u0, "geometric weight u0", error=RegionError)
        ratio = _as_real(self.ratio, "geometric ratio", 0, 1, RegionError)
        # so a family's trace is finite too: its seed term is below 2**52
        _as_real(u0 / (1.0 - ratio), "geometric weight total", error=RegionError)

    def term(self, k: int) -> float:
        k = _as_int(k, "geometric weight index", 0, _INDEX_END, RegionError)
        return self.u0 * self.ratio**k

    def total(self) -> float:
        return self.u0 / (1.0 - self.ratio)

    def tail_from(self, k: int) -> float:
        return self.term(k) / (1.0 - self.ratio)


_RULES = ("midpoint", "offset")


@dataclass(frozen=True)
class FamilySpec:
    """Specification of a nested annulus family.

    The seed annulus is [a0, b0].  Each later annulus starts at the point
    the placement rule picks inside (b_n, 1) and ends where its trace
    contribution equals the next weight.  count is the number of annuli to
    materialize, including the seed.
    """

    a0: float
    b0: float
    weights: GeometricWeights
    count: int
    rule: str = "midpoint"
    theta: float | None = None

    def __post_init__(self):
        a0 = _as_real(self.a0, "family seed a0", 0, 1, RegionError)
        _as_real(self.b0, "family seed b0", a0, 1, RegionError)
        _of_type(self.weights, GeometricWeights, "family weights", RegionError)
        import decimal
        # construct_family tries up to 8 * (60 + 2 * count) digits, which
        # a decimal context must hold
        count_end = (decimal.MAX_PREC // 8 - 60) // 2 + 1
        count = _as_int(self.count, "family count", 1, count_end, RegionError)
        object.__setattr__(self, "count", count)
        if self.rule not in _RULES:
            raise RegionError(f"unknown placement rule {self.rule!r}, expected one of {_RULES}")
        if self.rule == "offset":
            _as_real(self.theta, "offset rule theta", 0, 1, RegionError)
        elif self.theta is not None:
            raise RegionError("theta is only meaningful for the offset rule")

    def contraction(self) -> float:
        """Per-step factor by which the gap to the unit circle shrinks."""
        return 0.5 if self.rule == "midpoint" else 1.0 - float(self.theta)

    def literal(self) -> str:
        rule = self.rule if self.rule == "midpoint" else f"offset:{self.theta!r}"
        return (
            f"family:a0={self.a0!r},b0={self.b0!r},u0={self.weights.u0!r},"
            f"q={self.weights.ratio!r},K={self.count},rule={rule}"
        )


@dataclass(frozen=True)
class FamilyBuild:
    """A materialized family: float64 region plus exact-side diagnostics.

    endpoints holds the interval endpoints as decimal.Decimal pairs at the
    build's precision; the float64 region drops or merges intervals below
    one ulp and the trace mass lost that way is recorded in dropped_trace.
    residual_weight is the weight mass of the annuli beyond the horizon
    (count annuli consume weights u_0 .. u_{count-2}).
    """

    spec: FamilySpec
    region: RadialRegion
    endpoints: tuple[tuple[object, object], ...]  # decimal.Decimal pairs
    materialized_trace: float
    residual_weight: float
    logit_defects: tuple[float, ...]
    dropped_intervals: int
    dropped_trace: float


def _context(dps: int):
    # a fresh context at dps digits: the caller's decimal context (precision,
    # rounding, traps) never reaches the construction
    import decimal
    return decimal.Context(
        prec=dps,
        rounding=decimal.ROUND_HALF_EVEN,
        Emin=decimal.MIN_EMIN,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.InvalidOperation, decimal.DivisionByZero, decimal.Overflow],
    )


def _next_inner(b, spec: FamilySpec, ctx):
    # placement rule, evaluated in the construction's context
    from decimal import Decimal
    if spec.rule == "midpoint":
        return ctx.divide(ctx.add(b, 1), 2)
    return ctx.add(b, ctx.multiply(Decimal(spec.theta), ctx.subtract(1, b)))


def _logit_sq_at(r, ctx):
    # r**2 / (1 - r**2) in the construction's context
    sq = ctx.multiply(r, r)
    return ctx.divide(sq, ctx.subtract(1, sq))


def _build_at_precision(spec: FamilySpec, dps: int):
    """One construction pass; returns None if the precision cannot resolve it."""
    from decimal import Decimal  # floats convert exactly
    ctx = _context(dps)
    resolution = Decimal(f"1e{15 - dps}")
    a, b = Decimal(spec.a0), Decimal(spec.b0)
    endpoints = [(a, b)]
    defects = []
    for k in range(spec.count - 1):
        u = Decimal(spec.weights.term(k))
        a_next = _next_inner(b, spec, ctx)
        if not (b < a_next < 1):
            return None
        asq = ctx.multiply(a_next, a_next)
        one_minus = ctx.subtract(1, asq)
        num = ctx.add(asq, ctx.multiply(u, one_minus))
        bsq = ctx.divide(num, ctx.add(asq, ctx.multiply(ctx.add(1, u), one_minus)))
        b_next = ctx.sqrt(bsq)
        if not (a_next < b_next < 1):
            return None
        # the trace increment of the new annulus must reproduce u exactly
        t_a = ctx.divide(asq, one_minus)
        t_b = _logit_sq_at(b_next, ctx)
        defects.append(ctx.abs(ctx.subtract(ctx.subtract(t_b, t_a), u)))
        if ctx.subtract(a_next, b) < resolution or ctx.subtract(b_next, a_next) < resolution:
            return None
        a, b = a_next, b_next
        endpoints.append((a, b))
    trace = 0
    for aa, bb in endpoints:
        trace = ctx.add(trace, ctx.subtract(_logit_sq_at(bb, ctx), _logit_sq_at(aa, ctx)))
    return tuple(endpoints), tuple(float(d) for d in defects), float(trace)


def construct_family(spec: FamilySpec) -> FamilyBuild:
    """Materialize the first count annuli of a nested family.

    Runs in decimal arithmetic at adaptive precision (60 + 2 * count digits,
    doubled up to three times) because contracting rules shrink annuli
    roughly like u_n * gap_n**2, far below float64 ulps well before n = 50.
    Every step is one correctly rounded +, -, *, / or square root in a fresh
    context, so the result does not depend on the caller's decimal context.
    Strict interleaving and the per-step trace identity are certified on the
    native endpoints.
    """
    spec = _of_type(spec, FamilySpec, "family spec", RegionError)
    base = 60 + 2 * spec.count
    built = None
    for dps in (base, 2 * base, 4 * base, 8 * base):
        built = _build_at_precision(spec, dps)
        if built is not None:
            break
    if built is None:
        raise RegionError(
            "family construction could not be resolved even at "
            f"{8 * base} digits; the placement rule contracts too fast for count={spec.count}"
        )
    endpoints, defects, trace = built

    # float64 materialization: drop what the doubles cannot hold; the trace
    # accounting runs at build precision, the increments cancel to ~u_k
    kept: list[tuple[float, float]] = []
    dropped = 0
    ctx, dropped_trace = _context(dps), 0
    for a, b in endpoints:
        fa, fb = float(a), float(b)
        if fb >= 1.0 or fa >= fb or (kept and fa <= kept[-1][1]):
            dropped += 1
            increment = ctx.subtract(_logit_sq_at(b, ctx), _logit_sq_at(a, ctx))
            dropped_trace = ctx.add(dropped_trace, increment)
            continue
        kept.append((fa, fb))
    region = make_region(kept)

    return FamilyBuild(
        spec=spec,
        region=region,
        endpoints=endpoints,
        materialized_trace=trace,
        residual_weight=spec.weights.tail_from(spec.count - 1),
        logit_defects=defects,
        dropped_intervals=dropped,
        dropped_trace=float(dropped_trace),
    )


def family_trace_closed_form(spec: FamilySpec) -> float:
    """Trace of the full infinite family: seed term plus the total weight."""
    return _logit_sq(spec.b0) - _logit_sq(spec.a0) + spec.weights.total()


# ---------------------------------------------------------------------------
# qualitative diagnostics


@dataclass(frozen=True)
class PropertyReport:
    """Boundary-contact and area diagnostics for a region or family.

    witness_found is true when some materialized annulus overlaps the open
    band (1 - delta, 1) on a set with nonempty interior; measure_margin is
    pi minus the region area (how much of the unit disc's area is given up).
    """

    delta: float
    horizon: int
    witness_found: bool
    witness_index: int | None
    predicted_witness_index: int | None
    measure: float
    measure_margin: float
    rule_forces_boundary_contact: bool | None

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def check_properties(
    obj: Union[RadialRegion, FamilySpec, FamilyBuild], delta: float
) -> PropertyReport:
    """Report boundary contact within (1 - delta, 1) and the area margin.

    For a FamilySpec (built here) or a finished FamilyBuild the endpoints
    are checked in their native precision, so witnesses beyond float64
    resolution are still detected, and the geometric contraction of the
    placement rule yields a predicted witness step
    ceil(log(gap0 / delta) / log(1 / contraction)).
    """
    delta = _as_real(delta, "delta", 0, 1, ends="(]")
    obj = _of_type(obj, (RadialRegion, FamilySpec, FamilyBuild), "region")
    if isinstance(obj, FamilySpec):
        obj = construct_family(obj)

    if isinstance(obj, FamilyBuild):
        import decimal
        # at MAX_PREC digits a sum of two Decimals is exact, so the threshold
        # is 1 - delta itself (not 1.0 for delta below 1.1e-16) and each
        # float() below rounds only once
        exact = _context(decimal.MAX_PREC)
        spec, endpoints = obj.spec, obj.endpoints
        threshold = exact.subtract(1, decimal.Decimal(delta))
        measure = math.pi * math.fsum(
            float(exact.subtract(b, a)) * float(exact.add(b, a)) for a, b in endpoints
        )
        gap0 = 1.0 - spec.b0
        predicted = 0
        if delta < gap0:
            predicted = math.ceil(math.log(gap0 / delta) / math.log(1.0 / spec.contraction()))
        horizon, contact = spec.count, True
    else:
        endpoints, threshold = obj.intervals, 1.0 - delta
        measure, predicted = region_measure(obj), None
        horizon, contact = len(endpoints), None

    # [a, b] meets (1 - delta, 1) on (max(a, 1-delta), b], open iff b > 1 - delta
    witness = next((j for j, (_, b) in enumerate(endpoints) if b > threshold), None)
    return PropertyReport(
        delta=delta,
        horizon=horizon,
        witness_found=witness is not None,
        witness_index=witness,
        predicted_witness_index=predicted,
        measure=measure,
        measure_margin=math.pi - measure,
        rule_forces_boundary_contact=contact,
    )


# ---------------------------------------------------------------------------
# literals (shared with the CLI)

_FLOAT = r"(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
_INTERVAL_RE = re.compile(rf"^{_FLOAT}-{_FLOAT}$")
# every family field; all but the placement rule are required
_FAMILY_KEYS = ("a0", "b0", "u0", "q", "K", "rule")


def parse_region_literal(text: str) -> Union[RadialRegion, FamilySpec]:
    """Parse disc:R, annulus:r:R, intervals:a0-b0,... or family:k=v,... literals."""
    if not isinstance(text, str) or ":" not in text:
        raise RegionError(f"malformed region literal {text!r}")
    kind, _, rest = text.partition(":")
    try:
        if kind == "disc":
            return disc(float(rest))
        if kind == "annulus":
            r, _, big = rest.partition(":")
            if not big:
                raise RegionError(f"annulus literal needs two radii, got {text!r}")
            return annulus(float(r), float(big))
        if kind == "intervals":
            if rest == "":
                return make_region([])
            pairs = []
            for token in rest.split(","):
                m = _INTERVAL_RE.match(token)
                if m is None:
                    raise RegionError(f"malformed interval token {token!r} in {text!r}")
                pairs.append((float(m.group(1)), float(m.group(2))))
            return make_region(pairs)
        if kind == "family":
            given: dict[str, str] = {}
            for token in rest.split(","):
                key, eq, value = token.partition("=")
                if not eq:
                    raise RegionError(f"malformed family field {token!r} in {text!r}")
                if key in given or key not in _FAMILY_KEYS:
                    what = "repeated" if key in given else "unknown"
                    raise RegionError(f"{what} family field {key!r} in {text!r}")
                given[key] = value
            missing = set(_FAMILY_KEYS[:-1]) - given.keys()
            if missing:
                raise RegionError(f"family literal missing fields {sorted(missing)}")
            rule = given.get("rule", "midpoint")
            theta = None
            if rule.startswith("offset:"):
                theta = float(rule.split(":", 1)[1])
                rule = "offset"
            return FamilySpec(
                a0=float(given["a0"]),
                b0=float(given["b0"]),
                weights=GeometricWeights(float(given["u0"]), float(given["q"])),
                count=int(given["K"]),
                rule=rule,
                theta=theta,
            )
    except RegionError:
        raise
    except (TypeError, ValueError) as exc:
        raise RegionError(f"malformed region literal {text!r}: {exc}") from exc
    raise RegionError(f"unknown region kind {kind!r} in literal {text!r}")
