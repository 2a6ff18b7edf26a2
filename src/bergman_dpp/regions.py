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
so construction and its invariant checks run in adaptive multi-precision
arithmetic; conversion to a float64 RadialRegion merges or drops intervals
narrower than one ulp and reports the trace mass lost that way.
"""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass
from typing import Union

import mpmath as mp

from .errors import DomainError, RegionError, _as_int, _as_pair, _as_real

__all__ = [
    "RadialRegion",
    "make_region",
    "disc",
    "annulus",
    "region_measure",
    "region_trace",
    "parse_region_literal",
    "GeometricWeights",
    "ExplicitWeights",
    "FamilySpec",
    "FamilyBuild",
    "construct_family",
    "family_trace_closed_form",
    "PropertyReport",
    "check_properties",
    "BoundaryRegion",
    "TraceCheck",
    "finite_trace_check",
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
        pairs = tuple(_as_pair(p, "interval", error=RegionError) for p in self.intervals)
        object.__setattr__(self, "intervals", pairs)
        prev_b = None
        for j, (a, b) in enumerate(self.intervals):
            if a < 0.0:
                raise RegionError(f"interval {j}: inner radius {a} < 0")
            if not a < b:
                raise RegionError(f"interval {j}: needs a < b strictly, got [{a}, {b}]")
            if prev_b is not None and not prev_b < a:
                raise RegionError(
                    f"interval {j}: ordering violated, previous outer radius {prev_b} "
                    f"is not strictly below inner radius {a}"
                )
            prev_b = b
        if self.intervals and not self.intervals[-1][1] < 1.0:
            raise RegionError(
                f"outer radius {self.intervals[-1][1]} must stay strictly below 1 "
                "(regions touching the unit circle have infinite trace)"
            )

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
    for pair in intervals:
        a, b = _as_pair(pair, "interval", error=RegionError)
        if cleaned and a == cleaned[-1][1]:
            # touching intervals are one interval
            if b <= a:
                raise RegionError(f"interval [{a}, {b}]: needs a < b strictly")
            cleaned[-1][1] = b
        else:
            cleaned.append([a, b])
    return RadialRegion(tuple((a, b) for a, b in cleaned))


def disc(radius: float) -> RadialRegion:
    """Centered disc of radius R, 0 < R < 1."""
    radius = _as_real(radius, "disc radius", 0, 1, RegionError)
    return RadialRegion(((0.0, radius),))


def annulus(inner: float, outer: float) -> RadialRegion:
    """Centered annulus r <= |z| <= R; inner = 0 reduces to the disc."""
    inner = _as_real(inner, "annulus inner radius", -math.inf, error=RegionError)
    outer = _as_real(outer, "annulus outer radius", -math.inf, error=RegionError)
    if inner < 0.0:
        raise RegionError(f"annulus inner radius must be >= 0, got {inner}")
    if not inner < outer:
        raise RegionError(f"annulus needs r < R strictly, got r={inner}, R={outer}")
    if not outer < 1.0:
        raise RegionError(f"annulus outer radius must stay below 1, got {outer}")
    return RadialRegion(((inner, outer),))


def region_measure(region: RadialRegion) -> float:
    """Lebesgue area: sum of pi * (b**2 - a**2) over the intervals."""
    return math.pi * sum((b - a) * (b + a) for a, b in region.intervals)


def region_trace(region: RadialRegion) -> float:
    """Trace of the Bergman kernel restricted to the region.

    Closed form sum of b**2/(1-b**2) - a**2/(1-a**2) per interval; equals
    the expected number of points of the restricted process.
    """
    return sum(_logit_sq(b) - _logit_sq(a) for a, b in region.intervals)


# ---------------------------------------------------------------------------
# nested annulus families


@dataclass(frozen=True)
class GeometricWeights:
    """Weights u_k = u0 * ratio**k with closed-form total and tails."""

    u0: float
    ratio: float

    def __post_init__(self):
        _as_real(self.u0, "geometric weight u0", error=RegionError)
        _as_real(self.ratio, "geometric ratio", 0, 1, RegionError)

    def term(self, k: int) -> float:
        return self.u0 * self.ratio**k

    def total(self) -> float:
        return self.u0 / (1.0 - self.ratio)

    def tail_from(self, k: int) -> float:
        return self.u0 * self.ratio**k / (1.0 - self.ratio)


@dataclass(frozen=True)
class ExplicitWeights:
    """Finite explicit weight list; the tail beyond the list is zero."""

    values: tuple[float, ...]

    def __post_init__(self):
        values = tuple(_as_real(v, "weight", error=RegionError) for v in self.values)
        object.__setattr__(self, "values", values)

    def term(self, k: int) -> float:
        if k >= len(self.values):
            raise RegionError(
                f"weight index {k} beyond explicit list of length {len(self.values)}"
            )
        return self.values[k]

    def total(self) -> float:
        return math.fsum(self.values)

    def tail_from(self, k: int) -> float:
        return math.fsum(self.values[k:])


Weights = Union[GeometricWeights, ExplicitWeights]

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
    weights: Weights
    count: int
    rule: str = "midpoint"
    theta: float | None = None

    def __post_init__(self):
        a0 = _as_real(self.a0, "family seed a0", 0, 1, RegionError)
        _as_real(self.b0, "family seed b0", a0, 1, RegionError)
        count = _as_int(self.count, "family count", 1, error=RegionError)
        object.__setattr__(self, "count", count)
        if self.rule not in _RULES:
            raise RegionError(f"unknown placement rule {self.rule!r}, expected one of {_RULES}")
        if self.rule == "offset":
            _as_real(self.theta, "offset rule theta", 0, 1, RegionError)
        elif self.theta is not None:
            raise RegionError("theta is only meaningful for the offset rule")
        if isinstance(self.weights, ExplicitWeights) and len(self.weights.values) < self.count - 1:
            raise RegionError(
                f"count={self.count} needs {self.count - 1} weights, explicit list has "
                f"{len(self.weights.values)}"
            )

    def contraction(self) -> float:
        """Per-step factor by which the gap to the unit circle shrinks."""
        return 0.5 if self.rule == "midpoint" else 1.0 - float(self.theta)

    def literal(self) -> str:
        if not isinstance(self.weights, GeometricWeights):
            raise RegionError("only geometric-weight families have a literal form")
        rule = self.rule if self.rule == "midpoint" else f"offset:{self.theta!r}"
        return (
            f"family:a0={self.a0!r},b0={self.b0!r},u0={self.weights.u0!r},"
            f"q={self.weights.ratio!r},K={self.count},rule={rule}"
        )


@dataclass(frozen=True)
class FamilyBuild:
    """A materialized family: float64 region plus exact-side diagnostics.

    endpoints holds the native multi-precision interval endpoints; the
    float64 region drops or merges intervals below one ulp and the trace
    mass lost that way is recorded in dropped_trace.
    residual_weight is the weight mass of the annuli beyond the horizon
    (count annuli consume weights u_0 .. u_{count-2}).
    """

    spec: FamilySpec
    region: RadialRegion
    endpoints: tuple[tuple[mp.mpf, mp.mpf], ...]
    materialized_trace: float
    residual_weight: float
    logit_defects: tuple[float, ...]
    dropped_intervals: int
    dropped_trace: float


def _next_inner(b, spec: FamilySpec):
    # placement rule, evaluated at current mpmath precision
    if spec.rule == "midpoint":
        return (b + 1) / 2
    return b + mp.mpf(spec.theta) * (1 - b)


def _build_at_precision(spec: FamilySpec, dps: int):
    """One construction pass; returns None if the precision cannot resolve it."""
    with mp.workdps(dps):
        resolution = mp.mpf(10) ** (-(dps - 15))
        a = mp.mpf(spec.a0)
        b = mp.mpf(spec.b0)
        endpoints = [(a, b)]
        defects = []
        for k in range(spec.count - 1):
            u = mp.mpf(spec.weights.term(k))
            a_next = _next_inner(b, spec)
            if not (b < a_next < 1):
                return None
            asq = a_next * a_next
            one_minus = 1 - asq
            bsq = (asq + u * one_minus) / (asq + (1 + u) * one_minus)
            b_next = mp.sqrt(bsq)
            if not (a_next < b_next < 1):
                return None
            # the trace increment of the new annulus must reproduce u exactly
            t_a = asq / one_minus
            t_b = b_next**2 / (1 - b_next**2)
            defects.append(abs(t_b - t_a - u))
            if (a_next - b) < resolution or (b_next - a_next) < resolution:
                return None
            a, b = a_next, b_next
            endpoints.append((a, b))
        trace = mp.fsum(
            bb**2 / (1 - bb**2) - aa**2 / (1 - aa**2) for aa, bb in endpoints
        )
        return tuple(endpoints), tuple(float(d) for d in defects), float(trace)


def construct_family(spec: FamilySpec) -> FamilyBuild:
    """Materialize the first count annuli of a nested family.

    Runs in adaptive multi-precision arithmetic because contracting rules
    shrink annuli roughly like u_n * gap_n**2, far below float64 ulps well
    before n = 50.  Strict interleaving and the per-step trace identity are
    certified on the native endpoints.
    """
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
    with mp.workdps(dps):
        dropped_trace = mp.mpf(0)
        for a, b in endpoints:
            fa, fb = float(a), float(b)
            if fb >= 1.0 or fa >= fb or (kept and fa <= kept[-1][1]):
                dropped += 1
                dropped_trace += b**2 / (1 - b**2) - a**2 / (1 - a**2)
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
    """Trace of the full infinite family: seed term plus the total weight.

    Raises for weight sequences without a closed-form total.
    """
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
        return asdict(self)


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

    if isinstance(obj, FamilySpec):
        obj = construct_family(obj)

    if isinstance(obj, FamilyBuild):
        spec = obj.spec
        thr = mp.mpf(1) - mp.mpf(delta)
        witness_index = None
        for j, (a, b) in enumerate(obj.endpoints):
            # [a, b] meets (1 - delta, 1) on (max(a, 1-delta), b], open iff b > 1 - delta
            if b > thr:
                witness_index = j
                break
        measure = float(
            mp.pi * mp.fsum((b - a) * (b + a) for a, b in obj.endpoints)
        )
        contraction = spec.contraction()
        gap0 = 1.0 - spec.b0
        if delta >= gap0:
            predicted = 0
        else:
            predicted = math.ceil(math.log(gap0 / delta) / math.log(1.0 / contraction))
        return PropertyReport(
            delta=delta,
            horizon=spec.count,
            witness_found=witness_index is not None,
            witness_index=witness_index,
            predicted_witness_index=predicted,
            measure=measure,
            measure_margin=math.pi - measure,
            rule_forces_boundary_contact=True,
        )

    if isinstance(obj, RadialRegion):
        witness_index = None
        for j, (a, b) in enumerate(obj.intervals):
            if b > 1.0 - delta:
                witness_index = j
                break
        measure = region_measure(obj)
        return PropertyReport(
            delta=delta,
            horizon=len(obj.intervals),
            witness_found=witness_index is not None,
            witness_index=witness_index,
            predicted_witness_index=None,
            measure=measure,
            measure_margin=math.pi - measure,
            rule_forces_boundary_contact=None,
        )

    raise DomainError(f"expected RadialRegion, FamilySpec or FamilyBuild, got {type(obj).__name__}")


@dataclass(frozen=True)
class BoundaryRegion:
    """Descriptor for a region known to contain every radius in [1 - eps, 1]."""

    eps: float

    def __post_init__(self):
        _as_real(self.eps, "boundary band width", 0, 1, ends="(]")


@dataclass(frozen=True)
class TraceCheck:
    finite: bool
    trace: float | None
    diagnostic: str

    def to_dict(self) -> dict:
        return asdict(self)


def finite_trace_check(obj: Union[RadialRegion, FamilySpec, BoundaryRegion]) -> TraceCheck:
    """Decide finiteness of the restricted trace from the region description.

    The trace is finite exactly when the region stays away from the unit
    circle in the trace sense; a region containing a full band [1 - eps, 1]
    has eigenvalues bounded below by 1 - (1 - eps)**(2n + 2), which sum to
    infinity.
    """
    if isinstance(obj, BoundaryRegion):
        return TraceCheck(
            finite=False,
            trace=None,
            diagnostic=(
                f"region contains every radius in [{1.0 - obj.eps}, 1]: eigenvalue n is "
                f"at least 1 - (1 - {obj.eps})**(2n+2), which tends to 1, so the "
                "eigenvalue series diverges"
            ),
        )
    if isinstance(obj, FamilySpec):
        total = family_trace_closed_form(obj)
        return TraceCheck(
            finite=True,
            trace=total,
            diagnostic=(
                "summable annulus weights: full-family trace "
                f"{total!r} = seed term + total weight {obj.weights.total()!r}"
            ),
        )
    if isinstance(obj, RadialRegion):
        t = region_trace(obj)
        outer = None if obj.is_empty else obj.outer_radius
        return TraceCheck(
            finite=True,
            trace=t,
            diagnostic=(
                f"finitely many intervals with outer radius {outer} < 1; "
                f"closed-form trace {t!r}"
            ),
        )
    raise DomainError(
        f"expected RadialRegion, FamilySpec or BoundaryRegion, got {type(obj).__name__}"
    )


# ---------------------------------------------------------------------------
# literals (shared with the CLI)

_FLOAT = r"(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
_INTERVAL_RE = re.compile(rf"^{_FLOAT}-{_FLOAT}$")


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
            fields: dict[str, str] = {}
            for token in rest.split(","):
                key, eq, value = token.partition("=")
                if not eq:
                    raise RegionError(f"malformed family field {token!r} in {text!r}")
                fields[key] = value
            missing = {"a0", "b0", "u0", "q", "K"} - fields.keys()
            if missing:
                raise RegionError(f"family literal missing fields {sorted(missing)}")
            rule = fields.get("rule", "midpoint")
            theta = None
            if rule.startswith("offset:"):
                theta = float(rule.split(":", 1)[1])
                rule = "offset"
            return FamilySpec(
                a0=float(fields["a0"]),
                b0=float(fields["b0"]),
                weights=GeometricWeights(float(fields["u0"]), float(fields["q"])),
                count=int(fields["K"]),
                rule=rule,
                theta=theta,
            )
    except RegionError:
        raise
    except (TypeError, ValueError) as exc:
        raise RegionError(f"malformed region literal {text!r}: {exc}") from exc
    raise RegionError(f"unknown region kind {kind!r} in literal {text!r}")
