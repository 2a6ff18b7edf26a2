"""regions.construct_family against its reference: a verbatim copy of the
nested-family construction in mpmath's binary arithmetic and of the family
branch of check_properties, as they were before the construction moved to
the standard library's decimal (only renamed here; the reference
construct_family also returns the precision it settled on).

Both evaluate the same correctly rounded +, -, *, / and square roots under
the same digit schedule, so they differ only in rounding residues far below
float64 resolution: everything a float64 reader sees must keep its bits,
and every endpoint must agree to 10**-(dps - 5) relative.
"""

import math
from typing import Union

import mpmath as mp
import pytest

from bergman_dpp import (
    FamilyBuild,
    FamilySpec,
    GeometricWeights,
    PropertyReport,
    RadialRegion,
    RegionError,
    check_properties,
    construct_family,
    make_region,
    region_measure,
)
from bergman_dpp.errors import _as_real, _of_type

DELTAS = (0.5, 1.0, 1e-3, 1e-17, 1e-20, 1e-30)


def reference_next_inner(b, spec: FamilySpec):
    # placement rule, evaluated at current mpmath precision
    import mpmath as mp
    if spec.rule == "midpoint":
        return (b + 1) / 2
    return b + mp.mpf(spec.theta) * (1 - b)


def reference_build_at_precision(spec: FamilySpec, dps: int):
    """One construction pass; returns None if the precision cannot resolve it."""
    import mpmath as mp
    with mp.workdps(dps):
        resolution = mp.mpf(10) ** (-(dps - 15))
        a = mp.mpf(spec.a0)
        b = mp.mpf(spec.b0)
        endpoints = [(a, b)]
        defects = []
        for k in range(spec.count - 1):
            u = mp.mpf(spec.weights.term(k))
            a_next = reference_next_inner(b, spec)
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


def reference_construct_family(spec: FamilySpec) -> tuple[FamilyBuild, int]:
    import mpmath as mp  # here, not at module level: the package loads numpy only
    spec = _of_type(spec, FamilySpec, "family spec", RegionError)
    base = 60 + 2 * spec.count
    built = None
    for dps in (base, 2 * base, 4 * base, 8 * base):
        built = reference_build_at_precision(spec, dps)
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
    ), dps


def reference_check_properties(
    obj: Union[RadialRegion, FamilySpec, FamilyBuild], delta: float
) -> PropertyReport:
    delta = _as_real(delta, "delta", 0, 1, ends="(]")
    obj = _of_type(obj, (RadialRegion, FamilySpec, FamilyBuild), "region")
    if isinstance(obj, FamilySpec):
        obj, _ = reference_construct_family(obj)

    if isinstance(obj, FamilyBuild):
        import mpmath as mp
        spec, endpoints = obj.spec, obj.endpoints
        threshold = mp.fsub(1, delta, exact=True)  # at 53 bits 1 - 1e-17 rounds to 1
        measure = float(mp.pi * mp.fsum((b - a) * (b + a) for a, b in endpoints))
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


def _midpoint(count):
    return FamilySpec(0.2, 0.3, GeometricWeights(0.1, 0.5), count)


def _offset(count):
    return FamilySpec(0.2, 0.3, GeometricWeights(0.05, 0.4), count, rule="offset", theta=0.3)


# contracts by 1e-3 a step: unresolved at 60 + 2 * 12 digits, resolved at twice that
NEEDS_DOUBLING = FamilySpec(0.2, 0.3, GeometricWeights(0.1, 0.5), 12, rule="offset", theta=0.999)
# contracts by 2**-52 a step: unresolved even at 8 * (60 + 2 * 40) digits
UNRESOLVABLE = FamilySpec(
    0.2, 0.3, GeometricWeights(0.1, 0.5), 40, rule="offset", theta=1.0 - 2.0**-52
)

SPECS = [rule(k) for k in (1, 2, 12, 50, 120, 200) for rule in (_midpoint, _offset)]


@pytest.mark.parametrize("spec", SPECS + [NEEDS_DOUBLING], ids=lambda s: s.literal())
def test_family_matches_the_mpmath_reference(spec):
    ref, dps = reference_construct_family(spec)
    build = construct_family(spec)
    assert build.region.intervals == ref.region.intervals
    assert build.dropped_intervals == ref.dropped_intervals
    assert build.materialized_trace == ref.materialized_trace
    assert build.dropped_trace == ref.dropped_trace
    assert build.residual_weight == ref.residual_weight
    assert len(build.endpoints) == len(ref.endpoints) == spec.count
    # the same digit schedule: no endpoint carries more than dps digits, and
    # a computed one carries exactly dps
    digits = [len(x.as_tuple().digits) for pair in build.endpoints for x in pair]
    assert max(digits) <= dps and (spec.count == 1 or max(digits) == dps)
    with mp.workdps(2 * dps):
        for pair, ref_pair in zip(build.endpoints, ref.endpoints):
            for x, y in zip(pair, ref_pair):
                assert abs(mp.mpf(str(x)) - y) <= mp.mpf(10) ** (5 - dps) * abs(y)
    for delta in DELTAS:
        assert check_properties(build, delta) == reference_check_properties(ref, delta), delta


def test_family_doubling_is_exercised():
    base = 60 + 2 * NEEDS_DOUBLING.count
    assert reference_build_at_precision(NEEDS_DOUBLING, base) is None
    assert reference_construct_family(NEEDS_DOUBLING)[1] == 2 * base


def test_unresolvable_family_raises_the_reference_error():
    with pytest.raises(RegionError) as ref:
        reference_construct_family(UNRESOLVABLE)
    with pytest.raises(RegionError) as new:
        construct_family(UNRESOLVABLE)
    assert str(new.value) == str(ref.value)
    assert "1120 digits" in str(new.value)  # 8 * (60 + 2 * 40)
