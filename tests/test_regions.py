import decimal
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from bergman_dpp import regions
from bergman_dpp import (
    DomainError,
    FamilySpec,
    GeometricWeights,
    RadialRegion,
    RegionError,
    annulus,
    check_properties,
    construct_family,
    disc,
    family_trace_closed_form,
    make_region,
    parse_region_literal,
    region_measure,
    region_trace,
)


# -----------------------------------------------------------------------------
# construction and validation
# -----------------------------------------------------------------------------
def test_disc_and_annulus_intervals():
    assert disc(0.8).intervals == ((0.0, 0.8),)
    assert annulus(0.5, 0.9).intervals == ((0.5, 0.9),)
    assert annulus(0.0, 0.7).intervals == ((0.0, 0.7),)


@pytest.mark.parametrize("bad", [0.0, 1.0, 1.5, -0.3])
def test_disc_radius_domain(bad):
    with pytest.raises(RegionError):
        disc(bad)


@pytest.mark.parametrize("r,big", [(0.5, 0.5), (0.9, 0.5), (-0.1, 0.5), (0.5, 1.0)])
def test_annulus_domain(r, big):
    with pytest.raises(RegionError):
        annulus(r, big)


def test_make_region_merges_touching():
    reg = make_region([(0.0, 0.3), (0.3, 0.5), (0.7, 0.8)])
    assert reg.intervals == ((0.0, 0.5), (0.7, 0.8))


def test_make_region_rejects_overlap_and_disorder():
    with pytest.raises(RegionError):
        make_region([(0.0, 0.5), (0.4, 0.6)])
    with pytest.raises(RegionError):
        make_region([(0.5, 0.6), (0.1, 0.2)])
    with pytest.raises(RegionError):
        make_region([(0.2, 0.2)])
    with pytest.raises(RegionError):
        make_region([(0.2, 1.0)])
    with pytest.raises(RegionError):
        make_region([(0.2, float("nan"))])


def test_empty_region():
    reg = make_region([])
    assert reg.is_empty
    assert region_measure(reg) == 0.0
    assert region_trace(reg) == 0.0 and isinstance(region_trace(reg), float)
    with pytest.raises(RegionError):
        reg.outer_radius


def test_contains():
    reg = make_region([(0.1, 0.2), (0.5, 0.6)])
    assert reg.contains_radius(0.15)
    assert reg.contains_radius(0.5)  # closed endpoints
    assert not reg.contains_radius(0.3)
    assert reg.contains_point(0.15j)
    assert not reg.contains_point(0.3 + 0.0j)


# -----------------------------------------------------------------------------
# measure and trace against quadrature oracles
# -----------------------------------------------------------------------------
def test_measure_oracle():
    from scipy.integrate import quad

    reg = make_region([(0.1, 0.3), (0.5, 0.85)])
    oracle = sum(quad(lambda r: 2.0 * math.pi * r, a, b)[0] for a, b in reg.intervals)
    assert region_measure(reg) == pytest.approx(oracle, abs=1e-12)


def test_trace_oracle():
    # trace = integral over the region of the kernel diagonal 1/(pi (1-r^2)^2)
    from scipy.integrate import quad

    reg = make_region([(0.1, 0.3), (0.5, 0.85)])
    oracle = sum(
        quad(lambda r: 2.0 * r / (1.0 - r * r) ** 2, a, b)[0] for a, b in reg.intervals
    )
    assert region_trace(reg) == pytest.approx(oracle, rel=1e-10)


def test_trace_disc_09_closed_form():
    assert region_trace(disc(0.9)) == pytest.approx(0.81 / 0.19, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_trace_disc_formula(r):
    assert region_trace(disc(r)) == pytest.approx(r * r / (1 - r * r), rel=1e-12)


# -----------------------------------------------------------------------------
# weights
# -----------------------------------------------------------------------------
def test_geometric_weights_identities():
    w = GeometricWeights(0.1, 0.5)
    assert w.total() == pytest.approx(0.2)
    assert w.tail_from(0) == w.total()
    # tail is the sum of all later terms
    assert w.tail_from(3) == pytest.approx(sum(w.term(k) for k in range(3, 200)), rel=1e-12)
    with pytest.raises(RegionError):
        GeometricWeights(0.1, 1.0)
    with pytest.raises(RegionError):
        GeometricWeights(-0.1, 0.5)


def test_largest_weights_keep_the_family_trace_finite():
    # the largest total the weights accept, with b0 just below 1: the seed
    # term is below 2**52, so the closed-form trace cannot round up to inf,
    # and a report never writes one
    largest = np.finfo(float).max
    w = GeometricWeights(largest / 2, 0.5)
    assert w.total() == largest
    spec = FamilySpec(a0=0.2, b0=math.nextafter(1.0, 0.0), weights=w, count=3)
    assert family_trace_closed_form(spec) == largest
    with pytest.raises(RegionError, match="total"):
        GeometricWeights(largest, 0.5)


# -----------------------------------------------------------------------------
# family construction
# -----------------------------------------------------------------------------
def test_family_spec_validation():
    w = GeometricWeights(0.1, 0.5)
    with pytest.raises(RegionError):
        FamilySpec(0.3, 0.2, w, 5)
    with pytest.raises(RegionError):
        FamilySpec(0.2, 0.3, w, 0)
    with pytest.raises(RegionError):
        FamilySpec(0.2, 0.3, w, 5, rule="nope")
    with pytest.raises(RegionError):
        FamilySpec(0.2, 0.3, w, 5, rule="offset")  # needs theta
    with pytest.raises(RegionError):
        FamilySpec(0.2, 0.3, w, 5, theta=0.5)  # theta only with offset


def test_family_interleaving_and_defects(midpoint_family):
    build = construct_family(midpoint_family)
    eps = build.endpoints
    assert len(eps) == midpoint_family.count
    # strict interleaving certified on the native endpoints
    for (a1, b1), (a2, b2) in zip(eps, eps[1:]):
        assert a1 < b1 < a2 < b2 < 1
    assert max(build.logit_defects) < 1e-12


def test_family_per_step_trace_increment(midpoint_family):
    # each annulus past the seed contributes exactly its weight to the trace;
    # recomputed here at high precision, independent of the build's own defects
    build = construct_family(midpoint_family)
    with mp.workdps(300):
        for k, (a, b) in enumerate(build.endpoints[1:]):
            a, b = mp.mpf(str(a)), mp.mpf(str(b))
            u = mp.mpf(midpoint_family.weights.term(k))
            inc = b**2 / (1 - b**2) - a**2 / (1 - a**2)
            assert abs(inc - u) < mp.mpf(10) ** -25


def test_family_trace_decomposition(midpoint_family):
    build = construct_family(midpoint_family)
    closed = family_trace_closed_form(midpoint_family)
    assert closed == pytest.approx(0.2572344322344322, abs=1e-13)
    assert build.materialized_trace + build.residual_weight == pytest.approx(
        closed, abs=1e-8
    )


def test_family_float64_export_reports_drops(midpoint_family):
    build = construct_family(midpoint_family)
    # intervals past ~step 18 are thinner than one ulp, so some must drop
    assert build.dropped_intervals > 0
    assert 0.0 < build.dropped_trace < build.materialized_trace
    # what is kept is a valid region
    assert not build.region.is_empty
    assert build.region.intervals[0] == (0.2, 0.3)
    # kept trace + dropped trace reproduces the native trace up to the effect
    # of rounding each kept endpoint to a double: one ulp moves the logit
    # coordinate r^2/(1-r^2) by about 2r/(1-r^2)^2 * ulp(r)
    kept = region_trace(build.region)
    budget = 1e-12
    for a, b in build.region.intervals:
        for r in (a, b):
            budget += 2.0 * r / (1.0 - r * r) ** 2 * np.spacing(r)
    assert abs(kept + build.dropped_trace - build.materialized_trace) <= budget


def test_family_offset_rule():
    spec = FamilySpec(0.2, 0.3, GeometricWeights(0.05, 0.4), 12, rule="offset", theta=0.3)
    assert spec.contraction() == pytest.approx(0.7)
    build = construct_family(spec)
    for (a1, b1), (a2, b2) in zip(build.endpoints, build.endpoints[1:]):
        assert a1 < b1 < a2 < b2 < 1
    assert max(build.logit_defects) < 1e-12


def test_family_explicit_weights_build():
    # a small family: the four weights it consumes plus the geometric tail
    # after them give the closed-form trace
    w = GeometricWeights(0.2, 0.5)
    spec = FamilySpec(0.2, 0.3, w, 5)
    build = construct_family(spec)
    assert len(build.endpoints) == 5 and len(build.region.intervals) == 5
    assert build.residual_weight == pytest.approx(w.tail_from(4))
    assert build.materialized_trace + build.residual_weight == pytest.approx(
        family_trace_closed_form(spec), abs=1e-8
    )


# -----------------------------------------------------------------------------
# qualitative properties
# -----------------------------------------------------------------------------
def test_check_properties_family(midpoint_family):
    rep = check_properties(midpoint_family, 0.01)
    assert rep.witness_found
    # gap halves each step: 0.7 * 0.5**7 < 0.01
    assert rep.predicted_witness_index == math.ceil(math.log(0.7 / 0.01) / math.log(2.0))
    assert rep.witness_index <= rep.predicted_witness_index
    assert rep.rule_forces_boundary_contact is True
    assert 0.0 < rep.measure < math.pi
    assert rep.measure_margin == pytest.approx(math.pi - rep.measure)


def test_check_properties_witness_beyond_float64(midpoint_family):
    # far below float64 resolution of 1 - b, still detected in native precision
    rep = check_properties(midpoint_family, 1e-14)
    assert rep.witness_found
    assert rep.witness_index <= rep.predicted_witness_index


@pytest.mark.parametrize("delta, index", [(1e-17, 56), (1e-20, 66), (1e-30, 100)])
def test_check_properties_witness_below_double_epsilon(delta, index):
    # 1 - delta rounds to 1.0 at 53 bits for delta below about 1.1e-16; the
    # threshold is taken exactly, so the endpoints that reach it still count
    spec = FamilySpec(0.2, 0.3, GeometricWeights(0.1, 0.5), 120)
    rep = check_properties(spec, delta)
    assert rep.witness_found
    assert rep.witness_index == rep.predicted_witness_index == index


def test_check_properties_family_ignores_mpmath_precision(midpoint_family):
    # the measure and the witnesses come from the build's endpoints alone,
    # not from mpmath's global working precision in the caller
    build = construct_family(midpoint_family)
    with mp.workdps(8):
        rep = check_properties(build, 1e-3)
    assert rep.measure == 0.2721548665551216
    assert rep == check_properties(build, 1e-3)


def test_family_ignores_the_callers_decimal_context(midpoint_family):
    # the construction runs in its own context: a caller's low precision,
    # directed rounding or extra traps change nothing and raise nothing
    deltas = (0.5, 1e-3, 1e-17, 1e-30)
    want = construct_family(midpoint_family)
    reports = [check_properties(want, d) for d in deltas]
    caller = decimal.Context(prec=5, rounding=decimal.ROUND_FLOOR, traps=[decimal.Inexact])
    with decimal.localcontext(caller):
        build = construct_family(midpoint_family)
        got = [check_properties(build, d) for d in deltas]
        from_spec = check_properties(midpoint_family, 1e-3)
    assert build == want
    assert got == reports and from_spec == reports[1]


def test_check_properties_region():
    rep = check_properties(disc(0.95), 0.1)
    assert rep.witness_found and rep.witness_index == 0
    rep = check_properties(disc(0.85), 0.1)
    assert not rep.witness_found
    assert rep.rule_forces_boundary_contact is None


def test_check_properties_delta_domain(midpoint_family):
    with pytest.raises(Exception):
        check_properties(midpoint_family, 0.0)
    with pytest.raises(Exception):
        check_properties(midpoint_family, 1.5)


@pytest.mark.parametrize("obj", ["disc:0.9", None, ((0.0, 0.9),)])
def test_check_properties_wrong_type(obj):
    with pytest.raises(DomainError, match="region must be a RadialRegion or FamilySpec or FamilyBuild"):
        check_properties(obj, 0.1)


def test_family_precision_ladder(monkeypatch):
    # construction climbs 60 + 2K digits, then twice, four and eight times as
    # many, until the annuli separate; offset:0.99 needs the second rung
    tried = []
    build = regions._build_at_precision

    def spy(spec, dps):
        tried.append(dps)
        return build(spec, dps)

    monkeypatch.setattr(regions, "_build_at_precision", spy)
    spec = parse_region_literal("family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=30,rule=offset:0.99")
    assert construct_family(spec).spec == spec
    assert tried == [120, 240]
    # a rule this close to 1 exhausts the ladder
    tried.clear()
    spec = parse_region_literal("family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=40,rule=offset:0.999999999999999")
    with pytest.raises(RegionError, match="even at 1120 digits"):
        construct_family(spec)
    assert tried == [140, 280, 560, 1120]


# -----------------------------------------------------------------------------
# literals round-trip
# -----------------------------------------------------------------------------
@pytest.mark.parametrize(
    "text",
    ["disc:0.8", "annulus:0.5:0.9", "intervals:0.1-0.2,0.4-0.5"],
)
def test_literal_roundtrip(text):
    reg = parse_region_literal(text)
    assert isinstance(reg, RadialRegion)
    assert parse_region_literal(reg.literal()).intervals == reg.intervals


def test_family_literal_roundtrip(midpoint_family):
    spec = parse_region_literal(midpoint_family.literal())
    assert spec == midpoint_family


@pytest.mark.parametrize(
    "bad",
    [
        "disc",
        "disc:2.0",
        "annulus:0.5",
        "intervals:0.1-0.2-0.3",
        "intervals:0.1,0.2",
        "family:a0=0.2,b0=0.3",
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=x",
        # a field without its value
        "family:a0",
        # an unknown field (a misspelled rule must not fall back to the
        # midpoint rule) or a repeated one (it must not silently win)
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rul=offset:0.3",
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,theta=0.3",
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,=1",
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,K=3",
        "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=5,rule=midpoint,rule=offset:0.3",
        "banana:0.5",
        "",
    ],
)
def test_literal_rejects_malformed(bad):
    with pytest.raises(RegionError):
        parse_region_literal(bad)


def test_offset_literal():
    text = "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=5,rule=offset:0.25"
    spec = parse_region_literal(text)
    assert spec.rule == "offset" and spec.theta == 0.25
    assert parse_region_literal(spec.literal()) == spec


# -----------------------------------------------------------------------------
# property-based sanity on the logit coordinate
# -----------------------------------------------------------------------------
@given(
    st.floats(min_value=0.01, max_value=0.98),
    st.floats(min_value=1e-4, max_value=0.5),
)
def test_annulus_trace_positive_and_monotone(a, width):
    b = min(a + width, 0.99)
    if b <= a:
        return
    t = region_trace(annulus(a, b))
    assert t > 0.0
    # widening the annulus can only increase the trace
    b2 = min(b + 0.005, 0.995)
    if b2 > b:
        assert region_trace(annulus(a, b2)) >= t
