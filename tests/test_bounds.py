import json
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import poisson

from bergman_dpp import (
    BergmanSpectrum,
    DomainError,
    GinibreSpectrum,
    build_bound_report,
    chernoff_lower,
    chernoff_upper,
    coincidence_probability,
    coupling_tail,
    default_bound_truncation,
    default_truncation,
    disc,
    region_trace,
    sufficiency_margin,
    truncation_constants,
    wasserstein_bound,
)


# -----------------------------------------------------------------------------
# constants
# -----------------------------------------------------------------------------
def test_constants_spot_values():
    n_r, g = truncation_constants(0.9)
    assert n_r == pytest.approx(0.81 / 0.19, abs=1e-14)
    assert g == pytest.approx(0.81 / 1.9, abs=1e-14)


def test_constants_match_trace():
    for r in (0.3, 0.5, 0.9, 0.99):
        n_r, _ = truncation_constants(r)
        assert n_r == pytest.approx(BergmanSpectrum.disc(r).trace(), abs=1e-12)


@given(st.floats(min_value=0.01, max_value=0.99))
def test_decay_rate_window(r):
    # g = R^2/(1+R) lies in (0, 1/2) on (0, 1)
    _, g = truncation_constants(r)
    assert 0.0 < g < 0.5


def test_decay_rate_near_one():
    # g increases in R and approaches 1/2; at 0.99 it is already above 0.492
    _, g = truncation_constants(0.99)
    assert g == pytest.approx(0.9801 / 1.99, abs=1e-14)
    assert 0.492 < g < 0.5
    gs = [truncation_constants(r)[1] for r in np.linspace(0.05, 0.995, 60)]
    assert all(x < y for x, y in zip(gs, gs[1:]))


def test_constants_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(DomainError):
            truncation_constants(bad)


# -----------------------------------------------------------------------------
# truncation and the exponential bound
# -----------------------------------------------------------------------------
def test_bound_truncation_is_the_sampler_rule():
    # bounds and the sampler share one truncation rule and one disc trace
    for r in np.linspace(0.001, 0.999, 97).tolist() + [1e-300, 0.9, 0.99, 0.999999]:
        spectrum = BergmanSpectrum.disc(r)
        assert truncation_constants(r)[0] == region_trace(disc(r))
        for beta in (1e-3, 0.5, 1.0, 2.0, 3.7, 5.0, 50.0):
            assert default_bound_truncation(r, beta) == default_truncation(spectrum, beta)


def test_default_bound_truncation():
    # beta * N_R = 2 * 4.263.. -> 9
    assert default_bound_truncation(0.9, 2.0) == 9
    assert default_bound_truncation(0.1, 0.5) == 1  # floor at one function
    with pytest.raises(DomainError):
        default_bound_truncation(0.9, -1.0)


def test_wasserstein_bound_spot():
    # N_R e^{-2 beta g} at (0.9, 2)
    expect = (0.81 / 0.19) * math.exp(-4.0 * 0.81 / 1.9)
    assert wasserstein_bound(0.9, 2.0) == pytest.approx(expect, rel=1e-14)
    assert wasserstein_bound(0.9, 2.0) == pytest.approx(0.7747204825, abs=1e-9)


def test_wasserstein_bound_decreasing_in_beta():
    vals = [wasserstein_bound(0.9, b) for b in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


# -----------------------------------------------------------------------------
# exact coupling tail
# -----------------------------------------------------------------------------
def test_coupling_tail_geometric_series():
    # sum_{k>N} R^{2k+2} summed directly
    for r, n in [(0.9, 9), (0.5, 3), (0.99, 40)]:
        direct = sum(r ** (2 * k + 2) for k in range(n + 1, n + 4000))
        assert coupling_tail(r, n) == pytest.approx(direct, rel=1e-12)


def test_coupling_tail_spot():
    assert coupling_tail(0.9, 9) == pytest.approx(0.9**22 / 0.19, rel=1e-14)
    assert coupling_tail(0.9, 9) == pytest.approx(0.518300, abs=5e-7)


def test_coupling_tail_full_tail_at_zero():
    for r in (0.3, 0.8):
        assert coupling_tail(r, 0) == pytest.approx(r**4 / (1 - r * r), rel=1e-14)


def test_coupling_tail_vanishes_with_n():
    vals = [coupling_tail(0.9, n) for n in (0, 10, 50, 200, 1000)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 1e-90


# -----------------------------------------------------------------------------
# exact coincidence probability
# -----------------------------------------------------------------------------
def test_coincidence_sandwich():
    # 1 - e^{-sum lam} <= 1 - prod(1 - lam) <= sum lam
    for r in (0.5, 0.7, 0.9, 0.99):
        for n in (0, 3, 9, 25):
            s = coupling_tail(r, n)
            p = coincidence_probability(r, n)
            assert -math.expm1(-s) - 1e-12 <= p <= s + 1e-12


def test_coincidence_against_direct_product():
    r, n = 0.9, 9
    lam = [r ** (2 * k + 2) for k in range(n + 1, n + 2000)]
    direct = 1.0 - float(np.prod([1.0 - l for l in lam]))
    assert coincidence_probability(r, n) == pytest.approx(direct, rel=1e-10)


def _one_array_coincidence(r, n):
    # every factor in one array: the expression the blocks must reproduce
    cap = 1e-12 * (1.0 - r) * (1.0 + r)
    k_stop = max(n, math.ceil((math.log(cap) / math.log(r) - 4.0) / 2.0))
    ks = np.arange(n + 1, k_stop + 1)
    return 0.0 - math.expm1(float(np.log1p(-(r ** (2.0 * ks + 2.0))).sum()))


def test_coincidence_bits_kept_within_one_block():
    for r in (0.5, 0.7, 0.9, 0.99, 0.999, 0.9999):
        for n in (0, 1, 9, 25, 1000, 60_000):
            got, want = coincidence_probability(r, n), _one_array_coincidence(r, n)
            # the sign too: an empty product gives +0.0
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), (r, n)


def test_coincidence_past_the_cutoff_is_positive_zero():
    # N at or beyond the 1e-12 cut-off leaves no factor: +0.0, never -0.0
    for r, n in ((0.5, 100), (0.9, 250)):
        p = coincidence_probability(r, n)
        assert math.copysign(1.0, p) == 1.0 and json.dumps(p) == "0.0", (r, n)


def test_coincidence_over_several_blocks():
    # about 1.3e6 factors, two blocks; the result is far from 0 and from 1
    r, n = 0.99999, 650_000
    ks = np.arange(n + 1, 2_000_000, dtype=float)
    direct = -math.expm1(math.fsum(np.log1p(-(r ** (2.0 * ks + 2.0))).tolist()))
    assert 0.05 < direct < 0.5
    assert coincidence_probability(r, n) == pytest.approx(direct, rel=1e-12)


def test_coincidence_stops_once_certain():
    # R = 1 - 1e-7 at N = 1: about 2.1e8 factors in 205 blocks, but the log
    # sum passes -40 in the first block, where -expm1 is already 1.0
    start = time.perf_counter()
    p = coincidence_probability(0.9999999, 1)
    elapsed = time.perf_counter() - start
    assert p == 1.0 and math.copysign(1.0, p) == 1.0
    assert elapsed < 1.0


def test_coincidence_near_one_raises_before_allocating():
    # R = 1 - 1e-9 needs about 2.4e10 factors, 190 GB as one array
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(DomainError, match="radius 0.999999999"):
            coincidence_probability(1 - 1e-9, 1)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0 and peak < 1 << 20


def test_coincidence_domain():
    with pytest.raises(DomainError):
        coincidence_probability(1.0, 5)
    with pytest.raises(DomainError):
        coincidence_probability(0.9, -1)


# -----------------------------------------------------------------------------
# Chernoff tails
# -----------------------------------------------------------------------------
def test_chernoff_formulas():
    m, c = 4.0, 0.5
    assert chernoff_lower(m, c) == pytest.approx(
        math.exp(-m * (c + (1 - c) * math.log(1 - c))), rel=1e-14
    )
    assert chernoff_upper(m, c) == pytest.approx(
        math.exp(-m * ((1 + c) * math.log(1 + c) - c)), rel=1e-14
    )


def test_chernoff_bounds_in_unit_interval():
    for m in (0.5, 4.0, 100.0):
        for c in (0.01, 0.5, 0.9):
            lo = chernoff_lower(m, c)
            up = chernoff_upper(m, c)
            assert 0.0 < lo <= 1.0
            assert 0.0 < up <= 1.0


def test_chernoff_upper_allows_large_c():
    assert chernoff_upper(4.0, 3.0) < chernoff_upper(4.0, 1.0)


def test_chernoff_domain():
    with pytest.raises(DomainError):
        chernoff_lower(4.0, 1.0)
    with pytest.raises(DomainError):
        chernoff_lower(4.0, 0.0)
    with pytest.raises(DomainError):
        chernoff_upper(4.0, 0.0)
    with pytest.raises(DomainError):
        chernoff_lower(0.0, 0.5)


@given(
    st.floats(min_value=0.1, max_value=200.0),
    st.floats(min_value=1e-3, max_value=0.999),
)
def test_chernoff_poisson_tail_dominance(m, c):
    # the bounds hold for a Poisson(m) count, the extreme determinantal case
    k_lo = math.floor((1.0 - c) * m)
    k_up = math.ceil((1.0 + c) * m)
    assert poisson.cdf(k_lo, m) <= chernoff_lower(m, c) + 1e-9
    assert poisson.sf(k_up - 1, m) <= chernoff_upper(m, c) + 1e-9


# -----------------------------------------------------------------------------
# sufficiency margin
# -----------------------------------------------------------------------------
def test_margin_spot_values():
    # 2N log(1-eps) - log(eps)
    assert sufficiency_margin(0.01, 100) == pytest.approx(
        200.0 * math.log1p(-0.01) - math.log(0.01), rel=1e-14
    )
    assert sufficiency_margin(0.01, 100) > 0.0
    assert sufficiency_margin(0.01, 10_000) < -190.0


def test_margin_sign_change():
    # crossing happens near N = -log(eps) / (2 log(1/(1-eps)))
    eps = 0.01
    crit = -math.log(eps) / (-2.0 * math.log1p(-eps))
    n = math.floor(crit)
    assert sufficiency_margin(eps, n) > 0.0
    assert sufficiency_margin(eps, n + 1) < 0.0


def test_margin_domain():
    with pytest.raises(DomainError):
        sufficiency_margin(0.0, 10)
    with pytest.raises(DomainError):
        sufficiency_margin(1.0, 10)
    with pytest.raises(DomainError):
        sufficiency_margin(0.5, 0)


# -----------------------------------------------------------------------------
# Ginibre expectation
# -----------------------------------------------------------------------------
def test_ginibre_expected_count():
    # E|X cap D_R| for the Ginibre process is the trace R**2 of its spectrum
    assert GinibreSpectrum(2.0).trace() == 4.0
    assert GinibreSpectrum(0.5).trace() == 0.25
    with pytest.raises(DomainError):
        GinibreSpectrum(-1.0)


# -----------------------------------------------------------------------------
# report assembly
# -----------------------------------------------------------------------------
def test_bound_report_with_beta():
    rep = build_bound_report(0.9, beta=2.0)
    assert rep.n_eigen == 9
    assert rep.wasserstein_bound == pytest.approx(wasserstein_bound(0.9, 2.0))
    assert rep.coupling_tail == pytest.approx(coupling_tail(0.9, 9))
    assert rep.coincidence_probability <= rep.coupling_tail + 1e-12
    assert rep.coupling_tail <= rep.wasserstein_bound + 1e-12
    d = rep.to_dict()
    assert d["n_eigen"] == 9 and d["radius"] == 0.9


def test_bound_report_with_n():
    rep = build_bound_report(0.9, n_eigen=15)
    assert rep.beta is None
    assert math.isnan(rep.wasserstein_bound)
    assert rep.coupling_tail == pytest.approx(coupling_tail(0.9, 15))


def test_bound_report_requires_one_mode():
    with pytest.raises(DomainError):
        build_bound_report(0.9)
    with pytest.raises(DomainError):
        build_bound_report(0.9, beta=2.0, n_eigen=5)
