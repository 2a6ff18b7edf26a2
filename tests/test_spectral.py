import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.special import gammainc

from bergman_dpp import (
    BergmanSpectrum,
    DomainError,
    GinibreSpectrum,
    bergman_kernel,
    disc,
    make_region,
    parse_region_literal,
)


# -----------------------------------------------------------------------------
# kernel evaluation
# -----------------------------------------------------------------------------
def test_kernel_at_origin():
    assert bergman_kernel(0, 0) == pytest.approx(1.0 / math.pi)


def test_kernel_closed_form_points():
    x, y = 0.3 + 0.1j, -0.2 + 0.4j
    expect = 1.0 / (math.pi * (1.0 - x * np.conj(y)) ** 2)
    assert bergman_kernel(x, y) == pytest.approx(expect, rel=1e-15)


def test_kernel_hermitian():
    x, y = 0.5 + 0.2j, 0.1 - 0.6j
    assert bergman_kernel(x, y) == pytest.approx(np.conj(bergman_kernel(y, x)), rel=1e-15)


def test_kernel_domain():
    with pytest.raises(DomainError):
        bergman_kernel(1.0, 0.0)
    with pytest.raises(DomainError):
        bergman_kernel(0.0, 1.2j)
    with pytest.raises(DomainError):
        bergman_kernel(float("nan"), 0.0)


@given(st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=-0.7, max_value=0.7))
def test_kernel_diagonal_real_positive(re, im):
    z = complex(re, im)
    if abs(z) >= 1.0:
        return
    v = bergman_kernel(z, z)
    assert abs(v.imag) < 1e-15
    assert v.real >= 1.0 / math.pi - 1e-15


# -----------------------------------------------------------------------------
# regularized incomplete gamma: Ginibre eigenvalue n is P(n+1, R^2)
# -----------------------------------------------------------------------------
def _ginibre_p(s, x):
    # P(s, x) through the Ginibre spectrum of radius sqrt(x)
    return GinibreSpectrum(math.sqrt(x)).eigenvalue(s - 1)


@pytest.mark.parametrize("s", [1, 2, 5, 10, 40, 150])
@pytest.mark.parametrize("x", [0.0, 1e-8, 0.3, 1.0, 4.0, 25.0, 150.0, 900.0])
def test_igamma_against_scipy(s, x):
    # scipy's gammainc, which the Ginibre spectrum uses, keeps the accuracy
    # contract against 30-digit arithmetic over the series and continued
    # fraction regimes
    with mp.workdps(30):
        ref = float(mp.gammainc(s, 0, x, regularized=True))
    assert gammainc(s, x) == pytest.approx(ref, abs=1e-13)


def test_igamma_against_quadrature():
    # P(s, x) = int_0^x t^{s-1} e^{-t} dt / (s-1)!
    for s, x in [(3, 2.0), (7, 5.5), (12, 20.0)]:
        oracle = quad(lambda t: t ** (s - 1) * math.exp(-t), 0.0, x)[0] / math.factorial(s - 1)
        assert _ginibre_p(s, x) == pytest.approx(oracle, abs=1e-12)


def test_igamma_exponential_case():
    # s = 1 is plain 1 - e^{-R^2}
    for radius in (0.3, 1.0, 2.6):
        got = GinibreSpectrum(radius).eigenvalue(0)
        assert got == pytest.approx(-math.expm1(-radius * radius), abs=1e-15)


def test_igamma_domain():
    # order s = n + 1 must be a positive integer, x = R^2 positive and finite
    g = GinibreSpectrum(1.0)
    for bad in (-1, 1.5):
        with pytest.raises(DomainError):
            g.eigenvalue(bad)
        with pytest.raises(DomainError):
            g.eigenvalues(bad)
    for radius in (-1.0, float("inf"), float("nan")):
        with pytest.raises(DomainError):
            GinibreSpectrum(radius)


@given(st.integers(min_value=1, max_value=60), st.floats(min_value=1e-12, max_value=200.0))
def test_igamma_in_unit_interval_and_monotone(s, x):
    p = _ginibre_p(s, x)
    assert 0.0 <= p <= 1.0
    assert _ginibre_p(s, x + 0.5) >= p - 1e-15


# -----------------------------------------------------------------------------
# restricted eigenvalues
# -----------------------------------------------------------------------------
def test_disc_eigenvalues_are_powers():
    s = BergmanSpectrum.disc(0.5)
    lam = s.eigenvalues(10)
    assert np.array_equal(lam, 0.5 ** (2.0 * np.arange(10) + 2.0))
    assert s.eigenvalue(0) == 0.25
    assert s.eigenvalue(3) == 0.00390625


def test_annulus_eigenvalue_exact_difference():
    s = BergmanSpectrum.annulus(0.5, 0.9)
    assert s.eigenvalue(0) == 0.9**2 - 0.5**2


def test_eigenvalues_quadrature_oracle():
    # lambda_n = (2n+2) int_A r^{2n+1} dr
    reg = make_region([(0.1, 0.4), (0.6, 0.9)])
    s = BergmanSpectrum(reg)
    lam = s.eigenvalues(12)
    for n in range(12):
        oracle = sum(
            quad(lambda r: (2 * n + 2) * r ** (2 * n + 1), a, b)[0]
            for a, b in reg.intervals
        )
        assert lam[n] == pytest.approx(oracle, rel=1e-12)


def test_interval_region_matches_disc():
    s_int = BergmanSpectrum(make_region([(0.0, 0.73)]))
    s_disc = BergmanSpectrum.disc(0.73)
    assert np.array_equal(s_int.eigenvalues(201), s_disc.eigenvalues(201))


def test_thin_annulus_expm1_branch():
    # a > 0.5 b at high order forces the cancellation-safe branch
    s = BergmanSpectrum.annulus(0.89, 0.9)
    lam = s.eigenvalues(400)
    e = 2.0 * np.arange(400) + 2.0
    oracle = np.exp(e * math.log(0.9)) - np.exp(e * math.log(0.89))
    # reference via 120-digit arithmetic
    with mp.workdps(120):
        ref = [float(mp.mpf("0.9") ** int(k) - mp.mpf("0.89") ** int(k)) for k in e]
    np.testing.assert_allclose(lam, ref, rtol=5e-14)
    assert np.all(lam >= 0.0)
    del oracle


def test_eigenvalue_monotone_under_region_inclusion():
    inner = make_region([(0.2, 0.4), (0.6, 0.8)])
    outer = make_region([(0.1, 0.5), (0.55, 0.85)])
    li = BergmanSpectrum(inner).eigenvalues(101)
    lo = BergmanSpectrum(outer).eigenvalues(101)
    assert np.all(li <= lo + 1e-18)


def test_eigenvalues_decreasing_for_disc():
    lam = BergmanSpectrum.disc(0.9).eigenvalues(200)
    assert np.all(np.diff(lam) < 0.0)


def test_eigenvalues_exact_down_to_underflow():
    # lambda_n = 0.5^(2n+2) is a power of two, exact in float64 down to the
    # smallest subnormal 2^-1074 at n = 536; below that it rounds to 0
    lam = BergmanSpectrum.disc(0.5).eigenvalues(540)
    for n in range(540):
        assert lam[n] == 0.5 ** (2 * n + 2)
    assert lam[536] == 2.0**-1074
    assert lam[537] == 0.0


def test_trace_equals_eigenvalue_series(disc09):
    lam = disc09.eigenvalues(2000)
    assert disc09.trace() == pytest.approx(float(lam.sum()), rel=1e-13)


# -----------------------------------------------------------------------------
# eigenfunctions
# -----------------------------------------------------------------------------
def test_eigenfunction_normalizer_disc(disc08):
    # phi_1(x) = x / sqrt(pi * lam_1 / 2); spot value at x = 0.4
    lam1 = disc08.eigenvalue(1)
    expect = 0.4 / math.sqrt(math.pi * lam1 / 2.0)
    assert disc08.eigenfunction(1, 0.4) == pytest.approx(expect, rel=1e-14)
    # 0.4 / sqrt(pi * 0.8^4 / 2) evaluated independently
    assert expect == pytest.approx(0.4986778505017909, abs=1e-12)


def test_eigenfunction_outside_region(disc08):
    with pytest.raises(DomainError):
        disc08.eigenfunction(0, 0.9)


def test_eigenfunctions_l2_normalized(disc08, annulus59):
    # ||phi_n||^2 over the region = 2 pi int |phi_n(r)|^2 r dr = 1
    for spec in (disc08, annulus59):
        for n in (0, 1, 4, 9):
            total = sum(
                quad(
                    lambda r: 2.0
                    * math.pi
                    * r
                    * abs(spec.eigenfunction(n, complex(r))) ** 2,
                    a,
                    b,
                )[0]
                for a, b in spec.region.intervals
            )
            assert total == pytest.approx(1.0, abs=1e-10)


def test_feature_matrix_matches_eigenfunction(disc08, rng):
    idx = np.array([0, 2, 5])
    zs = 0.7 * (rng.random(4) + 1j * rng.random(4)) / math.sqrt(2.0)
    mat = disc08.feature_matrix(idx, zs)
    assert mat.shape == (4, 3)
    for i, z in enumerate(zs):
        for j, n in enumerate(idx):
            assert mat[i, j] == pytest.approx(disc08.eigenfunction(int(n), z), rel=1e-13)


def test_feature_matrix_scalar_and_empty(disc08):
    m = disc08.feature_matrix(np.array([1]), 0.3)
    assert m.shape == (1, 1)
    m = disc08.feature_matrix([], np.array([0.1, 0.2]))
    assert m.shape == (2, 0)
    with pytest.raises(DomainError):
        disc08.feature_matrix([-1], 0.3)


def test_feature_matrix_past_eigenvalue_underflow():
    # lambda_n of disc(0.5) underflows to 0 from n = 537, but phi_n stays finite
    s = BergmanSpectrum.disc(0.5)
    idx = np.array([0, 600, 1000])
    zs = np.array([0.3, 0.4, 0.25 - 0.3j])
    mat = s.feature_matrix(idx, zs)
    with mp.workdps(60):
        for i, z in enumerate(zs):
            for j, n in enumerate(idx):
                nu = mp.pi * mp.mpf("0.25") ** (int(n) + 1) / (int(n) + 1)
                ref = complex(mp.mpc(z) ** int(n) / mp.sqrt(nu))
                assert mat[i, j] == pytest.approx(ref, rel=1e-12)
                assert s.eigenfunction(int(n), z) == pytest.approx(ref, rel=1e-12)
    assert mat[1, 2] != 0.0 and np.all(np.isfinite(mat))


def test_feature_matrix_at_origin(disc08):
    # phi_0(0) = 1 / sqrt(nu_0) and phi_n(0) = 0 for n > 0
    mat = disc08.feature_matrix([2, 0, 1000], [0.0, 0.5])
    assert mat[0, 0] == 0.0 and mat[0, 2] == 0.0
    assert mat[0, 1] == pytest.approx(1.0 / math.sqrt(math.pi * 0.64), rel=1e-14)
    assert mat[1, 1] == pytest.approx(mat[0, 1], rel=1e-15)
    assert disc08.eigenfunction(0, 0.0) == pytest.approx(mat[0, 1], rel=1e-15)
    assert disc08.truncated_kernel(30, 0.0, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)


def test_feature_matrix_is_sampler_expression():
    # the sampler evaluates exp(n log z + log(1/sqrt(nu_n))) with the
    # normalizers of _mixture; feature_matrix must be that same expression
    rng = np.random.default_rng(5)
    for literal in ("disc:0.5", "annulus:0.5:0.9", "intervals:0.1-0.3,0.5-0.7,0.85-0.95"):
        s = BergmanSpectrum(parse_region_literal(literal))
        idx = np.array([0, 3, 40, 600, 1000])
        # a random interval of the region, then uniform in area inside it
        iv = np.array(s.region.intervals)[rng.integers(len(s.region.intervals), size=7)]
        r = np.sqrt(iv[:, 0] ** 2 + rng.random(7) * (iv[:, 1] ** 2 - iv[:, 0] ** 2))
        zs = r * np.exp(2j * math.pi * rng.random(7))
        log_inv = s._mixture(idx)[2]
        expected = np.exp(np.multiply.outer(np.log(zs), idx) + log_inv)
        assert np.array_equal(s.feature_matrix(idx, zs), expected)


# -----------------------------------------------------------------------------
# truncated kernel sums
# -----------------------------------------------------------------------------
def test_truncated_kernel_direct_sum(disc08):
    # lam_n |phi_n(x)|... reduces to (n+1) (x conj y)^n / pi independent of region
    x, y = 0.3 + 0.2j, -0.1 + 0.5j
    n_eigen = 30
    w = x * np.conj(y)
    oracle = sum((n + 1) * w**n / math.pi for n in range(n_eigen))
    got = disc08.truncated_kernel(n_eigen, x, y)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_truncated_kernel_converges_to_bergman(disc09):
    # Mercer tail for |x|,|y| <= r: sum_{n>=N} (n+1) r^{2n} / pi
    x, y = 0.5 + 0.3j, 0.2 - 0.4j
    r = max(abs(x), abs(y))
    n_eigen = 220
    t = r * r
    tail = t**n_eigen * ((n_eigen + 1) - n_eigen * t) / (math.pi * (1.0 - t) ** 2)
    diff = abs(disc09.truncated_kernel(n_eigen, x, y) - bergman_kernel(x, y))
    assert diff <= tail + 1e-14


def test_truncated_kernel_domain(disc08):
    with pytest.raises(DomainError):
        disc08.truncated_kernel(0, 0.1, 0.1)
    with pytest.raises(DomainError):
        disc08.truncated_kernel(5, 0.85, 0.1)  # outside the region


# -----------------------------------------------------------------------------
# Ginibre spectrum
# -----------------------------------------------------------------------------
def test_ginibre_eigenvalue_formula():
    # lambda_n = P(n+1, R^2) = 1 - e^{-R^2} sum_{k <= n} R^{2k} / k!, to the
    # 1e-12 contract against 30-digit arithmetic
    for radius in (0.5, 1.0, 2.0, 5.0, 10.0):
        lam = GinibreSpectrum(radius).eigenvalues(200)
        with mp.workdps(30):
            x = mp.mpf(radius) ** 2
            terms = [x**k / mp.factorial(k) for k in range(200)]
            ref = [float(1 - mp.exp(-x) * mp.fsum(terms[: n + 1])) for n in range(200)]
        np.testing.assert_allclose(lam, ref, rtol=0.0, atol=1e-12)


def test_ginibre_trace_is_r_squared():
    # the closed form, and the eigenvalue series it stands for
    assert GinibreSpectrum(2.0).trace() == 4.0
    assert GinibreSpectrum(0.5).trace() == 0.25
    for radius in (0.5, 1.0, 2.0, 5.0):
        g = GinibreSpectrum(radius)
        assert g.trace() == radius * radius
        assert float(np.sum(g.eigenvalues(400))) == pytest.approx(g.trace(), abs=1e-12)


def test_ginibre_eigenvalues_vector():
    g = GinibreSpectrum(1.5)
    lam = g.eigenvalues(8)
    assert lam.shape == (8,)
    assert np.all(np.diff(lam) < 0.0)  # decreasing in n for fixed R
    assert g.eigenvalue(3) == lam[3]


def test_ginibre_domain():
    with pytest.raises(DomainError):
        GinibreSpectrum(0.0)
    with pytest.raises(DomainError):
        GinibreSpectrum(float("inf"))
    with pytest.raises(DomainError):
        GinibreSpectrum(-1.0)


# -----------------------------------------------------------------------------
# spectrum construction guards
# -----------------------------------------------------------------------------
def test_spectrum_needs_region():
    with pytest.raises(DomainError):
        BergmanSpectrum("disc:0.5")
    with pytest.raises(DomainError):
        BergmanSpectrum(make_region([]))


def test_spectrum_repr(disc08):
    assert "disc" in repr(disc08)
