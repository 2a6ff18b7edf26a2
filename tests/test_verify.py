import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import kolmogorov

from bergman_dpp import (
    BergmanSpectrum,
    CountDistribution,
    DomainError,
    GinibreSpectrum,
    SamplerConfig,
    bernoulli_phase,
    bound_audit,
    chernoff_consistency,
    chernoff_lower,
    chernoff_upper,
    count_gof,
    count_pmf,
    coupling_tail,
    intensity_profile_test,
    ks_critical_value,
    ks_statistic,
    make_rng,
    mc_count_stats,
    sample,
    verify_gates,
    wasserstein_bound,
)
from bergman_dpp.cli import main
from bergman_dpp.streams import PHASE_BERNOULLI
from bergman_dpp.verify import _pearson


def brute_force_pmf(lam):
    """Enumerate all subsets; the gold reference for small spectra."""
    n = len(lam)
    pmf = np.zeros(n + 1)
    for bits in itertools.product((0, 1), repeat=n):
        p = 1.0
        for b, l in zip(bits, lam):
            p *= l if b else (1.0 - l)
        pmf[sum(bits)] += p
    return pmf


TINY = np.finfo(float).tiny
# full_window_pmf's renormalization period, in eigenvalues
RENORM_EVERY = 4096


def full_window_pmf(lam, flush=True):
    """The per-step recursion over the whole window [0, top], renormalized
    every RENORM_EVERY eigenvalues and, with flush, with every entry below
    the smallest normal double set to 0.0 after each absorption: up to 64
    eigenvalues count_pmf must match it to the bit.  Without flush it is the
    recursion that keeps subnormal probabilities."""
    lam = np.asarray(lam, dtype=float)
    pmf = np.zeros(lam.size + 1)
    pmf[0] = 1.0
    top = 0
    for t, l in enumerate(lam):
        if l != 0.0:
            pmf[1 : top + 2] = pmf[1 : top + 2] * (1.0 - l) + pmf[: top + 1] * l
            pmf[0] *= 1.0 - l
            top += 1
            if flush:
                window = pmf[: top + 1]
                window[window < TINY] = 0.0
        if (t + 1) % RENORM_EVERY == 0:
            pmf[: top + 1] /= pmf[: top + 1].sum()
    return pmf / pmf.sum()


def random_spectra():
    """40 spectra of up to 300 eigenvalues, some near 0 or 1, some exactly."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        lam = rng.random(int(rng.integers(1, 300))) ** rng.choice([1.0, 0.02, 50.0])
        lam[rng.random(lam.size) < 0.1] = 0.0
        lam[rng.random(lam.size) < 0.1] = 1.0
        yield lam


# -----------------------------------------------------------------------------
# CountDistribution
# -----------------------------------------------------------------------------
def test_count_distribution_hand_case():
    d = CountDistribution([0.2, 0.5, 0.3])
    assert d.mean() == pytest.approx(1.1)
    assert d.variance() == pytest.approx(0.49)
    assert d.moment(1, central=False) == pytest.approx(1.1)
    assert d.moment(2) == pytest.approx(0.49)
    assert d.cdf(-1) == 0.0
    assert d.cdf(0) == pytest.approx(0.2)
    assert d.cdf(1) == pytest.approx(0.7)
    assert d.cdf(99) == pytest.approx(1.0)
    assert d.upper_tail(0) == 1.0
    assert d.upper_tail(1) == pytest.approx(0.8)
    assert d.upper_tail(2) == pytest.approx(0.3)
    assert d.upper_tail(3) == 0.0
    assert d.quantile(0.5) == 1
    assert d.quantile(0.95) == 2
    assert d.quantile(0.0) == 0
    with pytest.raises(DomainError):
        d.quantile(1.5)
    assert (d.quantile(0.1), d.quantile(0.9)) == (0, 2)


# -----------------------------------------------------------------------------
# exact count law
# -----------------------------------------------------------------------------
def test_count_pmf_brute_force_oracle(disc09):
    lam = disc09.eigenvalues(10)
    got = count_pmf(lam).pmf
    np.testing.assert_allclose(got, brute_force_pmf(lam), atol=1e-14)


def test_count_pmf_binomial_case():
    # equal eigenvalues collapse to a binomial law
    d = count_pmf(np.full(12, 0.3))
    np.testing.assert_allclose(d.pmf, sps.binom.pmf(np.arange(13), 12, 0.3), atol=1e-13)


def test_count_pmf_moment_identities(disc09):
    lam = disc09.eigenvalues(22)
    d = count_pmf(lam)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-12)
    assert d.mean() == pytest.approx(float(lam.sum()), abs=1e-12)
    assert d.variance() == pytest.approx(float((lam * (1.0 - lam)).sum()), abs=1e-12)


def test_count_pmf_skips_zero_eigenvalues():
    d = count_pmf([0.5, 0.0, 0.25, 0.0])
    ref = brute_force_pmf([0.5, 0.25])
    np.testing.assert_allclose(d.pmf[:3], ref, atol=1e-15)
    assert d.pmf[3:].sum() == 0.0


def test_count_pmf_degenerate_cases():
    d = count_pmf([1.0, 1.0, 0.5])
    assert d.pmf[0] == 0.0
    assert d.cdf(1) == 0.0  # two certain indices force count >= 2
    d = count_pmf([])
    assert d.pmf.tolist() == [1.0]


def test_count_pmf_validation():
    with pytest.raises(DomainError):
        count_pmf([[0.1], [0.2]])
    with pytest.raises(DomainError):
        count_pmf([0.5, 1.2])
    with pytest.raises(DomainError):
        count_pmf([-0.1])
    with pytest.raises(DomainError):
        count_pmf([float("nan")])


def test_count_pmf_bit_identical_to_recursion_within_one_block():
    # up to 64 eigenvalues the product tree is one leaf: the per-step
    # recursion with its flush, to the bit
    short = [lam for lam in random_spectra() if lam.size <= 64]
    assert len(short) == 11
    # the five spectra verify_gates reads: the count-law gate's and those of
    # bound_audit's Chernoff rows
    gates = [BergmanSpectrum.disc(0.9).eigenvalues(22)] + [
        BergmanSpectrum.disc(radius).eigenvalues(50) for radius in (0.5, 0.7, 0.9, 0.99)
    ]
    for lam in [*short, *gates, [1.0, 1.0, 0.5], []]:
        got = count_pmf(lam).pmf
        assert np.array_equal(got, full_window_pmf(lam))
        assert got[got > 0.0].min() >= TINY


def test_count_pmf_product_tree_within_1e13_of_recursion():
    # against the recursion that keeps subnormals: entries from 1e-280 up
    # agree to 1e-13 relative, the rest moves by less than 1e-280
    disc = BergmanSpectrum.disc(0.9995)
    spectra = [disc.eigenvalues(5000), disc.eigenvalues(27624), *random_spectra()]
    for lam in spectra:
        got, kept = count_pmf(lam).pmf, full_window_pmf(lam, flush=False)
        big = np.maximum(got, kept) >= 1e-280
        assert np.all(np.abs(got - kept)[big] <= 1e-13 * kept[big])
        assert np.all(np.abs(got - kept)[~big] < 1e-280)
        assert got[got > 0.0].min() >= TINY
    # disc:0.9995 at N=5000: both tails fall below the smallest normal
    # double and are flushed (count 256 up to 1889 is kept)
    nonzero = np.flatnonzero(count_pmf(spectra[0]).pmf)
    assert 200 < nonzero[0] and nonzero[-1] < 2000


def test_count_pmf_at_the_certified_truncation_of_disc_099995():
    # N=299328 is what acceptance 09's search certifies for tail 1e-9
    lam = BergmanSpectrum.disc(0.99995).eigenvalues(299_328)
    d = count_pmf(lam)
    assert len(d) == lam.size + 1
    assert d.mean() == pytest.approx(math.fsum(lam.tolist()), rel=1e-12)
    assert d.variance() == pytest.approx(math.fsum((lam * (1.0 - lam)).tolist()), rel=1e-12)
    assert d.pmf[d.pmf > 0.0].min() >= TINY


def test_count_pmf_large_spectrum_stability():
    # ten thousand small eigenvalues: 157 leaves of the product tree, and
    # the mass still within the drift guard
    rng = np.random.default_rng(5)
    lam = rng.random(10_000) * 0.01
    d = count_pmf(lam)
    assert d.pmf.sum() == pytest.approx(1.0, abs=1e-9)
    assert d.mean() == pytest.approx(float(lam.sum()), rel=1e-9)


# -----------------------------------------------------------------------------
# Monte Carlo counts
# -----------------------------------------------------------------------------
def test_mc_count_stats_match_exact(disc09):
    cfg = SamplerConfig(n_eigen=22, seed=13)
    stats = mc_count_stats(disc09, cfg, reps=20_000)
    d = count_pmf(disc09.eigenvalues(22))
    assert abs(stats.mean - d.mean()) <= 5.0 * math.sqrt(d.variance() / stats.reps)
    assert stats.histogram.sum() == stats.reps
    assert stats.variance <= d.mean() + 0.2  # DPP counts are under-dispersed


def test_mc_count_stats_deterministic(disc09):
    cfg = SamplerConfig(n_eigen=9, seed=4)
    a = mc_count_stats(disc09, cfg, reps=500)
    b = mc_count_stats(disc09, cfg, reps=500)
    assert a.mean == b.mean and np.array_equal(a.histogram, b.histogram)
    with pytest.raises(DomainError):
        mc_count_stats(disc09, cfg, reps=0)


@pytest.mark.parametrize("radius, n_eigen, reps", [(0.9, 22, 2000), (0.5, 600, 300)])
def test_mc_count_stats_replays_bernoulli_phase(radius, n_eigen, reps):
    # one replica's count is the size of bernoulli_phase on that replica's
    # stream; on disc:0.5 the eigenvalues underflow to 0 from index 537
    spectrum = BergmanSpectrum.disc(radius)
    assert np.count_nonzero(spectrum.eigenvalues(n_eigen)) == min(n_eigen, 537)
    cfg = SamplerConfig(n_eigen=n_eigen, seed=17)
    stats = mc_count_stats(spectrum, cfg, reps)
    counts = np.array(
        [
            len(bernoulli_phase(spectrum, n_eigen, make_rng(cfg.seed, r, PHASE_BERNOULLI)))
            for r in range(reps)
        ]
    )
    assert np.array_equal(stats.histogram, np.bincount(counts, minlength=n_eigen + 1))
    assert stats.mean == float(counts.mean())
    assert stats.variance == float(counts.var(ddof=1))


def test_mc_count_stats_ginibre_count_law():
    # beta 5 on GinibreSpectrum(2.0) truncates at ceil(5 * 4) = 20
    spectrum = GinibreSpectrum(2.0)
    cfg = SamplerConfig(beta=5.0, seed=11)
    stats = mc_count_stats(spectrum, cfg, reps=5000)
    assert stats.histogram.size == 21
    rep = count_gof(stats.histogram, count_pmf(spectrum.eigenvalues(20)), alpha=1e-3)
    assert rep.passed, rep


def test_mc_count_stats_memory_does_not_grow_with_reps(disc09):
    # the uniforms come in bounded blocks: the whole (100 000, 22) array of
    # them would take 17.6 MB
    tracemalloc.start()
    try:
        stats = mc_count_stats(disc09, SamplerConfig(n_eigen=22, seed=3), reps=100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.histogram.sum() == 100_000
    assert peak < 8 << 20


# -----------------------------------------------------------------------------
# chi-square gate
# -----------------------------------------------------------------------------
def test_count_gof_accepts_own_law(disc09, rng):
    d = count_pmf(disc09.eigenvalues(22))
    hist = rng.multinomial(50_000, d.pmf)
    rep = count_gof(hist, d)
    assert rep.passed
    assert rep.statistic <= rep.threshold
    assert rep.extra["cells"] >= 2
    assert rep.to_dict()["verdict"] == "pass"


def test_count_gof_rejects_shifted_law(disc09, rng):
    d = count_pmf(disc09.eigenvalues(22))
    wrong = np.roll(d.pmf, 2)
    wrong /= wrong.sum()
    hist = rng.multinomial(50_000, wrong)
    rep = count_gof(hist, d)
    assert not rep.passed
    assert rep.to_dict()["verdict"] == "fail"


def test_count_gof_threshold_is_chi2_quantile(disc09, rng):
    d = count_pmf(disc09.eigenvalues(22))
    hist = rng.multinomial(10_000, d.pmf)
    rep = count_gof(hist, d, alpha=0.01)
    assert rep.threshold == pytest.approx(sps.chi2.ppf(0.99, rep.extra["cells"] - 1))


def test_pearson_threshold_is_scipy_chi2_quantile():
    # the gates take the chi-square quantile from scipy.special; scipy.stats
    # stays here as the reference, bit for bit
    one = np.ones(1)
    for alpha in (1e-3, 0.01, 0.05):
        ref = sps.chi2.ppf(1.0 - alpha, np.arange(1, 2001))
        got = [_pearson("t", one, one, df, alpha, 1, None).threshold for df in range(1, 2001)]
        assert np.array_equal(got, ref)


def test_count_gof_validation():
    d = count_pmf([0.5, 0.5])
    with pytest.raises(DomainError):
        count_gof([], d)
    with pytest.raises(DomainError):
        count_gof([-1, 2], d)
    with pytest.raises(DomainError):
        count_gof([0, 0], d)
    # a two-count histogram cannot fill two cells of expected mass 5
    with pytest.raises(DomainError):
        count_gof([1, 1], d)


# -----------------------------------------------------------------------------
# intensity profile
# -----------------------------------------------------------------------------
def test_intensity_profile_pass(disc09):
    n_eigen, reps = 9, 600
    configs = [
        sample(disc09, SamplerConfig(n_eigen=n_eigen, seed=19), replica=r)
        for r in range(reps)
    ]
    bins = [(0.0, 0.3), (0.3, 0.6), (0.6, 0.9)]
    rep = intensity_profile_test(configs, disc09, bins)
    assert rep.passed
    # per-bin expectations match the direct monomial sums
    for row in rep.extra["bins"]:
        direct = reps * sum(
            row["r2"] ** (2 * n + 2) - row["r1"] ** (2 * n + 2) for n in range(n_eigen)
        )
        assert row["expected"] == pytest.approx(direct, rel=1e-12)
    total_pts = sum(len(c) for c in configs)
    assert sum(row["observed"] for row in rep.extra["bins"]) == total_pts


def test_intensity_profile_expectations_region_free(disc09, annulus59):
    # the truncated bin expectation does not depend on the host region
    conf_d = [sample(disc09, SamplerConfig(n_eigen=5, seed=3), replica=r) for r in range(10)]
    conf_a = [sample(annulus59, SamplerConfig(n_eigen=5, seed=3), replica=r) for r in range(10)]
    bins = [(0.6, 0.8)]
    e_d = intensity_profile_test(conf_d, disc09, bins).extra["bins"][0]["expected"]
    e_a = intensity_profile_test(conf_a, annulus59, bins).extra["bins"][0]["expected"]
    assert e_d == pytest.approx(e_a, rel=1e-14)


def test_intensity_profile_validation(disc09):
    cfg = SamplerConfig(n_eigen=5, seed=1)
    confs = [sample(disc09, cfg, replica=r) for r in range(3)]
    with pytest.raises(DomainError):
        intensity_profile_test([], disc09, [(0.0, 0.5)])
    with pytest.raises(DomainError):
        intensity_profile_test(confs, disc09, [(0.5, 0.4)])
    with pytest.raises(DomainError):
        intensity_profile_test(confs, disc09, [(0.5, 0.95)])  # leaves the region
    with pytest.raises(DomainError):
        intensity_profile_test(confs, disc09, [(0.1, 0.5), (0.4, 0.8)])  # overlap
    other = sample(disc09, SamplerConfig(n_eigen=6, seed=1))
    with pytest.raises(DomainError):
        intensity_profile_test(confs + [other], disc09, [(0.0, 0.5)])
    with pytest.raises(DomainError):
        intensity_profile_test(confs, disc09, [(0.0, 1e-300)])  # zero expected mass
    with pytest.raises(DomainError):
        intensity_profile_test([1, 2], disc09, [(0.0, 0.5)])


def test_intensity_profile_needs_bins(disc09):
    # no bins is no test: a nan threshold with passed=False is not a verdict
    confs = [sample(disc09, SamplerConfig(n_eigen=5, seed=1), replica=r) for r in range(3)]
    with pytest.raises(DomainError):
        intensity_profile_test(confs, disc09, [])


# -----------------------------------------------------------------------------
# KS machinery
# -----------------------------------------------------------------------------
def test_ks_statistic_hand_case():
    xs = [0.1, 0.5, 0.9]
    stat = ks_statistic(xs, lambda x: x)
    assert stat == pytest.approx(1.0 / 3.0 - 0.1, abs=1e-15)
    assert stat == pytest.approx(sps.kstest(xs, "uniform").statistic, abs=1e-15)


def test_ks_statistic_scalar_cdf_fallback():
    xs = [0.2, 0.6]
    vec = ks_statistic(xs, lambda x: x**2)

    def scalar_only(x):
        if np.ndim(x) != 0:
            raise TypeError("scalar please")
        return float(x) ** 2

    assert ks_statistic(xs, scalar_only) == pytest.approx(vec, abs=1e-15)

    def branching(x):
        # truth-testing an array raises ValueError, not TypeError
        return 0.0 if x < 0.0 else float(x) ** 2

    assert ks_statistic(xs, branching) == pytest.approx(vec, abs=1e-15)


def test_ks_statistic_validation():
    with pytest.raises(DomainError):
        ks_statistic([], lambda x: x)
    with pytest.raises(DomainError):
        ks_statistic([0.5], lambda x: x * 3.0)


def test_ks_statistic_rejects_nan():
    # a NaN statistic would pass every `stat >= crit` gate
    with pytest.raises(DomainError):
        ks_statistic([0.2, float("nan")], lambda x: np.where(x < 0.5, x, 0.5))
    with pytest.raises(DomainError):
        ks_statistic([0.2, 0.4], lambda x: np.full_like(x, np.nan))
    with pytest.raises(DomainError):
        ks_statistic([0.2, 0.4], lambda x: float("nan") if x > 0.3 else x)


def test_ks_critical_value_matches_kolmogorov_tail():
    # threshold c has 2 exp(-2 n c^2) = alpha; the Kolmogorov series tail at
    # that point is slightly below alpha, so the gate is conservative
    for n in (100, 10_000):
        for alpha in (1e-3, 0.05):
            c = ks_critical_value(n, alpha)
            tail = kolmogorov(c * math.sqrt(n))
            assert tail <= alpha
            assert tail == pytest.approx(alpha, rel=0.05)
    with pytest.raises(DomainError):
        ks_critical_value(0)
    with pytest.raises(DomainError):
        ks_critical_value(100, 1.0)


# -----------------------------------------------------------------------------
# Chernoff audit
# -----------------------------------------------------------------------------
def test_chernoff_consistency_rows(disc09):
    d = count_pmf(disc09.eigenvalues(50))
    rows = chernoff_consistency(d, np.arange(0.1, 1.0, 0.1))
    assert len(rows) == 9
    for row in rows:
        assert row["ok"]
        assert row["exact_lower"] <= row["bound_lower"] + 1e-12
        assert row["exact_upper"] <= row["bound_upper"] + 1e-12
        assert row["bound_lower"] == pytest.approx(chernoff_lower(d.mean(), row["c"]))
        assert row["bound_upper"] == pytest.approx(chernoff_upper(d.mean(), row["c"]))


# -----------------------------------------------------------------------------
# full audit
# -----------------------------------------------------------------------------
def test_bound_audit_grid():
    rows = bound_audit()
    assert all(r["verdict"] == "pass" for r in rows)
    names = [r["name"] for r in rows]
    assert len(names) == 16 + 4
    assert names[0] == "dominance:R=0.5:beta=1.0"
    assert names[-1] == "chernoff:R=0.99:N=50"
    for row in rows[:16]:
        v = row["values"]
        assert v["coincidence_probability"] <= v["coupling_tail"] + 1e-12
        assert v["coupling_tail"] <= v["wasserstein_bound"] + 1e-12
    for row in rows[16:]:
        assert [c["c"] for c in row["values"]["rows"]] == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def test_bound_audit_spot_dominance():
    # the (0.9, 2) cell reproduces the standalone bound values
    (values,) = [r["values"] for r in bound_audit() if r["name"] == "dominance:R=0.9:beta=2.0"]
    assert values["coupling_tail"] == pytest.approx(coupling_tail(0.9, 9), rel=1e-14)
    assert values["wasserstein_bound"] == pytest.approx(wasserstein_bound(0.9, 2.0), rel=1e-14)


# -----------------------------------------------------------------------------
# the verify command's gates
# -----------------------------------------------------------------------------
_GATE_SIZES = {
    "count-law:disc:0.9:N=22": lambda reps: reps,
    "positional-law:disc:0.8:index=0": lambda reps: max(200, reps // 4),
    "min-radius-law:n=20": lambda reps: reps,
}


def test_verify_gates_are_the_command_rows(tmp_path):
    out = tmp_path / "verify.json"
    assert main(["verify", "--reps", "300", "--seed", "11", "--out", str(out)]) == 0
    rows = verify_gates(11, 300)
    assert json.loads(json.dumps(rows)) == json.loads(out.read_text())["results"]


@pytest.mark.parametrize("reps", [300, 1000])
def test_verify_gates_rows_and_replica_rules(reps):
    rows = verify_gates(5, reps)
    assert [r["name"] for r in rows] == [r["name"] for r in bound_audit()] + list(_GATE_SIZES)
    assert all(r["verdict"] in ("pass", "fail") for r in rows)
    for row in rows[-3:]:
        assert row["values"]["sample_size"] == _GATE_SIZES[row["name"]](reps)
