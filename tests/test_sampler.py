import math

import numpy as np
import pytest

from bergman_dpp import (
    ActiveIndexSet,
    BergmanDPPError,
    BergmanSpectrum,
    DomainError,
    EnvelopeError,
    FamilySpec,
    GinibreSpectrum,
    OrthogonalizationError,
    PointConfiguration,
    RejectionBudgetError,
    SampleMeta,
    SamplerConfig,
    bernoulli_phase,
    construct_family,
    default_truncation,
    intensity_profile_test,
    make_rng,
    mc_count_stats,
    min_radius_cdf,
    parse_region_literal,
    sample,
    sample_moduli,
    sample_positions,
)
from bergman_dpp import sampler
from bergman_dpp.sampler import SAMPLER_VERSION
from bergman_dpp.streams import PHASE_BERNOULLI, PHASE_MODULI, PHASE_SAMPLE
from bergman_dpp.verify import ks_critical_value, ks_statistic


# -----------------------------------------------------------------------------
# configuration objects
# -----------------------------------------------------------------------------
def test_config_exactly_one_mode():
    SamplerConfig(beta=2.0)
    SamplerConfig(n_eigen=5)
    with pytest.raises(DomainError):
        SamplerConfig()
    with pytest.raises(DomainError):
        SamplerConfig(beta=2.0, n_eigen=5)
    with pytest.raises(DomainError):
        SamplerConfig(beta=-1.0)
    with pytest.raises(DomainError):
        SamplerConfig(n_eigen=0)
    with pytest.raises(DomainError):
        SamplerConfig(beta=1.0, seed=-1)


def test_default_truncation(disc09):
    # ceil(beta * trace); trace(disc(0.9)) = 4.2631..
    assert default_truncation(disc09, 5.0) == 22
    assert default_truncation(disc09, 2.0) == 9
    assert default_truncation(BergmanSpectrum.disc(0.1), 0.1) == 1
    assert SamplerConfig(beta=5.0).resolve_truncation(disc09) == 22
    assert SamplerConfig(n_eigen=7).resolve_truncation(disc09) == 7


def test_default_truncation_ginibre():
    # the Ginibre trace is exactly R**2, so beta 5 on radius 2 gives 20
    assert default_truncation(GinibreSpectrum(2.0), 5.0) == 20
    with pytest.raises(DomainError):
        default_truncation(object(), 5.0)
    with pytest.raises(DomainError):
        default_truncation(parse_region_literal("disc:0.9"), 5.0)


def test_active_index_set_validation():
    ActiveIndexSet(indices=(0, 3, 7), n_eigen=8)
    ActiveIndexSet(indices=(), n_eigen=0)
    with pytest.raises(DomainError):
        ActiveIndexSet(indices=(3, 3), n_eigen=8)
    with pytest.raises(DomainError):
        ActiveIndexSet(indices=(5, 2), n_eigen=8)
    with pytest.raises(DomainError):
        ActiveIndexSet(indices=(8,), n_eigen=8)
    with pytest.raises(DomainError):
        ActiveIndexSet(indices=(-1,), n_eigen=8)


def test_point_configuration_roundtrip(disc09):
    conf = sample(disc09, SamplerConfig(n_eigen=9, seed=11))
    back = PointConfiguration.from_dict(conf.to_dict())
    assert back.points == conf.points
    assert back.meta == conf.meta
    mods = conf.moduli()
    assert np.all(np.diff(mods) >= 0.0)
    assert len(mods) == len(conf)


def test_sample_meta_stream_version(disc09):
    meta = sample(disc09, SamplerConfig(n_eigen=9, seed=11)).meta
    assert meta.sampler == SAMPLER_VERSION == "mixture-1"
    data = meta.to_dict()
    assert data["sampler"] == "mixture-1"
    # reports written before the field existed still load
    del data["sampler"]
    assert SampleMeta.from_dict(data).sampler is None


def test_sample_meta_fields(disc09):
    conf = sample(disc09, SamplerConfig(n_eigen=9, seed=11), replica=3)
    m = conf.meta
    assert m.seed == 11 and m.replica == 3
    assert m.region == "disc:0.9"
    assert m.n_eigen == 9
    assert len(m.rejections) == len(conf.points)
    assert m.proposals >= len(conf.points)
    if m.proposals:
        assert 0.0 < m.acceptance_rate <= 1.0
    assert SampleMeta.from_dict(m.to_dict()) == m


# -----------------------------------------------------------------------------
# Bernoulli phase
# -----------------------------------------------------------------------------
def test_bernoulli_phase_marginals(disc09):
    # per-index hit frequency matches the eigenvalue within 5 sigma
    n_eigen, reps = 9, 40_000
    lam = disc09.eigenvalues(n_eigen)
    hits = np.zeros(n_eigen)
    for r in range(reps):
        rng = make_rng(5, r, PHASE_BERNOULLI)
        for i in bernoulli_phase(disc09, n_eigen, rng).indices:
            hits[i] += 1
    freq = hits / reps
    sigma = np.sqrt(lam * (1.0 - lam) / reps)
    assert np.all(np.abs(freq - lam) <= 5.0 * sigma + 1e-12)


def test_bernoulli_phase_validation(disc09):
    rng = make_rng(0)
    with pytest.raises(DomainError):
        bernoulli_phase(disc09, 0, rng)

    class BadSpectrum:
        def eigenvalues(self, n):
            return np.full(n, 1.5)

    with pytest.raises(DomainError):
        bernoulli_phase(BadSpectrum(), 4, rng)


def test_nan_eigenvalue_rejected():
    # a NaN compares False with every uniform, so unchecked it would leave its
    # index silently unselected
    class NanSpectrum:
        def eigenvalues(self, n):
            lam = np.full(n, 0.5)
            lam[1] = np.nan
            return lam

    with pytest.raises(DomainError):
        bernoulli_phase(NanSpectrum(), 4, make_rng(0))
    with pytest.raises(DomainError):
        mc_count_stats(NanSpectrum(), SamplerConfig(n_eigen=4), reps=10)


def test_bernoulli_phase_deterministic(disc09):
    a = bernoulli_phase(disc09, 22, make_rng(3, 0, PHASE_BERNOULLI))
    b = bernoulli_phase(disc09, 22, make_rng(3, 0, PHASE_BERNOULLI))
    assert a == b


# -----------------------------------------------------------------------------
# positional phase
# -----------------------------------------------------------------------------
def test_positions_inside_region(annulus59):
    active = ActiveIndexSet(indices=(0, 1, 2, 5), n_eigen=8)
    conf = sample_positions(annulus59, active, make_rng(2))
    assert len(conf) == 4
    for z in conf.points:
        assert annulus59.region.contains_point(z)


def test_positions_empty_active(disc09):
    conf = sample_positions(disc09, ActiveIndexSet(indices=(), n_eigen=5), make_rng(0))
    assert conf.points == ()
    assert conf.meta.proposals == 0


def test_positions_deterministic_replay(disc09):
    active = ActiveIndexSet(indices=(0, 2, 3), n_eigen=5)
    a = sample_positions(disc09, active, make_rng(9))
    b = sample_positions(disc09, active, make_rng(9))
    assert a.points == b.points
    assert a.meta == b.meta


def test_single_index_radial_law(disc08):
    # index n: radial CDF (r/R)^{2n+2}; KS gate at alpha = 1e-3
    reps = 3000
    for n, power in ((0, 2.0), (3, 8.0)):
        active = ActiveIndexSet(indices=(n,), n_eigen=n + 1)
        radii = np.empty(reps)
        for r in range(reps):
            rng = make_rng(17, r, PHASE_SAMPLE)
            radii[r] = abs(sample_positions(disc08, active, rng).points[0])
        stat = ks_statistic(radii, lambda x: (x / 0.8) ** power)
        assert stat < ks_critical_value(reps, 1e-3)


def test_angle_uniformity(disc08):
    # angles of the first point over replicas are uniform on (-pi, pi]
    reps = 3000
    active = ActiveIndexSet(indices=(1,), n_eigen=2)
    angles = np.empty(reps)
    for r in range(reps):
        rng = make_rng(23, r, PHASE_SAMPLE)
        angles[r] = np.angle(sample_positions(disc08, active, rng).points[0])
    stat = ks_statistic(angles, lambda t: (t + math.pi) / (2.0 * math.pi))
    assert stat < ks_critical_value(reps, 1e-3)


def test_rejection_budget_error(disc09, monkeypatch):
    # with 30 active indices the first chunk of point i holds ceil(30 / (30 - i))
    # proposals, each accepted with probability (30 - i) / 30; a budget of one
    # proposal ends the run at the first chunk without an acceptance
    monkeypatch.setattr(sampler, "_MAX_REJECTIONS", 1)
    active = ActiveIndexSet(indices=tuple(range(30)), n_eigen=30)
    with pytest.raises(RejectionBudgetError):
        sample_positions(disc09, active, make_rng(0))


def test_single_index_accepts_first_proposal(disc09, annulus59):
    # one active index: no basis yet, so the acceptance ratio is exactly 1
    three = BergmanSpectrum(parse_region_literal("intervals:0.1-0.3,0.5-0.7,0.85-0.95"))
    for spectrum in (disc09, annulus59, three):
        for n in (0, 7, 100):
            active = ActiveIndexSet(indices=(n,), n_eigen=n + 1)
            for seed in range(5):
                conf = sample_positions(spectrum, active, make_rng(seed))
                assert conf.meta.rejections == (0,)
                assert conf.meta.proposals == 1


class _PinnedFirstDraw:
    """Generator stand-in whose first random() call returns fixed rows."""

    def __init__(self, rows, rng):
        self.rows, self.rng = rows, rng

    def random(self, shape):
        if self.rows is None:
            return self.rng.random(shape)
        rows, self.rows = np.asarray(self.rows, dtype=float), None
        assert rows.shape == shape
        return rows


def test_massless_proposal_is_rejected(disc09):
    # a proposal at the origin has phi_n = 0 for every n > 0: the 0/0
    # acceptance ratio counts as a rejection, not as NaN
    active = ActiveIndexSet(indices=(1, 4), n_eigen=5)
    rng = _PinnedFirstDraw([[0.2, 1.0, 0.3, 0.0]], make_rng(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        conf = sample_positions(disc09, active, rng)
    assert conf.meta.rejections[0] == 1
    assert all(0.0 < abs(z) <= 0.9 for z in conf.points)


def _piecewise_radial_cdf(intervals, n):
    # P(|z| <= r) for phi_n: sum_j (min(r, b_j)**k - a_j**k)_+ / lambda_n
    k = 2 * n + 2
    lam = sum(b**k - a**k for a, b in intervals)

    def cdf(r):
        r = np.asarray(r, dtype=float)
        return sum(np.maximum(np.minimum(r, b) ** k - a**k, 0.0) for a, b in intervals) / lam

    return cdf


def test_single_index_radial_law_off_disc():
    # interval choice and closed-form inversion, KS at alpha = 1e-3
    reps = 2000
    for literal in ("annulus:0.5:0.9", "intervals:0.1-0.3,0.5-0.7,0.85-0.95"):
        spectrum = BergmanSpectrum(parse_region_literal(literal))
        for n in (0, 5):
            active = ActiveIndexSet(indices=(n,), n_eigen=n + 1)
            rng = make_rng(41, n, PHASE_SAMPLE)
            radii = [abs(sample_positions(spectrum, active, rng).points[0]) for _ in range(reps)]
            cdf = _piecewise_radial_cdf(spectrum.region.intervals, n)
            assert ks_statistic(radii, cdf) < ks_critical_value(reps, 1e-3), (literal, n)


def test_intensity_profile_annulus(annulus59):
    configs = [sample(annulus59, SamplerConfig(beta=5.0, seed=13), replica=r) for r in range(2000)]
    edges = np.sqrt(np.linspace(0.25, 0.81, 6))
    report = intensity_profile_test(configs, annulus59, list(zip(edges[:-1], edges[1:])), 1e-3)
    assert report.passed


def test_extreme_regions_stay_inside():
    # a thin annulus near the boundary (trace 500, N = 2500 at beta 5) and a
    # disc whose active set reaches past index 400 either place every point
    # inside the closed region or fail with a named error
    for literal in ("annulus:0.999:0.9995", "disc:0.995"):
        spectrum = BergmanSpectrum(parse_region_literal(literal))
        try:
            conf = sample(spectrum, SamplerConfig(beta=5.0, seed=0))
        except BergmanDPPError:
            continue
        if literal == "disc:0.995":
            assert max(conf.meta.active_indices) >= 400
        radii = np.abs(np.array(conf.points))
        assert np.all(radii > 0.0) and not np.any(np.isnan(radii))
        assert all(spectrum.region.contains_point(z) for z in conf.points)
    # lambda_1000 of disc(0.5) underflows double precision; the sampler's
    # log-space normalizers still place the point
    active = ActiveIndexSet(indices=(0, 3, 400, 1000), n_eigen=1001)
    conf = sample_positions(BergmanSpectrum.disc(0.5), active, make_rng(1))
    assert all(0.0 < abs(z) <= 0.5 for z in conf.points)


def test_positions_type_guards(disc09):
    with pytest.raises(DomainError):
        sample_positions("nope", ActiveIndexSet(indices=(), n_eigen=0), make_rng(0))
    with pytest.raises(DomainError):
        sample_positions(disc09, (0, 1), make_rng(0))


def test_points_pairwise_distinct(disc09):
    conf = sample(disc09, SamplerConfig(n_eigen=22, seed=1))
    pts = conf.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert pts[i] != pts[j]


# -----------------------------------------------------------------------------
# full pipeline
# -----------------------------------------------------------------------------
def test_sample_replay_byte_identical(disc09):
    cfg = SamplerConfig(beta=5.0, seed=42)
    a = sample(disc09, cfg, replica=0)
    b = sample(disc09, cfg, replica=0)
    assert a.points == b.points and a.meta == b.meta


def test_sample_replicas_differ(disc09):
    cfg = SamplerConfig(beta=5.0, seed=42)
    a = sample(disc09, cfg, replica=0)
    b = sample(disc09, cfg, replica=1)
    assert a.meta.active_indices != b.meta.active_indices or a.points != b.points


def test_sample_count_matches_active(disc09):
    cfg = SamplerConfig(n_eigen=22, seed=8)
    conf = sample(disc09, cfg)
    assert len(conf.points) == len(conf.meta.active_indices)


def test_error_taxonomy():
    # every sampler failure is catchable through the shared base class
    for exc in (DomainError, RejectionBudgetError, OrthogonalizationError, EnvelopeError):
        assert issubclass(exc, BergmanDPPError)
    assert issubclass(RejectionBudgetError, RuntimeError)
    assert issubclass(DomainError, ValueError)


# -----------------------------------------------------------------------------
# moduli draws
# -----------------------------------------------------------------------------
def test_sample_moduli_shape_and_range():
    vals = sample_moduli(6, make_rng(0, 0, PHASE_MODULI))
    assert vals.shape == (6,)
    assert np.all((0.0 <= vals) & (vals <= 1.0))
    with pytest.raises(DomainError):
        sample_moduli(0, make_rng(0))


def test_sample_moduli_coordinate_laws():
    # coordinate k has CDF x^{2k}; check k = 1 and k = 3
    reps = 20_000
    rng = make_rng(31, 0, PHASE_MODULI)
    draws = np.array([sample_moduli(3, rng) for _ in range(reps)])
    assert ks_statistic(draws[:, 0], lambda x: x**2) < ks_critical_value(reps, 1e-3)
    assert ks_statistic(draws[:, 2], lambda x: x**6) < ks_critical_value(reps, 1e-3)


def test_min_radius_cdf_base_cases():
    assert min_radius_cdf(1, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert min_radius_cdf(3, 0.0) == 0.0
    assert min_radius_cdf(3, -1.0) == 0.0
    assert min_radius_cdf(3, 1.0) == 1.0
    assert min_radius_cdf(3, 2.0) == 1.0
    with pytest.raises(DomainError):
        min_radius_cdf(0, 0.5)
    with pytest.raises(DomainError):
        min_radius_cdf(2, float("nan"))


def test_min_radius_cdf_product_formula():
    for n, x in [(2, 0.3), (5, 0.7), (20, 0.9)]:
        direct = 1.0 - np.prod([1.0 - x ** (2 * k) for k in range(1, n + 1)])
        assert min_radius_cdf(n, x) == pytest.approx(direct, rel=1e-13)


def test_min_radius_cdf_small_x_ratio():
    # cdf(n, x) = x^2 (1 + x^2 + O(x^4)): the ratio to x^2 sits in [1, 1 + 10 x^2]
    for x in (0.01, 0.05, 0.1):
        ratio = min_radius_cdf(20, x) / (x * x)
        assert 1.0 <= ratio <= 1.0 + 10.0 * x * x


def test_min_radius_cdf_monotone():
    xs = np.linspace(0.01, 0.99, 40)
    vals = [min_radius_cdf(4, x) for x in xs]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    # more points can only shrink the minimum
    assert min_radius_cdf(8, 0.5) >= min_radius_cdf(4, 0.5)


def test_min_law_against_sampler():
    reps = 20_000
    rng = make_rng(7, 0, PHASE_MODULI)
    mins = np.array([sample_moduli(20, rng).min() for _ in range(reps)])
    stat = ks_statistic(mins, lambda x: min_radius_cdf(20, x))
    assert stat < ks_critical_value(reps, 1e-3)


# -----------------------------------------------------------------------------
# multi-point positional law for a fixed active set
# -----------------------------------------------------------------------------
@pytest.mark.parametrize(
    "literal, indices",
    [
        ("disc:0.8", (0, 1, 2)),
        ("annulus:0.5:0.9", (0, 1, 2, 3)),
        ("intervals:0.1-0.3,0.5-0.7,0.85-0.95", (0, 2, 3, 5)),
        ("family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint", (0, 1, 2, 3)),
    ],
)
def test_multi_point_law(literal, indices):
    # Centre of mass S = sum x_i: since int x phi_n conj(phi_n') equals
    # sqrt(nu_{n+1} / nu_n) for n' = n + 1 and 0 otherwise, E|S|^2 is the sum
    # of nu_{n+1} / nu_n over n in I with n + 1 not in I (nu_n = pi lambda_n
    # / (n + 1)); two-sided z-test at alpha = 1e-3.  On the same draws, the
    # minimum modulus against Kostlan's law: the moduli are independent with
    # the single-index radial laws (Hough, Krishnapur, Peres and Virag 2009,
    # Thm 4.7.1), so P(min <= x) = 1 - prod_n (1 - F_n(x)) and the maximum
    # modulus has P(max <= x) = prod_n F_n(x).
    parsed = parse_region_literal(literal)
    if isinstance(parsed, FamilySpec):
        parsed = construct_family(parsed).region
    spectrum = BergmanSpectrum(parsed)
    reps = 2000
    active = ActiveIndexSet(indices=indices, n_eigen=max(indices) + 1)
    lam = spectrum.eigenvalues(max(indices) + 2)
    expected = sum(
        lam[n + 1] * (n + 1) / (lam[n] * (n + 2)) for n in indices if n + 1 not in indices
    )
    centre_sq = np.empty(reps)
    minima = np.empty(reps)
    maxima = np.empty(reps)
    for r in range(reps):
        conf = sample_positions(spectrum, active, make_rng(29, r, PHASE_SAMPLE))
        centre_sq[r] = abs(sum(conf.points)) ** 2
        moduli = conf.moduli()
        minima[r], maxima[r] = moduli[0], moduli[-1]
    z = (centre_sq.mean() - expected) / (centre_sq.std(ddof=1) / math.sqrt(reps))
    assert abs(z) < 3.29, z
    cdfs = [_piecewise_radial_cdf(parsed.intervals, n) for n in indices]

    def kostlan_min(x):
        return 1.0 - np.prod([1.0 - f(x) for f in cdfs], axis=0)

    def kostlan_max(x):
        return np.prod([f(x) for f in cdfs], axis=0)

    threshold = ks_critical_value(reps, 1e-3)
    assert ks_statistic(minima, kostlan_min) < threshold
    assert ks_statistic(maxima, kostlan_max) < threshold


# -----------------------------------------------------------------------------
# stream separation
# -----------------------------------------------------------------------------
def test_streams_distinct_phases():
    a = make_rng(5, 0, PHASE_SAMPLE).random(4)
    b = make_rng(5, 0, PHASE_BERNOULLI).random(4)
    c = make_rng(5, 0, PHASE_MODULI).random(4)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(b, c)


def test_streams_distinct_replicas():
    a = make_rng(5, 0, PHASE_SAMPLE).random(4)
    b = make_rng(5, 1, PHASE_SAMPLE).random(4)
    assert not np.array_equal(a, b)


def test_streams_validation():
    with pytest.raises(DomainError):
        make_rng(-1)
    with pytest.raises(DomainError):
        make_rng(0, -1)
    with pytest.raises(DomainError):
        make_rng(0, 1 << 56)
    with pytest.raises(DomainError):
        make_rng(0, 0, 256)


def test_seed_beyond_key_word_rejected(disc09):
    # the key keeps a seed in one 64-bit word: seed + 2**64 must not replay seed
    with pytest.raises(DomainError):
        make_rng(5 + (1 << 64))
    with pytest.raises(DomainError):
        SamplerConfig(beta=5.0, seed=5 + (1 << 64))
    top = (1 << 64) - 1
    key = np.array([top, 3 << 8 | 1], dtype=np.uint64)
    expect = np.random.Generator(np.random.Philox(key=key)).random(4)
    assert make_rng(top, 3, 1).random(4).tolist() == expect.tolist()
    conf = sample(disc09, SamplerConfig(beta=5.0, seed=top))
    assert conf.meta.seed == top
