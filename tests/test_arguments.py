"""One table over every public entry point that takes a count, an index, a
seed, a bounded real, a point or a pair of reals.  Each is fed NaN, +-inf,
None, a string, 1.5 where an integer is required, and the first value
outside its range (a point outside the region, a pair of the wrong length);
each must raise the package's named error (never a bare TypeError,
ValueError or OverflowError, and never truncate 1.5 to 1)."""

import math

import numpy as np
import pytest

from bergman_dpp import verify
from bergman_dpp import (
    ActiveIndexSet,
    BergmanSpectrum,
    CountDistribution,
    DomainError,
    FamilySpec,
    GeometricWeights,
    GinibreSpectrum,
    RadialRegion,
    RegionError,
    SamplerConfig,
    annulus,
    bernoulli_phase,
    build_bound_report,
    check_properties,
    chernoff_consistency,
    chernoff_lower,
    chernoff_upper,
    coincidence_probability,
    construct_family,
    count_gof,
    count_pmf,
    coupling_tail,
    default_bound_truncation,
    default_truncation,
    disc,
    intensity_profile_test,
    ks_critical_value,
    ks_statistic,
    make_region,
    make_rng,
    mc_count_stats,
    min_radius_cdf,
    sample,
    sample_moduli,
    sample_positions,
    sufficiency_margin,
    truncation_constants,
    verify_gates,
    wasserstein_bound,
)

NAN, INF = float("nan"), float("inf")
NOT_REAL = (NAN, INF, -INF, None, "x")
NOT_INT = NOT_REAL + (1.5,)
# eigenfunction indices and truncation orders are int64 array entries
BEYOND_INT64 = (1 << 63, 1 << 64)
# numpy describes no array of 2**63 bytes: 2**60 float64 entries or more
BEYOND_ARRAY = (1 << 60, 1 << 62)
# an integer no float holds; ids show its first 40 digits
BEYOND_FLOAT = (10**400,)

SPEC = BergmanSpectrum.disc(0.9)
HALF = BergmanSpectrum.disc(0.5)
# three intervals: 2**59 indices already need 3 * 2**62 bytes
THREE = BergmanSpectrum(RadialRegion(((0.1, 0.2), (0.3, 0.4), (0.5, 0.6))))
GIN = GinibreSpectrum(1.0)
WEIGHTS = GeometricWeights(0.1, 0.5)
CONFS = [sample(SPEC, SamplerConfig(n_eigen=5, seed=1), replica=r) for r in range(3)]
HIST = np.bincount([0, 1, 1, 2, 2, 2, 3, 3, 4] * 20, minlength=6)
DIST = count_pmf(SPEC.eigenvalues(5))


def _family(**kw):
    args = {"a0": 0.2, "b0": 0.3, "weights": WEIGHTS, "count": 5}
    args.update(kw)
    return FamilySpec(**args)


# (name, call, a valid value, bad values beyond NOT_INT / NOT_REAL, error)
INT_CASES = [
    ("SamplerConfig.n_eigen", lambda v: SamplerConfig(n_eigen=v), 3, (0,), DomainError),
    ("SamplerConfig.seed", lambda v: SamplerConfig(beta=1.0, seed=v), 7, (-1, 1 << 64), DomainError),
    ("ActiveIndexSet.indices", lambda v: ActiveIndexSet((v,), 8), 2, (-1, 8), DomainError),
    # an index below 2**63 and a truncation beyond it: a set no plan holds
    ("ActiveIndexSet.indices.int64", lambda v: ActiveIndexSet((v,), 1 << 65), 1 << 62, BEYOND_INT64, DomainError),
    (
        "sample_positions.active_index",
        lambda v: sample_positions(SPEC, ActiveIndexSet((v,), 300), make_rng(0)),
        299, (-1, 300) + BEYOND_INT64, DomainError,
    ),
    ("ActiveIndexSet.n_eigen", lambda v: ActiveIndexSet((), v), 3, (-1,), DomainError),
    ("make_rng.seed", lambda v: make_rng(v), 3, (-1, 1 << 64), DomainError),
    ("make_rng.replica", lambda v: make_rng(0, v), 3, (-1, 1 << 56), DomainError),
    ("make_rng.phase", lambda v: make_rng(0, 0, v), 3, (-1, 256), DomainError),
    ("sample.replica", lambda v: sample(SPEC, SamplerConfig(n_eigen=3), v), 1, (-1, 1 << 56), DomainError),
    ("bernoulli_phase.n_eigen", lambda v: bernoulli_phase(SPEC, v, make_rng(0)), 4, (0,), DomainError),
    ("sample_moduli.n", lambda v: sample_moduli(v, make_rng(0)), 4, (0,), DomainError),
    ("min_radius_cdf.n", lambda v: min_radius_cdf(v, 0.5), 4, (0,), DomainError),
    ("FamilySpec.count", lambda v: _family(count=v), 4, (0,), RegionError),
    ("BergmanSpectrum.eigenvalues", SPEC.eigenvalues, 4, (-1,) + BEYOND_ARRAY + BEYOND_INT64, DomainError),
    ("BergmanSpectrum.eigenvalues.intervals", THREE.eigenvalues, 4, (1 << 59,), DomainError),
    ("BergmanSpectrum.eigenvalue", SPEC.eigenvalue, 4, (-1,) + BEYOND_INT64, DomainError),
    (
        "BergmanSpectrum.feature_matrix.indices",
        lambda v: SPEC.feature_matrix([0, v], 0.1), 4, (-1,) + BEYOND_INT64, DomainError,
    ),
    ("BergmanSpectrum.eigenfunction", lambda v: SPEC.eigenfunction(v, 0.1), 4, (-1,) + BEYOND_INT64, DomainError),
    (
        "BergmanSpectrum.truncated_kernel",
        lambda v: SPEC.truncated_kernel(v, 0.1, 0.2), 4, (0,) + BEYOND_ARRAY + BEYOND_INT64, DomainError,
    ),
    ("GinibreSpectrum.eigenvalues", GIN.eigenvalues, 4, (-1,) + BEYOND_ARRAY + BEYOND_INT64, DomainError),
    ("GinibreSpectrum.eigenvalue", GIN.eigenvalue, 4, (-1,) + BEYOND_INT64, DomainError),
    ("coupling_tail.n_eigen", lambda v: coupling_tail(0.9, v), 4, (-1,) + BEYOND_INT64 + BEYOND_FLOAT, DomainError),
    ("coincidence_probability.n_eigen", lambda v: coincidence_probability(0.9, v), 4, (-1,) + BEYOND_INT64 + BEYOND_FLOAT, DomainError),
    ("sufficiency_margin.n_eigen", lambda v: sufficiency_margin(0.5, v), 4, (0,) + BEYOND_INT64 + BEYOND_FLOAT, DomainError),
    ("build_bound_report.n_eigen", lambda v: build_bound_report(0.9, n_eigen=v), 4, (0,) + BEYOND_INT64 + BEYOND_FLOAT, DomainError),
    (
        "mc_count_stats.reps",
        lambda v: mc_count_stats(SPEC, SamplerConfig(n_eigen=5), v), 4, (0, 1 << 56), DomainError,
    ),
    ("ks_critical_value.n", ks_critical_value, 4, (0,), DomainError),
    ("verify_gates.seed", lambda v: verify_gates(v, 200), 7, (-1, 1 << 64), DomainError),
    # below 13 replicas the count-law gate has fewer than two cells
    ("verify_gates.reps", lambda v: verify_gates(7, v), 200, (0, 1, 12, 1 << 56), DomainError),
    ("CountDistribution.moment", DIST.moment, 2, (-1,) + BEYOND_INT64 + BEYOND_FLOAT, DomainError),
    ("GeometricWeights.term", WEIGHTS.term, 3, (-1,) + BEYOND_INT64 + BEYOND_FLOAT, RegionError),
    ("GeometricWeights.tail_from", WEIGHTS.tail_from, 3, (-1,) + BEYOND_INT64 + BEYOND_FLOAT, RegionError),
    # every integer is a valid count here: below 0 the cdf is 0 and the tail 1
    ("CountDistribution.cdf", DIST.cdf, 2, (), DomainError),
    ("CountDistribution.upper_tail", DIST.upper_tail, 2, (), DomainError),
]

_ABOVE_ONE = math.nextafter(1.0, 2.0)
_ABOVE_ZERO = math.nextafter(0.0, 1.0)
REAL_CASES = [
    ("SamplerConfig.beta", lambda v: SamplerConfig(beta=v), 2.0, (0.0,), DomainError),
    # 1e308 is finite, but its product with the trace overflows
    ("default_truncation.beta", lambda v: default_truncation(SPEC, v), 2.0, (0.0, 1e308), DomainError),
    ("default_bound_truncation.beta", lambda v: default_bound_truncation(0.9, v), 2.0, (0.0, 1e308), DomainError),
    ("wasserstein_bound.beta", lambda v: wasserstein_bound(0.9, v), 2.0, (0.0,), DomainError),
    ("truncation_constants.radius", truncation_constants, 0.5, (0.0, 1.0), DomainError),
    ("coupling_tail.radius", lambda v: coupling_tail(v, 3), 0.5, (0.0, 1.0), DomainError),
    ("coincidence_probability.radius", lambda v: coincidence_probability(v, 3), 0.5, (0.0, 1.0), DomainError),
    ("build_bound_report.radius", lambda v: build_bound_report(v, beta=1.0), 0.5, (0.0, 1.0), DomainError),
    ("chernoff_lower.mean", lambda v: chernoff_lower(v, 0.5), 3.0, (0.0,), DomainError),
    ("chernoff_lower.c", lambda v: chernoff_lower(3.0, v), 0.5, (0.0, 1.0), DomainError),
    ("chernoff_upper.mean", lambda v: chernoff_upper(v, 0.5), 3.0, (0.0,), DomainError),
    ("chernoff_upper.c", lambda v: chernoff_upper(3.0, v), 0.5, (0.0,), DomainError),
    ("sufficiency_margin.eps", lambda v: sufficiency_margin(v, 3), 0.5, (0.0, 1.0), DomainError),
    # a radius whose square, the trace, overflows
    ("GinibreSpectrum.radius", GinibreSpectrum, 1.5, (0.0, 1e200), DomainError),
    ("ks_critical_value.alpha", lambda v: ks_critical_value(100, v), 0.01, (0.0, 1.0), DomainError),
    ("count_gof.alpha", lambda v: count_gof(HIST, DIST, alpha=v), 0.01, (0.0, 1.0), DomainError),
    # every histogram entry is a count: a finite non-negative integer
    ("count_gof.histogram", lambda v: count_gof([v, *HIST[1:]], DIST), 20, (-1, 0.5, "1"), DomainError),
    # eigenvalues are reals in [0, 1], never numeric strings
    (
        "count_pmf.eigenvalues",
        lambda v: count_pmf([0.5, v]), 0.5, ("0.5", -_ABOVE_ZERO, _ABOVE_ONE), DomainError,
    ),
    (
        "intensity_profile_test.alpha",
        lambda v: intensity_profile_test(CONFS, SPEC, [(0.0, 0.5)], alpha=v),
        0.01, (0.0, 1.0), DomainError,
    ),
    ("check_properties.delta", lambda v: check_properties(disc(0.5), v), 0.1, (0.0, _ABOVE_ONE), DomainError),
    ("disc.radius", disc, 0.5, (0.0, 1.0), RegionError),
    ("annulus.inner", lambda v: annulus(v, 0.9), 0.5, (-0.1, 0.9), RegionError),
    ("annulus.outer", lambda v: annulus(0.5, v), 0.9, (0.5, 1.0), RegionError),
    # a weight whose total u0 / (1 - ratio) overflows
    ("GeometricWeights.u0", lambda v: GeometricWeights(v, 0.5), 0.1, (0.0, 1e308), RegionError),
    ("GeometricWeights.ratio", lambda v: GeometricWeights(0.1, v), 0.5, (0.0, 1.0), RegionError),
    ("FamilySpec.a0", lambda v: _family(a0=v), 0.2, (0.0, 0.3), RegionError),
    ("FamilySpec.b0", lambda v: _family(b0=v), 0.3, (0.2, 1.0), RegionError),
    ("FamilySpec.theta", lambda v: _family(rule="offset", theta=v), 0.5, (0.0, 1.0), RegionError),
    ("CountDistribution.quantile", DIST.quantile, 0.5, (-_ABOVE_ZERO, _ABOVE_ONE), DomainError),
    ("chernoff_consistency.cs", lambda v: chernoff_consistency(DIST, [0.2, v]), 0.5, ("0.5", 0.0, 1.0), DomainError),
    (
        "intensity_profile_test.bins",
        lambda v: intensity_profile_test(CONFS, SPEC, [(0.0, v)]),
        0.5, ("0.5", b"0.5", 0.0, 0.95), DomainError,
    ),
    ("make_region.endpoint", lambda v: make_region([(0.1, v)]), 0.2, ("0.2", b"0.2", 0.1), RegionError),
    ("RadialRegion.endpoint", lambda v: RadialRegion(((0.1, v),)), 0.2, ("0.2", b"0.2", 0.1), RegionError),
    # 0 <= a_0 < b_0 < a_1 < b_1 < 1: a negative inner radius, a second
    # interval that overlaps or touches the first, an outer radius of 1
    ("RadialRegion.first_inner", lambda v: RadialRegion(((v, 0.3),)), 0.0, (-_ABOVE_ZERO, -0.1, 0.3), RegionError),
    ("RadialRegion.second_inner", lambda v: RadialRegion(((0.1, 0.3), (v, 0.6))), 0.4, (0.2, 0.3), RegionError),
    ("RadialRegion.last_outer", lambda v: RadialRegion(((0.1, 0.3), (0.5, v))), 0.9, (0.5, 1.0, _ABOVE_ONE), RegionError),
    # a pair that touches the one before merges with it, so it is checked first
    ("make_region.touching", lambda v: make_region([(0.1, 0.2), (0.2, v)]), 0.3, (0.15, 0.2), RegionError),
    # samples are reals or arrays of reals, every element finite
    ("ks_statistic.samples", lambda v: ks_statistic([0.1, v], lambda x: x), 0.5, (["0.5"], [[0.5]]), DomainError),
    # points must be finite complex numbers in the closed region
    ("BergmanSpectrum.feature_matrix.z", lambda v: SPEC.feature_matrix([1], [0.1, v]), 0.3, (0.95, 0.1 + 0.9j), DomainError),
    ("BergmanSpectrum.feature_matrix.far_z", lambda v: HALF.feature_matrix([1500], v), 0.4, (0.9,), DomainError),
    # x is a real or an array of reals, every element checked
    (
        "min_radius_cdf.x",
        lambda v: min_radius_cdf(3, v), 0.5,
        ([0.5, NAN], np.array([0.2, INF]), ["0.5"], np.array([0.5], dtype=object), [[0.1], 0.2]),
        DomainError,
    ),
]


def _rows(cases, bad):
    return [
        pytest.param(call, value, error, id=f"{name}-{value!r:.40}")
        for name, call, _, extra, error in cases
        for value in bad + extra
    ]


@pytest.mark.parametrize(
    "call, value", [pytest.param(c[1], c[2], id=c[0]) for c in INT_CASES + REAL_CASES]
)
def test_valid_value_accepted(call, value):
    call(value)


@pytest.mark.parametrize("call, value, error", _rows(INT_CASES, NOT_INT) + _rows(REAL_CASES, NOT_REAL))
def test_bad_value_raises_named_error(call, value, error):
    with pytest.raises(error):
        call(value)


# a ragged sequence is not an array of points, indices or reals
RAGGED_CASES = [
    ("BergmanSpectrum.feature_matrix.z", lambda: SPEC.feature_matrix([0], [[0.1, 0.2], 0.3])),
    ("BergmanSpectrum.feature_matrix.indices", lambda: SPEC.feature_matrix([[0, 1], 2], 0.1)),
    ("chernoff_consistency.cs", lambda: chernoff_consistency(DIST, [[0.1], 0.2])),
    ("count_pmf.eigenvalues", lambda: count_pmf([[0.5], [0.5, 0.2]])),
    ("count_gof.histogram", lambda: count_gof([[20, 40], 60], DIST)),
    ("ks_statistic.samples", lambda: ks_statistic([[0.1, 0.2], 0.3], lambda x: x)),
]


@pytest.mark.parametrize("call", [pytest.param(c, id=n) for n, c in RAGGED_CASES])
def test_ragged_sequence_raises_named_error(call):
    with pytest.raises(DomainError):
        call()


BAD_PAIRS = (None, 0.5, (0.1,), (0.1, 0.2, 0.3), ("0.1", "0.2"), ("0.5", b"0.6"))
PAIR_CASES = [
    ("make_region", lambda p: make_region([p]), RegionError),
    ("RadialRegion", lambda p: RadialRegion((p,)), RegionError),
    ("intensity_profile_test.bins", lambda p: intensity_profile_test(CONFS, SPEC, [p]), DomainError),
]


@pytest.mark.parametrize(
    "call, pair, error",
    [pytest.param(c, p, e, id=f"{n}-{p!r}") for n, c, e in PAIR_CASES for p in BAD_PAIRS],
)
def test_bad_pair_raises_named_error(call, pair, error):
    with pytest.raises(error):
        call(pair)


def test_integral_floats_become_ints():
    # 2.0 is an integer; it is stored and recorded as the int 2
    active = ActiveIndexSet((1.0,), 2.0)
    assert active.indices == (1,) and active.n_eigen == 2
    assert all(type(i) is int for i in active.indices) and type(active.n_eigen) is int
    cfg = SamplerConfig(n_eigen=5.0, seed=3.0)
    assert (cfg.n_eigen, cfg.seed) == (5, 3) and type(cfg.seed) is int
    conf = sample(SPEC, SamplerConfig(n_eigen=9, seed=4), replica=1.0)
    assert type(conf.meta.replica) is int
    assert conf.to_dict() == sample(SPEC, SamplerConfig(n_eigen=9, seed=4), replica=1).to_dict()


def test_count_law_domains_kept():
    # the rule rejects non-integers and non-reals only; every finite value
    # that had a meaning before keeps it
    d = count_pmf([0.5, 0.5])
    assert d.upper_tail(2) == 0.25 and d.upper_tail(-3) == 1.0 and d.upper_tail(9) == 0.0
    assert d.cdf(-1) == 0.0 and d.cdf(-5) == 0.0 and d.cdf(2.0) == 1.0
    assert d.quantile(0) == 0 and d.quantile(1) == 2
    assert min_radius_cdf(3, -1.0) == 0.0 and min_radius_cdf(3, 2.0) == 1.0


@pytest.mark.parametrize("seed, reps", [(-1, 200), (7, 0), (7, 1.5), (7, 12), (None, 200)])
def test_verify_gates_checks_arguments_first(seed, reps, monkeypatch):
    # a bad seed or replica count fails before the first gate runs: the
    # count laws of the audit and the count gate are its first work
    def no_gate(*args):
        raise AssertionError("_count_pmfs ran before the arguments were checked")

    monkeypatch.setattr(verify, "_count_pmfs", no_gate)
    with pytest.raises(DomainError):
        verify_gates(seed, reps)


@pytest.mark.parametrize("cdf", [None, 0.5, "x"])
def test_ks_statistic_cdf_not_callable(cdf):
    with pytest.raises(DomainError):
        ks_statistic([0.1, 0.2], cdf)


# an argument of the wrong kind: a list that is not iterable, an object
# that is not the library's, a count law that is not a law
WRONG_KIND_CASES = [
    ("RadialRegion-None", lambda: RadialRegion(None), RegionError),
    ("make_region-None", lambda: make_region(None), RegionError),
    ("make_region-5", lambda: make_region(5), RegionError),
    ("intensity_profile_test.configs-None", lambda: intensity_profile_test(None, SPEC, [(0.1, 0.5)]), DomainError),
    ("intensity_profile_test.bins-None", lambda: intensity_profile_test(CONFS, SPEC, None), DomainError),
    ("FamilySpec.weights-None", lambda: FamilySpec(0.2, 0.3, None, 5), RegionError),
    ("construct_family-None", lambda: construct_family(None), RegionError),
    ("bernoulli_phase.spectrum-None", lambda: bernoulli_phase(None, 5, make_rng(0)), DomainError),
    ("sample.spectrum-None", lambda: sample(None, SamplerConfig(n_eigen=5)), DomainError),
    ("mc_count_stats.spectrum-None", lambda: mc_count_stats(None, SamplerConfig(n_eigen=5), 10), DomainError),
    ("sample.config-None", lambda: sample(SPEC, None), DomainError),
    ("mc_count_stats.config-None", lambda: mc_count_stats(SPEC, None, 10), DomainError),
    ("bernoulli_phase.rng-None", lambda: bernoulli_phase(SPEC, 5, None), DomainError),
    ("sample_positions.rng-None", lambda: sample_positions(SPEC, ActiveIndexSet((0, 2), 5), None), DomainError),
    ("sample_positions.rng-None-empty", lambda: sample_positions(SPEC, ActiveIndexSet((), 5), None), DomainError),
    ("sample_moduli.rng-None", lambda: sample_moduli(3, None), DomainError),
    ("intensity_profile_test.spectrum-None", lambda: intensity_profile_test(CONFS, None, [(0.1, 0.5)]), DomainError),
    ("count_gof.dist-x", lambda: count_gof([5, 5], "x"), DomainError),
    ("chernoff_consistency.dist-x", lambda: chernoff_consistency("x", [0.1]), DomainError),
    ("CountDistribution-x", lambda: CountDistribution("x"), DomainError),
    ("CountDistribution-nan", lambda: CountDistribution([NAN, 1.0]), DomainError),
    ("CountDistribution-negative", lambda: CountDistribution([-0.5, 1.5]), DomainError),
    ("CountDistribution-2d", lambda: CountDistribution([[0.5, 0.5]]), DomainError),
]


@pytest.mark.parametrize("call, error", [pytest.param(c, e, id=n) for n, c, e in WRONG_KIND_CASES])
def test_wrong_kind_raises_named_error(call, error):
    with pytest.raises(error):
        call()


def test_duck_typed_spectra_kept():
    # a spectrum is anything with an eigenvalues(n) method, and a trace()
    # method where N comes from beta
    class Halves:
        def eigenvalues(self, n):
            return np.full(n, 0.5)

    class TracedHalves(Halves):
        def trace(self):
            return 2.5

    for spectrum in (GIN, Halves(), TracedHalves()):
        assert bernoulli_phase(spectrum, 5, make_rng(0)).n_eigen == 5
        assert mc_count_stats(spectrum, SamplerConfig(n_eigen=5), 10).reps == 10
    # beta 2 on trace 2.5 truncates at 5, as n_eigen=5 does
    traced = TracedHalves()
    assert default_truncation(traced, 2.0) == 5
    assert SamplerConfig(beta=2.0).resolve_truncation(traced) == 5
    want = mc_count_stats(traced, SamplerConfig(n_eigen=5), 10).histogram
    assert np.array_equal(mc_count_stats(traced, SamplerConfig(beta=2.0), 10).histogram, want)
    for call in (
        lambda: default_truncation(Halves(), 2.0),
        lambda: SamplerConfig(beta=2.0).resolve_truncation(Halves()),
        lambda: mc_count_stats(Halves(), SamplerConfig(beta=2.0), 10),
    ):
        with pytest.raises(DomainError, match=r"has no trace\(\) method"):
            call()
    # a trace is checked as a real, as beta is
    traced.trace = lambda: "2.5"
    with pytest.raises(DomainError, match="trace must lie in"):
        default_truncation(traced, 2.0)
