import dataclasses
import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import ndtri
from scipy.stats import ks_2samp

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
    count_gof,
    count_pmf,
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
from bergman_dpp import sampler, spectral
from bergman_dpp.sampler import SAMPLER_VERSION
from bergman_dpp import streams
from bergman_dpp.streams import PHASE_BERNOULLI, PHASE_MODULI, PHASE_SAMPLE, _replica_uniforms
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


@pytest.mark.parametrize(
    "data", [{}, None, [], {"points": []}, {"points": [1], "meta": {}}, {"points": [], "meta": {}}]
)
def test_point_configuration_from_dict_rejects_non_reports(data):
    with pytest.raises(DomainError):
        PointConfiguration.from_dict(data)


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


def test_sample_meta_acceptance_rate_without_proposals(disc09):
    # an empty active set draws no proposal, so there is no rate to report
    conf = sample_positions(disc09, ActiveIndexSet(indices=(), n_eigen=5), make_rng(0))
    assert conf.meta.proposals == 0 and conf.meta.acceptance_rate is None


def test_sample_meta_from_dict_missing_fields(disc09):
    data = sample(disc09, SamplerConfig(n_eigen=9, seed=11), replica=3).meta.to_dict()
    # a field without a default is required; data that is no meta at all,
    # a dict without the fields or no mapping, is a DomainError too
    for bad in ({k: v for k, v in data.items() if k != "rejections"}, {}, None, []):
        with pytest.raises(DomainError, match="not a sample meta"):
            SampleMeta.from_dict(bad)
    # seed, replica and sampler read as None when absent
    for name in ("seed", "replica", "sampler"):
        meta = SampleMeta.from_dict({k: v for k, v in data.items() if k != name})
        assert getattr(meta, name) is None


@pytest.mark.parametrize("seed, replica", [(0, 0), (3, 2), (11, 7)])
def test_sample_meta_is_the_positional_meta(disc09, annulus59, seed, replica):
    for spectrum in (disc09, annulus59):
        cfg = SamplerConfig(beta=5.0, seed=seed)
        conf = sample(spectrum, cfg, replica)
        rng = make_rng(seed, replica, PHASE_SAMPLE)
        active = bernoulli_phase(spectrum, cfg.resolve_truncation(spectrum), rng)
        direct = sample_positions(spectrum, active, rng)
        assert conf.points == direct.points
        assert conf.meta == dataclasses.replace(direct.meta, seed=seed, replica=replica)
        assert (conf.meta.seed, conf.meta.replica) == (seed, replica)


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


class BadSpectrum:
    def eigenvalues(self, n):
        return np.full(n, 1.5)


class NanSpectrum:
    def eigenvalues(self, n):
        lam = np.full(n, 0.5)
        lam[1] = np.nan
        return lam


def test_bernoulli_phase_validation(disc09):
    rng = make_rng(0)
    with pytest.raises(DomainError):
        bernoulli_phase(disc09, 0, rng)
    with pytest.raises(DomainError):
        bernoulli_phase(BadSpectrum(), 4, rng)


def test_spectrum_must_provide_every_eigenvalue():
    class Short:
        def eigenvalues(self, n):
            return np.full(n - 1, 0.5)

    with pytest.raises(DomainError, match="spectrum must provide 5 eigenvalues"):
        bernoulli_phase(Short(), 5, make_rng(0))


def test_nan_eigenvalue_rejected():
    # a NaN compares False with every uniform, so unchecked it would leave its
    # index silently unselected
    with pytest.raises(DomainError):
        bernoulli_phase(NanSpectrum(), 4, make_rng(0))
    with pytest.raises(DomainError):
        mc_count_stats(NanSpectrum(), SamplerConfig(n_eigen=4), reps=10)


def _counted_eigenvalues(monkeypatch, corrupt=lambda lam: lam):
    """Count BergmanSpectrum.eigenvalues calls (their n_eigen), passing each
    result through corrupt."""
    calls = []
    eigenvalues = BergmanSpectrum.eigenvalues

    def counted(self, n_eigen):
        calls.append(n_eigen)
        return corrupt(eigenvalues(self, n_eigen))

    monkeypatch.setattr(BergmanSpectrum, "eigenvalues", counted)
    return calls


def test_plan_reused_across_replicas(monkeypatch):
    # one (spectrum, N) evaluates its eigenvalues once, however many replicas
    calls = _counted_eigenvalues(monkeypatch)
    spectrum = BergmanSpectrum.disc(0.9)
    config = SamplerConfig(beta=5.0, seed=3)
    confs = [sample(spectrum, config, r) for r in range(20)]
    assert calls == [22]
    # another truncation replaces the plan, and coming back rebuilds it
    for cfg in (SamplerConfig(n_eigen=7, seed=3), config, config):
        got = sample(spectrum, cfg, 4).to_dict()
        assert got == sample(BergmanSpectrum.disc(0.9), cfg, 4).to_dict()
    assert calls == [22, 7, 7, 22, 22, 22]
    assert sample(spectrum, config, 4).to_dict() == confs[4].to_dict()
    # the public call still returns a fresh writable array; writing into it,
    # or trying to write into the plan's, changes no later sample
    lam = spectrum.eigenvalues(22)
    assert lam.flags.writeable and lam is not spectrum.eigenvalues(22)
    lam[:] = 1.0
    with pytest.raises(ValueError):
        spectral._plan_of(spectrum, 22).lam[:] = 1.0
    assert [sample(spectrum, config, r).to_dict() for r in range(20)] == [
        c.to_dict() for c in confs
    ]


def test_plan_not_stored_for_unchecked_spectra(monkeypatch):
    # other spectrum types are evaluated and checked on every call
    for stub in (BadSpectrum(), NanSpectrum()):
        for _ in range(3):
            with pytest.raises(DomainError):
                bernoulli_phase(stub, 4, make_rng(0))
    # a Bergman spectrum whose eigenvalues fail the check stores nothing
    calls = _counted_eigenvalues(monkeypatch, lambda lam: lam + 1.0)
    spectrum = BergmanSpectrum.disc(0.9)
    for _ in range(3):
        with pytest.raises(DomainError):
            sample(spectrum, SamplerConfig(n_eigen=5), 0)
    assert calls == [5, 5, 5] and spectrum._plan is None


def test_direct_calls_build_one_plan_per_truncation(monkeypatch):
    # sample_positions and the one-point draws read the plan of their
    # active set's N: repeated calls evaluate the eigenvalues once per
    # (spectrum, N), whichever active set they carry, and give the bytes a
    # fresh spectrum gives
    sets = [ActiveIndexSet((0, 3), 5), ActiveIndexSet((1, 2, 4), 5), ActiveIndexSet((6,), 7)]

    def draws(spectrum):
        return [
            sample_positions(spectrum, active, make_rng(4, r)).to_dict()
            for active in sets
            for r in range(10)
        ]

    want = draws(BergmanSpectrum.disc(0.9))
    one = sampler._single_index_points(BergmanSpectrum.disc(0.9), sets[2], 4, 50)
    calls = _counted_eigenvalues(monkeypatch)
    spectrum = BergmanSpectrum.disc(0.9)
    assert draws(spectrum) == want and calls == [5, 7]
    for _ in range(3):
        got = sampler._single_index_points(spectrum, sets[2], 4, 50)
        assert got.tobytes() == one.tobytes()
    assert calls == [5, 7]
    sample_positions(spectrum, sets[0], make_rng(0))
    assert calls == [5, 7, 5] and spectrum._plan.n_eigen == 5


def test_unplannable_truncation_raises_before_allocating():
    # no Bernoulli phase draws an active set of N = 2**65, and no plan holds
    # one: the eigenvalue count check refuses it before any array is built
    spectrum = BergmanSpectrum.disc(0.9)
    active = ActiveIndexSet((1 << 62,), 1 << 65)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="n_eigen"):
            sample_positions(spectrum, active, make_rng(0))
        with pytest.raises(DomainError, match="n_eigen"):
            sampler._single_index_points(spectrum, active, 0, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16 and spectrum._plan is None
    # an empty active set needs no plan
    assert len(sample_positions(spectrum, ActiveIndexSet((), 1 << 65), make_rng(0))) == 0


PLAN_SPECTRA = [BergmanSpectrum.disc(0.9), BergmanSpectrum.annulus(0.5, 0.9), GinibreSpectrum(1.5)]


@pytest.mark.parametrize("spectrum", PLAN_SPECTRA, ids=repr)
def test_plan_arrays_are_read_only(spectrum):
    # threads share a plan, so none of its arrays can be written; a duck
    # spectrum's plan has no rows and is kept nowhere
    bergman = isinstance(spectrum, BergmanSpectrum)
    plan = spectral._plan_of(spectrum, 12)
    arrays = [plan.lam, *(plan.rows or ())]
    assert len(arrays) == (4 if bergman else 1)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a.flat[0] = 0.5
    with pytest.raises(dataclasses.FrozenInstanceError):
        plan.lam = np.zeros(12)
    assert getattr(spectrum, "_plan", None) is (plan if bergman else None)


class CountingSpectrum(BergmanSpectrum):
    """A subclass, whose methods sample treats as user code: it keeps its
    plan as the base class does, and sample runs its eigenvalues before it
    resets the thread's cell, from which it draws as for the base class."""

    def __init__(self, region):
        super().__init__(region)
        self.calls = 0

    def eigenvalues(self, n_eigen):
        self.calls += 1
        return super().eigenvalues(n_eigen)


@pytest.mark.parametrize("literal", ["disc:0.9", "intervals:0.1-0.3,0.5-0.7,0.85-0.95"])
def test_subclass_samples_like_the_base_class(literal):
    region = parse_region_literal(literal)
    sub, base = CountingSpectrum(region), BergmanSpectrum(region)
    config = SamplerConfig(beta=5.0, seed=7)
    got = [sample(sub, config, r).to_dict() for r in range(30)]
    assert got == [sample(base, config, r).to_dict() for r in range(30)]
    assert any(conf["points"] for conf in got)
    # its plan: the eigenvalues are evaluated and checked once
    n = sub._plan.n_eigen
    assert n == base._plan.n_eigen and sub.calls == 1
    for _ in range(3):
        assert spectral._plan_of(sub, n) is sub._plan
    assert sub.calls == 1


class NestedSpectrum(CountingSpectrum):
    """A subclass whose eigenvalues samples another spectrum on the same
    thread, so it resets and draws the thread's cell in the middle of the
    outer sample call."""

    def eigenvalues(self, n_eigen):
        sample(BergmanSpectrum.annulus(0.5, 0.9), SamplerConfig(n_eigen=12, seed=3), 1)
        return super().eigenvalues(n_eigen)


@pytest.mark.parametrize("literal", ["disc:0.9", "intervals:0.1-0.3,0.5-0.7,0.85-0.95"])
def test_nested_sample_in_eigenvalues_keeps_the_bytes(literal):
    # sample resolves the plan, and so runs the subclass's eigenvalues, before
    # it resets the cell: a fresh spectrum per replica re-enters every time
    region = parse_region_literal(literal)
    config = SamplerConfig(beta=5.0, seed=7)
    spectra = [NestedSpectrum(region) for _ in range(30)]
    got = [sample(spectrum, config, r).to_dict() for r, spectrum in enumerate(spectra)]
    assert all(spectrum.calls == 1 for spectrum in spectra)
    base = BergmanSpectrum(region)
    assert got == [sample(base, config, r).to_dict() for r in range(30)]
    assert any(conf["points"] for conf in got)


def test_plan_shared_across_threads():
    # threads sampling one spectrum at two truncations replace each other's
    # plan; every configuration must still be the one a fresh spectrum gives
    configs = (SamplerConfig(beta=5.0, seed=2), SamplerConfig(n_eigen=9, seed=2))
    want = {
        (c, r): sample(BergmanSpectrum.disc(0.9), c, r).to_dict() for c in configs for r in range(30)
    }
    shared = BergmanSpectrum.disc(0.9)
    wrong = []

    def work(k):
        for r in range(30):
            c = configs[(r + k) % 2]
            try:
                got = sample(shared, c, r).to_dict()
            except Exception as exc:  # recorded: a thread's exception would not fail the test
                got = exc
            if got != want[c, r]:
                wrong.append((k, r, got))

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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


@pytest.mark.parametrize("radius, n_eigen, seed", [(0.98, 122, 1), (0.8, 1, 4)])
def test_positions_leave_generator_past_drawn_proposals(radius, n_eigen, seed):
    # the positional phase takes 4 doubles per proposal drawn and no more:
    # afterwards the generator continues as a fresh stream advanced past the
    # Bernoulli phase and 4 * meta.proposals doubles
    spectrum = BergmanSpectrum.disc(radius)
    rng = make_rng(seed)
    active = bernoulli_phase(spectrum, n_eigen, rng)
    conf = sample_positions(spectrum, active, rng)
    m = len(active)
    if m > 1:
        # more than the first chunk of every point: some point drew a second
        assert conf.meta.proposals > sum(-(-m // (m - i)) for i in range(m))
    else:
        assert m == 1 and conf.meta.proposals == 1
    fresh = make_rng(seed)
    fresh.random(n_eigen + 4 * conf.meta.proposals)
    assert np.array_equal(rng.random(16), fresh.random(16))


def test_lookahead_stays_within_chunk_cap(disc09, monkeypatch):
    # with the cap at 4 rows, the certain rows of 30 points span many blocks:
    # no draw exceeds the cap, and the draws add up to the proposals
    monkeypatch.setattr(sampler, "_CHUNK_CAP", 4)
    sizes = []

    class Recording:
        def __init__(self, rng):
            self.rng = rng

        def random(self, shape):
            sizes.append(shape[0])
            return self.rng.random(shape)

    rng = make_rng(5)
    conf = sample_positions(disc09, ActiveIndexSet(tuple(range(30)), 30), Recording(rng))
    assert max(sizes) <= 4 and sum(sizes) == conf.meta.proposals
    assert max(conf.meta.rejections) >= 4  # some point drew past its first chunk
    fresh = make_rng(5)
    fresh.random(4 * conf.meta.proposals)
    assert np.array_equal(rng.random(16), fresh.random(16))


class _PinnedFirstDraw:
    """Generator stand-in whose first row of proposals is a fixed row,
    whatever the size of the block drawn first."""

    def __init__(self, row, rng):
        self.row, self.rng = row, rng

    def random(self, shape=None, out=None):
        rows = self.rng.random(shape, out=out)
        if self.row is not None:
            # a draw into a (4,) out is one row
            rows.reshape(-1, 4)[0], self.row = self.row, None
        return rows


def test_massless_proposal_is_rejected(disc09):
    # a proposal at the origin has phi_n = 0 for every n > 0: the 0/0
    # acceptance ratio counts as a rejection, not as NaN
    active = ActiveIndexSet(indices=(1, 4), n_eigen=5)
    rng = _PinnedFirstDraw([0.2, 1.0, 0.3, 0.0], make_rng(3))
    with np.errstate(divide="ignore", invalid="ignore"):
        conf = sample_positions(disc09, active, rng)
    assert conf.meta.rejections[0] == 1
    assert all(0.0 < abs(z) <= 0.9 for z in conf.points)


def _patched_normalizers(monkeypatch, log_inv):
    """Make every phi_n carry the normalizer exp(log_inv) instead of its own."""
    rows = BergmanSpectrum._rows

    def patched(self, idx):
        table, mass, _ = rows(self, idx)
        return table, mass, np.full(len(idx), log_inv)

    monkeypatch.setattr(BergmanSpectrum, "_rows", patched)


@pytest.mark.parametrize("log_inv", [math.inf, math.nan])
def test_first_point_checks_envelope(disc09, monkeypatch, log_inv):
    # the first point runs no projection, but a non-finite ||phi_I||**2 still
    # fails the acceptance-ratio test instead of being accepted
    _patched_normalizers(monkeypatch, log_inv)
    for indices in ((0,), (2, 5)):
        active = ActiveIndexSet(indices=indices, n_eigen=6)
        with pytest.raises(EnvelopeError), np.errstate(invalid="ignore", over="ignore"):
            sample_positions(disc09, active, make_rng(1))


def test_first_point_checks_norm_floor(disc09, monkeypatch):
    # phi_0 scaled to norm 1e-13 < GS_NORM_FLOOR: the first point, which has
    # nothing to project out, still goes through the floor check
    _patched_normalizers(monkeypatch, math.log(1e-13))
    active = ActiveIndexSet(indices=(0,), n_eigen=1)
    with pytest.raises(OrthogonalizationError):
        sample_positions(disc09, active, make_rng(1))


# -----------------------------------------------------------------------------
# one-point draws as one block


@pytest.mark.parametrize(
    "literal",
    [
        "disc:0.8",
        "annulus:0.5:0.9",
        "intervals:0.1-0.3,0.5-0.7,0.85-0.95",
        "disc:0.9995",
        "annulus:0.99:0.995",
    ],
)
def test_single_index_points_match_sample_positions(literal):
    # every replica's point has the bits of its own sample_positions call
    spectrum = BergmanSpectrum(parse_region_literal(literal))
    for n in (0, 3, 40):
        active = ActiveIndexSet(indices=(n,), n_eigen=n + 1)
        for seed in (0, 7):
            got = sampler._single_index_points(spectrum, active, seed, 300)
            want = np.array(
                [
                    sample_positions(spectrum, active, make_rng(seed, r, PHASE_SAMPLE)).points[0]
                    for r in range(300)
                ]
            )
            assert got.tobytes() == want.tobytes()


def _pin_first_row(monkeypatch, replica, row):
    """Pin the first proposal row of one replica's stream, in the block of
    rows and in the replica's reset cell alike."""
    replica_uniforms, cell = sampler._replica_uniforms, sampler._cell

    def pinned(r, rng):
        return _PinnedFirstDraw(row, rng) if r == replica else rng

    def pinned_rows(seed, replicas, phase, n):
        replicas = np.asarray(replicas)
        start = 0
        for rows in replica_uniforms(seed, replicas, phase, n):
            rows[replicas[start : start + len(rows)] == replica, :4] = row
            start += len(rows)
            yield rows

    monkeypatch.setattr(sampler, "_replica_uniforms", pinned_rows)
    monkeypatch.setattr(sampler, "_cell", lambda seed, r, phase: pinned(r, cell(seed, r, phase)))
    return pinned


def test_single_index_points_replay_massless_row(monkeypatch):
    # replica 3's first proposal sits at the origin, where phi_1 = 0: not a
    # certain accept, so that replica goes through sample_positions, which
    # rejects it and accepts from its second chunk
    spectrum = BergmanSpectrum.disc(0.9)
    active = ActiveIndexSet(indices=(1,), n_eigen=2)
    pinned = _pin_first_row(monkeypatch, 3, [0.2, 1.0, 0.3, 0.0])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = sampler._single_index_points(spectrum, active, 5, 8)
        confs = [
            sample_positions(spectrum, active, pinned(r, make_rng(5, r, PHASE_SAMPLE)))
            for r in range(8)
        ]
    assert confs[3].meta.rejections == (1,)
    assert got.tobytes() == np.array([c.points[0] for c in confs]).tobytes()


@pytest.mark.parametrize(
    "log_inv, error",
    [
        (math.inf, EnvelopeError),
        (math.nan, EnvelopeError),
        (math.log(1e-13), OrthogonalizationError),
    ],
)
def test_single_index_points_keep_the_checks(monkeypatch, log_inv, error):
    # a non-finite norm fails the ratio test, a norm below GS_NORM_FLOOR the
    # floor check, in the block as in sample_positions
    _patched_normalizers(monkeypatch, log_inv)
    active = ActiveIndexSet(indices=(0,), n_eigen=1)
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(error) as seq:
            sample_positions(BergmanSpectrum.disc(0.9), active, make_rng(1))
        with pytest.raises(error) as block:
            sampler._single_index_points(BergmanSpectrum.disc(0.9), active, 1, 10)
    assert str(block.value) == str(seq.value)


def test_single_index_points_validation(disc09):
    for indices in ((), (0, 1)):
        with pytest.raises(DomainError):
            sampler._single_index_points(disc09, ActiveIndexSet(indices, 2), 0, 10)
    with pytest.raises(DomainError):
        sampler._single_index_points(GinibreSpectrum(1.0), ActiveIndexSet((0,), 1), 0, 10)
    with pytest.raises(DomainError):
        sampler._single_index_points(disc09, (0,), 0, 10)


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


def _scalar_min_radius_cdf(n, x):
    # the one-real formula, with math.expm1
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if n == 1:
        return x * x
    k = np.arange(1, n + 1, dtype=float)
    return -math.expm1(float(np.log1p(-(x ** (2.0 * k))).sum()))


@pytest.mark.parametrize("n", [1, 2, 20])
def test_min_radius_cdf_array_matches_scalar(n):
    rng = np.random.default_rng(n)
    xs = np.concatenate([rng.uniform(-0.3, 1.3, 10_000 - 6), [-1.0, -0.0, 0.0, 1.0, 2.0, 5e-324]])
    got = min_radius_cdf(n, xs)
    assert got.shape == xs.shape
    assert np.array_equal(got, [_scalar_min_radius_cdf(n, x) for x in xs.tolist()])
    assert np.array_equal(got, [min_radius_cdf(n, x) for x in xs.tolist()])
    assert np.array_equal(min_radius_cdf(n, xs.reshape(100, 100)), got.reshape(100, 100))
    assert type(min_radius_cdf(n, 0.5)) is float


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


@pytest.mark.parametrize(
    "literal, n_eigen, centre, rho",
    [
        ("disc:0.9", 80, 0.3125, 0.4375),
        ("annulus:0.5:0.9", 73, 0.70, 0.18),
        ("intervals:0.1-0.3,0.5-0.7,0.85-0.95", 157, 0.9, 0.0499),
    ],
)
def test_moebius_count_law(literal, n_eigen, centre, rho):
    # The Bergman process is invariant under the disc's automorphisms, and
    # the disc D(c, rho) inside the region is the pseudo-hyperbolic disc of
    # radius R_H around some point: its count has the law of the count in
    # D(0, R_H), the Poisson-binomial of R_H**(2n+2).  With s = (q - p) /
    # (1 - p q), the pseudo-hyperbolic distance across the diameter [p, q],
    # R_H = (1 - sqrt(1 - s**2)) / s.  Off the centre this reads the joint
    # law (angles and projections), which the radial gates do not.  N keeps
    # the sampler's truncation tail below 1e-6, the law's tail is below 1e-15.
    spectrum = BergmanSpectrum(parse_region_literal(literal))
    p, q = centre - rho, centre + rho
    s = (q - p) / (1.0 - p * q)
    r_h = (1.0 - math.sqrt(1.0 - s * s)) / s
    m = 1
    while r_h ** (2 * m + 2) / (1.0 - r_h * r_h) >= 1e-15:
        m += 1
    law = count_pmf(r_h ** (2.0 * np.arange(m) + 2.0))
    config = SamplerConfig(n_eigen=n_eigen, seed=2026)
    counts = [
        sum(abs(z - centre) < rho for z in sample(spectrum, config, r).points) for r in range(5000)
    ]
    report = count_gof(np.bincount(counts), law)
    assert report.passed, report


# the truncated-Haar oracle's phase tag: the library's streams use 0-2 and keep 3 unused
HAAR_PHASE = 0xA5


def _haar_block_eigenvalues(seed, reps, m):
    """Eigenvalues of the top-left m x m block of an (m+1) x (m+1) Haar
    unitary, one row per replica.  The unitary is the Q of a complex Gaussian
    matrix with the phases of R's diagonal moved into it (Mezzadri), and the
    Gaussians are ndtri of make_rng uniforms, not Generator.standard_normal,
    whose stream NEP 19 does not promise to keep across numpy versions."""
    d = m + 1
    u = np.stack([make_rng(seed, r, HAAR_PHASE).random(2 * d * d) for r in range(reps)])
    g = ndtri(u).reshape(reps, 2, d, d)
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    diag = np.diagonal(r, axis1=1, axis2=2)
    q = q * (diag / np.abs(diag))[:, None, :]
    return np.linalg.eigvals(q[:, :m, :m])


def _configuration_statistics(configs) -> dict:
    """One value per configuration, so that replicas stay independent:
    |sum z|**2; and, where there are points enough, the mean nearest-neighbour
    distance, the largest angle gap and the smallest modulus."""
    stats = {"|sum z|^2": [], "nearest neighbour": [], "angle gap": [], "modulus": []}
    for z in configs:
        z = np.asarray(z, dtype=complex)
        stats["|sum z|^2"].append(abs(z.sum()) ** 2)
        if z.size:
            stats["modulus"].append(np.abs(z).min())
        if z.size >= 2:
            dist = np.abs(z[:, None] - z[None, :])
            np.fill_diagonal(dist, np.inf)
            stats["nearest neighbour"].append(dist.min(axis=1).mean())
            angles = np.sort(np.angle(z))
            stats["angle gap"].append(np.diff(angles, append=angles[0] + 2.0 * math.pi).max())
    return stats


def test_truncated_haar_oracle():
    # Zyczkowski and Sommers: the eigenvalues of an M x M block of an
    # (M+1) x (M+1) Haar unitary have joint density prop. to prod |z_i - z_j|**2
    # on the disc, the DPP of the Bergman kernel's first M eigenfunctions.  Those
    # in |z| <= 0.9 are the law sample(disc:0.9, n_eigen=M) draws, with no code
    # in common.  Two-sample KS on four statistics of 5000 replicas each,
    # Bonferroni-corrected to 1e-3 overall.
    m, reps, radius = 22, 5000, 0.9
    oracle = [z[np.abs(z) <= radius] for z in _haar_block_eigenvalues(2026, reps, m)]
    spectrum, config = BergmanSpectrum.disc(radius), SamplerConfig(n_eigen=m, seed=2026)
    drawn = [sample(spectrum, config, r).points for r in range(reps)]
    expected, got = _configuration_statistics(oracle), _configuration_statistics(drawn)
    p_values = {name: ks_2samp(expected[name], got[name]).pvalue for name in expected}
    assert min(p_values.values()) > 1e-3 / len(p_values), p_values


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


def _rows_bits(seed, replicas, phase, n):
    """_replica_uniforms' rows as uint64 bits, with the sizes of its blocks."""
    blocks = list(_replica_uniforms(seed, replicas, phase, n))
    return np.concatenate(blocks).view(np.uint64), [len(b) for b in blocks]


def _make_rng_bits(seed, replicas, phase, n):
    return np.array([make_rng(seed, r, phase).random(n) for r in replicas]).view(np.uint64)


# phase 255 sets every bit of the key's low byte, which the closed-form
# first round xors into hi(M0 c) with the replica
@pytest.mark.parametrize("phase", [PHASE_SAMPLE, PHASE_BERNOULLI, PHASE_MODULI, 255])
@pytest.mark.parametrize("seed", [0, 12, (1 << 64) - 1])
def test_replica_uniforms_match_make_rng(seed, phase):
    # every row holds the bits of the replica's own make_rng cell, on both
    # sides of the crossover between the vectorized rounds and the re-keyed
    # generator, with the replicas out of order
    replicas = [300, 255, 0, 256, (1 << 56) - 1, 7, 1, 299, *range(8, 40)]
    for n in (1, 3, 4, 5, 22, streams._VECTOR_ROW, streams._VECTOR_ROW + 1, 600):
        got, sizes = _rows_bits(seed, replicas, phase, n)
        assert got.shape == (len(replicas), n) and sum(sizes) == len(replicas)
        assert np.array_equal(got, _make_rng_bits(seed, replicas, phase, n))


@pytest.mark.parametrize("n", [4, 40, 41, streams._VECTOR_ROW, streams._VECTOR_ROW + 1])
def test_replica_uniforms_span_passes(n):
    # more replicas than one pass holds: several blocks, in replica order,
    # from the vectorized rounds and, past _VECTOR_ROW, the re-keyed generator
    replicas = np.arange(9000)[::-1]
    got, sizes = _rows_bits(5, replicas, PHASE_BERNOULLI, n)
    assert len(sizes) > 1 and sum(sizes) == 9000
    picks = [0, 1, sizes[0] - 1, sizes[0], sizes[0] + 1, 8999]
    assert np.array_equal(got[picks], _make_rng_bits(5, replicas[picks].tolist(), PHASE_BERNOULLI, n))
    empty = list(_replica_uniforms(5, [], PHASE_BERNOULLI, n))
    assert [b.shape for b in empty] == [(0, n)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, (1 << 64) - 1),
    st.integers(0, (1 << 56) - 1),
    st.sampled_from([PHASE_SAMPLE, PHASE_BERNOULLI, PHASE_MODULI]),
    st.integers(1, 70),
)
def test_replica_uniforms_property(seed, replica, phase, n):
    got, _ = _rows_bits(seed, [replica], phase, n)
    assert np.array_equal(got, _make_rng_bits(seed, [replica], phase, n))


@pytest.mark.parametrize("n", [4, 600])
def test_replica_uniforms_reject_before_first_block(monkeypatch, n):
    # an out-of-range seed or replica raises before any row is computed
    def no_rows(*args):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(streams, "_philox_rows", no_rows)
    monkeypatch.setattr(streams, "make_rng", no_rows)
    for seed, replicas in [(1 << 64, [0]), (-1, [0]), (0, [0, 1 << 56]), (0, [3, -1])]:
        with pytest.raises(DomainError):
            next(_replica_uniforms(seed, replicas, PHASE_BERNOULLI, n))


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


# -----------------------------------------------------------------------------
# the kept generator of each thread
# -----------------------------------------------------------------------------
_LEAVE_CELL = {
    "fresh": lambda rng: None,
    "mid-buffer": lambda rng: rng.random(3),
    "pending 32-bit half": lambda rng: rng.integers(0, 2**32, dtype=np.uint32),
}


@pytest.mark.parametrize("leave", _LEAVE_CELL.values(), ids=_LEAVE_CELL.keys())
@pytest.mark.parametrize("phase", [PHASE_SAMPLE, PHASE_BERNOULLI, PHASE_MODULI])
def test_cell_matches_make_rng(phase, leave):
    # however the last user left the cell, a reset gives the fresh cell's bits
    for seed, replica in [(0, 0), (12, 7), ((1 << 64) - 1, (1 << 56) - 1)]:
        leave(streams._cell(3, 1, phase))
        got, want = streams._cell(seed, replica, phase), make_rng(seed, replica, phase)
        assert got.integers(0, 2**32, 5, dtype=np.uint32).tolist() == want.integers(
            0, 2**32, 5, dtype=np.uint32
        ).tolist()
        assert got.random(9).tobytes() == want.random(9).tobytes()


def test_cell_threads_replay_sequential():
    # each thread keeps its own cell: replicas sampled by interleaved threads
    # give the reports of a sequential run, byte for byte
    spectra = (BergmanSpectrum.disc(0.9), BergmanSpectrum.annulus(0.5, 0.9))
    config = SamplerConfig(beta=5.0, seed=19)
    jobs = [(spectra[r % 2], config, r) for r in range(200)]
    want = [repr(sample(*job).to_dict()) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(sample, *job) for job in jobs]
            got = [repr(f.result(timeout=60).to_dict()) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_sample_builds_one_generator_per_thread(monkeypatch, disc09):
    calls = []

    def counted(*args):
        calls.append(args)
        return make(*args)

    make = streams.make_rng
    monkeypatch.setattr(streams, "make_rng", counted)
    config = SamplerConfig(beta=5.0, seed=8)
    # a new thread has no cell yet: its first call builds it, and no other does
    with ThreadPoolExecutor(max_workers=1) as pool:
        pool.submit(lambda: [sample(disc09, config, r) for r in range(100)]).result(timeout=60)
    assert len(calls) == 1
