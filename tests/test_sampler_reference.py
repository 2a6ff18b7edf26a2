"""sampler.sample_positions against its reference: a verbatim copy of the
block sampler of SAMPLER_VERSION "mixture-1" as it stood before its
proposals were evaluated into one in-place block (only renamed here).

Every configuration must come out the same, as report bytes, and leave the
generator at the same position; a failing draw must fail the same way.
"""

import copy
import json
import math
import sys

import numpy as np
import pytest
from test_sampler import _PinnedFirstDraw, _patched_normalizers

from bergman_dpp import (
    ActiveIndexSet,
    BergmanSpectrum,
    DomainError,
    EnvelopeError,
    FamilySpec,
    OrthogonalizationError,
    PointConfiguration,
    RejectionBudgetError,
    SampleMeta,
    bernoulli_phase,
    construct_family,
    default_truncation,
    make_rng,
    parse_region_literal,
)
from bergman_dpp import sampler
from bergman_dpp.sampler import _CHUNK_CAP, _MAX_REJECTIONS, _RATIO_SLACK, GS_NORM_FLOOR
from bergman_dpp.spectral import _plan_of
from bergman_dpp.streams import PHASE_SAMPLE

# the regions of tests/test_digests.py's sample digests, and an offset family
REGIONS = (
    "disc:0.9",
    "annulus:0.5:0.9",
    "intervals:0.1-0.3,0.5-0.7,0.85-0.95",
    "family:a0=0.2,b0=0.3,u0=0.1,q=0.5,K=50,rule=midpoint",
    "disc:0.98",
    "disc:0.995",
    "family:a0=0.2,b0=0.3,u0=0.05,q=0.4,K=12,rule=offset:0.3",
)


def reference_proposals(u, idx, table, cum, log_inv):
    """Evaluate proposal rows u (pick, radius, angle, acceptance uniforms):
    the acceptance uniforms, log z, phi_I(z), ||phi_I(z)||**2 and the
    denominator of the acceptance ratio."""
    pick = np.searchsorted(cum, u[:, 0] * cum[-1], side="right")
    t = table[np.minimum(pick, len(table) - 1)]
    # r**k uniform between a**k and b**k; 1 - u lies in (0, 1], so r > 0
    r = t[:, 0] * (t[:, 1] + (1.0 - u[:, 1]) * t[:, 2]) ** t[:, 3]
    log_z = np.log(r) + (2j * math.pi) * u[:, 2]
    feats = np.exp(np.multiply.outer(log_z, idx) + log_inv)
    norm_sq = np.square(feats.view(float)).sum(axis=1)
    # a proposal where every phi_n underflows has ratio 0 / 1: a rejection
    return u[:, 3], log_z, feats, norm_sq, np.where(norm_sq > 0.0, norm_sq, 1.0)


def reference_sample_positions(
    spectrum: BergmanSpectrum,
    active: ActiveIndexSet,
    rng: np.random.Generator,
) -> PointConfiguration:
    """Draw one position per active index through the residual densities."""
    if not isinstance(spectrum, BergmanSpectrum):
        raise DomainError("positional sampling needs a monomial eigenfunction family")
    if not isinstance(active, ActiveIndexSet):
        raise DomainError(f"expected an ActiveIndexSet, got {type(active).__name__}")
    idx = np.array(active.indices, dtype=int)
    m = len(idx)
    log_points = []
    rejections: list[int] = []
    proposals = 0
    if m:
        # the float normalizers the reference added; their complex casts are exact
        table, cum, _, log_inv = _plan_of(spectrum, active.n_eigen).mixture(idx)
        mixture = table, cum, log_inv.real
        basis = np.zeros((m, m), dtype=complex)
        conj_basis = np.zeros((m, m), dtype=complex)  # conj(basis), row by row
        # every point draws at least its first chunk, so the first chunks
        # of the points after this one are certain to be consumed
        first = [min(_CHUNK_CAP, -(-m // (m - i))) for i in range(m)]
        later = sum(first)
    # stream rows: pos consumed, [lo, hi) drawn and evaluated in block
    pos = lo = hi = 0

    for i in range(m):
        later -= first[i]
        consumed = chunk_no = 0
        while True:
            # the expected count ceil(m / (m - i)), doubled per further chunk
            c = min(_CHUNK_CAP, -(-m // (m - i)) << chunk_no)
            chunk_no += 1
            if pos + c > hi:
                # extend the block over the rows certain to be consumed, at
                # most _CHUNK_CAP rows from this chunk's start
                end = max(pos + c, min(pos + c + later, pos + _CHUNK_CAP))
                rows = reference_proposals(rng.random((end - hi, 4)), idx, *mixture)
                if hi > pos:
                    rows = [np.concatenate((a[pos - lo :], b)) for a, b in zip(block, rows)]
                block, lo, hi = rows, pos, end
            accept, log_z, feats, norm_sq, denom = (a[pos - lo : pos - lo + c] for a in block)
            pos += c
            if i:
                resid = norm_sq - np.square((feats @ conj_basis[:i].T).view(float)).sum(axis=1)
            else:
                resid = norm_sq  # the basis is empty, and x - 0.0 == x
            # resid <= norm_sq, so a ratio leaves [0, 1] only downwards or as NaN
            ratio = resid / denom
            if not ratio.min() >= -_RATIO_SLACK:
                raise EnvelopeError(
                    f"acceptance ratio {ratio.min()} outside [0, 1] at point {i + 1} of {m}"
                )
            proposals += c
            hits = accept < ratio
            j = int(hits.argmax())
            if hits[j]:
                break
            consumed += c
            if consumed >= _MAX_REJECTIONS:
                raise RejectionBudgetError(
                    f"no acceptance within {_MAX_REJECTIONS} proposals at point "
                    f"{i + 1} of {m} (region {spectrum._literal})"
                )
        rejections.append(consumed + j)
        v = feats[j]
        # CGS2: classical Gram-Schmidt with one re-pass; nothing to remove at i = 0
        for _ in range(2 if i else 0):
            v = v - (conj_basis[:i] @ v) @ basis[:i]
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm < GS_NORM_FLOOR:
            raise OrthogonalizationError(
                f"Gram-Schmidt residual {nrm} below {GS_NORM_FLOOR} at point "
                f"{i + 1} of {m}: numerically duplicate draw"
            )
        basis[i] = v / nrm
        conj_basis[i] = basis[i].conj()
        log_points.append(log_z[j])

    meta = SampleMeta(
        region=spectrum._literal,
        n_eigen=active.n_eigen,
        active_indices=active.indices,
        rejections=tuple(rejections),
        proposals=proposals,
    )
    points = tuple(np.exp(np.array(log_points, dtype=complex)).tolist())
    return PointConfiguration(points=points, meta=meta)


def _spectrum(literal):
    parsed = parse_region_literal(literal)
    if isinstance(parsed, FamilySpec):
        parsed = construct_family(parsed).region
    return BergmanSpectrum(parsed)


def _outcome(draw, spectrum, active, rng):
    """The report bytes of draw(spectrum, active, rng), or its error's type
    and message, with the generator state after the call."""
    try:
        got = json.dumps(draw(spectrum, active, rng).to_dict())
    except (EnvelopeError, OrthogonalizationError, RejectionBudgetError) as exc:
        got = (type(exc), str(exc))
    # a generator stand-in keeps the generator it wraps as .rng
    state = getattr(rng, "rng", rng).bit_generator.state
    return got, json.dumps(state, default=np.ndarray.tolist)


def _assert_same(spectrum, active, rng):
    twin = copy.deepcopy(rng)
    want = _outcome(reference_sample_positions, spectrum, active, twin)
    assert _outcome(sampler.sample_positions, spectrum, active, rng) == want
    return want[0]


@pytest.mark.parametrize("literal", REGIONS)
def test_matches_reference(literal):
    # the active sets of sample(spectrum, SamplerConfig(beta=5, seed), r)
    spectrum = _spectrum(literal)
    n_eigen = default_truncation(spectrum, 5.0)
    for seed in (0, 1, 9):
        for replica in range(10):
            rng = make_rng(seed, replica, PHASE_SAMPLE)
            active = bernoulli_phase(spectrum, n_eigen, rng)
            assert isinstance(_assert_same(spectrum, active, rng), str)


@pytest.mark.parametrize("literal", ["disc:0.9", "disc:0.98", "annulus:0.5:0.9"])
def test_matches_reference_at_small_chunk_cap(literal, monkeypatch):
    # with the cap at 4 rows, blocks end inside chunks and move their
    # unconsumed rows often
    monkeypatch.setattr(sampler, "_CHUNK_CAP", 4)
    monkeypatch.setattr(sys.modules[__name__], "_CHUNK_CAP", 4)
    spectrum = _spectrum(literal)
    n_eigen = default_truncation(spectrum, 5.0)
    for seed in (0, 3):
        for replica in range(4):
            rng = make_rng(seed, replica, PHASE_SAMPLE)
            active = bernoulli_phase(spectrum, n_eigen, rng)
            _assert_same(spectrum, active, rng)
    _assert_same(spectrum, ActiveIndexSet(tuple(range(30)), 30), make_rng(5))


def test_matches_reference_on_a_massless_proposal(disc09):
    active = ActiveIndexSet(indices=(1, 4), n_eigen=5)
    with np.errstate(divide="ignore", invalid="ignore"):
        _assert_same(disc09, active, _PinnedFirstDraw([0.2, 1.0, 0.3, 0.0], make_rng(3)))


@pytest.mark.parametrize(
    "log_inv, error",
    [
        (math.inf, EnvelopeError),
        (math.nan, EnvelopeError),
        (math.log(1e-13), OrthogonalizationError),
    ],
)
def test_fails_like_reference(disc09, monkeypatch, log_inv, error):
    _patched_normalizers(monkeypatch, log_inv)
    for indices in ((0,), (0, 3), (2, 5)):
        active = ActiveIndexSet(indices=indices, n_eigen=6)
        with np.errstate(invalid="ignore", over="ignore"):
            assert _assert_same(disc09, active, make_rng(1))[0] is error


def test_fails_like_reference_on_rejection_budget(disc09, monkeypatch):
    monkeypatch.setattr(sampler, "_MAX_REJECTIONS", 1)
    monkeypatch.setattr(sys.modules[__name__], "_MAX_REJECTIONS", 1)
    got = _assert_same(disc09, ActiveIndexSet(tuple(range(30)), 30), make_rng(0))
    assert got[0] is RejectionBudgetError
