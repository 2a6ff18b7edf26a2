"""Exact simulation of the restricted determinantal process.

Two phases.  First an independent Bernoulli draw per eigenvalue selects
the active index set I, m = |I|.  Then positions are drawn sequentially:
the i-th point follows the residual density

    p_i(x) = ( ||phi_I(x)||**2 - sum_{k < i} |<e_k, phi_I(x)>|**2 ) / (m - i + 1)

where e_1, .., e_{i-1} orthonormalize (CGS2) the feature vectors of the
points already placed.  Proposals come from the mixture ||phi_I||**2 / m:
an index n uniform on I, an interval [a, b] with probability proportional
to b**(2n+2) - a**(2n+2), r**(2n+2) inverted there in closed form, and a
uniform angle.  Acceptance with probability p_i(x) (m - i + 1) / ||phi_I(x)||**2
needs no envelope, and a configuration takes m H_m proposals on average
(Hough, Krishnapur, Peres and Virag 2006; Lavancier, Moller and Rubak 2015).
_proposals reads the four arrays of the plan's mixture(I) as they come
(table, cumulated masses, complex indices and log-space normalizers of
phi_n), sliced from the rows of every index below N in the one plan that
spectral._plan_of keeps per spectrum and truncation N, whoever calls.

Stream discipline: point i draws chunks of
min(_CHUNK_CAP, ceil(m / (m - i)) * 2**k) proposals of four uniforms each,
k = 0, 1, .. until one is accepted.  Chunk sizes depend only on (m, i, k),
so a (seed, replica) replays byte-identically; SAMPLER_VERSION names the
stream.  Every point draws at least its first chunk, so the rows of all
first chunks are certain to be consumed: they are drawn and evaluated as
one block, at most _CHUNK_CAP rows at a time, and a point that rejects its
first chunk draws its shortfall when it reaches the end of the block.  The
block is one set of _CHUNK_CAP-row arrays per call, which _proposals fills
in place: an extension first moves the rows not yet consumed to the front,
then evaluates the new rows behind them, so no block is concatenated and
its memory stays at _CHUNK_CAP rows however large m is.
Drawing a rows and then b rows gives the same doubles as drawing a + b
rows, and no row is drawn before it is certain, so a call that returns
leaves the generator exactly where chunked drawing leaves it.  A call that
raises (EnvelopeError, RejectionBudgetError, OrthogonalizationError) may
already have drawn the first chunks of the points after the failing one.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .errors import (
    DomainError,
    EnvelopeError,
    OrthogonalizationError,
    RejectionBudgetError,
    _INDEX_END,
    _as_int,
    _as_real,
    _as_reals,
    _generator,
    _of_type,
    _truncation,
)
from .spectral import BergmanSpectrum, _plan_of, _spectrum_method
from .streams import _REPLICA_END, _SEED_END, PHASE_SAMPLE, _cell, _replica_uniforms, make_rng

__all__ = [
    "GS_NORM_FLOOR",
    "SAMPLER_VERSION",
    "SamplerConfig",
    "ActiveIndexSet",
    "SampleMeta",
    "PointConfiguration",
    "default_truncation",
    "bernoulli_phase",
    "sample_positions",
    "sample",
    "sample_moduli",
    "min_radius_cdf",
]

GS_NORM_FLOOR = 1e-12
SAMPLER_VERSION = "mixture-1"
_CHUNK_CAP = 1024
_RATIO_SLACK = 1e-9
# point i needs m / (m - i) proposals on average, so no run comes near this
_MAX_REJECTIONS = 10_000_000


@dataclass(frozen=True)
class SamplerConfig:
    """Run configuration: exactly one of beta (truncation multiplier) or n_eigen."""

    beta: float | None = None
    n_eigen: int | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.beta is None) == (self.n_eigen is None):
            raise DomainError("provide exactly one of beta or n_eigen")
        if self.beta is not None:
            _as_real(self.beta, "beta")
        if self.n_eigen is not None:
            object.__setattr__(self, "n_eigen", _as_int(self.n_eigen, "n_eigen", 1))
        object.__setattr__(self, "seed", _as_int(self.seed, "seed", 0, _SEED_END))

    def resolve_truncation(self, spectrum) -> int:
        if self.n_eigen is not None:
            return self.n_eigen
        return default_truncation(spectrum, self.beta)


@dataclass(frozen=True)
class ActiveIndexSet:
    """Outcome of the Bernoulli phase: active eigenfunction indices below n_eigen
    (and below 2**63, as int64 array entries)."""

    indices: tuple[int, ...]
    n_eigen: int

    def __post_init__(self):
        n_eigen = _as_int(self.n_eigen, "n_eigen")
        end = min(n_eigen, _INDEX_END)
        indices = tuple(_as_int(i, "active index", 0, end) for i in self.indices)
        if any(a >= b for a, b in zip(indices, indices[1:])):
            raise DomainError("active indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "n_eigen", n_eigen)

    def __len__(self):
        return len(self.indices)

    @classmethod
    def _of_hits(cls, hits: np.ndarray) -> "ActiveIndexSet":
        """The set of the entries of the 1-d bool array hits that are set:
        nonzero's indices are sorted, in range and int64 already, so they
        are not checked again one by one."""
        active = object.__new__(cls)
        object.__setattr__(active, "indices", tuple(hits.nonzero()[0].tolist()))
        object.__setattr__(active, "n_eigen", hits.size)
        return active


@dataclass(frozen=True)
class SampleMeta:
    """Provenance of one configuration: where, how truncated, which seed, and
    the telemetry of the rejection sampler (rejections before each accepted
    point; proposals drawn, in whole chunks)."""

    region: str
    n_eigen: int
    active_indices: tuple[int, ...]
    rejections: tuple[int, ...]
    proposals: int
    seed: int | None = None
    replica: int | None = None
    # None for reports written before the field existed (uniform proposals)
    sampler: str | None = SAMPLER_VERSION

    @property
    def acceptance_rate(self) -> float | None:
        if self.proposals == 0:
            return None
        return len(self.rejections) / self.proposals

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "SampleMeta":
        # a field without a default is required; seed, replica and sampler read as None
        try:
            values = {
                f.name: data[f.name] if f.default is MISSING else data.get(f.name)
                for f in fields(cls)
            }
        except (LookupError, TypeError, AttributeError) as exc:
            raise DomainError(f"not a sample meta: {exc!r}") from None
        return cls(**{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()})


@dataclass(frozen=True)
class PointConfiguration:
    """A sampled configuration; one point per active index."""

    points: tuple[complex, ...]
    meta: SampleMeta

    def __len__(self):
        return len(self.points)

    def moduli(self) -> np.ndarray:
        return np.sort(np.abs(np.array(self.points, dtype=complex)))

    def to_dict(self) -> dict:
        return {
            "points": [{"re": z.real, "im": z.imag} for z in self.points],
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PointConfiguration":
        try:
            pts = tuple(complex(p["re"], p["im"]) for p in data["points"])
            return cls(points=pts, meta=SampleMeta.from_dict(data["meta"]))
        except (LookupError, TypeError, AttributeError) as exc:
            raise DomainError(f"not a sample configuration: {exc!r}") from None


def default_truncation(spectrum, beta: float) -> int:
    """ceil(beta * trace), at least 1; needs a spectrum with a trace() method."""
    return _truncation(beta, _as_real(_spectrum_method(spectrum, "trace")(), "trace", 0, ends="[)"))


def bernoulli_phase(spectrum, n_eigen: int, rng: np.random.Generator) -> ActiveIndexSet:
    """Select each index n < n_eigen independently with probability lambda_n."""
    lam = _plan_of(spectrum, n_eigen).lam
    return ActiveIndexSet._of_hits(_generator(rng).random(lam.size) < lam)


def _rows(n: int, m: int):
    """Empty arrays for n evaluated proposals of m active indices, the rows
    _proposals fills: acceptance uniforms, log z, phi_I(z), ||phi_I(z)||**2
    and the denominator of the acceptance ratio."""
    return np.empty(n), np.empty(n, complex), np.empty((n, m), complex), np.empty(n), np.empty(n)


def _proposals(u, table, cum, idx, log_inv, out) -> None:
    """Evaluate proposal rows u (pick, radius, angle, acceptance uniforms)
    into out, arrays of _rows(len(u), len(idx)) or row slices of them."""
    accept, log_z, feats, norm_sq, denom = out
    accept[:] = u[:, 3]
    pick = cum.searchsorted(u[:, 0] * cum[-1], side="right")
    t = table.take(np.minimum(pick, len(table) - 1), axis=0)
    # r**k uniform between a**k and b**k; 1 - u lies in (0, 1], so r > 0
    r = t[:, 0] * (t[:, 1] + (1.0 - u[:, 1]) * t[:, 2]) ** t[:, 3]
    # log r + 2 pi i u, whose complex product and sum would add exact zeros
    np.log(r, out=log_z.real)
    np.multiply(2.0 * math.pi, u[:, 2], out=log_z.imag)
    np.exp(np.multiply.outer(log_z, idx) + log_inv, feats)
    np.add.reduce(np.square(feats.view(float)), 1, None, norm_sq)
    # a proposal where every phi_n underflows has ratio 0 / 1: a rejection
    denom[:] = np.where(norm_sq > 0.0, norm_sq, 1.0)


def sample_positions(
    spectrum: BergmanSpectrum,
    active: ActiveIndexSet,
    rng: np.random.Generator,
) -> PointConfiguration:
    """Draw one position per active index through the residual densities.

    A nonempty active set needs the plan of its N, else DomainError."""
    _of_type(spectrum, BergmanSpectrum, "spectrum")
    _of_type(active, ActiveIndexSet, "active set")
    _generator(rng)
    idx = np.array(active.indices, dtype=int)
    m = len(idx)
    log_points = []
    rejections: list[int] = []
    proposals = 0
    if m:
        mixture = _plan_of(spectrum, active.n_eigen).mixture(idx)
        # point i reads only the rows of the points before it
        basis = np.empty((m, m), dtype=complex)
        conj_basis = np.empty((m, m), dtype=complex)  # conj(basis), row by row
        # every point draws at least its first chunk, so the first chunks
        # of the points after this one are certain to be consumed
        first = [min(_CHUNK_CAP, -(-m // (m - i))) for i in range(m)]
        later = sum(first)
        # the block: stream rows [lo, hi) evaluated, row lo at index 0
        accept_b, log_z_b, feats_b, norm_b, denom_b = block = _rows(_CHUNK_CAP, m)
    # stream rows: pos consumed, [lo, hi) drawn and evaluated in block
    pos = lo = hi = 0

    for i in range(m):
        later -= first[i]
        consumed = chunk_no = 0
        done, conj_done = basis[:i], conj_basis[:i]
        conj_t = conj_done.T
        while True:
            # the expected count ceil(m / (m - i)), doubled per further chunk
            c = min(_CHUNK_CAP, -(-m // (m - i)) << chunk_no)
            chunk_no += 1
            if pos + c > hi:
                # extend the block over the rows certain to be consumed, at
                # most _CHUNK_CAP rows from this chunk's start: the rows not
                # yet consumed move to the front, the new ones follow them
                end = max(pos + c, min(pos + c + later, pos + _CHUNK_CAP))
                live = hi - pos
                if live:
                    for a in block:
                        a[:live] = a[pos - lo : hi - lo]
                new = [a[live : end - pos] for a in block]
                _proposals(rng.random((end - hi, 4)), *mixture, new)
                lo, hi = pos, end
            s = pos - lo
            pos += c
            if i:
                # squared in place, as it has 2 i c >= 2 entries; the ratio is
                # not, as c is often 1, where an in-place ufunc runs slower
                proj = (feats_b[s : s + c] @ conj_t).view(float)
                proj = np.add.reduce(np.square(proj, out=proj), 1)
                ratio = (norm_b[s : s + c] - proj) / denom_b[s : s + c]
            else:
                # the basis is empty, and x - 0.0 == x
                ratio = norm_b[s : s + c] / denom_b[s : s + c]
            # the residual is at most norm_sq, so a ratio leaves [0, 1] only
            # downwards or as NaN
            low = np.minimum.reduce(ratio)
            if not low >= -_RATIO_SLACK:
                raise EnvelopeError(
                    f"acceptance ratio {low} outside [0, 1] at point {i + 1} of {m}"
                )
            proposals += c
            hits = accept_b[s : s + c] < ratio
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
        log_points.append(log_z_b[s + j])
        v = feats_b[s + j]
        # CGS2: classical Gram-Schmidt with one re-pass; nothing to remove at i = 0
        if i:
            v = v - (conj_done @ v) @ done
            v -= (conj_done @ v) @ done
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm < GS_NORM_FLOOR:
            raise OrthogonalizationError(
                f"Gram-Schmidt residual {nrm} below {GS_NORM_FLOOR} at point "
                f"{i + 1} of {m}: numerically duplicate draw"
            )
        if i + 1 < m:  # no point reads the last one's row
            np.conjugate(np.divide(v, nrm, out=basis[i]), out=conj_basis[i])

    meta = SampleMeta(
        region=spectrum._literal,
        n_eigen=active.n_eigen,
        active_indices=active.indices,
        rejections=tuple(rejections),
        proposals=proposals,
    )
    points = tuple(np.exp(np.array(log_points, dtype=complex)).tolist())
    return PointConfiguration(points=points, meta=meta)


def _single_index_points(spectrum, active, seed: int, replicas: int) -> np.ndarray:
    """sample_positions(spectrum, active, make_rng(seed, r, PHASE_SAMPLE)).points[0]
    for r = 0 .. replicas - 1, as one complex array, the same bits.

    With one active index n the first proposal's acceptance ratio is
    ||phi_n||**2 / ||phi_n||**2 = 1, above every acceptance uniform, so
    sample_positions accepts it unless its norm is 0 or not finite, or so
    near GS_NORM_FLOOR that the rounding of its floor check decides.  Every
    replica's first row comes from streams._replica_uniforms' vectorized
    Philox rounds into one (replicas, 4) block and is evaluated at once; a
    replica whose row is not such a certain accept goes through
    sample_positions, with its errors.
    """
    _of_type(spectrum, BergmanSpectrum, "spectrum")
    if not isinstance(active, ActiveIndexSet) or len(active) != 1:
        raise DomainError(f"a one-point draw needs one active index, got {active!r}")
    replicas = _as_int(replicas, "replicas", 0, _REPLICA_END)
    idx = np.array(active.indices, dtype=int)
    u = np.concatenate([*_replica_uniforms(seed, np.arange(replicas), PHASE_SAMPLE, 4)])
    accept, log_z, _, norm_sq, denom = rows = _rows(len(u), 1)
    _proposals(u, *_plan_of(spectrum, active.n_eigen).mixture(idx), rows)
    ratio = norm_sq / denom
    # a norm above twice the floor passes the floor check however vdot rounds
    certain = (ratio == 1.0) & (accept < ratio) & (norm_sq > 4.0 * GS_NORM_FLOOR**2)
    points = np.exp(log_z)
    for r in np.flatnonzero(~certain).tolist():
        points[r] = sample_positions(spectrum, active, make_rng(seed, r, PHASE_SAMPLE)).points[0]
    return points


def sample(spectrum: BergmanSpectrum, config: SamplerConfig, replica: int = 0) -> PointConfiguration:
    """Bernoulli phase then positional phase under one seeded stream."""
    replica = _as_int(replica, "replica", 0, _REPLICA_END)
    n_eigen = _of_type(config, SamplerConfig, "config").resolve_truncation(spectrum)
    # the thread's cell, unless another type's methods (user code) could run
    # between its reset and its draws
    rng = (_cell if type(spectrum) is BergmanSpectrum else make_rng)(config.seed, replica, PHASE_SAMPLE)
    conf = sample_positions(spectrum, bernoulli_phase(spectrum, n_eigen, rng), rng)
    # one report per call: the meta is this call's own, not yet shared
    object.__setattr__(conf.meta, "seed", config.seed)
    object.__setattr__(conf.meta, "replica", replica)
    return conf


# ---------------------------------------------------------------------------
# radial laws of the unrestricted process


def sample_moduli(n: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the moduli set {U_k**(1/(2k)), k = 1..n}, U_k iid uniform."""
    return _moduli(_generator(rng), 1, _as_int(n, "count", 1))[0]


def _moduli(rng: np.random.Generator, reps: int, n: int) -> np.ndarray:
    """reps draws of sample_moduli(n, rng), one per row, from the same stream
    positions as reps calls in a row."""
    k = np.arange(1, n + 1, dtype=float)
    u = rng.random((reps, n))
    u **= 1.0 / (2.0 * k)
    return u


def min_radius_cdf(n: int, x):
    """P(min of the first n moduli <= x) = 1 - prod_{k=1}^n (1 - x**(2k)).

    Elementwise over a real or an array of reals: a float for a real, an
    array of x's shape otherwise, each entry the same bits as the call on
    that real alone.
    """
    n = _as_int(n, "count", 1)
    xs = _as_reals(x, "x", -math.inf)
    out = np.where(xs >= 1.0, 1.0, 0.0)
    inside = (0.0 < xs) & (xs < 1.0)
    v = xs[inside]
    if n == 1:
        out[inside] = v * v
    else:
        k = np.arange(1, n + 1, dtype=float)
        sums = np.log1p(-(v[:, None] ** (2.0 * k))).sum(axis=1)
        # math.expm1 per value: np.expm1 rounds differently on some hosts
        out[inside] = [-math.expm1(s) for s in sums.tolist()]
    return float(out) if out.ndim == 0 else out
