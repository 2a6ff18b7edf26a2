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
The table and the log-space normalizers of phi_n come from
BergmanSpectrum._sampler_mixture: sliced from the plan of the spectrum's
last truncation N (its checked eigenvalues and the rows of every index
below N), or, for a direct call on another N, kept for the last active set.

Stream discipline: point i draws chunks of
min(_CHUNK_CAP, ceil(m / (m - i)) * 2**k) proposals of four uniforms each,
k = 0, 1, .. until one is accepted.  Chunk sizes depend only on (m, i, k),
so a (seed, replica) replays byte-identically; SAMPLER_VERSION names the
stream.  Every point draws at least its first chunk, so the rows of all
first chunks are certain to be consumed: they are drawn and evaluated as
one block, at most _CHUNK_CAP rows at a time, and a point that rejects its
first chunk draws its shortfall when it reaches the end of the block.
Drawing a rows and then b rows gives the same doubles as drawing a + b
rows, and no row is drawn before it is certain, so a call that returns
leaves the generator exactly where chunked drawing leaves it.  A call that
raises (EnvelopeError, RejectionBudgetError, OrthogonalizationError) may
already have drawn the first chunks of the points after the failing one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    EnvelopeError,
    OrthogonalizationError,
    RejectionBudgetError,
    _as_int,
    _as_real,
    _as_reals,
)
from .spectral import _INDEX_END, BergmanSpectrum, GinibreSpectrum
from .streams import _REPLICA_END, _SEED_END, PHASE_SAMPLE, _replica_uniforms, make_rng

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
        return {
            "region": self.region,
            "n_eigen": self.n_eigen,
            "active_indices": list(self.active_indices),
            "rejections": list(self.rejections),
            "proposals": self.proposals,
            "seed": self.seed,
            "replica": self.replica,
            "sampler": self.sampler,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SampleMeta":
        return cls(
            region=data["region"],
            n_eigen=data["n_eigen"],
            active_indices=tuple(data["active_indices"]),
            rejections=tuple(data["rejections"]),
            proposals=data["proposals"],
            seed=data.get("seed"),
            replica=data.get("replica"),
            sampler=data.get("sampler"),
        )


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
        pts = tuple(complex(p["re"], p["im"]) for p in data["points"])
        return cls(points=pts, meta=SampleMeta.from_dict(data["meta"]))


def default_truncation(spectrum, beta: float) -> int:
    """ceil(beta * trace), at least 1; needs a closed-form-trace spectrum."""
    if not isinstance(spectrum, (BergmanSpectrum, GinibreSpectrum)):
        raise DomainError("default truncation needs a Bergman or Ginibre spectrum")
    return max(1, math.ceil(_as_real(beta, "beta") * spectrum.trace()))


def _eigenvalues(spectrum, n_eigen: int) -> np.ndarray:
    """The first n_eigen eigenvalues, checked to be finite and in [0, 1]: kept
    in a BergmanSpectrum's plan, evaluated and checked per call otherwise."""
    n_eigen = _as_int(n_eigen, "n_eigen", 1)

    def checked(lam):
        lam = _as_reals(lam, "eigenvalues", 0, 1, ends="[]")
        if lam.shape != (n_eigen,):
            raise DomainError(f"spectrum must provide {n_eigen} eigenvalues")
        return lam

    if type(spectrum) is BergmanSpectrum:
        return spectrum._plan_eigenvalues(n_eigen, checked)
    return checked(spectrum.eigenvalues(n_eigen))


def bernoulli_phase(spectrum, n_eigen: int, rng: np.random.Generator) -> ActiveIndexSet:
    """Select each index n < n_eigen independently with probability lambda_n."""
    lam = _eigenvalues(spectrum, n_eigen)
    hits = np.nonzero(rng.random(lam.size) < lam)[0]
    return ActiveIndexSet(indices=tuple(hits.tolist()), n_eigen=lam.size)


def _proposals(u, idx, table, cum, log_inv):
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


def sample_positions(
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
        mixture = spectrum._sampler_mixture(idx, active.n_eigen)
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
                rows = _proposals(rng.random((end - hi, 4)), idx, *mixture)
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
    if not isinstance(spectrum, BergmanSpectrum):
        raise DomainError("positional sampling needs a monomial eigenfunction family")
    if not isinstance(active, ActiveIndexSet) or len(active) != 1:
        raise DomainError(f"a one-point draw needs one active index, got {active!r}")
    replicas = _as_int(replicas, "replicas", 0, _REPLICA_END)
    idx = np.array(active.indices, dtype=int)
    u = np.concatenate([*_replica_uniforms(seed, np.arange(replicas), PHASE_SAMPLE, 4)])
    accept, log_z, _, norm_sq, denom = _proposals(
        u, idx, *spectrum._sampler_mixture(idx, active.n_eigen)
    )
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
    n_eigen = config.resolve_truncation(spectrum)
    rng = make_rng(config.seed, replica, PHASE_SAMPLE)
    active = bernoulli_phase(spectrum, n_eigen, rng)
    conf = sample_positions(spectrum, active, rng)
    meta = conf.meta
    return PointConfiguration(
        points=conf.points,
        meta=SampleMeta(
            region=meta.region,
            n_eigen=meta.n_eigen,
            active_indices=meta.active_indices,
            rejections=meta.rejections,
            proposals=meta.proposals,
            seed=config.seed,
            replica=replica,
        ),
    )


# ---------------------------------------------------------------------------
# radial laws of the unrestricted process


def sample_moduli(n: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the moduli set {U_k**(1/(2k)), k = 1..n}, U_k iid uniform."""
    return _moduli(rng, 1, _as_int(n, "count", 1))[0]


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
