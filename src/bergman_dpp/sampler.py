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
BergmanSpectrum._mixture.

Stream discipline: chunk sizes depend only on (m, i, chunk number), so a
(seed, replica) replays byte-identically; SAMPLER_VERSION names the stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DomainError,
    EnvelopeError,
    OrthogonalizationError,
    RejectionBudgetError,
    _as_int,
    _as_real,
)
from .spectral import BergmanSpectrum, GinibreSpectrum
from .streams import _REPLICA_END, _SEED_END, PHASE_SAMPLE, make_rng

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
    """Outcome of the Bernoulli phase: active eigenfunction indices below n_eigen."""

    indices: tuple[int, ...]
    n_eigen: int

    def __post_init__(self):
        n_eigen = _as_int(self.n_eigen, "n_eigen")
        indices = tuple(_as_int(i, "active index", 0, n_eigen) for i in self.indices)
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
    """The first n_eigen eigenvalues, checked to be finite and in [0, 1]."""
    n_eigen = _as_int(n_eigen, "n_eigen", 1)
    lam = np.asarray(spectrum.eigenvalues(n_eigen), dtype=float)
    # the comparisons are False for NaN, so a NaN eigenvalue is rejected too
    if lam.shape != (n_eigen,) or not np.all((lam >= 0.0) & (lam <= 1.0)):
        raise DomainError("spectrum must provide eigenvalues in [0, 1]")
    return lam


def bernoulli_phase(spectrum, n_eigen: int, rng: np.random.Generator) -> ActiveIndexSet:
    """Select each index n < n_eigen independently with probability lambda_n."""
    lam = _eigenvalues(spectrum, n_eigen)
    hits = np.nonzero(rng.random(lam.size) < lam)[0]
    return ActiveIndexSet(indices=tuple(hits.tolist()), n_eigen=lam.size)


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
    region = spectrum.region
    idx = np.array(active.indices, dtype=int)
    m = len(idx)
    points: list[complex] = []
    rejections: list[int] = []
    proposals = 0
    if m:
        table, cum, log_inv = spectrum._mixture(idx)
        basis = np.zeros((m, m), dtype=complex)

    for i in range(m):
        conj_basis = basis[:i].conj()
        consumed = chunk_no = 0
        while True:
            # the expected count ceil(m / (m - i)), doubled per further chunk
            c = min(_CHUNK_CAP, -(-m // (m - i)) << chunk_no)
            chunk_no += 1
            u = rng.random((c, 4))
            pick = np.searchsorted(cum, u[:, 0] * cum[-1], side="right")
            t = table[np.minimum(pick, len(table) - 1)]
            # r**k uniform between a**k and b**k; 1 - u lies in (0, 1], so r > 0
            r = t[:, 0] * (t[:, 1] + (1.0 - u[:, 1]) * t[:, 2]) ** t[:, 3]
            log_z = np.log(r) + (2j * math.pi) * u[:, 2]
            feats = np.exp(np.multiply.outer(log_z, idx) + log_inv)
            norm_sq = np.square(feats.view(float)).sum(axis=1)
            resid = norm_sq - np.square((feats @ conj_basis.T).view(float)).sum(axis=1)
            # resid <= norm_sq, so a ratio leaves [0, 1] only downwards or as
            # NaN; a proposal where every phi_n underflows counts as a rejection
            ratio = resid / np.where(norm_sq > 0.0, norm_sq, 1.0)
            if not ratio.min() >= -_RATIO_SLACK:
                raise EnvelopeError(
                    f"acceptance ratio {ratio.min()} outside [0, 1] at point {i + 1} of {m}"
                )
            proposals += c
            hits = np.flatnonzero(u[:, 3] < ratio)
            if len(hits):
                break
            consumed += c
            if consumed >= _MAX_REJECTIONS:
                raise RejectionBudgetError(
                    f"no acceptance within {_MAX_REJECTIONS} proposals at point "
                    f"{i + 1} of {m} (region {region.literal()})"
                )
        j = int(hits[0])
        rejections.append(consumed + j)
        v = feats[j]
        for _ in range(2):  # CGS2: classical Gram-Schmidt with one re-pass
            v = v - (conj_basis @ v) @ basis[:i]
        nrm = math.sqrt(np.vdot(v, v).real)
        if nrm < GS_NORM_FLOOR:
            raise OrthogonalizationError(
                f"Gram-Schmidt residual {nrm} below {GS_NORM_FLOOR} at point "
                f"{i + 1} of {m}: numerically duplicate draw"
            )
        basis[i] = v / nrm
        points.append(complex(np.exp(log_z[j])))

    meta = SampleMeta(
        region=region.literal(),
        n_eigen=active.n_eigen,
        active_indices=active.indices,
        rejections=tuple(rejections),
        proposals=proposals,
    )
    return PointConfiguration(points=tuple(points), meta=meta)


def sample(spectrum: BergmanSpectrum, config: SamplerConfig, replica: int = 0) -> PointConfiguration:
    """Bernoulli phase then positional phase under one seeded stream."""
    replica = _as_int(replica, "replica", 0, _REPLICA_END)
    n_eigen = config.resolve_truncation(spectrum)
    rng = make_rng(config.seed, replica, PHASE_SAMPLE)
    active = bernoulli_phase(spectrum, n_eigen, rng)
    conf = sample_positions(spectrum, active, rng)
    return PointConfiguration(
        points=conf.points,
        meta=replace(conf.meta, seed=config.seed, replica=replica),
    )


# ---------------------------------------------------------------------------
# radial laws of the unrestricted process


def sample_moduli(n: int, rng: np.random.Generator) -> np.ndarray:
    """One draw of the moduli set {U_k**(1/(2k)), k = 1..n}, U_k iid uniform."""
    n = _as_int(n, "count", 1)
    k = np.arange(1, n + 1, dtype=float)
    return rng.random(n) ** (1.0 / (2.0 * k))


def min_radius_cdf(n: int, x: float) -> float:
    """P(min of the first n moduli <= x) = 1 - prod_{k=1}^n (1 - x**(2k))."""
    n = _as_int(n, "count", 1)
    x = _as_real(x, "x", -math.inf)
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if n == 1:
        return x * x
    k = np.arange(1, n + 1, dtype=float)
    return -math.expm1(float(np.log1p(-(x ** (2.0 * k))).sum()))

