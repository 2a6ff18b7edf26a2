"""Closed-form truncation and deviation bounds for the restricted process.

All quantities are elementary functions of the disc radius R, the
truncation index N and the deviation fraction c.  The eigenvalues of the
disc restriction are lambda_k = R**(2k+2), so tail sums are geometric and
exact; the softer exponential forms are kept alongside them because the
dominance chain  coincidence <= exact tail <= N_R exp(-2 beta g)  is one
of the audited invariants.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DomainError, _as_int, _as_real

__all__ = [
    "truncation_constants",
    "default_bound_truncation",
    "wasserstein_bound",
    "coupling_tail",
    "coincidence_probability",
    "chernoff_lower",
    "chernoff_upper",
    "sufficiency_margin",
    "BoundReport",
    "build_bound_report",
]

# coincidence_probability drops the factors whose eigenvalue sum is below this
_COINCIDENCE_TOL = 1e-12


def truncation_constants(radius: float) -> tuple[float, float]:
    """(N_R, g): expected point count R**2/(1-R**2) and decay rate R**2/(1+R)."""
    radius = _as_real(radius, "disc radius", 0, 1)
    n_r = radius * radius / ((1.0 - radius) * (1.0 + radius))
    g = radius * radius / (1.0 + radius)
    return n_r, g


def default_bound_truncation(radius: float, beta: float) -> int:
    """ceil(beta * N_R), the truncation index the exponential bound assumes."""
    beta = _as_real(beta, "beta")
    n_r, _ = truncation_constants(radius)
    return max(1, math.ceil(beta * n_r))


def wasserstein_bound(radius: float, beta: float) -> float:
    """Exponential bound N_R exp(-2 beta g) on the truncation's Wasserstein cost."""
    beta = _as_real(beta, "beta")
    n_r, g = truncation_constants(radius)
    return n_r * math.exp(-2.0 * beta * g)


def coupling_tail(radius: float, n_eigen: int) -> float:
    """Exact eigenvalue tail sum_{k > N} R**(2k+2) = R**(2N+4) / (1 - R**2)."""
    radius = _as_real(radius, "disc radius", 0, 1)
    n_eigen = _as_int(n_eigen, "truncation index")
    return radius ** (2 * n_eigen + 4) / ((1.0 - radius) * (1.0 + radius))


def coincidence_probability(radius: float, n_eigen: int) -> float:
    """Probability 1 - prod_{k > N} (1 - lambda_k) that truncation misses an index.

    The product is cut once the neglected factors can move the result by
    less than 1e-12 (their eigenvalue sum bounds the effect), and
    accumulated through log1p to keep precision.
    """
    radius = _as_real(radius, "disc radius", 0, 1)
    n_eigen = _as_int(n_eigen, "truncation index")
    cap = _COINCIDENCE_TOL * (1.0 - radius) * (1.0 + radius)
    # smallest K with R**(2K+4) < cap
    k_stop = max(n_eigen, math.ceil((math.log(cap) / math.log(radius) - 4.0) / 2.0))
    ks = np.arange(n_eigen + 1, k_stop + 1)
    lam = radius ** (2.0 * ks + 2.0)
    return -math.expm1(float(np.log1p(-lam).sum()))


def chernoff_lower(mean: float, c: float) -> float:
    """Bound exp(-m (c + (1-c) log(1-c))) on P(count <= (1-c) m), c in (0, 1)."""
    mean = _as_real(mean, "mean")
    c = _as_real(c, "lower-tail fraction c", 0, 1)
    return math.exp(-mean * (c + (1.0 - c) * math.log1p(-c)))


def chernoff_upper(mean: float, c: float) -> float:
    """Bound exp(-m ((1+c) log(1+c) - c)) on P(count >= (1+c) m), c > 0."""
    mean = _as_real(mean, "mean")
    c = _as_real(c, "upper-tail fraction c")
    return math.exp(-mean * ((1.0 + c) * math.log1p(c) - c))


def sufficiency_margin(eps: float, n_eigen: int) -> float:
    """Margin 2N log(1-eps) - log(eps); negative once N functions suffice at level eps."""
    eps = _as_real(eps, "eps", 0, 1)
    n_eigen = _as_int(n_eigen, "n_eigen", 1)
    return 2.0 * n_eigen * math.log1p(-eps) - math.log(eps)


@dataclass(frozen=True)
class BoundReport:
    """Named bound values for one (radius, beta) cell of the audit grid."""

    radius: float
    beta: float | None
    n_eigen: int
    expected_count: float
    decay_rate: float
    wasserstein_bound: float
    coupling_tail: float
    coincidence_probability: float

    def to_dict(self) -> dict:
        return asdict(self)


def build_bound_report(
    radius: float,
    beta: float | None = None,
    n_eigen: int | None = None,
) -> BoundReport:
    """Evaluate every bound at one grid cell.

    Exactly one of beta / n_eigen fixes the truncation; with beta the index
    is ceil(beta * N_R), which keeps the exponential bound applicable.
    """
    radius = _as_real(radius, "disc radius", 0, 1)
    if (beta is None) == (n_eigen is None):
        raise DomainError("provide exactly one of beta or n_eigen")
    if n_eigen is None:
        n_eigen = default_bound_truncation(radius, beta)
    else:
        n_eigen = _as_int(n_eigen, "n_eigen", 1)
    n_r, g = truncation_constants(radius)
    return BoundReport(
        radius=radius,
        beta=beta,
        n_eigen=n_eigen,
        expected_count=n_r,
        decay_rate=g,
        wasserstein_bound=wasserstein_bound(radius, beta) if beta is not None else float("nan"),
        coupling_tail=coupling_tail(radius, n_eigen),
        coincidence_probability=coincidence_probability(radius, n_eigen),
    )
