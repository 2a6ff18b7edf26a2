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
from dataclasses import dataclass, fields

import numpy as np

from .errors import _INDEX_END, DomainError, _as_int, _as_real, _truncation
from .regions import _logit_sq

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

# coincidence_probability's cut-off, block of factors and limit on factors
_COINCIDENCE_TOL = 1e-12
_COINCIDENCE_BLOCK = 1 << 20
_COINCIDENCE_MAX_FACTORS = 1 << 28


def truncation_constants(radius: float) -> tuple[float, float]:
    """(N_R, g): expected point count R**2/(1-R**2) and decay rate R**2/(1+R)."""
    radius = _as_real(radius, "disc radius", 0, 1)
    n_r = _logit_sq(radius)  # region_trace of the disc, to the bit
    g = radius * radius / (1.0 + radius)
    return n_r, g


def default_bound_truncation(radius: float, beta: float) -> int:
    """max(1, ceil(beta * N_R)), the truncation index the exponential bound
    assumes: the sampler's default_truncation on the disc of that radius."""
    n_r, _ = truncation_constants(radius)
    return _truncation(beta, n_r)


def wasserstein_bound(radius: float, beta: float) -> float:
    """Exponential bound N_R exp(-2 beta g) on the truncation's Wasserstein cost."""
    beta = _as_real(beta, "beta")
    n_r, g = truncation_constants(radius)
    return n_r * math.exp(-2.0 * beta * g)


def coupling_tail(radius: float, n_eigen: int) -> float:
    """Exact eigenvalue tail sum_{k > N} R**(2k+2) = R**(2N+4) / (1 - R**2)."""
    radius = _as_real(radius, "disc radius", 0, 1)
    n_eigen = _as_int(n_eigen, "truncation index", 0, _INDEX_END)
    return radius ** (2 * n_eigen + 4) / ((1.0 - radius) * (1.0 + radius))


def coincidence_probability(radius: float, n_eigen: int) -> float:
    """Probability 1 - prod_{k > N} (1 - lambda_k) that truncation misses an index.

    The product is cut once the neglected factors can move the result by
    less than 1e-12 (their eigenvalue sum bounds the effect), and summed in
    log1p for precision, 2**20 factors at a time, until the log sum is below
    -40 (the result is then 1.0).  A radius so near 1 that more than 2**28
    factors remain (R = 1 - 1e-8 at N = 1) raises DomainError.
    """
    radius = _as_real(radius, "disc radius", 0, 1)
    n_eigen = _as_int(n_eigen, "truncation index", 0, _INDEX_END)
    cap = _COINCIDENCE_TOL * (1.0 - radius) * (1.0 + radius)
    # smallest K with R**(2K+4) < cap
    k_stop = max(n_eigen, math.ceil((math.log(cap) / math.log(radius) - 4.0) / 2.0))
    if k_stop - n_eigen > _COINCIDENCE_MAX_FACTORS:
        raise DomainError(f"radius {radius} too near 1: {k_stop - n_eigen} factors, over 2**28")
    total = 0.0
    for start in range(n_eigen + 1, k_stop + 1, _COINCIDENCE_BLOCK):
        ks = np.arange(start, min(start + _COINCIDENCE_BLOCK, k_stop + 1))
        total += float(np.log1p(-(radius ** (2.0 * ks + 2.0))).sum())
        if total < -40.0:
            break  # -expm1 is 1.0 from here on, and every later factor is <= 0
    return 0.0 - math.expm1(total)  # not -expm1: no factor left gives +0.0, not -0.0


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
    n_eigen = _as_int(n_eigen, "n_eigen", 1, _INDEX_END)
    return 2.0 * n_eigen * math.log1p(-eps) - math.log(eps)


@dataclass(frozen=True)
class BoundReport:
    """Named bound values for one (radius, beta) cell of the audit grid.

    Built from n_eigen alone (beta None) it has no exponential bound:
    wasserstein_bound is NaN, and None (JSON null) in to_dict."""

    radius: float
    beta: float | None
    n_eigen: int
    expected_count: float
    decay_rate: float
    wasserstein_bound: float
    coupling_tail: float
    coincidence_probability: float

    def to_dict(self) -> dict:
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.beta is None:  # no exponential bound without beta: null, as JSON has no NaN
            values["wasserstein_bound"] = None
        return values


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
        n_eigen = _as_int(n_eigen, "n_eigen", 1, _INDEX_END)
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
