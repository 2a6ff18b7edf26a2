"""Verification oracles and statistical gates.

The count of the restricted process is a sum of independent Bernoulli
variables, one per eigenvalue, so its law is an exact Poisson-binomial,
computed here through a product tree: the laws of blocks of 64 eigenvalues
are built side by side by the per-step recursion and merged pairwise by
direct convolution, with every entry below the smallest normal double
flushed to 0.0 (no reported statistic sees a probability below 2.2e-308,
and subnormal arithmetic is slow).  That oracle anchors everything else:
chi-square gates for Monte Carlo counts, Chernoff-vs-exact audits, and the
dominance chain of the truncation bounds.  All gates run at a fixed
significance and a fixed seed; a verdict is a pure comparison of statistic
against threshold.  Every chi-square gate is one Pearson gate whose
threshold comes from scipy.special.gammaincinv, and every Kolmogorov-Smirnov
gate uses the asymptotic critical value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import build_bound_report, chernoff_lower, chernoff_upper
from .errors import DomainError, _as_int, _as_ints, _as_pair, _as_real, _as_reals, _elements
from .sampler import ActiveIndexSet, PointConfiguration, SamplerConfig, min_radius_cdf
from .sampler import _eigenvalues, _moduli, _single_index_points
from .spectral import _INDEX_END, BergmanSpectrum
from .streams import PHASE_BERNOULLI, PHASE_MODULI, make_rng
from .streams import _REPLICA_END, _SEED_END, _replica_uniforms

__all__ = [
    "CountDistribution",
    "count_pmf",
    "CountStats",
    "mc_count_stats",
    "GofReport",
    "count_gof",
    "intensity_profile_test",
    "ks_statistic",
    "ks_critical_value",
    "chernoff_consistency",
    "bound_audit",
    "verify_gates",
]

_BLOCK = 64  # eigenvalues per leaf of count_pmf's product tree
_SUM_GUARD = 1e-9
_TINY = np.finfo(float).tiny  # the smallest normal double, about 2.2e-308
# the grid bound_audit covers: radii, betas, Chernoff truncation and fractions
_AUDIT_RADII = (0.5, 0.7, 0.9, 0.99)
_AUDIT_BETAS = (1.0, 2.0, 3.0, 5.0)
_AUDIT_N = 50
_AUDIT_CS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


class CountDistribution:
    """Exact Poisson-binomial law of the point count under truncation."""

    def __init__(self, pmf):
        self.pmf = np.asarray(pmf, dtype=float)
        self._cdf = np.cumsum(self.pmf)

    def __len__(self):
        return len(self.pmf)

    def mean(self) -> float:
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def variance(self) -> float:
        k = np.arange(len(self.pmf))
        mu = self.mean()
        return float(((k - mu) ** 2) @ self.pmf)

    def moment(self, order: int, central: bool = True) -> float:
        k = np.arange(len(self.pmf), dtype=float)
        if central:
            k = k - self.mean()
        return float((k**order) @ self.pmf)

    def cdf(self, k: int) -> float:
        k = _as_int(k, "count", -math.inf)
        if k < 0:
            return 0.0
        return float(self._cdf[min(k, len(self.pmf) - 1)])

    def upper_tail(self, k: int) -> float:
        """P(count >= k), summed from the top to keep tiny tails exact."""
        k = _as_int(k, "count", -math.inf)
        if k <= 0:
            return 1.0
        if k >= len(self.pmf):
            return 0.0
        return float(self.pmf[k:].sum())

    def quantile(self, p: float) -> int:
        p = _as_real(p, "quantile level", 0, 1, ends="[]")
        i = int(np.searchsorted(self._cdf, p, side="left"))
        return min(i, len(self.pmf) - 1)


def count_pmf(eigenvalues) -> CountDistribution:
    """Convolve Bernoulli(lambda_n) laws into the exact count distribution.

    A product tree: the laws of blocks of 64 eigenvalues are built side by
    side, one eigenvalue per step (x * (1 - l) + y * l, the per-step
    recursion), then merged pairwise by direct convolution, never an FFT,
    whose absolute error would wipe out the tails the Chernoff rows read.
    Entries below the smallest normal double are set to 0.0 after each step
    and each merge, and a merged law keeps only the span of the rest (a
    Poisson-binomial pmf is log-concave, so only its two tails fall below).

    Count-law contract "tree-64": up to 64 eigenvalues the pmf is bit-equal
    to the flushed per-step recursion divided once by its sum; above 64 only
    low bits move (relative differences below 1e-13 on entries from 1e-280
    up).  A mass that drifts from 1 by more than 1e-9 is a hard error.
    """
    lam = _as_reals(eigenvalues, "eigenvalues", 0, 1, ends="[]")
    if lam.ndim != 1:
        raise DomainError("eigenvalues must form a one-dimensional sequence")
    n = lam.size
    width = min(_BLOCK, n)
    rows = max(1, -(-n // _BLOCK))
    # padding with 0.0 changes no bits: x * (1.0 - 0.0) + 0.0 * y == x
    block = np.pad(lam, (0, rows * width - n)).reshape(rows, width)
    laws = np.zeros((rows, width + 1))
    laws[:, 0] = 1.0
    for i in range(width):
        l = block[:, i : i + 1]
        carry = laws[:, : i + 1] * l
        laws[:, : i + 1] *= 1.0 - l
        laws[:, 1 : i + 2] += carry
        window = laws[:, : i + 2]
        window[window < _TINY] = 0.0
    tree = [(law, 0) for law in laws]  # (law, the count its first entry stands for)
    while len(tree) > 1:
        merged = []
        for (a, i), (b, j) in zip(tree[::2], tree[1::2]):
            law = np.convolve(a, b)
            law[law < _TINY] = 0.0
            kept = np.flatnonzero(law)
            merged.append((law[kept[0] : kept[-1] + 1], i + j + int(kept[0])))
        tree = merged + tree[2 * len(merged) :]
    law, offset = tree[0]
    pmf = np.zeros(n + 1)
    pmf[offset : offset + law.size] = law
    s = pmf.sum()
    if abs(s - 1.0) > _SUM_GUARD:
        raise ArithmeticError(f"count pmf mass drifted to {s}")
    pmf /= s
    return CountDistribution(pmf)


@dataclass(frozen=True, eq=False)
class CountStats:
    mean: float
    variance: float
    stderr: float
    histogram: np.ndarray
    reps: int


def mc_count_stats(spectrum, config: SamplerConfig, reps: int) -> CountStats:
    """Monte Carlo count statistics from independent Bernoulli-phase replicas.

    Replica r uses its own counter-keyed stream, so the estimate is
    deterministic given the config seed and any replica can be replayed:
    its count is the size of bernoulli_phase's draw on the same stream.
    All replicas' uniforms come from streams._replica_uniforms in bounded
    blocks of rows, so their memory does not grow with reps.
    """
    reps = _as_int(reps, "reps", 1, _REPLICA_END)
    lam = _eigenvalues(spectrum, config.resolve_truncation(spectrum))
    blocks = _replica_uniforms(config.seed, np.arange(reps), PHASE_BERNOULLI, lam.size)
    counts = np.concatenate([np.count_nonzero(u < lam, axis=1) for u in blocks])
    var = float(counts.var(ddof=1)) if reps > 1 else 0.0
    stderr = math.sqrt(var / reps) if reps > 1 else math.inf
    hist = np.bincount(counts, minlength=lam.size + 1)
    return CountStats(float(counts.mean()), var, stderr, hist, reps)


@dataclass(frozen=True)
class GofReport:
    """One statistical gate: a statistic, its threshold, and the verdict."""

    name: str
    statistic: float
    threshold: float
    sample_size: int
    passed: bool
    extra: dict | None = None

    def to_dict(self) -> dict:
        values = {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "sample_size": self.sample_size,
        }
        if self.extra:
            values.update(self.extra)
        return {"name": self.name, "values": values, "verdict": "pass" if self.passed else "fail"}


def _pearson(name, observed, expected, df, alpha, sample_size, extra) -> GofReport:
    """Pearson chi-square gate of observed against expected counts.

    The threshold is the chi-square (1 - alpha)-quantile on df degrees of
    freedom, 2 P^-1(df/2, 1 - alpha) with P the regularized lower incomplete
    gamma: the expression scipy.stats.chi2.ppf evaluates, to the bit.
    """
    from scipy.special import gammaincinv  # here, not at module level: the package loads numpy only
    statistic = float(((observed - expected) ** 2 / expected).sum())
    threshold = float(2.0 * gammaincinv(df / 2.0, 1.0 - alpha))
    return GofReport(name, statistic, threshold, sample_size, statistic <= threshold, extra)


def count_gof(
    histogram, dist: CountDistribution, alpha: float = 1e-3, name: str = "count-gof"
) -> GofReport:
    """Pearson chi-square of an observed count histogram against the exact law.

    Each histogram entry is a count: a finite non-negative integer.  Cells
    are merged left to right until each expected count reaches 5; degrees
    of freedom are merged cells minus one.
    """
    alpha = _as_real(alpha, "alpha", 0, 1)
    obs = _as_reals(histogram, "histogram", 0, ends="[)")
    if obs.ndim != 1 or obs.size == 0:
        raise DomainError("histogram must be a one-dimensional array of counts")
    # after the ndim check: _as_ints flattens what it checks
    _as_ints(obs, "histogram count", 0, _INDEX_END)
    reps = float(obs.sum())
    if reps <= 0:
        raise DomainError("histogram is empty")
    exp_full = dist.pmf * reps
    width = max(len(obs), len(exp_full))
    obs = np.pad(obs, (0, width - len(obs)))
    exp_full = np.pad(exp_full, (0, width - len(exp_full)))

    merged_obs: list[float] = []
    merged_exp: list[float] = []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp_full):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if merged_exp:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    if len(merged_exp) < 2:
        raise DomainError("fewer than two cells with expected mass; nothing to test")
    me = np.array(merged_exp)
    extra = {"cells": len(me), "alpha": alpha}
    return _pearson(name, np.array(merged_obs), me, len(me) - 1, alpha, int(reps), extra)


def _partial_power_sum(r: float, n_eigen: int) -> float:
    # sum_{n < N} r**(2n+2) = r**2 (1 - r**(2N)) / (1 - r**2)
    if r == 0.0:
        return 0.0
    return r * r * -math.expm1(2.0 * n_eigen * math.log(r)) / ((1.0 - r) * (1.0 + r))


def intensity_profile_test(
    configs, spectrum: BergmanSpectrum, bins, alpha: float = 1e-3
) -> GofReport:
    """Compare per-bin point counts with the exact truncated expectations.

    For a radial bin (r1, r2] inside the region the truncated process puts
    sum_{n < N} (r2**(2n+2) - r1**(2n+2)) points on average, independently
    of the region (eigenvalue and normalizer cancel).  Pearson statistic
    over the bins with known expectations, df = number of bins; the count
    variance of a determinantal process is below its mean, so the gate is
    conservative.
    """
    alpha = _as_real(alpha, "alpha", 0, 1)
    configs = list(configs)
    if not configs:
        raise DomainError("no configurations supplied")
    for c in configs:
        if not isinstance(c, PointConfiguration):
            raise DomainError(f"expected PointConfiguration, got {type(c).__name__}")
    n_eigen = configs[0].meta.n_eigen
    if any(c.meta.n_eigen != n_eigen for c in configs):
        raise DomainError("configurations mix different truncation orders")

    cleaned: list[tuple[float, float]] = []
    for pair in bins:
        r1, r2 = _as_pair(pair, "bin", 0, ends="[)")
        if not r1 < r2:
            raise DomainError(f"bin ({r1}, {r2}) is not an increasing radius pair")
        if not any(a <= r1 and r2 <= b for a, b in spectrum.region.intervals):
            raise DomainError(f"bin ({r1}, {r2}) is not contained in the region")
        cleaned.append((r1, r2))
    if not cleaned:
        raise DomainError("no bins supplied")
    order = sorted(cleaned)
    for (l1, l2), (m1, m2) in zip(order, order[1:]):
        if m1 < l2:
            raise DomainError(f"bins ({l1}, {l2}) and ({m1}, {m2}) overlap")

    reps = len(configs)
    expected = np.array(
        [
            reps * (_partial_power_sum(r2, n_eigen) - _partial_power_sum(r1, n_eigen))
            for r1, r2 in cleaned
        ]
    )
    if np.any(expected <= 0.0):
        raise DomainError("a bin has zero expected count; widen it")
    moduli = [np.abs(np.asarray(c.points, dtype=complex)) for c in configs]
    observed = np.array(
        [
            sum(int(((r1 < m) & (m <= r2)).sum()) for m in moduli)
            for r1, r2 in cleaned
        ],
        dtype=float,
    )
    table = {
        "bins": [
            {"r1": r1, "r2": r2, "observed": o, "expected": e}
            for (r1, r2), o, e in zip(cleaned, observed, expected)
        ]
    }
    return _pearson("intensity-profile", observed, expected, len(cleaned), alpha, reps, table)


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    if n == 0:
        raise DomainError("empty sample")
    if np.isnan(xs).any():
        raise DomainError("sample contains NaN")
    try:
        fs = np.asarray(cdf(xs), dtype=float)
        if fs.shape != xs.shape:
            raise TypeError
    except (TypeError, ValueError):
        # a scalar-only cdf: one that branches on x raises ValueError on an array
        fs = np.array([float(cdf(x)) for x in xs])
    # written so that a NaN cdf value fails it too
    if not np.all((fs >= -1e-12) & (fs <= 1.0 + 1e-12)):
        raise DomainError("cdf values escape [0, 1]")
    i = np.arange(1, n + 1)
    return float(max((i / n - fs).max(), (fs - (i - 1) / n).max()))


def ks_critical_value(n: int, alpha: float = 1e-3) -> float:
    """Asymptotic critical value sqrt(-ln(alpha/2)/2) / sqrt(n), slightly conservative."""
    n = _as_int(n, "sample size", 1)
    alpha = _as_real(alpha, "alpha", 0, 1)
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(n)


def _ks_gate(name: str, samples, cdf) -> GofReport:
    """Kolmogorov-Smirnov gate of samples against cdf at significance 1e-3."""
    n = len(samples)
    stat = ks_statistic(samples, cdf)
    threshold = ks_critical_value(n)
    return GofReport(name, stat, threshold, n, stat <= threshold)


def chernoff_consistency(dist: CountDistribution, cs) -> list[dict]:
    """Exact Poisson-binomial tails against both Chernoff bounds, per fraction."""
    m = dist.mean()
    rows = []
    for c in _elements(cs, "Chernoff fractions"):
        c = _as_real(c, "Chernoff fraction c", 0, 1)
        exact_lower = dist.cdf(math.floor((1.0 - c) * m))
        exact_upper = dist.upper_tail(math.ceil((1.0 + c) * m))
        bound_lower = chernoff_lower(m, c)
        bound_upper = chernoff_upper(m, c)
        rows.append(
            {
                "c": c,
                "exact_lower": exact_lower,
                "bound_lower": bound_lower,
                "exact_upper": exact_upper,
                "bound_upper": bound_upper,
                "ok": exact_lower <= bound_lower + 1e-12
                and exact_upper <= bound_upper + 1e-12,
            }
        )
    return rows


def bound_audit() -> tuple[dict, ...]:
    """Dominance chain and Chernoff-vs-exact rows over one fixed grid.

    For each R in (0.5, 0.7, 0.9, 0.99) and beta in (1, 2, 3, 5) the chain
    coincidence <= exact tail <= exponential bound  is checked at
    N = ceil(beta N_R); for each R the exact count law of the first 50
    eigenvalues is tested against both Chernoff tails at c = 0.1, ..., 0.9.
    Each row is {name, values, verdict}.
    """
    rows = []
    for radius in _AUDIT_RADII:
        for beta in _AUDIT_BETAS:
            rep = build_bound_report(radius, beta=beta)
            ok = (
                rep.coincidence_probability <= rep.coupling_tail + 1e-12
                and rep.coupling_tail <= rep.wasserstein_bound + 1e-12
            )
            rows.append(
                {
                    "name": f"dominance:R={radius}:beta={beta}",
                    "values": rep.to_dict(),
                    "verdict": "pass" if ok else "fail",
                }
            )
    for radius in _AUDIT_RADII:
        lam = BergmanSpectrum.disc(radius).eigenvalues(_AUDIT_N)
        table = chernoff_consistency(count_pmf(lam), _AUDIT_CS)
        rows.append(
            {
                "name": f"chernoff:R={radius}:N={_AUDIT_N}",
                "values": {"rows": table},
                "verdict": "pass" if all(r["ok"] for r in table) else "fail",
            }
        )
    return tuple(rows)


def verify_gates(seed: int, reps: int) -> tuple[dict, ...]:
    """The verify command's rows: bound_audit's, then the chi-square gate of
    reps Bernoulli-phase counts and the KS gates of max(200, reps // 4)
    one-point draws and of reps minima of 20 moduli, at significance 1e-3,
    each on its own streams of seed.  seed and reps are checked first."""
    seed = _as_int(seed, "seed", 0, _SEED_END)
    reps = _as_int(reps, "reps", 1, _REPLICA_END)
    rows = list(bound_audit())

    spectrum = BergmanSpectrum.disc(0.9)
    stats = mc_count_stats(spectrum, SamplerConfig(n_eigen=22, seed=seed), reps)
    dist = count_pmf(spectrum.eigenvalues(22))
    rows.append(count_gof(stats.histogram, dist, name="count-law:disc:0.9:N=22").to_dict())

    active = ActiveIndexSet(indices=(0,), n_eigen=1)
    points = _single_index_points(BergmanSpectrum.disc(0.8), active, seed, max(200, reps // 4))
    radii = [abs(z) for z in points.tolist()]
    rows.append(_ks_gate("positional-law:disc:0.8:index=0", radii, lambda x: (x / 0.8) ** 2).to_dict())

    minima = _moduli(make_rng(seed, 0, PHASE_MODULI), reps, 20).min(axis=1)
    rows.append(_ks_gate("min-radius-law:n=20", minima, lambda x: min_radius_cdf(20, x)).to_dict())
    return tuple(rows)
