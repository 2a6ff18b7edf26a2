"""Verification oracles and statistical gates.

The count of the restricted process is a sum of independent Bernoulli
variables, one per eigenvalue, so its law is an exact Poisson-binomial
computed here by direct convolution, each step over only the band of
entries that are not exactly zero: the full window would add exact zeros,
which change no bits.  That oracle anchors everything
else: chi-square gates for Monte Carlo counts, Chernoff-vs-exact audits,
and the dominance chain of the truncation bounds.  All gates run at a
fixed significance and a fixed seed; a verdict is a pure comparison of
statistic against threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _stats

from .bounds import build_bound_report, chernoff_lower, chernoff_upper
from .errors import DomainError, _as_int, _as_pair, _as_real
from .sampler import PointConfiguration, SamplerConfig, _eigenvalues
from .spectral import BergmanSpectrum
from .streams import PHASE_BERNOULLI, make_rng

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
]

_RENORM_EVERY = 4096
_SUM_GUARD = 1e-9
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

    One absorption per eigenvalue over the band [lo, hi] outside which every
    entry is exactly 0.0 (60..1924 of 27625 on disc:0.9995 at N=27624).
    There the full-window recursion computes 0.0 * q + 0.0 * l, and at the
    band's ends x * q + 0.0 == x * q, so the pmf is the same to the bit.
    The running mass is renormalized over the full window every few
    thousand steps and the drift is required to stay at rounding scale,
    anything larger is a hard error.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1:
        raise DomainError("eigenvalues must form a one-dimensional sequence")
    if lam.size and (np.any(lam < 0.0) or np.any(lam > 1.0) or not np.all(np.isfinite(lam))):
        raise DomainError("eigenvalues must lie in [0, 1]")
    n = lam.size
    pmf = np.zeros(n + 1)
    pmf[0] = 1.0
    scratch = np.empty(n + 1)
    top = lo = hi = 0
    for t in range(n):
        l = lam[t]
        if l != 0.0:
            carry = np.multiply(pmf[lo : hi + 1], l, out=scratch[: hi - lo + 1])
            pmf[lo : hi + 1] *= 1.0 - l
            pmf[lo + 1 : hi + 2] += carry
            top += 1
            if pmf[hi + 1] != 0.0:
                hi += 1
            while pmf[lo] == 0.0:
                lo += 1
        if (t + 1) % _RENORM_EVERY == 0:
            s = pmf[: top + 1].sum()
            if abs(s - 1.0) > _SUM_GUARD:
                raise ArithmeticError(f"count pmf mass drifted to {s}")
            pmf[: top + 1] /= s
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
    """
    reps = _as_int(reps, "reps", 1)
    lam = _eigenvalues(spectrum, config.resolve_truncation(spectrum))
    counts = np.empty(reps, dtype=np.int64)
    for r in range(reps):
        rng = make_rng(config.seed, r, PHASE_BERNOULLI)
        counts[r] = np.count_nonzero(rng.random(lam.size) < lam)
    hist = np.bincount(counts, minlength=lam.size + 1)
    mean = float(counts.mean())
    var = float(counts.var(ddof=1)) if reps > 1 else 0.0
    return CountStats(
        mean=mean,
        variance=var,
        stderr=math.sqrt(var / reps) if reps > 1 else float("inf"),
        histogram=hist,
        reps=reps,
    )


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


def count_gof(
    histogram, dist: CountDistribution, alpha: float = 1e-3, name: str = "count-gof"
) -> GofReport:
    """Pearson chi-square of an observed count histogram against the exact law.

    Cells are merged left to right until each expected count reaches 5;
    degrees of freedom are merged cells minus one.
    """
    alpha = _as_real(alpha, "alpha", 0, 1)
    obs = np.asarray(histogram, dtype=float)
    if obs.ndim != 1 or obs.size == 0 or np.any(obs < 0):
        raise DomainError("histogram must be a one-dimensional array of counts")
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
    mo = np.array(merged_obs)
    me = np.array(merged_exp)
    statistic = float(((mo - me) ** 2 / me).sum())
    df = len(me) - 1
    threshold = float(_stats.chi2.ppf(1.0 - alpha, df))
    return GofReport(
        name=name,
        statistic=statistic,
        threshold=threshold,
        sample_size=int(reps),
        passed=statistic <= threshold,
        extra={"cells": len(me), "alpha": alpha},
    )


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
    statistic = float(((observed - expected) ** 2 / expected).sum())
    threshold = float(_stats.chi2.ppf(1.0 - alpha, len(cleaned)))
    table = {
        "bins": [
            {"r1": r1, "r2": r2, "observed": o, "expected": e}
            for (r1, r2), o, e in zip(cleaned, observed, expected)
        ]
    }
    return GofReport(
        name="intensity-profile",
        statistic=statistic,
        threshold=threshold,
        sample_size=reps,
        passed=statistic <= threshold,
        extra=table,
    )


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


def chernoff_consistency(dist: CountDistribution, cs) -> list[dict]:
    """Exact Poisson-binomial tails against both Chernoff bounds, per fraction."""
    m = dist.mean()
    rows = []
    for c in np.ravel(cs):
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
