"""Verification oracles and statistical gates.

The count of the restricted process is a sum of independent Bernoulli
variables, one per eigenvalue, so its law is an exact Poisson-binomial,
computed here through a product tree: the laws of blocks of 64 eigenvalues
are built side by side by the per-step recursion, in place in one
contiguous array, and merged pairwise by direct convolution, one tree level
at a time, with every entry below the smallest normal double flushed to 0.0
(no reported statistic sees a probability below 2.2e-308).  The merges work
in units of 2**-511, so every product they form is a normal double: merged
unscaled, tails of 1e-150 and below gave products under 2.2e-308, each an
x86 subnormal assist, and the merges of disc:0.9995's law at N = 27624 took
twice as long (5.7 ms against 2.9 ms on an AVX-512 Xeon).  Many laws share
that array: bound_audit's four Chernoff laws are one recursion of 50 steps,
not four (verify_gates adds its count gate's law to it), and each law's
tree then merges on its own, to the bits of the law alone.  That oracle
anchors everything else: chi-square gates for Monte Carlo counts,
Chernoff-vs-exact audits, and the dominance chain of the truncation bounds.
All gates run at a fixed significance and a fixed seed; a verdict is a pure
comparison of statistic against threshold.  Every chi-square gate is one
Pearson gate at the correctly rounded chi-square quantile, solved in
mpmath, and every Kolmogorov-Smirnov gate uses the asymptotic critical
value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .bounds import build_bound_report, chernoff_lower, chernoff_upper
from .errors import _INDEX_END, DomainError, _as_int, _as_ints, _as_pair, _as_real, _as_reals
from .errors import _elements, _items, _of_type
from .sampler import ActiveIndexSet, PointConfiguration, SamplerConfig, min_radius_cdf
from .sampler import _moduli, _single_index_points
from .spectral import BergmanSpectrum, _plan_of
from .streams import PHASE_BERNOULLI, PHASE_MODULI, _REPLICA_END, _SEED_END, _cell, _replica_uniforms

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
_SCALE = 2.0**511  # the unit of count_pmf's merges is 1 / _SCALE
# the grid bound_audit covers: radii, betas, Chernoff truncation and fractions
_AUDIT_RADII = (0.5, 0.7, 0.9, 0.99)
_AUDIT_BETAS = (1.0, 2.0, 3.0, 5.0)
_AUDIT_N = 50
_AUDIT_CS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
_GATE_REPS = 13  # below it count_gof finds one cell in reps * pmf of verify_gates' N=22 law


class CountDistribution:
    """Exact Poisson-binomial law of the point count under truncation."""

    def __init__(self, pmf):
        self.pmf = _as_reals(pmf, "pmf", 0, 1, ends="[]")
        if self.pmf.ndim != 1:
            raise DomainError("pmf must be a one-dimensional array of probabilities")
        self._cdf = np.minimum(np.cumsum(self.pmf), 1.0)  # a rounded sum may pass 1

    def __len__(self):
        return len(self.pmf)

    def mean(self) -> float:
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def variance(self) -> float:
        return self.moment(2)

    def moment(self, order: int, central: bool = True) -> float:
        order = _as_int(order, "moment order", 0, _INDEX_END)
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
    recursion) on a (65, blocks) array whose column r is block r's law,
    then merged pairwise by direct convolution, never an FFT, whose
    absolute error would wipe out the tails the Chernoff rows read.
    Entries below the smallest normal double are set to 0.0 after each step
    and after each level of merges (all its products at once), and a merged
    law keeps only the span of the rest (a Poisson-binomial pmf is
    log-concave, so only its two tails fall below); a product with no entry
    left is an ArithmeticError.  _count_pmfs builds many laws' leaves in one
    such array; count_pmf is its one-law call.

    Count-law contract "tree-64-scaled": up to 64 eigenvalues the pmf is
    bit-equal to the flushed per-step recursion divided once by its sum;
    above 64 only low bits move (relative differences below 1e-13 on entries
    from 1e-280 up).  The merges work in units of 2**-511: the leaves are
    scaled by 2**511, each level of products by 2**-511 before its flush, and
    the root by 2**-511 into the pmf, all exact, so every kept entry is at
    least 2**-511 and every product a normal double; no sum overflows, as a
    law's mass is at most 1 + 1e-9.  Against "tree-64", which merged
    unscaled laws, only entries whose computation went through a subnormal
    product or partial sum moved: none at or above 2**-1000.  A mass that
    drifts from 1 by more than 1e-9 is a hard error.
    """
    return _count_pmfs([eigenvalues])[0]


def _count_pmfs(eigenvalue_arrays) -> list[CountDistribution]:
    """[count_pmf(lam) for lam in eigenvalue_arrays], to the bit: every law's
    leaves come from one _leaf_laws recursion, then each law's tree merges
    on its own."""
    lams = [_as_reals(lam, "eigenvalues", 0, 1, ends="[]") for lam in eigenvalue_arrays]
    if any(lam.ndim != 1 for lam in lams):
        raise DomainError("eigenvalues must form a one-dimensional sequence")
    return [_merged_law(leaves, lam.size) for lam, leaves in zip(lams, _leaf_laws(lams))]


def _merged_law(leaves: np.ndarray, n: int) -> CountDistribution:
    """The law of n eigenvalues from its leaves' laws, one per row in units
    of 2**-511, as count_pmf describes."""
    floor = _TINY * _SCALE  # at call time, so the flush follows _TINY
    tree = [(law, 0) for law in leaves]  # (law, the count its first entry stands for)
    while len(tree) > 1:
        # one level: every pair's product, back to units of 2**-511, then
        # one flush and one cut to spans
        pairs = list(zip(tree[::2], tree[1::2]))
        sizes = np.array([a.size + b.size - 1 for (a, _), (b, _) in pairs])
        starts = np.cumsum(sizes) - sizes
        level = np.concatenate([np.convolve(a, b) for (a, _), (b, _) in pairs])
        level *= 1.0 / _SCALE
        np.copyto(level, 0.0, where=level < floor)
        kept = np.flatnonzero(level)
        lo, hi = np.searchsorted(kept, starts), np.searchsorted(kept, starts + sizes)
        if np.any(lo == hi):
            raise ArithmeticError("a product of count laws lost all its mass")
        # (first kept entry, last kept entry, start) of each product
        spans = zip(kept[lo].tolist(), kept[hi - 1].tolist(), starts.tolist(), pairs)
        merged = [(level[f : e + 1], i + j + f - s) for f, e, s, ((_, i), (_, j)) in spans]
        tree = merged + tree[2 * len(merged) :]
    law, offset = tree[0]
    pmf = np.zeros(n + 1)
    np.multiply(law, 1.0 / _SCALE, out=pmf[offset : offset + law.size])
    s = pmf.sum()
    if abs(s - 1.0) > _SUM_GUARD:
        raise ArithmeticError(f"count pmf mass drifted to {s}")
    pmf /= s
    return CountDistribution(pmf)


def _leaf_laws(lams: list) -> list:
    """The flushed per-step laws of blocks of 64 eigenvalues, in units of
    2**-511, one array per entry of lams with one block per row, all built
    side by side."""
    width = min(_BLOCK, max(lam.size for lam in lams))
    rows = [max(1, -(-lam.size // _BLOCK)) for lam in lams]
    # padding with 0.0 changes no bits: x * (1.0 - 0.0) + 0.0 * y == x, so a
    # law of N < width eigenvalues is its N + 1 leading entries; column r of
    # block and laws is leaf r, so each step reads leading rows
    parts = [np.pad(lam, (0, r * width - lam.size)).reshape(r, width) for lam, r in zip(lams, rows)]
    block = np.concatenate(parts).T.copy()
    stay = 1.0 - block
    laws, carry = np.zeros((2, width + 1, block.shape[1]))
    mask = np.empty(laws.shape, dtype=bool)
    laws[0] = 1.0
    for i in range(width):
        np.multiply(laws[: i + 1], block[i], out=carry[: i + 1])
        laws[: i + 1] *= stay[i]
        laws[1 : i + 2] += carry[: i + 1]
        window = laws[: i + 2]
        np.copyto(window, 0.0, where=np.less(window, _TINY, out=mask[: i + 2]))
    leaves = np.multiply(laws.T, _SCALE, order="C")  # exact: every entry is 0 or normal
    stops = np.cumsum(rows).tolist()
    return [leaves[stop - r : stop, : lam.size + 1] for lam, r, stop in zip(lams, rows, stops)]


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
    config = _of_type(config, SamplerConfig, "config")
    lam = _plan_of(spectrum, config.resolve_truncation(spectrum)).lam
    blocks = _replica_uniforms(config.seed, np.arange(reps), PHASE_BERNOULLI, lam.size)
    counts = np.concatenate([np.count_nonzero(u < lam, axis=1) for u in blocks])
    var = float(counts.var(ddof=1)) if reps > 1 else 0.0
    stderr = math.sqrt(var / reps) if reps > 1 else math.inf
    hist = np.bincount(counts, minlength=lam.size + 1)
    return CountStats(float(counts.mean()), var, stderr, hist, reps)


def _row(name: str, values: dict, ok: bool) -> dict:
    """One report row: {name, values, verdict}."""
    return {"name": name, "values": values, "verdict": "pass" if ok else "fail"}


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
        return _row(self.name, values, self.passed)


def _pearson(name, observed, expected, df, alpha, sample_size, extra) -> GofReport:
    """Pearson chi-square gate of observed against expected counts at _chi2_quantile's threshold."""
    statistic = float(((observed - expected) ** 2 / expected).sum())
    threshold = _chi2_quantile(df, alpha)
    return GofReport(name, statistic, threshold, sample_size, statistic <= threshold, extra)


@cache
def _chi2_quantile(df: int, alpha: float) -> float:
    """The double nearest the root x of Q(df/2, x/2) = alpha, Q mpmath's regularized
    upper incomplete gamma (the lower tail's 1 - alpha rounds to 1 below 2**-53),
    for df in [1, 10**6] and alpha in (0, 1): Pegasus steps on log Q at 40
    digits inside Laurent and Massart's tail bounds."""
    import mpmath as mp  # here, not at module level: the package loads numpy only
    with mp.workdps(40):
        a, t = mp.mpf(df) / 2, -mp.log(alpha)
        lo, hi = max(0, df - 2 * mp.sqrt(-df * mp.log1p(-alpha))), df + 2 * mp.sqrt(df * t) + 2 * t

        def gap(x):  # log Q(a, x/2) + t
            if x <= df or a < 120:  # else gammainc may stop its 2F0 series too early
                return mp.log(mp.gammainc(a, x / 2, mp.inf, regularized=True)) + t
            f = mp.hyp2f0(1, 1 - a, -2 / x, maxterms=10**5)
            return (a - 1) * mp.log(x / 2) - x / 2 - mp.loggamma(a) + mp.log(f) + t

        return float(mp.findroot(gap, (lo, hi), solver="pegasus", maxsteps=200))


def count_gof(
    histogram, dist: CountDistribution, alpha: float = 1e-3, name: str = "count-gof"
) -> GofReport:
    """Pearson chi-square of an observed count histogram against the exact law.

    Each histogram entry is a count: a finite non-negative integer.  Cells
    are merged left to right until each expected count reaches 5; degrees
    of freedom are merged cells minus one.
    """
    alpha = _as_real(alpha, "alpha", 0, 1)
    dist = _of_type(dist, CountDistribution, "count law")
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

    cells = [[0.0, 0.0]]  # [observed, expected] per merged cell, the last one open
    for o, e in zip(obs, exp_full):
        if cells[-1][1] >= 5.0:
            cells.append([0.0, 0.0])
        cells[-1][0] += o
        cells[-1][1] += e
    if len(cells) > 1 and cells[-1][1] < 5.0:  # a short tail joins the cell before it
        o, e = cells.pop()
        cells[-1][0] += o
        cells[-1][1] += e
    if len(cells) < 2:
        raise DomainError("fewer than two cells with expected mass; nothing to test")
    observed, expected = (np.array(column) for column in zip(*cells))
    extra = {"cells": len(cells), "alpha": alpha}
    return _pearson(name, observed, expected, len(cells) - 1, alpha, int(reps), extra)


def intensity_profile_test(
    configs, spectrum: BergmanSpectrum, bins, alpha: float = 1e-3
) -> GofReport:
    """Compare per-bin point counts with the exact truncated expectations.

    For a radial bin (r1, r2] inside the region the truncated process puts
    sum_{n < N} (r2**(2n+2) - r1**(2n+2)) points on average, the first N
    eigenvalues of the annulus r1 <= |z| <= r2 summed, whatever the region
    (eigenvalue and normalizer cancel); configurations from another region
    than the spectrum's are refused.  Pearson statistic over the bins with
    known expectations, df = number of bins; the count variance of a
    determinantal process is below its mean, so the gate is conservative.
    """
    alpha = _as_real(alpha, "alpha", 0, 1)
    spectrum = _of_type(spectrum, BergmanSpectrum, "spectrum")
    configs = [_of_type(c, PointConfiguration, "configuration") for c in _items(configs, "configs")]
    if not configs:
        raise DomainError("no configurations supplied")
    n_eigen = configs[0].meta.n_eigen
    if any(c.meta.n_eigen != n_eigen for c in configs):
        raise DomainError("configurations mix different truncation orders")
    literal = spectrum.region.literal()
    if any(c.meta.region != literal for c in configs):
        raise DomainError(f"configurations sampled on another region than {literal}")

    cleaned = [_as_pair(pair, "bin", 0, ends="[)") for pair in _items(bins, "bins")]
    if not cleaned:
        raise DomainError("no bins supplied")
    for r1, r2 in cleaned:
        if not any(a <= r1 and r2 <= b for a, b in spectrum.region.intervals):
            raise DomainError(f"bin ({r1}, {r2}) is not contained in the region")
    order = sorted(cleaned)
    for (l1, l2), (m1, m2) in zip(order, order[1:]):
        if m1 < l2:
            raise DomainError(f"bins ({l1}, {l2}) and ({m1}, {m2}) overlap")

    reps = len(configs)
    expected = reps * np.array([BergmanSpectrum.annulus(*b).eigenvalues(n_eigen).sum() for b in cleaned])
    if np.any(expected <= 0.0):
        raise DomainError("a bin has zero expected count; widen it")
    # np.abs per configuration, so each modulus is the bits its own configuration's call gives
    m = np.concatenate([np.abs(np.asarray(c.points, dtype=complex)) for c in configs])
    observed = np.array([np.count_nonzero((r1 < m) & (m <= r2)) for r1, r2 in cleaned], dtype=float)
    table = {
        "bins": [
            {"r1": r1, "r2": r2, "observed": o, "expected": e}
            for (r1, r2), o, e in zip(cleaned, observed, expected)
        ]
    }
    return _pearson("intensity-profile", observed, expected, len(cleaned), alpha, reps, table)


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a callable CDF."""
    xs = np.sort(_as_reals(samples, "samples", -math.inf).ravel())
    n = xs.size
    if n == 0:
        raise DomainError("empty sample")
    if not callable(cdf):
        raise DomainError(f"cdf must be callable, got {cdf!r}")
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
    n = _as_int(n, "sample size", 1, _INDEX_END)
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
    m = _of_type(dist, CountDistribution, "count law").mean()
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
    lams = [BergmanSpectrum.disc(r).eigenvalues(_AUDIT_N) for r in _AUDIT_RADII]
    return _audit_rows(_count_pmfs(lams))


def _audit_rows(laws) -> tuple[dict, ...]:
    """bound_audit's rows, the Chernoff rows read from laws: its four discs' count laws."""
    rows = []
    for radius in _AUDIT_RADII:
        for beta in _AUDIT_BETAS:
            rep = build_bound_report(radius, beta=beta)
            ok = (
                rep.coincidence_probability <= rep.coupling_tail + 1e-12
                and rep.coupling_tail <= rep.wasserstein_bound + 1e-12
            )
            rows.append(_row(f"dominance:R={radius}:beta={beta}", rep.to_dict(), ok))
    for radius, dist in zip(_AUDIT_RADII, laws):
        table = chernoff_consistency(dist, _AUDIT_CS)
        ok = all(r["ok"] for r in table)
        rows.append(_row(f"chernoff:R={radius}:N={_AUDIT_N}", {"rows": table}, ok))
    return tuple(rows)


def verify_gates(seed: int, reps: int) -> tuple[dict, ...]:
    """The verify command's rows: bound_audit's, then the chi-square gate of
    reps Bernoulli-phase counts and the KS gates of max(200, reps // 4)
    one-point draws and of reps minima of 20 moduli, at significance 1e-3,
    each on its own streams of seed.  seed and reps are checked first;
    below 13 reps the chi-square gate would have one cell."""
    seed = _as_int(seed, "seed", 0, _SEED_END)
    reps = _as_int(reps, "reps", _GATE_REPS, _REPLICA_END)
    spectrum = BergmanSpectrum.disc(0.9)
    # bound_audit's four laws and the count gate's N=22 law from one leaf recursion
    lams = [BergmanSpectrum.disc(r).eigenvalues(_AUDIT_N) for r in _AUDIT_RADII]
    *laws, dist = _count_pmfs([*lams, spectrum.eigenvalues(22)])
    rows = list(_audit_rows(laws))

    stats = mc_count_stats(spectrum, SamplerConfig(n_eigen=22, seed=seed), reps)
    rows.append(count_gof(stats.histogram, dist, name="count-law:disc:0.9:N=22").to_dict())

    active = ActiveIndexSet(indices=(0,), n_eigen=1)
    points = _single_index_points(BergmanSpectrum.disc(0.8), active, seed, max(200, reps // 4))
    radii = [abs(z) for z in points.tolist()]
    rows.append(_ks_gate("positional-law:disc:0.8:index=0", radii, lambda x: (x / 0.8) ** 2).to_dict())

    minima = _moduli(_cell(seed, 0, PHASE_MODULI), reps, 20).min(axis=1)
    rows.append(_ks_gate("min-radius-law:n=20", minima, lambda x: min_radius_cdf(20, x)).to_dict())
    return tuple(rows)
