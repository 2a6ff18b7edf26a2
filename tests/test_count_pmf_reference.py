"""verify.count_pmf against its reference: a verbatim copy of the product
tree's merges under count-law contract "tree-64", which multiplied the
leaves' laws as they are (only renamed here).

The merges now work in units of 2**-511, so no product is subnormal.  An
entry may move only where the reference's computation went through a
subnormal product or partial sum: every entry at or above 2**-1000 must keep
its bits, on the count-law digests' spectra and the long random spectra.
"""

import numpy as np
from test_digests import COUNT_PMF_DIGESTS
from test_verify import random_spectra

from bergman_dpp import BergmanSpectrum, count_pmf
from bergman_dpp import verify
from bergman_dpp.verify import _SUM_GUARD, _TINY, CountDistribution

# the entries below it may move; the merges' floor _TINY is 2**-1022
KEEP_BITS_FROM = 2.0**-1000


def reference_merged_law(leaves: np.ndarray, n: int) -> CountDistribution:
    """The law of n eigenvalues from its leaves' laws, one per row."""
    tree = [(law, 0) for law in leaves]  # (law, the count its first entry stands for)
    while len(tree) > 1:
        # one level: every pair's product, then one flush and one cut to spans
        pairs = list(zip(tree[::2], tree[1::2]))
        sizes = np.array([a.size + b.size - 1 for (a, _), (b, _) in pairs])
        starts = np.cumsum(sizes) - sizes
        level = np.concatenate([np.convolve(a, b) for (a, _), (b, _) in pairs])
        np.copyto(level, 0.0, where=level < _TINY)
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
    pmf[offset : offset + law.size] = law
    s = pmf.sum()
    if abs(s - 1.0) > _SUM_GUARD:
        raise ArithmeticError(f"count pmf mass drifted to {s}")
    pmf /= s
    return CountDistribution(pmf)


def reference_pmf(lam) -> np.ndarray:
    # the leaves in units of 1, as "tree-64" merged them: scaling a normal
    # double by a power of two is exact
    (leaves,) = verify._leaf_laws([np.asarray(lam, dtype=float)])
    return reference_merged_law(leaves * 2.0**-511, len(lam)).pmf


def test_count_pmf_keeps_the_reference_bits_above_2_to_the_minus_1000():
    spectra = [BergmanSpectrum.disc(radius).eigenvalues(n) for radius, n in sorted(COUNT_PMF_DIGESTS)]
    long = [lam for lam in random_spectra() if lam.size > 64]
    assert len(spectra) == 5 and len(long) == 29
    moved = 0
    for lam in [*spectra, *long]:
        got, ref = count_pmf(lam).pmf, reference_pmf(lam)
        kept = np.maximum(got, ref) >= KEEP_BITS_FROM
        assert got[kept].tobytes() == ref[kept].tobytes()
        moved += int(np.count_nonzero(got != ref))
    # the entries whose old computation went through a subnormal product or
    # sum: 13 on the AVX-512 float path and 15 on the libm path, all below
    # 1.1e-306
    assert moved <= 20
