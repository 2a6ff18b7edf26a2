"""Closed-form spectral data for restricted reproducing kernels.

The Bergman kernel of the open unit disc is k(x, y) = (1/pi) (1 - x conj(y))**(-2).
Restricted to a radial region {|z| in A} its eigenfunctions stay the
normalized monomials phi_n(x) = x**n / sqrt(nu_n) with

    nu_n = 2 pi * integral_A r**(2n+1) dr = pi * lambda_n / (n + 1),
    lambda_n = sum_j (b_j**(2n+2) - a_j**(2n+2)),

so the whole spectrum is available exactly, which is what makes exact
simulation of the restricted determinantal process possible.  Off the disc
each lambda_n is one scalar formula through math, b**k - a**k per interval
(k = 2n + 2) or -expm1(k log(a/b)) b**k where that cancels, so its bits
depend on n alone.  The Ginibre kernel restricted to a centered disc of
radius R has eigenvalues P(n+1, R**2) = gamma(n+1, R**2) / n!, the lower
regularized incomplete gamma, taken from scipy.special.gammainc, which
loads at the first Ginibre eigenvalue rather than with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _INDEX_END, DomainError, _as_int, _as_ints, _as_real, _as_reals, _elements
from .errors import _of_type
from .regions import RadialRegion, annulus as _annulus, disc as _disc, region_trace

__all__ = [
    "bergman_kernel",
    "BergmanSpectrum",
    "GinibreSpectrum",
]

# numpy describes no array of 2**63 bytes or more, so an n_eigen whose
# float64 arrays hold n_eigen entries per interval stays below 2**60 in all
_ENTRIES_END = _INDEX_END // 8


def _as_point(z) -> complex:
    try:
        z = complex(z)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{z!r} is not a complex point") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise DomainError(f"point {z!r} has non-finite components")
    return z


def bergman_kernel(x, y) -> complex:
    """Bergman kernel (1/pi) (1 - x conj(y))**(-2) on the open unit disc."""
    x = _as_point(x)
    y = _as_point(y)
    if abs(x) >= 1.0 or abs(y) >= 1.0:
        raise DomainError("bergman_kernel needs |x| < 1 and |y| < 1")
    d = 1.0 - x * y.conjugate()
    return 1.0 / (math.pi * d * d)


class BergmanSpectrum:
    """Spectrum of the Bergman kernel restricted to a radial region.

    Eigenvalues, eigenfunctions and partial kernel sums all come from the
    interval endpoints in closed form.
    """

    def __init__(self, region: RadialRegion):
        if _of_type(region, RadialRegion, "region").is_empty:
            raise DomainError("cannot build a spectrum over an empty region")
        self.region = region
        self._literal = region.literal()
        self._trace = region_trace(region)
        inner = np.array([a for a, _ in region.intervals])
        self._b = np.array([b for _, b in region.intervals])
        with np.errstate(divide="ignore"):
            self._log_ratio = np.log(inner / self._b)  # -inf on a disc
        # log(a/b) as log1p((a - b) / b): where _lambda reads it, a > b/2 and a - b is exact
        self._ends = [(a, b, math.log1p((a - b) / b) if a else -math.inf) for a, b in region.intervals]
        # a disc's lambda_n is one power b**(2n+2), the formula at a = 0, taken
        # by numpy's pow, whose bits (1 ulp off libm's on some) the digests pin
        self._disc_radius = self._b[0] if self._b.size == 1 and inner[0] == 0.0 else None
        self._plan = None  # the _Plan of the last truncation, written by _plan_of only

    @classmethod
    def disc(cls, radius: float) -> "BergmanSpectrum":
        return cls(_disc(radius))

    @classmethod
    def annulus(cls, inner: float, outer: float) -> "BergmanSpectrum":
        return cls(_annulus(inner, outer))

    def __repr__(self):
        return f"BergmanSpectrum({self._literal!r})"

    # -- eigenvalues --------------------------------------------------------

    def eigenvalues(self, n_eigen: int) -> np.ndarray:
        """Eigenvalues for indices 0 .. n_eigen-1 as a float array."""
        n_eigen = _as_int(n_eigen, "n_eigen", 0, _ENTRIES_END // self._b.size)
        return self._lambda(np.arange(n_eigen))

    def _lambda(self, idx: np.ndarray) -> np.ndarray:
        """lambda_n for each index n of the int64 array idx; off the disc one
        entry at a time, in a plain loop (generators take 2-3 times as long)."""
        if self._disc_radius is not None:
            return self._disc_radius ** (2.0 * idx + 2.0)
        lam = []
        for n in idx.tolist():
            k = 2.0 * n + 2.0
            total = 0.0
            for a, b, ell in self._ends:
                ak, bk = a**k, b**k
                # the difference, or expm1 where it would cancel
                total += -math.expm1(k * ell) * bk if ak > 0.5 * bk else bk - ak
            lam.append(total)
        return np.array(lam)

    def eigenvalue(self, n: int) -> float:
        return float(self._lambda(np.array([_as_int(n, "eigenvalue index", 0, _INDEX_END)]))[0])

    def trace(self) -> float:
        """Exact closed-form trace."""
        return self._trace

    # -- eigenfunctions ------------------------------------------------------

    def _rows(self, idx: np.ndarray):
        """Proposal table, pair masses and log(1/sqrt(nu_n)), one row per index.

        Per (index, interval) pair: b, (a/b)**k, 1 - (a/b)**k and 1/k for
        k = 2n + 2, and the mass (b**k - a**k) / B**k, B the outer radius,
        divided by its index's sum lambda_n / B**k, so the normalizers stay
        finite where lambda_n underflows.  A row depends on its index only.
        """
        b = self._b
        k = 2.0 * idx[:, None] + 2.0
        log_rho = k * self._log_ratio
        gap = -np.expm1(log_rho)
        table = np.empty((k.size, b.size, 4))
        table[..., 0] = b
        table[..., 1] = np.exp(log_rho)
        table[..., 2] = gap
        table[..., 3] = 1 / k
        log_outer = math.log(self.region.outer_radius)
        mass = np.exp(k * (np.log(b) - log_outer)) * gap
        row = mass.sum(axis=1)
        # log sqrt((n + 1) / (pi lambda_n)) with lambda_n = B**k * row
        log_inv = 0.5 * (np.log((idx + 1.0) / math.pi) - k[:, 0] * log_outer - np.log(row))
        return table, mass / row[:, None], log_inv

    def feature_matrix(self, indices, z) -> np.ndarray:
        """Matrix phi_n(z_i) = exp(n log z_i + log(1/sqrt(nu_n))) for z_i in the closed region.

        The sampler's expression and normalizers; at z = 0 only phi_0 is
        nonzero.  An index that is not a non-negative integer, or a point
        that is not a finite complex number in the region, raises DomainError.
        """
        indices = _as_ints(indices, "eigenfunction index", 0, _INDEX_END)
        points = [_as_point(p) for p in _elements(z, "points")]
        for p in points:
            if not self.region.contains_point(p):
                raise DomainError(
                    f"point {p!r} lies outside the closed region {self._literal}"
                )
        z = np.array(points, dtype=complex)
        log_inv = self._rows(indices)[2]
        zero = z == 0
        feats = np.empty((z.size, indices.size), dtype=complex)
        feats[~zero] = np.exp(np.multiply.outer(np.log(z[~zero]), indices) + log_inv)
        feats[zero] = np.exp(np.where(indices == 0, log_inv, -np.inf))
        return feats

    def eigenfunction(self, n: int, x) -> complex:
        """phi_n(x) = x**n / sqrt(nu_n) for x in the closed region."""
        n = _as_int(n, "eigenvalue index", 0, _INDEX_END)
        return complex(self.feature_matrix([n], [_as_point(x)])[0, 0])

    # -- kernel sums ---------------------------------------------------------

    def truncated_kernel(self, n_eigen: int, x, y) -> complex:
        """Partial spectral sum  sum_{n < n_eigen} lambda_n phi_n(x) conj(phi_n(y))."""
        n_eigen = _as_int(n_eigen, "n_eigen", 1, _ENTRIES_END // self._b.size)
        fx, fy = self.feature_matrix(np.arange(n_eigen), [_as_point(x), _as_point(y)])
        return complex(np.sum(self.eigenvalues(n_eigen) * fx * fy.conjugate()))


def _spectrum_method(spectrum, name: str):
    """spectrum's method name, else DomainError.  The one spectrum rule: a
    spectrum is anything with an eigenvalues(n) method, and a trace() method
    where N comes from beta (positions are drawn on a BergmanSpectrum only)."""
    method = getattr(spectrum, name, None)
    if not callable(method):
        raise DomainError(f"spectrum {spectrum!r} has no {name}() method")
    return method


@dataclass(frozen=True)
class _Plan:
    """A spectrum's sampling plan for truncation n_eigen, read-only so that
    threads share it: its checked eigenvalues lam and, on a BergmanSpectrum,
    the _rows of every index below n_eigen (log normalizers as complex)."""

    n_eigen: int
    lam: np.ndarray
    rows: tuple | None = None

    def __post_init__(self):
        for a in (self.lam, *(self.rows or ())):
            a.flags.writeable = False

    def mixture(self, idx: np.ndarray):
        """What sampler._proposals reads for the active indices idx: their table
        rows index-major, one per (index, interval) pair, their pair masses
        cumulated, and idx and their log normalizers as complex arrays."""
        table, mass, log_inv = self.rows
        cum = np.add.accumulate(mass.take(idx, 0).ravel())
        return table.take(idx, 0).reshape(-1, 4), cum, idx.astype(complex), log_inv.take(idx)


def _plan_of(spectrum, n_eigen: int) -> _Plan:
    """The plan of any spectrum for n_eigen, its eigenvalues checked to be
    finite, in [0, 1] and n_eigen of them, else DomainError.  The one writer
    of BergmanSpectrum._plan: a BergmanSpectrum, subclasses included, keeps
    its last plan, and a failed check keeps nothing; any other spectrum gets
    a plan without rows, kept nowhere."""
    n_eigen = _as_int(n_eigen, "n_eigen", 1)
    bergman = isinstance(spectrum, BergmanSpectrum)
    plan = spectrum._plan if bergman else None  # one read, so threads may replace it
    if plan is not None and plan.n_eigen == n_eigen:
        return plan
    lam = _as_reals(_spectrum_method(spectrum, "eigenvalues")(n_eigen), "eigenvalues", 0, 1, ends="[]")
    if lam.shape != (n_eigen,):
        raise DomainError(f"spectrum must provide {n_eigen} eigenvalues")
    if not bergman:
        return _Plan(n_eigen, lam)
    table, mass, log_inv = spectrum._rows(np.arange(n_eigen))
    spectrum._plan = plan = _Plan(n_eigen, lam, (table, mass, log_inv.astype(complex)))
    return plan


class GinibreSpectrum:
    """Eigenvalues of the Ginibre kernel restricted to a centered disc.

    Positional sampling is out of scope here: no closed-form eigenfunction
    family is exposed, only the eigenvalue sequence and its trace.
    """

    def __init__(self, radius: float):
        self.radius = _as_real(radius, "Ginibre radius")
        # the trace R**2 too is a float, so a report never reads inf
        _as_real(self.radius * self.radius, "squared Ginibre radius", 0, ends="[)")

    def __repr__(self):
        return f"GinibreSpectrum({self.radius!r})"

    def eigenvalue(self, n: int) -> float:
        from scipy.special import gammainc  # here, not at module level: the package loads numpy only
        n = _as_int(n, "eigenvalue index", 0, _INDEX_END)
        return float(gammainc(n + 1, self.radius * self.radius))

    def eigenvalues(self, n_eigen: int) -> np.ndarray:
        from scipy.special import gammainc
        n_eigen = _as_int(n_eigen, "n_eigen", 0, _ENTRIES_END)
        return gammainc(np.arange(1, n_eigen + 1), self.radius * self.radius)

    def trace(self) -> float:
        """Exact trace R**2.

        P(n+1, R**2) is the probability that a Poisson(R**2) variable is at
        least n + 1, so the eigenvalues sum to its mean.
        """
        return self.radius * self.radius
