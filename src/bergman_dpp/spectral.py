"""Closed-form spectral data for restricted reproducing kernels.

The Bergman kernel of the open unit disc is k(x, y) = (1/pi) (1 - x conj(y))**(-2).
Restricted to a radial region {|z| in A} its eigenfunctions stay the
normalized monomials phi_n(x) = x**n / sqrt(nu_n) with

    nu_n = 2 pi * integral_A r**(2n+1) dr = pi * lambda_n / (n + 1),
    lambda_n = sum_j (b_j**(2n+2) - a_j**(2n+2)),

so the whole spectrum is available exactly, which is what makes exact
simulation of the restricted determinantal process possible.  The Ginibre
kernel restricted to a centered disc of radius R has eigenvalues
P(n+1, R**2) = gamma(n+1, R**2) / n!, the lower regularized incomplete
gamma, taken from scipy.special.gammainc.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammainc

from .errors import DomainError, _as_int, _as_real
from .regions import RadialRegion, annulus as _annulus, disc as _disc, region_trace

__all__ = [
    "UNDERFLOW_FLOOR",
    "bergman_kernel",
    "BergmanSpectrum",
    "GinibreSpectrum",
]

# eigenvalues below this are clamped to zero; the flag is underflow_index()
UNDERFLOW_FLOOR = 1e-300


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
    interval endpoints in closed form.  Eigenvalues below UNDERFLOW_FLOOR
    are clamped to zero; underflow_index() reports where that starts.
    """

    def __init__(self, region: RadialRegion):
        if not isinstance(region, RadialRegion):
            raise DomainError(f"expected a RadialRegion, got {type(region).__name__}")
        if region.is_empty:
            raise DomainError("cannot build a spectrum over an empty region")
        self.region = region
        self._a = np.array([a for a, _ in region.intervals])
        self._b = np.array([b for _, b in region.intervals])

    @classmethod
    def disc(cls, radius: float) -> "BergmanSpectrum":
        return cls(_disc(radius))

    @classmethod
    def annulus(cls, inner: float, outer: float) -> "BergmanSpectrum":
        return cls(_annulus(inner, outer))

    def __repr__(self):
        return f"BergmanSpectrum({self.region.literal()!r})"

    # -- eigenvalues --------------------------------------------------------

    def eigenvalues(self, n_eigen: int) -> np.ndarray:
        """Eigenvalues for indices 0 .. n_eigen-1 as a float array."""
        n_eigen = _as_int(n_eigen, "n_eigen")
        e = (2.0 * np.arange(n_eigen) + 2.0)[:, None]
        bp = self._b[None, :] ** e
        ap = self._a[None, :] ** e
        # direct difference is exact-friendly; switch to expm1 only when the
        # subtraction would cancel most of the mantissa (thin annuli)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_ratio = np.log(self._a[None, :]) - np.log(self._b[None, :])
            safe = np.where(bp > 0.0, bp, 1.0)
            rel = np.where(bp > 0.0, -np.expm1(e * log_ratio) * safe, 0.0)
        terms = np.where(ap > 0.5 * bp, rel, bp - ap)
        lam = terms.sum(axis=1)
        lam[lam < UNDERFLOW_FLOOR] = 0.0
        return lam

    def eigenvalue(self, n: int) -> float:
        return float(self.eigenvalues(_as_int(n, "eigenvalue index") + 1)[-1])

    def underflow_index(self, n_eigen: int) -> int | None:
        """Smallest index below n_eigen whose eigenvalue clamps to zero."""
        lam = self.eigenvalues(n_eigen)
        zero = np.nonzero(lam == 0.0)[0]
        return int(zero[0]) if len(zero) else None

    def trace(self) -> float:
        """Exact closed-form trace."""
        return region_trace(self.region)

    # -- eigenfunctions ------------------------------------------------------

    def _inv_sqrt_nu(self, indices: np.ndarray) -> np.ndarray:
        top = int(indices.max()) + 1
        lam = self.eigenvalues(top)[indices]
        with np.errstate(divide="ignore"):
            inv = np.sqrt((indices + 1.0) / (math.pi * lam))
        return inv

    def feature_matrix(self, indices, z) -> np.ndarray:
        """Matrix phi_n(z_i) for n in indices; no membership checks.

        Monomials come from a running product along the degree axis, and the
        normalizer is applied as one multiplication per entry.
        """
        indices = np.atleast_1d(np.asarray(indices, dtype=int))
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        if indices.size == 0:
            return np.zeros((z.size, 0), dtype=complex)
        if np.any(indices < 0):
            raise DomainError("eigenfunction indices must be non-negative")
        inv = self._inv_sqrt_nu(indices)
        if not np.all(np.isfinite(inv)):
            bad = indices[~np.isfinite(inv)]
            raise DomainError(
                f"eigenvalue underflow at indices {bad.tolist()}: eigenfunctions "
                "are not representable there"
            )
        top = int(indices.max())
        powers = np.ones((z.size, top + 1), dtype=complex)
        if top:
            powers[:, 1:] = np.cumprod(np.broadcast_to(z[:, None], (z.size, top)), axis=1)
        return powers[:, indices] * inv[None, :]

    def eigenfunction(self, n: int, x) -> complex:
        """phi_n(x) = x**n / sqrt(nu_n) for x in the closed region."""
        n = _as_int(n, "eigenvalue index")
        x = _as_point(x)
        if not self.region.contains_point(x):
            raise DomainError(
                f"point {x!r} lies outside the closed region {self.region.literal()}"
            )
        return complex(self.feature_matrix(np.array([n]), np.array([x]))[0, 0])

    # -- kernel sums ---------------------------------------------------------

    def truncated_kernel(self, n_eigen: int, x, y) -> complex:
        """Partial spectral sum  sum_{n < n_eigen} lambda_n phi_n(x) conj(phi_n(y))."""
        n_eigen = _as_int(n_eigen, "n_eigen", 1)
        x = _as_point(x)
        y = _as_point(y)
        for p in (x, y):
            if not self.region.contains_point(p):
                raise DomainError(
                    f"point {p!r} lies outside the closed region {self.region.literal()}"
                )
        idx = np.arange(n_eigen)
        lam = self.eigenvalues(n_eigen)
        fx = self.feature_matrix(idx, np.array([x]))[0]
        fy = self.feature_matrix(idx, np.array([y]))[0]
        return complex(np.sum(lam * fx * fy.conjugate()))


class GinibreSpectrum:
    """Eigenvalues of the Ginibre kernel restricted to a centered disc.

    Positional sampling is out of scope here: no closed-form eigenfunction
    family is exposed, only the eigenvalue sequence and its trace.
    """

    def __init__(self, radius: float):
        self.radius = _as_real(radius, "Ginibre radius")

    def __repr__(self):
        return f"GinibreSpectrum({self.radius!r})"

    def eigenvalue(self, n: int) -> float:
        return float(gammainc(_as_int(n, "eigenvalue index") + 1, self.radius * self.radius))

    def eigenvalues(self, n_eigen: int) -> np.ndarray:
        return gammainc(np.arange(1, _as_int(n_eigen, "n_eigen") + 1), self.radius * self.radius)

    def trace(self) -> float:
        """Exact trace R**2.

        P(n+1, R**2) is the probability that a Poisson(R**2) variable is at
        least n + 1, so the eigenvalues sum to its mean.
        """
        return self.radius * self.radius
