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
    "bergman_kernel",
    "BergmanSpectrum",
    "GinibreSpectrum",
]


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
        return terms.sum(axis=1)

    def eigenvalue(self, n: int) -> float:
        return float(self.eigenvalues(_as_int(n, "eigenvalue index") + 1)[-1])

    def trace(self) -> float:
        """Exact closed-form trace."""
        return region_trace(self.region)

    # -- eigenfunctions ------------------------------------------------------

    def _mixture(self, idx: np.ndarray):
        """Proposal table, cumulative pair masses and log(1/sqrt(nu_n)) for idx.

        A table row per (index, interval) pair, index-major: b, (a/b)**k,
        1 - (a/b)**k and 1/k for k = 2n + 2.  Pair masses (b**k - a**k) / B**k,
        B the outer radius, sum to lambda_n / B**k per index, so the
        normalizers stay finite where lambda_n underflows.
        """
        a, b = self._a, self._b
        k = 2.0 * idx[:, None] + 2.0
        with np.errstate(divide="ignore"):
            log_rho = k * np.log(a / b)  # -inf on a disc
        gap = -np.expm1(log_rho)
        table = np.stack(np.broadcast_arrays(b, np.exp(log_rho), gap, 1 / k), -1).reshape(-1, 4)
        log_outer = math.log(self.region.outer_radius)
        mass = np.exp(k * (np.log(b) - log_outer)) * gap
        row = mass.sum(axis=1)
        cum = np.cumsum(mass / row[:, None])
        # log sqrt((n + 1) / (pi lambda_n)) with lambda_n = B**k * row
        log_inv = 0.5 * (np.log((idx + 1.0) / math.pi) - k[:, 0] * log_outer - np.log(row))
        return table, cum, log_inv

    def feature_matrix(self, indices, z) -> np.ndarray:
        """Matrix phi_n(z_i) = exp(n log z_i + log(1/sqrt(nu_n))) for z_i in the closed region.

        The sampler's expression and normalizers; at z = 0 only phi_0 is
        nonzero.  An index that is not a non-negative integer, or a point
        that is not a finite complex number in the region, raises DomainError.
        """
        indices = np.array(
            [_as_int(n, "eigenfunction index") for n in np.ravel(indices).tolist()], dtype=int
        )
        points = [_as_point(p) for p in np.ravel(z).tolist()]
        for p in points:
            if not self.region.contains_point(p):
                raise DomainError(
                    f"point {p!r} lies outside the closed region {self.region.literal()}"
                )
        z = np.array(points, dtype=complex)
        log_inv = self._mixture(indices)[2]
        zero = z == 0
        feats = np.empty((z.size, indices.size), dtype=complex)
        feats[~zero] = np.exp(np.multiply.outer(np.log(z[~zero]), indices) + log_inv)
        feats[zero] = np.exp(np.where(indices == 0, log_inv, -np.inf))
        return feats

    def eigenfunction(self, n: int, x) -> complex:
        """phi_n(x) = x**n / sqrt(nu_n) for x in the closed region."""
        return complex(self.feature_matrix([_as_int(n, "eigenvalue index")], [_as_point(x)])[0, 0])

    # -- kernel sums ---------------------------------------------------------

    def truncated_kernel(self, n_eigen: int, x, y) -> complex:
        """Partial spectral sum  sum_{n < n_eigen} lambda_n phi_n(x) conj(phi_n(y))."""
        n_eigen = _as_int(n_eigen, "n_eigen", 1)
        fx, fy = self.feature_matrix(np.arange(n_eigen), [_as_point(x), _as_point(y)])
        return complex(np.sum(self.eigenvalues(n_eigen) * fx * fy.conjugate()))


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
