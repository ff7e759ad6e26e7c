"""Corrected maximum distributions for weakly correlated standard Gaussians.

Off-diagonal covariance entries eps_ij (zero diagonal, |eps_ij| small) enter
every correction only through the double sum S = sum_{i != j} eps_ij.  With

    x(z) = phi_kernel(z)^2 * S / (4*pi)

the CDFs for the maximum of N weakly correlated standard normals are the
Gumbel limit and its corrections of each order

    gumbel:   Psi_N(z)                 (no correction; S is not read)
    first:    Psi_N(z) * (1 + x)
    second:   Psi_N(z) * (1 + x + x^2/2)
    complete: Psi_N(z) * exp(x)        (resummed exponential series)

and each PDF is the exact z-derivative of its CDF, using
d(phi^2)/dz = -2 z phi^2.  One table, ``_LAWS``, maps each law to the
function that turns the shared terms (z, w = e^(-(z-alpha)/beta),
Psi_N = e^(-w), x, w/beta) into its (cdf, pdf); ``corrected_law`` validates
once, builds those terms once and looks the law up, so a law is one row.
Outside the weak-correlation regime these expressions may leave [0, 1] or
lose monotonicity; they are returned unclamped and ``validity_check``
reports where that happens.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
from .gumbel import GumbelParams

__all__ = [
    "EpsilonMatrix",
    "ValidityReport",
    "ar1_correlation_sum",
    "corrected_law",
    "validity_check",
    "ORDERS",
]

# validity_check's trust bound on max |eps_ij| and slack on the grid checks.
_SMALLNESS_THRESHOLD = 0.3
_ATOL = 1e-9
# Most points a curve grid may hold (``dist --steps``, ``graph analyze
# --z-steps``); checked before anything is allocated.
_MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class EpsilonMatrix:
    """Symmetric matrix of off-diagonal covariance perturbations.

    Entries must satisfy eps_ii = 0 and |eps_ij| < 1 (standardized
    variables).  Whether the entries are small enough for the corrections
    to be trusted is a separate question answered by ``validity_check``.
    """

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise DimensionMismatch(f"entries must be square (got shape {e.shape})")
        if not np.all(np.isfinite(e)):
            raise DomainError("entries must be finite")
        if not np.allclose(e, e.T, rtol=0.0, atol=1e-12):
            raise DomainError("entries must be symmetric")
        if np.any(np.diag(e) != 0.0):
            raise DomainError("diagonal entries must be exactly zero")
        e = (e + e.T) / 2.0
        if np.any(np.abs(e) >= 1.0):
            raise DomainError("off-diagonal entries must satisfy |eps_ij| < 1")
        e.flags.writeable = False
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "n", e.shape[0])

    @classmethod
    def from_covariance(cls, cov) -> "EpsilonMatrix":
        """Strip the diagonal from a unit-diagonal covariance matrix."""
        c = np.array(cov, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise DimensionMismatch(f"cov must be square (got shape {c.shape})")
        np.fill_diagonal(c, 0.0)
        return cls(entries=c)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.entries))) if self.n > 1 else 0.0


@dataclass(frozen=True)
class ValidityReport:
    """Diagnostics for a corrected distribution on a z grid."""

    smallness_ok: bool
    max_abs_eps: float
    cdf_monotone: bool
    cdf_bounded: bool
    pdf_nonnegative: bool
    z_violations: tuple[float, ...]


def ar1_correlation_sum(n: int, rho: float) -> float:
    """S = sum_{i != j} rho^|i-j| = 2 sum_{d=1}^{n-1} (n - d) rho^d to a few
    ulp, in O(1) memory.  With q = rho, eps = 1 - q and x = (n - 1) eps:

    * where n q^(n-1) <= 1, the closed form
          2 [n (q - q^n)/eps - q (1 - n q^(n-1) + (n-1) q^n)/eps^2];
      elsewhere its bracket cancels, but q > 1/2, so eps is exact, and
    * where x >= 1, (2 q/eps) [(n - 1) - q (1 - q^(n-1))/eps], whose
      bracket keeps over a third of n - 1;
    * where x < 1, the binomial expansion of (1 - eps)^d,
          n (n - 1) [1 + sum_{k>=1} (-eps)^k 2 C(n+1, k+2) / (n (n - 1))],
      each term at most x/4 times the last, with the opposite sign.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be an integer >= 1 (got {n!r})")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1) (got {rho})")
    if rho == 0.0 or n == 1:
        return 0.0
    n, q = int(n), float(rho)
    if n * q ** (n - 1) <= 1.0:
        qn = q**n
        geo = (q - qn) / (1.0 - q)
        weighted = q * (1.0 - n * qn / q + (n - 1) * qn) / (1.0 - q) ** 2
        return float(2.0 * (n * geo - weighted))
    eps = 1.0 - q
    if (n - 1) * eps >= 1.0:
        return 2.0 * q / eps * ((n - 1) - q * (1.0 - q ** (n - 1)) / eps)
    total, term, k = 1.0, -eps * (n + 1) / 3.0, 1
    while total + term != total:
        total += term
        term *= -eps * (n - 1 - k) / (k + 3)
        k += 1
    return n * (n - 1) * total


def _gumbel(z, w, psi, x, wb):
    return psi, psi * wb


def _first(z, w, psi, x, wb):
    return psi * (1.0 + x), psi * (wb * (1.0 + x) - 2.0 * z * x)


def _second(z, w, psi, x, wb):
    poly = 1.0 + x + 0.5 * x * x
    return psi * poly, psi * (wb * poly - 2.0 * z * (x + x * x))


def _complete(z, w, psi, x, wb):
    cdf = np.exp(x - w)
    return cdf, cdf * (wb - 2.0 * z * x)


# law -> (cdf, pdf) from the shared terms z (clipped to [-40, 40]), w,
# Psi_N = e^(-w), x, w/beta.  The Gumbel limit reads no x; the orders after
# it are its corrections.
_LAWS = {"gumbel": _gumbel, "first": _first, "second": _second, "complete": _complete}
ORDERS = tuple(_LAWS)[1:]


def corrected_law(z, p: GumbelParams, s: float, order: str):
    """``(cdf, pdf)`` on ``z`` of the law named ``order``: ``"gumbel"``,
    which ignores ``s``, or one of ``ORDERS``, each of which reduces to the
    Gumbel law at S = 0.  The pdf is the exact z-derivative of the cdf.

    Values are intentionally not clamped: excursions outside [0, 1] or
    below 0 indicate breakdown of the weak-correlation expansion and are
    surfaced by ``validity_check``.
    """
    if order not in _LAWS:
        raise DomainError(f"order must be one of {tuple(_LAWS)} (got {order!r})")
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("z must be finite")
    # Below (z - alpha)/beta = -40, Psi_N = e^(-w) is exactly 0: clipping
    # there keeps w finite.  A tiny beta may still overflow t to +inf.
    with np.errstate(over="ignore"):
        t = (arr - p.alpha) / p.beta
    w = np.exp(-np.maximum(t, -40.0))
    # x is exactly 0 beyond |z| = 27.3, so the z^2 and 2 z x terms read z
    # clipped to [-40, 40]: the same values, and no overflow to inf * 0.
    z_x = np.clip(arr, -40.0, 40.0)
    x = np.exp(-z_x * z_x) * (float(s) / (4.0 * np.pi))
    return _LAWS[order](z_x, w, np.exp(-w), x, w / p.beta)


def validity_check(z_grid, cdf, pdf, max_abs_eps: float) -> ValidityReport:
    """Diagnose whether the curves ``cdf`` and ``pdf`` on ``z_grid``
    behave like a distribution, whichever law produced them.

    Checks, on the given ascending grid: CDF within [0, 1], CDF monotone
    non-decreasing, PDF finite and non-negative.  A NaN or infinite CDF
    value is out of bounds.  ``z_violations`` collects the grid points
    where any check fails.  ``smallness_ok`` is a trust marker,
    max |eps_ij| <= 0.3, independent of the grid checks.
    """
    grid = np.asarray(z_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise DomainError("z_grid must be a 1-D grid with at least 2 points")
    if np.any(np.diff(grid) <= 0.0):
        raise DomainError("z_grid must be sorted strictly ascending")
    cdf, pdf = np.asarray(cdf, dtype=float), np.asarray(pdf, dtype=float)
    if cdf.shape != grid.shape or pdf.shape != grid.shape:
        raise DimensionMismatch(f"cdf and pdf must have z_grid's shape {grid.shape}")

    # Negated in-range tests, so that NaN (every comparison false) fails.
    out_of_bounds = ~((cdf >= -_ATOL) & (cdf <= 1.0 + _ATOL))
    decreasing = np.zeros_like(grid, dtype=bool)
    with np.errstate(invalid="ignore"):  # inf - inf; already out of bounds
        decreasing[1:] = np.diff(cdf) < -_ATOL
    negative_pdf = ~((pdf >= -_ATOL) & (pdf < np.inf))

    flagged = out_of_bounds | decreasing | negative_pdf
    max_abs = float(max_abs_eps)
    if not (0.0 <= max_abs < 1.0):
        raise DomainError(f"max |eps| must lie in [0, 1) (got {max_abs})")
    return ValidityReport(
        smallness_ok=max_abs <= _SMALLNESS_THRESHOLD,
        max_abs_eps=max_abs,
        cdf_monotone=not bool(np.any(decreasing)),
        cdf_bounded=not bool(np.any(out_of_bounds)),
        pdf_nonnegative=not bool(np.any(negative_pdf)),
        z_violations=tuple(float(v) for v in grid[flagged]),
    )
