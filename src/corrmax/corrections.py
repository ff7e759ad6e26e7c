"""Corrected maximum distributions for weakly correlated standard Gaussians.

Off-diagonal covariance entries eps_ij (zero diagonal, |eps_ij| small) enter
every correction only through the double sum S = sum_{i != j} eps_ij.  With

    x(z) = phi_kernel(z)^2 * S / (4*pi)

the corrected CDFs for the maximum of N weakly correlated standard normals
are

    first:    Psi_N(z) * (1 + x)
    second:   Psi_N(z) * (1 + x + x^2/2)
    complete: Psi_N(z) * exp(x)        (resummed exponential series)

and each PDF is the exact z-derivative of its CDF, using
d(phi^2)/dz = -2 z phi^2.  One table, ``_LAWS``, maps each order to the
function that turns the shared terms (z, w = e^(-(z-alpha)/beta),
Psi_N = e^(-w), x, w/beta) into its (cdf, pdf); ``corrected_law`` validates
once, builds those terms once and looks the order up, so a law is one row.
Outside the weak-correlation regime these expressions may leave [0, 1] or
lose monotonicity; they are returned unclamped and ``validity_check``
reports where that happens.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, DomainError
from .gumbel import GumbelParams, _tail_weight

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
    """Closed form of sum_{i != j} rho^|i-j| without building the matrix.

    With q = rho and partial geometric sums over lag d = 1..n-1:

        S = 2 * [ n*(q - q^n)/(1 - q) - q*(1 - n q^(n-1) + (n-1) q^n)/(1-q)^2 ]

    Equals the sum over the explicit n x n matrix up to roundoff but runs
    in O(1) memory, which matters for large n.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be an integer >= 1 (got {n!r})")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1) (got {rho})")
    if rho == 0.0 or n == 1:
        return 0.0
    q = float(rho)
    qn = q**n
    geo = (q - qn) / (1.0 - q)
    weighted = q * (1.0 - n * qn / q + (n - 1) * qn) / (1.0 - q) ** 2
    return float(2.0 * (n * geo - weighted))


def _first(z, w, psi, x, wb):
    return psi * (1.0 + x), psi * (wb * (1.0 + x) - 2.0 * z * x)


def _second(z, w, psi, x, wb):
    poly = 1.0 + x + 0.5 * x * x
    return psi * poly, psi * (wb * poly - 2.0 * z * (x + x * x))


def _complete(z, w, psi, x, wb):
    cdf = np.exp(x - w)
    return cdf, cdf * (wb - 2.0 * z * x)


# order -> (cdf, pdf) from the shared terms z (clipped to [-40, 40]), w,
# Psi_N = e^(-w), x, w/beta.
_LAWS = {"first": _first, "second": _second, "complete": _complete}
ORDERS = tuple(_LAWS)


def corrected_law(z, p: GumbelParams, s: float, order: str):
    """``(cdf, pdf)`` of the chosen order on ``z``; both reduce to the
    Gumbel law at S = 0, and the pdf is the exact z-derivative of the cdf.

    Values are intentionally not clamped: excursions outside [0, 1] or
    below 0 indicate breakdown of the weak-correlation expansion and are
    surfaced by ``validity_check``.
    """
    if order not in ORDERS:
        raise DomainError(f"order must be one of {ORDERS} (got {order!r})")
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("z must be finite")
    w = _tail_weight(arr, p)
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
