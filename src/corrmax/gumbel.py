"""Limiting Gumbel law for the maximum of N IID standard Gaussians.

The location/scale constants are

    alpha = Phi^-1(1 - 1/N),   beta = sqrt(2*pi) / (N * phi_kernel(alpha)),

and the CDF of the maximum converges to

    Psi_N(z) = exp(-e^(-(z - alpha)/beta)).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .normal import phi_kernel, std_normal_quantile

__all__ = [
    "EULER_MASCHERONI",
    "GumbelParams",
    "GumbelMoments",
    "scaling_constants",
    "gumbel_cdf",
    "gumbel_pdf",
    "gumbel_moments",
]

EULER_MASCHERONI = 0.5772156649015329

# Below (z - alpha)/beta = -40 the CDF underflows to exactly 0; clipping the
# exponent there avoids overflow in exp() without changing any result.
_TAIL_CLIP = -40.0


@dataclass(frozen=True)
class GumbelParams:
    """Location alpha, scale beta, and count n of the limiting law."""

    n: int
    alpha: float
    beta: float

    def __post_init__(self):
        if self.n < 2:
            raise DomainError(f"n must be >= 2 (got {self.n})")
        if not (self.beta > 0.0 and np.isfinite(self.beta)):
            raise DomainError(f"beta must be positive and finite (got {self.beta})")
        if not np.isfinite(self.alpha):
            raise DomainError(f"alpha must be finite (got {self.alpha})")


@dataclass(frozen=True)
class GumbelMoments:
    """Mean and standard deviation of a Gumbel law."""

    mean: float
    std: float


def scaling_constants(n: int) -> GumbelParams:
    """Compute (alpha, beta) for the maximum of n IID standard Gaussians.

    Raises:
        DomainError: for n < 2 (the location diverges at n = 1), and for
            n > 2**53, the largest count a float holds exactly; by 2**54,
            1 - 1/n rounds to 1.
    """
    if not -np.inf < n < np.inf or int(n) != n or n < 2:
        raise DomainError(f"n must be an integer >= 2 (got {n!r})")
    if n > 2**53:
        raise DomainError(f"n must be <= 2**53 (got {n!r})")
    n = int(n)
    alpha = std_normal_quantile(1.0 - 1.0 / n)
    beta = np.sqrt(2.0 * np.pi) / (n * phi_kernel(alpha))
    return GumbelParams(n=n, alpha=alpha, beta=float(beta))


def _tail_weight(z, p: GumbelParams):
    """w = e^(-t), t = (z - alpha)/beta clipped below at _TAIL_CLIP, so that
    Psi_N = e^(-w).  NaN is rejected; +-inf, given or reached by t
    overflowing, passes through as a limit."""
    arr = np.asarray(z, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("z must not be NaN")
    with np.errstate(over="ignore"):
        t = (arr - p.alpha) / p.beta
    return np.exp(-np.maximum(t, _TAIL_CLIP))


def gumbel_cdf(z, p: GumbelParams):
    """Gumbel CDF exp(-e^(-(z - alpha)/beta))."""
    out = np.exp(-_tail_weight(z, p))
    return float(out) if np.isscalar(z) else out


def gumbel_pdf(z, p: GumbelParams):
    """Gumbel density (1/beta) exp(-e^(-t) - t), t = (z - alpha)/beta."""
    w = _tail_weight(z, p)
    out = (w / p.beta) * np.exp(-w)
    return float(out) if np.isscalar(z) else out


def gumbel_moments(p: GumbelParams) -> GumbelMoments:
    """Mean alpha + gamma*beta and standard deviation (pi/sqrt(6))*beta."""
    mean = p.alpha + EULER_MASCHERONI * p.beta
    std = np.pi / np.sqrt(6.0) * p.beta
    return GumbelMoments(mean=float(mean), std=float(std))

