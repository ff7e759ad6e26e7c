"""Standard-normal special functions: domain-checked calls into
``scipy.special``.

Everything downstream (extreme-value scaling constants, corrected
distributions, the Monte Carlo sampler) calls the functions in this
module, so they all share one definition of the Gaussian CDF and its
inverse.

Conventions: ``phi_kernel`` is the unnormalized kernel e^(-x^2/2); the
normalized density is ``phi_kernel(x) / sqrt(2*pi)``.  The CDF is evaluated
through the complementary error function, which stays accurate deep into
the lower tail; the quantile is ``ndtri``.
"""
from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = [
    "phi_kernel",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
]

_SQRT2 = np.sqrt(2.0)
_SQRT2PI = np.sqrt(2.0 * np.pi)


def _validate_finite(x: np.ndarray, name: str) -> None:
    if not np.all(np.isfinite(x)):
        raise DomainError(f"{name} must be finite (got NaN or infinity)")


def _match_input(value: np.ndarray, scalar_input: bool):
    return float(value) if scalar_input else value


def phi_kernel(x):
    """Gaussian kernel e^(-x^2/2); even, with range (0, 1] on finite input."""
    arr = np.asarray(x, dtype=float)
    _validate_finite(arr, "x")
    return _match_input(np.exp(-0.5 * arr * arr), np.isscalar(x))


def std_normal_cdf(x):
    """Standard normal CDF Phi(x) = (1/2)[1 + erf(x/sqrt(2))].

    Accepts +-inf (returning 1/0).  Evaluated as erfc(-x/sqrt(2))/2 so the
    lower tail keeps full relative accuracy instead of cancelling to 0.
    """
    from scipy import special  # deferred: its import costs more than a short command

    arr = np.asarray(x, dtype=float)
    if np.any(np.isnan(arr)):
        raise DomainError("x must not be NaN")
    return _match_input(0.5 * special.erfc(-arr / _SQRT2), np.isscalar(x))


def std_normal_pdf(x):
    """Normalized standard normal density phi_kernel(x)/sqrt(2*pi)."""
    arr = np.asarray(x, dtype=float)
    _validate_finite(arr, "x")
    return _match_input(np.exp(-0.5 * arr * arr) / _SQRT2PI, np.isscalar(x))


def std_normal_quantile(p):
    """Inverse of the standard normal CDF, ``scipy.special.ndtri``.

    On the open uniforms the samplers feed it, |Phi(result) - p| <= 1e-14
    and the result is strictly increasing in p.

    Raises:
        DomainError: if any p is outside the open interval (0, 1).
    """
    from scipy import special  # deferred, as in std_normal_cdf

    arr = np.asarray(p, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise DomainError("p must lie strictly inside (0, 1)")
    return _match_input(special.ndtri(arr), np.isscalar(p))
