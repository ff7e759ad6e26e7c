"""Shared oracles and helpers for the test suite."""
from __future__ import annotations

import random
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from corrmax import (
    DimensionMismatch,
    DomainError,
    EpsilonMatrix,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from corrmax.cli import _histogram

REPO_ROOT = Path(__file__).resolve().parents[1]
GRAPHS_DIR = REPO_ROOT / "graphs"


@pytest.fixture(scope="session")
def graphs_dir() -> Path:
    return GRAPHS_DIR


def bisect_quantile(p: float, tol: float = 1e-14) -> float:
    """Bisection inverse of the normal CDF; independent of ``ndtri``."""
    lo, hi = -40.0, 40.0
    while hi - lo > 1e-16 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        if std_normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
        if abs(std_normal_cdf(mid) - p) <= tol and hi - lo < 1e-13:
            break
    return 0.5 * (lo + hi)


def exact_iid_max_moments(n: int) -> tuple[float, float]:
    """Mean/std of the exact finite-n law of max of n IID standard normals.

    Quadrature of the exact density n * pdf(z) * Phi(z)^(n-1); this is the
    pre-asymptotic truth, not the Gumbel limit.
    """
    def dens(z):
        return n * std_normal_pdf(z) * std_normal_cdf(z) ** (n - 1)

    m1, _ = integrate.quad(lambda z: z * dens(z), -12, 12, limit=200)
    m2, _ = integrate.quad(lambda z: z * z * dens(z), -12, 12, limit=200)
    return float(m1), float(np.sqrt(m2 - m1 * m1))


def hist_l1_distance(result, pdf_fn) -> float:
    """L1 distance between a histogram density and a pdf at bin centers."""
    edges, counts = _histogram(result.samples)
    widths = np.diff(edges)
    dens = counts / (counts.sum() * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(np.abs(dens - pdf_fn(centers)) * widths))


def central_diff(f, z: np.ndarray, h: float = 1e-5) -> np.ndarray:
    return (f(z + h) - f(z - h)) / (2.0 * h)


def block8_text(prefix: str = "", src: str = "s", dst: str = "t") -> str:
    """Edge-list text of the eight-path building block (three binary stages)."""
    a1, a2 = f"{prefix}a1", f"{prefix}a2"
    b1, b2 = f"{prefix}b1", f"{prefix}b2"
    c1, c2 = f"{prefix}c1", f"{prefix}c2"
    edges = [
        (src, a1), (src, a2),
        (a1, b1), (a1, b2), (a2, b1), (a2, b2),
        (b1, c1), (b1, c2), (b2, c1), (b2, c2),
        (c1, dst), (c2, dst),
    ]
    return "\n".join(f"{u} {v} 1.0 0.1" for u, v in edges) + "\n"


def cascade_text(stages: int, seed: int) -> str:
    """Edge-list text of a binary cascade with 2**(stages - 1) paths: each
    stage fans every node out to the next two, and each edge's mu and sigma
    are drawn uniformly from [0.8, 1.2] and [0.05, 0.15]."""
    rng = random.Random(seed)
    layers = [["s"], *([f"L{k}_0", f"L{k}_1"] for k in range(1, stages)), ["t"]]
    return "".join(
        f"{u} {v} {rng.uniform(0.8, 1.2)!r} {rng.uniform(0.05, 0.15)!r}\n"
        for prev, layer in zip(layers, layers[1:]) for u in prev for v in layer
    )


def cascade64_text() -> str:
    """Two eight-path blocks in series: 64 source-to-sink paths."""
    return block8_text("u_", "s", "m") + block8_text("v_", "m", "t")


def path_moments_reference(ps) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of each path's delay from Python ``sum`` along the path,
    left to right over ``ps.graph``'s edges."""
    edges = ps.graph.edges
    means = [sum(edges[k].mu for k in p) for p in ps.paths]
    variances = [sum(edges[k].sigma * edges[k].sigma for k in p) for p in ps.paths]
    return np.array(means, dtype=float), np.sqrt(np.array(variances, dtype=float))


# Test oracles of the theory.  The package computes S in closed form or from
# the path covariance; these build the objects the paper reasons about.

# Oracle-scale limit for the explicit multivariate expansion; it exists to
# validate the theory, not to evaluate high-dimensional densities.
_EXPANSION_MAX_DIM = 8


def ar1_epsilon(n: int, rho: float) -> EpsilonMatrix:
    """Epsilon matrix of an AR(1) chain: eps_ij = rho^|i-j| for i != j."""
    if int(n) != n or n < 1:
        raise DomainError(f"n must be an integer >= 1 (got {n!r})")
    if not (0.0 <= rho < 1.0):
        raise DomainError(f"rho must lie in [0, 1) (got {rho})")
    idx = np.arange(int(n))
    e = np.asarray(rho, dtype=float) ** np.abs(idx[:, None] - idx[None, :])
    np.fill_diagonal(e, 0.0)
    return EpsilonMatrix(entries=e)


def correlation_sum(eps: EpsilonMatrix) -> float:
    """S: the sum of all off-diagonal entries (the diagonal is zero)."""
    return float(np.sum(eps.entries))


def correlated_pdf_first_order(r, eps: EpsilonMatrix) -> float:
    """First-order joint density of weakly correlated standard normals.

    Evaluates omega_0(r) * (1 + (1/2) * r^T eps r) with
    omega_0(r) = (2*pi)^(-n/2) exp(-|r|^2/2), in small dimension only.
    """
    rv = np.atleast_1d(np.asarray(r, dtype=float))
    if rv.ndim != 1 or rv.shape[0] != eps.n:
        raise DimensionMismatch(
            f"r must be a 1-D vector of length {eps.n} (got shape {rv.shape})"
        )
    if eps.n > _EXPANSION_MAX_DIM:
        raise DomainError(
            f"expansion oracle is limited to n <= {_EXPANSION_MAX_DIM} "
            f"(got n = {eps.n})"
        )
    if not np.all(np.isfinite(rv)):
        raise DomainError("r must be finite")
    omega0 = (2.0 * np.pi) ** (-eps.n / 2.0) * np.exp(-0.5 * float(rv @ rv))
    return float(omega0 * (1.0 + 0.5 * float(rv @ eps.entries @ rv)))


def char_fn_identity_check(k, mu, sigma, i: int, j: int, h: float) -> float:
    """Numerically verify the perturbation identity of the Gaussian
    characteristic function.

    Compares the central finite difference of chi(k) with respect to
    eps_ij at eps = 0 against the analytic value
    (1/2) d^2 chi_0 / dmu_i dmu_j = -(1/2) k_i k_j chi_0(k), and returns
    the absolute discrepancy, which is O(h^2).
    """
    kv = np.atleast_1d(np.asarray(k, dtype=float))
    mv = np.atleast_1d(np.asarray(mu, dtype=float))
    sv = np.atleast_1d(np.asarray(sigma, dtype=float))
    if not (kv.shape == mv.shape == sv.shape) or kv.ndim != 1:
        raise DimensionMismatch(
            f"k, mu, sigma must be 1-D and equal length "
            f"(got {kv.shape}, {mv.shape}, {sv.shape})"
        )
    if i == j:
        raise DomainError("indices i and j must differ (eps_ii is fixed at 0)")
    dim = kv.shape[0]
    if not (0 <= i < dim and 0 <= j < dim):
        raise DomainError(f"indices must lie in [0, {dim}) (got i={i}, j={j})")
    if np.any(sv <= 0.0):
        raise DomainError("all sigma entries must be positive")
    if not (1e-6 < h < 1e-3):
        raise DomainError(f"step h must lie in (1e-6, 1e-3) (got {h})")

    chi0 = np.exp(1j * np.dot(mv, kv) - 0.5 * np.dot(sv * sv, kv * kv))
    kk = kv[i] * kv[j]
    finite_diff = chi0 * (np.exp(-0.5 * h * kk) - np.exp(0.5 * h * kk)) / (2.0 * h)
    analytic = -0.5 * kk * chi0
    return float(abs(finite_diff - analytic))


def rep_rng(seed: int, rep: int, width: int, stream: int = 0) -> np.random.Generator:
    """Reference stream of one repetition of a stream ``width`` words wide,
    a pure function of (seed, rep, width, stream): word w is lane w % 4 of
    the Philox4x64-10 block at the 256-bit counter
    (stream << 192) + rep * ceil(width / 4) + w // 4 + 1.  The samplers'
    readers must equal its first ``width`` words."""
    counter = (int(stream) << 192) + int(rep) * -(-int(width) // 4)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


def open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Reference open uniforms: (k + 0.5) * 2**-53 of each 53-bit integer k
    drawn from ``rng``.  For k = 2**53 - 1 the sum rounds to 2**53, which
    the clamp maps back to 2**53 - 1, so no uniform is 1.0."""
    k = rng.integers(0, 2**53, size=size, dtype=np.uint64).astype(float)
    return np.minimum(k + 0.5, 2.0**53 - 1.0) * 2.0**-53


def sample_ar1_chain(n: int, rho: float, sigma: float,
                     rng: np.random.Generator) -> np.ndarray:
    """Draw one stationary AR(1) chain of length n from the given stream.

    The first element is X_0 ~ N(0, sigma^2); each subsequent element
    applies the recurrence with a fresh standard normal Y_i.  The samplers
    must equal this chain by chain.
    """
    u = open_uniform(rng, n)
    z = std_normal_quantile(u)
    x = np.empty(n, dtype=float)
    x[0] = sigma * z[0]
    c = sigma * np.sqrt(1.0 - rho * rho)
    for i in range(1, n):
        x[i] = rho * x[i - 1] + c * z[i]
    return x


def ecdf_values(sorted_samples: np.ndarray, z) -> np.ndarray:
    """Evaluate the empirical CDF of pre-sorted samples at points z."""
    arr = np.asarray(sorted_samples)
    return np.searchsorted(arr, np.asarray(z), side="right") / arr.size


def iid_max_cdf(z, n: int):
    """Exact CDF Phi(z)^n of the maximum of n IID standard Gaussians."""
    if int(n) != n or n < 1:
        raise DomainError(f"n must be an integer >= 1 (got {n!r})")
    out = std_normal_cdf(z) ** int(n)
    return float(out) if np.isscalar(z) else out


def dkw_band_halfwidth(n_samples: int, confidence: float = 0.99) -> float:
    """Half-width of the Dvoretzky-Kiefer-Wolfowitz band around an ECDF."""
    if n_samples < 1:
        raise DomainError("n_samples must be >= 1")
    if not (0.0 < confidence < 1.0):
        raise DomainError("confidence must lie in (0, 1)")
    return float(np.sqrt(np.log(2.0 / (1.0 - confidence)) / (2.0 * n_samples)))
