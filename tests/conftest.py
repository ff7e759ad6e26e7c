"""Shared oracles and helpers for the test suite."""
from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from corrmax import std_normal_cdf, std_normal_pdf

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
    edges, counts = result.histogram
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


def cascade64_text() -> str:
    """Two eight-path blocks in series: 64 source-to-sink paths."""
    return block8_text("u_", "s", "m") + block8_text("v_", "m", "t")
