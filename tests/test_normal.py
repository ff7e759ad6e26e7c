"""Tests for the standard-normal special functions."""
from __future__ import annotations

from decimal import Decimal, getcontext

import numpy as np
import pytest
from scipy import integrate, special

from corrmax import (
    DomainError,
    phi_kernel,
    std_normal_cdf,
    std_normal_quantile,
)
from corrmax.montecarlo import _chunk_uniforms
from conftest import bisect_quantile


def decimal_exp(x: str, digits: int = 40) -> float:
    """High-precision exponential oracle via the decimal module."""
    getcontext().prec = digits
    return float(Decimal(x).exp())


class TestPhiKernel:
    def test_zero(self):
        assert phi_kernel(0.0) == 1.0

    def test_even_function(self):
        x = np.linspace(0.0, 8.0, 101)
        np.testing.assert_array_equal(phi_kernel(x), phi_kernel(-x))

    def test_value_at_one(self):
        # e^(-1/2) from an arbitrary-precision exponential
        assert phi_kernel(1.0) == pytest.approx(decimal_exp("-0.5"), abs=1e-15)

    def test_range(self):
        x = np.linspace(-10, 10, 201)
        y = phi_kernel(x)
        assert np.all(y > 0.0) and np.all(y <= 1.0)

    def test_rejects_nan_and_inf(self):
        with pytest.raises(DomainError):
            phi_kernel(float("nan"))
        with pytest.raises(DomainError):
            phi_kernel(float("inf"))


class TestStdNormalCdf:
    def test_symmetry_point(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_limits(self):
        assert std_normal_cdf(float("inf")) == 1.0
        assert std_normal_cdf(float("-inf")) == 0.0

    def test_value_at_one_vs_quadrature(self):
        dens = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
        tail, err = integrate.quad(dens, 0.0, 1.0)
        assert err < 1e-12
        assert std_normal_cdf(1.0) == pytest.approx(0.5 + tail, abs=1e-13)

    def test_monotone_on_grid(self):
        x = np.linspace(-12.0, 12.0, 2001)
        assert np.all(np.diff(std_normal_cdf(x)) >= 0.0)

    def test_erf_identity(self):
        x = np.linspace(-8.0, 8.0, 161)
        lhs = std_normal_cdf(x)
        rhs = 0.5 * (1.0 + special.erf(x / np.sqrt(2.0)))
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=5e-16)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_p99_vs_bisection(self):
        assert std_normal_quantile(0.99) == pytest.approx(
            bisect_quantile(0.99), abs=1e-12
        )
        assert std_normal_quantile(0.99) == pytest.approx(2.3263479, abs=5e-8)

    def test_extreme_tail_no_overflow(self):
        q = std_normal_quantile(1e-300)
        assert np.isfinite(q) and q < -35.0
        # relative accuracy survives in the far tail
        assert std_normal_cdf(q) == pytest.approx(1e-300, rel=1e-11)

    def test_inverts_cdf(self):
        p = np.concatenate(
            [np.logspace(-12, -0.5, 80), 1.0 - np.logspace(-12, -0.5, 80)]
        )
        back = std_normal_cdf(std_normal_quantile(p))
        np.testing.assert_allclose(back, p, rtol=0, atol=1e-12)

    def test_contract_on_sampler_uniforms(self):
        """The documented accuracy and monotonicity on one chunk of the
        samplers' own open uniforms (1024 repetitions x 1000 columns)."""
        u = np.unique(_chunk_uniforms(42, 0, 1024, 1000))
        assert u.size > 1_000_000
        q = std_normal_quantile(u)
        assert np.max(np.abs(std_normal_cdf(q) - u)) <= 1e-14
        assert np.all(np.diff(q) > 0.0)

    def test_strictly_increasing(self):
        p = np.concatenate(
            [np.logspace(-12, -0.31, 150), 1.0 - np.logspace(-12, -0.31, 150)[::-1]]
        )
        q = std_normal_quantile(p)
        assert np.all(np.diff(q) > 0.0)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            std_normal_quantile(bad)
