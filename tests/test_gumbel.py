"""Tests for the limiting Gumbel law of IID Gaussian maxima."""
from __future__ import annotations

import re

import numpy as np
import pytest
from scipy import integrate, stats

from corrmax import (
    DomainError,
    EULER_MASCHERONI,
    GumbelParams,
    corrected_law,
    gumbel_moments,
    scaling_constants,
)
from conftest import bisect_quantile, central_diff, gumbel_cdf, gumbel_pdf, iid_max_cdf


class TestScalingConstants:
    def test_n2_exact(self):
        p = scaling_constants(2)
        assert p.alpha == 0.0
        assert p.beta == pytest.approx(np.sqrt(2.0 * np.pi) / 2.0, rel=1e-15)

    def test_n100_vs_bisection_oracle(self):
        p = scaling_constants(100)
        alpha = bisect_quantile(0.99)
        beta = np.sqrt(2.0 * np.pi) / (100.0 * np.exp(-0.5 * alpha * alpha))
        assert p.alpha == pytest.approx(alpha, abs=1e-12)
        assert p.beta == pytest.approx(beta, rel=1e-12)

    @pytest.mark.parametrize("bad", [1, 0, -5, float("inf"), float("nan")])
    def test_small_n_rejected(self, bad):
        with pytest.raises(DomainError):
            scaling_constants(bad)

    def test_large_n_bound(self):
        """Up to 2**53 the constants are finite; above it n is refused by name."""
        p = scaling_constants(2**53)
        assert 8.0 < p.alpha < 8.3 and p.beta > 0.0
        message = "n must be <= 2**53 (got 9007199254740993)"
        with pytest.raises(DomainError, match=re.escape(message)):
            scaling_constants(2**53 + 1)

    @pytest.mark.parametrize("n", [2, 10, 100, 1000, 10_000])
    def test_recomputation_consistency(self, n):
        p = scaling_constants(n)
        q = scaling_constants(p.n)
        assert abs(q.alpha - p.alpha) <= 1e-12
        assert abs(q.beta - p.beta) <= 1e-12

    def test_params_validation(self):
        with pytest.raises(DomainError):
            GumbelParams(n=1, alpha=0.0, beta=1.0)
        with pytest.raises(DomainError):
            GumbelParams(n=10, alpha=1.0, beta=0.0)
        with pytest.raises(DomainError):
            GumbelParams(n=10, alpha=float("nan"), beta=1.0)


class TestGumbelLaw:
    """The ``"gumbel"`` row of ``corrected_law``, which conftest's
    ``gumbel_cdf`` and ``gumbel_pdf`` read, against scipy's ``gumbel_r``."""

    @pytest.mark.parametrize("n", [2, 100, 10**6, 2**53])
    def test_matches_scipy_gumbel_r(self, n):
        p = scaling_constants(n)
        z = np.linspace(p.alpha - 5.0 * p.beta, p.alpha + 30.0 * p.beta, 2001)
        ref = stats.gumbel_r(loc=p.alpha, scale=p.beta)
        np.testing.assert_allclose(gumbel_cdf(z, p), ref.cdf(z), rtol=1e-12, atol=0)
        np.testing.assert_allclose(gumbel_pdf(z, p), ref.pdf(z), rtol=1e-12, atol=0)

    def test_ignores_s(self):
        p = scaling_constants(100)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 101)
        cdf, pdf = corrected_law(z, p, 0.0, "gumbel")
        for s in (-12.5, 5.0, 250.0):
            got_cdf, got_pdf = corrected_law(z, p, s, "gumbel")
            assert got_cdf.tobytes() == cdf.tobytes()
            assert got_pdf.tobytes() == pdf.tobytes()

    @pytest.mark.parametrize("z", [float("nan"), float("inf"), float("-inf"),
                                   np.array([0.0, np.nan, 1.0])])
    def test_non_finite_z_rejected(self, z):
        with pytest.raises(DomainError, match="^z must be finite$"):
            corrected_law(z, scaling_constants(100), 0.0, "gumbel")


class TestGumbelCdf:
    def test_at_alpha(self):
        p = scaling_constants(100)
        assert gumbel_cdf(p.alpha, p) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_upper_limit(self):
        p = scaling_constants(100)
        assert gumbel_cdf(1e6, p) == 1.0

    def test_inner_exponential_halving(self):
        p = scaling_constants(50)
        z = p.alpha + p.beta * np.log(2.0)
        assert gumbel_cdf(z, p) == pytest.approx(np.exp(-0.5), rel=1e-14)

    def test_strictly_increasing(self):
        p = scaling_constants(100)
        z = np.linspace(p.alpha - 5 * p.beta, p.alpha + 20 * p.beta, 500)
        assert np.all(np.diff(gumbel_cdf(z, p)) > 0.0)

    def test_deep_lower_tail_exact_zero(self):
        p = scaling_constants(100)
        assert gumbel_cdf(p.alpha - 41.0 * p.beta, p) == 0.0


class TestGumbelPdf:
    def test_at_alpha(self):
        p = scaling_constants(100)
        assert gumbel_pdf(p.alpha, p) == pytest.approx(
            np.exp(-1.0) / p.beta, rel=1e-15
        )

    def test_tails_vanish(self):
        p = scaling_constants(100)
        assert gumbel_pdf(p.alpha - 50 * p.beta, p) == 0.0
        assert gumbel_pdf(p.alpha + 800 * p.beta, p) == 0.0

    def test_matches_cdf_derivative(self):
        p = scaling_constants(100)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 101)
        fd = central_diff(lambda t: gumbel_cdf(t, p), z)
        np.testing.assert_allclose(gumbel_pdf(z, p), fd, rtol=0, atol=1e-6)
        assert gumbel_pdf(2.5, p) == pytest.approx(
            float(central_diff(lambda t: gumbel_cdf(t, p), np.array([2.5]))[0]),
            abs=1e-6,
        )

    def test_integrates_to_one(self):
        p = scaling_constants(100)
        val, _ = integrate.quad(
            lambda z: gumbel_pdf(z, p),
            p.alpha - 20 * p.beta, p.alpha + 40 * p.beta, limit=400,
        )
        assert val == pytest.approx(1.0, abs=1e-8)


class TestGumbelMoments:
    def test_n100_formula_and_quadrature(self):
        p = scaling_constants(100)
        m = gumbel_moments(p)
        assert m.mean == pytest.approx(p.alpha + EULER_MASCHERONI * p.beta,
                                       rel=1e-15)
        assert m.std == pytest.approx(np.pi / np.sqrt(6.0) * p.beta, rel=1e-15)
        # frozen oracle values (alpha from bisection, 16-digit gamma)
        assert m.mean == pytest.approx(2.5429217090801273, abs=1e-12)
        assert m.std == pytest.approx(0.4812182902113793, abs=1e-12)

        lo, hi = p.alpha - 20 * p.beta, p.alpha + 40 * p.beta
        m1, _ = integrate.quad(lambda z: z * gumbel_pdf(z, p), lo, hi, limit=400)
        m2, _ = integrate.quad(lambda z: z * z * gumbel_pdf(z, p), lo, hi,
                               limit=400)
        assert m.mean == pytest.approx(m1, abs=1e-6)
        assert m.std == pytest.approx(np.sqrt(m2 - m1 * m1), abs=1e-6)

    def test_n2_mean(self):
        m = gumbel_moments(scaling_constants(2))
        # alpha = 0, so the mean is gamma * sqrt(2*pi)/2
        assert m.mean == pytest.approx(
            EULER_MASCHERONI * np.sqrt(2.0 * np.pi) / 2.0, rel=1e-15
        )
        assert m.mean == pytest.approx(0.7234325531010575, abs=1e-13)

    def test_std_proportional_to_beta(self):
        p = scaling_constants(10)
        shrunk = GumbelParams(n=p.n, alpha=p.alpha, beta=p.beta * 1e-9)
        assert gumbel_moments(shrunk).std == pytest.approx(
            gumbel_moments(p).std * 1e-9, rel=1e-12
        )

    def test_trends_with_n(self):
        moments = [gumbel_moments(scaling_constants(n))
                   for n in (2, 10, 100, 1000, 10_000)]
        means = [m.mean for m in moments]
        stds = [m.std for m in moments]
        assert all(a < b for a, b in zip(means, means[1:]))
        assert all(a > b for a, b in zip(stds, stds[1:]))


class TestIidMaxCdf:
    def test_matches_power_of_cdf(self):
        from corrmax import std_normal_cdf

        z = np.linspace(-2, 5, 50)
        np.testing.assert_allclose(
            iid_max_cdf(z, 7), std_normal_cdf(z) ** 7, rtol=1e-15
        )

    def test_approaches_gumbel_as_n_grows(self):
        sups = []
        for n in (100, 10_000):
            p = scaling_constants(n)
            z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 1201)
            sups.append(np.max(np.abs(iid_max_cdf(z, n) - gumbel_cdf(z, p))))
        assert sups[1] < sups[0]

    def test_validation(self):
        with pytest.raises(DomainError):
            iid_max_cdf(0.0, 0)
