"""Tests for the corrected distributions of correlated Gaussian maxima."""
from __future__ import annotations

import numpy as np
import pytest

from corrmax import (
    ar1_correlation_sum,
    DimensionMismatch,
    DomainError,
    EpsilonMatrix,
    McConfig,
    corrected_law,
    gumbel_cdf,
    gumbel_pdf,
    sample_max_sweep,
    scaling_constants,
    validity_check,
)
from conftest import (
    ar1_epsilon,
    central_diff,
    char_fn_identity_check,
    correlated_pdf_first_order,
    correlation_sum,
    ecdf_values,
    hist_l1_distance,
)


def brute_force_sum(entries: np.ndarray) -> float:
    total = 0.0
    n = entries.shape[0]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += entries[i, j]
    return total


def bivariate_normal_pdf(x, y, rho):
    det = 1.0 - rho * rho
    q = (x * x - 2.0 * rho * x * y + y * y) / det
    return np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(det))


class TestEpsilonMatrix:
    def test_ar1_entries(self):
        eps = ar1_epsilon(4, 0.5)
        assert eps.entries[0, 1] == 0.5
        assert eps.entries[0, 3] == 0.125
        assert np.all(np.diag(eps.entries) == 0.0)
        np.testing.assert_array_equal(eps.entries, eps.entries.T)

    def test_validation(self):
        with pytest.raises(DomainError):
            EpsilonMatrix(entries=np.array([[0.0, 0.5], [0.4, 0.0]]))
        with pytest.raises(DomainError):
            EpsilonMatrix(entries=np.array([[0.1, 0.5], [0.5, 0.0]]))
        with pytest.raises(DomainError):
            EpsilonMatrix(entries=np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DimensionMismatch):
            EpsilonMatrix(entries=np.zeros((2, 3)))
        with pytest.raises(DomainError):
            ar1_epsilon(5, 1.0)
        with pytest.raises(DomainError):
            ar1_epsilon(5, -0.1)

    def test_from_covariance(self):
        cov = np.array([[1.0, 0.3], [0.3, 1.0]])
        eps = EpsilonMatrix.from_covariance(cov)
        assert eps.entries[0, 1] == 0.3
        assert eps.entries[0, 0] == 0.0
        assert eps.max_abs() == 0.3


class TestCorrelationSum:
    def test_zero_matrix(self):
        assert correlation_sum(EpsilonMatrix(entries=np.zeros((4, 4)))) == 0.0

    def test_ar1_n3(self):
        eps = ar1_epsilon(3, 0.5)
        s = correlation_sum(eps)
        assert s == pytest.approx(2.5, abs=1e-14)
        assert s == pytest.approx(brute_force_sum(eps.entries), abs=1e-12)

    def test_ar1_n100_closed_form(self):
        rho = 0.35
        eps = ar1_epsilon(100, rho)
        closed = 2.0 * sum((100 - d) * rho**d for d in range(1, 100))
        assert correlation_sum(eps) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("n,rho", [(2, 0.5), (17, 0.9), (100, 0.35),
                                       (250, 0.825), (1000, 0.01), (5, 0.0)])
    def test_ar1_closed_form_matches_matrix_route(self, n, rho):
        direct = correlation_sum(ar1_epsilon(n, rho))
        assert ar1_correlation_sum(n, rho) == pytest.approx(
            direct, rel=1e-12, abs=1e-12
        )

    def test_ar1_closed_form_validation(self):
        with pytest.raises(DomainError):
            ar1_correlation_sum(10, 1.0)
        with pytest.raises(DomainError):
            ar1_correlation_sum(0, 0.5)

    def test_random_matrix_brute_force(self):
        rng = np.random.default_rng(8)
        a = rng.uniform(-0.2, 0.2, size=(6, 6))
        a = (a + a.T) / 2.0
        np.fill_diagonal(a, 0.0)
        eps = EpsilonMatrix(entries=a)
        assert correlation_sum(eps) == pytest.approx(
            brute_force_sum(a), abs=1e-12
        )


class TestCorrectedCdf:
    @pytest.mark.parametrize("order", ["first", "second", "complete"])
    @pytest.mark.parametrize("n", [2, 100, 1000])
    def test_reduces_to_gumbel_at_zero_s(self, order, n):
        p = scaling_constants(n)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 1000)
        np.testing.assert_allclose(
            corrected_law(z, p, 0.0, order)[0], gumbel_cdf(z, p),
            rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("order", ["first", "second", "complete"])
    def test_upper_limit_is_one(self, order):
        p = scaling_constants(100)
        s = correlation_sum(ar1_epsilon(100, 0.5))
        assert corrected_law(60.0, p, s, order)[0] == pytest.approx(1.0, abs=1e-15)

    def test_bad_order(self):
        p = scaling_constants(10)
        with pytest.raises(DomainError):
            corrected_law(1.0, p, 0.0, "third")

    def test_order_consistency_where_x_small(self):
        p = scaling_constants(100)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 400)
        for s in (50.0, -10.0):
            x = np.exp(-z * z) * s / (4.0 * np.pi)
            mask = np.abs(x) <= 1.0
            f1 = corrected_law(z, p, s, "first")[0][mask]
            f2 = corrected_law(z, p, s, "second")[0][mask]
            fc = corrected_law(z, p, s, "complete")[0][mask]
            # slack of one ulp: where both gaps underflow float resolution
            # the comparison is decided by rounding noise
            assert np.all(np.abs(f2 - fc) <= np.abs(f1 - fc) + 3e-16)

    def test_tracks_monte_carlo_better_than_gumbel(self):
        """At n=100, rho=0.35 the first-order CDF stays within 0.04 of the
        MC ECDF everywhere and improves on the plain Gumbel CDF.

        The MC oracle puts the sup distance at ~0.027, dominated by the
        pre-asymptotic gap |Phi^100 - Psi_100| ~ 0.027, so a DKW band at
        reps = 1e4 (half-width 0.016) is out of reach for any seed.
        """
        p = scaling_constants(100)
        s = correlation_sum(ar1_epsilon(100, 0.35))
        [res] = sample_max_sweep(100, [0.35], McConfig(seed=42, reps=10_000))
        grid = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 400)
        emp = ecdf_values(np.sort(res.samples), grid)
        sup_first = np.max(np.abs(emp - corrected_law(grid, p, s, "first")[0]))
        sup_gumbel = np.max(np.abs(emp - gumbel_cdf(grid, p)))
        assert sup_first < 0.04
        assert sup_first < sup_gumbel

    def test_second_order_coefficient_identity(self):
        """The quadruple sum over eps_ij eps_kl factorizes into S^2, which
        is why corrected_law only needs S."""
        rng = np.random.default_rng(17)
        for _ in range(3):
            a = rng.uniform(-0.15, 0.15, size=(5, 5))
            a = (a + a.T) / 2.0
            np.fill_diagonal(a, 0.0)
            quad = 0.0
            for i in range(5):
                for j in range(5):
                    if i == j:
                        continue
                    for k in range(5):
                        for l in range(5):
                            if k == l:
                                continue
                            quad += a[i, j] * a[k, l]
            s = brute_force_sum(a)
            assert quad == pytest.approx(s * s, abs=1e-10)


class TestCorrectedPdf:
    @pytest.mark.parametrize("order", ["first", "second", "complete"])
    def test_reduces_to_gumbel_at_zero_s(self, order):
        p = scaling_constants(100)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 500)
        np.testing.assert_allclose(
            corrected_law(z, p, 0.0, order)[1], gumbel_pdf(z, p),
            rtol=0, atol=1e-15,
        )

    @pytest.mark.parametrize("order", ["first", "second", "complete"])
    def test_matches_cdf_finite_difference(self, order):
        rng = np.random.default_rng(3)
        p = scaling_constants(100)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 301)
        for s in rng.uniform(-5.0, 5.0, size=4):
            fd = central_diff(lambda t: corrected_law(t, p, s, order)[0], z)
            np.testing.assert_allclose(
                corrected_law(z, p, s, order)[1], fd, rtol=0, atol=1e-6
            )

    def test_second_order_closer_to_histogram(self):
        p = scaling_constants(100)
        s = correlation_sum(ar1_epsilon(100, 0.5))
        [res] = sample_max_sweep(100, [0.5], McConfig(seed=42, reps=10_000))
        l1_second = hist_l1_distance(
            res, lambda t: corrected_law(t, p, s, "second")[1]
        )
        l1_gumbel = hist_l1_distance(res, lambda t: gumbel_pdf(t, p))
        assert l1_second < l1_gumbel

    def test_normalization_in_validity_regime(self):
        p = scaling_constants(100)
        s = correlation_sum(ar1_epsilon(100, 0.3))
        z = np.linspace(p.alpha - 10 * p.beta, p.alpha + 40 * p.beta, 40_001)
        for order in ("first", "second", "complete"):
            total = np.trapezoid(corrected_law(z, p, s, order)[1], z)
            assert total == pytest.approx(1.0, abs=5e-3)


def reference_law(z, p, s, order):
    """Each order's (cdf, pdf), written out as separate expressions with
    the Gumbel tail clip at (z - alpha)/beta = -40."""
    z = np.asarray(z, dtype=float)
    w = np.exp(-np.maximum((z - p.alpha) / p.beta, -40.0))
    psi = np.exp(-w)
    x = np.exp(-z * z) * (float(s) / (4.0 * np.pi))
    wb = w / p.beta
    if order == "first":
        return psi * (1.0 + x), psi * (wb * (1.0 + x) - 2.0 * z * x)
    if order == "second":
        return (psi * (1.0 + x + 0.5 * x * x),
                psi * (wb * (1.0 + x + 0.5 * x * x) - 2.0 * z * (x + x * x)))
    return np.exp(x - w), np.exp(x - w) * (wb - 2.0 * z * x)


class TestCorrectedLaw:
    @pytest.mark.parametrize("order", ["first", "second", "complete"])
    @pytest.mark.parametrize("n", [2, 3, 10, 100, 1000, 10**5, 10**9])
    def test_bits_match_the_written_out_expressions(self, n, order):
        """Bit for bit, over a grid reaching past the tail clip and
        holding -0.0, for S of both signs and both signed zeros."""
        p = scaling_constants(n)
        z = np.concatenate([
            np.linspace(p.alpha - 60.0 * p.beta, p.alpha + 80.0 * p.beta, 7000),
            [-0.0, 0.0, p.alpha - 40.0 * p.beta],
        ])
        for s in (0.0, -0.0, 1e-3, 5.0, 250.0, -12.5):
            cdf, pdf = corrected_law(z, p, s, order)
            ref_cdf, ref_pdf = reference_law(z, p, s, order)
            assert cdf.tobytes() == ref_cdf.tobytes()
            assert pdf.tobytes() == ref_pdf.tobytes()

    def test_rejects_non_finite_z(self):
        p = scaling_constants(10)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(DomainError, match="z must be finite"):
                corrected_law(np.array([0.0, bad]), p, 0.0, "first")


class TestValidityCheck:
    @pytest.mark.parametrize("cdf, pdf, bounded, nonnegative, flagged", [
        ([np.nan] * 3, [np.nan] * 3, False, False, (0.0, 1.0, 2.0)),
        ([0.1, 0.5, 0.9], [0.1, np.inf, 0.1], True, False, (1.0,)),
        ([0.1, 0.5, 0.9], [0.1, 0.2, np.nan], True, False, (2.0,)),
        ([0.1, np.inf, np.inf], [0.1, 0.1, 0.1], False, True, (1.0, 2.0)),
        ([-np.inf, 0.5, 0.9], [0.1, 0.1, -np.inf], False, False, (0.0, 2.0)),
    ], ids=["all_nan", "pdf_inf", "pdf_nan", "cdf_inf", "minus_inf"])
    def test_non_finite_values_fail(self, cdf, pdf, bounded, nonnegative, flagged):
        rep = validity_check([0.0, 1.0, 2.0], cdf, pdf, 0.1)
        assert rep.cdf_bounded is bounded
        assert rep.pdf_nonnegative is nonnegative
        assert rep.z_violations == flagged

    def test_zero_s_passes_everything(self):
        p = scaling_constants(100)
        eps = ar1_epsilon(100, 0.0)
        z = np.linspace(p.alpha - 2.0, p.alpha + 4.0, 500)
        rep = validity_check(z, *corrected_law(z, p, 0.0, "second"), eps.max_abs())
        assert rep.smallness_ok
        assert rep.cdf_monotone and rep.cdf_bounded and rep.pdf_nonnegative
        assert rep.z_violations == ()
        assert rep.max_abs_eps == 0.0

    def test_flags_breakdown_where_it_occurs(self):
        """The resummed exponential genuinely leaves [0, 1] once
        phi(z)^2 S/(4 pi) exceeds e^(-(z-alpha)/beta) somewhere; for AR(1)
        at n=100 that first happens near rho ~ 0.85."""
        p = scaling_constants(100)
        eps = ar1_epsilon(100, 0.9)
        s = correlation_sum(eps)
        z = np.linspace(p.alpha - 12 * p.beta, p.alpha + 40 * p.beta, 3000)
        rep = validity_check(z, *corrected_law(z, p, s, "complete"), eps.max_abs())
        assert not rep.smallness_ok
        assert not rep.cdf_bounded
        assert not rep.cdf_monotone
        assert len(rep.z_violations) > 0

    def test_smallness_threshold(self):
        p = scaling_constants(50)
        eps = ar1_epsilon(50, 0.25)
        z = np.linspace(p.alpha - 1.0, p.alpha + 1.0, 50)
        s = correlation_sum(eps)
        assert validity_check(
            z, *corrected_law(z, p, s, "second"), eps.max_abs(),
        ).smallness_ok

    def test_grid_validation(self):
        p = scaling_constants(10)
        eps = ar1_epsilon(10, 0.1)
        z = np.array([1.0, 0.5])
        with pytest.raises(DomainError):
            validity_check(z, *corrected_law(z, p, 0.0, "first"), eps.max_abs())
        z = np.array([1.0])
        with pytest.raises(DomainError):
            validity_check(z, *corrected_law(z, p, 0.0, "first"), eps.max_abs())
        z = np.array([0.5, 1.0, 1.5])
        with pytest.raises(DimensionMismatch):
            validity_check(z, corrected_law(z[:2], p, 0.0, "first")[0],
                           corrected_law(z, p, 0.0, "first")[1], eps.max_abs())


class TestCorrelatedPdfFirstOrder:
    def test_uncorrelated_reduces_to_product(self):
        eps = ar1_epsilon(2, 0.0)
        assert correlated_pdf_first_order([0.0, 0.0], eps) == pytest.approx(
            1.0 / (2.0 * np.pi), rel=1e-15
        )

    def test_matches_exact_bivariate_to_eps_squared(self):
        rho = 0.01
        eps = EpsilonMatrix(entries=np.array([[0.0, rho], [rho, 0.0]]))
        exact = bivariate_normal_pdf(0.5, -0.3, rho)
        approx = correlated_pdf_first_order([0.5, -0.3], eps)
        assert approx == pytest.approx(exact, abs=1e-4)

    def test_integrates_to_one(self):
        # tensor-product Gauss-Legendre quadrature over [-8, 8]^2
        rho = 0.1
        eps = EpsilonMatrix(entries=np.array([[0.0, rho], [rho, 0.0]]))
        nodes, weights = np.polynomial.legendre.leggauss(120)
        x = 8.0 * nodes
        w = 8.0 * weights
        gx, gy = np.meshgrid(x, x, indexing="ij")
        vals = np.empty_like(gx)
        for i in range(x.size):
            for j in range(x.size):
                vals[i, j] = correlated_pdf_first_order(
                    [gx[i, j], gy[i, j]], eps
                )
        total = float(w @ vals @ w)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DimensionMismatch):
            correlated_pdf_first_order([0.0, 0.0, 0.0], ar1_epsilon(2, 0.1))
        with pytest.raises(DomainError):
            correlated_pdf_first_order(list(range(9)), ar1_epsilon(9, 0.1))


class TestCharFnIdentity:
    def test_zero_wavevector(self):
        assert char_fn_identity_check(
            [0.0, 0.0, 0.0], [0.1, 0.2, 0.3], [1.0, 1.0, 1.0], 0, 1, 1e-4
        ) == 0.0

    def test_random_points_small_discrepancy(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(100):
            dim = int(rng.integers(2, 7))
            k = rng.uniform(-1.0, 1.0, size=dim)
            mu = rng.uniform(-1.0, 1.0, size=dim)
            sigma = rng.uniform(0.5, 1.5, size=dim)
            i, j = rng.choice(dim, size=2, replace=False)
            worst = max(
                worst,
                char_fn_identity_check(k, mu, sigma, int(i), int(j), 1e-4),
            )
        assert worst <= 1e-7

    def test_second_order_convergence(self):
        k = [0.8, -0.6, 0.4]
        mu = [0.1, -0.2, 0.05]
        sigma = [1.0, 0.8, 1.2]
        d_coarse = char_fn_identity_check(k, mu, sigma, 0, 1, 4e-4)
        d_fine = char_fn_identity_check(k, mu, sigma, 0, 1, 2e-4)
        assert d_coarse / d_fine == pytest.approx(4.0, abs=0.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            char_fn_identity_check([0.1, 0.2], [0.0, 0.0], [1.0, 1.0], 1, 1, 1e-4)
        with pytest.raises(DomainError):
            char_fn_identity_check([0.1, 0.2], [0.0, 0.0], [1.0, 1.0], 0, 1, 1e-2)
        with pytest.raises(DimensionMismatch):
            char_fn_identity_check([0.1], [0.0, 0.0], [1.0, 1.0], 0, 1, 1e-4)
