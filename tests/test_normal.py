"""Tests for the standard-normal special functions."""
from __future__ import annotations

import itertools
import math
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
from corrmax.normal import _EXPM2, _MAXLOG, _QUANTILE_BLOCK, _ndtri, _ndtri_inplace
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


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    assert actual.shape == expected.shape
    differ = np.flatnonzero(actual.view(np.int64) != expected.view(np.int64))
    assert differ.size == 0, (differ.size, actual.flat[differ[:5]], expected.flat[differ[:5]])


def with_neighbours(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


class TestBitsEqualScipy:
    """The ports in ``normal.py`` reproduce ``scipy.special`` bit for bit."""

    def test_quantile_on_sampler_uniforms(self):
        u = _chunk_uniforms(42, 0, 1024, 1000)
        assert_same_bits(std_normal_quantile(u), special.ndtri(u))

    def test_quantile_on_every_binade_of_both_tails(self):
        rng = np.random.default_rng(3)
        lower = np.concatenate([np.ldexp(1.0 + rng.random(64), e) for e in range(-1074, -1)])
        lower = np.concatenate([[2.0**-1074], lower[lower > 0.0]])
        upper = 1.0 - lower[lower >= 2.0**-53]
        p = np.concatenate([lower, upper[upper < 1.0]])
        assert np.all((p > 0.0) & (p < 1.0))
        assert_same_bits(std_normal_quantile(p), special.ndtri(p))

    def test_quantile_at_branch_edges(self):
        # y = e^-2 and 1 - e^-2 bound the central branch; near y = e^-32,
        # x = sqrt(-2 log y) crosses 8 and the tail polynomial changes.
        crossing = math.exp(-32.0) * (1.0 + np.linspace(-1e-13, 1e-13, 201))
        x = np.sqrt(-2.0 * np.array([math.log(y) for y in crossing]))
        assert np.any(x < 8.0) and np.any(x >= 8.0)
        p = np.concatenate([with_neighbours([_EXPM2, 1.0 - _EXPM2, 0.5]), crossing])
        assert_same_bits(std_normal_quantile(p), special.ndtri(p))

    def test_cdf_on_its_whole_range(self):
        edges = np.sqrt(2.0) * np.array([1.0, 8.0, math.sqrt(_MAXLOG)])
        x = np.concatenate([
            np.linspace(-40.0, 40.0, 200_001),
            with_neighbours(np.concatenate([edges, -edges, [1.0, -1.0, 8.0, -8.0]])),
            [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 5e-324, -5e-324],
        ])
        assert_same_bits(std_normal_cdf(x), 0.5 * special.erfc(-x / np.sqrt(2.0)))

    @pytest.mark.parametrize("make", [float, np.float64, np.array],
                             ids=["float", "float64", "0-d"])
    @pytest.mark.parametrize("p", [0.01, 0.5, 0.99, 1e-20])
    def test_scalar_and_0d_quantile_give_floats(self, make, p):
        q = std_normal_quantile(make(p))
        assert type(q) is float
        assert_same_bits(q, special.ndtri(p))

    @pytest.mark.parametrize("make", [float, np.float64, np.array],
                             ids=["float", "float64", "0-d"])
    @pytest.mark.parametrize("x", [-40.0, -2.0, 0.5, 3.0, np.inf])
    def test_scalar_and_0d_cdf_give_floats(self, make, x):
        c = std_normal_cdf(make(x))
        assert type(c) is float
        assert_same_bits(c, 0.5 * special.erfc(-x / np.sqrt(2.0)))

    def test_shapes_are_kept(self):
        u = np.full((3, 0, 2), 0.5)
        assert std_normal_quantile(u).shape == (3, 0, 2)
        p = np.array([[0.01, 0.5], [0.9, 0.999]])
        assert_same_bits(std_normal_quantile(p), special.ndtri(p))
        assert_same_bits(std_normal_cdf(p.T), 0.5 * special.erfc(-p.T / np.sqrt(2.0)))


B = _QUANTILE_BLOCK


def uniforms_with_tails(size: int) -> np.ndarray:
    """Sampler uniforms with far-tail values at both sides of every block
    edge, so the tails that ``_ndtri`` gathers straddle the edges."""
    u = _chunk_uniforms(7, 0, 1, size)[0] if size else np.empty(0)
    edges = [i for k in range(1, size // B + 1) for i in (k * B - 1, k * B)]
    for i, value in zip([0, size - 1, *edges], itertools.cycle(
            [1e-300, 1.0 - 2.0**-53, _EXPM2, np.nextafter(1.0 - _EXPM2, 1.0),
             math.exp(-32.0)])):
        if 0 <= i < size:
            u[i] = value
    return u


class TestBlockedQuantile:
    """``_ndtri_inplace`` overwrites a buffer block by block with the bits
    of one unblocked evaluation, and ``std_normal_quantile`` runs it on a
    copy."""

    @pytest.mark.parametrize("size", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_bits_equal_unblocked_ndtri(self, size):
        p = uniforms_with_tails(size)
        assert size < 2 or (np.any(p < _EXPM2) and np.any(p > 1.0 - _EXPM2))
        expected = special.ndtri(p)
        assert_same_bits(_ndtri(p), expected)
        assert_same_bits(std_normal_quantile(p), expected)
        buf = p.copy()
        assert _ndtri_inplace(buf) is buf
        assert_same_bits(buf, expected)

    def test_in_place_equals_on_a_copy_for_any_shape(self):
        p = uniforms_with_tails(3 * B + 7)[:-1].reshape(2, -1, 3)
        buf = p.copy()
        _ndtri_inplace(buf)
        assert_same_bits(buf, std_normal_quantile(p))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, 1.0, -0.2, 1.7])
    @pytest.mark.parametrize("at", [0, B, 3 * B + 6])
    def test_bad_value_in_any_block_raises(self, bad, at):
        p = uniforms_with_tails(3 * B + 7)
        p[at] = bad
        with pytest.raises(DomainError, match="strictly inside"):
            _ndtri_inplace(p.copy())
        with pytest.raises(DomainError, match="strictly inside"):
            std_normal_quantile(p)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_leaves_the_callers_array_untouched(self, layout):
        base = uniforms_with_tails(2 * (B + 3) * 3).reshape(2 * (B + 3), 3)
        p = {"C": base, "F": np.asfortranarray(base), "strided": base[::2, ::-1]}[layout]
        before = p.copy()
        q = std_normal_quantile(p)
        assert_same_bits(p, before)
        assert_same_bits(q, special.ndtri(before))
