"""Tests for the seeded Monte Carlo layer."""
from __future__ import annotations

import math
import os
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from corrmax import (
    DimensionMismatch,
    DomainError,
    EmptyInput,
    McConfig,
    empirical_stats,
    non_iid_experiment,
    sample_dag_max,
    sample_max_sweep,
    std_normal_quantile,
)
import corrmax.montecarlo
from corrmax.montecarlo import (
    _MAX_CHUNK_FLOATS,
    _check_width,
    _chunk_uniforms,
    _ends,
    _worker_count,
)
from corrmax.cli import _MAX_BINS, _histogram, _iqr, _stats_dict
from corrmax.normal import _ndtri
from corrmax.timing_graph import load_graph
from conftest import (
    GRAPHS_DIR,
    dkw_band_halfwidth,
    ecdf_values,
    exact_iid_max_moments,
    iid_max_cdf,
    noniid_exact_moments,
    noniid_frozen_exact_moments,
    noniid_full_maxima,
    open_uniform,
    rep_rng,
    sample_ar1_chain,
)


class TestModels:
    def test_ar1_validation(self):
        cfg = McConfig(seed=1, reps=10)
        with pytest.raises(DomainError):
            sample_max_sweep(0, [0.5], cfg)
        with pytest.raises(DomainError):
            sample_max_sweep(10, [1.5], cfg)
        with pytest.raises(DomainError):
            sample_max_sweep(10, [0.5], cfg, sigma=0.0)

    def test_mc_config_validation(self):
        McConfig(seed=1, reps=2**27)  # the sample-array cap, _MAX_CHUNK_FLOATS
        with pytest.raises(DomainError):
            McConfig(seed=1, reps=0)
        with pytest.raises(DomainError, match=r"\[1, 134217728\] \(got 134217729\)"):
            McConfig(seed=1, reps=2**27 + 1)
        with pytest.raises(DomainError):
            McConfig(seed=-1)
        with pytest.raises(DomainError):
            McConfig(seed=1, workers=0)


class TestRepRng:
    def test_pure_function_of_seed_and_rep(self):
        a = rep_rng(42, 7, 5).random(5)
        b = rep_rng(42, 7, 5).random(5)
        c = rep_rng(42, 8, 5).random(5)
        d = rep_rng(43, 7, 5).random(5)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestChunkUniforms:
    @pytest.mark.parametrize("seed", [42, 2**64 - 5])
    @pytest.mark.parametrize("start", [0, 2**20, 2**79])  # 2**79: past a 64-bit counter
    @pytest.mark.parametrize("stream", [0, 4])
    def test_rows_equal_per_repetition_streams(self, seed, start, stream):
        for width in (1, 7, 201, 3003):
            u = _chunk_uniforms(seed, start, start + 3, width, stream)
            assert u.shape == (3, width)
            for i, row in enumerate(u):
                ref = open_uniform(rep_rng(seed, start + i, width, stream), width)
                np.testing.assert_array_equal(row, ref)

    @pytest.mark.parametrize("width", [1, 7, 201, 3003])
    def test_rows_equal_across_row_blocks(self, width):
        # 150 rows span three row blocks, the last one partial.
        seed, start = 2**64 - 5, 2**20
        u = _chunk_uniforms(seed, start, start + 150, width, 3)
        ref = np.array([open_uniform(rep_rng(seed, start + i, width, 3), width)
                        for i in range(150)])
        np.testing.assert_array_equal(u, ref)

    @pytest.mark.parametrize("start, stop", [
        (1, 2), (63, 130), (100, 300), (0, 64), (64, 129), (200, 263)])
    @pytest.mark.parametrize("width", [1, 5, 8, 1000])
    def test_rows_equal_those_of_a_longer_draw(self, start, stop, width):
        """A chunk may start at any repetition, not only at a row block's,
        and may end inside a row block, on its edge, or one row past it."""
        seed = 2**64 - 5
        longer = _chunk_uniforms(seed, 0, 300, width, 6)
        np.testing.assert_array_equal(_chunk_uniforms(seed, start, stop, width, 6),
                                      longer[start:stop])


class TestOpenUniform:
    """The 53-bit word 2**53 - 1, where k + 0.5 rounds to 2**53, gives the
    uniform 1 - 2**-53 in the reader and in the reference, not 1.0."""

    TOP = 1.0 - 2.0**-53

    def test_open_uniform(self):
        class AllOnes:
            def integers(self, low, high, size, dtype):
                return np.full(size, high - 1, dtype=dtype)

        np.testing.assert_array_equal(open_uniform(AllOnes(), 3), [self.TOP] * 3)

    def test_chunk_uniforms(self, monkeypatch):
        class AllOnes:
            def __init__(self, key, counter):
                pass

            def random_raw(self, size):
                return np.full(size, 2**64 - 1, dtype=np.uint64)

        monkeypatch.setattr(np.random, "Philox", AllOnes)
        np.testing.assert_array_equal(_chunk_uniforms(1, 0, 2, 3),
                                      np.full((2, 3), self.TOP))

    def test_every_other_word_keeps_its_value(self):
        k = np.array([0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 3, 2**53 - 2],
                     dtype=np.uint64)
        np.testing.assert_array_equal(
            corrmax.montecarlo._open_from_top_bits(k.astype(float)),
            (k + 0.5) * 2.0**-53)


class TestWorkerCount:
    def test_never_more_than_cpus_or_chunks(self):
        cpus = len(os.sched_getaffinity(0))
        # --reps 10000000 is 9766 chunks of 1024 repetitions.
        assert _worker_count(100_000, 9766) == min(cpus, 9766)
        assert _worker_count(100_000, 1) == 1
        assert _worker_count(1, 9766) == 1
        assert _worker_count(2, 3) == min(2, cpus)

    def test_capped_by_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
        assert _worker_count(8, 9766) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert _worker_count(8, 9766) == 3

    def test_one_where_fork_is_missing(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert _worker_count(8, 9766) == 1


def _dag_samples(workers: int) -> np.ndarray:
    """Three chunks of a small DAG; with 2 workers a child runs the second."""
    cfg = McConfig(seed=5, reps=2500, workers=workers)
    return sample_dag_max(*_complete_dag(4), cfg).samples


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedWorkers:
    @pytest.mark.parametrize("sampler", [
        lambda cfg: sample_max_sweep(20, [0.3, 0.7], cfg)[1].samples,
        lambda cfg: sample_dag_max(*_complete_dag(4), cfg).samples,
        lambda cfg: non_iid_experiment((30,), cfg, delta_mu=0.2)[0].samples,
    ], ids=["sweep", "dag", "noniid"])
    def test_no_child_outlives_a_run(self, monkeypatch, sampler):
        one = sampler(McConfig(seed=5, reps=2500))
        forks, fork = [], os.fork

        def counted():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted)
        two = sampler(McConfig(seed=5, reps=2500, workers=2))
        assert len(forks) == _worker_count(2, 3) - 1
        _assert_no_child_left()
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("error", [DomainError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing", [0, 1024], ids=["parent_chunk", "child_chunk"])
    def test_failed_chunk_raises_as_on_one_worker(self, monkeypatch, error, failing):
        chunk_uniforms = corrmax.montecarlo._chunk_uniforms

        def failing_at(seed, start, stop, *args):
            if start == failing:
                raise error(f"chunk at {start} failed")
            return chunk_uniforms(seed, start, stop, *args)

        monkeypatch.setattr(corrmax.montecarlo, "_chunk_uniforms", failing_at)
        for workers in (1, 2):
            with pytest.raises(error, match=f"^chunk at {failing} failed$"):
                _dag_samples(workers)
            _assert_no_child_left()

    @pytest.mark.parametrize("failure", [None, "orphaned", "fork_fails"])
    def test_parent_recomputes_only_the_chunks_of_failed_children(
        self, monkeypatch, failure
    ):
        """A child that finds its parent gone runs no chunk and exits
        non-zero, and a fork that fails starts none; either way the parent
        runs that worker's chunks itself after its own."""
        one = _dag_samples(1)
        starts, chunk_uniforms = [], corrmax.montecarlo._chunk_uniforms

        def recorded(seed, start, stop, *args):
            starts.append(start)  # a child appends to its own copy
            return chunk_uniforms(seed, start, stop, *args)

        monkeypatch.setattr(corrmax.montecarlo, "_chunk_uniforms", recorded)
        if failure == "orphaned":
            monkeypatch.setattr(os, "getppid", lambda: -1)
        elif failure == "fork_fails":
            def no_room():
                raise BlockingIOError(11, "Resource temporarily unavailable")
            monkeypatch.setattr(os, "fork", no_room)
        assert np.array_equal(_dag_samples(2), one)
        _assert_no_child_left()
        own = [0, 1024, 2048][:: _worker_count(2, 3)]
        children = [a for a in (0, 1024, 2048) if a not in own]
        assert starts == own + (children if failure else [])


class TestSampleAr1Chain:
    def test_length_and_determinism(self):
        x1 = sample_ar1_chain(20, 0.3, 1.0, rep_rng(5, 0, 20))
        x2 = sample_ar1_chain(20, 0.3, 1.0, rep_rng(5, 0, 20))
        np.testing.assert_array_equal(x1, x2)
        assert x1.shape == (20,)

    def test_perfect_correlation_constant_chain(self):
        x = sample_ar1_chain(50, 1.0, 2.0, rep_rng(1, 0, 50))
        np.testing.assert_array_equal(x, np.full(50, x[0]))

    def test_zero_correlation_lag1(self):
        chains = np.array(
            [sample_ar1_chain(101, 0.0, 1.0, rep_rng(11, r, 101)) for r in range(1000)]
        )
        a, b = chains[:, :-1].ravel(), chains[:, 1:].ravel()
        est = np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b))
        assert abs(est - 0.0) < 0.01

    def test_lag1_correlation_rho075(self):
        chains = np.array(
            [sample_ar1_chain(101, 0.75, 1.0, rep_rng(12, r, 101)) for r in range(1000)]
        )
        a, b = chains[:, :-1].ravel(), chains[:, 1:].ravel()
        est = np.mean(a * b) / np.sqrt(np.mean(a * a) * np.mean(b * b))
        assert abs(est - 0.75) < 0.01

    def test_stationary_marginal_variance(self):
        """Every index keeps variance sigma^2 within 3 standard errors."""
        sigma, reps = 1.3, 4000
        chains = np.array(
            [sample_ar1_chain(25, 0.6, sigma, rep_rng(2024, r, 25)) for r in range(reps)]
        )
        v = chains.var(axis=0, ddof=1)
        se = sigma**2 * np.sqrt(2.0 / (reps - 1))
        assert np.max(np.abs(v - sigma**2)) < 3.0 * se


class TestSampleMaxDistribution:
    def test_single_variable_is_normal_sample(self):
        cfg = McConfig(seed=9, reps=10_000)
        [res] = sample_max_sweep(1, [0.5], cfg)
        assert abs(res.mean) < 3.0 / np.sqrt(cfg.reps)
        assert res.std == pytest.approx(1.0, abs=0.05)

    def test_matches_per_chain_sampler(self):
        cfg = McConfig(seed=77, reps=64)
        [res] = sample_max_sweep(30, [0.4], cfg)
        direct = np.array(
            [sample_ar1_chain(30, 0.4, 1.0, rep_rng(77, r, 30)).max() for r in range(64)]
        )
        np.testing.assert_array_equal(res.samples, direct)

    def test_worker_count_does_not_change_samples(self):
        [r1] = sample_max_sweep(40, [0.6], McConfig(seed=42, reps=3000, workers=1))
        [r8] = sample_max_sweep(40, [0.6], McConfig(seed=42, reps=3000, workers=8))
        np.testing.assert_array_equal(r1.samples, r8.samples)

    def test_iid_maxima_within_dkw_band_of_exact_law(self):
        cfg = McConfig(seed=7, reps=10_000)
        [res] = sample_max_sweep(100, [0.0], cfg)
        grid = np.linspace(0.0, 5.0, 500)
        sup = np.max(
            np.abs(ecdf_values(np.sort(res.samples), grid) - iid_max_cdf(grid, 100))
        )
        assert sup < dkw_band_halfwidth(cfg.reps, 0.99)


class TestSampleMaxSweep:
    def test_matches_per_chain_sampler_for_every_rho(self):
        rhos, sigma, n, seed = [0.0, 0.35, 0.9, 1.0], 1.3, 17, 2**63 + 12345
        results = sample_max_sweep(n, rhos, McConfig(seed=seed, reps=50), sigma)
        assert len(results) == len(rhos)
        for rho, res in zip(rhos, results):
            direct = np.array(
                [sample_ar1_chain(n, rho, sigma, rep_rng(seed, r, n)).max() for r in range(50)]
            )
            np.testing.assert_array_equal(res.samples, direct)

    @pytest.fixture(scope="class")
    def grouped_sweep(self):
        """70 rho points, more than one group of the block recurrence, and
        1500 reps, so the last chunk is partial.  The per-chain reference
        covers every seventh repetition, counted back from the last one,
        which reaches both chunks at many offsets within them."""
        n, sigma, seed, reps = 5, 1.3, 2**63 + 7, 1500
        rhos = [0.0] + [round(k / 69, 12) for k in range(1, 69)] + [1.0]
        checked = np.arange(reps - 1, -1, -7)
        refs = [
            np.array([sample_ar1_chain(n, rho, sigma, rep_rng(seed, r, n)).max()
                      for r in checked])
            for rho in rhos
        ]
        return n, rhos, sigma, seed, reps, checked, refs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_matches_per_chain_sampler_across_rho_groups(self, grouped_sweep, workers):
        n, rhos, sigma, seed, reps, checked, refs = grouped_sweep
        cfg = McConfig(seed=seed, reps=reps, workers=workers)
        results = sample_max_sweep(n, rhos, cfg, sigma)
        assert len(results) == len(rhos) == 70
        for res, ref in zip(results, refs):
            np.testing.assert_array_equal(res.samples[checked], ref)

    def test_rho_groups_do_not_change_samples(self):
        # Each point alone, so in a group of one, against all 70 at once.
        rhos = [round(k / 69, 12) for k in range(70)]
        cfg = McConfig(seed=31, reps=1500, workers=2)
        swept = sample_max_sweep(5, rhos, cfg, 1.3)
        for rho, res in zip(rhos, swept):
            [alone] = sample_max_sweep(5, [rho], cfg, 1.3)
            np.testing.assert_array_equal(res.samples, alone.samples)

    def test_worker_count_does_not_change_samples(self):
        rhos = [0.1, 0.5, 0.9]
        r1 = sample_max_sweep(40, rhos, McConfig(seed=8, reps=2500, workers=1))
        r2 = sample_max_sweep(40, rhos, McConfig(seed=8, reps=2500, workers=2))
        for a, b in zip(r1, r2):
            np.testing.assert_array_equal(a.samples, b.samples)

    def test_rejects_bad_rho(self):
        with pytest.raises(DomainError):
            sample_max_sweep(10, [0.5, 1.5], McConfig(seed=1, reps=10))


def _complete_dag(n_nodes: int):
    """Every edge i -> j with i < j, nodes numbered topologically."""
    pairs = [(i, j) for i in range(n_nodes) for j in range(i + 1, n_nodes)]
    src = [i for i, _ in pairs]
    dst = [j for _, j in pairs]
    mu = [1.0 + 0.1 * (k % 3) for k in range(len(pairs))]
    sigma = [0.05 + 0.02 * (k % 5) for k in range(len(pairs))]
    return mu, sigma, src, dst


class TestSampleDagMax:
    def test_workers_do_not_change_samples(self):
        mu, sigma, src, dst = _complete_dag(6)
        r1 = sample_dag_max(mu, sigma, src, dst, McConfig(seed=9, reps=2500, workers=1))
        r2 = sample_dag_max(mu, sigma, src, dst, McConfig(seed=9, reps=2500, workers=2))
        np.testing.assert_array_equal(r1.samples, r2.samples)

    def test_zero_sigma_gives_longest_mean(self):
        # paths 0-1-2-3 (mean 4.5), 0-2-3 (4.0), 0-3 (4.25)
        res = sample_dag_max(
            [1.0, 2.0, 1.5, 2.5, 4.25], [0.0] * 5,
            [0, 1, 2, 0, 0], [1, 2, 3, 2, 3], McConfig(seed=3, reps=1500),
        )
        np.testing.assert_array_equal(res.samples, np.full(1500, 4.5))

    def test_rejects_non_topological_numbering(self):
        with pytest.raises(DomainError):
            sample_dag_max([1.0, 1.0], [0.1, 0.1], [0, 2], [2, 1],
                           McConfig(seed=1, reps=10))

    @pytest.mark.parametrize("src, dst", [([-1], [0]), ([-3, 0], [0, 1])])
    def test_rejects_negative_node_numbers(self, src, dst):
        with pytest.raises(DomainError, match="numbered from 0"):
            sample_dag_max([1.0] * len(src), [0.1] * len(src), src, dst,
                           McConfig(seed=1, reps=10))

    def test_several_sources_and_sinks(self):
        """Sources a, b and sinks x, y around one node m: each sample is the
        max over the four paths of the left-to-right sums of the stream's
        edge delays, bit for bit."""
        mu, sigma = np.array([1.0, 1.2, 0.5, 0.7]), np.array([0.1, 0.2, 0.1, 0.3])
        res = sample_dag_max(mu, sigma, [0, 1, 2, 2], [2, 2, 3, 4],
                             McConfig(seed=21, reps=1500))
        d = mu + sigma * std_normal_quantile(_chunk_uniforms(21, 0, 1500, 4))
        paths = [(0, 2), (0, 3), (1, 2), (1, 3)]
        expected = np.max([d[:, a] + d[:, b] for a, b in paths], axis=0)
        np.testing.assert_array_equal(res.samples, expected)

    @pytest.mark.parametrize("graph", sorted(p.name for p in GRAPHS_DIR.glob("*.txt")))
    def test_ends_equal_setdiff1d_on_every_shipped_graph(self, graph):
        g = load_graph(GRAPHS_DIR / graph)
        sources, sinks = _ends(g.src, g.dst)
        np.testing.assert_array_equal(sources, np.setdiff1d(g.src, g.dst), strict=True)
        np.testing.assert_array_equal(sinks, np.setdiff1d(g.dst, g.src), strict=True)

    def test_ends_with_several_sources_sinks_and_unused_numbers(self):
        src, dst = np.array([0, 1, 2, 2, 5]), np.array([2, 2, 3, 4, 7])
        sources, sinks = _ends(src, dst)
        np.testing.assert_array_equal(sources, np.setdiff1d(src, dst), strict=True)
        np.testing.assert_array_equal(sinks, np.setdiff1d(dst, src), strict=True)

    @pytest.mark.parametrize("mu, sigma, src, dst", [
        ([1.0, 2.0], [0.1], [0], [1]),
        ([1.0], [0.1], [0, 1], [1, 2]),
        ([], [], [], []),
    ], ids=["extra_mu", "extra_edges", "empty"])
    def test_rejects_unequal_lengths(self, mu, sigma, src, dst):
        with pytest.raises(DimensionMismatch):
            sample_dag_max(mu, sigma, src, dst, McConfig(seed=1, reps=10))


def traced_peak(run) -> int:
    """Peak bytes that tracemalloc sees allocated while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    """A chunk holds one float array of its shape: the normal quantile
    overwrites the chunk's uniforms in place, in blocks of 2**14 elements.
    One chunk of 1024 repetitions x 2000 columns is 16.4 MB; evaluated into
    new chunk-sized arrays, as it once was, the peaks were 6.2 chunks (sweep)
    and 6.3 (DAG)."""

    CHUNK = 1024 * 2000 * 8

    def test_sweep_peaks_at_one_chunk(self):
        """Beside the chunk: the drawing's 64 rows of raw words (0.06 chunk)
        or the quantile's block temporaries (about a dozen of 128 KiB, 0.1
        chunk), never both, and the recurrence's few 1024-float rows.
        Measured 1.06 chunks; bound 1.25."""
        peak = traced_peak(lambda: sample_max_sweep(2000, [0.5], McConfig(seed=1, reps=1024)))
        assert peak <= 1.25 * self.CHUNK

    @pytest.mark.parametrize("parallel", [1, 10], ids=["chain", "bundles"])
    def test_dag_peaks_at_one_chunk_and_its_arrivals(self, parallel):
        """2000 edges, ``parallel`` of them from each node to the next: the
        chunk and the nodes x 1024 arrival times (1.0005 chunks for the
        chain, 0.1 for the bundles) beside the same temporaries as the
        sweep.  Measured 2.02 chunks on the chain; bound the two plus 0.25
        chunk.  The bundles fail it if the quantile copies the chunk."""
        # A first call loads lazily imported numpy code (about 1 MB), which
        # is no part of a chunk's memory.
        sample_dag_max([1.0], [0.1], [0], [1], McConfig(seed=1, reps=1))
        src = np.arange(2000) // parallel
        arrival = (src[-1] + 2) * 1024 * 8
        peak = traced_peak(lambda: sample_dag_max(
            np.ones(2000), np.full(2000, 0.1), src, src + 1, McConfig(seed=1, reps=1024)))
        assert peak <= self.CHUNK + arrival + 0.25 * self.CHUNK

    @pytest.mark.parametrize("frozen", [False, True], ids=["redrawn", "frozen"])
    @pytest.mark.parametrize("n", [2000, 10**6])
    def test_noniid_peak_per_repetition(self, n, frozen):
        """1024 repetitions at delta_mu = 0.2 hold, per repetition, a
        block's words (raw and as uniforms, 3R of each, 2R when frozen)
        and its log u, 1 - u, quantiles and values (R each); frozen, R = 8
        and the shuffles' table of 2R positions, keys and values.  Measured
        630 bytes per repetition (redrawn) and 1,680 (frozen) at both n;
        bound 1,024 and 2,560.  The frozen row adds 32 bytes per component:
        its 2n words, raw and as uniforms, then the n means and deviations.
        Holding the chunk's n quantile uniforms, as the sampler once did,
        is 8n bytes per repetition."""
        non_iid_experiment((30,), McConfig(seed=1, reps=1), delta_mu=0.2,
                           freeze_deviations=frozen)
        peak = traced_peak(lambda: non_iid_experiment(
            (n,), McConfig(seed=1, reps=1024), delta_mu=0.2, freeze_deviations=frozen))
        assert peak <= 1024 * (2560 if frozen else 1024) + (32 * n if frozen else 0)


class TestEmpiricalStats:
    def test_constant_samples(self):
        res = empirical_stats([1.0, 1.0, 1.0, 1.0])
        assert res.mean == 1.0
        assert res.std == 0.0

    def test_two_point_histogram(self):
        res = empirical_stats([0.0, 1.0])
        edges, counts = _histogram(res.samples)
        np.testing.assert_array_equal(counts, [1, 1])
        assert edges[0] == 0.0 and edges[-1] == 1.0

    def test_large_normal_sample(self):
        u = (rep_rng(99, 0, 100_000).integers(0, 2**53, size=100_000, dtype=np.uint64)
             + 0.5) * 2.0**-53
        res = empirical_stats(std_normal_quantile(u))
        assert abs(res.mean) < 0.01
        assert abs(res.std - 1.0) < 0.01

    def test_mean_recomputable(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(size=1000)
        res = empirical_stats(samples)
        assert res.mean == pytest.approx(
            float(np.sum(samples)) / samples.size, abs=1e-12
        )

    def test_default_bins_are_freedman_diaconis(self):
        samples = np.random.default_rng(4).gumbel(size=10_000)
        counts, edges = np.histogram(samples, bins="fd")
        hist = _histogram(empirical_stats(samples).samples)
        np.testing.assert_array_equal(hist[0], edges)
        np.testing.assert_array_equal(hist[1], counts)

    def test_iqr_has_the_bits_of_np_percentile(self):
        rng = np.random.default_rng(26)
        for size in [*range(1, 40), 1023, 1024, 1025, 99_999]:
            for samples in (rng.gumbel(size=size), rng.integers(-2, 3, size) * 0.5,
                            np.full(size, -0.0), 1e300 * rng.standard_normal(size)):
                expected = np.subtract(*np.percentile(samples, [75, 25]))
                assert _iqr(samples).view(np.int64) == expected.view(np.int64), size

    @pytest.mark.parametrize("size", [2, 3, 17, 1000, 10_001])
    def test_bins_are_numpys_freedman_diaconis_bit_for_bit(self, size):
        samples = np.random.default_rng(size).gumbel(size=size)
        samples[: size // 3] = np.round(samples[: size // 3], 1)  # ties
        counts, edges = np.histogram(samples, bins="fd")
        hist = _histogram(empirical_stats(samples).samples)
        np.testing.assert_array_equal(hist[0].view(np.int64), edges.view(np.int64))
        np.testing.assert_array_equal(hist[1], counts, strict=True)

    def test_near_constant_sample_with_outlier_falls_back_to_sturges(self):
        rng = np.random.default_rng(0)
        samples = np.append(1.0 + 1e-7 * rng.standard_normal(10_000), 2.0)
        iqr = np.subtract(*np.percentile(samples, [75, 25]))
        fd_bins = np.ceil(np.ptp(samples) / (2.0 * iqr * samples.size ** (-1 / 3)))
        assert fd_bins > 1000 * _MAX_BINS
        edges, counts = _histogram(empirical_stats(samples).samples)
        sturges = int(np.ceil(np.log2(samples.size))) + 1
        assert len(counts) == sturges
        assert counts.sum() == samples.size
        assert edges[0] == samples.min() and edges[-1] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            empirical_stats([])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match=r"samples must be finite \(1 of 3 "):
            empirical_stats([0.0, bad, 1.0])


class TestNonIidExperiment:
    def test_validation(self):
        cfg = McConfig(seed=1)
        with pytest.raises(DomainError):
            non_iid_experiment((10,), cfg, sigma=0.5, delta_sigma=0.9)
        with pytest.raises(DomainError):
            non_iid_experiment((), cfg)
        with pytest.raises(DomainError):
            non_iid_experiment((10,), cfg, delta_mu=-0.1)

    def test_iid_baseline_matches_exact_law(self):
        grid = (10, 100, 1000)
        results = non_iid_experiment(grid, McConfig(seed=101, reps=10_000))
        for n, res in zip(grid, results):
            exact_mean, _ = exact_iid_max_moments(n)
            assert abs(res.mean - exact_mean) < 3.0 * res.stderr

    def test_sigma_deviations_keep_std_monotone(self):
        results = non_iid_experiment(
            (10, 50, 100, 500), McConfig(seed=303, reps=10_000), delta_sigma=0.2
        )
        stds = [res.std for res in results]
        assert all(a > b for a, b in zip(stds, stds[1:]))

    def test_mu_deviations_scale_curve(self):
        grid = (10, 100)
        cfg = McConfig(seed=404, reps=5000)
        base = non_iid_experiment(grid, cfg)
        shifted = non_iid_experiment(grid, cfg, delta_mu=0.2)
        for b, s in zip(base, shifted):
            offset = s.mean - b.mean
            assert 0.0 <= offset <= 0.2 + 3.0 * np.sqrt(
                (b.std * b.std + s.std * s.std) / 5000
            )

    def test_freeze_flag_changes_protocol_not_shape(self):
        cfg = McConfig(seed=55, reps=2000)
        [res] = non_iid_experiment((20,), cfg, delta_mu=0.3, freeze_deviations=True)
        assert res.samples.shape == (2000,)
        [again] = non_iid_experiment((20,), cfg, delta_mu=0.3, freeze_deviations=True)
        assert np.array_equal(res.samples, again.samples)

    @staticmethod
    def _check_full(grid, workers, frozen, reps=1100, mu=0.0, sigma=1.0,
                    delta_mu=0.0, delta_sigma=0.0):
        """Every maximum equals that of all n components of its
        repetition's streams (``noniid_full_maxima``), evaluated without
        the stop, over more than one chunk; grid point k reads its own
        streams."""
        seed = 2**64 - 9
        block = corrmax.montecarlo._FROZEN_BLOCK_STATS if frozen else \
            corrmax.montecarlo._BLOCK_STATS
        results = non_iid_experiment(
            grid, McConfig(seed=seed, reps=reps, workers=workers), mu=mu, sigma=sigma,
            delta_mu=delta_mu, delta_sigma=delta_sigma, freeze_deviations=frozen)
        for k, (n, res) in enumerate(zip(grid, results)):
            full = noniid_full_maxima(seed, reps, n, block, k, mu=mu, sigma=sigma,
                                      delta_mu=delta_mu, delta_sigma=delta_sigma,
                                      frozen=frozen)
            np.testing.assert_array_equal(res.samples, full)

    def test_frozen_deviations_match_per_repetition_streams(self):
        self._check_full((7,), 1, True, reps=40, delta_mu=0.3, delta_sigma=0.2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_frozen_deviations_match_across_blocks_and_chunks(self, workers):
        """n = 300 at a spread where most repetitions run through many
        blocks of the shuffles, in two chunks."""
        self._check_full((300,), workers, True, delta_mu=5.0, delta_sigma=0.99)

    @pytest.mark.parametrize("n, mu, sigma, delta_mu, delta_sigma", [
        (1, 0.0, 1.0, 0.2, 0.0),
        (2, 0.0, 1.0, 0.5, 0.3),
        (40, 0.0, 1.0, 5.0, 0.5),  # most components can hold the maximum
        (40, 0.0, 1.0, 0.2, 0.99),  # sigma - delta_sigma near 0
        (40, -3e5, 1e-3, 2e-4, 5e-4),  # the bound and the maximum a few ulps apart
        (5, 0.0, 1.0, 0.2, 0.0),  # one block past n
        (1000, 0.0, 1.0, 0.2, 0.0),  # rows stop after a block or two
        (1000, 0.0, 1.0, 5.0, 0.99),  # rows run through tens of blocks
    ])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_redrawn_deviations_match_per_repetition_streams(
        self, n, mu, sigma, delta_mu, delta_sigma, workers
    ):
        self._check_full((3, n), workers, False, mu=mu, sigma=sigma,
                         delta_mu=delta_mu, delta_sigma=delta_sigma)

    @pytest.mark.parametrize("frozen", [False, True], ids=["redrawn", "frozen"])
    @pytest.mark.parametrize("n", [1000, 10**6])
    def test_words_drawn_per_repetition(self, monkeypatch, frozen, n):
        """At delta_mu = 0.2 a repetition needs about 3 order statistics,
        and each block draws 3R words (2R frozen) for the span of the rows
        still running.  Measured 29 words per repetition (18 frozen) at
        n = 1000, where the full evaluation drew 3n (n frozen); bound four
        blocks' words at both n.  The frozen row is one draw of 2n."""
        draws = []
        chunk_uniforms = corrmax.montecarlo._chunk_uniforms

        def recorded(seed, start, stop, width, stream=0):
            draws.append((stop - start) * width)
            return chunk_uniforms(seed, start, stop, width, stream)

        monkeypatch.setattr(corrmax.montecarlo, "_chunk_uniforms", recorded)
        non_iid_experiment((n,), McConfig(seed=3, reps=2048), delta_mu=0.2,
                           freeze_deviations=frozen)
        block = (2 * corrmax.montecarlo._FROZEN_BLOCK_STATS if frozen
                 else 3 * corrmax.montecarlo._BLOCK_STATS)
        assert sum(draws) - (2 * n if frozen else 0) <= 4 * block * 2048

    def test_frozen_deviations_match_over_chunks(self):
        self._check_full((300,), 2, True, delta_mu=1.0, delta_sigma=0.5)

    def test_quantile_runs_only_on_candidates(self, monkeypatch):
        """The quantile sees a block of order statistics per running row,
        not the 1000 components."""
        sizes = []

        def counted(p):
            sizes.append(np.size(p))
            return _ndtri(p)

        monkeypatch.setattr(corrmax.montecarlo, "_ndtri", counted)
        cfg = McConfig(seed=1, reps=1024)
        non_iid_experiment((1000,), cfg, delta_mu=0.2)
        assert 0 < sum(sizes) < 10 * cfg.reps

    @pytest.mark.parametrize("frozen", [False, True], ids=["redrawn", "frozen"])
    def test_one_component_per_repetition_at_n_1(self, monkeypatch, frozen):
        sizes = []

        def counted(p):
            sizes.append(np.size(p))
            return _ndtri(p)

        monkeypatch.setattr(corrmax.montecarlo, "_ndtri", counted)
        non_iid_experiment((1,), McConfig(seed=4, reps=2500), delta_mu=0.3,
                           freeze_deviations=frozen)
        assert sum(sizes) == 2500

    def test_workers_do_not_change_results(self):
        base = non_iid_experiment(
            (30,), McConfig(seed=66, reps=3000), delta_sigma=0.1
        )
        par = non_iid_experiment(
            (30,), McConfig(seed=66, reps=3000, workers=6), delta_sigma=0.1
        )
        assert np.array_equal(base[0].samples, par[0].samples)

    @pytest.mark.parametrize("frozen", [False, True], ids=["redrawn", "frozen"])
    @pytest.mark.parametrize("n", [10, 1000, 10**5])
    @pytest.mark.parametrize("delta_mu, delta_sigma", [(0.0, 0.0), (0.2, 0.1), (5.0, 0.99)])
    def test_mean_within_4_se_of_the_exact_law(self, n, delta_mu, delta_sigma, frozen):
        """10,000 repetitions at one seed: each of these 18 checks fails a
        correct sampler with probability 6.3e-5 (|Z| > 4), about 1.1e-3
        for the whole set."""
        seed = 31
        [res] = non_iid_experiment((n,), McConfig(seed=seed, reps=10_000), delta_mu=delta_mu,
                                   delta_sigma=delta_sigma, freeze_deviations=frozen)
        if frozen:
            mean, _ = noniid_frozen_exact_moments(n, seed, delta_mu=delta_mu,
                                                  delta_sigma=delta_sigma)
        else:
            mean, _ = noniid_exact_moments(n, delta_mu=delta_mu, delta_sigma=delta_sigma)
        assert abs(res.mean - mean) <= 4.0 * res.stderr

    def test_the_largest_n(self):
        """n = 2**53, far past any row of n words: a repetition still needs
        a few order statistics, and the mean lies within 4 SE of the exact
        law (a false alarm has probability 6.3e-5)."""
        [res] = non_iid_experiment((2**53,), McConfig(seed=23, reps=2000), delta_mu=0.2)
        mean, _ = noniid_exact_moments(2**53, delta_mu=0.2)
        assert abs(res.mean - mean) <= 4.0 * res.stderr

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_no_spread_ecdf_in_the_dkw_band_of_the_iid_law(self, n):
        """At delta_mu = delta_sigma = 0 the maximum's law is Phi^n; the
        band's confidence is 1 - 1e-4 per n."""
        [res] = non_iid_experiment((n,), McConfig(seed=17, reps=10_000))
        z = np.sort(res.samples)
        cdf = iid_max_cdf(z, n)
        above = np.arange(1, z.size + 1) / z.size - cdf
        below = cdf - np.arange(z.size) / z.size
        assert max(above.max(), below.max()) <= dkw_band_halfwidth(z.size, 1.0 - 1e-4)


class TestNonIidExactLaw:
    """The oracles ``noniid_exact_moments`` and ``noniid_frozen_exact_moments``
    against independent ones."""

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_no_spread_is_the_iid_law(self, n):
        expected = exact_iid_max_moments(n)
        for got in (noniid_exact_moments(n), noniid_frozen_exact_moments(n, seed=5)):
            np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_no_deviation_spread_equals_nested_quadrature(self, n):
        """delta_mu = 0.2: 1 - G(x) = (1/2) int Phi(0.2 xi - x) dxi by
        ``quad``, and the moments of G^n by ``quad`` over [-5, 12]."""
        def tail(x):
            return integrate.quad(lambda xi: special.ndtr(0.2 * xi - x), -1.0, 1.0,
                                  epsabs=0.0, epsrel=1e-13)[0] / 2.0

        def survival(x):
            return -math.expm1(n * math.log1p(-tail(x)))

        quad = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
        m1 = integrate.quad(survival, -5.0, 12.0, **quad)[0]
        m2 = 2.0 * integrate.quad(lambda x: (x + 5.0) * survival(x), -5.0, 12.0, **quad)[0]
        expected = (-5.0 + m1, math.sqrt(m2 - m1 * m1))
        np.testing.assert_allclose(noniid_exact_moments(n, delta_mu=0.2), expected,
                                   rtol=0.0, atol=1e-9)

    def test_frozen_law_is_the_product_over_the_frozen_row(self):
        """n = 3: the moments of prod_i Phi((x - mu_i)/sigma_i) by ``quad``,
        with the row read from repetition 0 of stream 2 as three mean
        words, then three deviation words."""
        u = open_uniform(rep_rng(8, 0, 6, stream=2), 6)
        mu_i, sigma_i = 0.5 * (2.0 * u[:3] - 1.0), 1.0 + 0.4 * (2.0 * u[3:] - 1.0)

        def survival(x):
            return 1.0 - np.prod(special.ndtr((x - mu_i) / sigma_i))

        quad = dict(epsabs=1e-13, epsrel=1e-13, limit=200)
        m1 = integrate.quad(survival, -10.0, 12.0, **quad)[0]
        m2 = 2.0 * integrate.quad(lambda x: (x + 10.0) * survival(x), -10.0, 12.0, **quad)[0]
        got = noniid_frozen_exact_moments(3, seed=8, delta_mu=0.5, delta_sigma=0.4)
        np.testing.assert_allclose(got, (-10.0 + m1, math.sqrt(m2 - m1 * m1)),
                                   rtol=0.0, atol=1e-9)


class TestHelpers:
    def test_width_bound(self):
        """A uniform buffer, min(reps, 1024) rows, may hold 2**27 floats;
        checked without allocating anything."""
        assert _MAX_CHUNK_FLOATS == 2**27
        _check_width(10**6, 2**17)
        _check_width(3, 2**27 // 3)
        with pytest.raises(DomainError, match="a buffer of 1024 x 131073 "):
            _check_width(10**6, 2**17 + 1)
        with pytest.raises(DomainError, match="a buffer of 3 x 44739243 "):
            _check_width(3, 2**27 // 3 + 1)

    def test_width_bound_covers_the_frozen_row(self, monkeypatch):
        """With one repetition, the frozen deviations' row of 2n is the widest
        buffer; a small cap shows it is checked."""
        monkeypatch.setattr(corrmax.montecarlo, "_MAX_CHUNK_FLOATS", 100)
        cfg = McConfig(seed=1, reps=1)
        non_iid_experiment((50,), cfg, freeze_deviations=True)
        with pytest.raises(DomainError, match="a buffer of 1 x 102 "):
            non_iid_experiment((51,), cfg, freeze_deviations=True)

    def test_dkw_band(self):
        # closed form: sqrt(ln(2/alpha) / (2n))
        assert dkw_band_halfwidth(10_000, 0.99) == pytest.approx(
            np.sqrt(np.log(200.0) / 20_000.0), rel=1e-12
        )
        with pytest.raises(DomainError):
            dkw_band_halfwidth(0)
        with pytest.raises(DomainError):
            dkw_band_halfwidth(10, confidence=1.0)

    def test_stats_roundtrip(self):
        res = empirical_stats([0.5, 1.5, 2.5, 3.5])
        d = _stats_dict(res)
        assert d["count"] == 4
        assert d["mean"] == pytest.approx(2.0)
        assert sum(d["histogram"]["counts"]) == 4
