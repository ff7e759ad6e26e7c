"""Tests for timing-graph parsing, enumeration, and path covariance."""
from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corrmax import (
    CycleError,
    DomainError,
    DuplicateEdgeError,
    Edge,
    McConfig,
    ParseError,
    PathExplosionError,
    PathSet,
    TimingGraph,
    enumerate_paths,
    graph_delay_analysis,
    load_graph,
    parse_graph,
    path_covariance,
    sample_dag_max,
    std_normal_quantile,
)
from corrmax.montecarlo import _chunk_uniforms
from conftest import cascade64_text, path_moments_reference

# Unit-diagonal covariance of the four paths of the shared-edge example
# graph, in the order (1-2-4-6-7, 1-2-4-3-5-6-7, 1-2-4-5-6-7, 1-3-5-6-7).
REFERENCE_COV = np.array([
    [1.0, 3.0 / (2.0 * np.sqrt(6.0)), 3.0 / (2.0 * np.sqrt(5.0)), 0.25],
    [3.0 / (2.0 * np.sqrt(6.0)), 1.0, 4.0 / np.sqrt(30.0),
     3.0 / (2.0 * np.sqrt(6.0))],
    [3.0 / (2.0 * np.sqrt(5.0)), 4.0 / np.sqrt(30.0), 1.0,
     1.0 / np.sqrt(5.0)],
    [0.25, 3.0 / (2.0 * np.sqrt(6.0)), 1.0 / np.sqrt(5.0), 1.0],
])

REFERENCE_NODE_SEQS = [
    ["1", "2", "4", "6", "7"],
    ["1", "2", "4", "3", "5", "6", "7"],
    ["1", "2", "4", "5", "6", "7"],
    ["1", "3", "5", "6", "7"],
]


def reference_permutation(ps: PathSet) -> list[int]:
    """Index of each reference path inside the enumerated PathSet."""
    seqs = [ps.node_sequence(i) for i in range(ps.n_paths)]
    return [seqs.index(ref) for ref in REFERENCE_NODE_SEQS]


class TestTimingGraph:
    @pytest.mark.parametrize("edges, message", [
        ((Edge("a", "a", 1.0, 0.1),), "self-loop on node 'a'"),
        ((Edge("a", "b", 1.0, np.nan),), "edge a->b has non-finite delay"),
        ((Edge("a", "b", -1.0, 0.1),), "edge a->b has negative mu or sigma"),
    ], ids=["self_loop", "non_finite", "negative"])
    def test_constructor_rejects(self, edges, message):
        """The parsers reject these inputs first; the constructor checks
        them again for graphs built directly."""
        with pytest.raises(DomainError, match=message):
            TimingGraph(edges)

    def test_nodes_are_numbered_in_kahn_order(self):
        """Kahn's algorithm over the endpoints in first-appearance order
        (a, c, b, d): of the ready a and b, the last, b, comes first."""
        g = TimingGraph((Edge("a", "c", 1.0, 0.1), Edge("b", "c", 1.0, 0.1),
                         Edge("c", "d", 1.0, 0.1)))
        assert g.nodes == ("b", "a", "c", "d")
        assert g.src.tolist() == [1, 0, 2]
        assert g.dst.tolist() == [2, 2, 3]

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_numbering_of_random_dags(self, data):
        """On a random DAG, named at random and with its edges shuffled, the
        numbering runs every edge forward between its own endpoints, the MC
        oracle reads it as the path enumeration does, and a reversed edge
        closes a cycle."""
        names = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=2,
                                   max_size=7, unique=True))
        pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        delays = st.floats(0.0, 4.0)
        edges = tuple(Edge(a, b, data.draw(delays), data.draw(delays))
                      for a, b in data.draw(st.permutations(chosen)))
        g = TimingGraph(edges)
        assert np.all(g.src < g.dst)
        assert [(g.nodes[i], g.nodes[j]) for i, j in zip(g.src, g.dst)] == \
               [(e.src, e.dst) for e in edges]
        assert set(g.nodes) == {v for e in edges for v in (e.src, e.dst)}
        assert len(g.nodes) == len(set(g.nodes))
        mu, sigma = _edge_params(g)
        mc = sample_dag_max(mu, sigma, g.src, g.dst, McConfig(seed=7, reps=64))
        np.testing.assert_array_equal(mc.samples, _enumerated_max(g, 7, 64))

        back = data.draw(st.sampled_from(edges))
        with pytest.raises(CycleError):
            TimingGraph(edges + (Edge(back.dst, back.src, 1.0, 0.1),))


class TestParseGraph:
    def test_two_edge_chain(self):
        g = parse_graph("a b 1.0 0.1\nb c 1.0 0.1\n")
        assert g.nodes == ("a", "b", "c")
        assert len(g.edges) == 2

    def test_comments_and_blank_lines(self):
        g = parse_graph("# header\n\na b 1 0.5\n# tail\n")
        assert len(g.edges) == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("a a 1 0.1\n")

    @pytest.mark.parametrize("bad", [
        "a b 1\n", "a b one 0.1\n", "a b 1 0.1 extra\n",
        "a b -1 0.1\n", "a b 1 -0.1\n", "a b inf 0.1\n", "",
        '{"edges": [{"from": "a", "to": "a", "mu": 1, "sigma": 0.1}]}',
        '{"edges": [{"from": "a", "to": "b", "mu": 1, "sigma": -0.1}]}',
        '{"edges": [{"from": "a", "to": "b", "mu": Infinity, "sigma": 0.1}]}',
    ])
    def test_malformed_lines(self, bad):
        with pytest.raises(ParseError):
            parse_graph(bad)

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            parse_graph("a b 1 0.1\na b 2 0.2\n")

    def test_cycle(self):
        with pytest.raises(CycleError):
            parse_graph("a b 1 0.1\nb c 1 0.1\nc a 1 0.1\n")

    def test_reference_graph_file(self, graphs_dir):
        g = load_graph(graphs_dir / "shared_nodes_7.txt")
        assert len(g.nodes) == 7
        assert len(g.edges) == 9

    def test_json_variant(self):
        doc = {"edges": [
            {"from": "a", "to": "b", "mu": 1.0, "sigma": 0.1},
            {"from": "b", "to": "c", "mu": 2.0, "sigma": 0.2},
        ]}
        g = parse_graph(json.dumps(doc))
        assert g.nodes == ("a", "b", "c")
        assert g.edges[1].mu == 2.0

    def test_json_malformed(self):
        with pytest.raises(ParseError):
            parse_graph('{"edges": [{"from": "a"}]}')
        with pytest.raises(ParseError):
            parse_graph('{"nodes": []}')


class TestEnumeratePaths:
    def test_single_edge(self):
        g = parse_graph("a b 1 0.1\n")
        ps = enumerate_paths(g)
        assert ps.paths == ((0,),)
        assert ps.lengths == (1,)

    def test_diamond(self, graphs_dir):
        ps_g = load_graph(graphs_dir / "diamond.txt")
        ps = enumerate_paths(ps_g)
        assert ps.n_paths == 2
        assert ps.lengths == (2, 2)

    def test_reference_graph_paths(self, graphs_dir):
        g = load_graph(graphs_dir / "shared_nodes_7.txt")
        ps = enumerate_paths(g)
        assert ps.n_paths == 4
        assert sorted(ps.lengths) == [4, 4, 5, 6]
        seqs = [ps.node_sequence(i) for i in range(4)]
        for ref in REFERENCE_NODE_SEQS:
            assert ref in seqs

    def test_order_independent_of_edge_listing(self, graphs_dir):
        text = (graphs_dir / "shared_nodes_7.txt").read_text()
        lines = [l for l in text.splitlines() if l and not l.startswith("#")]
        g1 = parse_graph("\n".join(lines))
        g2 = parse_graph("\n".join(reversed(lines)))
        ps1, ps2 = enumerate_paths(g1), enumerate_paths(g2)
        assert [ps1.node_sequence(i) for i in range(4)] == \
               [ps2.node_sequence(i) for i in range(4)]

    def test_cap_explosion(self):
        g = parse_graph(cascade64_text())
        with pytest.raises(PathExplosionError) as exc:
            enumerate_paths(g, cap=10)
        assert exc.value.cap == 10
        assert exc.value.count == 11

    def test_edgeless_graph_rejected(self):
        with pytest.raises(DomainError, match="graph has no edges"):
            enumerate_paths(TimingGraph(()))

    def test_several_sources_and_sinks_as_given(self):
        """Two sources and two sinks: paths run from each source to each
        sink over the graph's own edges, and the path set keeps the graph."""
        g = parse_graph("a m 1 0.2\nb m 1 0.3\nm x 1 0.1\nm y 1 0.4\n")
        ps = enumerate_paths(g)
        assert ps.graph is g
        assert ps.paths == ((0, 2), (0, 3), (1, 2), (1, 3))
        assert ps.lengths == (2, 2, 2, 2)
        assert [ps.node_sequence(i) for i in range(4)] == [
            ["a", "m", "x"], ["a", "m", "y"], ["b", "m", "x"], ["b", "m", "y"]]

    def test_reserved_looking_names_are_ordinary_nodes(self):
        g = parse_graph("__source__ t 1 0.1\nb t 1 0.1\nt __sink__ 1 0.1\n")
        ps = enumerate_paths(g)
        assert [ps.node_sequence(i) for i in range(2)] == [
            ["__source__", "t", "__sink__"], ["b", "t", "__sink__"]]
        assert ps.lengths == (2, 2)


class TestAccumulatedDelayParams:
    def test_reference_path_values(self, graphs_dir):
        g = load_graph(graphs_dir / "shared_nodes_7.txt")
        ps = enumerate_paths(g)
        perm = reference_permutation(ps)
        mu, sigma = 1.0, 0.1
        expected = [
            (4 * mu, 2 * sigma),
            (6 * mu, np.sqrt(6) * sigma),
            (5 * mu, np.sqrt(5) * sigma),
            (4 * mu, 2 * sigma),
        ]
        for ref_idx, (em, es) in zip(perm, expected):
            mean, std = ps.means[ref_idx], ps.stds[ref_idx]
            assert mean == pytest.approx(em, rel=1e-14)
            assert std == pytest.approx(es, rel=1e-14)

    def test_zero_delay_edge(self):
        ps = enumerate_paths(parse_graph("s t 0 0\n"))
        assert ps.means.tolist() == [0.0] and ps.stds.tolist() == [0.0]

    def test_heterogeneous_edges(self):
        ps = enumerate_paths(parse_graph("s a 1 0.3\na t 2 0.4\n"))
        assert ps.means.tolist() == [3.0]
        assert ps.stds[0] == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("name", [
        "shared_nodes_7", "diamond", "block8", "cascade64",
    ])
    def test_equal_python_sums_left_to_right(self, graphs_dir, name):
        ps = enumerate_paths(load_graph(graphs_dir / f"{name}.txt"))
        means, stds = path_moments_reference(ps)
        np.testing.assert_array_equal(ps.means, means)
        np.testing.assert_array_equal(ps.stds, stds)


class TestPathCovariance:
    def test_reference_matrix(self, graphs_dir):
        g = load_graph(graphs_dir / "shared_nodes_7.txt")
        ps = enumerate_paths(g)
        pc = path_covariance(ps)
        perm = reference_permutation(ps)
        got = pc[np.ix_(perm, perm)]
        np.testing.assert_allclose(got, REFERENCE_COV, rtol=0, atol=1e-12)

    def test_edge_disjoint_identity(self, graphs_dir):
        g = load_graph(graphs_dir / "diamond.txt")
        pc = path_covariance(enumerate_paths(g))
        np.testing.assert_array_equal(pc, np.eye(2))

    def test_duplicated_path_full_correlation(self):
        g = parse_graph("a b 1 0.1\nb c 1 0.1\n")
        ps = PathSet(graph=g, paths=((0, 1), (0, 1)))
        pc = path_covariance(ps)
        assert pc[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_entries_in_unit_interval_and_psd(self, graphs_dir):
        for name in ("shared_nodes_7.txt", "block8.txt", "cascade64.txt"):
            g = load_graph(graphs_dir / name)
            pc = path_covariance(enumerate_paths(g))
            assert np.all(pc >= 0.0) and np.all(pc <= 1.0)
            np.testing.assert_array_equal(np.diag(pc), 1.0)
            assert np.linalg.eigvalsh(pc)[0] > -1e-10

    def test_heterogeneous_shared_edge(self):
        g = parse_graph(
            "s a 1 0.3\na b 1 0.4\na c 1 0.2\nb t 1 0.1\nc t 1 0.5\n"
        )
        ps = enumerate_paths(g)
        pc = path_covariance(ps)
        # both paths share only the s->a edge
        var1 = 0.3**2 + 0.4**2 + 0.1**2
        var2 = 0.3**2 + 0.2**2 + 0.5**2
        expected = 0.3**2 / np.sqrt(var1 * var2)
        assert pc[0, 1] == pytest.approx(expected, rel=1e-12)

    def test_zero_variance_path_uncorrelated(self):
        g = parse_graph("s a 1 0\na t 1 0\ns b 1 0.1\nb t 1 0.1\n")
        ps = enumerate_paths(g)
        pc = path_covariance(ps)
        np.testing.assert_array_equal(np.diag(pc), 1.0)
        assert pc[0, 1] == 0.0

    def test_brute_force_edge_noise_oracle(self, graphs_dir):
        """Analytic entries match the covariance of simulated standardized
        path sums over shared edge noise."""
        g = load_graph(graphs_dir / "shared_nodes_7.txt")
        ps = enumerate_paths(g)
        pc = path_covariance(ps)
        rng = np.random.default_rng(5)
        sigmas = np.array([e.sigma for e in g.edges])
        stds = ps.stds
        weights = np.zeros((ps.n_paths, len(g.edges)))
        for i, path in enumerate(ps.paths):
            weights[i, list(path)] = sigmas[list(path)] / stds[i]
        xi = rng.standard_normal((50_000, len(g.edges)))
        eps_draws = xi @ weights.T
        estimate = eps_draws.T @ eps_draws / xi.shape[0]
        assert np.max(np.abs(estimate - pc)) < 0.02


class TestGraphDelayAnalysis:
    def test_reference_graph_report(self, graphs_dir):
        g = load_graph(graphs_dir / "shared_nodes_7.txt")
        analysis = graph_delay_analysis(
            g, McConfig(seed=4, reps=4000), order="second"
        )
        assert analysis.n_paths == 4
        assert sorted(analysis.path_means.tolist()) == [4.0, 4.0, 5.0, 6.0]
        assert analysis.nominal_mean == 6.0
        assert analysis.nominal_std == pytest.approx(np.sqrt(6) * 0.1, rel=1e-12)
        assert analysis.s == pytest.approx(
            float(np.sum(analysis.covariance) - 4.0), abs=1e-12
        )
        # MC truth: the longest path dominates, so the mean sits near 6
        assert 5.9 < analysis.mc.mean < 6.3
        assert np.isfinite(analysis.mc_mean_gap)
        gap = analysis.mc.mean - analysis.analytic_mean
        assert analysis.mc_mean_gap.hex() == gap.hex()  # bit for bit
        assert analysis.validity is not None
        assert len(analysis.z) == len(analysis.cdf) == len(analysis.pdf)

    def test_single_path_bypasses_corrections(self):
        g = parse_graph("a b 1 0.1\nb c 1 0.1\n")
        analysis = graph_delay_analysis(g, McConfig(seed=6, reps=4000))
        assert analysis.n_paths == 1
        assert analysis.gumbel is None and analysis.validity is None
        assert analysis.analytic_mean == 2.0
        assert abs(analysis.mc.mean - 2.0) < 3.0 * analysis.mc.stderr
        # CDF is the path's normal law
        mid = np.searchsorted(analysis.z, 2.0)
        assert analysis.cdf[mid] == pytest.approx(0.5, abs=0.01)

        # A zero-variance path: the law is a step at its mean.
        step = graph_delay_analysis(parse_graph("a b 1 0\n"), McConfig(seed=6, reps=100))
        assert step.n_paths == 1
        assert step.gumbel is None and step.validity is None
        np.testing.assert_array_equal(step.cdf, (step.z >= 1.0).astype(float))
        assert step.cdf[0] == 0.0 and step.cdf[-1] == 1.0
        np.testing.assert_array_equal(step.pdf, np.zeros_like(step.z))
        assert step.analytic_mean == 1.0
        assert step.mc_mean_gap == 0.0

    def test_cascade_block_structure(self):
        g = parse_graph(cascade64_text())
        analysis = graph_delay_analysis(
            g, McConfig(seed=8, reps=2000), order="complete"
        )
        assert analysis.n_paths == 64
        assert analysis.lengths == (8,) * 64
        ps = enumerate_paths(g)
        m = analysis.covariance
        # homogeneous length-8 paths: every entry is |shared edges| / 8
        for i in range(0, 64, 9):
            for j in range(0, 64, 7):
                shared = len(set(ps.paths[i]) & set(ps.paths[j]))
                assert m[i, j] == pytest.approx(shared / 8.0, abs=1e-12)

    def test_explosion_propagates(self):
        g = parse_graph(cascade64_text())
        with pytest.raises(PathExplosionError):
            graph_delay_analysis(g, McConfig(seed=1, reps=10), cap=8)

    @pytest.mark.parametrize("text", [
        cascade64_text(),
        # s-a-t has zero variance; s-b-t and s-b-c-t share the edge s->b.
        "s a 1 0\na t 1 0\ns b 1 0.1\nb t 1 0.1\nb c 1 0.1\nc t 0.5 0.1\n",
    ])
    def test_s_and_max_eps_equal_zero_diagonal_copy(self, text):
        """The covariance equals the masked quotient of the Gram matrix by
        the report's own path stds, and S and max |eps| equal, bit for bit,
        the sum and the max of |.| over a zero-diagonal copy of it."""
        g = parse_graph(text)
        analysis = graph_delay_analysis(g, McConfig(seed=3, reps=10))
        cov = analysis.covariance
        np.testing.assert_array_equal(np.diag(cov), 1.0)

        ps = enumerate_paths(g)
        sigmas = np.array([e.sigma for e in g.edges])
        weights = np.zeros((ps.n_paths, len(g.edges)))
        for i, path in enumerate(ps.paths):
            weights[i, list(path)] = sigmas[list(path)]
        gram = weights @ weights.T
        denom = np.outer(analysis.path_stds, analysis.path_stds)
        with np.errstate(invalid="ignore", divide="ignore"):
            ref = np.where(denom > 0.0, gram / np.where(denom > 0, denom, 1.0), 0.0)
        np.fill_diagonal(ref, 1.0)
        np.testing.assert_array_equal(cov, ref)

        eps = cov.copy()
        np.fill_diagonal(eps, 0.0)
        assert analysis.s == float(np.sum(eps))
        assert analysis.validity.max_abs_eps == float(np.max(np.abs(eps)))
        assert analysis.s > 0.0

    @pytest.mark.parametrize("text", [
        "s m 1 0.5\nm a 1 0\nm b 1 0\na t 1 0\nb t 1 0\n",  # |eps| = 1
        "s a 1 0\na t 1 0\ns b 1 0\nb t 1 0\n",  # zero variance
    ])
    def test_rejects_before_sampling(self, monkeypatch, text):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before the input was checked")

        monkeypatch.setattr("corrmax.timing_graph.sample_dag_max", no_sampling)
        with pytest.raises(DomainError):
            graph_delay_analysis(parse_graph(text), McConfig(seed=1, reps=400_000))


def _edge_params(g: TimingGraph) -> tuple[np.ndarray, np.ndarray]:
    mu = np.array([e.mu for e in g.edges])
    sigma = np.array([e.sigma for e in g.edges])
    return mu, sigma


def _enumerated_max(g: TimingGraph, seed: int, reps: int) -> np.ndarray:
    """Max over enumerated paths of the left-to-right sums of the edge delays
    that the stream gives the graph's edges (column k, edge k)."""
    ps = enumerate_paths(g)
    mu, sigma = _edge_params(g)
    d = mu + sigma * std_normal_quantile(_chunk_uniforms(seed, 0, reps, len(mu)))
    sums = [np.add.accumulate(d[:, list(p)], axis=1)[:, -1] for p in ps.paths]
    return np.max(sums, axis=0)


class TestGraphMonteCarlo:
    @pytest.mark.parametrize("name", [
        "shared_nodes_7", "diamond", "block8", "cascade64",
    ])
    def test_equals_max_over_enumerated_paths(self, graphs_dir, name):
        g = load_graph(graphs_dir / f"{name}.txt")
        mc = graph_delay_analysis(g, McConfig(seed=13, reps=2500)).mc
        np.testing.assert_array_equal(mc.samples, _enumerated_max(g, 13, 2500))

    @pytest.mark.parametrize("text", [
        "a t 1 0.1\nb t 1 0.1\n",
        "a c 1 0.1\nb c 1.2 0.2\nc d 0.5 0.1\nc e 0.7 0.3\n",
        "s a 1 0.2\ns b 1.1 0.3\na x 1 0.1\na y 0.9 0.4\nb y 1 0.25\n",
    ], ids=["two_sources", "two_by_two", "two_sinks"])
    def test_stream_column_k_feeds_edge_k_of_the_graph(self, text):
        g = parse_graph(text)
        mc = graph_delay_analysis(g, McConfig(seed=17, reps=1500)).mc
        np.testing.assert_array_equal(mc.samples, _enumerated_max(g, 17, 1500))

    def test_workers_do_not_change_samples(self):
        g = parse_graph(cascade64_text())
        r1 = graph_delay_analysis(g, McConfig(seed=19, reps=2500, workers=1)).mc
        r2 = graph_delay_analysis(g, McConfig(seed=19, reps=2500, workers=2)).mc
        np.testing.assert_array_equal(r1.samples, r2.samples)

    def test_law_matches_independent_path_sampler(self):
        """Edge normals from another generator, summed per enumerated path
        by a matrix product: two-sample KS distance within the 99% band."""
        reps = 10_000
        g = parse_graph(cascade64_text())
        mc = graph_delay_analysis(g, McConfig(seed=23, reps=reps)).mc
        mu, sigma = _edge_params(g)
        incidence = np.zeros((64, len(mu)))
        for i, path in enumerate(enumerate_paths(g).paths):
            incidence[i, list(path)] = 1.0
        rng = np.random.default_rng(29)
        d = mu + sigma * rng.standard_normal((reps, len(mu)))
        ref = np.sort((d @ incidence.T).max(axis=1))
        ecdf = np.sort(mc.samples)
        grid = np.concatenate([ecdf, ref])
        ks = np.max(np.abs(
            np.searchsorted(ecdf, grid, side="right") / reps
            - np.searchsorted(ref, grid, side="right") / reps
        ))
        assert ks < 1.628 * np.sqrt(2.0 / reps)
