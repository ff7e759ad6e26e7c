"""Timing-graph ingestion and the shared-edge path covariance pipeline.

A timing graph is a DAG whose edges carry independent normal delays
(mu_e, sigma_e).  The accumulated delay of a source-to-sink path is normal
with mean sum(mu_e) and std sqrt(sum(sigma_e^2)); two paths correlate
through their shared edges:

    cov[i][j] = sum_{e in path_i & path_j} sigma_e^2 / (std_i * std_j)

which for a homogeneous (mu, sigma) graph reduces to
|shared edges| / sqrt(L_i * L_j).  The resulting unit-diagonal matrix feeds
the corrected maximum distributions.  The Monte Carlo oracle samples edge
delays and takes the longest path through the DAG: the exact law of the
maximum path delay, at O(reps * edges) cost.

A graph may have several sources and sinks; no virtual node joins them, so
paths, lengths and stream columns all refer to the graph as given.  The
``PathSet`` of ``enumerate_paths`` keeps that graph and owns the path means
and stds that ``graph paths``, ``cov`` and ``analyze`` all read; the
covariance divides by exactly those stds, the report's ``path_stds``.  An
overflowing path is a ``DomainError`` (exit 2).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corrections import (
    ValidityReport,
    corrected_law,
    validity_check,
    _MAX_GRID_POINTS,
)
from .errors import (
    CycleError,
    DomainError,
    DuplicateEdgeError,
    ParseError,
    PathExplosionError,
)
from .gumbel import GumbelParams, gumbel_moments, scaling_constants
from .montecarlo import _MAX_CHUNK_FLOATS, McConfig, McResult, sample_dag_max
from .normal import std_normal_cdf, std_normal_pdf

__all__ = [
    "Edge",
    "TimingGraph",
    "PathSet",
    "GraphAnalysis",
    "parse_graph",
    "load_graph",
    "enumerate_paths",
    "path_covariance",
    "graph_delay_analysis",
    "DEFAULT_PATH_CAP",
]

DEFAULT_PATH_CAP = 10_000

# Rows of the path covariance divided at once by their denominators.
_COV_ROWS = 64


@dataclass(frozen=True)
class Edge:
    """Directed edge with a normal delay (mu, sigma)."""

    src: str
    dst: str
    mu: float
    sigma: float


@dataclass(frozen=True)
class TimingGraph:
    """Directed acyclic graph with delay-carrying edges, given by its edges.

    ``nodes`` are the edge endpoints in topological order: Kahn's algorithm
    over the endpoints in first-appearance order, ready nodes taken last in
    first out.  Edge k runs from node ``src[k]`` to node ``dst[k]``, so
    ``src[k] < dst[k]``.  Construction rejects self-loops, duplicate
    (src, dst) pairs, non-finite or negative delay parameters, and cycles.
    """

    edges: tuple[Edge, ...]
    nodes: tuple[str, ...] = field(init=False)
    src: np.ndarray = field(init=False, repr=False, compare=False)
    dst: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        seen = set()
        for e in self.edges:
            if e.src == e.dst:
                raise DomainError(f"self-loop on node {e.src!r} is not allowed")
            if (e.src, e.dst) in seen:
                raise DuplicateEdgeError(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
            if not (np.isfinite(e.mu) and np.isfinite(e.sigma)):
                raise DomainError(f"edge {e.src}->{e.dst} has non-finite delay")
            if e.mu < 0.0 or e.sigma < 0.0:
                raise DomainError(f"edge {e.src}->{e.dst} has negative mu or sigma")
        succs = {v: [] for v in chain.from_iterable((e.src, e.dst) for e in self.edges)}
        indeg = dict.fromkeys(succs, 0)
        for e in self.edges:
            indeg[e.dst] += 1
            succs[e.src].append(e.dst)
        ready = [v for v in indeg if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != len(indeg):
            raise CycleError("edge set contains a directed cycle")
        rank = {v: i for i, v in enumerate(order)}
        src = np.array([rank[e.src] for e in self.edges], dtype=int)
        dst = np.array([rank[e.dst] for e in self.edges], dtype=int)
        # The instance is frozen: its derived fields are set once, here.
        object.__setattr__(self, "nodes", tuple(order))
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)


@dataclass(frozen=True)
class PathSet:
    """Source-to-sink paths of ``graph``, as indices into
    ``graph.edges``, with each path's delay mean and std, summed once and
    left to right, as Python's ``sum`` would, over the columns of ``_index``:
    the paths padded to P x Lmax with index E, a zero edge.  A path whose
    mean or variance overflows raises ``DomainError``.
    """

    graph: TimingGraph
    paths: tuple[tuple[int, ...], ...]
    _index: np.ndarray = field(init=False, repr=False, compare=False)
    means: np.ndarray = field(init=False, repr=False, compare=False)
    stds: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        edges, width = self.graph.edges, max(self.lengths)
        index = np.array([p + (len(edges),) * (width - len(p)) for p in self.paths])
        per_edge = np.array([[e.mu for e in edges] + [0.0],
                             [e.sigma * e.sigma for e in edges] + [0.0]])
        sums = np.zeros((2, self.n_paths))
        with np.errstate(over="ignore"):
            for column in index.T:
                sums += per_edge[:, column]
        bad = np.flatnonzero(~np.isfinite(sums).all(axis=0))
        if bad.size:
            raise DomainError(
                f"path {bad[0]}: accumulated delay mean or variance overflows")
        # The instance is frozen: its derived fields are set once, here.
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "means", sums[0])
        object.__setattr__(self, "stds", np.sqrt(sums[1]))

    @property
    def n_paths(self) -> int:
        return len(self.paths)

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(map(len, self.paths))

    def node_sequence(self, i: int) -> list[str]:
        edges = [self.graph.edges[e] for e in self.paths[i]]
        return [edges[0].src] + [e.dst for e in edges]


def parse_graph(text: str) -> TimingGraph:
    """Parse a timing graph from edge-list text or its JSON mirror.

    Text format: ``#`` comment lines, otherwise whitespace-separated
    ``FROM TO MU SIGMA`` with MU >= 0 and SIGMA >= 0.  JSON format:
    ``{"edges": [{"from":, "to":, "mu":, "sigma":}, ...]}``.
    """
    if text.lstrip().startswith("{"):
        edge_list = _json_edge_list(text)
    else:
        edge_list = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            tokens = line.split()
            if len(tokens) != 4:
                raise ParseError(
                    f"line {lineno}: expected 'FROM TO MU SIGMA', got {line!r}"
                )
            try:
                mu, sigma = float(tokens[2]), float(tokens[3])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad number in {line!r}") from exc
            edge_list.append(
                _checked_edge(f"line {lineno}", tokens[0], tokens[1], mu, sigma)
            )
    if not edge_list:
        raise ParseError("no edges found in graph input")
    return TimingGraph(tuple(edge_list))


def _json_edge_list(text: str) -> list[Edge]:
    """Checked edges of a JSON graph document; edge K is ``edges[K]``.

    Names must be JSON strings and delays JSON numbers; every number reads
    as a float, so an integer too large for one is infinite.
    """
    try:
        fields = [(e["from"], e["to"], e["mu"], e["sigma"])
                  for e in json.loads(text, parse_int=float)["edges"]]
    except (json.JSONDecodeError, KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"malformed JSON graph document: {exc}") from exc
    return [_checked_edge(f"edge {k}", *e) for k, e in enumerate(fields)]


def _checked_edge(where: str, src, dst, mu, sigma) -> Edge:
    """The edge, or ParseError prefixed with its location: names must be
    strings and delays floats, finite and >= 0."""
    if not (isinstance(src, str) and isinstance(dst, str)):
        raise ParseError(f"{where}: FROM and TO must be strings")
    if not (isinstance(mu, float) and isinstance(sigma, float)):
        raise ParseError(f"{where}: MU and SIGMA must be numbers")
    if src == dst:
        raise ParseError(f"{where}: self-loop on node {src!r}")
    if not (np.isfinite(mu) and np.isfinite(sigma)) or mu < 0 or sigma < 0:
        raise ParseError(f"{where}: MU and SIGMA must be finite and >= 0")
    return Edge(src, dst, mu, sigma)


def load_graph(path) -> TimingGraph:
    """Read and parse a graph file; one that cannot be read as text is a
    ``ParseError`` that names it."""
    try:
        with open(path, "r") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read graph file {path}: {exc}") from exc
    return parse_graph(text)


def enumerate_paths(g: TimingGraph, cap: int = DEFAULT_PATH_CAP) -> PathSet:
    """All paths of ``g``, which the result keeps, from a source to a node
    with no outgoing edge: depth first from each source, sources and
    neighbors in identifier order, so the result is stable across runs and
    input orderings.

    Raises:
        PathExplosionError: once more than ``cap`` paths have been found.
    """
    if cap < 1:
        raise DomainError(f"cap must be >= 1 (got {cap})")
    if not g.edges:
        raise DomainError("graph has no edges")

    succs: dict[str, list[tuple[str, int]]] = {v: [] for v in g.nodes}
    for idx, e in enumerate(g.edges):
        succs[e.src].append((e.dst, idx))
    for v in succs:
        succs[v].sort(key=lambda pair: pair[0])

    # Iterative DFS: timing graphs can be thousands of levels deep, which
    # would overflow the interpreter recursion limit.  The bottom iterator
    # runs over the sources' edges, one source after another.
    paths: list[tuple[int, ...]] = []
    edge_stack: list[int] = []
    sources = sorted(set(g.nodes).difference(e.dst for e in g.edges))
    iter_stack = [chain.from_iterable(succs[v] for v in sources)]
    while iter_stack:
        try:
            nxt, edge_idx = next(iter_stack[-1])
        except StopIteration:
            iter_stack.pop()
            if edge_stack:
                edge_stack.pop()
            continue
        edge_stack.append(edge_idx)
        if not succs[nxt]:
            if len(paths) >= cap:
                raise PathExplosionError(cap=cap, count=len(paths) + 1)
            paths.append(tuple(edge_stack))
            edge_stack.pop()
        else:
            iter_stack.append(iter(succs[nxt]))
    return PathSet(graph=g, paths=tuple(paths))


def path_covariance(ps: PathSet) -> np.ndarray:
    """Correlation matrix of standardized path delays via shared edges.

    Entry (i, j) is the shared edge variance over ``ps.stds[i] * ps.stds[j]``;
    a path with zero total variance correlates with nothing and keeps a
    unit diagonal by convention.
    """
    if ps.n_paths**2 > _MAX_CHUNK_FLOATS:  # before anything P x P is allocated
        raise DomainError(
            f"path covariance too large: {ps.n_paths} x {ps.n_paths} entries exceed the "
            f"cap of {_MAX_CHUNK_FLOATS} floats; keep --cap at most "
            f"{math.isqrt(_MAX_CHUNK_FLOATS)}"
        )
    sigmas = np.array([e.sigma for e in ps.graph.edges] + [0.0])
    if ps.n_paths * len(sigmas) > _MAX_CHUNK_FLOATS:  # before the P x (E + 1) weights
        raise DomainError(
            f"path covariance too large: {ps.n_paths} paths x {len(sigmas)} weights "
            f"each exceed the cap of {_MAX_CHUNK_FLOATS} floats; keep --cap at most "
            f"{_MAX_CHUNK_FLOATS // len(sigmas)}"
        )
    weights = np.zeros((ps.n_paths, len(sigmas)))
    np.put_along_axis(weights, ps._index, sigmas[ps._index], axis=1)
    weights = weights[:, :-1]  # drop the padding edge
    gram = weights @ weights.T
    # Divided in row blocks, so no P x P matrix of denominators is held.
    # Where denom is 0 the path has only zero-sigma edges: its gram row is +0.0.
    for a in range(0, ps.n_paths, _COV_ROWS):
        rows = gram[a : a + _COV_ROWS]
        denom = np.outer(ps.stds[a : a + _COV_ROWS], ps.stds)
        np.divide(rows, denom, out=rows, where=denom > 0.0)
    np.fill_diagonal(gram, 1.0)
    return gram


@dataclass(frozen=True)
class GraphAnalysis:
    """Full report of the path-based maximum-delay analysis.

    Its fields are the keys of the ``graph analyze`` report.
    """

    n_paths: int
    lengths: tuple[int, ...]
    path_means: np.ndarray
    path_stds: np.ndarray
    covariance: np.ndarray
    s: float
    order: str
    nominal_mean: float
    nominal_std: float
    gumbel: GumbelParams | None
    z: np.ndarray
    cdf: np.ndarray
    pdf: np.ndarray
    validity: ValidityReport | None
    analytic_mean: float
    mc: McResult
    mc_mean_gap: float


def _analytic_mean_std_units(params: GumbelParams, s: float, order: str) -> float:
    """Mean of the corrected law by trapezoid quadrature on a wide grid."""
    lo = params.alpha - 12.0 * params.beta
    hi = params.alpha + 40.0 * params.beta
    z = np.linspace(lo, hi, 20_001)
    _, pdf = corrected_law(z, params, s, order)
    return float(np.trapezoid(z * pdf, z))


def graph_delay_analysis(
    g: TimingGraph,
    cfg: McConfig,
    order: str = "second",
    cap: int = DEFAULT_PATH_CAP,
    z_steps: int = 501,
) -> GraphAnalysis:
    """Run the whole pipeline: paths, covariance, corrected law, MC oracle.

    The analytic distribution treats standardized path delays as an
    IID-with-weak-correlations set at the scale of the critical path
    (largest mean; ties broken by larger std).  The Monte Carlo oracle
    samples every edge delay and takes the longest source-to-sink path
    through the DAG, so its samples follow the exact law of the maximum of
    the correlated path delays; the gap to the analytic mean quantifies the
    approximation error.
    """
    if z_steps < 2:
        raise DomainError(f"z_steps must be >= 2 (got {z_steps})")
    if z_steps > _MAX_GRID_POINTS:
        raise DomainError(f"z_steps must be <= {_MAX_GRID_POINTS} (got {z_steps})")
    ps = enumerate_paths(g, cap=cap)
    cov = path_covariance(ps)
    n_paths = ps.n_paths
    mu_star, sigma_star = max(zip(ps.means.tolist(), ps.stds.tolist()))

    if n_paths == 1:
        z = np.linspace(mu_star - 8.0 * sigma_star, mu_star + 8.0 * sigma_star, z_steps) \
            if sigma_star > 0 else np.linspace(mu_star - 1.0, mu_star + 1.0, z_steps)
        if sigma_star > 0:
            zs = (z - mu_star) / sigma_star
            cdf = std_normal_cdf(zs)
            pdf = std_normal_pdf(zs) / sigma_star
        else:
            cdf = (z >= mu_star).astype(float)
            pdf = np.zeros_like(z)
        s_val, params, validity, analytic_mean = 0.0, None, None, mu_star
    else:
        if sigma_star <= 0.0:
            raise DomainError("critical path has zero delay variance")
        # Summing with the diagonal zeroed, not sum(cov) - P, keeps S bit for
        # bit equal to the sum over the epsilon matrix.  The entries are
        # >= 0, so the max is max |eps|.
        np.fill_diagonal(cov, 0.0)
        s_val = float(np.sum(cov))
        max_abs_eps = float(np.max(cov))
        np.fill_diagonal(cov, 1.0)
        params = scaling_constants(n_paths)
        moments = gumbel_moments(params)
        z_std = np.linspace(
            moments.mean - 6.0 * moments.std, moments.mean + 8.0 * moments.std, z_steps
        )
        cdf, pdf = corrected_law(z_std, params, s_val, order)
        validity = validity_check(z_std, cdf, pdf, max_abs_eps)
        pdf /= sigma_star
        analytic_mean = mu_star + sigma_star * _analytic_mean_std_units(
            params, s_val, order
        )
        z = mu_star + sigma_star * z_std

    # Sample last, so that input the checks above reject costs no MC.
    # Stream column k feeds edge k of the graph.
    mc = sample_dag_max(
        [e.mu for e in g.edges], [e.sigma for e in g.edges], g.src, g.dst, cfg)
    return GraphAnalysis(
        n_paths=n_paths, lengths=ps.lengths, path_means=ps.means, path_stds=ps.stds,
        covariance=cov, s=s_val, order=order,
        nominal_mean=mu_star, nominal_std=sigma_star, gumbel=params,
        z=z, cdf=cdf, pdf=pdf, validity=validity, analytic_mean=analytic_mean,
        mc=mc, mc_mean_gap=float(mc.mean - analytic_mean),
    )
