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

Only ``enumerate_paths`` normalizes a graph.  Its ``PathSet`` keeps that
graph and owns the path means and stds that ``graph paths``, ``cov`` and
``analyze`` all read; the covariance divides by exactly those stds, the
report's ``path_stds``.  An overflowing path is a ``DomainError`` (exit 2).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corrections import (
    ValidityReport,
    corrected_cdf,
    corrected_pdf,
    validity_check,
)
from .errors import (
    CycleError,
    DomainError,
    DuplicateEdgeError,
    ParseError,
    PathExplosionError,
)
from .gumbel import GumbelParams, gumbel_moments, scaling_constants
from .montecarlo import McConfig, McResult, sample_dag_max
from .normal import std_normal_cdf, std_normal_pdf

__all__ = [
    "Edge",
    "TimingGraph",
    "PathSet",
    "GraphAnalysis",
    "parse_graph",
    "load_graph",
    "normalize_source_sink",
    "enumerate_paths",
    "path_covariance",
    "graph_delay_analysis",
    "DEFAULT_PATH_CAP",
]

DEFAULT_PATH_CAP = 10_000


@dataclass(frozen=True)
class Edge:
    """Directed edge with a normal delay (mu, sigma)."""

    src: str
    dst: str
    mu: float
    sigma: float


@dataclass(frozen=True)
class TimingGraph:
    """Directed acyclic graph with delay-carrying edges.

    Nodes are kept in first-appearance order; construction rejects
    self-loops, duplicate (src, dst) pairs, negative delay parameters,
    and cycles.
    """

    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise DomainError("node names must be unique")
        seen = set()
        for e in self.edges:
            if e.src not in known or e.dst not in known:
                raise DomainError(f"edge {e.src}->{e.dst} references unknown node")
            if e.src == e.dst:
                raise DomainError(f"self-loop on node {e.src!r} is not allowed")
            if (e.src, e.dst) in seen:
                raise DuplicateEdgeError(f"duplicate edge {e.src}->{e.dst}")
            seen.add((e.src, e.dst))
            if not (np.isfinite(e.mu) and np.isfinite(e.sigma)):
                raise DomainError(f"edge {e.src}->{e.dst} has non-finite delay")
            if e.mu < 0.0 or e.sigma < 0.0:
                raise DomainError(
                    f"edge {e.src}->{e.dst} has negative mu or sigma"
                )
        self._topological_order()

    @classmethod
    def from_edge_list(cls, edge_list) -> "TimingGraph":
        """Build from (src, dst, mu, sigma) tuples, nodes in file order."""
        nodes: list[str] = []
        seen_nodes = set()
        edges = []
        for src, dst, mu, sigma in edge_list:
            for name in (str(src), str(dst)):
                if name not in seen_nodes:
                    seen_nodes.add(name)
                    nodes.append(name)
            edges.append(Edge(str(src), str(dst), float(mu), float(sigma)))
        return cls(nodes=tuple(nodes), edges=tuple(edges))

    def _topological_order(self) -> list[str]:
        """Kahn's order of the nodes; raises CycleError on a cycle."""
        indeg = {v: 0 for v in self.nodes}
        succs: dict[str, list[str]] = {v: [] for v in self.nodes}
        for e in self.edges:
            indeg[e.dst] += 1
            succs[e.src].append(e.dst)
        ready = [v for v in self.nodes if indeg[v] == 0]
        order = []
        while ready:
            v = ready.pop()
            order.append(v)
            for w in succs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    ready.append(w)
        if len(order) != len(self.nodes):
            raise CycleError("edge set contains a directed cycle")
        return order

    def sources(self) -> list[str]:
        with_indeg = {e.dst for e in self.edges}
        return [v for v in self.nodes if v not in with_indeg]

    def sinks(self) -> list[str]:
        with_outdeg = {e.src for e in self.edges}
        return [v for v in self.nodes if v not in with_outdeg]


@dataclass(frozen=True)
class PathSet:
    """Source-to-sink paths of a normalized graph, as indices into
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
    return TimingGraph.from_edge_list(edge_list)


def _json_edge_list(text: str) -> list[tuple[str, str, float, float]]:
    """Checked edges of a JSON graph document; edge K is ``edges[K]``."""
    try:
        edge_list = [
            (str(e["from"]), str(e["to"]), float(e["mu"]), float(e["sigma"]))
            for e in json.loads(text)["edges"]
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed JSON graph document: {exc}") from exc
    return [_checked_edge(f"edge {k}", *e) for k, e in enumerate(edge_list)]


def _checked_edge(
    where: str, src: str, dst: str, mu: float, sigma: float
) -> tuple[str, str, float, float]:
    """The edge as a tuple, or ParseError prefixed with its location."""
    if src == dst:
        raise ParseError(f"{where}: self-loop on node {src!r}")
    if not (np.isfinite(mu) and np.isfinite(sigma)) or mu < 0 or sigma < 0:
        raise ParseError(f"{where}: MU and SIGMA must be finite and >= 0")
    return src, dst, mu, sigma


def load_graph(path) -> TimingGraph:
    """Read and parse a graph file."""
    with open(path, "r") as fh:
        return parse_graph(fh.read())


def _fresh_name(base: str, taken) -> str:
    name = base
    while name in taken:
        name += "_"
    return name


def normalize_source_sink(g: TimingGraph) -> TimingGraph:
    """Ensure a single source and a single sink.

    Multiple zero-in-degree (zero-out-degree) nodes are joined to one
    virtual source (sink) through zero-delay edges.  Already-normalized
    graphs are returned unchanged, so the transform is idempotent.
    """
    sources = g.sources()
    sinks = g.sinks()
    if len(sources) == 1 and len(sinks) == 1:
        return g
    nodes = list(g.nodes)
    edges = list(g.edges)
    taken = set(nodes)
    if len(sources) > 1:
        virtual = _fresh_name("__source__", taken)
        taken.add(virtual)
        nodes.insert(0, virtual)
        edges = [Edge(virtual, s, 0.0, 0.0) for s in sources] + edges
    if len(sinks) > 1:
        virtual = _fresh_name("__sink__", taken)
        taken.add(virtual)
        nodes.append(virtual)
        edges = edges + [Edge(t, virtual, 0.0, 0.0) for t in sinks]
    return TimingGraph(nodes=tuple(nodes), edges=tuple(edges))


def enumerate_paths(g: TimingGraph, cap: int = DEFAULT_PATH_CAP) -> PathSet:
    """All source-to-sink paths of ``normalize_source_sink(g)``, which the
    result keeps, depth first with neighbors in identifier order, so the
    result is stable across runs and input orderings.

    Raises:
        PathExplosionError: once more than ``cap`` paths have been found.
    """
    if cap < 1:
        raise DomainError(f"cap must be >= 1 (got {cap})")
    if not g.edges:
        raise DomainError("graph has no edges")
    g = normalize_source_sink(g)
    [source], [sink] = g.sources(), g.sinks()

    succs: dict[str, list[tuple[str, int]]] = {v: [] for v in g.nodes}
    for idx, e in enumerate(g.edges):
        succs[e.src].append((e.dst, idx))
    for v in succs:
        succs[v].sort(key=lambda pair: pair[0])

    # Iterative DFS: timing graphs can be thousands of levels deep, which
    # would overflow the interpreter recursion limit.
    paths: list[tuple[int, ...]] = []
    edge_stack: list[int] = []
    iter_stack = [iter(succs[source])]
    while iter_stack:
        try:
            nxt, edge_idx = next(iter_stack[-1])
        except StopIteration:
            iter_stack.pop()
            if edge_stack:
                edge_stack.pop()
            continue
        edge_stack.append(edge_idx)
        if nxt == sink:
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
    denom = np.outer(ps.stds, ps.stds)
    sigmas = np.array([e.sigma for e in ps.graph.edges] + [0.0])
    weights = np.zeros((ps.n_paths, len(sigmas)))
    np.put_along_axis(weights, ps._index, sigmas[ps._index], axis=1)
    weights = weights[:, :-1]  # drop the padding edge
    gram = weights @ weights.T
    matrix = np.divide(gram, denom, out=np.zeros_like(gram), where=denom > 0.0)
    np.fill_diagonal(matrix, 1.0)
    return matrix


@dataclass(frozen=True)
class GraphAnalysis:
    """Full report of the path-based maximum-delay analysis."""

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
    z_grid: np.ndarray
    cdf: np.ndarray
    pdf: np.ndarray
    validity: ValidityReport | None
    analytic_mean: float
    mc: McResult

    @property
    def mc_mean_gap(self) -> float:
        return float(self.mc.mean - self.analytic_mean)


def _analytic_mean_std_units(params: GumbelParams, s: float, order: str) -> float:
    """Mean of the corrected law by trapezoid quadrature on a wide grid."""
    lo = params.alpha - 12.0 * params.beta
    hi = params.alpha + 40.0 * params.beta
    z = np.linspace(lo, hi, 20_001)
    return float(np.trapezoid(z * corrected_pdf(z, params, s, order), z))


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
        cdf = corrected_cdf(z_std, params, s_val, order)
        pdf = corrected_pdf(z_std, params, s_val, order) / sigma_star
        validity = validity_check(params, s_val, max_abs_eps, z_std, order=order)
        analytic_mean = mu_star + sigma_star * _analytic_mean_std_units(
            params, s_val, order
        )
        z = mu_star + sigma_star * z_std

    # Sample last, so that input the checks above reject costs no MC.
    # Stream column k feeds edge k of the normalized graph.
    norm = ps.graph
    position = {v: i for i, v in enumerate(norm._topological_order())}
    mc = sample_dag_max(
        [e.mu for e in norm.edges], [e.sigma for e in norm.edges],
        [position[e.src] for e in norm.edges], [position[e.dst] for e in norm.edges],
        cfg,
    )
    return GraphAnalysis(
        n_paths=n_paths, lengths=ps.lengths, path_means=ps.means, path_stds=ps.stds,
        covariance=cov, s=s_val, order=order,
        nominal_mean=mu_star, nominal_std=sigma_star, gumbel=params,
        z_grid=z, cdf=cdf, pdf=pdf,
        validity=validity, analytic_mean=analytic_mean, mc=mc,
    )
