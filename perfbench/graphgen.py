"""Seeded timing-graph generator for the benchmark.

A cascade of ``stages`` binary fan-out/merge stages runs from node ``s``
through layers of two nodes to node ``t``: the first stage fans out to two
nodes, every middle stage joins both nodes of one layer to both nodes of the
next, and the last stage merges into ``t``.  It has 2^(stages-1) source-to-sink
paths and 4*stages - 4 edges; stages=2 is a diamond, stages=4 the eight-path
block and stages=11 the 1024-path ``graph_cascade`` input.

Each edge gets mu ~ U(0.8, 1.2) and sigma ~ U(0.05, 0.15) from the caller's
``random.Random``, so the critical path is unique with probability one.
"""
from __future__ import annotations

import random
from pathlib import Path


def _delay(rng: random.Random) -> tuple[float, float]:
    # Six decimals keep the file readable; every consumer parses the text.
    return round(rng.uniform(0.8, 1.2), 6), round(rng.uniform(0.05, 0.15), 6)


def cascade_edges(stages: int, rng: random.Random) -> list[tuple[str, str, float, float]]:
    """Edges (src, dst, mu, sigma) of a ``stages``-stage binary cascade."""
    if stages < 2:
        raise ValueError(f"stages must be >= 2 (got {stages})")
    edges = []
    prev = ["s"]
    for k in range(1, stages):
        layer = [f"L{k:02d}_0", f"L{k:02d}_1"]
        edges += [(u, v, *_delay(rng)) for u in prev for v in layer]
        prev = layer
    edges += [(u, "t", *_delay(rng)) for u in prev]
    return edges


def shared_nodes_edges(rng: random.Random) -> list[tuple[str, str, float, float]]:
    """The seven-node, four-path graph whose paths share nodes and edges."""
    pairs = [(1, 2), (1, 3), (2, 4), (4, 3), (3, 5), (4, 5), (4, 6), (5, 6), (6, 7)]
    return [(str(u), str(v), *_delay(rng)) for u, v in pairs]


def write_graph(path: Path, edges) -> None:
    """Write the edge-list text format ``FROM TO MU SIGMA``."""
    path.write_text("".join(f"{u} {v} {mu!r} {sigma!r}\n" for u, v, mu, sigma in edges))


def read_graph(path: Path) -> list[tuple[str, str, float, float]]:
    """Parse the edge-list text format, as written by ``write_graph``."""
    edges = []
    for line in Path(path).read_text().splitlines():
        if line.strip() and not line.lstrip().startswith("#"):
            u, v, mu, sigma = line.split()
            edges.append((u, v, float(mu), float(sigma)))
    return edges


def _topological(edges) -> list[str]:
    nodes = list(dict.fromkeys(x for u, v, *_ in edges for x in (u, v)))
    indeg = dict.fromkeys(nodes, 0)
    for _, v, *_ in edges:
        indeg[v] += 1
    order, ready = [], [x for x in nodes if indeg[x] == 0]
    while ready:
        x = ready.pop()
        order.append(x)
        for u, v, *_ in edges:
            if u == x:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
    return order


def path_count(edges) -> int:
    """Number of source-to-sink paths, by dynamic programming."""
    order = _topological(edges)
    count = dict.fromkeys(order, 0)
    count[order[0]] = 1
    for x in order:
        for u, v, *_ in edges:
            if u == x:
                count[v] += count[x]
    return count[order[-1]]


def longest_mean(edges) -> float:
    """Largest path mean, by dynamic programming over a topological order.

    Each path's mean is summed from the source outwards, and rounding is
    monotone, so this equals the largest of the per-path left-to-right sums.
    """
    order = _topological(edges)
    best = {order[0]: 0.0}
    for x in order:
        for u, v, mu, _ in edges:
            if u == x:
                cand = best[x] + mu
                if v not in best or cand > best[v]:
                    best[v] = cand
    return best[order[-1]]
