"""Seeded Monte Carlo sampling of correlated Gaussian maxima.

Reproducibility contract: repetition r draws from a Philox counter-based
stream that is a pure function of (seed, r), so results are bitwise
identical for any worker count or chunking.  ``rep_rng`` and
``_open_uniform`` are the reference definition of that stream.  The
samplers read it through ``_chunk_uniforms``, which builds one Philox per
chunk of repetitions and sets its counter to each repetition's start in
turn, collecting the raw words of 64 repetitions before it converts them
to uniforms in one vectorized step; its output is bitwise equal to the
per-repetition definition.  Normal variates are ``std_normal_quantile``
(``ndtri``) of open-interval uniforms, the same inverse CDF the analytic
layer uses for its scaling constants.  A rho-sweep uses common random
numbers: each chunk's normals are drawn once, and a single AR(1)
recurrence advances up to 64 rho points at a time on them as one
(points x chunk) block, with the same per-element operations as one
chain at a time.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EmptyInput
from .normal import std_normal_quantile

__all__ = [
    "McConfig",
    "McResult",
    "rep_rng",
    "sample_max_sweep",
    "sample_dag_max",
    "empirical_stats",
    "non_iid_experiment",
]

# Fixed work-unit size so chunking never depends on the worker count.
_CHUNK_REPS = 1024

# Rows of raw Philox words that _chunk_uniforms converts at once.
_ROW_BLOCK = 64

# Most rho points that share one block recurrence; caps its buffers at
# 3 * _RHO_GROUP * _CHUNK_REPS floats per thread whatever the sweep length.
_RHO_GROUP = 64

# Above this many Freedman-Diaconis bins (a near-constant sample beside one
# outlier asks for tens of millions) the default histogram uses Sturges.
_MAX_BINS = 10_000


@dataclass(frozen=True)
class McConfig:
    """Repetition count, seed, and worker count for a Monte Carlo run."""

    seed: int
    reps: int = 10_000
    workers: int = 1

    def __post_init__(self):
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1 (got {self.reps})")
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1 (got {self.workers})")


@dataclass(frozen=True)
class McResult:
    """Maximum samples plus summary statistics.

    ``histogram`` is an equal-width (bin_edges, counts) pair.
    """

    samples: np.ndarray
    mean: float
    std: float
    histogram: tuple[np.ndarray, np.ndarray]

    @property
    def stderr(self) -> float:
        return float(self.std / np.sqrt(len(self.samples)))


def rep_rng(seed: int, rep: int, stream: int = 0) -> np.random.Generator:
    """Generator for one repetition: a pure function of (seed, rep, stream)."""
    counter = (int(stream) << 192) | (int(rep) << 128)
    return np.random.Generator(np.random.Philox(key=int(seed), counter=counter))


def _open_uniform(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms strictly inside (0, 1), safe for the inverse-CDF transform."""
    return (rng.integers(0, 2**53, size=size, dtype=np.uint64) + 0.5) * 2.0**-53


def _chunk_uniforms(seed: int, start: int, stop: int, width: int,
                    stream: int = 0) -> np.ndarray:
    """Open uniforms of repetitions [start, stop), one row each.

    Row r - start equals ``_open_uniform(rep_rng(seed, r, stream), width)``
    bit for bit.  Repetition r's stream starts at counter
    ``(stream << 192) | (r << 128)`` and uses ceil(width/4) four-word
    blocks, so one Philox serves the chunk: before each row its state is
    reset to a fresh Philox's, empty buffer included, with the counter's
    third word set to r.  Raw words collect in ``_ROW_BLOCK`` rows and are
    converted one row block at a time.
    """
    words = 4 * -(-width // 4)
    bitgen = np.random.Philox(key=int(seed), counter=int(stream) << 192)
    state = bitgen.state
    counter = state["state"]["counter"]
    u = np.empty((stop - start, width), dtype=float)
    raw = np.empty((min(_ROW_BLOCK, stop - start), words), dtype=np.uint64)
    for a in range(start, stop, _ROW_BLOCK):
        block = raw[: min(_ROW_BLOCK, stop - a)]
        for i in range(len(block)):
            counter[2] = a + i
            bitgen.state = state
            block[i] = bitgen.random_raw(words)
        # integers(0, 2**53) on a 64-bit word is the word's top 53 bits.
        block >>= 11
        u[a - start : a - start + len(block)] = block[:, :width]
    u += 0.5
    u *= 2.0**-53
    return u


def _thread_count(workers: int, chunks: int) -> int:
    """Threads worth starting: no more than requested, CPUs, or chunks."""
    return max(1, min(workers, os.cpu_count() or 1, chunks))


def _run_chunked(reps: int, workers: int, fill) -> None:
    """Call ``fill(start, stop)`` for every chunk of repetitions.

    ``fill`` must write the results of repetitions [start, stop) into its
    caller's arrays using only per-repetition streams, which keeps them
    independent of the execution order and of the thread count.  Overflow
    stays inf or nan, without numpy's warnings, for ``empirical_stats``.
    """
    def quiet_fill(a, b):  # in the chunk's thread: np.errstate is per thread
        with np.errstate(over="ignore", invalid="ignore"):
            fill(a, b)

    chunks = [(a, min(a + _CHUNK_REPS, reps)) for a in range(0, reps, _CHUNK_REPS)]
    threads = _thread_count(workers, len(chunks))
    if threads == 1:
        for a, b in chunks:
            quiet_fill(a, b)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for f in [pool.submit(quiet_fill, a, b) for a, b in chunks]:
                f.result()


def sample_max_sweep(n: int, rhos, cfg: McConfig, sigma: float = 1.0) -> list[McResult]:
    """Maxima of ``cfg.reps`` AR(1) chains of length ``n`` for every rho in
    ``rhos``.

    The chain is X_0 = sigma*Y_0, X_{i+1} = rho*X_i + sigma*sqrt(1-rho^2)*Y_{i+1}
    with IID standard normal Y_i.  Marginals are exactly N(0, sigma^2) and
    the lag-d correlation is rho^d, so the implied covariance
    sigma^2 * rho^|i-j| is positive semidefinite for any rho in [0, 1].

    All points share the seed, so they share their normals (common random
    numbers): each chunk's normals are drawn once, and one recurrence runs
    on a (points x chunk) block, ``_RHO_GROUP`` points at a time.  Entry k
    equals ``sample_max_sweep(n, [rhos[k]], cfg, sigma)[0]``.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"n must be an integer >= 1 (got {n!r})")
    if not (sigma > 0.0 and np.isfinite(sigma)):
        raise DomainError(f"sigma must be positive (got {sigma})")
    for r in rhos:
        if not (0.0 <= r <= 1.0):
            raise DomainError(f"rho must lie in [0, 1] (got {r})")
    rho = np.array(rhos, dtype=float)
    c = sigma * np.sqrt(1.0 - rho * rho)
    maxima = np.empty((len(rho), cfg.reps), dtype=float)

    def fill(start, stop):
        # Row i of z holds step i of every repetition's chain.
        z = std_normal_quantile(_chunk_uniforms(cfg.seed, start, stop, n)).T
        shape = (min(_RHO_GROUP, len(rho)), stop - start)
        x_buf, step_buf, max_buf = np.empty(shape), np.empty(shape), np.empty(shape)
        for g in range(0, len(rho), _RHO_GROUP):
            rho_g, c_g = rho[g : g + _RHO_GROUP, None], c[g : g + _RHO_GROUP, None]
            x, step, running_max = (buf[: len(rho_g)] for buf in (x_buf, step_buf, max_buf))
            np.multiply(sigma, z[0], out=x)
            running_max[:] = x
            for zi in z[1:]:
                x *= rho_g
                np.multiply(c_g, zi, out=step)
                x += step
                np.maximum(running_max, x, out=running_max)
            maxima[g : g + len(rho_g), start:stop] = running_max

    _run_chunked(cfg.reps, cfg.workers, fill)
    return [empirical_stats(row) for row in maxima]


def sample_dag_max(mu, sigma, src, dst, cfg: McConfig) -> McResult:
    """Longest source-to-sink path delays of a DAG with independent normal
    edge delays.

    Edge k runs from node ``src[k]`` to node ``dst[k]`` with delay
    N(mu[k], sigma[k]^2).  Nodes are numbered in a topological order of a
    graph with one source and one sink, so ``src[k] < dst[k]``, node 0 is
    the source and the highest-numbered node is the sink.  Column k of
    ``_chunk_uniforms`` feeds edge k.  Arrival times start at 0 at the
    source, and edges are relaxed in order of their source node, which
    costs O(reps * edges) and needs no path enumeration.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
    if not np.all(src < dst):
        raise DomainError("nodes must be numbered so that src < dst on every edge")
    order = [(k, int(src[k]), int(dst[k])) for k in np.argsort(src, kind="stable")]
    samples = np.empty(cfg.reps, dtype=float)

    def fill(start, stop):
        u = _chunk_uniforms(cfg.seed, start, stop, len(mu))
        d = (mu + sigma * std_normal_quantile(u)).T
        arrival = np.full((int(dst.max()) + 1, stop - start), -np.inf)
        arrival[0] = 0.0
        for k, a, b in order:
            np.maximum(arrival[b], arrival[a] + d[k], out=arrival[b])
        samples[start:stop] = arrival[-1]

    _run_chunked(cfg.reps, cfg.workers, fill)
    return empirical_stats(samples)


def empirical_stats(samples) -> McResult:
    """Summary statistics: mean, unbiased std, histogram.

    The histogram has equal-width bins over [min, max], as many as the
    Freedman-Diaconis rule asks for, or as Sturges' rule asks for when
    Freedman-Diaconis asks for more than ``_MAX_BINS``.  Every sampler ends
    here, so a sample that overflowed to inf or nan raises ``DomainError``
    before it reaches the histogram.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("samples must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError(
            f"samples must be finite ({np.count_nonzero(~np.isfinite(arr))} "
            f"of {arr.size} are not)"
        )
    mean = float(np.mean(arr))
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    iqr = np.subtract(*np.percentile(arr, [75, 25]))
    fd_width = 2.0 * iqr * arr.size ** (-1.0 / 3.0)
    bins = "sturges" if fd_width and np.ptp(arr) / fd_width > _MAX_BINS else "fd"
    counts, edges = np.histogram(arr, bins=bins)
    return McResult(samples=arr, mean=mean, std=std, histogram=(edges, counts))


def non_iid_experiment(n_grid, cfg: McConfig, *, mu: float = 0.0,
                       sigma: float = 1.0, delta_mu: float = 0.0,
                       delta_sigma: float = 0.0,
                       freeze_deviations: bool = False) -> list[McResult]:
    """Maxima of n independent, non-identical Gaussians for every n in
    ``n_grid``.

    Component means mu_i = mu + xi*delta_mu and deviations
    sigma_i = sigma + xi*delta_sigma, with each xi drawn independently from
    U(-1, 1).  By default the (mu_i, sigma_i) sets are redrawn every
    repetition; ``freeze_deviations`` draws them once per grid point.
    Returns one ``McResult`` per entry of ``n_grid``.
    """
    n_grid = [int(n) for n in n_grid]
    if len(n_grid) == 0 or any(n < 1 for n in n_grid):
        raise DomainError("n_grid must contain integers >= 1")
    if not (sigma > 0.0):
        raise DomainError(f"sigma must be positive (got {sigma})")
    if delta_mu < 0.0 or delta_sigma < 0.0:
        raise DomainError("delta_mu and delta_sigma must be nonnegative")
    if sigma - delta_sigma <= 0.0:
        raise DomainError(
            f"sigma - delta_sigma must stay positive (got {sigma} - {delta_sigma})"
        )
    if not np.all(np.isfinite([mu, sigma, delta_mu, delta_sigma])):
        raise DomainError(
            f"mu, sigma, delta_mu and delta_sigma must be finite "
            f"(got {mu}, {sigma}, {delta_mu}, {delta_sigma})"
        )
    results = []
    for n_index, n in enumerate(n_grid):
        # Streams 2k feed the repetitions of grid point k; streams 2k+1 are
        # reserved for its frozen deviations, so the spaces never collide.
        rep_stream = 2 * n_index
        if freeze_deviations:
            xi = 2.0 * _chunk_uniforms(cfg.seed, 0, 1, 2 * n, rep_stream + 1)[0] - 1.0
            mu_frozen = mu + delta_mu * xi[:n]
            sigma_frozen = sigma + delta_sigma * xi[n:]
        samples = np.empty(cfg.reps, dtype=float)

        def fill(start, stop, n=n, rep_stream=rep_stream):
            if freeze_deviations:
                u = _chunk_uniforms(cfg.seed, start, stop, n, rep_stream)
                x = mu_frozen + sigma_frozen * std_normal_quantile(u)
            else:
                u = _chunk_uniforms(cfg.seed, start, stop, 3 * n, rep_stream)
                mu_i = mu + delta_mu * (2.0 * u[:, :n] - 1.0)
                sigma_i = sigma + delta_sigma * (2.0 * u[:, n : 2 * n] - 1.0)
                x = mu_i + sigma_i * std_normal_quantile(u[:, 2 * n :])
            samples[start:stop] = x.max(axis=1)

        _run_chunked(cfg.reps, cfg.workers, fill)
        results.append(empirical_stats(samples))
    return results
