"""Seeded Monte Carlo sampling of correlated Gaussian maxima.

Reproducibility contract: repetition r of stream s draws from a Philox
counter-based stream that is a pure function of (seed, s, r) and of the
stream's width W, its words per repetition, so results are bitwise
identical for any worker count or chunking.  ``rep_rng`` and
``open_uniform`` in ``tests/conftest.py`` are the reference definition:
word w of repetition r is lane w % 4 of the Philox4x64-10 block at the
256-bit counter (s << 192) + r * ceil(W / 4) + w // 4 + 1, and its uniform
is (k + 0.5) * 2**-53 of the word's top 53 bits k, clamped below 1.
Consecutive repetitions hold consecutive counters, so ``_chunk_uniforms``
draws a run of them as one contiguous run of one Philox.  Normal variates
are ``ndtri`` of those uniforms, the inverse CDF the analytic layer uses.
The sweep and the DAG sampler overwrite a chunk's uniforms with their
normals in place, 2**14 elements at a time.  A rho-sweep uses common random
numbers: one AR(1) recurrence advances up to 64 rho points at a time on a
chunk's normals.

The sweep and the DAG sampler read stream 0.  Grid point p of
``non_iid_experiment`` reads block b of its repetition r as repetition
b * 2**27 + r of stream 3p, and its frozen row from stream 3p + 2.  No
two words share a counter: streams differ in the counter's top 64-bit
word; within stream 3p, r < 2**27 makes b * 2**27 + r unique, and
b < 2**53 keeps the rest of every counter below 2**192, so that it never
carries into the stream's word.  A run whose uniform buffer or sample array
would hold more than ``_MAX_CHUNK_FLOATS`` floats is refused before
anything is allocated.
"""
from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyInput
from .normal import _log, _ndtri, _ndtri_inplace

__all__ = [
    "McConfig",
    "McResult",
    "sample_max_sweep",
    "sample_dag_max",
    "empirical_stats",
    "non_iid_experiment",
]

# Fixed work-unit size so chunking never depends on the worker count.
_CHUNK_REPS = 1024

# Rows of raw Philox words that ``_chunk_uniforms`` draws at once, or as
# many as fill _BLOCK_WORDS words where that is more: a block of a narrow
# stream costs a few numpy calls, which would outweigh its few hundred words.
_ROW_BLOCK = 64
_BLOCK_WORDS = 2**16

# Most rho points that share one block recurrence; caps its buffers at
# 2 * _RHO_GROUP * _CHUNK_REPS floats per worker whatever the sweep length.
_RHO_GROUP = 64

# Largest buffer of uniforms that one ``_chunk_uniforms`` call may fill, in
# floats (1 GiB of uniforms); wider streams, and so a frozen row of 2n, are
# refused at each sampler's entry.  The sweep and the DAG sampler evaluate a
# chunk in that buffer: beside it they hold temporaries of O(2**14) floats,
# the sweep's rho points x 1024 rows and the DAG's nodes x 1024 arrival
# times.  At n = 5000 a chunk is 39 MiB, and ``mc --n 5000 --reps 1024``
# peaks near 77 MiB of RSS (Python 3.11, numpy 2.4).  The same cap bounds a
# sampler's sample array: ``McConfig.reps`` floats, or points times reps.
_MAX_CHUNK_FLOATS = 2**27

# Order statistics per block of ``non_iid_experiment``, with redrawn and
# with frozen deviations: a block costs a few dozen numpy calls, more when
# frozen.  Timed at 2, 4, 8 and 16 on a 2-vCPU VM (BENCH_31.json).
_BLOCK_STATS = 4
_FROZEN_BLOCK_STATS = 8


@dataclass(frozen=True)
class McConfig:
    """Repetition count, seed, and worker count for a Monte Carlo run."""

    seed: int
    reps: int = 10_000
    workers: int = 1

    def __post_init__(self):
        if not 1 <= self.reps <= _MAX_CHUNK_FLOATS:
            raise DomainError(
                f"reps must lie in [1, {_MAX_CHUNK_FLOATS}] (got {self.reps})"
            )
        if not (0 <= self.seed < 2**64):
            raise DomainError("seed must be a 64-bit unsigned integer")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1 (got {self.workers})")


@dataclass(frozen=True)
class McResult:
    """Maximum samples plus their mean and unbiased std."""

    samples: np.ndarray
    mean: float
    std: float

    @property
    def stderr(self) -> float:
        return float(self.std / np.sqrt(len(self.samples)))


def _open_from_top_bits(k: np.ndarray) -> np.ndarray:
    """Open uniforms (k + 0.5) * 2**-53 of the 53-bit integers ``k``, held
    as floats and converted in place.

    For k = 2**53 - 1, k + 0.5 rounds to 2**53; the clamp maps it to
    2**53 - 1, so that uniform is 1 - 2**-53 instead of 1.0, and every other
    k keeps its value.
    """
    k += 0.5
    np.minimum(k, 2.0**53 - 1.0, out=k)
    k *= 2.0**-53
    return k


def _chunk_uniforms(seed: int, start: int, stop: int, width: int,
                    stream: int = 0) -> np.ndarray:
    """Open uniforms of repetitions [start, stop) of a stream ``width``
    words wide, one row each.

    Row r - start equals the reference ``open_uniform(rep_rng(seed, r,
    width, stream), width)`` bit for bit.  Repetition r fills the
    ceil(width / 4) Philox blocks from counter (stream << 192) +
    r * ceil(width / 4) + 1 on, so the rows are one contiguous run of a
    Philox that starts at repetition ``start``: this is the one place that
    draws Philox words.  It keeps the top 53 bits of max(``_ROW_BLOCK``,
    ``_BLOCK_WORDS`` // width) rows of raw words at a time, and they become
    uniforms in one vectorized step at the end.
    """
    words = 4 * -(-width // 4)
    bitgen = np.random.Philox(key=int(seed),
                              counter=(int(stream) << 192) + int(start) * (words // 4))
    rows = max(_ROW_BLOCK, _BLOCK_WORDS // words)
    u = np.empty((stop - start, width), dtype=float)
    for a in range(0, stop - start, rows):
        raw = bitgen.random_raw(min(rows, stop - start - a) * words).reshape(-1, words)
        # integers(0, 2**53) on a 64-bit word is the word's top 53 bits.
        raw >>= 11
        u[a : a + len(raw)] = raw[:, :width]
        del raw  # so the block is freed before the next is drawn
    return _open_from_top_bits(u)


def _check_width(reps: int, width: int) -> None:
    """Refuse a uniform buffer of min(reps, _CHUNK_REPS) rows of ``width``
    that would hold more than _MAX_CHUNK_FLOATS floats."""
    rows = min(reps, _CHUNK_REPS)
    if rows * width > _MAX_CHUNK_FLOATS:
        raise DomainError(
            f"stream too wide: a buffer of {rows} x {width} uniforms exceeds "
            f"the cap of {_MAX_CHUNK_FLOATS} floats"
        )


def _worker_count(workers: int, chunks: int) -> int:
    """Processes worth running: no more than requested, CPUs this process
    may use, or chunks; 1 where ``os.fork`` is missing."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus, chunks))


def _run_chunked(shape, workers: int, fill) -> np.ndarray:
    """An array of ``shape`` whose last axis is the repetition, holding
    ``fill(start, stop)`` in ``out[..., start:stop]`` for every chunk.

    ``fill`` must compute the results of repetitions [start, stop) from
    per-repetition streams only, which keeps them independent of the
    execution order and of the worker count.  Overflow stays inf or nan,
    without numpy's warnings, for ``empirical_stats``.

    With w > 1 workers, worker k > 0 is a forked child that runs chunks
    k::w into an anonymous shared mapping and leaves by ``os._exit``; the
    parent runs chunks 0::w, then reaps every child.  Processes, so that
    no chunk waits for the GIL: the sweep's recurrence and the DAG's
    relaxation make one numpy call per step or edge, and each call holds
    the GIL outside its inner loop.  The children call no BLAS, so the
    BLAS threads that a fork does not copy are never missed.  A child that
    exits non-zero, or a fork that fails, leaves its chunks to the parent,
    which reruns them after its own, so a chunk that fails raises in the
    parent as it would on one worker.  A child whose parent is gone stops
    between chunks; on any exception the parent kills and reaps every
    child before it re-raises.
    """
    reps = shape[-1]
    chunks = [(a, min(a + _CHUNK_REPS, reps)) for a in range(0, reps, _CHUNK_REPS)]
    procs = _worker_count(workers, len(chunks))

    def run(own):
        for a, b in own:
            with np.errstate(over="ignore", invalid="ignore"):
                out[..., a:b] = fill(a, b)

    if procs == 1:
        # A shared mapping's first touch costs more; one process needs none.
        out = np.empty(shape)
        run(chunks)
        return out
    size = math.prod(shape)  # 0 for a sweep over no rho; mmap refuses length 0
    out = np.frombuffer(mmap.mmap(-1, max(8 * size, 1)), count=size).reshape(shape)
    parent, children, failed = os.getpid(), {}, []
    try:
        for k in range(1, procs):
            try:
                pid = os.fork()
            except OSError:  # no room for another process: the parent runs its chunks
                failed += chunks[k::procs]
                continue
            if pid == 0:
                code = 1
                try:
                    for chunk in chunks[k::procs]:
                        if os.getppid() != parent:  # orphaned: nobody reads out
                            break
                        run([chunk])
                    else:
                        code = 0
                finally:
                    os._exit(code)
            children[pid] = chunks[k::procs]
        run(chunks[0::procs])
        for pid in list(children):
            if os.waitpid(pid, 0)[1]:
                failed += children[pid]
            del children[pid]
    except BaseException:
        if os.getpid() != parent:  # a child interrupted before its own try
            os._exit(1)
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    run(sorted(failed))
    return out


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
    _check_width(cfg.reps, int(n))
    if len(rhos) * cfg.reps > _MAX_CHUNK_FLOATS:
        raise DomainError(
            f"reps too large for the sweep: {len(rhos)} rho points x {cfg.reps} "
            f"reps exceed the cap of {_MAX_CHUNK_FLOATS} floats"
        )
    rho = np.array(rhos, dtype=float)
    c = sigma * np.sqrt(1.0 - rho * rho)

    def fill(start, stop):
        # Row i of z holds step i of every repetition's chain.
        z = _ndtri_inplace(_chunk_uniforms(cfg.seed, start, stop, n)).T
        maxima = np.empty((len(rho), stop - start))
        shape = (min(_RHO_GROUP, len(rho)), stop - start)
        x_buf, step_buf = np.empty(shape), np.empty(shape)
        for g in range(0, len(rho), _RHO_GROUP):
            rho_g, c_g = rho[g : g + _RHO_GROUP, None], c[g : g + _RHO_GROUP, None]
            x, step = x_buf[: len(rho_g)], step_buf[: len(rho_g)]
            running_max = maxima[g : g + len(rho_g)]
            np.multiply(sigma, z[0], out=x)
            running_max[:] = x
            for zi in z[1:]:
                x *= rho_g
                np.multiply(c_g, zi, out=step)
                x += step
                np.maximum(running_max, x, out=running_max)
        return maxima

    maxima = _run_chunked((len(rho), cfg.reps), cfg.workers, fill)
    return [empirical_stats(row) for row in maxima]


def _ends(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted sources (nodes with no incoming edge) and sinks (nodes
    with no outgoing edge) of the edges ``src[k] -> dst[k]`` over nodes
    numbered from 0.  Boolean masks over the node numbers, so unlike
    ``np.setdiff1d`` nothing imports ``numpy.ma``."""
    has_in, has_out = np.zeros((2, int(dst.max()) + 1), dtype=bool)
    has_in[dst] = True
    has_out[src] = True
    return np.flatnonzero(has_out & ~has_in), np.flatnonzero(has_in & ~has_out)


def sample_dag_max(mu, sigma, src, dst, cfg: McConfig) -> McResult:
    """Longest source-to-sink path delays of a DAG with independent normal
    edge delays.

    Edge k runs from node ``src[k]`` to node ``dst[k]`` with delay
    N(mu[k], sigma[k]^2).  Nodes are numbered in a topological order, so
    ``src[k] < dst[k]``.  Column k of ``_chunk_uniforms`` feeds edge k.
    Arrival times start at 0 at every source (a node with no incoming edge),
    edges are relaxed in order of their source node, and a sample is the
    largest arrival over the sinks (nodes with no outgoing edge), which
    costs O(reps * edges) and needs no path enumeration.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    src, dst = np.asarray(src, dtype=int), np.asarray(dst, dtype=int)
    if len({a.shape for a in (mu, sigma, src, dst)}) != 1 or mu.ndim != 1 or not mu.size:
        raise DimensionMismatch(
            "mu, sigma, src and dst must be 1-D with one common length >= 1")
    if src.min() < 0 or not np.all(src < dst):
        raise DomainError("nodes must be numbered from 0 so that src < dst on every edge")
    _check_width(cfg.reps, len(mu))
    order = [(k, int(src[k]), int(dst[k])) for k in np.argsort(src, kind="stable")]
    sources, sinks = _ends(src, dst)

    def fill(start, stop):
        q = _ndtri_inplace(_chunk_uniforms(cfg.seed, start, stop, len(mu)))
        q *= sigma
        q += mu  # the bits of mu + sigma * q: IEEE products and sums commute
        d = q.T
        arrival = np.full((int(dst.max()) + 1, stop - start), -np.inf)
        arrival[sources] = 0.0
        for k, a, b in order:
            np.maximum(arrival[b], arrival[a] + d[k], out=arrival[b])
        return arrival[sinks].max(axis=0)

    return empirical_stats(_run_chunked((cfg.reps,), cfg.workers, fill))


def empirical_stats(samples) -> McResult:
    """Summary statistics: mean and unbiased std.

    Every sampler ends here, so a sample that overflowed to inf or nan, or
    finite samples whose mean or std overflows, raise ``DomainError``
    before any output is made of them.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise EmptyInput("samples must be a nonempty 1-D array")
    if not np.all(np.isfinite(arr)):
        raise DomainError(
            f"samples must be finite ({np.count_nonzero(~np.isfinite(arr))} "
            f"of {arr.size} are not)"
        )
    with np.errstate(over="ignore"):
        mean = float(np.mean(arr))
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    if not (np.isfinite(mean) and np.isfinite(std)):
        raise DomainError(f"sample mean and std must be finite (got {mean}, {std})")
    return McResult(samples=arr, mean=mean, std=std)


def _log_uniforms(v: np.ndarray) -> np.ndarray:
    """The C library's ``log`` of open uniforms: ``normal._log`` below 0.5,
    where it is that ``log``, and ``math.log`` one element at a time above."""
    out = np.empty_like(v)
    low = v < 0.5
    out[low] = _log(v[low])
    high = v[~low]
    out[~low] = np.fromiter(map(math.log, high.tolist()), float, high.size)
    return out


def _reveal(swaps: list[dict], n: int, k: int, u: np.ndarray) -> np.ndarray:
    """Positions k, ..., k + m - 1 of Fisher-Yates shuffles of range(n), one
    per dict of ``swaps`` from each moved position to its value: position
    k + s swaps with the position j that column s of ``u`` picks from
    [k + s, n), and the value at j is revealed.  Position k + s is never
    read again, so it leaves its dict."""
    m = u.shape[1]
    spans = np.arange(n - k, n - k - m, -1)
    picks = np.arange(k, k + m) + np.minimum((u * spans).astype(np.int64), spans - 1)
    out = []
    for a, row in zip(swaps, picks.tolist()):
        for i, j in enumerate(row, k):
            if j == i:
                out.append(a.pop(i, i))
            else:
                out.append(a.get(j, j))
                a[j] = a.pop(i, i)
    return np.array(out, dtype=np.int64).reshape(picks.shape)


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

    A repetition draws its quantile uniforms in descending order,
    log u_(k+1) = log u_(k) + log(V)/(n - k) for fresh uniforms V (Lurie &
    Hartley, 1972; Devroye, 1986, ch. V.3), and evaluates mu_i + sigma_i*q
    at q = -ndtri(1 - u), 1 - u = -expm1(log u), which keeps the upper
    tail's precision.  Redrawn deviations make the components IID, so each
    order statistic takes a fresh mean and deviation; frozen ones give it a
    component drawn uniformly from those not yet drawn (``_reveal``): the
    ranks of IID uniforms are a uniform permutation, independent of values.

    The stop is exact.  Rounding is monotone, so every component obeys
    x <= U(q) = mu_hi + s*q, with s = s_hi for q >= 0 and s_lo below, where
    mu_hi, s_lo and s_hi are the extreme means and deviations of the open
    uniforms or of the frozen row; neither U nor q grows over later
    statistics.  So a repetition stops once U at its last q is below its
    running maximum, once that maximum is +inf or nan, or after n.

    Statistics come R = ``_BLOCK_STATS`` (``_FROZEN_BLOCK_STATS``) at a
    time.  Block b of a repetition reads 3R words (2R when frozen), laid
    out as the module docstring says: words j, R + j and 2R + j are
    statistic bR + j's V, mean and deviation, or V and pick, uniforms.  It
    draws them for a chunk's running rows as one run and evaluates them at
    once: statistics past a row's stop never change its maximum.

    The cost is O(reps * k) for k statistics per repetition: about 3 at
    delta_mu = 0.2, 63 at n = 1000, delta_mu = 5, delta_sigma = 0.99.  At
    delta_mu far above sigma * sqrt(2 log n), every component can hold the
    maximum and k tends to n; at n = 1000 that takes 2-3 times as long as
    the full evaluation (BENCH_31.json).  A chunk holds O(R) floats per
    repetition; frozen, also the row of 2n words and a dictionary per
    repetition of under 100 bytes per revealed component (68 at 64, 95 at 8,192).
    """
    n_grid = [int(n) for n in n_grid]
    # n <= 2**53 keeps n - k exact and the block counters unique.
    if len(n_grid) == 0 or any(not 1 <= n <= 2**53 for n in n_grid):
        raise DomainError(f"n_grid must contain integers in [1, 2**53] (got {n_grid})")
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
    if len(n_grid) * cfg.reps > _MAX_CHUNK_FLOATS:
        raise DomainError(
            f"reps too large for the grid: {len(n_grid)} points x {cfg.reps} "
            f"reps exceed the cap of {_MAX_CHUNK_FLOATS} floats"
        )
    if freeze_deviations:
        _check_width(1, 2 * max(n_grid))  # the single row of frozen deviations
        R, words = _FROZEN_BLOCK_STATS, 2 * _FROZEN_BLOCK_STATS
    else:
        R, words = _BLOCK_STATS, 3 * _BLOCK_STATS

    def deviated(u_mu, u_sigma):  # (mu_i, sigma_i) of their uniforms
        return (mu + delta_mu * (2.0 * u_mu - 1.0),
                sigma + delta_sigma * (2.0 * u_sigma - 1.0))

    def grid_point(n, point):
        with np.errstate(over="ignore", invalid="ignore"):  # as in _run_chunked
            if freeze_deviations:
                u = _chunk_uniforms(cfg.seed, 0, 1, 2 * n, 3 * point + 2)[0]
                mu_i, sigma_i = deviated(u[:n], u[n:])
                mu_hi, s_lo, s_hi = mu_i.max(), sigma_i.min(), sigma_i.max()
            else:
                ends = np.array([2.0**-54, 1.0 - 2.0**-53])  # of the open uniforms
                (_, mu_hi), (s_lo, s_hi) = deviated(ends, ends)

        def fill(start, stop):
            out = np.empty(stop - start)
            rows = np.arange(stop - start)  # the rows still running, ascending
            best = np.full(rows.size, -np.inf)  # their running maxima
            log_u = np.zeros((rows.size, 1))  # and their last log u
            swaps = [{} for _ in range(rows.size)] if freeze_deviations else []
            for b, k in enumerate(range(0, n, R)):
                m = min(R, n - k)
                first = b * _MAX_CHUNK_FLOATS + start  # reps <= 2**27, McConfig's cap
                w = _chunk_uniforms(cfg.seed, first + int(rows[0]), first + int(rows[-1]) + 1,
                                    words, 3 * point)[rows - rows[0]]
                steps = _log_uniforms(w[:, :m]) / np.arange(n - k, n - k - m, -1.0)
                # add.accumulate adds in order, as a loop over the statistics would
                log_u = np.cumsum(np.hstack([log_u, steps]), axis=1)[:, 1:]
                # 1 - u by the C library's expm1, at most 1 - 2**-53 as open uniforms are
                t = np.fromiter(map(math.expm1, log_u.ravel().tolist()), float, log_u.size)
                q = -_ndtri(np.minimum(-t, 1.0 - 2.0**-53)).reshape(log_u.shape)
                if freeze_deviations:
                    picked = _reveal(swaps, n, k, w[:, R : R + m])
                    x = mu_i[picked] + sigma_i[picked] * q
                else:
                    mu_j, sigma_j = deviated(w[:, R : R + m], w[:, 2 * R : 2 * R + m])
                    x = mu_j + sigma_j * q
                best = np.maximum(best, x.max(axis=1))
                last = q[:, -1]
                bound = mu_hi + np.where(last >= 0.0, s_hi, s_lo) * last
                go = ~(bound < best) & (best < np.inf)
                out[rows[~go]] = best[~go]
                rows, best, log_u = rows[go], best[go], log_u[go, -1:]
                swaps = list(compress(swaps, go))
                if not rows.size:
                    break
            out[rows] = best
            return out

        return empirical_stats(_run_chunked((cfg.reps,), cfg.workers, fill))

    return [grid_point(n, point) for point, n in enumerate(n_grid)]
