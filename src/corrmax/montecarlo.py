"""Seeded Monte Carlo sampling of correlated Gaussian maxima.

Reproducibility contract: repetition r of stream s draws from a Philox
counter-based stream that is a pure function of (seed, s, r) and of the
stream's width W, its words per repetition, so results are bitwise
identical for any worker count or chunking.  ``rep_rng`` and
``open_uniform`` in ``tests/conftest.py`` are the reference definition of
that stream: word w of repetition r is lane w % 4 of the Philox4x64-10
block at the 256-bit counter (s << 192) + r * ceil(W / 4) + w // 4 + 1,
and its uniform is (k + 0.5) * 2**-53 of the word's top 53 bits k,
clamped below 1.  Consecutive repetitions hold consecutive counters, so
``_chunk_uniforms`` draws a chunk of repetitions as one contiguous run of
one Philox, keeping the top 53 bits of 64 rows of raw words at a time, and
converts the chunk to uniforms in one vectorized step.  ``_word_uniforms``
reads single words by random access, through a vectorized numpy Philox
that computes the C generator's blocks.  Both readers share one conversion
of a word's top 53 bits to an open uniform, and their outputs are bitwise
equal to the reference.  Normal variates are ``ndtri`` of open-interval
uniforms, the same inverse CDF the analytic layer uses for its scaling
constants.  The sweep and the DAG sampler overwrite each chunk's uniforms
with their normals in place, 2**14 elements at a time, so a chunk holds
one float array of its shape plus temporaries of O(2**14) floats.  A rho-sweep uses
common random numbers: each chunk's normals are drawn once, and a single AR(1)
recurrence advances up to 64 rho points at a time on them as one
(points x chunk) block, with the same per-element operations as one
chain at a time.  The non-identical experiment evaluates the quantile only
for the components of a repetition that can still hold its maximum: a
float upper bound, monotone in the uniform, rules the others out exactly,
so each maximum has the bits of the full evaluation.  Grid point k reads
its quantile words from stream 3k, its mean and deviation words from
stream 3k + 1 and its frozen deviations from stream 3k + 2; where few
components remain, it reads only the candidates' words of stream 3k + 1,
by random access (see ``non_iid_experiment``).  A run whose uniform buffer
or sample array would hold more than ``_MAX_CHUNK_FLOATS`` floats is
refused before anything is allocated, which also keeps
r * ceil(W / 4) below 2**52, so no counter carries into its second word.
"""
from __future__ import annotations

import math
import mmap
import os
import signal
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, DomainError, EmptyInput
from .normal import _ndtri_inplace, std_normal_cdf, std_normal_quantile

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

# Rows of raw Philox words that _chunk_uniforms converts at once.
_ROW_BLOCK = 64

# Most rho points that share one block recurrence; caps its buffers at
# 2 * _RHO_GROUP * _CHUNK_REPS floats per worker whatever the sweep length.
_RHO_GROUP = 64

# Largest buffer of uniforms that one ``_chunk_uniforms`` call may fill, in
# floats (1 GiB of uniforms); wider streams are refused at each sampler's
# entry.  The sweep and the DAG sampler evaluate a chunk in that buffer:
# beside it they hold temporaries of O(2**14) floats, the sweep's rho points
# x 1024 rows and the DAG's nodes x 1024 arrival times.  At n = 5000 a
# chunk is 39 MiB, and ``mc --n 5000 --reps 1024`` peaks near 77 MiB of RSS
# (Python 3.11, numpy 2.4).
# ``non_iid_experiment`` holds an n-wide and a 2n-wide buffer (only the
# first when it reads by random access or freezes deviations) and a boolean
# mask of the quantile uniforms.  The same cap bounds a sampler's sample
# array: ``McConfig.reps`` floats, or rho points times reps for a sweep.
_MAX_CHUNK_FLOATS = 2**27

# Bound on |ndtri(u)| over the open uniforms: ndtri(2**-54) = -8.29 and
# ndtri(1 - 2**-53) = 8.21.
_Q_MAX = 8.3

# With redrawn deviations, ``non_iid_experiment`` probes the first
# _PROBE_REPS repetitions of a grid point for the components per repetition
# that its pruning evaluates, k, and reads their mean and deviation words by
# random access while (k + 1) times _RANDOM_READ_WORDS, the C-stream words
# that cost as much as one component's two random-access words, stays below
# the 2n words it skips.  Timing both ways forced, at n from 30 to 1000 and
# five spreads on a 2-vCPU VM, any constant from 44 to 58 loses the least
# time to wrong picks over three sets of runs; it picks wrong only where the
# ways differ by at most 12% and the winner changes between sets.  At
# n = 1000, delta_mu = 0.2 (k = 2), random access takes 93-98 ms per 10,000
# repetitions, the 2n words 207-228 ms.
_PROBE_REPS = 64
_RANDOM_READ_WORDS = 50


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
    r * ceil(width / 4) + 1 on, so the chunk is one contiguous run of a
    Philox that starts at repetition ``start``.  Its raw words are read
    ``_ROW_BLOCK`` rows at a time, keep their top 53 bits, and become
    uniforms in one vectorized step at the end.
    """
    words = 4 * -(-width // 4)
    bitgen = np.random.Philox(key=int(seed),
                              counter=(int(stream) << 192) + int(start) * (words // 4))
    u = np.empty((stop - start, width), dtype=float)
    for a in range(0, stop - start, _ROW_BLOCK):
        block = u[a : a + _ROW_BLOCK]
        raw = bitgen.random_raw(len(block) * words).reshape(len(block), words)
        # integers(0, 2**53) on a 64-bit word is the word's top 53 bits.
        raw >>= 11
        block[:] = raw[:, :width]
        del raw  # the next row block's words replace these, not join them
    return _open_from_top_bits(u)


# Philox4x64-10 multipliers, as a column for the (c0, c2) pair of counter
# words, split into 32-bit halves for the high word of the 128-bit product,
# and the round increments of the two key words.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & np.uint64(0xFFFFFFFF), _PHILOX_M >> 32
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def _philox_blocks(key: int, counter: np.ndarray) -> np.ndarray:
    """The Philox4x64-10 blocks of ``key`` at the counters ``counter``, a
    (4, m) uint64 array with its least significant word first.

    Column i equals the four words numpy's Philox returns first from
    counter ``counter[:, i] - 1``.  Each round multiplies the (c0, c2) pair
    and xors the (c1, c3) pair in, so a round is a few whole-array
    operations; the high half of each 128-bit product is summed from the
    32-bit halves of its factors, and no sum overflows 64 bits.
    """
    even, odd = counter[0::2], counter[1::2]
    k = (int(key) % 2**64, int(key) >> 64)
    for _ in range(10):
        x_lo, x_hi = even & np.uint64(0xFFFFFFFF), even >> 32
        t = x_hi * _PHILOX_M_LO + (x_lo * _PHILOX_M_LO >> 32)
        w = (t & np.uint64(0xFFFFFFFF)) + x_lo * _PHILOX_M_HI
        hi = x_hi * _PHILOX_M_HI + (t >> 32) + (w >> 32)
        key_col = np.array(k, dtype=np.uint64)[:, None]
        even, odd = hi[::-1] ^ odd ^ key_col, (even * _PHILOX_M)[::-1]
        k = ((k[0] + _PHILOX_W[0]) % 2**64, (k[1] + _PHILOX_W[1]) % 2**64)
    return np.stack([even[0], odd[0], even[1], odd[1]])


def _word_uniforms(seed: int, reps: np.ndarray, words: np.ndarray,
                   width: int, stream: int) -> np.ndarray:
    """Open uniforms of word ``words[i]`` of repetition ``reps[i]`` of a
    stream ``width`` words wide, by random access: entry i equals
    ``_chunk_uniforms(seed, reps[i], reps[i] + 1, width, stream)[0, words[i]]``.
    """
    block, lane = np.divmod(words, 4)
    counter = np.zeros((4, len(words)), dtype=np.uint64)
    counter[0] = reps * -(-width // 4) + block + 1
    counter[3] = stream
    raw = _philox_blocks(seed, counter)[lane, np.arange(len(words))]
    return _open_from_top_bits((raw >> 11).astype(float))


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

    Only the components that can still hold a repetition's maximum reach
    the quantile, and the maximum keeps the bits of the full evaluation:
    - Bounds.  Rounding is monotone, so in floats every component has
      mu_i <= mu_hi = fl(mu + delta_mu) and
      s_lo = fl(sigma - delta_sigma) <= sigma_i <= s_hi = fl(sigma + delta_sigma).
      Hence x_i = fl(mu_i + fl(sigma_i*q_i)) <= U(q_i), where
      U(q) = fl(mu_hi + fl(s*q)) with s = s_hi for q >= 0 and s_lo below;
      U never decreases.
    - Threshold.  Each repetition evaluates x_j for j, the component with
      the largest quantile uniform, then finds a q_c with U(q_c) < x_j,
      checked in floats, and sets t = Phi(q_c) - 2e-14.  A uniform u < t
      has ndtri(u) <= q_c, because |Phi(ndtri(u)) - u| <= 1e-14 (the
      tested contract of ``std_normal_quantile``) and the computed Phi is
      far closer than 1e-14 to the true one.  So x_i <= U(q_i) <= U(q_c)
      < x_j, and component i cannot hold the maximum.
    - Evaluation.  Every component with u >= t goes through the same
      expression as a full evaluation, and the row maximum is reduced over
      those components alone, which leaves its bits unchanged.  Where U(-+8.3), at the ends
      of the range of ndtri on the open uniforms, is not finite, or the
      float check fails, t = 0: every component is evaluated, so overflow
      and nan reach ``empirical_stats`` as before.
    - Reading.  With redrawn deviations, a probe of the first
      ``_PROBE_REPS`` repetitions counts k, the components per repetition
      that pruning evaluates.  The chunks draw the n quantile words of
      stream 3k with the C Philox.  Where (k + 1) * ``_RANDOM_READ_WORDS``
      < 2n, they read the mu and sigma words i and n + i of stream 3k + 1
      for the evaluated components only, by random access; otherwise they
      draw all 2n.  Both ways apply the same expressions to the same words,
      so the choice, made before any chunk is drawn, changes no bit.
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
    widest = max(n_grid)
    _check_width(cfg.reps, (1 if freeze_deviations else 3) * widest)
    if freeze_deviations:
        _check_width(1, 2 * widest)  # the single row of frozen deviations
    mu_hi, s_lo, s_hi = mu + delta_mu, sigma - delta_sigma, sigma + delta_sigma

    def upper(q):  # U(q), an upper bound on every component at quantile q
        return mu_hi + np.where(q >= 0.0, s_hi, s_lo) * q

    # A finite U(+8.3) needs finite mu_hi and s_hi; s_lo lies in (0, sigma].
    with np.errstate(over="ignore", invalid="ignore"):
        prunable = bool(np.all(np.isfinite(upper(np.array([-_Q_MAX, _Q_MAX])))))

    def threshold(x_j):
        """Per row, a uniform below which no component can reach x_j."""
        d = x_j - mu_hi
        d -= 2.0**-48 * (np.abs(x_j) + abs(mu_hi))  # room for rounding in U
        q_c = d / np.where(d >= 0.0, s_hi, s_lo)
        proven = (upper(q_c) < x_j) & prunable
        return np.where(proven, std_normal_cdf(np.where(proven, q_c, 0.0)) - 2e-14, 0.0)

    def deviated(u_mu, u_sigma):  # the full evaluation's (mu_i, sigma_i)
        return (mu + delta_mu * (2.0 * u_mu - 1.0),
                sigma + delta_sigma * (2.0 * u_sigma - 1.0))

    def component(values, rows, cols):  # x of the components (rows, cols)
        mu_i, sigma_i, u_i = values(rows, cols)
        return mu_i + sigma_i * std_normal_quantile(u_i)

    def pruned_max(u_q, values):
        """Row maxima of the top components and the candidates, and the
        number of candidates."""
        rows = np.arange(len(u_q))
        top = u_q.argmax(axis=1)
        best = component(values, rows, top)
        candidates = u_q >= threshold(best)[:, None]
        candidates[rows, top] = False
        rows, cols = np.divmod(np.flatnonzero(candidates), u_q.shape[1])
        np.maximum.at(best, rows, component(values, rows, cols))
        return best, len(rows)

    def grid_point(n, point):
        if freeze_deviations:
            u_frozen = _chunk_uniforms(cfg.seed, 0, 1, 2 * n, 3 * point + 2)[0]

        def read(start, stop, sparse=False):
            """Quantile uniforms of repetitions [start, stop), and a reader
            of the (mu_i, sigma_i, u_i) of the components at rows and
            columns, which gathers from flat row-major arrays."""
            u_q = _chunk_uniforms(cfg.seed, start, stop, n, 3 * point)
            flat = u_q.ravel()
            if freeze_deviations:
                def mean_words(rows, cols):
                    return u_frozen[cols], u_frozen[n + cols]
            elif sparse:
                def mean_words(rows, cols):  # words i and n + i by random access
                    return np.split(_word_uniforms(
                        cfg.seed, np.tile(start + rows, 2),
                        np.concatenate([cols, n + cols]), 2 * n, 3 * point + 1), 2)
            else:
                u_md = _chunk_uniforms(cfg.seed, start, stop, 2 * n, 3 * point + 1).ravel()

                def mean_words(rows, cols):  # words i and n + i of each row
                    at = rows * (2 * n) + cols
                    return u_md[at], u_md[at + n]

            return u_q, lambda rows, cols: (
                *deviated(*mean_words(rows, cols)), flat[rows * n + cols])

        sparse = False
        if not freeze_deviations:
            # The components per repetition that pruning evaluates in a probe
            # of the first rows pick how the chunks read the stream.
            probe = min(cfg.reps, _PROBE_REPS)
            with np.errstate(over="ignore", invalid="ignore"):  # as in _run_chunked
                k = (probe + pruned_max(*read(0, probe))[1]) / probe
            sparse = (k + 1) * _RANDOM_READ_WORDS < 2 * n

        def fill(start, stop):
            return pruned_max(*read(start, stop, sparse))[0]

        return empirical_stats(_run_chunked((cfg.reps,), cfg.workers, fill))

    # Grid point k reads streams 3k, 3k + 1 and 3k + 2, so no two collide.
    return [grid_point(n, point) for point, n in enumerate(n_grid)]
