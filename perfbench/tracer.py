"""Traced run of one corrmax CLI call, for the benchmark's per-layer numbers.

    python3 perfbench/tracer.py SPANS_JSON -- CLI_ARGS...

runs ``corrmax.cli.main(CLI_ARGS)`` in this process, with ``src`` on
``PYTHONPATH``, after timing ``import corrmax.cli``.  It records a span
(name, start, end, parent, thread) around every call into a layer by
replacing the names that callers resolve at call time:

* ``corrmax.cli.*`` for calls from the CLI into the library;
* ``corrmax.timing_graph.*`` for calls from the graph pipeline into
  ``montecarlo`` and ``corrections``;
* ``corrmax.montecarlo.*`` for the stream, the normal quantile and the
  summary statistics;
* ``EpsilonMatrix.from_covariance`` and ``numpy.linalg.eigh``.

Nothing under ``src/`` changes.  Spans stay in memory and are written to
SPANS_JSON when the call ends, with the counters and the list of hook
targets that no longer exist.  Spans opened on a worker thread with no open
span of its own take the main thread's innermost open span as parent.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

import numpy as np


def _size_of_first_arg(args, result):
    return int(np.size(args[0]))


# (module, attribute path, span name, size of the work, record CPU time)
HOOKS = [
    ("corrmax.cli", "load_graph", "timing_graph.load_graph",
     lambda args, result: len(result.edges), False),
    ("corrmax.cli", "normalize_source_sink", "timing_graph.normalize_source_sink", None, False),
    ("corrmax.cli", "enumerate_paths", "timing_graph.enumerate_paths",
     lambda args, result: result.n_paths, False),
    ("corrmax.cli", "accumulated_delay_params", "timing_graph.accumulated_delay_params",
     None, False),
    ("corrmax.cli", "path_covariance", "timing_graph.path_covariance", None, False),
    ("corrmax.cli", "graph_delay_analysis", "timing_graph.graph_delay_analysis", None, False),
    ("corrmax.cli", "sample_max_distribution", "montecarlo.sample_max_distribution", None, True),
    ("corrmax.cli", "non_iid_experiment", "montecarlo.non_iid_experiment", None, True),
    ("corrmax.cli", "corrected_cdf", "corrections.corrected_cdf", None, False),
    ("corrmax.cli", "corrected_pdf", "corrections.corrected_pdf", None, False),
    ("corrmax.cli", "validity_check", "corrections.validity_check", None, False),
    ("corrmax.cli", "correlation_sum", "corrections.correlation_sum", None, False),
    ("corrmax.cli", "ar1_correlation_sum", "corrections.ar1_correlation_sum", None, False),
    ("corrmax.timing_graph", "normalize_source_sink", "timing_graph.normalize_source_sink",
     None, False),
    ("corrmax.timing_graph", "enumerate_paths", "timing_graph.enumerate_paths",
     lambda args, result: result.n_paths, False),
    ("corrmax.timing_graph", "accumulated_delay_params",
     "timing_graph.accumulated_delay_params", None, False),
    ("corrmax.timing_graph", "path_covariance", "timing_graph.path_covariance", None, False),
    ("corrmax.timing_graph", "sample_multivariate_max", "montecarlo.sample_multivariate_max",
     None, True),
    ("corrmax.timing_graph", "correlation_sum", "corrections.correlation_sum", None, False),
    ("corrmax.timing_graph", "corrected_cdf", "corrections.corrected_cdf", None, False),
    ("corrmax.timing_graph", "corrected_pdf", "corrections.corrected_pdf", None, False),
    ("corrmax.timing_graph", "validity_check", "corrections.validity_check", None, False),
    # The quadrature of the corrected pdf for the analytic mean.
    ("corrmax.timing_graph", "_analytic_mean_std_units", "corrections.quadrature", None, False),
    ("corrmax.corrections", "EpsilonMatrix.from_covariance", "corrections.from_covariance",
     None, False),
    ("corrmax.montecarlo", "std_normal_quantile", "normal.std_normal_quantile",
     _size_of_first_arg, False),
    ("corrmax.montecarlo", "rep_rng", "montecarlo.rep_rng", None, False),
    ("corrmax.montecarlo", "empirical_stats", "montecarlo.empirical_stats", None, False),
    ("numpy.linalg", "eigh", "montecarlo.eigh", None, False),
]


class Recorder:
    """In-memory spans and counters of one traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._main = threading.main_thread().ident

    def add(self, name, start, end, parent=None, size=None, cpu=None):
        sid = next(self._ids)
        self.spans.append([sid, name, start, end, parent, threading.get_ident(), size, cpu])
        return sid

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + 1

    def wrap(self, name, fn, size=None, cpu=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.setdefault(threading.get_ident(), [])
            main = self._stacks.get(self._main) or [None]
            parent = stack[-1] if stack else main[-1]
            sid = next(self._ids)
            stack.append(sid)
            c0 = time.process_time() if cpu else None
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = time.perf_counter()
                used = time.process_time() - c0 if cpu else None
                stack.pop()
                work = size(args, result) if size and result is not None else None
                self.spans.append([sid, name, t0, t1, parent, threading.get_ident(), work, used])
        return traced


def _count_chunks(rec: Recorder, run_chunked):
    """Count the work units ``_run_chunked`` hands to its fill function."""
    @functools.wraps(run_chunked)
    def counted(reps, workers, fill):
        def fill_counted(*args):
            rec.count("montecarlo.chunks")
            return fill(*args)
        return run_chunked(reps, workers, fill_counted)
    return counted


def install(rec: Recorder) -> list[str]:
    """Replace every hook target; return those that do not exist."""
    absent = []
    targets = [(mod, attr, functools.partial(rec.wrap, name, size=size, cpu=cpu))
               for mod, attr, name, size, cpu in HOOKS]
    targets.append(("corrmax.montecarlo", "_run_chunked", functools.partial(_count_chunks, rec)))
    for mod, attr, make in targets:
        owner = importlib.import_module(mod)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, leaf, None)
        if static is None:
            absent.append(f"{mod}.{attr}")
        elif isinstance(static, classmethod):
            setattr(owner, leaf, classmethod(make(static.__func__)))
        else:
            setattr(owner, leaf, make(static))
    return absent


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, cli_args = argv[1], argv[3:]
    rec = Recorder()
    t0 = time.perf_counter()
    import corrmax.cli
    rec.add("cli.import", t0, time.perf_counter())
    absent = install(rec)
    code = rec.wrap("cli.main", corrmax.cli.main)(cli_args)
    with open(out_path, "w") as fh:
        json.dump({"spans": rec.spans, "counts": rec.counts, "absent": absent, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
