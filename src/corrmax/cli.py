"""Command-line interface.

One subcommand per experiment family:

* ``dist``   tabulate Gumbel / corrected CDFs and PDFs
* ``mc``     Monte Carlo maxima of AR(1)-correlated Gaussian chains
* ``graph``  timing-graph path enumeration, covariance, full analysis
* ``noniid`` maximum statistics under non-identical component parameters

Commands emit data files (CSV/JSON), never images; every run writes a
manifest sidecar recording the command, parameters, seed, tool version,
and the versions of Python, numpy and the C library.  Each ``_cmd_*``
only computes: it returns its file prefix, seed and
``{suffix: content}``, and ``main`` writes them all through
``_write_outputs`` once the command has succeeded.  With a fixed seed,
the data files are bitwise reproducible for any worker count.  Exit
codes: 0 success, 2 argument/validation error, 3 input parse error,
4 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import warnings
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .corrections import (
    EpsilonMatrix,
    ar1_correlation_sum,
    corrected_law,
    validity_check,
    ORDERS,
    _MAX_GRID_POINTS,
)
from .errors import (
    CorrmaxError,
    DimensionMismatch,
    DomainError,
    GraphError,
    ParseError,
    PathExplosionError,
)
from .gumbel import scaling_constants
from .montecarlo import McConfig, non_iid_experiment, sample_max_sweep
from .timing_graph import (
    DEFAULT_PATH_CAP,
    enumerate_paths,
    graph_delay_analysis,
    load_graph,
    path_covariance,
)

OUTDIR_ENV = "CORRMAX_OUTDIR"

_EXIT_OK = 0
_EXIT_USAGE = 2
_EXIT_PARSE = 3
_EXIT_CAP = 4

_MAX_SWEEP_POINTS = 10_000

# Longest file name, in bytes, that common file systems accept.
_NAME_MAX = 255

# Rows of a symmetric matrix that ``_dump_symmetric`` formats as one block.
_BLOCK = 32

# Above this many Freedman-Diaconis bins (a near-constant sample beside one
# outlier asks for tens of millions) the histogram uses Sturges.
_MAX_BINS = 10_000


def _fmt(x: float) -> str:
    """17-significant-digit decimal; round-trips to the same float."""
    return format(float(x), ".17g")


def _fields(obj) -> dict:
    """The dataclass instance ``obj`` as the shallow dict of its fields."""
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _plain(obj):
    """json's ``default`` hook: an array as nested lists, a dataclass
    instance as the dict of its fields."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _fields(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _is_symmetric(a: np.ndarray) -> bool:
    """Whether ``a`` is a square, finite float64 matrix equal to its
    transpose bit for bit, so that 0.0 and -0.0 differ."""
    return (a.ndim == 2 and a.shape[0] == a.shape[1] and a.dtype == np.float64
            and bool(np.isfinite(a).all())
            and np.array_equal(a.view(np.int64), a.T.view(np.int64)))


def _dump_symmetric(a: np.ndarray, fh, indent: str) -> None:
    """Write to ``fh`` the bytes json writes with ``indent=2`` for a
    nonempty matrix for which ``_is_symmetric`` holds, nested at ``indent``,
    calling ``float.__repr__`` once per entry on or above the diagonal
    blocks.

    Rows go in blocks of ``_BLOCK``.  Row i of the block that starts at row
    r0 formats ``a[i, r0:]``.  Its entries in each later column block wait
    as one comma-joined string (a float repr holds no comma) until that
    block's rows split them into their columns 0 .. r0 - 1, and each row
    frees its split strings once written.  At most about P²/4 entries wait
    at once, as short strings: less memory than one P×P float64 array.
    """
    p = len(a)
    inner = indent + "  "
    entry_sep = ",\n" + inner + "  "
    waiting = [[] for _ in range(0, p, _BLOCK)]  # per block, one string per earlier row
    fh.write("[\n" + inner)
    for b, r0 in enumerate(range(0, p, _BLOCK)):
        r1 = min(r0 + _BLOCK, p)
        left = list(zip(*[t.split(",") for t in waiting[b]])) or [()] * (r1 - r0)
        waiting[b] = None
        left.reverse()  # popped in row order
        for i in range(r0, r1):
            reprs = list(map(float.__repr__, a[i, r0:].tolist()))
            for later, c0 in enumerate(range(r1 - r0, p - r0, _BLOCK), start=b + 1):
                waiting[later].append(",".join(reprs[c0:c0 + _BLOCK]))
            fh.write((",\n" + inner if i else "") + "[\n" + inner + "  "
                     + entry_sep.join(chain(left.pop(), reprs))
                     + "\n" + inner + "]")
    fh.write("\n" + indent + "]")


def _write_json(path: Path, doc: dict) -> None:
    """Write ``doc`` as ``json.dump(doc, indent=2, sort_keys=True)`` does,
    with arrays and dataclass instances read through ``_plain``.

    Keys must be ``str``.  A nonempty top-level value for which
    ``_is_symmetric`` holds (a path covariance) is written by
    ``_dump_symmetric``, which formats each off-diagonal pair once and needs
    less extra memory than the array itself; json writes every other value.
    json escapes each newline within a string, so every newline it writes
    starts a line and takes the top level's indent.
    """
    if not all(isinstance(k, str) for k in doc):
        raise TypeError("JSON object keys must be str")
    with open(path, "w") as fh:
        sep = "{\n  "
        for key in sorted(doc):
            fh.write(sep + json.dumps(key) + ": ")
            sep = ",\n  "
            value = doc[key]
            if isinstance(value, np.ndarray) and value.size and _is_symmetric(value):
                _dump_symmetric(value, fh, "  ")
            else:
                fh.write(json.dumps(value, indent=2, sort_keys=True, default=_plain)
                         .replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "{}\n")


def _write_csv(path: Path, header, rows) -> None:
    """Write the header, then each row as ``_fmt`` values joined by commas."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


def _output_dir(args) -> Path:
    """The directory named by ``--outdir``, ``$CORRMAX_OUTDIR`` or ".".

    Checked before the command computes anything: a path that is, or runs
    through, an existing non-directory is a usage error, and so is an
    ``--out`` prefix that holds a path separator.
    """
    prefix = getattr(args, "out", None)  # graph paths takes no --out
    if prefix and any(sep and sep in prefix for sep in (os.sep, os.altsep)):
        raise DomainError(
            f"--out must be a file name prefix without a path separator "
            f"(got {prefix!r})"
        )
    out = Path(args.outdir if args.outdir is not None
               else os.environ.get(OUTDIR_ENV, "."))
    for existing in (out, *out.parents):
        if existing.exists():
            if not existing.is_dir():
                raise DomainError(
                    f"output directory {out}: {existing} is not a directory"
                )
            break
    return out


def _versions() -> dict:
    """The libraries the sample bits rest on: numpy's Philox and arithmetic,
    and the C library's ``log`` and ``exp`` behind ``normal.py``."""
    libc = (os.confstr("CS_GNU_LIBC_VERSION")
            if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) else None)
    return {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__,
            "libc": libc}


def _write_outputs(out: Path, args, prefix: str, seed, files: dict) -> None:
    """Write what a command computed into ``out``: each
    ``{suffix: content}`` entry as ``<prefix><suffix>`` (a dict as JSON, a
    ``(header, rows)`` pair as CSV), then the manifest, then name the first
    file on stdout.

    The only code that creates the output directory, so a run that fails
    before it leaves none behind.  A file name longer than ``_NAME_MAX``
    bytes is a usage error raised before the directory is made.
    """
    for name in (f"{prefix}{suffix}" for suffix in (*files, ".manifest.json")):
        size = len(os.fsencode(name))
        if size > _NAME_MAX:
            raise DomainError(
                f"output file name {name[:24]}... is {size} bytes, over the "
                f"limit of {_NAME_MAX}; choose a shorter --out"
            )
    out.mkdir(parents=True, exist_ok=True)
    for suffix, content in files.items():
        if isinstance(content, dict):
            _write_json(out / f"{prefix}{suffix}", content)
        else:
            _write_csv(out / f"{prefix}{suffix}", *content)
    params = {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in ("func",) and v is not None
    }
    _write_json(out / f"{prefix}.manifest.json", {
        "command": args.command,
        "parameters": params,
        "seed": seed,
        "tool_version": __version__,
        "versions": _versions(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    })
    print(f"wrote {out / (prefix + next(iter(files)))}")


def _iqr(samples: np.ndarray) -> np.float64:
    """``np.subtract(*np.percentile(samples, [75, 25]))`` of finite 1-D
    samples, with its bits: numpy's linear interpolation between the order
    statistics, without the ``np.unique`` call through which
    ``np.percentile`` imports ``numpy.ma``."""
    v = (samples.size - 1) * np.array([0.75, 0.25])
    lo = np.floor(v)
    t = v - lo
    lo = lo.astype(np.intp)
    hi = np.minimum(lo + 1, samples.size - 1)
    s = np.partition(samples, np.concatenate([lo, hi]))
    a, b = s[lo], s[hi]
    d = b - a
    q = np.where(t >= 0.5, b - d * (1 - t), a + d * t)
    return q[0] - q[1]


def _histogram(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equal-width (bin_edges, counts) over [min, max]: as many bins as the
    Freedman-Diaconis rule asks for, or as Sturges' rule asks for when
    Freedman-Diaconis asks for more than ``_MAX_BINS``.  The count is the
    one ``np.histogram(samples, bins="fd")`` computes, from ``_iqr``."""
    fd_width = 2.0 * _iqr(samples) * samples.size ** (-1.0 / 3.0)
    fd_bins = np.ceil(np.ptp(samples) / fd_width) if fd_width else 1
    counts, edges = np.histogram(
        samples, bins="sturges" if fd_bins > _MAX_BINS else int(fd_bins))
    return edges, counts


def _stats_dict(result) -> dict:
    """JSON layout of a Monte Carlo summary: mean, std, stderr, count,
    histogram."""
    edges, counts = _histogram(result.samples)
    return {
        "mean": result.mean,
        "std": result.std,
        "stderr": result.stderr,
        "count": len(result.samples),
        "histogram": {"bin_edges": edges.tolist(), "counts": counts.tolist()},
    }


def _load_epsilon(path: str) -> EpsilonMatrix:
    """Load an explicit matrix: zero diagonal taken as-is, unit diagonal
    treated as a covariance whose diagonal is stripped.  A file that cannot
    be read as text, is not a table of numbers or is empty is a
    ``ParseError``."""
    try:
        with warnings.catch_warnings():
            # the empty case is reported below, as an error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            m = np.loadtxt(path, delimiter=None, ndmin=2)
    except (OSError, ValueError) as exc:  # ValueError covers UnicodeDecodeError
        raise ParseError(f"cannot read --eps-file {path}: {exc}") from exc
    if m.size == 0:
        raise ParseError(f"cannot read --eps-file {path}: it holds no numbers")
    diag = np.diag(m)
    if np.all(diag == 0.0):
        return EpsilonMatrix(entries=m)
    if np.allclose(diag, 1.0, rtol=0.0, atol=1e-12):
        return EpsilonMatrix.from_covariance(m)
    raise DomainError(
        "--eps-file matrix must have an all-zero (epsilon) or all-one "
        "(covariance) diagonal"
    )


def _cmd_dist(args):
    # nan or inf in either end, or a span that overflows, gives a non-finite span
    if not math.isfinite(args.z_max - args.z_min):
        raise DomainError(
            f"--z-min and --z-max must be finite with a finite span "
            f"(got {args.z_min}, {args.z_max})"
        )
    if args.z_max <= args.z_min:
        raise DomainError("--z-max must exceed --z-min")
    if args.steps < 2:
        raise DomainError("--steps must be >= 2")
    if args.steps > _MAX_GRID_POINTS:
        raise DomainError(f"--steps must be <= {_MAX_GRID_POINTS}")

    params = scaling_constants(args.n)
    # The gumbel kind's parser takes neither --eps-file nor --rho.
    s = max_abs_eps = 0.0
    if getattr(args, "eps_file", None) is not None:
        eps = _load_epsilon(args.eps_file)
        if eps.n != args.n:
            raise DimensionMismatch(
                f"--eps-file matrix is {eps.n}x{eps.n}, but --n is {args.n}"
            )
        s, max_abs_eps = float(np.sum(eps.entries)), eps.max_abs()
    elif getattr(args, "rho", None) is not None:
        # O(1) in n: no n x n matrix for the AR(1) route
        s = ar1_correlation_sum(args.n, args.rho)
        max_abs_eps = args.rho

    z = np.linspace(args.z_min, args.z_max, args.steps)
    cdf, pdf = corrected_law(z, params, s, args.kind)
    report = validity_check(z, cdf, pdf, max_abs_eps)
    if args.clamp:
        cdf = np.clip(cdf, 0.0, 1.0)
        pdf = np.clip(pdf, 0.0, None)

    return args.out or f"dist_{args.kind}_n{args.n}", None, {
        ".csv": (("z", "cdf", "pdf"), zip(z, cdf, pdf)),
        ".json": {
            "kind": args.kind,
            "order": args.kind,
            **_fields(params),
            "s": s,
            "clamped": bool(args.clamp),
            "validity": report,
        },
    }


def _parse_sweep(spec: str) -> list[float]:
    try:
        lo_s, hi_s, step_s = spec.split(":")
        lo, hi, step = float(lo_s), float(hi_s), float(step_s)
    except ValueError:
        raise DomainError("--rho-sweep must look like LO:HI:STEP")
    if step <= 0 or hi < lo:
        raise DomainError("--rho-sweep requires STEP > 0 and HI >= LO")
    if not (hi - lo) / step < _MAX_SWEEP_POINTS:  # also rejects inf and nan
        raise DomainError(f"--rho-sweep allows at most {_MAX_SWEEP_POINTS} points")
    values = []
    k = 0
    while True:
        v = lo + k * step
        if v > hi + 1e-12:
            break
        values.append(round(v, 12))
        k += 1
    return values


def _cmd_mc(args):
    cfg = McConfig(seed=args.seed, reps=args.reps, workers=args.workers)

    if args.rho_sweep is not None:
        rhos = _parse_sweep(args.rho_sweep)
        results = sample_max_sweep(args.n, rhos, cfg, args.sigma)
        return args.out or f"mc_n{args.n}_sweep", args.seed, {
            ".csv": (("rho", "mean", "std", "stderr"), (
                (rho, res.mean, res.std, res.stderr)
                for rho, res in zip(rhos, results)
            )),
        }

    [result] = sample_max_sweep(args.n, [args.rho], cfg, args.sigma)
    stats = _stats_dict(result)
    stats.update({"n": args.n, "rho": args.rho, "sigma": args.sigma,
                  "seed": args.seed})
    return args.out or f"mc_n{args.n}_rho{args.rho}", args.seed, {
        "_samples.csv": (("sample",), zip(result.samples)),
        "_stats.json": stats,
    }


def _cmd_graph_paths(args):
    ps = enumerate_paths(load_graph(args.graph_file), cap=args.cap)
    for i, (length, mean, std) in enumerate(zip(ps.lengths, ps.means, ps.stds)):
        print(f"path {i}: length {length}, mean {_fmt(mean)}, std {_fmt(std)}: "
              + " -> ".join(ps.node_sequence(i)))
    return None  # prints only: no file, no directory


def _cmd_graph_cov(args):
    cov = path_covariance(enumerate_paths(load_graph(args.graph_file), cap=args.cap))
    header = [f"path_{j}" for j in range(len(cov))]
    return args.out or f"{Path(args.graph_file).stem}_cov", None, {".csv": (header, cov)}


def _cmd_graph_analyze(args):
    graph = load_graph(args.graph_file)
    cfg = McConfig(seed=args.seed, reps=args.reps, workers=args.workers)
    analysis = graph_delay_analysis(
        graph, cfg, order=args.order, cap=args.cap, z_steps=args.z_steps
    )
    doc = {**_fields(analysis), "mc": _stats_dict(analysis.mc)}
    return args.out or f"{Path(args.graph_file).stem}_analysis", args.seed, {".json": doc}


def _cmd_noniid(args):
    try:
        n_grid = tuple(int(tok) for tok in args.n_grid.split(","))
    except ValueError:
        raise DomainError("--n-grid must be a comma-separated integer list")
    cfg = McConfig(seed=args.seed, reps=args.reps, workers=args.workers)
    results = non_iid_experiment(
        n_grid, cfg, mu=args.mu, sigma=args.sigma, delta_mu=args.delta_mu,
        delta_sigma=args.delta_sigma, freeze_deviations=args.freeze_deviations,
    )
    return args.out or "noniid", args.seed, {
        ".csv": (("n", "mean", "std", "stderr"), (
            (n, res.mean, res.std, res.stderr) for n, res in zip(n_grid, results)
        )),
    }


_WORKERS_HELP = ("worker processes, clamped to the usable CPUs and to the "
                 "1024-repetition chunks")


class _Parser(argparse.ArgumentParser):
    """A parser that takes each option only as spelled in full, never by a
    prefix; its sub-parsers are of this class too."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corrmax",
        description="Correlated Gaussian extremes for path-based SSTA",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    outdir = _Parser(add_help=False)
    outdir.add_argument("--outdir", help=f"output directory (or ${OUTDIR_ENV})")
    output = _Parser(add_help=False, parents=[outdir])
    output.add_argument("--out", help="output file prefix")

    curve = _Parser(add_help=False, parents=[output])
    curve.add_argument("--n", type=int, required=True,
                       help="number of correlated variables")
    curve.add_argument("--z-min", type=float, default=-1.0)
    curve.add_argument("--z-max", type=float, default=6.0)
    curve.add_argument("--steps", type=int, default=701)
    curve.add_argument("--clamp", action="store_true",
                       help="clamp CSV cdf/pdf into range (plotting aid)")
    curve.set_defaults(func=_cmd_dist)
    kinds = sub.add_parser("dist", help="tabulate distribution curves").add_subparsers(
        dest="kind", required=True)
    kinds.add_parser("gumbel", parents=[curve])
    for order in ORDERS:
        correlation = kinds.add_parser(order, parents=[curve]) \
            .add_mutually_exclusive_group(required=True)
        correlation.add_argument("--rho", type=float,
                                 help="AR(1) correlation coefficient in [0, 1)")
        correlation.add_argument("--eps-file",
                                 help="explicit epsilon/covariance matrix file")

    p_mc = sub.add_parser("mc", help="Monte Carlo maxima of AR(1) chains",
                          parents=[output])
    p_mc.add_argument("--n", type=int, required=True)
    rho = p_mc.add_mutually_exclusive_group(required=True)
    rho.add_argument("--rho", type=float)
    rho.add_argument("--rho-sweep", help="LO:HI:STEP sweep over rho")
    p_mc.add_argument("--sigma", type=float, default=1.0)
    p_mc.add_argument("--reps", type=int, default=10_000)
    p_mc.add_argument("--seed", type=int, required=True)
    p_mc.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_mc.set_defaults(func=_cmd_mc)

    graph = _Parser(add_help=False)
    graph.add_argument("graph_file")
    graph.add_argument("--cap", type=int, default=DEFAULT_PATH_CAP,
                       help="maximum number of enumerated paths")
    actions = sub.add_parser("graph", help="timing-graph analysis").add_subparsers(
        dest="action", required=True)
    # paths prints only, yet takes --outdir as every command does
    actions.add_parser("paths", parents=[outdir, graph]).set_defaults(func=_cmd_graph_paths)
    actions.add_parser("cov", parents=[output, graph]).set_defaults(func=_cmd_graph_cov)
    p_an = actions.add_parser("analyze", parents=[output, graph])
    p_an.add_argument("--order", choices=ORDERS, default="second")
    p_an.add_argument("--reps", type=int, default=10_000)
    p_an.add_argument("--seed", type=int, default=0)
    p_an.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_an.add_argument("--z-steps", type=int, default=501)
    p_an.set_defaults(func=_cmd_graph_analyze)

    p_non = sub.add_parser("noniid", help="non-identical components experiment",
                           parents=[output])
    p_non.add_argument("--n-grid", required=True,
                       help="comma-separated list of n values")
    p_non.add_argument("--mu", type=float, default=0.0)
    p_non.add_argument("--sigma", type=float, default=1.0)
    p_non.add_argument("--delta-mu", type=float, default=0.0)
    p_non.add_argument("--delta-sigma", type=float, default=0.0)
    p_non.add_argument("--reps", type=int, default=10_000)
    p_non.add_argument("--seed", type=int, required=True)
    p_non.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_non.add_argument("--freeze-deviations", action="store_true",
                       help="draw per-component deviations once per n")
    p_non.set_defaults(func=_cmd_noniid)

    return parser


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Join a negative number to the long option before it: ``--mu -3e5``
    becomes ``--mu=-3e5``.  argparse reads only ``-1``- and ``-1.5``-shaped
    strings as values, so ``-3e5`` or ``-inf`` alone would read as an
    option.  Nothing after ``--`` is joined."""
    out: list[str] = []
    for arg in argv:
        prev = out[-1] if out else ""
        if (prev.startswith("--") and "=" not in prev and "--" not in out
                and arg.startswith("-") and _is_float(arg)):
            out[-1] = f"{prev}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(
        _attach_negative_values(sys.argv[1:] if argv is None else list(argv)))
    try:
        out = _output_dir(args)
        outputs = args.func(args)
        if outputs is not None:
            _write_outputs(out, args, *outputs)
    except CorrmaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, PathExplosionError):
            return _EXIT_CAP
        if isinstance(exc, GraphError):
            return _EXIT_PARSE
        return _EXIT_USAGE
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
