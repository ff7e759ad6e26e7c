"""The benchmark's workloads: generated inputs, CLI calls and output checks.

Every workload is a fixed list of ``corrmax`` CLI calls, made one at a time
(a closed loop with one client).  ``prepare`` derives each ``--seed`` and
every generated input from the workload seed, writes the inputs, and
returns the calls.  Each call names the data files it must write and a
check that returns a list of problems (empty when the output is correct).
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import integrate, special

import graphgen

CASCADE_STAGES = 11
NONIID_DELTA = 0.2


@dataclass
class Call:
    """One CLI call: ``python -m corrmax ARGV --outdir DIR``."""

    name: str
    argv: list[str]
    files: tuple[str, ...]
    check: Callable[[Path, str], list[str]]  # (outdir, stdout) -> problems
    # The call's data goes to stdout instead of a file (``graph paths``).
    stdout_is_data: bool = False


@dataclass
class Plan:
    """What one workload runs for one seed."""

    calls: list[Call]
    ops_per_pass: int
    # Checks made once at set-up, untimed; each counts as an operation.
    setup_calls: list[Call] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    prepare: Callable[[random.Random, Path], Plan]


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _floats(row: dict[str, str], *keys: str) -> list[float]:
    return [float(row[k]) for k in keys]


def _stderr_problems(std: float, stderr: float, reps: int, where: str) -> list[str]:
    if not math.isclose(stderr, std / math.sqrt(reps), rel_tol=1e-12):
        return [f"{where}: stderr {stderr} != std/sqrt(reps) {std / math.sqrt(reps)}"]
    return []


# --- ar1_sweep ---------------------------------------------------------------

AR1_RHOS = [round(0.1 * k, 12) for k in range(1, 10)]


def _check_ar1_sweep(path: Path, reps: int) -> list[str]:
    rows = _rows(path)
    if len(rows) != len(AR1_RHOS):
        return [f"{path.name}: {len(rows)} rows, expected {len(AR1_RHOS)}"]
    problems = []
    stats = []
    for rho, row in zip(AR1_RHOS, rows):
        r, mean, std, stderr = _floats(row, "rho", "mean", "std", "stderr")
        if not all(map(math.isfinite, (r, mean, std, stderr))):
            problems.append(f"rho {rho}: non-finite value")
            continue
        if abs(r - rho) > 1e-9:
            problems.append(f"row rho {r}, expected {rho}")
        problems += _stderr_problems(std, stderr, reps, f"rho {rho}")
        stats.append((rho, mean, stderr))
    # E[max] of an AR(1) chain falls as rho rises; common random numbers make
    # neighbouring points strongly correlated, so 3 combined stderr is loose.
    for (r0, m0, s0), (r1, m1, s1) in zip(stats, stats[1:]):
        if m1 > m0 + 3.0 * math.hypot(s0, s1):
            problems.append(f"mean rises from rho {r0} ({m0}) to rho {r1} ({m1})")
    return problems


def _ar1_sweep(rng: random.Random, inputs: Path) -> Plan:
    seed, reps = rng.randrange(2**31), 10_000
    workers = len(os.sched_getaffinity(0))
    call = Call(
        "mc_sweep",
        ["mc", "--n", "200", "--rho-sweep", "0.1:0.9:0.1", "--reps", str(reps),
         "--workers", str(workers), "--seed", str(seed)],
        ("mc_n200_sweep.csv",),
        lambda outdir, _: _check_ar1_sweep(outdir / "mc_n200_sweep.csv", reps),
    )
    return Plan([call], ops_per_pass=len(AR1_RHOS) * reps)


# --- noniid_grid -------------------------------------------------------------


def noniid_exact_mean(n: int, delta: float) -> float:
    """Exact E[max] of n IID components X = U + Z, U ~ U(-delta, delta),
    Z ~ N(0, 1): F(z) = (1/2) int_{-1}^{1} Phi(z - delta*u) du, and
    E[max] = int_0^inf (1 - F^n) dz - int_{-inf}^0 F^n dz."""
    u, w = np.polynomial.legendre.leggauss(64)

    def cdf(z):
        return special.ndtr(z[:, None] - delta * u[None, :]) @ w / 2.0

    upper = np.linspace(0.0, 12.0, 24_001)
    lower = np.linspace(-12.0, 0.0, 24_001)
    return float(integrate.simpson(1.0 - cdf(upper) ** n, x=upper)
                 - integrate.simpson(cdf(lower) ** n, x=lower))


def _check_noniid(path: Path, grid: list[int], reps: int, exact: dict[int, float]) -> list[str]:
    rows = _rows(path)
    if [int(r["n"]) for r in rows] != grid:
        return [f"{path.name}: n column {[r['n'] for r in rows]}, expected {grid}"]
    problems = []
    for row in rows:
        n = int(row["n"])
        mean, std, stderr = _floats(row, "mean", "std", "stderr")
        if not all(map(math.isfinite, (mean, std, stderr))):
            problems.append(f"n {n}: non-finite value")
            continue
        problems += _stderr_problems(std, stderr, reps, f"n {n}")
        if n in exact and abs(mean - exact[n]) > 4.0 * stderr:
            problems.append(f"n {n}: mean {mean} is {abs(mean - exact[n]) / stderr:.1f} "
                            f"stderr from the exact {exact[n]}")
    return problems


def _noniid_call(name: str, grid: list[int], reps: int, seed: int, workers: int,
                 exact: dict[int, float]) -> Call:
    return Call(
        name,
        ["noniid", "--n-grid", ",".join(map(str, grid)), "--delta-mu", str(NONIID_DELTA),
         "--reps", str(reps), "--workers", str(workers), "--seed", str(seed)],
        ("noniid.csv",),
        lambda outdir, _: _check_noniid(outdir / "noniid.csv", grid, reps, exact),
    )


def _noniid_grid(rng: random.Random, inputs: Path) -> Plan:
    grid, reps = [10, 100, 1000], 10_000
    exact = {n: noniid_exact_mean(n, NONIID_DELTA) for n in grid}
    call = _noniid_call("noniid", grid, reps, rng.randrange(2**31), 1, exact)
    return Plan([call], ops_per_pass=len(grid) * reps)


# --- graph_cascade and the graph calls of cli_batch --------------------------


def _check_paths_stdout(stdout: str, expected: int) -> list[str]:
    found = sum(line.startswith("path ") for line in stdout.splitlines())
    return [] if found == expected else [f"graph paths printed {found} paths, expected {expected}"]


def _check_unit_correlation(cov: np.ndarray, where: str) -> list[str]:
    problems = []
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        return [f"{where}: covariance shape {cov.shape}"]
    if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
        problems.append(f"{where}: covariance not symmetric")
    if not np.array_equal(np.diag(cov), np.ones(cov.shape[0])):
        problems.append(f"{where}: covariance diagonal is not all ones")
    if cov.min() < 0.0 or cov.max() > 1.0 + 1e-12:
        problems.append(f"{where}: covariance entries outside [0, 1]")
    return problems


def _check_analysis(path: Path, paths: int, reps: int, edges) -> list[str]:
    doc = json.loads(path.read_text())
    if doc["n_paths"] != paths:
        return [f"{path.name}: n_paths {doc['n_paths']}, expected {paths}"]
    problems = _check_unit_correlation(np.array(doc["covariance"], dtype=float), path.name)
    nominal = graphgen.longest_mean(edges)
    if not math.isclose(doc["nominal_mean"], nominal, rel_tol=1e-12):
        problems.append(f"{path.name}: nominal_mean {doc['nominal_mean']}, "
                        f"longest-mean DP gives {nominal}")
    mc = doc["mc"]
    if mc["count"] != reps:
        problems.append(f"{path.name}: mc count {mc['count']}, expected {reps}")
    # E[max_i X_i] >= max_i E[X_i], so the MC mean may only fall short by noise.
    if not mc["mean"] >= doc["nominal_mean"] - 4.0 * mc["stderr"]:
        problems.append(f"{path.name}: mc mean {mc['mean']} below nominal mean "
                        f"{doc['nominal_mean']} by more than 4 stderr")
    return problems


def _analyze_call(graph: Path, paths: int, reps: int, seed: int) -> Call:
    edges = graphgen.read_graph(graph)
    out = f"{graph.stem}_analysis.json"
    return Call(
        f"analyze_{graph.stem}",
        ["graph", "analyze", str(graph), "--reps", str(reps), "--seed", str(seed)],
        (out,),
        lambda outdir, _: _check_analysis(outdir / out, paths, reps, edges),
    )


def _paths_call(graph: Path, expected: int) -> Call:
    return Call(
        f"paths_{graph.stem}", ["graph", "paths", str(graph)], (),
        lambda _, stdout: _check_paths_stdout(stdout, expected),
        stdout_is_data=True,
    )


def _graph_cascade(rng: random.Random, inputs: Path) -> Plan:
    seed = rng.randrange(2**31)
    graph = inputs / "cascade.txt"
    graphgen.write_graph(graph, graphgen.cascade_edges(CASCADE_STAGES, rng))
    paths = 2 ** (CASCADE_STAGES - 1)
    counted = graphgen.path_count(graphgen.read_graph(graph))
    if counted != paths:
        raise RuntimeError(f"generator made {counted} paths, expected {paths}")
    reps = 10_000
    return Plan([_analyze_call(graph, paths, reps, seed)], ops_per_pass=reps,
                setup_calls=[_paths_call(graph, paths)])


# --- cli_batch ---------------------------------------------------------------


def _check_dist(outdir: Path, prefix: str, kind: str) -> list[str]:
    rows = _rows(outdir / f"{prefix}.csv")
    problems = [] if len(rows) == 701 else [f"{prefix}.csv: {len(rows)} rows, expected 701"]
    if not all(math.isfinite(v) for row in rows for v in _floats(row, "z", "cdf", "pdf")):
        problems.append(f"{prefix}.csv: non-finite value")
    if json.loads((outdir / f"{prefix}.json").read_text())["kind"] != kind:
        problems.append(f"{prefix}.json: wrong kind")
    return problems


def _dist_call(kind: str, n: int, rho: float) -> Call:
    prefix = f"dist_{kind}_n{n}"
    argv = ["dist", kind, "--n", str(n)] + ([] if kind == "gumbel" else ["--rho", str(rho)])
    return Call(f"dist_{kind}", argv, (f"{prefix}.csv", f"{prefix}.json"),
                lambda outdir, _: _check_dist(outdir, prefix, kind))


def _check_cov_csv(path: Path, paths: int) -> list[str]:
    cov = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if cov.shape != (paths, paths):
        return [f"{path.name}: shape {cov.shape}, expected {(paths, paths)}"]
    return _check_unit_correlation(cov, path.name)


def _check_mc(outdir: Path, prefix: str, reps: int) -> list[str]:
    samples = np.loadtxt(outdir / f"{prefix}_samples.csv", skiprows=1, ndmin=1)
    stats = json.loads((outdir / f"{prefix}_stats.json").read_text())
    problems = []
    if samples.shape != (reps,) or not np.all(np.isfinite(samples)):
        problems.append(f"{prefix}_samples.csv: expected {reps} finite samples")
    elif stats["count"] != reps or not math.isclose(stats["mean"], float(np.mean(samples)),
                                                    rel_tol=1e-9):
        problems.append(f"{prefix}_stats.json disagrees with the samples file")
    return problems


def _cli_batch(rng: random.Random, inputs: Path) -> Plan:
    seed = rng.randrange(2**31)
    rho = round(rng.uniform(0.2, 0.6), 3)
    graphs = {}
    for name, edges in [("shared7", graphgen.shared_nodes_edges(rng)),
                        ("diamond", graphgen.cascade_edges(2, rng)),
                        ("block8", graphgen.cascade_edges(4, rng)),
                        ("cascade64", graphgen.cascade_edges(7, rng))]:
        graphs[name] = inputs / f"{name}.txt"
        graphgen.write_graph(graphs[name], edges)
    mc_prefix = "mc_n100_rho0.35"
    calls = [_dist_call(kind, 100, rho) for kind in ("gumbel", "first", "second", "complete")]
    calls += [
        _paths_call(graphs["shared7"], 4),
        Call("cov_shared7", ["graph", "cov", str(graphs["shared7"])], ("shared7_cov.csv",),
             lambda outdir, _: _check_cov_csv(outdir / "shared7_cov.csv", 4)),
        _analyze_call(graphs["diamond"], 2, 1000, seed),
        _analyze_call(graphs["block8"], 8, 1000, seed),
        _analyze_call(graphs["cascade64"], 64, 1000, seed),
        Call("mc_rho", ["mc", "--n", "100", "--rho", "0.35", "--reps", "2000",
                        "--seed", str(seed)],
             (f"{mc_prefix}_samples.csv", f"{mc_prefix}_stats.json"),
             lambda outdir, _: _check_mc(outdir, mc_prefix, 2000)),
        _noniid_call("noniid_small", [10, 100], 2000, seed, 1,
                     {n: noniid_exact_mean(n, NONIID_DELTA) for n in (10, 100)}),
    ]
    return Plan(calls, ops_per_pass=len(calls))


WORKLOADS = {w.name: w for w in [
    Workload("ar1_sweep", "AR(1) rho-sweep on the thread pool: the montecarlo stream, the "
             "normal quantile and the recurrence do the work; graph layers idle", _ar1_sweep),
    Workload("noniid_grid", "wide independent rows on one thread, no shared numbers: the same "
             "stream and quantile layers used differently from the sweep", _noniid_grid),
    Workload("graph_cascade", "1024-path generated DAG: enumeration, covariance, S, eigh, "
             "multivariate MC and a 27 MB JSON write share the time", _graph_cascade),
    Workload("cli_batch", "11 short CLI calls where interpreter start and import dominate: the "
             "bypass case for every compute optimisation", _cli_batch),
]}
