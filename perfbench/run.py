"""Benchmark of the corrmax CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is ``src/corrmax``,
started as ``python3 -m corrmax`` with ``src`` on ``PYTHONPATH``.  Each
workload (see ``workloads.py``) is a list of CLI calls made one at a time, a
closed loop with one client.  One pass runs the whole list; passes repeat
for S seconds (at least three) and every output is checked.  Commands are
spawned and timed by ``spawner.py``, a small process, so that each child's
max-RSS is its own.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of an in-process traced pass (``tracer.py``) with ``--trace 1``.
``--pin`` instead runs one pass and records its data-file hashes in
``hashes.json``.  See README.md for the metrics.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from layers import LAYER_UNITS, layer_metrics
from workloads import CASCADE_STAGES, WORKLOADS, Call, Plan

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
PINS = HERE / "hashes.json"
MIN_PASSES = 3
TRACE_MIN_PASSES = 2
IMPORTS_PER_PASS = 2
# The host's speed drifts by tens of percent over minutes, so every timing is
# scaled by REFERENCE_S / (median time of this program-independent start-up,
# measured between the passes of the same run).  REFERENCE_S is that median
# on the reference 2-vCPU Xeon VM, which keeps the figures in seconds.
REFERENCE_IMPORT = "import numpy, scipy.special"
REFERENCE_S = 0.40


@dataclass
class CallRun:
    call: Call
    outdir: Path
    code: int
    rss_mb: float
    spans: Path | None


@dataclass
class Pass:
    wall: float
    runs: list[CallRun]


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Handle on ``spawner.py``, the small process that runs and times commands."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, calls: list[tuple[list[str], Path]]) -> tuple[float, list[tuple[int, float]]]:
        """Run commands in order; return the wall time of the whole sequence
        and each command's exit code and max RSS in MiB."""
        self.proc.stdin.write(json.dumps([[argv, str(out)] for argv, out in calls]) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited early")
        reply = json.loads(line)
        return reply["wall"], [tuple(c) for c in reply["calls"]]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self.proc.terminate()  # it kills the command it waits for, then exits
            self.proc.wait()


def run_pass(calls: list[Call], pass_dir: Path, spawner: Spawner, traced: bool = False) -> Pass:
    """Run every call in order; wall time runs from the first spawn to the
    last exit, with every data file on disk."""
    commands, spans = [], []
    for call in calls:
        outdir = pass_dir / call.name
        outdir.mkdir(parents=True)
        args = [*call.argv, "--outdir", str(outdir)]
        if traced:
            spans.append(pass_dir / f"{call.name}.spans.json")
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans[-1]), "--", *args]
        else:
            spans.append(None)
            cmd = [sys.executable, "-m", "corrmax", *args]
        commands.append((cmd, pass_dir / f"{call.name}.out"))
    wall, results = spawner.run(commands)
    return Pass(wall, [CallRun(call, pass_dir / call.name, code, rss, span)
                       for call, (code, rss), span in zip(calls, results, spans)])


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_run(run: CallRun) -> tuple[list[str], dict[str, str]]:
    """Problems with one call's outputs, and the hashes of its data files.

    Manifests carry a timestamp, so they are checked for presence only.
    """
    stdout_path = run.outdir.parent / f"{run.call.name}.out"
    if run.code != 0:
        err = stdout_path.with_suffix(".err").read_text(errors="replace").strip()
        return [f"exit {run.code}: {err[-300:]}"], {}
    present = {p.name for p in run.outdir.iterdir()}
    problems = [f"missing {name}" for name in run.call.files if name not in present]
    if run.call.files and not any(n.endswith(".manifest.json") for n in present):
        problems.append("missing manifest")
    if problems:
        return problems, {}
    stdout = stdout_path.read_text()
    try:
        problems = run.call.check(run.outdir, stdout)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        problems = [f"output check raised {exc!r}"]
    hashes = {f"{run.call.name}/{name}": _sha256(run.outdir / name)
              for name in sorted(present) if not name.endswith(".manifest.json")}
    if run.call.stdout_is_data:
        hashes[f"{run.call.name}/stdout"] = hashlib.sha256(stdout.encode()).hexdigest()
    return problems, hashes


class Tally:
    """Operations attempted and failed, with the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems[:3]]


def checked_pass(plan: Plan, pass_dir: Path, spawner: Spawner, tally: Tally,
                 traced: bool = False):
    """Run, check and hash one pass, then delete its outputs.

    Returns the pass, its hashes and its bytes written (all files, manifests
    included)."""
    p = run_pass(plan.calls, pass_dir, spawner, traced)
    hashes = {}
    written = 0
    for run in p.runs:
        problems, h = check_run(run)
        tally.record(f"{pass_dir.name}/{run.call.name}", problems)
        hashes.update(h)
        written += sum(f.stat().st_size for f in run.outdir.iterdir())
    spans = [json.loads(r.spans.read_text()) for r in p.runs if r.spans and r.spans.exists()]
    shutil.rmtree(pass_dir)
    return p, hashes, written, spans


def time_import(spawner: Spawner, scratch: Path, code: str = "import corrmax.cli") -> float | None:
    """Wall time of a fresh interpreter that only runs ``code``."""
    wall, [(status, _)] = spawner.run([([sys.executable, "-c", code], scratch / "import.out")])
    return wall if status == 0 else None


def machine_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
             "python": platform.python_version(), "numpy": np.__version__,
             "scipy": scipy.__version__}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                      if line.startswith("model name"))
    except (OSError, StopIteration):
        facts["cpu_model"] = platform.processor() or "unknown"
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            facts[f"L{level}"] = size
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    paths = 2 ** (CASCADE_STAGES - 1)
    pxp_mib = paths * paths * 8 / 2**20
    facts["graph_cascade_pxp_mib"] = pxp_mib
    l3 = facts.get("L3", "")
    if l3[:-1].isdigit() and l3[-1] in "KMG":
        l3_mib = int(l3[:-1]) * {"K": 2**-10, "M": 1, "G": 2**10}[l3[-1]]
        facts["note"] = (f"graph_cascade's P x P float64 arrays ({pxp_mib:g} MiB) "
                         + ("fit in L3, so no memory-bandwidth claim can rest on it"
                            if pxp_mib < l3_mib else "exceed L3"))
    return facts


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# --- reporting ----------------------------------------------------------------


def report(name: str, values: list[float], unit: str, what: str) -> float:
    q1, med, q3 = quartiles(values)
    print(f"  {name:<14} {med:12.6g} {unit:<6} p25 {q1:.6g}  p75 {q3:.6g}  n={len(values)} {what}")
    return med


def pinned_mismatches(workload: str, seed: int, hashes: dict[str, str]) -> int | None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pinned = pins.get(workload, {}).get(str(seed))
    if pinned is None:
        return None
    return sum(pinned.get(k) != hashes.get(k) for k in set(pinned) | set(hashes))


def pin(workload: str, seed: int, hashes: dict[str, str]) -> None:
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(workload, {})[str(seed)] = hashes
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="run one pass and record its data-file hashes in hashes.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "corrmax" / "cli.py").is_file():
        print(f"error: no corrmax source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    facts = machine_facts()
    print(f"machine: {json.dumps(facts, sort_keys=True)}")
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".perfbench"))
    spawner = Spawner(_env())
    try:
        return measure(workload, args, work, spawner)
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(workload, args, work: Path, spawner: Spawner) -> int:
    inputs = work / "inputs"
    inputs.mkdir()
    plan = workload.prepare(random.Random(f"{workload.name}/{args.seed}"), inputs)
    tally = Tally()
    for call in plan.setup_calls:
        checked_pass(Plan([call], 1), work / f"setup-{call.name}", spawner, tally)

    # The first import compiles bytecode; later ones read it, as users do.
    time_import(spawner, work)
    imports, references = [], []

    def sample_imports():
        # Spread between passes, so that both see the same load phases.
        if not (args.trace or args.pin):
            for _ in range(IMPORTS_PER_PASS):
                t = time_import(spawner, work)
                tally.record("import corrmax.cli", [] if t is not None else ["import failed"])
                imports.extend([t] if t is not None else [])
                ref = time_import(spawner, work, REFERENCE_IMPORT)
                references.extend([ref] if ref is not None else [])

    if args.pin:
        _, hashes, _, _ = checked_pass(plan, work / "pin", spawner, tally)
        if tally.failed:
            print("\n".join(tally.problems), file=sys.stderr)
            return 1
        pin(workload.name, args.seed, hashes)
        print(f"pinned {len(hashes)} hashes for {workload.name} seed {args.seed}")
        return 0

    min_passes = TRACE_MIN_PASSES if args.trace else MIN_PASSES
    budget = args.seconds / 2 if args.trace else args.seconds
    walls, rss, first_hashes = [], [], {}
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start + walls[-1] <= budget:
        sample_imports()
        p, hashes, _, _ = checked_pass(plan, work / f"pass-{len(walls)}", spawner, tally)
        walls.append(p.wall)
        rss.append(max(r.rss_mb for r in p.runs))
        first_hashes = first_hashes or hashes
        if hashes.keys() == first_hashes.keys() and hashes != first_hashes:
            tally.record("determinism", ["data files differ between passes of one seed"])
    sample_imports()
    mismatches = pinned_mismatches(workload.name, args.seed, first_hashes)

    print(f"closed loop, 1 client, {len(plan.calls)} CLI call(s) per pass, "
          f"{plan.ops_per_pass} ops per pass, {len(walls)} passes in "
          f"{time.perf_counter() - start:.1f} s")
    print(f"  pass walls: {' '.join(f'{w:.3f}' for w in walls)} s")
    wall_s = report("wall_s", walls, "s", "passes")
    ops = report("ops_per_s", [plan.ops_per_pass / w for w in walls], "ops/s", "passes")
    peak = report("peak_rss_mb", rss, "MiB", "passes (largest CLI process of each)")
    print(f"  check.hash_mismatches "
          + ("unpinned seed" if mismatches is None else f"{mismatches} against hashes.json"))

    if args.trace:
        traced, hashes, written, docs = checked_pass(plan, work / "traced", spawner, tally,
                                                     traced=True)
        if hashes.keys() == first_hashes.keys() and hashes != first_hashes:
            tally.record("tracing", ["traced outputs differ from untraced ones"])
        absent = sorted({a for d in docs for a in d["absent"]})
        layers = layer_metrics(docs)
        layers["cli.bytes_written"] = written
        layers["trace.overhead_s"] = traced.wall - wall_s
        layers["trace.unaccounted_s"] = wall_s - layers["cli.import_s"] - layers.pop("cli.main_s")
        layers["check.hash_mismatches"] = mismatches or 0
        print(f"traced pass {traced.wall:.6g} s against untraced median {wall_s:.6g} s; "
              f"hooks absent: {absent or 'none'}")
        for key, value in layers.items():
            print(f"  {key:<30} {value:.6g} {LAYER_UNITS[key]}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        if not imports or not references:
            print("error: a fresh interpreter failed every import", file=sys.stderr)
            return 1
        setup = report("setup_s", imports, "s", "fresh interpreters running import corrmax.cli")
        ref = report("reference", references, "s", f"fresh interpreters running {REFERENCE_IMPORT}")
        scale = REFERENCE_S / ref
        print(f"  scaled by {REFERENCE_S} s / reference = {scale:.6g} to the reference host speed:")
        metrics = {
            "wall_s": {"value": wall_s * scale, "unit": "s"},
            "ops_per_s": {"value": ops / scale, "unit": "ops/s"},
            "setup_s": {"value": setup * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MiB"},
        }
        for key, m in metrics.items():
            print(f"  {key:<14} {m['value']:12.6g} {m['unit']}")
    print(f"  error_rate     {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} failed / {tally.attempted} attempted)")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
