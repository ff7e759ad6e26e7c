"""Golden bits: the SHA-256 of every data file of small CLI runs, pinned in
``golden.json``.

A change to the bits of any default output fails here and names the file.
Each sampler run goes at ``--workers`` 1 and 2 against the same hashes,
since a seed gives the same data files for any worker count.  Manifests
hold a timestamp and are not pinned.  The hashes hold under the Python,
numpy and C library versions recorded beside them; under other versions
``test_pinned_under_these_versions`` fails and names the difference.
After a deliberate change of bits, re-pin with
``PYTHONPATH=src python tests/test_golden.py``, which prints the runs whose
hashes it changed, and say so in CHANGES.md.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from corrmax.cli import _versions, main
from conftest import cascade_text

GOLDEN = Path(__file__).with_name("golden.json")
GRAPHS = Path(__file__).resolve().parents[1] / "graphs"
GRAPH_FILES = sorted(GRAPHS.glob("*.txt"))

# 2500 repetitions are three chunks, so two workers share a run.
_REPS = ["--reps", "2500"]

RUNS = {
    **{f"dist_{kind}": ["dist", kind, "--n", "100", "--rho", "0.3", "--steps", "201"]
       for kind in ("first", "second", "complete")},
    "dist_gumbel": ["dist", "gumbel", "--n", "100", "--steps", "201"],
    "mc_sweep": ["mc", "--n", "50", "--rho-sweep", "0:0.6:0.3", "--seed", "3", *_REPS],
    "mc_rho": ["mc", "--n", "50", "--rho", "0.35", "--seed", "3", *_REPS],
    "noniid": ["noniid", "--n-grid", "5,40", "--delta-mu", "0.2", "--delta-sigma",
               "0.1", "--seed", "6", *_REPS],
    "noniid_frozen": ["noniid", "--n-grid", "5,40", "--delta-mu", "0.2",
                      "--delta-sigma", "0.1", "--freeze-deviations", "--seed", "6",
                      *_REPS],
    **{f"analyze_{g.stem}": ["graph", "analyze", str(g), "--seed", "1", "--z-steps",
                             "101", *_REPS] for g in GRAPH_FILES},
    # the default order is second; the other two go through the same law table
    **{f"analyze_block8_{order}": ["graph", "analyze", str(GRAPHS / "block8.txt"),
                                   "--order", order, "--seed", "1", "--z-steps", "101",
                                   *_REPS] for order in ("first", "complete")},
    **{f"cov_{g.stem}": ["graph", "cov", str(g)] for g in GRAPH_FILES},
    # 256 paths: a report whose covariance spans four of the writer's row blocks
    "analyze_cascade256": ["graph", "analyze", "CASCADE256", "--seed", "1",
                           "--z-steps", "101", *_REPS],
}


def data_file_hashes(args: list[str], outdir: Path) -> dict[str, str]:
    """Run the CLI in process into ``outdir``; the SHA-256 of each data file.
    ``CASCADE256`` names ``cascade_text(9, seed=21)``, written beside
    ``outdir``."""
    if "CASCADE256" in args:
        graph = outdir.parent / f"{outdir.name}_cascade256.txt"
        graph.parent.mkdir(parents=True, exist_ok=True)
        graph.write_text(cascade_text(9, seed=21))
        args = [str(graph) if a == "CASCADE256" else a for a in args]
    assert main(args + ["--out", "x", "--outdir", str(outdir)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.iterdir()) if not p.name.endswith(".manifest.json")}


def _pinned() -> dict:
    return json.loads(GOLDEN.read_text())


def test_pinned_under_these_versions():
    pinned, running = _pinned()["versions"], _versions()
    diff = {k: (pinned.get(k), running.get(k))
            for k in pinned.keys() | running.keys() if pinned.get(k) != running.get(k)}
    assert not diff, f"golden.json was pinned under other versions (pinned, running): {diff}"


def test_every_run_is_pinned():
    assert sorted(_pinned()["files"]) == sorted(RUNS)


@pytest.mark.parametrize("run", RUNS)
def test_data_files_equal_the_pinned_bits(tmp_path, run):
    pinned = _pinned()["files"][run]
    for workers in (1, 2) if "--seed" in RUNS[run] else (1,):
        extra = ["--workers", "2"] if workers == 2 else []
        got = data_file_hashes(RUNS[run] + extra, tmp_path / f"w{workers}")
        assert got.keys() == pinned.keys(), f"{run}: files {sorted(got)}"
        changed = [name for name in got if got[name] != pinned[name]]
        assert not changed, f"{run} at --workers {workers}: bits changed in {changed}"


if __name__ == "__main__":
    import tempfile

    before = _pinned()["files"]
    with tempfile.TemporaryDirectory() as tmp:
        files = {run: data_file_hashes(args, Path(tmp) / run) for run, args in RUNS.items()}
    GOLDEN.write_text(json.dumps({"versions": _versions(), "files": files},
                                 indent=2, sort_keys=True) + "\n")
    print("\n".join(f"changed: {run}" for run in sorted(files) if files[run] != before.get(run)))
