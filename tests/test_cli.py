"""Tests for the command-line interface (in-process invocation)."""
from __future__ import annotations

import dataclasses
import json
import os
import platform

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from corrmax import (
    GraphAnalysis,
    McConfig,
    enumerate_paths,
    load_graph,
    non_iid_experiment,
    parse_graph,
    path_covariance,
    sample_max_sweep,
    scaling_constants,
    validity_check,
)
import corrmax.cli
from corrmax.cli import (
    _BLOCK_ENTRIES,
    _ENTRY_SEP,
    _attach_negative_values,
    _float_text,
    _shortest_digits,
    _write_json,
    main,
)
from conftest import cascade64_text, cascade_text, traced_peak


def run(args: list[str]) -> int:
    return main(args)


def run_refused(args: list[str], capsys) -> str:
    """Run ``args``, which argparse must refuse with exit 2; return stderr."""
    with pytest.raises(SystemExit) as exc:
        run(args)
    assert exc.value.code == 2
    return capsys.readouterr().err


class TestDist:
    def test_gumbel_tabulation(self, tmp_path):
        code = run([
            "dist", "gumbel", "--n", "100", "--z-min", "-1", "--z-max", "6",
            "--steps", "700", "--out", "g", "--outdir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "g.csv").read_text().splitlines()
        assert lines[0] == "z,cdf,pdf"
        assert len(lines) == 701
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["n"] == 100 and doc["s"] == 0.0
        manifest = json.loads((tmp_path / "g.manifest.json").read_text())
        assert manifest["command"] == "dist"
        assert manifest["tool_version"]

    def test_manifest_records_versions(self, tmp_path):
        assert run(["dist", "gumbel", "--n", "10", "--out", "g",
                    "--outdir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "g.manifest.json").read_text())
        libc = (os.confstr("CS_GNU_LIBC_VERSION")
                if "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) else None)
        assert manifest["versions"] == {
            "python": platform.python_version(), "numpy": np.__version__, "libc": libc}

    def test_first_with_zero_rho_equals_gumbel(self, tmp_path):
        run(["dist", "gumbel", "--n", "100", "--out", "a",
             "--outdir", str(tmp_path)])
        run(["dist", "first", "--n", "100", "--rho", "0", "--out", "b",
             "--outdir", str(tmp_path)])
        assert (tmp_path / "a.csv").read_bytes() == \
               (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("kind", ["gumbel", "first", "second", "complete"])
    def test_sidecar_order_is_the_kind(self, tmp_path, kind):
        rho = [] if kind == "gumbel" else ["--rho", "0.3"]
        assert run(["dist", kind, "--n", "50", *rho, "--steps", "11", "--out", "d",
                    "--outdir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["order"] == doc["kind"] == kind

    def test_second_order_sidecar_and_clamp(self, tmp_path):
        code = run([
            "dist", "second", "--n", "100", "--rho", "0.5", "--out", "s",
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["order"] == "second"
        assert doc["s"] > 0
        assert set(doc["validity"]) == {
            "smallness_ok", "max_abs_eps", "cdf_monotone", "cdf_bounded",
            "pdf_nonnegative", "z_violations",
        }
        code = run([
            "dist", "second", "--n", "100", "--rho", "0.5", "--clamp",
            "--out", "sc", "--outdir", str(tmp_path),
        ])
        assert code == 0
        rows = (tmp_path / "sc.csv").read_text().splitlines()[1:]
        cdf = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))

    def test_eps_file_covariance_and_epsilon(self, tmp_path):
        cov = np.array([[1.0, 0.2, 0.1], [0.2, 1.0, 0.3], [0.1, 0.3, 1.0]])
        np.savetxt(tmp_path / "cov.txt", cov)
        code = run([
            "dist", "first", "--n", "3", "--eps-file", str(tmp_path / "cov.txt"),
            "--out", "c", "--outdir", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "c.json").read_text())
        assert doc["s"] == pytest.approx(2 * (0.2 + 0.1 + 0.3), abs=1e-12)

        eps = cov - np.eye(3)
        np.savetxt(tmp_path / "eps.txt", eps)
        run([
            "dist", "first", "--n", "3", "--eps-file", str(tmp_path / "eps.txt"),
            "--out", "e", "--outdir", str(tmp_path),
        ])
        assert (tmp_path / "c.csv").read_bytes() == \
               (tmp_path / "e.csv").read_bytes()

        np.savetxt(tmp_path / "bad.txt", cov + np.eye(3))
        assert run([
            "dist", "first", "--n", "3", "--eps-file", str(tmp_path / "bad.txt"),
            "--outdir", str(tmp_path),
        ]) == 2

    def test_eps_file_of_wrong_size_exit_2(self, tmp_path, capsys):
        cov = np.full((5, 5), 0.1)
        np.fill_diagonal(cov, 1.0)
        np.savetxt(tmp_path / "cov5.txt", cov)
        out = tmp_path / "out"
        assert run([
            "dist", "first", "--n", "3", "--eps-file", str(tmp_path / "cov5.txt"),
            "--outdir", str(out),
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "0 0.2\n0.2 x\n",  # non-numeric token
        "0 0.2 0.1\n0.2 0\n0.1 0.3 0\n",  # ragged rows
    ])
    def test_malformed_eps_file_exit_3(self, tmp_path, capsys, text):
        (tmp_path / "bad.txt").write_text(text)
        out = tmp_path / "out"
        assert run([
            "dist", "first", "--n", "3", "--eps-file", str(tmp_path / "bad.txt"),
            "--outdir", str(out),
        ]) == 3
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, z_min, z_max", [
        ("second", "1e307", "1.7e308"),  # 2 z overflowed, and inf * 0 is NaN
        ("gumbel", "1e200", "1.5e200"),  # z^2 overflowed
        ("complete", "-1.7e308", "-1e307"),  # (z - alpha) / beta overflowed
        ("first", "-1e200", "1e200"),
    ], ids=["second_top", "gumbel_z_squared", "complete_bottom", "first_both"])
    def test_huge_z_gives_the_limits(self, tmp_path, kind, z_min, z_max):
        """Past |z| = 40 every curve sits at its limit, cdf 0 or 1 and pdf 0,
        reached with no overflow warning (an error under pytest)."""
        rho = [] if kind == "gumbel" else ["--rho", "0.1"]
        assert run(["dist", kind, "--n", "10", *rho, "--z-min", z_min,
                    "--z-max", z_max, "--out", "d", "--outdir", str(tmp_path)]) == 0
        z, cdf, pdf = np.loadtxt(tmp_path / "d.csv", delimiter=",", skiprows=1).T
        far = np.abs(z) > 40.0
        assert far.sum() >= 699 and np.all(np.isfinite(pdf))
        np.testing.assert_array_equal(cdf[far], (z[far] > 0).astype(float))
        np.testing.assert_array_equal(pdf[far], 0.0)

    def test_validation_exit_codes(self, tmp_path, capsys):
        base = ["--outdir", str(tmp_path)]
        assert run(["dist", "first", "--n", "100", "--rho", "1.5"] + base) == 2
        out = tmp_path / "no_rho"
        assert "error: one of the arguments --rho --eps-file is required\n" in \
            run_refused(["dist", "first", "--n", "100", "--outdir", str(out)], capsys)
        assert not out.exists()
        assert run(["dist", "gumbel", "--n", "1"] + base) == 2
        assert run(["dist", "gumbel", "--n", "100", "--z-min", "5",
                    "--z-max", "1"] + base) == 2


class TestMc:
    def test_reproducible_outputs(self, tmp_path):
        for sub, workers in (("w1", "1"), ("w8", "8")):
            (tmp_path / sub).mkdir()
            code = run([
                "mc", "--n", "50", "--rho", "0.35", "--reps", "2000",
                "--seed", "42", "--workers", workers, "--out", "m",
                "--outdir", str(tmp_path / sub),
            ])
            assert code == 0
        for name in ("m_samples.csv", "m_stats.json"):
            assert (tmp_path / "w1" / name).read_bytes() == \
                   (tmp_path / "w8" / name).read_bytes()

    def test_overflow_reads_the_same_on_two_workers(self, tmp_path, capfd):
        """Three chunks: with --workers 2 a forked child runs the second,
        and the run fails as one worker does, on one line of stderr."""
        captured = []
        for workers in ("1", "2"):
            assert run(["mc", "--n", "5", "--rho", "0.3", "--sigma", "1e308",
                        "--reps", "2100", "--seed", "1", "--workers", workers,
                        "--outdir", str(tmp_path / workers)]) == 2
            captured.append(capfd.readouterr())
        assert captured[0] == captured[1]
        assert captured[0].out == "" and captured[0].err.count("\n") == 1
        assert captured[0].err.startswith("error: samples must be finite (")

    def test_stats_content(self, tmp_path):
        run(["mc", "--n", "1", "--rho", "0.5", "--reps", "4000",
             "--seed", "11", "--out", "m", "--outdir", str(tmp_path)])
        doc = json.loads((tmp_path / "m_stats.json").read_text())
        assert doc["count"] == 4000
        se = doc["std"] / np.sqrt(doc["count"])
        assert abs(doc["mean"]) < 3 * se

    def test_rho_sweep(self, tmp_path):
        code = run([
            "mc", "--n", "20", "--rho-sweep", "0.2:0.6:0.2", "--reps", "500",
            "--seed", "3", "--out", "sweep", "--outdir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "rho,mean,std,stderr"
        rhos = [float(l.split(",")[0]) for l in lines[1:]]
        assert rhos == [0.2, 0.4, 0.6]

    def test_validation(self, tmp_path, capsys):
        base = ["--outdir", str(tmp_path)]
        assert run(["mc", "--n", "10", "--rho", "1.5", "--seed", "1"] + base) == 2
        out = tmp_path / "no_rho"
        assert "error: one of the arguments --rho --rho-sweep is required\n" in \
            run_refused(["mc", "--n", "10", "--seed", "1", "--outdir", str(out)], capsys)
        assert not out.exists()
        assert run(["mc", "--n", "10", "--rho-sweep", "0.5:0.1:0.1",
                    "--seed", "1"] + base) == 2

    @pytest.mark.parametrize("spec", [
        "0:10000:1",   # 10,001 points, one past the bound
        "0:1:1e-9",
        "0:inf:0.1",
        "nan:1:0.1",
        "0:1:nan",
    ])
    def test_sweep_point_bound(self, tmp_path, spec):
        # Every spec here is rejected before any list is built.
        assert run(["mc", "--n", "10", "--rho-sweep", spec, "--seed", "1",
                    "--outdir", str(tmp_path)]) == 2


class TestGraph:
    def test_paths_listing(self, tmp_path, graphs_dir, capsys):
        outdir = tmp_path / "out"
        code = run(["graph", "paths", str(graphs_dir / "diamond.txt"),
                    "--outdir", str(outdir)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("path ") == 2
        assert "length 2" in out
        assert not outdir.exists()  # prints only

    def test_cov_csv(self, tmp_path, graphs_dir):
        code = run(["graph", "cov", str(graphs_dir / "shared_nodes_7.txt"),
                    "--out", "cov", "--outdir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "cov.csv").read_text().splitlines()
        assert lines[0] == "path_0,path_1,path_2,path_3"
        matrix = np.array([[float(v) for v in l.split(",")]
                           for l in lines[1:]])
        entries = sorted(matrix[np.triu_indices(4, k=1)])
        expected = sorted([
            3 / (2 * np.sqrt(6)), 3 / (2 * np.sqrt(5)), 0.25,
            4 / np.sqrt(30), 3 / (2 * np.sqrt(6)), 1 / np.sqrt(5),
        ])
        np.testing.assert_allclose(entries, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("out", [[], ["--out", "c"]], ids=["default", "out"])
    def test_cov_manifest_lists_only_cov_options(self, tmp_path, graphs_dir, out):
        """The manifest records the options cov takes, none of analyze's."""
        assert run(["graph", "cov", str(graphs_dir / "diamond.txt"), *out,
                    "--outdir", str(tmp_path)]) == 0
        [manifest] = tmp_path.glob("*.manifest.json")
        params = json.loads(manifest.read_text())["parameters"]
        assert set(params) == {"action", "cap", "command", "graph_file", "outdir",
                               *(["out"] if out else [])}

    def test_analyze_report(self, tmp_path, graphs_dir):
        code = run([
            "graph", "analyze", str(graphs_dir / "block8.txt"),
            "--order", "complete", "--reps", "1000", "--seed", "5",
            "--out", "an", "--outdir", str(tmp_path),
        ])
        assert code == 0
        doc = json.loads((tmp_path / "an.json").read_text())
        assert doc["n_paths"] == 8
        assert len(doc["covariance"]) == 8
        assert doc["mc"]["count"] == 1000
        assert "mc_mean_gap" in doc and "validity" in doc

    @pytest.mark.parametrize("text, n_paths", [
        ("s a 1 0.1\ns b 2 0.2\na t 1 0.1\nb t 1 0.1\n", 2),
        ("a b 1 0.1\nb c 1 0.1\n", 1),
    ], ids=["two_paths", "one_path"])
    def test_report_keys_are_graph_analysis_fields(self, tmp_path, text, n_paths):
        """The report is GraphAnalysis written by its fields; a one-path
        graph writes its null gumbel and validity too."""
        g = tmp_path / "g.txt"
        g.write_text(text)
        assert run(["graph", "analyze", str(g), "--reps", "200", "--out", "an",
                    "--outdir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "an.json").read_text())
        assert set(doc) == {f.name for f in dataclasses.fields(GraphAnalysis)}
        assert doc["n_paths"] == n_paths
        if n_paths == 1:
            assert doc["gumbel"] is None and doc["validity"] is None
        else:
            assert set(doc["gumbel"]) == {"n", "alpha", "beta"}

    def test_several_sources_and_sinks_name_real_nodes(self, tmp_path, capsys):
        """Two sources and two sinks: ``paths`` prints the graph's own nodes
        and edge counts, and ``analyze`` reports its four paths."""
        g = tmp_path / "two_by_two.txt"
        g.write_text("a m 1 0.2\nb m 1 0.3\nm x 1 0.1\nm y 1 0.4\n")
        assert run(["graph", "paths", str(g), "--outdir", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [l.split(": ")[-1] for l in lines] == [
            "a -> m -> x", "a -> m -> y", "b -> m -> x", "b -> m -> y"]
        assert all("length 2," in l for l in lines)
        assert run(["graph", "analyze", str(g), "--reps", "200",
                    "--outdir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "two_by_two_analysis.json").read_text())
        assert doc["n_paths"] == 4 and doc["lengths"] == [2, 2, 2, 2]

    def test_report_covariance_divides_by_path_stds(self, tmp_path, graphs_dir):
        """The report's path_stds are exactly what its covariance divides the
        shared edge variances by."""
        graph = graphs_dir / "cascade64.txt"
        assert run(["graph", "analyze", str(graph), "--reps", "100",
                    "--out", "an", "--outdir", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "an.json").read_text())
        ps = enumerate_paths(load_graph(graph))
        sigmas = np.array([e.sigma for e in ps.graph.edges])
        weights = np.zeros((ps.n_paths, len(sigmas)))
        for i, path in enumerate(ps.paths):
            weights[i, list(path)] = sigmas[list(path)]
        gram = weights @ weights.T
        stds = np.array(doc["path_stds"])
        off = ~np.eye(ps.n_paths, dtype=bool)
        np.testing.assert_array_equal(
            np.array(doc["covariance"])[off], (gram / np.outer(stds, stds))[off])

    def test_fully_correlated_paths_exit_2(self, tmp_path):
        """Two paths that share their only random edge correlate with
        |eps| = 1, outside the expansion's domain: no data file is written."""
        g = tmp_path / "full.txt"
        g.write_text("s m 1 0.5\nm a 1 0\nm b 1 0\na t 1 0\nb t 1 0\n")
        out = tmp_path / "out"
        assert run(["graph", "analyze", str(g), "--reps", "100",
                    "--outdir", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("z_steps, text", [
        ("-1", "s a 1 0.5\ns b 1 0.5\na t 1 0.5\nb t 1 0.5\n"),  # two paths
        ("0", "a b 1 0.5\n"),  # one path
        ("1", "a b 1 0.5\n"),
    ], ids=["minus_1", "0", "1"])
    def test_z_steps_below_2_exit_2(self, tmp_path, capsys, z_steps, text):
        g = tmp_path / "g.txt"
        g.write_text(text)
        out = tmp_path / "out"
        assert run(["graph", "analyze", str(g), "--z-steps", z_steps,
                    "--reps", "100", "--outdir", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: z_steps must be >= 2 (got {z_steps})\n")
        assert not out.exists()

    def test_parse_errors_exit_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("a a 1 0.1\n")
        assert run(["graph", "paths", str(bad),
                    "--outdir", str(tmp_path)]) == 3
        cyc = tmp_path / "cyc.txt"
        cyc.write_text("a b 1 0.1\nb a 1 0.1\n")
        assert run(["graph", "paths", str(cyc),
                    "--outdir", str(tmp_path)]) == 3
        assert run(["graph", "paths", str(tmp_path / "missing.txt"),
                    "--outdir", str(tmp_path)]) == 3
        nested = tmp_path / "nested.json"
        nested.write_text('{"edges": ' + "[" * 100_000 + "]" * 100_000 + "}")
        assert run(["graph", "paths", str(nested),
                    "--outdir", str(tmp_path)]) == 3

    @pytest.mark.parametrize("edge, message", [
        ({"from": "b", "to": "b", "mu": 1.0, "sigma": 0.1},
         "self-loop on node 'b'"),
        ({"from": "b", "to": "c", "mu": 1.0, "sigma": -0.1},
         "MU and SIGMA must be finite and >= 0"),
        ({"from": "b", "to": "c", "mu": float("inf"), "sigma": 0.1},
         "MU and SIGMA must be finite and >= 0"),
        ({"from": "b", "to": "c", "mu": 10**400, "sigma": 0.1},
         "MU and SIGMA must be finite and >= 0"),
        ({"from": None, "to": "c", "mu": 1.0, "sigma": 0.1},
         "FROM and TO must be strings"),
        ({"from": "b", "to": 3, "mu": 1.0, "sigma": 0.1},
         "FROM and TO must be strings"),
        ({"from": "b", "to": "c", "mu": True, "sigma": 0.1},
         "MU and SIGMA must be numbers"),
        ({"from": "b", "to": "c", "mu": 1.0, "sigma": "0.1"},
         "MU and SIGMA must be numbers"),
    ], ids=["self_loop", "negative_sigma", "infinite_mu", "huge_integer_mu",
            "null_from", "number_to", "boolean_mu", "string_sigma"])
    def test_json_edge_errors_exit_3(self, tmp_path, capsys, edge, message):
        doc = {"edges": [{"from": "a", "to": "b", "mu": 1.0, "sigma": 0.1}, edge]}
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert run(["graph", "paths", str(f), "--outdir", str(tmp_path)]) == 3
        assert capsys.readouterr().err == f"error: edge 1: {message}\n"

    @pytest.mark.parametrize("args", [
        ["graph", "paths", "DIR"],
        ["graph", "analyze", "BINARY", "--reps", "100"],
        ["dist", "first", "--n", "2", "--eps-file", "DIR"],
        ["dist", "first", "--n", "2", "--eps-file", "EMPTY"],
    ], ids=["graph_directory", "graph_binary", "eps_directory", "eps_empty"])
    def test_unreadable_input_exit_3(self, tmp_path, capsys, args):
        """A directory, a file that is not text, or an empty matrix file is
        one error line and exit 3; an empty file warns nothing (a
        ``UserWarning`` fails the test)."""
        (tmp_path / "binary.txt").write_bytes(b"\x89PNG\r\n\x1a\n\xff\xfe")
        (tmp_path / "empty.txt").write_text("")
        subs = {"DIR": str(tmp_path), "BINARY": str(tmp_path / "binary.txt"),
                "EMPTY": str(tmp_path / "empty.txt")}
        out = tmp_path / "out"
        assert run([subs.get(a, a) for a in args] + ["--outdir", str(out)]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith("error: ")
        assert stderr.count("\n") == 1 and stderr.endswith("\n")
        assert not out.exists()

    def test_cap_exit_4(self, tmp_path):
        f = tmp_path / "cascade.txt"
        f.write_text(cascade64_text())
        assert run(["graph", "paths", str(f), "--cap", "10",
                    "--outdir", str(tmp_path)]) == 4

    def test_paths_past_the_covariance_cap_still_list(self, tmp_path, capsys):
        """``graph paths`` builds no matrix, so 16,384 paths still list."""
        f = tmp_path / "cascade15.txt"
        f.write_text(cascade_text(15, seed=15))
        assert run(["graph", "paths", str(f), "--cap", "20000",
                    "--outdir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().out.count("\n") == 2**14


class TestNonIid:
    def test_curve_output(self, tmp_path):
        code = run([
            "noniid", "--n-grid", "5,20", "--delta-mu", "0.1",
            "--reps", "500", "--seed", "6", "--out", "nn",
            "--outdir", str(tmp_path),
        ])
        assert code == 0
        lines = (tmp_path / "nn.csv").read_text().splitlines()
        assert lines[0] == "n,mean,std,stderr"
        assert [int(l.split(",")[0]) for l in lines[1:]] == [5, 20]

    def test_validation(self, tmp_path):
        base = ["--outdir", str(tmp_path)]
        assert run(["noniid", "--n-grid", "10", "--sigma", "0.5",
                    "--delta-sigma", "0.9", "--seed", "1"] + base) == 2
        assert run(["noniid", "--n-grid", "ten", "--seed", "1"] + base) == 2
        assert run(["noniid", "--n-grid", "10", "--seed", "-1"] + base) == 2
        assert run(["noniid", "--n-grid", "10", "--seed", "1",
                    "--workers", "0"] + base) == 2
        assert run(["noniid", "--n-grid", "10",
                    "--seed", str(2**64)] + base) == 2


def _g17(*values) -> str:
    return ",".join(format(v, ".17g") for v in values)


def _mc_samples_lines(graphs_dir):
    [res] = sample_max_sweep(50, [0.35], McConfig(seed=3, reps=300))
    return ["sample"] + [_g17(v) for v in res.samples]


def _graph_cov_lines(graphs_dir):
    cov = path_covariance(enumerate_paths(load_graph(graphs_dir / "shared_nodes_7.txt")))
    header = ",".join(f"path_{j}" for j in range(len(cov)))
    return [header] + [_g17(*row) for row in cov]


def _noniid_lines(graphs_dir):
    grid, cfg = (5, 20), McConfig(seed=6, reps=500)
    return ["n,mean,std,stderr"] + [
        f"{n}," + _g17(res.mean, res.std, res.std / np.sqrt(cfg.reps))
        for n, res in zip(grid, non_iid_experiment(grid, cfg, delta_mu=0.1))
    ]


class TestOutputPath:
    @pytest.mark.parametrize("args, message", [
        (["dist", "first", "--n", "100", "--rho", "0.5", "--z-min", "5",
          "--z-max", "1"], "--z-max must exceed --z-min"),
        (["dist", "gumbel", "--n", "100", "--steps", "1"],
         "--steps must be >= 2"),
        (["dist", "first", "--n", "100", "--rho", "1.5"],
         "rho must lie in [0, 1) (got 1.5)"),
        (["mc", "--n", "10", "--rho-sweep", "0.5:1.5:0.5", "--seed", "1"],
         "rho must lie in [0, 1] (got 1.5)"),
        (["mc", "--n", "10", "--rho", "1.5", "--seed", "1"],
         "rho must lie in [0, 1] (got 1.5)"),
        (["noniid", "--n-grid", "ten", "--seed", "1"],
         "--n-grid must be a comma-separated integer list"),
        (["mc", "--n", "10", "--rho-sweep", "0.1:0.9", "--seed", "1"],
         "--rho-sweep must look like LO:HI:STEP"),
        (["graph", "cov", "GRAPHS/diamond.txt", "--cap", "0"],
         "cap must be >= 1 (got 0)"),
        (["mc", "--n", "5", "--rho", "0.3", "--sigma", "1e308", "--reps", "100",
          "--seed", "1"], "samples must be finite (21 of 100 are not)"),
        (["graph", "paths", "OVERFLOW"],
         "path 0: accumulated delay mean or variance overflows"),
        (["graph", "analyze", "OVERFLOW", "--reps", "100"],
         "path 0: accumulated delay mean or variance overflows"),
        (["noniid", "--n-grid", "5", "--mu", "nan", "--reps", "100", "--seed", "1"],
         "mu, sigma, delta_mu and delta_sigma must be finite "
         "(got nan, 1.0, 0.0, 0.0)"),
        (["noniid", "--n-grid", "5", "--sigma", "inf", "--reps", "100",
          "--seed", "1"],
         "mu, sigma, delta_mu and delta_sigma must be finite "
         "(got 0.0, inf, 0.0, 0.0)"),
        (["noniid", "--n-grid", "5", "--delta-mu", "inf", "--reps", "100",
          "--seed", "1"],
         "mu, sigma, delta_mu and delta_sigma must be finite "
         "(got 0.0, 1.0, inf, 0.0)"),
        (["noniid", "--n-grid", "5", "--delta-sigma", "nan", "--reps", "100",
          "--seed", "1"],
         "mu, sigma, delta_mu and delta_sigma must be finite "
         "(got 0.0, 1.0, 0.0, nan)"),
        (["graph", "analyze", "NEARMAX", "--reps", "100", "--seed", "1"],
         "sample mean and std must be finite (got inf, inf)"),
        (["noniid", "--n-grid", "5", "--mu", "1e308", "--delta-mu", "1e308",
          "--freeze-deviations", "--reps", "100", "--seed", "1"],
         "samples must be finite (100 of 100 are not)"),
        (["noniid", "--n-grid", "5", "--sigma", "0", "--seed", "1"],
         "sigma must be positive (got 0.0)"),
        (["mc", "--n", "1000000000000000", "--rho", "0.3", "--seed", "1"],
         "stream too wide: a buffer of 1024 x 1000000000000000 uniforms "
         "exceeds the cap of 134217728 floats"),
        (["noniid", "--n-grid", "10,9007199254740993", "--seed", "1"],
         "n_grid must contain integers in [1, 2**53] (got [10, 9007199254740993])"),
        (["noniid", "--n-grid", "1000000000000000", "--freeze-deviations",
          "--reps", "100", "--seed", "1"],
         "stream too wide: a buffer of 1 x 2000000000000000 uniforms "
         "exceeds the cap of 134217728 floats"),
        (["dist", "first", "--n", "2", "--eps-file", "EPS_NAN"],
         "entries must be finite"),
        (["dist", "first", "--n", "2", "--eps-file", "COV_2X3"],
         "cov must be square (got shape (2, 3))"),
        (["dist", "first", "--n", "10", "--rho", "0.1", "--steps", "1000000000000000"],
         "--steps must be <= 1000000"),
        (["graph", "analyze", "GRAPHS/diamond.txt", "--z-steps", "1000001",
          "--reps", "100", "--seed", "1"],
         "z_steps must be <= 1000000 (got 1000001)"),
        (["mc", "--n", "10", "--rho", "0.5", "--reps", "100000000000", "--seed", "1"],
         "reps must lie in [1, 134217728] (got 100000000000)"),
        (["noniid", "--n-grid", "10", "--reps", "100000000000", "--seed", "1"],
         "reps must lie in [1, 134217728] (got 100000000000)"),
        (["graph", "analyze", "GRAPHS/diamond.txt", "--reps", "100000000000"],
         "reps must lie in [1, 134217728] (got 100000000000)"),
        # 9901 points x 20,000 reps cross the cap; neither does alone
        (["mc", "--n", "10", "--rho-sweep", "0:0.99:0.0001", "--reps", "20000",
          "--seed", "1"],
         "reps too large for the sweep: 9901 rho points x 20000 reps exceed "
         "the cap of 134217728 floats"),
        # 2 grid points x (2**26 + 1) reps cross the cap; neither does alone
        (["noniid", "--n-grid", "10,10", "--reps", "67108865", "--seed", "1"],
         "reps too large for the grid: 2 points x 67108865 reps exceed the cap "
         "of 134217728 floats"),
        # 16,384 paths: a 2 GiB covariance, refused before it is allocated
        (["graph", "cov", "CASCADE15", "--cap", "20000"],
         "path covariance too large: 16384 x 16384 entries exceed the cap of "
         "134217728 floats; keep --cap at most 11585"),
        (["graph", "analyze", "CASCADE15", "--cap", "20000", "--reps", "100",
          "--seed", "1"],
         "path covariance too large: 16384 x 16384 entries exceed the cap of "
         "134217728 floats; keep --cap at most 11585"),
        # 10,000 paths fit the matrix cap, but not their 20,001 edge weights each
        (["graph", "cov", "PARALLEL"],
         "path covariance too large: 10000 paths x 20001 weights each exceed the "
         "cap of 134217728 floats; keep --cap at most 6710"),
        (["dist", "first", "--n", "10", "--rho", "0.1", "--z-max", "inf"],
         "--z-min and --z-max must be finite with a finite span (got -1.0, inf)"),
        (["dist", "first", "--n", "10", "--rho", "0.1", "--z-min", "-1e308",
          "--z-max", "1e308"],
         "--z-min and --z-max must be finite with a finite span "
         "(got -1e+308, 1e+308)"),
        (["dist", "first", "--n", "10", "--rho", "0.1", "--z-min", "nan"],
         "--z-min and --z-max must be finite with a finite span (got nan, 6.0)"),
        (["dist", "gumbel", "--n", "36028797018963968"],
         "n must be <= 2**53 (got 36028797018963968)"),
        (["dist", "gumbel", "--n", str(10**400)], f"n must be <= 2**53 (got {10**400})"),
        (["graph", "cov", "GRAPHS/diamond.txt", "--out", "nodir/x"],
         "--out must be a file name prefix without a path separator "
         "(got 'nodir/x')"),
        (["graph", "cov", "GRAPHS/diamond.txt", "--out", "x" * 300],
         f"output file name {'x' * 24}... is 304 bytes, over the limit of 255; "
         "choose a shorter --out"),
        # x.csv fits in 255 bytes, x.manifest.json does not
        (["graph", "cov", "GRAPHS/diamond.txt", "--out", "x" * 250],
         f"output file name {'x' * 24}... is 264 bytes, over the limit of 255; "
         "choose a shorter --out"),
    ], ids=["dist_z_range", "dist_steps", "dist_rho_range",
            "mc_sweep_range", "mc_rho_range", "noniid_grid",
            "mc_sweep_fields", "graph_cov_cap", "mc_overflow",
            "graph_paths_overflow", "graph_analyze_overflow", "noniid_mu_nan",
            "noniid_sigma_inf", "noniid_delta_mu_inf", "noniid_delta_sigma_nan",
            "graph_analyze_stats_overflow", "noniid_frozen_overflow",
            "noniid_sigma_zero", "mc_too_wide", "noniid_too_wide",
            "noniid_frozen_too_wide", "dist_eps_non_finite", "dist_cov_non_square",
            "dist_steps_cap", "graph_z_steps_cap", "mc_reps_cap", "noniid_reps_cap",
            "graph_reps_cap", "mc_sweep_reps_cap", "noniid_grid_reps_cap",
            "graph_cov_covariance_cap", "graph_analyze_covariance_cap",
            "graph_cov_weights_cap", "dist_z_max_inf",
            "dist_z_span_overflow", "dist_z_min_nan", "dist_n_rounds_p_to_1",
            "dist_n_overflows_float", "out_with_separator", "out_too_long",
            "manifest_name_too_long"])
    def test_usage_error(self, tmp_path, capsys, graphs_dir, args, message):
        subs = {"GRAPHS": str(graphs_dir)}
        for name, text in {
            "OVERFLOW": "a b 1e308 0.1\nb c 1e308 0.1\n",  # each path mean is inf
            "NEARMAX": "a b 8e307 0.1\nb c 8e307 0.1\n",  # its MC mean overflows
            "EPS_NAN": "0 nan\nnan 0\n",
            "COV_2X3": "1 0.2 0.1\n0.2 1 0.3\n",
            "CASCADE15": cascade_text(15, seed=15),
            "PARALLEL": "".join(f"a m{i} 1 0.1\nm{i} b 1 0.1\n" for i in range(10_000)),
        }.items():
            path = tmp_path / f"{name.lower()}.txt"
            path.write_text(text)
            subs[name] = str(path)
        for name, value in subs.items():
            args = [a.replace(name, value) for a in args]
        out = tmp_path / "out"
        assert run(args + ["--outdir", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        pytest.param(["mc", "--n", "10", "--rho", "0.3", "--rho-sweep", "0.1:0.2:0.1",
                      "--seed", "1"],
                     "argument --rho-sweep: not allowed with argument --rho",
                     id="mc_rho_and_sweep"),
        pytest.param(["dist", "first", "--n", "2", "--rho", "0.9", "--eps-file", "EPS"],
                     "argument --eps-file: not allowed with argument --rho",
                     id="dist_rho_and_eps_file"),
        pytest.param(["dist", "first", "--n", "100"],
                     "one of the arguments --rho --eps-file is required",
                     id="dist_no_rho"),
        pytest.param(["mc", "--n", "10", "--seed", "1"],
                     "one of the arguments --rho --rho-sweep is required",
                     id="mc_no_rho"),
        pytest.param(["dist", "gumbel", "--n", "100", "--rho", "0.999"],
                     "unrecognized arguments: --rho 0.999", id="dist_gumbel_rho"),
        # refused before the file is opened, so a missing one reads the same
        pytest.param(["dist", "gumbel", "--n", "100", "--eps-file", "no_such_eps.txt"],
                     "unrecognized arguments: --eps-file no_such_eps.txt",
                     id="dist_gumbel_eps_file"),
        # only analyze samples; paths and cov take none of its options
        *[pytest.param(["graph", action, "GRAPHS/diamond.txt", option, value],
                       f"unrecognized arguments: {option} {value}",
                       id=f"graph_{action}_{option[2:].replace('-', '_')}")
          for action in ("paths", "cov")
          for option, value in (("--order", "first"), ("--reps", "5"), ("--seed", "3"),
                                ("--workers", "2"), ("--z-steps", "7"))],
        pytest.param(["graph", "paths", "GRAPHS/diamond.txt", "--out", "x"],
                     "unrecognized arguments: --out x", id="graph_paths_out"),
    ])
    def test_argparse_refusal_exits_2(self, tmp_path, capsys, graphs_dir, args, message):
        """Options a command does not take, or does not take together, and
        a missing required one, exit 2 in argparse before any output."""
        eps = tmp_path / "eps.txt"
        eps.write_text("0 0.1\n0.1 0\n")
        args = [a.replace("EPS", str(eps)).replace("GRAPHS", str(graphs_dir))
                for a in args]
        out = tmp_path / "out"
        assert f"error: {message}\n" in run_refused(args + ["--outdir", str(out)], capsys)
        assert not out.exists()

    @pytest.mark.parametrize("args, prefix", [
        (["dist", "gumbel", "--n", "10"], "--ste"),
        *[(["dist", order, "--n", "10", "--rho", "0.3"], "--z-ma")
          for order in ("first", "second", "complete")],
        (["mc", "--n", "10", "--rho", "0.3", "--seed", "1"], "--rep"),
        (["graph", "paths", "GRAPHS/diamond.txt"], "--ca"),
        (["graph", "cov", "GRAPHS/diamond.txt"], "--ca"),
        (["graph", "analyze", "GRAPHS/diamond.txt"], "--z-step"),
        (["noniid", "--n-grid", "10", "--seed", "1"], "--rep"),
    ], ids=["dist_gumbel", "dist_first", "dist_second", "dist_complete", "mc",
            "graph_paths", "graph_cov", "graph_analyze", "noniid"])
    def test_option_prefix_exits_2(self, tmp_path, capsys, graphs_dir, args, prefix):
        """Each option is taken only as spelled in full: a prefix of one,
        which argparse would by default read as its abbreviation, exits 2
        before any output."""
        args = [a.replace("GRAPHS", str(graphs_dir)) for a in args]
        out = tmp_path / "out"
        err = run_refused(args + [prefix, "5", "--outdir", str(out)], capsys)
        assert f"error: unrecognized arguments: {prefix} 5\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("outdir", ["afile", "afile/sub"])
    def test_outdir_through_a_file_exits_2_before_computing(
        self, tmp_path, capsys, monkeypatch, outdir
    ):
        (tmp_path / "afile").write_text("kept\n")
        computed = []
        monkeypatch.setattr(corrmax.cli, "sample_max_sweep",
                            lambda *a: computed.append(a))
        out = tmp_path / outdir
        assert run(["mc", "--n", "10", "--rho", "0.3", "--reps", "100",
                    "--seed", "1", "--outdir", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"error: output directory {out}: {tmp_path / 'afile'} "
                "is not a directory\n")
        assert computed == []
        assert [p.name for p in tmp_path.iterdir()] == ["afile"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("args, name, expected_lines", [
        (["mc", "--n", "50", "--rho", "0.35", "--seed", "3", "--reps", "300"],
         "x_samples.csv", _mc_samples_lines),
        (["graph", "cov", "GRAPHS/shared_nodes_7.txt"], "x.csv", _graph_cov_lines),
        (["noniid", "--n-grid", "5,20", "--delta-mu", "0.1", "--reps", "500",
          "--seed", "6"], "x.csv", _noniid_lines),
    ], ids=["mc_samples", "graph_cov", "noniid"])
    def test_csv_bytes_equal_in_process_results(
        self, tmp_path, graphs_dir, args, name, expected_lines
    ):
        args = [a.replace("GRAPHS", str(graphs_dir)) for a in args]
        assert run(args + ["--out", "x", "--outdir", str(tmp_path)]) == 0
        expected = "".join(line + "\n" for line in expected_lines(graphs_dir))
        assert (tmp_path / name).read_bytes() == expected.encode()


class TestNegativeValues:
    """A negative value in exponent or any other float form reads as the
    value of its option, as ``--opt=value`` does."""

    @pytest.mark.parametrize("args, option, value", [
        (["noniid", "--n-grid", "7,70", "--sigma", "1e-3", "--reps", "300",
          "--seed", "11"], "--mu", "-3e5"),
        (["noniid", "--n-grid", "7", "--reps", "300", "--seed", "11"], "--mu", "-2.5E-1"),
        (["dist", "gumbel", "--n", "10", "--z-max", "1", "--steps", "5"],
         "--z-min", "-2e0"),
    ], ids=["noniid_mu", "noniid_mu_upper_e", "dist_z_min"])
    def test_spaced_value_equals_attached(self, tmp_path, args, option, value):
        assert run(args + [option, value, "--out", "x", "--outdir",
                           str(tmp_path / "spaced")]) == 0
        assert run(args + [f"{option}={value}", "--out", "x", "--outdir",
                           str(tmp_path / "attached")]) == 0
        spaced = (tmp_path / "spaced" / "x.csv").read_bytes()
        assert spaced == (tmp_path / "attached" / "x.csv").read_bytes()

    @pytest.mark.parametrize("args, message", [
        (["mc", "--n", "5", "--rho", "0.3", "--sigma", "-1e-3", "--seed", "1"],
         "sigma must be positive (got -0.001)"),
        (["mc", "--n", "5", "--rho", "-5e-1", "--seed", "1"],
         "rho must lie in [0, 1] (got -0.5)"),
        (["noniid", "--n-grid", "5", "--mu", "-inf", "--seed", "1"],
         "mu, sigma, delta_mu and delta_sigma must be finite "
         "(got -inf, 1.0, 0.0, 0.0)"),
    ], ids=["mc_sigma", "mc_rho", "noniid_mu_inf"])
    def test_value_reaches_the_model_checks(self, tmp_path, capsys, args, message):
        assert run(args + ["--outdir", str(tmp_path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_only_numbers_after_long_options_are_attached(self):
        assert _attach_negative_values(
            ["noniid", "--mu", "-3e5", "--n-grid", "-5,6", "--out", "-x"]
        ) == ["noniid", "--mu=-3e5", "--n-grid", "-5,6", "--out", "-x"]
        assert _attach_negative_values(["--mu=1", "-3e5"]) == ["--mu=1", "-3e5"]
        assert _attach_negative_values(["-h", "-3e5"]) == ["-h", "-3e5"]
        assert _attach_negative_values(["--", "--mu", "-3e5"]) == ["--", "--mu", "-3e5"]


class TestEnvironment:
    def test_outdir_env_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CORRMAX_OUTDIR", str(tmp_path / "envout"))
        code = run(["dist", "gumbel", "--n", "10", "--steps", "5",
                    "--out", "g"])
        assert code == 0
        assert (tmp_path / "envout" / "g.csv").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) \
    | st.sampled_from([-0.0, 5e-324, -5e-324, 1.7e308, -1.7e308])
_SCALARS = _FLOATS | st.integers() | st.booleans() | st.none() | st.text()
_ARRAYS = arrays(
    np.float64, st.one_of(st.tuples(st.integers(0, 6)),
                          st.tuples(st.integers(0, 4), st.integers(0, 4))),
    elements=_FLOATS,
)


@st.composite
def _matrix(draw):
    """A matrix of entries in [0, 1], from empty to three of the writer's
    row blocks: uniform doubles, ones rounded to 1 - 17 decimals, k / 2**m,
    0.0 and 1.0, with a few entries from ``_FLOATS`` set.  -0.0 or a value
    outside [0, 1] goes to ``float.__repr__``; NaN or an infinity sends
    the matrix to json."""
    shape = draw(st.tuples(st.integers(0, 6),
                           st.integers(0, 9) | st.just(_BLOCK_ENTRIES // 2 + 1)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** rng.integers(1, 18, shape)
    a = np.choose(rng.integers(0, 4, shape), [
        rng.random(shape),
        np.round(rng.random(shape) * scale) / scale,
        rng.integers(0, 2**20, shape) / 2.0 ** rng.integers(0, 20, shape) % 1.0,
        rng.integers(0, 2, shape).astype(np.float64),
    ])
    if a.size:
        index = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
        for ij, x in draw(st.lists(st.tuples(index, _FLOATS), max_size=3)):
            a[ij] = x
    return a


_DOCS = st.recursive(
    _SCALARS | _ARRAYS | _matrix() | st.lists(_FLOATS, min_size=1),
    lambda children: st.lists(children) | st.lists(children).map(tuple)
    | st.dictionaries(st.text(), children),
    max_leaves=30,
)


def _as_lists(doc):
    """The document json itself accepts: every array as its ``tolist()``."""
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: _as_lists(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(_as_lists(v) for v in doc)
    return doc


class TestJsonWriter:
    @settings(deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=st.dictionaries(st.text(), _matrix() | _DOCS, max_size=3))
    def test_bytes_equal_stdlib_indented_dump(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        _write_json(path, doc)
        expected = json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"
        assert path.read_bytes() == expected.encode()

    def test_matrix_path_takes_only_nonempty_finite_2d_float64(self, tmp_path,
                                                                monkeypatch):
        """Symmetric or not: a matrix with -0.0 and entries outside [0, 1]
        goes to ``_dump_matrix``; every other value to json."""
        dump, taken = corrmax.cli._dump_matrix, []
        monkeypatch.setattr(corrmax.cli, "_dump_matrix",
                            lambda a, fh: taken.append(a) or dump(a, fh))
        a = np.array([[0.5, -0.0, 7.0], [1e-300, 1.0, 0.25]])
        nan = a.copy()
        nan[1, 2] = np.nan
        doc = {"matrix": a, "row": a[0], "cube": a[None], "float32": a.astype(np.float32),
               "nan": nan, "empty": np.empty((0, 3)), "list": a.tolist()}
        path = tmp_path / "doc.json"
        _write_json(path, doc)
        assert len(taken) == 1 and taken[0] is a
        assert path.read_text() == json.dumps(_as_lists(doc), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("report", [
        validity_check([0.0, 1.0, 2.0], [0.2, 0.1, 1.5], [1.0, -1.0, 0.5], 0.4),
        validity_check([0.0, 1.0, 2.0], [0.1, 0.5, 0.9], [0.3, 0.4, 0.3], 0.1),
        scaling_constants(100),
    ], ids=["validity_with_violations", "validity_ok", "gumbel_params"])
    def test_dataclass_written_as_its_fields(self, tmp_path, report):
        path = tmp_path / "doc.json"
        _write_json(path, {"r": report})
        assert path.read_text() == json.dumps(
            {"r": dataclasses.asdict(report)}, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("doc", [{1: 2.0}])
    def test_non_str_key_raises(self, tmp_path, doc):
        with pytest.raises(TypeError):
            _write_json(tmp_path / "doc.json", doc)

    @pytest.mark.parametrize("args", [
        ["graph", "analyze", "GRAPHS/cascade64.txt", "--reps", "1000"],
        ["dist", "second", "--n", "100", "--rho", "0.3"],
        ["mc", "--n", "50", "--rho", "0.35", "--seed", "3", "--reps", "2000"],
        # 256 paths: a covariance of several row blocks
        ["graph", "analyze", "CASCADE256", "--reps", "1000"],
    ])
    def test_cli_files_equal_stdlib_format(self, tmp_path, graphs_dir, args):
        """Every JSON file the CLI writes is json's own indented, key-sorted
        rendering of what it parses to (floats round-trip through repr)."""
        cascade = tmp_path / "inputs" / "cascade256.txt"
        cascade.parent.mkdir()
        cascade.write_text(cascade_text(9, seed=21))
        args = [a.replace("GRAPHS", str(graphs_dir)).replace("CASCADE256", str(cascade))
                for a in args]
        assert run(args + ["--outdir", str(tmp_path)]) == 0
        written = sorted(tmp_path.glob("*.json"))
        assert len(written) == 2  # the data file and its manifest
        for path in written:
            text = path.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("stages", [7, 9, 11],
                             ids=["64_paths", "256_paths", "1024_paths"])
    def test_report_covariance_reads_back_bit_for_bit(self, tmp_path, stages):
        """The analyze report's covariance, written a row block at a time,
        parses back to the in-process matrix entry for entry."""
        graph = tmp_path / "cascade.txt"
        graph.write_text(cascade_text(stages, seed=stages))
        assert run(["graph", "analyze", str(graph), "--reps", "100", "--out", "r",
                    "--outdir", str(tmp_path)]) == 0
        written = np.array(json.loads((tmp_path / "r.json").read_text())["covariance"])
        expected = path_covariance(enumerate_paths(load_graph(graph)))
        assert written.view(np.int64).tolist() == expected.view(np.int64).tolist()

    def test_matrix_peak_is_one_block(self, tmp_path):
        """The 1024-path covariance, 8 MiB of float64, is written a block of
        ``_BLOCK_ENTRIES`` entries at a time, at under 256 bytes per entry:
        4 MiB.  Measured 3.4 MiB; when the strings of P**2 / 4 entries
        waited for their rows, the peak was 6.45 MiB."""
        cov = path_covariance(enumerate_paths(parse_graph(cascade_text(11, seed=11))))
        peak = traced_peak(lambda: _write_json(tmp_path / "r.json", {"covariance": cov}))
        assert peak <= 256 * _BLOCK_ENTRIES


def _reprs(x: np.ndarray) -> str:
    return "".join(repr(v) + _ENTRY_SEP for v in x.tolist())


class TestFloatText:
    """``_float_text`` writes what ``float.__repr__`` writes, entry for entry."""

    @settings(deadline=None)
    @given(st.lists(st.floats(1e-4, 1, exclude_max=True), min_size=1))
    def test_equals_repr_on_the_unit_interval(self, values):
        x = np.array(values)
        text, lengths = _float_text(x)
        assert text == _reprs(x)
        assert lengths.tolist() == [len(repr(v) + _ENTRY_SEP) for v in values]

    @settings(deadline=None)
    @given(st.lists(st.integers(-2**63, 2**63 - 1), min_size=1))
    def test_equals_repr_on_finite_bit_patterns(self, bits):
        x = np.array(bits, np.int64).view(np.float64)
        x = x[np.isfinite(x)]
        assert _float_text(x)[0] == _reprs(x)

    @pytest.mark.parametrize("x", [
        pytest.param(2.0 ** -np.arange(1, 15), id="powers_of_two"),
        pytest.param(np.ravel([[np.nextafter(p, 0.0), p, np.nextafter(p, 2.0)]
                               for p in (1e-4, 1e-3, 0.01, 0.1, 1.0)]),
                     id="neighbours_of_powers_of_ten"),
        pytest.param(np.ravel([np.round(np.random.default_rng(d).random(200), d)
                               for d in range(1, 17)]), id="rounded_decimals"),
        # odd j / 2**m from 0.1 and from 0.5 up: 16- and 17-digit ties among them
        pytest.param(np.ravel([(np.floor(lo * 2.0**m / 2) * 2 + 1 + 2 * np.arange(300))
                               / 2.0**m for lo in (0.1, 0.5) for m in range(14, 54)]),
                     id="halfway"),
        pytest.param(np.array([0.0, -0.0, 5e-324, 1.0]), id="zeros_and_one"),
    ])
    def test_edge_cases_equal_repr(self, x):
        assert _float_text(x)[0] == _reprs(x)

    def test_powers_of_two_and_halfway_digits_are_ambiguous(self):
        """A power of two has an interval narrower below it; j / 2**17 with
        odd j in [2**16, 2**17) lies halfway between two 16-digit numbers,
        both within half an ulp of it.  float.__repr__ writes both kinds."""
        powers = 2.0 ** -np.arange(1, 14)
        halfway = np.arange(2**16 + 1, 2**17, 2) / 2.0**17
        assert _shortest_digits(powers)[3].all()
        assert _shortest_digits(halfway)[3].all()
        assert not _shortest_digits(np.nextafter(halfway, 0.0))[3].any()
