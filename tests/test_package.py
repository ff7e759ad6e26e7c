"""Guards on the package surface and on the README's Python example."""
from __future__ import annotations

import argparse
import ast
import os
import re
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

PACKAGE_DIR = REPO_ROOT / "src" / "corrmax"

def _package_trees():
    return [(path.name, ast.parse(path.read_text()))
            for path in sorted(PACKAGE_DIR.glob("*.py"))]


def _exported_names() -> set[str]:
    """Names that ``corrmax/__init__.py`` imports from its submodules."""
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    return {
        alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not alias.name.startswith("_")
    }


def _referenced_names() -> tuple[set[str], set[str]]:
    """Every ``Name`` and every ``Attribute`` name in the package's other
    modules, as two sets."""
    names, attributes = set(), set()
    for name, tree in _package_trees():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def _public_members(classes: set[str]) -> set[str]:
    """Public methods and properties defined in the bodies of ``classes``."""
    return {
        stmt.name
        for _, tree in _package_trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and cls.name in classes
        for stmt in cls.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
    }


def test_every_public_name_is_used_in_the_package():
    """Every exported name, and every public method or property of an
    exported class, has a caller outside ``__init__.py``."""
    exported = _exported_names()
    names, attributes = _referenced_names()
    assert exported - names - attributes == set()
    # A member is reached as ``x.member``; a local of the same name is no use.
    assert _public_members(exported) - attributes == set()


def test_run_settings_have_one_owner():
    """``McConfig`` is the one class with a ``seed``, ``reps`` or
    ``workers`` field; every sampler takes one beside its model's own
    arguments."""
    settings = {"seed", "reps", "workers"}
    owners = set()
    for name, tree in _package_trees():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign):
                    targets = [stmt.target]
                elif isinstance(stmt, ast.Assign):
                    targets = stmt.targets
                else:
                    continue
                if any(isinstance(t, ast.Name) and t.id in settings for t in targets):
                    owners.add(f"{name}:{cls.name}")
    assert owners == {"montecarlo.py:McConfig"}


def _imported_packages(tree) -> set[str]:
    """Top-level names of every module that ``tree`` imports, at any depth."""
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    return {m.split(".")[0] for m in modules}


def test_no_module_imports_csv():
    """CSV files are written by ``cli._write_csv``, not the csv module."""
    for name, tree in _package_trees():
        assert "csv" not in _imported_packages(tree), name


def _fork_calls(node) -> list[ast.Call]:
    """Calls of ``fork`` or ``x.fork`` anywhere inside ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and "fork" in (getattr(call.func, "attr", None), getattr(call.func, "id", None))]


def test_one_owner_of_parallelism():
    """``montecarlo._run_chunked`` is the one function that starts workers,
    and it forks them: no module imports a thread or process pool."""
    for name, tree in _package_trees():
        assert not {"concurrent", "multiprocessing", "threading"} \
            & _imported_packages(tree), name
        owner = [call for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) and func.name == "_run_chunked"
                 for call in _fork_calls(func)] if name == "montecarlo.py" else []
        assert set(_fork_calls(tree)) == set(owner), name
        assert owner or name != "montecarlo.py"


def _philox_owners(node, owner=None) -> list:
    """The innermost function around each use of the name ``Philox`` in
    ``node`` (None at module level)."""
    owners = []
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, ast.FunctionDef) else owner
        if "Philox" in (getattr(child, "attr", None), getattr(child, "id", None)):
            owners.append(owner)
        owners += _philox_owners(child, inner)
    return owners


def test_one_function_constructs_the_philox_stream():
    """The one random-stream primitive: a single package function builds
    ``np.random.Philox``, and every reader of the stream goes through it."""
    owners = [(name, owner) for name, tree in _package_trees()
              for owner in _philox_owners(tree)]
    assert len(owners) == 1 and owners[0][0] == "montecarlo.py", owners
    assert owners[0][1] is not None, owners


# numpy's float loops of these may use SIMD code that rounds otherwise than
# the C library's functions.
_NUMPY_TRANSCENDENTALS = {
    "exp", "exp2", "expm1", "log", "log1p", "log2", "log10", "logaddexp",
    "logaddexp2", "power", "float_power", "cbrt", "sin", "cos", "tan", "arcsin",
    "arccos", "arctan", "arctan2", "sinh", "cosh", "tanh", "arcsinh", "arccosh",
    "arctanh",
}


def test_sample_bits_rest_on_the_c_library_only():
    """``montecarlo.py`` takes its logarithms and exponentials from
    ``math`` or ``normal._log``, never from a numpy float ufunc, so that
    the samples' bits depend on the C library and not on numpy's loops."""
    tree = dict(_package_trees())["montecarlo.py"]
    used = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy")}
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "numpy"
                for alias in node.names}
    assert not (used | imported) & _NUMPY_TRANSCENDENTALS


def _open_mode(call: ast.Call):
    """The mode argument of an ``open(...)`` call; "r" when omitted."""
    if len(call.args) > 1:
        return call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            return kw.value
    return ast.Constant("r")


def test_only_cli_opens_files_for_writing():
    """The CLI is the one module that decides an output format."""
    for name, tree in _package_trees():
        if name == "cli.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "open":
                mode = _open_mode(node)
                # A mode computed at run time counts as a write mode.
                assert isinstance(mode, ast.Constant) \
                    and not set("wax+") & set(mode.value), (name, node.lineno)


def _called_names(node) -> set[str]:
    """Names called as ``f(...)`` or ``x.f(...)`` anywhere inside ``node``."""
    return {
        call.func.id if isinstance(call.func, ast.Name) else call.func.attr
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, (ast.Name, ast.Attribute))
    }


def test_commands_compute_and_main_writes():
    """No ``_cmd_*`` opens a file or creates a directory, and a single
    function in the package calls ``mkdir``: ``cli._write_outputs``."""
    writers = {"open", "mkdir", "_write_json", "_write_csv"}
    mkdir_callers = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            called = _called_names(node)
            if name == "cli.py" and node.name.startswith("_cmd_"):
                assert called & writers == set(), node.name
            if "mkdir" in called:
                mkdir_callers.append(f"{name}:{node.name}")
    assert mkdir_callers == ["cli.py:_write_outputs"]


def test_diagnostics_read_their_callers_values():
    """``corrections.validity_check`` judges the curves it is given and
    evaluates no law itself; ``cli.py`` is the one module that bins a
    histogram."""
    trees = dict(_package_trees())
    [check] = [node for node in ast.walk(trees["corrections.py"])
               if isinstance(node, ast.FunctionDef) and node.name == "validity_check"]
    assert "corrected_law" in _called_names(trees["cli.py"])
    assert "corrected_law" not in _called_names(check)
    binners = [name for name, tree in trees.items() if "histogram" in _called_names(tree)]
    assert binners == ["cli.py"]


def test_orders_are_looked_up_not_compared():
    """The laws are rows of ``corrections._LAWS``: no comparison in the
    package, ``==`` or ``in`` a tuple alike, involves a law's name."""
    names = {"gumbel", "first", "second", "complete"}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in ast.walk(node)
        if isinstance(operand, ast.Constant) and operand.value in names
    ]
    assert found == []


def _leaf_parsers(parser):
    """The parsers under ``parser``, itself included, that have no
    sub-commands of their own."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield parser
    for action in subs:
        for child in action.choices.values():
            yield from _leaf_parsers(child)


def _args_read(func: ast.FunctionDef) -> set[str]:
    """Every ``x`` that ``func`` reads as ``args.x``."""
    return {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_option_has_a_reader():
    """Each command's parser takes only options its ``func`` reads as
    ``args.<dest>``; ``--outdir``, which every command takes, is read by
    ``cli._output_dir``."""
    from corrmax.cli import build_parser
    functions = {node.name: node for node in ast.walk(dict(_package_trees())["cli.py"])
                 if isinstance(node, ast.FunctionDef)}
    assert "outdir" in _args_read(functions["_output_dir"])
    leaves = list(_leaf_parsers(build_parser()))
    assert len(leaves) == 9  # four dist kinds, mc, three graph actions, noniid
    for leaf in leaves:
        dests = {a.dest for a in leaf._actions if not isinstance(a, argparse._HelpAction)}
        reader = functions[leaf.get_default("func").__name__]
        assert "outdir" in dests, leaf.prog
        assert dests - {"outdir"} - _args_read(reader) == set(), leaf.prog


def test_readme_quick_start_runs():
    readme = (REPO_ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_no_module_imports_scipy():
    """``normal.py`` ports the two Cephes routines the package needs, so
    scipy is a test dependency only."""
    for name, tree in _package_trees():
        assert "scipy" not in _imported_packages(tree), name


@pytest.mark.parametrize("args", [
    ["dist", "second", "--n", "50", "--rho", "0.3"],
    ["mc", "--n", "20", "--rho", "0.5", "--reps", "300", "--seed", "1"],
    ["noniid", "--n-grid", "5,20", "--delta-mu", "0.2", "--reps", "300", "--seed", "1"],
    ["graph", "analyze", "GRAPH", "--reps", "300", "--seed", "1"],
    ["graph", "paths", "GRAPH"],
], ids=["dist", "mc", "noniid", "graph_analyze", "graph_paths"])
def test_commands_run_without_scipy(tmp_path, args):
    """With ``import scipy`` made to fail, ``python -m corrmax`` still runs
    every command that evaluates Phi or its inverse, and ``graph paths``."""
    graph = str(REPO_ROOT / "graphs" / "diamond.txt")
    argv = ["corrmax"] + [graph if a == "GRAPH" else a for a in args]
    code = (
        "import runpy, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.argv = {argv + ['--outdir', str(tmp_path)]!r}\n"
        "runpy.run_module('corrmax', run_name='__main__', alter_sys=True)\n"
    )
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("args", [
    ["graph", "analyze", "GRAPH", "--reps", "300", "--seed", "1"],
    ["mc", "--n", "20", "--rho", "0.5", "--reps", "300", "--seed", "1"],
], ids=["graph_analyze", "mc"])
def test_commands_do_not_import_numpy_ma(tmp_path, args):
    """A fresh interpreter that runs ``graph analyze`` or ``mc`` never
    loads ``numpy.ma`` (about 10 ms and 1.9 MB), which ``np.setdiff1d`` and
    ``np.percentile`` import through ``np.unique``."""
    graph = str(REPO_ROOT / "graphs" / "block8.txt")
    argv = ["corrmax"] + [graph if a == "GRAPH" else a for a in args]
    code = (
        "import runpy, sys\n"
        f"sys.argv = {argv + ['--outdir', str(tmp_path)]!r}\n"
        "try:\n"
        "    runpy.run_module('corrmax', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print('numpy.ma' in sys.modules)\n"
    )
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.stdout.splitlines()[-1] == "False", result.stderr
