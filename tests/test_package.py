"""Guards on the package surface and on the README's Python example."""
from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

from conftest import REPO_ROOT

PACKAGE_DIR = REPO_ROOT / "src" / "corrmax"

# Public without a caller in the package: the reference definition of the
# Monte Carlo stream and the paper's limit law.
NO_CALLER_NEEDED = {"rep_rng", "gumbel_cdf", "gumbel_pdf"}


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
    assert NO_CALLER_NEEDED <= exported
    names, attributes = _referenced_names()
    assert exported - names - attributes - NO_CALLER_NEEDED == set()
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


def test_no_module_imports_csv():
    """CSV files are written by ``cli._write_csv``, not the csv module."""
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert "csv" not in [m.split(".")[0] for m in modules], name


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
    """The orders are rows of ``corrections._LAWS``: no comparison in the
    package, ``==`` or ``in`` a tuple alike, involves an order's name."""
    names = {"first", "second", "complete"}
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        for operand in ast.walk(node)
        if isinstance(operand, ast.Constant) and operand.value in names
    ]
    assert found == []


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



def test_short_commands_do_not_import_scipy_special():
    """``scipy.special`` loads on the first normal CDF or quantile, so
    importing the CLI and listing paths never pay for it."""
    code = (
        "import sys\n"
        "import corrmax.cli\n"
        "assert 'scipy.special' not in sys.modules, 'import'\n"
        "assert corrmax.cli.main(['graph', 'paths', sys.argv[1]]) == 0\n"
        "assert 'scipy.special' not in sys.modules, 'graph paths'\n"
    )
    paths = [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    result = subprocess.run(
        [sys.executable, "-c", code, str(REPO_ROOT / "graphs" / "diamond.txt")],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
