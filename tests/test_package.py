"""The public surface: exported names resolve, the README's library
example runs as written, the CLI runs without scipy, and no module imports
a name it never uses."""

import ast
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import hesnet
from test_golden import SWEEP_SHA256, TINY

MODULES = sorted(m.name for m in pkgutil.iter_modules(hesnet.__path__))
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"hesnet.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from hesnet.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_readme_library_example_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library example"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README.name} library example", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].split()[1:] == ["<=", "49"]


def test_cli_runs_with_scipy_blocked(tmp_path):
    # scipy is a test dependency only: a fig4 sweep that calibrates zeta
    # and a two-user Threshold simulate run in an interpreter that cannot
    # import it, and the sweep writes its pinned bytes
    probe = ("import json, sys; sys.modules['scipy'] = None; "
             "from hesnet.cli import main; "
             "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
             "print(json.dumps([codes, sorted(m for m in sys.modules if m.startswith('scipy') "
             "and sys.modules[m] is not None)]))")
    runs = [["sweep", "--preset", "fig4", *TINY, "--set", "zeta=auto", "--out", str(tmp_path / "f4")],
            ["simulate", "--preset", "fig5-two-user", "--frames", "20",
             "--set", "policies=GT,Threshold", "--out", str(tmp_path / "two")]]
    src = str(Path(hesnet.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe, json.dumps(runs)], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout.splitlines()[-1]) == [[0, 0], []]
    name, digest = SWEEP_SHA256["fig4"]
    assert hashlib.sha256((tmp_path / "f4" / name).read_bytes()).hexdigest() == digest


def unused_imports(path):
    """Names `path` imports but never reads: a name counts as used when it
    appears as a bare name anywhere in the module (attribute roots too)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names if alias.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_unused_imports():
    # no linter is configured; __init__.py imports are the package's re-exports
    files = [path for folder in (ROOT / "src" / "hesnet", ROOT / "tests")
             for path in sorted(folder.rglob("*.py")) if path.name != "__init__.py"]
    assert files
    found = {str(path.relative_to(ROOT)): names for path in files if (names := unused_imports(path))}
    assert found == {}


def _reads(node):
    """How often each name is read under `node`, as a bare name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_definitions(folder):
    """Module-level functions and classes of the modules in `folder` that
    are not in their module's __all__, and private methods (`_x`, not
    dunders) of their classes, that nothing in the folder reads (as a bare
    name or an attribute) outside their own definition."""
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(folder.glob("*.py"))}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    found = []
    for path, tree in trees.items():
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign)
                         and any(getattr(t, "id", None) == "__all__" for t in node.targets)), [])
        defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        for node in tree.body:
            if not isinstance(node, defs):
                continue
            members = [(f"{node.name}.{m.name}", m) for m in node.body
                       if isinstance(m, defs[:2]) and m.name.startswith("_")
                       and not m.name.endswith("__")] if isinstance(node, ast.ClassDef) else []
            top = [] if node.name in exported else [(node.name, node)]
            found += [f"{path.name}:{label}" for label, d in top + members
                      if reads[d.name] == _reads(d)[d.name]]
    return found


def test_no_unreferenced_functions(tmp_path):
    # the dead-helper counterpart of test_no_unused_imports
    assert unreferenced_definitions(ROOT / "src" / "hesnet") == []
    (tmp_path / "mod.py").write_text(
        "__all__ = ['public', 'Public']\n\ndef public():\n    return _used()\n\n\ndef _used():\n"
        "    return 1\n\n\ndef _dead():\n    return _dead()\n\n\nclass _Gone:\n    pass\n\n\n"
        "class Public:\n    def __init__(self):\n        self._read()\n\n"
        "    def _read(self):\n        return 1\n\n    def _unread(self):\n"
        "        return self._unread()\n")
    assert unreferenced_definitions(tmp_path) == ["mod.py:_dead", "mod.py:_Gone",
                                                  "mod.py:Public._unread"]


def rule_copies(folder):
    """Calls in the modules of `folder` that restate `sim.solve_plan`: a
    call of the uncapped-battery rule outside sim, or of an offline solver
    by name anywhere (a plan function is passed around, and solved through
    `solve_plan`)."""
    found = []
    for path in sorted(folder.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            func = getattr(node, "func", None) if isinstance(node, ast.Call) else None
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name in ("greedy_plan", "optimal_plan") or (
                    name == "require_uncapped_battery" and path.name != "sim.py"):
                found.append(f"{path.name}:{node.lineno}:{name}")
    return found


def test_offline_plans_are_solved_in_sim_alone(tmp_path):
    assert rule_copies(ROOT / "src" / "hesnet") == []
    (tmp_path / "sim.py").write_text("def solve_plan(solve, params):\n"
                                     "    require_uncapped_battery(params)\n"
                                     "    return solve(params)\n")
    (tmp_path / "cli.py").write_text(
        "from . import offline\n\n\ndef cmd(params):\n    offline.require_uncapped_battery(params)\n"
        "    return {f: f(params) for f in (greedy_plan, offline.optimal_plan)}, greedy_plan(1)\n")
    assert rule_copies(tmp_path) == ["cli.py:5:require_uncapped_battery", "cli.py:6:greedy_plan"]


def table_report_reads(folder):
    """Reads, as a bare name or an attribute, of an MDP model's kernel band
    (`band`, `band_start`) or of `predicted_cost` in the modules of
    `folder` other than mdp.py: a table's report is `mdp.table_report`'s
    alone."""
    found = []
    for path in sorted(folder.glob("*.py")):
        if path.name == "mdp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name in ("band", "band_start", "predicted_cost"):
                found.append(f"{path.name}:{node.lineno}:{name}")
    return sorted(found)


def test_table_reports_are_computed_in_mdp_alone(tmp_path):
    assert table_report_reads(ROOT / "src" / "hesnet") == []
    (tmp_path / "mdp.py").write_text("def table_report(model):\n"
                                     "    return model.band, predicted_cost(model)\n")
    (tmp_path / "cli.py").write_text(
        "from .mdp import predicted_cost\n\n\ndef cmd(model):\n"
        "    return model.band_start[0], predicted_cost(model), {'band': 1}\n")
    assert table_report_reads(tmp_path) == ["cli.py:5:band_start", "cli.py:5:predicted_cost"]


def unread_definitions(path):
    """Module-level functions and classes of `path` that no other module in
    its folder reads, as a bare name or an attribute."""
    reads = {n.id if isinstance(n, ast.Name) else n.attr
             for other in sorted(path.parent.glob("*.py")) if other != path
             for n in ast.walk(ast.parse(other.read_text(), filename=str(other)))
             if isinstance(n, (ast.Name, ast.Attribute))}
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.name}" for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name not in reads]


def test_every_oracle_is_read_by_another_test_module(tmp_path):
    # a reference no test reads checks nothing, even when another oracle calls it
    assert unread_definitions(ROOT / "tests" / "oracles.py") == []
    (tmp_path / "oracles.py").write_text(
        "def used():\n    return _helper()\n\n\ndef _helper():\n    return 1\n\n\n"
        "class Gone:\n    pass\n")
    (tmp_path / "test_mod.py").write_text(
        "from oracles import used\n\n\ndef test_used():\n    assert used() == 1\n")
    assert unread_definitions(tmp_path / "oracles.py") == ["oracles.py:_helper", "oracles.py:Gone"]
