"""The public surface: exported names resolve, the README's library
example runs as written, and no module imports a name it never uses."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hesnet

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


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the start-up time and serves two scalar
    # calls in threshold_lambdas, which import it when they run
    src = str(Path(hesnet.__file__).resolve().parent.parent)
    probe = ("import sys; import hesnet.cli; "
             "print('scipy.special' in sys.modules, 'hesnet.policies' in sys.modules)")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.split() == ["False", "True"]


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
