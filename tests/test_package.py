"""The public surface: exported names resolve and the README's library
example runs as written."""

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
README = Path(__file__).resolve().parent.parent / "README.md"


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
