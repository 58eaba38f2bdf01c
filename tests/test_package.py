"""The public surface: exported names resolve and the README's library
example runs as written."""

import importlib
import pkgutil
import re
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
