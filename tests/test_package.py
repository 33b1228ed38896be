import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import convexsphere

SRC = str(Path(convexsphere.__file__).resolve().parent.parent)
ROOT = Path(SRC).parent


def test_package_root_binds_only_the_version():
    # names are imported from the module that defines them; the root loads
    # nothing else, numpy included
    code = (
        "import sys, types, convexsphere\n"
        "print(sorted(set(vars(convexsphere)) - set(vars(types.ModuleType('m')))"
        " - {'__path__', '__file__', '__cached__', '__builtins__'}))\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split("\n")
    assert out[0] == "['__version__']"
    assert out[1] == "False"


def test_version_is_written_once():
    # pyproject.toml reads the version from convexsphere.__version__, the one
    # every report and document embeds as toolkit_version
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        meta = tomllib.load(fh)
    assert "version" not in meta["project"]
    assert "version" in meta["project"]["dynamic"]
    dynamic = meta["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "convexsphere.__version__"}


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never references."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "convexsphere").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert len(files) > 20
    assert [u for f in files for u in _unused_imports(f)] == []
