import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import convexsphere
from convexsphere.bodies import ball, from_vertices
from convexsphere.config import ExperimentConfig
from convexsphere.fields import BodyField, QuadForm3, sample_unit_F
from convexsphere.fourier2d import FourierSupport
from convexsphere.groups import sample_group
from convexsphere.mod2poly import Mod2SymPoly, stiefel_whitney_top
from convexsphere.polynomials import JoinPoint, get_basis, project
from convexsphere.sections import cube_family
from convexsphere.sphere import build_grid

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


def _dataclasses():
    """Every dataclass defined in the package, by name."""
    found = {}
    for info in pkgutil.iter_modules(convexsphere.__path__):
        module = importlib.import_module(f"convexsphere.{info.name}")
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and dataclasses.is_dataclass(obj) and obj.__module__ == module.__name__:
                found[name] = obj
    return found


def _one_of_each():
    grid = build_grid(3)
    values = [
        grid,
        get_basis(3, 4, grid),
        project(grid, grid.nodes[:, 0] ** 2, 4),
        JoinPoint([(1.0, sample_unit_F(3, 4, 1, seed=1, grid=grid)[0])]),
        from_vertices(grid, np.vstack([np.eye(3), -np.eye(3)])),
        QuadForm3(np.diag([2.0, 1.0, -3.0])),
        BodyField(np.eye(3)[None], [ball(grid)]),
        sample_group("pm", 3),
        cube_family(3),
        FourierSupport(1.0, np.zeros(2), np.zeros(2)),
        Mod2SymPoly(2, np.array([1, 2])),
        stiefel_whitney_top(2, 3),
        ExperimentConfig(),
    ]
    for v in values:  # derive the cached arrays too
        for name in ("support", "radial", "samples", "monomial_coef"):
            getattr(v, name, None)
    return values


def _arrays(value):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for v in value:
            yield from _arrays(v)


def test_every_value_is_frozen_and_read_only():
    # nothing can edit a value after it is made: no attribute can be
    # assigned, and no array a value holds can be written
    classes = _dataclasses()
    assert sorted(name for name, cls in classes.items() if not cls.__dataclass_params__.frozen) == []
    values = _one_of_each()
    assert sorted(type(v).__name__ for v in values) == sorted(classes)
    writable = [
        f"{type(v).__name__}.{name}"
        for v in values
        for name, attr in {**{f.name: getattr(v, f.name) for f in dataclasses.fields(v)},
                           **vars(v)}.items()
        for a in _arrays(attr)
        if a.flags.writeable
    ]
    assert writable == []


def test_body_terms_cannot_be_edited():
    # an edit of the description would leave the cached support samples stale
    c = from_vertices(build_grid(3), np.eye(3))
    with pytest.raises(ValueError):
        c.terms[0][0, 0] = 9.0
    assert c.support_eval(np.eye(3)[:1])[0] == 1.0


def test_section_family_offsets_cannot_be_edited():
    # the origin-interior check holds for the family's whole life
    fam = cube_family(3)
    with pytest.raises(ValueError):
        fam.offsets[:] = -1.0
    assert np.all(fam.offsets == 1.0)


def test_mod2_values_hash_as_they_compare():
    p, q = Mod2SymPoly(2, np.array([1, 2])), Mod2SymPoly(2, np.array([2, 1]))
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Mod2SymPoly(3, np.array([1, 2]))
    top = stiefel_whitney_top(2, 3)
    assert top == stiefel_whitney_top(2, 3) and hash(top) == hash(stiefel_whitney_top(2, 3))
