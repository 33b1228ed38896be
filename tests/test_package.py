import os
import subprocess
import sys
from pathlib import Path

import convexsphere

SRC = str(Path(convexsphere.__file__).resolve().parent.parent)


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
