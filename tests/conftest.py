"""Helpers shared by the test modules."""
import os
import pathlib
import subprocess
import sys

import relbec

# the relbec under test and these test modules, importable by a child
SRC = str(pathlib.Path(relbec.__file__).resolve().parents[1])
TESTS = str(pathlib.Path(__file__).resolve().parent)


def run_python(*args, env=None, **kwargs):
    """subprocess.run of `python -W error::RuntimeWarning args` in a fresh
    interpreter that imports the same relbec and test modules as this one,
    with env's entries added to the environment. The flag makes a
    RuntimeWarning an error there too, as pyproject's filterwarnings does
    here: a warning that only a child's SIMD loops raise is then a fault."""
    path = os.pathsep.join(
        filter(None, [SRC, TESTS, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env=dict(os.environ, PYTHONPATH=path, **(env or {})), **kwargs)
