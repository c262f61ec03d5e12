"""The benchmark's tracer (bench/tracing.py) wraps relbec functions under
the names their calling modules look them up by. A renamed function would
break `bench/run.py --trace 1` only when it runs; this checks that every
such name still resolves."""
import importlib
import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _tracing():
    """bench/tracing.py, imported without writing bytecode next to it."""
    if str(BENCH) not in sys.path:
        sys.path.append(str(BENCH))
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("tracing")
    finally:
        sys.dont_write_bytecode = saved


def test_traced_lookups_resolve():
    tracing = _tracing()
    lookups = [(module, attr) for module, attr, _ in tracing.BOUNDARIES]
    lookups += tracing.KERNELS
    missing = [(module, attr) for module, attr in lookups
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert lookups
    assert missing == []
