"""The benchmark's tracer (bench/tracing.py) wraps relbec functions under
the names their calling modules look them up by. A renamed function would
break `bench/run.py --trace 1` only when it runs; this checks that every
such name still resolves, and that every import kept only for the tracer
is still one it wraps."""
import ast
import importlib
import pathlib
import sys

import relbec

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SRC = pathlib.Path(relbec.__file__).resolve().parent


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


def test_kept_imports_are_traced():
    # an import marked "# noqa: F401" is unused by its module and kept only
    # for the tracer to wrap: once the tracer stops wrapping it, it is dead
    tracing = _tracing()
    traced = {(module, attr) for module, attr, _ in tracing.BOUNDARIES}
    traced.update(tracing.KERNELS)
    kept = []
    for path in sorted(SRC.glob("*.py")):
        module = ("relbec" if path.stem == "__init__"
                  else f"relbec.{path.stem}")
        source = path.read_text()
        lines = source.splitlines()
        kept += [(module, alias.asname or alias.name)
                 for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.Import, ast.ImportFrom))
                 and "# noqa: F401" in lines[node.lineno - 1]
                 for alias in node.names]
    assert kept
    assert [lookup for lookup in kept if lookup not in traced] == []
