"""Import hygiene of the package: no module imports a name it never uses,
and every name the package exports resolves."""
import ast
import pathlib

import pytest

import relbec

SRC = pathlib.Path(relbec.__file__).resolve().parent
# an import kept only for another module to find, as bench/tracing.py finds
# the names it wraps, carries this mark on its first line
KEPT = "# noqa: F401"


def unused_imports(source):
    """Names bound by an import statement of source that no expression
    reads and no __all__ lists, skipping statements marked KEPT."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and KEPT not in lines[node.lineno - 1]):
            imported.update(alias.asname or alias.name.split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(target, ast.Name) and target.id == "__all__"
                        for target in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda path: path.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("import math\nimport numpy as np\nfrom .errors import (A,\n"
              "    B)\nfrom .types import C  # noqa: F401\n"
              "__all__ = ['A']\nx = np.pi\n")
    assert unused_imports(source) == ["B", "math"]


def test_every_export_resolves():
    assert [name for name in relbec.__all__
            if not hasattr(relbec, name)] == []
