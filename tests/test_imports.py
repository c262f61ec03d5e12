"""Import hygiene of the package: no module imports a name it never uses,
no module defines a private name that no module reads, and every name the
package exports resolves."""
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


def private_definitions(source):
    """Module-level private constants, functions and classes of source:
    names with one leading underscore bound by an assignment or a def."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names.update(target.id for target in targets
                         if isinstance(target, ast.Name))
    return {name for name in names
            if name.startswith("_") and not name.startswith("__")}


def read_names(source):
    """Names source reads: loaded names, attributes and from-imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_names(sources):
    """Private module-level names of sources, {module: source}, that no
    module of sources reads, as sorted "module.name" strings."""
    read = set().union(*(read_names(source) for source in sources.values()))
    return sorted(f"{module}.{name}" for module, source in sources.items()
                  for name in private_definitions(source) - read)


def test_every_private_name_is_read_in_the_package():
    # the tests read private names too, so a name only they read is dead
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert dead_names(sources) == []


def test_dead_names_are_found():
    sources = {
        "a": "_CAP = 1\n_USED = 2\n__all__ = []\ndef _guess():\n"
             "    return _CAP\nclass _Box:\n    pass\n",
        "b": "from .a import _USED\nimport a\nx = a._Box\n"}
    assert dead_names(sources) == ["a._guess"]
    assert dead_names({"a": sources["a"]}) == ["a._Box", "a._USED",
                                               "a._guess"]


def test_every_export_resolves():
    assert [name for name in relbec.__all__
            if not hasattr(relbec, name)] == []
