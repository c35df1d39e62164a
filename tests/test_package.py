"""The package namespace: what ``from reskernel import *`` exports, and
which names its modules share."""

import ast
from pathlib import Path

import reskernel

_PACKAGE = Path(reskernel.__file__).parent


def test_every_exported_name_resolves_once():
    names = reskernel.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(reskernel, name)]
    assert missing == []
    namespace = {}
    exec("from reskernel import *", namespace)
    assert set(names) <= set(namespace)


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_a_private_name_of_another_module():
    """An ``_`` name is private to its module.  A module may import a sibling
    module whose own name starts with ``_`` (``cli`` uses ``_io``), but no
    module imports or reads an ``_`` name defined in another."""
    modules = {path.stem for path in _PACKAGE.glob("*.py")}
    crossings = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()  # local names of sibling modules
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if not node.level and node.module.partition(".")[0] != "reskernel":
                continue
            source = node.module if node.level else node.module.partition(".")[2]
            for alias in node.names:
                if not source and alias.name in modules:
                    bound.add(alias.asname or alias.name)
                elif _is_private(alias.name):
                    crossings.append(f"{path.stem} imports {source or 'reskernel'}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound and _is_private(node.attr)):
                crossings.append(f"{path.stem} reads {node.value.id}.{node.attr}")
    assert crossings == []
