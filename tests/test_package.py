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


_SCALAR_TYPES = {"bool", "int", "float"}
_NUMPY_SCALAR_TYPES = {"integer", "floating", "bool_"}


def _scalar_type_names(node, numbers_names):
    """The scalar types that one ``isinstance`` type argument names."""
    named = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and (sub.id in _SCALAR_TYPES or sub.id in numbers_names):
            named.append(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            if sub.value.id == "numbers" or (sub.value.id in ("np", "numpy")
                                             and sub.attr in _NUMPY_SCALAR_TYPES):
                named.append(f"{sub.value.id}.{sub.attr}")
    return named


def test_only_numerics_states_a_scalar_type_rule():
    """The integer, real-number and flag rules live in ``numerics``: no other
    module's ``isinstance`` names ``bool``, ``int``, ``float``, a numpy scalar
    type or a ``numbers`` class."""
    found = []
    for path in sorted(_PACKAGE.glob("*.py")):
        if path.stem == "numerics":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        numbers_names = {alias.asname or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module == "numbers"
                         for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                found += [f"{path.stem}:{node.lineno} {name}"
                          for name in _scalar_type_names(node.args[1], numbers_names)]
    assert found == []


_EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def _names_in(tree, wanted):
    """``(line, name)`` of each attribute read or import of a name in ``wanted``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in wanted:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in wanted]
    return found


def test_only_numerics_calls_an_eigensolver():
    """Every eigenproblem goes through ``numerics.sym_eig`` or
    ``numerics.sym_eigvals``: no other module names a numpy eigensolver, and
    one place in ``numerics`` turns a solver failure into ConvergenceError."""
    outside = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "numerics":
            solvers = sorted(name for _, name in _names_in(tree, _EIGENSOLVERS))
            mappings = _names_in(tree, {"LinAlgError"})
        else:
            outside += [f"{path.stem}:{line} {name}"
                        for line, name in _names_in(tree, _EIGENSOLVERS | {"LinAlgError"})]
    assert outside == []
    assert solvers == ["eigh", "eigvalsh"]
    assert len(mappings) == 1


def test_no_module_imports_a_name_it_never_reads():
    """Each name a module imports is read in that module or listed in its
    ``__all__``; an import no code reads is a dependency that is not there."""
    unread = []
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        exported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update({alias.asname or alias.name.partition(".")[0]: node.lineno
                                 for alias in node.names})
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update({alias.asname or alias.name: node.lineno
                                 for alias in node.names})
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}:{line} {name}" for name, line in imported.items()
                   if name not in read | exported]
    assert unread == []
