"""The modules of specbounds import each other without a cycle, and only at
module level, so each layer can be read and tested below the ones that use
it."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

import specbounds

PACKAGE = Path(specbounds.__file__).parent


def _relative_imports(tree: ast.Module) -> set[str]:
    # Every module named by a relative import anywhere in the file:
    # "from .profile import x" names profile, "from . import bounds" names bounds.
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_import_graph_is_acyclic():
    graph = {name: _relative_imports(tree) for name, tree in _trees().items()}
    list(TopologicalSorter(graph).static_order())  # CycleError names the cycle


def test_no_function_body_imports():
    found = [f"{name}.{node.name} imports {ast.unparse(inner)}"
             for name, tree in _trees().items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node)
             if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_package_root_imports_nothing():
    # Names are imported from their modules; the root only documents the package.
    tree = _trees()["__init__"]
    assert [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))] == []


def test_no_module_declares_all():
    # A leading underscore is the only mark of a private name.
    assert [name for name, tree in _trees().items()
            if any(isinstance(node, ast.Name) and node.id == "__all__"
                   for node in ast.walk(tree))] == []


def test_syntax_parses_at_the_python_floor():
    """Every file of the package and of the tests parses as Python 3.10, the
    floor that pyproject.toml's requires-python promises.  This catches
    syntax only, such as except* or def f[T]; a call to a library function
    that is newer than 3.10 still passes."""
    paths = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    failed = []
    for path in paths:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
        except SyntaxError as error:
            failed.append(f"{path.name}:{error.lineno}: {error.msg}")
    assert len(paths) > 20 and failed == []
