import ast
import pathlib

import hexmbqc

PACKAGE = pathlib.Path(hexmbqc.__file__).parent


def _private_imports(path: pathlib.Path) -> list[str]:
    """``module._name`` for every leading-underscore name that the module at
    ``path`` imports from a sibling module of the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        sibling = node.level == 1 or node.module.startswith("hexmbqc.")
        if sibling:
            found += [f"{node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_a_sibling():
    # a private helper stays with its owner; a sibling that needs it reads
    # the owner's public API instead
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: names for path in modules if (names := _private_imports(path))}
    assert offenders == {}


def _module_level_imports(path: pathlib.Path) -> set[str]:
    """Top-level names of the modules imported when the module at ``path``
    is imported: statements outside functions and outside an ``if
    TYPE_CHECKING:`` block."""
    found: set[str] = set()
    todo = list(ast.parse(path.read_text(), filename=str(path)).body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            todo += node.orelse
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)
    return found


def test_only_mbqc_imports_numpy_at_module_level():
    # numpy costs ~85 ms to import; every module but mbqc imports it inside
    # the code that computes with arrays, so a process that never reaches
    # that code never loads it
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    users = [path.name for path in modules if "numpy" in _module_level_imports(path)]
    assert users == ["mbqc.py"]
