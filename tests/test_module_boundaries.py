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
