import ast
import inspect
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


def test_no_module_imports_numpy_at_module_level():
    # numpy costs ~85 ms to import; every module imports it inside the code
    # that computes with arrays, so a process that never reaches that code
    # never loads it, and mbqc, which simulates in plain Python, never does
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    assert [path.name for path in modules if "numpy" in _module_level_imports(path)] == []
    tree = ast.parse((PACKAGE / "mbqc.py").read_text())
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) and "numpy" in ast.unparse(node)]


def test_no_module_imports_graphstate():
    # verify audits schedules on the partner table; the tableau stays only
    # for the benchmark and the tests, so no module may come to need it
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                base = getattr(node, "module", None) or ""
                names = [f"{base}.{alias.name}" for alias in node.names]
                if any("graphstate" in name.split(".") for name in names):
                    importers.add(path.name)
    assert importers == set()


def _library_defaults() -> dict:
    """{CLI key: library default} over the fields and parameters the CLI's
    handlers pass through.  ``TrapConfig.mass`` is left out: it is the
    electron's mass, which no CLI key sets, while ``mathieu``'s ``mass`` is
    the ion's."""
    from hexmbqc import electron_dynamics as ed
    from hexmbqc import ionization, scheduler

    found = {key: value for key, value in ed.TrapConfig._field_defaults.items() if key != "mass"}
    functions = (ed.gaussian_wavepacket, ed.propagate, ed.classical_trajectory,
                 ed.mathieu_q, ed.stability_boundary, ed.electron_timescale,
                 scheduler.build_schedule, ionization.find_resonances,
                 ionization.quadrupole_irradiance, ionization.raman_irradiance)
    renamed = {"detuning_cut_ev": "detuning_cut"}
    for fn in functions:
        for param in inspect.signature(fn).parameters.values():
            if param.default is not param.empty:
                key = renamed.get(param.name, param.name)
                assert found.setdefault(key, param.default) == param.default, key
    return found


def _is_literal(node: ast.AST) -> bool:
    """A value written out in the source: numbers, booleans, lists of them and
    arithmetic on them and on ``math`` constants.  ``None`` is the CLI's mark
    for a value the user has not given, so it is not a literal here."""
    if isinstance(node, ast.Constant) and node.value is None:
        return False
    if isinstance(node, ast.Attribute):
        return isinstance(node.value, ast.Name) and node.value.id == "math"
    return not isinstance(node, (ast.Name, ast.Call, ast.Subscript, ast.Starred)) and all(
        map(_is_literal, ast.iter_child_nodes(node)))


# where cli.py writes its tables: the module-level lattice table, and the
# function that builds every command's table on first use
TABLE_SOURCES = ("_LATTICE", "_defaults")


def _restated_defaults(source: str, library: dict) -> tuple[list[str], set[str]]:
    """``source.key`` for every key of a dict written in cli's table sources
    whose value is written out while the library owns a default of that
    name; and every key written in those dicts, so that a scan that finds
    no table cannot pass."""
    found, keys = [], set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
        else:
            name = getattr(node, "name", None)
        if name not in TABLE_SOURCES:
            continue
        for table in ast.walk(node):
            if isinstance(table, ast.Dict):
                written = [(key.value, value) for key, value in zip(table.keys, table.values)
                           if isinstance(key, ast.Constant)]
                keys.update(key for key, _ in written)
                found += [f"{name}.{key}" for key, value in written
                          if key in library and _is_literal(value)]
    return found, keys


def _cli_tables() -> list[dict]:
    """Every {key: default} table of every command, one per mode."""
    from hexmbqc import cli

    tables = []
    for command in cli._HELP:
        tables += cli._modes(command).values()
    return tables


def test_cli_table_reads_the_defaults_the_library_owns():
    # a default the library owns has one copy: the CLI reads it, so changing
    # it in the library changes every subcommand that passes it through
    library = _library_defaults()
    restated, written = _restated_defaults((PACKAGE / "cli.py").read_text(), library)
    assert restated == []
    tables = _cli_tables()
    assert len(tables) == 13
    # the scan reached the code of every table: each key the library does
    # not own is written in one of the scanned dicts
    assert {key for table in tables for key in table if key not in library} <= written
    shared = [(key, value) for table in tables for key, value in table.items()
              if key in library]
    assert [(key, value) for key, value in shared if value != library[key]] == []
    assert {key for key, _ in shared} >= {"omega_e", "omega_rf", "v0", "periodic", "dt"}


def test_a_restated_library_default_is_found():
    # the scan above is not vacuous: a literal planted where a table is
    # built is reported
    source = (PACKAGE / "cli.py").read_text()
    library = _library_defaults()
    planted = source.replace("**scheduler.build_schedule.__kwdefaults__}",
                             '**scheduler.build_schedule.__kwdefaults__, "periodic": False}')
    assert planted != source
    assert _restated_defaults(planted, library)[0] == ["_defaults.periodic"]
    planted = source.replace('"d": 1.0, "n": 1}', '"d": 1.0, "n": 1, "t_gate": 1e-5}')
    assert planted != source
    assert _restated_defaults(planted, library)[0] == ["_LATTICE.t_gate"]
