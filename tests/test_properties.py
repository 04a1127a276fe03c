"""Property tests: no pattern, schedule or config document and no flag
value makes the CLI raise, every exit code is 0, 1 or 2, a run that exits
0 writes only finite numbers, and a run that fails writes nothing.

Generated integers stay small so that any document the CLI accepts
describes a problem that runs in milliseconds.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import linear_cluster_pattern, pattern_to_dict

from hexmbqc import cli, ionization, lattice, mbqc, scheduler
from hexmbqc import electron_dynamics as ed

leaves = (st.none() | st.booleans() | st.integers(-2, 5) | st.floats(width=32)
          | st.text(max_size=3))
json_values = st.recursive(
    leaves, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=8)
qubit = st.integers(-1, 5)

# every flag of every (command, mode) takes these values; the flags that set
# the amount of work draw small ones, ones at their limit where that runs in
# milliseconds, and ones past it, which exit 1 at once: rows or cols of
# MAX_SITES // 4 passes the site limit whatever the other is, and propagate's
# step count t_final / dt passes its limit with the config's 2e-13 s step.
# A pattern document's qubit count n draws from "pattern_n": at the limit it
# fails validation with a few steps, past it it is refused before any work
EDGES = (0, -1, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324, 2**64, 10**400)
WORK = {"rows": st.integers(-1, 4) | st.sampled_from((lattice.MAX_SITES // 4, 2**64)),
        "cols": st.integers(-1, 4) | st.sampled_from((lattice.MAX_SITES // 4, 2**64)),
        "points": st.integers(-1, 30) | st.sampled_from(
            (cli.MAX_RATE_POINTS, cli.MAX_RATE_POINTS + 1, 2**64)),
        "max_photons": st.integers(-1, 6) | st.sampled_from(
            (ionization.MAX_PHOTONS, ionization.MAX_PHOTONS + 1, 2**64)),
        "points_x": st.sampled_from((-1, 0, 3, 16, 64, ed.MAX_GRID_POINTS,
                                     2 * ed.MAX_GRID_POINTS, 2**64)),
        "points_y": st.sampled_from((-1, 0, 3, 16, 32, ed.MAX_GRID_POINTS,
                                     2 * ed.MAX_GRID_POINTS, 2**64)),
        "t_final": st.sampled_from((*EDGES, 2e-13 * ed.MAX_STEPS * 1.001)),
        "pattern_n": st.integers(0, 5) | st.sampled_from(
            (mbqc.MAX_TOTAL_QUBITS, mbqc.MAX_TOTAL_QUBITS + 1, 2**64))}


def maybe(strategy):
    """Mostly well-typed values, sometimes any JSON value."""
    return strategy | json_values


step = st.fixed_dictionaries(
    {"qubit": maybe(qubit), "angle": maybe(st.floats(-4, 4))},
    optional={"s_domain": maybe(st.lists(qubit, max_size=2)),
              "t_domain": maybe(st.lists(qubit, max_size=2))})
CHAIN_DOC = pattern_to_dict(5, [(0, 1), (1, 2), (2, 3), (3, 4)],
                            linear_cluster_pattern((0.1, 0.2, 0.3, 0.4)))


@st.composite
def chain_docs(draw):
    """The 5-qubit chain pattern, which runs, with every angle drawn from all
    floats (NaN and infinities too) and sometimes a normalized input state
    on qubit 0."""
    doc = json.loads(json.dumps(CHAIN_DOC))
    for entry in doc["steps"]:
        entry["angle"] = draw(st.floats())
    if draw(st.booleans()):
        t = draw(st.floats(-4, 4))
        doc["input"] = {"qubits": [0], "amplitudes": [[math.cos(t), 0.0], [0.0, math.sin(t)]]}
    return doc


pattern_docs = json_values | st.fixed_dictionaries(
    {"n": maybe(WORK["pattern_n"]),
     "edges": maybe(st.lists(maybe(st.lists(maybe(qubit), min_size=2, max_size=2)),
                             max_size=5)),
     "steps": maybe(st.lists(maybe(step), max_size=4)),
     "outputs": maybe(st.lists(qubit, max_size=3))},
    optional={"corrections": maybe(st.lists(maybe(st.fixed_dictionaries(
                  {"qubit": maybe(qubit), "kind": maybe(st.sampled_from("XZY"))},
                  optional={"domain": maybe(st.lists(qubit, max_size=2))})), max_size=2)),
              "input": maybe(st.fixed_dictionaries(
                  {"qubits": maybe(st.lists(maybe(qubit), max_size=2)),
                   "amplitudes": maybe(st.lists(maybe(st.lists(
                       maybe(st.floats(-1, 1)), min_size=2, max_size=2)), max_size=4))})),
              "schema_version": maybe(st.just(1))})


def _valid_rounds():
    assign = lattice.decompose_sublattices(lattice.build_hex_array(2, 2, 1.0), 1)
    return [[list(g) for g in rnd] for rnd in scheduler.build_schedule(assign).rounds]


VALID_ROUNDS = _valid_rounds()


@st.composite
def edited_rounds(draw):
    """The 2x2 schedule with a few gates moved, copied, dropped or altered."""
    rounds = [list(rnd) for rnd in VALID_ROUNDS]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rounds) - 1))
        action = draw(st.sampled_from(("move", "copy", "drop", "alter", "round")))
        if action == "round":
            rounds.append([]) if draw(st.booleans()) else rounds.pop()
        elif rounds[k]:
            i = draw(st.integers(0, len(rounds[k]) - 1))
            gate = rounds[k].pop(i) if action in ("move", "drop") else rounds[k][i]
            if action == "alter":
                rounds[k][i] = [gate[0], draw(maybe(st.integers(-1, 30)))]
            elif action != "drop":
                rounds[draw(st.integers(0, len(rounds) - 1))].append(gate)
    return rounds


lattice_blocks = st.fixed_dictionaries({}, optional={
    "rows": maybe(st.integers(1, 3)), "cols": maybe(st.integers(1, 3)),
    "d": maybe(st.floats(0, 2)), "n": maybe(st.integers(1, 2)),
    "periodic": maybe(st.booleans())})
schedule_docs = json_values | st.fixed_dictionaries(
    {"lattice": maybe(lattice_blocks | st.just({"rows": 2, "cols": 2, "n": 1})),
     "rounds": maybe(edited_rounds())})


def _block(defaults):
    keys = st.sampled_from(sorted(defaults)) | st.text(max_size=3)
    return st.dictionaries(keys, json_values, max_size=3)


def _command_block(command):
    modes = cli._modes(command)
    if None in modes:
        return _block(modes[None])
    return st.fixed_dictionaries({}, optional={
        mode: _block(defaults) for mode, defaults in modes.items()})


config_docs = json_values | st.fixed_dictionaries({}, optional={
    "seed": json_values, "out": json_values,
    **{command: _command_block(command) for command in cli._HELP}})
# every command a config alone can run: propagate is left out because a block
# of small values can still describe a run of seconds; verify of a small array
# takes milliseconds, and a Mathieu trace stops at its step budget (under 1 s)
CONFIG_ARGV = [["lattice"], ["schedule"], ["verify"], ["ionize", "rates"],
               ["ionize", "resonances"], ["ionize", "quadrupole"], ["ionize", "raman"],
               ["electron", "classical"], ["electron", "mathieu"], ["electron", "timescale"],
               ["resources"]]


def _run(argv, filename, doc) -> tuple[int, dict]:
    """Exit code and the parsed JSON artifacts of one CLI run on ``doc``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / filename
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.dispatch([arg.format(path=path) for arg in argv]
                                + ["--out", str(Path(tmp) / "out")])
        return code, {f.name: json.loads(f.read_text())
                      for f in Path(tmp).glob("out/*.json")}


@settings(max_examples=50, deadline=None)
@given(pattern_docs, st.integers(0, 3))
def test_pattern_documents_exit_cleanly(doc, seed):
    argv = ["mbqc", "--pattern", "{path}", "--seed", str(seed)]
    assert _run(argv, "pattern.json", doc)[0] in (0, 1)


@settings(max_examples=50, deadline=None)
@given(chain_docs(), st.integers(0, 3))
def test_runnable_patterns_write_finite_numbers(doc, seed):
    argv = ["mbqc", "--pattern", "{path}", "--seed", str(seed)]
    code, written = _run(argv, "pattern.json", doc)
    assert code in (0, 1)
    if code == 0:
        result = written["mbqc_result.json"]
        numbers = result["state_re"] + result["state_im"] + [result["branch_probability"]]
        assert all(math.isfinite(v) for v in numbers)


@settings(max_examples=50, deadline=None)
@given(schedule_docs)
def test_schedule_documents_exit_cleanly(doc):
    assert _run(["verify", "--schedule", "{path}"], "schedule.json", doc)[0] in (0, 1, 2)


@settings(max_examples=50, deadline=None)
@given(config_docs, st.sampled_from(CONFIG_ARGV))
def test_config_documents_exit_cleanly(doc, argv):
    # 2 only where a classical trajectory can leave float range
    codes = (0, 1, 2) if argv == ["electron", "classical"] else (0, 1)
    assert _run(argv + ["--config", "{path}"], "config.json", doc)[0] in codes


def test_valid_documents_still_run():
    """Valid documents exit 0 through the same harness, so the properties
    above do not pass merely because every document is rejected."""
    assert _run(["mbqc", "--pattern", "{path}"], "pattern.json", CHAIN_DOC)[0] == 0
    doc = {"lattice": {"rows": 2, "cols": 2, "n": 1}, "rounds": VALID_ROUNDS}
    assert _run(["verify", "--schedule", "{path}"], "schedule.json", doc)[0] == 0
    assert _run(["lattice", "--config", "{path}"], "config.json", {})[0] == 0


PROPAGATE_64x32 = {"electron": {"propagate": {
    "points_x": 64, "points_y": 32, "hbar_scale": 640.0, "dt": 2e-13, "t_final": 2e-11}}}


@st.composite
def command_lines(draw):
    """A command, its mode and values for up to three of the flags it reads;
    the others keep their defaults, so that some runs exit 0."""
    command, mode = draw(st.sampled_from(sorted(cli._HANDLERS, key=str)))
    argv = [command] if mode is None else [command, mode]
    flags = {key: default for key, (default, modes) in cli._flag_keys(command).items()
             if mode in modes and key not in ("schedule_file", "pattern_file")}
    flags["seed"] = 0
    for key in draw(st.lists(st.sampled_from(sorted(flags)), max_size=3, unique=True)):
        flag = cli._flag(key)
        if isinstance(flags[key], bool):
            argv.append(draw(st.sampled_from((flag, "--no-" + flag[2:]))))
        else:
            argv.append(f"{flag}={draw(WORK.get(key, st.sampled_from(EDGES)))}")
    return argv


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(max_examples=100, deadline=None)
@given(command_lines())
@example(["lattice", "--d=1e+308"]).via("a finite artifact written before a NaN one")
@example(["ionize", "rates", "--i-max=0"]).via("rates.json once written before i_max failed")
@example(["electron", "propagate", "--dt=5e-324"]).via("t_final / dt past float range")
@example(["electron", "propagate", "--t-final=5e-324"]).via("no step: the t = 0 sample alone")
@example(["electron", "propagate", "--hbar-scale=1e+308"]).via("sigma0**2 overflows")
@example(["electron", "propagate", "--omega-e=1e+308"]).via("omega_e**2 overflows")
@example(["ionize", "rates", "--i-min=1e-170"]).via("the D rate underflows to 0")
def test_every_command_exits_cleanly_with_finite_artifacts(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        extra = ["--out", str(out)]
        if argv[0] == "mbqc":
            (Path(tmp) / "pattern.json").write_text(json.dumps(CHAIN_DOC))
            extra += ["--pattern", str(Path(tmp) / "pattern.json")]
        elif argv[:2] == ["electron", "propagate"]:
            (Path(tmp) / "config.json").write_text(json.dumps(PROPAGATE_64x32))
            extra += ["--config", str(Path(tmp) / "config.json")]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.dispatch(argv + extra)
        assert code in (0, 1, 2)
        assert "Traceback" not in stderr.getvalue()
        if code == 0:
            json.loads(stdout.getvalue(), parse_constant=_refuse)
            for path in out.iterdir():
                if path.suffix == ".json":
                    json.loads(path.read_text(), parse_constant=_refuse)
                    continue
                _, *rows = path.read_text().splitlines()  # CSV or snapshot rows
                assert all(math.isfinite(float(field)) for row in rows
                           for field in re.split("[, ]", row) if field), path.name
        elif argv[0] == "verify" and code == 2:
            assert json.loads((out / "verification.json").read_text())["verified"] is False
        else:
            assert not out.exists(), stderr.getvalue()
