"""Command-line front end: reproducible runs, JSON/CSV artifacts.

Subcommands map onto the library modules: ``lattice`` and ``schedule``
build the trap-array geometry and its six-round entangling schedule,
``verify`` audits a schedule with ``scheduler.audit_rounds`` and reports
its first fault and its failing cluster stabilizers, ``mbqc`` executes a
measurement-pattern file, ``ionize`` evaluates rate/ratio/resonance/
irradiance queries, ``electron`` runs the wavepacket, classical, Mathieu
and timescale calculations, and ``resources`` prints the operation-count
arithmetic.

``_defaults(command)`` is the one table behind a subcommand: it is the
schema of that command's config-file block, the source of its flags
(``--`` + key with ``_`` -> ``-``, typed like its default), its ``--help``
epilog and its ``--dump-config``.  Each table is built the first time its
command is used, once per process, and never changed after.  It writes
only the values no library call owns and reads the rest from the module
that owns them: ``build_schedule``'s keyword-only defaults for
``schedule`` (``verify``, which reads no timing, takes only ``periodic``);
``TrapConfig``'s fields and the keyword-only defaults of
``gaussian_wavepacket`` and ``propagate`` for ``electron``.  Every
subcommand also accepts ``--config FILE`` (JSON, one block per
subcommand, unknown keys rejected in every block), ``--seed N``, ``--out
DIR`` and ``--dump-config``.  Effective values resolve as defaults <
config file < explicit flags.  Identical config + seed gives
byte-identical artifacts: ``_dumps`` writes JSON as ``json.dumps(doc,
sort_keys=True, indent=2)`` does, and CSV uses fixed formats, with no
timestamps anywhere.

Handlers write nothing and read documents (config, schedule, pattern) only
through ``_read_json``.  ``dispatch``, the one writer, renders stdout and
every artifact first and only then creates ``--out``, so a NaN or infinite
result exits 2 naming the output and the inputs, with nothing written.

Exit codes: 0 success; 1 validation/usage error; 2 physics or
verification failure (e.g. ``verify`` on a corrupted schedule).

A process imports only what its subcommand runs.  At the top this module
imports the standard library and ``resources``; each handler imports its
own library module, and a config block loads its command's module only
when the file holds that block.  ``lattice`` loads ``lattice``;
``schedule`` and ``verify`` load ``lattice`` and ``scheduler``; ``mbqc``
loads ``mbqc``, ``ionize`` ``ionization`` and ``electron``
``electron_dynamics``.  numpy is loaded by ``electron propagate`` only,
and no subcommand loads ``graphstate`` or scipy.  The library's records
are named tuples, and ``LayerAssignment`` a slotted class, none made by a
class decorator, so no subcommand loads ``inspect``, and only ``ionize``
loads ``typing``, through ``importlib.resources``.  ``mbqc`` samples with
``mbqc.Pcg64``, which draws what ``numpy.random.default_rng(seed)``
draws, so a seed keeps its outcomes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys

from . import resources

__all__ = ["main", "dispatch", "parse_duration"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_PHYSICS = 2
MAX_RATE_POINTS = 10_000  # the most irradiances ``ionize rates`` tabulates
MAX_NAMED_STABILIZERS = 5  # failing K_a that ``verify`` lists by site


class _UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # -4, -.5 and -1e-3 are values, not flags
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# defaults: {command: values} or {command: {mode: values}}

_LATTICE = {"rows": 4, "cols": 4, "d": 1.0, "n": 1}
_SCHEDULE_LATTICE = (*_LATTICE, "periodic")  # schedule.json's lattice block


def _trap_defaults() -> dict:
    """``TrapConfig``'s fields and their defaults, less ``mass``: that is the
    electron's, which no key sets."""
    from . import electron_dynamics as ed

    return {key: value for key, value in ed.TrapConfig._field_defaults.items() if key != "mass"}


@functools.cache
def _defaults(command: str) -> dict:
    """The table of ``command``: {key: default}, or {mode: {key: default}}.
    Built on first use from the module that owns the library's defaults;
    read only after."""
    if command == "lattice":
        return _LATTICE
    if command in ("schedule", "verify"):
        from . import scheduler

        table = {**_LATTICE, **scheduler.build_schedule.__kwdefaults__}
        return table if command == "schedule" else {  # verify reads no timing
            **_LATTICE, "periodic": table["periodic"], "schedule_file": None}
    if command == "mbqc":
        return {"pattern_file": None}
    if command == "ionize":
        return {
            "rates": {"irradiance": 1e9, "i_min": 1e8, "i_max": 1e10, "points": 25},
            "resonances": {"lambda_min": 380.0, "lambda_max": 410.0,
                           "max_photons": 4, "detuning_cut": 0.03},
            "quadrupole": {"t_pulse": 2e-9},
            "raman": {"t_pulse": 1e-9, "detuning_linewidths": 1e4},
        }
    if command == "electron":
        from . import electron_dynamics as ed

        trap, packet = _trap_defaults(), ed.gaussian_wavepacket.__kwdefaults__
        return {
            "propagate": {
                **trap, **{key: packet[key] for key in ("v0", "sigma_v", "sigma0")},
                "t_final": 3e-9, **ed.propagate.__kwdefaults__,
            },
            "classical": {"omega_e": trap["omega_e"], "v0": packet["v0"], "t": 1.5e-9},
            "mathieu": {"a": 0.0, "q": None, "charge": 1.0, "mass": ed.M_CA40,
                        "v_rf": None, "r0": None, "omega_rf": trap["omega_rf"],
                        "boundary": False},
            "timescale": {"omega_rf": trap["omega_rf"], "m_ion": ed.M_CA40},
        }
    if command == "resources":
        return {"bits": 640, "wallclock": "5month", "n_qubits": 10000,
                "t_meas": 3e-9, "t_coh": 10.0}
    raise KeyError(command)


_TOP = {"seed": 0, "out": "."}  # top-level config keys next to the blocks

_HELP = {
    "lattice": "build the array and layer decomposition",
    "schedule": "emit the six-round CPHASE schedule",
    "verify": "check a schedule's structure and stabilizer-verify its output state",
    "mbqc": "run a measurement-pattern file",
    "ionize": "ionization rates and laser estimates",
    "electron": "wavepacket, classical and stability runs",
    "resources": "operation-count / timing arithmetic",
}

# the three flags not spelled after their key
_FLAG_NAMES = {"static_mode": "--static", "schedule_file": "--schedule",
               "pattern_file": "--pattern"}
# propagate keys set only from a config file
_NO_FLAG = {"extent_x", "extent_y", "absorber_width_frac", "absorber_gain",
            "detector_gain", "detectors", "sigma_v", "sigma0", "sample_interval",
            "snapshot_times"}

_DURATION_UNITS = {
    "": 1.0, "s": 1.0, "sec": 1.0, "secs": 1.0, "second": 1.0, "seconds": 1.0,
    "ns": 1e-9, "us": 1e-6, "ms": 1e-3,
    "min": 60.0, "mins": 60.0, "minute": 60.0, "minutes": 60.0,
    "h": 3600.0, "hr": 3600.0, "hour": 3600.0, "hours": 3600.0,
    "d": 86400.0, "day": 86400.0, "days": 86400.0,
    "mo": resources.MONTH_SECONDS, "month": resources.MONTH_SECONDS,
    "months": resources.MONTH_SECONDS,
}


def parse_duration(value) -> float:
    """'300', '5min', '2 h', '5month' -> seconds (month = 30.44 days)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        seconds = float(value)
    else:
        m = re.fullmatch(r"\s*([0-9]*\.?[0-9]+(?:[eE][+-]?[0-9]+)?)\s*([a-zA-Z]*)\s*",
                         str(value))
        if not m:
            raise ValueError(f"cannot parse duration {value!r}")
        unit = m.group(2).lower()
        if unit not in _DURATION_UNITS:
            raise ValueError(f"unknown duration unit {m.group(2)!r} in {value!r}")
        seconds = float(m.group(1)) * _DURATION_UNITS[unit]
    if seconds <= 0:
        raise ValueError("duration must be positive")
    if not math.isfinite(seconds):
        raise ValueError(f"duration {value!r} is past float range")
    return seconds


# ---------------------------------------------------------------------------
# config values: one type per key, checked once

# JSON types each value type takes; a string key takes a number too ("wallclock": 300)
_ACCEPTS = {bool: bool, int: int, float: (int, float), str: (str, int, float)}
# the type of each key whose default (None or a list) does not show it
_KIND = {"schedule_file": str, "pattern_file": str, "sigma0": float, "q": float,
         "v_rf": float, "r0": float, "detectors": [(float, float)], "snapshot_times": [float]}


def _typed(kind, value, name: str):
    """JSON ``value`` as ``kind``: a type, [kind] for a list of them, or a tuple
    of kinds for a list of that length.  ValueError naming ``name`` otherwise."""
    if isinstance(kind, (list, tuple)):
        kinds = kind * len(value) if isinstance(kind, list) and isinstance(value, list) else kind
        if isinstance(value, list) and len(value) == len(kinds):
            return [_typed(k, v, name) for k, v in zip(kinds, value)]
    elif isinstance(value, bool) == (kind is bool) and isinstance(value, _ACCEPTS[kind]):
        if kind is not float or abs(value) <= sys.float_info.max:  # not NaN, inf, huge int
            return kind(value)
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    spelled = re.sub(r"<class '(\w+)'>", r"\1", repr(kind))
    raise ValueError(f"{name} must be {spelled}, got {value!r}")


def _merge(label: str, table: dict, block) -> dict:
    """``table`` overlaid with the config ``block``, each value checked against
    and converted to its key's type; ValueError naming the key otherwise."""
    if not isinstance(block, dict):
        raise ValueError(f"{label} must be a JSON object")
    unknown = sorted(set(block) - set(table))
    if unknown:
        raise ValueError(f"unknown keys in {label!r}: {unknown}")
    eff = {}
    for key, default in table.items():
        name = f"{label}.{key}"
        if isinstance(default, dict):
            eff[key] = _merge(name, default, block.get(key, {}))
        elif key in block and not (block[key] is None and default is None):
            eff[key] = _typed(_KIND.get(key, type(default)), block[key], name)
        else:
            eff[key] = default
    return eff


def _read_json(path: str | None):
    """The JSON document in the file at ``path``; {} for no path or an empty file."""
    if path is None:
        return {}
    with open(path) as fh:
        return json.loads(fh.read().strip() or "{}")


# ---------------------------------------------------------------------------
# output

class _NonFinite(ArithmeticError):
    """A result past float range (NaN or infinite) in the named output."""


_quote = json.encoder.encode_basestring_ascii


def _scalar(value) -> str:
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return _quote(key)
    if isinstance(key, (int, float)) or key is None:
        return _quote(_scalar(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _int_rows(value, newline: str) -> str | None:
    """The JSON of ``value`` if it is a list of non-empty rows of plain ints,
    as a schedule's gates are, written by one %-format of all the ints;
    None for any other list."""
    if not {list, tuple}.issuperset(map(type, value)):
        return None
    lengths = list(map(len, value))
    ints = tuple(itertools.chain.from_iterable(value))
    if not all(lengths) or set(map(type, ints)) != {int}:
        return None
    inner, deeper = newline + "  ", newline + "    "
    row = {n: "[" + deeper + ("," + deeper).join(["%d"] * n) + inner + "]" for n in set(lengths)}
    return ("[" + inner + ("," + inner).join(map(row.__getitem__, lengths))
            + newline + "]") % ints


def _dumps(value, newline: str = "\n") -> str:
    """``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)`` byte
    for byte, and its errors: ValueError on NaN or infinity, TypeError on a
    value JSON lacks.  ``newline`` is a line break and the indent of the line
    ``value`` starts on, where its closing bracket goes.  Faster: no
    generator per level, and rows of plain ints take one %-format."""
    if not isinstance(value, (dict, list, tuple)):
        return _scalar(value)
    inner = newline + "  "
    if isinstance(value, dict):
        parts = [part for key, item in sorted(value.items())
                 for part in (",", inner, _key(key), ": ", _dumps(item, inner))]
        brackets = "{}"
    elif (rows := _int_rows(value, newline)) is not None:
        return rows
    else:
        parts = [part for item in value for part in (",", inner, _dumps(item, inner))]
        brackets = "[]"
    if not parts:
        return brackets
    parts[0] = brackets[0]  # in the first comma's place: one join, one copy per level
    return "".join([*parts, newline, brackets[1]])


def _render(name: str, content) -> str:
    """The text of one output: a JSON doc, dumped canonically (sorted keys,
    indented), or (header, rows) of a CSV file or a whitespace-separated
    snapshot.  _NonFinite naming ``name`` on a NaN or infinite number;
    ValueError naming it on an int too long to write."""
    if isinstance(content, dict):
        try:
            return _dumps(content) + "\n"
        except ValueError as exc:
            if "not JSON compliant" in str(exc):  # NaN or Infinity, which JSON lacks
                raise _NonFinite(name) from None
            # an int past sys.get_int_max_str_digits(), as json.dumps refuses too
            raise ValueError(f"{name}: an integer of more than "
                             f"{sys.get_int_max_str_digits()} digits cannot be written") from None
    header, rows = content
    if not all(math.isfinite(float(f)) for row in rows for f in re.split("[, ]", row) if f):
        raise _NonFinite(name)
    return "".join(line + "\n" for line in (header, *rows))


# ---------------------------------------------------------------------------
# subcommand handlers: (args, effective values) -> (stdout doc,
# {filename: JSON doc or (header, rows)}[, exit code when not 0])

def _build_assignment(eff: dict):
    from . import lattice

    array = lattice.build_hex_array(eff["rows"], eff["cols"], eff["d"])
    return array, lattice.decompose_sublattices(array, eff["n"])


def _cmd_lattice(args, eff):
    from . import lattice

    array, assign = _build_assignment(eff)
    doc = {"schema_version": 1, "sites": array.site_count(),
           "layers": assign.layer_count, "n": assign.n,
           "rows": eff["rows"], "cols": eff["cols"], "d": eff["d"]}
    return doc, {"lattice.json": doc, "lattice_full.json": lattice.assignment_report(assign)}


def _cmd_schedule(args, eff):
    from . import scheduler

    array, assign = _build_assignment(eff)
    sched = scheduler.build_schedule(assign, periodic=eff["periodic"],
                                     t_gate=eff["t_gate"], t_shuttle=eff["t_shuttle"])
    doc = scheduler.schedule_report(sched)
    doc["lattice"] = {key: eff[key] for key in _SCHEDULE_LATTICE}
    rows = [f"{k},{count},{dur:.9e}"
            for k, count, dur in scheduler.schedule_csv_rows(sched)]
    summary = {"schema_version": 1, "rounds": len(sched.rounds),
               "edges": sum(len(r) for r in sched.rounds),
               "prep_time_s": scheduler.prep_time(sched), "sites": array.site_count()}
    return summary, {"schedule.json": doc, "schedule.csv": ("round,pair_count,duration_s", rows)}


def _cmd_verify(args, eff):
    from . import scheduler

    rounds = None
    if eff["schedule_file"]:
        doc = _read_json(eff["schedule_file"])
        if not isinstance(doc, dict) or "lattice" not in doc:
            raise ValueError("schedule file lacks the lattice block")
        lat = {key: eff[key] for key in _SCHEDULE_LATTICE}
        block = _merge("schedule.lattice", lat, doc["lattice"])
        for key in _SCHEDULE_LATTICE:  # a flag or config value the file contradicts
            given = args.given.get(key)
            if given and block[key] != lat[key]:
                raise ValueError(f"{given} {lat[key]!r} disagrees with the schedule "
                                 f"file's lattice block, where {key} is {block[key]!r}")
        eff = {**eff, **block}
        rounds = _typed([[(int, int)]], doc.get("rounds"), "schedule.rounds")
    array, assign = _build_assignment(eff)
    if rounds is None:
        rounds = scheduler.build_schedule(assign, periodic=eff["periodic"]).rounds
    failure, failing, edges = scheduler.audit_rounds(rounds, assign, eff["periodic"])
    doc = {"schema_version": 1, "verified": failure is None,
           "sites": array.site_count(), "rounds": len(rounds), "target_edges": edges}
    if failure is not None:
        doc["failure"] = failure
    if failing:
        doc["failing_stabilizers"] = {
            "count": len(failing),
            "first": [{"site": s, "layer": assign.layer(s), "coord": list(assign.coord(s))}
                      for s in failing[:MAX_NAMED_STABILIZERS]]}
    return doc, {"verification.json": doc}, EXIT_OK if failure is None else EXIT_PHYSICS


def _cmd_mbqc(args, eff):
    from . import mbqc
    if not eff["pattern_file"]:
        raise ValueError("mbqc requires a pattern file (--pattern)")
    doc = _read_json(eff["pattern_file"])
    inp = doc.pop("input", None) if isinstance(doc, dict) else None
    n, edges, pattern = mbqc.pattern_from_dict(doc)
    input_state = None
    input_qubits: tuple[int, ...] = ()
    if inp is not None:
        if not isinstance(inp, dict) or set(inp) != {"qubits", "amplitudes"}:
            raise ValueError("pattern input must hold exactly qubits and amplitudes")
        input_qubits = tuple(_typed([int], inp["qubits"], "input.qubits"))
        amplitudes = _typed([(float, float)], inp["amplitudes"], "input.amplitudes")
        input_state = [complex(a, b) for a, b in amplitudes]
    res = mbqc.run_pattern(n, edges, pattern, input_state=input_state,
                           input_qubits=input_qubits, rng=mbqc.Pcg64(args.seed))
    doc = {
        "schema_version": 1,
        "outcomes": res.outcomes,
        "probabilities": res.probabilities,
        "branch_probability": res.probability,
        "outputs": list(res.outputs),
        "byproduct_x": {str(q): v for q, v in res.byproduct_x.items()},
        "byproduct_z": {str(q): v for q, v in res.byproduct_z.items()},
        "state_re": [a.real for a in res.state],
        "state_im": [a.imag for a in res.state],
    }
    return doc, {"mbqc_result.json": doc}


def _pow10(y: float) -> float:
    try:
        return 10.0 ** y
    except OverflowError:
        return math.inf


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.geomspace(start, stop, num)`` as Python floats, by numpy's
    arithmetic: log10 of both ends, k*step + log10(start), 10**y, ends
    pinned, the sign of start factored out.  Bit for bit where numpy's
    log10 and power round like the C library's."""
    if num < 0:
        raise ValueError(f"Number of samples, {num}, must be non-negative.")
    if start == 0 or stop == 0:
        raise ValueError("Geometric sequence cannot include zero")
    sign = math.copysign(1.0, start) if start == start else math.nan  # numpy.sign
    start, stop = start / sign, stop / sign
    lo, hi = (math.log10(x) if x > 0 else math.nan for x in (start, stop))
    step = (hi - lo) / (num - 1) if num > 1 else math.nan
    out = [_pow10(k * step + lo) for k in range(num)]
    if num > 0:
        out[0] = start
    if num > 1:
        out[-1] = stop
    return [x * sign for x in out]


def _ionize_rates(args, eff):
    from . import ionization

    if eff["points"] > MAX_RATE_POINTS:
        raise ValueError(f"points={eff['points']} is past the limit of {MAX_RATE_POINTS}")
    cal = ionization.load_calibration()

    def triple(irr):
        s = ionization.calibrated_inputs(irr, "s", cal)
        d = ionization.calibrated_inputs(irr, "d", cal)
        rs = ionization.rate_s(s)
        rd = ionization.rate_d(irr, d.j_channels)
        return rs, rd, ionization.discrimination_ratio(s, d)

    rs, rd, ratio = triple(eff["irradiance"])
    doc = {"schema_version": 1, "irradiance_w_cm2": eff["irradiance"],
           "rate_s_per_s": rs, "rate_d_per_s": rd, "ratio": ratio}
    rows = []
    for irr in _geomspace(eff["i_min"], eff["i_max"], eff["points"]):
        a, b, c = triple(irr)
        rows.append(f"{irr:.12e},{a:.12e},{b:.12e},{c:.12e}")
    return doc, {"rates.json": doc,
                 "rates.csv": ("irradiance_w_cm2,rate_s,rate_d,ratio", rows)}


def _ionize_resonances(args, eff):
    from . import ionization

    table = ionization.load_level_table()
    scan = ionization.find_resonances(
        table, (eff["lambda_min"], eff["lambda_max"]),
        eff["max_photons"], eff["detuning_cut"])
    doc = {"schema_version": 1,
           "hits": [{"level": h.level, "photons": h.photons,
                     "wavelength_nm": h.wavelength_nm,
                     "detuning_ev": h.detuning_ev} for h in scan.hits],
           "ionizing_throughout": scan.ionizing_throughout,
           "threshold_wavelength_nm": scan.threshold_wavelength_nm}
    return doc, {"resonances.json": doc}


def _ionize_quadrupole(args, eff):
    from . import ionization

    ref = ionization.load_rabi_reference()
    doc = {"schema_version": 1, "t_pulse_s": eff["t_pulse"],
           "irradiance_w_cm2": ionization.quadrupole_irradiance(ref, eff["t_pulse"])}
    return doc, {"quadrupole.json": doc}


def _ionize_raman(args, eff):
    from . import ionization

    ref = ionization.load_rabi_reference()
    doc = {"schema_version": 1, "t_pulse_s": eff["t_pulse"],
           "detuning_linewidths": eff["detuning_linewidths"],
           "irradiance_w_cm2": ionization.raman_irradiance(
               ref, eff["detuning_linewidths"], eff["t_pulse"])}
    return doc, {"raman.json": doc}


def _electron_propagate(args, eff):
    from . import electron_dynamics as ed

    trap = {key: eff[key] for key in _trap_defaults()}
    cfg = ed.TrapConfig(**{**trap, "detectors": tuple(map(tuple, eff["detectors"]))})
    wp = ed.gaussian_wavepacket(cfg, v0=eff["v0"], sigma_v=eff["sigma_v"],
                                sigma0=eff["sigma0"])
    res = ed.propagate(wp, cfg, eff["t_final"], sample_interval=eff["sample_interval"],
                       snapshot_times=tuple(eff["snapshot_times"]))
    ndet = len(cfg.detectors)
    header = ("t_ns," + ",".join(f"p_detector_{i+1}" for i in range(ndet))
              + ",p_total,norm_remaining")
    rows = [f"{s.t*1e9:.6f},{','.join(f'{c:.9e}' for c in s.captured)},"
            f"{s.total_captured:.9e},{s.norm_remaining:.9e}" for s in res.trace.samples]
    files = {"trace.csv": (header, rows)}
    for i, snap in enumerate(res.snapshots):
        hdr = (f"# nx={cfg.points_x} ny={cfg.points_y} "
               f"extent_x={cfg.extent_x:.9e} extent_y={cfg.extent_y:.9e} "
               f"t_s={snap.t:.9e}")
        files[f"psi2_{i:03d}.txt"] = (hdr, [" ".join(f"{p:.9e}" for p in row)
                                            for row in snap.density.tolist()])
    last = res.trace.samples[-1]
    doc = {"schema_version": 1, "t_final_s": eff["t_final"],
           "captured": list(last.captured),
           "total_captured": last.total_captured,
           "norm_remaining": last.norm_remaining}
    return doc, {**files, "efficiency.json": doc}


def _electron_classical(args, eff):
    from . import electron_dynamics as ed

    cfg = ed.TrapConfig(omega_e=eff["omega_e"])
    try:
        x, v = ed.classical_trajectory(cfg, eff["v0"], eff["t"])
    except OverflowError:  # sinh/cosh of a finite argument past float range
        x = v = math.inf
    doc = {"schema_version": 1, "t_s": eff["t"], "x_m": x, "v_m_s": v}
    return doc, {"classical.json": doc}


def _electron_mathieu(args, eff):
    from . import electron_dynamics as ed

    q = eff["q"]
    given = [key for key in ("v_rf", "r0") if eff[key] is not None]
    if q is not None and given:
        raise ValueError(f"mathieu takes either q or (v_rf and r0), not both: "
                         f"got q and {' and '.join(given)}")
    if q is None:
        if len(given) < 2:
            raise ValueError("mathieu needs either q or (v_rf and r0)")
        q = ed.mathieu_q(eff["charge"], eff["mass"], eff["v_rf"], eff["r0"],
                         eff["omega_rf"])
    doc = {"schema_version": 1, "a": eff["a"], "q": q,
           "stable": ed.mathieu_stable(eff["a"], q)}
    if eff["boundary"]:
        doc["q_boundary"] = ed.stability_boundary(eff["a"])
    return doc, {"mathieu.json": doc}


def _electron_timescale(args, eff):
    from . import electron_dynamics as ed

    est = ed.electron_timescale(eff["omega_rf"], eff["m_ion"])
    doc = {"schema_version": 1, "formula_s": est.formula_s,
           "reference_s": est.reference_s}
    return doc, {"timescale.json": doc}


def _cmd_resources(args, eff):
    try:
        wallclock = parse_duration(eff["wallclock"])
    except ValueError as exc:
        raise ValueError(f"wallclock: {exc}") from None
    doc = resources.resource_report(eff["bits"], wallclock,
                                    eff["n_qubits"], eff["t_meas"], eff["t_coh"])
    doc["inputs"]["wallclock"] = eff["wallclock"]
    return doc, {"resources.json": doc}


_HANDLERS = {
    ("lattice", None): _cmd_lattice, ("schedule", None): _cmd_schedule,
    ("verify", None): _cmd_verify, ("mbqc", None): _cmd_mbqc,
    ("ionize", "rates"): _ionize_rates, ("ionize", "resonances"): _ionize_resonances,
    ("ionize", "quadrupole"): _ionize_quadrupole, ("ionize", "raman"): _ionize_raman,
    ("electron", "propagate"): _electron_propagate,
    ("electron", "classical"): _electron_classical,
    ("electron", "mathieu"): _electron_mathieu,
    ("electron", "timescale"): _electron_timescale,
    ("resources", None): _cmd_resources,
}


# ---------------------------------------------------------------------------
# parser and resolution

def _modes(command: str) -> dict:
    """{mode: defaults}; a command without modes has the single mode None."""
    table = _defaults(command)
    return table if isinstance(next(iter(table.values())), dict) else {None: table}


def _flag_keys(command: str) -> dict:
    """key -> (default, modes reading it) for every key of ``command`` with a flag."""
    keys: dict = {}
    for mode, defaults in _modes(command).items():
        for key, default in defaults.items():
            if key not in _NO_FLAG:
                keys.setdefault(key, (default, []))[1].append(mode)
    return keys


def _flag(key: str) -> str:
    return _FLAG_NAMES.get(key, "--" + key.replace("_", "-"))


def build_parser(argv=()) -> _Parser:
    """Every subcommand, with its flags and defaults epilog on the one that
    ``argv`` names, or on all of them when it names none."""
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    top = _Parser(prog="hexmbqc",
                  description="hexagonal-array measurement-based QC toolkit")
    sub = top.add_subparsers(dest="command", required=True)
    for command, helptext in _HELP.items():
        if named in _HELP and command != named:
            sub.add_parser(command, help=helptext)
            continue
        p = sub.add_parser(
            command, help=helptext, formatter_class=argparse.RawDescriptionHelpFormatter,
            epilog="defaults:\n" + _dumps(_defaults(command)))
        modes = _modes(command)
        if None not in modes:
            p.add_argument("mode", choices=tuple(modes))
        for key, (default, used_by) in _flag_keys(command).items():
            kind = _KIND.get(key, type(default))
            helptext = None if None in used_by else "for " + ", ".join(used_by)
            p.add_argument(_flag(key), dest=key, help=helptext, **(
                {"action": argparse.BooleanOptionalAction} if kind is bool else {"type": kind}))
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="RNG seed (default 0)")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--dump-config", action="store_true",
                       help="print the effective config and exit")
    return top


def dispatch(argv) -> int:
    """Run one command line.  The only place values resolve, as defaults <
    config file < flags; the handler gets them typed, and ``args.given``
    names how each value set by a flag or the config file was spelled."""
    try:
        args = build_parser(argv).parse_args(argv)
        mode = getattr(args, "mode", None)
        config = _read_json(args.config)
        # over the defaults of this command and of every block the file
        # holds, so that a bad key in any block is refused
        held = [c for c in _HELP if c == args.command or isinstance(config, dict) and c in config]
        cfg = _merge("config", {**_TOP, **{c: _defaults(c) for c in held}}, config)
        eff = cfg[args.command] if mode is None else cfg[args.command][mode]
        block = config.get(args.command, {})
        block = block if mode is None else block.get(mode, {})
        prefix = ".".join(filter(None, ("config", args.command, mode)))
        args.given = {key: f"{prefix}.{key}" for key in block}
        for key in _flag_keys(args.command):
            value = getattr(args, key)
            if value is None:
                continue
            if key not in eff:
                raise _UsageError(f"{_flag(key)} does not apply to {args.command} {mode}")
            eff[key] = _typed(_KIND.get(key, type(eff[key])), value, _flag(key))
            args.given[key] = _flag(key)
        for key in _TOP:  # seed and out
            if getattr(args, key) is None:
                setattr(args, key, cfg[key])
        if args.dump_config:
            sys.stdout.write(_render("stdout", {
                args.command: eff if mode is None else {mode: eff},
                "seed": args.seed, "out": args.out}))
            return EXIT_OK
        doc, artifacts, *code = _HANDLERS[args.command, mode](args, eff)
        texts = {name: _render(name, content) for name, content in artifacts.items()}
        stdout = _render("stdout", doc)
        os.makedirs(args.out, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(args.out, name), "w") as fh:
                fh.write(text)
        sys.stdout.write(stdout)
        return code[0] if code else EXIT_OK
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except _NonFinite as exc:
        inputs = ", ".join(f"{key}={value!r}" for key, value in eff.items())
        sys.stderr.write(f"error: {exc} holds a result past float range, "
                         f"so nothing was written (inputs: {inputs})\n")
        return EXIT_PHYSICS
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_VALIDATION
    except (ValueError, KeyError, OSError) as exc:  # electron's ConfigurationError too
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
