"""Spans around calls into hexmbqc, and the per-layer metrics derived from them.

A span is (name, start, end, parent).  Spans live in memory while the
benchmark runs and are written out once at the end.  Nothing here edits the
package: ``instrument`` swaps the public functions the benchmark and the CLI
handlers call for wrappers while a traced pass runs, and puts the originals
back afterwards.  Calls a module makes to a function it imported by name
(``scheduler`` calling ``intra_layer_edges``) bypass the wrapper and count
towards the caller's self time.
"""

from __future__ import annotations

import contextlib
import re
import time
from collections import Counter, defaultdict

LAYERS = ("lattice", "scheduler", "graphstate", "electron_dynamics", "mbqc",
          "ionization", "resources", "cli")

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class Tracer:
    """In-memory span recorder with a stack for parents, plus counters."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # parent -1 = root
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self) -> int:
        """Open a span whose name is given at ``end``; returns its index."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(("", time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int, name: str) -> None:
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans closed out of order")
        _, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin()
        try:
            yield
        finally:
            self.end(index, name)

    def to_json(self) -> dict:
        return {"counts": dict(self.counts),
                "spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans]}


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for cs, ce in sorted(children[i]):
            cs, ce = max(cs, reach), min(ce, end)
            if ce > cs:
                covered += ce - cs
                reach = ce
        out.append((end - start) - covered)
    return out


def is_layer(name: str) -> bool:
    return name.split(".", 1)[0] in LAYERS


# ---------------------------------------------------------------------------
# wrapping the library

def _wrap(tracer: Tracer, fn, name, count):
    """Wrapper recording a span named ``name`` (a string, a callable of
    (args, kwargs, result), or None for counting only) and the counts
    ``count(args, kwargs, result)`` returns."""

    def wrapper(*args, **kwargs):
        index = tracer.begin() if name is not None else -1
        result = None
        try:
            result = fn(*args, **kwargs)
        finally:
            if index >= 0:
                tracer.end(index, name(args, kwargs, result) if callable(name) else name)
        if count is not None:
            tracer.counts.update(count(args, kwargs, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _one(key):
    return lambda args, kwargs, result: {key: 1}


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _propagate_name(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    return ("electron_dynamics.propagate.static" if config.static_mode
            else "electron_dynamics.propagate.driven")


def _propagate_counts(args, kwargs, result):
    config = _arg(args, kwargs, 1, "config")
    steps = int(round(_arg(args, kwargs, 2, "t_final") / config.dt))
    mode = "static" if config.static_mode else "driven"
    return {"electron_dynamics.steps": steps,
            f"electron_dynamics.{mode}_steps": steps,
            "electron_dynamics.propagate_calls": 1,
            "electron_dynamics.cells_summed": config.points_x * config.points_y}


def _verify_name(args, kwargs, result):
    return "graphstate.verify" if result else "graphstate.reject"


def _targets(hexmbqc):
    """(owner, attribute, span name, counter) for every wrapped call."""
    lat, sch, gs = hexmbqc["lattice"], hexmbqc["scheduler"], hexmbqc["graphstate"]
    ed, mb, ion = hexmbqc["electron_dynamics"], hexmbqc["mbqc"], hexmbqc["ionization"]
    res, cli = hexmbqc["resources"], hexmbqc["cli"]
    table = [
        (lat, "build_hex_array", "lattice.build",
         lambda a, k, r: {"lattice.sites": r.site_count()}),
        (lat, "decompose_sublattices", "lattice.decompose", None),
        (lat, "cluster_edges", "lattice.edges",
         lambda a, k, r: {"lattice.edges": len(r)}),
        (lat, "intra_layer_edges", "lattice.edges", None),
        (lat, "interlayer_edges", "lattice.edges", None),
        (sch, "build_schedule", "scheduler.build",
         lambda a, k, r: {"scheduler.gates": sum(r.pair_counts())}),
        (gs, "new_plus_state", "graphstate.plus", None),
        (gs.StabilizerTableau, "apply_cphase", "graphstate.cz",
         _one("graphstate.cz_calls")),
        (gs, "verify_cluster", _verify_name, _one("graphstate.verify_calls")),
        (gs.StabilizerTableau, "contains", None, _one("graphstate.stabilizers")),
        (ed, "gaussian_wavepacket", "electron_dynamics.packet", None),
        (ed, "propagate", _propagate_name, _propagate_counts),
        (ed, "mathieu_q", "electron_dynamics.mathieu", None),
        (ed, "mathieu_stable", "electron_dynamics.mathieu", None),
        (ed, "stability_boundary", "electron_dynamics.mathieu", None),
        (mb, "run_pattern", "mbqc.run",
         lambda a, k, r: {"mbqc.measurements": len(r.outcomes)}),
        (res, "resource_report", "resources.report", None),
        (cli, "dispatch", "cli.dispatch", None),
    ]
    for fname in ("load_calibration", "calibrated_inputs", "rate_s", "rate_d",
                  "discrimination_ratio"):
        table.append((ion, fname, "ionization.rates", None))
    for fname in ("load_level_table", "find_resonances"):
        table.append((ion, fname, "ionization.resonances", None))
    for fname in ("load_rabi_reference", "quadrupole_irradiance", "raman_irradiance"):
        table.append((ion, fname, "ionization.irradiance", None))
    return table


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the library's public entry points for the duration of the block."""
    import importlib

    modules = {name: importlib.import_module(f"hexmbqc.{name}") for name in LAYERS}
    saved = []
    try:
        for owner, attr, name, count in _targets(modules):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, count))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

# metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "lattice.build_s": ("lattice.build",),
    "lattice.decompose_s": ("lattice.decompose",),
    "lattice.edges_s": ("lattice.edges",),
    "scheduler.build_s": ("scheduler.build",),
    "graphstate.plus_s": ("graphstate.plus",),
    "graphstate.cz_s": ("graphstate.cz",),
    "graphstate.verify_s": ("graphstate.verify",),
    "graphstate.reject_s": ("graphstate.reject",),
    "electron_dynamics.packet_s": ("electron_dynamics.packet",),
    "electron_dynamics.propagate_s": ("electron_dynamics.propagate.static",
                                      "electron_dynamics.propagate.driven"),
    "electron_dynamics.mathieu_s": ("electron_dynamics.mathieu",),
    "mbqc.run_s": ("mbqc.run",),
    "ionization.rates_s": ("ionization.rates",),
    "ionization.resonances_s": ("ionization.resonances",),
    "ionization.irradiance_s": ("ionization.irradiance",),
    "resources.report_s": ("resources.report",),
    "cli.dispatch_s": ("cli.dispatch",),
}

COUNT_METRICS = ("lattice.sites", "lattice.edges", "scheduler.gates",
                 "graphstate.cz_calls", "graphstate.verify_calls",
                 "graphstate.stabilizers", "electron_dynamics.steps",
                 "mbqc.measurements")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (s), counts, step times (ms) and the share of
    op wall time that no layer span covers."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for (name, _, _, _), own in zip(spans, selfs):
        by_name[name] += own

    out = {metric: sum(by_name[n] for n in names)
           for metric, names in SELF_TIME_METRICS.items()}
    counts = tracer.counts
    for key in COUNT_METRICS:
        out[key] = counts[key]
    calls = counts["electron_dynamics.propagate_calls"]
    out["electron_dynamics.grid_cells"] = (
        counts["electron_dynamics.cells_summed"] // calls if calls else 0)
    for mode in ("static", "driven"):
        steps = counts[f"electron_dynamics.{mode}_steps"]
        t = by_name[f"electron_dynamics.propagate.{mode}"]
        out[f"electron_dynamics.{mode}_step_ms"] = 1e3 * t / steps if steps else 0.0

    # inclusive time of each in-process CLI op
    for name, start, end, parent in spans:
        if name == "cli.dispatch" and parent >= 0:
            label = spans[parent][0].removeprefix("op.")
            out[f"cli.op.{label}_s"] = out.get(f"cli.op.{label}_s", 0.0) + end - start

    # op spans are the benchmark's own roots; their self time is what no
    # layer covers
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    uncovered = sum(own for (name, _, _, _), own in zip(spans, selfs)
                    if not is_layer(name))
    out["trace.wall_s"] = wall
    out["trace.uncovered_share"] = uncovered / wall if wall > 0 else 0.0
    out["trace.spans"] = len(spans)
    return out
