"""The benchmark's four workloads: seeded inputs, the op sequence, output checks.

Each workload is built from ``(seed, work_dir)``; construction imports what
the workload needs and generates its inputs, which is what ``setup_s``
times.  ``sequence()`` returns the ops of one pass as ``Op`` tuples.  An
op's ``run`` is timed; ``prepare`` (untimed) readies its inputs and
``check`` (untimed) returns the list of ways its output is wrong.

The seed varies what the paper's claims should not depend on (array shape
order, layer scale, periodic closure, the dropped gate, v0, CLI arguments)
while the amount of work stays the same from seed to seed, so that runs
with different seeds are comparable.

hexmbqc is imported inside each workload, not here, so that a workload's
set-up pays only for the imports it needs.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

# (rows, cols) of the cluster_verify arrays: 96, 110, 110 and 126 sites.  The
# seed shuffles them; it does not pick sizes, since verify time grows about
# as sites**3.7 and would make runs with different seeds incomparable.
VERIFY_SHAPES = ((6, 6), (6, 7), (7, 6), (7, 7))
# The dropped gate's lower endpoint lies in this band of site ids.  The
# rejecting verify stops at that site, so the band keeps its cost at 45-55%
# of a full verify whatever the seed.
DROP_BAND = (0.45, 0.55)

PREPARE_SHAPE = (70, 70)  # 10 080 sites, the paper's 1e4 scale
# n=1 needs ~25k gates against 28-30k for n=2 and n=3; it is left out so
# that the CZ count, and with it wall time, varies by under 5% across seeds.
PREPARE_SCALES = (2, 3)

ELECTRON_GRID = dict(points_x=256, points_y=128, hbar_scale=128.0, dt=1e-12)
T_CAPTURE = 3e-9
V0_RANGE = (7.0e3, 7.5e3)

NUM_ROUNDS = 6


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    prepare: Callable[[], None] | None = None


# ---------------------------------------------------------------------------
# checks shared by workloads

def schedule_structure(rounds, target) -> list[str]:
    """Six rounds, each a matching, no gate twice, union = target edges."""
    fails = []
    if len(rounds) != NUM_ROUNDS:
        fails.append(f"{len(rounds)} rounds, expected {NUM_ROUNDS}")
    seen: set[tuple[int, int]] = set()
    for k, rnd in enumerate(rounds, start=1):
        used: set[int] = set()
        for a, b in rnd:
            gate = (min(a, b), max(a, b))
            if gate in seen:
                fails.append(f"round {k}: gate {gate} listed twice")
            seen.add(gate)
            for ion in (a, b):
                if ion in used:
                    fails.append(f"round {k}: ion {ion} in two gates")
                used.add(ion)
    target = {(min(a, b), max(a, b)) for a, b in target}
    if seen != target:
        fails.append(f"union of rounds differs from the target edges: "
                     f"{len(seen - target)} extra, {len(target - seen)} missing")
    return fails


def graph_form(tableau, edges) -> list[str]:
    """The tableau is the graph state of ``edges``: x = I, phase = 0 and
    z = the adjacency matrix, read from its public arrays."""
    import numpy as np

    n = tableau.n
    fails = []
    if np.count_nonzero(tableau.x) != n or not np.diagonal(tableau.x).all():
        fails.append("x part is not the identity")
    if tableau.phase.any():
        fails.append(f"{np.count_nonzero(tableau.phase)} generators with sign -1")
    if np.count_nonzero(tableau.z) != 2 * len(edges):
        fails.append(f"z holds {np.count_nonzero(tableau.z)} ones, "
                     f"expected {2 * len(edges)}")
    elif edges:
        a, b = np.asarray(edges).T
        if not (tableau.z[a, b].all() and tableau.z[b, a].all()):
            fails.append("z differs from the adjacency of the applied gates")
    return fails


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


# ---------------------------------------------------------------------------
# in-process workloads

class ClusterVerify:
    """Schedule, prepare and verify four small 3D clusters; then drop one
    gate and check that verification rejects the state."""

    name = "cluster_verify"
    clock_bound = True

    def __init__(self, seed: int, work_dir: Path):
        from hexmbqc import graphstate, lattice, scheduler

        self.lattice, self.scheduler, self.graphstate = lattice, scheduler, graphstate
        rng = random.Random(seed)
        shapes = list(VERIFY_SHAPES)
        rng.shuffle(shapes)
        self.arrays = [{"rows": r, "cols": c, "n": rng.choice((1, 2, 3)),
                        "periodic": rng.random() < 0.5, "drop_u": rng.random()}
                       for r, c in shapes]
        self.inputs = {"arrays": self.arrays}

    def _op(self, spec: dict):
        lat, gs = self.lattice, self.graphstate
        array = lat.build_hex_array(spec["rows"], spec["cols"], 1.0)
        assign = lat.decompose_sublattices(array, spec["n"])
        sched = self.scheduler.build_schedule(assign, periodic=spec["periodic"])
        tab = gs.new_plus_state(array.site_count())
        for rnd in sched.rounds:
            for a, b in rnd:
                tab.apply_cphase(a, b)
        target = lat.cluster_edges(assign, periodic=spec["periodic"])
        full = gs.verify_cluster(tab, target)

        sites = array.site_count()
        lo, hi = (int(f * sites) for f in DROP_BAND)
        band = sorted(g for rnd in sched.rounds for g in rnd if lo <= min(g) < hi)
        gate = band[int(spec["drop_u"] * len(band))]
        tab.apply_cphase(*gate)  # CZ is its own inverse: this drops the gate
        dropped = gs.verify_cluster(tab, target)
        spec["dropped_gate"] = list(gate)
        return full, dropped

    def sequence(self) -> list[Op]:
        def check(out):
            full, dropped = out
            return (_expect(full is True, "scheduled state failed verification")
                    + _expect(dropped is False, "state with a gate dropped passed"))

        return [Op(f"verify_{s['rows']}x{s['cols']}_n{s['n']}",
                   lambda s=s: self._op(s), check) for s in self.arrays]


class ArrayPrepare:
    """Prepare the cluster state of one 10 080-site array, round by round."""

    name = "array_prepare"
    # CZ sweeps of the 200 MB tableau wait on memory, not on the core clock
    clock_bound = False

    def __init__(self, seed: int, work_dir: Path):
        from hexmbqc import graphstate, lattice, scheduler

        self.lattice, self.scheduler, self.graphstate = lattice, scheduler, graphstate
        rng = random.Random(seed)
        rows, cols = PREPARE_SHAPE
        self.spec = {"rows": rows, "cols": cols, "n": rng.choice(PREPARE_SCALES),
                     "periodic": rng.random() < 0.5}
        self.inputs = {"array": self.spec}

    def sequence(self) -> list[Op]:
        spec, st = self.spec, {}

        def schedule():
            lat = self.lattice
            array = lat.build_hex_array(spec["rows"], spec["cols"], 1.0)
            assign = lat.decompose_sublattices(array, spec["n"])
            st["sched"] = self.scheduler.build_schedule(assign, periodic=spec["periodic"])
            st["target"] = lat.cluster_edges(assign, periodic=spec["periodic"])
            st["sites"] = array.site_count()
            st["applied"] = []

        def plus():
            st["tab"] = self.graphstate.new_plus_state(st["sites"])

        def cz_round(k):
            tab = st["tab"]
            for a, b in st["sched"].rounds[k]:
                tab.apply_cphase(a, b)

        def check_round(k):
            st["applied"].extend(st["sched"].rounds[k])
            return graph_form(st["tab"], st["applied"])

        ops = [Op("schedule", schedule,
                  lambda _: schedule_structure(st["sched"].rounds, st["target"])),
               Op("plus_state", plus, lambda _: graph_form(st["tab"], []))]
        ops += [Op(f"cz_round_{k + 1}", lambda k=k: cz_round(k),
                   lambda _, k=k: check_round(k)) for k in range(NUM_ROUNDS)]
        return ops


class ElectronCapture:
    """Propagate the photoelectron to 3 ns in the static and the driven saddle."""

    name = "electron_capture"
    clock_bound = True

    def __init__(self, seed: int, work_dir: Path):
        from hexmbqc import electron_dynamics

        self.ed = electron_dynamics
        self.v0 = random.Random(seed).uniform(*V0_RANGE)
        self.inputs = {"v0_m_s": self.v0, "t_final_s": T_CAPTURE, **ELECTRON_GRID}

    def _op(self, static: bool):
        ed = self.ed
        cfg = ed.TrapConfig(static_mode=static, **ELECTRON_GRID)
        wp = ed.gaussian_wavepacket(cfg, v0=self.v0)
        return ed.propagate(wp, cfg, T_CAPTURE, sample_interval=5e-12).trace.samples

    @staticmethod
    def check(samples) -> list[str]:
        fails, prev = [], 0.0
        for s in samples:
            if s.total_captured < prev - 1e-12:
                fails.append(f"capture decreased at t={s.t:.3e} s")
                break
            if s.total_captured + s.norm_remaining > 1.0 + 1e-6:
                fails.append(f"captured + remaining exceeds 1 at t={s.t:.3e} s")
                break
            prev = s.total_captured
        last = samples[-1]
        fails += _expect(max(last.captured) >= 0.85,
                         f"single-detector capture {max(last.captured):.4f} < 0.85")
        fails += _expect(last.total_captured >= 0.99,
                         f"dual-detector capture {last.total_captured:.4f} < 0.99")
        return fails

    def sequence(self) -> list[Op]:
        return [Op("static", lambda: self._op(True), self.check),
                Op("driven", lambda: self._op(False), self.check)]


# ---------------------------------------------------------------------------
# CLI workload

# cli_cold's ops in run order; the per-layer cli.op.<label>_s names come from here
CLI_OP_LABELS = ("lattice", "schedule_small", "schedule_70x70", "verify",
                 "verify_corrupt", "config_bad", "mbqc", "mbqc_repeat",
                 "ionize_rates", "ionize_resonances", "ionize_quadrupole",
                 "ionize_raman", "electron_classical", "electron_mathieu",
                 "electron_timescale", "resources")
RESONANCE_HITS = {("4P1/2", 1), ("5S1/2", 2), ("6P1/2", 3), ("6P3/2", 3)}
MATHIEU_BOUNDARY = (0.908, 0.002)
M_ELECTRON = 9.1093837015e-31
M_CA40 = 39.962590863 * 1.66053906660e-27
DURATIONS = {"5min": 300.0, "2h": 7200.0, "5month": 5 * 30.44 * 86400.0}


def euler_unitary(angles):
    """Rx(-a3) Rz(-a2) Rx(-a1) Rz(-a0), the gate of the 5-qubit chain."""
    import numpy as np

    def rz(t):
        return np.diag([1.0, np.exp(1j * t)])

    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    a0, a1, a2, a3 = angles
    return (h @ rz(-a3) @ h) @ rz(-a2) @ (h @ rz(-a1) @ h) @ rz(-a0)


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


class CliCold:
    """About sixteen cold ``python -m hexmbqc.cli`` runs, one at a time.

    With ``cold=False`` the same argv lists run in this process through
    ``cli.dispatch``; the traced run uses that, since spans cannot be taken
    from a child process without editing the package.
    """

    name = "cli_cold"
    clock_bound = True

    def __init__(self, seed: int, work_dir: Path, src: Path | None = None,
                 cold: bool = True):
        self.work, self.cold = Path(work_dir), cold
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {**os.environ, "PYTHONPATH": str(src)} if src else None
        rng = random.Random(seed)
        w = self.work

        def out(label):
            return ["--out", str(w / label)]

        # verify time depends on the site count only, so the small array's
        # shape is fixed and the seed picks its layer scale and closure
        small_args = ["--rows", "4", "--cols", "4", "--n", str(rng.choice((1, 2)))]
        small_args += ["--periodic"] if rng.random() < 0.5 else ["--no-periodic"]
        self.lat = {"rows": rng.randint(4, 8), "cols": rng.randint(4, 8),
                    "n": rng.choice((1, 2))}
        self.drop = (rng.randrange(NUM_ROUNDS), rng.random())
        self.angles = [rng.uniform(-math.pi, math.pi) for _ in range(4)]
        theta, phi = rng.uniform(0, math.pi), rng.uniform(-math.pi, math.pi)
        self.psi_in = [math.cos(theta / 2), complex(math.cos(phi), math.sin(phi))
                       * math.sin(theta / 2)]
        self.irradiance = 10 ** rng.uniform(8.0, 10.0)
        self.t_pulse = rng.uniform(1e-9, 3e-9)
        self.v0, self.t_cl = rng.uniform(5e3, 9e3), rng.uniform(0.5e-9, 2e-9)
        self.q = rng.uniform(0.2, 0.8)
        self.bits, self.wall = rng.choice((512, 640, 1024)), rng.choice(sorted(DURATIONS))
        self.bad_key = rng.choice(("rowz", "colls", "spacing", "scale"))

        self.pattern_file = w / "pattern.json"
        self.config_file = w / "bad_config.json"
        self.corrupt_file = w / "corrupt_schedule.json"
        self._write_inputs()

        L = self.lat
        self.argv = {
            "lattice": ["lattice", "--rows", str(L["rows"]), "--cols", str(L["cols"]),
                        "--n", str(L["n"])] + out("lattice"),
            "schedule_small": ["schedule"] + small_args + out("schedule_small"),
            "schedule_70x70": ["schedule", "--rows", "70", "--cols", "70", "--n", "3"]
            + out("schedule_70x70"),
            "verify": ["verify"] + small_args + out("verify"),
            "verify_corrupt": ["verify", "--schedule", str(self.corrupt_file)]
            + out("verify_corrupt"),
            "config_bad": ["lattice", "--config", str(self.config_file)] + out("config_bad"),
            "mbqc": ["mbqc", "--pattern", str(self.pattern_file), "--seed", str(seed)]
            + out("mbqc"),
            "mbqc_repeat": ["mbqc", "--pattern", str(self.pattern_file), "--seed", str(seed)]
            + out("mbqc_repeat"),
            "ionize_rates": ["ionize", "rates", "--irradiance", repr(self.irradiance)]
            + out("ionize_rates"),
            "ionize_resonances": ["ionize", "resonances"] + out("ionize_resonances"),
            "ionize_quadrupole": ["ionize", "quadrupole", "--t-pulse", repr(self.t_pulse)]
            + out("ionize_quadrupole"),
            "ionize_raman": ["ionize", "raman"] + out("ionize_raman"),
            "electron_classical": ["electron", "classical", "--v0", repr(self.v0),
                                   "--t", repr(self.t_cl)] + out("electron_classical"),
            "electron_mathieu": ["electron", "mathieu", "--q", repr(self.q), "--boundary"]
            + out("electron_mathieu"),
            "electron_timescale": ["electron", "timescale"] + out("electron_timescale"),
            "resources": ["resources", "--bits", str(self.bits), "--wallclock", self.wall]
            + out("resources"),
        }
        self.inputs = {"argv": self.argv, "dropped_gate": None}

    def _write_inputs(self) -> None:
        steps = [{"qubit": j, "angle": a,
                  "s_domain": [j - 1] if j >= 1 else [],
                  "t_domain": [j - 2] if j >= 2 else []}
                 for j, a in enumerate(self.angles)]
        pattern = {"schema_version": 1, "n": 5,
                   "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "steps": steps,
                   "outputs": [4],
                   "corrections": [{"qubit": 4, "kind": "X", "domain": [3]},
                                   {"qubit": 4, "kind": "Z", "domain": [2]}],
                   "input": {"qubits": [0], "amplitudes": [
                       [complex(a).real, complex(a).imag] for a in self.psi_in]}}
        self.pattern_file.write_text(json.dumps(pattern))
        self.config_file.write_text(json.dumps({"lattice": {self.bad_key: 1}}))

    def _corrupt(self) -> None:
        """Drop one seeded gate from the small schedule just written."""
        doc = _read_json(self.work / "schedule_small" / "schedule.json")
        k, u = self.drop
        rnd = doc["rounds"][k] or next(r for r in doc["rounds"] if r)
        gate = rnd.pop(int(u * len(rnd)))
        self.inputs["dropped_gate"] = gate
        self.corrupt_file.write_text(json.dumps(doc))

    def _run(self, argv):
        if self.cold:
            proc = subprocess.run([sys.executable, "-m", "hexmbqc.cli", *argv],
                                  env=self.env, cwd=self.work, capture_output=True,
                                  text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr
        import contextlib
        import io

        from hexmbqc import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch(list(argv))
        return code, out.getvalue(), err.getvalue()

    # -- checks, one per op label ------------------------------------------

    def _check(self, label, code, stdout, stderr) -> list[str]:
        expected_code = {"verify_corrupt": 2, "config_bad": 1}.get(label, 0)
        if code != expected_code:
            return [f"exit {code}, expected {expected_code}: {stderr.strip()[-200:]}"]

        def A(name):
            return _read_json(self.work / label / name)

        if label == "lattice":
            L = self.lat
            doc = A("lattice.json")
            sites = 2 * (L["rows"] * L["cols"] + L["rows"] + L["cols"])
            return (_expect(doc["sites"] == sites, f"{doc['sites']} sites, expected {sites}")
                    + _expect(doc["layers"] == 2 * L["n"] ** 2, "wrong layer count"))
        if label.startswith("schedule"):
            doc, summary = A("schedule.json"), json.loads(stdout)
            rounds = [[tuple(g) for g in rnd] for rnd in doc["rounds"]]
            # the file holds no target edge set, so the union is checked
            # against itself: round count, matchings and duplicates remain
            fails = schedule_structure(rounds, {(min(g), max(g)) for r in rounds for g in r})
            return fails + _expect(summary["edges"] == sum(map(len, rounds)),
                                   "summary edge count differs from the schedule")
        if label == "verify":
            return _expect(A("verification.json")["verified"] is True, "verified is not true")
        if label == "verify_corrupt":
            return _expect(A("verification.json")["verified"] is False,
                           "corrupted schedule verified")
        if label == "config_bad":
            named = "unknown" in stderr and repr(self.bad_key) in stderr
            return _expect(named, f"no message naming the bad key: {stderr!r}")
        if label == "mbqc":
            return self._check_mbqc(A("mbqc_result.json"))
        if label == "mbqc_repeat":
            same = ((self.work / "mbqc" / "mbqc_result.json").read_bytes()
                    == (self.work / label / "mbqc_result.json").read_bytes())
            return _expect(same, "repeated mbqc run with the same seed differs")
        if label == "ionize_rates":
            doc = A("rates.json")
            rows = (self.work / label / "rates.csv").read_text().splitlines()
            vals = [doc["rate_s_per_s"], doc["rate_d_per_s"], doc["ratio"]]
            return (_expect(all(math.isfinite(v) and v > 0 for v in vals),
                            f"non-positive rates {vals}")
                    + _expect(len(rows) == 26, f"rates.csv has {len(rows)} lines"))
        if label == "ionize_resonances":
            hits = {(h["level"], h["photons"]) for h in A("resonances.json")["hits"]}
            return _expect(hits == RESONANCE_HITS, f"resonance hits {sorted(hits)}")
        if label == "ionize_quadrupole":
            irr = A("quadrupole.json")["irradiance_w_cm2"] * (self.t_pulse / 2e-9) ** 2
            return _expect(1e8 <= irr <= 3e9, f"quadrupole at 2 ns {irr:.3e} W/cm2")
        if label == "ionize_raman":
            irr = A("raman.json")["irradiance_w_cm2"]
            return _expect(1e5 / 3 <= irr <= 3e5, f"raman {irr:.3e} W/cm2")
        if label == "electron_classical":
            w = 2.5e9
            want = self.v0 / w * math.sinh(w * self.t_cl)
            got = A("classical.json")["x_m"]
            return _expect(math.isclose(got, want, rel_tol=1e-9), f"x {got} != {want}")
        if label == "electron_mathieu":
            doc = A("mathieu.json")
            q0, tol = MATHIEU_BOUNDARY
            return (_expect(abs(doc["q_boundary"] - q0) <= tol,
                            f"boundary {doc['q_boundary']:.5f}")
                    + _expect(doc["stable"] is True, f"q={self.q:.3f} called unstable"))
        if label == "electron_timescale":
            want = math.sqrt(M_ELECTRON / M_CA40) / (2 * math.pi * 25e6)
            got = A("timescale.json")["formula_s"]
            return _expect(math.isclose(got, want, rel_tol=1e-9), f"timescale {got}")
        if label == "resources":
            doc = A("resources.json")
            ops = 32 * self.bits ** 3
            t_op = DURATIONS[self.wall] / ops
            return (_expect(doc["op_count"] == ops, f"op count {doc['op_count']}")
                    + _expect(math.isclose(doc["required_op_time_s"], t_op, rel_tol=1e-9),
                              f"op time {doc['required_op_time_s']}"))
        raise KeyError(label)

    def _check_mbqc(self, doc) -> list[str]:
        import numpy as np

        psi = np.array(doc["state_re"]) + 1j * np.array(doc["state_im"])
        if doc["byproduct_z"]["4"]:
            psi[1] *= -1
        if doc["byproduct_x"]["4"]:
            psi = psi[::-1]
        want = euler_unitary(self.angles) @ np.array(self.psi_in)
        overlap = abs(np.vdot(want, psi))
        return _expect(abs(overlap - 1.0) < 1e-9, f"gate fidelity {overlap:.12f}")

    def sequence(self) -> list[Op]:
        ops = []
        for label, argv in self.argv.items():
            prepare = self._corrupt if label == "verify_corrupt" else None
            ops.append(Op(label, lambda argv=argv: self._run(argv),
                          lambda out, label=label: self._check(label, *out), prepare))
        return ops


WORKLOADS = {w.name: w for w in (ClusterVerify, ArrayPrepare, ElectronCapture, CliCold)}


def make(name: str, seed: int, work_dir: Path, src: Path, cold: bool = True):
    """Import what workload ``name`` needs and generate its inputs."""
    if name == CliCold.name:
        return CliCold(seed, work_dir, src=src, cold=cold)
    return WORKLOADS[name](seed, work_dir)
