"""hexmbqc benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cluster_verify --seed 1 --seconds 25 --trace 0

``--trace 0`` measures set-up time (median of several fresh processes),
then repeats the workload's op sequence while another pass fits in
``--seconds`` (at least once), checks every op's output and reports the
end-to-end metrics, with op times scaled to a nominal core speed
(``ClockSampler``).  ``--trace 1`` runs each op untraced and then with
spans around every call into hexmbqc, and reports the per-layer metrics.
``--workload all`` runs every workload in turn, each in its own process.
The last line of output is one JSON object: correct, attempted, failed and
metrics.  See perfbench/README.md for what each workload is for.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from importlib import metadata
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = tuple(workloads.WORKLOADS)
SETUP_PROBES = 9
COLD_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_adj_s": "s", "op_p50_adj_s": "s", "peak_rss_mb": "MB"}

def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer, names in (
        ("lattice", ("build_s", "decompose_s", "edges_s", "sites", "edges")),
        ("scheduler", ("build_s", "gates")),
        ("graphstate", ("plus_s", "cz_s", "cz_calls", "verify_s", "reject_s",
                        "verify_calls", "stabilizers")),
        ("electron_dynamics", ("packet_s", "propagate_s", "static_step_ms",
                               "driven_step_ms", "steps", "grid_cells", "mathieu_s")),
        ("mbqc", ("run_s", "measurements")),
        ("ionization", ("rates_s", "resonances_s", "irradiance_s")),
        ("resources", ("report_s",)),
        ("cli", ("interpreter_s", "import_s", "dispatch_s")
         + tuple(f"op.{label}_s" for label in workloads.CLI_OP_LABELS)),
        ("trace", ("wall_s", "untraced_wall_s", "overhead_s", "uncovered_share",
                   "spans")),
    ):
        for n in names:
            unit = ("s" if n.endswith("_s") else "ms" if n.endswith("_ms")
                    else "ratio" if n.endswith("_share") else "count")
            units[f"{layer}.{n}"] = unit
    return units


PER_LAYER = _per_layer_units()


# ---------------------------------------------------------------------------
# arithmetic

def summarize(passes: list[list[float]]) -> dict[str, float]:
    """wall_s: median over passes of the pass's summed op latencies.
    op_p50_s: median over every op latency of every pass."""
    return {"wall_s": statistics.median(sum(p) for p in passes),
            "op_p50_s": statistics.median(t for p in passes for t in p)}


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# ---------------------------------------------------------------------------
# environment

def machine_info(root: Path) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "python": sys.version.split()[0]}
    for pkg in ("numpy", "scipy"):
        info[pkg] = metadata.version(pkg)
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = "unknown"
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data") and level in ("2", "3"):
                info[f"L{level}"] = (index / "size").read_text().strip()
        except OSError:
            pass
    info["commit"] = _git_commit(root)
    info["threads"] = {v: os.environ[v] for v in THREAD_VARS}
    return info


def _git_commit(root: Path) -> str:
    """HEAD from the checkout's .git, read as files; none outside a clone."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def pin_environment(work: Path) -> None:
    """Single-threaded BLAS/OpenMP, fixed hashing, temp files in ``work``;
    children inherit all of it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)


# ---------------------------------------------------------------------------
# measuring

def measure_setup(name: str, seed: int, work: Path) -> float:
    """Median over fresh processes of launch -> inputs ready, scaled to the
    nominal core speed: starting an interpreter and importing is core-bound
    for every workload.  A probe is shorter than MIN_SAMPLES periods, so
    the core is also sampled just before and after each."""
    times = []
    with ClockSampler() as clock:
        for k in range(SETUP_PROBES):
            clock.between()
            t0, start = time.monotonic(), time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name,
                                   str(seed), str(work / f"probe{k}")],
                                  capture_output=True, text=True, timeout=120, check=True)
            ready = float(proc.stdout.split()[-1])  # the child's time.monotonic()
            clock.between()
            times.append(clock.adjust(start, start + (ready - t0)))
    return statistics.median(times)


def cold_cli_times(src: Path) -> tuple[float, float]:
    """Medians of a bare interpreter start and of a cold ``import hexmbqc.cli``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    bare, imp = [], []
    for _ in range(COLD_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        bare.append(time.perf_counter() - t0)
        code = ("import time; t = time.perf_counter(); import hexmbqc.cli; "
                "print(time.perf_counter() - t)")
        proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True, timeout=60)
        imp.append(float(proc.stdout))
    return statistics.median(bare), statistics.median(imp)


def run_pass(ops, tracer=None, between=None
             ) -> tuple[list[tuple[float, float]], list[list[str]]]:
    """Run one op sequence; returns each op's (start, end) and check failures.
    ``between``, if given, is called just before and just after each op."""
    spans, failures = [], []
    for op in ops:
        t0 = t1 = time.perf_counter()
        try:
            if op.prepare is not None:
                op.prepare()
            if between:
                between()
            t0 = time.perf_counter()
            with tracer.span(f"op.{op.label}") if tracer else contextlib.nullcontext():
                out = op.run()
            t1 = time.perf_counter()
            if between:
                between()
            problems = op.check(out)
        except Exception:  # an op that raises is a failed op; keep measuring
            if t1 < t0:  # raised inside the timed call
                t1 = time.perf_counter()
            problems = ["raised " + traceback.format_exc(limit=-1).strip()]
        for p in problems:
            print(f"FAIL {op.label}: {p}", file=sys.stderr)
        spans.append((t0, t1))
        failures.append(problems)
    return spans, failures


class ClockSampler:
    """Times a small fixed unit of core-bound work, on the thread and core
    that run the ops, to scale op times to a nominal core speed.

    On the shared 2-core virtual machine this benchmark was written on, the
    same core-bound work runs up to ~30% slower for stretches of seconds to
    minutes, and the two cores drift independently, so run-to-run spreads of
    raw op times reach 20-28%.  With ``periodic`` a SIGALRM handler takes a
    sample every PERIOD_S seconds, inside the ops; ``between()`` takes
    samples on request.  ``adjust`` scales an op by the unit times taken
    during it (or, if too few, the nearest ones):

        (op wall - sampler time inside it) * factor ** ELASTICITY
        factor = REF_NOMINAL_S / median(unit times)

    The unit is pure core work, while the ops also wait on caches and
    memory, so op times move about half as much as the unit's when the core
    drifts: per-op regression slopes on the unit read 0.36-0.76 in trials,
    and across runs the square root of the factor left the least spread.

    The unit must read the core, not the op.  So a sample runs the work
    twice and times only the second, warm repetition, in CPU time of this
    thread: the first refills the caches the op evicted, and time spent
    waiting for a child is not counted.  The work is short (~0.6 ms), so a
    sample usually ends before a child that shares the core preempts it:
    in four trials the median unit time inside cold CLI ops was 0.1-8%
    above that between them, in the same run.  The unit runs no hexmbqc code, so
    a faster program still reads faster.  While sampling, the process and
    the children it starts share one core.
    """

    PERIOD_S = 0.05
    # median warm unit time on the Xeon VM named in README.md over a few
    # minutes of sampling, so that the scale factor is about 1 on average
    REF_NOMINAL_S = 0.6e-3
    MIN_SAMPLES = 10
    ELASTICITY = 0.5
    BETWEEN_SAMPLES = 5

    def __init__(self, periodic: bool = True):
        import numpy as np

        self.np, self.periodic = np, periodic
        self.field = np.random.default_rng(0).standard_normal((64, 64)) + 0j
        self.samples: list[tuple[float, float, float]] = []  # (start, wall, unit)

    def _work(self) -> None:
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        for _ in range(2):
            self.field = self.np.fft.ifft2(self.np.fft.fft2(self.field))

    def sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self._work()  # untimed: warms the caches for the timed repetition
        c0 = time.thread_time()
        self._work()
        unit = time.thread_time() - c0
        self.samples.append((start, time.perf_counter() - start, unit))

    def between(self) -> None:
        """Samples taken now, between ops."""
        for _ in range(self.BETWEEN_SAMPLES):
            self.sample()

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._affinity)})
        if self.periodic:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        if self.periodic:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        os.sched_setaffinity(0, self._affinity)

    def net(self, start: float, end: float) -> float:
        """Op wall time less the sampler's own time inside it."""
        return (end - start) - sum(w for t, w, _ in self.samples if start <= t < end)

    def factor(self, start: float, end: float) -> float:
        """Nominal over measured unit time, for the op from start to end."""
        units = [u for t, _, u in self.samples if start <= t < end]
        if len(units) < self.MIN_SAMPLES:  # short op: use the nearest units
            mid = 0.5 * (start + end)
            near = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            units = [u for _, _, u in near[:self.MIN_SAMPLES]]
        return self.REF_NOMINAL_S / statistics.median(units)

    def adjust(self, start: float, end: float) -> float:
        return self.net(start, end) * self.factor(start, end) ** self.ELASTICITY


def run_untraced(name, seed, seconds, work, src) -> tuple[dict, list, dict]:
    setup_s = measure_setup(name, seed, work)
    wl = workloads.make(name, seed, work / name, src)
    sampler = ClockSampler() if wl.clock_bound else None
    passes, failures = [], []
    with sampler or contextlib.nullcontext():
        start = time.perf_counter()
        while True:
            spans, fails = run_pass(wl.sequence())
            passes.append(spans)
            failures += fails
            elapsed = time.perf_counter() - start
            if elapsed + (spans[-1][1] - spans[0][0]) > seconds:
                break
    net = (sampler.net if sampler else lambda a, b: b - a)
    adjust = sampler.adjust if sampler else net
    raw = summarize([[net(*s) for s in p] for p in passes])
    adj = summarize([[adjust(*s) for s in p] for p in passes])
    print(f"passes {len(passes)}, ops per pass {len(passes[0])}, "
          + (f"{len(sampler.samples)} clock units, median scale factor "
             f"{statistics.median(sampler.factor(*s) for p in passes for s in p):.3f}"
             if sampler else "memory-bound: times not scaled"))
    metrics = {"setup_s": setup_s, "wall_adj_s": adj["wall_s"],
               "op_p50_adj_s": adj["op_p50_s"], "peak_rss_mb": peak_rss_mb(),
               **raw}  # unscaled times: printed, not part of the result line
    return metrics, failures, wl.inputs


def run_traced(name, seed, work, src, root) -> tuple[dict, list, dict]:
    import hexmbqc.cli  # noqa: F401  (imports every layer before either pass)

    wl = workloads.make(name, seed, work / name, src, cold=False)
    tracer = tracing.Tracer()
    if wl.clock_bound:
        # each op untraced and then traced, so that the two differ by the
        # drift over one op; both scaled, with the core sampled between ops
        # only, so that no sample lands in a span
        clock = ClockSampler(periodic=False)
        untraced, traced, fails = [], [], []
        with clock:
            for plain, wrapped in zip(wl.sequence(), wl.sequence()):
                spans, f0 = run_pass([plain], between=clock.between)
                with tracing.instrument(tracer):
                    spans1, f1 = run_pass([wrapped], tracer, clock.between)
                untraced += spans
                traced += spans1
                fails += f0 + f1
        scaled = clock.adjust
    else:
        # memory-bound: the passes in turn, unscaled (two 200 MB tableaus
        # at once would double the peak)
        untraced, f0 = run_pass(wl.sequence())
        with tracing.instrument(tracer):
            traced, f1 = run_pass(wl.sequence(), tracer)
        fails = f0 + f1

        def scaled(a, b):
            return b - a

    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(tracing.layer_metrics(tracer))
    metrics["trace.untraced_wall_s"] = sum(b - a for a, b in untraced)
    metrics["trace.overhead_s"] = (sum(scaled(*s) for s in traced)
                                   - sum(scaled(*s) for s in untraced))
    if name == "cli_cold":
        # the untraced run starts one cold interpreter per op
        bare, imp = cold_cli_times(src)
        metrics["cli.interpreter_s"] = bare * len(traced)
        metrics["cli.import_s"] = imp * len(traced)

    out_dir = root / ".perfbench_tmp"
    spans_file = out_dir / f"spans-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps(tracer.to_json()))
    print(f"spans written to {spans_file.relative_to(root)}")
    return metrics, fails, wl.inputs


# ---------------------------------------------------------------------------
# entry point

def _result_line(metrics: dict, units: dict, failures: list) -> str:
    failed = sum(1 for f in failures if f)
    return json.dumps({
        "correct": failed == 0, "attempted": len(failures), "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}})


def _print_table(name: str, metrics: dict, units: dict, failures: list) -> None:
    print(f"== {name}")
    for key, unit in {**units, "wall_s": "s", "op_p50_s": "s"}.items():
        if key in metrics:
            print(f"  {key:32s} {metrics[key]:>14.6g} {unit}")
    print(f"  {'ops':32s} {len(failures):>14d} count")
    print(f"  {'ops_failed':32s} {sum(1 for f in failures if f):>14d} count")


def run_all(args) -> int:
    """Each workload in a child process; one combined result line."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "hexmbqc" / "__init__.py").is_file():
        print(f"no hexmbqc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    tmp_root = root / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    try:
        pin_environment(work)
        sys.path.insert(0, str(src))
        # compile first, so that cold imports time importing, not compiling
        compileall.compile_dir(str(src), quiet=1)
        compileall.compile_dir(str(HERE), quiet=1)
        print("machine " + json.dumps(machine_info(root), sort_keys=True))
        if args.trace:
            metrics, failures, inputs = run_traced(args.workload, args.seed, work, src, root)
            units = PER_LAYER
        else:
            metrics, failures, inputs = run_untraced(args.workload, args.seed,
                                                     args.seconds, work, src)
            units = END_TO_END
        shown = json.dumps({"workload": args.workload, "seed": args.seed, **inputs})
        print("inputs " + shown.replace(str(work), "<work>"))
        _print_table(args.workload, metrics, units, failures)
        print(_result_line(metrics, units, failures))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
