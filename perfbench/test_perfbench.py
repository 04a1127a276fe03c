"""Tests for the benchmark's own code: arithmetic, names, checks, tracing.

Run from the root of the repository: ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_summarize_takes_medians():
    passes = [[1.0, 2.0, 3.0], [1.0, 5.0, 6.0], [2.0, 2.0, 2.0]]
    got = run.summarize(passes)
    assert got["wall_s"] == 6.0  # pass sums 6, 12, 6
    assert got["op_p50_s"] == 2.0  # 1 1 2 2 2 2 3 5 6
    assert run.summarize([[1.0, 4.0]]) == {"wall_s": 5.0, "op_p50_s": 2.5}


def test_self_time_subtracts_covered_part_once():
    spans = [
        ("op.a", 0.0, 10.0, -1),
        ("lattice.build", 1.0, 3.0, 0),
        ("scheduler.build", 2.0, 5.0, 0),  # overlaps its sibling by 1
        ("lattice.edges", 3.5, 4.0, 2),
        ("graphstate.cz", 9.0, 12.0, 0),  # runs past the parent's end
    ]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 2.5, 0.5, 3.0])


def test_layer_metrics_uncovered_share_and_step_time():
    tracer = tracing.Tracer()
    tracer.spans = [
        ("op.x", 0.0, 10.0, -1),
        ("graphstate.verify", 1.0, 7.0, 0),
        ("graphstate.reject", 7.0, 8.0, 0),
        ("op.y", 10.0, 20.0, -1),
        ("electron_dynamics.propagate.static", 10.0, 18.0, 3),
    ]
    tracer.counts.update({"electron_dynamics.static_steps": 4000,
                          "electron_dynamics.propagate_calls": 1,
                          "electron_dynamics.cells_summed": 32768})
    m = tracing.layer_metrics(tracer)
    assert m["graphstate.verify_s"] == 6.0
    assert m["graphstate.reject_s"] == 1.0
    assert m["electron_dynamics.propagate_s"] == 8.0
    assert m["electron_dynamics.static_step_ms"] == pytest.approx(2.0)
    assert m["electron_dynamics.driven_step_ms"] == 0.0
    assert m["electron_dynamics.grid_cells"] == 32768
    assert m["trace.wall_s"] == 20.0
    assert m["trace.uncovered_share"] == pytest.approx(5.0 / 20.0)


@pytest.mark.parametrize("name, ok", [
    ("wall_s", True), ("cli.op.schedule_70x70_s", True), ("0ms", True),
    ("a-b.c_d", True), ("x" * 64, True),
    ("x" * 65, False), ("_lead", False), ("has space", False), ("p50%", False),
    ("", False),
])
def test_metric_name_rule(name, ok):
    assert bool(tracing.METRIC_NAME.fullmatch(name)) is ok


def test_every_reported_name_follows_the_rule():
    for name in [*run.END_TO_END, *run.PER_LAYER, *run.WORKLOAD_NAMES]:
        assert tracing.METRIC_NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_schedule_structure_names_each_defect():
    target = {(0, 1), (1, 2), (2, 3), (3, 0)}
    good = [[(0, 1), (2, 3)], [(1, 2), (0, 3)], [], [], [], []]
    assert workloads.schedule_structure(good, target) == []
    assert "7 rounds" in workloads.schedule_structure(good + [[]], target)[0]
    clash = [[(0, 1), (1, 2)], [(2, 3), (0, 3)], [], [], [], []]
    assert any("round 1: ion 1" in f for f in workloads.schedule_structure(clash, target))
    twice = [[(0, 1), (2, 3)], [(1, 2), (0, 3)], [(1, 0)], [], [], []]
    assert any("listed twice" in f for f in workloads.schedule_structure(twice, target))
    missing = [[(0, 1), (2, 3)], [(1, 2)], [], [], [], []]
    assert any("1 missing" in f for f in workloads.schedule_structure(missing, target))


def test_graph_form_catches_a_wrong_tableau():
    from hexmbqc import graphstate

    edges = [(0, 1), (1, 2)]
    tab = graphstate.new_plus_state(4)
    for a, b in edges:
        tab.apply_cphase(a, b)
    assert workloads.graph_form(tab, edges) == []
    assert workloads.graph_form(tab, [(0, 1), (2, 3)]) != []
    tab.apply_cphase(2, 3)
    assert workloads.graph_form(tab, edges) != []
    tab.phase[0] = 1
    assert any("sign -1" in f for f in workloads.graph_form(tab, edges + [(2, 3)]))


def test_instrument_counts_calls_and_restores_the_library():
    from hexmbqc import graphstate, lattice

    original = graphstate.StabilizerTableau.apply_cphase
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert graphstate.StabilizerTableau.apply_cphase is not original
        arr = lattice.build_hex_array(2, 2, 1.0)
        tab = graphstate.new_plus_state(arr.site_count())
        tab.apply_cphase(0, 1)
        assert graphstate.verify_cluster(tab, [(0, 1)])
    assert graphstate.StabilizerTableau.apply_cphase is original
    names = [s[0] for s in tracer.spans]
    assert names == ["lattice.build", "graphstate.plus", "graphstate.cz",
                     "graphstate.verify"]
    assert tracer.counts["graphstate.cz_calls"] == 1
    assert tracer.counts["graphstate.stabilizers"] == arr.site_count()
    assert tracer.counts["lattice.sites"] == arr.site_count()


def test_cli_inputs_repeat_for_a_seed(tmp_path):
    a = workloads.CliCold(7, tmp_path / "a", cold=False)
    b = workloads.CliCold(7, tmp_path / "b", cold=False)
    c = workloads.CliCold(8, tmp_path / "c", cold=False)
    def strip(wl):
        return json.dumps(wl.argv).replace(str(wl.work), "")

    assert strip(a) == strip(b)
    assert strip(a) != strip(c)
    assert len(a.sequence()) == len(workloads.CLI_OP_LABELS) < 20
    assert [op.label for op in a.sequence()] == list(workloads.CLI_OP_LABELS)


def test_clock_adjust_scales_net_time_to_nominal_speed():
    sampler = run.ClockSampler(periodic=False)
    nominal, n = sampler.REF_NOMINAL_S, sampler.MIN_SAMPLES
    # an op from t=10 to t=12 with n samples of 1 ms wall each, whose unit
    # took twice the nominal time, save one outlier the median ignores
    sampler.samples = [(10.0 + k * 0.2, 1e-3, 2 * nominal) for k in range(n)]
    sampler.samples[0] = (10.0, 1e-3, 50 * nominal)
    sampler.samples += [(20.0 + k * 0.01, 1e-3, nominal) for k in range(n)]  # later
    half = 0.5 ** sampler.ELASTICITY
    assert sampler.net(10.0, 12.0) == pytest.approx(2.0 - n * 1e-3)
    assert sampler.factor(10.0, 12.0) == pytest.approx(0.5)
    assert sampler.adjust(10.0, 12.0) == pytest.approx((2.0 - n * 1e-3) * half)
    # a short op with too few samples inside borrows the nearest ones
    assert sampler.adjust(19.9, 19.95) == pytest.approx(0.05)
    assert sampler.adjust(12.1, 12.2) == pytest.approx(0.1 * half)


def test_clock_sample_times_the_warm_unit_within_its_own_wall_time():
    sampler = run.ClockSampler(periodic=False)
    sampler.between()
    assert len(sampler.samples) == sampler.BETWEEN_SAMPLES
    for start, wall, unit in sampler.samples:
        assert 0 < unit < wall
