import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmbqc import lattice, scheduler
from oracles import edge_union, schedule_rounds


def make_assignment(rows=4, cols=4, n=2):
    arr = lattice.build_hex_array(rows, cols, 1.0)
    return lattice.decompose_sublattices(arr, n)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("periodic", [False, True])
def test_six_disjoint_rounds_cover_cluster(n, periodic):
    asg = make_assignment(5, 5, n)
    sched = scheduler.build_schedule(asg, periodic=periodic)
    assert len(sched.rounds) == 6
    for rnd in sched.rounds:
        touched = [s for e in rnd for s in e]
        assert len(touched) == len(set(touched))  # matching: no site reused
    assert edge_union(sched) == lattice.cluster_edges(asg, periodic=periodic)
    total = sum(len(r) for r in sched.rounds)
    assert total == len(edge_union(sched))  # no edge scheduled twice
    assert scheduler.check_rounds(sched.rounds,
                                  lattice.cluster_edges(asg, periodic=periodic)) is None


def test_rounds_split_intra_then_inter():
    asg = make_assignment(5, 5, 2)
    sched = scheduler.build_schedule(asg, periodic=False)
    intra = lattice.intra_layer_edges(asg)
    inter = lattice.interlayer_edges(asg, periodic=False)
    first_four = {e for rnd in sched.rounds[:4] for e in rnd}
    last_two = {e for rnd in sched.rounds[4:] for e in rnd}
    assert first_four == intra
    assert last_two == inter


def test_prep_time_default_values():
    asg = make_assignment()
    sched = scheduler.build_schedule(asg)
    assert scheduler.prep_time(sched) == pytest.approx(6.6e-4, rel=1e-12)
    slow = scheduler.build_schedule(asg, t_gate=2e-5, t_shuttle=3e-4)
    assert scheduler.prep_time(slow) == pytest.approx(6 * 3.2e-4)


def test_prep_time_past_float_range_is_inf():
    # each round (1.1e308 s) is finite, the six-round total is not
    sched = scheduler.build_schedule(make_assignment(), t_gate=1e308, t_shuttle=1e307)
    assert scheduler.schedule_csv_rows(sched)[0][2] == 1.1e308
    assert scheduler.prep_time(sched) == math.inf


def test_check_rounds_names_each_fault():
    asg = make_assignment()
    target = lattice.cluster_edges(asg)
    r = [list(rnd) for rnd in scheduler.build_schedule(asg).rounds]
    (a, b), (c, d) = r[0][0], r[2][0]
    faults = {
        "7 rounds, expected 6": r + [[]],
        "round 5 (inter-odd-layer): gate [%d, %d] listed twice" % (a, b):
            r[:4] + [r[4] + [(a, b)], r[5]],
        "round 1 (intra-u-even): gate [%d, %d] is not a cluster edge" % (a, a + 10**6):
            [r[0] + [(a, a + 10**6)]] + r[1:],
        "round 1 (intra-u-even): ion": [r[0] + r[2]] + r[1:2] + [[]] + r[3:],
        "cluster edge [%d, %d] is in no round (1 missing)" % (c, d):
            r[:2] + [r[2][1:]] + r[3:],
    }
    for expected, rounds in faults.items():
        assert scheduler.check_rounds(rounds, target).startswith(expected)


def test_build_validation():
    asg = make_assignment()
    with pytest.raises(ValueError):
        scheduler.build_schedule(asg, t_gate=-1.0)


def test_deterministic():
    asg = make_assignment(6, 4, 2)
    a = scheduler.build_schedule(asg, periodic=True)
    b = scheduler.build_schedule(asg, periodic=True)
    assert a.rounds == b.rounds
    assert (a.t_shuttle, a.t_gate) == (b.t_shuttle, b.t_gate)


def test_report_and_csv_rows():
    asg = make_assignment(3, 3, 1)
    sched = scheduler.build_schedule(asg, t_gate=1e-5, t_shuttle=1e-4)
    doc = scheduler.schedule_report(sched)
    json.dumps(doc)
    assert doc["schema_version"] == 1
    assert len(doc["rounds"]) == 6
    assert len(doc["round_names"]) == 6
    assert [len(r) for r in doc["rounds"]] == list(sched.pair_counts())
    rows = scheduler.schedule_csv_rows(sched)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5, 6]
    assert [r[1] for r in rows] == list(sched.pair_counts())
    for _, _, dur in rows:
        assert dur == pytest.approx(1.1e-4)


def test_periodic_wrap_scheduled_once():
    # wrap edges must appear exactly once across rounds 5-6
    asg = make_assignment(5, 5, 1)
    sched = scheduler.build_schedule(asg, periodic=True)
    seen = {}
    for k, rnd in enumerate(sched.rounds):
        for e in rnd:
            assert e not in seen, f"edge {e} in rounds {seen[e]} and {k}"
            seen[e] = k
    assert edge_union(sched) == lattice.cluster_edges(asg, periodic=True)


def _rounds_or_error(schedule, rows, cols, n, periodic):
    try:
        assign = lattice.decompose_sublattices(lattice.build_hex_array(rows, cols, 1.0), n)
        return schedule(assign, periodic)
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.booleans())
def test_one_pass_schedule_matches_edge_classifying_oracle(rows, cols, n, periodic):
    """The one-pass scheduler lists the same gates in the same order as the
    oracle that classifies the lattice's edge sets by layer coordinates, and
    an array with no full elementary cell raises the same error."""
    got = _rounds_or_error(lambda a, p: scheduler.build_schedule(a, periodic=p).rounds,
                           rows, cols, n, periodic)
    assert got == _rounds_or_error(schedule_rounds, rows, cols, n, periodic)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.booleans())
def test_schedule_after_edges_equals_schedule_alone(rows, cols, n, periodic):
    """The partner table that cluster_edges leaves on an assignment, for
    either closure, gives build_schedule the gates it finds on its own."""
    def schedule(before):
        asg = lattice.decompose_sublattices(lattice.build_hex_array(rows, cols, 1.0), n)
        for p in before:
            lattice.cluster_edges(asg, p)
        return scheduler.build_schedule(asg, periodic=periodic)

    try:
        alone = schedule(())
    except ValueError:
        return
    assert schedule((periodic,)) == alone
    assert schedule((not periodic, periodic)) == alone
