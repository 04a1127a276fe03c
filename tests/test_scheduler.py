import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hexmbqc import graphstate, lattice, scheduler
from oracles import check_rounds, edge_union, reference_partners, schedule_rounds


def test_gate_schedule_is_frozen_and_equal_by_fields():
    build = lambda: scheduler.build_schedule(
        lattice.decompose_sublattices(lattice.build_hex_array(3, 3, 1.0), 1), periodic=True)
    first, second = build(), build()
    assert first == second and hash(first) == hash(second) and first is not second
    assert first != first._replace(t_gate=2e-5)
    for field in ("rounds", "t_gate", "extra"):
        with pytest.raises(AttributeError):
            setattr(first, field, ())


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
    assert scheduler.audit_rounds(sched.rounds, asg, periodic) == (None, [], total)


def test_rounds_and_partner_table_match_the_oracle_on_every_small_array():
    """On all 1 370 cases of up to 12 x 12 cells, n <= 7 and both closures,
    the partner table holds the oracle's per-site partners and the rounds
    are the oracle's edges classified by coordinate and layer."""
    cases = 0
    for rows in range(1, 13):
        for cols in range(1, 13):
            array = lattice.build_hex_array(rows, cols, 1.0)
            for n in range(1, 8):
                try:
                    asg = lattice.decompose_sublattices(array, n)
                except ValueError:
                    continue
                for periodic in (False, True):
                    table = lattice.cluster_partners(asg, periodic)
                    assert list(zip(*[iter(table)] * 3)) == reference_partners(asg, periodic)
                    assert (scheduler.build_schedule(asg, periodic=periodic).rounds
                            == schedule_rounds(asg, periodic))
                    cases += 1
    assert cases == 1370


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


def test_audit_names_each_fault():
    asg = make_assignment()
    r = [list(rnd) for rnd in scheduler.build_schedule(asg).rounds]
    (a, b), (c, d) = r[0][0], r[2][0]
    # an interlayer edge found from its larger end, and a gate found later
    # in site order whose smaller end lies between its ends
    table = lattice.cluster_partners(asg)
    low = next((table[3 * s + 2], s) for s in asg.array.sites if 0 <= table[3 * s + 2] < s)
    later = next(g for rnd in r for g in rnd if low[0] < g[0] < low[1])
    faults = {
        "7 rounds, expected 6": r + [[]],
        "round 5 (inter-odd-layer): gate [%d, %d] listed twice" % (a, b):
            r[:4] + [r[4] + [(a, b)], r[5]],
        "round 1 (intra-u-even): gate [%d, %d] is not a cluster edge" % (a, a + 10**6):
            [r[0] + [(a, a + 10**6)]] + r[1:],
        "round 1 (intra-u-even): ion": [r[0] + r[2]] + r[1:2] + [[]] + r[3:],
        "cluster edge [%d, %d] is in no round (1 missing)" % (c, d):
            r[:2] + [r[2][1:]] + r[3:],
        "cluster edge [%d, %d] is in no round (2 missing)" % low:
            [[g for g in rnd if g not in (low, later)] for rnd in r],
    }
    for expected, rounds in faults.items():
        assert scheduler.audit_rounds(rounds, asg)[0].startswith(expected)


FAULTS = ("expected 6", "listed twice", "not a cluster edge", "in two gates", "in no round")


def _edit(rng, rounds, sites, target):
    """Apply one random edit to the mutable schedule ``rounds``."""
    gates = [(k, i) for k, rnd in enumerate(rounds) for i in range(len(rnd))]
    k = rng.randrange(len(rounds))
    a = rng.randrange(sites)
    kind = rng.choice(["dropped", "repeated", "off-cluster", "off-array", "self-loop",
                       "reversed", "moved", "merged", "seventh round"])
    if kind in ("dropped", "repeated", "reversed", "moved") and gates:
        j, i = rng.choice(gates)
        gate = rounds[j][i]
        if kind == "reversed":
            rounds[j][i] = gate[::-1]
        if kind in ("dropped", "moved"):
            del rounds[j][i]
        if kind in ("repeated", "moved"):
            rounds[k].insert(rng.randrange(len(rounds[k]) + 1), gate)
    elif kind == "off-cluster" and sites > 2:
        b = rng.choice([b for b in range(sites) if b != a and (min(a, b), max(a, b))
                        not in target] or [a])
        rounds[k].append((a, b) if rng.random() < 0.5 else (b, a))
    elif kind == "off-array":
        rounds[k].append(rng.choice([(a, sites + rng.randrange(3)), (-1 - rng.randrange(3), a)]))
    elif kind == "self-loop":
        rounds[k].insert(rng.randrange(len(rounds[k]) + 1), (a, a))
    elif kind == "merged" and len(rounds) > 1:
        j = rng.choice([j for j in range(len(rounds)) if j != k])
        rounds[k] += rounds[j]
        rounds[j] = []
        if rng.random() < 0.5:
            del rounds[j]
    elif kind == "seventh round":
        rounds.append([rounds[j][i] for j, i in rng.sample(gates, min(len(gates), 2))])


def test_audit_matches_edge_set_and_tableau_oracles():
    """On 2 000 seeded schedules, each with up to three edits (a dropped,
    repeated, off-cluster, off-array, self-loop, reversed or moved gate,
    two merged rounds, a seventh round), the audit's fault is the oracle's,
    its failing sites are those whose K_a the tableau refuses after the
    gates, and it counts the cluster edges."""
    rng = random.Random(16)
    cache, kinds, failing, checked = {}, set(), 0, 0
    while checked < 2000:
        rows, cols, n, periodic = (rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 3),
                                   rng.random() < 0.5)
        key = (rows, cols, n, periodic)
        if key not in cache:
            try:
                asg = lattice.decompose_sublattices(lattice.build_hex_array(rows, cols, 1.0), n)
            except ValueError:  # no full elementary cell
                cache[key] = None
                continue
            target = lattice.cluster_edges(asg, periodic)
            nbrs = [set() for _ in asg.array.sites]
            for a, b in target:
                nbrs[a].add(b)
                nbrs[b].add(a)
            cache[key] = asg, target, nbrs, scheduler.build_schedule(asg, periodic=periodic)
        if cache[key] is None:
            continue
        asg, target, nbrs, sched = cache[key]
        sites = len(nbrs)
        rounds = [list(rnd) for rnd in sched.rounds]
        for _ in range(rng.randint(0, 3)):
            _edit(rng, rounds, sites, target)
        want = []
        if all(a != b and 0 <= min(a, b) and max(a, b) < sites for rnd in rounds for a, b in rnd):
            tab = graphstate.new_plus_state(sites)
            for rnd in rounds:
                for a, b in rnd:
                    tab.apply_cphase(a, b)
            want = [a for a in range(sites) if not tab.contains(a, nbrs[a])]
        fault = check_rounds(rounds, target)
        assert scheduler.audit_rounds(rounds, asg, periodic) == (fault, want, len(target))
        kinds.add(fault and next(kind for kind in FAULTS if kind in fault))
        failing += bool(want)
        checked += 1
    assert kinds == {*FAULTS, None} and failing > 400


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
    """The partner runs that cluster_edges leaves on an assignment, for
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
