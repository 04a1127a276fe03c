import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import DenseTableau, pauli_expectation, statevector_oracle

from hexmbqc import graphstate as gs
from hexmbqc import lattice, scheduler


def random_graph(rng, n, p=0.4):
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < p:
                edges.append((a, b))
    return edges


def test_plus_state_stabilized_by_x():
    tab = gs.new_plus_state(4)
    for q in range(4):
        assert tab.contains(q, [], sign=0)
        assert not tab.contains(q, [], sign=1)
    assert gs.verify_cluster(tab, [])


def test_cphase_involution():
    tab = gs.new_plus_state(3)
    tab.apply_cphase(0, 2)
    tab.apply_cphase(0, 2)
    assert gs.verify_cluster(tab, [])


def test_cphase_validation():
    n = 3
    tab = gs.new_plus_state(n)
    tab.apply_cphase(0, 1)
    before = tab.z
    for a, b, message in [
        (0, 0, "CPHASE needs two distinct qubits"),
        (n, n, "CPHASE needs two distinct qubits"),
        (0, n, f"qubit {n} out of range for n={n}"),
        (n, 0, f"qubit {n} out of range for n={n}"),
        (-1, 2, f"qubit -1 out of range for n={n}"),  # not wrapped to n-1
        (2, -1, f"qubit -1 out of range for n={n}"),
        (-1, n, f"qubit -1 out of range for n={n}"),  # the first bad id is named
        (n, -1, f"qubit {n} out of range for n={n}"),
    ]:
        with pytest.raises(ValueError) as err:
            tab.apply_cphase(a, b)
        assert str(err.value) == message
        np.testing.assert_array_equal(tab.z, before)


def test_verify_cluster_path_ring_complete():
    for edges, n in [
        ([(0, 1), (1, 2), (2, 3)], 4),
        ([(0, 1), (1, 2), (2, 0)], 3),
        ([(a, b) for a in range(5) for b in range(a + 1, 5)], 5),
    ]:
        tab = gs.new_plus_state(n)
        for a, b in edges:
            tab.apply_cphase(a, b)
        assert gs.verify_cluster(tab, edges)
        # and fails against a different edge set
        assert not gs.verify_cluster(tab, edges[:-1])


def test_verify_cluster_detects_extra_edge():
    edges = [(0, 1), (1, 2)]
    tab = gs.new_plus_state(3)
    for a, b in edges:
        tab.apply_cphase(a, b)
    tab.apply_cphase(0, 2)
    assert not gs.verify_cluster(tab, edges)


def test_tableau_agrees_with_statevector_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        edges = random_graph(rng, n)
        tab = gs.new_plus_state(n)
        for a, b in edges:
            tab.apply_cphase(a, b)
        psi = statevector_oracle(edges, n)
        nbrs = {q: set() for q in range(n)}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        for a in range(n):
            val = pauli_expectation(psi, [a], sorted(nbrs[a]))
            assert val == pytest.approx(1.0, abs=1e-10)
        assert gs.verify_cluster(tab, edges)


def test_measure_deterministic_and_random():
    tab = DenseTableau.plus_state(1)
    out, p = tab.measure(0, "X")
    assert (out, p) == (1, 1.0)
    tab = DenseTableau.plus_state(1)
    out, p = tab.measure(0, "Z", forced=-1)
    assert out == -1 and p == 0.5
    # post-measurement state is the Z eigenstate
    out2, p2 = tab.measure(0, "Z")
    assert (out2, p2) == (-1, 1.0)


def test_measure_impossible_forced_outcome():
    tab = DenseTableau.plus_state(1)
    tab.measure(0, "Z", forced=+1)
    out, p = tab.measure(0, "Z", forced=-1)
    assert p == 0.0
    # state unchanged: still the +1 eigenstate
    out2, p2 = tab.measure(0, "Z")
    assert (out2, p2) == (1, 1.0)


def test_measure_y_basis(rng):
    tab = DenseTableau.plus_state(1)
    out, p = tab.measure(0, "Y", rng=rng)
    assert p == 0.5 and out in (-1, 1)
    out2, p2 = tab.measure(0, "Y")
    assert (out2, p2) == (out, 1.0)


def test_graph_state_correlation():
    # edge state: X0 Z1 is a stabilizer, so X0 then Z1 agree
    for forced in (+1, -1):
        tab = DenseTableau.plus_state(2)
        tab.apply_cphase(0, 1)
        m0, p0 = tab.measure(0, "X", forced=forced)
        assert p0 == 0.5 and m0 == forced
        m1, p1 = tab.measure(1, "Z")
        assert p1 == 1.0 and m1 == m0


def test_measurement_chain_matches_dense_probabilities(rng):
    # chain rule over forced measurement sequences, tableau vs dense state
    for _ in range(10):
        n = int(rng.integers(2, 7))
        edges = random_graph(rng, n, p=0.5)
        psi = statevector_oracle(edges, n)
        tab = DenseTableau.plus_state(n)
        for a, b in edges:
            tab.apply_cphase(a, b)
        p_dense = 1.0
        p_tab = 1.0
        for q in range(n):
            basis = ("X", "Y", "Z")[int(rng.integers(3))]
            forced = int(rng.choice((-1, 1)))
            out, p = tab.measure(q, basis, forced=forced)
            p_tab *= p
            proj = _dense_projector(n, q, basis, forced)
            nxt = proj @ psi
            pd = float(np.vdot(nxt, nxt).real)
            p_dense *= pd
            if pd > 0:
                psi = nxt / np.sqrt(pd)
            if p == 0.0:
                break
        assert p_tab == pytest.approx(p_dense, abs=1e-12)


def _dense_projector(n, q, basis, sign):
    mats = {
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]]),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    p1 = (np.eye(2) + sign * mats[basis]) / 2.0
    op = np.eye(1, dtype=complex)
    for k in range(n):
        op = np.kron(op, p1 if k == q else np.eye(2))
    return op


def test_statevector_oracle_values():
    psi = statevector_oracle([(0, 1)], 2)
    assert psi == pytest.approx(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        statevector_oracle([(0, 0)], 2)
    with pytest.raises(ValueError):
        statevector_oracle([(0, 5)], 2)
    with pytest.raises(ValueError):
        statevector_oracle([], 17)


def test_pauli_expectation_validation():
    psi = np.ones(4) / 2.0
    with pytest.raises(ValueError):
        pauli_expectation(psi, [0], [0])
    with pytest.raises(ValueError):
        pauli_expectation(np.ones(3), [0], [])


def test_verify_cluster_validation():
    tab = gs.new_plus_state(3)
    with pytest.raises(ValueError):
        gs.verify_cluster(tab, [(0, 0)])
    with pytest.raises(ValueError):
        gs.verify_cluster(tab, [(0, 7)])


def _eliminates_to(tab, xs, zs, sign):
    """Membership by the dense oracle's GF(2) elimination, the oracle for contains."""
    return DenseTableau(tab.x, tab.z, tab.phase).contains(xs, zs, sign)


def _sparse(xs, zs):
    """contains' (x, zs) arguments for 0/1 vectors with at most one X."""
    xq = np.flatnonzero(xs).tolist()
    assert len(xq) <= 1
    return (xq[0] if xq else None), np.flatnonzero(zs).tolist()


def _elimination_loop(tab, edges):
    """verify_cluster's answer with every K_a decided by elimination."""
    n = tab.n
    nbrs = {q: set() for q in range(n)}
    for a, b in edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    for a in range(n):
        xs = np.zeros(n, dtype=np.uint8)
        zs = np.zeros(n, dtype=np.uint8)
        xs[a] = 1
        zs[sorted(nbrs[a])] = 1
        if not _eliminates_to(tab, xs, zs, 0):
            return False
    return True


def _graph_tableau(n, edges):
    tab = gs.new_plus_state(n)
    for a, b in edges:
        tab.apply_cphase(a, b)
    return tab


def test_verify_cluster_matches_elimination(rng):
    cases = []
    for _ in range(30):
        n = int(rng.integers(2, 10))
        edges = random_graph(rng, n)
        tab = _graph_tableau(n, edges)
        cases.append((tab, edges))
        cases.append((tab, edges + [(b, a) for a, b in edges] + edges[:2]))
        cases.append((tab, []))
        if edges:
            cases.append((tab, edges[1:]))
            cases.append((_graph_tableau(n, edges[1:]), edges))
        missing = sorted({(a, b) for a in range(n) for b in range(a + 1, n)} - set(edges))
        if missing:
            cases.append((_graph_tableau(n, edges + missing[:1]), edges))
            cases.append((_graph_tableau(n, edges[1:] + missing[:1]), edges))
        flipped = _graph_tableau(n, edges)
        flipped.phase[int(rng.integers(n))] ^= 1
        cases.append((flipped, edges))
    accepted = 0
    for tab, edges in cases:
        got = gs.verify_cluster(tab, edges)
        assert type(got) is bool
        assert got == _elimination_loop(tab, edges)
        accepted += got
    assert 0 < accepted < len(cases)


def test_contains_matches_elimination_on_any_pauli(rng):
    """A Pauli with at most one X gets elimination's answer for both signs."""
    paulis = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        tab = _graph_tableau(n, random_graph(rng, n))
        tab.phase ^= rng.integers(0, 2, n, dtype=np.uint8)
        r = int(rng.integers(n))
        near = tab.z[r].copy()
        near[rng.integers(n)] ^= 1
        candidates = [(tab.x[r], tab.z[r]), (tab.x[r], near),
                      (np.zeros(n, np.uint8), np.zeros(n, np.uint8))]
        candidates += [(tab.x[rng.integers(n)], rng.integers(0, 2, n, dtype=np.uint8))
                       for _ in range(2)]
        candidates += [(np.zeros(n, np.uint8), rng.integers(0, 2, n, dtype=np.uint8))
                       for _ in range(2)]
        for xs, zs in candidates:
            answers = [tab.contains(*_sparse(xs, zs), sign) for sign in (0, 1)]
            assert answers == [_eliminates_to(tab, xs, zs, sign) for sign in (0, 1)]
            paulis += any(answers)
    assert paulis >= 40  # K_r and the identity in every round


def test_contains_refuses_out_of_range_or_repeated_ids():
    tab = _graph_tableau(16, [(0, 12)])
    assert tab.contains(0, [12]) and tab.contains(12, (0,))
    for x, zs, match in [(16, [], "qubit 16 out of range"), (-1, [], "qubit -1 out of range"),
                         (0, [12, 16], "qubit 16 out of range"),
                         (None, [-1], "qubit -1 out of range"),
                         (0, [12, 12], "must be distinct")]:
        with pytest.raises(ValueError, match=match):
            tab.contains(x, zs)


def _scheduled_448_site_cluster():
    array = lattice.build_hex_array(14, 14, 1.0)
    assign = lattice.decompose_sublattices(array, 2)
    rounds = scheduler.build_schedule(assign).rounds
    assert array.site_count() == 448
    tab = gs.new_plus_state(array.site_count())
    for rnd in rounds:
        for a, b in rnd:
            tab.apply_cphase(a, b)
    return tab, rounds, lattice.cluster_edges(assign)


def test_448_site_cluster_verifies_in_under_a_second():
    tab, rounds, target = _scheduled_448_site_cluster()
    t0 = time.perf_counter()
    assert gs.verify_cluster(tab, target) is True
    assert time.perf_counter() - t0 < 1.0
    tab.apply_cphase(*rounds[3][0])
    assert gs.verify_cluster(tab, target) is False


def test_x_and_z_are_read_only_copies_and_phase_is_writable():
    tab = _graph_tableau(3, [(0, 1)])
    for name in ("x", "z"):
        with pytest.raises(ValueError):
            getattr(tab, name)[0, 1] = 1
    np.testing.assert_array_equal(tab.z, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    tab.phase[2] = 1
    assert tab.phase[2] == 1
    assert not gs.verify_cluster(tab, [(0, 1)])


def test_failing_stabilizers_match_the_statevector_oracle(rng):
    """On graphs of up to 10 qubits prepared with one target gate dropped,
    one extra gate added or one gate listed twice, the K_a that ``contains``
    refuses are those whose expectation in the dense state is below 1."""
    named = 0
    for _ in range(30):
        n = int(rng.integers(2, 11))
        target = random_graph(rng, n)
        others = sorted({(a, b) for a in range(n) for b in range(a + 1, n)} - set(target))
        applied = list(target)
        kind = int(rng.integers(3))
        if kind == 0 and target:
            applied.pop(int(rng.integers(len(target))))
        elif kind == 1 and others:
            applied.append(others[int(rng.integers(len(others)))])
        elif target:
            applied.append(target[int(rng.integers(len(target)))])
        psi = statevector_oracle(applied, n)
        nbrs = {q: set() for q in range(n)}
        for a, b in target:
            nbrs[a].add(b)
            nbrs[b].add(a)
        oracle = [a for a in range(n)
                  if pauli_expectation(psi, [a], sorted(nbrs[a])) < 1 - 1e-9]
        tab = _graph_tableau(n, applied)
        assert [a for a in range(n) if not tab.contains(a, nbrs[a])] == oracle
        assert gs.verify_cluster(tab, target) == (oracle == [])
        named += len(oracle)
    assert named > 0


def test_cluster_prepared_and_verified_without_numpy():
    """Preparing and verifying a cluster loads no numpy; ``phase`` is made on
    its first read as a writable all-zero uint8 vector, kept, and read by
    the checks."""
    code = """
import json, sys
from hexmbqc import graphstate as gs, lattice, scheduler
assign = lattice.decompose_sublattices(lattice.build_hex_array(3, 3, 1.0), 2)
target = lattice.cluster_edges(assign)
nbrs = [{b for e in target if a in e for b in e} - {a} for a in range(30)]
tab = gs.new_plus_state(assign.array.site_count())
for rnd in scheduler.build_schedule(assign).rounds:
    for a, b in rnd:
        tab.apply_cphase(a, b)
failing = lambda: [a for a in range(30) if not tab.contains(a, nbrs[a])]
out = {"verified": gs.verify_cluster(tab, target),
       "failing": failing(), "numpy": "numpy" in sys.modules}
phase = tab.phase
out.update(dtype=str(phase.dtype), shape=list(phase.shape), ones=int(phase.sum()),
           writeable=bool(phase.flags.writeable), same=tab.phase is phase)
phase[3] = 1
out.update(after_flip=gs.verify_cluster(tab, target), failing_after_flip=failing())
print(json.dumps(out))
"""
    src = os.path.dirname(os.path.dirname(gs.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert json.loads(proc.stdout) == {
        "verified": True, "failing": [], "numpy": False,
        "dtype": "uint8", "shape": [30], "ones": 0, "writeable": True, "same": True,
        "after_flip": False, "failing_after_flip": [3]}


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 140), st.integers(0, 40), st.integers(0, 2**32 - 1))
def test_packed_engine_matches_dense_oracle(n, length, seed):
    """After random CZs (among them gates on qubits 0 and n-1, and gates
    applied twice) and sign flips the engine's x, z and phase equal the
    dense oracle's, and ``contains`` agrees with the oracle's elimination,
    for both signs, on generators, generators with one Z bit flipped, the
    identity and Z-only Paulis."""
    rng = np.random.default_rng(seed)
    tab, ref = gs.new_plus_state(n), DenseTableau.plus_state(n)
    gates = [tuple(int(q) for q in rng.choice(n, size=2, replace=False))
             for _ in range(length if n > 1 else 0)]
    if n > 1:  # the end qubits, and gates applied again, some reversed
        gates += [(0, n - 1), (n - 1, 0), (0, n - 1)] + gates[:length // 2]
        gates += [(b, a) for a, b in gates[:length // 4]]
    for a, b in gates:
        tab.apply_cphase(a, b)
        ref.apply_cphase(a, b)
    flips = rng.integers(0, 2, n, dtype=np.uint8)
    tab.phase ^= flips
    ref.phase ^= flips
    for name in ("x", "z", "phase"):
        np.testing.assert_array_equal(getattr(tab, name), getattr(ref, name))
    none = np.zeros(n, np.uint8)
    paulis = [(none, none), (none, rng.integers(0, 2, n, dtype=np.uint8))]
    for a in rng.choice(n, size=min(n, 2), replace=False):
        near = ref.z[a].copy()
        near[rng.integers(n)] ^= 1
        paulis += [(ref.x[a], ref.z[a]), (ref.x[a], near)]
    for xs, zs in paulis:
        for sign in (0, 1):
            assert tab.contains(*_sparse(xs, zs), sign) == ref.contains(xs, zs, sign)
