import json

import numpy as np
import pytest

from hexmbqc import graphstate as gs


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
        xs = np.zeros(4, dtype=np.uint8)
        zs = np.zeros(4, dtype=np.uint8)
        xs[q] = 1
        assert tab.contains(xs, zs, sign=0)
    assert gs.verify_cluster(tab, [])


def test_cphase_involution():
    tab = gs.new_plus_state(3)
    tab.apply_cphase(0, 2)
    tab.apply_cphase(0, 2)
    assert gs.verify_cluster(tab, [])


def test_cphase_validation():
    tab = gs.new_plus_state(3)
    with pytest.raises(ValueError):
        tab.apply_cphase(0, 0)
    with pytest.raises(ValueError):
        tab.apply_cphase(0, 3)


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
        psi = gs.statevector_oracle(edges, n)
        nbrs = {q: set() for q in range(n)}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        for a in range(n):
            val = gs.pauli_expectation(psi, [a], sorted(nbrs[a]))
            assert val == pytest.approx(1.0, abs=1e-10)
        assert gs.verify_cluster(tab, edges)


def test_measure_deterministic_and_random():
    tab = gs.new_plus_state(1)
    out, p = tab.measure(0, "X")
    assert (out, p) == (1, 1.0)
    tab = gs.new_plus_state(1)
    out, p = tab.measure(0, "Z", forced=-1)
    assert out == -1 and p == 0.5
    # post-measurement state is the Z eigenstate
    out2, p2 = tab.measure(0, "Z")
    assert (out2, p2) == (-1, 1.0)


def test_measure_impossible_forced_outcome():
    tab = gs.new_plus_state(1)
    tab.measure(0, "Z", forced=+1)
    out, p = tab.measure(0, "Z", forced=-1)
    assert p == 0.0
    # state unchanged: still the +1 eigenstate
    out2, p2 = tab.measure(0, "Z")
    assert (out2, p2) == (1, 1.0)


def test_measure_y_basis(rng):
    tab = gs.new_plus_state(1)
    out, p = tab.measure(0, "Y", rng=rng)
    assert p == 0.5 and out in (-1, 1)
    out2, p2 = tab.measure(0, "Y")
    assert (out2, p2) == (out, 1.0)


def test_measure_validation():
    tab = gs.new_plus_state(2)
    with pytest.raises(ValueError):
        tab.measure(0, "Q")
    with pytest.raises(ValueError):
        tab.measure(5, "X")
    with pytest.raises(ValueError):
        tab.measure(0, "X", forced=0)


def test_graph_state_correlation():
    # edge state: X0 Z1 is a stabilizer, so X0 then Z1 agree
    for forced in (+1, -1):
        tab = gs.new_plus_state(2)
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
        psi = gs.statevector_oracle(edges, n)
        tab = gs.new_plus_state(n)
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
    psi = gs.statevector_oracle([(0, 1)], 2)
    assert psi == pytest.approx(np.array([0.5, 0.5, 0.5, -0.5]))
    with pytest.raises(ValueError):
        gs.statevector_oracle([(0, 0)], 2)
    with pytest.raises(ValueError):
        gs.statevector_oracle([(0, 5)], 2)
    with pytest.raises(ValueError):
        gs.statevector_oracle([], 17)


def test_pauli_expectation_validation():
    psi = np.ones(4) / 2.0
    with pytest.raises(ValueError):
        gs.pauli_expectation(psi, [0], [0])
    with pytest.raises(ValueError):
        gs.pauli_expectation(np.ones(3), [0], [])


def test_verify_cluster_validation():
    tab = gs.new_plus_state(3)
    with pytest.raises(ValueError):
        gs.verify_cluster(tab, [(0, 0)])
    with pytest.raises(ValueError):
        gs.verify_cluster(tab, [(0, 7)])


def test_to_json_and_strings():
    tab = gs.new_plus_state(2)
    tab.apply_cphase(0, 1)
    doc = tab.to_json()
    json.dumps(doc)
    assert doc["n"] == 2
    strs = tab.generator_strings()
    assert len(strs) == 2
    assert all(s.startswith(("+", "-")) for s in strs)


def test_copy_is_independent():
    tab = gs.new_plus_state(2)
    cp = tab.copy()
    tab.apply_cphase(0, 1)
    assert gs.verify_cluster(cp, [])
    assert gs.verify_cluster(tab, [(0, 1)])
