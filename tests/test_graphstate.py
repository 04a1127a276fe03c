import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        psi = statevector_oracle(edges, n)
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


def test_copy_is_independent():
    tab = gs.new_plus_state(2)
    cp = tab.copy()
    tab.apply_cphase(0, 1)
    assert gs.verify_cluster(cp, [])
    assert gs.verify_cluster(tab, [(0, 1)])


def _eliminates_to(tab, xs, zs, sign):
    """Membership by the dense oracle's GF(2) elimination, the oracle for contains."""
    return DenseTableau(tab.x, tab.z, tab.phase).contains(xs, zs, sign)


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


def _with_y(tab, q):
    """tab with generator q's Z bit on qubit q set (X_q becomes Y_q)."""
    z = tab.z.copy()
    z[q, q] = 1
    return gs.StabilizerTableau(tab.x, z, tab.phase)


def _multiplied(tab, r, s):
    """tab with generator s multiplied into generator r: the same group."""
    dense = DenseTableau(tab.x, tab.z, tab.phase)
    dense._mul_into(r, dense.x[s].copy(), dense.z[s].copy(), int(dense.phase[s]))
    return gs.StabilizerTableau(dense.x, dense.z, dense.phase)


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
        q = int(rng.integers(n))
        flipped = tab.copy()
        flipped.phase[q] ^= 1
        cases.append((flipped, edges))
        cases.append((_with_y(tab, q), edges))
    accepted = 0
    for tab, edges in cases:
        got = gs.verify_cluster(tab, edges)
        assert type(got) is bool
        assert got == _elimination_loop(tab, edges)
        accepted += got
    assert 0 < accepted < len(cases)


def test_contains_matches_elimination_on_any_pauli(rng):
    paulis = 0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        tab = _graph_tableau(n, random_graph(rng, n))
        for q in rng.choice(n, size=int(rng.integers(0, n)), replace=False):
            tab.measure(int(q), "XYZ"[int(rng.integers(3))], rng=rng)
        r, s = (int(q) for q in rng.choice(n, size=2, replace=False))
        product = _multiplied(tab, r, s)
        candidates = [(tab.x[r], tab.z[r]), (product.x[r], product.z[r]),
                      (np.zeros(n, np.uint8), np.zeros(n, np.uint8))]
        candidates += [tuple(rng.integers(0, 2, size=(2, n), dtype=np.uint8))
                       for _ in range(4)]
        for xs, zs in candidates:
            answers = [tab.contains(xs, zs, sign) for sign in (0, 1)]
            assert answers == [_eliminates_to(tab, xs, zs, sign) for sign in (0, 1)]
            paulis += any(answers)
    assert paulis >= 60


def _spy_on_elimination(monkeypatch):
    eliminations = []
    reduce = gs.StabilizerTableau._reduce
    monkeypatch.setattr(gs.StabilizerTableau, "_reduce",
                        lambda tab, xs, zs: eliminations.append(1) or reduce(tab, xs, zs))
    return eliminations


def test_graph_form_is_decided_without_elimination(rng, monkeypatch):
    eliminations = _spy_on_elimination(monkeypatch)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        edges = random_graph(rng, n, p=0.5) or [(0, 1)]
        tab = _graph_tableau(n, edges)
        assert gs.verify_cluster(tab, edges) is True
        assert gs.verify_cluster(tab, edges[1:]) is False
        assert gs.verify_cluster(_graph_tableau(n, edges[1:]), edges) is False
        assert gs.verify_cluster(_with_y(tab, 0), edges) is False
        tab.phase[n - 1] = 1
        assert gs.verify_cluster(tab, edges) is False
        rebuilt = gs.StabilizerTableau(tab.x, tab.z, np.zeros(n, np.uint8))
        assert gs.verify_cluster(rebuilt, edges) is True
    assert eliminations == []


def test_fallback_accepts_same_group_outside_graph_form(rng, monkeypatch):
    eliminations = _spy_on_elimination(monkeypatch)
    for _ in range(10):
        n = int(rng.integers(3, 9))
        edges = random_graph(rng, n, p=0.5)
        r, s = (int(q) for q in rng.choice(n, size=2, replace=False))
        multiplied = _multiplied(_graph_tableau(n, edges), r, s)
        assert np.count_nonzero(multiplied.x) == n + 1
        graph = _graph_tableau(n, edges)
        order = np.arange(n)
        order[[r, s]] = [s, r]
        swapped = gs.StabilizerTableau(graph.x[order], graph.z[order], graph.phase[order])
        for tab in (multiplied, swapped):
            del eliminations[:]
            assert gs.verify_cluster(tab, edges) is True
            assert eliminations
            tab.phase[s] ^= 1
            assert gs.verify_cluster(tab, edges) is False


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


def test_reduce_outside_graph_form_at_448_sites_is_fast():
    tab, _, _ = _scheduled_448_site_cluster()
    k_0 = tab.x[0], tab.z[0]
    far = int(np.flatnonzero(k_0[1] == 0)[-1])
    tab.measure(far, "X", forced=-1)  # leaves graph form; K_0 still holds
    assert np.count_nonzero(tab.x) > tab.n
    t0 = time.perf_counter()
    assert tab._reduce(*k_0) == (True, 0)
    assert time.perf_counter() - t0 < 0.25


def test_x_and_z_are_read_only_copies_and_phase_is_writable():
    tab = _graph_tableau(3, [(0, 1)])
    for name in ("x", "z"):
        with pytest.raises(ValueError):
            getattr(tab, name)[0, 1] = 1
    np.testing.assert_array_equal(tab.z, [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    tab.phase[2] = 1
    assert tab.phase[2] == 1
    assert not gs.verify_cluster(tab, [(0, 1)])


_SIZES = st.sampled_from([1, 2, 63, 64, 65, 130]) | st.integers(1, 140)


def _word_edge_gates(tab, ref, n):
    """CZs among qubits 0, 63, 64 and n - 1: on bit 63 of a word and across
    words, on both tableaus; then the two agree bit for bit."""
    ends = sorted({q for q in (0, 63, 64, n - 1) if q < n})
    for a, b in itertools.combinations(ends, 2):
        tab.apply_cphase(b, a)
        ref.apply_cphase(b, a)
    for name in ("x", "z", "phase"):
        np.testing.assert_array_equal(getattr(tab, name), getattr(ref, name))


@settings(max_examples=60, deadline=None)
@given(_SIZES, st.integers(1, 4), st.integers(1, 40), st.integers(0, 2**32 - 1))
@example(64, 1, 20, 1).via("one word, bit 63")
@example(65, 2, 20, 2).via("bit 63 and the second word")
@example(130, 3, 20, 3).via("three words")
def test_packed_engine_matches_dense_oracle(n, busy, length, seed):
    """Random CZs and X/Y/Z measurements (forced, or drawn from a seeded rng)
    agree bit for bit with the dense oracle.  Half the qubits are drawn from
    the first ``busy`` ones, so that gates meet generators that measurements
    left with X on several qubits, where a CZ flips signs.  CZs on word
    edges run first in graph form and last after a Z measurement, which
    always clears graph form."""
    rng = np.random.default_rng(seed)
    tab, ref = gs.new_plus_state(n), DenseTableau.plus_state(n)
    _word_edge_gates(tab, ref, n)
    assert tab._graph_form

    def qubits(k):
        return rng.choice(min(n, busy) if rng.random() < 0.5 and busy >= k else n,
                          size=k, replace=False)

    for _ in range(length):
        if n > 1 and rng.random() < 2 / 3:
            a, b = (int(q) for q in qubits(2))
            tab.apply_cphase(a, b)
            ref.apply_cphase(a, b)
        else:
            q, basis = int(qubits(1)[0]), "XYZ"[int(rng.integers(3))]
            forced = (None, 1, -1)[int(rng.integers(3))]
            draw_seed = int(rng.integers(2**32))
            got = tab.measure(q, basis, rng=np.random.default_rng(draw_seed), forced=forced)
            want = ref.measure(q, basis, rng=np.random.default_rng(draw_seed), forced=forced)
            assert got == want
        for name in ("x", "z", "phase"):
            np.testing.assert_array_equal(getattr(tab, name), getattr(ref, name))
    assert tab.measure(0, "Z", forced=-1) == ref.measure(0, "Z", forced=-1)
    assert not tab._graph_form
    _word_edge_gates(tab, ref, n)
    # Paulis in the group (products of two or of many generators) with both
    # signs, and random ones
    for _ in range(3):
        pick = rng.integers(0, 2, n).astype(bool)
        pair = rng.integers(0, n, 2)
        paulis = [(np.bitwise_xor.reduce(ref.x[pick], axis=0, initial=0),
                   np.bitwise_xor.reduce(ref.z[pick], axis=0, initial=0)),
                  (ref.x[pair[0]] ^ ref.x[pair[1]], ref.z[pair[0]] ^ ref.z[pair[1]]),
                  tuple(rng.integers(0, 2, size=(2, n), dtype=np.uint8))]
        for xs, zs in paulis:
            for sign in (0, 1):
                assert tab.contains(xs, zs, sign) == ref.contains(xs, zs, sign)
