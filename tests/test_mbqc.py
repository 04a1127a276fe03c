import itertools
import math

import numpy as np
import pytest
from oracles import (DenseTableau, apply_byproduct, euler_unitary, linear_cluster_gate,
                     linear_cluster_pattern)

from hexmbqc import mbqc

CHAIN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]


def random_state(rng):
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return v / np.linalg.norm(v)


def fidelity(a, b):
    return abs(np.vdot(a, b)) ** 2


def test_euler_unitary_identity_and_unitarity(rng):
    assert euler_unitary((0, 0, 0, 0)) == pytest.approx(np.eye(2))
    for _ in range(5):
        angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
        u = euler_unitary(angles)
        assert u.conj().T @ u == pytest.approx(np.eye(2), abs=1e-12)


def test_identity_pattern_teleports_input(rng):
    psi = random_state(rng)
    res = linear_cluster_gate((0, 0, 0, 0), psi, forced_outcomes=[0, 0, 0, 0])
    out = apply_byproduct(res)
    assert fidelity(out, psi) == pytest.approx(1.0, abs=1e-12)


def test_all_branches_realize_target_unitary(rng):
    for _ in range(15):
        angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
        psi = random_state(rng)
        target = euler_unitary(angles) @ psi
        for branch in itertools.product((0, 1), repeat=4):
            res = linear_cluster_gate(angles, psi, forced_outcomes=list(branch))
            out = apply_byproduct(res)
            assert fidelity(out, target) >= 1.0 - 1e-9
            assert res.outcomes == list(branch)


def test_branch_probabilities_sum_to_one(rng):
    angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
    psi = random_state(rng)
    total = 0.0
    for branch in itertools.product((0, 1), repeat=4):
        res = linear_cluster_gate(angles, psi, forced_outcomes=list(branch))
        total += res.probability
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sampled_run_matches_target(rng):
    angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
    psi = random_state(rng)
    target = euler_unitary(angles) @ psi
    res = linear_cluster_gate(angles, psi, rng=rng)
    out = apply_byproduct(res)
    assert fidelity(out, target) >= 1.0 - 1e-9
    assert all(p == pytest.approx(0.5, abs=1e-9) for p in res.probabilities)


def test_clifford_branches_match_stabilizer_probabilities():
    # adapted X/Y-basis chains must reproduce the tableau's branch
    # probabilities exactly, branch by branch
    for angles in [(0, 0, 0, 0), (math.pi / 2, 0, math.pi, 0),
                   (math.pi, math.pi / 2, math.pi / 2, 3 * math.pi / 2)]:
        pattern = linear_cluster_pattern(angles)
        for branch in itertools.product((0, 1), repeat=4):
            res = mbqc.run_pattern(5, CHAIN_EDGES, pattern,
                                   forced_outcomes=list(branch))
            tab = DenseTableau.plus_state(5)
            for a, b in CHAIN_EDGES:
                tab.apply_cphase(a, b)
            p_tab = 1.0
            outcomes: list[int] = []
            for j, step in enumerate(pattern.steps):
                alpha = step.angle
                alpha = ((-1) ** mbqc._parity(outcomes, step.s_domain)) * alpha \
                    + math.pi * mbqc._parity(outcomes, step.t_domain)
                alpha = alpha % (2 * math.pi)
                k = int(round(alpha / (math.pi / 2))) % 4
                assert math.isclose(alpha, k * math.pi / 2, abs_tol=1e-12)
                basis = "X" if k % 2 == 0 else "Y"
                flip = -1 if k >= 2 else 1
                want = flip * (1 - 2 * branch[j])
                _, p = tab.measure(step.qubit, basis, forced=want)
                p_tab *= p
                outcomes.append(branch[j])
            assert math.isclose(res.probability, p_tab, abs_tol=1e-12)


def test_dead_branch_probability_zero():
    # unentangled |+> measured at angle 0 can only give outcome 0
    steps = (mbqc.MeasurementStep(0, 0.0, frozenset(), frozenset()),)
    pattern = mbqc.MeasurementPattern(steps=steps, outputs=(1,), corrections=())
    res = mbqc.run_pattern(2, [], pattern, forced_outcomes=[1])
    assert res.probabilities == [0.0]
    assert res.probability == 0.0


def test_two_qubit_teleport_formula(rng):
    # measuring qubit 0 of an edge pair at angle a teleports X^m H Rz(-a)
    psi = random_state(rng)
    alpha = 0.7342
    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    rz = np.diag([1.0, np.exp(-1j * alpha)])
    x = np.array([[0, 1], [1, 0]])
    steps = (mbqc.MeasurementStep(0, alpha, frozenset(), frozenset()),)
    pattern = mbqc.MeasurementPattern(steps=steps, outputs=(1,), corrections=())
    for m in (0, 1):
        res = mbqc.run_pattern(2, [(0, 1)], pattern, input_state=psi,
                               input_qubits=(0,), forced_outcomes=[m])
        expect = (np.linalg.matrix_power(x, m) @ h @ rz) @ psi
        assert fidelity(res.state, expect) == pytest.approx(1.0, abs=1e-12)


def test_pattern_validation_errors():
    mk = mbqc.MeasurementStep
    # forward reference
    steps = (mk(0, 0.0, frozenset({1}), frozenset()),
             mk(1, 0.0, frozenset(), frozenset()))
    with pytest.raises(ValueError):
        mbqc.MeasurementPattern(steps, (2,), ()).validate(3)
    # double measurement
    steps = (mk(0, 0.0, frozenset(), frozenset()),
             mk(0, 0.0, frozenset(), frozenset()))
    with pytest.raises(ValueError):
        mbqc.MeasurementPattern(steps, (1,), ()).validate(2)
    # output also measured
    steps = (mk(0, 0.0, frozenset(), frozenset()),)
    with pytest.raises(ValueError):
        mbqc.MeasurementPattern(steps, (0,), ()).validate(1)
    # outputs must cover unmeasured qubits
    with pytest.raises(ValueError):
        mbqc.MeasurementPattern(steps, (1,), ()).validate(3)
    # correction on measured qubit
    corr = (mbqc.Correction(0, "X", frozenset({0})),)
    with pytest.raises(ValueError):
        mbqc.MeasurementPattern(steps, (1,), corr).validate(2)
    # bad correction kind
    corr = (mbqc.Correction(1, "Y", frozenset({0})),)
    with pytest.raises(ValueError):
        mbqc.MeasurementPattern(steps, (1,), corr).validate(2)


def test_run_pattern_validation(rng):
    pattern = linear_cluster_pattern((0, 0, 0, 0))
    with pytest.raises(ValueError):
        mbqc.run_pattern(5, CHAIN_EDGES, pattern)  # no rng, no forced
    with pytest.raises(ValueError):
        mbqc.run_pattern(5, CHAIN_EDGES, pattern, forced_outcomes=[0, 1])
    with pytest.raises(ValueError):
        mbqc.run_pattern(5, CHAIN_EDGES, pattern, forced_outcomes=[0, 2, 0, 0])
    with pytest.raises(ValueError):
        mbqc.run_pattern(25, [], pattern, forced_outcomes=[0, 0, 0, 0])
    bad = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        mbqc.run_pattern(5, CHAIN_EDGES, pattern, input_state=bad,
                         input_qubits=(0,), forced_outcomes=[0, 0, 0, 0])


def test_apply_byproduct_is_involution(rng):
    angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
    psi = random_state(rng)
    res = linear_cluster_gate(angles, psi, forced_outcomes=[1, 1, 0, 1])
    once = apply_byproduct(res)
    res2 = mbqc.PatternResult(
        outcomes=res.outcomes, probabilities=res.probabilities, state=once,
        outputs=res.outputs, byproduct_x=res.byproduct_x,
        byproduct_z=res.byproduct_z)
    twice = apply_byproduct(res2)
    assert twice == pytest.approx(res.state, abs=1e-12)


def test_pattern_dict_round_trip():
    pattern = linear_cluster_pattern((0.1, 0.2, 0.3, 0.4))
    doc = mbqc.pattern_to_dict(5, CHAIN_EDGES, pattern)
    n, edges, back = mbqc.pattern_from_dict(doc)
    assert n == 5
    assert sorted(edges) == CHAIN_EDGES
    assert back == pattern
    doc2 = mbqc.pattern_to_dict(n, edges, back)
    assert doc == doc2


def test_pattern_dict_rejects_unknown_keys():
    doc = mbqc.pattern_to_dict(5, CHAIN_EDGES,
                               linear_cluster_pattern((0, 0, 0, 0)))
    doc["bogus"] = 1
    with pytest.raises(ValueError):
        mbqc.pattern_from_dict(doc)
    doc.pop("bogus")
    doc["schema_version"] = 99
    with pytest.raises(ValueError):
        mbqc.pattern_from_dict(doc)
