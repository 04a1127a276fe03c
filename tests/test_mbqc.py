import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (DenseTableau, apply_byproduct, dense_run_pattern, euler_unitary,
                     linear_cluster_gate, linear_cluster_pattern)

from hexmbqc import cli, mbqc

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
    with pytest.raises(ValueError, match="past the limit of"):
        mbqc.run_pattern(mbqc.MAX_TOTAL_QUBITS + 1, [], pattern, forced_outcomes=[0, 0, 0, 0])
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


def test_pattern_records_are_frozen_and_equal_by_fields():
    pattern, again = linear_cluster_pattern((0.1, 0.2, 0.3, 0.4)), linear_cluster_pattern(
        (0.1, 0.2, 0.3, 0.4))
    assert pattern == again and hash(pattern) == hash(again) and pattern is not again
    step, corr = pattern.steps[1], pattern.corrections[0]
    assert hash(step) == hash(mbqc.MeasurementStep(*step))
    assert hash(corr) == hash(mbqc.Correction(*corr))
    assert mbqc.MeasurementStep(3, 0.5) == mbqc.MeasurementStep(3, 0.5, frozenset(), frozenset())
    assert mbqc.Correction(4, "X") != mbqc.Correction(4, "Z")
    assert pattern != linear_cluster_pattern((0.1, 0.2, 0.3, 0.5))
    res = mbqc.run_pattern(5, CHAIN_EDGES, pattern, forced_outcomes=[0, 1, 0, 1])
    for record, field in ((pattern, "steps"), (step, "angle"), (corr, "domain"),
                          (res, "outcomes"), (step, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, ())
    assert res == mbqc.run_pattern(5, CHAIN_EDGES, pattern, forced_outcomes=[0, 1, 0, 1])
    with pytest.raises(TypeError):  # its outcomes are a list, as they were
        hash(res)


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


def _placed(amplitudes, qubits, n):
    """The n-qubit state with ``amplitudes`` on ``qubits`` (the first the
    most significant bit) and |+> on the others, qubit 0 the most
    significant bit of the index."""
    plus = 2.0 ** (-(n - len(qubits)) / 2.0)
    return [amplitudes[sum(((index >> (n - 1 - q)) & 1) << (len(qubits) - 1 - i)
                           for i, q in enumerate(qubits))] * plus
            for index in range(2 ** n)]


@pytest.mark.parametrize("qubits", [(3, 1), (2, 0), (2, 0, 1)])
def test_input_amplitudes_land_on_their_qubits(tmp_path, capsys, rng, qubits):
    # a pattern with no steps leaves the prepared state as it is, in process
    # and through the CLI's pattern file
    amp = rng.normal(size=2 ** len(qubits)) + 1j * rng.normal(size=2 ** len(qubits))
    amp /= np.linalg.norm(amp)
    want = _placed(amp, qubits, 5)
    pattern = mbqc.MeasurementPattern((), (0, 1, 2, 3, 4))
    res = mbqc.run_pattern(5, [], pattern, input_state=amp, input_qubits=qubits)
    assert np.abs(np.array(res.state) - want).max() < 1e-15
    doc = mbqc.pattern_to_dict(5, [], pattern)
    doc["input"] = {"qubits": list(qubits), "amplitudes": [[a.real, a.imag] for a in amp]}
    (tmp_path / "pattern.json").write_text(json.dumps(doc))
    assert cli.main(["mbqc", "--pattern", str(tmp_path / "pattern.json"),
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = json.loads((tmp_path / "mbqc_result.json").read_text())
    got = np.array(out["state_re"]) + 1j * np.array(out["state_im"])
    assert np.abs(got - want).max() < 1e-15


@st.composite
def patterns(draw):
    """(n, edges, pattern, input state, input qubits, forced outcomes) on at
    most 12 qubits: a chain, a ring or a random graph, some edges listed
    twice, inputs on any qubits and any branch."""
    n = draw(st.integers(1, 12))
    shape = draw(st.sampled_from(("chain", "ring", "random")))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if shape == "random" and pairs:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n))
    else:
        edges = [(q, q + 1) for q in range(n - 1)] + ([(n - 1, 0)] if shape == "ring"
                                                      and n > 2 else [])
    if edges:
        edges += [e[::-1] for e in draw(st.lists(st.sampled_from(edges), max_size=3))]
    order = draw(st.permutations(range(n)))
    count = draw(st.integers(0, n))
    angles = st.floats(-4.0, 4.0) | st.sampled_from((0.0, math.pi / 2, math.pi))
    steps = tuple(
        mbqc.MeasurementStep(
            order[j], draw(angles),
            frozenset(draw(st.lists(st.integers(0, j - 1), max_size=2))) if j else frozenset(),
            frozenset(draw(st.lists(st.integers(0, j - 1), max_size=2))) if j else frozenset())
        for j in range(count))
    outputs = tuple(order[count:])
    corrections = tuple(mbqc.Correction(q, draw(st.sampled_from("XZ")), frozenset(
        draw(st.lists(st.integers(0, count - 1), max_size=2)) if count else ()))
        for q in outputs[:2])
    pattern = mbqc.MeasurementPattern(steps, outputs, corrections)
    k = draw(st.integers(0, min(n, 4)))
    qubits = tuple(draw(st.permutations(range(n)))[:k])
    parts = draw(st.lists(st.floats(-1, 1), min_size=2 ** (k + 1), max_size=2 ** (k + 1)))
    amp = np.array(parts[::2]) + 1j * np.array(parts[1::2])
    if np.linalg.norm(amp) < 1e-3:
        amp[0] = 1.0
    amp = amp / np.linalg.norm(amp) if k or draw(st.booleans()) else None
    forced = draw(st.lists(st.integers(0, 1), min_size=count, max_size=count))
    return n, edges, pattern, amp, qubits if amp is not None else (), forced


def _rare_second_outcome():
    """Two measurements whose second outcome has weight 2.5e-5: its weight
    taken as 1 - p0 kept only 12 digits, so the two simulators' states
    differed by 2e-12 after renormalising."""
    steps = (mbqc.MeasurementStep(1, 0.0), mbqc.MeasurementStep(0, 0.0))
    pattern = mbqc.MeasurementPattern(steps, (), ())
    amp = np.array([0, 0.0076 + 0.6384j, 0.76j, 0.1216j])
    return 2, [(0, 1), (1, 0)], pattern, amp / np.linalg.norm(amp), (1, 0), [0, 1]


@settings(max_examples=300, deadline=None)
@given(patterns())
@example(_rare_second_outcome()).via("a rare outcome's weight")
def test_live_width_simulator_matches_the_dense_oracle(case):
    n, edges, pattern, amp, qubits, forced = case
    res = mbqc.run_pattern(n, edges, pattern, input_state=amp, input_qubits=qubits,
                           forced_outcomes=forced)
    ref = dense_run_pattern(n, edges, pattern, input_state=amp, input_qubits=qubits,
                            forced_outcomes=forced)
    assert res.outcomes == ref.outcomes == forced
    assert (res.byproduct_x, res.byproduct_z) == (ref.byproduct_x, ref.byproduct_z)
    assert len(res.state) == len(ref.state) == 2 ** len(pattern.outputs)
    if ref.probability >= 1e-6:
        assert np.abs(np.array(res.probabilities) - ref.probabilities).max(initial=0) < 1e-12
        assert np.abs(np.array(res.state) - ref.state).max() < 1e-12
    else:
        # a rare branch renormalises by small weights; its amplitudes before
        # renormalising carry the absolute error
        assert abs(res.probability - ref.probability) < 1e-12
        assert np.abs(np.array(res.state) * math.sqrt(res.probability)
                      - ref.state * math.sqrt(ref.probability)).max() < 1e-12


def _teleport_chain(rotations):
    """The chain pattern that applies the Euler rotations one after another:
    each measurement applies X**m H Rz(-a'), and a running Pauli frame
    (x, z) sets the next step's s-domain and the output's corrections."""
    steps, x_dom, z_dom = [], frozenset(), frozenset()
    for j, angle in enumerate(a for block in rotations for a in block):
        steps.append(mbqc.MeasurementStep(j, angle, s_domain=x_dom))
        x_dom, z_dom = z_dom ^ {j}, x_dom
    out = len(steps)
    return out + 1, mbqc.MeasurementPattern(
        tuple(steps), (out,), (mbqc.Correction(out, "X", x_dom),
                               mbqc.Correction(out, "Z", z_dom)))


def test_thousand_step_chain_through_the_cli_matches_the_unitary_product(tmp_path, capsys,
                                                                         rng):
    # 250 Euler rotations measure qubits 0..999 of a 1 001-qubit chain
    rotations = [tuple(rng.uniform(-math.pi, math.pi, size=4)) for _ in range(250)]
    n, pattern = _teleport_chain(rotations)
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    doc = mbqc.pattern_to_dict(n, [(q, q + 1) for q in range(n - 1)], pattern)
    doc["input"] = {"qubits": [0], "amplitudes": [[a.real, a.imag] for a in psi]}
    (tmp_path / "chain.json").write_text(json.dumps(doc))
    assert cli.main(["mbqc", "--pattern", str(tmp_path / "chain.json"), "--seed", "5",
                     "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    out = json.loads((tmp_path / "mbqc_result.json").read_text())
    assert len(out["outcomes"]) == 1000 and 0 < sum(out["outcomes"]) < 1000
    assert max(abs(p - 0.5) for p in out["probabilities"]) < 1e-9
    res = mbqc.PatternResult(
        outcomes=out["outcomes"], probabilities=out["probabilities"],
        state=[complex(a, b) for a, b in zip(out["state_re"], out["state_im"])],
        outputs=tuple(out["outputs"]),
        byproduct_x={int(q): v for q, v in out["byproduct_x"].items()},
        byproduct_z={int(q): v for q, v in out["byproduct_z"].items()})
    unitary = np.eye(2)
    for angles in rotations:
        unitary = euler_unitary(angles) @ unitary
    assert fidelity(apply_byproduct(res), unitary @ psi) == pytest.approx(1.0, abs=1e-9)


def _complete_graph(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def test_complete_graph_at_the_live_limit_runs_in_seconds():
    # K20 makes all twenty qubits live at the first step, the widest run the
    # limit allows; the dense oracle takes ~0.25 s of it
    n = mbqc.MAX_QUBITS
    steps = tuple(mbqc.MeasurementStep(q, 0.37 * q) for q in range(n - 1))
    pattern = mbqc.MeasurementPattern(steps, (n - 1,))
    forced = [q % 2 for q in range(n - 1)]
    t0 = time.perf_counter()
    res = mbqc.run_pattern(n, _complete_graph(n), pattern, forced_outcomes=forced)
    assert time.perf_counter() - t0 < 5.0
    ref = dense_run_pattern(n, _complete_graph(n), pattern, forced_outcomes=forced)
    assert np.abs(np.array(res.state) * math.sqrt(res.probability)
                  - ref.state * math.sqrt(ref.probability)).max() < 1e-12


def test_live_limit_names_the_step_and_the_live_count():
    n = mbqc.MAX_QUBITS + 1
    steps = tuple(mbqc.MeasurementStep(q, 0.1 * q) for q in range(n - 1))
    pattern = mbqc.MeasurementPattern(steps, (n - 1,))
    with pytest.raises(ValueError, match=f"step 0 needs qubit {n - 1} live with {n - 1} "
                                         f"others, past the limit of {mbqc.MAX_QUBITS}"):
        mbqc.run_pattern(n, _complete_graph(n), pattern, forced_outcomes=[0] * (n - 1))
    # the same steps on a chain keep two qubits live
    res = mbqc.run_pattern(n, [(q, q + 1) for q in range(n - 1)], pattern,
                           forced_outcomes=[0] * (n - 1))
    assert res.probabilities == pytest.approx([0.5] * (n - 1), abs=1e-12)


def test_pcg64_draws_what_numpy_default_rng_draws():
    for seed in [*range(200), 2**32 - 1, 2**32, 2**63, 2**200 + 12345]:
        gen = mbqc.Pcg64(seed)
        want = np.random.default_rng(seed).random(20).tolist()
        assert [gen.random() for _ in range(20)] == want, seed


def test_pcg64_refuses_a_negative_seed():
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        mbqc.Pcg64(-1)
