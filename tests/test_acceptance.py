"""End-to-end acceptance gate.

Each test evaluates one headline requirement, prints a single
``ACCEPTANCE NN <name>: PASS|FAIL`` line past the capture plumbing, and
then asserts.  Criteria with stated runtime budgets measure wall-clock
and fail when exceeded.  Tolerances are fixed here and must not be
loosened to make a failing build green.
"""

import itertools
import math
import time
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
import scipy.special
from oracles import (DenseTableau, apply_byproduct, check_rounds, edge_union, euler_unitary,
                     linear_cluster_gate, linear_cluster_pattern, packet_moments,
                     pauli_expectation, reference_interlayer_edges, reference_intra_edges,
                     statevector_oracle)

from hexmbqc import electron_dynamics as ed
from hexmbqc import graphstate as gs
from hexmbqc import ionization as ion
from hexmbqc import lattice, mbqc, resources, scheduler

CHAIN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4)]


@pytest.fixture
def report(capsys):
    def _report(num, name, failures):
        ok = not failures
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
            for f in failures[:5]:
                print(f"    - {f}")
        assert ok, f"criterion {num:02d} {name}: {failures[:5]}"
    return _report


def test_01_constant_depth_schedule(report):
    failures = []
    t0 = time.perf_counter()
    for rows, cols in [(7, 7), (22, 22), (70, 70)]:
        arr = lattice.build_hex_array(rows, cols, 1.0)
        for n in (1, 2, 3):
            asg = lattice.decompose_sublattices(arr, n)
            sched = scheduler.build_schedule(asg)
            tag = f"{rows}x{cols} n={n}"
            if len(sched.rounds) != 6:
                failures.append(f"{tag}: {len(sched.rounds)} rounds")
            for k, rnd in enumerate(sched.rounds):
                touched = [s for e in rnd for s in e]
                if len(touched) != len(set(touched)):
                    failures.append(f"{tag}: round {k + 1} is not a matching")
            if edge_union(sched) != lattice.cluster_edges(asg, periodic=False):
                failures.append(f"{tag}: union of rounds != cluster edges")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 10 s budget")
    report(1, "constant-depth-schedule", failures)


def test_02_layer_scaling(report):
    failures = []
    arr = lattice.build_hex_array(7, 7, 1.0)
    for n, expect in [(1, 2), (2, 8), (3, 18)]:
        got = lattice.decompose_sublattices(arr, n).layer_count
        if got != expect:
            failures.append(f"n={n}: {got} layers, expected {expect}")
    report(2, "layer-scaling", failures)


def _random_connected_subcluster(rng, edges_all, max_size=16):
    nbrs: dict[int, set[int]] = {}
    for a, b in edges_all:
        nbrs.setdefault(a, set()).add(b)
        nbrs.setdefault(b, set()).add(a)
    sites = sorted(nbrs)
    size = int(rng.integers(2, max_size + 1))
    start = sites[int(rng.integers(len(sites)))]
    chosen = {start}
    frontier = set(nbrs[start])
    while len(chosen) < size and frontier:
        pick = sorted(frontier)[int(rng.integers(len(frontier)))]
        chosen.add(pick)
        frontier |= nbrs[pick]
        frontier -= chosen
    relabel = {s: i for i, s in enumerate(sorted(chosen))}
    sub_edges = [(relabel[a], relabel[b]) for a, b in edges_all
                 if a in chosen and b in chosen]
    return len(chosen), sub_edges


def _corrupt(rng, rounds, off_target):
    """``rounds`` as lists with one gate dropped, repeated, replaced by an
    ``off_target`` pair or moved to another round, and the kind of change."""
    rounds = [list(rnd) for rnd in rounds]
    full = [k for k, rnd in enumerate(rounds) if rnd]
    k = full[int(rng.integers(len(full)))]
    gate = rounds[k][int(rng.integers(len(rounds[k])))]
    kind = ("drop", "repeat", "off-target", "move")[int(rng.integers(4))]
    if kind in ("drop", "move"):
        rounds[k].remove(gate)
    if kind == "off-target":
        gate = off_target[int(rng.integers(len(off_target)))]
    if kind == "move":  # to any other round
        to = (k + 1 + int(rng.integers(len(rounds) - 1))) % len(rounds)
    else:
        to = int(rng.integers(len(rounds)))
    if kind != "drop":
        rounds[to].insert(int(rng.integers(len(rounds[to]) + 1)), list(gate))
    return kind, rounds


def _audit_trials(rng, trials):
    """``scheduler.audit_rounds``, the verifier ``hexmbqc verify`` runs, on
    corrupted schedules of arrays of at most 16 sites: its failing sites
    must be those whose K_a is not +1 on the statevector of the gates
    applied an odd number of times, and its fault that of
    ``oracles.check_rounds``."""
    cases = []
    for (rows, cols), n, periodic in itertools.product(
            ((1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)), (1, 2), (False, True)):
        arr = lattice.build_hex_array(rows, cols, 1.0)
        try:
            asg = lattice.decompose_sublattices(arr, n)
        except ValueError:  # no full cell
            continue
        target = reference_intra_edges(asg) | reference_interlayer_edges(asg, periodic)
        nbrs = {a: sorted({b for e in target if a in e for b in e} - {a}) for a in arr.sites}
        off = [g for g in itertools.combinations(arr.sites, 2) if g not in target]
        rounds = scheduler.build_schedule(asg, periodic=periodic).rounds
        cases.append((f"{rows}x{cols} n={n} periodic={periodic}", asg, periodic, target,
                      nbrs, off, rounds))
    failures = []
    for trial in range(trials):
        tag, asg, periodic, target, nbrs, off, rounds = cases[int(rng.integers(len(cases)))]
        kind, bad = _corrupt(rng, rounds, off)
        counts = Counter(tuple(sorted(g)) for rnd in bad for g in rnd)
        psi = statevector_oracle([g for g, c in counts.items() if c % 2], len(nbrs))
        want = [a for a in nbrs if abs(pauli_expectation(psi, [a], nbrs[a]) - 1.0) > 1e-10]
        failure, failing, _ = scheduler.audit_rounds(bad, asg, periodic)
        reference = check_rounds(bad, target)
        if failing != want:
            failures.append(f"audit trial {trial} ({tag}, {kind}): failing {failing}, "
                            f"statevector {want}")
        if failure != reference:
            failures.append(f"audit trial {trial} ({tag}, {kind}): {failure!r} against "
                            f"{reference!r}")
    return failures


def test_03_verification_oracle_equivalence(report, rng):
    failures = []
    t0 = time.perf_counter()
    arr = lattice.build_hex_array(7, 7, 1.0)
    asg = lattice.decompose_sublattices(arr, 2)
    edges_all = sorted(lattice.cluster_edges(asg, periodic=False))
    for trial in range(50):
        n, edges = _random_connected_subcluster(rng, edges_all)
        tab = gs.new_plus_state(n)
        for a, b in edges:
            tab.apply_cphase(a, b)
        psi = statevector_oracle(edges, n)
        nbrs = {q: set() for q in range(n)}
        for a, b in edges:
            nbrs[a].add(b)
            nbrs[b].add(a)
        dense_ok = all(
            abs(pauli_expectation(psi, [a], sorted(nbrs[a])) - 1.0) <= 1e-10
            for a in range(n))
        tab_ok = gs.verify_cluster(tab, edges)
        if not (dense_ok and tab_ok):
            failures.append(
                f"trial {trial} (n={n}): dense={dense_ok} tableau={tab_ok}")
        # corrupt one edge: both verifiers must reject
        if edges:
            tab.apply_cphase(*edges[0])
            if gs.verify_cluster(tab, edges):
                failures.append(f"trial {trial}: tableau accepted corruption")
    failures += _audit_trials(rng, 150)
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f} s exceeds 1 min budget")
    report(3, "verification-oracle-equivalence", failures)


def test_04_mbqc_correctness(report, rng):
    failures = []
    worst = 1.0
    for trial in range(100):
        angles = tuple(rng.uniform(-math.pi, math.pi, size=4))
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = v / np.linalg.norm(v)
        target = euler_unitary(angles) @ psi
        for branch in itertools.product((0, 1), repeat=4):
            res = linear_cluster_gate(angles, psi,
                                           forced_outcomes=list(branch))
            out = apply_byproduct(res)
            fid = abs(np.vdot(out, target)) ** 2
            worst = min(worst, fid)
            if fid < 1.0 - 1e-9:
                failures.append(
                    f"trial {trial} branch {branch}: fidelity {fid:.12f}")
    if worst < 1.0 - 1e-9:
        failures.append(f"worst branch fidelity {worst:.3e}")

    # Clifford angle sets: branch probabilities vs the dense stabilizer oracle
    cliff = (0.0, math.pi / 2, math.pi, 3 * math.pi / 2)
    for trial in range(20):
        angles = tuple(cliff[int(k)] for k in rng.integers(0, 4, size=4))
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
                alpha = ((-1) ** mbqc._parity(outcomes, step.s_domain)) \
                    * step.angle + math.pi * mbqc._parity(outcomes,
                                                          step.t_domain)
                k = int(round((alpha % (2 * math.pi)) / (math.pi / 2))) % 4
                basis = "X" if k % 2 == 0 else "Y"
                want = (-1 if k >= 2 else 1) * (1 - 2 * branch[j])
                _, p = tab.measure(step.qubit, basis, forced=want)
                p_tab *= p
                outcomes.append(branch[j])
            if not math.isclose(res.probability, p_tab, abs_tol=1e-12):
                failures.append(
                    f"clifford trial {trial} branch {branch}: "
                    f"{res.probability} vs stabilizer {p_tab}")
    report(4, "mbqc-correctness", failures)


def test_05_discrimination_factor_1600(report):
    failures = []
    s = ion.RateInputs(1e9, {"S": 40.0, "D": 20.0, "G": 10.0})
    d = ion.RateInputs(1e9, {"S": 1.0, "D": 0.5, "G": 0.25})
    ratio = ion.discrimination_ratio(s, d)
    if ratio != 1600.0:
        failures.append(f"three-channel ratio {ratio!r} != 1600.0")
    s1 = ion.RateInputs(1e9, {"S": 40.0})
    d1 = ion.RateInputs(1e9, {"S": 1.0})
    ratio1 = ion.discrimination_ratio(s1, d1)
    if ratio1 != 1600.0:
        failures.append(f"single-channel ratio {ratio1!r} != 1600.0")
    report(5, "discrimination-factor-1600", failures)


def test_06_rate_scaling_laws(report, rng):
    failures = []
    for trial in range(200):
        irr = float(rng.uniform(1e6, 1e12))
        j = {"S": float(rng.uniform(0.05, 60.0))}
        lo, hi = ion.rate_d(ion.RateInputs(irr, j)), ion.rate_d(ion.RateInputs(2 * irr, j))
        if not math.isclose(hi, 16.0 * lo, rel_tol=1e-15):
            failures.append(f"I^4 law broken at trial {trial}")
            break
    for trial in range(200):
        irr = float(rng.uniform(1e6, 1e12))
        k = float(rng.uniform(0.5, 400.0))
        ell = float(rng.uniform(0.01, 2.0))
        res = lambda i: ion.rate_s(  # noqa: E731
            ion.RateInputs(i, {"S": 0.0}, k_resonant=k, l_denominator=ell))
        if not math.isclose(res(2 * irr), 4.0 * res(irr), rel_tol=1e-15):
            failures.append(f"I^2 law broken at trial {trial}")
            break
    cal = ion.load_calibration()
    rate = ion.rate_s(ion.calibrated_inputs(1e9, "s", cal))
    if not 1e9 <= rate <= 1e10:
        failures.append(f"calibrated S rate {rate:.3e} outside [1e9, 1e10]")
    report(6, "rate-scaling-laws", failures)


def test_07_resonance_identification(report):
    failures = []
    table = ion.load_level_table()
    scan = ion.find_resonances(table, (380.0, 410.0), 4, 0.03)
    got = {(h.level, h.photons) for h in scan.hits}
    want = {("4P1/2", 1), ("5S1/2", 2), ("6P1/2", 3), ("6P3/2", 3)}
    if got != want:
        failures.append(f"hit set {sorted(got)} != {sorted(want)}")
    by_key = {(h.level, h.photons): h.wavelength_nm for h in scan.hits}
    for key, nominal in [(("4P1/2", 1), 397.0), (("5S1/2", 2), 383.4),
                         (("6P1/2", 3), 402.8), (("6P3/2", 3), 402.6)]:
        if key in by_key and abs(by_key[key] - nominal) > 0.5:
            failures.append(f"{key}: wavelength {by_key[key]:.3f} nm "
                            f"far from {nominal}")
    if not scan.ionizing_throughout:
        failures.append("4-photon energy fails to clear 11.87 eV threshold")
    report(7, "resonance-identification", failures)


def test_08_irradiance_estimates(report):
    failures = []
    ref = ion.load_rabi_reference()
    quad = ion.quadrupole_irradiance(ref, 2e-9)
    if not 1e8 <= quad <= 3e9:
        failures.append(f"quadrupole {quad:.3e} W/cm2 outside [1e8, 3e9]")
    raman = ion.raman_irradiance(ref, 1e4, 1e-9)
    if not 1e5 / 3.0 <= raman <= 3e5:
        failures.append(f"raman {raman:.3e} W/cm2 outside factor 3 of 1e5")
    report(8, "irradiance-estimates", failures)


def test_09_electron_capture_efficiency(report):
    failures = []
    t0 = time.perf_counter()
    cfg = ed.TrapConfig()  # documented defaults: 512x256, 3 ns reachable
    wp = ed.gaussian_wavepacket(cfg)
    res = ed.propagate(wp, cfg, 3e-9, sample_interval=5e-12)
    elapsed = time.perf_counter() - t0
    last = res.trace.samples[-1]
    single = max(last.captured)
    total = last.total_captured
    if single < 0.85:
        failures.append(f"single-detector capture {single:.4f} < 0.85")
    if total < 0.99:
        failures.append(f"dual-detector capture {total:.4f} < 0.99 at 3 ns")
    prev = 0.0
    for s in res.trace.samples:
        if s.total_captured < prev - 1e-12:
            failures.append("captured probability decreased")
            break
        if s.total_captured + s.norm_remaining > 1.0 + 1e-6:
            failures.append("captured + remaining norm exceeds 1")
            break
        prev = s.total_captured
    if elapsed > 600.0:
        failures.append(f"runtime {elapsed:.0f} s exceeds 10 min budget")
    report(9, "electron-capture-efficiency", failures)


def test_10_propagator_properties(report):
    failures = []
    t = 0.4e-9
    cfg = ed.TrapConfig(points_x=256, points_y=128, omega_e=0.0,
                        absorber_width_frac=0.0, detector_gain=0.0,
                        hbar_scale=640.0)
    sigma0 = math.sqrt(cfg.hbar_eff * t / (2.0 * ed.M_ELECTRON))
    wp = ed.gaussian_wavepacket(cfg, v0=0.0, sigma0=sigma0)
    res = ed.propagate(wp, cfg, t, sample_interval=t)
    norm, _, (sx, sy) = packet_moments(res.wavepacket, cfg)
    expect = sigma0 * math.sqrt(
        1.0 + (cfg.hbar_eff * t / (2 * ed.M_ELECTRON * sigma0**2)) ** 2)
    for label, got in (("x", sx), ("y", sy)):
        rel = abs(got - expect) / expect
        if rel > 1e-4:
            failures.append(f"width law ({label}): rel error {rel:.2e} > 1e-4")
    drift = abs(norm - 1.0)
    if drift >= 1e-6:
        failures.append(f"norm drift {drift:.2e} >= 1e-6")

    saddle = ed.TrapConfig(points_x=256, points_y=128, hbar_scale=320.0,
                           absorber_width_frac=0.0, detector_gain=0.0)
    wp2 = ed.gaussian_wavepacket(saddle, v0=7e3, sigma0=3e-6)
    res2 = ed.propagate(wp2, saddle, 0.5e-9, sample_interval=0.5e-9)
    _, (mx, _), _ = packet_moments(res2.wavepacket, saddle)
    x_cl, _ = ed.classical_trajectory(saddle, 7e3, 0.5e-9)
    rel = abs(mx - x_cl) / abs(x_cl)
    if rel > 5e-3:
        failures.append(f"<x> vs classical: rel error {rel:.2e} > 0.5%")
    report(10, "propagator-properties", failures)


def test_11_mathieu_stability(report):
    failures = []
    q_star = ed.stability_boundary(0.0)
    if abs(q_star - 0.908) > 2e-3:
        failures.append(f"boundary {q_star:.5f} outside 0.908 +/- 0.002")
    # independent oracle: a = 0 crossing of the b_1 characteristic curve
    q_ref = scipy.optimize.brentq(
        lambda q: scipy.special.mathieu_b(1, q), 0.5, 1.5, xtol=1e-10)
    if abs(q_star - q_ref) > 5e-4:
        failures.append(f"boundary {q_star:.6f} vs characteristic-value "
                        f"oracle {q_ref:.6f}")
    kw = dict(v_rf=40.0, r0=0.5e-3, omega_rf=2 * math.pi * 25e6)
    q_ion = ed.mathieu_q(1.0, ed.M_CA40, **kw)
    q_e = ed.mathieu_q(1.0, ed.M_ELECTRON, **kw)
    ratio = q_e / q_ion
    expect = ed.M_CA40 / ed.M_ELECTRON
    if not math.isclose(ratio, expect, rel_tol=1e-12):
        failures.append(f"q ratio {ratio} != mass ratio {expect}")
    # a drive keeping the ion stable leaves the electron far outside zone 1
    q_ion_stable = 0.3
    q_e_same_drive = q_ion_stable * expect
    if not ed.mathieu_stable(0.0, q_ion_stable):
        failures.append("ion q=0.3 misclassified as unstable")
    if ed.mathieu_stable(0.0, q_e_same_drive):
        failures.append(f"electron q={q_e_same_drive:.0f} misclassified "
                        "as stable")
    report(11, "mathieu-stability", failures)


def test_12_resource_arithmetic(report):
    failures = []
    ops = resources.shor_op_count(640)
    if ops != 8_388_608_000:
        failures.append(f"op count {ops} != 8,388,608,000")
    t5 = resources.required_op_time(640, 5 * resources.MONTH_SECONDS)
    if abs(t5 - 1.5e-3) > 0.10 * 1.5e-3:
        failures.append(f"5-month op time {t5:.4e} s outside 1.5 ms +/- 10%")
    t300 = resources.required_op_time(640, 300.0)
    if abs(t300 - 36e-9) > 0.05 * 36e-9:
        failures.append(f"5-minute op time {t300:.4e} s outside 36 ns +/- 5%")
    err = resources.storage_error(10_000, 3e-9, 10.0)
    if not math.isclose(err, 3e-6, rel_tol=1e-12):
        failures.append(f"storage error {err} != 3e-6")
    if err >= 1e-4:
        failures.append(f"storage error {err} not below 1e-4")
    report(12, "resource-arithmetic", failures)
