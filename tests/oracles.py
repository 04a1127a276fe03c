"""Reference implementations the tests compare the library against.

``DenseTableau`` is the stabilizer tableau as two dense n x n uint8
matrices, with row-by-row GF(2) elimination and the rowsum phase rule
written out per qubit; ``statevector_oracle`` and ``pauli_expectation``
build and probe the dense state vector of a graph state on up to 16
qubits.  In statevectors qubit 0 is the most significant bit of the
amplitude index.  ``adjacency`` lists the trap channels of a hex array and
``channel_distance`` measures a shuttle path by breadth-first search over
them; ``reference_keys`` lists a block's site keys in id order by
enumerating its hexagons' vertices, apart from the lattice's arithmetic.
``has_full_cell`` scans an array's windows for one full elementary
cell of the scaled decomposition, and ``reference_layers`` numbers each
site's layer by finding its coset in ``layer_labels``, the boustrophedon
order of the n x n coset grid listed row by row.
``reference_intra_edges`` and ``reference_interlayer_edges`` are
the 3D cluster's edge sets found by coordinate lookup, apart from the
lattice's runs, and ``reference_partners`` each site's three
forward partners the same way; ``schedule_rounds`` is the six-round
schedule found by classifying each of those edges by its endpoints'
coordinates and reference layers, and ``edge_union`` the gates of a
schedule as one set.
``check_rounds`` is the schedule's structural check written over edge
sets, the reference for ``scheduler.audit_rounds``' fault messages.
``packet_psi`` and ``packet_moments`` read the grid amplitudes, norm, mean
position and widths of a product wavepacket from its two factors.
``dense_run_pattern`` runs a measurement pattern on all 2**n amplitudes at
once, every CZ applied before the first measurement: the reference for
``mbqc.run_pattern``, which holds only the live qubits.

The five-qubit linear cluster implements an arbitrary Euler rotation:
measuring qubits 0..3 of the chain 0-1-2-3-4 at nominal angles
(a0, a1, a2, a3) with s_j = m_{j-1} and t_j = m_{j-2} leaves qubit 4 in

    X**m3 Z**m2  Rx(-a3) Rz(-a2) Rx(-a1) Rz(-a0) |psi>.

``linear_cluster_pattern`` is that pattern, ``linear_cluster_gate`` runs it
through ``mbqc.run_pattern``, ``apply_byproduct`` undoes the recorded
byproduct Paulis and ``euler_unitary`` is the rotation to compare with.
``pattern_to_dict`` writes a pattern, and an input state if one is given, as
the JSON document that ``mbqc.pattern_from_dict`` reads.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import deque
from collections.abc import Iterable

import numpy as np

from hexmbqc import mbqc
from hexmbqc.scheduler import ROUND_NAMES

_PAULI_XZ = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def _g_exponents(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """Per-qubit exponent of i picked up when multiplying sigma(x1,z1) by
    sigma(x2,z2), in the standard rowsum convention (values -1, 0, +1)."""
    x1 = x1.astype(np.int8)
    z1 = z1.astype(np.int8)
    x2 = x2.astype(np.int8)
    z2 = z2.astype(np.int8)
    out = np.zeros_like(x1)
    # x1=1, z1=1 (Y): z2 - x2
    m = (x1 == 1) & (z1 == 1)
    out[m] = (z2 - x2)[m]
    # x1=1, z1=0 (X): z2 * (2*x2 - 1)
    m = (x1 == 1) & (z1 == 0)
    out[m] = (z2 * (2 * x2 - 1))[m]
    # x1=0, z1=1 (Z): x2 * (1 - 2*z2)
    m = (x1 == 0) & (z1 == 1)
    out[m] = (x2 * (1 - 2 * z2))[m]
    return out


class DenseTableau:
    """Stabilizer generators of an n-qubit pure state, one uint8 per bit."""

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray):
        self.x = np.array(x, dtype=np.uint8)
        self.z = np.array(z, dtype=np.uint8)
        self.phase = np.array(phase, dtype=np.uint8)
        self.n = self.x.shape[1]
        if self.x.shape != (self.n, self.n) or self.z.shape != (self.n, self.n):
            raise ValueError("tableau must hold exactly n generators on n qubits")

    @classmethod
    def plus_state(cls, n: int) -> "DenseTableau":
        return cls(np.eye(n, dtype=np.uint8), np.zeros((n, n), np.uint8), np.zeros(n, np.uint8))

    def copy(self) -> "DenseTableau":
        return DenseTableau(self.x, self.z, self.phase)

    def _mul_into(self, dst: int, xs: np.ndarray, zs: np.ndarray, ps: int) -> None:
        """Row dst <- row dst * (xs, zs, ps), tracking the real sign."""
        g = int(_g_exponents(self.x[dst], self.z[dst], xs, zs).sum())
        total = (2 * int(self.phase[dst]) + 2 * ps + g) % 4
        if total not in (0, 2):
            raise AssertionError("non-Hermitian product of stabilizer rows")
        self.phase[dst] = total // 2
        self.x[dst] ^= xs
        self.z[dst] ^= zs

    def apply_cphase(self, a: int, b: int) -> None:
        """Conjugate every generator by CPHASE on qubits (a, b)."""
        if a == b:
            raise ValueError("CPHASE needs two distinct qubits")
        for q in (a, b):
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
        xa, za = self.x[:, a], self.z[:, a]
        xb, zb = self.x[:, b], self.z[:, b]
        # sign flips when one qubit carries Y and the other X
        self.phase ^= xa & xb & (za ^ zb)
        za ^= xb
        zb ^= xa

    def _reduce(self, xs: np.ndarray, zs: np.ndarray) -> tuple[bool, int]:
        """Reduce the Pauli (xs, zs, +) against the generator group.

        Returns (in_group, sign) where sign is the phase bit such that
        (-1)**sign * (xs, zs) is a product of generators.  in_group is
        False when the Pauli is outside the +/- stabilizer group.
        """
        work = self.copy()
        tx = xs.astype(np.uint8).copy()
        tz = zs.astype(np.uint8).copy()
        tp = 0

        rows = list(range(work.n))
        used: list[int] = []
        for col in range(2 * work.n):
            bits = work.x[:, col] if col < work.n else work.z[:, col - work.n]
            pivot = next((r for r in rows if r not in used and bits[r]), None)
            if pivot is None:
                continue
            used.append(pivot)
            for r in rows:
                if r != pivot and bits[r]:
                    work._mul_into(r, work.x[pivot], work.z[pivot], int(work.phase[pivot]))
            tbit = tx[col] if col < work.n else tz[col - work.n]
            if tbit:
                g = int(_g_exponents(tx, tz, work.x[pivot], work.z[pivot]).sum())
                total = (2 * tp + 2 * int(work.phase[pivot]) + g) % 4
                if total not in (0, 2):
                    return False, 0
                tp = total // 2
                tx ^= work.x[pivot]
                tz ^= work.z[pivot]
        if tx.any() or tz.any():
            return False, 0
        return True, tp

    def contains(self, xs: np.ndarray, zs: np.ndarray, sign: int = 0) -> bool:
        """Membership of (-1)**sign * sigma(xs, zs) in the stabilizer group,
        by elimination."""
        ok, got = self._reduce(xs, zs)
        return ok and got == sign

    def measure(
        self,
        qubit: int,
        basis: str,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        """Measure a single-qubit Pauli; returns (outcome +/-1, probability)."""
        xp, zp = _PAULI_XZ[basis]
        xs = np.zeros(self.n, dtype=np.uint8)
        zs = np.zeros(self.n, dtype=np.uint8)
        xs[qubit] = xp
        zs[qubit] = zp

        anti = ((self.x[:, qubit] & zp) ^ (self.z[:, qubit] & xp)).astype(bool)
        if anti.any():
            if forced is not None:
                outcome = forced
            else:
                outcome = 1 if rng.integers(2) == 0 else -1
            p = int(np.flatnonzero(anti)[0])
            for r in np.flatnonzero(anti)[1:]:
                self._mul_into(int(r), self.x[p], self.z[p], int(self.phase[p]))
            self.x[p] = xs
            self.z[p] = zs
            self.phase[p] = 0 if outcome == 1 else 1
            return outcome, 0.5

        ok, sign = self._reduce(xs, zs)
        if not ok:
            raise AssertionError("commuting Pauli outside the stabilizer group of a pure state")
        outcome = 1 if sign == 0 else -1
        if forced is not None and forced != outcome:
            return forced, 0.0
        return outcome, 1.0


def statevector_oracle(edges: Iterable[tuple[int, int]], n: int) -> np.ndarray:
    """Dense cluster state on n <= 16 qubits: CZ network applied to |+>^n.

    Amplitude index bit order: qubit 0 is the most significant bit.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if n > 16:
        raise ValueError(f"statevector oracle capped at 16 qubits, got n={n}")
    psi = np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    idx = np.arange(2**n)
    for a, b in edges:
        if a == b:
            raise ValueError("self-loop edge")
        for q in (a, b):
            if not 0 <= q < n:
                raise ValueError(f"edge endpoint {q} out of range for n={n}")
        mask_a = (idx >> (n - 1 - a)) & 1
        mask_b = (idx >> (n - 1 - b)) & 1
        psi[(mask_a & mask_b).astype(bool)] *= -1.0
    return psi


def pauli_expectation(
    state: np.ndarray, x_sites: Iterable[int], z_sites: Iterable[int]
) -> float:
    """<psi| prod X_a prod Z_b |psi> for a statevector, X and Z sites disjoint."""
    n = int(round(math.log2(state.size)))
    if 2**n != state.size:
        raise ValueError("state length must be a power of two")
    xs = set(x_sites)
    zs = set(z_sites)
    if xs & zs:
        raise ValueError("X and Z site sets must be disjoint")
    idx = np.arange(state.size)
    flip = 0
    for a in xs:
        flip |= 1 << (n - 1 - a)
    phase = np.ones(state.size, dtype=np.float64)
    for b in zs:
        bit = (idx >> (n - 1 - b)) & 1
        phase *= 1.0 - 2.0 * bit
    transformed = phase * state
    if flip:
        transformed = transformed[idx ^ flip]
    return float(np.real(np.vdot(state, transformed)))


@functools.lru_cache(maxsize=None)
def reference_keys(rows: int, cols: int) -> tuple[tuple[int, int, int], ...]:
    """The ``(f, i, j)`` keys of a rows x cols block, listed by enumerating
    every hexagon's six vertices and sorted: site s is the s-th key."""
    vertices = set()
    for i in range(cols):
        for j in range(rows):
            vertices |= {(0, i, j), (1, i, j), (0, i + 1, j), (1, i + 1, j - 1),
                         (0, i + 1, j - 1), (1, i, j - 1)}
    return tuple(sorted(vertices))


def reference_index(array) -> dict[tuple[int, int, int], int]:
    """Key -> site id of ``array``, from ``reference_keys``."""
    return {k: s for s, k in enumerate(reference_keys(array.rows, array.cols))}


def adjacency(array) -> dict[int, tuple[int, ...]]:
    """Trap-channel (honeycomb) neighbors of each site: A(i, j) joins B(i, j),
    B(i-1, j) and B(i, j-1) where present."""
    out = {}
    index = reference_index(array)
    for (f, i, j), s in index.items():
        if f == 0:
            cand = [(1, i, j), (1, i - 1, j), (1, i, j - 1)]
        else:
            cand = [(0, i, j), (0, i + 1, j), (0, i, j + 1)]
        out[s] = tuple(index[k] for k in cand if k in index)
    return out


def has_full_cell(array, n: int) -> bool:
    """Whether some n x n block of (i, j) offsets is present for both
    families, by trying every window inside the keys' bounding box."""
    index = reference_index(array)
    imin = min(k[1] for k in index)
    imax = max(k[1] for k in index)
    jmin = min(k[2] for k in index)
    jmax = max(k[2] for k in index)
    return any(all((f, i0 + p, j0 + q) in index
                   for f in (0, 1) for p in range(n) for q in range(n))
               for i0 in range(imin, imax - n + 2) for j0 in range(jmin, jmax - n + 2))


@functools.lru_cache(maxsize=None)
def layer_labels(n: int) -> tuple[tuple[int, tuple[int, int]] | None, ...]:
    """Layer -> (family, (p, q)) coset label, index 0 unused: the cosets in
    boustrophedon order (row p forward for even p, backward for odd p),
    families A then B of each."""
    order = []
    for p in range(n):
        qs = range(n) if p % 2 == 0 else range(n - 1, -1, -1)
        order.extend((p, q) for q in qs)
    return (None,) + tuple((f, pq) for pq in order for f in (0, 1))


def reference_layers(assign) -> list[int]:
    """Layer of each site in id order: the index of its coset
    (family, (i mod n, j mod n)) in ``layer_labels``."""
    n = assign.n
    number = {label: ell for ell, label in enumerate(layer_labels(n)) if label is not None}
    keys = reference_keys(assign.array.rows, assign.array.cols)
    return [number[(f, (i % n, j % n))] for f, i, j in keys]


def reference_intra_edges(assign) -> set[tuple[int, int]]:
    """In-layer cluster edges by lookup: each site joins the sites of its own
    family at (i + n, j) and (i, j + n)."""
    edges: set[tuple[int, int]] = set()
    index = reference_index(assign.array)
    n = assign.n
    for (f, i, j), s in index.items():
        for di, dj in ((n, 0), (0, n)):
            other = index.get((f, i + di, j + dj))
            if other is not None:
                edges.add((s, other) if s < other else (other, s))
    return edges


def _next_layer_step(assign, layer: int) -> tuple[int, int, int]:
    """Family and nearest (di, dj) taking layer ``layer`` onto the next one
    (cyclically), from the two layers' coset labels."""
    n = assign.n
    labels = layer_labels(n)
    f0, (p0, q0) = labels[layer]
    f1, (p1, q1) = labels[layer % (2 * n * n) + 1]

    def wrap(delta: int) -> int:
        delta %= n
        return delta - n if delta > n // 2 else delta

    return f1, wrap(p1 - p0), wrap(q1 - q0)


def reference_interlayer_edges(assign, periodic: bool) -> set[tuple[int, int]]:
    """One edge per (site, nearest coset translate in the next layer); with
    ``periodic`` the last layer links back to the first, and for n=1 that
    wrap repeats the forward edges and the set collapses it."""
    index = reference_index(assign.array)
    edges: set[tuple[int, int]] = set()
    last = assign.layer_count if periodic else assign.layer_count - 1
    shift = {ell: _next_layer_step(assign, ell) for ell in range(1, last + 1)}
    for s, ((f, i, j), ell) in enumerate(zip(index, reference_layers(assign))):
        if ell > last:
            continue
        f1, di, dj = shift[ell]
        other = index.get((f1, i + di, j + dj))
        if other is not None:
            edges.add((s, other) if s < other else (other, s))
    return edges


def reference_partners(assign, periodic: bool) -> list[tuple[int, int, int]]:
    """Each site's (u, v, next-layer) partner in id order, -1 where absent,
    by coordinate lookup: (f, i + n, j), (f, i, j + n), and the site one
    ``_next_layer_step`` away.  The last layer has a next layer only with
    ``periodic``, and then not for n=1, whose wrap would repeat the
    forward edges."""
    index, n = reference_index(assign.array), assign.n
    last = assign.layer_count if periodic and n > 1 else assign.layer_count - 1
    shift = {ell: _next_layer_step(assign, ell) for ell in range(1, last + 1)}
    partners = []
    for (f, i, j), ell in zip(index, reference_layers(assign)):
        f1, di, dj = shift.get(ell, (None, 0, 0))
        partners.append((index.get((f, i + n, j), -1), index.get((f, i, j + n), -1),
                         index.get((f1, i + di, j + dj), -1)))
    return partners


def schedule_rounds(assign, periodic: bool = False) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Rounds of the six-round schedule from the reference edge sets: an
    in-layer edge goes by its direction and the parity of its source's
    in-layer coordinate (i // n or j // n), an interlayer edge by its source
    layer parity (the wrap's source is the last layer)."""
    rounds: list[set[tuple[int, int]]] = [set() for _ in range(6)]
    n, keys = assign.n, reference_keys(assign.array.rows, assign.array.cols)
    layer = reference_layers(assign)
    for a, b in reference_intra_edges(assign):
        (_, ai, aj), (_, bi, bj) = keys[a], keys[b]
        if aj == bj:  # u step
            src = min(ai, bi) // n
            rounds[0 if src % 2 == 0 else 1].add((a, b))
        else:  # v step
            src = min(aj, bj) // n
            rounds[2 if src % 2 == 0 else 3].add((a, b))
    for a, b in sorted(reference_interlayer_edges(assign, periodic)):
        la, lb = layer[a], layer[b]
        # source = lower layer, except for the wrap edge (last -> first)
        if {la, lb} == {1, assign.layer_count} and assign.layer_count > 2:
            src = assign.layer_count
        else:
            src = min(la, lb)
        rounds[4 if src % 2 == 1 else 5].add((a, b))
    return tuple(tuple(sorted(rnd)) for rnd in rounds)


def edge_union(schedule) -> set[tuple[int, int]]:
    """Every gate of ``schedule``, in one set."""
    return {e for rnd in schedule.rounds for e in rnd}


def check_rounds(rounds, target: set[tuple[int, int]]) -> str | None:
    """None if ``rounds`` is a valid schedule of the edge set ``target``.

    Valid means exactly six rounds, each round site-disjoint, no gate
    listed twice, and the gates together exactly ``target`` (sorted pairs).
    Otherwise the first fault found, naming its round and ion or gate.
    """
    if len(rounds) != len(ROUND_NAMES):
        return f"{len(rounds)} rounds, expected {len(ROUND_NAMES)}"
    seen: set[tuple[int, int]] = set()
    for k, (name, rnd) in enumerate(zip(ROUND_NAMES, rounds), start=1):
        busy: set[int] = set()
        for a, b in rnd:
            gate = (min(a, b), max(a, b))
            if gate in seen:
                return f"round {k} ({name}): gate {list(gate)} listed twice"
            if gate not in target:
                return f"round {k} ({name}): gate {list(gate)} is not a cluster edge"
            for ion in gate:
                if ion in busy:
                    return f"round {k} ({name}): ion {ion} is in two gates"
                busy.add(ion)
            seen.add(gate)
    missing = sorted(target - seen)
    if missing:
        return f"cluster edge {list(missing[0])} is in no round ({len(missing)} missing)"
    return None


def channel_distance(array, a: int, b: int) -> float:
    """Shuttling distance between two sites: hops along trap channels times d."""
    if a == b:
        return 0.0
    nbrs = adjacency(array)
    seen = {a: 0}
    queue = deque([a])
    while queue:
        cur = queue.popleft()
        for nb in nbrs[cur]:
            if nb not in seen:
                seen[nb] = seen[cur] + 1
                if nb == b:
                    return seen[nb] * array.d
                queue.append(nb)
    raise ValueError(f"sites {a} and {b} are not connected")


def packet_psi(wp) -> np.ndarray:
    """Complex amplitudes psi_x(x) psi_y(y) on the grid, shape (points_x, points_y)."""
    return np.outer(wp.psi_x, wp.psi_y)


def packet_moments(wp, config) -> tuple[float, tuple[float, float], tuple[float, float]]:
    """Norm squared, mean position (x, y) and widths (x, y) of a product
    wavepacket; each axis's moments are of its factor's normalised |psi|^2."""
    norm, means, widths = 1.0, [], []
    for psi, axis, step in ((wp.psi_x, config.x_axis(), config.dx),
                            (wp.psi_y, config.y_axis(), config.dy)):
        norm *= float(np.vdot(psi, psi).real * step)
        p = np.abs(psi) ** 2 / np.sum(np.abs(psi) ** 2)
        m = p @ axis
        means.append(float(m))
        widths.append(float(math.sqrt(p @ (axis - m) ** 2)))
    return norm, tuple(means), tuple(widths)


def apply_byproduct(result: mbqc.PatternResult) -> np.ndarray:
    """Undo the recorded byproduct Paulis on the residual state."""
    k = len(result.outputs)
    psi = np.asarray(result.state, dtype=np.complex128).reshape((2,) * k)
    for pos, q in enumerate(result.outputs):
        if result.byproduct_z.get(q, 0):
            sl = [slice(None)] * k
            sl[pos] = 1
            psi = psi.copy()
            psi[tuple(sl)] *= -1.0
        if result.byproduct_x.get(q, 0):
            psi = np.flip(psi, axis=pos)
    return psi.reshape(-1)


def dense_run_pattern(
    n: int,
    edges: list[tuple[int, int]],
    pattern: mbqc.MeasurementPattern,
    input_state: np.ndarray | None = None,
    input_qubits: tuple[int, ...] = (),
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> mbqc.PatternResult:
    """``mbqc.run_pattern`` on all 2**n amplitudes at once: inputs (x) |+>
    on the rest, every CZ along ``edges``, then the pattern's measurements.

    ``input_state`` holds amplitudes on ``input_qubits`` (the first input
    qubit = most significant bit); remaining qubits start in |+>.
    """
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    if n > mbqc.MAX_QUBITS:
        raise ValueError(f"dense oracle capped at {mbqc.MAX_QUBITS} qubits, got {n}")
    pattern.validate(n)
    if forced_outcomes is not None:
        if len(forced_outcomes) != len(pattern.steps):
            raise ValueError("forced_outcomes must give one bit per step")
        if any(b not in (0, 1) for b in forced_outcomes):
            raise ValueError("forced outcomes are bits")
    elif rng is None and pattern.steps:
        raise ValueError("need an rng (or forced_outcomes) to sample measurements")

    # initial product state
    if input_state is None:
        if input_qubits:
            raise ValueError("input_qubits given without input_state")
        psi = np.full((2,) * n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    else:
        k = len(input_qubits)
        amp = np.asarray(input_state, dtype=np.complex128).reshape((2,) * k)
        nrm = np.linalg.norm(amp)
        if not math.isclose(nrm, 1.0, rel_tol=0, abs_tol=1e-9):
            raise ValueError(f"input state norm {nrm} != 1")
        if len(set(input_qubits)) != k:
            raise ValueError("duplicate input qubit")
        if any(not 0 <= q < n for q in input_qubits):
            raise ValueError(f"input qubits {list(input_qubits)} outside 0..{n - 1}")
        rest = [q for q in range(n) if q not in input_qubits]
        plus = np.full((2,) * len(rest), 2.0 ** (-len(rest) / 2.0), dtype=np.complex128)
        psi = np.multiply.outer(amp, plus)
        # axis i holds qubit order[i]; move it to axis order[i]
        order = list(input_qubits) + rest
        psi = np.moveaxis(psi, range(n), order)

    for a, b in edges:
        if a == b:
            raise ValueError("self-loop edge")
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"edge ({a}, {b}) has an endpoint outside 0..{n - 1}")
        sl = [slice(None)] * n
        sl[a] = 1
        sl[b] = 1
        psi[tuple(sl)] *= -1.0

    axis_of = {q: q for q in range(n)}  # qubit -> current axis
    outcomes: list[int] = []
    probs: list[float] = []

    for j, st in enumerate(pattern.steps):
        s = mbqc._parity(outcomes, st.s_domain)
        t = mbqc._parity(outcomes, st.t_domain)
        adapted = (-1.0) ** s * st.angle + math.pi * t
        ax = axis_of[st.qubit]
        a0 = np.take(psi, 0, axis=ax)
        a1 = np.take(psi, 1, axis=ax)
        phase = cmath.exp(-1j * adapted)
        branch0 = (a0 + phase * a1) / math.sqrt(2.0)
        p0 = float(np.sum(np.abs(branch0) ** 2))
        p0 = min(max(p0, 0.0), 1.0)
        # snap projector dust so impossible branches report exactly 0 / 1
        if p0 < 1e-14:
            p0 = 0.0
        elif p0 > 1.0 - 1e-14:
            p0 = 1.0
        if forced_outcomes is not None:
            m = forced_outcomes[j]
        else:
            m = 0 if rng.random() < p0 else 1
        if m == 0:
            post, pm = branch0, p0
        else:
            post = (a0 - phase * a1) / math.sqrt(2.0)
            pm = 1.0 - p0 if p0 in (0.0, 1.0) else min(float(np.sum(np.abs(post) ** 2)), 1.0)
        if pm > 0.0:
            psi = post / math.sqrt(pm)
        else:
            psi = post  # dead branch; probability 0 recorded
        outcomes.append(m)
        probs.append(pm)
        del axis_of[st.qubit]
        for q in axis_of:
            if axis_of[q] > ax:
                axis_of[q] -= 1

    # order residual axes as pattern.outputs
    perm = [axis_of[q] for q in pattern.outputs]
    psi = np.transpose(psi, perm) if perm else psi
    state = psi.reshape(-1)

    bx = {q: 0 for q in pattern.outputs}
    bz = {q: 0 for q in pattern.outputs}
    for c in pattern.corrections:
        bit = mbqc._parity(outcomes, c.domain)
        if c.kind == "X":
            bx[c.qubit] ^= bit
        else:
            bz[c.qubit] ^= bit

    return mbqc.PatternResult(
        outcomes=outcomes,
        probabilities=probs,
        state=state,
        outputs=pattern.outputs,
        byproduct_x=bx,
        byproduct_z=bz,
    )


def euler_unitary(angles: tuple[float, float, float, float]) -> np.ndarray:
    """Rx(-a3) Rz(-a2) Rx(-a1) Rz(-a0): the gate realized by the 5-qubit chain."""
    a0, a1, a2, a3 = angles

    def rz(t):
        return np.array([[1.0, 0.0], [0.0, cmath.exp(1j * t)]], dtype=np.complex128)

    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    rx = lambda t: h @ rz(t) @ h
    return rx(-a3) @ rz(-a2) @ rx(-a1) @ rz(-a0)


def linear_cluster_pattern(angles: tuple[float, float, float, float]) -> mbqc.MeasurementPattern:
    """Pattern for the 5-qubit chain gate with standard feedforward."""
    steps = []
    for j, a in enumerate(angles):
        s_dom = frozenset({j - 1}) if j >= 1 else frozenset()
        t_dom = frozenset({j - 2}) if j >= 2 else frozenset()
        steps.append(mbqc.MeasurementStep(qubit=j, angle=a, s_domain=s_dom, t_domain=t_dom))
    return mbqc.MeasurementPattern(
        steps=tuple(steps),
        outputs=(4,),
        corrections=(
            mbqc.Correction(qubit=4, kind="X", domain=frozenset({3})),
            mbqc.Correction(qubit=4, kind="Z", domain=frozenset({2})),
        ),
    )


def pattern_to_dict(n: int, edges: list[tuple[int, int]],
                    pattern: mbqc.MeasurementPattern,
                    input_state: Iterable[complex] | None = None,
                    input_qubits: tuple[int, ...] = ()) -> dict:
    """The JSON pattern document that ``mbqc.pattern_from_dict`` reads back
    as ``(n, edges, pattern, input_state, input_qubits)``; an ``input`` block
    holds the amplitudes as ``[re, im]`` pairs, and is left out without an
    ``input_state``."""
    doc = {
        "schema_version": 1,
        "n": n,
        "edges": [list(e) for e in edges],
        "steps": [
            {
                "qubit": st.qubit,
                "angle": st.angle,
                "s_domain": sorted(st.s_domain),
                "t_domain": sorted(st.t_domain),
            }
            for st in pattern.steps
        ],
        "outputs": list(pattern.outputs),
        "corrections": [
            {"qubit": c.qubit, "kind": c.kind, "domain": sorted(c.domain)}
            for c in pattern.corrections
        ],
    }
    if input_state is not None:
        doc["input"] = {"qubits": list(input_qubits),
                        "amplitudes": [[complex(a).real, complex(a).imag] for a in input_state]}
    return doc


def linear_cluster_gate(
    angles: tuple[float, float, float, float],
    input_state: np.ndarray,
    rng: np.random.Generator | None = None,
    forced_outcomes: list[int] | None = None,
) -> mbqc.PatternResult:
    """Run the universal single-qubit gate on the 5-qubit linear cluster.

    After undoing the recorded byproduct, the residual equals
    ``euler_unitary(angles) @ input_state`` up to global phase, on every
    outcome branch.
    """
    edges = [(0, 1), (1, 2), (2, 3), (3, 4)]
    return mbqc.run_pattern(
        5,
        edges,
        linear_cluster_pattern(angles),
        input_state=np.asarray(input_state, dtype=np.complex128),
        input_qubits=(0,),
        rng=rng,
        forced_outcomes=forced_outcomes,
    )
