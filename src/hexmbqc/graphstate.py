"""Stabilizer-tableau engine for cluster-state preparation and checks.

Generators-only binary-symplectic tableau: row ``g`` of a state on ``n``
qubits is a Pauli string stored as X bits, Z bits and a phase bit
(0 -> +, 1 -> -).  CPHASE conjugation, single-qubit Pauli measurement and
stabilizer-group membership (Gaussian elimination over GF(2) with phase
tracking) are enough for every check in this package; destabilizers are
not kept.  ``x`` and ``z`` are stored column-major (Fortran order): a CZ
reads and writes whole columns.  Row operations (measurement, elimination)
walk a row with a stride of n bytes instead.

A cluster state on edge set E is stabilized by K_a = X_a prod_{b~a} Z_b
with + sign for every qubit a.  ``statevector_oracle`` builds the same
state by brute force (CZ network applied to |+>^n) for cross-validation
on up to 16 qubits.

Conventions: qubits are 0-indexed; in statevectors qubit 0 is the most
significant bit of the amplitude index.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

__all__ = [
    "StabilizerTableau",
    "new_plus_state",
    "verify_cluster",
    "statevector_oracle",
    "pauli_expectation",
]

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


class StabilizerTableau:
    """Mutable stabilizer generators of an n-qubit pure state."""

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray):
        self.x = np.array(x, dtype=np.uint8, order="F")
        self.z = np.array(z, dtype=np.uint8, order="F")
        self.phase = np.array(phase, dtype=np.uint8)
        self.n = self.x.shape[1]
        if self.x.shape != (self.n, self.n) or self.z.shape != (self.n, self.n):
            raise ValueError("tableau must hold exactly n generators on n qubits")

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau(self.x, self.z, self.phase)

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
        """Membership of (-1)**sign * sigma(xs, zs) in the stabilizer group.

        Two checks answer without elimination: a Pauli equal to a generator
        is in the group with that generator's sign only (-I is never in the
        group), and one that anticommutes with a generator is outside it.  In
        graph form (x = I, any state built by CZs from |+>^n) one of them
        decides every K_a.
        """
        xb = np.asarray(xs, dtype=bool)
        zb = np.asarray(zs, dtype=bool)
        # a row equal to the Pauli agrees with it on its first X (else Z) qubit
        q = int(np.argmax(xb if xb.any() else zb))
        for r in np.flatnonzero((self.x[:, q] == xb[q]) & (self.z[:, q] == zb[q])):
            if (self.x[r] == xb).all() and (self.z[r] == zb).all():
                return int(self.phase[r]) == sign
        if ((self.x[:, zb].sum(axis=1) + self.z[:, xb].sum(axis=1)) & 1).any():
            return False
        ok, got = self._reduce(xs, zs)
        return ok and got == sign

    def measure(
        self,
        qubit: int,
        basis: str,
        rng: np.random.Generator | None = None,
        forced: int | None = None,
    ) -> tuple[int, float]:
        """Measure a single-qubit Pauli; returns (outcome +/-1, probability).

        Random branches report probability 0.5 and need either ``rng`` or
        ``forced``; deterministic outcomes report probability 1.0 (or 0.0
        if a forced outcome is impossible, leaving the state unchanged).
        """
        if basis not in _PAULI_XZ:
            raise ValueError(f"basis must be X, Y or Z, got {basis!r}")
        if not 0 <= qubit < self.n:
            raise ValueError(f"qubit {qubit} out of range for n={self.n}")
        if forced not in (None, +1, -1):
            raise ValueError("forced outcome must be +1 or -1")
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
                if rng is None:
                    raise ValueError("random measurement branch needs an rng")
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

    def generator_strings(self) -> list[str]:
        """Human-readable generators, e.g. '+XZI'."""
        out = []
        letters = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
        for r in range(self.n):
            body = "".join(
                letters[(int(self.x[r, q]), int(self.z[r, q]))] for q in range(self.n)
            )
            out.append(("-" if self.phase[r] else "+") + body)
        return out

    def to_json(self) -> dict:
        return {"schema_version": 1, "n": self.n, "generators": self.generator_strings()}


def new_plus_state(n: int) -> StabilizerTableau:
    """|+>^n: generator i is X_i with + sign."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    return StabilizerTableau(np.eye(n, dtype=np.uint8, order="F"),
                             np.zeros((n, n), np.uint8, order="F"), np.zeros(n, np.uint8))


def verify_cluster(tableau: StabilizerTableau, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff every K_a = X_a prod_{b~a} Z_b stabilizes the state with + sign."""
    edges = list(edges)
    n = tableau.n
    nbrs: dict[int, set[int]] = {q: set() for q in range(n)}
    for a, b in edges:
        if a == b:
            raise ValueError("self-loop edge")
        for q in (a, b):
            if not 0 <= q < n:
                raise ValueError(f"edge endpoint {q} out of range for n={n}")
        nbrs[a].add(b)
        nbrs[b].add(a)
    for a in range(n):
        xs = np.zeros(n, dtype=np.uint8)
        zs = np.zeros(n, dtype=np.uint8)
        xs[a] = 1
        for b in nbrs[a]:
            zs[b] = 1
        if not tableau.contains(xs, zs, sign=0):
            return False
    return True


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
