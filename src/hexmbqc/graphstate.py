"""Stabilizer-tableau engine for cluster-state preparation and checks.

Generators-only binary-symplectic tableau: generator ``g`` of a state on
``n`` qubits is a Pauli string of X bits, Z bits and a phase bit (0 -> +,
1 -> -).  CPHASE conjugation, single-qubit Pauli measurement and
stabilizer-group membership are enough for every check in this package;
destabilizers are not kept.

Storage is the CHP layout (Aaronson & Gottesman, quant-ph/0406196)
transposed for column updates: qubit q's X column and Z column are each one
bitset over the generators, bit g in word g // 64 of row q of an
(n, ceil(n/64)) uint64 array.  The tableau costs about n/4 bytes per qubit
(25 MB at 10 080 sites).  ``x`` and ``z`` are read-only (n, n) 0/1 copies
[generator, qubit], unpacked on each access; ``phase`` is a plain writable
uint8 vector.

A tableau built from |+>^n by CZs is in graph form: x = I and z symmetric
(the adjacency matrix), because a CZ never writes x.  The tableau keeps
that as a flag, set by ``new_plus_state`` or found by the constructor and
cleared by a measurement that changes the state.  In graph form qubit b's X
column is the single bit b, so CZ(a, b) flips bit b of a's Z column and bit
a of b's: two one-word XORs whatever n, about 1 us a gate from Python.
Outside it a CZ is two XORs of ceil(n/64) words plus a sign term.  In graph
form a Pauli that commutes with every generator and has a single X, on
qubit a, is +/- the generator a, so its sign is ``phase[a]``; this decides
every cluster stabilizer K_a = X_a prod_{b~a} Z_b.  Any other membership
question is solved by GF(2) elimination over the packed columns, one masked
XOR per pivot, with the sign from CHP's rowsum.  Qubits are 0-indexed.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["StabilizerTableau", "new_plus_state", "verify_cluster"]

_PAULI_XZ = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_WORD = np.dtype("<u8")
_BIT = np.uint64(1) << np.arange(64, dtype=_WORD)  # _BIT[k]: bit k of a word
# CHP's g: exponent of i in sigma(x1, z1) sigma(x2, z2) for one qubit,
# indexed by 8*x1 + 4*z1 + 2*x2 + z2 (sigma(1, 1) = Y)
_G = np.array([0, 0, 0, 0, 0, 0, 1, -1, 0, -1, 0, 1, 0, 1, -1, 0], dtype=np.int64)


def _pack(bits: np.ndarray) -> np.ndarray:
    """(..., n) 0/1 array -> (..., ceil(n/64)) words, bit g in word g // 64."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=-1, bitorder="little")
    words = np.zeros(packed.shape[:-1] + (-(-packed.shape[-1] // 8) * 8,), np.uint8)
    words[..., :packed.shape[-1]] = packed
    return words.view(_WORD)


def _unpack(words: np.ndarray, n: int) -> np.ndarray:
    """(..., W) words -> (..., n) uint8 0/1 array; the inverse of ``_pack``."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=n, bitorder="little")


def _dense(cols: np.ndarray, n: int) -> np.ndarray:
    """Packed columns -> a new read-only (n, n) 0/1 copy indexed [generator, qubit]."""
    out = _unpack(cols, n).T
    out.flags.writeable = False
    return out


def _gen_bits(cols: np.ndarray, g) -> np.ndarray:
    """Bit of generator g (an int, or an index array) in every column."""
    g = np.asarray(g, dtype=np.uint64)
    return ((cols[:, g >> 6] >> (g & 63)) & 1).astype(np.uint8)


def _support(bits) -> np.ndarray:
    """Indices of the nonzero entries (nonzero on bool is ~8x faster than on uint8)."""
    return np.asarray(bits, dtype=bool).nonzero()[0]


def _rowsum_exponent(x1, z1, x2, z2) -> np.ndarray:
    """Exponent of i, summed over the last axis, in sigma(x1, z1) sigma(x2, z2)."""
    return _G[(x1 << 3) | (z1 << 2) | (x2 << 1) | z2].sum(axis=-1)


class StabilizerTableau:
    """Mutable stabilizer generators of an n-qubit pure state, bit-packed."""

    def __init__(self, x: np.ndarray, z: np.ndarray, phase: np.ndarray):
        x, z = np.asarray(x, dtype=np.uint8), np.asarray(z, dtype=np.uint8)
        n = x.shape[-1]
        if x.shape != (n, n) or z.shape != (n, n):
            raise ValueError("tableau must hold exactly n generators on n qubits")
        graph_form = (np.count_nonzero(x) == n and bool(x.diagonal().all())
                      and bool((z == z.T).all()))
        self._adopt(_pack(x.T), _pack(z.T), np.array(phase, dtype=np.uint8), graph_form)

    def _adopt(self, xc, zc, phase, graph_form: bool) -> "StabilizerTableau":
        self.n = xc.shape[0]
        self._xc, self._zc, self.phase, self._graph_form = xc, zc, phase, graph_form
        return self

    x = property(lambda self: _dense(self._xc, self.n),
                 doc="X bits, a read-only (n, n) 0/1 copy unpacked on each access.")
    z = property(lambda self: _dense(self._zc, self.n),
                 doc="Z bits, a read-only (n, n) 0/1 copy unpacked on each access.")

    def copy(self) -> "StabilizerTableau":
        return StabilizerTableau.__new__(StabilizerTableau)._adopt(
            self._xc.copy(), self._zc.copy(), self.phase.copy(), self._graph_form)

    def apply_cphase(self, a: int, b: int) -> None:
        """Conjugate every generator by CPHASE on qubits (a, b)."""
        if a == b:
            raise ValueError("CPHASE needs two distinct qubits")
        for q in (a, b):
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
        if self._graph_form:  # x = I: qubit b's X column is the single bit b
            self._zc[a, b >> 6] ^= _BIT[b & 63]
            self._zc[b, a >> 6] ^= _BIT[a & 63]
            return
        xa, za = self._xc[a], self._zc[a]
        xb, zb = self._xc[b], self._zc[b]
        both = xa & xb
        if both.any():
            # sign flips when one qubit carries Y and the other X
            self.phase ^= _unpack(both & (za ^ zb), self.n)
        za ^= xb
        zb ^= xa

    def _mul_rows(self, rows: np.ndarray, p: int) -> None:
        """Generator p multiplied into each generator in ``rows`` (p not among
        them): one masked XOR per column of p's support, signs by rowsum."""
        px, pz = _gen_bits(self._xc, p), _gen_bits(self._zc, p)
        support = _support(px | pz)
        g = _rowsum_exponent(_unpack(self._xc[support], self.n)[:, rows].T,
                             _unpack(self._zc[support], self.n)[:, rows].T,
                             px[support], pz[support])
        total = (2 * self.phase[rows].astype(np.int64) + 2 * int(self.phase[p]) + g) % 4
        if (total & 1).any():
            raise AssertionError("non-Hermitian product of stabilizer rows")
        self.phase[rows] = total >> 1
        mask = _pack(np.bincount(rows, minlength=self.n))
        self._xc[support[px[support] == 1]] ^= mask
        self._zc[support[pz[support] == 1]] ^= mask

    def _reduce(self, xs: np.ndarray, zs: np.ndarray) -> tuple[bool, int]:
        """Reduce the Pauli (xs, zs, +) against the generator group.

        Returns (in_group, sign) where sign is the phase bit such that
        (-1)**sign * (xs, zs) is a product of generators.  in_group is
        False when the Pauli is outside the +/- stabilizer group.

        Each packed column is one GF(2) equation sum_g c_g bit_g = Pauli bit
        over the generator set c.  Gauss-Jordan elimination (one masked XOR
        per pivot generator) solves for c; the sign is that of the product of
        the chosen generators, taken in order with rowsum.
        """
        n = self.n
        eqs = np.concatenate((self._xc, self._zc))
        rhs = np.concatenate((np.asarray(xs, dtype=bool), np.asarray(zs, dtype=bool)))
        unused = np.ones(2 * n, dtype=bool)
        pivots = []
        for g in range(n):
            has = _gen_bits(eqs, g).view(bool)
            cand = _support(has & unused)
            if cand.size == 0:
                continue
            p = cand[0]
            unused[p] = has[p] = False
            eqs[has] ^= eqs[p]
            rhs[has] ^= rhs[p]
            pivots.append((g, p))
        if rhs[unused].any():
            return False, 0
        chosen = np.array([g for g, p in pivots if rhs[p]], dtype=np.int64)
        rx, rz = _gen_bits(self._xc, chosen).T, _gen_bits(self._zc, chosen).T
        acc_x = np.bitwise_xor.accumulate(rx, axis=0)[:-1]
        acc_z = np.bitwise_xor.accumulate(rz, axis=0)[:-1]
        total = (2 * int(self.phase[chosen].sum())
                 + int(_rowsum_exponent(acc_x, acc_z, rx[1:], rz[1:]).sum())) % 4
        if total & 1:
            return False, 0
        return True, total >> 1

    def contains(self, xs: np.ndarray, zs: np.ndarray, sign: int = 0) -> bool:
        """Membership of (-1)**sign * sigma(xs, zs) in the stabilizer group.

        A Pauli that anticommutes with a generator is outside the group: the
        parity is an XOR of the packed columns on its support.  In graph form
        one with a single X is decided by that generator's sign, which covers
        every K_a; any other goes to ``_reduce``.
        """
        xq, zq = _support(xs), _support(zs)
        if (np.bitwise_xor.reduce(self._xc[zq], axis=0)
                ^ np.bitwise_xor.reduce(self._zc[xq], axis=0)).any():
            return False
        if self._graph_form and len(xq) == 1:
            return int(self.phase[xq[0]]) == sign
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

        anti = (self._xc[qubit] * zp) ^ (self._zc[qubit] * xp)  # bitset of generators
        if anti.any():
            if forced is not None:
                outcome = forced
            else:
                if rng is None:
                    raise ValueError("random measurement branch needs an rng")
                outcome = 1 if rng.integers(2) == 0 else -1
            rows = _support(_unpack(anti, self.n))
            p = int(rows[0])
            self._mul_rows(rows[1:], p)
            # generator p becomes the measured Pauli
            word, bit = p >> 6, np.uint64(1 << (p & 63))
            for cols, on in ((self._xc, xp), (self._zc, zp)):
                cols[:, word] &= ~bit
                cols[qubit, word] |= bit * on
            self.phase[p] = 0 if outcome == 1 else 1
            self._graph_form = False
            return outcome, 0.5

        ok, sign = self._reduce(xs, zs)
        if not ok:
            raise AssertionError("commuting Pauli outside the stabilizer group of a pure state")
        outcome = 1 if sign == 0 else -1
        if forced is not None and forced != outcome:
            return forced, 0.0
        return outcome, 1.0


def new_plus_state(n: int) -> StabilizerTableau:
    """|+>^n: generator i is X_i with + sign."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    q = np.arange(n, dtype=np.uint64)
    xc = np.zeros((n, -(-n // 64)), dtype=_WORD)
    xc[q, q >> 6] = np.uint64(1) << (q & 63)
    return StabilizerTableau.__new__(StabilizerTableau)._adopt(
        xc, np.zeros_like(xc), np.zeros(n, np.uint8), True)


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
        zs[list(nbrs[a])] = 1
        if not tableau.contains(xs, zs, sign=0):
            return False
    return True
