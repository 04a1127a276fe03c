"""Graph-state stabilizer engine for cluster-state preparation and checks.

The cluster is made by CZ gates on |+>^n and nothing else, so the state is
always the graph state of the gates applied an odd number of times (Hein
et al., quant-ph/0602096).  Its tableau is in graph form: generator a is
(-1)**phase[a] X_a prod_b Z_b^z[a, b], with x = I and z the symmetric
adjacency matrix, because a CZ never writes x.  So only z and the phase
bits are stored.

Qubit q's Z column is one bitset over the generators, bit g in word
g // 64 of row q of an (n, ceil(n/64)) uint64 array; z is symmetric, so
that row is also generator q's Z part.  The tableau costs about n/8 bytes
per qubit (13 MB at 10 080 sites).  CZ(a, b) flips bit b of row a and bit
a of row b: two one-word XORs whatever n, about 1 us a gate from Python.
``x`` (the identity) and ``z`` are read-only (n, n) 0/1 copies
[generator, qubit], made on each access; ``phase`` is a plain writable
uint8 vector.

The only group element with X on exactly qubit a is +/- generator a, and
the only one with no X is the identity, so membership of a Pauli with at
most one X is one comparison of packed bits and one sign bit.  That
decides every cluster stabilizer K_a = X_a prod_{b~a} Z_b.  Qubits are
0-indexed.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

__all__ = ["StabilizerTableau", "new_plus_state", "verify_cluster"]

_WORD = np.dtype("<u8")
_BIT = np.uint64(1) << np.arange(64, dtype=_WORD)  # _BIT[k]: bit k of a word


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class StabilizerTableau:
    """Stabilizer generators of an n-qubit graph state, bit-packed; made by
    ``new_plus_state``."""

    def __init__(self, n: int):
        self.n, self.phase = n, np.zeros(n, np.uint8)
        self._zc = np.zeros((n, -(-n // 64)), dtype=_WORD)

    x = property(lambda self: _read_only(np.eye(self.n, dtype=np.uint8)),
                 doc="X bits, the identity as a new read-only (n, n) 0/1 array.")
    z = property(lambda self: _read_only(np.unpackbits(
                     self._zc.view(np.uint8), axis=-1, count=self.n, bitorder="little").T),
                 doc="Z bits, a read-only (n, n) 0/1 copy unpacked on each access.")

    def apply_cphase(self, a: int, b: int) -> None:
        """Conjugate every generator by CPHASE on qubits (a, b)."""
        if a == b:
            raise ValueError("CPHASE needs two distinct qubits")
        for q in (a, b):
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
        self._zc[a, b >> 6] ^= _BIT[b & 63]
        self._zc[b, a >> 6] ^= _BIT[a & 63]

    def contains(self, xs: np.ndarray, zs: np.ndarray, sign: int = 0) -> bool:
        """Membership of (-1)**sign * sigma(xs, zs) in the stabilizer group,
        for a Pauli with at most one X.

        With X on qubit a it holds iff its Z part is generator a's and
        ``phase[a]`` equals ``sign``; with no X iff it is the identity with
        + sign.  A Pauli with X on two or more qubits, or with xs or zs not
        n long, raises ValueError.
        """
        if not len(xs) == len(zs) == self.n:
            raise ValueError(f"xs and zs must have length n={self.n}, "
                             f"got {len(xs)} and {len(zs)}")
        xq = np.asarray(xs, dtype=bool).nonzero()[0]  # ~8x faster than on uint8
        if len(xq) > 1:
            raise ValueError(f"contains decides Paulis with at most one X, "
                             f"got X on {len(xq)} qubits")
        packed = np.packbits(zs, bitorder="little")
        if len(xq) == 0:
            return not packed.any() and sign == 0
        a = int(xq[0])
        row = self._zc[a].view(np.uint8)[:packed.size]  # drop the last word's padding
        return bool(np.array_equal(row, packed)) and int(self.phase[a]) == sign


def new_plus_state(n: int) -> StabilizerTableau:
    """|+>^n: generator i is X_i with + sign."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    return StabilizerTableau(n)


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
