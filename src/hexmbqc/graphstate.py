"""Graph-state stabilizer engine for cluster-state preparation and checks.

The cluster is made by CZ gates on |+>^n and nothing else, so the state is
always the graph state |G> of the gates applied an odd number of times
(Hein et al., quant-ph/0602096).  Generator a is (-1)**phase[a] X_a
prod_{b in N_G(a)} Z_b, so the engine stores G as one Python set of
neighbours per qubit, plus the phase bits: O(n + edges) memory, and a CZ
on (a, b) toggles b in a's set and a in b's in place.  ``x`` (the identity) and
``z`` (the adjacency matrix) are read-only dense (n, n) 0/1 copies
[generator, qubit], made on each access; ``phase`` is a writable uint8
vector, made all zero on its first read, and every later read returns
that same vector.  Until then every sign is + and ``contains`` reads it
as 0 without making it.  numpy is imported only by these three dense
views, so preparing and verifying a cluster never loads it.

The only group element with X on exactly qubit a is +/- generator a, and
the only one with no X is the identity, so membership of a Pauli with at
most one X is one set comparison and one sign bit.  That decides every
cluster stabilizer K_a = X_a prod_{b~a} Z_b.  Qubits are 0-indexed.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = ["StabilizerTableau", "new_plus_state", "verify_cluster"]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class StabilizerTableau:
    """Stabilizer generators of an n-qubit graph state, stored as neighbour
    sets; made by ``new_plus_state``."""

    def __init__(self, n: int):
        self.n, self._phase = n, None
        self._nbrs: list[set[int]] = [set() for _ in range(n)]

    @property
    def phase(self) -> np.ndarray:
        """Sign bits, a writable uint8 vector made all zero on first read."""
        if self._phase is None:
            import numpy as np
            self._phase = np.zeros(self.n, np.uint8)
        return self._phase

    @phase.setter
    def phase(self, value: np.ndarray) -> None:  # ``tab.phase ^= bits`` assigns back
        self._phase = value

    @property
    def x(self) -> np.ndarray:
        """X bits, the identity as a new read-only (n, n) 0/1 array."""
        import numpy as np
        return _read_only(np.eye(self.n, dtype=np.uint8))

    @property
    def z(self) -> np.ndarray:
        """Z bits, the adjacency matrix as a new read-only (n, n) 0/1 array."""
        import numpy as np
        z = np.zeros((self.n, self.n), np.uint8)
        degrees = [len(s) for s in self._nbrs]
        cols = np.fromiter((b for s in self._nbrs for b in s), np.intp, sum(degrees))
        z[np.repeat(np.arange(self.n), degrees), cols] = 1
        return _read_only(z)

    def apply_cphase(self, a: int, b: int) -> None:
        """Conjugate every generator by CPHASE on qubits (a, b)."""
        if not (0 <= a < self.n and 0 <= b < self.n and a != b):
            raise ValueError("CPHASE needs two distinct qubits" if a == b else
                             f"qubit {b if 0 <= a < self.n else a} out of range for n={self.n}")
        na, nb = self._nbrs[a], self._nbrs[b]
        if b in na:
            na.discard(b)
            nb.discard(a)
        else:
            na.add(b)
            nb.add(a)

    def contains(self, x: int | None, zs: Collection[int], sign: int = 0) -> bool:
        """Membership of (-1)**sign X_x prod_{b in zs} Z_b in the stabilizer
        group, with ``x=None`` for a Pauli with no X.

        With X on qubit x it holds iff ``zs`` is x's neighbour set and
        ``phase[x]`` equals ``sign``; with no X iff ``zs`` is empty and
        ``sign`` is 0.  A qubit id outside 0..n-1 or a repeated Z id raises
        ValueError.
        """
        zset = set(zs)
        if len(zset) != len(zs):
            raise ValueError(f"Z qubit ids must be distinct, got {len(zs)} ids "
                             f"on {len(zset)} qubits")
        for q in zset if x is None else (x, *zset):
            if not 0 <= q < self.n:
                raise ValueError(f"qubit {q} out of range for n={self.n}")
        if x is None:
            return not zset and sign == 0
        phase = self._phase  # None until first read: every sign is +
        return zset == self._nbrs[x] and (0 if phase is None else int(phase[x])) == sign


def new_plus_state(n: int) -> StabilizerTableau:
    """|+>^n: generator i is X_i with + sign."""
    if n < 1:
        raise ValueError(f"need at least one qubit, got n={n}")
    return StabilizerTableau(n)


def _target_neighbours(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for a, b in edges:
        if a == b:
            raise ValueError("self-loop edge")
        for q in (a, b):
            if not 0 <= q < n:
                raise ValueError(f"edge endpoint {q} out of range for n={n}")
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def verify_cluster(tableau: StabilizerTableau, edges: Iterable[tuple[int, int]]) -> bool:
    """True iff every K_a = X_a prod_{b~a} Z_b stabilizes the state with + sign."""
    nbrs = _target_neighbours(tableau.n, edges)
    return all(tableau.contains(a, nbrs[a]) for a in range(tableau.n))
