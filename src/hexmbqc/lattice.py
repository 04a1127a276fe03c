"""Hexagonal trap array and its decomposition into rhombic cluster layers.

The trap is a honeycomb network: ions sit on the vertices, transport
channels run along the edges, and every vertex is a Y-junction joining at
most three channels at 120 degrees.  The vertex set splits into two
triangular families (A and B); scaling the elementary cell of each family
by ``n`` partitions the array into ``2 n**2`` layers.  Each layer is a
rhombic Bravais lattice (equal-length primitive vectors at 60 degrees)
whose in-layer neighbors are ``2 n`` channel segments apart, i.e. at
shuttling distance ``2 n d`` for nearest-neighbor spacing ``d``.

Distances between entangling partners are quoted in the channel metric
(path length along trap channels) throughout: that is the distance an ion
shuttles, and it is the length that fixes transport time.  Euclidean
in-layer spacing is ``sqrt(3) * n * d``.

A ``HexArray`` holds the per-site fields the preparation path reads, and
only those: ``keys`` (id -> triangular coordinate) and ``index`` (the
inverse).  ``HexArray.position`` computes a site's Cartesian coordinates
when asked; trap-channel adjacency is not stored.  Likewise a
``LayerAssignment`` stores nothing per site: ``layer`` and ``coord`` read a
site's layer and in-layer coordinate off its key, since the layers are the
cosets ``(f, i mod n, j mod n)``, and ``_serpentine`` alone orders them: a
coset's position gives both its layer and the step to the next layer.

``cluster_partners`` alone knows the 3D cluster's neighbour rule (each
site's u, v and next-layer partner) and computes its partner table once per
assignment and closure; the edge sets and the scheduler read that table.

Triangular coordinates: vertex ``(f, i, j)`` sits at ``i*T1 + j*T2 + f*delta``
with ``|T1| = |T2| = sqrt(3) d`` at 60 degrees and ``delta = (T1 + T2) / 3``
(``|delta| = d``).  Family-A vertex ``(0, i, j)`` neighbors B vertices
``(1, i, j)``, ``(1, i-1, j)`` and ``(1, i, j-1)``.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = [
    "HexArray",
    "LayerAssignment",
    "build_hex_array",
    "decompose_sublattices",
    "cluster_partners",
    "intra_layer_edges",
    "interlayer_edges",
    "cluster_edges",
    "assignment_report",
    "MAX_SITES",
]

# the most sites an array may have: twenty times the paper's 10**4-site array
MAX_SITES = 200_000


@dataclass(frozen=True)
class HexArray:
    """Finite block of hexagonal cells.

    ``sites`` are integer ids 0..N-1 in ascending order of ``keys``, which
    maps each id to its ``(family, i, j)`` triangular coordinate; ``index``
    is the inverse map.  ``position`` gives a site's Cartesian coordinates.
    """

    rows: int
    cols: int
    d: float
    keys: tuple[tuple[int, int, int], ...]
    index: dict[tuple[int, int, int], int] = field(repr=False)

    @property
    def sites(self) -> range:
        return range(len(self.keys))

    def site_count(self) -> int:
        return len(self.keys)

    def position(self, s: int) -> tuple[float, float]:
        """Cartesian (x, y) of site ``s`` in meters: i*T1 + j*T2 + f*delta."""
        f, i, j = self.keys[s]
        u = math.sqrt(3.0) * self.d  # T1 = (u, 0), T2 = (u/2, 3d/2), delta = (T1 + T2)/3
        return (i * u + j * (u * 0.5) + f * ((u + u * 0.5) / 3.0),
                j * (1.5 * self.d) + f * (1.5 * self.d / 3.0))


@dataclass(frozen=True)
class LayerAssignment:
    """Partition of a HexArray into 2 n**2 rhombic layers.

    Site ``(f, i, j)`` lies in layer ``2 k + 1 + f``, where ``k`` is the
    serpentine position of its coset ``(i mod n, j mod n)``, at in-layer
    coordinate ``(i // n, j // n)``.
    """

    array: HexArray
    n: int
    # bool(periodic) -> cluster_partners' list of (s, u, v, up), made on first use
    _partners: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def layer_count(self) -> int:
        return 2 * self.n * self.n

    def layer(self, s: int) -> int:
        """Layer of site ``s``, in 1..layer_count."""
        f, i, j = self.array.keys[s]
        return 2 * _serpentine(self.n, i % self.n, j % self.n) + 1 + f

    def coord(self, s: int) -> tuple[int, int]:
        """Integer in-layer (a, b) coordinate of site ``s`` along the layer's
        two primitive directions."""
        _, i, j = self.array.keys[s]
        return i // self.n, j // self.n


def build_hex_array(rows: int, cols: int, d: float) -> HexArray:
    """Build a rows x cols block of hexagonal cells with edge length d.

    Site count follows the closed form 2*(rows*cols + rows + cols).
    Raises ValueError for non-positive rows, cols or d, and for more than
    MAX_SITES sites.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"rows and cols must be positive, got {rows} x {cols}")
    sites = 2 * (rows * cols + rows + cols)
    if sites > MAX_SITES:
        raise ValueError(f"rows x cols = {rows} x {cols} makes {sites} sites, "
                         f"past the limit of {MAX_SITES}")
    if not (d > 0.0) or not math.isfinite(d):
        raise ValueError(f"spacing d must be positive and finite, got {d}")

    # Hexagon (i, j) has vertices A(i,j), B(i,j), A(i+1,j), B(i+1,j-1),
    # A(i+1,j-1) and B(i,j-1).  Over the block their union is every (f, i, j)
    # with 0 <= i <= cols and -1 <= j < rows, less A(0, -1) and B(cols, rows-1);
    # listed in sorted order, so ids ascend with keys.
    keys = tuple((f, i, j) for f in (0, 1) for i in range(cols + 1)
                 for j in range(0 if (f, i) == (0, 0) else -1,
                                rows - 1 if (f, i) == (1, cols) else rows))
    return HexArray(rows=rows, cols=cols, d=d, keys=keys,
                    index={k: s for s, k in enumerate(keys)})


def _serpentine(n: int, p: int, q: int) -> int:
    """Position of coset (p, q) in the boustrophedon order of the n x n
    coset grid: row p runs up in q for even p and down for odd p, so
    consecutive positions differ by one step in p or q."""
    return p * n + (q if p % 2 == 0 else n - 1 - q)


def decompose_sublattices(array: HexArray, n: int) -> LayerAssignment:
    """Assign every site to one of 2 n**2 rhombic layers.

    Layers interleave the two vertex families along a serpentine
    traversal of the n x n coset grid, so consecutive layers stay
    physically adjacent.  Raises ValueError if n < 1 or the array does
    not contain one full elementary cell of the scaled decomposition.
    """
    if n < 1:
        raise ValueError(f"cell scale n must be >= 1, got {n}")

    # The array must contain at least one full elementary cell: an n x n
    # block of (i, j) offsets present for both families.  The keys fill
    # 0 <= i <= cols, -1 <= j < rows less A(0, -1) and B(cols, rows-1), so
    # the block fits if it is at most cols x rows, or spans all cols+1
    # columns but misses both end rows, or all rows+1 rows but both end columns.
    rows, cols = array.rows, array.cols
    if not ((n <= cols - 1 and n <= rows + 1) or (n <= cols and n <= rows)
            or (n <= cols + 1 and n <= rows - 1)):
        raise ValueError(
            f"array of {array.site_count()} sites holds no full elementary "
            f"cell for n={n}; increase rows/cols"
        )

    return LayerAssignment(array=array, n=n)


def _layer_shift(n: int, f: int, p: int, q: int) -> tuple[int, int, int]:
    """Family and (di, dj) step taking the layer of coset (f, p, q) onto the
    next layer (cyclically): family B of the same coset after family A, and
    family A of the next coset in serpentine order after family B."""
    if f == 0:
        return 1, 0, 0
    p1, r = divmod((_serpentine(n, p, q) + 1) % (n * n), n)
    q1 = _serpentine(n, p1, r) % n  # the order reverses q on odd rows both ways
    half = (n - 1) // 2  # each step is its nearest representative mod n
    return 0, (p1 - p + half) % n - half, (q1 - q + half) % n - half


def cluster_partners(assign: LayerAssignment, periodic: bool = False
                     ) -> Iterator[tuple[int, int | None, int | None, int | None]]:
    """Yield ``(s, u, v, up)`` for every site ``s`` in ascending id, None
    where a partner is absent.

    ``u`` is the site at ``(f, i+n, j)`` and ``v`` the one at ``(f, i, j+n)``;
    both have larger ids than ``s``.  ``up`` is the nearest coset translate
    in the next layer, so each site gains at most one upward and one
    downward interlayer edge.  The last layer has a next layer only with
    ``periodic``, and then not for n=1, where the wrap would repeat layer 1's
    edges.  The table is made once per assignment and closure.
    """
    table = assign._partners.get(bool(periodic))
    if table is None:
        array, n, index = assign.array, assign.n, assign.array.index
        # step to the next layer, keyed by each layer's coset (f, p, q); the
        # last layer, family B of the last coset, has one only when it wraps
        shift = {(f, p, q): _layer_shift(n, f, p, q)
                 for f in (0, 1) for p in range(n) for q in range(n)
                 if periodic and n > 1 or (f, _serpentine(n, p, q)) != (1, n * n - 1)}
        # a layer with no next layer looks up family None, which no site has
        table = assign._partners[bool(periodic)] = [
            (s, index.get((f, i + n, j)), index.get((f, i, j + n)),
             index.get((f1, i + di, j + dj)))
            for s, (f, i, j) in enumerate(array.keys)
            for f1, di, dj in (shift.get((f, i % n, j % n), (None, 0, 0)),)]
    return iter(table)


def intra_layer_edges(assign: LayerAssignment) -> set[tuple[int, int]]:
    """All in-layer cluster edges, as sorted site-id pairs."""
    return {(s, t) for s, u, v, _ in cluster_partners(assign) for t in (u, v)
            if t is not None}


def interlayer_edges(assign: LayerAssignment, periodic: bool) -> set[tuple[int, int]]:
    """One edge per (site, corresponding site in the next layer), as sorted
    site-id pairs; with ``periodic`` the last layer links back to the first."""
    return {(s, up) if s < up else (up, s)
            for s, _, _, up in cluster_partners(assign, periodic) if up is not None}


def cluster_edges(assign: LayerAssignment, periodic: bool = False) -> set[tuple[int, int]]:
    """Full 3D cluster edge set: in-layer plus interlayer."""
    return {(s, t) if s < t else (t, s)
            for s, u, v, up in cluster_partners(assign, periodic)
            for t in (u, v, up) if t is not None}


def assignment_report(assign: LayerAssignment) -> dict:
    """JSON-compatible report: array metadata plus per-site records."""
    array = assign.array
    sites = []
    for s in array.sites:
        f, i, j = array.keys[s]
        x, y = array.position(s)
        sites.append(
            {
                "id": s,
                "x": x,
                "y": y,
                "family": f,
                "tri_i": i,
                "tri_j": j,
                "layer": assign.layer(s),
                "coord": list(assign.coord(s)),
            }
        )
    return {
        "schema_version": 1,
        "rows": array.rows,
        "cols": array.cols,
        "d": array.d,
        "n": assign.n,
        "layer_count": assign.layer_count,
        "site_count": array.site_count(),
        "sites": sites,
    }
