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

A ``HexArray`` stores nothing per site: site ``(f, i, j)`` has id
``(f (cols + 1) + i) (rows + 1) + j``, so ``key`` is arithmetic, and
``position`` computes a site's Cartesian coordinates when asked;
trap-channel adjacency is not stored.  A ``LayerAssignment`` keeps
no per-site table but the rounds it caches: ``layer`` and ``coord`` read a
site's layer and in-layer coordinate off its key, since the layers are the
cosets ``(f, i mod n, j mod n)``, and ``_serpentine`` alone orders them: a
coset's position gives both its layer and the step to the next layer.

``_gate_runs`` alone knows the 3D cluster's neighbour rule: partners are a
fixed id step apart along whole columns, rows and cosets of a row, so it
gives the edges as runs of ids, each with its round 0-5, which
``ROUND_NAMES`` names.  The partner table and the six rounds are filled run
by run, and the edge sets are unions of rounds.

Triangular coordinates: vertex ``(f, i, j)`` sits at ``i*T1 + j*T2 + f*delta``
with ``|T1| = |T2| = sqrt(3) d`` at 60 degrees and ``delta = (T1 + T2) / 3``
(``|delta| = d``).  Family-A vertex ``(0, i, j)`` neighbors B vertices
``(1, i, j)``, ``(1, i-1, j)`` and ``(1, i, j-1)``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator
from itertools import chain, product
from operator import itemgetter

__all__ = [
    "HexArray",
    "LayerAssignment",
    "build_hex_array",
    "decompose_sublattices",
    "cluster_rounds",
    "cluster_partners",
    "intra_layer_edges",
    "interlayer_edges",
    "cluster_edges",
    "assignment_report",
    "MAX_SITES",
    "ROUND_NAMES",
]

# the most sites an array may have: twenty times the paper's 10**4-site array
MAX_SITES = 200_000

# the cluster's six edge rounds, by the index 0-5 that ``_gate_runs`` gives them
ROUND_NAMES = ("intra-u-even", "intra-u-odd", "intra-v-even", "intra-v-odd",
               "inter-odd-layer", "inter-even-layer")


class HexArray(namedtuple("HexArray", "rows cols d")):
    """Finite block of rows x cols hexagonal cells with edge length d.

    ``sites`` are integer ids 0..N-1 in ascending order of their
    ``(family, i, j)`` triangular coordinate: ``key`` gives a site's
    coordinate by arithmetic.  ``position`` gives a site's Cartesian
    coordinates.  A named tuple, so immutable and equal by its three fields.
    """

    __slots__ = ()

    @property
    def sites(self) -> range:
        return range(self.site_count())

    def site_count(self) -> int:
        return 2 * (self.cols + 1) * (self.rows + 1) - 2

    def key(self, s: int) -> tuple[int, int, int]:
        """``(f, i, j)`` of site ``s``; IndexError if the array has no site ``s``."""
        if not 0 <= s < self.site_count():
            raise IndexError(f"site {s} is not one of the array's {self.site_count()}")
        column, j = divmod(s + 1, self.rows + 1)  # column f (cols + 1) + i, 0 <= i <= cols
        return (*divmod(column, self.cols + 1), j - 1)

    def position(self, s: int) -> tuple[float, float]:
        """Cartesian (x, y) of site ``s`` in meters: i*T1 + j*T2 + f*delta."""
        f, i, j = self.key(s)
        u = math.sqrt(3.0) * self.d  # T1 = (u, 0), T2 = (u/2, 3d/2), delta = (T1 + T2)/3
        return (i * u + j * (u * 0.5) + f * ((u + u * 0.5) / 3.0),
                j * (1.5 * self.d) + f * (1.5 * self.d / 3.0))


class LayerAssignment:
    """Partition of a HexArray into 2 n**2 rhombic layers.

    Site ``(f, i, j)`` lies in layer ``2 k + 1 + f``, where ``k`` is the
    serpentine position of its coset ``(i mod n, j mod n)``, at in-layer
    coordinate ``(i // n, j // n)``.  Frozen; equal and shown by ``array``
    and ``n`` alone, and unhashable.
    """

    # _partners: bool(periodic) -> that closure's runs and rounds, each made on
    # first use; one dict per instance
    __slots__ = ("array", "n", "_partners")

    def __init__(self, array: HexArray, n: int):
        for name, value in (("array", array), ("n", n), ("_partners", {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r}: LayerAssignment is frozen")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not LayerAssignment:
            return NotImplemented
        return (self.array, self.n) == (other.array, other.n)

    def __repr__(self) -> str:
        return f"LayerAssignment(array={self.array!r}, n={self.n!r})"

    @property
    def layer_count(self) -> int:
        return 2 * self.n * self.n

    def layer(self, s: int) -> int:
        """Layer of site ``s``, in 1..layer_count."""
        f, i, j = self.array.key(s)
        return 2 * _serpentine(self.n, i % self.n, j % self.n) + 1 + f

    def coord(self, s: int) -> tuple[int, int]:
        """Integer in-layer (a, b) coordinate of site ``s`` along the layer's
        two primitive directions."""
        _, i, j = self.array.key(s)
        return i // self.n, j // self.n


def build_hex_array(rows: int, cols: int, d: float) -> HexArray:
    """Build a rows x cols block of hexagonal cells with edge length d.

    Hexagon (i, j) has vertices A(i,j), B(i,j), A(i+1,j), B(i+1,j-1),
    A(i+1,j-1) and B(i,j-1).  Over the block their union is every (f, i, j)
    with 0 <= i <= cols and -1 <= j < rows, less A(0, -1) and B(cols, rows-1),
    the ``site_count``.  Raises ValueError for non-positive rows, cols or d,
    and for more than MAX_SITES sites.
    """
    if rows <= 0 or cols <= 0:
        raise ValueError(f"rows and cols must be positive, got {rows} x {cols}")
    array = HexArray(rows=rows, cols=cols, d=d)
    if array.site_count() > MAX_SITES:
        raise ValueError(f"rows x cols = {rows} x {cols} makes {array.site_count()} sites, "
                         f"past the limit of {MAX_SITES}")
    if not (d > 0.0) or not math.isfinite(d):
        raise ValueError(f"spacing d must be positive and finite, got {d}")
    return array


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


def _gate_runs(assign: LayerAssignment, periodic: bool = False) -> list[tuple[int, range, range]]:
    """The ``(round, sources, partners)`` runs, equal-length ranges of site
    ids whose k-th source and k-th partner share a cluster edge of round 0-5;
    made once per assignment and closure.

    The u partner (f, i+n, j) and the v partner (f, i, j+n) are one id step
    away down a whole column (round i // n % 2) and along a whole row (round
    2 + j // n % 2); the next-layer partner, the nearest coset translate in
    the next layer, is one step away for a coset's sites in a row (round
    4 + f).  The last layer has one only with ``periodic`` and n > 1 (for
    n=1 the wrap would repeat layer 1's edges)."""
    cache = assign._partners.setdefault(bool(periodic), {})
    if "runs" in cache:
        return cache["runs"]
    n, rows, cols = assign.n, assign.array.rows, assign.array.cols
    R, F = rows + 1, (cols + 1) * (rows + 1)  # id(f, i, j) = f F + i R + j
    # (round, first source, first partner, id step, length) before trimming
    raw = [(i // n % 2, f * F + i * R - 1, f * F + (i + n) * R - 1, 1, R)
           for f in (0, 1) for i in range(cols + 1 - n)]
    raw += [(2 + j // n % 2, f * F + j, f * F + j + n, R, cols + 1)
            for f in (0, 1) for j in range(-1, rows - n)]
    wrap = periodic and n > 1
    for f, p, q in product((0, 1), range(n), range(n)):
        if f and not wrap and _serpentine(n, p, q) == n * n - 1:
            continue  # the last layer, family B of the last coset
        f1, di, dj = _layer_shift(n, f, p, q)
        lo, hi = max(0, -di), min(cols, cols - di)  # both ends' columns on the array
        i0, jlo = lo + (p - lo) % n, max(-1, -1 - dj)
        raw += [(4 + f, f * F + i0 * R + j, f1 * F + (i0 + di) * R + j + dj, n * R,
                 (hi - i0) // n + 1) for j in range(jlo + (q - jlo) % n, min(rows, rows - dj), n)]
    end = 2 * F - 2
    runs = cache["runs"] = []
    for k, s, t, step, count in raw:
        # absent corners A(0, -1), B(cols, rows - 1) are ids -1, end: a run's first or last
        if s < 0 or t < 0:
            s, t, count = s + step, t + step, count - 1
        if (s if s > t else t) + (count - 1) * step >= end:
            count -= 1
        if count > 0:
            runs.append((k, range(s, s + count * step, step), range(t, t + count * step, step)))
    return runs


def cluster_partners(assign: LayerAssignment, periodic: bool = False) -> array.array:
    """The partner table: a flat ``array('l')`` whose slots ``3 s``,
    ``3 s + 1`` and ``3 s + 2`` hold site ``s``'s u, v and next-layer
    partner, -1 where it has none."""
    import array  # a shared library, loaded only by the audit that reads the table
    table = array.array("l", [-1]) * (3 * assign.array.site_count())
    for k, src, dst in _gate_runs(assign, periodic):
        slot = k // 2  # u, v or next layer
        table[3 * src[0] + slot:3 * src[-1] + slot + 1:3 * src.step] = array.array("l", dst)
    return table


def cluster_rounds(assign: LayerAssignment, periodic: bool = False
                   ) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The cluster's edges in the scheduler's six rounds, each a tuple of
    sorted site-id pairs in id order, made once per assignment and closure;
    the pairs share one int object per site id."""
    cache = assign._partners.setdefault(bool(periodic), {})
    if "rounds" not in cache:
        ids, rounds = list(range(assign.array.site_count())), [[] for _ in range(6)]
        for k, src, dst in _gate_runs(assign, periodic):
            lo, hi = (src, dst) if src[0] < dst[0] else (dst, src)  # ids step together
            rounds[k] += zip(ids[lo.start:lo.stop:lo.step], ids[hi.start:hi.stop:hi.step])
        # u runs come in id order; v runs (rows) and next-layer runs (cosets)
        # do not, so rounds 3-6 are sorted, on the first id as each is a matching
        for rnd in rounds[2:]:
            rnd.sort(key=itemgetter(0))
        cache["rounds"] = tuple(map(tuple, rounds))
    return cache["rounds"]


def intra_layer_edges(assign: LayerAssignment) -> set[tuple[int, int]]:
    """All in-layer cluster edges, as sorted site-id pairs."""
    return set(chain.from_iterable(cluster_rounds(assign)[:4]))


def interlayer_edges(assign: LayerAssignment, periodic: bool) -> set[tuple[int, int]]:
    """One edge per (site, corresponding site in the next layer), as sorted
    site-id pairs; with ``periodic`` the last layer links back to the first."""
    return set(chain.from_iterable(cluster_rounds(assign, periodic)[4:]))


def cluster_edges(assign: LayerAssignment, periodic: bool = False) -> set[tuple[int, int]]:
    """Full 3D cluster edge set: in-layer plus interlayer."""
    return set(chain.from_iterable(cluster_rounds(assign, periodic)))


def assignment_report(assign: LayerAssignment) -> dict:
    """JSON-compatible report: array metadata plus per-site records."""
    array = assign.array
    sites = []
    for s in array.sites:
        f, i, j = array.key(s)
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
