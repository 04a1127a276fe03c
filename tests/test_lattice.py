import math
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hexmbqc import lattice
from oracles import (adjacency, channel_distance, has_full_cell, layer_labels,
                     reference_interlayer_edges, reference_intra_edges, reference_layers)


def test_site_count_closed_form():
    for rows, cols in [(1, 1), (2, 3), (4, 4), (7, 7), (22, 22), (70, 70)]:
        arr = lattice.build_hex_array(rows, cols, 1.0)
        assert arr.site_count() == 2 * (rows * cols + rows + cols)


def test_known_site_counts():
    assert lattice.build_hex_array(7, 7, 1.0).site_count() == 126
    assert lattice.build_hex_array(22, 22, 1.0).site_count() == 1056
    assert lattice.build_hex_array(70, 70, 1.0).site_count() == 10080


def test_build_validation():
    with pytest.raises(ValueError):
        lattice.build_hex_array(0, 3, 1.0)
    with pytest.raises(ValueError):
        lattice.build_hex_array(3, -1, 1.0)
    with pytest.raises(ValueError):
        lattice.build_hex_array(3, 3, 0.0)
    with pytest.raises(ValueError):
        lattice.build_hex_array(3, 3, float("nan"))


def test_adjacency_honeycomb_structure():
    arr = lattice.build_hex_array(5, 4, 1.0)
    adj = adjacency(arr)
    # symmetric, degree <= 3 (Y-junction), neighbors opposite-family only
    for s in arr.sites:
        nbrs = adj[s]
        assert 1 <= len(nbrs) <= 3
        assert len(set(nbrs)) == len(nbrs)
        fam = arr.keys[s][0]
        for b in nbrs:
            assert s in adj[b]
            assert arr.keys[b][0] != fam
    # A(i,j) connects exactly to B(i,j), B(i-1,j), B(i,j-1) where present
    for s in arr.sites:
        f, i, j = arr.keys[s]
        if f != 0:
            continue
        expected = {
            arr.index[k]
            for k in [(1, i, j), (1, i - 1, j), (1, i, j - 1)]
            if k in arr.index
        }
        assert set(adj[s]) == expected


def test_adjacent_sites_at_spacing_d():
    d = 2.5e-6
    arr = lattice.build_hex_array(4, 3, d)
    adj = adjacency(arr)
    for s in arr.sites:
        x0, y0 = arr.position(s)
        for b in adj[s]:
            x1, y1 = arr.position(b)
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(d, rel=1e-12)


def test_layer_count_is_2n_squared():
    arr = lattice.build_hex_array(7, 7, 1.0)
    for n, expect in [(1, 2), (2, 8), (3, 18)]:
        asg = lattice.decompose_sublattices(arr, n)
        assert asg.layer_count == expect
        assert {asg.layer(s) for s in arr.sites} == set(range(1, expect + 1))


def test_layers_partition_all_sites():
    arr = lattice.build_hex_array(6, 5, 1.0)
    for n in (1, 2, 3):
        asg = lattice.decompose_sublattices(arr, n)
        # layer membership must follow the (family, i mod n, j mod n) coset,
        # one layer per coset
        rep: dict[int, tuple[int, int, int]] = {}
        for s in arr.sites:
            f, i, j = arr.keys[s]
            coset = (f, i % n, j % n)
            lay = asg.layer(s)
            assert 1 <= lay <= asg.layer_count
            assert rep.setdefault(lay, coset) == coset
        assert len(set(rep.values())) == len(rep)


def test_layer_balance():
    arr = lattice.build_hex_array(8, 8, 1.0)
    asg = lattice.decompose_sublattices(arr, 2)
    sizes = [0] * (asg.layer_count + 1)
    for s in arr.sites:
        sizes[asg.layer(s)] += 1
    occupied = sizes[1:]
    assert min(occupied) > 0
    assert max(occupied) <= 2 * min(occupied)


def test_decompose_validation():
    arr = lattice.build_hex_array(4, 4, 1.0)
    with pytest.raises(ValueError):
        lattice.decompose_sublattices(arr, 0)
    with pytest.raises(ValueError):
        lattice.decompose_sublattices(arr, -2)


def test_full_cell_check_matches_window_scan():
    """decompose_sublattices accepts exactly the arrays where a scan of
    every window finds a full elementary cell."""
    for rows in range(1, 15):
        for cols in range(1, 15):
            arr = lattice.build_hex_array(rows, cols, 1.0)
            for n in range(1, 18):
                if has_full_cell(arr, n):
                    assert lattice.decompose_sublattices(arr, n).n == n
                else:
                    with pytest.raises(ValueError, match=f"holds no full elementary cell for n={n};"):
                        lattice.decompose_sublattices(arr, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_layer_and_coord_read_off_the_key(n):
    """On every shape up to 14 x 14, ``layer`` is the layer of the site's
    coset in the oracle's boustrophedon ``layer_labels``, and that coset
    plus n times ``coord`` gives the site's key back."""
    checked = 0
    for rows in range(1, 15):
        for cols in range(1, 15):
            arr = lattice.build_hex_array(rows, cols, 1.0)
            try:
                asg = lattice.decompose_sublattices(arr, n)
            except ValueError:
                continue
            layers, labels = reference_layers(asg), layer_labels(n)
            for s in arr.sites:
                assert asg.layer(s) == layers[s]
                f, (p, q) = labels[layers[s]]
                a, b = asg.coord(s)
                assert (f, p + n * a, q + n * b) == arr.keys[s]
            checked += 1
    assert checked > 100


def test_assignment_stores_nothing_per_site():
    """The assignment's fields are its array and scale (and the lazily made
    partner table); deciding it for 181 200 sites allocates under 1 MB."""
    names = list(lattice.LayerAssignment.__slots__)
    assert names == ["array", "n", "_partners"]
    arr = lattice.build_hex_array(300, 300, 1.0)
    tracemalloc.start()
    try:
        asg = lattice.decompose_sublattices(arr, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asg.layer_count == 18
    assert peak < 1_000_000


def test_sites_are_derived_from_keys():
    arr = lattice.build_hex_array(3, 2, 1.0)
    assert arr.sites == range(len(arr.keys)) == range(arr.site_count())
    assert list(arr.sites) == sorted(arr.index.values())
    assert arr.sites[-1] == arr.site_count() - 1
    assert "sites" not in lattice.HexArray._fields


def test_intra_layer_edges_are_coset_steps():
    # independent oracle: same family, coords differing by (n,0) or (0,n)
    for rows, cols, n in [(4, 4, 1), (4, 4, 2), (5, 3, 3)]:
        arr = lattice.build_hex_array(rows, cols, 1.0)
        asg = lattice.decompose_sublattices(arr, n)
        oracle = set()
        for a in arr.sites:
            f, i, j = arr.keys[a]
            for di, dj in ((n, 0), (0, n)):
                b = arr.index.get((f, i + di, j + dj))
                if b is not None:
                    oracle.add((min(a, b), max(a, b)))
        got = {(min(a, b), max(a, b)) for a, b in lattice.intra_layer_edges(asg)}
        assert got == oracle
        for a, b in got:
            assert asg.layer(a) == asg.layer(b)
            step = tuple(y - x for x, y in zip(asg.coord(a), asg.coord(b)))
            assert step in ((1, 0), (0, 1))


def test_intra_layer_channel_distance_2n_d():
    d = 3.0e-6
    for n in (1, 2, 3):
        arr = lattice.build_hex_array(5, 5, d)
        asg = lattice.decompose_sublattices(arr, n)
        for a, b in lattice.intra_layer_edges(asg):
            assert channel_distance(arr, a, b) == pytest.approx(
                2 * n * d, rel=1e-12
            )
            x0, y0 = arr.position(a)
            x1, y1 = arr.position(b)
            assert math.hypot(x1 - x0, y1 - y0) == pytest.approx(
                math.sqrt(3) * n * d, rel=1e-12
            )


def test_interlayer_edges_link_consecutive_layers():
    arr = lattice.build_hex_array(5, 5, 1.0)
    for n in (1, 2, 3):
        asg = lattice.decompose_sublattices(arr, n)
        inter = lattice.interlayer_edges(asg, periodic=False)
        assert inter
        for a, b in inter:
            assert abs(asg.layer(a) - asg.layer(b)) == 1
        # each site pairs with at most one site of the next/previous layer
        partners: dict[tuple[int, int], int] = {}
        for a, b in inter:
            for s, other in ((a, b), (b, a)):
                key = (s, asg.layer(other))
                assert key not in partners
                partners[key] = other


def test_periodic_adds_wrap_edges():
    arr = lattice.build_hex_array(5, 5, 1.0)
    asg = lattice.decompose_sublattices(arr, 2)
    open_edges = lattice.interlayer_edges(asg, periodic=False)
    closed = lattice.interlayer_edges(asg, periodic=True)
    assert open_edges < closed
    wrap = closed - open_edges
    for a, b in wrap:
        assert {asg.layer(a), asg.layer(b)} == {1, asg.layer_count}


def test_cluster_edges_union():
    arr = lattice.build_hex_array(4, 4, 1.0)
    asg = lattice.decompose_sublattices(arr, 2)
    intra = lattice.intra_layer_edges(asg)
    inter = lattice.interlayer_edges(asg, periodic=False)
    assert lattice.cluster_edges(asg, periodic=False) == intra | inter


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.booleans())
def test_edge_sets_match_reference_lookup(rows, cols, n, periodic):
    """The edge sets read from cluster_partners equal the oracle's coordinate
    lookups, and for n=1 the periodic wrap adds no edge."""
    try:
        asg = lattice.decompose_sublattices(lattice.build_hex_array(rows, cols, 1.0), n)
    except ValueError:
        assume(False)
    intra = reference_intra_edges(asg)
    inter = reference_interlayer_edges(asg, periodic)
    assert lattice.intra_layer_edges(asg) == intra
    assert lattice.interlayer_edges(asg, periodic) == inter
    assert lattice.cluster_edges(asg, periodic) == intra | inter
    if n == 1:
        assert lattice.interlayer_edges(asg, True) == lattice.interlayer_edges(asg, False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4), st.booleans())
def test_partner_table_serves_both_closures_in_either_order(rows, cols, n, first):
    """One assignment asked for both closures, in either order, gives the
    edge sets of a fresh assignment and of the oracle each time."""
    array = lattice.build_hex_array(rows, cols, 1.0)
    try:
        asg = lattice.decompose_sublattices(array, n)
    except ValueError:
        assume(False)
    intra = reference_intra_edges(asg)
    for periodic in (first, not first, first):
        inter = reference_interlayer_edges(asg, periodic)
        fresh = lattice.decompose_sublattices(array, n)
        assert lattice.cluster_edges(asg, periodic) == intra | inter
        assert lattice.cluster_edges(fresh, periodic) == intra | inter
        assert lattice.interlayer_edges(asg, periodic) == inter
        assert lattice.intra_layer_edges(asg) == intra
        assert list(lattice.cluster_partners(asg, periodic)) == list(
            lattice.cluster_partners(fresh, int(periodic)))


def test_partner_table_is_not_part_of_equality_or_repr():
    array = lattice.build_hex_array(4, 4, 1.0)
    used, unused = (lattice.decompose_sublattices(array, 2) for _ in range(2))
    lattice.cluster_edges(used, periodic=True)
    lattice.cluster_edges(used, periodic=False)
    assert used == unused
    assert repr(used) == repr(unused)
    assert "_partners" not in repr(used)


def test_lattice_records_are_frozen_and_equal_by_fields():
    array, again = lattice.build_hex_array(3, 2, 1.0), lattice.build_hex_array(3, 2, 1.0)
    assign = lattice.decompose_sublattices(array, 1)
    for record, field in ((array, "rows"), (array, "extra"), (assign, "n"),
                          (assign, "_partners"), (assign, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
    with pytest.raises(AttributeError):
        del assign.n
    assert array == again and array is not again
    assert assign == lattice.decompose_sublattices(again, 1)
    assert assign != lattice.decompose_sublattices(array, 2)
    assert assign != lattice.decompose_sublattices(lattice.build_hex_array(2, 3, 1.0), 1)
    for record in (array, assign):  # the site index is a dict, as it was
        with pytest.raises(TypeError):
            hash(record)


def test_assignments_never_share_a_partner_table():
    small = lattice.decompose_sublattices(lattice.build_hex_array(2, 2, 1.0), 1)
    large = lattice.decompose_sublattices(lattice.build_hex_array(3, 3, 1.0), 1)
    assert small._partners is not large._partners
    assert len(list(lattice.cluster_partners(small))) == small.array.site_count()
    assert len(list(lattice.cluster_partners(large))) == large.array.site_count()
    assert large._partners.keys() == {False} and small._partners.keys() == {False}
    assert small._partners[False] != large._partners[False]


def test_cluster_interior_degree_six():
    # bulk sites of the 3D cluster touch 4 in-layer + 2 interlayer partners
    arr = lattice.build_hex_array(9, 9, 1.0)
    asg = lattice.decompose_sublattices(arr, 2)
    deg: dict[int, int] = {s: 0 for s in arr.sites}
    for a, b in lattice.cluster_edges(asg, periodic=True):
        deg[a] += 1
        deg[b] += 1
    assert max(deg.values()) == 6
    assert sum(1 for v in deg.values() if v == 6) > 0


def test_channel_distance_basics():
    arr = lattice.build_hex_array(4, 4, 0.5)
    a = arr.sites[0]
    assert channel_distance(arr, a, a) == 0.0
    b = adjacency(arr)[a][0]
    assert channel_distance(arr, a, b) == pytest.approx(0.5)
    assert channel_distance(arr, b, a) == pytest.approx(0.5)


def test_assignment_report_shape():
    arr = lattice.build_hex_array(3, 3, 1.0)
    asg = lattice.decompose_sublattices(arr, 2)
    rep = lattice.assignment_report(asg)
    assert rep["schema_version"] == 1
    assert rep["layer_count"] == 8
    assert len(rep["sites"]) == arr.site_count()
    for rec in rep["sites"]:
        assert 1 <= rec["layer"] <= 8
        assert rec["family"] in (0, 1)
