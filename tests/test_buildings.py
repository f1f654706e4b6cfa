"""Tests for the concrete Kneser graph builders and their apartments."""

import gc
import itertools
import json
import random
import re
import weakref
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

import kneserlab.buildings as buildings
from kneserlab.algebra import (
    Subspace,
    _annihilators,
    enumerate_singular_subspaces,
    enumerate_subspaces,
    intersect,
)
from kneserlab.buildings import (
    BuildingSpec,
    KneserGraph,
    build_graph,
)
from kneserlab.cli import graph_to_dict
from kneserlab.coclique import check_ucep, extension_set, is_coclique
from kneserlab.errors import UsageError

from oracles import (
    apartment_by_words,
    apartment_graph,
    check_symmetric_irreflexive,
    edges,
    expected_num_vertices,
    frame_of_word,
    frame_words,
    nested_flags_by_rank,
    nullspace,
    perp,
)

# The 15 positive and 4 negative cells of the UCEP grid.
GRID_CELLS = [
    ("A", 3, (1,), 2), ("A", 3, (1,), 3), ("A", 3, (2,), 2), ("A", 3, (2,), 3),
    ("A", 4, (2,), 2), ("A", 4, (2,), 3), ("A", 2, (1, 2), 2),
    ("A", 3, (1, 3), 2), ("C", 3, (1,), 2), ("B", 3, (1,), 3),
    ("B", 3, (3,), 3), ("G", 2, (1,), 3), ("D", 4, (1,), 2),
    ("D", 4, (2,), 2), ("D", 4, (4,), 2),
    ("B", 3, (2,), 3), ("C", 3, (3,), 3), ("D", 4, (3, 4), 2),
    ("A", 4, (2, 3), 2),
]


def sigma_degrees(graph):
    mask = graph.sigma_mask()
    return sorted(
        bin(graph.adjacency[v] & mask).count("1") for v in graph.sigma
    )


def test_spec_validation():
    with pytest.raises(UsageError):
        BuildingSpec("A", 3, 2, ())
    for rank in (0, -3):
        with pytest.raises(UsageError, match="rank must be at least 1"):
            BuildingSpec("A", rank, 2, (1,))
    with pytest.raises(UsageError):
        BuildingSpec("A", 3, 2, (4,))
    with pytest.raises(UsageError):
        BuildingSpec("B", 3, 2, (1,))
    spec = BuildingSpec("A", 3, 2, (2, 1))
    assert spec.types == (1, 2)


@pytest.mark.parametrize("args,field", [
    (("A", True, 2, (1,)), "rank"), (("A", 3.0, 2, (1,)), "rank"), (("A", "3", 2, (1,)), "rank"),
    (("A", 3, True, (1,)), "p"), (("A", 3, 2.0, (1,)), "p"), (("A", 3, "2", (1,)), "p"),
    (("D", 4, 2, (True,)), "types"), (("A", 3, 2, (1.0,)), "types"),
    (("A", 3, 2, ("1",)), "types"), (("A", 3, 2, 1), "types"), (("A", 3, 2, {1}), "types"),
    ((1, 3, 2, (1,)), "family"), ((None, 3, 2, (1,)), "family"),
])
def test_spec_field_types_are_refused_by_name(args, field):
    # A bool or float equal to an int would hash equal to the int spec.
    value = args[("family", "rank", "p", "types").index(field)]
    with pytest.raises(UsageError, match="^%s must be " % field) as exc:
        BuildingSpec(*args)
    assert str(exc.value).endswith(", not %r" % (value,))


def test_refused_spec_leaves_the_caches_to_the_int_spec():
    # Refused before it is hashed, a bool or float rank keys no cache entry
    # that the equal int spec would then read.
    buildings._graph.cache_clear()
    for rank in (True, 1.0):
        with pytest.raises(UsageError, match="rank must be"):
            BuildingSpec("A", rank, 2, (1,))
    report = check_ucep(build_graph(BuildingSpec("A", 1, 2, (1,)))).to_dict()
    assert (report["verdict"], report["spec"]) == (
        "holds", {"family": "A", "rank": 1, "p": 2, "types": [1]})
    assert type(report["spec"]["rank"]) is int


def test_projective_kneser_a32():
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    assert g.num_vertices == 35
    assert len(g.sigma) == 6
    assert sigma_degrees(g) == [1] * 6
    assert check_symmetric_irreflexive(g)


def test_projective_kneser_points_complete():
    g = build_graph(BuildingSpec("A", 2, 2, (1,)))
    assert g.num_vertices == 7
    assert g.num_edges() == 21


def test_projective_sigma_is_set_kneser():
    # Explicit bijection K <-> coordinate subspace, never isomorphism
    # search: frame objects are adjacent iff the index sets are disjoint.
    for n, i, p in [(3, 2, 2), (4, 2, 2), (4, 2, 3)]:
        g = build_graph(BuildingSpec("A", n, p, (i,)))
        d = n + 1
        labels = {}
        for v in g.sigma:
            sub = g.vertices[v][0]
            cols = tuple(j for j in range(d) if any(r[j] for r in sub.basis))
            assert sub == Subspace.coordinate(cols, d, p)
            labels[v] = frozenset(cols)
        assert len(labels) == len(list(itertools.combinations(range(d), i)))
        for a in g.sigma:
            for b in g.sigma:
                if a < b:
                    assert g.is_adjacent(a, b) == (not labels[a] & labels[b])


def test_projective_kneser_duality():
    g = build_graph(BuildingSpec("A", 4, 2, (3,)))
    h = build_graph(BuildingSpec("A", 4, 2, (2,)))
    assert g.num_vertices == h.num_vertices == 155
    assert g.num_edges() == h.num_edges()
    assert all(v[0].dim == 3 for v in g.vertices)
    # The dual graph keeps the annihilator adjacency, which for
    # hyperplane-like types is general position, not disjointness.
    for a, b in itertools.islice(edges(g), 50):
        ua, ub = g.vertices[a][0], g.vertices[b][0]
        assert intersect(ua, ub).dim == 1


def test_flag_kneser_pg22():
    g = build_graph(BuildingSpec("A", 2, 2, (1, 2)))
    assert g.num_vertices == 21
    assert len(g.sigma) == 6
    assert sigma_degrees(g) == [1] * 6
    # Frame adjacency pairs (i, N\j) with (j, N\i).
    for v in g.sigma:
        pt, line = g.vertices[v]
        assert line.contains(pt)


def test_flag_kneser_point_hyperplane_rule():
    g = build_graph(BuildingSpec("A", 3, 2, (1, 3)))
    for a in range(g.num_vertices):
        pa, ha = g.vertices[a]
        for b in range(a + 1, g.num_vertices):
            pb, hb = g.vertices[b]
            expected = not hb.contains(pa) and not ha.contains(pb)
            assert g.is_adjacent(a, b) == expected


def test_flag_kneser_rejects_non_self_opposite():
    with pytest.raises(UsageError):
        build_graph(BuildingSpec("A", 3, 2, (1, 2)))
    g = buildings._graph(BuildingSpec("A", 3, 2, (1, 2)))
    assert g.num_vertices == 105
    # Each flag has 48 neighbours, not the q^(N_W - N_X) = 32 of a
    # self-opposite type set, so _graph's degree gate leaves the spec alone.
    assert {row.bit_count() for row in g.adjacency} == {48} != {buildings._degree(g.spec)}


def test_flag_kneser_paper_witnesses_adjacent():
    d, p = 5, 2
    u = [1, 1, 0, 0, 0]
    v = [1, 0, 0, 0, 1]
    a = Subspace.span([u, [0, 0, 1, 0, 0]], d, p)
    a2 = Subspace.span([v, [0, 0, 0, 1, 0]], d, p)
    b = Subspace.span([u, [0, 0, 1, 0, 0], [0, 0, 0, 0, 1]], d, p)
    b2 = Subspace.span([v, [0, 0, 0, 1, 0], [0, 1, 0, 0, 0]], d, p)
    assert b.contains(a) and b2.contains(a2)
    geo = BuildingSpec("A", d - 1, p, (2, 3))
    assert geo.opposite((a, b), (a2, b2))
    assert not geo.opposite((a, b), (a, b))


def test_polar_kneser_d42():
    g = build_graph(BuildingSpec("D", 4, 2, (2,)))
    assert g.num_vertices == 1575
    assert len(g.sigma) == 24
    assert sigma_degrees(g) == [1] * 24
    # Frame matching: {s,t} is adjacent exactly to {s',t'}.
    geo = g.spec
    idx = {g.vertices[v][0]: v for v in g.sigma}
    for labels in frame_words(geo):
        a = idx[geo.coordinate(labels)]
        b = idx[geo.coordinate(tuple(-l for l in labels))]
        assert g.is_adjacent(a, b)


def test_polar_kneser_c31():
    g = build_graph(BuildingSpec("C", 3, 2, (1,)))
    assert g.num_vertices == 63
    assert len(g.sigma) == 6
    assert sigma_degrees(g) == [1] * 6


def test_polar_kneser_b3_counts():
    assert build_graph(BuildingSpec("B", 3, 3, (1,))).num_vertices == 364
    assert build_graph(BuildingSpec("B", 3, 3, (2,))).num_vertices == 3640
    assert build_graph(BuildingSpec("B", 3, 3, (3,))).num_vertices == 1120


def test_polar_adjacency_reflexive_pairing():
    # perp(L) meets M trivially iff L meets perp(M) trivially, on all
    # totally singular line pairs of the hyperbolic D_4 space.
    g = build_graph(BuildingSpec("D", 4, 2, (2,)))
    form = g.spec.form

    rng = random.Random(20240631)
    verts = [v[0] for v in g.vertices]
    for _ in range(300):
        a, b = rng.randrange(len(verts)), rng.randrange(len(verts))
        left = intersect(perp(verts[a], form), verts[b]).dim == 0
        right = intersect(verts[a], perp(verts[b], form)).dim == 0
        assert left == right


def test_d4_maximal_families():
    plus = build_graph(BuildingSpec("D", 4, 2, (4,)))
    minus = build_graph(BuildingSpec("D", 4, 2, (3,)))
    assert plus.num_vertices == minus.num_vertices == 135
    assert len(plus.sigma) == len(minus.sigma) == 8
    plus_family = plus.spec
    assert all(plus_family.in_family(v[0]) for v in plus.vertices)
    assert not any(plus_family.in_family(v[0]) for v in minus.vertices)
    # Within one family adjacency is plain disjointness.
    for a, b in itertools.islice(edges(plus), 100):
        assert intersect(plus.vertices[a][0], plus.vertices[b][0]).dim == 0


@pytest.mark.parametrize("n,p", [(2, 2), (3, 2), (4, 2), (5, 2), (2, 3), (3, 3), (4, 3)])
def test_d_family_split_vs_intersection_oracle(n, p):
    # A maximal space A is in the plus family iff dim(A ∩ A0) = n mod 2,
    # for A0 the span of the unprimed columns.
    plus, minus = (BuildingSpec("D", n, p, (t,)) for t in (n, n - 1))
    a0 = plus.coordinate(range(1, n + 1))
    for a in enumerate_singular_subspaces(plus.form, n):
        in_plus = intersect(a, a0).dim % 2 == n % 2
        assert plus.in_family(a) == in_plus
        assert minus.in_family(a) != in_plus


def test_d4_planes_paper_witnesses():
    g = build_graph(BuildingSpec("D", 4, 2, (3, 4)))
    assert g.num_vertices == 2025
    assert len(g.sigma) == 32
    assert sigma_degrees(g) == [1] * 32
    pi = Subspace.span(
        [[1, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 1, 0]], 8, 2
    )
    pi2 = Subspace.span(
        [[0, 1, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 1]], 8, 2
    )
    idx = {v[0]: i for i, v in enumerate(g.vertices)}
    assert pi in idx and pi2 in idx
    assert g.is_adjacent(idx[pi], idx[pi2])
    # pi is not adjacent to any frame plane through its own vector e_4.
    geo = g.spec
    for labels in frame_words(geo):
        if 4 in labels:
            fr = idx[geo.coordinate(labels)]
            assert not g.is_adjacent(idx[pi], fr)


def test_g2_alias():
    g = build_graph(BuildingSpec("G", 2, 3, (1,)))
    b = build_graph(BuildingSpec("B", 3, 3, (1,)))
    assert g.spec.family == "G"
    assert g.num_vertices == 364
    assert g.adjacency == b.adjacency
    assert g.sigma == b.sigma
    assert sigma_degrees(g) == [1] * 6
    with pytest.raises(UsageError):
        build_graph(BuildingSpec("G", 2, 2, (1,)))


def test_expected_sigma_sizes():
    cases = [
        (BuildingSpec("A", 4, 2, (2,)), 10),
        (BuildingSpec("A", 2, 2, (1, 2)), 6),
        (BuildingSpec("D", 4, 2, (2,)), 24),
        (BuildingSpec("D", 4, 2, (3, 4)), 32),
        (BuildingSpec("C", 3, 2, (1,)), 6),
        (BuildingSpec("G", 2, 3, (1,)), 6),
    ]
    for spec, want in cases:
        assert len(build_graph(spec).sigma) == want


def test_build_graph_dispatch():
    assert build_graph(BuildingSpec("A", 3, 2, (2,))).num_vertices == 35
    assert build_graph(BuildingSpec("A", 2, 2, (1, 2))).num_vertices == 21
    assert build_graph(BuildingSpec("D", 4, 2, (3, 4))).num_vertices == 2025
    # Oriflamme single types n and n-1 are the two maximal families.
    plus = build_graph(BuildingSpec("D", 4, 2, (4,)))
    minus = build_graph(BuildingSpec("D", 4, 2, (3,)))
    assert plus.num_vertices == minus.num_vertices == 135
    plus_family = plus.spec
    assert all(plus_family.in_family(v[0]) for v in plus.vertices)
    assert not any(plus_family.in_family(v[0]) for v in minus.vertices)


# Graphs whose adjacency rows are checked bit by bit.
CHECKED_SPECS = [
    BuildingSpec("A", 3, 2, (2,)),
    BuildingSpec("A", 2, 2, (1, 2)),
    BuildingSpec("C", 3, 2, (1,)),
    BuildingSpec("D", 4, 2, (4,)),
    BuildingSpec("G", 2, 3, (1,)),
]


def edges_by_bits(graph):
    """Oracle for KneserGraph.later_neighbours(): the pairs i < j, one row bit
    at a time, in row order."""
    out = []
    for i, row in enumerate(graph.adjacency):
        bits = row >> (i + 1) << (i + 1)
        while bits:
            j = (bits & -bits).bit_length() - 1
            out.append([i, j])
            bits &= bits - 1
    return out


def test_all_graphs_symmetric_irreflexive():
    for spec in CHECKED_SPECS:
        assert check_symmetric_irreflexive(build_graph(spec))


@pytest.mark.parametrize("block", [buildings._BLOCK_ELEMS, 64])
def test_edges_match_per_bit_oracle(monkeypatch, block):
    # With 64-byte blocks the rows go one or two at a time; A_2 {1,2} F_2
    # (21 vertices, two rows a block) ends on a partial block.
    graphs = [build_graph(spec) for spec in CHECKED_SPECS]
    monkeypatch.setattr(buildings, "_BLOCK_ELEMS", block)
    for g in graphs:
        pairs = edges(g)
        assert pairs.shape == (g.num_edges(), 2)
        assert pairs.tolist() == edges_by_bits(g)
        # The rows the renders write, which edges() concatenates: tails
        # strictly increasing, each row's heads ascending and above its
        # tail, and no empty row.
        rows = list(g.later_neighbours())
        tails = [i for i, _ in rows]
        assert tails == sorted(set(tails))
        assert all(len(h) and h[0] > i and (np.diff(h) > 0).all() for i, h in rows)
        assert check_symmetric_irreflexive(g)
        i, j = pairs[-1]
        assert g.is_adjacent(i, j) and g.is_adjacent(j, i)


@pytest.mark.parametrize("block", [buildings._BLOCK_ELEMS, 64])
def test_check_symmetric_irreflexive_finds_bad_bits(monkeypatch, block):
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    monkeypatch.setattr(buildings, "_BLOCK_ELEMS", block)
    i, j = edges(g)[-1].tolist()
    k = next(v for v in range(g.num_vertices) if not g.adjacency[v] >> v + 1 & 1)

    def changed(row, bit):
        # The rows are set past the constructor, which refuses a self-loop.
        rows = list(g.adjacency)
        rows[row] ^= 1 << bit
        bad = buildings.KneserGraph(g.spec, g.vertices, g.adjacency, g.sigma)
        object.__setattr__(bad, "adjacency", tuple(rows))
        return bad

    assert not check_symmetric_irreflexive(changed(0, 0))      # self-loop
    assert not check_symmetric_irreflexive(changed(i, j))      # upper bit without its mirror
    assert not check_symmetric_irreflexive(changed(j, i))      # lower bit without its mirror
    assert not check_symmetric_irreflexive(changed(k, k + 1))  # new upper bit, no mirror
    assert not check_symmetric_irreflexive(changed(k + 1, k))  # new lower bit, no mirror


def test_apartment_graph_matches_full_builder_sigma():
    # The frame-only graph induces the same subgraph as the apartment of
    # the fully built graph.
    specs = [
        BuildingSpec("A", 3, 2, (2,)),
        BuildingSpec("A", 2, 2, (1, 2)),
        BuildingSpec("C", 3, 2, (1,)),
        BuildingSpec("D", 4, 2, (2,)),
    ]
    for spec in specs:
        apt = apartment_graph(spec)
        full = build_graph(spec)
        assert apt.num_vertices == len(full.sigma)
        idx = {flag: i for i, flag in enumerate(apt.vertices)}
        for a_pos, a in enumerate(full.sigma):
            for b_pos, b in enumerate(full.sigma):
                if a_pos < b_pos:
                    ia = idx[full.vertices[a]]
                    ib = idx[full.vertices[b]]
                    assert full.is_adjacent(a, b) == apt.is_adjacent(ia, ib)


@pytest.mark.parametrize("family,n,types,p", GRID_CELLS + [
    ("A", 3, (1, 2), 2), ("D", 4, (3,), 2), ("A", 5, (1, 5), 2), ("C", 4, (3,), 2),
    ("A", 4, (2, 3), 3)])
def test_vertices_enumerated_in_canonical_order(family, n, types, p):
    # The builder keeps the enumerators' order and never sorts it.
    vertices = buildings._vertices(BuildingSpec(family, n, p, types))
    assert vertices == sorted(vertices, key=lambda flag: tuple(s.key for s in flag))


@pytest.mark.parametrize("n,types,p", [
    (3, (1, 2, 3), 2), (3, (1, 2, 3), 3), (2, (1, 2), 3), (3, (1, 3), 3),
    (4, (1, 4), 2), (5, (1, 5), 2)])
def test_nested_flags_match_rank_oracle(n, types, p):
    # Nesting read from point masks, against the per-pair rank test, list
    # for list, on type-A flag cells the graph pins do not cover.
    vertices = buildings._vertices(BuildingSpec("A", n, p, types))
    assert vertices == nested_flags_by_rank(n + 1, types, p)


def test_vertex_counts_vs_filter_oracle():
    # Independent brute-force count: filter all k-subspaces by total
    # singularity instead of the incremental builder.
    from kneserlab.algebra import enumerate_subspaces, is_totally_singular

    spec = BuildingSpec("C", 3, 2, (2,))
    slow = sum(
        1
        for u in enumerate_subspaces(6, 2, 2)
        if is_totally_singular(u, spec.form)
    )
    assert build_graph(spec).num_vertices == slow


def rank_oracle(graph):
    """Per-pair adjacency from BuildingSpec.opposite: exact ranks of the basis
    matrices (general position of flags, or full rank of B_x G B_y^T for
    polar types), independent of the point-incidence kernel."""
    geo, verts = graph.spec, graph.vertices
    return lambda a, b: geo.opposite(verts[a], verts[b])


def kernel_rows_at_block_64(monkeypatch, graph):
    """The graph's rows made again with 64-entry blocks, which pair one
    column of points at a time."""
    with monkeypatch.context() as patch:
        patch.setattr(buildings, "_BLOCK_ELEMS", 64)
        return tuple(buildings._rows(graph.spec, graph.vertices))


@pytest.mark.parametrize("d,k,p", [
    (4, 1, 2), (5, 3, 3), (4, 2, 5), (4, 2, 7), (4, 0, 3), (4, 4, 5),
])
def test_annihilators_span_the_annihilator(d, k, p):
    # Against the nullspace oracle, from the zero space (k = 0) to the
    # whole space (k = d), which span_check and the matroid dual reach.
    subs = list(enumerate_subspaces(d, k, p))
    anns = _annihilators(buildings._matrices(subs).reshape(len(subs), k, d), p)
    for u, ann in zip(subs, anns):
        assert Subspace.span(ann.tolist(), d, p) == nullspace(u.matrix(), p)
    # With rows and columns reversed, each basis gives its points
    # normalised (first nonzero entry 1), one id per point; ann(F_p^d) = 0
    # has none.
    ids = buildings._point_ids(anns[:, ::-1, ::-1], p)
    assert ids.shape == (len(subs), (p ** (d - k) - 1) // (p - 1))
    vectors = ids[..., None] // p ** np.arange(d - 1, -1, -1) % p
    assert (np.take_along_axis(vectors, (vectors != 0).argmax(axis=2)[..., None], axis=2) == 1).all()
    assert all(len(set(row)) == len(row) for row in ids.tolist())


def test_kernel_rows_match_rank_oracle_all_pairs(monkeypatch):
    graphs = [build_graph(BuildingSpec("A", 3, 2, (i,))) for i in (1, 2, 3)] + [
        build_graph(BuildingSpec("A", 3, 2, (1, 3))),
        buildings._graph(BuildingSpec("A", 3, 2, (1, 2))),
        build_graph(BuildingSpec("C", 3, 2, (1,))),
        build_graph(BuildingSpec("D", 4, 2, (1,))),
        build_graph(BuildingSpec("D", 4, 2, (4,))),
        build_graph(BuildingSpec("D", 4, 2, (3,))),
        build_graph(BuildingSpec("G", 2, 3, (1,))),
    ]
    for g in graphs:
        adjacent = rank_oracle(g)
        rows = [0] * g.num_vertices
        for a, b in itertools.combinations(range(g.num_vertices), 2):
            if adjacent(a, b):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        assert g.adjacency == tuple(rows), g.spec
        assert kernel_rows_at_block_64(monkeypatch, g) == g.adjacency, g.spec


def test_kernel_rows_match_rank_oracle_random_pairs(monkeypatch):
    rng = random.Random(20261018)
    graphs = [
        build_graph(BuildingSpec("B", 3, 3, (2,))),
        build_graph(BuildingSpec("D", 4, 2, (3, 4))),
        build_graph(BuildingSpec("A", 4, 2, (2, 3))),
        build_graph(BuildingSpec("A", 4, 2, (3,))),
    ]
    for g in graphs:
        adjacent = rank_oracle(g)
        for _ in range(2000):
            a, b = rng.randrange(g.num_vertices), rng.randrange(g.num_vertices)
            assert g.is_adjacent(a, b) == adjacent(a, b), (g.spec, a, b)
        assert kernel_rows_at_block_64(monkeypatch, g) == g.adjacency, g.spec


def test_expected_num_vertices_on_grid():
    for family, n, types, p in GRID_CELLS:
        spec = BuildingSpec(family, n, p, types)
        assert expected_num_vertices(spec) == build_graph(spec).num_vertices, spec


def count_specs():
    """Every spec of rank <= 7 over F_2, F_3, F_5 and F_7 with at most three
    types: up to three type-A types, each polar single type, D_n's {n-1, n}."""
    specs = []
    for family, n, p in itertools.product(buildings.FAMILIES, range(1, 8), (2, 3, 5, 7)):
        for k in (1, 2, 3):
            for types in itertools.combinations(range(1, n + 1), k):
                try:
                    specs.append(BuildingSpec(family, n, p, types))
                except UsageError:
                    continue
    return specs


COUNT_SPECS = count_specs()


def test_vertex_count_matches_the_per_family_oracle():
    # P_W(q)/P_X(q) from the Weyl degrees against the per-family formula
    # through Gaussian binomials, over F_p and at q = 1, the frames.
    pairs = [(spec, q) for spec in COUNT_SPECS for q in (spec.p, 1)]
    assert len(pairs) == 1880
    for spec, q in pairs:
        assert buildings._vertex_count(spec, q) == expected_num_vertices(spec, q), (spec, q)


def test_count_and_degree_at_1_read_the_coset_quotient():
    # At q = 1 the count is |Sigma|, the quotient's cosets, and the degree is
    # each frame's opposites in Sigma, coset 0's row: on every self-opposite
    # spec with at most 1500 frames, once per geometry, since p plays no part.
    specs = {}
    for spec in COUNT_SPECS:
        if spec.self_opposite and buildings._vertex_count(spec, 1) <= 1500:
            specs.setdefault((spec.family, spec.rank, spec.types), spec)
    assert len(specs) == 127
    for spec in specs.values():
        q = spec.quotient
        assert buildings._vertex_count(spec, 1) == q.num_vertices, spec
        assert buildings._degree(spec, 1) == q.adjacency[0].bit_count(), spec


def test_degree_gate_refuses_a_row_that_loses_a_bit(monkeypatch):
    # A row that loses one bit on its own is an engine defect, named by the
    # vertex, the spec and the degree: 511 neighbours on D_4 lines over F_2,
    # where every vertex has 2^9. The cache is bypassed, so no graph is kept.
    rows = buildings._rows

    def one_bit_short(spec, vertices):
        made = rows(spec, vertices)
        made[7] &= made[7] - 1
        return made

    monkeypatch.setattr(buildings, "_rows", one_bit_short)
    with pytest.raises(RuntimeError, match=re.escape(
            "vertex 7 of spec {'family': 'D', 'rank': 4, 'p': 2, 'types': [2]} has 511 "
            "neighbours, expected 512")):
        buildings._graph.__wrapped__(BuildingSpec("D", 4, 2, (2,)))


@pytest.mark.parametrize("family,n,p", [("A", 63, 2), ("B", 32, 3), ("C", 32, 2), ("D", 32, 2)])
def test_dimension_64_bounds_the_vertex_count(family, n, p):
    # checked_vertex_count makes no count from dimension 64 on. At the least
    # rank that reaches it, over the least field, every single type, A {1,n}
    # and D {n-1,n} already has more than 10^18 vertices; counts only grow
    # with the rank and with p.
    assert BuildingSpec(family, n - 1, p, (1,)).dim < 64
    extra = {"A": [(1, n)], "D": [(n - 1, n)]}.get(family, [])
    for types in [(k,) for k in range(1, n + 1)] + extra:
        spec = BuildingSpec(family, n, p, types)
        assert spec.dim >= 64
        assert buildings._vertex_count(spec) > 10 ** 18, types
        with pytest.raises(UsageError, match="has over 10\\^18 vertices"):
            buildings.checked_vertex_count(spec)


def test_apartment_graph_refuses_point_ids_past_int64():
    # F_2^71 has point ids up to 2^71 - 1, which int64 would wrap.
    with pytest.raises(UsageError, match="dimension 71"):
        apartment_graph(BuildingSpec("A", 70, 2, (1,)))


def test_graph_checks_enumerated_count(monkeypatch):
    # An enumerator that loses one subspace is caught by the closed-form
    # count for every spec, not only for the tested ones.
    enumerate_all = buildings.enumerate_singular_subspaces
    monkeypatch.setattr(buildings, "enumerate_singular_subspaces",
                        lambda form, k: enumerate_all(form, k)[1:])
    spec = BuildingSpec("C", 3, 2, (2,))
    with pytest.raises(RuntimeError, match="enumerated 314 vertices .* expected 315"):
        buildings._graph.__wrapped__(spec)


def test_one_graph_per_spec_across_builders():
    # build_graph's one cache is keyed by the canonical spec, so a spec is
    # built once per process however its type set is spelled.
    planes = build_graph(BuildingSpec("D", 4, 2, (4, 3)))
    assert planes is build_graph(BuildingSpec("D", 4, 2, (3, 4)))


def test_cached_graphs_are_immutable():
    g = build_graph(BuildingSpec("D", 4, 2, (2,)))
    with pytest.raises(TypeError):
        g.adjacency[0] = 0
    with pytest.raises(TypeError):
        g.sigma[0] = 0
    with pytest.raises(AttributeError):
        g.sigma = ()
    with pytest.raises(AttributeError):
        g.adjacency = ()
    assert build_graph(BuildingSpec("D", 4, 2, (2,))).adjacency[0] != 0


@pytest.mark.parametrize("family,n,types", [("A", 3, (2,)), ("C", 3, (1,))])
def test_shared_values_refuse_assignment(family, n, types):
    # What the caches share with every caller refuses assignment: a vertex
    # of a built graph, a frame, the form, the quotient and its Weyl group;
    # psi and the quotient's coset index refuse writes. The graph's JSON,
    # and that of the same type at p = 3, do not move.
    spec, other = (BuildingSpec(family, n, p, types) for p in (2, 3))

    def dump(s):
        return json.dumps(graph_to_dict(build_graph(s)), sort_keys=True)

    before = dump(spec), dump(other)
    buildings._graph.cache_clear()
    g, q = build_graph(spec), spec.quotient
    attempts = [(g.vertices[0][0], "basis", g.vertices[-1][0].basis),
                (spec.frames[0][0], "basis", spec.frames[-1][0].basis),
                (q, "flags", q.flags[:2]), (q.group, "w0", q.group.generators[0])]
    if spec.form is not None:
        attempts.append((spec.form, "polar", spec.form.gram))
    for obj, name, value in attempts:
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
    with pytest.raises(ValueError, match="read-only"):
        g._psi[0, 0] = 1
    with pytest.raises(TypeError):
        q._index[q.flags[0]] = 1
    assert (dump(spec), dump(other)) == before


def test_derived_values_are_cached_properties_of_their_owners():
    # A spec's coset quotient and frames and a graph's full mask and psi are
    # made once and kept on the value that owns them. An equal spec made
    # separately makes a quotient of an equal group and equal frames of its
    # own, and equality and hashing ignore what is cached. Each refuses
    # assignment and deletion, and the psi of a graph built by hand dies
    # with that graph.
    spec, other = BuildingSpec("A", 3, 2, (2,)), BuildingSpec("A", 3, 2, [2])
    before = hash(other)
    assert spec.quotient is spec.quotient and "quotient" not in vars(other)
    assert spec.frames is spec.frames and "frames" not in vars(other)
    assert other.quotient is not spec.quotient and other.quotient.group == spec.quotient.group
    assert other.frames == spec.frames and other.frames is not spec.frames
    assert other == spec and hash(other) == hash(spec) == before
    g = build_graph(spec)
    assert g.full_mask is g.full_mask == (1 << g.num_vertices) - 1
    assert g._psi is g._psi
    for obj, name in ((spec, "quotient"), (spec, "frames"), (g, "_psi"), (g, "full_mask")):
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(obj, name)
    hand = KneserGraph(spec, g.vertices, g.adjacency, g.sigma)
    assert hand._psi is not g._psi and np.array_equal(hand._psi, g._psi)
    psi = weakref.ref(hand._psi)
    del hand
    gc.collect()
    assert psi() is None


def test_vertex_index_out_of_range_is_refused():
    # A negative index answered for vertex N-1, and an index past N-1
    # answered False or raised IndexError or ValueError, by its position.
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    for call in (lambda: g.is_adjacent(35, 0), lambda: g.is_adjacent(-1, 0),
                 lambda: g.is_adjacent(0, 40), lambda: g.is_adjacent(40, 0),
                 lambda: g.is_adjacent(0, -1)):
        with pytest.raises(UsageError, match="out of range for 35 vertices"):
            call()
    a, heads = next(g.later_neighbours())
    b = heads[0]
    assert g.is_adjacent(a, b) and g.is_adjacent(np.int64(b), np.int64(a))
    # A float raised a bare TypeError, True named vertex 1, and "1" raised
    # TypeError from the range test.
    for bad, kind in ((1.5, "float"), (True, "bool"), ("1", "str"), (np.float64(2), "float64")):
        for call in (lambda: g.is_adjacent(0, bad), lambda: g.is_adjacent(bad, 0),
                     lambda: is_coclique(g, [bad]), lambda: extension_set(g, [bad]),
                     lambda: extension_set(g, [0, bad])):
            with pytest.raises(UsageError, match="vertex index %s is a %s, not an integer"
                               % (re.escape(repr(bad)), kind)):
                call()
    assert g.num_edges() == len(edges(g))


def test_fold_generator_is_refused():
    # A "generator" of B_3 lines F_3 that maps each Sigma pair onto its
    # lower position is no permutation, yet it passes the orbit labeller's
    # image check: unrefused, check_ucep reports holds with 64 cocliques
    # where the built graph fails.
    g = build_graph(BuildingSpec("B", 3, 3, (2,)))
    fold = (0, 1, 1, 0, 4, 5, 6, 7, 5, 4, 7, 6)
    with pytest.raises(UsageError, match="^Sigma generator 0 is not a permutation of the 12 "
                       "Sigma positions$"):
        KneserGraph(g.spec, g.vertices, g.adjacency, g.sigma, [fold])
    # A true generator written in floats: unrefused, check_ucep raises
    # TypeError from numpy.
    floats = [float(j) for j in g.sigma_generators[0]]
    with pytest.raises(UsageError, match="^Sigma position index %r is a float, not an integer$"
                       % floats[0]):
        KneserGraph(g.spec, g.vertices, g.adjacency, g.sigma, [floats])


@pytest.mark.parametrize("change,message", [
    (lambda rows, sigma: (rows[:6], sigma), "^6 adjacency rows for 7 vertices: each vertex has "
     "one row$"),
    (lambda rows, sigma: (rows[:3] + [rows[3] | 1 << 7] + rows[4:], sigma),
     "^the row of vertex 3 is not a mask of vertices 0..6$"),
    (lambda rows, sigma: (rows[:3] + [rows[3] | 1 << 8] + rows[4:], sigma),
     "^the row of vertex 3 is not a mask of vertices 0..6$"),
    (lambda rows, sigma: ([-2] + rows[1:], sigma), "^the row of vertex 0 is not a mask of "
     "vertices 0..6$"),
    (lambda rows, sigma: (rows, [0, 1, -1]), "^Sigma vertex index -1 is out of range for 7 "
     "vertices$"),
    (lambda rows, sigma: (rows, [0, 1, 99]), "^Sigma vertex index 99 is out of range for 7 "
     "vertices$"),
    (lambda rows, sigma: (rows, [0, 0, 1]), "^Sigma vertex 0 is listed twice$"),
    (lambda rows, sigma: (rows[:2] + [np.int64(rows[2])] + rows[3:], sigma),
     "^the row of vertex 2 must be of type int, not int64$"),
    (lambda rows, sigma: (rows[:2] + [float(rows[2])] + rows[3:], sigma),
     "^the row of vertex 2 must be of type int, not float$"),
], ids=["too-few-rows", "bit-n", "bit-past-byte", "row-negative", "sigma-negative",
        "sigma-past-n", "sigma-repeated", "row-numpy-int", "row-float"])
def test_malformed_graph_is_refused(change, message):
    # A_2 points F_2, the Fano plane's 7 points. Unrefused, each input
    # misleads a later reader: with 6 of the 7 rows check_ucep reports
    # holds, and with Sigma (0, 0, 1) it counts 2 cocliques, not 3; a bit
    # at N leaves num_edges at 21, and one past the row's last byte makes
    # the DIMACS render raise OverflowError; a negative row reads as every
    # bit set from some point on; a Sigma entry -1 raises ValueError, and
    # 99 IndexError; a numpy int row has no bit_length, and a float row no
    # shift.
    g = build_graph(BuildingSpec("A", 2, 2, (1,)))
    rows, sigma = change(list(g.adjacency), list(g.sigma))
    with pytest.raises(UsageError, match=message):
        KneserGraph(g.spec, g.vertices, rows, sigma)


@pytest.mark.parametrize("family,n,types,p", [
    ("D", 4, (1, 2, 3), 2), ("D", 4, (1, 2), 2), ("D", 4, (2, 4), 2),
    ("B", 3, (2, 3), 3), ("C", 3, (1, 3), 2),
    ("G", 2, (2,), 3), ("G", 3, (3,), 3), ("G", 2, (1, 2), 3),
])
def test_geometry_rejects_unnamed_specs(family, n, types, p):
    with pytest.raises(UsageError, match="%s_%d type" % (family, n)):
        BuildingSpec(family, n, p, types)


@pytest.mark.parametrize("n,types,p", [(3, (3,), 2), (3, (2,), 3), (5, (5,), 2)])
def test_build_graph_refuses_one_family_of_odd_d(n, types, p, monkeypatch):
    # For n odd two maximal spaces of one family meet in odd dimension, so
    # none is opposite another: the type is not self-opposite.
    spec = BuildingSpec("D", n, p, types)
    assert not spec.self_opposite
    monkeypatch.setattr(buildings, "_vertices", None)
    with pytest.raises(UsageError, match="not self-opposite"):
        build_graph(spec)


def test_odd_d_other_types_still_build():
    lines = build_graph(BuildingSpec("D", 3, 2, (2, 3)))
    points = build_graph(BuildingSpec("D", 3, 2, (1,)))
    assert (lines.num_vertices, points.num_vertices) == (105, 35)
    assert lines.num_edges() and points.num_edges()
    for n in (2, 4):
        assert BuildingSpec("D", n, 2, (n,)).self_opposite
        assert BuildingSpec("D", n, 2, (n - 1,)).self_opposite
    assert BuildingSpec("D", 5, 2, (4, 5)).self_opposite


def test_geometry_names_the_d_families():
    plus, minus, planes = (BuildingSpec("D", 5, 2, t) for t in [(5,), (4,), (4, 5)])
    assert (plus.parts, plus.oriflamme) == ((5,), "plus")
    assert (minus.parts, minus.oriflamme) == ((5,), "minus")
    assert (planes.parts, planes.oriflamme) == ((4,), None)
    g2, b3 = (BuildingSpec(f, n, 3, (1,)) for f, n in [("G", 2), ("B", 3)])
    assert g2.dim == b3.dim == 7
    assert (g2.form.kind, g2.form.gram.tolist()) == (b3.form.kind, b3.form.gram.tolist())
    # Frames of the apartment: 2^(n-1) per family, and the even words of
    # the minus family name odd frames.
    for geo in (plus, minus):
        assert len(set(geo.frames)) == len(frame_words(geo)) == 16
    assert not set(plus.frames) & set(minus.frames)
    assert len(planes.frames) == 5 * 2 ** 4
    assert minus.frames[0] == frame_of_word(minus, (1, 2, 3, 4, 5)) == (
        plus.coordinate((1, 2, 3, 4, -5)),)


def _oracle_specs(family):
    """Every spec of the family of rank <= 6 over F_2 and F_3 whose
    apartment has at most buildings.MAX_FRAMES frames."""
    specs = []
    for p, n in itertools.product((2, 3), range(1, 7)):
        for k in range(1, n + 1):
            for types in itertools.combinations(range(1, n + 1), k):
                try:
                    spec = BuildingSpec(family, n, p, types)
                except UsageError:
                    continue
                if buildings._vertex_count(spec, 1) <= buildings.MAX_FRAMES:
                    specs.append(spec)
    return specs


@pytest.mark.parametrize("family,count", [("A", 206), ("B", 20), ("C", 40), ("D", 50),
                                          ("G", 1)])
def test_frames_match_the_word_oracle(family, count):
    # The coset quotient's frames against the frame words: the same frame
    # objects, the same apartment_graph vertices, whose rows the kernel
    # makes from them alone (apart from the three A_6 flag types over F_3
    # it refuses for their point ids) and, on the specs of at most 3000
    # vertices, the same Sigma and generator permutations.
    specs = _oracle_specs(family)
    assert len(specs) == count
    for spec in specs:
        geo = spec
        frames, words = geo.frames, [frame_of_word(geo, w) for w in frame_words(geo)]
        assert len(frames) == len(set(frames)) == len(words)
        assert set(frames) == set(words), spec
        try:
            apt = apartment_graph(spec)
        except UsageError as exc:
            assert "point ids" in str(exc)
        else:
            assert apt.vertices == tuple(sorted(words)), spec
        if buildings._vertex_count(spec) <= 3000:
            g = buildings._graph(spec)
            assert (g.sigma, g.sigma_generators) == apartment_by_words(geo, g.vertices), spec


def test_spec_and_frame_refusals():
    with pytest.raises(UsageError, match=r"^family must be one of \('A', 'B', 'C', 'D', 'G'\)$"):
        BuildingSpec("E", 6, 2, (1,))
    for family, labels in (("A", [5]), ("A", [0]), ("C", [4]), ("C", [-4])):
        with pytest.raises(UsageError, match="^frame label out of range$"):
            BuildingSpec(family, 3, 2, (1,)).coordinate(labels)
    # An apartment whose frames are missing from the vertex list is an
    # engine defect, not a usage error.
    with pytest.raises(RuntimeError, match="^frame object is not a vertex"):
        buildings._apartment(BuildingSpec("A", 2, 2, (1,)), [])


def e(*cols, d=4):
    """Rows e_c of F_p^d, one per column."""
    return [[int(c == j) for j in range(d)] for c in cols]


A3_13 = BuildingSpec("A", 3, 2, (1, 3))


@pytest.mark.parametrize("spec,flag,why", [
    (A3_13, [e(0)], "does not have 2 parts"),
    (A3_13, (e(0), e(0, 1, 2)), "does not have 2 parts"),
    (A3_13, [e(0), e(0, 1)], r"is not a flag of \(1, 3\)-spaces of F_2\^4"),
    (A3_13, [[[1, 0, 0]], e(0, 1, 2)], r"is not a flag of \(1, 3\)"),
    (A3_13, [[[1.0, 0, 0, 0]], e(0, 1, 2)], r"is not a flag of \(1, 3\)"),
    (A3_13, [e(0), e(1, 2, 3)], "is not a nested flag"),
    # e_1', e_2, e_3, e_4: totally singular, with primed columns of rank 1.
    (BuildingSpec("D", 4, 2, (4,)), [e(1, 2, 4, 6, d=8)], "is not in the plus family"),
])
def test_vertex_refusals(spec, flag, why):
    with pytest.raises(UsageError, match="^vertex 7 %s" % why):
        spec.vertex(flag, 7)
    assert BuildingSpec("D", 4, 2, (3,)).vertex([e(1, 2, 4, 6, d=8)], 0)[0].dim == 4
