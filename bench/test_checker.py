"""Tests of the benchmark's independent checker against known figures.

    python3 -m pytest bench/test_checker.py
"""

import itertools
from collections import Counter

import pytest

from checker import Cell, column_ranks, rank, rref, union_max, verify_witness


def brute_vertices(cell):
    """Every vertex of a single-type cell with k <= 2, from point pairs."""
    d, p = cell.dim, cell.p
    points = [list(v) for v in itertools.product(range(p), repeat=d)
              if any(v) and next(x for x in v if x) == 1]
    if cell.part_dims()[0] == 1:
        candidates = [[v] for v in points]
    else:
        spans = {rref([a, b], p) for a, b in itertools.combinations(points, 2)}
        candidates = [[list(r) for r in s] for s in spans]
    return [(c,) for c in candidates if cell.is_vertex((c,))]


def test_rref_is_canonical_and_rank_exact():
    assert rref([[0, 2, 1], [0, 1, 2]], 3) == ((0, 1, 2),)
    assert rref([[1, 1, 0], [1, 0, 1]], 2) == ((1, 0, 1), (0, 1, 1))
    assert rank([[1, 2], [2, 4]], 5) == 1
    assert rank([[1, 2], [2, 4]], 7) == 1
    assert rank([[1, 2], [3, 4]], 2) == 1
    assert rank([[1, 2], [3, 4]], 3) == 2


def test_petersen_apartment_profile():
    profile = Counter(len(c) for c in Cell("A", 4, (2,), 2).sigma_cocliques())
    assert profile == Counter({3: 10, 4: 5})


@pytest.mark.parametrize("cell, count", [
    (("D", 4, (2,), 2), 4096),
    (("D", 4, (3, 4), 2), 65536),
    (("A", 4, (2, 3), 2), 32768),
])
def test_sigma_coclique_counts(cell, count):
    assert len(Cell(*cell).sigma_cocliques()) == count


def test_b3_2_fixture_witnesses_are_adjacent_vertices():
    cell = Cell("B", 3, (2,), 3)
    x = ([[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 1]],)
    y = ([[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1]],)
    assert cell.is_vertex(x) and cell.is_vertex(y)
    assert cell.adjacent(x, y)


@pytest.mark.parametrize("cell, vertices", [
    (("A", 3, (2,), 2), 35), (("C", 3, (1,), 2), 63), (("D", 4, (1,), 2), 135),
    (("D", 4, (2,), 2), 1575), (("D", 4, (3, 4), 2), 2025), (("B", 3, (2,), 3), 3640),
    (("C", 3, (3,), 3), 1120), (("A", 4, (2, 3), 2), 1085), (("G", 2, (1,), 3), 364),
])
def test_vertex_counts(cell, vertices):
    assert Cell(*cell).vertex_count() == vertices


@pytest.mark.parametrize("cell", [
    ("A", 3, (2,), 2), ("C", 3, (1,), 2), ("D", 4, (1,), 2), ("G", 2, (1,), 3),
])
def test_closed_forms_match_brute_force(cell):
    c = Cell(*cell)
    verts = brute_vertices(c)
    assert len(verts) == c.vertex_count()
    edges = sum(c.adjacent(x, y) for x, y in itertools.combinations(verts, 2))
    assert edges == c.edge_count()


def test_non_self_opposite_type_has_no_edge_formula():
    assert Cell("A", 3, (1,), 2).edge_count() is None
    assert Cell("A", 4, (2,), 2).edge_count() is None


def test_witness_checker_rejects_broken_witnesses():
    cell = Cell("B", 3, (2,), 3)
    x = [[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 1]]
    y = [[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1]]
    frames = cell.frame_objects()
    coc = next(
        sorted(c) for c in cell.sigma_cocliques()
        if not any(cell.adjacent(v, frames[i]) for v in ([x], [y]) for i in c)
    )
    witness = {"coclique": [frames[i] for i in coc], "x": [x], "y": [y]}
    assert verify_witness(cell, witness) == []
    assert verify_witness(cell, dict(witness, y=[x])) != []
    assert verify_witness(cell, dict(witness, coclique=witness["coclique"][1:])) != []
    not_singular = [[1, 1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0]]
    assert verify_witness(cell, dict(witness, x=[not_singular])) != []


def test_union_max_matches_the_union_rank_formula():
    rows1 = [[1, 0, 1, 1], [0, 1, 1, 0]]
    rows2 = [[1, 1, 0, 1]]
    r1, r2 = column_ranks(rows1, 2), column_ranks(rows2, 2)
    ground = range(4)
    formula = min(
        len(ground) - len(sub) + r1[sum(1 << j for j in sub)] + r2[sum(1 << j for j in sub)]
        for size in range(5) for sub in itertools.combinations(ground, size)
    )
    assert union_max(r1, r2, ground) == formula == 3
