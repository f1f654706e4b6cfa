"""Tests for Weyl groups as signed permutations and the coset-level
Kneser graphs on parabolic quotients."""

import itertools

import pytest

from kneserlab.coxeter import (
    ParabolicQuotient,
    WeylGroup,
    check_lifting,
    compose,
    identity,
    is_self_opposite,
    phi_map,
    shortest_double_coset,
    weyl_group,
)
from kneserlab.errors import UsageError


def graph_degrees(quotient):
    return sorted(bin(row).count("1") for row in quotient.adjacency)


def test_group_orders():
    assert weyl_group("A", 3).order == 24
    assert weyl_group("B", 3).order == 48
    assert weyl_group("D", 4).order == 192
    assert weyl_group("A", 4).order == 120
    assert weyl_group("B", 2).order == 8


def test_longest_elements():
    assert weyl_group("A", 3).w0 == (4, 3, 2, 1)
    assert weyl_group("B", 3).w0 == (-1, -2, -3)
    assert weyl_group("D", 4).w0 == (-1, -2, -3, -4)
    # D_3 has odd rank, so -identity is not in the group; w0 fixes a sign
    # pattern with an even number of flips.
    w0 = weyl_group("D", 3).w0
    assert sum(1 for x in w0 if x < 0) % 2 == 0


def test_w0_involution_and_length_descent():
    for family, n in [("A", 3), ("A", 4), ("B", 3), ("D", 4)]:
        g = weyl_group(family, n)
        assert compose(g.w0, g.w0) == identity(g.m)
        for s in g.generators:
            assert g.length[compose(g.w0, s)] < g.length[g.w0]


def test_length_matches_positive_root_count():
    roots = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
             "D": lambda n: n * (n - 1)}
    for family, n in [("A", 3), ("A", 4), ("B", 3), ("D", 4)]:
        g = weyl_group(family, n)
        assert g.length[g.w0] == roots[family](n)


def test_coset_counts():
    g = weyl_group("A", 3)
    q = ParabolicQuotient(g, (2,))
    assert q.num_vertices == 6
    assert q.num_vertices * len(q.subgroup) == g.order


def test_a3_two_subsets_is_perfect_matching():
    q = ParabolicQuotient(weyl_group("A", 3), (2,))
    assert graph_degrees(q) == [1] * 6


def test_a4_two_subsets_is_petersen():
    q = ParabolicQuotient(weyl_group("A", 4), (2,))
    assert q.num_vertices == 10
    assert graph_degrees(q) == [3] * 10
    # Petersen: 3-regular, girth 5 (no triangles, no 4-cycles).
    for i, j in q.edges():
        assert not (q.adjacency[i] & q.adjacency[j])


def test_a2_chambers_unique_opposite():
    q = ParabolicQuotient(weyl_group("A", 2), (1, 2))
    assert q.num_vertices == 6
    assert graph_degrees(q) == [1] * 6
    g = weyl_group("A", 2)
    for i, w in enumerate(q.representatives):
        opp = q.coset_index[compose(w, g.w0)]
        assert q.is_adjacent(i, opp)


def test_coset_bijection_to_set_kneser():
    # coset of W(A_n)/W_{J=i} <-> i-subset {w(1),...,w(i)}; adjacency is
    # general position of the image subsets (plain disjointness when
    # 2i <= n+1), exhaustively for n <= 4.
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            g = weyl_group("A", n)
            q = ParabolicQuotient(g, (i,))
            labels = [frozenset(w[:i]) for w in q.representatives]
            assert len(set(labels)) == q.num_vertices
            overlap = max(0, 2 * i - (n + 1))
            for a in range(q.num_vertices):
                for b in range(a + 1, q.num_vertices):
                    opposite = len(labels[a] & labels[b]) == overlap
                    assert q.is_adjacent(a, b) == opposite


def test_phi_map_identity_and_chambers():
    g = weyl_group("A", 3)
    chambers = ParabolicQuotient(g, (1, 2, 3))
    mid = ParabolicQuotient(g, (2,))
    mapping = phi_map(chambers, mid)
    assert len(mapping) == 24
    assert phi_map(mid, mid) == list(range(mid.num_vertices))
    sub = ParabolicQuotient(g, (1,))
    fine13 = ParabolicQuotient(g, (1, 3))
    assert len(phi_map(fine13, sub)) == fine13.num_vertices


def test_phi_map_requires_nested_types():
    g = weyl_group("A", 3)
    with pytest.raises(UsageError):
        phi_map(ParabolicQuotient(g, (1,)), ParabolicQuotient(g, (2,)))


def test_check_lifting_a3():
    g = weyl_group("A", 3)
    chambers = ParabolicQuotient(g, (1, 2, 3))
    ok, cex = check_lifting(chambers, ParabolicQuotient(g, (2,)))
    assert ok and cex is None
    ok, cex = check_lifting(chambers, ParabolicQuotient(g, (1, 3)))
    assert ok and cex is None
    ok, cex = check_lifting(chambers, chambers)
    assert ok and cex is None


def test_check_lifting_rejects_non_stable_types():
    g = weyl_group("A", 3)
    assert not is_self_opposite(g, (1,))
    with pytest.raises(UsageError):
        check_lifting(ParabolicQuotient(g, (1, 2, 3)), ParabolicQuotient(g, (1,)))


def test_shortest_double_coset():
    g = weyl_group("A", 3)
    # X trivial: the double coset is {w0}.
    assert shortest_double_coset(g, (1, 2, 3)) == g.w0
    # Degenerate J = empty set: X = W, so the double coset is all of W.
    assert shortest_double_coset(g, ()) == identity(4)
    # The transfer criterion instance: J = {1,2} and J = {2} share the
    # shortest element of X w0 X.
    assert shortest_double_coset(g, (1, 2)) == shortest_double_coset(g, (2,))


def test_rank_limits():
    with pytest.raises(UsageError):
        WeylGroup("A", 9)
    with pytest.raises(UsageError):
        WeylGroup("E", 3)
    with pytest.raises(UsageError):
        ParabolicQuotient(weyl_group("A", 3), (0,))
    # J empty makes X = W, which holds w0: the one coset would be its own
    # opposite.
    with pytest.raises(UsageError, match="nonempty"):
        ParabolicQuotient(weyl_group("B", 3), ())
