"""Tests for Weyl groups as signed permutations and the coset-level
Kneser graphs on parabolic quotients, against the whole-group oracles."""

import itertools

import numpy as np
import pytest

from oracles import (
    QuotientByElements,
    longest_element,
    parabolic,
    shortest_double_coset_by_elements,
    weyl_lengths,
)

from kneserlab.coxeter import (
    ParabolicQuotient,
    WeylGroup,
    check_lifting,
    compose,
    degrees,
    identity,
    is_self_opposite,
    phi_map,
    shortest_double_coset,
)
from kneserlab.errors import UsageError


def graph_degrees(quotient):
    return sorted(bin(row).count("1") for row in quotient.adjacency)


def test_group_orders():
    assert WeylGroup("A", 3).order == 24
    assert WeylGroup("B", 3).order == 48
    assert WeylGroup("D", 4).order == 192
    assert WeylGroup("A", 4).order == 120
    assert WeylGroup("B", 2).order == 8
    for family, n in [("A", 5), ("B", 5), ("D", 2), ("D", 3), ("D", 5)]:
        assert WeylGroup(family, n).order == len(weyl_lengths(family, n))


@pytest.mark.parametrize("family,n", [("A", 0), ("A", 5), ("B", 0), ("B", 5), ("D", 0),
                                      ("D", 1), ("D", 2), ("D", 3), ("D", 5)])
def test_degrees_give_the_length_generating_function(family, n):
    # Chevalley: sum over w of q^l(w) is the product of [e]_q over the
    # degrees, coefficient by coefficient against the whole group; D_0, D_1
    # and B_0 are trivial.
    poly = np.ones(1, dtype=np.int64)
    for e in degrees(family, n):
        poly = np.convolve(poly, np.ones(e, dtype=np.int64))
    if n == 0 or (family, n) == ("D", 1):
        assert poly.tolist() == [1]
        return
    lengths = np.bincount(list(weyl_lengths(family, n).values()))
    assert poly.tolist() == lengths.tolist()


def test_longest_elements():
    assert WeylGroup("A", 3).w0 == (4, 3, 2, 1)
    assert WeylGroup("B", 3).w0 == (-1, -2, -3)
    assert WeylGroup("D", 4).w0 == (-1, -2, -3, -4)
    # D_3 has odd rank, so -identity is not in the group; w0 fixes a sign
    # pattern with an even number of flips.
    w0 = WeylGroup("D", 3).w0
    assert sum(1 for x in w0 if x < 0) % 2 == 0
    for family, n in [("A", 1), ("A", 5), ("B", 5), ("D", 2), ("D", 3), ("D", 5)]:
        assert WeylGroup(family, n).w0 == longest_element(family, n)


def test_w0_involution_and_length_descent():
    for family, n in [("A", 3), ("A", 4), ("B", 3), ("D", 4)]:
        g, length = WeylGroup(family, n), weyl_lengths(family, n)
        assert compose(g.w0, g.w0) == identity(g.m)
        for s in g.generators:
            assert length[compose(g.w0, s)] < length[g.w0]


def test_length_matches_positive_root_count():
    roots = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
             "D": lambda n: n * (n - 1)}
    for family, n in [("A", 3), ("A", 4), ("B", 3), ("D", 4)]:
        g = WeylGroup(family, n)
        assert weyl_lengths(family, n)[g.w0] == roots[family](n)


def test_coset_counts():
    g = WeylGroup("A", 3)
    q = ParabolicQuotient(g, (2,))
    assert q.num_vertices == 6
    assert q.num_vertices * len(parabolic("A", 3, (2,))) == g.order


def test_a3_two_subsets_is_perfect_matching():
    q = ParabolicQuotient(WeylGroup("A", 3), (2,))
    assert graph_degrees(q) == [1] * 6


def test_a4_two_subsets_is_petersen():
    q = ParabolicQuotient(WeylGroup("A", 4), (2,))
    assert q.num_vertices == 10
    assert graph_degrees(q) == [3] * 10
    # Petersen: 3-regular, girth 5 (no triangles, no 4-cycles).
    for i, j in q.edges():
        assert not (q.adjacency[i] & q.adjacency[j])


def test_a2_chambers_unique_opposite():
    q = ParabolicQuotient(WeylGroup("A", 2), (1, 2))
    assert q.num_vertices == 6
    assert graph_degrees(q) == [1] * 6
    g = WeylGroup("A", 2)
    for i, w in enumerate(q.representatives):
        opp = q.index(compose(w, g.w0))
        assert q.is_adjacent(i, opp)


def test_coset_bijection_to_set_kneser():
    # coset of W(A_n)/W_{J=i} <-> i-subset {w(1),...,w(i)}; adjacency is
    # general position of the image subsets (plain disjointness when
    # 2i <= n+1), exhaustively for n <= 4.
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            g = WeylGroup("A", n)
            q = ParabolicQuotient(g, (i,))
            labels = [frozenset(w[:i]) for w in q.representatives]
            assert len(set(labels)) == q.num_vertices
            overlap = max(0, 2 * i - (n + 1))
            for a in range(q.num_vertices):
                for b in range(a + 1, q.num_vertices):
                    opposite = len(labels[a] & labels[b]) == overlap
                    assert q.is_adjacent(a, b) == opposite


def test_phi_map_identity_and_chambers():
    g = WeylGroup("A", 3)
    chambers = ParabolicQuotient(g, (1, 2, 3))
    mid = ParabolicQuotient(g, (2,))
    mapping = phi_map(chambers, mid)
    assert len(mapping) == 24
    assert phi_map(mid, mid) == list(range(mid.num_vertices))
    sub = ParabolicQuotient(g, (1,))
    fine13 = ParabolicQuotient(g, (1, 3))
    assert len(phi_map(fine13, sub)) == fine13.num_vertices


def test_phi_map_requires_nested_types():
    g = WeylGroup("A", 3)
    with pytest.raises(UsageError):
        phi_map(ParabolicQuotient(g, (1,)), ParabolicQuotient(g, (2,)))


def test_check_lifting_a3():
    g = WeylGroup("A", 3)
    chambers = ParabolicQuotient(g, (1, 2, 3))
    ok, cex = check_lifting(chambers, ParabolicQuotient(g, (2,)))
    assert ok and cex is None
    ok, cex = check_lifting(chambers, ParabolicQuotient(g, (1, 3)))
    assert ok and cex is None
    ok, cex = check_lifting(chambers, chambers)
    assert ok and cex is None


def test_check_lifting_rejects_non_stable_types():
    g = WeylGroup("A", 3)
    assert not is_self_opposite(g, (1,))
    with pytest.raises(UsageError):
        check_lifting(ParabolicQuotient(g, (1, 2, 3)), ParabolicQuotient(g, (1,)))


def test_shortest_double_coset():
    g = WeylGroup("A", 3)
    # X trivial: the double coset is {w0}.
    assert shortest_double_coset(g, (1, 2, 3)) == g.w0
    # Degenerate J = empty set: X = W, so the double coset is all of W.
    assert shortest_double_coset(g, ()) == identity(4)
    # The transfer criterion instance: J = {1,2} and J = {2} share the
    # shortest element of X w0 X.
    assert shortest_double_coset(g, (1, 2)) == shortest_double_coset(g, (2,))


def test_rank_limits():
    # No rank is too large: w0 and |W| are closed forms, and a quotient
    # makes only its cosets.
    assert WeylGroup("A", 9).order == 3628800
    assert ParabolicQuotient(WeylGroup("B", 9), (1,)).num_vertices == 18
    with pytest.raises(UsageError):
        WeylGroup("D", 1)
    with pytest.raises(UsageError):
        WeylGroup("E", 3)
    with pytest.raises(UsageError):
        ParabolicQuotient(WeylGroup("A", 3), (0,))
    # J empty makes X = W, which holds w0: the one coset would be its own
    # opposite.
    with pytest.raises(UsageError, match="nonempty"):
        ParabolicQuotient(WeylGroup("B", 3), ())


@pytest.mark.parametrize("make,message", [
    (lambda: WeylGroup("A", True), "^rank must be of type int, not True$"),
    (lambda: WeylGroup("A", 4.0), "^rank must be of type int, not 4.0$"),
    (lambda: WeylGroup(1, 3), "^family must be of type str, not 1$"),
    (lambda: ParabolicQuotient(WeylGroup("A", 3), (2.0,)), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(WeylGroup("A", 3), ("2",)), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(WeylGroup("A", 3), (True,)), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(WeylGroup("A", 3), [True]),
     r"^types must be an iterable of ints, not \[True\]$"),
    (lambda: ParabolicQuotient(WeylGroup("A", 3), 2), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(("A", 3), (2,)), "^group must be of type WeylGroup"),
], ids=["rank-bool", "rank-float", "family-int", "types-float", "types-str", "types-bool",
        "types-bool-list", "types-int", "group-tuple"])
def test_weyl_groups_and_quotients_refuse_field_types(make, message):
    # A bool or float equals the int it stands for, so a group or type set
    # holding one would pass for the int one: each is refused by name.
    with pytest.raises(UsageError, match=message):
        make()


def test_weyl_groups_compare_by_family_and_rank():
    # Two groups made apart are one value: equal and hashed alike for one
    # family and rank, unequal across families and ranks.
    a, b = WeylGroup("A", 3), WeylGroup("A", 3)
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert WeylGroup("A", 3) != WeylGroup("B", 3) != WeylGroup("B", 4)
    assert WeylGroup("A", 3) != ("A", 3)


@pytest.mark.parametrize("types,message", [
    ((0,), "^type 0 is not a node 1..3 of the diagram$"),
    ((5,), "^type 5 is not a node 1..3 of the diagram$"),
    ((True,), r"^types must be an iterable of ints, not \(True,\)$"),
], ids=["zero", "past-rank", "bool"])
def test_is_self_opposite_refuses_a_type_it_cannot_read(types, message):
    # Unrefused, 0 read the last generator as if it were type 3, 5 raised
    # IndexError, and True was read as type 1.
    with pytest.raises(UsageError, match=message):
        is_self_opposite(WeylGroup("A", 3), types)


@pytest.mark.parametrize("family,n", [("A", n) for n in range(1, 6)]
                         + [(f, n) for f in "BD" for n in range(2, 6)])
def test_cosets_match_the_whole_group_oracle(family, n):
    # Every type set, the empty one included: the representatives in
    # order, the rows, the index of every element, phi_map from the
    # chambers and the shortest element of X w0 X.
    g = WeylGroup(family, n)
    chambers = ParabolicQuotient(g, range(1, n + 1))
    oracle_chambers = QuotientByElements(family, n, tuple(range(1, n + 1)))
    for k in range(n + 1):
        for types in itertools.combinations(range(1, n + 1), k):
            assert shortest_double_coset(g, types) == shortest_double_coset_by_elements(
                family, n, types)
            if not types:
                continue
            q, oracle = ParabolicQuotient(g, types), QuotientByElements(family, n, types)
            assert q.representatives == oracle.representatives
            assert q.adjacency == oracle.adjacency
            assert all(q.index(w) == i for w, i in oracle.coset_index.items())
            assert phi_map(chambers, q) == [oracle.coset_index[w]
                                            for w in oracle_chambers.representatives]


def test_phi_map_refusals():
    # Quotients of two different groups; and a coarse quotient with one
    # edge removed, which the fine quotient's edge then misses.
    with pytest.raises(UsageError, match="^quotients belong to different groups$"):
        phi_map(ParabolicQuotient(WeylGroup("A", 3), (1,)),
                ParabolicQuotient(WeylGroup("B", 3), (1,)))
    fine, coarse = (ParabolicQuotient(WeylGroup("A", 4), (2,)) for _ in range(2))
    a, b = next(fine.edges())
    rows = list(coarse.adjacency)
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    vars(coarse)["adjacency"] = tuple(rows)
    with pytest.raises(UsageError, match=r"^coset map is not a homomorphism: edge \(%d,%d\) "
                       "collapses$" % (a, b)):
        phi_map(fine, coarse)


def test_phi_map_accepts_equal_groups_made_apart():
    # A group is its family and rank: quotients of two W(A_3) made apart
    # map as quotients of one.
    fine = ParabolicQuotient(WeylGroup("A", 3), (1, 2, 3))
    coarse = ParabolicQuotient(WeylGroup("A", 3), (2,))
    shared = ParabolicQuotient(fine.group, (2,))
    assert phi_map(fine, coarse) == phi_map(fine, shared)
    assert check_lifting(fine, coarse) == (True, None)
