"""Tests for Weyl groups as signed permutations and the coset-level
Kneser graphs on parabolic quotients, against the whole-group oracles."""

import itertools
import os
import re
import subprocess
import sys

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
    identity,
    is_self_opposite,
    phi_map,
    quotient,
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
    for family, n in [("A", 5), ("B", 5), ("D", 2), ("D", 3), ("D", 5)]:
        assert weyl_group(family, n).order == len(weyl_lengths(family, n))


def test_longest_elements():
    assert weyl_group("A", 3).w0 == (4, 3, 2, 1)
    assert weyl_group("B", 3).w0 == (-1, -2, -3)
    assert weyl_group("D", 4).w0 == (-1, -2, -3, -4)
    # D_3 has odd rank, so -identity is not in the group; w0 fixes a sign
    # pattern with an even number of flips.
    w0 = weyl_group("D", 3).w0
    assert sum(1 for x in w0 if x < 0) % 2 == 0
    for family, n in [("A", 1), ("A", 5), ("B", 5), ("D", 2), ("D", 3), ("D", 5)]:
        assert weyl_group(family, n).w0 == longest_element(family, n)


def test_w0_involution_and_length_descent():
    for family, n in [("A", 3), ("A", 4), ("B", 3), ("D", 4)]:
        g, length = weyl_group(family, n), weyl_lengths(family, n)
        assert compose(g.w0, g.w0) == identity(g.m)
        for s in g.generators:
            assert length[compose(g.w0, s)] < length[g.w0]


def test_length_matches_positive_root_count():
    roots = {"A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n,
             "D": lambda n: n * (n - 1)}
    for family, n in [("A", 3), ("A", 4), ("B", 3), ("D", 4)]:
        g = weyl_group(family, n)
        assert weyl_lengths(family, n)[g.w0] == roots[family](n)


def test_coset_counts():
    g = weyl_group("A", 3)
    q = ParabolicQuotient(g, (2,))
    assert q.num_vertices == 6
    assert q.num_vertices * len(parabolic("A", 3, (2,))) == g.order


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
        opp = q.index(compose(w, g.w0))
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
    # No rank is too large: w0 and |W| are closed forms, and a quotient
    # makes only its cosets.
    assert WeylGroup("A", 9).order == 3628800
    assert ParabolicQuotient(weyl_group("B", 9), (1,)).num_vertices == 18
    with pytest.raises(UsageError):
        WeylGroup("D", 1)
    with pytest.raises(UsageError):
        WeylGroup("E", 3)
    with pytest.raises(UsageError):
        ParabolicQuotient(weyl_group("A", 3), (0,))
    # J empty makes X = W, which holds w0: the one coset would be its own
    # opposite.
    with pytest.raises(UsageError, match="nonempty"):
        ParabolicQuotient(weyl_group("B", 3), ())


@pytest.mark.parametrize("make,message", [
    (lambda: weyl_group("A", True), "^rank must be of type int, not True$"),
    (lambda: weyl_group("A", 4.0), "^rank must be of type int, not 4.0$"),
    (lambda: WeylGroup(1, 3), "^family must be of type str, not 1$"),
    (lambda: ParabolicQuotient(weyl_group("A", 3), (2.0,)), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(weyl_group("A", 3), ("2",)), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(weyl_group("A", 3), (True,)), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(weyl_group("A", 3), 2), r"^types must be an iterable of ints"),
    (lambda: ParabolicQuotient(("A", 3), (2,)), "^group must be of type WeylGroup"),
], ids=["rank-bool", "rank-float", "family-int", "types-float", "types-str", "types-bool",
        "types-int", "group-tuple"])
def test_weyl_groups_and_quotients_refuse_field_types(make, message):
    # A bool or float hashes equal to the int that keys the caches, so it
    # must be refused before anything is cached under that key.
    with pytest.raises(UsageError, match=message):
        make()
    assert type(weyl_group("A", 1).rank) is int


def test_refused_fields_leave_the_caches_clean():
    # Fresh caches, as in a new process: a refused quotient must not be
    # cached under the key of the int type set a spec asks for next.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    script = ("from kneserlab.buildings import BuildingSpec\n"
              "from kneserlab.coxeter import quotient, weyl_group\n"
              "from kneserlab.errors import UsageError\n"
              "refused = []\n"
              "for call in (lambda: weyl_group('A', True), lambda: quotient('A', 3, (True,))):\n"
              "    try:\n"
              "        call()\n"
              "        refused.append(False)\n"
              "    except UsageError:\n"
              "        refused.append(True)\n"
              "print(refused, weyl_group('A', 1).rank, BuildingSpec('A', 3, 2, (1,)).quotient.types)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[True, True] 1 (1,)\n"


def test_cached_quotient_refuses_equal_type_sets():
    # (True,) == (1,) and (1.0,) == (1,), and typed=True types only the
    # top-level arguments: once (1,) is cached, the lookup found its entry,
    # so the type set is checked before the cache is read. A cache clearer
    # that follows __wrapped__, as the benchmark's does, reaches the cache.
    assert quotient("A", 3, (1,)).types == (1,)
    for bad in ((True,), (1.0,), [True], 1):
        with pytest.raises(UsageError, match=r"^types must be an iterable of ints, not %s$"
                           % re.escape(repr(bad))):
            quotient("A", 3, bad)
    cached = quotient
    while not hasattr(cached, "cache_clear"):
        cached = cached.__wrapped__
    assert cached.cache_info().currsize >= 1
    assert quotient("A", 3, (1,)) is quotient("A", 3, [1])


@pytest.mark.parametrize("family,n", [("A", n) for n in range(1, 6)]
                         + [(f, n) for f in "BD" for n in range(2, 6)])
def test_cosets_match_the_whole_group_oracle(family, n):
    # Every type set, the empty one included: the representatives in
    # order, the rows, the index of every element, phi_map from the
    # chambers and the shortest element of X w0 X.
    g = weyl_group(family, n)
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
    # Quotients of two equal but distinct groups; and a coarse quotient
    # with one edge removed, which the fine quotient's edge then misses.
    with pytest.raises(UsageError, match="^quotients belong to different groups$"):
        phi_map(ParabolicQuotient(weyl_group("A", 3), (1,)),
                ParabolicQuotient(WeylGroup("A", 3), (1,)))
    fine, coarse = (ParabolicQuotient(weyl_group("A", 4), (2,)) for _ in range(2))
    a, b = next(fine.edges())
    rows = list(coarse.adjacency)
    rows[a] ^= 1 << b
    rows[b] ^= 1 << a
    vars(coarse)["adjacency"] = tuple(rows)
    with pytest.raises(UsageError, match=r"^coset map is not a homomorphism: edge \(%d,%d\) "
                       "collapses$" % (a, b)):
        phi_map(fine, coarse)
