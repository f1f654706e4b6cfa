"""Tests for the sparse exterior algebra and the Pluecker embedding."""

import itertools
import random

import numpy as np
import pytest

from kneserlab.algebra import Subspace, enumerate_subspaces, intersect
from kneserlab.errors import UsageError
from kneserlab.exterior import Multivector, plucker, span_membership, wedge


def mv(ambient, p, terms):
    return Multivector(ambient, p, terms)


def add(a, b):
    """a + b, term by term."""
    keys = set(a.terms) | set(b.terms)
    return mv(a.ambient, a.p, {k: a.terms.get(k, 0) + b.terms.get(k, 0) for k in keys})


def random_subspace(rng, d, k, p):
    rows = [[rng.randrange(p) for _ in range(d)] for _ in range(k)]
    return Subspace.span(rows, d, p)


def test_wedge_antisymmetry():
    e1 = mv(4, 3, {(0,): 1})
    e2 = mv(4, 3, {(1,): 1})
    assert wedge(e1, e2) == mv(4, 3, {(0, 1): 1})
    assert wedge(e2, e1) == mv(4, 3, {(0, 1): -1})
    # Over F_2 the sign collapses.
    f1 = mv(4, 2, {(0,): 1})
    f2 = mv(4, 2, {(1,): 1})
    assert wedge(f1, f2) == wedge(f2, f1)


def test_wedge_self_vanishes():
    rng = random.Random(20240611)
    for _ in range(50):
        p = rng.choice((2, 3, 5))
        v = Multivector.from_vector([rng.randrange(p) for _ in range(5)], p)
        assert wedge(v, v).is_zero()


def test_wedge_f3_expansion():
    a = Multivector.from_vector([1, 1, 0], 3)
    b = Multivector.from_vector([1, 0, 1], 3)
    assert wedge(a, b) == mv(3, 3, {(0, 1): 2, (0, 2): 1, (1, 2): 1})


def test_wedge_associative():
    rng = random.Random(20240612)
    for _ in range(100):
        p = rng.choice((2, 3))
        vs = [
            Multivector.from_vector([rng.randrange(p) for _ in range(5)], p)
            for _ in range(3)
        ]
        left = wedge(wedge(vs[0], vs[1]), vs[2])
        right = wedge(vs[0], wedge(vs[1], vs[2]))
        assert left == right


def test_wedge_multilinear():
    rng = random.Random(20240613)
    for _ in range(200):
        p = rng.choice((2, 3))
        a, b, c = (
            Multivector.from_vector([rng.randrange(p) for _ in range(4)], p)
            for _ in range(3)
        )
        assert wedge(add(a, b), c) == add(wedge(a, c), wedge(b, c))


def test_grade_additive():
    rng = random.Random(20240614)
    for _ in range(100):
        p = rng.choice((2, 3))
        u = random_subspace(rng, 6, 2, p)
        w = random_subspace(rng, 6, 2, p)
        if u.dim == 0 or w.dim == 0:
            continue
        prod = wedge(plucker(u), plucker(w))
        if not prod.is_zero():
            assert {len(key) for key in prod.terms} == {u.dim + w.dim}


def test_plucker_examples():
    assert plucker(Subspace.coordinate([0, 2], 4, 2)) == mv(4, 2, {(0, 2): 1})
    u = Subspace.span([[1, 1, 0], [0, 0, 1]], 3, 2)
    assert plucker(u) == mv(3, 2, {(0, 2): 1, (1, 2): 1})


def test_plucker_zero_subspace_rejected():
    with pytest.raises(UsageError):
        plucker(Subspace.zero(3, 2))


def test_plucker_detects_intersection_pair():
    u = Subspace.coordinate([0, 1], 4, 2)
    w = Subspace.coordinate([1, 2], 4, 2)
    assert wedge(plucker(u), plucker(w)).is_zero()


def test_coefficient_of_union_key():
    # coefficient of e_{K u M} in psi(U) wedge e_M is +-(coefficient of
    # e_K in psi(U)) whenever K and M are disjoint.
    rng = random.Random(20240615)
    for _ in range(100):
        u = random_subspace(rng, 5, 2, 2)
        if u.dim != 2:
            continue
        mset = tuple(sorted(rng.sample(range(5), 2)))
        em = mv(5, 2, {mset: 1})
        prod = wedge(plucker(u), em)
        for kset in itertools.combinations(range(5), 2):
            if set(kset) & set(mset):
                continue
            union = tuple(sorted(kset + mset))
            assert prod.terms.get(union, 0) == plucker(u).terms.get(kset, 0)


def test_span_membership_basic():
    m = mv(4, 2, {(0, 1): 1})
    assert span_membership(m, [m])
    gens = [mv(4, 2, {(0, 2): 1}), mv(4, 2, {(1, 2): 1})]
    assert not span_membership(m, gens)
    assert span_membership(mv(4, 2, {}), [])


def test_plucker_intersection_equivalence_exhaustive_f2():
    subs = list(enumerate_subspaces(4, 2, 2))
    images = {u: plucker(u) for u in subs}
    for u in subs:
        for w in subs:
            meets = intersect(u, w).dim > 0
            assert meets == wedge(images[u], images[w]).is_zero()


def test_plucker_intersection_equivalence_random_f3():
    rng = random.Random(20240616)
    count = 0
    while count < 1000:
        u = random_subspace(rng, 5, 2, 3)
        w = random_subspace(rng, 5, 2, 3)
        if u.dim == 0 or w.dim == 0:
            continue
        count += 1
        meets = intersect(u, w).dim > 0
        assert meets == wedge(plucker(u), plucker(w)).is_zero()


def test_mixed_ambient_rejected():
    with pytest.raises(UsageError):
        wedge(mv(3, 2, {}), mv(4, 2, {}))
    with pytest.raises(UsageError):
        wedge(mv(3, 2, {}), mv(3, 3, {}))


@pytest.mark.parametrize("terms,message", [
    ({(1, 0): 1}, "^index sets must be strictly increasing$"),
    ({(0, 0): 1}, "^index sets must be strictly increasing$"),
    ({(3,): 1}, "^index out of range for ambient 3$"),
    ({(-1,): 1}, "^index out of range for ambient 3$"),
    ({(0,): 1.5}, "^coefficients must be integers"),
])
def test_multivector_input_refusals(terms, message):
    # A float coefficient was truncated: 1.5 became the term 1.
    with pytest.raises(UsageError, match=message):
        Multivector(3, 3, terms)
    assert Multivector(3, 3, {(0, 2): np.int64(4), (1,): 3}).terms == {(0, 2): 1}
    with pytest.raises(UsageError, match="^plucker expects a Subspace$"):
        plucker([[1, 0, 0]])
