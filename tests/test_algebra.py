"""Tests for prime-field linear algebra: rref, subspaces, forms, the
perp oracle, and (singular) subspace enumeration."""

import random

import numpy as np
import pytest

import kneserlab.algebra as algebra
from kneserlab.algebra import (
    SUPPORTED_PRIMES,
    Form,
    Subspace,
    check_prime,
    enumerate_singular_subspaces,
    enumerate_subspaces,
    intersect,
    inverse_mod,
    is_totally_singular,
    rank_mod_p,
    rref,
)
from kneserlab.buildings import BuildingSpec
from kneserlab.errors import UsageError
from kneserlab.matroid import ColumnMatroid

from oracles import (
    augment_by_parent,
    gaussian_binomial,
    nullspace,
    perp,
    singular_subspaces_by_filter,
)


def standard_form(family, n, p):
    """The form of the polar family's points, as its BuildingSpec gives it."""
    return BuildingSpec(family, n, p, (1,)).form


def random_subspace(rng, d, k, p):
    rows = [[rng.randrange(p) for _ in range(d)] for _ in range(k)]
    return Subspace.span(rows, d, p)


def test_field_axioms_exhaustive():
    for p in SUPPORTED_PRIMES:
        for a in range(p):
            for b in range(p):
                assert (a + b) % p == (b + a) % p
                assert (a * b) % p == (b * a) % p
                for c in range(p):
                    assert ((a + b) + c) % p == (a + (b + c)) % p
                    assert ((a * b) * c) % p == (a * (b * c)) % p
                    assert (a * (b + c)) % p == (a * b + a * c) % p
            if a:
                assert (a * inverse_mod(a, p)) % p == 1


def test_rref_trivial_identity():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert rref(eye, 3, 2) == tuple(tuple(r) for r in eye)


def test_rref_pivot_normalization():
    assert rref([[1, 1, 0], [0, 1, 0]], 3, 2) == ((1, 0, 0), (0, 1, 0))


def test_rref_f3_two_rows():
    # {2e1+e3, e1+e3} spans the same plane as {e1, e3} over F_3.
    got = rref([[2, 0, 1], [1, 0, 1]], 3, 3)
    assert got == ((1, 0, 0), (0, 0, 1))
    # Proportional rows collapse: e1+2e3 = 2(2e1+e3) over F_3.
    assert rref([[2, 0, 1], [1, 0, 2]], 3, 3) == ((1, 0, 2),)


def test_rref_idempotent_and_span_canonical():
    rng = random.Random(20240601)
    for _ in range(1000):
        p = rng.choice(SUPPORTED_PRIMES)
        d = rng.randrange(2, 7)
        k = rng.randrange(1, d + 1)
        rows = [[rng.randrange(p) for _ in range(d)] for _ in range(k)]
        base = rref(rows, d, p)
        assert rref(base, d, p) == base
        shuffled = [row[:] for row in rows]
        rng.shuffle(shuffled)
        scales = [rng.randrange(1, p) for _ in shuffled]
        shuffled = [
            [(x * s) % p for x in row] for row, s in zip(shuffled, scales)
        ]
        assert rref(shuffled, d, p) == base


def test_subspace_identity_is_bytewise():
    u = Subspace.span([[1, 1, 0], [0, 1, 0]], 3, 2)
    w = Subspace.span([[1, 0, 0], [1, 1, 0]], 3, 2)
    assert u == w
    assert u.basis == w.basis
    assert hash(u) == hash(w)


@pytest.mark.parametrize("cols,message", [
    ([-1], "column -1 is not in 0..3"),
    ([4], "column 4 is not in 0..3"),
    ([1, 1], "column 1 is repeated"),
])
def test_coordinate_refuses_bad_columns(cols, message):
    # Unchecked, [-1] gave e_3, [4] an IndexError and [1, 1] a two-row
    # basis that is not in RREF.
    with pytest.raises(UsageError, match="^%s$" % message):
        Subspace.coordinate(cols, 4, 2)
    assert Subspace.coordinate([3, 0], 4, 2).basis == ((1, 0, 0, 0), (0, 0, 0, 1))


def test_intersect_examples():
    u = Subspace.coordinate([0, 1], 4, 2)
    w = Subspace.coordinate([1, 2], 4, 2)
    assert intersect(u, w) == Subspace.coordinate([1], 4, 2)
    assert intersect(u, u) == u
    u = Subspace.span([[1, 1, 0, 0], [0, 0, 1, 0]], 4, 3)
    w = Subspace.span([[1, 0, 0, 0], [0, 1, 0, 0]], 4, 3)
    assert intersect(u, w) == Subspace.span([[1, 1, 0, 0]], 4, 3)


def test_modular_law_of_dimensions():
    rng = random.Random(20240602)
    for _ in range(1000):
        p = rng.choice((2, 3))
        d = rng.randrange(2, 7)
        u = random_subspace(rng, d, rng.randrange(0, d + 1), p)
        w = random_subspace(rng, d, rng.randrange(0, d + 1), p)
        total = rank_mod_p(u.basis + w.basis, d, p)
        assert intersect(u, w).dim + total == u.dim + w.dim


def test_perp_hyperbolic_point():
    # perp of <e_1> under the hyperbolic form misses only direction 1'.
    form = standard_form("D", 4, 2)
    e1 = Subspace.coordinate([0], 8, 2)
    pp = perp(e1, form)
    assert pp.dim == 7
    assert pp.contains(e1)
    assert not pp.contains(Subspace.coordinate([1], 8, 2))


def test_perp_full_space_is_zero():
    form = standard_form("C", 3, 3)
    full = Subspace.coordinate(range(6), 6, 3)
    assert perp(full, form) == Subspace.zero(6, 3)


def test_perp_symplectic_line():
    # Symplectic pairs (0,1),(2,3),(4,5): perp of <e1,e3> contains both
    # spanning vectors plus the last hyperbolic pair.
    form = standard_form("C", 3, 3)
    u = Subspace.coordinate([0, 2], 6, 3)
    assert perp(u, form) == Subspace.coordinate([0, 2, 4, 5], 6, 3)


def test_perp_involution_and_dimension():
    rng = random.Random(20240603)
    form2 = standard_form("D", 4, 2)
    form3 = standard_form("C", 3, 3)
    for _ in range(1000):
        form = rng.choice((form2, form3))
        d, p = form.dim, form.p
        u = random_subspace(rng, d, rng.randrange(0, d + 1), p)
        pp = perp(u, form)
        assert u.dim + pp.dim == d
        assert perp(pp, form) == u


def test_is_totally_singular_paper_lines():
    form = standard_form("D", 4, 2)
    assert is_totally_singular(Subspace.coordinate([0, 4], 8, 2), form)
    assert not is_totally_singular(
        Subspace.coordinate([0, 1], 8, 2), form
    )


def test_is_totally_singular_b3_vector():
    form = standard_form("B", 3, 3)
    v = Subspace.span([[0, 0, 1, 1, 0, 0, 1]], 7, 3)
    assert is_totally_singular(v, form)
    w = Subspace.span([[0, 0, 0, 0, 0, 0, 1]], 7, 3)
    assert not is_totally_singular(w, form)


def singular_oracle(u, form):
    """Total singularity by a per-row Python evaluation of Q (for a
    quadratic form, from its upper-triangular gram) and of the polar form
    b on every pair of basis rows."""
    g, d, p = form.gram.tolist(), form.dim, form.p
    quadratic = form.kind == "quadratic"
    polar = [[g[i][j] + g[j][i] if quadratic else g[i][j] for j in range(d)] for i in range(d)]
    for r in u.basis:
        if quadratic and sum(g[i][j] * r[i] * r[j] for i in range(d) for j in range(i, d)) % p:
            return False
        paired = [sum(polar[i][j] * r[j] for j in range(d)) for i in range(d)]
        if any(sum(x * y for x, y in zip(paired, s)) % p for s in u.basis):
            return False
    return True


@pytest.mark.parametrize("family,n,p", [
    ("D", 4, 2), ("D", 3, 3), ("C", 3, 2), ("C", 3, 3),
    ("B", 3, 3), ("D", 2, 5), ("C", 2, 7), ("B", 2, 5),
])
def test_is_totally_singular_vs_python_oracle(family, n, p):
    form = standard_form(family, n, p)
    rng = random.Random(20261018)
    subs = [random_subspace(rng, form.dim, k, p) for k in range(form.dim + 1) for _ in range(40)]
    singular = [u for k in range(1, n + 1) for u in enumerate_singular_subspaces(form, k)]
    for u in subs + singular:
        assert is_totally_singular(u, form) == singular_oracle(u, form), u
    assert all(singular_oracle(u, form) for u in singular)


def test_enumerate_subspaces_counts():
    assert len(list(enumerate_subspaces(3, 1, 2))) == 7
    assert len(list(enumerate_subspaces(4, 2, 2))) == 35
    assert len(list(enumerate_subspaces(5, 0, 3))) == 1


def test_enumerate_subspaces_matches_gaussian_binomial():
    # A_6 hyperplanes over F_3 and A_7 hyperplanes over F_2 are quick only
    # because no prefix that cannot reach dimension k is made.
    for d, k, p in [(4, 1, 3), (4, 2, 3), (5, 2, 2), (5, 3, 2), (4, 2, 5), (7, 6, 3), (8, 7, 2)]:
        subs = list(enumerate_subspaces(d, k, p))
        assert len(subs) == gaussian_binomial(d, k, p)
        assert len(set(subs)) == len(subs)
        assert subs == sorted(subs)


def test_gaussian_binomial_symmetry():
    for d in range(1, 7):
        for k in range(d + 1):
            for p in (2, 3):
                assert gaussian_binomial(d, k, p) == gaussian_binomial(
                    d, d - k, p
                )


def test_singular_point_counts():
    assert len(enumerate_singular_subspaces(standard_form("D", 4, 2), 1)) == 135
    assert len(enumerate_singular_subspaces(standard_form("C", 3, 2), 1)) == 63
    assert len(enumerate_singular_subspaces(standard_form("B", 3, 3), 1)) == 364


def test_enumerate_singular_agrees_with_filter():
    cases = [
        ("C", 2, 2, (1, 2)),
        ("C", 2, 3, (1, 2)),
        ("D", 2, 2, (1, 2)),
        ("D", 3, 2, (1, 2, 3)),
        ("D", 3, 3, (1, 2)),
        ("B", 2, 3, (1, 2)),
        ("B", 3, 3, (1,)),
        ("C", 3, 2, (1, 2, 3)),
        ("D", 4, 2, (1, 2)),
        ("C", 2, 5, (1, 2)),
        ("D", 2, 7, (1, 2)),
        ("B", 2, 5, (1, 2)),
    ]
    for family, n, p, ks in cases:
        form = standard_form(family, n, p)
        for k in ks:
            fast = enumerate_singular_subspaces(form, k)
            slow = singular_subspaces_by_filter(form, k)
            assert fast == slow, (family, n, p, k)


@pytest.mark.parametrize("family,n,p,ks", [
    ("B", 3, 3, (1, 2, 3)),
    ("C", 3, 3, (1, 2, 3)),
    ("D", 4, 2, (1, 2, 3, 4)),
    ("D", 5, 2, (1, 2)),
    ("B", 4, 3, (1,)),
])
def test_enumerate_singular_canonical_and_complete(family, n, p, ks):
    # Strictly increasing canonical bases, each totally singular, as many
    # as the closed form [n, k]_p prod_{i=n-k+1..n} (p^(i+e-1) + 1) counts.
    form = standard_form(family, n, p)
    e = 0 if family == "D" else 1
    for k in ks:
        subs = enumerate_singular_subspaces(form, k)
        count = gaussian_binomial(n, k, p)
        for i in range(n - k + 1, n + 1):
            count *= p ** (i + e - 1) + 1
        assert len(subs) == count, k
        assert all(a.key < b.key for a, b in zip(subs, subs[1:]))
        assert all(rref(u.basis, form.dim, p) == u.basis for u in subs)
        assert all(is_totally_singular(u, form) for u in subs)


@pytest.mark.parametrize("family,n,p,k", [
    ("D", 4, 2, 4), ("D", 4, 2, 3), ("B", 3, 3, 3), ("C", 3, 3, 3), ("D", 5, 2, 5),
    ("A", 4, 3, 2), ("A", 4, 2, 2), ("A", 4, 2, 3), ("A", 5, 5, 5), ("D", 5, 2, 2),
])
def test_augment_matches_per_parent_oracle(monkeypatch, family, n, p, k):
    # The same bases in the same order as one parent at a time, also when
    # 64-entry blocks make each step take one or a few parents. Type A
    # k = 2, 3 over F_2 are the parts of A_4 {2,3} flags.
    geo = BuildingSpec(family, n, p, (1,))
    expected = augment_by_parent(geo.dim, k, p, geo.form)
    for block in (algebra._BLOCK_ELEMS, 64):
        monkeypatch.setattr(algebra, "_BLOCK_ELEMS", block)
        subs = algebra._augment(geo.dim, k, p, geo.form)
        assert subs == expected, block
        assert all(type(x) is int for u in (subs[0], subs[-1]) for row in u.basis for x in row)


def test_enumerate_singular_beyond_witt_index_empty():
    form = standard_form("C", 2, 2)
    assert enumerate_singular_subspaces(form, 3) == []


def test_singular_points_are_projective_points():
    form = standard_form("C", 3, 3)
    pts = enumerate_singular_subspaces(form, 1)
    assert len(pts) == len(set(pts))
    assert all(pt.dim == 1 for pt in pts)
    # Alternating form: every point is isotropic.
    assert len(pts) == gaussian_binomial(6, 1, 3)


def test_nullspace_annihilator():
    u = Subspace.span([[1, 0, 1, 0], [0, 1, 1, 0]], 4, 2)
    ns = nullspace(u.matrix(), 2)
    assert ns.dim == 2
    for row in ns.basis:
        for brow in u.basis:
            assert sum(a * b for a, b in zip(row, brow)) % 2 == 0


def test_unsupported_modulus_rejected():
    with pytest.raises(UsageError):
        Subspace.span([[1, 0]], 2, 4)
    with pytest.raises(UsageError):
        rref([[1, 0]], 2, 11)


def test_non_integer_modulus_and_entries_rejected():
    # A float modulus passed the membership test and died in pow; a float
    # entry was truncated. Numpy integers still count as integers.
    for call in (lambda: check_prime(2.0), lambda: rref([[1, 0]], 2, 2.0),
                 lambda: ColumnMatroid([[1, 0]], 2.0)):
        with pytest.raises(UsageError, match="^modulus must be"):
            call()
    for rows in ([[1.5, 0]], np.array([[1.0, 0.0]])):
        with pytest.raises(UsageError, match="^matrix entries must be integers"):
            Subspace.span(rows, 2, 3)
    assert Subspace.span(np.array([[2, 1]]), 2, 3) == Subspace(2, 3, ((1, 2),))


def test_ragged_rows_rejected():
    with pytest.raises(UsageError):
        rref([[1, 0], [1]], 2, 2)


@pytest.mark.parametrize("kind,gram,message", [
    ("symmetric", [[0, 1], [1, 0]], "^unknown form kind 'symmetric'$"),
    ("quadratic", [[0, 1]], "^gram matrix must be square$"),
    ("alternating", [[1, 0], [0, 0]], "^alternating form needs zero diagonal$"),
    ("alternating", [[0, 1], [1, 0]], r"^alternating form needs gram = -gram\^T$"),
    ("quadratic", [[0, 0], [1, 0]], "^quadratic form needs an upper-triangular gram matrix$"),
    ("quadratic", [[0, 1.5], [0, 0]], "^gram entries must be integers"),
])
def test_form_refusals(kind, gram, message):
    # The standard forms pass every check, so only a hand-made form reaches
    # these. A float entry was truncated: 1.5 became 1.
    with pytest.raises(UsageError, match=message):
        Form(kind, gram, 3)
    assert Form("quadratic", np.array([[0, 4], [0, 0]]), 3).gram.tolist() == [[0, 1], [0, 0]]


def test_different_ambient_spaces_refused():
    u = Subspace.coordinate([0], 3, 3)
    for other in (Subspace.coordinate([0], 4, 3), Subspace.coordinate([0], 3, 2)):
        with pytest.raises(UsageError, match="^subspaces live in different ambient spaces$"):
            u.contains(other)
    form = Form("alternating", [[0, 1], [2, 0]], 3)
    for v in (u, Subspace.coordinate([0], 2, 2)):
        with pytest.raises(UsageError, match="^subspace and form live in different spaces$"):
            is_totally_singular(v, form)


def test_enumeration_refusals_and_empty_levels():
    # k = 4 on the rank-2 form of C_2 over F_2 leaves no level-2 parent,
    # which ends the augmentation early.
    assert enumerate_singular_subspaces(standard_form("C", 2, 2), 4) == []
    for k in (-1, 4):
        with pytest.raises(UsageError, match="^need 0 <= k <= d$"):
            list(enumerate_subspaces(3, k, 2))
    # Refused at the call, before any subspace is asked for.
    with pytest.raises(UsageError, match="^need 0 <= k <= d$"):
        enumerate_subspaces(3, 9, 2)
    with pytest.raises(UsageError, match="^modulus must be one of"):
        enumerate_subspaces(3, 1, 4)
    with pytest.raises(UsageError, match="^need k >= 0$"):
        enumerate_singular_subspaces(standard_form("C", 2, 2), -1)
    with pytest.raises(ZeroDivisionError, match="^0 has no inverse mod 5$"):
        inverse_mod(10, 5)
