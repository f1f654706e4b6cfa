"""Tests for column matroids and the union-matroid rank formula."""

import itertools
import random

import pytest

import kneserlab.matroid as matroid
from kneserlab.algebra import Subspace, rank_mod_p
from kneserlab.errors import UsageError
from kneserlab.matroid import ColumnMatroid, have_disjoint_bases, union_rank


def matroid_representatives(max_rows, ncols):
    """One representative F_2 matrix per distinct column matroid.

    Enumerates every matrix with up to max_rows rows and exactly ncols
    columns over F_2 (columns encoded as bit integers) and deduplicates
    by the full rank-function fingerprint, so checks quantified over all
    such matrices only need one run per matroid. A binary matrix's column
    matroid is fixed by its row space, so a matrix whose row space was
    seen before is skipped unfingerprinted.
    """

    def echelon(vectors):
        basis = []
        for c in vectors:
            for b in basis:
                c = min(c, c ^ b)
            if c:
                basis.append(c)
        return basis

    def col_rank(cols):
        return len(echelon(cols))

    reps, spaces = {}, set()
    for rows in range(1, max_rows + 1):
        for mat in itertools.product(range(1 << rows), repeat=ncols):
            # Eliminating again in ascending order reduces the echelon
            # basis to the row space's unique reduced one.
            space = tuple(echelon(sorted(echelon(
                [sum((mat[j] >> i & 1) << j for j in range(ncols)) for i in range(rows)]))))
            if space in spaces:
                continue
            spaces.add(space)
            fp = tuple(
                col_rank([mat[j] for j in range(ncols) if (s >> j) & 1])
                for s in range(1 << ncols)
            )
            if fp not in reps:
                reps[fp] = [
                    [(mat[j] >> i) & 1 for j in range(ncols)]
                    for i in range(rows)
                ]
    return list(reps.values())


def test_matroid_representatives_counts():
    # One per row space of dimension at most 3 in F_2^ncols: binary
    # matroids have a unique binary row space.
    counts = [len(matroid_representatives(3, ncols)) for ncols in range(1, 6)]
    assert counts == [2, 5, 16, 66, 342]


def brute_union_max(m1, m2, k):
    """Max |I1 ∪ I2| with Ii independent in mi and contained in K."""
    k = sorted(k)
    best = 0
    for size in range(len(k) + 1):
        for i1 in itertools.combinations(k, size):
            if m1.rank(i1) != len(i1):
                continue
            rest = [j for j in k if j not in i1]
            best = max(best, len(i1) + m2.rank(rest))
    return best


def random_disjoint_pair(rng, d, p):
    while True:
        k1 = rng.randrange(1, d)
        k2 = rng.randrange(1, d - k1 + 1)
        u = Subspace.span(
            [[rng.randrange(p) for _ in range(d)] for _ in range(k1)], d, p
        )
        w = Subspace.span(
            [[rng.randrange(p) for _ in range(d)] for _ in range(k2)], d, p
        )
        if u.dim and w.dim and (u & w).dim == 0:
            return u, w


def test_rank_examples():
    eye = ColumnMatroid([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert eye.rank({0, 1}) == 2
    assert eye.rank(set()) == 0
    m = ColumnMatroid([[1, 1, 0], [0, 1, 1]], 2)
    assert m.rank({0, 1, 2}) == 2


def test_rank_table_matches_rank_mod_p_on_every_mask():
    # Seeded matrices over each field: random ones, a zero matrix, zero
    # columns, and full-rank ones (the dual path tabulates their annihilator).
    rng = random.Random(20261018)
    for p in (2, 3, 5, 7):
        mats = [[[0] * 5, [0] * 5]]
        for _ in range(12):
            n = rng.randrange(1, 9)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, n + 2))]
            for j in rng.sample(range(n), rng.randrange(n)):
                for row in rows:
                    row[j] = 0
            mats.append(rows)
        for n in range(2, 9):
            while True:
                rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
                if rank_mod_p(rows, n, p) == n:
                    break
            mats += [rows, rows[:n - 1]]
        for rows in mats:
            n = len(rows[0])
            m = ColumnMatroid(rows, p)
            for mask in range(1 << n):
                cols = [j for j in range(n) if mask >> j & 1]
                want = rank_mod_p([[r[j] for j in cols] for r in rows], len(cols), p)
                assert m.rank(cols) == want, (rows, p, cols)
            assert m.full_rank() == rank_mod_p(rows, n, p)


def test_column_limit(monkeypatch):
    def never(*args):
        raise AssertionError("rank table started")

    assert ColumnMatroid([[1] * 12], 7).rank(range(12)) == 1
    monkeypatch.setattr(matroid, "_rank_table", never)
    with pytest.raises(UsageError, match="13 columns"):
        ColumnMatroid([[1] * 13], 2)


def test_rank_out_of_range():
    m = ColumnMatroid([[1, 0]], 2)
    with pytest.raises(UsageError):
        m.rank({2})


@pytest.mark.parametrize("column,kind", [(True, "bool"), (0.5, "float"), ("1", "str")])
def test_column_index_refused_by_name(column, kind):
    # True would be read as column 1, and a float or str would fail in <.
    m = ColumnMatroid([[1, 0], [0, 1]], 2)
    message = "^column index %r is a %s, not an integer$" % (column, kind)
    with pytest.raises(UsageError, match=message):
        m.rank([column])
    with pytest.raises(UsageError, match=message):
        union_rank(m, m, [0, column])


def test_rank_submodular():
    rng = random.Random(20240621)
    for _ in range(300):
        p = rng.choice((2, 3))
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(3)]
        m = ColumnMatroid(rows, p)
        a = {j for j in range(6) if rng.random() < 0.5}
        b = {j for j in range(6) if rng.random() < 0.5}
        assert m.rank(a | b) + m.rank(a & b) <= m.rank(a) + m.rank(b)


def test_union_rank_examples():
    eye = ColumnMatroid([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 2)
    assert union_rank(eye, eye, {0, 1, 2}) == 3
    assert union_rank(eye, eye, set()) == 0
    u = Subspace.span([[1, 1, 0]], 3, 2)
    w = Subspace.span([[0, 1, 1]], 3, 2)
    mu = ColumnMatroid.from_subspace(u)
    mw = ColumnMatroid.from_subspace(w)
    assert union_rank(mu, mw, {0, 1, 2}) == u.dim + w.dim == 2


def test_union_rank_formula_vs_brute_force_small():
    # All distinct column matroids with up to 3 rows and 4 columns over
    # F_2, every pair, every subset K.
    reps = [ColumnMatroid(rows, 2) for rows in matroid_representatives(3, 4)]
    subsets = [
        [j for j in range(4) if (s >> j) & 1] for s in range(1 << 4)
    ]
    for m1 in reps:
        for m2 in reps:
            for k in subsets:
                assert union_rank(m1, m2, k) == brute_union_max(m1, m2, k)


def test_have_disjoint_bases_examples():
    m1 = ColumnMatroid.from_subspace(Subspace.span([[1, 0]], 2, 2))
    m2 = ColumnMatroid.from_subspace(Subspace.span([[1, 1]], 2, 2))
    assert have_disjoint_bases(m1, m2)
    eye = ColumnMatroid([[1, 0], [0, 1]], 2)
    assert not have_disjoint_bases(eye, eye)


def test_disjoint_subspaces_have_disjoint_bases():
    rng = random.Random(20240622)
    for _ in range(1000):
        p = rng.choice((2, 3))
        d = rng.randrange(2, 8)
        u, w = random_disjoint_pair(rng, d, p)
        m1 = ColumnMatroid.from_subspace(u)
        m2 = ColumnMatroid.from_subspace(w)
        assert have_disjoint_bases(m1, m2)
        assert union_rank(m1, m2, range(d)) == u.dim + w.dim


def test_ground_mismatch_rejected():
    m1 = ColumnMatroid([[1, 0]], 2)
    m2 = ColumnMatroid([[1, 0, 0]], 2)
    with pytest.raises(UsageError):
        union_rank(m1, m2, {0})


@pytest.mark.parametrize("rows,message", [
    ([], "^matrix needs at least one row$"),
    ([[1, 0], [1]], "^ragged matrix$"),
    ([[1.5, 0]], "^matrix entries must be integers"),
])
def test_matrix_input_refusals(rows, message):
    with pytest.raises(UsageError, match=message):
        ColumnMatroid(rows, 3)
    with pytest.raises(UsageError, match="^zero subspace has an empty matrix$"):
        ColumnMatroid.from_subspace(Subspace.zero(3, 3))
