"""Column matroids of F_p matrices and the union-matroid rank formula.

A matroid keeps its rank function as one table over the column bitmasks,
built once from the p^r vectors of a row space, with r <= n/2 (see
_rank_table). The union rank is evaluated directly as
    min over L subset of K of |K \\ L| + r1(L) + r2(L),
over the submasks of K, which keeps the implementation obviously equal
to the formula it claims (|K| <= 10 everywhere we use it).
"""

from __future__ import annotations

import itertools

import numpy as np

from .algebra import _annihilators, _residues, check_prime, rref
from .errors import UsageError, check_index

# Most columns a ColumnMatroid takes: its table has 2^n entries.
MAX_COLUMNS = 12


def _rank_table(rows, n, p):
    """rank[S] for every column bitmask S (bit j is column j).

    The vectors of the row space are histogrammed by support, and one
    subset-sum (zeta) transform counts those that vanish on each S: they
    number p^(r - rank S). Of the row space and its annihilator, whose
    column matroid is the dual, the one of smaller rank r is tabulated.
    """
    basis = rref(rows, n, p)
    r = len(basis)
    dual = 2 * r > n
    if dual:
        basis = _annihilators(np.array(basis, dtype=np.int64).reshape(1, r, n), p)[0]
    k = len(basis)
    coeffs = np.array(list(itertools.product(range(p), repeat=k)), dtype=np.int64)
    vectors = coeffs.reshape(p ** k, k) @ np.array(basis, dtype=np.int64).reshape(k, n) % p
    # within[S] = #{v : supp(v) ⊆ S}, each axis of the reshape being one bit.
    within = np.bincount((vectors != 0) @ (1 << np.arange(n)), minlength=1 << n)
    within = within.reshape((2,) * n)
    for axis in range(n):
        within = within.cumsum(axis=axis)
    # v vanishes on S iff supp(v) ⊆ E \ S, so rank S = k - log_p within[E \ S].
    complement = ((1 << n) - 1) ^ np.arange(1 << n)
    ranks = k - np.searchsorted(p ** np.arange(k + 1), within.reshape(-1)[complement])
    if dual:
        # r(T) = r*(E \ T) - |E \ T| + r(E)
        sizes = (complement[:, None] >> np.arange(n) & 1).sum(axis=1)
        ranks = ranks[complement] - sizes + r
    return ranks.tolist()


class ColumnMatroid:
    """Matroid on column indices {0..n-1} of an F_p matrix.

    The rank of a subset S is the rank of the column submatrix on S.
    """

    __slots__ = ("p", "rows", "n", "_ranks")

    def __init__(self, rows, p):
        check_prime(p)
        rows = tuple(map(tuple, _residues(rows, p, "matrix entries")))
        if not rows:
            raise UsageError("matrix needs at least one row")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise UsageError("ragged matrix")
        if n > MAX_COLUMNS:
            raise UsageError("matrix has %d columns, more than the limit of %d"
                             % (n, MAX_COLUMNS))
        self.p = p
        self.rows = rows
        self.n = n
        self._ranks = _rank_table(rows, n, p)

    @classmethod
    def from_subspace(cls, u):
        """Matroid M_U from a canonical basis-rows matrix of U."""
        if u.dim == 0:
            raise UsageError("zero subspace has an empty matrix")
        return cls(u.basis, u.p)

    @property
    def ground(self):
        return frozenset(range(self.n))

    def _mask(self, subset):
        mask = 0
        for j in subset:
            mask |= 1 << check_index(j, self.n, "column", "columns")
        return mask

    def rank(self, subset):
        return self._ranks[self._mask(subset)]

    def full_rank(self):
        return self._ranks[-1]

    def _check_ground(self, other):
        if self.n != other.n or self.p != other.p:
            raise UsageError("matroids have different ground sets")


def union_rank(m1, m2, subset):
    """Rank of K in the union matroid of m1 and m2.

    Equals the maximum size of I1 ∪ I2 with Ii independent in mi and
    contained in K.
    """
    m1._check_ground(m2)
    k = m1._mask(subset)
    r1, r2 = m1._ranks, m2._ranks
    best, sub = k.bit_count(), k
    while sub:
        size = (k ^ sub).bit_count() + r1[sub] + r2[sub]
        if size < best:
            best = size
        sub = (sub - 1) & k
    return best


def have_disjoint_bases(m1, m2):
    m1._check_ground(m2)
    return union_rank(m1, m2, m1.ground) == m1.full_rank() + m2.full_rank()
