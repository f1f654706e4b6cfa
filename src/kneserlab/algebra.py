"""Linear algebra over small prime fields.

Subspaces of F_p^d are kept in reduced row echelon form, which makes the
RREF basis matrix a canonical name for the subspace: two Subspace values
are equal iff their basis tuples are equal, so they hash in O(1) and sort
deterministically. Everything downstream (graphs, reports, golden files)
keys off this canonical form. Enumeration makes each RREF basis once, by
canonical augmentation: appending a row to a basis one dimension lower.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError

SUPPORTED_PRIMES = (2, 3, 5, 7)


def check_prime(p):
    """p, if it is an int in SUPPORTED_PRIMES (2.0 would pass `in`)."""
    if type(p) is not int or p not in SUPPORTED_PRIMES:
        raise UsageError("modulus must be one of %s, got %r" % (SUPPORTED_PRIMES, p))
    return p


def inverse_mod(a, p):
    """Multiplicative inverse of a nonzero residue mod prime p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError("0 has no inverse mod %d" % p)
    return pow(a, p - 2, p)


def rref(rows, d, p):
    """Reduced row echelon form of the span of `rows` in F_p^d.

    Returns a tuple of row tuples with strictly increasing pivot columns,
    pivot entries 1, pivot columns zero elsewhere, and no zero rows.
    Idempotent and span-preserving. Entries are integers, numpy ones too;
    a float is refused, not truncated.
    """
    check_prime(p)
    try:
        mat = [[operator.index(x) % p for x in row] for row in rows]
    except TypeError as e:
        raise UsageError("matrix entries must be integers: %s" % e) from None
    for row in mat:
        if len(row) != d:
            raise UsageError("row length %d does not match ambient %d" % (len(row), d))
    r = 0
    for col in range(d):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = inverse_mod(mat[r][col], p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r])


def rank_mod_p(rows, d, p):
    return len(rref(rows, d, p))


@dataclass(frozen=True, slots=True, repr=False)
class Subspace:
    """A subspace of F_p^d, identified by its canonical RREF basis: the
    constructor takes a basis already in RREF; use Subspace.span otherwise."""

    ambient: int
    p: int
    basis: tuple

    @classmethod
    def span(cls, vectors, ambient, p):
        return cls(ambient, check_prime(p), rref(vectors, ambient, p))

    @classmethod
    def zero(cls, ambient, p):
        return cls(ambient, check_prime(p), ())

    @classmethod
    def coordinate(cls, cols, ambient, p):
        """Span of the standard basis vectors e_c for c in cols (0-based),
        each in 0..ambient-1 and named once."""
        rows, cols = [], sorted(cols)
        for i, c in enumerate(cols):
            if not 0 <= c < ambient:
                raise UsageError("column %r is not in 0..%d" % (c, ambient - 1))
            if i and c == cols[i - 1]:
                raise UsageError("column %r is repeated" % (c,))
            v = [0] * ambient
            v[c] = 1
            rows.append(v)
        return cls(ambient, check_prime(p), tuple(tuple(r) for r in rows))

    @property
    def dim(self):
        return len(self.basis)

    @property
    def key(self):
        """Canonical sort key: dimension, then the flattened basis."""
        return (len(self.basis),) + tuple(x for row in self.basis for x in row)

    def matrix(self):
        return np.array(self.basis, dtype=np.int64).reshape(len(self.basis), self.ambient)

    def contains(self, other):
        self._check_compatible(other)
        stacked = list(self.basis) + list(other.basis)
        return rank_mod_p(stacked, self.ambient, self.p) == self.dim

    def _check_compatible(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise UsageError("subspaces live in different ambient spaces")

    def __lt__(self, other):
        return self.key < other.key

    def __and__(self, other):
        return intersect(self, other)

    def __repr__(self):
        return "Subspace(d=%d, p=%d, basis=%r)" % (self.ambient, self.p, self.basis)


def intersect(u, w):
    """U ∩ W by the Zassenhaus block trick."""
    u._check_compatible(w)
    d, p = u.ambient, u.p
    block = [list(row) + list(row) for row in u.basis]
    block += [list(row) + [0] * d for row in w.basis]
    reduced = rref(block, 2 * d, p)
    inter = [row[d:] for row in reduced if not any(row[:d])]
    return Subspace.span(inter, d, p) if inter else Subspace.zero(d, p)


@dataclass(frozen=True, eq=False, repr=False)
class Form:
    """An alternating or quadratic form on F_p^d.

    For a quadratic form the `gram` matrix is the upper-triangular
    coefficient matrix of Q; its polar form is b(x,y) = Q(x+y)-Q(x)-Q(y),
    with Gram matrix `polar` = G + G^T, which is the right notion in every
    characteristic including 2. Both are read-only int64 arrays.
    """

    KINDS = ("alternating", "quadratic")

    kind: str
    gram: np.ndarray
    p: int
    dim: int = field(init=False)
    polar: np.ndarray = field(init=False)

    def __post_init__(self):
        kind, gram, p = self.kind, self.gram, self.p
        if kind not in self.KINDS:
            raise UsageError("unknown form kind %r" % kind)
        check_prime(p)
        d = len(gram)
        if any(len(row) != d for row in gram):
            raise UsageError("gram matrix must be square")
        g = np.array([[int(x) % p for x in row] for row in gram], dtype=np.int64).reshape(d, d)
        if kind == "alternating":
            if g.diagonal().any():
                raise UsageError("alternating form needs zero diagonal")
            if ((g + g.T) % p).any():
                raise UsageError("alternating form needs gram = -gram^T")
        elif np.tril(g, -1).any():
            raise UsageError("quadratic form needs an upper-triangular gram matrix")
        polar = (g + g.T) % p if kind == "quadratic" else g
        g.setflags(write=False)
        polar.setflags(write=False)
        for name, value in (("dim", d), ("gram", g), ("polar", polar)):
            object.__setattr__(self, name, value)


def _annihilators(mats, p):
    """A basis of ann(U) = {x : B x^T = 0} for each RREF basis B in mats, an
    (N, k, d) array: for each column f that is no pivot of B, the vector
    e_f - sum_i B[i, f] e_(pivot of row i). B[i, f] is 0 unless f is past
    the pivot of row i, so the row of f ends in a 1 at column f: with its
    rows and columns reversed, the basis is in echelon form with pivot
    entries 1."""
    n, k, d = mats.shape
    pivots = (mats != 0).argmax(axis=2)
    free = np.ones((n, d), dtype=bool)
    free[np.arange(n)[:, None], pivots] = False
    free = free.nonzero()[1].reshape(n, d - k)
    ann = np.zeros((n, d - k, d), dtype=np.int64)
    at, rows = np.arange(n)[:, None, None], np.arange(d - k)
    ann[at[:, 0], rows, free] = 1
    ann[at, rows, pivots[:, :, None]] = -np.take_along_axis(mats, free[:, None], axis=2) % p
    return ann


def is_totally_singular(u, form):
    """True iff the form vanishes identically on U: Q on each basis row
    (for a quadratic form), and the polar form on each pair, B polar B^T = 0."""
    if u.ambient != form.dim or u.p != form.p:
        raise UsageError("subspace and form live in different spaces")
    b, p = u.matrix(), u.p
    if form.kind == "quadratic" and ((b @ form.gram * b).sum(axis=1) % p).any():
        return False
    return not (b @ form.polar @ b.T % p).any()


# Numpy elements in one block of normalised vectors, of an enumeration
# step or of the opposition kernel's pairing (512 KiB of int64).
_BLOCK_ELEMS = 1 << 16


def _normalised_vectors(d, p, form=None):
    """The normalised vectors of F_p^d (first nonzero entry 1), given a form
    the singular ones (v gram v^T = 0), as one array, and where each leading
    column starts in it: rows starts[c]:starts[c + 1] are e_c + t, t over
    F_p^(d-1-c) in lexicographic order. Made in blocks of _BLOCK_ELEMS
    entries."""
    digits, step = p ** np.arange(d - 1, -1, -1), max(1, _BLOCK_ELEMS // (d or 1))
    blocks, starts = [np.zeros((0, d), dtype=np.int64)], [0]
    for c in range(d):
        lead = p ** (d - 1 - c)  # e_c read as a base-p integer: as many as the t
        for lo in range(lead, 2 * lead, step):
            block = np.arange(lo, min(lo + step, 2 * lead))[:, None] // digits % p
            if form is not None:
                block = block[(block @ form.gram * block).sum(axis=1) % p == 0]
            blocks.append(block)
        starts.append(sum(map(len, blocks)))
    return np.concatenate(blocks), starts


def _augment(d, k, p, form=None):
    """The k-subspaces of F_p^d, totally singular for a form, in canonical
    order, each made once. The first j rows of an RREF basis are the RREF
    basis of a j-space, so level j extends each basis of level j-1, whose
    last pivot is l, by the rows v = e_c + t with c > l, every parent row 0
    at column c and any t on the columns after c (for a form: v singular
    and orthogonal to the parent rows). Each parent + (v,) is canonical;
    taking parents in order, c descending and t ascending keeps each level
    sorted. The later pivots of a child lie in the columns after c where it
    is 0 in every row, so a child with fewer than k-j of them is not made:
    no prefix that cannot reach dimension k is enumerated.

    A level is one (parents, j) array of row numbers in _normalised_vectors,
    extended one column c at a time: every parent free at c is tested
    against every candidate row at once, in blocks of _BLOCK_ELEMS entries,
    and one stable sort by parent puts the children in order. Each
    normalised vector becomes one tuple, shared by every basis that holds it."""
    if not k:
        return [Subspace(d, p, ())]
    vectors, starts = _normalised_vectors(d, p, form)
    lead = np.repeat(np.arange(d), np.diff(starts))
    # Level 1 extends the empty basis by each vector with k-1 zeros after
    # its lead column c (it has c zeros before it), c descending.
    ids = np.flatnonzero((vectors == 0).sum(axis=1) - lead >= k - 1)
    ids = ids[np.argsort(-lead[ids], kind="stable")][:, None]
    for j in range(1, k):
        level, need = vectors[ids], k - j - 1  # pivots each child still needs after c
        # Free columns lie after the last pivot and are 0 in every row.
        free = (np.arange(d) > lead[ids[:, -1:]]) & ~level.any(axis=1)
        after = free[:, ::-1].cumsum(axis=1)[:, ::-1] - free  # free columns right of each
        eligible = free & (after >= need)
        pairing = level @ form.polar % p if form is not None else None
        parents, children = [], []
        for c in reversed(eligible.any(axis=0).nonzero()[0].tolist()):
            chosen, rows = eligible[:, c].nonzero()[0], vectors[starts[c]:starts[c + 1]]
            zeros = (rows[:, c + 1:] == 0).T.astype(np.int64) if need else None
            step = max(1, _BLOCK_ELEMS // (j * (len(rows) + d)))
            for lo in range(0, len(chosen), step):
                block = chosen[lo:lo + step]
                keep = np.ones((len(block), len(rows)), dtype=bool)
                if pairing is not None:
                    keep = ~(np.einsum("sjd,rd->sjr", pairing[block], rows) % p).any(axis=1)
                if need:
                    keep &= free[block, c + 1:] @ zeros >= need
                at, row = np.nonzero(keep)
                parents.append(block[at])
                children.append(starts[c] + row)
        if not parents:
            return []
        parents = np.concatenate(parents)
        ids = np.column_stack([ids[parents], np.concatenate(children)])[
            np.argsort(parents, kind="stable")]
    row = list(map(tuple, vectors.tolist())).__getitem__
    return [Subspace(d, p, basis) for basis in zip(*[map(row, col) for col in ids.T.tolist()])]


def enumerate_subspaces(d, k, p):
    """All k-subspaces of F_p^d, in lexicographic RREF order (row-major)."""
    check_prime(p)
    if k < 0 or k > d:
        raise UsageError("need 0 <= k <= d")
    yield from _augment(d, k, p)


def enumerate_singular_subspaces(form, k):
    """All totally singular/isotropic k-subspaces, in canonical order, by
    _augment."""
    if k < 0:
        raise UsageError("need k >= 0")
    return _augment(form.dim, k, form.p, form)
