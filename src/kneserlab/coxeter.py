"""Weyl groups of types A/B/D as (signed) permutations.

Elements are tuples of signed 1-based images: w[i-1] = j means the i-th
basis direction goes to the j-th, w[i-1] = -j that it also picks up a
sign. Type A uses plain permutations of {1..n+1}; type B signed
permutations of {1..n}; type D signed permutations with an even number of
sign changes. Coxeter length is Cayley-graph distance from the identity
under the simple generators, computed once during BFS enumeration.

The abstract (coset-level) Kneser graph lives on cosets wX of the
parabolic X = <R minus J>, with wX ~ vX iff v^-1 w lies in the double
coset X w0 X, that is iff vX is one of the cosets w x w0 X, x in X
(w0 is an involution).
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import lru_cache

from .errors import UsageError

MAX_RANK = 5


def compose(u, v):
    """u after v, as signed permutations."""
    out = []
    for j in v:
        if j > 0:
            out.append(u[j - 1])
        else:
            out.append(-u[-j - 1])
    return tuple(out)


def identity(m):
    return tuple(range(1, m + 1))


def simple_reflections(family, n):
    """The simple generators of W(A_n), W(B_n) or W(D_n), in order, as
    signed permutations: the transpositions (i, i+1), then for B_n the
    sign change of n, and for D_n the swap of n-1 and n with both signs
    changed. The one table of them: WeylGroup and Geometry read it."""
    m = n + 1 if family == "A" else n
    moves = [{i: i + 1, i + 1: i} for i in range(1, m)]
    if family == "B":
        moves.append({m: -m})
    elif family == "D":
        moves.append({m - 1: -m, m: 1 - m})
    return tuple(tuple(move.get(j, j) for j in range(1, m + 1)) for move in moves)


def _closure(m, gens):
    """Every element of the group the generators make, in breadth-first
    order from the identity on m letters, with its length in them."""
    length = {identity(m): 0}
    queue = deque(length)
    while queue:
        w = queue.popleft()
        for s in gens:
            ws = compose(w, s)
            if ws not in length:
                length[ws] = length[w] + 1
                queue.append(ws)
    return length


class WeylGroup:
    """Fully enumerated Weyl group with simple generators and lengths."""

    def __init__(self, family, n):
        if family not in ("A", "B", "D"):
            raise UsageError("Weyl family must be A, B or D")
        if n < 1 or (family == "D" and n < 2):
            raise UsageError("rank too small for family %s" % family)
        if n > MAX_RANK:
            raise UsageError(
                "rank %d too large for full enumeration (max %d)" % (n, MAX_RANK)
            )
        self.family = family
        self.n = n
        self.m = m = n + 1 if family == "A" else n
        self.generators = gens = simple_reflections(family, n)
        self.rank = len(gens)
        self.length = _closure(m, gens)
        self.elements = list(self.length)
        max_len = max(self.length.values())
        longest = [w for w, l in self.length.items() if l == max_len]
        if len(longest) != 1:
            raise RuntimeError("longest element is not unique")
        self.w0 = longest[0]

    @property
    def order(self):
        return len(self.elements)

    def generator(self, i):
        """Simple generator s_i, 1-based."""
        return self.generators[i - 1]

    def sort_key(self, w):
        return (self.length[w], w)


@lru_cache(maxsize=None)
def weyl_group(family, n):
    return WeylGroup(family, n)


class ParabolicQuotient:
    """Cosets wX of X = <R minus J>; the row of wX holds its opposites,
    the cosets w x w0 X for x in X. A coset is its own opposite only if w0
    lies in X, that is X = W, so the empty type set is refused."""

    def __init__(self, group, types):
        types = tuple(sorted(set(types)))
        if not types:
            raise UsageError("type set must be nonempty")
        if any(j < 1 or j > group.rank for j in types):
            raise UsageError("type set not contained in the diagram nodes")
        self.group = group
        self.types = types
        self.subgroup = _parabolic(group, types)
        reps = []
        self.coset_index = {}
        for w in sorted(group.elements, key=group.sort_key):
            if w in self.coset_index:
                continue
            idx = len(reps)
            reps.append(w)
            for x in self.subgroup:
                self.coset_index[compose(w, x)] = idx
        self.representatives = reps
        opposite = [compose(x, group.w0) for x in self.subgroup]
        self.adjacency = [sum({1 << self.coset_index[compose(w, xw0)] for xw0 in opposite})
                          for w in reps]

    @property
    def num_vertices(self):
        return len(self.representatives)

    def is_adjacent(self, i, j):
        return i != j and bool(self.adjacency[i] >> j & 1)

    def edges(self):
        for i, row in enumerate(self.adjacency):
            bits = row >> (i + 1) << (i + 1)
            while bits:
                j = (bits & -bits).bit_length() - 1
                yield (i, j)
                bits &= bits - 1


def phi_map(fine, coarse):
    """Vertex map from the finer quotient (J' ⊇ J) onto the coarser one.

    Sends wX' to wX and verifies that every edge maps to an edge,
    raising otherwise.
    """
    if fine.group is not coarse.group:
        raise UsageError("quotients belong to different groups")
    if not set(coarse.types) <= set(fine.types):
        raise UsageError("phi_map needs J subset of J'")
    mapping = [coarse.coset_index[w] for w in fine.representatives]
    for i, j in fine.edges():
        if not coarse.is_adjacent(mapping[i], mapping[j]):
            raise UsageError(
                "coset map is not a homomorphism: edge (%d,%d) collapses" % (i, j)
            )
    return mapping


def is_self_opposite(group, types):
    """True iff conjugation by w0 permutes the generators indexed by J."""
    w0 = group.w0
    gens = {group.generator(j) for j in types}
    conj = {compose(compose(w0, s), w0) for s in gens}
    return conj == gens


def check_lifting(fine, coarse):
    """Edge lifting along phi: returns (True, None) or (False, triple).

    Requires the coarse type set to be w0-stable; a violated hypothesis is
    reported as a usage error, not as a lifting failure.
    """
    if not is_self_opposite(fine.group, coarse.types):
        raise UsageError("lifting lemma hypothesis unmet: J is not w0-stable")
    mapping = phi_map(fine, coarse)
    fibers = {}
    for i, a in enumerate(mapping):
        fibers.setdefault(a, []).append(i)
    for i, a in enumerate(mapping):
        row = coarse.adjacency[a]
        bits = row
        while bits:
            b = (bits & -bits).bit_length() - 1
            bits &= bits - 1
            if not any(fine.is_adjacent(i, j) for j in fibers[b]):
                return False, (i, a, b)
    return True, None


def _parabolic(group, types):
    """The elements of X = <R minus J>."""
    return list(_closure(group.m, [s for i, s in enumerate(group.generators, 1) if i not in types]))


def shortest_double_coset(group, types):
    """The least element of X w0 X for X = <R minus J>, by length, then
    one-line notation."""
    sub = _parabolic(group, types)
    return min((compose(compose(x1, group.w0), x2) for x1 in sub for x2 in sub),
               key=group.sort_key)
