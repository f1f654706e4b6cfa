"""Weyl groups of types A/B/D as (signed) permutations, and their cosets.

Elements are tuples of signed 1-based images: w[i-1] = j means the i-th
basis direction goes to the j-th, w[i-1] = -j that it also picks up a
sign. Type A uses plain permutations of {1..n+1}; type B signed
permutations of {1..n}; type D signed permutations with an even number of
sign changes. The longest element w0 and the order |W| are closed forms,
so no group is enumerated.

The abstract (coset-level) Kneser graph lives on cosets wX of the
parabolic X = <R minus J>, with wX ~ vX iff v^-1 w lies in the double
coset X w0 X, that is iff vX is one of the cosets w x w0 X, x in X
(w0 is an involution). A coset wX is the flag of label sets w({1..j}),
j in J, whose stabiliser is X: a frame, once BuildingSpec.frame maps each
set to its coordinate subspace. In D_n, type n-1 without n reads w(n) as
-w(n), the minus family, and type n beside n-1 adds nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import UsageError


def _bits(mask):
    """The positions of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


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
    changed. The one table of them: WeylGroup reads it, and the word-based
    frame oracle in the tests."""
    m = n + 1 if family == "A" else n
    moves = [{i: i + 1, i + 1: i} for i in range(1, m)]
    if family == "B":
        moves.append({m: -m})
    elif family == "D":
        moves.append({m - 1: -m, m: 1 - m})
    return tuple(tuple(move.get(j, j) for j in range(1, m + 1)) for move in moves)


@dataclass(frozen=True, eq=False, repr=False)
class WeylGroup:
    """A Weyl group by its simple generators, its longest element w0 and
    its order: W(family_rank) acts on m letters."""

    family: str
    rank: int

    def __post_init__(self):
        family, n = self.family, self.rank
        if family not in ("A", "B", "D"):
            raise UsageError("Weyl family must be A, B or D")
        if n < 1 or (family == "D" and n < 2):
            raise UsageError("rank too small for family %s" % family)
        m = n + 1 if family == "A" else n
        # w0 reverses the letters in type A and negates them in B and D,
        # but for the last one in D_n with n odd, where -1 is not in W.
        if family == "A":
            w0 = tuple(range(m, 0, -1))
        else:
            w0 = tuple(range(-1, -m, -1)) + (m if family == "D" and m % 2 else -m,)
        order = math.factorial(m) << (0 if family == "A" else m - (family == "D"))
        for name, value in (("m", m), ("generators", simple_reflections(family, n)),
                            ("w0", w0), ("order", order)):
            object.__setattr__(self, name, value)

    def generator(self, i):
        """Simple generator s_i, 1-based."""
        return self.generators[i - 1]


@lru_cache(maxsize=None)
def weyl_group(family, n):
    return WeylGroup(family, n)


@dataclass(frozen=True, eq=False, repr=False)
class ParabolicQuotient:
    """Cosets wX of X = <R minus J>, each made as its flag of label sets
    (module notes), in the order of a breadth-first search from X under
    left multiplication by the simple reflections: by depth, then by the
    one-line notation of the representative, the shortest element of the
    coset, as `flags` and `representatives` list them. The row of wX, made
    on first use, holds its opposites w x w0 X for x in X: w applied to the
    X-orbit of w0X. A coset is its own opposite only if w0 lies in X, that
    is X = W, so the empty type set is refused."""

    group: WeylGroup
    types: tuple

    def __post_init__(self):
        group, types = self.group, tuple(sorted(set(self.types)))
        if not types:
            raise UsageError("type set must be nonempty")
        if any(j < 1 or j > group.rank for j in types):
            raise UsageError("type set not contained in the diagram nodes")
        n, prefixes, flip = group.rank, list(types), False
        if group.family == "D" and n - 1 in types:
            if n in types:
                prefixes.remove(n)
            else:
                prefixes[-1], flip = n, True
        for name, value in (("types", types), ("_prefixes", tuple(prefixes)), ("_flip", flip)):
            object.__setattr__(self, name, value)
        cosets = self._orbit(identity(group.m), group.generators)
        for name, value in (("_index", {flag: i for i, flag in enumerate(cosets)}),
                            ("flags", tuple(cosets)), ("representatives", tuple(cosets.values()))):
            object.__setattr__(self, name, value)

    @cached_property
    def adjacency(self):
        sub = [s for i, s in enumerate(self.group.generators, 1) if i not in self.types]
        opposite = self._orbit(self.group.w0, sub).values()
        return tuple(sum(1 << self.index(compose(w, u)) for u in opposite)
                     for w in self.representatives)

    def _flag(self, w):
        if self._flip:
            w = w[:-1] + (-w[-1],)
        return tuple(frozenset(w[:k]) for k in self._prefixes)

    def _orbit(self, start, gens):
        """The cosets u·start·X for u in the group gens make, breadth first:
        flag -> one element of the coset, by depth, then one-line notation."""
        found, level = {self._flag(start): start}, [start]
        while level:
            step = {}
            for w in level:
                for s in gens:
                    v = compose(s, w)
                    flag = self._flag(v)
                    if flag not in found:
                        step[flag] = v
            found.update(sorted(step.items(), key=lambda item: item[1]))
            level = list(step.values())
        return found

    def index(self, w):
        """The index of the coset wX."""
        return self._index[self._flag(w)]

    @property
    def num_vertices(self):
        return len(self.representatives)

    def is_adjacent(self, i, j):
        return i != j and bool(self.adjacency[i] >> j & 1)

    def edges(self):
        for i, row in enumerate(self.adjacency):
            for j in _bits(row >> (i + 1) << (i + 1)):
                yield (i, j)


@lru_cache(maxsize=None)
def quotient(family, n, types):
    """The ParabolicQuotient of W(family_n) by a sorted type tuple, made
    once and shared: the geometries' frames and cross_validate read it."""
    return ParabolicQuotient(weyl_group(family, n), types)


def phi_map(fine, coarse):
    """Vertex map from the finer quotient (J' ⊇ J) onto the coarser one.

    Sends wX' to wX and verifies that every edge maps to an edge,
    raising otherwise.
    """
    if fine.group is not coarse.group:
        raise UsageError("quotients belong to different groups")
    if not set(coarse.types) <= set(fine.types):
        raise UsageError("phi_map needs J subset of J'")
    mapping = [coarse.index(w) for w in fine.representatives]
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
        for b in _bits(coarse.adjacency[a]):
            if not any(fine.is_adjacent(i, j) for j in fibers[b]):
                return False, (i, a, b)
    return True, None


def shortest_double_coset(group, types):
    """The least element of X w0 X for X = <R minus J>, by length, then
    one-line notation: the representative of the first opposite x w0 X of
    coset 0, or the identity for J empty, where X = W."""
    if not types:
        return identity(group.m)
    quotient = ParabolicQuotient(group, types)
    row = quotient.adjacency[0]
    return quotient.representatives[(row & -row).bit_length() - 1]
