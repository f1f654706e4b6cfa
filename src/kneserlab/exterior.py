"""Sparse exterior algebra over F_p and the Pluecker embedding.

A subspace maps to the wedge of its canonical RREF basis rows, so the
embedding is an actual function (not just projectively defined) and its
coefficients are reproducible across runs. Two subspaces intersect
nontrivially iff the wedge of their images is 0. Demo 04 prints these
wedges and images; the span instrument (coclique.span_check) takes the
same coordinates as k x k minors of the stacked bases, and `plucker` with
`span_membership` is its per-vector test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import _residues, Subspace, check_prime, rank_mod_p
from .errors import UsageError


@dataclass(frozen=True, slots=True, repr=False)
class Multivector:
    """Sparse element of the exterior algebra of F_p^d.

    `terms` maps strictly increasing index tuples (0-based) to nonzero
    residues; the zero multivector has no terms.
    """

    ambient: int
    p: int
    terms: dict

    def __post_init__(self):
        ambient, p = self.ambient, check_prime(self.p)
        clean = {}
        for key, c in zip(self.terms, _residues([self.terms.values()], p, "coefficients")[0]):
            if c == 0:
                continue
            key = tuple(key)
            if list(key) != sorted(set(key)):
                raise UsageError("index sets must be strictly increasing")
            if key and (key[0] < 0 or key[-1] >= ambient):
                raise UsageError("index out of range for ambient %d" % ambient)
            clean[key] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def from_vector(cls, v, p):
        return cls(len(v), p, {(i,): x for i, x in enumerate(v) if x % p})

    def is_zero(self):
        return not self.terms

    def _check_compatible(self, other):
        if self.ambient != other.ambient or self.p != other.p:
            raise UsageError("multivectors live in different algebras")

    def __repr__(self):
        return "Multivector(d=%d, p=%d, %r)" % (self.ambient, self.p, self.terms)


def _merge_sign(a, b):
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = 0
    for x in a:
        for y in b:
            if x > y:
                inversions += 1
    return -1 if inversions % 2 else 1


def wedge(a, b):
    a._check_compatible(b)
    p = a.p
    terms = {}
    for ka, ca in a.terms.items():
        sa = set(ka)
        for kb, cb in b.terms.items():
            if sa & set(kb):
                continue
            key = tuple(sorted(ka + kb))
            sign = _merge_sign(ka, kb)
            terms[key] = terms.get(key, 0) + sign * ca * cb
    return Multivector(a.ambient, p, terms)


def plucker(u):
    """Wedge of the RREF basis rows of a nonzero subspace."""
    if not isinstance(u, Subspace):
        raise UsageError("plucker expects a Subspace")
    if u.dim == 0:
        raise UsageError("the zero subspace has no Pluecker image")
    mv = Multivector.from_vector(u.basis[0], u.p)
    for row in u.basis[1:]:
        mv = wedge(mv, Multivector.from_vector(row, u.p))
    return mv


def _coefficient_matrix(vectors, keys):
    return [[mv.terms.get(k, 0) for k in keys] for mv in vectors]


def span_membership(m, generators):
    """True iff m lies in the F_p-span of the generators."""
    if not generators:
        return m.is_zero()
    for g in generators:
        m._check_compatible(g)
    keys = sorted({k for g in generators for k in g.terms} | set(m.terms))
    gen_rows = _coefficient_matrix(generators, keys)
    d = len(keys)
    base = rank_mod_p(gen_rows, d, m.p)
    full = rank_mod_p(gen_rows + _coefficient_matrix([m], keys), d, m.p)
    return full == base
