"""Concrete Kneser graphs of classical buildings over F_p.

Vertices are canonical geometric objects (RREF subspaces, or nested
flags of them), adjacency is stored as one bit-vector row per vertex,
and the apartment subgraph is the set of coordinate-frame objects.

A BuildingSpec is its geometry: it knows the subspaces that make up a
vertex, the form they are singular for, and the Weyl group coset
quotient whose label-set flags name its frame objects. `build_graph`,
vertex counts and the coset cross-validation, which reads `_rows` on the
frames after `_check_frames`, all take one. Values keep what they derive
in cached properties, as a spec does its form, coset quotient and
frames; the one module cache is `_graph`, since a graph is costly and
equal specs share one.

Standard forms, fixed once per family:
  D_n: Q(x) = x_1 x_1' + ... + x_n x_n'  on F_p^{2n},
       coordinates ordered 1, 1', 2, 2', ..., n, n'.
  B_n: Q(x) = x_1 x_2 + x_3 x_4 + ... - x_{2n+1}^2  on F_p^{2n+1}
       (odd p only; in characteristic 2 the polar form is degenerate
       and polar questions route through the C_n model).
  C_n: f(x,y) = x_1 y_2 - x_2 y_1 + ...  on F_p^{2n}.
In all three cases hyperbolic-pair label i sits at column 2i-2 and its
partner i' at column 2i-1 (0-based).

Every adjacency rule is a conjunction of "U ∩ W = 0" tests, decided by
one opposition kernel on projective-point ids: x ~ y iff no point of a
"left" set of y lies in the matching "right" set of x. Projective type
i: both sets are the points of the subspace when 2i <= n+1, else the
points of its annihilator. Flags of type J: for each (a, b) in J×J, the
points of F_a and G_b when a+b <= n+1, else of their annihilators.
Polar types: the left set of y is its own points, and the right set of
x is the points P with x ⊂ P^⊥, so that x ~ y iff perp(x) ∩ y = 0.
Flag nesting reads the same point incidence: w holds u iff every point
of u lies in w, so the masks of u's points are ANDed, not ORed.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from .algebra import (
    _BLOCK_ELEMS,
    _annihilators,
    _normalised_vectors,
    Subspace,
    check_prime,
    enumerate_singular_subspaces,
    enumerate_subspaces,
    Form,
    is_totally_singular,
    rank_mod_p,
    rref,
)
from .coxeter import ParabolicQuotient, WeylGroup, _bits, compose, degrees
from .errors import UsageError, check_fields, check_index

FAMILIES = ("A", "B", "C", "D", "G")

# Largest graph build_graph makes: 2^15 vertices take 128 MiB of adjacency.
MAX_VERTICES = 1 << 15

# Largest apartment _check_frames lets through: A_5 chambers have 720
# frames, every rank-7 single type at most 672.
MAX_FRAMES = 1 << 10

# Most point ids _rows makes on an apartment, over the left sets of all its
# frames; each is d int64 entries in _point_ids.
MAX_POINT_IDS = 1 << 18

# Version of every JSON payload: graphs, UCEP reports and fixture reports.
SCHEMA = 1


@dataclass(frozen=True)
class BuildingSpec:
    """One geometry of a building over F_p, checked at construction: field
    types (a bool or float would hash equal to the int spec keying the
    graph cache), then ranges, then that the normaliser names it.

    The normaliser reads the spec. Type A: flags of the type dimensions in
    F_p^{n+1}. G_2 type 1: the points of the B_3 model. B_n, C_n, D_n:
    type k names the totally singular k-spaces, except in D_n, where type
    n is the plus and type n-1 the minus family of maximal ones, and type
    {n-1, n} the (n-1)-spaces. Any other spec is refused.
    """

    family: str
    rank: int
    p: int
    types: tuple
    # A vertex is a flag of subspaces of F_p^dim with the dimensions in parts;
    # for a polar spec, one totally singular subspace, from one D_n family of
    # maximal ones when oriflamme is "plus" or "minus" (the form has dim // 2
    # hyperbolic pairs). self_opposite is False for type-A flags whose type set
    # is not self-opposite, and for one family of maximal spaces of D_n with n
    # odd: two spaces of one family then meet in odd dimension, so none is
    # opposite another. Set by the normaliser; not compared, hashed or shown.
    dim: int = field(init=False, repr=False, compare=False)
    parts: tuple = field(init=False, repr=False, compare=False)
    oriflamme: str = field(init=False, repr=False, compare=False)
    self_opposite: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_fields(self, (("family", str), ("rank", int), ("p", int)))
        if type(self.types) not in (list, tuple) or any(type(j) is not int for j in self.types):
            raise UsageError("types must be a list or tuple of ints, not %r" % (self.types,))
        if self.family not in FAMILIES:
            raise UsageError("family must be one of %s" % (FAMILIES,))
        check_prime(self.p)
        if self.rank < 1:
            raise UsageError("rank must be at least 1, not %d" % self.rank)
        types = tuple(sorted(set(self.types)))
        object.__setattr__(self, "types", types)
        if not types:
            raise UsageError("type set must be nonempty")
        if any(j < 1 or j > self.rank for j in types):
            raise UsageError("type set must be a subset of the diagram nodes")
        if self.family in ("B", "G") and self.p % 2 == 0:
            raise UsageError("family %s model requires odd characteristic" % self.family)
        for name, value in zip(("dim", "parts", "oriflamme", "self_opposite"), self._normalised()):
            object.__setattr__(self, name, value)

    def _normalised(self):
        """dim, parts, oriflamme and self_opposite, by the class notes."""
        family, n, types = self.family, self.rank, self.types
        name = "%s_%d type %s over F_%d" % (family, n, ",".join(map(str, types)), self.p)
        if family == "A":
            return n + 1, types, None, len(types) == 1 or {n + 1 - j for j in types} == set(types)
        if family == "G":
            if (n, types) != (2, (1,)):
                raise UsageError("%s: the G_2 model has rank 2 and type 1 (points) only" % name)
            family, n = "B", 3
        if n < 2:
            raise UsageError("%s: polar rank must be at least 2" % name)
        special = {(n,): (n, "plus"), (n - 1,): (n, "minus"), (n - 1, n): (n - 1, None)}
        if family == "D" and types in special:
            k, oriflamme = special[types]
        elif len(types) == 1:
            (k,), oriflamme = types, None
        else:
            raise UsageError("%s: a polar type set is one type, or {n-1, n} in D_n" % name)
        return 2 * n + (family == "B"), (k,), oriflamme, not (oriflamme and n % 2)

    def to_dict(self):
        """The spec as reported; one D_n family of maximal spaces also names
        itself under "selector"."""
        d = {
            "family": self.family,
            "rank": self.rank,
            "p": self.p,
            "types": list(self.types),
        }
        if self.oriflamme:
            d["selector"] = self.oriflamme
        return d

    @cached_property
    def form(self):
        """The standard form of the spec's polar family (module notes),
        made on first use; None in type A."""
        family, d, p = self.family, self.dim, self.p
        if family == "A":
            return None
        gram = np.zeros((d, d), dtype=np.int64)
        pairs = np.arange(0, d - 1, 2)
        gram[pairs, pairs + 1] = 1
        if family == "C":
            gram[pairs + 1, pairs] = p - 1
            return Form("alternating", gram, p)
        if d % 2:
            gram[d - 1, d - 1] = p - 1
        return Form("quadratic", gram, p)

    def coordinate(self, labels):
        """Coordinate subspace on frame labels: label l is column l-1 in
        type A; for a polar form, hyperbolic-pair label l is column 2l-2
        and its partner -l column 2l-1."""
        if self.family == "A":
            cols = [l - 1 for l in labels if 0 < l <= self.dim]
        else:
            cols = [2 * abs(l) - 1 - (l > 0) for l in labels if 0 < abs(l) <= self.dim // 2]
        if len(cols) != len(labels):
            raise UsageError("frame label out of range")
        return Subspace.coordinate(cols, self.dim, self.p)

    def in_family(self, sub):
        """Whether a maximal totally singular space A is in this D_n
        family. A is in the plus family iff dim(A ∩ A0) = n mod 2, for A0
        the span of the unprimed columns; A ∩ A0 is the kernel of A's
        primed columns, so that is iff those columns have even rank."""
        even = rank_mod_p(sub.matrix()[:, 1::2].tolist(), self.dim // 2, self.p) % 2 == 0
        return even == (self.oriflamme == "plus")

    @cached_property
    def quotient(self):
        """The coset quotient whose label-set flags are the frames, made on
        first use: W(A_n) in type A, W(D_n) on one D_n family of maximal
        spaces, and W(B_r) on any other polar form of r pairs (a sign change
        swaps the two families)."""
        family, r = self.family, self.dim // 2
        if family == "A":
            return ParabolicQuotient(WeylGroup("A", self.dim - 1), self.parts)
        if self.oriflamme:
            return ParabolicQuotient(WeylGroup("D", r), self.types)
        return ParabolicQuotient(WeylGroup("B", r), self.parts)

    def frame(self, flag):
        """Frame object of a flag of label sets, one per part, such as a
        coset of the quotient: the coordinate subspace of each set."""
        return tuple(self.coordinate(labels) for labels in flag)

    @cached_property
    def frames(self):
        """The frame object of each coset of the quotient, in its order."""
        return tuple(self.frame(flag) for flag in self.quotient.flags)

    def vertex(self, flag, index):
        """The flag of subspaces a list of basis matrices names, checked
        against the spec: one canonical RREF basis per part (so entries
        in 0..p-1), of the part's dimension in F_p^dim, nested, and for a
        polar spec totally singular and in the named family of maximal
        spaces. Otherwise a UsageError names the vertex by `index`. It is
        the inverse of vertex_lists."""
        p, d = self.p, self.dim

        def bad(why):
            return UsageError("vertex %s %s" % (index, why))

        if not isinstance(flag, list) or len(flag) != len(self.parts):
            raise bad("does not have %d parts" % len(self.parts))
        parts = []
        for k, mat in zip(self.parts, flag):
            if not (isinstance(mat, list) and len(mat) == k and all(
                    isinstance(row, list) and len(row) == d and all(type(x) is int for x in row)
                    for row in mat)):
                raise bad("is not a flag of %s-spaces of F_%d^%d" % (self.parts, p, d))
            basis = tuple(map(tuple, mat))
            if rref(basis, d, p) != basis:
                raise bad("has a basis not in reduced row echelon form over F_%d" % p)
            parts.append(Subspace(d, p, basis))
        if not all(w.contains(u) for u, w in zip(parts, parts[1:])):
            raise bad("is not a nested flag")
        if self.form is not None and not is_totally_singular(parts[0], self.form):
            raise bad("is not totally singular")
        if self.oriflamme and not self.in_family(parts[0]):
            raise bad("is not in the %s family" % self.oriflamme)
        return tuple(parts)

    def opposite(self, fx, fy):
        """Opposition of two vertices by exact ranks of their basis matrices,
        independent of the point-incidence kernel: for a polar type the
        pairing B_x G B_y^T has full rank; for type-A flags every pair of
        parts spans as much as general position allows."""
        p, d = self.p, self.dim
        if self.form is not None:
            (x,), (y,) = fx, fy
            return rank_mod_p((x.matrix() @ self.form.polar @ y.matrix().T % p).tolist(),
                              y.dim, p) == x.dim
        return all(rank_mod_p(u.basis + w.basis, d, p) == min(u.dim + w.dim, d)
                   for u in fx for w in fy)


def vertex_lists(flag):
    """A vertex as every output writes it: one basis matrix per part, as
    lists of rows."""
    return [[list(row) for row in part.basis] for part in flag]


@dataclass(frozen=True, eq=False)
class KneserGraph:
    """Vertex list + bit-vector adjacency + marked apartment subset.

    Immutable, since built graphs are cached and shared by every caller.
    Refused at construction by the offender, in O(N) at most: a row count
    other than N; a row that is not an int, holds its own bit or is no mask
    of vertices 0..N-1; a Sigma entry that is no distinct vertex index; a
    generator that is no permutation of the Sigma positions, as ints. Rows
    are not checked for symmetry: a pass over all N^2 bits took 0.57-1.32 s
    and +47 MB against a 4.2-6.7 s build of D_4 points over F_5 (2 vCPU).
    _graph's degree gate catches a row that gains or loses a bit on its own.
    """

    spec: BuildingSpec
    vertices: tuple
    adjacency: tuple
    sigma: tuple
    # Generators of a group of graph automorphisms that fix Sigma, each as
    # the permutation of Sigma positions it induces; empty means the
    # trivial group.
    sigma_generators: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "adjacency", tuple(self.adjacency))
        n = len(self.vertices)
        sigma = sorted(check_index(i, n, "Sigma vertex", "vertices") for i in self.sigma)
        gens = tuple(tuple(check_index(j, len(sigma), "Sigma position", "positions") for j in s)
                     for s in self.sigma_generators)
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "sigma_generators", gens)
        if len(self.adjacency) != n:
            raise UsageError("%d adjacency rows for %d vertices: each vertex has one row"
                             % (len(self.adjacency), n))
        for v, row in enumerate(self.adjacency):
            if type(row) is not int:
                raise UsageError("the row of vertex %d must be of type int, not %s"
                                 % (v, type(row).__name__))
            if row >> v & 1:
                raise UsageError("vertex %d is adjacent to itself: its row holds its own bit" % v)
            if row < 0 or row.bit_length() > n:
                raise UsageError("the row of vertex %d is not a mask of vertices 0..%d"
                                 % (v, n - 1))
        for a, b in zip(sigma, sigma[1:]):
            if a == b:
                raise UsageError("Sigma vertex %d is listed twice" % a)
        for g, s in enumerate(gens):
            if sorted(s) != list(range(len(sigma))):
                raise UsageError("Sigma generator %d is not a permutation of the %d Sigma "
                                 "positions" % (g, len(sigma)))

    @property
    def num_vertices(self):
        return len(self.vertices)

    @cached_property
    def full_mask(self):
        return (1 << len(self.vertices)) - 1

    def is_adjacent(self, i, j):
        i, j = self._vertex(i), self._vertex(j)
        return i != j and bool(self.adjacency[i] >> j & 1)

    def _vertex(self, i):
        """A vertex index in 0..N-1 as an int (check_index): a row shifted by a
        numpy integer, such as a head from later_neighbours(), is cast to
        int64 and overflows."""
        return check_index(i, len(self.vertices), "vertex", "vertices")

    def num_edges(self):
        return sum(row.bit_count() for row in self.adjacency) // 2

    def later_neighbours(self):
        """(i, heads) for each vertex i with a neighbour j > i, in order of i,
        with those j as an ascending array; the renders write one row each.

        Each row keeps its bits above the diagonal and is unpacked to one
        byte per vertex, in blocks of rows of at most _BLOCK_ELEMS bytes.
        """
        n = self.num_vertices
        width = -(-n // 8)
        step = max(1, _BLOCK_ELEMS // (8 * width or 1))
        for lo in range(0, n, step):
            rows = self.adjacency[lo:lo + step]
            packed = b"".join((row >> i << i).to_bytes(width, "little")
                              for i, row in enumerate(rows, lo + 1))
            bits = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(len(rows), width),
                                 axis=1, count=n, bitorder="little")
            for i, row in enumerate(bits.view(bool), lo):
                heads = np.flatnonzero(row)
                if len(heads):
                    yield i, heads

    def sigma_mask(self):
        return sum(1 << i for i in self.sigma)

    @cached_property
    def _psi(self):
        """Pluecker coordinates of every vertex, one row each: the Kronecker
        product, in part order, of each part's k x k minors of the stacked RREF
        bases mod p, on the columns itertools.combinations(range(d), k). Each
        minor is the Leibniz sum over the permutations s of range(k) of
        sign(s) prod_r B[r, cols[s(r)]], added one permutation at a time over
        all vertices and columns. Every entry is below p <= 7, so psi is kept as
        uint8, and a product of two entries, below 49, fits it too. Read-only."""
        p, n = self.spec.p, self.num_vertices
        psi = np.ones((n, 1), dtype=np.uint8)
        for bases in map(_matrices, zip(*self.vertices)):
            _, k, d = bases.shape
            cols = np.array(list(itertools.combinations(range(d), k)))
            minors = np.zeros((n, len(cols)), dtype=np.int64)
            for perm in itertools.permutations(range(k)):
                term = 1
                for r, c in enumerate(perm):
                    term = term * bases[:, r, cols[:, c]] % p
                inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
                minors += term if inversions % 2 == 0 else p - term
            psi = psi[:, :, None] * (minors % p).astype(np.uint8)[:, None, :]
            psi %= p
            psi = psi.reshape(n, -1)
        psi.setflags(write=False)
        return psi


def _apartment(spec, vertices):
    """Sigma, the sorted indices of the frame objects, and the Weyl group
    generators as permutations of Sigma positions: a generator s maps the
    frame of a coset wX to the frame of s·wX."""
    index = {flag: i for i, flag in enumerate(vertices)}
    at = []
    for flag in spec.frames:
        if flag not in index:
            raise RuntimeError("frame object is not a vertex: %r" % (flag,))
        at.append(index[flag])
    sigma = sorted(at)
    position = {v: j for j, v in enumerate(sigma)}
    pos = [position[v] for v in at]
    q = spec.quotient
    generators = []
    for s in q.group.generators:
        perm = [0] * len(sigma)
        for j, w in zip(pos, q.representatives):
            perm[j] = pos[q.index(compose(s, w))]
        generators.append(perm)
    return sigma, generators


def _point_ids(mats, p):
    """Projective points of the row space of each basis matrix in mats, an
    (N, k, d) array, as an (N, (p^k-1)/(p-1)) array.

    A point's id is its normalised vector (first nonzero entry 1) read as
    a base-p integer. The bases are in echelon form with pivot entries 1,
    as an RREF basis is. Multiplying such a basis by the normalised
    coefficient vectors of F_p^k gives normalised vectors directly: the
    first nonzero entry of c·B sits in the pivot column of the leading row
    of c, where it equals 1.
    """
    k, d = mats.shape[1:]
    points = np.einsum("ck,nkd->ncd", _normalised_vectors(k, p)[0], mats) % p
    return points @ p ** np.arange(d - 1, -1, -1)


def _matrices(subspaces):
    return np.array([s.basis for s in subspaces], dtype=np.int64)


def _distinct(keys):
    """The distinct entries of an array of non-negative integers, sorted."""
    keys = np.sort(keys, axis=None)
    return keys[np.diff(keys, prepend=-1) != 0]


def _incidence(left, right, p):
    """Point incidence between two stacks of basis matrices, N_y left and
    N_x right: y's point set is the points of the row space of left[y], x's
    the points P with right[x] P^T = 0. Returns y's point ids, as
    _point_ids, and masks[P], the x whose set holds P, for each distinct P.

    The rows of right are keyed (mod p) as base-p integers and paired once
    per distinct row u, in blocks of points of at most _BLOCK_ELEMS entries:
    zero[P, u] = row_u P^T = 0, and x's set holds P iff zero[P, u] for each
    of x's rows u. A point's mask is packed from one contiguous row.
    """
    ids = _point_ids(left, p)
    cols = _distinct(ids)
    n, _, d = right.shape
    digits = p ** np.arange(d - 1, -1, -1)
    vecs = cols[:, None] // digits % p
    keys = right % p @ digits
    distinct = _distinct(keys)
    which = np.searchsorted(distinct, keys.T)
    rows = distinct[:, None] // digits % p
    step = max(1, _BLOCK_ELEMS // max(n, len(rows)))
    masks = {}
    for lo in range(0, len(cols), step):
        zero = vecs[lo:lo + step] @ rows.T % p == 0
        held = np.take(zero, which[0], axis=1)
        for u in which[1:]:
            held &= np.take(zero, u, axis=1)
        packed = np.packbits(held, axis=1, bitorder="little")
        for pid, bits in zip(cols[lo:lo + step].tolist(), packed):
            masks[pid] = int.from_bytes(bits.tobytes(), "little")
    return ids, masks


def _general_position(types, d):
    """General position of type-J flags F, G in F_p^d as conditions (a, b,
    dual) in kernel order: F_a ∩ G_b = 0, or when their dimensions sum past
    d (dual) ann F_a ∩ ann G_b = 0. Its left set is G_b, or ann G_b if dual."""
    return [(a, b, a_dim + b_dim > d)
            for a, a_dim in enumerate(types) for b, b_dim in enumerate(types)]


def _nested_flags(levels, p):
    """All chains u_1 < u_2 < ... with u_j drawn from levels[j], each made
    with the index of its last part in its level. w holds u iff every point
    of u lies in w, in ann(w)'s zero set: the AND of u's _incidence masks
    against the next level's annihilators."""
    flags = [((u,), i) for i, u in enumerate(levels[0])]
    for lower, upper in zip(levels, levels[1:]):
        ids, masks = _incidence(_matrices(lower), _annihilators(_matrices(upper), p), p)
        above = [list(_bits(reduce(operator.and_, map(masks.__getitem__, pids.tolist()))))
                 for pids in ids]
        flags = [(f + (upper[j],), j) for f, i in flags for j in above[i]]
    return [f for f, _ in flags]


def _vertices(spec):
    """Canonical vertices of a spec, sorted by their bases: the enumerators
    emit each level in that order, and _nested_flags keeps it."""
    p = spec.p
    if spec.form is None:
        return _nested_flags([enumerate_subspaces(spec.dim, k, p) for k in spec.parts], p)
    subs = enumerate_singular_subspaces(spec.form, spec.parts[0])
    return [(s,) for s in subs if not spec.oriflamme or spec.in_family(s)]


def _rows(spec, vertices):
    """Adjacency of the vertices in general position (_general_position):
    row[y] is full & ~(bit(y) | the OR of y's _incidence masks, over every
    condition). P lies in U iff ann(U) P^T = 0, and in ann(U) iff U P^T = 0.
    A polar type has one condition, the non-dual (0, 0), whose right side
    is B_x G in place of ann(x): P lies in perp(x) iff (B_x G) P^T = 0, so
    x ~ y iff perp(x) ∩ y = 0."""
    p = spec.p
    parts = [_matrices([f[a] for f in vertices]) for a in range(len(spec.parts))]
    if spec.form is None:
        anns = [_annihilators(part, p) for part in parts]
    else:
        anns = [parts[0] @ spec.form.polar]
    # A dual condition reverses both sides' columns, which puts the
    # annihilators in echelon form (_annihilators), so each of their points
    # has one id.
    sides = [_incidence(anns[b][:, ::-1, ::-1], parts[a][:, :, ::-1], p) if dual
             else _incidence(parts[b], anns[a], p)
             for a, b, dual in _general_position(spec.parts, spec.dim)]
    full, rows = (1 << len(vertices)) - 1, []
    for y in range(len(vertices)):
        blocked = 1 << y
        for ids, masks in sides:
            for pid in ids[y].tolist():
                blocked |= masks[pid]
        rows.append(full & ~blocked)
    return rows


def checked_vertex_count(spec):
    """The closed-form vertex count of a spec (_vertex_count), after build's
    refusals: a type set that is not self-opposite (see BuildingSpec), then a
    count past MAX_VERTICES (N vertices take N^2/8 bytes of adjacency). The
    count is made only below dimension 64: in F_p^d a type-A spec has at
    least p^(d-1) vertices, and one on a polar form of rank n at least
    p^(2n-2), so past that every count is over 10^18."""
    if not spec.self_opposite:
        raise UsageError("spec %s: type set %s is not self-opposite; Kneser adjacency within "
                         "one type is undefined" % (spec.to_dict(), list(spec.types)))
    count = _vertex_count(spec) if spec.dim < 64 else None
    if count is None or count > MAX_VERTICES:
        named = count if count is not None and count <= 10 ** 18 else "over 10^18"
        raise UsageError("spec %s has %s vertices, more than the limit of %d"
                         % (spec.to_dict(), named, MAX_VERTICES))
    return count


@lru_cache(maxsize=None)
def _graph(spec):
    """The one graph cache, keyed by the canonical spec. It also builds the
    specs build_graph refuses as not self-opposite, such as type-A flags;
    the enumerated vertices must number _vertex_count(spec), and each row of
    a self-opposite spec hold _degree(spec) bits. Sigma comes with the Weyl
    group's generators as permutations of it (_apartment)."""
    count = _vertex_count(spec)
    vertices = _vertices(spec)
    if len(vertices) != count:
        raise RuntimeError("enumerated %d vertices for spec %s, expected %d"
                           % (len(vertices), spec.to_dict(), count))
    sigma, generators = _apartment(spec, vertices)
    rows = _rows(spec, vertices)
    if spec.self_opposite:
        degree = _degree(spec)
        for v, row in enumerate(rows):
            if row.bit_count() != degree:
                raise RuntimeError("vertex %d of spec %s has %d neighbours, expected %d"
                                   % (v, spec.to_dict(), row.bit_count(), degree))
    return KneserGraph(spec, vertices, rows, sigma, generators)


def build_graph(spec):
    """The Kneser graph of a spec that checked_vertex_count accepts, refused
    before any enumeration or form is made."""
    checked_vertex_count(spec)
    return _graph(spec)


def _poincare(family, dim, parts, q):
    """P_W(q)/P_X(q) and N_W - N_X, for P the product of [e]_q = 1 + ... +
    q^(e-1) and N the sum of e - 1 over a group's degrees e. W is the Weyl
    group of a building on F^dim, W(D_r) on a D form of r pairs and W(B_r)
    on any other; X is left when the nodes of the parts are deleted from its
    diagram: the A-runs between them, or A_{k-1} and W's family at rank r-k."""
    if family == "A":
        w, x = ("A", dim - 1), [("A", b - a - 1) for a, b in zip((0,) + parts, parts + (dim,))]
    else:
        family = "D" if family == "D" else "B"
        w, x = (family, dim // 2), [("A", parts[0] - 1), (family, dim // 2 - parts[0])]
    w, x = degrees(*w), sum((degrees(*g) for g in x), ())
    p_w, p_x = (math.prod(sum(q ** i for i in range(e)) for e in g) for g in (w, x))
    return p_w // p_x, sum(w) - len(w) - sum(x) + len(x)


def _vertex_count(spec, q=None):
    """The vertex count of build_graph(spec) over F_q, q = spec.p unless
    given: P_W(q)/P_X(q) (_poincare), at q = 1 the apartment's frames |W/X|."""
    return _poincare(spec.family, spec.dim, spec.parts, spec.p if q is None else q)[0]


def _degree(spec, q=None):
    """Every vertex's degree in build_graph(spec) over F_q for a self-opposite
    spec, q = spec.p unless given; at q = 1 its opposites in the apartment:
    q^(N_W - N_X), but for one type k of A_n general position, q^(m^2)
    [d-m, m]_q with m = min(k, d-k)."""
    q, d, k = spec.p if q is None else q, spec.dim, spec.parts[0]
    if spec.family == "A" and len(spec.parts) == 1:
        m = min(k, d - k)
        return q ** (m * m) * _poincare("A", d - m, (m,), q)[0]
    return q ** _poincare(spec.family, d, spec.parts, q)[1]


def _check_frames(spec):
    """Refuse a spec whose apartment the kernel would not take, before any
    coset or frame is made: a dimension d with p^d > 2^63, past the
    kernel's int64 point ids; more than MAX_FRAMES frames (_vertex_count at
    q = 1); more than MAX_POINT_IDS points in the left sets of all the
    frames."""
    p = spec.p
    if spec.dim > 63 or p ** spec.dim > 1 << 63:
        raise UsageError("spec %s: dimension %d is too large for the kernel's int64 point "
                         "ids, which need p^d <= 2^63" % (spec.to_dict(), spec.dim))
    frames = _vertex_count(spec, 1)
    if frames > MAX_FRAMES:
        raise UsageError("spec %s has %d frames in its apartment, more than the limit of %d"
                         % (spec.to_dict(), frames, MAX_FRAMES))
    # The left set of each condition _rows pairs: G_b or ann G_b. A polar
    # type's one condition, on the vertex itself, is the non-dual (0, 0).
    left = [spec.dim - spec.parts[b] if dual else spec.parts[b]
            for _, b, dual in _general_position(spec.parts, spec.dim)]
    points = frames * sum((p ** k - 1) // (p - 1) for k in left)
    if points > MAX_POINT_IDS:
        raise UsageError("spec %s has %d point ids in its apartment, more than the limit of %d"
                         % (spec.to_dict(), points, MAX_POINT_IDS))
