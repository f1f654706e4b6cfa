"""Concrete Kneser graphs of classical buildings over F_p.

Vertices are canonical geometric objects (RREF subspaces, or nested
flags of them), adjacency is stored as one bit-vector row per vertex,
and the apartment subgraph is the set of coordinate-frame objects.

`geometry(spec)` is the one place that knows what a spec names: the
subspaces that make up a vertex, the form they are singular for, and
the label words that name its frame objects. A BuildingSpec is the only
name of a geometry: `build_graph`, apartment graphs, vertex counts and
the coset cross-validation all take one and read `geometry(spec)`, and
`build_graph` holds the one graph cache, keyed by the canonical spec.

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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    _BLOCK_ELEMS,
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
from .coxeter import compose, simple_reflections
from .errors import UsageError

FAMILIES = ("A", "B", "C", "D", "G")

# Largest graph build_graph makes: 2^15 vertices take 128 MiB of adjacency.
MAX_VERTICES = 1 << 15

# Largest apartment apartment_graph takes: A_5 chambers have 720 frames,
# every rank-7 single type at most 672.
MAX_FRAMES = 1 << 10

# Most point ids apartment_graph's kernel makes, over the left sets of all
# its frames (_left_dims); each is d int64 entries in _point_ids.
MAX_POINT_IDS = 1 << 18

# Version of every JSON payload: graphs, UCEP reports and fixture reports.
SCHEMA = 1


@dataclass(frozen=True)
class BuildingSpec:
    family: str
    rank: int
    p: int
    types: tuple

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise UsageError("family must be one of %s" % (FAMILIES,))
        check_prime(self.p)
        types = tuple(sorted(set(self.types)))
        object.__setattr__(self, "types", types)
        if not types:
            raise UsageError("type set must be nonempty")
        if any(j < 1 or j > self.rank for j in types):
            raise UsageError("type set must be a subset of the diagram nodes")
        if self.family in ("B", "G") and self.p % 2 == 0:
            raise UsageError("family %s model requires odd characteristic" % self.family)

    def to_dict(self):
        """The spec as reported; one D_n family of maximal spaces also names
        itself under "selector"."""
        d = {
            "family": self.family,
            "rank": self.rank,
            "p": self.p,
            "types": list(self.types),
        }
        oriflamme = geometry(self).oriflamme
        if oriflamme:
            d["selector"] = oriflamme
        return d


@dataclass(frozen=True)
class Geometry:
    """What a spec names, without its vertices.

    A vertex is a flag of subspaces of F_p^dim with the dimensions in
    `parts`. For a polar spec (one that has a `form`) it is one totally
    singular subspace, taken from one D_n family of maximal ones when
    `oriflamme` is "plus" or "minus"; the form has dim // 2 hyperbolic
    pairs. `self_opposite` is False for type-A flags whose type set is not
    self-opposite, and for one family of maximal spaces of D_n with n odd:
    two spaces of one family then meet in odd dimension, so none is
    opposite another.
    """

    spec: BuildingSpec
    dim: int
    parts: tuple
    oriflamme: str = None
    self_opposite: bool = True

    @cached_property
    def form(self):
        """The standard form of the spec's polar family (module notes),
        made on first use; None in type A."""
        family, d, p = self.spec.family, self.dim, self.spec.p
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
        if self.spec.family == "A":
            cols = [l - 1 for l in labels if 0 < l <= self.dim]
        else:
            cols = [2 * abs(l) - 1 - (l > 0) for l in labels if 0 < abs(l) <= self.dim // 2]
        if len(cols) != len(labels):
            raise UsageError("frame label out of range")
        return Subspace.coordinate(cols, self.dim, self.spec.p)

    def in_family(self, sub):
        """Whether a maximal totally singular space A is in this D_n
        family. A is in the plus family iff dim(A ∩ A0) = n mod 2, for A0
        the span of the unprimed columns; A ∩ A0 is the kernel of A's
        primed columns, so that is iff those columns have even rank."""
        even = rank_mod_p(sub.matrix()[:, 1::2].tolist(), self.dim // 2, self.spec.p) % 2 == 0
        return even == (self.oriflamme == "plus")

    def frame(self, labels):
        """Frame object of a label word, such as a Weyl group element in
        one-line notation: the coordinate flag on the word's prefixes. The
        minus family swaps the n-th label for its partner, so that the even
        words of D_n name its odd frames."""
        if self.oriflamme == "minus":
            k = self.parts[0]
            labels = tuple(labels[:k - 1]) + (-labels[k - 1],)
        return tuple(self.coordinate(labels[:k]) for k in self.parts)

    def frame_words(self):
        """One label word per frame object: a set of new labels for each
        part, never a label beside its partner, and for D_n maximal spaces
        an even number of primed labels, as in the Weyl group of D_n."""
        if self.spec.family == "A":
            alphabet = range(1, self.dim + 1)
        else:
            alphabet = [s * a for a in range(1, self.dim // 2 + 1) for s in (1, -1)]
        words, below = [()], 0
        for k in self.parts:
            words = [w + c for w in words for c in itertools.combinations(
                [l for l in alphabet if l not in w], k - below)]
            below = k
        return [w for w in words if len({abs(l) for l in w}) == len(w)
                and not (self.oriflamme and sum(l < 0 for l in w) % 2)]

    def frames(self):
        return [self.frame(w) for w in self.frame_words()]

    def weyl_generators(self):
        """The Weyl group's simple reflections (coxeter.simple_reflections)
        acting on frame labels: those of S_{n+1} in type A; on a polar form
        of r pairs, those of W(B_r), and on one D_n family of maximal spaces
        those of W(D_r), since a single sign change exchanges the two
        families."""
        if self.spec.family == "A":
            return simple_reflections("A", self.dim - 1)
        return simple_reflections("D" if self.oriflamme else "B", self.dim // 2)

    def vertex(self, flag, index):
        """The flag of subspaces a list of basis matrices names, checked
        against the geometry: one canonical RREF basis per part (so entries
        in 0..p-1), of the part's dimension in F_p^dim, nested, and for a
        polar spec totally singular and in the named family of maximal
        spaces. Otherwise a UsageError names the vertex by `index`. It is
        the inverse of vertex_lists."""
        p, d = self.spec.p, self.dim

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
        p, d = self.spec.p, self.dim
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


@lru_cache(maxsize=None)
def geometry(spec):
    """The one spec normaliser. Type A: flags of the type dimensions in
    F_p^{n+1}. G_2 type 1: the points of the B_3 model. B_n, C_n, D_n:
    type k names the totally singular k-spaces, except in D_n, where type
    n is the plus and type n-1 the minus family of maximal ones, and type
    {n-1, n} the (n-1)-spaces. Every other spec is a UsageError."""
    family, n, types = spec.family, spec.rank, spec.types
    name = "%s_%d type %s over F_%d" % (family, n, ",".join(map(str, types)), spec.p)
    if family == "A":
        return Geometry(spec, n + 1, types, None,
                        len(types) == 1 or {n + 1 - j for j in types} == set(types))
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
    return Geometry(spec, 2 * n + (family == "B"), (k,), oriflamme, not (oriflamme and n % 2))


@dataclass(frozen=True, eq=False)
class KneserGraph:
    """Vertex list + bit-vector adjacency + marked apartment subset.

    Immutable, since built graphs are cached and shared by every caller.
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
        object.__setattr__(self, "sigma", tuple(sorted(self.sigma)))
        object.__setattr__(self, "sigma_generators", tuple(map(tuple, self.sigma_generators)))

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def full_mask(self):
        return (1 << len(self.vertices)) - 1

    def is_adjacent(self, i, j):
        """Also for numpy integers, such as the entries of edge_blocks(): a row
        shifted by a numpy integer is cast to int64 and overflows."""
        return i != j and bool(self.adjacency[i] >> int(j) & 1)

    def degree(self, i):
        return self.adjacency[i].bit_count()

    def num_edges(self):
        return sum(self.degree(i) for i in range(self.num_vertices)) // 2

    def edge_blocks(self):
        """The edges i < j in row order (i, then j), as one (m, 2) array per
        block of rows; the renders write from these, one block at a time.

        Each row keeps its bits above the diagonal and is unpacked to one
        byte per vertex, in blocks of rows of at most _BLOCK_ELEMS bytes.
        """
        n = self.num_vertices
        width, step = _row_blocks(n)
        for lo in range(0, n, step):
            rows = self.adjacency[lo:lo + step]
            packed = b"".join((row >> i << i).to_bytes(width, "little")
                              for i, row in enumerate(rows, lo + 1))
            bits = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(len(rows), width),
                                 axis=1, count=n, bitorder="little")
            pairs = np.argwhere(bits)
            pairs[:, 0] += lo
            yield pairs

    def sigma_mask(self):
        m = 0
        for i in self.sigma:
            m |= 1 << i
        return m


def _row_blocks(n):
    """Bytes in a packed row of n bits, and how many rows make a block of
    at most _BLOCK_ELEMS bytes when unpacked to one byte per bit."""
    width = -(-n // 8)
    return width, max(1, _BLOCK_ELEMS // (8 * width or 1))


def _sorted_vertices(flags):
    """Vertices in canonical order: by the canonical keys of their parts."""
    return sorted(flags, key=lambda flag: tuple(s.key for s in flag))


def _apartment(geo, vertices):
    """Sigma, the sorted indices of the frame objects, and the Weyl group
    generators as permutations of Sigma positions: a generator maps the
    frame of a label word to the frame of the word's image."""
    index = {flag: i for i, flag in enumerate(vertices)}

    def vertex(word):
        flag = geo.frame(word)
        if flag not in index:
            raise RuntimeError("frame object is not a vertex: %r" % (flag,))
        return index[flag]

    words = geo.frame_words()
    at = [vertex(w) for w in words]
    sigma = sorted(at)
    position = {v: j for j, v in enumerate(sigma)}
    generators = []
    for gen in geo.weyl_generators():
        perm = [0] * len(sigma)
        for w, v in zip(words, at):
            perm[position[v]] = position[vertex(compose(gen, w))]
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


def _run_starts(keys):
    """Where each run of equal entries of a sorted array starts."""
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    return new


def _opposition_rows(conditions, p):
    """Adjacency rows from "no shared point" conditions.

    Each condition is (left, right), two stacks of basis matrices, one
    entry per vertex: y's left set is the points of the row space of
    left[y], x's right set the points P with right[x] P^T = 0. With
    masks[P] the x whose right set holds P, row[y] = full & ~(bit(y) | OR
    of masks[P] over y's left set, in every condition). The pairing runs
    in column blocks of _BLOCK_ELEMS entries. When rows of right repeat
    (mod p), it is made once per distinct row, each keyed as a base-p
    integer: zero[u, P] = row_u P^T = 0, and x's right set holds P iff
    zero[u, P] for each of x's rows u.
    """
    n = len(conditions[0][0])
    sides = []
    for left, right in conditions:
        ids = _point_ids(left, p)
        cols = np.sort(ids, axis=None)
        cols = cols[_run_starts(cols)]
        k, d = right.shape[1:]
        digits = p ** np.arange(d - 1, -1, -1)
        vecs = cols[:, None] // digits % p
        # Row j of every x, then row j + 1: the AND over x's rows runs over
        # the outer axis, which numpy does in one pass.
        rows = right.transpose(1, 0, 2).reshape(-1, d) % p
        keys = rows @ digits
        order = np.argsort(keys, kind="stable")
        new = _run_starts(keys[order])
        which = None
        if not new.all():
            rows, which = rows[order[new]], np.empty(n * k, dtype=np.intp)
            which[order] = np.cumsum(new) - 1
        step = max(1, _BLOCK_ELEMS // (n * k))
        masks = {}
        for lo in range(0, len(cols), step):
            zero = rows @ vecs[lo:lo + step].T % p == 0
            inside = (zero if which is None else zero[which]).reshape(k, n, -1).all(axis=0)
            packed = np.packbits(inside, axis=0, bitorder="little")
            for pid, col in zip(cols[lo:lo + step].tolist(), packed.T):
                masks[pid] = int.from_bytes(col.tobytes(), "little")
        sides.append((ids, masks))
    full = (1 << n) - 1
    rows = []
    for y in range(n):
        blocked = 1 << y
        for ids, masks in sides:
            for pid in ids[y].tolist():
                blocked |= masks[pid]
        rows.append(full & ~blocked)
    return rows


def _flag_rows(flags, types, p):
    """General position of type-J flags in F_p^d, single types included:
    F_a ∩ G_b = 0 when a + b <= d, else ann F_a ∩ ann G_b = 0, for all
    a, b in J. P lies in U iff ann(U) P^T = 0, and in ann(U) iff U P^T = 0.
    """
    d = flags[0][0].ambient
    parts = [_matrices([f[a] for f in flags]) for a in range(len(types))]
    anns = [_annihilators(part, p) for part in parts]
    conditions = []
    for a, a_dim in enumerate(types):
        for b, b_dim in enumerate(types):
            if a_dim + b_dim <= d:
                conditions.append((parts[b], anns[a]))
            else:
                # Both sides with their columns reversed: the annihilators
                # are then in echelon form (_annihilators), so each point
                # of theirs has one id, as _point_ids says.
                conditions.append((anns[b][:, ::-1, ::-1], parts[a][:, :, ::-1]))
    return _opposition_rows(conditions, p)


def _nested_flags(levels, p):
    """All chains u_1 < u_2 < ... with u_j drawn from levels[j]; u < w is
    the subset test on their projective point ids, made only for flags of
    more than one part."""
    flags = [(u,) for u in levels[0]]
    if levels[1:]:
        points = {u: frozenset(r) for lvl in levels
                  for u, r in zip(lvl, _point_ids(_matrices(lvl), p).tolist())}
        for lvl in levels[1:]:
            flags = [f + (w,) for f in flags for w in lvl if points[f[-1]] <= points[w]]
    return flags


def _vertices(geo):
    """Canonical vertices of a geometry, sorted by their bases: the
    enumerators emit each level in that order, and _nested_flags keeps it."""
    p = geo.spec.p
    if geo.form is None:
        return _nested_flags([list(enumerate_subspaces(geo.dim, k, p)) for k in geo.parts], p)
    subs = enumerate_singular_subspaces(geo.form, geo.parts[0])
    return [(s,) for s in subs if not geo.oriflamme or geo.in_family(s)]


def _left_dims(geo):
    """The dimension of the left set of each condition _rows pairs, in its
    order (_flag_rows: b_dim when a_dim + b_dim <= d, else d - b_dim)."""
    if geo.form is None:
        return [b if a + b <= geo.dim else geo.dim - b for a in geo.parts for b in geo.parts]
    return [geo.parts[0]]


def _rows(geo, vertices):
    """Flags: general position. Polar types: x ~ y iff perp(x) ∩ y = 0,
    where P lies in perp(x) iff (B_x G) P^T = 0."""
    if geo.form is None:
        return _flag_rows(vertices, geo.parts, geo.spec.p)
    mats = _matrices([f[0] for f in vertices])
    return _opposition_rows([(mats, mats @ geo.form.polar)], geo.spec.p)


def checked_vertex_count(spec):
    """The closed-form vertex count of a spec (_vertex_count), after build's
    refusals: a type set that is not self-opposite (see Geometry), then a
    count past MAX_VERTICES (N vertices take N^2/8 bytes of adjacency). The
    count is made only below dimension 64: in F_p^d a type-A spec has at
    least p^(d-1) vertices, and one on a polar form of rank n at least
    p^(2n-2), so past that every count is over 10^18."""
    if not geometry(spec).self_opposite:
        raise UsageError("spec %s: type set %s is not self-opposite; Kneser adjacency within "
                         "one type is undefined" % (spec.to_dict(), list(spec.types)))
    count = _vertex_count(spec) if geometry(spec).dim < 64 else None
    if count is None or count > MAX_VERTICES:
        named = count if count is not None and count <= 10 ** 18 else "over 10^18"
        raise UsageError("spec %s has %s vertices, more than the limit of %d"
                         % (spec.to_dict(), named, MAX_VERTICES))
    return count


@lru_cache(maxsize=None)
def _graph(spec):
    """The one graph cache, keyed by the canonical spec. It also builds the
    specs build_graph refuses as not self-opposite, such as type-A flags;
    the enumerated vertices must number _vertex_count(spec). Sigma comes
    with the Weyl group's generators as permutations of it (_apartment)."""
    count = _vertex_count(spec)
    geo = geometry(spec)
    vertices = _vertices(geo)
    if len(vertices) != count:
        raise RuntimeError("enumerated %d vertices for spec %s, expected %d"
                           % (len(vertices), spec.to_dict(), count))
    sigma, generators = _apartment(geo, vertices)
    return KneserGraph(spec, vertices, _rows(geo, vertices), sigma, generators)


def build_graph(spec):
    """The Kneser graph of a spec that checked_vertex_count accepts, refused
    before any enumeration or form is made."""
    checked_vertex_count(spec)
    return _graph(spec)


def _q_integer(i, q):
    """[i]_q = 1 + q + ... + q^(i-1), the number of points of F_q^i."""
    return (q ** i - 1) // (q - 1) if q > 1 else i


def _vertex_count(spec, q=None):
    """The closed-form vertex count of build_graph(spec), over F_q for
    q = spec.p; at q = 1 it counts the frames of the apartment, |W/W_J|.

    Type A multiplies Gaussian binomials along the flag, products of
    q-integers [i]_q = 1 + q + ... + q^(i-1). Polar types count
    [n, k]_q prod_{i=n-k+1..n} (q^(i+e-1) + 1) totally singular k-spaces
    (e = 0 for D_n, 1 for B_n and C_n); one D_n family of maximal ones is
    half of them, which leaves out the factor i = 1, a 2.
    """
    geo, q = geometry(spec), spec.p if q is None else q

    def binomial(d, k):
        num = den = 1
        for j in range(k):
            num *= _q_integer(d - j, q)
            den *= _q_integer(j + 1, q)
        return num // den

    if spec.family == "A":
        count, below = 1, 0
        for a in geo.parts:
            count *= binomial(geo.dim - below, a - below)
            below = a
        return count
    n, k = geo.dim // 2, geo.parts[0]
    e = 0 if spec.family == "D" else 1
    count = binomial(n, k)
    for i in range(n - k + 1 + bool(geo.oriflamme), n + 1):
        count *= q ** (i + e - 1) + 1
    return count


def apartment_graph(spec):
    """Frame-objects-only graph, for coset cross-validation.

    Same geometric adjacency rules as build_graph, evaluated only on the
    coordinate-frame objects, so large buildings never need to be
    enumerated to check their apartments. Refused before any frame is
    made: a dimension d with p^d > 2^63, past the kernel's int64 point ids;
    more than MAX_FRAMES frames (_vertex_count at q = 1); more than
    MAX_POINT_IDS points in the left sets of all the frames.
    """
    geo, p = geometry(spec), spec.p
    if geo.dim > 63 or p ** geo.dim > 1 << 63:
        raise UsageError("spec %s: dimension %d is too large for the kernel's int64 point "
                         "ids, which need p^d <= 2^63" % (spec.to_dict(), geo.dim))
    frames = _vertex_count(spec, 1)
    if frames > MAX_FRAMES:
        raise UsageError("spec %s has %d frames in its apartment, more than the limit of %d"
                         % (spec.to_dict(), frames, MAX_FRAMES))
    points = frames * sum(_q_integer(k, p) for k in _left_dims(geo))
    if points > MAX_POINT_IDS:
        raise UsageError("spec %s has %d point ids in its apartment, more than the limit of %d"
                         % (spec.to_dict(), points, MAX_POINT_IDS))
    vertices = _sorted_vertices(geo.frames())
    return KneserGraph(geo.spec, vertices, _rows(geo, vertices), range(len(vertices)))
