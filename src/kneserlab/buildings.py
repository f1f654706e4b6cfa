"""Concrete Kneser graphs of classical buildings over F_p.

Vertices are canonical geometric objects (RREF subspaces, or nested
flags of them), adjacency is stored as one bit-vector row per vertex,
and the apartment subgraph is the set of coordinate-frame objects.

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
from functools import lru_cache

import numpy as np

from .algebra import (
    Subspace,
    check_prime,
    enumerate_singular_subspaces,
    enumerate_subspaces,
    Form,
    gaussian_binomial,
    intersect,
    nullspace,
)
from .errors import UsageError

FAMILIES = ("A", "B", "C", "D", "G")

# Largest graph build_graph makes: 2^15 vertices take 128 MiB of adjacency.
MAX_VERTICES = 1 << 15


@dataclass(frozen=True)
class BuildingSpec:
    family: str
    rank: int
    p: int
    types: tuple
    selector: str = None

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
        if self.selector not in (None, "plus", "minus"):
            raise UsageError("selector must be 'plus' or 'minus'")

    def to_dict(self):
        d = {
            "family": self.family,
            "rank": self.rank,
            "p": self.p,
            "types": list(self.types),
        }
        if self.selector:
            d["selector"] = self.selector
        return d


class PolarModel:
    """Fixed standard form plus hyperbolic-pair frame bookkeeping."""

    def __init__(self, family, n, p):
        check_prime(p)
        if family not in ("B", "C", "D"):
            raise UsageError("polar family must be B, C or D")
        if n < 2:
            raise UsageError("polar rank must be at least 2")
        self.family = family
        self.n = n
        self.p = p
        if family == "B":
            if p % 2 == 0:
                raise UsageError("B model requires odd characteristic")
            d = 2 * n + 1
            gram = [[0] * d for _ in range(d)]
            for i in range(n):
                gram[2 * i][2 * i + 1] = 1
            gram[d - 1][d - 1] = p - 1
            self.form = Form("quadratic", gram, p)
        elif family == "C":
            d = 2 * n
            gram = [[0] * d for _ in range(d)]
            for i in range(n):
                gram[2 * i][2 * i + 1] = 1
                gram[2 * i + 1][2 * i] = p - 1
            self.form = Form("alternating", gram, p)
        else:
            d = 2 * n
            gram = [[0] * d for _ in range(d)]
            for i in range(n):
                gram[2 * i][2 * i + 1] = 1
            self.form = Form("quadratic", gram, p)
        self.dim = d

    def col(self, label):
        """Column of frame label l (positive) or its partner -l (primed)."""
        if label == 0 or abs(label) > self.n:
            raise UsageError("frame label out of range")
        return 2 * (label - 1) if label > 0 else 2 * (-label - 1) + 1

    def frame_subspace(self, labels):
        return Subspace.coordinate([self.col(l) for l in labels], self.dim, self.p)

    def frame_label_sets(self, k):
        """All totally singular frame label sets of size k."""
        out = []
        for support in itertools.combinations(range(1, self.n + 1), k):
            for signs in itertools.product((1, -1), repeat=k):
                out.append(tuple(s * a for a, s in zip(support, signs)))
        return out

    def reference_maximal(self):
        return self.frame_subspace(tuple(range(1, self.n + 1)))

    def in_plus_family(self, sub):
        """D-family membership: dim(A ∩ A0) congruent to n mod 2."""
        return intersect(sub, self.reference_maximal()).dim % 2 == self.n % 2


@lru_cache(maxsize=None)
def polar_model(family, n, p):
    return PolarModel(family, n, p)


class KneserGraph:
    """Vertex list + bit-vector adjacency + marked apartment subset."""

    def __init__(self, spec, vertices, adjacency, sigma):
        self.spec = spec
        self.vertices = vertices
        self.adjacency = adjacency
        self.sigma = sorted(sigma)

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def full_mask(self):
        return (1 << len(self.vertices)) - 1

    def is_adjacent(self, i, j):
        return i != j and bool(self.adjacency[i] >> j & 1)

    def degree(self, i):
        return bin(self.adjacency[i]).count("1")

    def num_edges(self):
        return sum(self.degree(i) for i in range(self.num_vertices)) // 2

    def edges(self):
        for i, row in enumerate(self.adjacency):
            bits = row >> (i + 1) << (i + 1)
            while bits:
                j = (bits & -bits).bit_length() - 1
                yield (i, j)
                bits &= bits - 1

    def sigma_mask(self):
        m = 0
        for i in self.sigma:
            m |= 1 << i
        return m

    def check_symmetric_irreflexive(self):
        for i, row in enumerate(self.adjacency):
            if row >> i & 1:
                return False
        for i, j in self.edges():
            if not self.adjacency[j] >> i & 1:
                return False
        return True


def _sorted_vertices(flags):
    return sorted(flags, key=lambda flag: tuple(s.key for s in flag))


def _sigma_indices(vertices, frame_flags):
    index = {flag: i for i, flag in enumerate(vertices)}
    out = []
    for flag in frame_flags:
        if flag not in index:
            raise RuntimeError("frame object is not a vertex: %r" % (flag,))
        out.append(index[flag])
    return sorted(out)


# Numpy elements in one column block of the kernel's pairing (512 KiB of int64).
_BLOCK_ELEMS = 1 << 16


def _point_ids(subspaces):
    """Projective points of each subspace, as an (N, (p^k-1)/(p-1)) array.

    A point's id is its normalised vector (first nonzero entry 1) read as
    a base-p integer. The subspaces share one dimension k. Multiplying an
    RREF basis by the normalised coefficient vectors of F_p^k gives
    normalised vectors directly: the first nonzero entry of c·B sits in
    the pivot column of the leading row of c, where it equals 1.
    """
    first = subspaces[0]
    k, d, p = first.dim, first.ambient, first.p
    coeffs = _matrices(enumerate_subspaces(k, 1, p))[:, 0]
    points = np.einsum("ck,nkd->ncd", coeffs, _matrices(subspaces)) % p
    return points @ p ** np.arange(d - 1, -1, -1)


def _matrices(subspaces):
    return np.array([s.basis for s in subspaces], dtype=np.int64)


def _opposition_rows(conditions, p):
    """Adjacency rows from "no shared point" conditions.

    Each condition is (left, right), one entry per vertex: y's left set is
    the points of the subspace left[y], x's right set the points P with
    right[x] P^T = 0. With masks[P] the x whose right set holds P,
    row[y] = full & ~(bit(y) | OR of masks[P] over y's left set, in every
    condition). The pairing runs in column blocks of _BLOCK_ELEMS entries.
    """
    n = len(conditions[0][0])
    sides = []
    for left, right in conditions:
        ids = _point_ids(left)
        cols = np.unique(ids)
        vecs = cols[:, None] // p ** np.arange(right.shape[2] - 1, -1, -1) % p
        step = max(1, _BLOCK_ELEMS // (n * right.shape[1]))
        masks = {}
        for lo in range(0, len(cols), step):
            inside = ~(right @ vecs[lo:lo + step].T % p).any(axis=1)
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
    ann = {u: nullspace(u.matrix(), p) for u in set(itertools.chain(*flags))}
    parts = [[f[a] for f in flags] for a in range(len(types))]
    anns = [[ann[u] for u in part] for part in parts]
    conditions = []
    for a, a_dim in enumerate(types):
        for b, b_dim in enumerate(types):
            if a_dim + b_dim <= d:
                conditions.append((parts[b], _matrices(anns[a])))
            else:
                conditions.append((anns[b], _matrices(parts[a])))
    return _opposition_rows(conditions, p)


def _polar_rows(subspaces, gram, p):
    """x ~ y iff perp(x) ∩ y = 0: P lies in perp(x) iff (B_x G) P^T = 0."""
    paired = _matrices(subspaces) @ np.array(gram, dtype=np.int64)
    return _opposition_rows([(subspaces, paired)], p)


def flags_adjacent(fx, fy, d, p):
    """General-position test for a single pair of same-type flags."""
    from .algebra import rank_mod_p

    for ux in fx:
        for wy in fy:
            stacked = list(ux.basis) + list(wy.basis)
            if rank_mod_p(stacked, d, p) != min(ux.dim + wy.dim, d):
                return False
    return True


def is_self_opposite_type_set(n, types):
    return {n + 1 - j for j in types} == set(types)


def _type_a_frames(types, d, p):
    """Coordinate flags of type J: nested coordinate subspaces."""
    frames = []
    for chain in itertools.product(
        *[itertools.combinations(range(d), a) for a in types]
    ):
        if all(set(chain[t]) < set(chain[t + 1]) for t in range(len(chain) - 1)):
            frames.append(tuple(Subspace.coordinate(c, d, p) for c in chain))
    return frames


def _type_a_graph(spec):
    types, p, d = spec.types, spec.p, spec.rank + 1
    levels = [list(enumerate_subspaces(d, a, p)) for a in types]
    vertices = _sorted_vertices(_nested_flags(levels))
    adjacency = _flag_rows(vertices, types, p)
    sigma = _sigma_indices(vertices, _type_a_frames(types, d, p))
    return KneserGraph(spec, vertices, adjacency, sigma)


@lru_cache(maxsize=None)
def build_projective_kneser(n, i, p):
    """Kneser graph of i-subspaces of F_p^{n+1}, adjacent when opposite.

    Opposition is disjointness for 2i <= n+1, and disjointness of the
    annihilators for 2i > n+1.
    """
    return _type_a_graph(BuildingSpec("A", n, p, (i,)))


def _nested_flags(levels):
    """All chains u_1 < u_2 < ... with u_j drawn from levels[j]; u < w is
    the subset test on their projective point ids."""
    points = {u: frozenset(r) for lvl in levels for u, r in zip(lvl, _point_ids(lvl).tolist())}
    flags = [(u,) for u in levels[0]]
    for lvl in levels[1:]:
        flags = [f + (w,) for f in flags for w in lvl if points[f[-1]] <= points[w]]
    return flags


@lru_cache(maxsize=None)
def build_flag_kneser_A(n, types, p, allow_non_self_opposite=False):
    """Kneser graph on type-J flags of PG(n, p), J self-opposite.

    Adjacency is general position: dim(F_a ∩ G_b) = max(0, a+b-(n+1))
    for all a, b in J. For J = {1, n} this is exactly "P not in I and
    Q not in H". Non-self-opposite J is rejected unless explicitly
    allowed (used for the type-varying transfer checks).
    """
    spec = BuildingSpec("A", n, p, types)
    if not allow_non_self_opposite and not is_self_opposite_type_set(n, spec.types):
        raise UsageError(
            "type set %s is not self-opposite; Kneser adjacency within one "
            "type is undefined" % (spec.types,)
        )
    return _type_a_graph(spec)


@lru_cache(maxsize=None)
def build_polar_kneser(family, n, k, p, selector="plus"):
    """Kneser graph on totally singular k-subspaces of a polar space.

    Adjacency is x ~ y iff perp(x) ∩ y = 0. For family D with k = n the
    vertex set is one oriflamme family, selected by the parity of the
    intersection dimension with the reference space <e_1, ..., e_n>.
    For family D with k = n-1 the objects carry type {n-1, n}.
    """
    model = polar_model(family, n, p)
    if k < 1 or k > n:
        raise UsageError("need 1 <= k <= Witt index %d" % n)
    if family == "D" and k == n - 1:
        types = (n - 1, n)
        spec = BuildingSpec(family, n, p, types)
    elif family == "D" and k == n:
        spec = BuildingSpec(family, n, p, (n if selector == "plus" else n - 1,), selector)
    else:
        spec = BuildingSpec(family, n, p, (k,))
    subs = enumerate_singular_subspaces(model.form, k)
    label_sets = model.frame_label_sets(k)
    if family == "D" and k == n:
        want_plus = selector == "plus"
        subs = [s for s in subs if model.in_plus_family(s) == want_plus]
        label_sets = [
            ls for ls in label_sets
            if (sum(1 for l in ls if l < 0) % 2 == 0) == (want_plus)
        ]
    vertices = _sorted_vertices([(s,) for s in subs])
    adjacency = _polar_rows([f[0] for f in vertices], model.form.polar_gram(), p)
    frames = [(model.frame_subspace(ls),) for ls in label_sets]
    sigma = _sigma_indices(vertices, frames)
    return KneserGraph(spec, vertices, adjacency, sigma)


def build_d4_planes(p):
    """Totally singular planes of the hyperbolic D_4 space, type {3,4}."""
    return build_polar_kneser("D", 4, 3, p)


def g2_points(p):
    """Points of the G_2 hexagon, realized as the B_3 point graph."""
    if p % 2 == 0:
        raise UsageError("the B_3 model of G_2 points requires odd characteristic")
    base = build_polar_kneser("B", 3, 1, p)
    spec = BuildingSpec("G", 2, p, (1,))
    return KneserGraph(spec, base.vertices, base.adjacency, base.sigma)


def expected_sigma_size(spec):
    """Apartment size formulas, used as construction invariants."""
    n = spec.rank
    fam = spec.family
    types = spec.types
    if fam == "A":
        if len(types) == 1:
            import math

            return math.comb(n + 1, types[0])
        if types == (1, n):
            return n * (n + 1)
        return None
    if fam == "G":
        return 6
    k = types[0]
    if fam == "D" and len(types) == 2:
        import math

        return math.comb(n, n - 1) * 2 ** (n - 1)
    if fam == "D" and k in (n, n - 1) and spec.selector:
        return 2 ** (n - 1)
    import math

    return math.comb(n, k) * 2 ** k


def expected_num_vertices(spec):
    """Closed-form vertex count of build_graph(spec): Gaussian binomials
    along the flag for type A, [n, k]_q prod_{i=n-k+1..n} (q^(i+e-1) + 1)
    totally singular k-spaces for polar types (e = 0 for D_n, 1 for B_n
    and C_n), halved for one D_n family of maximal ones."""
    n, q, types = spec.rank, spec.p, spec.types
    if spec.family == "A":
        count, below = 1, 0
        for a in types:
            count *= gaussian_binomial(n + 1 - below, a - below, q)
            below = a
        return count
    if spec.family == "G":
        n, types = 3, (1,)
    e = 0 if spec.family == "D" else 1
    k, families = types[0], 1
    if spec.family == "D" and len(types) == 2:
        k = n - 1
    elif spec.family == "D" and k >= n - 1:
        k, families = n, 2
    count = gaussian_binomial(n, k, q)
    for i in range(n - k + 1, n + 1):
        count *= q ** (i + e - 1) + 1
    return count // families


def build_graph(spec, selector="plus"):
    """Dispatch a BuildingSpec to the right builder.

    Specs with more than MAX_VERTICES vertices are refused before any
    enumeration: N vertices take N^2/8 bytes of adjacency.
    """
    count = expected_num_vertices(spec)
    if count > MAX_VERTICES:
        raise UsageError("spec %s has %d vertices, more than the limit of %d"
                         % (spec.to_dict(), count, MAX_VERTICES))
    fam = spec.family
    if fam == "A":
        if len(spec.types) == 1:
            return build_projective_kneser(spec.rank, spec.types[0], spec.p)
        return build_flag_kneser_A(spec.rank, spec.types, spec.p)
    if fam == "G":
        return g2_points(spec.p)
    if len(spec.types) == 2:
        if fam != "D" or set(spec.types) != {spec.rank - 1, spec.rank}:
            raise UsageError("flag types are only supported for D_{n,{n-1,n}}")
        return build_polar_kneser("D", spec.rank, spec.rank - 1, spec.p)
    k = spec.types[0]
    sel = spec.selector or selector
    if fam == "D" and k == spec.rank - 1:
        # Oriflamme type n-1 is the minus family of maximal totally
        # singular subspaces; (n-1)-dimensional ones carry type {n-1, n}.
        return build_polar_kneser("D", spec.rank, spec.rank, spec.p, "minus")
    if fam == "D" and k == spec.rank:
        sel = "plus" if spec.selector is None else spec.selector
    return build_polar_kneser(fam, spec.rank, k, spec.p, sel)


def apartment_graph(family, n, types, p, selector="plus"):
    """Frame-objects-only graph, for coset cross-validation.

    Same geometric adjacency rules as the full builders, evaluated only on
    the coordinate-frame objects, so large buildings never need to be
    enumerated to check their apartments.
    """
    types = tuple(sorted(set(types)))
    if family == "A":
        vertices = _sorted_vertices(_type_a_frames(types, n + 1, p))
        adjacency = _flag_rows(vertices, types, p)
        spec = BuildingSpec("A", n, p, types)
        return KneserGraph(spec, vertices, adjacency, list(range(len(vertices))))
    if family == "G":
        family, n, types = "B", 3, (1,)
    model = polar_model(family, n, p)
    if len(types) == 2:
        if family != "D" or set(types) != {n - 1, n}:
            raise UsageError("unsupported polar flag type set %s" % (types,))
        k = n - 1
        label_sets = model.frame_label_sets(k)
    else:
        k = types[0]
        if family == "D" and k >= n - 1:
            # Oriflamme types n-1 and n are the two families of maximal
            # totally singular subspaces, split by primed-label parity.
            want = 0 if k == n else 1
            label_sets = [
                ls
                for ls in model.frame_label_sets(n)
                if sum(1 for l in ls if l < 0) % 2 == want
            ]
        else:
            label_sets = model.frame_label_sets(k)
    frames = [(model.frame_subspace(ls),) for ls in label_sets]
    vertices = _sorted_vertices(frames)
    adjacency = _polar_rows([f[0] for f in vertices], model.form.polar_gram(), p)
    spec = BuildingSpec(family, n, p, types)
    return KneserGraph(spec, vertices, adjacency, list(range(len(vertices))))
