"""Reference implementations the tests check the engine against.

Each computes something the engine computes, by a second and more direct
rule. The package itself never runs them, so they live with the tests.
"""

import functools
import itertools
import math
import operator
from collections import deque

import numpy as np

from kneserlab import buildings
from kneserlab.algebra import (
    Subspace,
    enumerate_subspaces,
    is_totally_singular,
    rref,
)
from kneserlab.coclique import _bits
from kneserlab.coxeter import compose, identity, simple_reflections
from kneserlab.errors import SearchBudgetExceeded, UsageError


def nullspace(m, p):
    """Canonical basis of {x : m x^T = 0} for an integer matrix mod p."""
    rows, d = m.shape
    reduced = rref([list(r) for r in m], d, p)
    pivots = []
    for row in reduced:
        for j, x in enumerate(row):
            if x:
                pivots.append(j)
                break
    free = [j for j in range(d) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * d
        v[f] = 1
        for i, pc in enumerate(pivots):
            v[pc] = (-reduced[i][f]) % p
        basis.append(v)
    if not basis:
        return Subspace.zero(d, p)
    return Subspace.span(basis, d, p)


def perp(u, form):
    """The perp of U under the polar form of a nondegenerate form."""
    return nullspace(u.matrix() @ form.polar % form.p, form.p)


def gaussian_binomial(d, k, p):
    """Number of k-subspaces of F_p^d; at p = 1, the binomial coefficient."""
    if k < 0 or k > d:
        return 0
    if p == 1:
        return math.comb(d, k)
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def expected_num_vertices(spec, q=None):
    """The vertex count of build_graph(spec) over F_q, q = spec.p unless
    given, by the per-family formula; at q = 1 it counts the frames. Type A
    multiplies Gaussian binomials along the flag. A polar type k on r
    hyperbolic pairs counts [r, k]_q prod_{i=r-k+1..r} (q^(i+e-1) + 1)
    totally singular k-spaces, e = 0 on a D form and 1 on B, C and G_2's B_3
    model; one D_r family of maximal ones is half of them, which leaves out
    the factor i = 1, a 2."""
    q = spec.p if q is None else q
    if spec.family == "A":
        count, below = 1, 0
        for a in spec.parts:
            count *= gaussian_binomial(spec.dim - below, a - below, q)
            below = a
        return count
    r, k, e = spec.dim // 2, spec.parts[0], int(spec.family != "D")
    count = gaussian_binomial(r, k, q)
    for i in range(r - k + 1 + bool(spec.oriflamme), r + 1):
        count *= q ** (i + e - 1) + 1
    return count


def theorem_class(spec):
    """Where the abstract's theorem puts a spec: "minuscule", "adjoint"
    (simply laced), or None outside it. Minuscule: A_n of any single type,
    B_n type n, C_n type 1, D_n types 1, n-1 and n; over F_2, where C_n and
    B_n have the same building, C_n type n too. Adjoint: A_n {1, n}, and
    D_n type 2. D_2 and D_3 duplicate type A and are left out."""
    family, n, types = spec.family, spec.rank, spec.types
    minuscule = {"A": [(i,) for i in range(1, n + 1)], "B": [(n,)],
                 "C": [(1,), (n,)] if spec.p == 2 else [(1,)],
                 "D": [(1,), (n - 1,), (n,)] if n >= 4 else []}
    adjoint = {"A": [(1, n)], "D": [(2,)] if n >= 4 else []}
    if types in minuscule.get(family, ()):
        return "minuscule"
    if types in adjoint.get(family, ()):
        return "adjoint"
    return None


def augment_by_parent(d, k, p, form=None):
    """algebra._augment one parent at a time: the k-subspaces of F_p^d,
    totally singular for a form, in canonical order. Each parent basis,
    whose last pivot is l, takes the rows v = e_c + t with c > l free in
    every parent row, c descending and t ascending, that are orthogonal to
    the parent rows and leave at least k-j-1 free columns after c where v
    is 0. The rows e_c + t come from itertools.product."""
    candidates, level = {}, [()]
    for j in range(k):
        nxt, need = [], k - j - 1
        for parent in level:
            last = parent[-1].index(1) if parent else -1
            free = [c for c in range(last + 1, d) if not any(row[c] for row in parent)]
            pairing = form.polar @ np.array(parent).T % p if form is not None and parent else None
            for i in range(len(free) - 1 - need, -1, -1):
                c = free[i]
                if c not in candidates:
                    rows = np.array([(0,) * c + (1,) + t for t in itertools.product(
                        range(p), repeat=d - 1 - c)], dtype=np.int64).reshape(-1, d)
                    if form is not None:
                        rows = rows[(rows @ form.gram * rows).sum(axis=1) % p == 0]
                    candidates[c] = rows
                rows = candidates[c]
                if pairing is not None:
                    rows = rows[~(rows @ pairing % p).any(axis=1)]
                if need:
                    rows = rows[(rows[:, free[i + 1:]] == 0).sum(axis=1) >= need]
                nxt.extend(parent + (v,) for v in map(tuple, rows.tolist()))
        level = nxt
    return [Subspace(d, p, basis) for basis in level]


def nested_flags_by_rank(d, parts, p):
    """buildings._vertices of a type-A spec: the flags of F_p^d with the
    part dimensions in parts, in canonical order. Each level comes from
    enumerate_subspaces, and a part is kept when it contains the one
    before, by the rank test of Subspace.contains."""
    flags = [()]
    for k in parts:
        level = list(enumerate_subspaces(d, k, p))
        flags = [f + (w,) for f in flags for w in level if not f or w.contains(f[-1])]
    return flags


def singular_subspaces_by_filter(form, k):
    """The totally singular k-subspaces, by filtering all k-subspaces."""
    return [u for u in enumerate_subspaces(form.dim, k, form.p) if is_totally_singular(u, form)]


def edge_rows(n, edges):
    """Adjacency rows, as ints, of the graph on n vertices whose edges are
    the (E, 2) array `edges`, each set both ways. The bits are set in one
    block of unpacked rows at a time, then packed."""
    width = -(-n // 8)
    stride = 8 * width
    step = max(1, buildings._BLOCK_ELEMS // (stride or 1))
    i, j = edges.T
    ends = np.sort(np.concatenate([i * stride + j, j * stride + i]))
    cuts = np.searchsorted(ends, np.arange(0, n + step, step) * stride).tolist()
    for lo, a, b in zip(range(0, n, step), cuts, cuts[1:]):
        bits = np.zeros(min(step, n - lo) * stride, dtype=np.uint8)
        bits[ends[a:b] - lo * stride] = 1
        for row in np.packbits(bits, bitorder="little").reshape(-1, width):
            yield int.from_bytes(row.tobytes(), "little")


def edges(graph):
    """The edges i < j of a KneserGraph as one (E, 2) array in row order:
    the rows of its later_neighbours(), concatenated."""
    rows = (np.column_stack((np.full_like(heads, i), heads))
            for i, heads in graph.later_neighbours())
    return np.concatenate([np.empty((0, 2), dtype=np.intp), *rows])


def check_symmetric_irreflexive(graph):
    """Whether the rows equal the rows rebuilt from their edges above the
    diagonal: then every bit has its mirror and none is on the diagonal."""
    return all(map(operator.eq, graph.adjacency, edge_rows(graph.num_vertices, edges(graph))))


def is_coclique_pairwise(graph, members):
    """Whether no two members, vertex indices below N, are adjacent: each
    is gated, then every pair is tested by KneserGraph.is_adjacent, which
    gates both of its indices again."""
    members = [graph._vertex(v) for v in members]
    return not any(graph.is_adjacent(a, b) for a, b in itertools.combinations(members, 2))


def extension_set_pairwise(graph, members):
    """D(C) vertex by vertex, refused unless is_coclique_pairwise: x lies in
    it iff no member's row holds bit x, its own bit included."""
    members = [graph._vertex(v) for v in members]
    if not is_coclique_pairwise(graph, members):
        raise UsageError("extension_set requires a coclique")
    return sum(1 << x for x in range(graph.num_vertices)
               if not any(graph.adjacency[c] >> x & 1 for c in members))


def bron_kerbosch_pivot(adj, candidates):
    """Maximal cliques of the graph given by bitmask rows, via pivoting."""

    def expand(r, p, x):
        if not p and not x:
            yield r
            return
        pivot_pool = p | x
        best_u, best_cover = -1, -1
        for u in _bits(pivot_pool):
            cover = (p & adj[u]).bit_count()
            if cover > best_cover:
                best_u, best_cover = u, cover
        for v in _bits(p & ~adj[best_u]):
            bit = 1 << v
            yield from expand(r | bit, p & adj[v], x & adj[v])
            p &= ~bit
            x |= bit

    yield from expand(0, candidates, 0)


def sigma_cocliques_by_bron_kerbosch(graph):
    """The sorted list of all maximal cocliques of Sigma, each a sorted
    tuple of vertex indices: Bron-Kerbosch over the complement of the
    Sigma-induced subgraph, on local positions 0..|Sigma|-1."""
    sigma = graph.sigma
    comp = [sum(1 << b for b, w in enumerate(sigma) if w != v and not graph.is_adjacent(v, w))
            for v in sigma]
    return sorted(tuple(sigma[i] for i in _bits(clique))
                  for clique in bron_kerbosch_pivot(comp, (1 << len(sigma)) - 1))


def enumerate_maximal_cocliques_full(graph, max_cliques=None):
    """All maximal cocliques of the whole graph (not just Sigma), as bit
    masks; optionally capped, raising SearchBudgetExceeded past the cap."""
    full = graph.full_mask
    comp = [(~graph.adjacency[v] & full) & ~(1 << v) for v in range(graph.num_vertices)]
    out = []
    for clique in bron_kerbosch_pivot(comp, full):
        out.append(clique)
        if max_cliques is not None and len(out) > max_cliques:
            raise SearchBudgetExceeded(0, graph.num_vertices)
    return out


def frame_words(geo):
    """One label word per frame object, made from the geometry's parts
    alone: a set of new labels for each part, never a label beside its
    partner, and for D_n maximal spaces an even number of primed labels,
    as in the Weyl group of D_n. The reference for BuildingSpec.frames, with
    frame_of_word."""
    if geo.family == "A":
        alphabet = range(1, geo.dim + 1)
    else:
        alphabet = [s * a for a in range(1, geo.dim // 2 + 1) for s in (1, -1)]
    words, below = [()], 0
    for k in geo.parts:
        words = [w + c for w in words for c in itertools.combinations(
            [l for l in alphabet if l not in w], k - below)]
        below = k
    return [w for w in words if len({abs(l) for l in w}) == len(w)
            and not (geo.oriflamme and sum(l < 0 for l in w) % 2)]


def frame_of_word(geo, word):
    """Frame object of a label word, such as a Weyl group element in
    one-line notation: the coordinate flag on the word's prefixes. The
    minus family swaps the n-th label for its partner, so that the even
    words of D_n name its odd frames."""
    if geo.oriflamme == "minus":
        k = geo.parts[0]
        word = tuple(word[:k - 1]) + (-word[k - 1],)
    return tuple(geo.coordinate(word[:k]) for k in geo.parts)


def word_generators(geo):
    """The simple reflections acting on frame words: those of S_{n+1} in
    type A; on a polar form of r pairs, those of W(B_r), and on one D_n
    family of maximal spaces those of W(D_r)."""
    if geo.family == "A":
        return simple_reflections("A", geo.dim - 1)
    return simple_reflections("D" if geo.oriflamme else "B", geo.dim // 2)


def apartment_by_words(geo, vertices):
    """Sigma and its generator permutations from the frame words: a
    generator maps the frame of a word to the frame of the word's image."""
    index = {flag: i for i, flag in enumerate(vertices)}
    words = frame_words(geo)
    at = [index[frame_of_word(geo, w)] for w in words]
    sigma = sorted(at)
    position = {v: j for j, v in enumerate(sigma)}
    generators = []
    for gen in word_generators(geo):
        perm = [0] * len(sigma)
        for w, v in zip(words, at):
            perm[position[v]] = position[index[frame_of_word(geo, compose(gen, w))]]
        generators.append(tuple(perm))
    return tuple(sigma), tuple(generators)


def apartment_graph(spec):
    """The frame-objects-only graph: the kernel's rows on sorted(spec.frames),
    after the package's apartment refusals, with every vertex in Sigma. The
    reference the built graph's Sigma is checked against."""
    buildings._check_frames(spec)
    vertices = sorted(spec.frames)
    return buildings.KneserGraph(spec, vertices, buildings._rows(spec, vertices),
                                 range(len(vertices)))


def monomial_generators(geo):
    """One monomial matrix per generator of word_generators, in its
    order, acting on column vectors of F_p^dim. Type A: the
    transposition of coordinates i-1 and i. On a polar form, hyperbolic
    pair i on columns 2i-2 and 2i-1: the swap of pairs i and i+1, then on
    the last pair r e_r <-> e_r' for a quadratic form and e_r -> e_r',
    e_r' -> -e_r for the alternating one; for one D_n family of maximal
    spaces, e_{r-1} <-> e_r' and e_{r-1}' <-> e_r instead."""
    d, p = geo.dim, geo.p

    def matrix(moves):
        """The matrix sending e_c to sign * e_t for each c: (t, sign)."""
        mat = np.eye(d, dtype=np.int64)
        for c, (t, sign) in moves.items():
            mat[:, c] = 0
            mat[t, c] = sign % p
        return mat

    if geo.form is None:
        return [matrix({i - 1: (i, 1), i: (i - 1, 1)}) for i in range(1, d)]
    r = d // 2
    mats = [matrix({2 * i - 2: (2 * i, 1), 2 * i: (2 * i - 2, 1),
                    2 * i - 1: (2 * i + 1, 1), 2 * i + 1: (2 * i - 1, 1)}) for i in range(1, r)]
    a, b = 2 * r - 2, 2 * r - 1
    if geo.oriflamme:
        mats.append(matrix({a - 2: (b, 1), b: (a - 2, 1), a - 1: (a, 1), a: (a - 1, 1)}))
    elif geo.form.kind == "alternating":
        mats.append(matrix({a: (b, 1), b: (a, -1)}))
    else:
        mats.append(matrix({a: (b, 1), b: (a, 1)}))
    return mats


def automorphism_permutations(graph, mats):
    """Per matrix, the permutation of vertex indices it induces: each part
    U of a vertex goes to the span of M u for the rows u of its basis. A
    KeyError if some image is not a vertex."""
    p = graph.spec.p
    index = {tuple(u.basis for u in flag): i for i, flag in enumerate(graph.vertices)}
    return [np.array([index[tuple(rref((np.array(u.basis) @ mat.T % p).tolist(), u.ambient, p)
                                  for u in flag)] for flag in graph.vertices])
            for mat in mats]


def orbit(members, perms):
    """The orbit of a vertex set under the group the vertex permutations
    generate, as a set of sorted tuples."""
    start = tuple(sorted(members))
    seen, todo = {start}, [start]
    while todo:
        members = todo.pop()
        for perm in perms:
            image = tuple(sorted(perm[list(members)].tolist()))
            if image not in seen:
                seen.add(image)
                todo.append(image)
    return seen


@functools.lru_cache(maxsize=None)
def weyl_lengths(family, n):
    """Every element of W(A_n), W(B_n) or W(D_n) with its length in the
    simple reflections, by enumerating the whole group."""
    return _closure(n + 1 if family == "A" else n, simple_reflections(family, n))


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


@functools.lru_cache(maxsize=None)
def longest_element(family, n):
    """The one element of greatest length."""
    length = weyl_lengths(family, n)
    top = max(length.values())
    (w0,) = [w for w, l in length.items() if l == top]
    return w0


def parabolic(family, n, types):
    """The elements of X = <R minus J>."""
    gens = simple_reflections(family, n)
    return list(_closure(len(gens[0]), [s for i, s in enumerate(gens, 1) if i not in types]))


class QuotientByElements:
    """coxeter.ParabolicQuotient over the whole group: the elements of W,
    by length and then one-line notation, each first one of its coset wX
    its representative; the row of wX holds the cosets of w x w0, x in X."""

    def __init__(self, family, n, types):
        length = weyl_lengths(family, n)
        self.subgroup = parabolic(family, n, types)
        reps, self.coset_index = [], {}
        for w in sorted(length, key=lambda w: (length[w], w)):
            if w not in self.coset_index:
                self.coset_index.update(dict.fromkeys(
                    (compose(w, x) for x in self.subgroup), len(reps)))
                reps.append(w)
        self.representatives = tuple(reps)
        opposite = [compose(x, longest_element(family, n)) for x in self.subgroup]
        self.adjacency = tuple(sum({1 << self.coset_index[compose(w, u)] for u in opposite})
                               for w in reps)


def shortest_double_coset_by_elements(family, n, types):
    """The least element of X w0 X, by length and then one-line notation,
    over every element of the double coset: the closure of w0 under
    multiplication by X's generators on either side."""
    length = weyl_lengths(family, n)
    gens = [s for i, s in enumerate(simple_reflections(family, n), 1) if i not in types]
    start = longest_element(family, n)
    seen, todo = {start}, [start]
    while todo:
        w = todo.pop()
        for v in [compose(s, w) for s in gens] + [compose(w, s) for s in gens]:
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return min(seen, key=lambda w: (length[w], w))
