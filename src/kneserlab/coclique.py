"""Coclique machinery: apartment cocliques, extension sets, UCEP.

The UCEP verdict for a graph pair (Gamma, Sigma) is decided per maximal
coclique C of Sigma by a direct adjacency scan of the extension set D
(all vertices nonadjacent to every member of C): the property holds iff
no D contains an edge. On a built graph the Weyl group acts on Sigma by
graph automorphisms, so one C per orbit decides the orbit; the scan
meets the orbits' least members in sorted order and stops at the first D
with an edge. The span criterion through the
Pluecker embedding is sufficient but not necessary, so it lives in a
separate instrument (span_check) and never decides the verdict. It holds
psi, the N x C(d,k) matrix of the vertices' Pluecker coordinates (the
k x k minors of their RREF bases), once per graph, and tests a coclique
with the annihilator of the RREF of psi(C) and one matrix product.

All vertex sets here are bit masks over the graph's vertex indices, and
the witness is the lexicographically least violation, so reports are
bytewise reproducible.
"""

from __future__ import annotations

import itertools
import random
import weakref
from dataclasses import dataclass

import numpy as np

from .algebra import Subspace, _annihilators
from .buildings import SCHEMA, apartment_graph, checked_vertex_count, vertex_lists
from .coxeter import _bits
from .errors import SearchBudgetExceeded, UsageError

# Most maximal cocliques of Sigma an exhaustive decision may meet: each
# transversal of a matching gets a uint32 orbit label, 16 MiB at the
# limit. D5 lines over F_2 has 2^20. No Sigma of more than 44 vertices
# passes _check_count.
MAX_COCLIQUES = 1 << 22

# Largest sample count: every sampled coclique is kept and sorted. 2^16 is
# the most maximal cocliques of Σ on the grid (D4 planes over F_2).
MAX_SAMPLES = 1 << 16


def _sigma_neighbours(graph):
    """Per Sigma position, the mask of the positions of its Sigma-neighbours."""
    sigma, adjacency = graph.sigma, graph.adjacency
    return [sum(1 << b for b, w in enumerate(sigma) if adjacency[v] >> w & 1) for v in sigma]


def maximal_cocliques_sigma(graph):
    """All maximal cocliques of the apartment subgraph, as sorted tuples
    of graph vertex indices, in sorted order. On a perfect matching they
    are its transversals, taken in ascending order (_transversals).
    Otherwise depth first over Sigma, taking each vertex before skipping
    it: a vertex next to a taken one is skipped, a free one only if a
    later neighbour may cover it, and a leaf counts if each skipped vertex
    has a taken neighbour. No maximal coclique is a proper prefix of
    another."""
    _, pairs = _check_sigma(graph)
    if pairs is not None:
        return list(_transversals(graph.sigma, pairs, range(1 << len(pairs))))
    sigma, out = graph.sigma, []
    npos = len(sigma)
    nbrs = _sigma_neighbours(graph)

    def step(i, taken, blocked, skipped):
        while i < npos and blocked >> i & 1:
            i += 1
        if i == npos:
            if not skipped & ~blocked:
                out.append(tuple(sigma[j] for j in _bits(taken)))
            return
        bit = 1 << i
        step(i + 1, taken | bit, blocked | nbrs[i], skipped)
        if nbrs[i] >> (i + 1):
            step(i + 1, taken, blocked, skipped | bit)

    step(0, 0, 0, 0)
    return out


def _transversals(sigma, pairs, xs):
    """The cocliques that the transversals xs of a matching name (see
    _orbit_representatives), each a sorted tuple of vertex indices, in the
    order of xs."""
    m = len(pairs)
    ends = [((sigma[a], sigma[b]), m - 1 - t) for t, (a, b) in enumerate(pairs)]
    return (tuple(sorted([end[x >> shift & 1] for end, shift in ends])) for x in xs)


def _orbit_representatives(pairs, generators):
    """The transversals of a matching that are least in their orbit under
    the group the generators (permutations of Sigma positions) generate,
    ascending. A transversal is an m-bit integer whose bit m-1-t is 0 if
    it takes a_t of pair t, 1 if b_t, so ascending integers are the sorted
    order of the cocliques.

    Each transversal is labelled with the least member of its orbit:
    labels start as the transversals themselves, then take the least of
    their images' labels and their own label's label, until none moves.
    A generator maps pair t to a pair t' and keeps or flips its bit, so
    its images of all transversals are the outer OR of one table per byte."""
    m = len(pairs)
    side = {a: (t, 0) for t, (a, _) in enumerate(pairs)}
    side.update({b: (t, 1) for t, (_, b) in enumerate(pairs)})
    images = []
    for perm in generators:
        image = np.zeros(1, dtype=np.uint32)
        for hi in range(m, 0, -8):
            lo = max(0, hi - 8)
            byte = np.arange(1 << (hi - lo), dtype=np.uint32)
            table = np.zeros_like(byte)
            for q in range(lo, hi):
                a, b = pairs[m - 1 - q]
                t, flip = side[perm[a]]
                if side[perm[b]] != (t, 1 - flip):
                    raise RuntimeError("a Sigma generator does not keep the matching")
                table |= ((byte >> (q - lo) & 1) ^ flip) << (m - 1 - t)
            image = np.bitwise_or.outer(image, table).ravel()
        images.append(image)
    xs = np.arange(1 << m, dtype=np.uint32)
    labels = xs.copy()
    while True:
        before = labels.copy()
        for image in images:
            np.minimum(labels, labels.take(image), out=labels)
        labels = labels.take(labels)
        if np.array_equal(labels, before):
            return np.flatnonzero(labels == xs)


def _check_count(spec, size, matching):
    """The number of maximal cocliques of a Sigma of `size` vertices,
    refused past MAX_COCLIQUES: 2^(size/2) on a perfect matching, else
    Moon and Moser's bound, 3^(size/3) for a multiple of 3."""
    if matching:
        count = 1 << size // 2
    else:
        q, r = divmod(size, 3)
        count = 3 ** q if r == 0 else 2 * 3 ** q if r == 2 else 4 * 3 ** (q - 1) if q else 1
    if count > MAX_COCLIQUES:
        raise UsageError("spec %s: the apartment has %d vertices and %s%d maximal cocliques, "
                         "more than the limit of %d; use sampling mode"
                         % (spec.to_dict(), size, "" if matching else "at most ", count,
                            MAX_COCLIQUES))
    return count


def _check_sigma(graph):
    """_check_count of graph.sigma, and, if Sigma is a perfect matching,
    its pairs (a, b), a < b, of Sigma positions in order of a; else None.
    Sigma is a matching iff each member's row, masked to Sigma, has one
    bit. The pairs are read only once the count passes, so a large Sigma
    is refused at once."""
    sigma, mask = graph.sigma, graph.sigma_mask()
    rows = [graph.adjacency[v] & mask for v in sigma]
    matching = all(row.bit_count() == 1 for row in rows)
    count = _check_count(graph.spec, len(sigma), matching)
    if not matching:
        return count, None
    position = {v: a for a, v in enumerate(sigma)}
    mates = (position[row.bit_length() - 1] for row in rows)
    return count, [(a, b) for a, b in enumerate(mates) if a < b]


def check_apartment(spec):
    """Refuse, before any enumeration, a spec build refuses
    (checked_vertex_count), then one whose apartment has more maximal
    cocliques than MAX_COCLIQUES: Sigma's shape is read from the rows of
    the apartment graph (_check_sigma), made only after the first check."""
    checked_vertex_count(spec)
    _check_sigma(apartment_graph(spec))


def is_coclique(graph, members):
    """Whether no two members, vertex indices below N, are adjacent."""
    n = graph.num_vertices
    for v in members:
        if not 0 <= v < n:
            raise UsageError("vertex index %r is out of range for %d vertices" % (v, n))
    return not any(graph.is_adjacent(a, b) for a, b in itertools.combinations(members, 2))


def extension_set(graph, members):
    """Bit mask of all vertices nonadjacent to every member of C."""
    members = sorted(set(members))
    if not is_coclique(graph, members):
        raise UsageError("extension_set requires a coclique")
    mask = graph.full_mask
    for c in members:
        mask &= ~graph.adjacency[c]
    return mask


def _first_violation(graph, d_mask):
    """Least (x, y) with x < y adjacent inside the mask, or None."""
    for v in _bits(d_mask):
        hits = graph.adjacency[v] & d_mask
        hits >>= v + 1
        if hits:
            return (v, (v + 1) + ((hits & -hits).bit_length() - 1))
    return None


def sample_maximal_cocliques(graph, k, seed):
    """k pseudo-random maximal cocliques of Sigma (greedy, seeded)."""
    rng = random.Random(seed)
    sigma, nbrs = graph.sigma, _sigma_neighbours(graph)
    out = []
    for _ in range(k):
        order = list(range(len(sigma)))
        rng.shuffle(order)
        chosen, blocked = [], 0
        for i in order:
            if not blocked >> i & 1:
                chosen.append(sigma[i])
                blocked |= nbrs[i]
        out.append(tuple(sorted(chosen)))
    return out


@dataclass
class UcepReport:
    spec: dict
    verdict: str
    cocliques_checked: int
    mode: str
    witness: dict = None
    seed: int = None

    def to_dict(self):
        """The fields that are set, and the schema; written with sorted keys."""
        return dict({k: v for k, v in vars(self).items() if v is not None}, schema=SCHEMA)


def _scan(graph, cocliques):
    """The least violation (C, x, y) over cocliques given in sorted order:
    the first C whose extension set holds an edge, with its least edge."""
    for coc in cocliques:
        mask = graph.full_mask
        for c in coc:
            mask &= ~graph.adjacency[c]
        pair = _first_violation(graph, mask)
        if pair is not None:
            return (coc,) + pair
    return None


def check_scan_args(mode, samples, seed):
    """Reject a bad mode or sample count, a sample count or seed that is not
    an int (a bool or float would pass as one), or either outside sampling
    mode, before any work."""
    if mode not in ("all", "sample"):
        raise UsageError("mode must be 'all' or 'sample'")
    if mode == "all" and (samples is not None or seed is not None):
        raise UsageError("exhaustive mode takes no sample count or seed, got samples=%r, seed=%r"
                         % (samples, seed))
    for name, value in (("samples", samples), ("seed", seed)):
        if value is not None and type(value) is not int:
            raise UsageError("%s must be of type int, not %r" % (name, value))
    if mode == "sample" and (samples is None or samples < 1):
        raise UsageError("sampling mode needs a sample count of at least 1, got %r" % (samples,))
    if mode == "sample" and samples > MAX_SAMPLES:
        raise UsageError("sample count %d is more than the limit of %d" % (samples, MAX_SAMPLES))


def check_ucep(graph, mode="all", samples=None, seed=None):
    """Decide the unique coclique extension property for (Gamma, Sigma).

    Exhaustively, on a Sigma that is a perfect matching, one transversal
    per orbit of graph.sigma_generators is scanned: automorphisms that fix
    Sigma map D(C) to D(wC), so the orbit's least member decides it. They
    are scanned in ascending order, so the first that fails is the least
    witness: every coclique before it lies in an orbit whose least member
    came earlier and held. The count is 2^(|Sigma|/2). Any other Sigma has
    its cocliques listed and scanned one by one. A sample with no
    violation proves nothing, so its verdict is no_violation_found."""
    check_scan_args(mode, samples, seed)
    if mode == "all":
        checked, pairs = _check_sigma(graph)
        if pairs is not None:
            cocliques = _transversals(graph.sigma, pairs, _orbit_representatives(
                pairs, graph.sigma_generators).tolist())
        else:
            cocliques = maximal_cocliques_sigma(graph)
            checked = len(cocliques)
    else:
        seed = 0 if seed is None else seed
        cocliques = sorted(sample_maximal_cocliques(graph, samples, seed))
        checked = len(cocliques)
    best = _scan(graph, cocliques)
    spec_dict = graph.spec.to_dict()
    if best is None:
        verdict = "holds" if mode == "all" else "no_violation_found"
        return UcepReport(spec_dict, verdict, checked, mode, None, seed)
    coc, x, y = best
    witness = {
        "coclique": [vertex_lists(graph.vertices[v]) for v in coc],
        "coclique_indices": list(coc),
        "x": vertex_lists(graph.vertices[x]),
        "y": vertex_lists(graph.vertices[y]),
        "x_index": x,
        "y_index": y,
    }
    return UcepReport(spec_dict, "fails", checked, mode, witness, seed)


def max_coclique(graph, budget=None):
    """Exact maximum coclique size and one witness, by branch and bound.

    Maximum clique search on the complement with a greedy-coloring bound;
    vertices are explored in canonical order so the witness is
    reproducible. Raises SearchBudgetExceeded with bounds if the node
    budget runs out.
    """
    n = graph.num_vertices
    full = graph.full_mask
    comp = [(~graph.adjacency[v] & full) & ~(1 << v) for v in range(n)]
    best_size = 0
    best_set = 0
    nodes = 0

    def expand(r_size, r_mask, p):
        nonlocal best_size, best_set, nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise SearchBudgetExceeded(best_size, n)
        if not p:
            if r_size > best_size:
                best_size, best_set = r_size, r_mask
            return
        order = []
        bounds = []
        uncolored = p
        color = 0
        while uncolored:
            color += 1
            avail = uncolored
            while avail:
                v = (avail & -avail).bit_length() - 1
                avail &= ~comp[v] & ~(1 << v)
                uncolored &= ~(1 << v)
                order.append(v)
                bounds.append(color)
        for idx in range(len(order) - 1, -1, -1):
            if r_size + bounds[idx] <= best_size:
                return
            v = order[idx]
            bit = 1 << v
            expand(r_size + 1, r_mask | bit, p & comp[v])
            p &= ~bit

    expand(0, 0, full)
    return best_size, tuple(_bits(best_set))


def _span_supported(graph):
    """Whether the spec names single subspaces of a type-A graph, or
    totally singular lines of a D_n graph."""
    family, parts = graph.spec.family, graph.spec.parts
    return len(parts) == 1 if family == "A" else family == "D" and parts == (2,)


# psi per graph, read-only; graphs hash by identity, and one built by hand
# is not kept alive by its entry.
_PSI = weakref.WeakKeyDictionary()


def _psi(graph):
    """Pluecker coordinates of every vertex, one row each, on the columns
    itertools.combinations(range(d), k): the k x k minors of the stacked
    RREF bases mod p. Each minor is the Leibniz sum over the permutations
    s of range(k) of sign(s) prod_r B[r, cols[s(r)]], added one
    permutation at a time over all vertices and columns."""
    if graph not in _PSI:
        bases = np.array([u.basis for (u,) in graph.vertices], dtype=np.int64)
        _, k, d = bases.shape
        p = graph.spec.p
        cols = np.array(list(itertools.combinations(range(d), k)))
        psi = np.zeros((len(bases), len(cols)), dtype=np.int64)
        for perm in itertools.permutations(range(k)):
            term = 1
            for r, c in enumerate(perm):
                term = term * bases[:, r, cols[:, c]] % p
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            psi += term if inversions % 2 == 0 else p - term
        psi %= p
        psi.setflags(write=False)
        _PSI[graph] = psi
    return _PSI[graph]


def span_check(graph, members):
    """Instrumented span criterion: psi(x) in <psi(C)> for all x in D.

    Only meaningful for graphs whose vertices are single subspaces with a
    Pluecker embedding (type-A single-type graphs and D_{n,2}). A vector
    lies in the row space of psi[C] iff it kills the annihilator of those
    rows, so one product psi[D] ann^T mod p decides every x at once.
    """
    if not _span_supported(graph):
        raise UsageError(
            "span_check supports single-type A graphs and D_{n,2} only"
        )
    members = sorted(set(members))
    d_mask = extension_set(graph, members)
    psi, p = _psi(graph), graph.spec.p
    ann = _annihilators(Subspace.span(psi[members].tolist(), psi.shape[1], p).matrix()[None], p)[0]
    return not (psi[list(_bits(d_mask))] @ ann.T % p).any()
