"""Coclique machinery: apartment cocliques, extension sets, UCEP.

The UCEP verdict for a graph pair (Gamma, Sigma) is decided per maximal
coclique C of Sigma by a direct adjacency scan of the extension set D
(all vertices nonadjacent to every member of C): the property holds iff
no D contains an edge. Every Sigma takes one path: its maximal cocliques
are one array of masks from one walk, each is labelled with the least
member of its orbit under the generators the graph stores (on a built
graph the Weyl group acts on Sigma by graph automorphisms, so one C per
orbit decides the orbit), and the scan meets the orbits' least members in
sorted order and stops at the first D with an edge. The span criterion
through the Pluecker embedding is sufficient but not necessary, so it
lives in a separate instrument (span_check) and never decides the verdict. It reads
the graph's psi (KneserGraph._psi), the matrix of the vertices' Pluecker
coordinates, and tests a coclique with the annihilator of the RREF of
psi(C) and one product.

All vertex sets here are bit masks over the graph's vertex indices, and
the witness is the lexicographically least violation, so reports are
bytewise reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .algebra import Subspace, _annihilators
from .buildings import SCHEMA, _degree, _vertex_count, checked_vertex_count, vertex_lists
from .coxeter import _bits
from .errors import SearchBudgetExceeded, UsageError

# Most maximal cocliques of Sigma an exhaustive decision may meet: each
# gets a uint32 orbit label, 16 MiB at the limit. D5 lines over F_2 has
# 2^20. No Sigma of more than 44 vertices passes _check_count, so a mask of
# Sigma positions fits a uint64, and a uint32 up to 32 vertices.
MAX_COCLIQUES = 1 << 22

# Largest sample count: every sampled coclique is kept and sorted. 2^16 is
# the most maximal cocliques of Σ on the grid (D4 planes over F_2).
MAX_SAMPLES = 1 << 16


def _sigma_neighbours(graph):
    """Per Sigma position, the mask of the positions of its Sigma-neighbours."""
    sigma, adjacency = graph.sigma, graph.adjacency
    return [sum(1 << b for b, w in enumerate(sigma) if adjacency[v] >> w & 1) for v in sigma]


def _sigma_cocliques(graph):
    """All maximal cocliques of Sigma, as masks of Sigma positions with
    position i at bit |Sigma|-1-i, in sorted order (so descending), after
    the refusal of _check_count. Sigma is a matching iff each member's row,
    masked to Sigma, has one bit; the count is read before any other work.

    One walk over the positions in increasing order keeps (taken, blocked)
    per partial coclique: a blocked position passes, a free one is taken,
    and is also skipped just after if a later neighbour may still cover
    it. A state ends once a skipped position's last neighbour has passed
    and left it neither taken nor blocked, so the states left at the end
    are the maximal cocliques. Taking before skipping keeps the sorted
    order, since no maximal coclique is a proper prefix of another."""
    sigma, mask = graph.sigma, graph.sigma_mask()
    m = len(sigma)
    _check_count(graph.spec, m, all((graph.adjacency[v] & mask).bit_count() == 1 for v in sigma))
    dtype = np.uint32 if m <= 32 else np.uint64
    nbrs = _sigma_neighbours(graph)
    taken, blocked = np.zeros(1, dtype), np.zeros(1, dtype)
    for i, nbr in enumerate(nbrs):
        bit, row = 1 << m - 1 - i, sum(1 << m - 1 - j for j in _bits(nbr))
        # The earlier neighbours whose last neighbour is i.
        due = sum(1 << m - 1 - j for j in _bits(nbr) if j < i and nbrs[j].bit_length() == i + 1)
        take = (blocked & bit) == 0
        skip = take & (blocked & row & bit - 1 != row & bit - 1)
        if skip.any():
            counts = skip + np.uint8(1)
            take = take.repeat(counts)
            take[np.cumsum(counts)[skip] - 1] = False
            taken, blocked = taken.repeat(counts), blocked.repeat(counts)
        take = take.astype(dtype)
        taken |= take * dtype(bit)
        blocked |= take * dtype(row)
        if due and not (keep := (taken | blocked) & due == due).all():
            taken, blocked = taken[keep], blocked[keep]
    return taken


def maximal_cocliques_sigma(graph):
    """All maximal cocliques of the apartment subgraph, as sorted tuples
    of graph vertex indices, in sorted order (_sigma_cocliques)."""
    return _decode(graph, _sigma_cocliques(graph))


def _decode(graph, masks):
    """Masks of Sigma positions (position i at bit |Sigma|-1-i) as sorted
    tuples of vertex indices: each the sum, highest byte first, of one
    table entry per byte of the mask, from a table of 256 tuples per byte."""
    sigma, m = graph.sigma, len(graph.sigma)
    out = [()] * len(masks)
    for lo in range(m - 1 - (m - 1) % 8, -1, -8):
        table = [tuple(sigma[m - 1 - b] for b in range(min(lo + 7, m - 1), lo - 1, -1)
                       if x >> b - lo & 1) for x in range(256)]
        out = list(map(tuple.__add__, out, map(table.__getitem__, (masks >> lo & 255).tolist())))
    return out


def _orbit_representatives(masks, generators):
    """The indices of the masks (from _sigma_cocliques, in sorted order)
    that are least in their orbit under the group the generators,
    permutations of Sigma positions, generate.

    Each mask is labelled with the index of the least member of its orbit:
    labels start as the indices themselves, then take the least of their
    images' labels and their own label's label, until none moves. A
    generator's images of all masks are an OR of one table per byte, each
    found by searchsorted in the masks reversed, which ascend."""
    n = len(masks)
    ascending, byte = masks[::-1], np.arange(256, dtype=masks.dtype)
    images = []
    for perm in generators:
        m = len(perm)
        image = np.zeros_like(masks)
        for lo in range(0, m, 8):
            table = np.zeros_like(byte)
            for b in range(lo, min(lo + 8, m)):
                table |= (byte >> b - lo & 1) << m - 1 - perm[m - 1 - b]
            image |= table[masks >> lo & 255]
        at = np.searchsorted(ascending, image)
        if not np.array_equal(ascending.take(at, mode="clip"), image):
            raise RuntimeError("a Sigma generator does not map the maximal cocliques of Sigma "
                               "onto themselves")
        del image
        np.subtract(n - 1, at, out=at)
        images.append(at.astype(np.uint32))
    labels = np.arange(n, dtype=np.uint32)
    while True:
        before = labels.copy()
        for image in images:
            np.minimum(labels, labels.take(image), out=labels)
        labels = labels.take(labels)
        if np.array_equal(labels, before):
            return np.flatnonzero(labels == np.arange(n, dtype=np.uint32))


def _check_count(spec, size, matching):
    """Refuse a Sigma of `size` vertices with more maximal cocliques than
    MAX_COCLIQUES: 2^(size/2) on a perfect matching, else at most Moon and
    Moser's bound, 3^(size/3) for a multiple of 3."""
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


def check_apartment(spec):
    """Refuse, before any enumeration, a spec build refuses
    (checked_vertex_count), then one whose apartment has more maximal
    cocliques than MAX_COCLIQUES, with no coset made: Sigma has
    _vertex_count(spec, 1) vertices, and it is a matching iff each has one
    opposite in it, _degree(spec, 1) == 1."""
    checked_vertex_count(spec)
    _check_count(spec, _vertex_count(spec, 1), _degree(spec, 1) == 1)


def is_coclique(graph, members):
    """Whether no two members, vertex indices below N, are adjacent: each is
    gated once, and no member's row (none holds its own bit) meets their mask."""
    members = [graph._vertex(v) for v in members]
    mask = sum(1 << v for v in set(members))
    return not any(graph.adjacency[v] & mask for v in members)


def _extension(graph, members):
    """D(C) = full & ~(OR of the members' rows), of members that need no gate."""
    union = 0
    for c in members:
        union |= graph.adjacency[c]
    return graph.full_mask & ~union


def extension_set(graph, members):
    """Bit mask of all vertices nonadjacent to every member of C."""
    members = list(members)
    if not is_coclique(graph, members):
        raise UsageError("extension_set requires a coclique")
    return _extension(graph, members)


def _first_violation(graph, d_mask):
    """Least (x, y) with x < y adjacent inside the mask, or None."""
    for v in _bits(d_mask):
        hits = graph.adjacency[v] & d_mask
        hits >>= v + 1
        if hits:
            return (v, (v + 1) + ((hits & -hits).bit_length() - 1))
    return None


def sample_maximal_cocliques(graph, k, seed):
    """k pseudo-random maximal cocliques of Sigma (greedy, seeded), after
    check_scan_args. The seed must be an int: None would seed from the OS,
    and the sample would not repeat."""
    check_scan_args("sample", k, seed)
    if seed is None:
        raise UsageError("sampling needs a seed of type int, not None")
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
        pair = _first_violation(graph, _extension(graph, coc))
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

    Exhaustively, one maximal coclique of Sigma per orbit of
    graph.sigma_generators is scanned: automorphisms that fix Sigma map D(C)
    to D(wC), so the orbit's least member decides it. They are scanned in
    sorted order, so the first that fails is the least witness: every
    coclique before it lies in an orbit whose least member came earlier and
    held. The count is that of all maximal cocliques. A sample with no
    violation proves nothing, so its verdict is no_violation_found."""
    check_scan_args(mode, samples, seed)
    if mode == "all":
        masks = _sigma_cocliques(graph)
        cocliques = _decode(graph, masks[_orbit_representatives(masks, graph.sigma_generators)])
        checked = len(masks)
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
    budget, None or a non-negative int, runs out.
    """
    if budget is not None and (type(budget) is not int or budget < 0):
        raise UsageError("budget must be None or a non-negative int, not %r" % (budget,))
    n = graph.num_vertices
    comp = [_extension(graph, (v,)) & ~(1 << v) for v in range(n)]
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

    expand(0, 0, graph.full_mask)
    return best_size, tuple(_bits(best_set))


# Entries of psi[D] per product in span_check: blocks of 8 MB in float64.
_SPAN_BLOCK = 1 << 20


def span_check(graph, members):
    """Instrumented span criterion: psi(x) in <psi(C)> for all x in D.

    Adjacency is a nonzero value of a bilinear pairing of psi rows (the
    wedge in type A, det(B_x G B_y^T) on a polar type by Cauchy-Binet, on
    a flag the product over parts a of det[F_a; G_(d-a)]), so on every
    spec span implies that D has no edge. A vector lies in the row space
    of psi[C] iff it kills the annihilator of those rows, so the product
    psi[D] ann^T mod p decides every x: in float64 through BLAS, one block
    of _SPAN_BLOCK entries of psi[D] at a time, up to the first nonzero.
    """
    members = list(members)
    d = list(_bits(extension_set(graph, members)))  # the one gate of the members
    psi, p = graph._psi, graph.spec.p
    span = Subspace.span(psi.take(members, 0).tolist(), psi.shape[1], p)
    ann = _annihilators(span.matrix()[None], p)[0].T.astype(np.float64)
    step = max(1, _SPAN_BLOCK // psi.shape[1])
    # Exact: entries are below p <= 7, so a sum is below width * 36, far under 2^53.
    return not any((psi[d[lo:lo + step]].astype(np.float64) @ ann % p).any()
                   for lo in range(0, len(d), step))
