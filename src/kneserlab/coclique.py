"""Coclique machinery: apartment cocliques, extension sets, UCEP.

The UCEP verdict for a graph pair (Gamma, Sigma) is decided per maximal
coclique C of Sigma by a direct adjacency scan of the extension set D
(all vertices nonadjacent to every member of C): the property holds iff
no D contains an edge. One ordered walk over Sigma meets each C with its
D and stops at the first D with an edge. The span criterion through the
Pluecker embedding is sufficient but not necessary, so it lives in a
separate instrument (span_check) and never decides the verdict. It holds
psi, the N x C(d,k) matrix of the vertices' Pluecker coordinates (the
k x k minors of their RREF bases), once per graph, and tests a coclique
with one nullspace and one matrix product.

All vertex sets here are bit masks over the graph's vertex indices, and
the witness is the lexicographically least violation, so reports are
bytewise reproducible.
"""

from __future__ import annotations

import itertools
import random
import time
import weakref
from dataclasses import dataclass

import numpy as np

from .algebra import nullspace
from .buildings import SCHEMA, geometry, vertex_lists
from .errors import SearchBudgetExceeded, UsageError

MAX_SIGMA = 64

# Largest sample count: every sampled coclique is kept and sorted. 2^16 is
# the most maximal cocliques of Σ on the grid (D4 planes over F_2).
MAX_SAMPLES = 1 << 16


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask &= mask - 1


def _walk_sigma(graph, leaf):
    """Calls leaf(taken, d_mask) at each maximal coclique C of Sigma, in
    sorted order, until one returns a result; returns (leaves visited, that
    result or None). taken masks C's positions in graph.sigma, d_mask is
    D(C). Depth first, taking each vertex before skipping it: a vertex next
    to a taken one is skipped, a free one only if a later neighbour may
    cover it, and a leaf counts if each skipped vertex has a taken
    neighbour. No maximal coclique is a proper prefix of another."""
    sigma, adjacency = graph.sigma, graph.adjacency
    npos, leaves = len(sigma), 0
    if npos > MAX_SIGMA:
        raise UsageError("apartment has %d > %d vertices; use sampling mode" % (npos, MAX_SIGMA))
    nbrs = [sum(1 << b for b, w in enumerate(sigma) if adjacency[v] >> w & 1) for v in sigma]
    comp = [~adjacency[v] for v in sigma]

    def step(i, taken, blocked, skipped, d_mask):
        nonlocal leaves
        while i < npos and blocked >> i & 1:
            i += 1
        if i == npos:
            if skipped & ~blocked:
                return None
            leaves += 1
            return leaf(taken, d_mask)
        bit = 1 << i
        found = step(i + 1, taken | bit, blocked | nbrs[i], skipped, d_mask & comp[i])
        if found is None and nbrs[i] >> (i + 1):
            found = step(i + 1, taken, blocked, skipped | bit, d_mask)
        return found

    found = step(0, 0, 0, 0, graph.full_mask)
    return leaves, found


def maximal_cocliques_sigma(graph):
    """All maximal cocliques of the apartment subgraph, as sorted tuples
    of graph vertex indices, in sorted order."""
    sigma, out = graph.sigma, []
    _walk_sigma(graph, lambda taken, _: out.append(tuple(sigma[i] for i in _bits(taken))))
    return out


def is_coclique(graph, members):
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
    out = []
    sigma = list(graph.sigma)
    for _ in range(k):
        order = sigma[:]
        rng.shuffle(order)
        chosen = []
        for v in order:
            if all(not graph.is_adjacent(v, c) for c in chosen):
                chosen.append(v)
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
    elapsed_ms: float = 0.0

    def to_dict(self):
        d = {
            "schema": SCHEMA,
            "spec": self.spec,
            "verdict": self.verdict,
            "cocliques_checked": self.cocliques_checked,
            "mode": self.mode,
            "elapsed_ms": self.elapsed_ms,
        }
        if self.witness is not None:
            d["witness"] = self.witness
        if self.seed is not None:
            d["seed"] = self.seed
        return d


def _scan_cocliques(graph, cocliques):
    """Returns (checked, least violation) over cocliques given in sorted
    order: the first C whose extension set holds an edge is the least,
    with its least edge (x, y)."""
    for coc in cocliques:
        mask = graph.full_mask
        for c in coc:
            mask &= ~graph.adjacency[c]
        pair = _first_violation(graph, mask)
        if pair is not None:
            return len(cocliques), (coc,) + pair
    return len(cocliques), None


def check_scan_args(mode, samples, seed):
    """Reject a bad mode or sample count, or a sample count or seed outside
    sampling mode, before any work."""
    if mode not in ("all", "sample"):
        raise UsageError("mode must be 'all' or 'sample'")
    if mode == "all" and (samples is not None or seed is not None):
        raise UsageError("exhaustive mode takes no sample count or seed, got samples=%r, seed=%r"
                         % (samples, seed))
    if mode == "sample" and (samples is None or samples < 1):
        raise UsageError("sampling mode needs a sample count of at least 1, got %r" % (samples,))
    if mode == "sample" and samples > MAX_SAMPLES:
        raise UsageError("sample count %d is more than the limit of %d" % (samples, MAX_SAMPLES))


def check_ucep(graph, mode="all", samples=None, seed=None):
    """Decide the unique coclique extension property for (Gamma, Sigma).
    Exhaustively, the walk stops at the least violation; the count is then
    2^(|Sigma|/2) on a perfect matching, else a second walk's, unscanned."""
    check_scan_args(mode, samples, seed)
    start = time.perf_counter()
    if mode == "all":
        sigma = graph.sigma

        def scan(taken, d_mask):
            pair = _first_violation(graph, d_mask)
            return None if pair is None else (tuple(sigma[i] for i in _bits(taken)),) + pair

        checked, best = _walk_sigma(graph, scan)
        if best is not None:
            in_sigma = graph.sigma_mask()
            matching = all((graph.adjacency[v] & in_sigma).bit_count() == 1 for v in sigma)
            checked = 1 << len(sigma) // 2 if matching else _walk_sigma(graph, lambda *_: None)[0]
    else:
        seed = 0 if seed is None else seed
        cocliques = sorted(sample_maximal_cocliques(graph, samples, seed))
        checked, best = _scan_cocliques(graph, cocliques)
    elapsed = (time.perf_counter() - start) * 1000.0
    spec_dict = graph.spec.to_dict()
    if best is None:
        return UcepReport(spec_dict, "holds", checked, mode, None, seed, elapsed)
    coc, x, y = best
    witness = {
        "coclique": [vertex_lists(graph.vertices[v]) for v in coc],
        "coclique_indices": list(coc),
        "x": vertex_lists(graph.vertices[x]),
        "y": vertex_lists(graph.vertices[y]),
        "x_index": x,
        "y_index": y,
    }
    return UcepReport(spec_dict, "fails", checked, mode, witness, seed, elapsed)


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
    """Whether geometry(spec) names single subspaces of a type-A graph, or
    totally singular lines of a D_n graph."""
    spec, parts = graph.spec, geometry(graph.spec).parts
    return len(parts) == 1 if spec.family == "A" else spec.family == "D" and parts == (2,)


# psi per graph; graphs hash by identity, and one built by hand is not
# kept alive by its entry.
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
    ann = nullspace(psi[members], p).matrix()
    return not (psi[list(_bits(d_mask))] @ ann.T % p).any()
