"""Reference implementations the tests check the engine against.

Each computes something the engine computes, by a second and more direct
rule. The package itself never runs them, so they live with the tests.
"""

import operator

from kneserlab.algebra import enumerate_subspaces, is_totally_singular, nullspace
from kneserlab.buildings import _partial_counts, edge_rows
from kneserlab.coclique import bron_kerbosch_pivot
from kneserlab.errors import SearchBudgetExceeded


def perp(u, form):
    """The perp of U under the polar form of a nondegenerate form."""
    return nullspace(u.matrix() @ form.polar % form.p, form.p)


def gaussian_binomial(d, k, p):
    """Number of k-subspaces of F_p^d."""
    if k < 0 or k > d:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (d - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def expected_num_vertices(spec):
    """Closed-form vertex count of build_graph(spec): the last partial
    product of buildings._partial_counts."""
    *_, count = _partial_counts(spec)
    return count


def singular_subspaces_by_filter(form, k):
    """The totally singular k-subspaces, by filtering all k-subspaces."""
    return [u for u in enumerate_subspaces(form.dim, k, form.p) if is_totally_singular(u, form)]


def check_symmetric_irreflexive(graph):
    """Whether the rows equal the rows rebuilt from their edges above the
    diagonal: then every bit has its mirror and none is on the diagonal."""
    return all(map(operator.eq, graph.adjacency, edge_rows(graph.num_vertices, graph.edges())))


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
