"""Two proof instruments: the Pluecker embedding and matroid union.

The wedge of two subspace images vanishes exactly when the subspaces
meet nontrivially, which turns coclique questions into linear-span
questions (span_check), shown on the lines of PG(3,2), the graph of
BuildingSpec("A", 3, 2, (2,)). Independently, two disjoint subspaces always
induce column matroids with disjoint bases, via the union-rank formula.
"""

import random

from kneserlab import (
    BuildingSpec,
    ColumnMatroid,
    Subspace,
    build_graph,
    have_disjoint_bases,
    plucker,
    span_membership,
    union_rank,
    wedge,
)
from kneserlab.coclique import extension_set, maximal_cocliques_sigma, span_check

u = Subspace.span([[1, 1, 0, 0], [0, 0, 1, 0]], 4, 2)
w = Subspace.coordinate([1, 3], 4, 2)
print("psi(U) =", plucker(u).terms)
print("psi(W) =", plucker(w).terms)
print("psi(U) ^ psi(W) =", wedge(plucker(u), plucker(w)).terms,
      "-> intersect:", (u & w).dim > 0)

graph = build_graph(BuildingSpec("A", 3, 2, (2,)))
coclique = maximal_cocliques_sigma(graph)[0]
print("\napartment coclique:", coclique)
print("span criterion (every extension-set member lies in <psi C>):",
      span_check(graph, coclique))
gens = [plucker(graph.vertices[c][0]) for c in coclique]
mask = extension_set(graph, coclique)
member = next(i for i in range(graph.num_vertices) if mask >> i & 1)
print("sample membership check:",
      span_membership(plucker(graph.vertices[member][0]), gens))

print("\nmatroid union on disjoint subspaces:")
rng = random.Random(5)
a = Subspace.span([[rng.randrange(2) for _ in range(6)] for _ in range(2)], 6, 2)
b = Subspace.span([[1, 0, 0, 0, 0, 1], [0, 0, 0, 1, 0, 0]], 6, 2)
print("dim A =", a.dim, " dim B =", b.dim, " dim A^B =", (a & b).dim)
ma, mb = ColumnMatroid.from_subspace(a), ColumnMatroid.from_subspace(b)
print("union rank of the full ground set:", union_rank(ma, mb, range(6)))
print("disjoint bases:", have_disjoint_bases(ma, mb))
