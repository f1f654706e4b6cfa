"""Kneser graphs on subspaces of a projective space.

Builds the graph that BuildingSpec("A", 4, 2, (2,)) names: type 2 of
A_4 over F_2, the 2-subspaces of F_2^5 (lines of PG(4,2)), adjacent
when disjoint. Looks at its apartment -- the coordinate lines, which
form a Petersen graph -- and decides the unique coclique extension
property exhaustively over all maximal apartment cocliques.
"""

from collections import Counter

from kneserlab import BuildingSpec, build_graph, check_ucep, max_coclique
from kneserlab.coclique import maximal_cocliques_sigma

graph = build_graph(BuildingSpec("A", 4, 2, (2,)))
print("vertices (2-subspaces of F_2^5):", graph.num_vertices)
print("edges:", graph.num_edges())
print("apartment size:", len(graph.sigma))

mask = graph.sigma_mask()
degrees = Counter(
    bin(graph.adjacency[v] & mask).count("1") for v in graph.sigma
)
print("apartment degrees (Petersen is 3-regular):", dict(degrees))

cocliques = maximal_cocliques_sigma(graph)
profile = Counter(len(c) for c in cocliques)
print("maximal apartment cocliques:", len(cocliques), "sizes:", dict(profile))

report = check_ucep(graph, mode="all")
print("unique coclique extension property:", report.verdict)

size, witness = max_coclique(graph)
print("maximum coclique in the whole graph:", size)
print("first witness line:", graph.vertices[witness[0]][0].basis)
