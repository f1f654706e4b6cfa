"""Coset-level vs geometric apartment cross-validation.

The abstract Kneser graph on parabolic cosets of the Weyl group must be
isomorphic to the subgraph the geometric model induces on its coordinate
frame, under the canonical labeling that sends a coset representative w
to the frame object spanned by the images of the first basis directions.
This is checked by the explicit bijection, never by isomorphism search,
and is the anti-drift guard for the adopted general-position adjacency.
"""

from __future__ import annotations

from .buildings import apartment_graph, geometry
from .coxeter import ParabolicQuotient, weyl_group
from .errors import UsageError

WEYL_FAMILY = {"A": "A", "B": "B", "C": "B", "D": "D"}


def cross_validate(spec):
    """Compare coset and geometric apartment graphs; returns a report.

    A coset representative w, read as a label word, names the frame object
    geometry(spec).frame(w). The report's "ok" field is False iff the
    vertex bijection breaks or some pair differs in adjacency, in which
    case "mismatch" holds the first offending pair.
    """
    family, n, types = spec.family, spec.rank, spec.types
    if family not in WEYL_FAMILY:
        raise UsageError("cross-validation supports families A, B, C, D")
    geo = geometry(spec)
    if geo.oriflamme and not geo.self_opposite:
        raise UsageError("spec %s: one family of maximal spaces of D_%d, n odd, has no "
                         "opposite pairs, so the coset model does not describe it"
                         % (spec.to_dict(), n))
    group = weyl_group(WEYL_FAMILY[family], n)
    quotient = ParabolicQuotient(group, types)
    geometric = apartment_graph(spec)
    if quotient.num_vertices != geometric.num_vertices:
        return {
            "ok": False,
            "mismatch": {
                "kind": "vertex_count",
                "coset": quotient.num_vertices,
                "geometric": geometric.num_vertices,
            },
        }
    index_of = {flag: i for i, flag in enumerate(geometric.vertices)}
    mapping = []
    for w in quotient.representatives:
        flag = geo.frame(w)
        if flag not in index_of:
            return {
                "ok": False,
                "mismatch": {"kind": "unmapped_coset", "representative": list(w)},
            }
        mapping.append(index_of[flag])
    if len(set(mapping)) != len(mapping):
        return {"ok": False, "mismatch": {"kind": "labeling_not_injective"}}
    nverts = quotient.num_vertices
    for a in range(nverts):
        for b in range(a + 1, nverts):
            left = quotient.is_adjacent(a, b)
            right = geometric.is_adjacent(mapping[a], mapping[b])
            if left != right:
                return {
                    "ok": False,
                    "mismatch": {
                        "kind": "adjacency",
                        "cosets": [a, b],
                        "coset_adjacent": left,
                        "geometric_adjacent": right,
                    },
                }
    return {
        "ok": True,
        "family": family,
        "rank": n,
        "types": list(types),
        "p": spec.p,
        "vertices": nverts,
        "edges": geometric.num_edges(),
    }
