"""Coset-level vs geometric apartment cross-validation.

The abstract Kneser graph on the parabolic cosets of the spec's Weyl
group (BuildingSpec.quotient, G_2 through its B_3 model) must be
isomorphic to the subgraph the geometric model induces on its coordinate
frame, under the canonical labeling that sends a coset, a flag of label
sets, to its frame object (BuildingSpec.frames). This is checked by the
explicit bijection, never by isomorphism search, and is the anti-drift
guard for the adopted general-position adjacency.
"""

from __future__ import annotations

from .buildings import apartment_graph
from .coxeter import _bits
from .errors import UsageError


def cross_validate(spec):
    """Compare coset and geometric apartment graphs; returns a report.

    Coset i of spec.quotient names the frame object spec.frames[i]. The
    report's "ok" field is False iff two cosets name one frame object or
    some pair differs in adjacency, in which case "mismatch" holds the
    first offending pair.

    apartment_graph's refusals come before any coset is made.
    """
    if spec.oriflamme and not spec.self_opposite:
        raise UsageError("spec %s: one family of maximal spaces of D_%d, n odd, has no "
                         "opposite pairs, so the coset model does not describe it"
                         % (spec.to_dict(), spec.rank))
    geometric = apartment_graph(spec)
    cosets = spec.quotient
    index_of = {flag: i for i, flag in enumerate(geometric.vertices)}
    mapping = [index_of[flag] for flag in spec.frames]
    if len(set(mapping)) != len(mapping):
        return {"ok": False, "mismatch": {"kind": "labeling_not_injective"}}
    # Each geometric row, read in coset indices, against the coset row:
    # the least b > a where they differ makes the first mismatched pair.
    coset_of = {v: a for a, v in enumerate(mapping)}
    for a, v in enumerate(mapping):
        row = sum(1 << coset_of[u] for u in _bits(geometric.adjacency[v]))
        diff = (row ^ cosets.adjacency[a]) >> (a + 1)
        if diff:
            b = a + (diff & -diff).bit_length()
            return {
                "ok": False,
                "mismatch": {
                    "kind": "adjacency",
                    "cosets": [a, b],
                    "coset_adjacent": cosets.is_adjacent(a, b),
                    "geometric_adjacent": geometric.is_adjacent(v, mapping[b]),
                },
            }
    return {
        "ok": True,
        "family": spec.family,
        "rank": spec.rank,
        "types": list(spec.types),
        "p": spec.p,
        "vertices": len(mapping),
        "edges": geometric.num_edges(),
    }
