"""Coset-level vs geometric apartment cross-validation.

The abstract Kneser graph on the parabolic cosets of the spec's Weyl
group (BuildingSpec.quotient, G_2 through its B_3 model) must be
isomorphic to the subgraph the geometric model induces on its coordinate
frame, under the canonical labeling that sends a coset, a flag of label
sets, to its frame object (BuildingSpec.frames). Both sides are read in
coset order, the geometric rows made by the building's own kernel
(buildings._rows) on the frames alone, so the bijection is checked
explicitly, never by isomorphism search. This is the anti-drift guard
for the adopted general-position adjacency.
"""

from __future__ import annotations

from . import buildings
from .errors import UsageError


def cross_validate(spec):
    """Compare coset and geometric apartment graphs; returns a report.

    Coset i of spec.quotient names the frame object spec.frames[i], and
    row i of each graph is read in that order. The report's "ok" field is
    False iff two cosets name one frame object or some pair differs in
    adjacency, in which case "mismatch" holds the first offending pair:
    the least b > a where row a differs, for the least such a.

    buildings._check_frames refuses an apartment too large for the kernel
    before any coset or frame is made.
    """
    if spec.oriflamme and not spec.self_opposite:
        raise UsageError("spec %s: one family of maximal spaces of D_%d, n odd, has no "
                         "opposite pairs, so the coset model does not describe it"
                         % (spec.to_dict(), spec.rank))
    buildings._check_frames(spec)
    frames = spec.frames
    if len(set(frames)) != len(frames):
        return {"ok": False, "mismatch": {"kind": "labeling_not_injective"}}
    rows = buildings._rows(spec, frames)
    cosets = spec.quotient
    for a, row in enumerate(rows):
        diff = (row ^ cosets.adjacency[a]) >> (a + 1)
        if diff:
            b = a + (diff & -diff).bit_length()
            return {
                "ok": False,
                "mismatch": {
                    "kind": "adjacency",
                    "cosets": [a, b],
                    "coset_adjacent": cosets.is_adjacent(a, b),
                    "geometric_adjacent": bool(row >> b & 1),
                },
            }
    return {
        "ok": True,
        "family": spec.family,
        "rank": spec.rank,
        "types": list(spec.types),
        "p": spec.p,
        "vertices": len(frames),
        "edges": sum(row.bit_count() for row in rows) // 2,
    }
