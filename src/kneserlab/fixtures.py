"""Verified counterexample fixtures where UCEP fails, and their certifier.

A fixture is data: two witness vertices x, y and a maximal coclique C of
the apartment Σ, all as basis matrices. `verify_witness` certifies such a
triple from the matrices alone, by exact ranks, and never through a built
graph's adjacency; it also certifies every `fails` report of check-ucep.
Any failed condition raises FixtureIntegrityError: these witnesses are
guaranteed to certify, so a failure always means the geometry kernel is
broken (or the witness was tampered with).

Cases:
  B3_2    totally singular lines, odd characteristic
  C3_3    totally isotropic planes, odd characteristic
  D4_34   totally singular planes of the hyperbolic D4 space, char 2
  A_flags flags of type {i, n-i} in PG(n-1), parametrized, default (5, 2)
"""

from __future__ import annotations

import itertools

from .algebra import Subspace
from .buildings import SCHEMA, BuildingSpec, vertex_lists
from .errors import FixtureIntegrityError, UsageError

CASES = ("B3_2", "C3_3", "D4_34", "A_flags")

# Witness rows are RREF once -1 entries are reduced mod p; a coclique
# member is the coordinate subspace on its columns.
FIXTURES = {
    # 0-based coordinates; B3 form pairs (0,1),(2,3),(4,5), anisotropic 6.
    "B3_2": {
        "spec": ("B", 3, (2,)),
        "witnesses": [
            [[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 1]],
            [[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1]],
        ],
        "coclique_cols": [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5)],
    },
    # C3 form pairs (0,1),(2,3),(4,5).
    "C3_3": {
        "spec": ("C", 3, (3,)),
        "witnesses": [
            [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 1, 0]],
            [[1, 0, 1, 0, -1, 0], [0, 1, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1]],
        ],
        "coclique_cols": [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)],
    },
    # D4 layout 1,1',2,2',3,3',4,4' at columns 0..7.
    "D4_34": {
        "spec": ("D", 4, (3, 4)),
        "witnesses": [
            [[1, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]],
            [[1, 0, 0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 1, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]],
        ],
        "coclique_cols": [
            (3, 5, 7), (3, 5, 6), (3, 4, 7), (3, 4, 6), (1, 5, 7), (0, 4, 7),
            (1, 3, 7), (1, 3, 5), (1, 3, 4), (1, 3, 6), (0, 3, 6), (1, 2, 5),
            (1, 2, 4), (1, 2, 6), (1, 4, 7), (1, 4, 6),
        ],
    },
}


def _require(cond, what):
    if not cond:
        raise FixtureIntegrityError("witness condition failed: %s" % what)


def verify_witness(spec, coclique, x, y):
    """Certify a UCEP violation (C, x, y) of spec from basis matrices alone.

    Each object is a flag of RREF basis matrices (one per part) and must
    be a vertex of spec; C must consist of frame objects, be a
    coclique and be maximal in Σ; x and y must be opposite each other and
    opposite no member of C, so both lie in the extension set D(C) and
    D(C) is not a coclique. Opposition is BuildingSpec.opposite, by exact
    ranks. Returns |Σ| and the number of frame objects opposite x or y.
    """
    try:
        members = [spec.vertex(m, "C[%d]" % j) for j, m in enumerate(coclique)]
        x, y = spec.vertex(x, "x"), spec.vertex(y, "y")
    except UsageError as exc:
        raise FixtureIntegrityError("witness condition failed: %s" % exc)
    frames = spec.frames
    _require(set(members) <= set(frames), "C lies in the apartment")
    _require(not any(spec.opposite(a, b) for a, b in itertools.combinations(members, 2)),
             "C is a coclique")
    _require(all(f in members or any(spec.opposite(f, c) for c in members) for f in frames),
             "C is maximal in the apartment")
    _require(spec.opposite(x, y), "x and y are opposite")
    _require(not any(spec.opposite(w, c) for w in (x, y) for c in members),
             "x and y are opposite no member of C")
    return {
        "sigma_size": len(frames),
        "sigma_vertices_blocked": sum(spec.opposite(f, x) or spec.opposite(f, y) for f in frames),
    }


def _a_flags(n, i, p):
    """Spec, coclique and witness flags of the {i, n-i} case in PG(n-1, p).

    The witnesses are F = (A, B) on u = e_1 + e_2 and F' = (A', B') on
    v = e_1 + e_n. A frame is a label word S + X (S its small part, S ∪ X
    its large one) read off a coset representative, opposite the frame
    T + X with T the labels outside S ∪ X. C takes from each opposite pair,
    in word order, the frame whose small part holds the least label outside
    X, except that the two such frames opposite a witness give way to
    their partners.
    """
    if not 1 < i < n / 2:
        raise UsageError("A_flags fixture needs 1 < i < n/2")
    spec = BuildingSpec("A", n - 1, p, (i, n - i))

    def e(*cols):
        return [int(j in cols) for j in range(n)]

    def span(*vecs):
        return [list(r) for r in Subspace.span(vecs, n, p).basis]

    u, v = e(0, 1), e(0, n - 1)
    x = [span(u, *map(e, range(2, i + 1))), span(u, *map(e, range(2, n - i)), e(n - 1))]
    y = [span(v, *map(e, range(n - 2, n - i - 1, -1))),
         span(v, *map(e, range(n - 2, i, -1)), e(1))]
    labels = set(range(1, n + 1))
    swapped = {(1, *range(3, i + 2), 2, *range(i + 2, n - i + 1)),
               (1, *range(n - i + 1, n), *range(i + 2, n - i + 1), n)}
    words = [w for w in sorted(r[:n - i] for r in spec.quotient.representatives)
             if min(w[:i]) < min(labels - set(w))]
    coclique = [vertex_lists(spec.frame((labels - set(w), labels - set(w[:i])) if w in swapped
                                        else (w[:i], w))) for w in words]
    return spec, coclique, x, y


def verify_nonexample(case, p=None, n=None, i=None):
    """Certify one UCEP counterexample; returns the violation report."""
    if case not in CASES:
        raise UsageError("unknown fixture case %r (known: %s)" % (case, CASES))
    if case == "A_flags":
        p = 2 if p is None else p
        n = 5 if n is None else n
        i = 2 if i is None else i
        spec, coclique, x, y = _a_flags(n, i, p)
        facts = verify_witness(spec, coclique, x, y)
        body = {"witnesses": [x, y], "coclique": coclique, "n": n, "i": i}
    else:
        if case == "D4_34":
            p = 2 if p is None else p
            if p != 2:
                raise UsageError("D4_34 is stated in characteristic 2 only")
        else:
            p = 3 if p is None else p
            if p % 2 == 0:
                raise UsageError("%s requires odd characteristic" % case)
        data = FIXTURES[case]
        family, rank, types = data["spec"]
        spec = BuildingSpec(family, rank, p, types)
        d = spec.dim
        x, y = ([[c % p for c in row] for row in w] for w in data["witnesses"])
        coclique = [[list(r) for r in Subspace.coordinate(cols, d, p).basis]
                    for cols in data["coclique_cols"]]
        facts = verify_witness(spec, [[m] for m in coclique], [x], [y])
        body = {"witnesses": [x, y], "coclique": coclique}
    body["sigma_size"] = facts["sigma_size"]
    if case in ("D4_34", "A_flags"):
        body["sigma_vertices_blocked"] = facts["sigma_vertices_blocked"]
    body.update({
        "schema": SCHEMA,
        "case": case,
        "p": p,
        "verdict": "violation_certified",
    })
    return body
