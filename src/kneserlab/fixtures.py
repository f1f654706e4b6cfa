"""Verified counterexample fixtures where UCEP fails.

Each case constructs the literal witness objects, checks that they are
vertices, that they are adjacent, and that a maximal coclique C of the
apartment exists with both witnesses in its extension set. Any failed
assertion raises FixtureIntegrityError: these constructions are
guaranteed to go through, so a failure always means the geometry kernel
is broken (or the fixture data was tampered with).

Cases:
  B3_2    totally singular lines, odd characteristic
  C3_3    totally isotropic planes, odd characteristic
  D4_34   totally singular planes of the hyperbolic D4 space, char 2
  A_flags flags of type {i, n-i} in PG(n-1), parametrized, default (5, 2)
"""

from __future__ import annotations

import itertools
import time

import numpy as np

from .algebra import Subspace, is_totally_singular, rank_mod_p
from .buildings import BuildingSpec, flags_adjacent, geometry
from .errors import FixtureIntegrityError, UsageError

CASES = ("B3_2", "C3_3", "D4_34", "A_flags")


def _e(d, *cols):
    v = [0] * d
    for c in cols:
        v[c] = (v[c] + 1) % 10**9
    return v


FIXTURES = {
    # 0-based coordinates; B3 form pairs (0,1),(2,3),(4,5), anisotropic 6.
    "B3_2": {
        "k": 2,
        "witnesses": [
            [[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 1]],
            [[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1]],
        ],
        "coclique_cols": [(0, 2), (0, 3), (1, 4), (1, 5), (2, 4), (2, 5)],
    },
    # C3 form pairs (0,1),(2,3),(4,5); -1 entries are reduced mod p.
    "C3_3": {
        "k": 3,
        "witnesses": [
            [[1, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 1, 0]],
            [[1, 0, 1, 0, -1, 0], [0, 1, 0, 0, 0, 1], [0, 0, 0, 1, 0, 1]],
        ],
        "coclique_cols": [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)],
    },
    # D4 layout 1,1',2,2',3,3',4,4' at columns 0..7.
    "D4_34": {
        "k": 3,
        "witnesses": [
            [[1, 0, 1, 0, 0, 0, 0, 0], [0, 1, 0, 1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 0]],
            [[0, 1, 0, 0, 1, 0, 0, 0], [1, 0, 0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 0, 0, 1]],
        ],
    },
}


def _require(cond, what):
    if not cond:
        raise FixtureIntegrityError("fixture assertion failed: %s" % what)


def _polar_adjacent(model, a, b):
    g = np.array(model.form.polar_gram(), dtype=np.int64)
    m = (a.matrix() @ g @ b.matrix().T) % model.p
    return rank_mod_p([list(r) for r in m], b.dim, model.p) == a.dim


def _polar_fixture(case, family, n, p, data):
    k = data["k"]
    geo = geometry(BuildingSpec(family, n, p, (k,)))
    model, d = geo.model, geo.dim
    wit = [
        Subspace.span(rows, d, p) for rows in data["witnesses"]
    ]
    for i, w in enumerate(wit):
        _require(w.dim == k, "witness %d has dimension %d, want %d" % (i, w.dim, k))
        _require(is_totally_singular(w, model.form), "witness %d is singular" % i)
    _require(_polar_adjacent(model, wit[0], wit[1]), "witnesses are adjacent")
    coc = [Subspace.coordinate(cols, d, p) for cols in data["coclique_cols"]]
    frame_set = {f[0] for f in geo.frames()}
    for i, c in enumerate(coc):
        _require(c in frame_set, "coclique member %d is a frame object" % i)
    for a, b in itertools.combinations(coc, 2):
        _require(not _polar_adjacent(model, a, b), "C is a coclique")
    for x in frame_set:
        if x in set(coc):
            continue
        _require(
            any(_polar_adjacent(model, x, c) for c in coc),
            "C is maximal in the apartment",
        )
    for i, w in enumerate(wit):
        for j, c in enumerate(coc):
            _require(
                not _polar_adjacent(model, w, c),
                "witness %d nonadjacent to C[%d]" % (i, j),
            )
    return {
        "witnesses": [[list(r) for r in w.basis] for w in wit],
        "coclique": [[list(r) for r in c.basis] for c in coc],
        "sigma_size": len(frame_set),
    }


def _d4_planes_fixture(p, data):
    geo = geometry(BuildingSpec("D", 4, p, (3, 4)))
    model, k, d = geo.model, data["k"], geo.dim
    wit = [Subspace.span(rows, d, p) for rows in data["witnesses"]]
    for i, w in enumerate(wit):
        _require(w.dim == k, "witness %d has dimension 3" % i)
        _require(is_totally_singular(w, model.form), "witness %d is singular" % i)
    _require(_polar_adjacent(model, wit[0], wit[1]), "witnesses are adjacent")
    label_sets = geo.frame_words()
    frames = [geo.frame(ls)[0] for ls in label_sets]
    partner = {
        ls: tuple(sorted((-l for l in ls), key=abs)) for ls in label_sets
    }
    bad = [
        ls
        for ls, fr in zip(label_sets, frames)
        if _polar_adjacent(model, fr, wit[0]) or _polar_adjacent(model, fr, wit[1])
    ]
    bad_set = set(bad)
    for ls in bad:
        _require(partner[ls] not in bad_set, "no apartment edge is fully blocked")
    chosen = []
    seen = set()
    for ls in sorted(label_sets):
        if ls in seen:
            continue
        mate = partner[ls]
        seen.add(ls)
        seen.add(mate)
        pick = mate if ls in bad_set else ls
        _require(pick not in bad_set, "compatible coclique choice exists")
        chosen.append(pick)
    coc = [geo.frame(ls)[0] for ls in chosen]
    for a, b in itertools.combinations(coc, 2):
        _require(not _polar_adjacent(model, a, b), "C is a coclique")
    for i, w in enumerate(wit):
        for c in coc:
            _require(not _polar_adjacent(model, w, c), "witness %d compatible with C" % i)
    return {
        "witnesses": [[list(r) for r in w.basis] for w in wit],
        "coclique": [[list(r) for r in c.basis] for c in coc],
        "sigma_size": len(label_sets),
        "sigma_vertices_blocked": len(bad),
    }


def _a_flags_fixture(n, i, p):
    if not 1 < i < n / 2:
        raise UsageError("A_flags fixture needs 1 < i < n/2")
    d = n

    def span(*vecs):
        return Subspace.span(list(vecs), d, p)

    u = _e(d, 0, 1)
    v = _e(d, 0, n - 1)
    a = span(u, *[_e(d, j) for j in range(2, i + 1)])
    a2 = span(v, *[_e(d, j) for j in range(n - 2, n - i - 1, -1)])
    b = span(u, *[_e(d, j) for j in range(2, n - i)], _e(d, n - 1))
    b2 = span(v, *[_e(d, j) for j in range(n - 2, i, -1)], _e(d, 1))
    f = (a, b)
    f2 = (a2, b2)
    _require(a.dim == i and a2.dim == i, "small parts have dimension i")
    _require(b.dim == n - i and b2.dim == n - i, "large parts have dimension n-i")
    _require(b.contains(a) and b2.contains(a2), "witnesses are nested flags")
    _require(flags_adjacent(f, f2, d, p), "witness flags are adjacent")
    frames = geometry(BuildingSpec("A", n - 1, p, (i, n - i))).frames()
    universe = frozenset(range(d))

    def labels(fr):
        small = tuple(j for j in range(d) if any(r[j] for r in fr[0].basis))
        big = tuple(j for j in range(d) if any(r[j] for r in fr[1].basis))
        return (small, big)

    def partner(fr):
        small, big = labels(fr)
        return (
            Subspace.coordinate(sorted(universe - set(big)), d, p),
            Subspace.coordinate(sorted(universe - set(small)), d, p),
        )

    bad = [
        fr
        for fr in frames
        if flags_adjacent(fr, f, d, p) or flags_adjacent(fr, f2, d, p)
    ]
    _require(len(bad) == 4, "exactly 4 apartment vertices are blocked")
    bad_set = set(bad)
    for fr in bad:
        _require(partner(fr) not in bad_set, "no apartment edge is fully blocked")
    chosen = []
    seen = set()
    for fr in sorted(frames, key=labels):
        if fr in seen:
            continue
        mate = partner(fr)
        seen.add(fr)
        seen.add(mate)
        pick = mate if fr in bad_set else fr
        _require(pick not in bad_set, "compatible coclique choice exists")
        chosen.append(pick)
    for x, y in itertools.combinations(chosen, 2):
        _require(not flags_adjacent(x, y, d, p), "C is a coclique")
    for fr in chosen:
        _require(not flags_adjacent(fr, f, d, p), "F compatible with C")
        _require(not flags_adjacent(fr, f2, d, p), "F' compatible with C")
    return {
        "witnesses": [
            [[list(r) for r in part.basis] for part in fl] for fl in (f, f2)
        ],
        "coclique": [
            [[list(r) for r in part.basis] for part in fl] for fl in chosen
        ],
        "sigma_size": len(frames),
        "sigma_vertices_blocked": len(bad),
    }


def verify_nonexample(case, p=None, n=None, i=None, fixture=None):
    """Certify one UCEP counterexample; returns the violation report."""
    start = time.perf_counter()
    if case not in CASES:
        raise UsageError("unknown fixture case %r (known: %s)" % (case, CASES))
    if case in ("B3_2", "C3_3"):
        if p is None:
            p = 3
        if p % 2 == 0:
            raise UsageError("%s requires odd characteristic" % case)
        data = fixture if fixture is not None else FIXTURES[case]
        family = "B" if case == "B3_2" else "C"
        body = _polar_fixture(case, family, 3, p, data)
    elif case == "D4_34":
        if p is None:
            p = 2
        if p != 2:
            raise UsageError("D4_34 is stated in characteristic 2 only")
        data = fixture if fixture is not None else FIXTURES[case]
        body = _d4_planes_fixture(p, data)
    else:
        if p is None:
            p = 2
        n = 5 if n is None else n
        i = 2 if i is None else i
        body = _a_flags_fixture(n, i, p)
    body.update(
        {
            "schema": 1,
            "case": case,
            "p": p,
            "verdict": "violation_certified",
            "elapsed_ms": (time.perf_counter() - start) * 1000.0,
        }
    )
    if case == "A_flags":
        body["n"] = n
        body["i"] = i
    return body
