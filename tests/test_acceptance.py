"""Acceptance checks, one test per criterion, each printing a single
pass/fail line. All equalities are exact; there are no tolerances."""

import itertools
import random
from collections import Counter

import pytest

import kneserlab.buildings as buildings
from kneserlab.algebra import Subspace, intersect
from kneserlab.buildings import (
    BuildingSpec,
    build_graph,
)
from kneserlab.cli import EXIT_OK, main
from kneserlab.coclique import (
    check_ucep,
    extension_set,
    is_coclique,
    max_coclique,
    maximal_cocliques_sigma,
    span_check,
)
from kneserlab.coxeter import (
    check_lifting,
    ParabolicQuotient,
    phi_map,
    shortest_double_coset,
    WeylGroup,
)
from kneserlab.exterior import plucker, wedge
from kneserlab.fixtures import verify_nonexample
from kneserlab.matroid import ColumnMatroid, have_disjoint_bases, union_rank

from oracles import enumerate_maximal_cocliques_full
from test_matroid import matroid_representatives


def report(num, label, ok):
    print("criterion %2d %s: %s" % (num, "PASS" if ok else "FAIL", label))
    assert ok, "criterion %d failed: %s" % (num, label)


POSITIVE_GRID = [
    ("A", 3, (1,), 2),
    ("A", 3, (1,), 3),
    ("A", 3, (2,), 2),
    ("A", 3, (2,), 3),
    ("A", 4, (2,), 2),
    ("A", 4, (2,), 3),
    ("A", 2, (1, 2), 2),
    ("A", 3, (1, 3), 2),
    ("C", 3, (1,), 2),
    ("B", 3, (1,), 3),
    ("B", 3, (3,), 3),
    ("G", 2, (1,), 3),
    ("D", 4, (1,), 2),
    ("D", 4, (2,), 2),
    ("D", 4, (4,), 2),
]


def test_criterion_01_positive_ucep_grid():
    verdicts = {}
    for family, rank, types, p in POSITIVE_GRID:
        graph = build_graph(BuildingSpec(family, rank, p, types))
        verdicts[(family, rank, types, p)] = check_ucep(graph, mode="all")
    ok = all(r.verdict == "holds" for r in verdicts.values())
    heaviest = verdicts[("D", 4, (2,), 2)]
    ok = ok and heaviest.cocliques_checked == 4096
    report(1, "UCEP holds on all 15 positive grid cells (exhaustive)", ok)


def test_criterion_02_negative_grid_fixtures():
    reports = {
        "B3_2": verify_nonexample("B3_2", p=3),
        "C3_3": verify_nonexample("C3_3", p=3),
        "D4_34": verify_nonexample("D4_34", p=2),
        "A_flags": verify_nonexample("A_flags", p=2, n=5, i=2),
    }
    ok = all(r["verdict"] == "violation_certified" for r in reports.values())
    # Literal witness vectors reproduced in the reports.
    ok = ok and reports["B3_2"]["witnesses"] == [
        [[1, 0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0, 1]],
        [[0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1]],
    ]
    ok = ok and reports["D4_34"]["witnesses"][0] == [
        [1, 0, 1, 0, 0, 0, 0, 0],
        [0, 1, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 0],
    ]
    ok = ok and reports["A_flags"]["sigma_vertices_blocked"] == 4
    report(2, "all four counterexample fixtures certified with witnesses", ok)


def test_criterion_03_size_oracles():
    ok = max_coclique(build_graph(BuildingSpec("A", 3, 2, (2,))))[0] == 7
    ok = ok and max_coclique(build_graph(BuildingSpec("A", 4, 2, (2,))))[0] == 15
    ok = ok and max_coclique(build_graph(BuildingSpec("A", 2, 2, (1, 2))))[0] == 5
    ok = ok and max_coclique(build_graph(BuildingSpec("A", 3, 2, (1, 3))))[0] == 17
    # The star construction C = {(i, N\j) : i < j} attains the flag sizes.
    for n, want in [(2, 5), (3, 17)]:
        d = n + 1
        graph = build_graph(BuildingSpec("A", n, 2, (1, n)))
        idx = {v: i for i, v in enumerate(graph.vertices)}
        members = []
        for i, j in itertools.combinations(range(d), 2):
            pt = Subspace.coordinate([i], d, 2)
            hyp = Subspace.coordinate([t for t in range(d) if t != j], d, 2)
            members.append(idx[(pt, hyp)])
        ok = ok and is_coclique(graph, members)
        ok = ok and bin(extension_set(graph, members)).count("1") == want
    report(3, "max-coclique sizes 7/15/5/17 and star construction attain", ok)


def test_criterion_04_apartment_identities():
    petersen = build_graph(BuildingSpec("A", 4, 2, (2,)))
    mask = petersen.sigma_mask()
    degrees = sorted(
        bin(petersen.adjacency[v] & mask).count("1") for v in petersen.sigma
    )
    ok = len(petersen.sigma) == 10 and degrees == [3] * 10
    profile = Counter(len(c) for c in maximal_cocliques_sigma(petersen))
    ok = ok and profile == Counter({3: 10, 4: 5})

    d42 = build_graph(BuildingSpec("D", 4, 2, (2,)))
    mask = d42.sigma_mask()
    ok = ok and len(d42.sigma) == 24
    ok = ok and all(
        bin(d42.adjacency[v] & mask).count("1") == 1 for v in d42.sigma
    )

    for graph in (build_graph(BuildingSpec("C", 3, 2, (1,))),
                  build_graph(BuildingSpec("B", 3, 3, (1,)))):
        mask = graph.sigma_mask()
        ok = ok and len(graph.sigma) == 6
        ok = ok and all(
            bin(graph.adjacency[v] & mask).count("1") == 1
            for v in graph.sigma
        )

    flags = build_graph(BuildingSpec("A", 2, 2, (1, 2)))
    mask = flags.sigma_mask()
    ok = ok and len(flags.sigma) == 6
    ok = ok and all(
        bin(flags.adjacency[v] & mask).count("1") == 1 for v in flags.sigma
    )
    report(4, "Petersen/12K_2/3K_2/matching apartment identities", ok)


def test_criterion_05_span_instrumentation():
    ok = True
    for graph in (
        build_graph(BuildingSpec("A", 3, 2, (2,))),
        build_graph(BuildingSpec("A", 4, 2, (2,))),
        build_graph(BuildingSpec("D", 4, 2, (2,))),
    ):
        cocliques = maximal_cocliques_sigma(graph)
        ok = ok and all(span_check(graph, c) for c in cocliques)
    report(5, "span criterion true on every apartment coclique", ok)


def test_criterion_06_matroid_oracle():
    # Exhaustive over all F_2 matrices up to 3x5: union_rank depends only
    # on the matroid pair, so each distinct column matroid (by full rank
    # fingerprint) is checked once against the brute-force union maximum.
    ok = True
    for ncols in range(1, 6):
        reps = [
            ColumnMatroid(rows, 2)
            for rows in matroid_representatives(3, ncols)
        ]
        ground = list(range(ncols))
        indep = {
            id(m): [
                s
                for size in range(ncols + 1)
                for s in itertools.combinations(ground, size)
                if m.rank(s) == len(s)
            ]
            for m in reps
        }
        for m1 in reps:
            for m2 in reps:
                brute = max(
                    len(i1) + m2.rank([j for j in ground if j not in i1])
                    for i1 in indep[id(m1)]
                )
                if union_rank(m1, m2, ground) != brute:
                    ok = False
    rng = random.Random(20240641)
    count = 0
    while count < 1000:
        p = rng.choice((2, 3))
        d = rng.randrange(2, 8)
        k1 = rng.randrange(1, d)
        k2 = rng.randrange(1, d - k1 + 1)
        u = Subspace.span(
            [[rng.randrange(p) for _ in range(d)] for _ in range(k1)], d, p
        )
        w = Subspace.span(
            [[rng.randrange(p) for _ in range(d)] for _ in range(k2)], d, p
        )
        if u.dim == 0 or w.dim == 0 or intersect(u, w).dim:
            continue
        count += 1
        if not have_disjoint_bases(
            ColumnMatroid.from_subspace(u), ColumnMatroid.from_subspace(w)
        ):
            ok = False
    report(6, "union-rank formula exhaustive + disjoint-bases lemma", ok)


def test_criterion_07_plucker_equivalence():
    from kneserlab.algebra import enumerate_subspaces

    ok = True
    subs = list(enumerate_subspaces(4, 2, 2))
    images = {u: plucker(u) for u in subs}
    for u in subs:
        for w in subs:
            meets = intersect(u, w).dim > 0
            if meets != wedge(images[u], images[w]).is_zero():
                ok = False
    rng = random.Random(20240642)
    count = 0
    while count < 1000:
        u = Subspace.span(
            [[rng.randrange(3) for _ in range(5)] for _ in range(2)], 5, 3
        )
        w = Subspace.span(
            [[rng.randrange(3) for _ in range(5)] for _ in range(2)], 5, 3
        )
        if u.dim == 0 or w.dim == 0:
            continue
        count += 1
        meets = intersect(u, w).dim > 0
        if meets != wedge(plucker(u), plucker(w)).is_zero():
            ok = False
    report(7, "intersection iff wedge vanishes (exhaustive + random)", ok)


CROSSVAL_GRID = [
    ("A", 2, "1"), ("A", 2, "2"), ("A", 2, "1,2"),
    ("A", 3, "1"), ("A", 3, "2"), ("A", 3, "3"), ("A", 3, "1,3"),
    ("A", 4, "1"), ("A", 4, "2"), ("A", 4, "3"), ("A", 4, "4"),
    ("A", 4, "1,4"), ("A", 4, "2,3"),
    ("C", 2, "1"), ("C", 2, "2"),
    ("C", 3, "1"), ("C", 3, "2"), ("C", 3, "3"),
    ("C", 4, "1"), ("C", 4, "2"), ("C", 4, "3"), ("C", 4, "4"),
    ("D", 4, "1"), ("D", 4, "2"), ("D", 4, "3"), ("D", 4, "4"),
    ("D", 4, "3,4"),
]


def test_criterion_08_coset_cross_validation(capsys):
    ok = True
    for family, rank, types in CROSSVAL_GRID:
        for p in (2, 3):
            code = main([
                "cross-validate", "--family", family, "--rank", str(rank),
                "--type", types, "--p", str(p),
            ])
            if code != EXIT_OK:
                ok = False
    # Geometric B models exist in odd characteristic only; at the Weyl
    # level B and C coincide, so the C cells above cover p = 2.
    for types in ("1", "2", "3"):
        code = main([
            "cross-validate", "--family", "B", "--rank", "3", "--type",
            types, "--p", "3",
        ])
        if code != EXIT_OK:
            ok = False
    capsys.readouterr()
    report(8, "coset-vs-geometry cross-validation exits 0 on the grid", ok)


def test_criterion_09_transfer_certification():
    group = WeylGroup("A", 3)
    chambers = ParabolicQuotient(group, (1, 2, 3))
    ok = True
    for coarse_types in ((2,), (1, 3)):
        coarse = ParabolicQuotient(group, coarse_types)
        phi_map(chambers, coarse)
        lifted, counterexample = check_lifting(chambers, coarse)
        ok = ok and lifted and counterexample is None

    # Coclique-extension relation of A_{3,{1,2}} over A_{3,2} at p = 2.
    ok = ok and shortest_double_coset(group, (1, 2)) == shortest_double_coset(
        group, (2,)
    )
    fine = buildings._graph(BuildingSpec("A", 3, 2, (1, 2)))
    coarse = build_graph(BuildingSpec("A", 3, 2, (2,)))
    index = {v[0]: i for i, v in enumerate(coarse.vertices)}
    projection = [index[f[1]] for f in fine.vertices]
    fibers = {}
    for i, c in enumerate(projection):
        fibers.setdefault(c, []).append(i)
    ok = ok and all(is_coclique(fine, f) for f in fibers.values())
    for a in range(fine.num_vertices):
        for b in range(a + 1, fine.num_vertices):
            if projection[a] == projection[b]:
                if fine.is_adjacent(a, b):
                    ok = False
            elif fine.is_adjacent(a, b) != coarse.is_adjacent(
                projection[a], projection[b]
            ):
                ok = False
    ok = ok and check_ucep(fine).verdict == "holds"
    ok = ok and check_ucep(coarse).verdict == "holds"
    report(9, "lifting lemma and coclique-extension transfer certified", ok)


def test_criterion_10_second_largest_coclique():
    # Stretch goal: second-largest maximal coclique of the PG(4,2) line
    # Kneser graph equals 15 - 4*3 + 4 = 7; full enumeration is cheap
    # because the only maximal intersecting families are stars and the
    # line sets of planes.
    graph = build_graph(BuildingSpec("A", 4, 2, (2,)))
    sizes = Counter(
        bin(c).count("1") for c in enumerate_maximal_cocliques_full(graph)
    )
    distinct = sorted(sizes, reverse=True)
    ok = distinct[0] == 15 and distinct[1] == 7
    ok = ok and sizes == Counter({7: 155, 15: 31})
    report(10, "second-largest maximal coclique of PG(4,2) lines is 7", ok)
