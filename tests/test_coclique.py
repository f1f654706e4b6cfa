"""Tests for coclique enumeration, extension sets, the UCEP decision
procedure, exact maximum-coclique search, and the span instrument."""

import itertools
import random
import re
from collections import Counter

import numpy as np
import pytest

import kneserlab.buildings as buildings
import kneserlab.coclique as coclique
from kneserlab.algebra import Subspace, enumerate_subspaces, rank_mod_p
from kneserlab.buildings import (
    BuildingSpec,
    KneserGraph,
    build_graph,
)
from kneserlab.coclique import (
    MAX_COCLIQUES,
    MAX_SAMPLES,
    check_apartment,
    check_ucep,
    extension_set,
    is_coclique,
    max_coclique,
    maximal_cocliques_sigma,
    sample_maximal_cocliques,
    span_check,
)
from kneserlab.errors import SearchBudgetExceeded, UsageError
from kneserlab.exterior import Multivector, plucker, span_membership
from kneserlab.fixtures import verify_witness

from oracles import (
    automorphism_permutations,
    edges,
    enumerate_maximal_cocliques_full,
    extension_set_pairwise,
    gaussian_binomial,
    is_coclique_pairwise,
    monomial_generators,
    orbit,
    sigma_cocliques_by_bron_kerbosch,
    theorem_class,
)
from test_acceptance import POSITIVE_GRID

NEGATIVE_GRID = [("B", 3, (2,), 3), ("C", 3, (3,), 3), ("D", 4, (3, 4), 2), ("A", 4, (2, 3), 2)]


def type_ids(value):
    """A type set's test id as its types joined by commas, so (2,) reads 2."""
    return ",".join(map(str, value)) if isinstance(value, tuple) else None


def test_matching_apartment_has_power_of_two_cocliques():
    # Sigma = nK_2: one endpoint per edge, 2^n maximal cocliques.
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    cocliques = maximal_cocliques_sigma(g)
    assert len(cocliques) == 2 ** 3
    assert all(len(c) == 3 for c in cocliques)
    g = build_graph(BuildingSpec("D", 4, 2, (2,)))
    cocliques = maximal_cocliques_sigma(g)
    assert len(cocliques) == 2 ** 12
    assert all(len(c) == 12 for c in cocliques)


def test_petersen_apartment_coclique_profile():
    g = build_graph(BuildingSpec("A", 4, 2, (2,)))
    cocliques = maximal_cocliques_sigma(g)
    assert len(cocliques) == 15
    assert Counter(len(c) for c in cocliques) == Counter({3: 10, 4: 5})
    assert len(set(cocliques)) == 15
    assert all(is_coclique(g, c) for c in cocliques)


def test_edgeless_sigma_single_coclique():
    g = build_graph(BuildingSpec("A", 3, 2, (1,)))
    # Points of PG(3,2): distinct points are disjoint, so Sigma is a
    # complete graph and every maximal coclique is a single vertex.
    cocliques = maximal_cocliques_sigma(g)
    assert len(cocliques) == len(g.sigma)
    assert all(len(c) == 1 for c in cocliques)


def test_extension_set_contains_coclique():
    g = build_graph(BuildingSpec("A", 4, 2, (2,)))
    for c in maximal_cocliques_sigma(g):
        mask = extension_set(g, c)
        for v in c:
            assert mask >> v & 1


def test_extension_set_empty_coclique_is_everything():
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    assert extension_set(g, ()) == g.full_mask


def test_vertex_indices_out_of_range_are_refused():
    # A negative index would name a vertex from the end.
    g = build_graph(BuildingSpec("A", 2, 2, (1,)))
    n = g.num_vertices
    for bad in (-1, -n, n, n + 5):
        for call in (is_coclique, extension_set, span_check):
            with pytest.raises(UsageError, match="vertex index %d .* %d vertices" % (bad, n)):
                call(g, [0, bad])


@pytest.mark.parametrize("seed", range(3))
def test_coclique_and_extension_set_match_the_pairwise_oracle(seed):
    # Member lists drawn with repeats, passed as a list and as an iterator,
    # on a built graph and on a hand-built one. Rows 0 and 5 first hold
    # their own bit, which KneserGraph refuses by the vertex; the graph is
    # then built with those bits cleared.
    rng = random.Random(seed)
    n = 12
    rows = [0] * n
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < 0.3:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    points = [(Subspace.coordinate([0], 3, 2),)] * n
    for v in (0, 5):
        rows[v] |= 1 << v
        with pytest.raises(UsageError, match="^vertex %d is adjacent to itself: its row holds "
                           "its own bit$" % v):
            KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, rows, range(n))
        rows[v] &= ~(1 << v)
    hand = KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, rows, range(n))
    assert is_coclique(hand, [0, 0, 5]) == (not rows[0] >> 5 & 1)
    built = build_graph(BuildingSpec("A", 4, 2, (2,)))
    pools = [(hand, list(range(n)) + [0, 5] * 3)]
    pools += [(built, list(c) + [rng.randrange(built.num_vertices)])
              for c in maximal_cocliques_sigma(built)]
    seen = Counter()
    for _ in range(300):
        g, pool = rng.choice(pools)
        members = [rng.choice(pool) for _ in range(rng.randrange(6))]
        want = is_coclique_pairwise(g, members)
        seen[g is hand, want] += 1
        assert is_coclique(g, members) is want
        assert is_coclique(g, iter(members)) is want
        for given in (members, iter(members)):
            if want:
                assert extension_set(g, given) == extension_set_pairwise(g, members)
            else:
                with pytest.raises(UsageError, match="^extension_set requires a coclique$"):
                    extension_set(g, given)
    assert len(seen) == 4


def test_refused_indices_match_the_pairwise_oracle():
    # Each member is gated once, in order: the first bad index is named,
    # with the message the pairwise rule gave.
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    n = g.num_vertices
    for bad, text in ((-1, "-1 is out of range for 35 vertices"),
                      (n, "35 is out of range for 35 vertices"),
                      (True, "True is a bool, not an integer"),
                      (1.5, "1.5 is a float, not an integer"),
                      ("1", "'1' is a str, not an integer")):
        for members in ([bad], [0, bad], [bad, -2], [0, bad, n + 1]):
            with pytest.raises(UsageError) as want:
                is_coclique_pairwise(g, members)
            assert str(want.value) == "vertex index " + text
            for call in (is_coclique, extension_set, span_check):
                for given in (members, iter(members)):
                    with pytest.raises(UsageError) as got:
                        call(g, given)
                    assert str(got.value) == str(want.value)
    # numpy integers of mixed kinds pass the gate and are read as their ints.
    a, b = maximal_cocliques_sigma(g)[0][:2]
    for call in (is_coclique, extension_set, span_check):
        assert call(g, [np.uint64(a), b]) == call(g, [np.int64(a), np.uint8(b)]) == call(g, [a, b])


def test_extension_set_rejects_non_coclique():
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    a, b = edges(g)[0]
    with pytest.raises(UsageError):
        extension_set(g, (a, b))
    # The members were read twice, so an iterator was taken for a coclique.
    assert not is_coclique(g, iter((a, b)))


def test_extension_set_of_polar_point_frame_is_maximal_subspace():
    # One frame point per hyperbolic pair spans a maximal totally
    # isotropic subspace; D is exactly the point set of that subspace.
    g = build_graph(BuildingSpec("C", 3, 2, (1,)))
    geo = g.spec
    idx = {v[0]: i for i, v in enumerate(g.vertices)}
    c = [idx[geo.coordinate((l,))] for l in (1, 2, 3)]
    assert is_coclique(g, c)
    d_mask = extension_set(g, c)
    span = geo.coordinate((1, 2, 3))
    expected = {
        i for i, v in enumerate(g.vertices) if span.contains(v[0])
    }
    assert {i for i in range(g.num_vertices) if d_mask >> i & 1} == expected
    assert len(expected) == gaussian_binomial(3, 1, 2)


def test_extension_set_star_family_sizes():
    # The point-hyperplane star construction C = {(i, N\j) : i < j}
    # pins D at sizes 1 + 2q and 1 + 2q + 3q^2 for n = 2, 3 at q = 2.
    for n, want in [(2, 5), (3, 17)]:
        d = n + 1
        g = build_graph(BuildingSpec("A", n, 2, (1, n)))
        idx = {v: i for i, v in enumerate(g.vertices)}
        c = []
        for i, j in itertools.combinations(range(d), 2):
            pt = Subspace.coordinate([i], d, 2)
            hyp = Subspace.coordinate([t for t in range(d) if t != j], d, 2)
            c.append(idx[(pt, hyp)])
        assert is_coclique(g, c)
        assert bin(extension_set(g, c)).count("1") == want


def test_check_ucep_holds_and_fails():
    assert check_ucep(build_graph(BuildingSpec("A", 3, 2, (2,)))).verdict == "holds"
    report = check_ucep(build_graph(BuildingSpec("B", 3, 3, (2,))))
    assert report.verdict == "fails"
    assert report.witness is not None


def test_check_ucep_witness_is_machine_checkable():
    g = build_graph(BuildingSpec("A", 4, 2, (2, 3)))
    report = check_ucep(g)
    assert report.verdict == "fails"
    w = report.witness
    x, y = w["x_index"], w["y_index"]
    assert g.is_adjacent(x, y)
    for c in w["coclique_indices"]:
        assert not g.is_adjacent(x, c)
        assert not g.is_adjacent(y, c)
    assert is_coclique(g, w["coclique_indices"])


def test_check_ucep_single_vertex_graph():
    from kneserlab.buildings import KneserGraph

    spec = BuildingSpec("A", 2, 2, (1,))
    g = KneserGraph(spec, [(Subspace.coordinate([0], 3, 2),)], [0], [0])
    assert check_ucep(g).verdict == "holds"


def test_check_ucep_sampling_deterministic():
    g = build_graph(BuildingSpec("D", 4, 2, (2,)))
    r1 = check_ucep(g, mode="sample", samples=20, seed=7)
    r2 = check_ucep(g, mode="sample", samples=20, seed=7)
    assert r1.verdict == r2.verdict == "no_violation_found"
    assert r1.cocliques_checked == r2.cocliques_checked == 20
    assert sample_maximal_cocliques(g, 5, 7) == sample_maximal_cocliques(
        g, 5, 7
    )
    assert r1.seed == 7


@pytest.mark.parametrize("k,seed,message", [
    (2, None, "^sampling needs a seed of type int, not None$"),
    (-3, 1, "^sampling mode needs a sample count of at least 1, got -3$"),
    (2.0, 1, "^samples must be of type int, not 2.0$"),
    (True, 1, "^samples must be of type int, not True$"),
    (MAX_SAMPLES + 1, 1, "more than the limit"),
    (2, 1.0, "^seed must be of type int, not 1.0$"),
], ids=["seed-None", "k-negative", "k-float", "k-bool", "k-past-limit", "seed-float"])
def test_sample_maximal_cocliques_refuses_arguments(monkeypatch, k, seed, message):
    # Refused before any draw: a None seed would seed from the OS.
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    monkeypatch.setattr(coclique.random, "Random", lambda seed: pytest.fail("drew a sample"))
    with pytest.raises(UsageError, match=message):
        sample_maximal_cocliques(g, k, seed)


def test_check_ucep_sample_needs_count():
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    with pytest.raises(UsageError):
        check_ucep(g, mode="sample")
    with pytest.raises(UsageError):
        check_ucep(g, mode="bogus")
    for samples in (0, -5):
        with pytest.raises(UsageError, match="at least 1"):
            check_ucep(g, mode="sample", samples=samples)
    with pytest.raises(UsageError, match="limit of %d" % MAX_SAMPLES):
        check_ucep(g, mode="sample", samples=MAX_SAMPLES + 1)
    # A bool or float would pass as a count or seed, and a string seed
    # would be reported as given.
    for name in ("samples", "seed"):
        for value in (True, 2.5, "x"):
            args = {"samples": 1, "seed": 0, name: value}
            with pytest.raises(UsageError, match="^%s must be of type int, not %r$"
                               % (name, value)):
                check_ucep(g, mode="sample", **args)


def record_scans(monkeypatch):
    """The extension sets check_ucep scans, in order, as a list it fills."""
    scanned, first_violation = [], coclique._first_violation

    def scan(graph, d_mask):
        scanned.append(d_mask)
        return first_violation(graph, d_mask)

    monkeypatch.setattr(coclique, "_first_violation", scan)
    return scanned


def _opposite(geo, fx, fy):
    """Opposition from basis matrices and exact ranks alone: for a polar
    type, the pairing B_x G B_y^T is nonsingular; for type-A flags, each
    pair of parts spans as much as general position allows."""
    p, d = geo.p, geo.dim
    if geo.form is not None:
        g = geo.form.polar.tolist()
        pairing = [[sum(a[i] * g[i][j] * b[j] for i in range(d) for j in range(d))
                    for b in fy[0]] for a in fx[0]]
        return rank_mod_p(pairing, len(fy[0]), p) == len(fx[0])
    return all(rank_mod_p(u + w, d, p) == min(len(u) + len(w), d) for u in fx for w in fy)


@pytest.mark.parametrize("family,n,types,p,count", [
    ("B", 3, (2,), 3, 2 ** 6),
    ("C", 3, (3,), 3, 2 ** 4),
    ("D", 4, (3, 4), 2, 2 ** 16),
    ("A", 4, (2, 3), 2, 2 ** 15),
    ("C", 4, (3,), 2, 2 ** 16),
    ("A", 4, (2, 3), 3, 2 ** 15),
    ("C", 3, (3,), 5, 2 ** 4),
])
def test_check_ucep_negative_grid_cells(monkeypatch, family, n, types, p, count):
    # Sigma is a perfect matching on these cells, so its maximal cocliques
    # are the 2^(|Sigma|/2) transversals; the witness is re-checked from
    # its basis matrices, never through the adjacency that produced it:
    # by the oracle here and by verify_witness.
    # The scan meets one coclique per orbit of the Weyl group, the first of
    # each orbit in the oracle's sorted list, and stops at the first that
    # fails: it scans D of the first member of each oracle orbit met up to
    # the witness, in order, and still counts the whole list.
    spec = BuildingSpec(family, n, p, types)
    g = build_graph(spec)
    scanned = record_scans(monkeypatch)
    report = check_ucep(g, mode="all")
    assert report.verdict == "fails"
    assert report.cocliques_checked == count == 2 ** (len(g.sigma) // 2)
    want = sigma_cocliques_by_bron_kerbosch(g)
    assert report.cocliques_checked == len(want)
    index = want.index(tuple(report.witness["coclique_indices"]))
    perms = automorphism_permutations(g, monomial_generators(spec))
    met, first = set(), []
    for c in want[:index + 1]:
        if c not in met:
            met |= orbit(c, perms)
            first.append(c)
    assert scanned == [extension_set(g, c) for c in first]
    geo, w = spec, report.witness
    coc, x, y = w["coclique"], w["x"], w["y"]
    assert len(coc) == len(g.sigma) // 2
    assert _opposite(geo, x, y)
    for a, b in itertools.combinations(coc + [x, y], 2):
        assert (a, b) == (x, y) or not _opposite(geo, a, b)
    frames = {tuple(u.basis for u in f) for f in geo.frames}
    assert all(tuple(tuple(map(tuple, part)) for part in c) in frames for c in coc)
    verify_witness(spec, coc, x, y)


def test_check_ucep_fails_on_a_sigma_that_is_no_matching(monkeypatch):
    # Sigma is the path 0 - 1 - 2 - 3, whose maximal cocliques are (0, 2),
    # (0, 3) and (1, 3); the edge 4 - 5 lies in every extension set. The
    # walk lists all three, and the scan stops at (0, 2) (2^(|Sigma|/2)
    # would be 4).
    points = [(u,) for u in enumerate_subspaces(3, 1, 2)][:6]
    rows = [0b10, 0b101, 0b1010, 0b100, 0b100000, 0b10000]
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, rows, [0, 1, 2, 3])
    scanned = record_scans(monkeypatch)
    report = check_ucep(g)
    assert (report.verdict, report.cocliques_checked) == ("fails", 3)
    assert (report.witness["coclique_indices"], report.witness["x_index"],
            report.witness["y_index"]) == ([0, 2], 4, 5)
    assert scanned == [0b110101]


def test_check_ucep_refuses_sigma_past_max_sigma(monkeypatch):
    # 65 vertices and no edge: no matching, so Moon and Moser's bound,
    # 2 * 3^21, is past MAX_COCLIQUES.
    n = 65
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), [(Subspace.coordinate([0], 3, 2),)] * n,
                    [0] * n, range(n))
    monkeypatch.setattr(coclique, "_first_violation", None)
    with pytest.raises(UsageError, match="apartment has 65 vertices and at most %d maximal "
                       "cocliques, more than the limit of %d; use sampling mode"
                       % (2 * 3 ** 21, MAX_COCLIQUES)):
        check_ucep(g)


@pytest.mark.parametrize("rows,count", [
    ([1 << (v ^ 1) for v in range(46)], "8388608"),  # 23 disjoint edges: 2^23
    ([(7 << v // 3 * 3) & ~(1 << v) for v in range(42)], "at most 4782969"),  # 14 triangles: 3^14
])
def test_large_sigma_refused_without_per_pair_work(monkeypatch, rows, count):
    # Sigma's shape is read off its rows masked to Sigma, so a Sigma past
    # MAX_COCLIQUES is refused before any per-pair work or scan.
    n = len(rows)
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), [(Subspace.coordinate([0], 3, 2),)] * n,
                    rows, range(n))

    def per_pair(graph):
        raise AssertionError("Sigma's neighbours were listed pair by pair")

    monkeypatch.setattr(coclique, "_sigma_neighbours", per_pair)
    monkeypatch.setattr(coclique, "_first_violation", None)
    for decide in (check_ucep, maximal_cocliques_sigma):
        with pytest.raises(UsageError, match="apartment has %d vertices and %s maximal cocliques, "
                           "more than the limit of %d" % (n, count, MAX_COCLIQUES)):
            decide(g)


@pytest.mark.parametrize("family,n,types,p", POSITIVE_GRID + NEGATIVE_GRID + [("A", 3, (1, 2), 2)])
def test_sigma_walk_matches_bron_kerbosch_oracle(family, n, types, p):
    # The ordered walk lists the oracle's cocliques in its sorted order.
    # A_3 {1,2} is not self-opposite, so build_graph refuses it and its
    # Sigma, built through the graph cache, is no matching.
    g = buildings._graph(BuildingSpec(family, n, p, types))
    assert maximal_cocliques_sigma(g) == sigma_cocliques_by_bron_kerbosch(g)


def test_max_coclique_values():
    assert max_coclique(build_graph(BuildingSpec("A", 3, 2, (2,))))[0] == 7
    assert max_coclique(build_graph(BuildingSpec("A", 2, 2, (1, 2))))[0] == 5
    assert max_coclique(build_graph(BuildingSpec("A", 3, 2, (1, 3))))[0] == 17
    # Complete graph: points of PG(2,2).
    assert max_coclique(build_graph(BuildingSpec("A", 2, 2, (1,))))[0] == 1


def test_max_coclique_witness_is_coclique():
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    size, witness = max_coclique(g)
    assert len(witness) == size
    assert is_coclique(g, witness)


@pytest.mark.parametrize("budget", [True, 2.5, "10", -1])
def test_max_coclique_budget_refused(budget):
    # True would be a budget of 1, and -1 raised SearchBudgetExceeded as if
    # a search had run.
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    with pytest.raises(UsageError, match="^budget must be None or a non-negative int, not "):
        max_coclique(g, budget)


def test_max_coclique_budget():
    g = build_graph(BuildingSpec("A", 4, 2, (2,)))
    with pytest.raises(SearchBudgetExceeded) as exc:
        max_coclique(g, budget=3)
    assert exc.value.lower <= exc.value.upper


def test_enumerate_maximal_cocliques_full_profile():
    g = build_graph(BuildingSpec("A", 4, 2, (2,)))
    sizes = Counter(
        bin(c).count("1") for c in enumerate_maximal_cocliques_full(g)
    )
    # Stars of a point (15 lines each) and full line sets of planes
    # (7 lines each) are the only maximal intersecting families.
    assert sizes == Counter({7: 155, 15: 31})
    with pytest.raises(SearchBudgetExceeded):
        enumerate_maximal_cocliques_full(g, max_cliques=10)


def test_span_check_positive_cases():
    g = build_graph(BuildingSpec("A", 3, 2, (2,)))
    for c in maximal_cocliques_sigma(g):
        assert span_check(g, c)


def test_span_check_implies_no_violation():
    # Whenever the span criterion holds, the adjacency-only check finds
    # no edge inside D.
    from kneserlab.coclique import _first_violation

    g = build_graph(BuildingSpec("A", 4, 2, (2,)))
    for c in maximal_cocliques_sigma(g):
        if span_check(g, c):
            assert _first_violation(g, extension_set(g, c)) is None


def test_span_check_single_vertex_complete_graph():
    g = build_graph(BuildingSpec("A", 2, 2, (1,)))
    mask = extension_set(g, (0,))
    assert mask == 1
    assert span_check(g, (0,))


@pytest.mark.parametrize("family,n,types,p", [
    ("A", 3, (2,), 2), ("A", 3, (2,), 3), ("A", 4, (2,), 2), ("D", 4, (2,), 2), ("A", 4, (3,), 3),
    ("C", 3, (2,), 2), ("A", 3, (1, 3), 2),
], ids=type_ids)
def test_span_check_matches_span_membership_oracle(family, n, types, p):
    # psi, the minors of every part's basis, against the Kronecker product
    # over a vertex's parts of the wedges of their rows, each on the
    # columns in combinations order. Then one product against the
    # annihilator of psi(C), against the per-x oracle on those products as
    # sparse vectors: on seeded cocliques of size 1 to 3, where the span
    # test fails, on seeded Sigma-cocliques, on those less one member, and
    # on no member at all, whose D is every vertex and whose span is 0.
    g = build_graph(BuildingSpec(family, n, p, types))
    d = g.vertices[0][0].ambient
    want_psi = []
    for flag in g.vertices:
        row = np.ones(1, dtype=np.int64)
        for u in flag:
            coeffs = plucker(u).terms
            row = np.kron(row, [coeffs.get(key, 0) for key in
                                itertools.combinations(range(d), u.dim)])
        want_psi.append(row.tolist())
    assert g._psi.tolist() == want_psi
    vectors = [Multivector.from_vector(row, p) for row in want_psi]
    rng = random.Random("span:%s%d.%s.%d" % (family, n, ",".join(map(str, types)), p))
    cases = rng.sample(maximal_cocliques_sigma(g), 4)
    cases += [c[:i] + c[i + 1:] for c in cases for i in range(len(c))] + [[]]
    for _ in range(30):
        size, members = rng.randrange(1, 4), []
        for v in rng.sample(range(g.num_vertices), g.num_vertices):
            if all(not g.is_adjacent(v, c) for c in members):
                members.append(v)
            if len(members) == size:
                break
        cases.append(members)
    seen = set()
    for members in cases:
        gens = [vectors[c] for c in members]
        d_mask = extension_set(g, members)
        want = all(span_membership(vectors[x], gens)
                   for x in range(g.num_vertices) if d_mask >> x & 1)
        assert span_check(g, members) == want, members
        seen.add(want)
    assert seen == {True, False}
    assert span_check(g, []) is False


def test_span_check_answers_on_flags_and_unbuilt_types():
    # No kind of spec is refused. On A_2 chambers span holds on every
    # Sigma-coclique. D_3 type 2 names the minus family of maximal planes,
    # which has no opposite pairs; build_graph refuses it, so it is built
    # through the graph cache, and D(C) is every vertex.
    g = build_graph(BuildingSpec("A", 2, 2, (1, 2)))
    cocliques = maximal_cocliques_sigma(g)
    assert len(cocliques) == 8 and all(span_check(g, c) for c in cocliques)
    assert span_check(g, ()) is False
    g = buildings._graph(BuildingSpec("D", 3, 2, (2,)))
    assert g.num_edges() == 0
    assert span_check(g, g.sigma[:1]) is False
    assert span_check(g, range(g.num_vertices)) is True


# Span per cell, as data: on how many of the cell's orbit representatives
# (the least maximal coclique of Sigma in each orbit) span holds, out of
# how many. Span implies UCEP, not the converse:
# Lambda^k is not the spin or Lagrangian module, so span fails on maximal
# spaces where UCEP holds, and on every `fails` cell.
SPAN_RECORD = [
    # Adjoint: p (x) h of A_n {1,n}.
    ("A", 3, (1, 3), 2, 4, 4), ("A", 3, (1, 3), 3, 4, 4), ("A", 4, (1, 4), 2, 12, 12),
    ("A", 5, (1, 5), 2, 56, 56),
    # Natural module: polar points, and G_2.
    ("B", 3, (1,), 3, 1, 1), ("G", 2, (1,), 3, 1, 1), ("C", 3, (1,), 2, 1, 1),
    ("D", 4, (1,), 2, 1, 1), ("D", 4, (1,), 3, 1, 1),
    # Other single types.
    ("C", 3, (2,), 2, 3, 3), ("D", 4, (2,), 2, 18, 18),
    # UCEP holds, span fails.
    ("C", 3, (3,), 2, 0, 3), ("B", 3, (3,), 3, 0, 3), ("D", 4, (4,), 2, 0, 2),
    # UCEP fails.
    ("A", 3, (1, 2, 3), 2, 0, 192), ("A", 4, (2, 3), 2, 0, 324), ("B", 3, (2,), 3, 0, 3),
    ("C", 3, (3,), 3, 0, 3), ("D", 4, (3, 4), 2, 0, 237),
]


@pytest.mark.parametrize("family,n,types,p,held,orbits", SPAN_RECORD, ids=type_ids)
def test_span_record_per_cell(family, n, types, p, held, orbits):
    # Where span holds, D(C) has no edge, on every spec.
    g = build_graph(BuildingSpec(family, n, p, types))
    masks = coclique._sigma_cocliques(g)
    cocliques = coclique._decode(g, masks[coclique._orbit_representatives(
        masks, g.sigma_generators)])
    spans = [span_check(g, c) for c in cocliques]
    assert (sum(spans), len(cocliques)) == (held, orbits)
    for c, span in zip(cocliques, spans):
        assert not span or coclique._first_violation(g, extension_set(g, c)) is None, c


def test_sigma_cocliques_match_networkx():
    # The walk over Sigma against networkx's maximal cliques of the
    # complement of the Sigma-induced subgraph.
    nx = pytest.importorskip("networkx")
    graphs = [
        build_graph(BuildingSpec("A", 3, 2, (2,))),
        build_graph(BuildingSpec("A", 4, 2, (2, 3))),
        build_graph(BuildingSpec("C", 3, 2, (1,))),
        build_graph(BuildingSpec("D", 4, 2, (2,))),
        build_graph(BuildingSpec("G", 2, 3, (1,))),
    ]
    for g in graphs:
        complement = nx.Graph()
        complement.add_nodes_from(g.sigma)
        complement.add_edges_from(
            (a, b) for a, b in itertools.combinations(g.sigma, 2) if not g.is_adjacent(a, b)
        )
        want = sorted(tuple(sorted(c)) for c in nx.find_cliques(complement))
        assert maximal_cocliques_sigma(g) == want, g.spec


def adjacency_bits(graph):
    """The adjacency rows as an N x N 0/1 array."""
    n = graph.num_vertices
    width = -(-n // 8)
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in graph.adjacency),
                           np.uint8).reshape(n, width)
    return np.unpackbits(packed, axis=1, count=n, bitorder="little")


@pytest.mark.parametrize("family,n,types,p", [
    ("D", 4, (2,), 2), ("D", 4, (3, 4), 2), ("D", 4, (4,), 2), ("A", 4, (2, 3), 2),
    ("B", 3, (2,), 3), ("C", 3, (3,), 3), ("G", 2, (1,), 3), ("A", 4, (2,), 2),
    ("A", 3, (1,), 3),
])
def test_sigma_generators_are_graph_automorphisms(family, n, types, p):
    # Each stored generator against a monomial matrix built from the
    # family's form: the matrix keeps the form, maps every vertex to a
    # vertex and every edge to an edge, and moves Sigma as stored.
    g = build_graph(BuildingSpec(family, n, p, types))
    geo = g.spec
    mats = monomial_generators(geo)
    if geo.form is not None:
        for mat in mats:
            assert not ((mat.T @ geo.form.polar @ mat - geo.form.polar) % p).any()
            assert not (((mat.T @ geo.form.gram @ mat).diagonal() - geo.form.gram.diagonal()) % p).any()
    perms = automorphism_permutations(g, mats)
    assert len(perms) == len(g.sigma_generators) > 0
    bits = adjacency_bits(g)
    position = {v: j for j, v in enumerate(g.sigma)}
    for perm, stored in zip(perms, g.sigma_generators):
        assert sorted(perm.tolist()) == list(range(g.num_vertices))
        assert (bits[np.ix_(perm, perm)] == bits).all()
        assert [position[v] for v in perm[list(g.sigma)].tolist()] == list(stored)


@pytest.mark.parametrize("family,n,types,p,orbits", [
    ("D", 4, (2,), 2, 18), ("D", 4, (3, 4), 2, 237), ("A", 4, (2, 3), 2, 324),
    ("A", 5, (1, 5), 2, 56), ("A", 4, (2,), 2, 2), ("A", 6, (3,), 2, 15),
])
def test_orbit_counts_pinned(monkeypatch, family, n, types, p, orbits):
    # A holding cell scans one coclique per orbit, whether Sigma is a
    # matching or not (A_4 lines: the Petersen graph, 15 cocliques; A_6
    # planes: 35 frames, 6127 cocliques). The orbits of D4 lines and A4
    # lines are also the oracle's, from the monomial matrices.
    g = build_graph(BuildingSpec(family, n, p, types))
    masks = coclique._sigma_cocliques(g)
    reps = coclique._orbit_representatives(masks, g.sigma_generators)
    assert len(reps) == orbits
    assert len(masks) == {("A", 4, (2,)): 15, ("A", 6, (3,)): 6127}.get(
        (family, n, types), 2 ** (len(g.sigma) // 2))
    scanned = record_scans(monkeypatch)
    report = check_ucep(g)
    assert report.cocliques_checked == len(masks)
    if report.verdict == "holds":
        assert len(scanned) == orbits
    if (family, n, types) in (("D", 4, (2,)), ("A", 4, (2,))):
        perms = automorphism_permutations(g, monomial_generators(g.spec))
        met, first = set(), []
        for c in sigma_cocliques_by_bron_kerbosch(g):
            if c not in met:
                met |= orbit(c, perms)
                first.append(c)
        assert report.verdict == "holds"
        assert scanned == [extension_set(g, c) for c in first]


def test_check_ucep_adjoint_a5_holds():
    # A5 {1,5} over F_2, the adjoint representation of A5: 2^15 transversals
    # in 56 orbits.
    report = check_ucep(build_graph(BuildingSpec("A", 5, 2, (1, 5))))
    assert (report.verdict, report.cocliques_checked) == ("holds", 32768)


def theorem_cells():
    """Every cell the abstract's theorem covers with rank <= 6, p in
    {2, 3, 5, 7}, a self-opposite type, a closed-form count of at most 1600
    vertices and an apartment check_apartment passes. Each takes under a
    second on 2 cores; the slowest are A_6 hyperplanes over F_3 and the two
    D_4 families of maximal spaces over F_3."""
    cells = {}
    for family, n, p in itertools.product("ABCD", range(1, 7), (2, 3, 5, 7)):
        for types in [(i,) for i in range(1, n + 1)] + [(1, n)]:
            try:
                spec = BuildingSpec(family, n, p, types)
                if (theorem_class(spec) is None or not spec.self_opposite
                        or buildings._vertex_count(spec) > 1600):
                    continue
                check_apartment(spec)
            except UsageError:
                continue
            cells[(family, n, spec.types, p)] = spec
    return list(cells.values())


THEOREM_CELLS = theorem_cells()


def test_theorem_cells_counted():
    assert len(THEOREM_CELLS) == 73


@pytest.mark.parametrize("spec", THEOREM_CELLS, ids=lambda s: "%s%d%s_p%d" % (
    s.family, s.rank, "".join(map(str, s.types)), s.p))
def test_theorem_cells_hold(spec):
    # The abstract: UCEP holds for minuscule weights, and for the adjoint
    # representation of a simply laced diagram.
    assert check_ucep(build_graph(spec)).verdict == "holds"


# Every cell outside the theorem where UCEP fails, from the sweep of all
# self-opposite cells up to rank 7: the four negative grid cells, A_4 {2,3}
# over F_3, C_3 planes over F_5 and C_4 planes over F_2.
OUTSIDE_FAILS = NEGATIVE_GRID + [("A", 4, (2, 3), 3), ("C", 3, (3,), 5), ("C", 4, (3,), 2)]


def test_theorem_class_outside_fails_cells():
    for family, n, types, p in OUTSIDE_FAILS:
        assert theorem_class(BuildingSpec(family, n, p, types)) is None, (family, n, types, p)


def test_theorem_class_on_the_grid():
    classes = {cell: theorem_class(BuildingSpec(cell[0], cell[1], cell[3], cell[2]))
               for cell in POSITIVE_GRID + NEGATIVE_GRID}
    assert classes == {
        ("A", 3, (1,), 2): "minuscule", ("A", 3, (1,), 3): "minuscule",
        ("A", 3, (2,), 2): "minuscule", ("A", 3, (2,), 3): "minuscule",
        ("A", 4, (2,), 2): "minuscule", ("A", 4, (2,), 3): "minuscule",
        ("A", 2, (1, 2), 2): "adjoint", ("A", 3, (1, 3), 2): "adjoint",
        ("C", 3, (1,), 2): "minuscule", ("B", 3, (1,), 3): None,
        ("B", 3, (3,), 3): "minuscule", ("G", 2, (1,), 3): None,
        ("D", 4, (1,), 2): "minuscule", ("D", 4, (2,), 2): "adjoint",
        ("D", 4, (4,), 2): "minuscule",
        ("B", 3, (2,), 3): None, ("C", 3, (3,), 3): None,
        ("D", 4, (3, 4), 2): None, ("A", 4, (2, 3), 2): None,
    }
    # Over F_2, C_n type n is B_n's spin cell; D_2 and D_3 are left out.
    assert theorem_class(BuildingSpec("C", 3, 2, (3,))) == "minuscule"
    assert theorem_class(BuildingSpec("D", 3, 2, (1,))) is None


def test_check_ucep_scans_every_transversal_without_generators(monkeypatch):
    # A hand-built graph has the trivial group: Sigma = {0, 1} + {2, 3}, a
    # matching, is decided one transversal at a time, in sorted order.
    points = [(u,) for u in enumerate_subspaces(3, 1, 2)][:4]
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, [0b10, 0b1, 0b1000, 0b100], range(4))
    assert g.sigma_generators == ()
    scanned = record_scans(monkeypatch)
    report = check_ucep(g)
    assert (report.verdict, report.cocliques_checked) == ("holds", 4)
    assert scanned == [extension_set(g, c) for c in [(0, 2), (0, 3), (1, 2), (1, 3)]]


@pytest.mark.parametrize("family,n,types,p", POSITIVE_GRID + NEGATIVE_GRID)
def test_sampling_matches_pairwise_greedy(family, n, types, p):
    # The greedy sampler with one blocked mask against the same greedy
    # with a pairwise adjacency test: the same rng draws, the same cocliques.
    g = build_graph(BuildingSpec(family, n, p, types))
    for seed in (0, 7):
        rng, want = random.Random(seed), []
        for _ in range(6):
            order = list(g.sigma)
            rng.shuffle(order)
            chosen = []
            for v in order:
                if all(not g.is_adjacent(v, c) for c in chosen):
                    chosen.append(v)
            want.append(tuple(sorted(chosen)))
        assert sample_maximal_cocliques(g, 6, seed) == want


@pytest.mark.parametrize("family,n,types,p", POSITIVE_GRID + NEGATIVE_GRID)
def test_check_apartment_counts_as_the_built_sigma(monkeypatch, family, n, types, p):
    # Before the build, a perfect matching is counted exactly and any other
    # Sigma by a bound; the built Sigma says which it is.
    spec = BuildingSpec(family, n, p, types)
    g = build_graph(spec)
    check_apartment(spec)
    mask = g.sigma_mask()
    matching = all((g.adjacency[v] & mask).bit_count() == 1 for v in g.sigma)
    listed = maximal_cocliques_sigma(g)
    monkeypatch.setattr(coclique, "MAX_COCLIQUES", 0)
    with pytest.raises(UsageError) as exc:
        check_apartment(spec)
    size = len(g.sigma)
    if not matching:
        most = re.search("has %d vertices and at most ([0-9]+) maximal" % size, str(exc.value))
        assert len(listed) <= int(most.group(1))
    else:
        assert "has %d vertices and %d maximal" % (size, len(listed)) in str(exc.value)
        assert len(listed) == 2 ** (size // 2)


@pytest.mark.parametrize("family,n,types,p", POSITIVE_GRID + NEGATIVE_GRID)
def test_check_apartment_makes_no_rows(monkeypatch, family, n, types, p):
    # Sigma's size and shape come from the count and the degree at q = 1: no
    # adjacency row or coset is made, whether the count passes or is refused.
    def never(*args):
        raise AssertionError("adjacency rows or cosets made")

    spec = BuildingSpec(family, n, p, types)
    monkeypatch.setattr(buildings, "_rows", never)
    monkeypatch.setattr(BuildingSpec, "quotient", property(never))
    check_apartment(spec)
    monkeypatch.setattr(coclique, "MAX_COCLIQUES", 0)
    with pytest.raises(UsageError, match="maximal cocliques, more than the limit of 0"):
        check_apartment(spec)


GENERATOR_DEFECT = ("^a Sigma generator does not map the maximal cocliques of Sigma "
                    "onto themselves$")


def test_sigma_generator_that_breaks_the_matching_is_a_defect():
    # Sigma = {0, 1} + {2, 3}; swapping positions 1 and 2 maps the
    # transversal {0, 2} to {0, 1}, no coclique, so the image has no label.
    points = [(u,) for u in enumerate_subspaces(3, 1, 2)][:4]
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, [0b10, 0b1, 0b1000, 0b100], range(4),
                    [[0, 2, 1, 3]])
    with pytest.raises(RuntimeError, match=GENERATOR_DEFECT):
        check_ucep(g)


def test_path_sigma_labelled_by_its_generators(monkeypatch):
    # Sigma is the path 0 - 1 - 2, no matching: its maximal cocliques are
    # {0, 2} and {1}. Swapping positions 0 and 1 maps {0, 2} to {1, 2}, an
    # edge, so it is no automorphism and the labeller refuses it. With no
    # generators both cocliques are scanned, in sorted order.
    points = [(u,) for u in enumerate_subspaces(3, 1, 2)][:3]
    rows = [0b10, 0b101, 0b10]
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, rows, range(3), [[1, 0, 2]])
    assert maximal_cocliques_sigma(g) == [(0, 2), (1,)]
    with pytest.raises(RuntimeError, match=GENERATOR_DEFECT):
        check_ucep(g)
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), points, rows, range(3))
    scanned = record_scans(monkeypatch)
    report = check_ucep(g)
    assert (report.verdict, report.cocliques_checked) == ("holds", 2)
    assert scanned == [extension_set(g, c) for c in [(0, 2), (1,)]]


@pytest.mark.parametrize("n,steps", [(20, (1, 2)), (34, (1,)), (36, (1, 3))])
def test_walk_and_labels_on_circulant_sigmas(monkeypatch, n, steps):
    # A hand-built circulant Sigma, v next to v +- s for each step s, with
    # the rotation v -> v + 1 as its one generator. The walk lists the
    # oracle's cocliques in its sorted order, past 32 positions too, where
    # on a cycle a skipped vertex whose last neighbour passed uncovered ends
    # its state. Every D(C) is C, so UCEP holds, and check_ucep scans the
    # first coclique of each rotation orbit.
    rows = [sum(1 << (v + s) % n | 1 << (v - s) % n for s in steps) for v in range(n)]
    rotation = [(v + 1) % n for v in range(n)]
    g = KneserGraph(BuildingSpec("A", 2, 2, (1,)), [(Subspace.coordinate([0], 3, 2),)] * n,
                    rows, range(n), [rotation])
    want = sigma_cocliques_by_bron_kerbosch(g)
    assert maximal_cocliques_sigma(g) == want
    met, first = set(), []
    for c in want:
        if c not in met:
            met |= orbit(c, [np.array(rotation)])
            first.append(c)
    scanned = record_scans(monkeypatch)
    report = check_ucep(g)
    assert (report.verdict, report.cocliques_checked) == ("holds", len(want))
    assert scanned == [extension_set(g, c) for c in first]
