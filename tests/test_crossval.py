"""Tests for the coset-vs-geometry apartment cross-validation."""

import contextlib
import hashlib
import json
import io

import pytest

import kneserlab.buildings as buildings
from kneserlab.buildings import BuildingSpec
from kneserlab.cli import main
from kneserlab.coxeter import ParabolicQuotient, quotient, weyl_group
from kneserlab.crossval import cross_validate
from kneserlab.errors import UsageError

from test_coclique import THEOREM_CELLS


GRID = [
    ("A", 2, (1,)),
    ("A", 2, (2,)),
    ("A", 2, (1, 2)),
    ("A", 3, (1,)),
    ("A", 3, (2,)),
    ("A", 3, (3,)),
    ("A", 3, (1, 3)),
    ("A", 4, (1,)),
    ("A", 4, (2,)),
    ("A", 4, (3,)),
    ("A", 4, (4,)),
    ("A", 4, (1, 4)),
    ("A", 4, (2, 3)),
    ("C", 2, (1,)),
    ("C", 2, (2,)),
    ("C", 3, (1,)),
    ("C", 3, (2,)),
    ("C", 3, (3,)),
    ("C", 4, (1,)),
    ("C", 4, (2,)),
    ("C", 4, (3,)),
    ("C", 4, (4,)),
    ("D", 4, (1,)),
    ("D", 4, (2,)),
    ("D", 4, (3,)),
    ("D", 4, (4,)),
    ("D", 4, (3, 4)),
]


@pytest.mark.parametrize("family,n,types", GRID)
@pytest.mark.parametrize("p", [2, 3])
def test_cross_validation_grid(family, n, types, p):
    report = cross_validate(BuildingSpec(family, n, p, types))
    assert report["ok"], report["mismatch"]
    assert report["vertices"] > 0


@pytest.mark.parametrize("types", [(1,), (2,), (3,)])
@pytest.mark.parametrize("p", [3, 5])
def test_cross_validation_b3_odd_characteristic(types, p):
    report = cross_validate(BuildingSpec("B", 3, p, types))
    assert report["ok"], report["mismatch"]


def test_frame_object_labeling_is_injective():
    q = quotient("D", 4, (3,))
    geo = BuildingSpec("D", 4, 2, (3,))
    flags = {geo.frame(labels) for labels in q.flags}
    assert len(flags) == q.num_vertices


# sha256 of the concatenated cross-validate stdout below, recorded before
# the named builders were folded into build_graph(spec).
CLI_PIN = "1e2b31bd6a25d541d43fda66913a97b51e16be3209f45ab8a0e6de9a615e86aa"


def test_cross_validate_cli_bytes_pinned():
    cells = [(f, n, t, p) for f, n, t in GRID for p in (2, 3)]
    cells += [("B", 3, (t,), 3) for t in (1, 2, 3)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for family, n, types, p in cells:
            assert main(["cross-validate", "--family", family, "--rank", str(n),
                         "--type", ",".join(map(str, types)), "--p", str(p)]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == CLI_PIN


def test_unknown_family_rejected():
    with pytest.raises(UsageError):
        cross_validate(BuildingSpec("G", 2, 3, (1,)))


def test_flipped_coset_edge_is_the_mismatch(capsys, monkeypatch):
    # One edge of the coset graph of A_4 type 2 (the Petersen graph), its
    # last, removed from both rows: cross_validate names that pair as the
    # first adjacency mismatch, and the CLI prints the report and exits 5.
    import kneserlab.crossval as crossval
    from kneserlab.cli import EXIT_CROSSVAL

    a, b = list(quotient("A", 4, (2,)).edges())[-1]

    def flipped(family, n, types):
        q = ParabolicQuotient(weyl_group(family, n), types)
        rows = list(q.adjacency)
        rows[a] ^= 1 << b
        rows[b] ^= 1 << a
        vars(q)["adjacency"] = tuple(rows)
        return q

    monkeypatch.setattr(crossval, "quotient", flipped)
    report = cross_validate(BuildingSpec("A", 4, 2, (2,)))
    assert report == {"ok": False, "mismatch": {
        "kind": "adjacency", "cosets": [a, b], "coset_adjacent": False,
        "geometric_adjacent": True}}
    capsys.readouterr()
    code = main(["cross-validate", "--family", "A", "--rank", "4", "--type", "2", "--p", "2"])
    out, err = capsys.readouterr()
    assert (code, out) == (EXIT_CROSSVAL, json.dumps(report, sort_keys=True) + "\n")
    assert "adjacency" in err


# Every theorem cell Tier-1 decides, ranks 6 included, and cells of rank 7.
DECIDED = THEOREM_CELLS + [BuildingSpec("B", 7, 3, (2,)), BuildingSpec("C", 7, 3, (3,)),
                           BuildingSpec("D", 7, 2, (2,)), BuildingSpec("A", 7, 2, (1, 7))]


@pytest.mark.parametrize("spec", DECIDED, ids=lambda s: "%s%d%s_p%d" % (
    s.family, s.rank, "".join(map(str, s.types)), s.p))
def test_cross_validate_decided_cells(monkeypatch, spec):
    # The coset model and the frames alone: no building is enumerated.
    def enumerated(geo):
        raise AssertionError("a building was enumerated")

    monkeypatch.setattr(buildings, "_vertices", enumerated)
    report = cross_validate(spec)
    assert report["ok"], report["mismatch"]
