"""Tests for the verified counterexample fixtures and their certifier."""

import copy
import hashlib
import json

import pytest

from kneserlab.buildings import BuildingSpec
from kneserlab.errors import FixtureIntegrityError, UsageError
from kneserlab.fixtures import CASES, FIXTURES, verify_nonexample, verify_witness

# sha256 of each report's sorted-key JSON, recorded before the fixtures
# became data behind verify_witness.
PINNED_REPORTS = [
    ("B3_2", {}, "8fe7bb194278ea9995b7173fcbd8917016b2dbd8125d6c45fbd16a3fad1f6c68"),
    ("C3_3", {}, "83b9536f368935edc4547717963a1d1d2bae58b08b6d2cebdc2b0fcedbc3f8af"),
    ("D4_34", {}, "6614cbf44ac1a246252443a625ba10515637626c268f69d7a755c67f50b22d28"),
    ("A_flags", {}, "ccfb31e41bdd409ba1b03ead04ab5102b133a42b21c5f9ddfbd4f09e08f21306"),
    ("B3_2", {"p": 5}, "7785c85187bd31ce44fc289baa5bfc3d844201c7a5d8e0b5493b9c3f1fb24b8c"),
    ("C3_3", {"p": 5}, "2c9021673292834dae4eed26a71df633895f957d9df1174d9b34624f92ea7500"),
    ("A_flags", {"n": 7, "i": 3, "p": 3},
     "ca371a2b28d074b327f584f232688f3a640f97eabcff37003351534a170338e4"),
]


@pytest.mark.parametrize("case,kwargs,digest", PINNED_REPORTS)
def test_report_bytes_pinned(case, kwargs, digest):
    report = verify_nonexample(case, **kwargs)
    payload = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(payload).hexdigest() == digest


def witness_of(case):
    """(spec, C, x, y) of a fixture, as flags of basis matrices."""
    r = verify_nonexample(case)
    x, y = r["witnesses"]
    if case == "A_flags":
        spec = BuildingSpec("A", r["n"] - 1, r["p"], (r["i"], r["n"] - r["i"]))
        return spec, r["coclique"], x, y
    family, rank, types = FIXTURES[case]["spec"]
    return BuildingSpec(family, rank, r["p"], types), [[m] for m in r["coclique"]], [x], [y]


@pytest.mark.parametrize("case", CASES)
def test_verify_witness_accepts_fixture_data(case):
    spec, coc, x, y = witness_of(case)
    facts = verify_witness(spec, coc, x, y)
    assert facts["sigma_size"] == len(spec.frames)


def frame_flag(frame):
    return [[list(r) for r in part.basis] for part in frame]


@pytest.mark.parametrize("case", CASES)
def test_verify_witness_refuses_single_corruptions(case):
    spec, coc, x, y = witness_of(case)
    geo = spec

    def refused(what, coc=coc, x=x, y=y):
        with pytest.raises(FixtureIntegrityError, match=what):
            verify_witness(spec, coc, x, y)

    # A coclique member that is a vertex but not a frame object.
    refused("C lies in the apartment", coc=[x] + coc[1:])
    refused("C is maximal in the apartment", coc=coc[1:])
    # y replaced by a frame object that is not opposite x.
    refused("x and y are opposite", y=coc[0])
    # x replaced by a frame object outside C that is opposite y; by
    # maximality it is opposite a member of C.
    members = [geo.vertex(m, j) for j, m in enumerate(coc)]
    wy = geo.vertex(y, "y")
    blocked = [f for f in geo.frames if f not in members and geo.opposite(f, wy)]
    assert blocked
    refused("opposite no member of C", x=frame_flag(blocked[0]))
    # A basis that is not in RREF: x's first part with its rows reversed.
    refused("reduced row echelon form", x=[x[0][::-1]] + x[1:])
    if geo.form is not None:
        # The coordinate subspace on a hyperbolic pair is not singular.
        k = geo.parts[0]
        refused("not totally singular",
                x=[[[int(j == c) for j in range(geo.dim)] for c in range(k)]])


def test_all_cases_certify():
    for case in CASES:
        report = verify_nonexample(case)
        assert report["verdict"] == "violation_certified"
        assert report["schema"] == 1
        assert len(report["witnesses"]) == 2
        assert report["coclique"]


def test_b3_2_report_content():
    report = verify_nonexample("B3_2")
    assert report["p"] == 3
    assert report["sigma_size"] == 12
    # The witnesses reproduce <e1, e3+e4+e7> and <e2, e5+e6+e7>.
    assert report["witnesses"][0] == [
        [1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 1],
    ]
    assert report["witnesses"][1] == [
        [0, 1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1],
    ]
    assert len(report["coclique"]) == 6


def test_c3_3_report_content():
    report = verify_nonexample("C3_3")
    assert report["p"] == 3
    assert report["sigma_size"] == 8
    assert len(report["coclique"]) == 4


def test_d4_34_report_content():
    report = verify_nonexample("D4_34")
    assert report["p"] == 2
    assert report["sigma_size"] == 32
    assert report["sigma_vertices_blocked"] >= 1
    assert len(report["coclique"]) == 16


def test_a_flags_report_content():
    report = verify_nonexample("A_flags")
    assert report["p"] == 2
    assert (report["n"], report["i"]) == (5, 2)
    assert report["sigma_vertices_blocked"] == 4
    assert report["sigma_size"] == 30


def test_a_flags_other_parameters():
    report = verify_nonexample("A_flags", p=3, n=7, i=3)
    assert report["verdict"] == "violation_certified"
    with pytest.raises(UsageError):
        verify_nonexample("A_flags", n=4, i=2)


def test_characteristic_constraints():
    with pytest.raises(UsageError):
        verify_nonexample("B3_2", p=2)
    with pytest.raises(UsageError):
        verify_nonexample("C3_3", p=2)
    with pytest.raises(UsageError):
        verify_nonexample("D4_34", p=3)
    with pytest.raises(UsageError):
        verify_nonexample("nope")


def test_odd_characteristic_variants():
    for case in ("B3_2", "C3_3"):
        report = verify_nonexample(case, p=5)
        assert report["verdict"] == "violation_certified"


def test_tampered_fixture_raises_integrity_error(monkeypatch):
    data = copy.deepcopy(FIXTURES["B3_2"])
    # Corrupt a witness so it is no longer totally singular.
    data["witnesses"][0][0] = [0, 0, 0, 0, 0, 0, 1]
    monkeypatch.setitem(FIXTURES, "B3_2", data)
    with pytest.raises(FixtureIntegrityError):
        verify_nonexample("B3_2")
    data = copy.deepcopy(FIXTURES["C3_3"])
    # Corrupt the coclique so two members are adjacent.
    data["coclique_cols"][1] = (1, 3, 5)
    monkeypatch.setitem(FIXTURES, "C3_3", data)
    with pytest.raises(FixtureIntegrityError):
        verify_nonexample("C3_3")
