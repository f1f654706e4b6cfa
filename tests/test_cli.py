"""Tests for the command-line surface: exit codes, formats, round-trips,
and report determinism."""

import json
import os
import subprocess
import sys
import time

import pytest

from kneserlab.buildings import BuildingSpec, build_graph
from kneserlab.cli import (
    _render_graph,
    EXIT_CROSSVAL,
    EXIT_FIXTURE,
    EXIT_NO_VIOLATION_FOUND,
    EXIT_OK,
    EXIT_UCEP_FAILS,
    EXIT_USAGE,
    main,
)
from kneserlab.errors import UsageError


DIFFERS = "error: stored graph differs from what build writes at "


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_text(capsys):
    code, out, _ = run(
        capsys, "build", "--family", "A", "--rank", "2", "--type", "1,2",
        "--p", "2", "--format", "text"
    )
    assert code == EXIT_OK
    assert "vertices: 21" in out


def test_build_json_structure(capsys):
    code, out, _ = run(
        capsys, "build", "--family", "A", "--rank", "3", "--type", "2",
        "--p", "2", "--format", "json"
    )
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["schema"] == 1
    assert data["num_vertices"] == 35
    assert len(data["vertices"]) == 35
    assert len(data["sigma"]) == 6
    # Round-trip through the serializer.
    assert json.loads(json.dumps(data, sort_keys=True)) == data


def test_build_dimacs_header(capsys):
    code, out, _ = run(
        capsys, "build", "--family", "D", "--rank", "4", "--type", "2",
        "--p", "2", "--format", "dimacs"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    p_lines = [l for l in lines if l.startswith("p edge ")]
    assert p_lines == ["p edge 1575 %d" % sum(
        1 for l in lines if l.startswith("e ")
    )]


def test_build_invalid_spec_exit_2(capsys):
    code, _, err = run(
        capsys, "build", "--family", "B", "--rank", "3", "--type", "2",
        "--p", "2"
    )
    assert code == EXIT_USAGE
    assert "odd characteristic" in err
    code, _, _ = run(capsys, "build", "--family", "A", "--rank", "3",
                     "--type", "x", "--p", "2")
    assert code == EXIT_USAGE
    code, _, _ = run(capsys, "build", "--family", "A", "--rank", "3",
                     "--p", "2")
    assert code == EXIT_USAGE
    # Type sets that name no object are refused before any enumeration.
    for family, rank, types, p, name in [
        ("D", "4", "1,2,3", "2", "D_4 type 1,2,3"),
        ("G", "2", "2", "3", "G_2 type 2"),
        ("G", "3", "3", "3", "G_3 type 3"),
        ("C", "1", "1", "2", "C_1 type 1"),
    ]:
        code, out, err = run(capsys, "build", "--family", family, "--rank", rank,
                             "--type", types, "--p", p)
        assert code == EXIT_USAGE
        assert out == ""
        assert name in err
    # The type names the D_n family; there is no --selector.
    with pytest.raises(SystemExit) as exc:
        main(["build", "--family", "D", "--rank", "4", "--type", "4",
              "--p", "2", "--selector", "minus"])
    assert exc.value.code == EXIT_USAGE


def test_check_ucep_holds_exit_0(capsys):
    code, out, _ = run(
        capsys, "check-ucep", "--family", "C", "--rank", "3", "--type", "1",
        "--p", "2", "--mode", "all"
    )
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "holds"
    assert report["cocliques_checked"] == 8
    assert report["schema"] == 1


def test_check_ucep_fails_exit_3(capsys):
    # A sampled violation is as certain as an exhaustive one.
    for mode in (["--mode", "all"], ["--mode", "sample", "--samples", "5", "--seed", "1"]):
        code, out, _ = run(
            capsys, "check-ucep", "--family", "A", "--rank", "4", "--type",
            "2,3", "--p", "2", *mode
        )
        assert code == EXIT_UCEP_FAILS
        report = json.loads(out)
        assert (report["verdict"], report["mode"]) == ("fails", mode[1])
        assert "witness" in report


def test_check_ucep_corrupted_witness_exit_4(capsys, monkeypatch):
    # A fails report whose coclique lost a member is not maximal in Sigma,
    # so verify_witness refuses it and nothing is written.
    import kneserlab.cli as cli

    real = cli.check_ucep

    def corrupted(graph, **kwargs):
        report = real(graph, **kwargs)
        report.witness["coclique"] = report.witness["coclique"][1:]
        return report

    monkeypatch.setattr(cli, "check_ucep", corrupted)
    code, out, err = run(
        capsys, "check-ucep", "--family", "A", "--rank", "4", "--type",
        "2,3", "--p", "2"
    )
    assert code == EXIT_FIXTURE
    assert "C is maximal in the apartment" in err
    assert out == ""


def test_verify_fixtures_case_report(capsys):
    code, out, _ = run(capsys, "verify-fixtures", "--case", "B3_2", "--p", "3")
    assert code == EXIT_OK
    report = json.loads(out)["fixtures"][0]
    assert report["verdict"] == "violation_certified"
    assert report["witnesses"]
    # Fixtures are certified by verify-fixtures only.
    with pytest.raises(SystemExit) as exc:
        main(["check-ucep", "--case-from-fixture", "B3_2", "--p", "3"])
    assert exc.value.code == EXIT_USAGE


def test_check_ucep_imports_no_numpy_ma():
    # numpy 2.4's np.unique imports numpy.ma on first use, which every
    # check-ucep process would pay; only a fresh interpreter shows the import.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    script = ("import sys\n"
              "from kneserlab import cli\n"
              "code = cli.main(['check-ucep', '--family', 'D', '--rank', '4', '--type', '2',"
              " '--p', '2', '--mode', 'all'])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *report, last = proc.stdout.splitlines()
    assert json.loads("\n".join(report))["verdict"] == "holds"
    assert last == "%d False" % EXIT_OK


def test_check_ucep_deterministic_reports(capsys):
    argv = ["check-ucep", "--family", "A", "--rank", "3", "--type", "2",
            "--p", "2", "--mode", "sample", "--samples", "5", "--seed", "11"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    # A sample without a violation proves nothing, so it is not "holds".
    assert code1 == code2 == EXIT_NO_VIOLATION_FOUND
    assert out1 == out2
    report = json.loads(out1)
    assert (report["verdict"], report["seed"]) == ("no_violation_found", 11)


def test_check_ucep_bad_counts_rejected_before_build(capsys, monkeypatch):
    import kneserlab.cli as cli
    from kneserlab.coclique import MAX_SAMPLES

    built = []
    monkeypatch.setattr(cli, "build_graph", built.append)
    spec = ["check-ucep", "--family", "A", "--rank", "4", "--type", "2,3",
            "--p", "2"]
    over = "sample count %d is more than the limit of %d" % (MAX_SAMPLES + 1, MAX_SAMPLES)
    for extra, why in ((["--mode", "sample", "--samples", "0"], "at least 1"),
                       (["--mode", "sample", "--samples", "-5"], "at least 1"),
                       (["--mode", "sample"], "at least 1"),
                       (["--mode", "sample", "--samples", str(MAX_SAMPLES + 1)], over),
                       (["--mode", "all", "--samples", "-5", "--seed", "9"], "exhaustive mode"),
                       (["--mode", "all", "--samples", "3"], "got samples=3, seed=None"),
                       (["--seed", "9"], "got samples=None, seed=9")):
        code, out, err = run(capsys, *spec, *extra)
        assert code == EXIT_USAGE
        assert out == ""
        assert why in err
    # There is no worker pool, so no --jobs flag.
    with pytest.raises(SystemExit) as exc:
        main([*spec, "--jobs", "1"])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --jobs 1" in capsys.readouterr().err
    assert built == []


@pytest.mark.parametrize("rank,types,size", [("7", "1,7", 56), ("5", "2,4", 90)])
def test_check_ucep_refuses_too_many_apartment_cocliques_before_build(
        capsys, monkeypatch, rank, types, size):
    # A7 {1,7} and A5 {2,4} over F_2 pass the vertex limit; their Sigma is a
    # matching with 2^28 and 2^45 transversals. D5 lines over F_2 (2^20)
    # passes.
    import kneserlab.cli as cli
    from kneserlab.buildings import BuildingSpec
    from kneserlab.coclique import MAX_COCLIQUES, check_apartment

    monkeypatch.setattr(cli, "build_graph", None)
    code, out, err = run(capsys, "check-ucep", "--family", "A", "--rank", rank,
                         "--type", types, "--p", "2", "--mode", "all")
    assert (code, out) == (EXIT_USAGE, "")
    assert ("the apartment has %d vertices and %d maximal cocliques, more than the limit of %d"
            % (size, 2 ** (size // 2), MAX_COCLIQUES)) in err
    check_apartment(BuildingSpec("D", 5, 2, (2,)))


def test_build_over_vertex_limit_exit_2(capsys, monkeypatch):
    import kneserlab.buildings as buildings

    def never(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(buildings, "enumerate_subspaces", never)
    code, out, err = run(capsys, "build", "--family", "A", "--rank", "7",
                         "--type", "3", "--p", "7")
    assert code == EXIT_USAGE
    assert out == ""
    assert "5670690600800 vertices" in err


@pytest.mark.parametrize("family,rank,types,p", [
    ("A", "300", "150", "2"),
    ("D", "2000", "1", "2"),
    ("A", "1000000000000", "1", "2"),
    ("C", "1000000000000", "5", "2"),
    ("D", "1000000000000", "1", "3"),
])
@pytest.mark.parametrize("command", ["build", "check-ucep", "export"])
def test_oversized_spec_refused_quickly(capsys, tmp_path, command, family, rank, types, p):
    # The count is bounded before it is printed or any form is made: these
    # specs have far more than 10^18 vertices, and past dimension 64 no
    # power of p is computed. export reads the spec from a stored graph.
    t0 = time.perf_counter()
    if command == "export":
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({"schema": 1, "spec": {
            "family": family, "rank": int(rank), "p": int(p), "types": [int(types)]}}))
        code, out, err = run(capsys, "export", "--input", str(path))
    else:
        code, out, err = run(capsys, command, "--family", family, "--rank", rank,
                             "--type", types, "--p", p)
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (EXIT_USAGE, "")
    assert "'family': '%s', 'rank': %s" % (family, rank) in err
    assert "over 10^18 vertices, more than the limit of 32768" in err


def test_check_ucep_odd_d_family_exit_2(capsys, monkeypatch):
    # One family of maximal spaces of D_3 has no opposite pairs; it was a
    # vacuous "holds" over one coclique and 0 edges.
    import kneserlab.buildings as buildings

    monkeypatch.setattr(buildings, "_vertices", None)
    code, out, err = run(capsys, "check-ucep", "--family", "D", "--rank", "3",
                         "--type", "3", "--p", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert "not self-opposite" in err


def test_export_refuses_a_type_build_refuses(capsys, tmp_path):
    # One D_3 family of maximal spaces (15 vertices, 0 edges) and the A_3
    # point-line flags are built only through the graph cache; export
    # refuses them as build does, with the same message.
    import kneserlab.buildings as buildings
    import kneserlab.cli as cli
    from kneserlab.buildings import BuildingSpec

    path = tmp_path / "graph.json"
    for spec in (BuildingSpec("D", 3, 2, (3,)), BuildingSpec("A", 3, 2, (1, 2))):
        path.write_text(json.dumps(cli.graph_to_dict(buildings._graph(spec))))
        code, out, err = run(capsys, "export", "--input", str(path), "--format", "dimacs")
        assert (code, out) == (EXIT_USAGE, ""), spec
        built = run(capsys, "build", "--family", spec.family, "--rank", str(spec.rank),
                    "--type", ",".join(map(str, spec.types)), "--p", str(spec.p))
        assert built == (EXIT_USAGE, "", err), spec
        assert "not self-opposite" in err


@pytest.mark.parametrize("types", ["1,2", "2,3"])
def test_check_ucep_refuses_a_type_build_refuses(capsys, monkeypatch, types):
    # A_6 {1,2} and {2,3} over F_2 are not self-opposite. check-ucep
    # --mode all refuses them for that reason, as build does, and not by
    # the Sigma bound ({1,2}) or the vertex count ({2,3}).
    import kneserlab.buildings as buildings

    monkeypatch.setattr(buildings, "_vertices", None)
    spec = ["--family", "A", "--rank", "6", "--type", types, "--p", "2"]
    checked = run(capsys, "check-ucep", *spec, "--mode", "all")
    assert checked == run(capsys, "build", *spec)
    assert checked[:2] == (EXIT_USAGE, "")
    assert "not self-opposite" in checked[2]


def test_verify_fixtures_all(capsys):
    code, out, _ = run(capsys, "verify-fixtures")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["certified"] == 4
    assert {r["case"] for r in data["fixtures"]} == {
        "B3_2", "C3_3", "D4_34", "A_flags"
    }


@pytest.mark.parametrize("rank", ["-3", "0"])
def test_rank_below_one_is_named(capsys, rank):
    code, out, err = run(capsys, "check-ucep", "--family", "A", "--rank", rank,
                         "--type", "1", "--p", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert "rank must be at least 1, not %s" % rank in err


def test_verify_fixtures_single_case(capsys):
    code, out, _ = run(capsys, "verify-fixtures", "--case", "D4_34")
    assert code == EXIT_OK
    assert json.loads(out)["certified"] == 1


def test_verify_fixtures_bad_characteristic_exit_usage(capsys):
    code, _, _ = run(capsys, "verify-fixtures", "--case", "B3_2", "--p", "2")
    assert code == EXIT_USAGE


def test_verify_fixtures_p_without_case_exit_usage(capsys, monkeypatch):
    import kneserlab.cli as cli

    certified = []
    monkeypatch.setattr(cli, "verify_nonexample", lambda *a, **k: certified.append(a))
    code, out, err = run(capsys, "verify-fixtures", "--p", "5")
    assert (code, out, certified) == (EXIT_USAGE, "", [])
    assert "--p needs --case" in err


def test_fixture_integrity_exit_4(capsys, monkeypatch):
    import kneserlab.cli as cli
    from kneserlab.errors import FixtureIntegrityError

    def broken(case, p=None):
        raise FixtureIntegrityError("fixture assertion failed: tampered")

    monkeypatch.setattr(cli, "verify_nonexample", broken)
    code, _, err = run(capsys, "verify-fixtures", "--case", "B3_2")
    assert code == EXIT_FIXTURE
    assert "tampered" in err


def test_cross_validate_exit_0(capsys):
    for family, rank, types in [("A", "3", "2"), ("A", "2", "1,2"),
                                ("D", "4", "2")]:
        code, out, _ = run(
            capsys, "cross-validate", "--family", family, "--rank", rank,
            "--type", types, "--p", "2"
        )
        assert code == EXIT_OK
        assert json.loads(out)["ok"]


@pytest.mark.parametrize("rank,types", [("3", "2"), ("3", "3"), ("5", "4"), ("5", "5")])
def test_cross_validate_refuses_a_type_with_no_opposite_pairs(capsys, rank, types):
    # One family of maximal spaces of D_n with n odd has no opposite pairs,
    # so the coset relation X w0 X does not describe it: a usage error, as
    # in build, not a mismatch.
    code, out, err = run(capsys, "cross-validate", "--family", "D", "--rank", rank,
                         "--type", types, "--p", "2")
    assert (code, out) == (EXIT_USAGE, "")
    assert "'family': 'D', 'rank': %s, 'p': 2, 'types': [%s]" % (rank, types) in err
    assert "no opposite pairs" in err


def test_cross_validate_a3_point_line_flags(capsys):
    # A_3 {1,2} is not self-opposite either, yet its coset and geometric
    # apartments agree.
    code, out, _ = run(capsys, "cross-validate", "--family", "A", "--rank", "3",
                       "--type", "1,2", "--p", "2")
    assert (code, out) == (EXIT_OK, '{"edges": 12, "family": "A", "ok": true, "p": 2, '
                           '"rank": 3, "types": [1, 2], "vertices": 12}\n')


def test_cross_validate_size_limits(capsys, monkeypatch):
    # Refused by apartment_graph before any coset or frame is made: A_6
    # chambers, with 7! = 5040 frames past buildings.MAX_FRAMES; A_63
    # points, whose dimension 64 has point ids past int64; B_7 and B_10
    # maximal spaces over F_7, with 128 and 1024 frames but 137257 and
    # 47079208 points per frame, past buildings.MAX_POINT_IDS.
    import kneserlab.buildings as buildings

    def made(*args):
        raise AssertionError("made before the refusal")

    monkeypatch.setattr(buildings, "ParabolicQuotient", made)
    monkeypatch.setattr(buildings.BuildingSpec, "frames", property(made))
    monkeypatch.setattr(buildings, "_rows", made)
    for family, rank, types, p, named in [
            ("A", "6", "1,2,3,4,5,6", "2", "5040 frames"), ("A", "63", "1", "2", "dimension 64"),
            ("B", "7", "7", "7", "17568896 point ids"), ("B", "10", "10", "7", "48209108992 point ids")]:
        code, out, err = run(capsys, "cross-validate", "--family", family, "--rank", rank,
                             "--type", types, "--p", p)
        assert (code, out) == (EXIT_USAGE, "")
        assert named in err


def test_cross_validate_within_the_limits(capsys):
    # A_6 lines, and A_62 points in F_2^63, whose largest point id is
    # 2^63 - 1.
    for rank, types in [("6", "2"), ("62", "1")]:
        code, out, _ = run(capsys, "cross-validate", "--family", "A", "--rank", rank,
                           "--type", types, "--p", "2")
        assert code == EXIT_OK
        assert json.loads(out)["ok"]


def test_cross_validate_rank_5(capsys):
    code, out, _ = run(
        capsys, "cross-validate", "--family", "A", "--rank", "5", "--type",
        "2,4", "--p", "2"
    )
    assert code == EXIT_OK
    assert json.loads(out)["vertices"] == 90


def test_cross_validate_mismatch_exit_5(capsys, monkeypatch):
    import kneserlab.cli as cli

    def mismatch(spec):
        return {"ok": False, "mismatch": {"kind": "adjacency"}}

    monkeypatch.setattr(cli, "cross_validate", mismatch)
    code, _, err = run(
        capsys, "cross-validate", "--family", "A", "--rank", "3", "--type",
        "2", "--p", "2"
    )
    assert code == EXIT_CROSSVAL
    assert "mismatch" in err


def test_export_too_deeply_nested_input(capsys, tmp_path):
    # 990 nested arrays under an extra key make json.load raise
    # RecursionError: a usage error that names --input, not a traceback.
    path = tmp_path / "graph.json"
    path.write_text('{"schema": 1, "extra": %s%s}' % ("[" * 990, "]" * 990))
    code, out, err = run(capsys, "export", "--input", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    assert "--input %s is nested too deeply" % path in err


def test_export_round_trip(capsys, tmp_path):
    graph_path = tmp_path / "graph.json"
    code, _, _ = run(
        capsys, "build", "--family", "A", "--rank", "3", "--type", "2",
        "--p", "2", "-o", str(graph_path)
    )
    assert code == EXIT_OK
    code, dimacs_out, _ = run(
        capsys, "export", "--input", str(graph_path), "--format", "dimacs"
    )
    assert code == EXIT_OK
    assert "p edge 35 280" in dimacs_out
    # Exporting back to JSON reproduces the stored graph bytewise.
    code, json_out, _ = run(
        capsys, "export", "--input", str(graph_path), "--format", "json"
    )
    assert code == EXIT_OK
    assert json.loads(json_out) == json.loads(graph_path.read_text())
    # Key order and whitespace do not matter: a re-indented, key-reversed
    # copy exports the same bytes.
    copy = tmp_path / "copy.json"
    copy.write_text(json.dumps(dict(reversed(json.loads(json_out).items())), indent=2))
    for fmt, want in (("dimacs", dimacs_out), ("json", json_out)):
        assert run(capsys, "export", "--input", str(copy), "--format", fmt) == (EXIT_OK, want, "")


def test_export_bad_schema(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for text in ('{"schema": 99}', '[1, 2]'):
        path.write_text(text)
        code, _, err = run(capsys, "export", "--input", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: unsupported graph schema")

    def built(family, rank, types):
        code, out, _ = run(capsys, "build", "--family", family, "--rank", str(rank),
                           "--type", types, "--p", "2")
        assert code == EXIT_OK
        return json.loads(out)

    def vertex_0(data, flag):
        return dict(data, vertices=[flag] + data["vertices"][1:])

    def coordinate(*cols):
        return [[int(j == c) for j in range(8)] for c in cols]

    # Well-formed files (PG(2,2) points, the complete graph K_7; PG(2,2)
    # point-line flags; one D_4 family of maximal spaces over F_2), then
    # one broken field at a time.
    good, flags, maximal = built("A", 2, "1"), built("A", 2, "1,2"), built("D", 4, "4")
    cases = [(dict(good, **{key: value}), "error: ") for key, value in [
        ("edges", [[0, 7]]),
        ("edges", [[-1, 2]]),
        ("edges", [[3, 3]]),
        ("sigma", [0, 7]),
        ("num_vertices", 8),
        ("spec", dict(good["spec"], selector="plus")),
    ]]
    cases += [({k: v for k, v in good.items() if k != "spec"}, "error: stored graph has no 'spec'")]
    cases += [({k: v for k, v in good.items() if k != key}, DIFFERS + "%s: stored nothing" % key)
              for key in ("vertices", "edges", "sigma")]
    cases += [(dict(good, spec=dict(good["spec"], **{key: value})), "error: %s must be" % key)
              for key, value in [("rank", "2"), ("types", 1), ("types", ["1"]), ("p", None),
                                 ("family", 1)]]
    cases += [(dict(good, spec=[]), "error: stored 'spec'")]
    cases += [(dict(good, **{key: value}), DIFFERS + "%s: stored %s," % (key, json.dumps(value)))
              for key, value in [("vertices", 3), ("edges", {}), ("sigma", 0)]]
    cases += [(dict(good, edges=[edge]), DIFFERS + "edges[0]: stored %s," % edge)
              for edge in ([0, 1, 2], [0], 5)]
    cases += [(vertex_0(good, flag), DIFFERS + "vertices[0]: ") for flag in (
        [[[1, 0]]],                 # ambient 2, where A_2 needs 3
        [[[1, 0, 0]], [[0, 1, 0]]],  # two parts for one type
        [[[1, 0, 0], [0, 1, 0]]],    # a line for a point
        [[[1, 2, 0]]],              # an entry outside F_2
        [[[0, 0, 0]]],              # not a basis
    )]
    cases += [(vertex_0(flags, flag), DIFFERS + "vertices[0]: ") for flag in (
        [[[0, 0, 1]], [[1, 0, 0], [0, 1, 0]]],  # the point is off the line
        [[[1, 0, 0]], [[1, 1, 0], [0, 1, 0]]],  # not reduced
    )]
    cases += [(vertex_0(maximal, flag), DIFFERS + "vertices[0]: ") for flag in (
        [coordinate(0, 1, 2, 3)],  # not singular, but meets <e_1, .., e_4> evenly, like plus
        [coordinate(0, 2, 4, 7)],  # the minus family
    )]
    # The vertex list repeated three times, two vertices swapped, and a
    # spec past MAX_VERTICES.
    v = good["vertices"]
    cases += [(dict(good, vertices=v * 3, num_vertices=21),
               DIFFERS + "num_vertices: stored 21, build writes 7"),
              (dict(good, spec=dict(good["spec"], rank=300, types=[150])),
               "error: spec {'family': 'A', 'rank': 300, 'p': 2, 'types': [150]} has over 10^18"),
              (dict(good, vertices=v[:1] + v[2:0:-1] + v[3:]),
               DIFFERS + "vertices[1]: stored %s" % json.dumps(v[2]))]
    for data, want in cases:
        path.write_text(json.dumps(data))
        for fmt in ("dimacs", "json"):
            code, out, err = run(capsys, "export", "--input", str(path), "--format", fmt)
            assert code == EXIT_USAGE, data
            assert out == ""
            assert err.startswith(want), err
    for data in (good, flags, maximal):
        path.write_text(json.dumps(data))
        code, out, _ = run(capsys, "export", "--input", str(path), "--format", "json")
        assert (code, json.loads(out)) == (EXIT_OK, data)
    # "selector" must agree with the type.
    for selector, want in (("minus", EXIT_USAGE), ("plus", EXIT_OK)):
        path.write_text(json.dumps(dict(maximal, spec=dict(maximal["spec"], selector=selector))))
        code, _, _ = run(capsys, "export", "--input", str(path))
        assert code == want, selector


def test_export_names_first_bad_edge_in_file_order(capsys, tmp_path):
    path = tmp_path / "graph.json"
    code, out, _ = run(capsys, "build", "--family", "A", "--rank", "2", "--type", "1",
                       "--p", "2")
    assert code == EXIT_OK
    good = json.loads(out)
    for edges, want in [
        ([[0, 1], [3, 3], [0, 7], [1, 2, 3]], DIFFERS + "edges[1]: stored [3, 3],"),
        ([[0, 1], [0, 7], [3, 3]], DIFFERS + "edges[1]: stored [0, 7],"),
        ([[0, 1], [2 ** 70, 1], [3, 3]], DIFFERS + "edges[1]: stored [%d, 1]," % 2 ** 70),
        ([[0, 1], [1, True], [3, 3]], DIFFERS + "edges[1]: stored [1, true],"),
        ([[0, 1], [0, 1.0], [3, 3]], DIFFERS + "edges[1]: stored [0, 1.0],"),
        ([[0, 1], [0, 1, 2], [2 ** 70, 1]], DIFFERS + "edges[1]: stored [0, 1, 2],"),
    ]:
        path.write_text(json.dumps(dict(good, edges=edges)))
        code, out, err = run(capsys, "export", "--input", str(path))
        assert (code, out) == (EXIT_USAGE, ""), edges
        assert err.startswith(want), err


def built_json(capsys, family, rank, types):
    code, out, _ = run(capsys, "build", "--family", family, "--rank", str(rank),
                       "--type", types, "--p", "2")
    assert code == EXIT_OK
    return json.loads(out)


def export_refused(capsys, path, data):
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "export", "--input", str(path))
    assert (code, out) == (EXIT_USAGE, "")
    return err


def test_export_refuses_a_graph_that_build_does_not_write(capsys, tmp_path):
    # A stored graph is valid iff it is what build writes for its spec.
    # Each file below differs from that in one place, which export names.
    path = tmp_path / "graph.json"
    points = built_json(capsys, "A", 2, "1")
    err = export_refused(capsys, path, dict(points, edges=[[0, 1]], sigma=[0, 1, 2]))
    assert err == DIFFERS + "edges[1]: stored nothing, build writes [0, 2]\n"

    lines = built_json(capsys, "A", 3, "2")
    edges, sigma = lines["edges"], lines["sigma"]
    non_edge = next([0, j] for j in range(1, 35) if [0, j] not in edges)
    k = next(k for k, e in enumerate(edges) if e > non_edge)
    one = next(k for k, e in enumerate(edges) if e[0] == 1)
    outside = next(v for v in range(35) if v not in sigma)
    for data, want in [
        (dict(lines, edges=edges[:5] + edges[6:]),
         "edges[5]: stored %s, build writes %s" % (edges[6], edges[5])),
        (dict(lines, edges=edges[:k] + [non_edge] + edges[k:]),
         "edges[%d]: stored %s, build writes %s" % (k, non_edge, edges[k])),
        (dict(lines, sigma=sigma[:2] + [outside] + sigma[3:]),
         "sigma[2]: stored %d, build writes %d" % (outside, sigma[2])),
        (dict(lines, comment="x"), 'comment: stored "x", build writes nothing'),
        (dict(lines, edges=edges[:one] + [[True, edges[one][1]]] + edges[one + 1:]),
         "edges[%d]: stored [true, %d], build writes [1, %d]"
         % (one, edges[one][1], edges[one][1])),
    ]:
        assert export_refused(capsys, path, data) == DIFFERS + want + "\n"

    # The one D_4 family of maximal spaces that build names "plus".
    maximal = built_json(capsys, "D", 4, "4")
    spec = {k: v for k, v in maximal["spec"].items() if k != "selector"}
    err = export_refused(capsys, path, dict(maximal, spec=spec))
    assert err == DIFFERS + 'spec.selector: stored nothing, build writes "plus"\n'


def test_first_difference_is_the_first_in_dump_order():
    from kneserlab.cli import _first_difference

    built = [[i, i + 1] for i in range(9)]
    for i in range(9):
        assert _first_difference(built[:i], built, "e")[0] == "e[%d]" % i
        assert _first_difference(built[:i] + [[0]] + built[i:], built, "e")[0] == "e[%d]" % i
    assert _first_difference(built + [[0]], built, "e")[:2] == ("e[9]", [0])
    for i in range(9):
        for bad in ([i, True], [i, i + 1.0], [i], None):
            stored = built[:i] + [bad] + built[i + 1:]
            assert _first_difference(stored, built, "e") == ("e[%d]" % i, bad, built[i])
    assert _first_difference({"b": [1], "a": 2}, {"b": [2], "a": 2.0}) == ("a", 2, 2.0)
    assert _first_difference({"a": {"c": 1}}, {"a": {"c": 1, "b": 0}})[0] == "a.b"


def test_bad_paths_exit_usage(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    code, out, err = run(capsys, "export", "--input", str(missing))
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: --input %s: No such file or directory\n" % missing)
    truncated = tmp_path / "truncated.json"
    truncated.write_text(json.dumps(built_json(capsys, "A", 2, "1"))[:40])
    code, out, err = run(capsys, "export", "--input", str(truncated))
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: --input %s is not JSON: " % truncated)
    assert "line 1 column " in err
    target = tmp_path / "no" / "dir" / "x.json"
    code, out, err = run(capsys, "build", "--family", "A", "--rank", "2", "--type", "1",
                         "--p", "2", "-o", str(target))
    assert (code, out, err) == (EXIT_USAGE, "",
                                "error: --output %s: No such file or directory\n" % target)


def test_render_refused_past_edge_bound(capsys, tmp_path, monkeypatch):
    # A_2 points over F_2 has 21 edges; a bound of 20 refuses JSON and
    # DIMACS before rendering, for build and export alike, but not text.
    import kneserlab.cli as cli

    path = tmp_path / "graph.json"
    path.write_text(json.dumps(built_json(capsys, "A", 2, "1")))
    monkeypatch.setattr(cli, "MAX_RENDER_EDGES", 20)
    monkeypatch.setattr(cli, "graph_to_dict", None)
    monkeypatch.setattr(cli, "graph_to_dimacs", None)
    refused = (EXIT_USAGE, "", "error: spec {'family': 'A', 'rank': 2, 'p': 2, 'types': [1]} "
               "has 21 edges, more than the render limit of 20\n")
    argv = ["build", "--family", "A", "--rank", "2", "--type", "1", "--p", "2"]
    for fmt in ("json", "dimacs"):
        assert run(capsys, *argv, "--format", fmt) == refused
        assert run(capsys, "export", "--input", str(path), "--format", fmt) == refused
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == EXIT_OK and "edges: 21" in out


C3_POINTS = ["--family", "C", "--rank", "3", "--type", "1", "--p", "2"]


@pytest.mark.parametrize("argv", [
    ["build", *C3_POINTS, "--format", "json"],
    ["build", *C3_POINTS, "--format", "dimacs"],
    ["build", *C3_POINTS, "--format", "text"],
    ["check-ucep", *C3_POINTS, "--mode", "all"],
    ["check-ucep", "--family", "A", "--rank", "4", "--type", "2,3", "--p", "2"],
    ["check-ucep", "--family", "A", "--rank", "3", "--type", "2", "--p", "2",
     "--mode", "sample", "--samples", "5", "--seed", "11"],
    ["verify-fixtures"],
    ["cross-validate", "--family", "A", "--rank", "3", "--type", "2", "--p", "2"],
    ["export", "--input", "GRAPH"],
], ids=["build-json", "build-dimacs", "build-text", "check-ucep-holds", "check-ucep-fails",
        "check-ucep-sample", "verify-fixtures", "cross-validate", "export"])
def test_stdout_reproduces_bytewise(capsys, tmp_path, argv):
    # A full command line reproduces its run: the same exit code and bytes.
    graph = tmp_path / "graph.json"
    assert main(["build", *C3_POINTS, "-o", str(graph)]) == EXIT_OK
    argv = [str(graph) if arg == "GRAPH" else arg for arg in argv]
    first = run(capsys, *argv)
    assert first[1] and first == run(capsys, *argv)


def test_render_refuses_an_unknown_format():
    # argparse's choices keep it from the command line; the renderer
    # still names a format it has no writer for.
    with pytest.raises(UsageError, match="^unknown format 'xml'$"):
        _render_graph(build_graph(BuildingSpec("A", 2, 2, (1,))), "xml")
