"""Command-line surface: build graphs, run UCEP checks, verify fixtures,
cross-validate against the coset model, and export graphs.

Exit codes: 0 ok/holds, 2 usage error, 3 UCEP fails (with a witness that
verify_witness has certified), 4 fixture-integrity error (a fixture or a
`fails` witness that does not certify), 5 cross-validation mismatch. All
inputs come from flags (no environment variables), so a full command line
reproduces a run bytewise, including the sampling seed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

import numpy as np

from .buildings import (
    SCHEMA,
    BuildingSpec,
    KneserGraph,
    build_graph,
    edge_rows,
    self_opposite_geometry,
    vertex_count,
    vertex_key,
    vertex_lists,
)
from .coclique import check_scan_args, check_ucep
from .crossval import cross_validate
from .errors import (
    CrossValidationError,
    FixtureIntegrityError,
    KneserlabError,
    UsageError,
)
from .fixtures import CASES, verify_nonexample, verify_witness

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UCEP_FAILS = 3
EXIT_FIXTURE = 4
EXIT_CROSSVAL = 5


def _spec_from_args(args):
    if args.family is None or args.rank is None or args.type is None or args.p is None:
        raise UsageError("--family, --rank, --type and --p are all required")
    try:
        types = tuple(int(t) for t in args.type.split(","))
    except ValueError:
        raise UsageError("--type must be a comma-separated list of integers")
    return BuildingSpec(args.family, args.rank, args.p, types)


def graph_to_dict(graph):
    return {
        "schema": SCHEMA,
        "spec": graph.spec.to_dict(),
        "num_vertices": graph.num_vertices,
        "vertices": [vertex_lists(flag) for flag in graph.vertices],
        "sigma": list(graph.sigma),
        "edges": list(zip(*graph.edges().T.tolist())),
    }


def graph_to_dimacs(graph):
    """DIMACS text: 1-based vertex labels, one `e i j` line per edge in row
    order, each row's lines made by one join."""
    n = graph.num_vertices
    labels = [str(i + 1) for i in range(n)]
    lines = ["c kneserlab graph"]
    lines.append("c spec %s" % json.dumps(graph.spec.to_dict(), sort_keys=True))
    lines.append("c sigma %s" % " ".join(labels[i] for i in graph.sigma))
    edges = graph.edges()
    lines.append("p edge %d %d" % (n, len(edges)))
    heads = edges[:, 1].tolist()
    starts = np.searchsorted(edges[:, 0], np.arange(n + 1)).tolist()
    for tail, a, b in zip(labels, starts, starts[1:]):
        if a < b:
            prefix = "e %s " % tail
            lines.append(prefix + ("\n" + prefix).join(map(labels.__getitem__, heads[a:b])))
    return "\n".join(lines) + "\n"


def graph_to_text(graph):
    lines = [
        "spec: %s" % json.dumps(graph.spec.to_dict(), sort_keys=True),
        "vertices: %d" % graph.num_vertices,
        "edges: %d" % graph.num_edges(),
        "apartment vertices: %d" % len(graph.sigma),
    ]
    return "\n".join(lines) + "\n"


def _render_graph(graph, fmt):
    if fmt == "json":
        return json.dumps(graph_to_dict(graph), sort_keys=True) + "\n"
    if fmt == "dimacs":
        return graph_to_dimacs(graph)
    if fmt == "text":
        return graph_to_text(graph)
    raise UsageError("unknown format %r" % fmt)


def _write(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def cmd_build(args):
    spec = _spec_from_args(args)
    graph = build_graph(spec)
    _write(_render_graph(graph, args.format), args.output)
    return EXIT_OK


def cmd_check_ucep(args):
    spec = _spec_from_args(args)
    check_scan_args(args.mode, args.samples, args.seed)
    graph = build_graph(spec)
    report = check_ucep(graph, mode=args.mode, samples=args.samples, seed=args.seed)
    if report.verdict == "fails":
        witness = report.witness
        verify_witness(spec, witness["coclique"], witness["x"], witness["y"])
    _write(json.dumps(report.to_dict(), sort_keys=True) + "\n", args.output)
    return EXIT_OK if report.verdict == "holds" else EXIT_UCEP_FAILS


def cmd_verify_fixtures(args):
    if args.p is not None and not args.case:
        raise UsageError("--p needs --case: each fixture is certified at its own p")
    cases = [args.case] if args.case else list(CASES)
    reports = []
    for case in cases:
        reports.append(verify_nonexample(case, p=args.p))
    payload = {"schema": SCHEMA, "fixtures": reports, "certified": len(reports)}
    _write(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def cmd_cross_validate(args):
    spec = _spec_from_args(args)
    if spec.rank > 4:
        raise UsageError("cross-validation is limited to rank <= 4")
    report = cross_validate(spec)
    _write(json.dumps(report, sort_keys=True) + "\n", args.output)
    if not report["ok"]:
        raise CrossValidationError(report["mismatch"])
    return EXIT_OK


def _vertex_index(value, n, what):
    if type(value) is not int or not 0 <= value < n:
        raise UsageError("%s %r is not a vertex index in 0..%d" % (what, value, n - 1))
    return value


def _check_edge(edge, n):
    if type(edge) is not list or len(edge) != 2:
        raise UsageError("edge %r is not a pair of vertex indices" % (edge,))
    i, j = edge
    if _vertex_index(i, n, "edge end") == _vertex_index(j, n, "edge end"):
        raise UsageError("edge [%d, %d] is a self-loop" % (i, j))


def _edge_pairs(edges, n):
    """The stored edges as an (E, 2) array. Pair shape and JSON int types
    are checked in one pass, range and self-loops on the array; if any edge
    is bad, _check_edge names the first in file order."""
    pairs = None
    if all(type(e) is list and len(e) == 2 and type(e[0]) is int and type(e[1]) is int
           for e in edges):
        with contextlib.suppress(OverflowError):  # beyond int64, so out of range
            pairs = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64,
                                count=2 * len(edges)).reshape(-1, 2)
    if pairs is None or not (((pairs >= 0) & (pairs < n)).all()
                             and (pairs[:, 0] != pairs[:, 1]).all()):
        for edge in edges:
            _check_edge(edge, n)
    return pairs


def _field(data, key, kind):
    """data[key], which must be of the JSON type `kind`."""
    if key not in data:
        raise UsageError("stored graph has no %r" % key)
    if type(data[key]) is not kind:
        raise UsageError("stored %r is %r, not a JSON %s" % (key, data[key], kind.__name__))
    return data[key]


def cmd_export(args):
    with open(args.input) as handle:
        data = json.load(handle)
    schema = data.get("schema") if type(data) is dict else None
    if schema != SCHEMA:
        raise UsageError("unsupported graph schema %r" % (schema,))
    stored = _field(data, "spec", dict)
    types = _field(stored, "types", list)
    if not all(type(t) is int for t in types):
        raise UsageError("stored 'types' %r is not a list of integers" % (types,))
    spec = BuildingSpec(_field(stored, "family", str), _field(stored, "rank", int),
                        _field(stored, "p", int), tuple(types))
    if "selector" in stored and stored["selector"] != spec.to_dict().get("selector"):
        raise UsageError("selector %r contradicts the type set %s"
                         % (stored["selector"], list(spec.types)))
    geo = self_opposite_geometry(spec)
    flags, n = _field(data, "vertices", list), vertex_count(spec)
    if len(flags) != n:
        raise UsageError("stored graph lists %d vertices, but spec %s has %d"
                         % (len(flags), spec.to_dict(), n))
    vertices = [geo.vertex(flag, i) for i, flag in enumerate(flags)]
    keys = [vertex_key(flag) for flag in vertices]
    for i in range(1, n):
        if keys[i - 1] >= keys[i]:
            raise UsageError("vertex %d does not come after vertex %d in canonical order"
                             % (i, i - 1))
    if data.get("num_vertices") != n:
        raise UsageError("num_vertices %r does not match the %d vertices listed"
                         % (data.get("num_vertices"), n))
    adjacency = list(edge_rows(n, _edge_pairs(_field(data, "edges", list), n)))
    sigma = [_vertex_index(v, n, "sigma entry") for v in _field(data, "sigma", list)]
    graph = KneserGraph(spec, vertices, adjacency, sigma)
    _write(_render_graph(graph, args.format), args.output)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kneserlab",
        description="Kneser graphs of buildings over small prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(sp):
        sp.add_argument("--family", choices=["A", "B", "C", "D", "G"])
        sp.add_argument("--rank", type=int)
        sp.add_argument("--type", help="comma-separated type set, e.g. 2 or 1,3")
        sp.add_argument("--p", type=int)
        sp.add_argument("--output", "-o")

    sp = sub.add_parser("build", help="build a Kneser graph and write it out")
    add_spec_flags(sp)
    sp.add_argument("--format", choices=["json", "dimacs", "text"], default="json")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("check-ucep", help="decide UCEP for a building spec")
    add_spec_flags(sp)
    sp.add_argument("--mode", choices=["all", "sample"], default="all")
    sp.add_argument("--samples", type=int)
    sp.add_argument("--seed", type=int)
    sp.set_defaults(func=cmd_check_ucep)

    sp = sub.add_parser("verify-fixtures", help="certify the counterexample fixtures")
    sp.add_argument("--case", choices=list(CASES))
    sp.add_argument("--p", type=int)
    sp.add_argument("--output", "-o")
    sp.set_defaults(func=cmd_verify_fixtures)

    sp = sub.add_parser(
        "cross-validate", help="compare geometric apartment with the coset model"
    )
    add_spec_flags(sp)
    sp.set_defaults(func=cmd_cross_validate)

    sp = sub.add_parser("export", help="convert a stored JSON graph to another format")
    sp.add_argument("--input", required=True)
    sp.add_argument("--format", choices=["json", "dimacs", "text"], default="dimacs")
    sp.add_argument("--output", "-o")
    sp.set_defaults(func=cmd_export)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except FixtureIntegrityError as exc:
        print("fixture integrity error: %s" % exc, file=sys.stderr)
        return EXIT_FIXTURE
    except CrossValidationError as exc:
        print("cross-validation mismatch: %s" % exc, file=sys.stderr)
        return EXIT_CROSSVAL
    except KneserlabError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
