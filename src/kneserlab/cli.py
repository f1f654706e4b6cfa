"""Command-line surface: build graphs, run UCEP checks, verify fixtures,
cross-validate against the coset model, and export graphs.

Exit codes: 0 ok/holds, 2 usage error, 3 UCEP fails (with a witness that
verify_witness has certified), 4 fixture-integrity error (a fixture or a
`fails` witness that does not certify), 5 cross-validation mismatch, 6 a
sampled check found no violation (verdict no_violation_found, which is no
proof). All inputs come from flags (no environment variables) and no report
carries a clock reading, so a full command line reproduces a run bytewise,
including the sampling seed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import numpy as np

from .buildings import (FAMILIES, SCHEMA, BuildingSpec, _degree, build_graph,
                        checked_vertex_count, vertex_lists)
from .coclique import check_apartment, check_scan_args, check_ucep
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
EXIT_NO_VIOLATION_FOUND = 6

# The most edges --format json or dimacs renders: JSON peaks at about 100
# bytes per edge (414 MB for the 3.98 M of B_3 lines over F_3, 36 MB of it
# before rendering), so 0.9 GB.
MAX_RENDER_EDGES = 1 << 23


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
        "edges": _edge_pairs(graph),
    }


def _edge_pairs(graph):
    """The edges as (i, j) tuples in row order; every pair holds the ints
    of one object array of range(n), gathered by index, so no edge makes
    int objects of its own."""
    ints = np.array(list(range(graph.num_vertices)), dtype=object)
    pairs = []
    for i, heads in graph.later_neighbours():
        pairs += zip(itertools.repeat(ints[i]), ints[heads].tolist())
    return pairs


def graph_to_dimacs(graph):
    """DIMACS text: 1-based vertex labels, one `e i j` line per edge in row
    order, each row's lines made by one join of its labels, gathered by
    index from one object array of them."""
    n = graph.num_vertices
    labels = np.array([str(i + 1) for i in range(n)], dtype=object)
    lines = ["c kneserlab graph"]
    lines.append("c spec %s" % json.dumps(graph.spec.to_dict(), sort_keys=True))
    lines.append("c sigma %s" % " ".join(labels[i] for i in graph.sigma))
    lines.append("p edge %d %d" % (n, graph.num_edges()))
    for i, heads in graph.later_neighbours():
        prefix = "e %s " % labels[i]
        lines.append(prefix + ("\n" + prefix).join(labels[heads].tolist()))
    return "\n".join(lines) + "\n"


def graph_to_text(graph):
    lines = [
        "spec: %s" % json.dumps(graph.spec.to_dict(), sort_keys=True),
        "vertices: %d" % graph.num_vertices,
        "edges: %d" % graph.num_edges(),
        "apartment vertices: %d" % len(graph.sigma),
    ]
    return "\n".join(lines) + "\n"


def _build(spec, fmt):
    """build_graph(spec) to render as fmt, after build's refusals and, but for
    text, a graph of N * degree / 2 edges past MAX_RENDER_EDGES."""
    edges = checked_vertex_count(spec) * _degree(spec) // 2
    if fmt != "text" and edges > MAX_RENDER_EDGES:
        raise UsageError("spec %s has %d edges, more than the render limit of %d"
                         % (spec.to_dict(), edges, MAX_RENDER_EDGES))
    return build_graph(spec)


def _render_graph(graph, fmt):
    if fmt == "text":
        return graph_to_text(graph)
    if fmt == "json":
        return json.dumps(graph_to_dict(graph), sort_keys=True) + "\n"
    if fmt == "dimacs":
        return graph_to_dimacs(graph)
    raise UsageError("unknown format %r" % fmt)


def _write(text, path):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError("--output %s: %s" % (path, exc.strerror))


def cmd_build(args):
    spec = _spec_from_args(args)
    _write(_render_graph(_build(spec, args.format), args.format), args.output)
    return EXIT_OK


def cmd_check_ucep(args):
    spec = _spec_from_args(args)
    check_scan_args(args.mode, args.samples, args.seed)
    if args.mode == "all":
        check_apartment(spec)
    graph = build_graph(spec)
    report = check_ucep(graph, mode=args.mode, samples=args.samples, seed=args.seed)
    if report.verdict == "fails":
        witness = report.witness
        verify_witness(spec, witness["coclique"], witness["x"], witness["y"])
    _write(json.dumps(report.to_dict(), sort_keys=True) + "\n", args.output)
    return {"holds": EXIT_OK, "no_violation_found": EXIT_NO_VIOLATION_FOUND,
            "fails": EXIT_UCEP_FAILS}[report.verdict]


def cmd_verify_fixtures(args):
    if args.p is not None and not args.case:
        raise UsageError("--p needs --case: each fixture is certified at its own p")
    cases = [args.case] if args.case else list(CASES)
    reports = [verify_nonexample(case, p=args.p) for case in cases]
    payload = {"schema": SCHEMA, "fixtures": reports, "certified": len(reports)}
    _write(json.dumps(payload, sort_keys=True) + "\n", args.output)
    return EXIT_OK


def cmd_cross_validate(args):
    report = cross_validate(_spec_from_args(args))
    _write(json.dumps(report, sort_keys=True) + "\n", args.output)
    if not report["ok"]:
        raise CrossValidationError(report["mismatch"])
    return EXIT_OK


_ABSENT = object()


def _text(value):
    """A JSON value as build writes it; "nothing" for _ABSENT."""
    return "nothing" if value is _ABSENT else json.dumps(value, sort_keys=True)


def _shown(value):
    text = _text(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _first_difference(stored, built, where=""):
    """(where, stored value, built value) where two unequal JSON values first
    differ as json.dumps(sort_keys=True) writes them: objects are walked by
    sorted key; a list is halved down to its first differing index, whose
    items are compared as text, so a built tuple equals a stored list."""
    if type(stored) is dict and type(built) is dict:
        for key in sorted(stored.keys() | built.keys()):
            s, b = stored.get(key, _ABSENT), built.get(key, _ABSENT)
            if _text(s) != _text(b):
                return _first_difference(s, b, "%s.%s" % (where, key) if where else key)
    if type(stored) is list and type(built) is list:
        lo, hi = 0, max(len(stored), len(built))
        while hi - lo > 1:  # the first difference is in lo..hi-1
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if _text(stored[lo:mid]) == _text(built[lo:mid]) else (lo, mid)
        s, b = (v[lo] if lo < len(v) else _ABSENT for v in (stored, built))
        return "%s[%d]" % (where, lo), s, b
    return where, stored, built


def cmd_export(args):
    """A stored graph is valid iff its JSON text is what build writes."""
    try:
        with open(args.input) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise UsageError("--input %s: %s" % (args.input, exc.strerror))
    except ValueError as exc:  # a JSONDecodeError names the line and column
        raise UsageError("--input %s is not JSON: %s" % (args.input, exc))
    except RecursionError:
        raise UsageError("--input %s is nested too deeply to read" % args.input)
    schema = data.get("schema") if type(data) is dict else None
    if schema != SCHEMA:
        raise UsageError("unsupported graph schema %r" % (schema,))
    if "spec" not in data:
        raise UsageError("stored graph has no 'spec'")
    stored = data["spec"]
    if type(stored) is not dict:
        raise UsageError("stored 'spec' is %r, not a JSON dict" % (stored,))
    spec = BuildingSpec(*map(stored.get, ("family", "rank", "p", "types")))
    graph = _build(spec, "json")
    text = _render_graph(graph, "json")
    if json.dumps(data, sort_keys=True) + "\n" != text:
        where, s, b = _first_difference(data, graph_to_dict(graph))
        raise UsageError("stored graph differs from what build writes at %s: stored %s, "
                         "build writes %s" % (where, _shown(s), _shown(b)))
    _write(text if args.format == "json" else _render_graph(graph, args.format), args.output)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kneserlab",
        description="Kneser graphs of buildings over small prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flags(sp):
        sp.add_argument("--family", choices=FAMILIES)
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
