"""The benchmark's two workloads.

Each returns (result, info). `result` holds correct/attempted/failed and
the metrics; `info` holds what a reader wants beside them: the per-phase
times, byte anchors and round counts. A workload attempts whole rounds of
the same operations until `seconds` have passed, at least one round. The
traced variant makes set-up and exactly one round, so its counts are
exact, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from statistics import median

import checker
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The positive grid of the acceptance tests, and the four counterexample
# families of the paper at their smallest sizes here.
POSITIVE = [
    ("A", 3, (1,), 2), ("A", 3, (1,), 3), ("A", 3, (2,), 2), ("A", 3, (2,), 3),
    ("A", 4, (2,), 2), ("A", 4, (2,), 3), ("A", 2, (1, 2), 2), ("A", 3, (1, 3), 2),
    ("C", 3, (1,), 2), ("B", 3, (1,), 3), ("B", 3, (3,), 3), ("G", 2, (1,), 3),
    ("D", 4, (1,), 2), ("D", 4, (2,), 2), ("D", 4, (4,), 2),
]
NEGATIVE = [
    ("B", 3, (2,), 3), ("C", 3, (3,), 3), ("D", 4, (3, 4), 2), ("A", 4, (2, 3), 2),
]
EXIT = {"holds": 0, "fails": 3}

SESSION_GRAPHS = (("D", 4, (2,), 2), ("D", 4, (3, 4), 2))
SESSION_SAMPLES = 256
SESSION_PAIRS = 400

SPAN_GRAPHS = (("A", 3, (2,), 2), ("A", 4, (2,), 2), ("D", 4, (2,), 2))
SPAN_SAMPLE = 224
MATROID_MAX_COLS = 4
MATROID_PAIRS = 600


def phase_times(rounds):
    """Per phase, the sum over its operations of each one's median across rounds.

    Each round maps a phase to the times of its operations, in one order.
    Taking the median per operation, not per round, keeps a slow second of
    the shared machine from moving the figure unless it hits most rounds.
    """
    return {
        phase: sum(median(times) for times in zip(*[r[phase] for r in rounds]))
        for phase in rounds[0]
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def report_anchor(report):
    """sha256 of a check-ucep report with its timing field removed."""
    return sha(json.dumps(
        {k: v for k, v in report.items() if k != "elapsed_ms"}, sort_keys=True))


def cell_argv(cell):
    family, n, types, p = cell
    return ["check-ucep", "--family", family, "--rank", str(n),
            "--type", ",".join(map(str, types)), "--p", str(p), "--mode", "all"]


def run_cli(argv):
    """One fresh `kneserlab` CLI process: (exit code, stdout, wall s, peak RSS MB)."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "kneserlab.cli"] + argv, cwd=ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    with proc.stdout:
        out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, wall, usage.ru_maxrss / 1024.0


def startup_wall():
    """Wall time of one no-op CLI process (interpreter start and import)."""
    code, out, wall, _ = run_cli(["--help"])
    if code != 0:
        raise RuntimeError("kneserlab CLI does not start:\n" + out)
    return wall


def startup_s():
    """Median wall time of three no-op CLI processes."""
    return median(startup_wall() for _ in range(3))


def clear_builder_caches(buildings):
    """Empty the builders' lru_caches, so that the next build is cold."""
    for obj in list(vars(buildings).values()):
        while obj is not None and not hasattr(obj, "cache_clear"):
            obj = getattr(obj, "__wrapped__", None)
        if obj is not None:
            obj.cache_clear()


def import_kneserlab(tracer):
    import kneserlab
    import kneserlab.cli

    if not kneserlab.__file__.startswith(SRC):
        raise RuntimeError("kneserlab imported from %s, not %s" % (kneserlab.__file__, SRC))
    tracer.install()
    return kneserlab


class Checks:
    """Collects the problems found in the program's outputs."""

    def __init__(self):
        self.problems = []
        self.failures = []

    def expect(self, cond, what):
        if not cond:
            self.problems.append(what)

    def spec(self, cell, report, label):
        family, n, types, p = cell
        spec = report.get("spec", {})
        self.expect(
            (spec.get("family"), spec.get("rank"), tuple(spec.get("types", ())),
             spec.get("p")) == (family, n, types, p),
            "%s: report spec %r" % (label, spec))

    def verdict(self, ccell, report, want, count, label):
        """An exhaustive check-ucep report against the paper and the checker."""
        self.expect(report.get("mode") == "all", "%s: mode" % label)
        self.expect(report.get("verdict") == want,
                    "%s: verdict %r, want %r" % (label, report.get("verdict"), want))
        self.expect(report.get("cocliques_checked") == count,
                    "%s: %r cocliques checked, checker counts %d"
                    % (label, report.get("cocliques_checked"), count))
        if report.get("verdict") == "fails":
            self.witness(ccell, report, label)
        else:
            self.expect("witness" not in report, "%s: holds with a witness" % label)

    def witness(self, ccell, report, label):
        found = checker.verify_witness(ccell, report["witness"])
        self.expect(not found, "%s: witness: %s" % (label, "; ".join(found)))

    def same(self, values, label):
        self.expect(len(set(values)) == 1, "%s differs between rounds" % label)


def _label(cell):
    return checker.Cell(*cell).label()


def _coclique_counts(cells):
    return {cell: len(checker.Cell(*cell).sigma_cocliques()) for cell in cells}


def _grid_report(checks, cell, code, out, count):
    """Check one grid cell's CLI outcome; returns its byte anchor."""
    label = _label(cell)
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (ValueError, IndexError):
        report = None
    if code not in EXIT.values() or not isinstance(report, dict):
        checks.failures.append("%s: exit %d: %s" % (label, code, out[-500:]))
        return None
    want = "fails" if cell in NEGATIVE else "holds"
    checks.expect(code == EXIT[want], "%s: exit code %d" % (label, code))
    checks.spec(cell, report, label)
    checks.verdict(checker.Cell(*cell), report, want, count, label)
    return report_anchor(report)


def grid_cold(seed, seconds, traced):
    cells = POSITIVE + NEGATIVE
    random.Random("grid-cold:%d" % seed).shuffle(cells)
    if traced:
        return _grid_cold_traced(cells)
    # The set-up is a no-op CLI start, taken before every fourth cell of the
    # first round: five starts spread over the run steady the median more
    # than five in a row would.
    starts = []
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        runs = []
        for i, cell in enumerate(cells):
            if not rounds and i % 4 == 0:
                starts.append(startup_wall())
            runs.append(run_cli(cell_argv(cell)))
        rounds.append(runs)
    setup = median(starts)
    counts = _coclique_counts(cells)
    checks = Checks()
    anchors = {}
    for runs in rounds:
        for cell, (code, out, _, _) in zip(cells, runs):
            anchors.setdefault(_label(cell), []).append(
                _grid_report(checks, cell, code, out, counts[cell]))
    for label, values in anchors.items():
        checks.same(values, label + " report")
    phases = phase_times([{"ucep_wall_s": [r[2] for r in runs]} for runs in rounds])
    work = phases["ucep_wall_s"]
    result = _result(checks, len(cells) * len(rounds), {
        "setup_s": (setup, "s"),
        "work_s": (work, "s"),
        "peak_rss_mb": (max(r[3] for runs in rounds for r in runs), "MB"),
    })
    info = {
        "rounds": len(rounds),
        "phases": phases,
        "cell_wall_s": {_label(c): median([runs[i][2] for runs in rounds])
                        for i, c in enumerate(cells)},
        "anchors": {label: values[0] for label, values in anchors.items()},
    }
    return result, info


def _grid_cold_traced(cells):
    tracer = tracing.Tracer()
    kneserlab = import_kneserlab(tracer)
    counts = _coclique_counts(cells)
    checks = Checks()
    anchors = {}
    t0 = time.perf_counter()
    for cell in cells:
        clear_builder_caches(kneserlab.buildings)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = kneserlab.cli.main(cell_argv(cell))
        anchors[_label(cell)] = _grid_report(checks, cell, code, buf.getvalue(), counts[cell])
    wall = time.perf_counter() - t0
    tracer.uninstall()
    return _traced_result(tracer, checks, len(cells), wall), {"anchors": anchors}


def _session_round(kneserlab, graphs, seeds, span_inputs, matroid_sets, pairs, tracer):
    cli = kneserlab.cli
    times = {"decide_s": [], "export_s": [], "span_s": [], "matroid_s": []}
    reports, exports = [], []

    def timed(phase, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        times[phase].append(time.perf_counter() - t0)
        return out

    for graph, seed in zip(graphs, seeds):
        full = timed("decide_s", kneserlab.check_ucep, graph, mode="all")
        sampled = timed("decide_s", kneserlab.check_ucep, graph, mode="sample",
                        samples=SESSION_SAMPLES, seed=seed)
        with tracer.span("render"):
            as_json = timed("export_s", lambda: json.dumps(
                cli.graph_to_dict(graph), sort_keys=True) + "\n")
            as_dimacs = timed("export_s", cli.graph_to_dimacs, graph)
        tracer.bump("bytes_out", len(as_json) + len(as_dimacs))
        with tracer.span("report"):
            reports.append([r.to_dict() for r in (full, sampled)])
        exports.append((as_json, as_dimacs))
    spans = [timed("span_s", kneserlab.span_check, g, c) for g, c in span_inputs]

    def exhaustive(ncols, reps):
        ms = [kneserlab.ColumnMatroid(rows, 2) for rows in reps]
        ground = list(range(ncols))
        return [kneserlab.union_rank(a, b, ground) for a in ms for b in ms]

    def pair(a, b, p, subset):
        m1, m2 = kneserlab.ColumnMatroid(a, p), kneserlab.ColumnMatroid(b, p)
        return kneserlab.union_rank(m1, m2, subset), kneserlab.have_disjoint_bases(m1, m2)

    unions = [timed("matroid_s", exhaustive, *args) for args in matroid_sets]
    unions += [timed("matroid_s", pair, *args) for args in pairs]
    return times, reports, exports, (spans, unions)


def session_warm(seed, seconds, traced):
    rng = random.Random("session-warm:%d" % seed)
    seeds = [rng.randrange(2 ** 31) for _ in SESSION_GRAPHS]
    tracer = tracing.Tracer() if traced else tracing.NullTracer()
    t0 = time.perf_counter()
    kneserlab = import_kneserlab(tracer)

    built = {}

    def build(spec):
        # Each graph is built once, so that the trace counts no cache hits.
        if spec not in built:
            family, n, types, p = spec
            built[spec] = kneserlab.build_graph(kneserlab.BuildingSpec(family, n, p, types))
        return built[spec]

    graphs = [build(spec) for spec in SESSION_GRAPHS]
    span_graphs = [build(spec) for spec in SPAN_GRAPHS]
    cocliques = [kneserlab.maximal_cocliques_sigma(g) for g in span_graphs]
    setup = time.perf_counter() - t0
    span_inputs = [(span_graphs[0], c) for c in cocliques[0]]
    span_inputs += [(span_graphs[1], c) for c in cocliques[1]]
    span_inputs += [(span_graphs[2], c) for c in _span_sample(
        rng, span_graphs[2], cocliques[2], SPAN_GRAPHS[2], SPAN_SAMPLE)]
    matroid_sets = [(n, _f2_matroids(3, n)) for n in range(1, MATROID_MAX_COLS + 1)]
    pairs = _random_pairs(rng, MATROID_PAIRS)

    rounds = []
    start = time.perf_counter()
    while not rounds or (not traced and time.perf_counter() - start < seconds):
        times, reports, exports, outputs = _session_round(
            kneserlab, graphs, seeds, span_inputs, matroid_sets, pairs, tracer)
        if not rounds:
            # Later rounds repeat the first, which keeps its outputs for the
            # checks; the peak is read here so that it does not depend on
            # how many rounds fit in the run.
            rss = peak_rss_mb()
            first_exports, first_outputs = exports, outputs
        rounds.append((times, reports, [[sha(t) for t in pair] for pair in exports],
                       repr(outputs)))
        del exports
    wall = time.perf_counter() - t0
    tracer.uninstall()

    checks = Checks()
    anchors = {}
    for gcell, (full, sampled), (as_json, as_dimacs) in zip(
            SESSION_GRAPHS, rounds[0][1], first_exports):
        label = _label(gcell)
        ccell = checker.Cell(*gcell)
        count = len(ccell.sigma_cocliques())
        want = "fails" if gcell in NEGATIVE else "holds"
        checks.spec(gcell, full, label)
        checks.spec(gcell, sampled, label + " sampled")
        checks.verdict(ccell, full, want, count, label)
        checks.expect(sampled.get("mode") == "sample"
                      and sampled.get("cocliques_checked") == SESSION_SAMPLES,
                      "%s: sampled run checked %r cocliques"
                      % (label, sampled.get("cocliques_checked")))
        if sampled.get("verdict") == "fails":
            checks.expect(full.get("verdict") == "fails",
                          "%s: sampling contradicts the exhaustive verdict" % label)
            checks.witness(ccell, sampled, label + " sampled")
        _check_exports(checks, ccell, as_json, as_dimacs, rng, label)
        anchors[label + " report"] = report_anchor(full)
        anchors[label + " sampled report"] = report_anchor(sampled)
        anchors[label + " json"] = sha(as_json)
        anchors[label + " dimacs"] = sha(as_dimacs)
    _check_span_and_matroid(checks, cocliques, *first_outputs, matroid_sets, pairs)
    for g in range(len(graphs)):
        for k in range(2):
            checks.same([report_anchor(r[1][g][k]) for r in rounds], "report")
            checks.same([r[2][g][k] for r in rounds], "export")
    checks.same([r[3] for r in rounds], "span and matroid outputs")
    per_round = (4 * len(graphs) + len(span_inputs) + 2 * len(pairs)
                 + sum(len(reps) ** 2 for _, reps in matroid_sets))
    attempted = per_round * len(rounds)
    info = {"anchors": anchors, "rounds": len(rounds)}
    if traced:
        return _traced_result(tracer, checks, attempted, wall), info
    info["phases"] = phases = phase_times([r[0] for r in rounds])
    return _result(checks, attempted, {
        "setup_s": (setup, "s"),
        "work_s": (sum(phases.values()), "s"),
        "peak_rss_mb": (rss, "MB"),
    }), info


def _check_span_and_matroid(checks, cocliques, spans, unions, matroid_sets, pairs):
    """Span and matroid outputs against the checker."""
    for spec, found in zip(SPAN_GRAPHS, cocliques):
        count = len(checker.Cell(*spec).sigma_cocliques())
        checks.expect(len(found) == count, "%s: %d Σ-cocliques, checker counts %d"
                      % (_label(spec), len(found), count))
    checks.expect(all(s is True for s in spans), "span_check false on %d cocliques"
                  % sum(1 for s in spans if s is not True))
    for (ncols, reps), got in zip(matroid_sets, unions):
        ranks = [checker.column_ranks(rows, 2) for rows in reps]
        want = [checker.union_max(a, b, range(ncols)) for a in ranks for b in ranks]
        checks.expect(got == want, "union_rank on the %d-column F_2 matroids" % ncols)
    for (a, b, p, subset), (union, disjoint) in zip(pairs, unions[len(matroid_sets):]):
        r1, r2 = checker.column_ranks(a, p), checker.column_ranks(b, p)
        ground = range(len(a[0]))
        checks.expect(union == checker.union_max(r1, r2, subset),
                      "union_rank of %r, %r on %r" % (a, b, subset))
        checks.expect(disjoint == (checker.union_max(r1, r2, ground) == r1[-1] + r2[-1]),
                      "have_disjoint_bases of %r, %r" % (a, b))


def _check_exports(checks, ccell, as_json, as_dimacs, rng, label):
    """DIMACS and JSON exports against the closed forms and the checker."""
    nv, ne = ccell.vertex_count(), ccell.edge_count()
    header = [line for line in as_dimacs.splitlines() if line.startswith("p ")]
    checks.expect(header == ["p edge %d %d" % (nv, ne)],
                  "%s: DIMACS header %r, closed forms give %d %d" % (label, header, nv, ne))
    checks.expect(as_dimacs.count("\ne ") == ne, "%s: DIMACS edge lines" % label)
    data = json.loads(as_json)
    vertices = data["vertices"]
    checks.expect(data["num_vertices"] == nv == len(vertices), "%s: JSON vertices" % label)
    checks.expect(len(data["edges"]) == ne, "%s: JSON edges" % label)
    frames = {ccell.canonical(f) for f in ccell.frame_objects()}
    checks.expect({ccell.canonical(vertices[i]) for i in data["sigma"]} == frames
                  and len(data["sigma"]) == len(frames), "%s: JSON sigma" % label)
    pairs = set()
    while len(pairs) < SESSION_PAIRS:
        i, j = sorted(rng.sample(range(nv), 2))
        pairs.add((i, j))
    found = {(i, j) for i, j in data["edges"] if (i, j) in pairs}
    for i, j in sorted(pairs):
        x, y = vertices[i], vertices[j]
        checks.expect(ccell.is_vertex(x) and ccell.is_vertex(y),
                      "%s: JSON vertex %d or %d is not of the cell's type" % (label, i, j))
        checks.expect(((i, j) in found) == ccell.adjacent(x, y),
                      "%s: JSON adjacency of %d, %d" % (label, i, j))


def _f2_matroids(max_rows, ncols):
    """One F_2 matrix per distinct column matroid with ncols columns."""

    def col_rank(cols):
        basis = []
        for c in cols:
            for b in basis:
                c = min(c, c ^ b)
            if c:
                basis.append(c)
        return len(basis)

    reps = {}
    for rows in range(1, max_rows + 1):
        for mat in itertools.product(range(1 << rows), repeat=ncols):
            key = tuple(col_rank([mat[j] for j in range(ncols) if s >> j & 1])
                        for s in range(1 << ncols))
            if key not in reps:
                reps[key] = tuple(
                    tuple(mat[j] >> i & 1 for j in range(ncols)) for i in range(rows))
    return list(reps.values())


def _random_pairs(rng, count):
    """Seeded random pairs of disjoint subspaces, as canonical bases.

    The shapes (p, d, the two dimensions and |K|) follow a fixed cycle and
    only the entries and the choice of K come from the seed, because
    union_rank's cost grows as 2^|K|: the work stays the same across seeds.
    """
    out = []
    for i in range(count):
        p, d = (2, 3)[i % 2], 4 + (i // 2) % 5
        k1 = 1 + (i // 10) % (d - 1)
        k2 = 1 + (i // 3) % (d - k1)
        while True:
            a = checker.rref([[rng.randrange(p) for _ in range(d)] for _ in range(k1)], p)
            b = checker.rref([[rng.randrange(p) for _ in range(d)] for _ in range(k2)], p)
            if len(a) == k1 and len(b) == k2 and checker.rank(a + b, p) == k1 + k2:
                break
        subset = tuple(sorted(rng.sample(range(d), d - i % 3)))
        out.append((a, b, p, subset))
    return out


def _span_sample(rng, graph, cocliques, spec, count):
    """`count` Σ-cocliques of a polar graph, with the same work on every seed.

    A fixed systematic sample of the Σ-cocliques, in the checker's
    canonical order, is moved coclique by coclique by a seeded signed
    permutation of the hyperbolic pairs. That is an isometry fixing the
    frame, so a graph automorphism: the extension sets keep their sizes,
    which set the cost of span_check.
    """
    cell = checker.Cell(*spec)
    index = {}
    for v in graph.sigma:
        index[cell.canonical([[list(r) for r in part.basis] for part in graph.vertices[v]])] = v
    keyed = sorted(sorted(k for k, v in index.items() if v in c) for c in cocliques)
    out = []
    for coc in keyed[::len(keyed) // count][:count]:
        perm = rng.sample(range(cell.rank_n), cell.rank_n)
        flip = [rng.randrange(2) for _ in perm]
        moved = []
        for (rows,) in coc:
            cols = sorted(2 * perm[c // 2] + (c % 2 ^ flip[c // 2])
                          for r in rows for c in range(cell.dim) if r[c])
            moved.append(index[cell.canonical(([cell.unit(c) for c in cols],))])
        out.append(tuple(sorted(moved)))
    return out


def _result(checks, attempted, metrics):
    return {
        "correct": not checks.problems,
        "attempted": attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
        "problems": checks.problems + checks.failures,
    }


def _traced_result(tracer, checks, attempted, wall):
    result = _result(checks, attempted, tracing.metrics(tracer, startup_s()))
    result["traced_wall_s"] = wall
    result["absent"] = tracer.absent
    return result


WORKLOADS = {
    "grid-cold": grid_cold,
    "session-warm": session_warm,
}
