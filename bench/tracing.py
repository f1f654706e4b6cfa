"""Per-layer tracing from outside the package.

`install()` replaces the public functions of the traced kneserlab
modules, in every module namespace that holds them (so `coclique.plucker`
and `buildings.enumerate_singular_subspaces` are traced too), with
wrappers that time each call. Each wrapped name carries tags; a tag's
time is counted only at its outermost active span, so recursion and
nesting inside one layer are not counted twice. `uninstall()` restores
the originals. Nothing in `src/` changes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

MODULES = ("algebra", "buildings", "coclique", "exterior", "matroid", "cli")

# Tags beyond the wrapped name itself.
GROUPS = {
    "algebra.enumerate_subspaces": ("enumerate",),
    "algebra.enumerate_singular_subspaces": ("enumerate",),
    "algebra.singular_points": ("enumerate",),
    "buildings.build_graph": ("build",),
    "buildings.build_projective_kneser": ("build",),
    "buildings.build_flag_kneser_A": ("build",),
    "buildings.build_polar_kneser": ("build",),
    "buildings.build_d4_planes": ("build",),
    "buildings.g2_points": ("build",),
    "cli.graph_to_dict": ("render",),
    "cli.graph_to_dimacs": ("render",),
    "coclique.UcepReport.to_dict": ("report",),
}

# Tags whose time and calls are also kept inside one enclosing tag, as
# "tag@context".
CONTEXTS = {
    "enumerate": ("build",),
    "coclique.maximal_cocliques_sigma": ("coclique.check_ucep",),
    "algebra.Subspace.span": ("enumerate",),
}

# Scalar helpers whose work per call is less than a wrapper's own cost;
# no metric needs them.
SKIP = ("algebra.check_prime", "algebra.inverse_mod", "algebra.inverse_table")

# Names the metrics need beyond the modules' public functions. One that
# no longer exists is reported as absent.
EXTRA = (
    "algebra.Subspace.span",
    "matroid.ColumnMatroid.rank",
    "coclique.UcepReport.to_dict",
    "coclique._first_violation",
)
REQUIRED = (
    "algebra.rref", "algebra.batched_rank", "algebra.enumerate_subspaces",
    "algebra.enumerate_singular_subspaces", "algebra.singular_points",
    "buildings.build_graph", "coclique.check_ucep",
    "coclique.maximal_cocliques_sigma", "coclique.span_check",
    "exterior.plucker", "matroid.union_rank",
) + EXTRA


class Tracer:
    """Call counts, outermost times and counters, keyed by tag."""

    def __init__(self):
        self.depth = {}
        self.time = {}
        self.calls = {}
        self.count = {}
        self.absent = []
        self._saved = []

    def enter(self, tags):
        for t in tags:
            self.depth[t] = self.depth.get(t, 0) + 1

    def exit(self, tags, dt):
        for t in tags:
            self.depth[t] -= 1
            if self.depth[t] == 0:
                self._add(self.time, t, dt)
                for c in CONTEXTS.get(t, ()):
                    if self.depth.get(c):
                        self._add(self.time, t + "@" + c, dt)

    def called(self, tags):
        for t in tags:
            self._add(self.calls, t, 1)
            for c in CONTEXTS.get(t, ()):
                if self.depth.get(c):
                    self._add(self.calls, t + "@" + c, 1)

    def outermost(self, tag):
        return not self.depth.get(tag)

    def bump(self, key, n=1):
        self._add(self.count, key, n)

    def missing(self, name):
        """Reports a name that a metric reads while tracing as absent."""
        if name not in self.absent:
            self.absent.append(name)

    @staticmethod
    def _add(table, key, n):
        table[key] = table.get(key, 0) + n

    @contextlib.contextmanager
    def span(self, *tags):
        """A span recorded from the benchmark's own code."""
        self.called(tags)
        self.enter(tags)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.exit(tags, time.perf_counter() - t0)

    # -- installation ------------------------------------------------------

    def install(self):
        import kneserlab

        mods = {m: getattr(__import__("kneserlab." + m), m) for m in MODULES}
        spaces = [vars(kneserlab)] + [
            vars(mod) for name, mod in vars(kneserlab).items()
            if inspect.ismodule(mod) and mod.__name__.startswith("kneserlab.")
        ]
        wrapped = {}
        for short, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                full = "%s.%s" % (short, name)
                if getattr(obj, "__module__", None) != mod.__name__ or full in SKIP:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(full, obj))
        for space in spaces:
            for name, obj in list(space.items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    self._saved.append((space, name, obj))
                    space[name] = wrapped[id(obj)][1]
        for full in EXTRA:
            self._install_extra(mods, full)
        self.absent = [n for n in REQUIRED if not self._has(mods, n)]
        cli = mods["cli"]
        if "json" in vars(cli):
            self._saved.append((vars(cli), "json", cli.json))
            cli.json = _JsonProxy(self)

    @staticmethod
    def _has(mods, full):
        short, *path = full.split(".")
        obj = mods[short]
        for part in path:
            if not hasattr(obj, part):
                return False
            obj = getattr(obj, part)
        return True

    def _install_extra(self, mods, full):
        short, *path = full.split(".")
        if not self._has(mods, full):
            return
        owner = mods[short]
        for part in path[:-1]:
            owner = getattr(owner, part)
        name = path[-1]
        raw = inspect.getattr_static(owner, name)
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(full, raw.__func__))
        else:
            new = self._wrap(full, raw)
        if inspect.isclass(owner):
            self._saved.append((owner, name, raw))
            setattr(owner, name, new)
        else:
            self._saved.append((vars(owner), name, raw))
            vars(owner)[name] = new

    def uninstall(self):
        for space, name, obj in reversed(self._saved):
            if isinstance(space, dict):
                space[name] = obj
            else:
                setattr(space, name, obj)
        self._saved = []

    def _wrap(self, name, fn):
        tags = (name,) + GROUPS.get(name, ())
        hook = HOOKS.get(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.called(tags)
                it = fn(*args, **kwargs)
                while True:
                    tracer.enter(tags)
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer.exit(tags, time.perf_counter() - t0)
                        return
                    tracer.exit(tags, time.perf_counter() - t0)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args, state = hook.before(tracer, args, kwargs)
            tracer.called(tags)
            tracer.enter(tags)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(tags, time.perf_counter() - t0)
            if hook is not None:
                hook.after(tracer, args, kwargs, state, result)
            return result
        return wrapper


class _JsonProxy:
    """Stands in for `json` inside kneserlab.cli, timing `dumps`.

    A dumped UCEP report counts as report serialization; anything else
    the CLI dumps counts as rendering.
    """

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(json, name)

    def dumps(self, obj, **kwargs):
        tag = "report" if isinstance(obj, dict) and "verdict" in obj else "render"
        with self._tracer.span("cli.json.dumps", tag):
            return json.dumps(obj, **kwargs)


class _Hook:
    def before(self, tracer, args, kwargs):
        return args, None

    def after(self, tracer, args, kwargs, state, result):
        pass


class _BuildHook(_Hook):
    def before(self, tracer, args, kwargs):
        return args, tracer.outermost("build")

    def after(self, tracer, args, kwargs, outer, graph):
        if outer:
            n = graph.num_vertices
            tracer.bump("vertices", n)
            tracer.bump("edges", sum(r.bit_count() for r in graph.adjacency) // 2)
            tracer.bump("pairs", n * (n - 1) // 2)


class _EnumerateHook(_Hook):
    """Counts the subspaces kept by the functions whose span calls make up
    `algebra.span_calls`; `enumerate_subspaces` makes none and is not counted."""

    def before(self, tracer, args, kwargs):
        return args, tracer.outermost("enumerate")

    def after(self, tracer, args, kwargs, outer, result):
        if outer:
            tracer.bump("subspaces_out", len(result))


class _CheckHook(_Hook):
    def after(self, tracer, args, kwargs, state, report):
        tracer.bump("cocliques_scanned", report.cocliques_checked)


class _ViolationHook(_Hook):
    def before(self, tracer, args, kwargs):
        tracer.bump("extension_sets")
        tracer.bump("extension_vertices", args[1].bit_count())
        return args, None


class _BatchHook(_Hook):
    def before(self, tracer, args, kwargs):
        tracer.bump("batched_rank_mats", len(args[0]))
        return args, None


class _RankHook(_Hook):
    def before(self, tracer, args, kwargs):
        self_, subset = args[0], args[1]
        if not isinstance(subset, (tuple, list, set, frozenset)):
            subset = tuple(subset)
        cache = getattr(self_, "_cache", None)
        if cache is None:
            tracer.missing("matroid.ColumnMatroid._cache")
        elif frozenset(subset) in cache:
            tracer.bump("rank_cache_hits")
        return (self_, subset) + tuple(args[2:]), None


HOOKS = {name: _BuildHook() for name, g in GROUPS.items() if "build" in g}
HOOKS.update({
    "algebra.enumerate_singular_subspaces": _EnumerateHook(),
    "algebra.singular_points": _EnumerateHook(),
    "coclique.check_ucep": _CheckHook(),
    "coclique._first_violation": _ViolationHook(),
    "algebra.batched_rank": _BatchHook(),
    "matroid.ColumnMatroid.rank": _RankHook(),
})


def metrics(tr, startup_s):
    """The per-layer metrics, from one traced run."""
    t, c, n = tr.time, tr.calls, tr.count

    def tm(key):
        return t.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    build_self = tm("build") - tm("enumerate@build")
    span_calls = c.get("algebra.Subspace.span@enumerate", 0)
    out = {
        "cli.startup_s": (startup_s, "s"),
        "cli.report_s": (tm("report"), "s"),
        "cli.render_s": (tm("render"), "s"),
        "cli.bytes_out": (n.get("bytes_out", 0), "count"),
        "algebra.enumerate_s": (tm("enumerate"), "s"),
        "algebra.subspaces_out": (n.get("subspaces_out", 0), "count"),
        "algebra.span_calls": (span_calls, "count"),
        "algebra.enumerate_yield": (ratio(n.get("subspaces_out", 0), span_calls), "ratio"),
        "algebra.rref_calls": (c.get("algebra.rref", 0), "count"),
        "algebra.rref_s": (tm("algebra.rref"), "s"),
        "algebra.batched_rank_mats": (n.get("batched_rank_mats", 0), "count"),
        "algebra.batched_rank_s": (tm("algebra.batched_rank"), "s"),
        "buildings.build_s": (tm("build"), "s"),
        "buildings.build_self_s": (build_self, "s"),
        "buildings.pair_tests_per_s": (ratio(n.get("pairs", 0), build_self), "1/s"),
        "buildings.vertices": (n.get("vertices", 0), "count"),
        "buildings.edges": (n.get("edges", 0), "count"),
        "coclique.sigma_cliques_s": (tm("coclique.maximal_cocliques_sigma"), "s"),
        "coclique.scan_s": (
            tm("coclique.check_ucep")
            - tm("coclique.maximal_cocliques_sigma@coclique.check_ucep"), "s"),
        "coclique.cocliques_scanned": (n.get("cocliques_scanned", 0), "count"),
        "coclique.extension_size_mean": (
            ratio(n.get("extension_vertices", 0), n.get("extension_sets", 0)),
            "vertices"),
        "coclique.span_check_s": (tm("coclique.span_check"), "s"),
        "coclique.span_checks": (c.get("coclique.span_check", 0), "count"),
        "exterior.plucker_calls": (c.get("exterior.plucker", 0), "count"),
        "exterior.plucker_s": (tm("exterior.plucker"), "s"),
        "matroid.union_rank_s": (tm("matroid.union_rank"), "s"),
        "matroid.rank_calls": (c.get("matroid.ColumnMatroid.rank", 0), "count"),
        "matroid.rank_cache_hit_ratio": (
            ratio(n.get("rank_cache_hits", 0), c.get("matroid.ColumnMatroid.rank", 0)),
            "ratio"),
    }
    return out


class NullTracer:
    """Stands in for a Tracer in untraced runs: wraps nothing, records nothing."""

    def install(self):
        pass

    def uninstall(self):
        pass

    def span(self, *tags):
        return contextlib.nullcontext()

    def bump(self, key, n=1):
        pass
