"""The package keeps only what it runs: every public function and method
in src/kneserlab is referenced somewhere in src/, demos/ or bench/.
Reference implementations that only tests call belong in tests/oracles.py.
The same holds for private functions and methods, whose own definition
does not count, so a helper a refactor leaves behind shows here."""

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def defs(tree):
    """Top-level functions and methods of top-level classes, as (qualified
    name, node)."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = node.name + "." if isinstance(node, ast.ClassDef) else ""
                yield owner + item.name, item


def references(node):
    """How often each name is read under node, as a variable or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def used():
    total = collections.Counter()
    for _, tree in trees("src", "demos", "bench"):
        total += references(tree)
    return total


def test_every_public_def_has_a_caller_outside_tests():
    names = used()
    unused = ["%s: %s" % (path.name, qualname)
              for path, tree in trees("src/kneserlab")
              for qualname, node in defs(tree)
              if not node.name.startswith("_") and not names[node.name]]
    assert unused == [], "public names nothing in src/, demos/ or bench/ uses: %s" % unused


def test_every_private_def_has_a_caller_outside_itself():
    names = used()
    unused = ["%s: %s" % (path.name, qualname)
              for path, tree in trees("src/kneserlab")
              for qualname, node in defs(tree)
              if node.name.startswith("_") and not node.name.endswith("__")
              and names[node.name] == references(node)[node.name]]
    assert unused == [], "private names nothing else in src/, demos/ or bench/ uses: %s" % unused


def test_the_one_module_cache_is_the_graph_cache():
    # A value keeps what it derives as a cached property; a module cache is
    # kept only where equal values must share one costly object, the graph
    # of a spec. Every read of lru_cache or cache in src/ is a decorator.
    cached, reads = [], 0
    for path, tree in trees("src/kneserlab"):
        reads += sum(references(tree)[name] for name in ("lru_cache", "cache"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if references(target).keys() & {"lru_cache", "cache"}:
                        cached.append("%s: %s" % (path.name, node.name))
    assert cached == ["buildings.py: _graph"]
    assert reads == len(cached)
