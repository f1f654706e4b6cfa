"""The package keeps only what it runs: every public function and method
in src/kneserlab is referenced somewhere in src/, demos/ or bench/.
Reference implementations that only tests call belong in tests/oracles.py."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), str(path))


def public_defs(tree):
    """Public top-level functions and public methods of top-level classes."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else [node]
        for item in body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and not item.name.startswith("_"):
                owner = node.name + "." if isinstance(node, ast.ClassDef) else ""
                yield owner + item.name, item.name


def test_every_public_def_has_a_caller_outside_tests():
    used = set()
    for _, tree in trees("src", "demos", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = ["%s: %s" % (path.name, qualname)
              for path, tree in trees("src/kneserlab")
              for qualname, name in public_defs(tree) if name not in used]
    assert unused == [], "public names nothing in src/, demos/ or bench/ uses: %s" % unused
