"""Byte anchors of graph exports.

One sha256 per `kneserlab build --format json|dimacs` stdout on three
cells, per rendering of an edgeless graph whose vertex count is not a
multiple of 8, and of `export` from a stored JSON graph to DIMACS. The
digests were recorded while edges() was still a per-bit generator, so any
change in edge order, vertex labels or line layout of the bulk edge path
shows here.
"""

import hashlib

import pytest

from kneserlab import buildings, cli
from kneserlab.buildings import BuildingSpec
from kneserlab.cli import EXIT_OK, main

D4_PLANES_DIMACS = "9e80a624d96b558e8cc5f3bc293bef975eae99d1948e72c50d64f4e79d4478f6"

BUILT = {
    ("A", 3, "2", 2, "json"): "2d0b4cab670f2b9dc6754bcd426cd188a9a3249a92feca5bc5df15a1bd63ba22",
    ("A", 3, "2", 2, "dimacs"): "46487a7051a1b0c8e7ef03bbedaacc90c0bd73b1dd54ecbb2c751004e7517859",
    ("A", 2, "1,2", 2, "json"): "2e11406f563290209a48a1569717baa893180658b7562c75282d9d4f07395b7d",
    ("A", 2, "1,2", 2, "dimacs"): "5d09cc5dc3fa7a829a7ebc783c3d1c1950f1e706f70d33679d8efc36028e0d17",
    ("D", 4, "3,4", 2, "json"): "f23df7bb2af02c576f89cb77a1f70561a2837a31be30e71b7cd3084dbec9069a",
    ("D", 4, "3,4", 2, "dimacs"): D4_PLANES_DIMACS,
}

# D_3 type 3 over F_2: 15 vertices and no edges (one family of maximal
# spaces of D_n with n odd); build_graph refuses it, so it is rendered
# from the unchecked builder.
EDGELESS = {
    "json": "6ef75c9f3d60e8ffee8cd633ead3b94530cf2ca4b123e5f0aecd0dfb809e83ba",
    "dimacs": "2e2c72a9958bf1d08eef229533bdec6c2337f1bb65cd66f8295af6ea377035fa",
}


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def stdout(capsys, *argv):
    assert main(list(argv)) == EXIT_OK
    return capsys.readouterr().out


def build_argv(family, rank, types, p, fmt):
    return ["build", "--family", family, "--rank", str(rank), "--type", types,
            "--p", str(p), "--format", fmt]


@pytest.mark.parametrize("cell", list(BUILT), ids=["-".join(map(str, cell)) for cell in BUILT])
def test_build_output_bytes_pinned(capsys, cell):
    assert sha(stdout(capsys, *build_argv(*cell))) == BUILT[cell]


@pytest.mark.parametrize("fmt", list(EDGELESS))
def test_edgeless_graph_bytes_pinned(fmt):
    graph = buildings._graph(BuildingSpec("D", 3, 2, (3,)))
    assert (graph.num_vertices, graph.num_edges()) == (15, 0)
    assert sha(cli._render_graph(graph, fmt)) == EDGELESS[fmt]


def test_export_json_to_dimacs_bytes_pinned(capsys, tmp_path):
    path = tmp_path / "d4-planes.json"
    path.write_text(stdout(capsys, *build_argv("D", 4, "3,4", 2, "json")))
    assert sha(stdout(capsys, "export", "--input", str(path), "--format", "dimacs")) \
        == D4_PLANES_DIMACS
