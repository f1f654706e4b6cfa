"""Byte anchors of built graphs.

One sha256 per cell over the spec dict, the vertex basis matrices, the
adjacency rows and the apartment Σ, recorded before the builders moved
onto one spec normaliser and one frame generator. Any change in vertex
order, adjacency, apartment or spec serialisation shows here. In a full
run the grid builds are cache hits.
"""

import hashlib
import json

import pytest

from kneserlab.buildings import BuildingSpec, apartment_graph, build_graph


def digest(graph):
    payload = json.dumps([
        graph.spec.to_dict(),
        [[[list(row) for row in part.basis] for part in flag] for flag in graph.vertices],
        ["%x" % row for row in graph.adjacency],
        list(graph.sigma),
    ], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# The 19 grid cells and D4 type 3 (the minus family of maximal spaces).
PINNED = {
    ('A', 3, (1,), 2): "0a0c362d61cc0380e59cbf8e5c158ea46a4558b7573a3af5cbaacf0e7a63977a",
    ('A', 3, (1,), 3): "a03b34eb899e5e5faff0da6f52b1f5118520c6a3f98a8894263e268c56c570b4",
    ('A', 3, (2,), 2): "77ba16d50f6b0601f081ebdfac59ba3bacffab8ec3a68b6451420c2b2aa51513",
    ('A', 3, (2,), 3): "1abf651149cb1bac986f5300bf3060efc77f8f3e123628ab66858f3804011805",
    ('A', 4, (2,), 2): "a4d46c33e7c7c2012606f2a5fa3412d53fe87c020d67ab986689c161d6c3f87d",
    ('A', 4, (2,), 3): "7ac396052348d373d92cc6f94b106fb7bf31748c39d7d0d61fec305707aa9d19",
    ('A', 2, (1, 2), 2): "d649915353409abf88e2812c7d4c5376d0323e3b2a491b779ac2a7be00642c88",
    ('A', 3, (1, 3), 2): "d4e3999aeb3580c9ba1bd847d8cc5712a48c949207c2f49c287f959d6a039aca",
    ('C', 3, (1,), 2): "72e76b3be1ae00a75830444feb40d6a69c99dc1b4e9692db92804ee23aaeaca1",
    ('B', 3, (1,), 3): "c53b70be3cd70e0608d1301823702359d0fdf72a7a7d6038f19e8a60834c1409",
    ('B', 3, (3,), 3): "e596699449d059989187f1acf9ee2db8f0134949122e8ac9e3ec20a046ae5f44",
    ('G', 2, (1,), 3): "7aaebe7a0c58d3f393e47f21d4f28238bc8b6ed9a21fa443771eeedcd604d6c3",
    ('D', 4, (1,), 2): "74f4220444a1d82e9fa1997d7fdc5025c10f7dd4f0c6f08644cb6b97068e89f4",
    ('D', 4, (2,), 2): "ab878da7c2872b8f95529eda106efcb620e38078341a22934ba14b986d671fe2",
    ('D', 4, (4,), 2): "af074fabb96ddb909fb43057b55bf0d503751a1aeadfe78bf04e8746d89e7e2d",
    ('B', 3, (2,), 3): "7597be9033b78bdadf3da1385fdd484127c8fe0673544226879c8ed52370e548",
    ('C', 3, (3,), 3): "3bbd47a6d773e0ae06d02459ea1a34422ee3644adb9e2db0eb49c0cc732bf9d8",
    ('D', 4, (3, 4), 2): "7bc57031f87a46b071e46e0163c098c4a1cba4ebcfaa3e8330af14077f1164ac",
    ('A', 4, (2, 3), 2): "acbec55dc2040dfcb3eebd46595baef60c4868b2b83b579e7f48dcbf9c5f4f7d",
    ('D', 4, (3,), 2): "5383f3832769cc6435651f6b923c73eeda8bbfe35103c01f67b0cfbedad28eef",
}

APARTMENT_D4_PLANES_F2 = (
    "951bbb2d39b6f452434ccbe071ba727dc13a427c61ff0083bb80cf8ff6435248")


def cell_id(cell):
    family, n, types, p = cell
    return "%s%d-%s-F%d" % (family, n, "-".join(map(str, types)), p)


@pytest.mark.parametrize("cell", list(PINNED), ids=cell_id)
def test_build_graph_bytes_pinned(cell):
    family, n, types, p = cell
    assert digest(build_graph(BuildingSpec(family, n, p, types))) == PINNED[cell]


def test_apartment_graph_bytes_pinned():
    assert digest(apartment_graph(BuildingSpec("D", 4, 2, (3, 4)))) == APARTMENT_D4_PLANES_F2
