"""Gadget constructors: shapes, counts, transforms, golden serializations."""

import json
import pathlib

import pytest

from conftest import rotation_from_json_obj
from hompoly import Graph, hom_to_single_edge
from hompoly.gadgets import (Gadget, amalgam_chain, buddy_transform, chain_layout,
                             end_edges, fold_block_to_edge_certificate, genus_block,
                             planar_gadget, star_gadget,
                             subdivide_and_buddy_planar)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_star_gadget_shape():
    g = star_gadget(6)
    assert g.graph.n == 6
    center = g.graph.label("center")
    assert g.graph.degree(center) == 5
    assert g.enforced == frozenset((0, i) for i in range(1, 6))
    assert g.budget == 9
    with pytest.raises(ValueError):
        star_gadget(4)


def test_buddy_transform_shape():
    g = buddy_transform(star_gadget(6))
    assert g.graph.n == 1 + 2 * 5
    assert hom_to_single_edge(g.graph)
    # enforced pair edges survive with buddy labels attached
    for v in range(1, 6):
        b = g.graph.label(f"buddy-of-{v}")
        assert (min(v, b), max(v, b)) in g.enforced
    assert not (g.enforced & g.denied)
    # denied: buddy-center, buddy-buddy, original-original
    center = g.graph.label("center")
    assert all((min(center, g.graph.label(f"buddy-of-{v}")),
                max(center, g.graph.label(f"buddy-of-{v}"))) in g.denied
               for v in range(1, 6))


def test_planar_gadget_shape():
    g = planar_gadget(3)
    assert g.graph.n == 5
    assert len(g.graph.edges) == 3 + 6
    assert len(g.enforced) == 6
    g4 = planar_gadget(4)
    assert g4.budget == 2 * 4 + 3
    e1, e2 = end_edges(g4)
    assert e1 == (0, 1) and e2 == (2, 3)


def test_subdivided_planar_variant():
    base = planar_gadget(4)
    v = subdivide_and_buddy_planar(base)
    assert hom_to_single_edge(v.graph)
    assert v.graph.n == 4 * 4 + 2
    a = v.graph.label("apex-a")
    for mid in range(4):
        buddy = v.graph.label(f"buddy-of-{mid}")
        sub_a = v.graph.label(f"sub-a-of-{mid}")
        square = [(a, sub_a), (sub_a, mid), (mid, buddy), (buddy, a)]
        for x, y in square:
            assert v.graph.has_edge(x, y)


def test_genus_block_shape():
    g = genus_block()
    assert g.graph.n == 8
    assert len(g.graph.edges) == 14
    degs = sorted(g.graph.degree(v) for v in range(8))
    assert degs == [3, 3, 3, 3, 4, 4, 4, 4]


def test_amalgam_chain_counts():
    for k in (1, 2, 3):
        g = amalgam_chain(k)
        assert g.graph.n == 7 * k + 1
        assert len(g.graph.edges) == 14 * k


def test_amalgam_chain_with_planar_part():
    g = amalgam_chain(1, attach_planar=4)
    # 8 block vertices plus the planar gadget sharing one vertex
    assert g.graph.n == 8 + (4 + 2) - 1
    assert g.graph.label("planar-end-right-outer") == g.graph.label("chain-out")
    assert g.budget == len(g.enforced) + 3


def test_fold_certificates():
    assert fold_block_to_edge_certificate(amalgam_chain(1, subdivide=True))
    assert fold_block_to_edge_certificate(amalgam_chain(2, subdivide=True))
    assert not fold_block_to_edge_certificate(amalgam_chain(1))


def test_gadget_validation():
    g = Graph.make(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        Gadget(g, frozenset([(0, 1)]), frozenset([(0, 1)]), 2)
    with pytest.raises(ValueError):
        Gadget(g, frozenset([(0, 2)]), frozenset(), 1)
    with pytest.raises(ValueError):
        Gadget(g, frozenset([(0, 1), (1, 2)]), frozenset(), 1)
    # a denied edge may not be in the support, enforced or not
    with pytest.raises(ValueError, match="denied"):
        Gadget(g, frozenset([(0, 1)]), frozenset([(1, 2)]), 2)
    assert Gadget(g, frozenset([(0, 1)]), frozenset([(0, 2)]), 2).denied == {(0, 2)}


@pytest.mark.parametrize("name,build", [
    ("star6", lambda: star_gadget(6)),
    ("buddy6", lambda: buddy_transform(star_gadget(6))),
    ("planar4", lambda: planar_gadget(4)),
    ("block", lambda: genus_block()),
    ("chain2", lambda: amalgam_chain(2)),
    ("chain1-planar4", lambda: amalgam_chain(1, attach_planar=4)),
])
def test_golden_gadgets(name, build):
    got = build().to_json_obj()
    path = GOLDEN / f"{name}.json"
    expected = json.loads(path.read_text())
    assert got == expected


def test_golden_block_rotation_has_genus_one():
    from hompoly.topo import genus_of_rotation
    data = json.loads((GOLDEN / "block-rotation.json").read_text())
    rot = rotation_from_json_obj(data)
    assert genus_of_rotation(genus_block().graph, rot) == 1


@pytest.mark.parametrize("build,match", [
    (lambda: buddy_transform(Gadget(
        Graph.make(3, [(0, 1)], labels={"center": 1, "glue-a": 0, "glue-b": 2}),
        frozenset())), "center at vertex 0"),
    (lambda: planar_gadget(2), "m >= 3"),
    (lambda: chain_layout(0), "at least one block"),
], ids=["buddy_transform", "planar_gadget", "chain_layout"])
def test_gadget_constructors_refuse_bad_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()
