"""Embeddings: face tracing, genus search, planarity, minor witnesses."""

import functools
import itertools
import random

import networkx as nx
import pytest

from conftest import find_k33_or_k5_minor, nx_outerplanar, nx_planar, to_nx
from hompoly import Graph, topo
from hompoly.errors import BudgetExceededError
from hompoly.gadgets import (amalgam_chain, buddy_transform, genus_block,
                             planar_gadget, star_gadget)
from hompoly.graphs import all_edges
from hompoly.topo import (K5, K33, _rotation_choices, _validate_branch_sets,
                          contains_subgraph, find_minor, genus_of_rotation,
                          is_outerplanar, is_planar, kuratowski_witness,
                          min_genus, min_genus_rotation, planar_rotation,
                          rotation_from_json_obj, rotation_search_space,
                          rotation_to_json_obj, trace_faces)

CUBE = Graph.make(8, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7),
                      (4, 7), (0, 4), (1, 5), (2, 6), (3, 7)])
K23 = Graph.complete_bipartite(2, 3)


def test_planarity_classics():
    assert not is_planar(Graph.complete(5))
    assert not is_planar(Graph.complete_bipartite(3, 3))
    assert is_planar(Graph.complete(4))


def test_planar_gadget_survivor_shape_is_planar():
    # the full support (a 4-clique plus two apexes) is not planar: it is a
    # 6-clique minus the apex-apex edge; the gadget is planar exactly in its
    # surviving configurations, apex edges plus a spanning middle path
    gadget = planar_gadget(4)
    assert not is_planar(gadget.graph)
    path = [(0, 1), (1, 2), (2, 3)]
    survivor = Graph.make(6, sorted(gadget.enforced) + path)
    assert is_planar(survivor)


def test_outerplanarity():
    assert is_outerplanar(Graph.cycle(5))
    assert not is_outerplanar(Graph.complete(4))
    assert not is_outerplanar(Graph.complete_bipartite(2, 3))


def test_tetrahedron_faces():
    k4 = Graph.complete(4)
    rot = planar_rotation(k4)
    assert trace_faces(k4, rot) == 4
    assert genus_of_rotation(k4, rot) == 0


def test_cube_faces():
    rot = planar_rotation(CUBE)
    assert trace_faces(CUBE, rot) == 6
    assert genus_of_rotation(CUBE, rot) == 0


def test_min_genus_small():
    assert min_genus(Graph.complete(4)) == 0
    assert min_genus(Graph.complete(5)) == 1
    assert min_genus(Graph.complete_bipartite(3, 3)) == 1


def test_genus_block_certificate():
    block = genus_block().graph
    assert not is_planar(block)
    assert rotation_search_space(block) <= 20736
    genus, rot = min_genus_rotation(block)
    assert genus == 1
    assert genus_of_rotation(block, rot) == 1


def test_min_genus_budget():
    with pytest.raises(BudgetExceededError):
        min_genus(Graph.complete(8), budget=10)


def test_rotation_validation():
    k4 = Graph.complete(4)
    rot = planar_rotation(k4)
    bad = dict(rot)
    bad[0] = (1, 2, 2)
    with pytest.raises(ValueError):
        trace_faces(k4, bad)


def test_genus_invariant_under_relabeling():
    block = genus_block().graph
    perm = {v: (v * 3) % 8 for v in range(8)}
    relabeled = Graph.make(8, [(perm[a], perm[b]) for a, b in block.edges])
    assert min_genus(relabeled) == min_genus(block) == 1


def test_minor_witnesses():
    w = find_minor(Graph.complete_bipartite(3, 3), K33)
    assert w is not None and all(len(s) == 1 for s in w)
    kind, sets = find_k33_or_k5_minor(genus_block().graph)
    assert kind in ("k33", "k5")
    # a five-vertex target cannot be a minor of a four-vertex graph
    assert find_minor(Graph.complete(4), K23) is None
    assert find_k33_or_k5_minor(Graph.complete(4)) is None
    # the non-outerplanarity witness for the 4-clique is the 4-clique itself
    assert find_minor(Graph.complete(4), Graph.complete(4)) is not None
    assert find_minor(Graph.complete_bipartite(2, 3), K23) is not None


def test_block_bipartite_minor_and_drawn_sets():
    block = genus_block().graph
    w = find_minor(block, K33)
    assert w is not None
    # the natural witness contracts the two outer-square edges (4,5) and
    # (6,7); the two merged corners must land on opposite sides, one with
    # inner vertices 0,1 and the other with 2,3
    contracted = nx.contracted_nodes(nx.contracted_nodes(
        to_nx(block.n, block.edges), 4, 5, self_loops=False), 6, 7, self_loops=False)
    assert contains_subgraph({v: set(contracted[v]) for v in contracted}, K33)
    # with both merged corners on the same side the six cross edges are not
    # all present: inner vertex 1 has no edge to the merged 6-7 corner
    assert not block.has_edge(1, 6) and not block.has_edge(1, 7)


def _random_graphs():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(4, 6)
        edges = [e for e in all_edges(n) if rng.random() < 0.5][:10]
        yield Graph.make(n, edges)


def test_three_way_planarity_agreement():
    for g in _random_graphs():
        comps = [c for c in g.components() if len(c) > 1]
        planar = is_planar(g)
        minor = find_k33_or_k5_minor(g)
        assert planar == (minor is None)
        if len(comps) == 1 and g.is_connected():
            assert planar == (min_genus(g) == 0)


def _check_counting_certificates(g):
    edges = sorted(g.edges)
    assert is_planar(g) == nx_planar(g.n, edges), edges
    assert is_outerplanar(g) == nx_outerplanar(g.n, edges), edges


def test_counting_certificates_agree_with_networkx_on_small_graphs():
    # the atlas holds every graph on at most 7 vertices up to isomorphism, and
    # both tests and both edge-count certificates are isomorphism invariant
    atlas = nx.graph_atlas_g()
    assert len(atlas) == 1253
    for h in atlas:
        _check_counting_certificates(Graph.make(h.number_of_nodes(), h.edges()))


def test_counting_certificates_agree_with_networkx_on_random_graphs():
    rng = random.Random(1412)
    for _ in range(600):
        n = rng.randint(2, 9)
        p = rng.choice((0.2, 0.35, 0.5, 0.7, 0.9))
        _check_counting_certificates(
            Graph.make(n, [e for e in all_edges(n) if rng.random() < p]))


def test_counting_certificates_skip_networkx(planarity_calls):
    # at most 8 edges, or more than 3V - 6 edges: no networkx call
    assert is_planar(Graph.cycle(8)) and is_planar(Graph.complete_bipartite(2, 4))
    assert not is_planar(Graph.complete(5)) and not is_planar(Graph.complete(6))
    assert planarity_calls == []
    # outerplanarity never reaches networkx
    for h in nx.graph_atlas_g():
        is_outerplanar(Graph.make(h.number_of_nodes(), h.edges()))
    assert planarity_calls == []
    # K3,3 has 9 <= 3V - 6 edges, minimum degree 3 and no vertex adjacent to
    # all others: networkx decides
    assert not is_planar(K33)
    assert planarity_calls == [6]


# -- the degree-2 peel and the dominating-vertex rules ------------------------

DIAMOND = Graph.make(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])  # base 1-2


def _peel(g):
    """The peel alone, without the edge counts in front of it."""
    return topo._peel_outerplanar(topo._adjacency_sets(g), set(range(g.n)))


def _join(g, apexes):
    """g plus the given number of pairwise non-adjacent vertices, each
    adjacent to every vertex of g."""
    return Graph.make(g.n + apexes, list(g.edges) +
                      [(v, g.n + i) for i in range(apexes) for v in range(g.n)])


def test_peel_marks_the_edge_left_by_a_degree_two_vertex(monkeypatch):
    bridge_checks = []
    real = topo._joined_without_edge

    def spy(adj, u, w):
        bridge_checks.append(real(adj, u, w))
        return bridge_checks[-1]

    monkeypatch.setattr(topo, "_joined_without_edge", spy)
    # the second degree-2 vertex of K2,3 lands on the marked base, which is
    # no bridge; suppressing them without the mark would leave the
    # outerplanar diamond
    assert not _peel(K23) and bridge_checks == [True]
    assert not is_outerplanar(K23)
    # C4 with a pendant edge at two opposite corners: once the degree-2
    # vertex 5 goes, 2 4 3 is a triangle on the marked base 2-3, which is a
    # bridge of G - 4
    bridge_checks.clear()
    assert _peel(Graph.make(6, [(0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]))
    assert bridge_checks == [False]
    assert _peel(Graph.cycle(4)) and _peel(DIAMOND)
    # no vertex of degree <= 2 left
    assert not _peel(Graph.complete(4))


def test_dominating_vertex_reduces_planarity_to_outerplanarity(planarity_calls):
    for k in range(5, 11):
        assert is_planar(_join(Graph.cycle(k), 1))  # wheels
        assert is_planar(_join(Graph.path(k), 1))   # fans
    assert is_planar(_join(Graph.complete_bipartite(1, 3), 1))
    # a pendant vertex is deleted first, which leaves the hub dominating
    assert is_planar(Graph.make(8, sorted(_join(Graph.cycle(6), 1).edges) + [(0, 7)]))
    # cones over two graphs that are not outerplanar: K2,3 and a K4 with
    # one edge subdivided
    assert not is_planar(_join(K23, 1))
    subdivided_k4 = Graph.make(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                   (2, 4), (3, 4)])
    assert not is_planar(_join(subdivided_k4, 1))
    assert planarity_calls == []


def test_two_dominating_apexes_reduce_planarity_to_paths_and_cycles(planarity_calls):
    # bipyramids over C4 (the octahedron) and C5, and over a linear forest
    assert is_planar(_join(Graph.cycle(4), 2)) and is_planar(_join(Graph.cycle(5), 2))
    assert is_planar(_join(Graph.make(5, [(0, 1), (1, 2), (3, 4)]), 2))
    # a bipyramid plus one vertex adjacent to both apexes
    for k in (4, 5):
        assert not is_planar(_join(Graph.make(k + 1, Graph.cycle(k).edges), 2))
    # two cycles between the apexes
    two_triangles = Graph.make(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_planar(_join(two_triangles, 2))
    # a vertex of degree 3 between the apexes: K3,3
    assert not is_planar(_join(Graph.make(5, [(0, 1), (0, 2), (0, 3)]), 2))
    assert planarity_calls == []


def test_dominating_vertex_rules_agree_with_networkx_on_random_graphs():
    rng = random.Random(1967)
    for _ in range(1500):
        n = rng.randint(1, 10)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        edges = [e for e in all_edges(n) if rng.random() < p]
        apexes = rng.choice((1, 2))
        edges += [(v, n + i) for i in range(apexes) for v in range(n)]
        if apexes == 2 and rng.random() < 0.5:
            edges.append((n, n + 1))
        _check_counting_certificates(
            _relabeled(Graph.make(n + apexes, edges), rng.randrange(1 << 30)))


def test_certificates_agree_with_networkx_on_gadget_candidates():
    for gadget in (star_gadget(6), buddy_transform(star_gadget(5)), planar_gadget(5)):
        base = sorted(gadget.enforced)
        pick = gadget.budget - len(base)
        for combo in itertools.combinations(sorted(gadget.free_edges()), pick):
            g = Graph.make(gadget.graph.n, base + list(combo))
            _check_counting_certificates(g)


def test_rotation_json_roundtrip():
    rot = planar_rotation(Graph.complete(4))
    assert rotation_from_json_obj(rotation_to_json_obj(rot)) == rot


# -- certified early stop of the rotation search ------------------------------


@functools.cache
def _exhaustive_min_genus_rotation(g: Graph):
    """Reference: every rotation system, keeping the first of least genus."""
    choices = _rotation_choices(g)
    verts = [v for v, _ in choices]
    best = best_rot = None
    for combo in itertools.product(*(perms for _, perms in choices)):
        rot = dict(zip(verts, combo))
        genus = genus_of_rotation(g, rot)
        if best is None or genus < best:
            best, best_rot = genus, rot
    return best, best_rot


def _relabeled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph.make(g.n, [(perm[u], perm[v]) for u, v in g.edges])


SUBDIVIDED_BLOCK = amalgam_chain(1, subdivide=True).graph
NONPLANAR = ([Graph.complete(5), K33, genus_block().graph, SUBDIVIDED_BLOCK]
             + [_relabeled(genus_block().graph, seed) for seed in range(1, 6)])


def _count_genus_calls(monkeypatch):
    calls = []
    real = topo.genus_of_rotation

    def counting(g, rot):
        calls.append(1)
        return real(g, rot)

    monkeypatch.setattr(topo, "genus_of_rotation", counting)
    return calls


def test_early_stop_matches_exhaustive_search():
    graphs = NONPLANAR + [g for g in _random_graphs()
                          if g.edges and g.is_connected()]
    for g in graphs:
        assert min_genus_rotation(g) == _exhaustive_min_genus_rotation(g)


def test_early_stop_cuts_the_block_search(monkeypatch):
    calls = _count_genus_calls(monkeypatch)
    block = genus_block().graph
    assert min_genus_rotation(block)[0] == 1
    assert 0 < len(calls) < rotation_search_space(block)


def test_kuratowski_witness_is_validated():
    for g in NONPLANAR:
        kind, sets = kuratowski_witness(g)
        _validate_branch_sets(g, K5 if kind == "k5" else K33, sets)
    assert kuratowski_witness(Graph.complete(5))[0] == "k5"
    assert kuratowski_witness(K33)[0] == "k33"


def test_kuratowski_witness_none_on_planar_graphs():
    planar = [Graph.complete(4), CUBE, Graph.cycle(5), Graph.empty(3)]
    planar += [g for g in _random_graphs() if is_planar(g)]
    for g in planar:
        assert kuratowski_witness(g) is None


def test_tampered_branch_sets_are_rejected(monkeypatch):
    block = genus_block().graph
    kind, sets = kuratowski_witness(block)
    overlap = [set(s) for s in sets]
    overlap[1] |= overlap[0]
    emptied = [set(s) for s in sets]
    emptied[0] = set()
    for tampered in (overlap, emptied):
        with pytest.raises(AssertionError):
            _validate_branch_sets(block, K33, tampered)
        monkeypatch.setattr(topo, "_kuratowski_branch_sets",
                            lambda sub, t=tampered: (kind, t))
        assert kuratowski_witness(block) is None
    # without a witness the search stays exhaustive and its result stands
    calls = _count_genus_calls(monkeypatch)
    assert min_genus_rotation(block) == _exhaustive_min_genus_rotation(block)
    assert len(calls) == rotation_search_space(block)


def test_min_genus_on_edgeless_graphs():
    assert min_genus(Graph.empty(1)) == 0
    with pytest.raises(ValueError):
        min_genus(Graph.empty(2))


def test_isolated_vertices_add_nothing_to_the_genus():
    k5_iso = Graph.make(7, K5.edges)
    genus, rot = min_genus_rotation(k5_iso)
    assert (genus, rot) == min_genus_rotation(K5) and genus == 1
    assert genus_of_rotation(k5_iso, rot) == 1
    path_iso = Graph.make(4, [(1, 2)])
    assert min_genus(path_iso) == 0
    assert genus_of_rotation(path_iso, {1: (2,), 2: (1,)}) == 0
    two_edges = Graph.make(4, [(0, 1), (2, 3)])
    for call in (lambda: min_genus(two_edges),
                 lambda: genus_of_rotation(two_edges, {v: (v ^ 1,) for v in range(4)})):
        with pytest.raises(ValueError, match="exactly one component with edges"):
            call()
