"""Embeddings: face tracing, genus search, planarity, minor witnesses."""

import functools
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (find_k33_or_k5_minor, nx_outerplanar, nx_planar,
                      reference_peel_outerplanar, rotation_from_json_obj, to_nx)
from hompoly import Graph, topo
from hompoly.errors import BudgetExceededError
from hompoly.gadgets import (amalgam_chain, buddy_transform, genus_block,
                             planar_gadget, star_gadget)
from hompoly.graphs import all_edges
from hompoly.topo import (K5, K33, _rotation_choices, _validate_branch_sets,
                          contains_subgraph, find_minor, genus_of_rotation,
                          is_outerplanar, is_planar, kuratowski_witness,
                          min_genus, min_genus_rotation, planar_rotation,
                          rotation_search_space,
                          rotation_to_json_obj, trace_faces, validate_rotation)

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
        min_genus_rotation(Graph.complete(8), budget=10)
    # K5's quotiented rotation space is 3888: that budget passes, one less
    # refuses it
    k5 = Graph.complete(5)
    assert min_genus_rotation(k5, budget=3888)[0] == 1
    with pytest.raises(BudgetExceededError,
                       match=r"^rotation space 3888 exceeds budget 3887$"):
        min_genus_rotation(k5, budget=3887)


def test_rotation_budget_is_checked_before_any_choice_is_built(monkeypatch):
    # K12 has 10! cyclic orders at each of its 12 vertices: the count alone
    # must refuse it, without the choices that would take gigabytes
    def unbuilt(g):
        raise AssertionError("rotation choices built before the budget check")

    monkeypatch.setattr(topo, "_rotation_choices", unbuilt)
    with pytest.raises(BudgetExceededError,
                       match=r"^rotation space over 10{18} exceeds budget 1000000$"):
        min_genus_rotation(Graph.complete(12))
    with pytest.raises(BudgetExceededError,
                       match=r"^rotation space 95551488 exceeds budget 1000000$"):
        min_genus_rotation(Graph.complete(6))


def _enumerated_space(g: Graph) -> int:
    return math.prod(len(perms) for _, perms in _rotation_choices(g))


def test_rotation_search_space_closed_form_on_the_sweep_graphs():
    import cli_sweep
    spaces = {name: rotation_search_space(g)
              for name, g in cli_sweep.GENUS_GRAPHS.items()}
    assert spaces == {name: _enumerated_space(g)
                      for name, g in cli_sweep.GENUS_GRAPHS.items()}
    assert spaces["block"] == 10368 and spaces["K6"] == 95551488


def _index_walk_faces(rot) -> int:
    """Reference: the face walk over a ring-position index and a seen set."""
    index = {(v, u): i for v, ring in rot.items() for i, u in enumerate(ring)}
    faces, seen = 0, set()
    for u in rot:
        for v in rot[u]:
            if (u, v) in seen:
                continue
            faces += 1
            d = (u, v)
            while d not in seen:
                seen.add(d)
                du, dv = d
                ring = rot[dv]
                d = (dv, ring[(index[(dv, du)] + 1) % len(ring)])
    return faces


def _random_graph(rng: random.Random) -> Graph:
    n = rng.randint(1, 7)
    p = rng.random()
    return Graph.make(n, [e for e in itertools.combinations(range(n), 2)
                          if rng.random() < p])


def test_face_walk_matches_the_index_walk():
    # shuffled rings, so no ring starts at its least neighbour as the
    # search's pinned orders do; up to 100 draws, one per ring tuple
    rng = random.Random(2014)
    named = [Graph.complete(4), K5, K33, genus_block().graph, Graph.path(5),
             Graph.cycle(6), Graph.make(8, K5.edges)]
    for g in named + [_random_graph(rng) for _ in range(300)]:
        for _ in range(min(100, math.prod(math.factorial(len(ns))
                                          for ns in g.adjacency))):
            rot = {v: tuple(rng.sample(ns, len(ns)))
                   for v, ns in enumerate(g.adjacency) if ns}
            assert trace_faces(g, rot) == _index_walk_faces(rot), (g, rot)


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
        comps = [c for c in g.components if len(c) > 1]
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


def test_counting_certificates_skip_the_general_test(planarity_calls):
    # at most 8 edges, or more than 3V - 6 edges: no general test
    assert is_planar(Graph.cycle(8)) and is_planar(Graph.complete_bipartite(2, 4))
    assert not is_planar(Graph.complete(5)) and not is_planar(Graph.complete(6))
    assert planarity_calls == []
    # outerplanarity never reaches the general test
    for h in nx.graph_atlas_g():
        is_outerplanar(Graph.make(h.number_of_nodes(), h.edges()))
    assert planarity_calls == []
    # K3,3 has 9 <= 3V - 6 edges, minimum degree 3 and no vertex adjacent to
    # all others: the general test decides
    assert not is_planar(K33)
    assert planarity_calls == [6]


def test_forests_skip_the_general_test(planarity_calls):
    # the degree-1 peel deletes every vertex of a forest, which is planar
    two_trees = Graph.make(14, [(i, i + 1) for i in range(6)] +
                           [(7, 8 + i) for i in range(6)])
    for g in (Graph.path(12), Graph.complete_bipartite(1, 11), two_trees):
        assert len(g.edges) > 8
        assert is_planar(g)
    assert len(two_trees.edges) == 12
    assert planarity_calls == []


# -- the degree-2 peel and the dominating-vertex rules ------------------------

DIAMOND = Graph.make(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])  # base 1-2


def _peel(g):
    """The peel alone, without the edge counts in front of it."""
    return topo._peel_outerplanar(list(g.nbrs))


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


@pytest.mark.parametrize("gadget", [
    pytest.param(star_gadget(7), id="star-n7"),
    pytest.param(buddy_transform(star_gadget(6)), id="buddy-n6"),
])
def test_peel_matches_the_set_based_reference_on_gadget_candidates(gadget):
    # every candidate of the outerplanar-star gadgets that the lemma runs
    # with H = K3 at n = 7 and H = K2 at n = 6
    n, base = gadget.graph.n, sorted(gadget.enforced)
    verdicts = set()
    for combo in itertools.combinations(sorted(gadget.free_edges()),
                                        gadget.budget - len(base)):
        g = Graph.make(n, base + list(combo))
        got = _peel(g)
        assert got == reference_peel_outerplanar(g.nbrs), combo
        verdicts.add(got)
    assert verdicts == {True, False}


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


# -- the embedding and the Kuratowski witness against networkx ----------------


def _check_embedding(g):
    """planar_rotation, is_planar and kuratowski_witness against networkx.

    A planar graph's rotation must trace to genus 0 on each component with
    edges; a non-planar graph must yield a valid K5 or K3,3 minor."""
    planar = nx_planar(g.n, sorted(g.edges))
    rot = planar_rotation(g)
    assert (rot is not None) == is_planar(g) == planar, sorted(g.edges)
    if planar:
        validate_rotation(g, rot)
        for comp in g.components:
            if len(comp) > 1:
                part = Graph(g.n, frozenset(e for e in g.edges if e[0] in comp))
                assert genus_of_rotation(part, {v: rot[v] for v in comp}) == 0
        assert kuratowski_witness(g) is None
    else:
        kind, sets = kuratowski_witness(g)
        _validate_branch_sets(g, K5 if kind == "k5" else K33, sets)


def test_embedding_agrees_with_networkx_on_small_graphs():
    for h in nx.graph_atlas_g():
        _check_embedding(Graph.make(h.number_of_nodes(), h.edges()))


def test_embedding_agrees_with_networkx_on_random_graphs():
    rng = random.Random(1964)
    for _ in range(3000):
        n = rng.randint(5, 12)
        p = rng.choice((0.2, 0.35, 0.5, 0.7))
        _check_embedding(Graph.make(n, [e for e in all_edges(n) if rng.random() < p]))


def _disjoint(*parts):
    n, edges = 0, []
    for g in parts:
        edges += [(u + n, w + n) for u, w in g.edges]
        n += g.n
    return Graph.make(n, edges)


def _glued(g, h):
    """g and h sharing their last and first vertex."""
    shift = g.n - 1
    return Graph.make(shift + h.n,
                      list(g.edges) + [(u + shift, w + shift) for u, w in h.edges])


BOWTIE = _glued(Graph.complete(3), Graph.complete(3))


@pytest.mark.parametrize("g,planar", [
    (_disjoint(K5, Graph.empty(1)), False),
    (_disjoint(K33, K33), False),
    (_disjoint(K33, Graph.cycle(4)), False),
    (_glued(Graph.complete(4), K5), False),
    (_glued(Graph.complete(4), Graph.complete(4)), True),
    (BOWTIE, True),
    (_glued(BOWTIE, Graph.path(3)), True),
    (_disjoint(Graph.complete(4), CUBE, Graph.empty(1), BOWTIE), True),
], ids=["K5+K1", "K33+K33", "K33+C4", "K4.K5", "K4.K4", "bowtie",
        "bowtie.pendant", "K4+cube+K1+bowtie"])
def test_embedding_on_disconnected_and_cut_vertex_graphs(g, planar):
    assert is_planar(g) == planar
    _check_embedding(g)


@st.composite
def small_graphs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    edges = all_edges(n)
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Graph.make(n, [e for e, k in zip(edges, keep) if k])


@st.composite
def two_tree_subgraphs(draw, max_n=9):
    """A 2-tree grown from an edge, each new vertex joined to both ends of
    an edge, with some edges dropped and the labels permuted: sparse graphs
    near the 2n - 3 edges of a maximal outerplanar one, many of them
    outerplanar and many not."""
    n = draw(st.integers(2, max_n))
    edges = [(0, 1)]
    for v in range(2, n):
        a, b = draw(st.sampled_from(edges))
        edges += [(a, v), (b, v)]
    drop = draw(st.sets(st.sampled_from(edges), max_size=n // 2))
    perm = draw(st.permutations(range(n)))
    return Graph.make(n, [(perm[a], perm[b]) for a, b in edges if (a, b) not in drop])


@given(st.one_of(small_graphs(), two_tree_subgraphs()))
@settings(max_examples=150, deadline=None)
def test_embedding_agrees_with_networkx(g):
    _check_embedding(g)


@given(st.one_of(small_graphs(max_n=9), two_tree_subgraphs()))
@example(K23)
@example(_join(K23, 1))
@settings(max_examples=300, deadline=None)
def test_peel_agrees_with_networkx_and_the_reference(g):
    # the peel alone, without the edge counts that decide most graphs first
    want = nx_outerplanar(g.n, sorted(g.edges))
    assert _peel(g) == reference_peel_outerplanar(g.nbrs) == want
    assert is_outerplanar(g) == want


@given(st.one_of(small_graphs(max_n=7), two_tree_subgraphs(max_n=7)),
       st.integers(0, 10 ** 6))
@settings(max_examples=150, deadline=None)
def test_rotation_search_space_closed_form(g, cap):
    exact = _enumerated_space(g)
    assert rotation_search_space(g) == exact
    # a capped count is exact up to the cap and past it a bound above the cap
    capped = rotation_search_space(g, cap)
    assert capped == exact if exact <= cap else cap < capped <= exact


def test_planar_rotation_certifies_its_embedding(monkeypatch):
    assert planar_rotation(K5) is None and planar_rotation(K33) is None
    monkeypatch.setattr(topo, "trace_faces", lambda g, rot: 1)
    with pytest.raises(AssertionError, match="Euler characteristic"):
        planar_rotation(CUBE)


def _bfs_distance(g, first, through, goal):
    """Reference: edges on a shortest path from first to a vertex of the mask
    goal whose other vertices are all in the mask through, or None."""
    dist = {first: 0}
    queue = [first]
    for v in queue:
        for w in g.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                if goal >> w & 1:
                    return dist[w]
                if through >> w & 1:
                    queue.append(w)
    return None


def test_path_is_a_shortest_path_through_the_mask():
    rng = random.Random(7)
    for _ in range(1500):
        n = rng.randint(2, 10)
        g = Graph.make(n, [e for e in all_edges(n) if rng.random() < 0.4])
        first = rng.randrange(n)
        through = rng.getrandbits(n) | 1 << first
        goal = rng.getrandbits(n) & ~(1 << first)
        path = topo._path(g.nbrs, first, through, goal)
        expected = _bfs_distance(g, first, through, goal)
        if expected is None:
            assert path is None
            continue
        assert len(path) - 1 == expected
        assert path[0] == first and goal >> path[-1] & 1
        assert all(through >> v & 1 for v in path[:-1])
        assert all(g.has_edge(u, w) for u, w in zip(path, path[1:]))


def _blocks_with_masks(g):
    """Each block of g with two or more edges, with its neighbour masks."""
    for block in topo._blocks(g.nbrs):
        if len(block) > 1:
            nbrs = [0] * g.n
            for u, w in block:
                nbrs[u] |= 1 << w
                nbrs[w] |= 1 << u
            yield block, nbrs


def _check_block_faces(block, nbrs):
    faces = topo._embed_block(nbrs)
    darts = [(f[i - 1], f[i]) for f in faces for i in range(len(f))]
    assert sorted(darts) == sorted(block + [(w, u) for u, w in block])
    vertices = len({v for e in block for v in e})
    assert vertices - len(block) + len(faces) == 2


WHEEL = Graph.make(7, list(Graph.cycle(6).edges) + [(v, 6) for v in range(6)])


def test_embed_block_faces_walk_each_edge_once_each_way():
    graphs = [Graph.complete(4), CUBE, WHEEL, BOWTIE]
    rng = random.Random(1973)
    while len(graphs) < 300:
        n = rng.randint(4, 10)
        g = Graph.make(n, [e for e in all_edges(n) if rng.random() < 0.45])
        if nx_planar(g.n, sorted(g.edges)):
            graphs.append(g)
    for g in graphs:
        for block, nbrs in _blocks_with_masks(g):
            _check_block_faces(block, nbrs)


def test_embed_block_rejects_kuratowski_blocks():
    k5_subdivided = Graph.make(6, [e for e in K5.edges if e != (0, 1)]
                               + [(0, 5), (1, 5)])
    for g in (K5, K33, k5_subdivided):
        assert topo._embed_block(list(g.nbrs)) is None


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
PETERSEN = Graph.make(10, [(i, (i + 1) % 5) for i in range(5)]
                      + [(i, i + 5) for i in range(5)]
                      + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
# genus 2 (additivity over blocks), and no edge leaves a planar rest
K33_BRIDGE_K33 = Graph.make(12, list(K33.edges) + [(u + 6, w + 6) for u, w in K33.edges]
                            + [(0, 6)])


def _random_nonplanar_graphs():
    """Connected non-planar graphs whose rotation space is at most 3000."""
    rng = random.Random(1230)
    out = []
    while len(out) < 8:
        n = rng.randint(6, 8)
        g = Graph.make(n, [e for e in all_edges(n) if rng.random() < 0.5])
        if (g.is_connected() and not is_planar(g)
                and rotation_search_space(g, 3000) <= 3000):
            out.append(g)
    return out


def _count_genus_calls(monkeypatch):
    calls = []
    real = topo.genus_of_rotation

    def counting(g, rot):
        calls.append(1)
        return real(g, rot)

    monkeypatch.setattr(topo, "genus_of_rotation", counting)
    return calls


def _certified(g: Graph) -> bool:
    """Whether min_genus_rotation takes g's genus from the one-edge
    certificate: a validated Kuratowski witness and a planar G - e."""
    return (kuratowski_witness(g) is not None
            and topo._one_edge_rotation(g) is not None)


def _check_against_exhaustive_search(g: Graph) -> None:
    """A certified genus is the exhaustive search's least genus, and its
    rotation traces to it; any other graph gets the search's own pair."""
    genus, rot = min_genus_rotation(g)
    if _certified(g):
        assert genus == _exhaustive_min_genus_rotation(g)[0] == 1
        assert genus_of_rotation(g, rot) == genus
    else:
        assert (genus, rot) == _exhaustive_min_genus_rotation(g)


def test_one_edge_certificate_matches_exhaustive_search():
    graphs = NONPLANAR + _random_nonplanar_graphs()
    assert all(_certified(g) for g in graphs)
    for g in graphs:
        _check_against_exhaustive_search(g)


def test_early_stop_matches_exhaustive_search():
    # graphs the certificate does not cover keep the search's exact pair
    planar = [g for g in _random_graphs() if g.edges and g.is_connected()]
    assert all(is_planar(g) for g in planar)
    uncertified = [PETERSEN, K33_BRIDGE_K33]
    assert rotation_search_space(PETERSEN) == 512
    assert not any(_certified(g) for g in planar + uncertified)
    for g in planar + uncertified:
        assert min_genus_rotation(g) == _exhaustive_min_genus_rotation(g)
    assert [_exhaustive_min_genus_rotation(g)[0] for g in uncertified] == [1, 2]


@given(small_graphs(max_n=7))
@example(Graph.complete(5))
@example(K33)
@example(PETERSEN)
@settings(max_examples=100, deadline=None)
def test_min_genus_rotation_matches_exhaustive_search(g):
    assume(sum(1 for comp in g.components if len(comp) > 1) == 1)
    assume(rotation_search_space(g, 2000) <= 2000)
    _check_against_exhaustive_search(g)


def test_certificate_of_another_genus_is_refused(monkeypatch):
    monkeypatch.setattr(topo, "genus_of_rotation", lambda g, rot: 0)
    with pytest.raises(AssertionError, match="gave genus 0, not 1"):
        min_genus_rotation(genus_block().graph)


def test_early_stop_cuts_the_block_search(monkeypatch):
    # the certificate replaces the search: one trace, no rotation choices
    def unbuilt(g):
        raise AssertionError("rotation choices built for a certified graph")

    monkeypatch.setattr(topo, "_rotation_choices", unbuilt)
    calls = _count_genus_calls(monkeypatch)
    for g in NONPLANAR:
        assert min_genus_rotation(g)[0] == 1
    assert len(calls) == len(NONPLANAR)


def test_kuratowski_witness_is_validated():
    for g in NONPLANAR:
        kind, sets = kuratowski_witness(g)
        _validate_branch_sets(g, K5 if kind == "k5" else K33, sets)
    assert kuratowski_witness(Graph.complete(5))[0] == "k5"
    assert kuratowski_witness(K33)[0] == "k33"


def test_kuratowski_witness_none_on_planar_graphs():
    # the two ways the reader gives up: K4 has four vertices of degree 3,
    # and in K5 - e with a pendant vertex on a branch vertex the walk from
    # that branch vertex ends at a vertex of degree 1
    k5_less_edge = Graph.make(6, sorted(K5.edges - {(3, 4)}) + [(0, 5)])
    for g in (Graph.complete(4), k5_less_edge):
        assert topo._kuratowski_branch_sets(g.nbrs) is None
    planar = [Graph.complete(4), k5_less_edge, CUBE, Graph.cycle(5), Graph.empty(3)]
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
    # a vertex of a two-vertex set moved to a set it has no neighbour in
    src = next(i for i, s in enumerate(sets) if len(s) == 2)
    v = max(sets[src])
    dst = next(i for i, s in enumerate(sets)
               if i != src and not any(block.has_edge(v, u) for u in s))
    disconnected = [set(s) for s in sets]
    disconnected[src].discard(v)
    disconnected[dst].add(v)
    for tampered, fault in ((overlap, "overlap"), (emptied, "no edge"),
                            (disconnected, "not connected")):
        with pytest.raises(AssertionError, match=fault):
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


@pytest.mark.parametrize("first", ["import hompoly.topo", "import hompoly.graphs",
                                   "from hompoly.graphs import recognize"])
def test_graphs_and_topo_import_in_any_order(first):
    # graphs imports topo at its end, and topo imports Graph from graphs
    check = (f"{first}\n"
             "from hompoly.graphs import OUTERPLANAR, PLANAR, Graph, recognize\n"
             "assert recognize(Graph.complete(4), PLANAR)\n"
             "assert not recognize(Graph.complete(5), OUTERPLANAR)\n")
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    r = subprocess.run([sys.executable, "-c", check],
                       env={**os.environ, "PYTHONPATH": path},
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0, r.stderr


def test_validate_rotation_refuses_the_wrong_vertex_set():
    g = Graph.make(4, [(0, 1), (1, 2), (0, 2)])
    rot = planar_rotation(g)
    with pytest.raises(ValueError, match="non-isolated vertices"):
        validate_rotation(g, {**rot, 3: ()})
    with pytest.raises(ValueError, match="non-isolated vertices"):
        validate_rotation(g, {v: ring for v, ring in rot.items() if v != 2})


def test_find_minor_fails_loudly_past_its_budget(monkeypatch):
    # a 6-cycle holds no triangle, so the search must contract: K3 shows on
    # the fourth search state, so a budget of four finds it and three does not
    c6, k3 = Graph.cycle(6), Graph.complete(3)
    monkeypatch.setattr(topo, "MINOR_BUDGET", 4)
    assert find_minor(c6, k3) is not None
    monkeypatch.setattr(topo, "MINOR_BUDGET", 3)
    with pytest.raises(BudgetExceededError, match="minor search budget exceeded"):
        find_minor(c6, k3)
