"""Graph construction, homomorphism search, recognizers and enumeration."""

import itertools
import math
import random

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (brute_class_subsets, brute_is_homomorphic, class_edge_subsets,
                      nx_in_class, reference_clique_sets, reference_cycle_sets,
                      reference_tree_sets, to_nx)
from hompoly import Graph, hom_to_single_edge, is_homomorphic, recognize, topo
from hompoly.errors import BudgetExceededError
from hompoly.graphs import (CLIQUE, CYCLE, OUTERPLANAR, PLANAR, TREE, GraphClass,
                            _two_colourable, all_edges, bits, class_edge_masks,
                            core, genus_class, reach, subset_in_class)

K2 = Graph.single_edge()


def test_edges_are_canonicalized():
    g = Graph.make(3, [(2, 1), (1, 2), (0, 2)])
    assert g.edges == frozenset({(1, 2), (0, 2)})
    with pytest.raises(ValueError):
        Graph.make(2, [(0, 0)])


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError, match="negative"):
        Graph.make(-1)
    with pytest.raises(ValueError):
        Graph.complete(-1)
    assert Graph.make(0).n == 0


def test_odd_cycle_not_homomorphic_to_edge():
    assert not is_homomorphic(Graph.cycle(3), K2)
    assert is_homomorphic(Graph.cycle(4), K2)


def test_everything_maps_to_a_looped_vertex():
    loop = Graph.looped_vertex()
    for g in (Graph.cycle(5), Graph.complete(4), Graph.path(4)):
        assert is_homomorphic(g, loop)


def test_loops_of_g_need_looped_images():
    looped_edge = Graph.make(2, [(0, 1)], loops=[0])
    assert not is_homomorphic(looped_edge, K2)
    assert not is_homomorphic(Graph.looped_vertex(), K2)
    assert not is_homomorphic(Graph.make(3, loops=[2]), Graph.complete(3))
    assert is_homomorphic(looped_edge, looped_edge)
    assert is_homomorphic(Graph.make(2, [(0, 1)], loops=[0, 1]), Graph.looped_vertex())
    assert is_homomorphic(Graph.make(4, [(0, 1), (2, 3)], loops=[1, 3]),
                          Graph.make(2, [(0, 1)], loops=[1]))
    for g in (looped_edge, Graph.looped_vertex()):
        assert not brute_is_homomorphic(g, K2)


def test_only_the_empty_graph_maps_into_the_empty_graph():
    empty = Graph.make(0)
    for g in (empty, Graph.make(1), K2, Graph.looped_vertex()):
        assert is_homomorphic(g, empty) == (g.n == 0) == brute_is_homomorphic(g, empty)


def test_hom_matches_brute_force_on_samples():
    rng = random.Random(7)
    hs = [K2, Graph.complete(3), Graph.looped_vertex(), Graph.path(3),
          Graph.make(2, [(0, 1)], loops=[0]), Graph.cycle(5), Graph.empty(2)]
    for i in range(80):
        n = rng.randint(1, 5)
        edges = [e for e in all_edges(n) if rng.random() < 0.5]
        # every other sample carries loops, so a loop of g is tested against
        # looped and loopless targets alike
        loops = [v for v in range(n) if rng.random() < 0.3] if i % 2 else []
        g = Graph.make(n, edges, loops)
        for h in hs:
            assert is_homomorphic(g, h) == brute_is_homomorphic(g, h)


def test_hom_search_runs_only_when_no_certificate_decides(monkeypatch):
    # an odd cycle into a loopless non-bipartite target without a triangle
    # needs the search; C7 maps to C5 but K3 does not map to C5
    assert is_homomorphic(Graph.cycle(5), Graph.complete(3))
    assert not is_homomorphic(Graph.complete(3), Graph.cycle(5))
    assert is_homomorphic(Graph.cycle(7), Graph.cycle(5))
    assert not is_homomorphic(Graph.complete(4), Graph.complete(3))
    # bipartite g maps to any edge, and a 2-degenerate g to any triangle,
    # also beyond the search budget
    monkeypatch.setattr("hompoly.graphs.HOM_BUDGET", 0)
    assert is_homomorphic(Graph.complete_bipartite(3, 4), Graph.complete(5))
    assert not is_homomorphic(Graph.cycle(5), Graph.path(3))
    assert is_homomorphic(Graph.cycle(5), Graph.complete(3))
    fan = Graph.make(7, [(0, i) for i in range(1, 7)] + [(i, i + 1) for i in range(1, 6)])
    assert recognize(fan, OUTERPLANAR) and not hom_to_single_edge(fan)
    assert is_homomorphic(fan, Graph.complete(3))
    with pytest.raises(BudgetExceededError):
        is_homomorphic(Graph.cycle(7), Graph.cycle(5))
    # K4 has minimum degree 3, so the triangle certificate does not take it
    with pytest.raises(BudgetExceededError):
        is_homomorphic(Graph.complete(4), Graph.complete(3))


@pytest.mark.parametrize("g, nodes, found", [(Graph.cycle(7), 38, True),
                                             (Graph.complete(4), 80, False)])
def test_hom_budget_trips_one_below_the_search_nodes(monkeypatch, g, nodes, found):
    # no certificate decides g into C5, so the search runs, trying exactly
    # nodes images: a budget of nodes passes, one less raises
    c5 = Graph.cycle(5)
    monkeypatch.setattr("hompoly.graphs.HOM_BUDGET", nodes)
    assert is_homomorphic(g, c5) is found
    monkeypatch.setattr("hompoly.graphs.HOM_BUDGET", nodes - 1)
    with pytest.raises(BudgetExceededError, match="homomorphism search budget exceeded"):
        is_homomorphic(g, c5)


@pytest.mark.parametrize("d", [1, 2])
def test_core_leaves_the_networkx_core(d):
    # the vertices core(nbrs, d) keeps with an edge are networkx's
    # (d+1)-core; the deleted and the isolated ones have empty masks
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(1, 9)
        g = Graph.make(n, [e for e in all_edges(n) if rng.random() < 0.4])
        kept = nx.k_core(to_nx(n, g.edges), d + 1)
        assert core(g.nbrs, d) == [sum(1 << w for w in kept[v]) if v in kept else 0
                                   for v in range(n)]


@st.composite
def _two_degenerate_graphs(draw, max_n=7):
    """Each vertex joined to at most two earlier ones, then relabelled."""
    n = draw(st.integers(1, max_n))
    edges = [(u, v) for v in range(1, n)
             for u in draw(st.lists(st.integers(0, v - 1), unique=True, max_size=2))]
    perm = draw(st.permutations(range(n)))
    return Graph.make(n, [(perm[u], perm[v]) for u, v in edges])


@st.composite
def _graphs_with_a_triangle(draw, max_n=4):
    n = draw(st.integers(3, max_n))
    extra = draw(st.lists(st.sampled_from(all_edges(n)), unique=True))
    perm = draw(st.permutations(range(n)))
    return Graph.make(n, [(perm[a], perm[b]) for a, b in [(0, 1), (1, 2), (0, 2)] + extra])


@given(_two_degenerate_graphs(), _graphs_with_a_triangle())
@settings(max_examples=150, deadline=None)
def test_two_degenerate_graphs_map_onto_any_triangle(g, h):
    assert is_homomorphic(g, h) == brute_is_homomorphic(g, h)


def test_hom_search_skips_isolated_vertices_of_h():
    # a vertex of g with an edge never maps to an isolated vertex of h;
    # trying each of them as an image exceeded the node budget here
    h = Graph.make(1505, sorted(Graph.cycle(5).edges))
    assert not is_homomorphic(Graph.complete(3), h)
    assert is_homomorphic(Graph.cycle(7), h)


def test_hom_is_reflexive_and_composes():
    rng = random.Random(11)
    graphs = []
    for _ in range(12):
        n = rng.randint(2, 5)
        graphs.append(Graph.make(n, [e for e in all_edges(n) if rng.random() < 0.6]))
    for g in graphs:
        assert is_homomorphic(g, g)
    for g, h, k in itertools.islice(itertools.product(graphs, repeat=3), 200):
        if is_homomorphic(g, h) and is_homomorphic(h, k):
            assert is_homomorphic(g, k)


def test_hom_to_single_edge_is_bipartiteness():
    assert hom_to_single_edge(Graph.cycle(4))
    assert not hom_to_single_edge(Graph.cycle(5))
    ladder = Graph.make(6, [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)])
    assert hom_to_single_edge(ladder)  # height-one grid folds onto an edge
    # exhaustive agreement with the brute-force oracle on every graph with
    # <= 4 vertices, sampled agreement up to 8
    for n in range(1, 5):
        edges = all_edges(n)
        for mask in range(1 << len(edges)):
            es = [edges[i] for i in range(len(edges)) if mask >> i & 1]
            g = Graph.make(n, es)
            assert hom_to_single_edge(g) == brute_is_homomorphic(g, K2)
    rng = random.Random(3)
    for _ in range(150):
        n = rng.randint(5, 8)
        g = Graph.make(n, [e for e in all_edges(n) if rng.random() < 0.4])
        assert hom_to_single_edge(g) == brute_is_homomorphic(g, K2)


def test_recognize_examples():
    tri_plus_isolated = Graph.make(5, [(0, 1), (1, 2), (0, 2)])
    assert recognize(tri_plus_isolated, CYCLE)
    two_edges = Graph.make(4, [(0, 1), (2, 3)])
    assert not recognize(two_edges, CLIQUE)
    assert not recognize(Graph.complete(4), OUTERPLANAR)
    assert recognize(Graph.complete(4), PLANAR)
    assert recognize(Graph.complete(5), genus_class(1))
    assert not recognize(Graph.complete(5), PLANAR)
    assert not recognize(Graph.make(3, [(0, 1)], loops=[2]), TREE)


def test_recognize_puts_a_genus_two_graph_in_genus_class_two_only():
    # two K3,3 joined by an edge: genus 2 by additivity over blocks, so
    # being non-planar is not enough for genus class 1
    k33 = Graph.complete_bipartite(3, 3)
    g = Graph.make(12, list(k33.edges) + [(u + 6, w + 6) for u, w in k33.edges]
                   + [(0, 6)])
    assert not recognize(g, genus_class(1))
    assert recognize(g, genus_class(2))


def test_recognize_rejects_extra_components():
    g = Graph.make(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert not recognize(g, CYCLE)


def test_recognize_with_isolated_vertices_matches_networkx():
    rng = random.Random(1412)
    accepted_with_isolated = set()
    for _ in range(1500):
        n = rng.randint(1, 7)
        live = [v for v in range(n) if rng.random() < 0.7]
        density = rng.random()
        g = Graph.make(n, [e for e in itertools.combinations(live, 2)
                           if rng.random() < density])
        classes = [CYCLE, CLIQUE, TREE, OUTERPLANAR, PLANAR, genus_class(0)]
        classes += [genus_class(1)] if n <= 5 else []
        for cls in classes:
            got = recognize(g, cls)
            assert got == nx_in_class(n, sorted(g.edges), cls.kind, cls.genus), \
                (n, sorted(g.edges), cls)
            if got and 0 in map(len, g.adjacency):
                accepted_with_isolated.add(str(cls))
    assert accepted_with_isolated == {"cycle", "clique", "tree", "outerplanar",
                                      "planar", "genus(0)"}


def _graphs_up_to(n_max):
    """Random graphs on 0..n_max vertices, edgeless ones and ones with
    isolated vertices included."""
    return st.integers(0, n_max).flatmap(
        lambda n: st.lists(st.sampled_from(all_edges(n)), unique=True).map(
            lambda es: Graph.make(n, es)) if n > 1 else st.just(Graph.empty(n)))


@settings(max_examples=200, deadline=None)
@given(_graphs_up_to(10))
@example(Graph.empty(4))
@example(Graph.make(7, [(0, 1), (1, 2), (2, 3), (0, 3)]))  # C4 and three isolated
@example(Graph.make(10, [(i, j) for i in range(5) for j in range(i + 1, 5)]))  # K5
@example(Graph.make(10, [(i, 5 + j) for i in range(3) for j in range(3)]))  # K3,3
def test_recognize_agrees_with_networkx_up_to_ten_vertices(g):
    for cls in (CYCLE, TREE, OUTERPLANAR, PLANAR):
        assert recognize(g, cls) == nx_in_class(g.n, sorted(g.edges), cls.kind), cls


def _brute_adjacency(g):
    return tuple(tuple(sorted(w for e in g.edges if v in e for w in e if w != v))
                 for v in range(g.n))


def _brute_components(g):
    """Each vertex's reachable set, grown edge by edge, once per component."""
    def reach(v):
        comp = {v}
        while True:
            grown = comp | {w for e in g.edges if comp & set(e) for w in e}
            if grown == comp:
                return frozenset(comp)
            comp = grown
    return tuple(dict.fromkeys(reach(v) for v in range(g.n)))


def _brute_nbrs(g):
    return tuple(sum(1 << w for e in g.edges if v in e for w in e if w != v)
                 for v in range(g.n))


def _random_graph(rng, n, density=0.3):
    return Graph.make(n, [e for e in all_edges(n) if rng.random() < density])


def test_adjacency_and_components_are_computed_once():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(0, 8)
        g = _random_graph(rng, n)
        assert g.nbrs is g.nbrs and g.nbrs == _brute_nbrs(g)
        assert g.adjacency is g.adjacency and g.components is g.components
        assert g.adjacency == _brute_adjacency(g)
        assert g.components == _brute_components(g)
        assert [g.degree(v) for v in range(n)] == list(map(len, _brute_adjacency(g)))
        fresh = Graph.make(n, g.edges)
        assert "adjacency" not in vars(fresh) and "nbrs" not in vars(fresh)
        assert fresh.nbrs == g.nbrs and "nbrs" in vars(fresh)
        assert "adjacency" not in vars(fresh)
        assert fresh == g and hash(fresh) == hash(g) and {g: n}[fresh] == n


def test_components_keep_least_vertex_order_around_isolated_vertices():
    # isolated 0, 5 and 9 fall before, between and after the edged components
    g = Graph.make(11, [(1, 8), (8, 3), (2, 10), (4, 6), (6, 7)])
    assert g.components == tuple(map(frozenset, (
        {0}, {1, 3, 8}, {2, 10}, {4, 6, 7}, {5}, {9})))
    assert g.components == _brute_components(g)
    assert Graph.empty(3).components == ({0}, {1}, {2})


def test_reach_is_the_component_of_its_seed():
    rng = random.Random(16)
    for _ in range(200):
        n = rng.randint(1, 9)
        g = _random_graph(rng, n, rng.random() * 0.5)
        for v in range(n):
            comp = next(c for c in _brute_components(g) if v in c)
            assert reach(g.nbrs, v) == sum(1 << w for w in comp)
        mask = rng.getrandbits(n)
        assert bits(mask) == [i for i in range(n) if mask >> i & 1]


def test_two_colourable_matches_every_two_colouring():
    rng = random.Random(17)
    seen = set()
    for _ in range(300):
        n = rng.randint(0, 8)
        g = _random_graph(rng, n, rng.random() * 0.6)
        got = _two_colourable(g.nbrs)
        assert got == brute_is_homomorphic(g, K2), sorted(g.edges)
        seen.add(got)
    assert seen == {True, False}


def test_class_checks_and_hom_certificates_build_no_tuples():
    # recognize and is_homomorphic, certificates and search alike, read only
    # the neighbour masks: no adjacency, no components
    rng = random.Random(18)
    for _ in range(200):
        g = _random_graph(rng, rng.randint(0, 8), rng.random())
        for cls in (CYCLE, CLIQUE, TREE, OUTERPLANAR):
            recognize(g, cls)
        is_homomorphic(g, Graph.complete(3))
        assert "adjacency" not in vars(g) and "components" not in vars(g)


def test_planarity_tests_leave_the_cached_adjacency_alone():
    # each graph reaches a peel, which mutates its own copy of the neighbour
    # masks
    wheel = Graph.make(8, [(i, (i + 1) % 6) for i in range(6)] +
                       [(6, i) for i in range(6)])
    double_apex = Graph.make(7, [(i, (i + 1) % 5) for i in range(5)] +
                             [(a, i) for a in (5, 6) for i in range(5)])
    for g in (wheel, double_apex, Graph.complete_bipartite(2, 3),
              Graph.complete_bipartite(3, 3)):
        adjacency, nbrs = g.adjacency, g.nbrs
        topo.is_planar(g)
        topo.is_outerplanar(g)
        assert g.adjacency is adjacency and adjacency == _brute_adjacency(g)
        assert g.nbrs is nbrs and nbrs == _brute_nbrs(g)


def collect(n, cls):
    return class_edge_subsets(Graph.complete(n), cls)


def test_enumeration_counts():
    assert len(collect(4, CYCLE)) == 7
    assert len(collect(4, CLIQUE)) == 11
    assert len(collect(3, TREE)) == 6


def test_enumeration_is_deterministic_and_bitmask_ordered():
    edges = all_edges(4)
    order = {e: i for i, e in enumerate(edges)}

    def mask(subset):
        return sum(1 << order[e] for e in subset)

    seen = collect(4, CYCLE)
    assert seen == collect(4, CYCLE)
    assert [mask(s) for s in seen] == sorted(mask(s) for s in seen)


@pytest.mark.parametrize("kind,genus_k", [("cycle", None), ("clique", None),
                                          ("tree", None), ("outerplanar", None),
                                          ("planar", None), ("genus", 0),
                                          ("genus", 1)])
def test_enumeration_matches_recognizer_and_brute(kind, genus_k):
    for n in (2, 3, 4, 5):
        if kind == "genus" and genus_k == 1 and n < 5:
            continue
        cls = genus_class(genus_k) if kind == "genus" else \
            {"cycle": CYCLE, "clique": CLIQUE, "tree": TREE,
             "outerplanar": OUTERPLANAR, "planar": PLANAR}[kind]
        got = {frozenset(s) for s in collect(n, cls)}
        expected = set(brute_class_subsets(n, kind, genus_k))
        assert got == expected
        for s in got:
            assert recognize(Graph.make(n, s), cls)
            assert subset_in_class(n, list(s), cls)


@pytest.mark.parametrize("cls", [CYCLE, CLIQUE, TREE])
def test_bitmask_path_matches_shape_generators(cls):
    # K5 minus one edge is not complete, so its subsets come from the
    # bitmask filter; they must be the K5 shapes that avoid the edge
    missing = (1, 3)
    host = Graph.make(5, [e for e in all_edges(5) if e != missing])
    got = class_edge_subsets(host, cls)
    assert got == [s for s in collect(5, cls) if missing not in s]


REFERENCE_SHAPES = {"cycle": reference_cycle_sets, "clique": reference_clique_sets,
                    "tree": reference_tree_sets}


@pytest.mark.parametrize("cls,largest", [(CYCLE, 8), (CLIQUE, 7), (TREE, 7)], ids=str)
def test_shape_masks_match_reference_generators(cls, largest):
    # the reference decodes each shape into a frozenset; the masks must be
    # the same subsets, in ascending bitmask order
    for n in range(largest + 1):
        order = {e: i for i, e in enumerate(all_edges(n))}
        reference = sorted(REFERENCE_SHAPES[cls.kind](n),
                           key=lambda s: sum(1 << order[e] for e in s))
        assert collect(n, cls) == reference, n
        masks = class_edge_masks(Graph.complete(n), cls)
        assert masks == sorted(set(masks))


def test_shape_mask_counts():
    for n in range(9):
        assert len(class_edge_masks(Graph.complete(n), TREE)) \
            == sum(math.comb(n, k) * k ** (k - 2) for k in range(2, n + 1))
        assert len(class_edge_masks(Graph.complete(n), CYCLE)) \
            == sum(math.comb(n, k) * math.factorial(k - 1) // 2
                   for k in range(3, n + 1))
        assert len(class_edge_masks(Graph.complete(n), CLIQUE)) \
            == 2 ** n - n - 1


def test_subset_in_class_equals_recognize_on_random_edge_lists():
    rng = random.Random(20261018)
    classes = [CYCLE, CLIQUE, TREE, OUTERPLANAR, PLANAR, genus_class(0)]
    for n in range(2, 8):
        for _ in range(500):
            density = rng.random()
            es = [e for e in all_edges(n) if rng.random() < density]
            rng.shuffle(es)
            g = Graph.make(n, es)
            for cls in classes:
                assert subset_in_class(n, es, cls) == recognize(g, cls), (n, es, cls)


def test_graph_json_roundtrip():
    g = Graph.make(4, [(0, 1), (2, 3)], loops=[1], labels={"center": 0})
    assert Graph.from_json_obj(g.to_json_obj()) == g


def test_labels_unique_per_role():
    with pytest.raises(ValueError, match="duplicate role labels"):
        Graph.make(2, labels=(("a", 0), ("a", 1)))


def test_tuple_labels_sorted_like_dict_labels():
    g = Graph.make(2, labels=(("b", 0), ("a", 1)))
    assert g == Graph.make(2, labels={"b": 0, "a": 1})
    assert g.labels == (("a", 1), ("b", 0))


@pytest.mark.parametrize("build,error,match", [
    (lambda: Graph.make(2, [(0, 2)]), ValueError, "out of range"),
    (lambda: Graph.cycle(2), ValueError, "at least 3 vertices"),
    (lambda: Graph.make(2).label("center"), KeyError, "center"),
    (lambda: recognize(K2, GraphClass("bogus")), ValueError, "unknown class kind"),
    (lambda: hom_to_single_edge(Graph.looped_vertex()), ValueError, "loopless"),
], ids=["make", "cycle", "label", "recognize", "hom_to_single_edge"])
def test_graph_helpers_refuse_bad_input(build, error, match):
    with pytest.raises(error, match=match):
        build()
