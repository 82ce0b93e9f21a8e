"""Graph construction, homomorphism search, recognizers and enumeration."""

import itertools
import math
import random

import pytest

from conftest import (brute_class_subsets, brute_is_homomorphic,
                      reference_clique_sets, reference_cycle_sets,
                      reference_tree_sets)
from hompoly import (Graph, class_edge_subsets, hom_to_single_edge, is_homomorphic,
                     recognize)
from hompoly.graphs import (CLIQUE, CYCLE, OUTERPLANAR, PLANAR, TREE,
                            all_edges, class_edge_masks, genus_class,
                            subset_in_class)

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


def test_hom_search_runs_only_when_no_certificate_decides():
    # an odd cycle into a loopless non-bipartite target needs the search;
    # C5 maps to K3 but K3 does not map to C5
    assert is_homomorphic(Graph.cycle(5), Graph.complete(3))
    assert not is_homomorphic(Graph.complete(3), Graph.cycle(5))
    assert is_homomorphic(Graph.cycle(7), Graph.cycle(5))
    assert not is_homomorphic(Graph.complete(4), Graph.complete(3))
    # bipartite g maps to any edge, also beyond the search budget
    assert is_homomorphic(Graph.complete_bipartite(3, 4), Graph.complete(5), budget=0)
    assert not is_homomorphic(Graph.cycle(5), Graph.path(3), budget=0)


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


def test_recognize_rejects_extra_components():
    g = Graph.make(6, [(0, 1), (1, 2), (0, 2), (3, 4)])
    assert not recognize(g, CYCLE)


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
