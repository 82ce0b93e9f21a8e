"""Generating functions, homomorphism-restricted polynomials, oracle suite."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import networkx as nx

from conftest import (brute_hamiltonian_cycles, brute_perfect_matchings,
                      class_edge_subsets, poly_term_edge_sets, reference_hom_subsets,
                      reference_subsets_to_poly)
from hompoly import (CYCLE, CLIQUE, OUTERPLANAR, PLANAR, TREE, Graph, VariableModel,
                     generating_function, genfun, hom_poly,
                     oracle_clique, oracle_matching, oracle_uhc, recognize,
                     reductions)
from hompoly.cli import _dump_poly
from hompoly.gadgets import planar_gadget, star_gadget
from hompoly.errors import BudgetExceededError
from hompoly.genfun import subsets_to_poly
from hompoly.graphs import all_edges, mask_edges
from hompoly.poly import Polynomial, aux_var, edge_var, monomial, vertex_var

LOOP = Graph.looped_vertex()
K2 = Graph.single_edge()
PETERSEN = Graph.make(10, nx.petersen_graph().edges())

# (target, largest n for cliques and trees, largest n for cycles).  The
# brute-force reference tries |V(h)|^n maps for each subset that does not
# map, so the larger targets stop earlier: the Petersen graph at n=6 alone
# would take over a minute.
SHAPE_TARGETS = [pytest.param(*args, id=name) for name, *args in [
    ("K2", K2, 6, 7), ("K3", Graph.complete(3), 6, 7), ("K4", Graph.complete(4), 6, 7),
    ("C5", Graph.cycle(5), 5, 5), ("C7", Graph.cycle(7), 5, 5),
    ("petersen", PETERSEN, 4, 4), ("loop", LOOP, 6, 7),
    ("empty1", Graph.empty(1), 6, 7), ("empty2", Graph.empty(2), 6, 7)]]


def test_gf_triangle_cycle():
    p = generating_function(Graph.complete(3), CYCLE)
    assert p == Polynomial.from_monomial(
        monomial({edge_var(0, 1): 1, edge_var(0, 2): 1, edge_var(1, 2): 1}))


def test_gf_single_edge_tree_with_vertices():
    p = generating_function(Graph.single_edge(), TREE, VariableModel.EDGE_AND_VERTEX)
    assert p == Polynomial.from_monomial(
        monomial({edge_var(0, 1): 1, vertex_var(0): 1, vertex_var(1): 1}))


def test_gf_zero_weight_edges_drop_out():
    # a weighted host is the class polynomial with its weights substituted:
    # a zero weight drops every term through the edge
    p = generating_function(Graph.complete(3), CYCLE)
    assert p.substitute({edge_var(0, 1): 0}).is_zero()


def test_gf_numeric_weights():
    p = generating_function(Graph.complete(3), CYCLE)
    assert p.substitute({edge_var(0, 1): 2, edge_var(0, 2): 3,
                         edge_var(1, 2): 5}) == Polynomial.constant(30)


def test_hom_poly_bipartite_keeps_even_cycles_only():
    p = hom_poly(K2, 5, CYCLE)
    assert len(p) == 15
    for es, coeff in poly_term_edge_sets(p):
        assert coeff == 1
        assert len(es) == 4


def test_hom_poly_loop_target_keeps_everything():
    p = hom_poly(LOOP, 4, CYCLE)
    assert len(p) == 7
    assert p == generating_function(Graph.complete(4), CYCLE)


def test_hom_poly_edgeless_target_is_zero():
    assert hom_poly(Graph.empty(3), 4, CYCLE).is_zero()
    assert hom_poly(Graph.empty(3), 4, CLIQUE).is_zero()


def test_hom_poly_terms_subset_of_gf():
    for cls in (CYCLE, CLIQUE, TREE):
        full = {m for m, _ in generating_function(Graph.complete(4), cls).terms()}
        restricted = {m for m, _ in hom_poly(K2, 4, cls).terms()}
        assert restricted <= full


@pytest.mark.parametrize("h,largest,largest_cycle", SHAPE_TARGETS)
@pytest.mark.parametrize("cls", [CYCLE, CLIQUE, TREE], ids=str)
def test_hom_poly_shape_kinds_match_per_subset_reference(h, largest, largest_cycle,
                                                         cls):
    # hom_poly decides one subset per edge count on these classes; the
    # reference decides every subset by brute force
    for n in range(2, (largest_cycle if cls is CYCLE else largest) + 1):
        expected = reference_hom_subsets(h, n, cls)
        for model in VariableModel:
            assert hom_poly(h, n, cls, model) == \
                reference_subsets_to_poly(expected, model), (n, model)


def _count_hom_checks(monkeypatch):
    edge_counts = []
    real = genfun.is_homomorphic

    def counting(g, h, *args, **kwargs):
        edge_counts.append(len(g.edges))
        return real(g, h, *args, **kwargs)

    monkeypatch.setattr(genfun, "is_homomorphic", counting)
    return edge_counts


@pytest.mark.parametrize("cls,n", [(CYCLE, 7), (CLIQUE, 6), (TREE, 6)], ids=str)
def test_hom_poly_checks_once_per_edge_count_on_shape_kinds(monkeypatch, cls, n):
    edge_counts = _count_hom_checks(monkeypatch)
    hom_poly(Graph.cycle(5), n, cls)
    distinct = {len(es) for es in class_edge_subsets(Graph.complete(n), cls)}
    assert sorted(edge_counts) == sorted(distinct)


def test_hom_poly_checks_every_outerplanar_subset(monkeypatch):
    # at n=4 the path P4 maps to K2 and the triangle does not, both with
    # three edges, so one verdict per edge count would be wrong here
    subsets = class_edge_subsets(Graph.complete(4), OUTERPLANAR)
    expected = reference_hom_subsets(K2, 4, OUTERPLANAR)
    assert {es in expected for es in subsets if len(es) == 3} == {True, False}
    edge_counts = _count_hom_checks(monkeypatch)
    assert hom_poly(K2, 4, OUTERPLANAR) == subsets_to_poly(expected)
    assert len(edge_counts) == len(subsets)


@pytest.mark.parametrize("model", list(VariableModel), ids=lambda m: m.value)
@pytest.mark.parametrize("gadget,cls", [
    pytest.param(planar_gadget(5), PLANAR, id="planar-m5"),
    pytest.param(star_gadget(6), OUTERPLANAR, id="star-n6"),
])
def test_subsets_to_poly_on_gadget_survivors_equals_assembler(gadget, cls, model):
    # the adapter indexes only the survivors' edges, the assembler here all
    # of the gadget's; both must give the reference polynomial
    survivors = reductions._gadget_survivors(
        gadget, lambda g: recognize(g, cls), Graph.complete(3))
    assert len(survivors) > 1
    edges = sorted(gadget.graph.edges)
    masks = [sum(1 << edges.index(e) for e in es) for es in survivors]
    evars = [edge_var(*e) for e in edges]
    expected = reference_subsets_to_poly(survivors, model)
    assert genfun._assemble(masks, evars, model) == expected
    # a subset listed twice counts twice, as in the reference
    assert genfun._assemble(masks * 2, evars, model) == expected * 2
    if model is VariableModel.EDGE_ONLY:  # the adapter's one model
        assert subsets_to_poly(survivors) == expected
        assert subsets_to_poly(survivors * 2) == expected * 2


def graded_lex(terms) -> list:
    """The definition of sorted_terms' order: total degree, then monomial."""
    return sorted(terms, key=lambda t: (sum(e for _, e in t[0]), t[0]))


@st.composite
def assembler_inputs(draw):
    """Ascending edge variables of K_n for n <= 12 (up to 66 edges, so a
    mask spans up to nine bytes and the vertex mask two), masks over them
    with repeats, and a variable model."""
    n = draw(st.integers(0, 12))
    edges = [e for e in all_edges(n) if draw(st.booleans())]
    top = (1 << len(edges)) - 1
    masks = draw(st.lists(st.integers(0, top), max_size=12))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=4))
    masks = draw(st.permutations(masks))
    return edges, masks, draw(st.sampled_from(list(VariableModel)))


@given(assembler_inputs())
@example((all_edges(7), [0, 0b11, 0b101, 0b110, 1 << 20, 0b11, 0], VariableModel.EDGE_AND_VERTEX))
@example(([(0, 1), (0, 9), (8, 9)], [0b110, 0b011, 0b101], VariableModel.EDGE_AND_VERTEX))
@settings(max_examples=200, deadline=None)
def test_assembled_terms_are_stored_in_graded_lex_order(inputs):
    edges, masks, model = inputs
    p = genfun._assemble(masks, [edge_var(*e) for e in edges], model)
    subsets = [[e for i, e in enumerate(edges) if m >> i & 1] for m in masks]
    assert p == reference_subsets_to_poly(subsets, model)
    assert list(p.terms()) == graded_lex(p.terms())
    assert p.sorted_terms() == graded_lex(p.terms())
    # every derived polynomial sorts its own terms
    vs = sorted(p.variables())
    other = Polynomial({(): 2, monomial({vertex_var(0): 2}): -1,
                        monomial({aux_var("t"): 1}): 5})
    derived = [p + other, other + p, p.scale(3), p.scale(-1) + p * p,
               p.substitute({v: vs[0] for v in vs[1:]}),
               p.substitute({v: aux_var(f"z{i}") for i, v in enumerate(reversed(vs))}),
               p.homogeneous_component(vs[::2], 1)]
    for q in derived:
        assert q.sorted_terms() == graded_lex(q.terms())


@st.composite
def complete_graph_masks(draw):
    """Masks over all of K_n's edges for n <= 6, with repeats, the empty
    list and the empty mask allowed, and a variable model."""
    edges = all_edges(draw(st.integers(0, 6)))
    masks = draw(st.lists(st.integers(0, (1 << len(edges)) - 1), max_size=10))
    if masks:
        masks += draw(st.lists(st.sampled_from(masks), max_size=4))
    return edges, masks, draw(st.sampled_from(list(VariableModel)))


@given(complete_graph_masks())
@example((all_edges(4), [], VariableModel.EDGE_AND_VERTEX))
@example((all_edges(6), [0, 1 << 14, 0], VariableModel.EDGE_AND_VERTEX))
@settings(max_examples=150, deadline=None)
def test_mask_polynomial_matches_its_tuple_form(inputs):
    edges, masks, model = inputs
    p = genfun._assemble(masks, [edge_var(*e) for e in edges], model)
    # the count, the truth value and the writer read the masks alone
    assert (len(p), bool(p)) == (len(set(masks)), bool(masks))
    text = _dump_poly(p)
    assert p._tuples is None
    expected = reference_subsets_to_poly([mask_edges(m, edges) for m in masks], model)
    assert p == expected
    assert p.sorted_terms() == graded_lex(p.terms())
    assert text == _dump_poly(Polynomial(dict(p.terms())))


def test_graded_lex_degree_counts_the_vertex_variables():
    # three disjoint edges have fewer edges than four edges on four vertices,
    # but with their six vertices the higher degree: the two models order
    # the same masks oppositely
    edges = all_edges(6)
    evars = [edge_var(*e) for e in edges]
    matching = sum(1 << edges.index(e) for e in [(0, 1), (2, 3), (4, 5)])
    four = sum(1 << edges.index(e) for e in [(0, 1), (0, 2), (1, 2), (1, 3)])
    for model, first in ((VariableModel.EDGE_ONLY, matching),
                         (VariableModel.EDGE_AND_VERTEX, four)):
        p = genfun._assemble([four, matching], evars, model)
        assert p.sorted_terms() == graded_lex(p.terms())
        first_edges = [v for v, _ in p.sorted_terms()[0][0] if v[0] == "e"]
        assert first_edges == [evars[i] for i in range(len(edges)) if first >> i & 1]


def test_gf_outputs_multilinear_unit_coefficients():
    for cls in (CYCLE, CLIQUE, TREE):
        p = generating_function(Graph.complete(4), cls,
                                VariableModel.EDGE_AND_VERTEX)
        assert p.is_multilinear()
        assert all(c == 1 for _, c in p.terms())


def test_uhc_oracle():
    assert oracle_uhc(3) == Polynomial.from_monomial(
        monomial({edge_var(0, 1): 1, edge_var(0, 2): 1, edge_var(1, 2): 1}))
    for n in (4, 5, 6):
        p = oracle_uhc(n)
        assert len(p) == math.factorial(n - 1) // 2
        assert {es for es, _ in poly_term_edge_sets(p)} == brute_hamiltonian_cycles(n)
    with pytest.raises(ValueError):
        oracle_uhc(2)
    with pytest.raises(BudgetExceededError):
        oracle_uhc(25)


def test_clique_oracle():
    assert oracle_clique(2) == Polynomial.from_monomial(monomial({edge_var(0, 1): 1}))
    p3 = oracle_clique(3)
    assert len(p3) == 4
    assert len(oracle_clique(4)) == 11


def test_matching_oracle():
    assert oracle_matching(K2) == Polynomial.from_monomial(
        monomial({edge_var(0, 1): 1}))
    assert len(oracle_matching(Graph.cycle(4))) == 2
    assert len(oracle_matching(Graph.complete(4))) == 3
    assert oracle_matching(Graph.path(3)).is_zero()
    for g in (Graph.cycle(6), Graph.complete_bipartite(3, 3), Graph.complete(6)):
        got = {es for es, _ in poly_term_edge_sets(oracle_matching(g))}
        assert got == brute_perfect_matchings(g)


def test_hamiltonian_slice_equals_oracle():
    for n in (4, 5, 6):
        F = hom_poly(LOOP, n, CYCLE)
        evars = [edge_var(i, j) for i, j in all_edges(n)]
        assert F.homogeneous_component(evars, n) == oracle_uhc(n)


def test_gf_budget_guard(monkeypatch):
    from hompoly import OUTERPLANAR, graphs
    with pytest.raises(BudgetExceededError,
                       match="28 candidate edges exceed the enumeration budget 21"):
        generating_function(Graph.complete(8), OUTERPLANAR)
    # the limit is read at call time
    monkeypatch.setattr(graphs, "SUBSET_FILTER_MAX_EDGES", 9)
    with pytest.raises(BudgetExceededError, match="10 candidate edges"):
        generating_function(Graph.complete(5), OUTERPLANAR)


def test_enumeration_order_deterministic():
    a = generating_function(Graph.complete(5), CYCLE)
    b = generating_function(Graph.complete(5), CYCLE)
    assert a.to_json_obj() == b.to_json_obj()


@pytest.mark.parametrize("build,error,match", [
    (lambda: oracle_clique(8), BudgetExceededError, "clique oracle budget"),
    (lambda: oracle_matching(Graph.make(2, [(0, 1)], loops=[0])), ValueError,
     "loopless"),
], ids=["oracle_clique", "oracle_matching"])
def test_oracles_refuse_bad_input(build, error, match):
    with pytest.raises(error, match=match):
        build()
