"""Generating functions, homomorphism-restricted polynomials, oracle suite."""

import math

import pytest

from conftest import (brute_hamiltonian_cycles, brute_perfect_matchings,
                      poly_term_edge_sets)
from hompoly import (CYCLE, CLIQUE, TREE, Graph, VariableModel,
                     generating_function, hom_poly, oracle_clique,
                     oracle_matching, oracle_uhc)
from hompoly.errors import BudgetExceededError
from hompoly.graphs import all_edges
from hompoly.poly import Polynomial, edge_var, monomial, vertex_var

LOOP = Graph.looped_vertex()
K2 = Graph.single_edge()


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
