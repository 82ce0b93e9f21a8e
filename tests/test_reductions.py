"""Filtering operations, pipelines and the dichotomy classifier."""

import itertools

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import poly_term_edge_sets, reference_contract_enforced_edge, to_nx
from hompoly import (CLIQUE, CYCLE, OUTERPLANAR, PLANAR, TREE, Graph,
                     classify, contract_enforced_edge, deny_edges,
                     enforce_edges, hom_poly, oracle_matching, oracle_uhc,
                     reduce_cliques_vac0, reduce_cycles, reduce_genus,
                     reduce_outerplanar, reduce_planar, reduce_trees)
from hompoly import reductions, topo
from hompoly.errors import BudgetExceededError, PipelineIntegrityError
from hompoly.gadgets import genus_block
from hompoly.graphs import genus_class
from hompoly.poly import Polynomial, edge_var, monomial
from hompoly.reductions import (block_certificates, chain_rotation,
                                contraction_transfer_check, divide_integral,
                                divide_uniform, clique_number)

K2 = Graph.single_edge()
K3 = Graph.complete(3)
K4 = Graph.complete(4)
LOOP = Graph.looped_vertex()
EMPTY = Graph.empty(2)
P3 = Graph.path(3)
K2_LOOP = Graph.make(2, [(0, 1)], loops=[0])


def epoly(*edge_sets):
    return Polynomial({tuple(sorted((edge_var(*e), 1) for e in es)): 1
                       for es in edge_sets})


def test_enforce_edges_examples():
    p = epoly([(0, 1), (2, 3)], [(0, 2), (0, 3)])
    assert enforce_edges(p, [(0, 1)]) == epoly([(0, 1), (2, 3)])
    assert enforce_edges(p, []) == p
    through = enforce_edges(oracle_uhc(4), [(0, 1)])
    assert len(through) == 2
    assert all((0, 1) in es for es, _ in poly_term_edge_sets(through))


def test_enforce_requires_multilinearity():
    p = Polynomial({monomial({edge_var(0, 1): 2}): 1})
    with pytest.raises(ValueError):
        enforce_edges(p, [(0, 1)])


def test_enforce_commutes_and_filters_idempotently():
    p = oracle_uhc(5)
    a, b = [(0, 1)], [(1, 2)]
    both = enforce_edges(p, a + b)
    assert both == enforce_edges(enforce_edges(p, a), b)
    assert both == enforce_edges(enforce_edges(p, b), a)
    assert enforce_edges(both, a) == both


def test_deny_edges():
    p = epoly([(0, 1)], [(0, 2)])
    assert deny_edges(p, [(0, 1)]) == epoly([(0, 2)])
    assert deny_edges(p, []) == p
    avoided = deny_edges(oracle_uhc(4), [(2, 3)])
    assert all((2, 3) not in es for es, _ in poly_term_edge_sets(avoided))
    assert len(avoided) == 1


def test_contract_enforced_edge_on_four_cycles():
    four_cycles = hom_poly(LOOP, 4, CYCLE).homogeneous_component(
        [edge_var(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
    out = contract_enforced_edge(four_cycles, (0, 3))
    assert out == oracle_uhc(3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_contract_enforced_edge_matches_mapping_loop(n):
    cycles = oracle_uhc(n + 1)
    for e in itertools.combinations(range(n + 1), 2):
        out = contract_enforced_edge(cycles, e)
        assert out == reference_contract_enforced_edge(cycles, e)
        assert [c for _, c in out.terms()] == [1] * len(oracle_uhc(n))


def test_contract_without_matching_terms_gives_zero():
    p = epoly([(1, 2)])
    assert contract_enforced_edge(p, (0, 3)).is_zero()


def test_contraction_transfer():
    for n in (3, 4, 5):
        r = contraction_transfer_check(n)
        assert r.equal


def test_divide_helpers():
    p = epoly([(0, 1)]).scale(4)
    assert divide_integral(p, 2) == epoly([(0, 1)]).scale(2)
    with pytest.raises(PipelineIntegrityError):
        divide_integral(epoly([(0, 1)]), 2)
    q, lift = divide_uniform(epoly([(0, 1)], [(1, 2)]).scale(3))
    assert lift == 3 and q == epoly([(0, 1)], [(1, 2)])
    with pytest.raises(PipelineIntegrityError):
        divide_uniform(epoly([(0, 1)]) + epoly([(1, 2)]).scale(2))


# -- pipelines ---------------------------------------------------------------------

def test_cycles_pipeline_all_branches():
    assert reduce_cycles(K2, 4).equal          # even slice
    assert reduce_cycles(K2, 5).equal          # odd contraction
    assert reduce_cycles(LOOP, 5).equal        # loop slice
    report = reduce_cycles(K2, 3)
    assert report.equal and report.details["branch"] == "odd-contraction"
    vac = reduce_cycles(EMPTY, 4)
    assert vac.equal and "skipped" in vac.details


def test_cycles_circuit_growth_bounded():
    r = reduce_cycles(K2, 5)
    sizes = r.details["circuit_sizes"]
    for before, after in zip(sizes, sizes[1:]):
        assert after <= 6 * before  # one nesting multiplies size by <= n


def test_cliques_explicit_enumeration():
    assert clique_number(K3) == 3
    assert clique_number(P3) == 2
    got = reduce_cliques_vac0(K3, 4)
    from hompoly import oracle_clique
    full = oracle_clique(4)
    k4_term = tuple(sorted((edge_var(a, b), 1)
                           for a, b in itertools.combinations(range(4), 2)))
    assert got == Polynomial({m: c for m, c in full.terms() if m != k4_term})
    assert reduce_cliques_vac0(K2, 4) == epoly(
        *[[e] for e in itertools.combinations(range(4), 2)])
    assert reduce_cliques_vac0(EMPTY, 5).is_zero()


def test_cliques_match_hom_poly_and_bound():
    hs = [K2, P3, K3, K4, Graph.cycle(4), Graph.cycle(5),
          Graph.make(4, [(0, 1), (1, 2), (0, 2), (2, 3)])]
    for h in hs:
        c = clique_number(h)
        for n in (4, 5, 6):
            got = reduce_cliques_vac0(h, n)
            assert got == hom_poly(h, n, CLIQUE)
            assert len(got) <= c * n ** c


def test_tree_pipeline_targets():
    for target, matchings in ((Graph.cycle(4), 2), (K4, 3), (Graph.path(4), 1),
                              (Graph.cycle(8), 2), (Graph.complete(6), 15)):
        r = reduce_trees(K2, target)
        assert r.equal
        assert len(r.produced) == matchings
        assert r.produced == oracle_matching(target)
        assert r.details["circuit_agrees"] and r.circuit_size is not None


def test_tree_pipeline_odd_target_is_zero():
    r = reduce_trees(K2, P3)
    assert r.equal and r.produced.is_zero()
    assert r.details["circuit"] == "skipped: odd target has no perfect matching"


def test_tree_pipeline_routes_agree():
    # the pruned search against the full tree generating function of the gadget
    from hompoly.reductions import gadget_tree_poly, tree_gadget_edges
    from hompoly.genfun import generating_function, VariableModel
    from hompoly.poly import vertex_var
    for target in (Graph.cycle(4), K4):
        tn = target.n
        gedges, nvert = tree_gadget_edges(target)
        host = Graph.make(nvert, gedges)
        P = generating_function(host, TREE, VariableModel.EDGE_AND_VERTEX)
        ev = [vertex_var(tn + k) for k in range(len(target.edges))]
        ov = [vertex_var(v) for v in range(tn)]
        evars = [edge_var(*e) for e in gedges]
        size_restricted = Polynomial.zero()
        for edges in (3 * tn // 2 - 1, 3 * tn // 2):
            for evs in range(tn // 2 + 1):
                size_restricted = size_restricted + P.homogeneous_component(
                    evars, edges).homogeneous_component(ev, evs)
        searched, _ = gadget_tree_poly(target)
        assert searched == size_restricted
        direct = P.homogeneous_component(ev, tn // 2).homogeneous_component(ov, tn)
        assert searched.homogeneous_component(ev, tn // 2) \
            .homogeneous_component(ov, tn) == direct


def test_gadget_tree_poly_terms_are_trees():
    # a cycle plus a separate tree also has one more vertex than edges
    from hompoly.reductions import gadget_tree_poly
    for target in (Graph.cycle(6), Graph.complete_bipartite(3, 3), Graph.complete(6)):
        tn, half = target.n, target.n // 2
        P, _ = gadget_tree_poly(target)
        assert len(P) > 0
        for mono, c in P.terms():
            es = [(v[1], v[2]) for v, _ in mono if v[0] == 'e']
            covered = {v[1] for v, _ in mono if v[0] == 'v'}
            assert c == 1 and nx.is_tree(to_nx(0, es))
            assert covered == {x for e in es for x in e}
            assert len(es) in (3 * half - 1, 3 * half)
            assert sum(tn <= v < tn + len(target.edges) for v in covered) <= half
        # the slices keep exactly the trees of 3tn/2 edges
        full = sum(1 for mono, _ in P.terms()
                   if sum(v[0] == 'e' for v, _ in mono) == 3 * half)
        assert reduce_trees(K2, target).details["survivors"] == full


@st.composite
def matching_targets(draw):
    n = draw(st.sampled_from((2, 4, 6)))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.make(n, draw(st.lists(st.sampled_from(pairs), unique=True)))


@given(matching_targets())
@example(K2)
@settings(max_examples=30, deadline=None)
def test_tree_pipeline_recovers_matchings(target):
    r = reduce_trees(K2, target)
    assert r.produced == oracle_matching(target)
    assert r.details["circuit_agrees"]


def test_tree_search_budget_fails_loudly():
    with pytest.raises(BudgetExceededError):
        reduce_trees(K2, Graph.cycle(6), node_budget=100)


def test_tree_pipeline_rejects_empty_target():
    # the empty matching counts as 1, but the gadget of no vertices has no tree
    with pytest.raises(ValueError):
        reduce_trees(K2, Graph.empty(0))


def test_tree_pipeline_edgeless_target():
    # the tree polynomial is the constant zero: an oracle over no variables
    r = reduce_trees(K2, Graph.empty(2))
    assert r.equal
    assert r.details["circuit_sizes"] == [1, 4, 7, 10]
    assert r.details["circuit_agrees"]


def test_outerplanar_pipeline_counts():
    r = reduce_outerplanar(K3, 6)
    assert r.equal
    assert r.details["budget_valid"] == 60
    assert r.details["endpoint_valid"] == 6
    assert r.produced == oracle_uhc(4)


def test_outerplanar_budget_calibration():
    # only the recorded budget matches the oracle; one more or one fewer
    # total edge gives a different survivor set
    good = reduce_outerplanar(K3, 6, budget=9)
    assert good.equal and good.details["budget"] == 9
    for off in (8, 10):
        r = reduce_outerplanar(K3, 6, budget=off)
        assert not r.equal
        assert r.details.get("calibration_failure")
    # budget 10 leaves no survivor, so no circuit check runs or is reported
    assert r.details["budget_valid"] == 0
    assert not any(k.startswith("circuit") for k in r.details)


def test_outerplanar_buddy_branch():
    r = reduce_outerplanar(K2, 5)
    assert r.equal
    assert r.details["branch"] == "buddy"
    assert r.details["support_bipartite"]
    assert r.details["lift_multiplicity"] == 4
    assert r.produced == oracle_uhc(3)


def test_outerplanar_rejects_empty_h():
    r = reduce_outerplanar(EMPTY, 6)
    assert r.equal and "skipped" in r.details


def test_planar_pipeline_counts():
    for m, count in ((4, 12), (5, 60)):
        r = reduce_planar(K3, m)
        assert r.equal
        assert r.details["middle_valid"] == count


def test_planar_glue_phase():
    r = reduce_planar(K3, 6)
    assert r.equal
    assert r.details["glue_survivors"] == 2
    assert r.produced == oracle_uhc(3)


def test_planar_budget_calibration():
    # one middle edge too few leaves survivors with the glue pair joined
    # by an edge; gluing them is reported, not raised
    for off in (16, 18):
        r = reduce_planar(K3, 6, budget=off)
        assert not r.equal
        assert r.details.get("calibration_failure")
        # the details recorded before the failure are kept
        assert r.details["budget"] == off
        assert r.details["expected_paths"] == 360
        # the report compares with the oracle, not with the zero polynomial
        assert r.expected == oracle_uhc(3) and len(r.expected) == 1


def test_planar_bipartite_variant():
    r = reduce_planar(K2, 4)
    assert r.equal
    assert r.details["bipartite_variant"]


def test_gadget_pipelines_make_no_networkx_call(planarity_calls):
    # every class check of the star, buddy and apex gadgets, survivor
    # checks included, is settled by a certificate in topo
    assert reduce_outerplanar(K3, 6).details["branch"] == "triangle"
    assert reduce_outerplanar(K2, 5).details["branch"] == "buddy"
    assert reduce_planar(K3, 6).equal and reduce_planar(K2, 4).equal
    assert planarity_calls == []


def test_circuit_disagreement_is_caught(monkeypatch):
    real = reductions.circ.eval_symbolic

    def off_by_one(c, oracle=None):
        return real(c, oracle) + Polynomial.constant(1)

    monkeypatch.setattr(reductions.circ, "eval_symbolic", off_by_one)
    with pytest.raises(PipelineIntegrityError, match="circuit route"):
        reduce_trees(K2, K4)
    # each report keeps a detail recorded before the circuit check
    for r, branch, kept in ((reduce_outerplanar(K3, 6), "triangle", "budget_valid"),
                            (reduce_outerplanar(K2, 5), "buddy", "support_bipartite"),
                            (reduce_planar(K2, 6), None, "expected_paths"),
                            (reduce_genus(K3, 1, 4), None, "middle_valid")):
        assert not r.equal
        assert "circuit route" in r.details["calibration_failure"]
        assert r.details.get("branch") == branch and kept in r.details


def test_genus_pipeline():
    r = reduce_genus(K3, 1, 4)
    assert r.equal
    assert r.details["block"] == {"planar": False, "min_genus": 1, "minor": "k33"}
    assert r.details["chain_variant"] == "subdivided"
    assert r.details["middle_valid"] == 12
    assert r.produced == oracle_uhc(3)


def test_genus_plain_variant_for_k4_host():
    r = reduce_genus(K4, 1, 4)
    assert r.equal and r.details["chain_variant"] == "plain"


def test_genus_bipartite_certificates():
    r = reduce_genus(K2, 1, 4)
    assert r.equal
    assert r.details["chain_folds_to_edge"]
    assert r.details["planar_variant_bipartite"]


def test_genus_two_chain():
    r = reduce_genus(K3, 2, 4)
    assert r.equal and r.details["chain_embedding_genus"] == 2


def test_chain_rotation_certificates():
    assert chain_rotation(1)["genus"] == 1
    assert chain_rotation(2)["genus"] == 2
    assert chain_rotation(2, subdivide=True)["genus"] == 2


def test_block_certificates_record_search_space():
    certs = block_certificates()
    assert not certs["planar"]
    assert certs["min_genus"] == 1
    assert certs["minor"]["kind"] == "k33"
    assert certs["search_space"] <= 20736
    sets = [set(s) for s in certs["minor"]["branch_sets"]]
    topo._validate_branch_sets(genus_block().graph, topo.K33, sets)


def test_block_certificates_are_copies():
    first = block_certificates()
    first["rotation"]["0"].reverse()
    first["minor"]["branch_sets"].clear()
    first["min_genus"] = 7
    second = block_certificates()
    assert second != first
    assert second["min_genus"] == 1 and len(second["minor"]["branch_sets"]) == 6
    assert chain_rotation(1)["genus"] == 1


def test_block_verdict_is_shared(monkeypatch):
    # a block certificate of the wrong genus fails the block report and,
    # through the same verdict, the chain pipeline
    good = reductions.genus_block_report()
    assert good.equal and good.details["minor_kind"] == "k33"
    monkeypatch.setattr(reductions, "_block_cache",
                        dict(block_certificates(), min_genus=2))
    assert not reductions.genus_block_report().equal
    r = reduce_genus(K3, 1, 4)
    assert not r.equal and r.caveat
    assert r.details["block"] == {"planar": False, "min_genus": 2, "minor": "k33"}


# -- classifier ---------------------------------------------------------------------

MATRIX = {
    # h -> expected kind per class kind (cycle, clique, tree/outerplanar/
    # planar/genus collapse to one column)
    "edgeless": (EMPTY, "ZeroPolynomial", "ZeroPolynomial", "ZeroPolynomial"),
    "loop-only": (LOOP, "VNPComplete", "VNPComplete", "VNPComplete"),
    "single-edge": (K2, "VNPComplete", "VAC0", "VNPComplete"),
    "triangle": (K3, "VNPComplete", "VAC0", "VNPComplete"),
    "path": (P3, "VNPComplete", "VAC0", "VNPComplete"),
    "edge-with-loop": (K2_LOOP, "VNPComplete", "VNPComplete", "VNPComplete"),
}


def test_classifier_truth_table():
    for name, (h, cyc, clq, rest) in MATRIX.items():
        assert classify(h, CYCLE).kind == cyc, name
        assert classify(h, CLIQUE).kind == clq, name
        for cls in (TREE, OUTERPLANAR, PLANAR, genus_class(1), genus_class(2)):
            verdict = classify(h, cls)
            assert verdict.kind == rest, (name, cls)
            if h is LOOP:
                assert verdict.caveat is not None
            else:
                assert verdict.caveat is None


def test_classifier_examples():
    assert classify(K3, CLIQUE).kind == "VAC0"
    assert classify(K2, CYCLE).kind == "VNPComplete"
    assert classify(EMPTY, PLANAR).kind == "ZeroPolynomial"


def test_classifier_edge_monotone():
    # adding an edge to H never turns a hard class easy
    rank = {"ZeroPolynomial": 0, "VAC0": 0, "VNPComplete": 1}
    hs = [EMPTY, LOOP, K2, K3, P3, K2_LOOP]
    classes = [CYCLE, CLIQUE, TREE, OUTERPLANAR, PLANAR, genus_class(1)]
    for h in hs:
        missing = [e for e in itertools.combinations(range(h.n), 2)
                   if e not in h.edges]
        for e in missing:
            bigger = Graph.make(h.n, list(h.edges) + [e], h.loops)
            for cls in classes:
                assert rank[classify(bigger, cls).kind] \
                    >= rank[classify(h, cls).kind]


def test_report_json_shape():
    r = reduce_cycles(K2, 4)
    obj = r.to_json_obj()
    assert obj["lemma"] == "cycles-even"
    assert obj["equal"] is True
    assert "wall_time_ms" not in obj
    assert "wall_time_ms" in r.to_json_obj(include_timing=True)
