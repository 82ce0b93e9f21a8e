"""Filtering operations, pipelines and the dichotomy classifier."""

import dataclasses
import itertools
import json
import math
import types

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (brute_is_homomorphic, contract_edge, contraction_transfer_check,
                      nx_in_class, poly_term_edge_sets, reference_budget_survivors,
                      reference_contract_enforced_edge, reference_gadget_tree_masks,
                      to_nx)
from hompoly import (CLIQUE, CYCLE, OUTERPLANAR, PLANAR, TREE, Graph,
                     classify, hom_poly, oracle_matching, oracle_uhc,
                     reduce_cliques_vac0, reduce_cycles, reduce_genus,
                     reduce_outerplanar, reduce_planar, reduce_trees)
from hompoly import circuit, cli, gadgets, recognize, reductions, topo
from hompoly.errors import BudgetExceededError, PipelineIntegrityError
from hompoly.gadgets import genus_block
from hompoly.graphs import genus_class
from hompoly.poly import Polynomial, edge_var
from hompoly.reductions import (block_certificates, chain_rotation, divide_integral,
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


def enforce(p, es):
    """The terms of the multilinear p holding every edge of es: the _slice
    filter at full degree in their variables, on both routes."""
    vs = [edge_var(*e) for e in es]
    return reductions._slice(p, [(vs, len(vs))], {})[0]


def test_enforce_edges_examples():
    p = epoly([(0, 1), (2, 3)], [(0, 2), (0, 3)])
    assert enforce(p, [(0, 1)]) == epoly([(0, 1), (2, 3)])
    assert enforce(p, []) == p
    through = enforce(oracle_uhc(4), [(0, 1)])
    assert len(through) == 2
    assert all((0, 1) in es for es, _ in poly_term_edge_sets(through))


def test_enforce_commutes_and_filters_idempotently():
    p = oracle_uhc(5)
    a, b = [(0, 1)], [(1, 2)]
    both = enforce(p, a + b)
    assert both == enforce(enforce(p, a), b)
    assert both == enforce(enforce(p, b), a)
    assert enforce(both, a) == both


def test_contract_enforced_edge_on_four_cycles():
    four_cycles = hom_poly(LOOP, 4, CYCLE).homogeneous_component(
        [edge_var(i, j) for i in range(4) for j in range(i + 1, 4)], 4)
    out = contract_edge(four_cycles, (0, 3))
    assert out == oracle_uhc(3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_contract_enforced_edge_matches_mapping_loop(n):
    cycles = oracle_uhc(n + 1)
    for e in itertools.combinations(range(n + 1), 2):
        out = contract_edge(cycles, e)
        assert out == reference_contract_enforced_edge(cycles, e)
        assert [c for _, c in out.terms()] == [1] * len(oracle_uhc(n))


def test_contract_without_matching_terms_gives_zero():
    p = epoly([(1, 2)])
    assert contract_edge(p, (0, 3)).is_zero()


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
    # the zero polynomial has no coefficient to divide out
    assert divide_uniform(Polynomial.zero()) == (Polynomial.zero(), 1)


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
    oracle, *nested = r.details["circuit_sizes"]
    host = 6  # the odd branch contracts an edge of the one-larger host
    assert oracle == 1
    # the first nesting is extract_homc's closed form (delta+1)(|vars|+2)+1
    assert nested[0] == (host + 1) * (math.comb(host, 2) + 2) + 1 == 120
    for before, after in zip(nested, nested[1:]):
        assert after <= 6 * before  # one nesting multiplies size by <= n


def test_every_circuit_starts_at_the_oracle_call(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli.main(["verify", "--out", str(out)]) == 0
    capsys.readouterr()
    sizes = {r["lemma"]: r["details"]["circuit_sizes"]
             for r in json.loads(out.read_text())["reports"]
             if "circuit_sizes" in r["details"]}
    assert set(sizes) == {"cycles-even", "tree-matching", "outerplanar-star",
                          "genus-chain"}
    assert all(s[0] == 1 for s in sizes.values()), sizes


def _swap_one_relabelling(mapping: dict) -> dict:
    (u, x), (v, y) = [(var, t) for var, t in mapping.items() if t != 1][:2]
    return {**mapping, u: y, v: x}


@pytest.mark.parametrize("step, tamper", [
    ("substitute_vars", lambda c, mapping: (c, _swap_one_relabelling(mapping))),
    ("scale_circuit", lambda c, w: (c, 1)),
], ids=["relabelling", "scale"])
def test_projection_is_checked_on_the_circuit_side(monkeypatch, step, tamper):
    original = getattr(circuit, step)
    monkeypatch.setattr(circuit, step, lambda *args: original(*tamper(*args)))
    r = reduce_cycles(K2, 5)
    assert not r.equal
    assert r.details["calibration_failure"] == "circuit route disagrees with direct route"


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


def gadget_tree_masks(target):
    """gadget_tree_poly's trees as masks over the gadget's edges; each tree
    appears once."""
    gedges, _ = reductions.tree_gadget_edges(target)
    bit = {edge_var(*e): 1 << i for i, e in enumerate(gedges)}
    P, _ = reductions.gadget_tree_poly(target)
    assert all(c == 1 for _, c in P.terms())
    return {sum(bit.get(v, 0) for v, _ in mono) for mono, _ in P.terms()}


@pytest.mark.parametrize("target", [*cli.TARGETS.values(), K2, Graph.empty(4)],
                         ids=[*cli.TARGETS, "k2", "edgeless4"])
def test_tree_candidates_match_the_edge_subset_search(target):
    assert gadget_tree_masks(target) == set(reference_gadget_tree_masks(target))


@st.composite
def matching_targets(draw, sizes=(2, 4, 6), max_edges=None):
    n = draw(st.sampled_from(sizes))
    pairs = list(itertools.combinations(range(n), 2))
    return Graph.make(n, draw(st.lists(st.sampled_from(pairs), unique=True,
                                       max_size=max_edges)))


# at most 9 edges keeps the reference search under about 0.1 s on 8 vertices
@given(matching_targets((2, 4, 6, 8), max_edges=9))
@settings(max_examples=40, deadline=None)
def test_tree_candidates_match_the_search_on_even_targets(target):
    assert gadget_tree_masks(target) == set(reference_gadget_tree_masks(target))


@given(matching_targets())
@example(K2)
@settings(max_examples=30, deadline=None)
def test_tree_pipeline_recovers_matchings(target):
    r = reduce_trees(K2, target)
    assert r.produced == oracle_matching(target)
    assert r.details["circuit_agrees"]


def test_tree_search_budget_fails_loudly(monkeypatch):
    # C6's gadget has C(6, 3) (9 + 1) = 200 candidates, the count the report
    # gives: that budget passes, and one less raises before any is built
    c6 = Graph.cycle(6)
    monkeypatch.setattr(reductions, "TREE_CANDIDATE_BUDGET", 200)
    assert reduce_trees(K2, c6).details["tree_candidates"] == 200
    monkeypatch.setattr(reductions, "TREE_CANDIDATE_BUDGET", 199)
    monkeypatch.setattr(reductions, "recognize", None)
    with pytest.raises(BudgetExceededError,
                       match="^200 tree candidates exceed the candidate budget 199$"):
        reduce_trees(K2, c6)


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


def _gadget_budget(monkeypatch, constructor: str, budget: int) -> None:
    """Make the pipelines build the named gadget with the given budget;
    dataclasses.replace re-runs the gadget's checks."""
    real = getattr(gadgets, constructor)
    monkeypatch.setattr(reductions, constructor,
                        lambda size: dataclasses.replace(real(size), budget=budget))


def test_outerplanar_budget_calibration(monkeypatch):
    # only the recorded budget matches the oracle; one more or one fewer
    # total edge gives a different survivor set
    good = reduce_outerplanar(K3, 6)
    assert good.equal and good.details["budget"] == 9
    for off in (8, 10):
        _gadget_budget(monkeypatch, "star_gadget", off)
        r = reduce_outerplanar(K3, 6)
        assert not r.equal
        assert r.details.get("calibration_failure")
    # budget 10 leaves no survivor; the circuit check still runs on the
    # empty polynomial and is reported
    assert r.details["budget_valid"] == 0
    assert r.details["circuit_sizes"] == [1, 4, 7] and r.details["circuit_agrees"]
    assert r.circuit_size == 7


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


def test_planar_budget_calibration(monkeypatch):
    # one middle edge too few leaves survivors with the glue pair joined
    # by an edge; gluing them is reported, not raised
    assert reduce_planar(K3, 6).details["budget"] == 17
    for off in (16, 18):
        _gadget_budget(monkeypatch, "planar_gadget", off)
        r = reduce_planar(K3, 6)
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


def test_gadget_pipelines_make_no_general_planarity_test(planarity_calls):
    # every class check of the star, buddy and apex gadgets, survivor
    # checks included, is settled by a certificate in topo
    assert reduce_outerplanar(K3, 6).details["branch"] == "triangle"
    assert reduce_outerplanar(K2, 5).details["branch"] == "buddy"
    assert reduce_planar(K3, 6).equal and reduce_planar(K2, 4).equal
    assert planarity_calls == []


def test_circuit_disagreement_is_caught(monkeypatch):
    runs = [(reduce_cycles, (K2, 4), "even", "branch"),
            (reduce_cycles, (K2, 5), "odd-contraction", "branch"),
            (reduce_trees, (K2, K4), None, "gadget_vertices"),
            (reduce_outerplanar, (K3, 6), "triangle", "budget_valid"),
            (reduce_outerplanar, (K2, 5), "buddy", "support_bipartite"),
            (reduce_planar, (K2, 6), None, "expected_paths"),
            (reduce_genus, (K3, 1, 4), None, "middle_valid")]
    passing = [lemma(*args) for lemma, args, _, _ in runs]
    assert all(r.equal for r in passing)
    real = reductions.circ.eval_symbolic

    def off_by_one(c, oracle=None):
        return real(c, oracle) + Polynomial.constant(1)

    monkeypatch.setattr(reductions.circ, "eval_symbolic", off_by_one)
    # each report keeps a detail recorded before the circuit check, and
    # names the polynomial the passing run compared with
    for (lemma, args, branch, kept), ok in zip(runs, passing):
        r = lemma(*args)
        assert not r.equal
        assert "circuit route" in r.details["calibration_failure"]
        assert r.details.get("branch") == branch and kept in r.details
        assert r.expected == ok.expected


def _star_centred_on_vertex_3(n):
    """star_gadget with its center role moved onto outer vertex 3, which
    keeps one star edge in every survivor."""
    star = gadgets.star_gadget(n)
    labels = {"center": 3, "glue-a": 1, "glue-b": 2}
    return dataclasses.replace(star, graph=Graph.make(n, star.graph.edges, labels=labels))


@pytest.mark.parametrize("name,patch,lemma,args,kept,message", [
    ("is_homomorphic", lambda g, h: False, reduce_trees, (K2, K4), "survivors",
     "survivor not homomorphic to H"),
    ("star_gadget", _star_centred_on_vertex_3, reduce_outerplanar, (K3, 6),
     "endpoint_valid", "survivor lost a star edge"),
    ("topo", types.SimpleNamespace(is_outerplanar=lambda g: False),
     reduce_outerplanar, (K3, 6), "endpoint_valid", "survivor is not outerplanar"),
], ids=["not-homomorphic", "lost-star-edge", "not-outerplanar"])
def test_survivor_certificate_failure_is_a_failed_report(monkeypatch, name, patch,
                                                         lemma, args, kept, message):
    # the survivor checks run after the circuit check; a failing one keeps
    # the details recorded before it and the passing run's oracle
    ok = lemma(*args)
    monkeypatch.setattr(reductions, name, patch)
    r = lemma(*args)
    assert not r.equal and r.details["calibration_failure"] == message
    assert r.details[kept] == ok.details[kept] and r.expected == ok.expected


def test_failed_planar_report_past_m6_names_the_glued_cycles(monkeypatch):
    # from m = 6 on the lemma glues its paths into cycles, so a failed
    # report at m = 7 compares against the 3 cycles of K4, not the 2,520
    # Hamiltonian paths of K7
    monkeypatch.setitem(reductions.LEMMA_SIZES, "planar-permutation",
                        {"m": (4, (3, 7))})

    def miscalibrated(*args):
        raise PipelineIntegrityError("budget mis-calibrated")

    monkeypatch.setattr(reductions, "_gadget_survivors", miscalibrated)
    r = reduce_planar(K3, 7)
    assert not r.equal and r.details["calibration_failure"] == "budget mis-calibrated"
    assert r.expected == oracle_uhc(4)


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
    # each rotation is retraced here on the chain graph the gadget builds
    for k, subdivide in itertools.product((1, 2, 3), (False, True)):
        cert = chain_rotation(k, subdivide)
        chain = gadgets.amalgam_chain(k, subdivide=subdivide).graph
        assert (cert["graph"].n, cert["graph"].edges) == (chain.n, chain.edges)
        assert cert["genus"] == topo.genus_of_rotation(chain, cert["rotation"]) == k


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
    record = reductions._block_certificate()
    monkeypatch.setattr(reductions, "_block_certificate",
                        lambda: record[:2] + (2,) + record[3:])
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


@pytest.mark.parametrize("gadget,cls,h", [
    pytest.param(gadgets.star_gadget(7), OUTERPLANAR, K3, id="star-n7-K3"),
    pytest.param(gadgets.buddy_transform(gadgets.star_gadget(6)), OUTERPLANAR, K2,
                 id="buddy-n6-K2"),
    pytest.param(gadgets.planar_gadget(6), PLANAR, None, id="planar-m6"),
])
def test_budget_survivors_are_the_combinations_the_brute_filter_keeps(gadget, cls, h):
    # the gadgets and targets of the outerplanar-star and planar-permutation
    # lemmas; every candidate is checked with networkx, every class member
    # against H by trying all vertex maps
    n, base = gadget.graph.n, sorted(gadget.enforced)
    pick = gadget.budget - len(base)
    want, candidates = [], 0
    for combo in itertools.combinations(sorted(gadget.free_edges()), pick):
        candidates += 1
        es = base + list(combo)
        if nx_in_class(n, es, cls.kind) and (
                h is None or brute_is_homomorphic(Graph.make(n, es), h)):
            want.append(frozenset(es))
    got = reductions.budget_survivors(n, gadget.enforced, gadget.free_edges(), pick,
                                      lambda g: recognize(g, cls), h)
    assert got == want
    assert 0 < len(want) < candidates


def _mask_checked(class_check, seen: list):
    """class_check, first asserting that the candidate's masks are the ones
    Graph.nbrs builds from its edges; each candidate is appended to seen."""
    def check(g: Graph) -> bool:
        assert g.nbrs == Graph(g.n, g.edges).nbrs
        seen.append(g.edges)
        return class_check(g)
    return check


@pytest.mark.parametrize("run", [
    pytest.param(lambda: reduce_outerplanar(K3, 7), id="star-n7-K3"),
    pytest.param(lambda: reduce_outerplanar(K2, 6), id="buddy-n6-K2"),
    pytest.param(lambda: reduce_planar(K3, 6), id="planar-m6"),
    pytest.param(lambda: reduce_genus(K3, 2, 5), id="genus-chain-k2-m5"),
])
def test_budget_survivors_candidates_carry_their_own_masks(run, monkeypatch):
    # each pipeline's own gadget, class check and target: every candidate
    # reaches the class check once, with the masks of its edges, and the
    # survivors are those of the candidate-by-candidate loop
    real, calls = reductions.budget_survivors, []

    def checked(nvert, enforced, free, pick, class_check, hom_target=None):
        seen = []
        got = real(nvert, enforced, free, pick, _mask_checked(class_check, seen),
                   hom_target)
        assert len(seen) == len(set(seen)) == math.comb(len(free), pick)
        assert got == reference_budget_survivors(nvert, enforced, free, pick,
                                                 class_check, hom_target)
        calls.append(len(got))
        return got

    monkeypatch.setattr(reductions, "budget_survivors", checked)
    assert run().equal
    assert calls and all(calls)


@st.composite
def _enforced_free_splits(draw):
    n = draw(st.integers(2, 6))
    host = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    enforced = frozenset(e for e in host if draw(st.booleans()))
    free = [e for e in host if e not in enforced]
    return n, enforced, free, draw(st.integers(0, len(free)))


@settings(max_examples=60, deadline=None)
@given(_enforced_free_splits(), st.sampled_from([TREE, CYCLE, OUTERPLANAR, PLANAR]),
       st.sampled_from([None, K2, K3]))
def test_budget_survivors_match_the_candidate_loop(split, cls, h):
    n, enforced, free, pick = split
    seen = []

    def in_class(g: Graph) -> bool:
        return recognize(g, cls)

    got = reductions.budget_survivors(n, enforced, free, pick,
                                      _mask_checked(in_class, seen), h)
    assert len(seen) == math.comb(len(free), pick)
    assert got == reference_budget_survivors(n, enforced, free, pick, in_class, h)


@pytest.mark.parametrize("build,match", [
    (lambda: reduce_cliques_vac0(K2_LOOP, 4), "loopless H"),
    (lambda: reduce_trees(K2, K2_LOOP), "loopless"),
], ids=["reduce_cliques_vac0", "reduce_trees"])
def test_reductions_refuse_looped_input(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def _star_endpoint_poly(n: int):
    """The star gadget's endpoint polynomial on K3, as reduce_outerplanar
    slices it, with the gadget and its glue pair."""
    star = gadgets.star_gadget(n)
    a, b = star.graph.label("glue-a"), star.graph.label("glue-b")
    survivors = reductions._gadget_survivors(
        star, lambda g: recognize(g, OUTERPLANAR), K3)
    p, _ = reductions._slice(reductions.subsets_to_poly(survivors),
                             [(reductions._free_at(star, {v}), 1) for v in (a, b)], {})
    return p, star, a, b


def test_glue_labels_come_from_the_polynomial():
    p, star, a, b = _star_endpoint_poly(6)
    assert reductions._glue_endpoints(p, star.enforced, a, b) == oracle_uhc(4)
    # one more term, on a vertex outside the gadget: its label falls past
    # the four cycle vertices, so the glue no longer gives the oracle
    (m, _), *_ = p.terms()
    stray = Polynomial({m + ((edge_var(5, 6), 1),): 2})
    assert reductions._glue_endpoints(p + stray, star.enforced, a, b) != oracle_uhc(4)


def test_edge_projection_refuses_to_merge_an_edge():
    assert reductions.edge_projection([edge_var(0, 2), edge_var(1, 2)], {2: 0},
                                      [(0, 2)]) == {edge_var(0, 2): 1,
                                                    edge_var(1, 2): edge_var(0, 1)}
    with pytest.raises(PipelineIntegrityError, match="merges the ends"):
        reductions.edge_projection([edge_var(0, 1)], {1: 0})
