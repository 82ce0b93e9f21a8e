"""Acceptance suite: one test per criterion, exact comparisons, timed.

Every check is an exact polynomial or set equality against an independently
generated expectation; each criterion prints its own pass line (visible with
pytest -s) and must finish inside its stated wall-clock budget.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager

from conftest import poly_term_edge_sets
from hompoly import (CLIQUE, CYCLE, Graph, classify, hom_poly,
                     hom_to_single_edge, oracle_matching, oracle_uhc,
                     reduce_cliques_vac0, reduce_outerplanar, reduce_planar,
                     reduce_trees)
from hompoly.circuit import eval_symbolic, extract_homc, size
from hompoly.gadgets import (amalgam_chain, buddy_transform, planar_gadget,
                             star_gadget, subdivide_and_buddy_planar)
from hompoly.graphs import OUTERPLANAR, PLANAR, TREE, all_edges, genus_class
from hompoly.poly import Polynomial, aux_var, edge_var, monomial
from hompoly.reductions import (block_certificates, chain_rotation,
                                contraction_transfer_check)
from hompoly.topo import genus_of_rotation

K2 = Graph.single_edge()
K3 = Graph.complete(3)
LOOP = Graph.looped_vertex()


@contextmanager
def criterion(number, name, limit_s):
    start = time.time()
    yield
    elapsed = time.time() - start
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.1f}s (> {limit_s}s)"
    print(f"criterion {number:>2} ({name}): PASS ({elapsed:.2f}s)")


def test_criterion_01_hamiltonian_slice():
    with criterion(1, "cycle extraction", 5):
        for n, count in ((4, 3), (5, 12), (6, 60)):
            F = hom_poly(LOOP, n, CYCLE)
            evars = [edge_var(i, j) for i, j in all_edges(n)]
            sliced = F.homogeneous_component(evars, n)
            assert sliced == oracle_uhc(n)
            assert len(sliced) == count


def test_criterion_02_even_cycle_contraction():
    with criterion(2, "even-cycle contraction", 5):
        for n in (3, 4, 5):
            report = contraction_transfer_check(n)
            assert report.equal, f"contraction transfer failed at n={n}"


def brute_even_cycle_sets(n):
    out = set()
    for s in range(4, n + 1, 2):
        for verts in itertools.combinations(range(n), s):
            first, rest = verts[0], verts[1:]
            for p in itertools.permutations(rest):
                if p[0] > p[-1]:
                    continue
                cyc = (first,) + p
                out.add(frozenset(tuple(sorted((cyc[i], cyc[(i + 1) % s])))
                                  for i in range(s)))
    return out


def test_criterion_03_bipartite_cycle_filter():
    with criterion(3, "bipartite filter", 30):
        for n in range(3, 8):
            p = hom_poly(K2, n, CYCLE)
            got = {es for es, _ in poly_term_edge_sets(p)}
            assert got == brute_even_cycle_sets(n)
            assert all(len(es) % 2 == 0 for es in got)
        assert len(hom_poly(K2, 5, CYCLE)) == 15


def test_criterion_04_clique_enumeration_bound():
    with criterion(4, "clique enumeration", 30):
        paw = Graph.make(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        diamond = Graph.make(4, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
        star = Graph.make(5, [(0, i) for i in range(1, 5)])
        hs = [K2, Graph.path(3), Graph.cycle(4), Graph.cycle(5), star,
              paw, K3, diamond, Graph.complete(4)]
        from hompoly.reductions import clique_number
        for h in hs:
            c = clique_number(h)
            assert c <= 4
            for n in (4, 5, 6):
                explicit = reduce_cliques_vac0(h, n)
                assert explicit == hom_poly(h, n, CLIQUE)
                assert len(explicit) <= c * n ** c


def test_criterion_05_tree_matchings():
    with criterion(5, "tree to matching", 60):
        for target, count in ((Graph.cycle(4), 2), (Graph.complete(4), 3),
                              (Graph.cycle(6), 2), (Graph.complete_bipartite(3, 3), 6),
                              (Graph.cycle(8), 2), (Graph.complete(6), 15)):
            r = reduce_trees(K2, target)
            assert r.equal and len(r.produced) == count
            assert r.produced == oracle_matching(target)
            assert r.details["circuit_agrees"]


def test_criterion_06_outerplanar_star():
    with criterion(6, "outerplanar star", 120):
        for n, count in ((6, 6), (7, 24)):
            r = reduce_outerplanar(K3, n)
            assert r.equal
            assert r.details["endpoint_valid"] == count
            assert count == 2 * len(oracle_uhc(n - 2))
            assert r.produced == oracle_uhc(n - 2)


def test_criterion_07_planar_permutations():
    with criterion(7, "planar permutation", 120):
        for m in (4, 5):
            r = reduce_planar(K3, m)
            assert r.equal
            assert r.details["middle_valid"] == math.factorial(m) // 2


def test_criterion_08_genus_certificates():
    with criterion(8, "genus block and chain", 60):
        certs = block_certificates()
        assert not certs["planar"]
        assert certs["minor"] is not None and certs["minor"]["kind"] == "k33"
        assert certs["min_genus"] == 1
        chain = chain_rotation(2)
        assert chain["genus"] == 2
        assert genus_of_rotation(chain["graph"], chain["rotation"]) == 2


def test_criterion_09_interpolation_vs_direct():
    with criterion(9, "interpolation equals direct slice", 10):
        rng = random.Random(20240901)
        for trial in range(100):
            nvars = rng.randint(2, 10)
            vs = [aux_var(f"x{i}") for i in range(nvars)]
            terms = {}
            for _ in range(rng.randint(1, 12)):
                width = rng.randint(0, min(6, nvars))
                mono = {v: 1 for v in rng.sample(vs, width)}
                terms[monomial(mono)] = rng.randint(-5, 5) or 2
            p = Polynomial(terms)
            sub = [v for v in vs if rng.random() < 0.5] or vs[:1]
            delta = max(1, p.degree_in(sub))
            k = rng.randint(0, delta)
            c = extract_homc(tuple(vs), sub, k, delta)
            assert eval_symbolic(c, p) == p.homogeneous_component(sub, k)
            gates = size(c)
            assert gates == (delta + 1) * (len(sub) + 2) + 1
            assert gates <= 3 * (len(sub) + 1) * (delta + 1)


def test_criterion_10_classifier_truth_table():
    with criterion(10, "classifier truth table", 1):
        empty = Graph.empty(2)
        k2loop = Graph.make(2, [(0, 1)], loops=[0])
        p3 = Graph.path(3)
        classes = [CYCLE, CLIQUE, TREE, OUTERPLANAR, PLANAR,
                   genus_class(1), genus_class(2)]
        expected = {
            # h-name -> (cycle, clique, everything-else)
            "empty": ("ZeroPolynomial", "ZeroPolynomial", "ZeroPolynomial"),
            "loop": ("VNPComplete", "VNPComplete", "VNPComplete"),
            "k2": ("VNPComplete", "VAC0", "VNPComplete"),
            "k3": ("VNPComplete", "VAC0", "VNPComplete"),
            "p3": ("VNPComplete", "VAC0", "VNPComplete"),
            "k2loop": ("VNPComplete", "VNPComplete", "VNPComplete"),
        }
        hs = {"empty": empty, "loop": LOOP, "k2": K2, "k3": K3,
              "p3": p3, "k2loop": k2loop}
        for name, h in hs.items():
            cyc, clq, rest = expected[name]
            for cls in classes:
                verdict = classify(h, cls)
                want = {"cycle": cyc, "clique": clq}.get(cls.kind, rest)
                assert verdict.kind == want, (name, str(cls))
                needs_caveat = name == "loop" and cls.kind not in ("cycle", "clique")
                assert (verdict.caveat is not None) == needs_caveat, (name, str(cls))


def test_criterion_11_bipartite_certificates():
    with criterion(11, "single-edge homomorphism certificates", 5):
        assert hom_to_single_edge(buddy_transform(star_gadget(6)).graph)
        assert hom_to_single_edge(subdivide_and_buddy_planar(planar_gadget(4)).graph)
        assert hom_to_single_edge(subdivide_and_buddy_planar(planar_gadget(5)).graph)
        assert hom_to_single_edge(amalgam_chain(2, subdivide=True).graph)
