"""Generating functions over graph classes and the brute-force oracle suite.

generating_function sums, over the edge subsets of a weighted graph whose
spanning subgraph lies in the class, the product of the selected edge
weights (and, in the edge-and-vertex model, the vertex variables of every
endpoint).  hom_poly additionally keeps only subsets whose nontrivial
component admits a homomorphism into a fixed target H.

The oracles at the bottom generate Hamiltonian cycles, cliques and perfect
matchings by direct combinatorial generation, never through the class
enumerator, so reduction pipelines are checked against an independent code
path.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import json
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graphs import (Graph, GraphClass, canonical_edge, class_edge_subsets,
                     is_homomorphic)
from .poly import Coeff, Polynomial, VarId, edge_var, vertex_var

DEFAULT_GF_EDGE_BUDGET = 21


class VariableModel(enum.Enum):
    EDGE_ONLY = "edge"
    EDGE_AND_VERTEX = "edge-vertex"


def parse_model(name: str) -> VariableModel:
    for m in VariableModel:
        if m.value == name:
            return m
    raise ValueError(f"unknown variable model {name!r}")


@dataclass(frozen=True)
class WeightedGraph:
    """Graph with an edge weight map; default weight is the edge's own variable."""
    graph: Graph
    weights: tuple = ()  # ((edge, VarId|Coeff), ...)

    @classmethod
    def make(cls, graph: Graph, weights: dict | None = None) -> "WeightedGraph":
        wmap = {}
        for e in graph.edges:
            wmap[e] = edge_var(*e)
        for e, w in (weights or {}).items():
            e = canonical_edge(*e)
            if e not in graph.edges:
                raise ValueError(f"weight for missing edge {e}")
            wmap[e] = w
        return cls(graph, tuple(sorted(wmap.items())))

    def support_edges(self) -> list:
        """Edges with a nonzero weight, in canonical order."""
        return [e for e, w in self.weights if isinstance(w, tuple) or w]


def _subset_monomial(wmap: dict, subset, model: VariableModel):
    """(monomial-dict, coefficient) for one selected edge subset, with wmap
    the edge -> weight map of the host."""
    coeff: Coeff = 1
    mono: dict[VarId, int] = {}
    touched: set[int] = set()
    for e in subset:
        w = wmap[e]
        if isinstance(w, tuple):
            mono[w] = mono.get(w, 0) + 1
        else:
            coeff *= w
            if not coeff:
                return None
        touched.add(e[0])
        touched.add(e[1])
    if model is VariableModel.EDGE_AND_VERTEX:
        for v in touched:
            mono[vertex_var(v)] = mono.get(vertex_var(v), 0) + 1
    return mono, coeff


def _assemble(wg: WeightedGraph, subsets, model: VariableModel,
              hom_target: Graph | None) -> Polynomial:
    # the subsets come canonical from class_edge_subsets, so the graphs
    # handed to the homomorphism test skip Graph.make's validation
    terms: dict = {}
    n = wg.graph.n
    wmap = dict(wg.weights)
    for es in subsets:
        if hom_target is not None:
            if not is_homomorphic(Graph(n, es), hom_target):
                continue
        mc = _subset_monomial(wmap, sorted(es), model)
        if mc is None:
            continue
        mono, coeff = mc
        key = tuple(sorted(mono.items()))
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(terms)


def generating_function(wg: WeightedGraph | Graph, cls: GraphClass,
                        model: VariableModel = VariableModel.EDGE_ONLY,
                        budget: int = DEFAULT_GF_EDGE_BUDGET) -> Polynomial:
    """Sum over class subsets of the support of the product of edge weights."""
    if isinstance(wg, Graph):
        wg = WeightedGraph.make(wg)
    support = Graph.make(wg.graph.n, wg.support_edges())
    return _assemble(wg, class_edge_subsets(support, cls, budget), model, None)


def hom_poly(h: Graph, n: int, cls: GraphClass,
             model: VariableModel = VariableModel.EDGE_ONLY,
             budget: int = DEFAULT_GF_EDGE_BUDGET,
             weighted: WeightedGraph | None = None) -> Polynomial:
    """Class generating function over K_n (or a weighted host) restricted to
    subgraphs whose nontrivial component is homomorphic to h."""
    wg = weighted if weighted is not None else WeightedGraph.make(Graph.complete(n))
    if wg.graph.n != n:
        raise ValueError("weighted host has the wrong vertex count")
    support = Graph.make(n, wg.support_edges())
    return _assemble(wg, class_edge_subsets(support, cls, budget), model, h)


# -- independent oracles -------------------------------------------------------

def oracle_uhc(n: int, budget: int = 9) -> Polynomial:
    """All Hamiltonian cycles of K_n as edge monomials; (n-1)!/2 terms."""
    if n < 3:
        raise ValueError("Hamiltonian cycles need n >= 3")
    if n > budget:
        raise BudgetExceededError(f"n={n} exceeds the cycle oracle budget {budget}")
    terms = {}
    for p in itertools.permutations(range(1, n)):
        if p[0] > p[-1]:
            continue
        cyc = (0,) + p
        mono = tuple(sorted((edge_var(cyc[i], cyc[(i + 1) % n]), 1)
                            for i in range(n)))
        terms[mono] = 1
    return Polynomial(terms)


def oracle_clique(n: int, budget: int = 7) -> Polynomial:
    """All cliques of K_n on at least two vertices."""
    if n > budget:
        raise BudgetExceededError(f"n={n} exceeds the clique oracle budget {budget}")
    terms = {}
    for size in range(2, n + 1):
        for verts in itertools.combinations(range(n), size):
            mono = tuple(sorted((edge_var(a, b), 1)
                                for a, b in itertools.combinations(verts, 2)))
            terms[mono] = 1
    return Polynomial(terms)


def oracle_matching(g: Graph) -> Polynomial:
    """All perfect matchings of g; the zero polynomial when none exist."""
    if g.loops:
        raise ValueError("matching oracle needs a loopless graph")
    if g.n % 2:
        return Polynomial.zero()
    adj = g.adjacency()
    terms = {}

    def extend(unmatched, chosen):
        if not unmatched:
            mono = tuple(sorted((edge_var(a, b), 1) for a, b in chosen))
            terms[mono] = 1
            return
        v = unmatched[0]
        for w in adj[v]:
            if w in unmatched[1:]:
                rest = [x for x in unmatched[1:] if x != w]
                extend(rest, chosen + [(v, w)])

    extend(list(range(g.n)), [])
    return Polynomial(terms)


# -- oracle naming for circuit bindings ----------------------------------------

def graph_key(g: Graph) -> str:
    blob = json.dumps(g.to_json_obj(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def hom_poly_oracle_id(h: Graph, n: int, cls: GraphClass,
                       model: VariableModel = VariableModel.EDGE_ONLY) -> str:
    return f"F:{cls}:{model.value}:n{n}:h{graph_key(h)}"
