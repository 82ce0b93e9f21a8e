"""Generating functions over graph classes and the brute-force oracle suite.

generating_function sums, over the edge subsets of a graph whose spanning
subgraph lies in the class, the product of the selected edge variables (and,
in the edge-and-vertex model, the vertex variables of every endpoint).
hom_poly additionally keeps only subsets whose nontrivial component admits a
homomorphism into a fixed target H.  That verdict depends only on the
homomorphic-equivalence class of the subset (its core; Hell and Nesetril,
"The core of a graph", 1992), which on the cycle, clique and tree classes is
fixed by the edge count, so there hom_poly decides it once per edge count.
Both hand the class's edge bitmasks (graphs.class_edge_masks) to one
assembler, _assemble; the reduction pipelines, which hold edge sets, reach
it through the subsets_to_poly adapter.  A weighted host is a projection
(Valiant 1979): the substitution of its weights for the edge variables, by
Polynomial.substitute.

The oracles at the bottom generate Hamiltonian cycles, cliques and perfect
matchings by direct combinatorial generation, never through the class
enumerator, so reduction pipelines are checked against an independent code
path.
"""

from __future__ import annotations

import enum
import itertools
import operator

from .errors import BudgetExceededError
from .graphs import (SHAPE_KINDS, Graph, GraphClass, all_edges, class_edge_masks,
                     is_homomorphic, mask_edges)
from .poly import Polynomial, edge_var, vertex_var

UHC_ORACLE_MAX_N = 9
CLIQUE_ORACLE_MAX_N = 7


class VariableModel(enum.Enum):
    EDGE_ONLY = "edge"
    EDGE_AND_VERTEX = "edge-vertex"


def parse_model(name: str) -> VariableModel:
    for m in VariableModel:
        if m.value == name:
            return m
    raise ValueError(f"unknown variable model {name!r}")


def _chunk_tables(values: list, empty, op) -> list[list]:
    """For each run of 8 values, a table indexed by a byte: entry b folds
    op over the run's values at the set bits of b, lowest bit first."""
    tables = []
    for c in range(0, len(values), 8):
        table = [empty]
        for v in values[c:c + 8]:
            table += [op(x, v) for x in table]
        tables.append(table)
    return tables


def _assemble(masks, evars: list, model: VariableModel) -> Polynomial:
    """Sum over the masks of the product of their edge variables (and, in
    the edge-and-vertex model, the vertex variables of every endpoint); bit
    i of a mask selects evars[i], and a mask listed twice counts twice.

    evars is ascending, so the concatenation of a mask's per-byte tables
    is its monomial already sorted: no sort per term.  The vertex pairs
    follow, since every ('v', x) sorts after every ('e', i, j).
    """
    etabs = _chunk_tables([((v, 1),) for v in evars], (), operator.add)
    with_vertices = model is VariableModel.EDGE_AND_VERTEX
    if with_vertices:
        vtabs = _chunk_tables([1 << v[1] | 1 << v[2] for v in evars], 0,
                              operator.or_)
    vpairs: dict = {}  # vertex mask -> its (vertex_var, 1) pairs
    terms: dict = {}
    for mask in masks:
        mono, vmask, c = (), 0, 0
        while mask:
            mono += etabs[c][mask & 255]
            if with_vertices:
                vmask |= vtabs[c][mask & 255]
            mask >>= 8
            c += 1
        if with_vertices:
            pairs = vpairs.get(vmask)
            if pairs is None:
                pairs = vpairs[vmask] = tuple((vertex_var(x), 1)
                                              for x in range(vmask.bit_length())
                                              if vmask >> x & 1)
            mono += pairs
        terms[mono] = terms.get(mono, 0) + 1
    return Polynomial(terms)


def subsets_to_poly(subsets, model: VariableModel = VariableModel.EDGE_ONLY
                    ) -> Polynomial:
    """Sum over the edge subsets of the product of their edge variables
    (and, in the edge-and-vertex model, the vertex variables of every
    endpoint); a subset listed twice counts twice.

    An adapter for callers that hold edge sets: the union of their edges is
    indexed in variable order and each subset becomes a mask for _assemble,
    whose per-byte tables then give every monomial already sorted.
    """
    subsets = list(subsets)
    edges = sorted({e for es in subsets for e in es}, key=lambda e: edge_var(*e))
    bits = {e: 1 << i for i, e in enumerate(edges)}
    return _assemble([sum(map(bits.__getitem__, es)) for es in subsets],
                     [edge_var(*e) for e in edges], model)


def generating_function(g: Graph, cls: GraphClass,
                        model: VariableModel = VariableModel.EDGE_ONLY) -> Polynomial:
    """Sum over the edge subsets of g in the class (class_edge_masks, limit
    graphs.SUBSET_FILTER_MAX_EDGES) of their monomials; a weighted g is this
    polynomial with its weights substituted."""
    return _assemble(class_edge_masks(g, cls),
                     [edge_var(*e) for e in sorted(g.edges)], model)


def hom_poly(h: Graph, n: int, cls: GraphClass,
             model: VariableModel = VariableModel.EDGE_ONLY) -> Polynomial:
    """Class generating function over K_n restricted to subgraphs whose
    nontrivial component is homomorphic to h; a weighted host is a
    substitution into it.  The subsets stay bitmasks over K_n's edges from
    class_edge_masks (limit graphs.SUBSET_FILTER_MAX_EDGES) to _assemble;
    only a mask handed to is_homomorphic is decoded, into a canonical
    edge set whose graph skips Graph.make's validation.

    Whether g maps to h depends only on the homomorphic-equivalence class
    of g, that is on its core (Hell and Nesetril, "The core of a graph",
    1992).  In the SHAPE_KINDS the edge count fixes that class: a cycle's
    length is its edge count and a clique's size follows from its edge
    count, so two such members are isomorphic, and every tree with an edge
    is equivalent to K2.  All subsets share the n vertices, and isolated
    vertices change no verdict.  So for those kinds the first mask of each
    bit count is checked and its verdict holds for the rest; every other
    class is checked mask by mask.
    """
    edges = all_edges(n)
    masks = class_edge_masks(Graph.complete(n), cls)
    if cls.kind not in SHAPE_KINDS:
        kept = [m for m in masks if is_homomorphic(Graph(n, mask_edges(m, edges)), h)]
    else:
        verdict: dict = {}  # edge count -> whether its subsets map to h
        kept = []
        for m in masks:
            size = m.bit_count()
            if size not in verdict:
                verdict[size] = is_homomorphic(Graph(n, mask_edges(m, edges)), h)
            if verdict[size]:
                kept.append(m)
    return _assemble(kept, [edge_var(*e) for e in edges], model)


# -- independent oracles -------------------------------------------------------

def hamiltonian_orders(vertices):
    """Each Hamiltonian path on the vertices once, as an order of the sorted
    vertices whose first vertex is not above its last."""
    for p in itertools.permutations(sorted(vertices)):
        if p[0] <= p[-1]:
            yield p


def oracle_uhc(n: int) -> Polynomial:
    """All Hamiltonian cycles of K_n as edge monomials; (n-1)!/2 terms."""
    if n < 3:
        raise ValueError("Hamiltonian cycles need n >= 3")
    if n > UHC_ORACLE_MAX_N:
        raise BudgetExceededError(
            f"n={n} exceeds the cycle oracle budget {UHC_ORACLE_MAX_N}")
    terms = {}
    for p in hamiltonian_orders(range(1, n)):
        cyc = (0,) + p
        mono = tuple(sorted((edge_var(cyc[i], cyc[(i + 1) % n]), 1)
                            for i in range(n)))
        terms[mono] = 1
    return Polynomial(terms)


def clique_poly(n: int, max_size: int) -> Polynomial:
    """One monomial per clique of K_n on 2..max_size vertices."""
    terms = {}
    for size in range(2, max_size + 1):
        for verts in itertools.combinations(range(n), size):
            mono = tuple(sorted((edge_var(a, b), 1)
                                for a, b in itertools.combinations(verts, 2)))
            terms[mono] = 1
    return Polynomial(terms)


def oracle_clique(n: int) -> Polynomial:
    """All cliques of K_n on at least two vertices."""
    if n > CLIQUE_ORACLE_MAX_N:
        raise BudgetExceededError(
            f"n={n} exceeds the clique oracle budget {CLIQUE_ORACLE_MAX_N}")
    return clique_poly(n, n)


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

