"""Shared brute-force oracles, deliberately independent of the library paths.

Homomorphism checks here try every vertex map; class membership is decided
with networkx primitives; subsets are enumerated by raw bitmask, and the
cycle, clique and tree shapes by permutations, combinations and Pruefer
sequences into frozensets.  Tests compare library output against these.
"""

from __future__ import annotations

import bisect
import itertools

import networkx as nx
import pytest

from hompoly import (Graph, VariableModel, is_homomorphic, oracle_uhc, reductions,
                     topo)
from hompoly.graphs import bits, class_edge_masks, mask_edges, reach
from hompoly.poly import Polynomial, edge_var, vertex_var
from hompoly.reductions import ReductionReport


def brute_is_homomorphic(g: Graph, h: Graph) -> bool:
    """Try all |V(h)|^|V(g)| maps; edges of g need an edge or loop of h,
    loops of g need a loop of h."""
    if g.n == 0:
        return True
    if h.n == 0:
        return False
    hadj = {(a, b) for a, b in h.edges} | {(b, a) for a, b in h.edges}
    hadj |= {(v, v) for v in h.loops}
    gadj = list(g.edges) + [(v, v) for v in g.loops]
    for img in itertools.product(range(h.n), repeat=g.n):
        if all((img[u], img[v]) in hadj for u, v in gadj):
            return True
    return False


def to_nx(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def nx_planar(n: int, edges) -> bool:
    return nx.check_planarity(to_nx(n, edges), counterexample=False)[0]


def nx_outerplanar(n: int, edges) -> bool:
    g = to_nx(n, edges)
    apex = n
    for v in range(n):
        g.add_edge(apex, v)
    return nx.check_planarity(g, counterexample=False)[0]


def nx_in_class(n: int, edges, kind: str, genus_k: int | None = None) -> bool:
    """One nontrivial component with the given shape, via networkx.  That
    component holds every edge, and isolated vertices change no planarity
    verdict (an apex over them leaves them pendant), so outerplanarity is
    tested on the whole graph."""
    g = to_nx(n, edges)
    comps = [c for c in nx.connected_components(g) if len(c) > 1]
    if len(comps) != 1:
        return False
    sub = g.subgraph(comps[0])
    v, m = len(comps[0]), g.number_of_edges()
    if kind == "cycle":
        return v >= 3 and all(d == 2 for _, d in sub.degree())
    if kind == "clique":
        return m == v * (v - 1) // 2
    if kind == "tree":
        return nx.is_tree(sub)
    if kind == "outerplanar":
        return nx_outerplanar(n, edges)
    if kind == "planar":
        return nx.check_planarity(sub, counterexample=False)[0]
    if kind == "genus":
        if genus_k == 0:
            return nx.check_planarity(sub, counterexample=False)[0]
        if genus_k == 1:
            # on at most five vertices the only nonplanar graph is the full
            # 5-clique, whose genus is one
            return v == 5 and m == 10
        raise ValueError("brute genus only supports k in {0,1} at this size")
    raise ValueError(kind)


def reference_peel_outerplanar(nbrs) -> bool:
    """topo._peel_outerplanar's rules with the marked edges as a set of
    pairs and each deleted vertex's neighbours as a list; nbrs is copied,
    and the bridge test is its own reach over a copy without the edge."""
    nbrs = list(nbrs)
    marked = set()
    stack = [v for v, ns in enumerate(nbrs) if ns.bit_count() <= 2]
    while stack:
        v = stack.pop()
        if not 0 < nbrs[v].bit_count() <= 2:
            continue
        ns = bits(nbrs[v])
        nbrs[v] = 0
        for u in ns:
            nbrs[u] ^= 1 << v
        stack += ns
        if len(ns) == 2:
            u, w = ns
            if not nbrs[u] >> w & 1:
                nbrs[u] |= 1 << w
                nbrs[w] |= 1 << u
            elif (u, w) in marked:
                cut = list(nbrs)
                cut[u] ^= 1 << w
                cut[w] ^= 1 << u
                if reach(cut, u) >> w & 1:
                    return False
            marked.add((u, w))
    return not any(nbrs)


def rotation_from_json_obj(obj: dict) -> dict:
    """The rotation system that topo.rotation_to_json_obj wrote as obj."""
    return {int(v): tuple(ring) for v, ring in obj.items()}


def find_k33_or_k5_minor(g: Graph):
    """Kuratowski-style witness from the library's minor finder, independent
    of networkx: ("k5"|"k33", branch sets) or None."""
    w = topo.find_minor(g, topo.K5)
    if w is not None:
        return ("k5", w)
    w = topo.find_minor(g, topo.K33)
    if w is not None:
        return ("k33", w)
    return None


def class_edge_subsets(g: Graph, cls) -> list[frozenset]:
    """graphs.class_edge_masks decoded into frozensets of edges, in the
    same ascending bitmask order."""
    edges = sorted(g.edges)
    return [mask_edges(mask, edges) for mask in class_edge_masks(g, cls)]


def contract_edge(p: Polynomial, e) -> Polynomial:
    """Contract the edge e = (u, v), u < v, as the odd branch of
    reductions.reduce_cycles does, through reductions._slice on the direct
    and the circuit route: the degree-one slice in x_uv enforces it, then
    x_uv goes to one, v's edges are renamed onto u and the result halved."""
    u, v = sorted(e)
    projection = reductions.edge_projection(p.variables(), {v: u}, [(u, v)])
    return reductions._slice(p, [([edge_var(u, v)], 1)], {}, (projection, 2))[0]


def contraction_transfer_check(n: int) -> ReductionReport:
    """contract_edge on the (n+1)-vertex Hamiltonian polynomial must
    reproduce the n-vertex one, with the factor-two integrality assertion."""
    produced = contract_edge(oracle_uhc(n + 1), (0, n))
    expected = oracle_uhc(n)
    return ReductionReport("cycles-even", {"n": n, "phase": "transfer"},
                           produced, expected, produced == expected)


def brute_class_subsets(n: int, kind: str, genus_k: int | None = None):
    """All class edge subsets of K_n by raw bitmask filtering."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(1, 1 << len(edges)):
        es = [edges[i] for i in range(len(edges)) if mask >> i & 1]
        if nx_in_class(n, es, kind, genus_k):
            out.append(frozenset(es))
    return out


# -- reference shape generators: Pruefer sequences, permutations and
# combinations, one frozenset per shape, never through bitmasks ---------------

def reference_cycle_sets(n: int) -> list[frozenset]:
    out = []
    for size in range(3, n + 1):
        for verts in itertools.combinations(range(n), size):
            first, rest = verts[0], verts[1:]
            for p in itertools.permutations(rest):
                if p[0] > p[-1]:
                    continue
                cyc = (first,) + p
                out.append(frozenset(tuple(sorted((cyc[i], cyc[(i + 1) % size])))
                                     for i in range(size)))
    return out


def reference_clique_sets(n: int) -> list[frozenset]:
    return [frozenset(itertools.combinations(verts, 2))
            for size in range(2, n + 1)
            for verts in itertools.combinations(range(n), size)]


def reference_tree_sets(n: int) -> list[frozenset]:
    """Labeled trees on every vertex subset, one Pruefer decoding each with
    a degree map and a sorted leaf list."""
    out = [frozenset([(i, j)]) for i in range(n) for j in range(i + 1, n)]
    for size in range(3, n + 1):
        for verts in itertools.combinations(range(n), size):
            for seq in itertools.product(verts, repeat=size - 2):
                deg = {v: 1 for v in verts}
                for x in seq:
                    deg[x] += 1
                avail = sorted(v for v in verts if deg[v] == 1)
                es = []
                for x in seq:
                    leaf = avail.pop(0)
                    es.append(tuple(sorted((leaf, x))))
                    deg[x] -= 1
                    if deg[x] == 1:
                        bisect.insort(avail, x)
                es.append((avail[0], avail[1]))
                out.append(frozenset(es))
    return out


def reference_subsets_to_poly(subsets, model=VariableModel.EDGE_ONLY) -> Polynomial:
    """The class polynomial of edge sets, each monomial built from its
    variables and sorted."""
    terms: dict = {}
    for es in subsets:
        mono = [(edge_var(*e), 1) for e in es]
        if model is VariableModel.EDGE_AND_VERTEX:
            mono += [(vertex_var(x), 1) for x in {x for e in es for x in e}]
        key = tuple(sorted(mono))
        terms[key] = terms.get(key, 0) + 1
    return Polynomial(terms)


def reference_substitute(p: Polynomial, mapping) -> Polynomial:
    """Simultaneous substitution by the ring operations alone: each term is
    its coefficient times its variables' values, multiplied out with *, and
    the terms are summed with +."""
    acc = Polynomial.zero()
    for m, c in p.terms():
        term = Polynomial.constant(c)
        for v, e in m:
            val = mapping.get(v, v)
            if isinstance(val, tuple):
                val = Polynomial.variable(val)
            elif not isinstance(val, Polynomial):
                val = Polynomial.constant(val)
            for _ in range(e):
                term = term * val
        acc = acc + term
    return acc


def reference_contract_enforced_edge(p: Polynomial, e) -> Polynomial:
    """Contraction by an explicit mapping loop: keep the terms with x_uv,
    send x_uv to one and every other edge variable at v to the edge from
    its other end to u, then halve."""
    u, v = sorted(e)
    xe = edge_var(u, v)
    kept = Polynomial({m: c for m, c in p.terms() if xe in dict(m)})
    mapping = {xe: 1}
    for var in kept.variables():
        if var[0] == 'e' and var != xe and v in var[1:]:
            other = var[2] if var[1] == v else var[1]
            mapping[var] = edge_var(other, u)
    return kept.substitute(mapping).divide_exact(2)


def reference_hom_subsets(h: Graph, n: int, cls):
    """The class edge subsets of K_n whose n-vertex graph maps to h, decided
    by brute_is_homomorphic once per subset."""
    return [es for es in class_edge_subsets(Graph.complete(n), cls)
            if brute_is_homomorphic(Graph.make(n, es), h)]


def reference_budget_survivors(nvert: int, enforced, free, pick: int, class_check,
                               hom_target: Graph | None = None) -> list[frozenset]:
    """reductions.budget_survivors as one loop over the combinations, each
    candidate built afresh by Graph.make from all of its edges."""
    out = []
    for combo in itertools.combinations(sorted(free), pick):
        g = Graph.make(nvert, list(enforced) + list(combo))
        if class_check(g) and (hom_target is None or is_homomorphic(g, hom_target)):
            out.append(g.edges)
    return out


def reference_gadget_tree_masks(target: Graph) -> list[int]:
    """The trees of 3tn/2 - 1 or 3tn/2 edges in the matching gadget of
    target, as masks over its edges (bit i selects tree_gadget_edges'
    i-th edge), found by a depth-first search over every edge subset.

    The search decides the gadget edges in canonical order.  A branch is
    dropped when an edge would close a cycle, when more than tn/2 edge
    vertices are covered, when the forest passes 3tn/2 edges, or when too
    few edges remain to reach 3tn/2 - 1.  A leaf forest is kept when it is
    one tree (covered vertices = edges + 1) with 3tn/2 - 1 or 3tn/2 edges."""
    gedges, nvert = reductions.tree_gadget_edges(target)
    half = target.n // 2
    top = 3 * half
    root = nvert - 1
    parent = list(range(nvert))
    deg = [0] * nvert
    masks: list = []

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(i: int, k: int, mask: int, evs: int, covered: int) -> None:
        if k == top or i == len(gedges):
            if k >= top - 1 and covered == k + 1:
                masks.append(mask)
            return
        if k + len(gedges) - i < top - 1:
            return
        a, b = gedges[i]
        ev = a if b == root else b  # every gadget edge has one edge vertex
        grown = evs + (deg[ev] == 0)
        ra, rb = find(a), find(b)
        if ra != rb and grown <= half:
            parent[ra] = rb
            cov = covered + (deg[a] == 0) + (deg[b] == 0)
            deg[a] += 1
            deg[b] += 1
            visit(i + 1, k + 1, mask | 1 << i, grown, cov)
            deg[a] -= 1
            deg[b] -= 1
            parent[ra] = ra
        visit(i + 1, k, mask, evs, covered)

    visit(0, 0, 0, 0, 0)
    return masks


def brute_perfect_matchings(g: Graph):
    """Perfect matchings by filtering all edge subsets of size n/2."""
    if g.n % 2:
        return set()
    out = set()
    for combo in itertools.combinations(sorted(g.edges), g.n // 2):
        verts = [v for e in combo for v in e]
        if len(set(verts)) == g.n:
            out.add(frozenset(combo))
    return out


def brute_hamiltonian_cycles(n: int):
    out = set()
    for p in itertools.permutations(range(1, n)):
        cyc = (0,) + p
        out.add(frozenset(tuple(sorted((cyc[i], cyc[(i + 1) % n])))
                          for i in range(n)))
    return out


def poly_term_edge_sets(p):
    """The edge-variable support of each monomial, as frozensets of pairs."""
    out = []
    for m, c in p.terms():
        out.append((frozenset((v[1], v[2]) for v, _ in m if v[0] == 'e'), c))
    return out


@pytest.fixture()
def planarity_calls(monkeypatch):
    """Count the general planarity tests from then on, by graph order: the
    calls of topo.planar_rotation, which is_planar reaches only when no
    certificate decides."""
    calls = []
    real = topo.planar_rotation

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(topo, "planar_rotation", counting)
    return calls


@pytest.fixture()
def block_searches(monkeypatch):
    """Empty the per-process block certificate and count the minimum-genus
    computations made from then on: the calls of topo._min_genus_witnessed,
    which min_genus_rotation and the block certificate both make."""
    calls = []
    real = topo._min_genus_witnessed

    def counting(g, budget=topo.DEFAULT_GENUS_BUDGET):
        calls.append(1)
        return real(g, budget=budget)

    monkeypatch.setattr(topo, "_min_genus_witnessed", counting)
    reductions._block_certificate.cache_clear()
    yield calls
    reductions._block_certificate.cache_clear()
