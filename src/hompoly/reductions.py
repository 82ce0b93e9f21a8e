"""Executable reduction pipelines and the dichotomy classifier.

Each pipeline builds a class generating function over a gadget, applies the
filtering operations (enforce, deny, homogeneous-component slices, edge
contraction, exact division) and compares the result against an independent
brute-force oracle.  Pipelines always run their extraction steps twice:
once as direct polynomial operations and once through interpolation
circuits with oracle gates, and both routes must agree.

The outerplanar, planar and genus lemmas run in one frame, _gadget_lemma:
the classifier's skip, then the lemma's body, where a PipelineIntegrityError
(a mis-calibrated budget, or the circuit route disagreeing) becomes one
failed report keeping the details recorded so far.  The genus lemma reports
a circuit disagreement this way like the other two; the tree and cycle
lemmas raise it.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import circuit as circ
from . import topo
from .errors import BudgetExceededError, PipelineIntegrityError
from .gadgets import (amalgam_chain, buddy_transform, end_edges,
                      genus_block, planar_gadget, star_gadget,
                      subdivide_and_buddy_planar, fold_block_to_edge_certificate)
from .genfun import (clique_poly, hamiltonian_orders, hom_poly,
                     oracle_matching, oracle_uhc, subsets_to_poly)
from .graphs import (CYCLE, OUTERPLANAR, PLANAR, TREE, Graph,
                     GraphClass, all_edges, canonical_edge, genus_class,
                     hom_to_single_edge, is_homomorphic, recognize)
from .poly import Polynomial, edge_var, vertex_var

K2 = Graph.single_edge()
K3 = Graph.complete(3)


# -- core filtering operations ---------------------------------------------------

def enforce_edges(p: Polynomial, es) -> Polynomial:
    """Keep exactly the terms containing every given edge variable.

    Requires p multilinear in the enforced variables, where this filter
    coincides with scaling each enforced variable by a fresh y and taking
    the top homogeneous slice in y.
    """
    vs = frozenset(edge_var(*e) for e in es)
    if not p.is_multilinear(vs):
        raise ValueError("enforce_edges needs multilinearity in the enforced variables")
    return p.homogeneous_component(vs, len(vs))


def deny_edges(p: Polynomial, es) -> Polynomial:
    """Zero out the given edge variables."""
    return p.substitute({edge_var(*e): 0 for e in es})


def divide_integral(p: Polynomial, d, context: str = "") -> Polynomial:
    """divide_exact plus the assertion that the result has integer coefficients."""
    q = p.divide_exact(d)
    for m, c in q.terms():
        if Fraction(c).denominator != 1:
            raise PipelineIntegrityError(
                f"non-integral coefficient {c} after dividing by {d} {context}")
    return q


def divide_uniform(p: Polynomial, context: str = "") -> tuple[Polynomial, int]:
    """Divide out the single shared coefficient; errors if coefficients differ."""
    coeffs = {c for _, c in p.terms()}
    if not coeffs:
        return p, 1
    if len(coeffs) != 1:
        raise PipelineIntegrityError(
            f"non-uniform coefficients {sorted(map(str, coeffs))} {context}")
    c = coeffs.pop()
    return divide_integral(p, c, context), int(c)


def contract_enforced_edge(p: Polynomial, e) -> Polynomial:
    """Enforce e=(u,v), set x_e to one, relabel v's edge variables onto u,
    and divide the uniform factor two out of the result."""
    u, v = canonical_edge(*e)
    kept = enforce_edges(p, [e]).substitute({edge_var(u, v): 1})
    return divide_integral(relabel_edges_poly(kept, {v: u}), 2,
                           f"contracting edge {e}")


def relabel_edges_poly(p: Polynomial, vmap: dict) -> Polynomial:
    """Apply a vertex relabeling to every edge variable of p; an edge whose
    ends it merges means the terms were not the ones the gluing expects."""
    mapping = {}
    for var in p.variables():
        if var[0] == 'e':
            i, j = vmap.get(var[1], var[1]), vmap.get(var[2], var[2])
            if i == j:
                raise PipelineIntegrityError(f"relabeling merges the ends of {var}")
            mapping[var] = edge_var(i, j)
    return p.substitute(mapping)


# -- reports and classification ----------------------------------------------------

@dataclass
class ReductionReport:
    lemma_id: str
    parameters: dict
    produced: Polynomial
    expected: Polynomial
    equal: bool
    circuit_size: int | None = None
    wall_time: float = 0.0  # seconds; set by the verify runner
    details: dict = field(default_factory=dict)
    caveat: str | None = None

    def to_json_obj(self, include_timing: bool = False) -> dict:
        obj = {
            "lemma": self.lemma_id,
            "parameters": self.parameters,
            "equal": self.equal,
            "produced_terms": len(self.produced),
            "expected_terms": len(self.expected),
            "circuit_size": self.circuit_size,
            "details": self.details,
        }
        if self.caveat:
            obj["caveat"] = self.caveat
        if include_timing:
            obj["wall_time_ms"] = round(self.wall_time * 1000, 3)
        return obj


@dataclass(frozen=True)
class Classification:
    kind: str  # "VNPComplete" | "VAC0" | "ZeroPolynomial"
    witness: str
    caveat: str | None = None

    def to_json_obj(self) -> dict:
        obj = {"class": self.kind, "witness": self.witness}
        if self.caveat:
            obj["caveat"] = self.caveat
        return obj


LOOP_ONLY_CAVEAT = ("H has a self-loop but no edge: the hardness argument for this "
                    "class needs an edge in H, yet every member of the class maps "
                    "onto a looped vertex, so the polynomial is not zero; flagged "
                    "rather than silently classified")


def classify(h: Graph, cls: GraphClass) -> Classification:
    has_edge = bool(h.edges)
    has_loop = bool(h.loops)
    if not has_edge and not has_loop:
        return Classification("ZeroPolynomial",
                              "H has no edge and no self-loop; nothing maps into it")
    if cls.kind == "cycle":
        return Classification("VNPComplete", "H has at least one edge or a self-loop")
    if cls.kind == "clique":
        if has_loop:
            return Classification("VNPComplete", "H has a self-loop")
        return Classification(
            "VAC0", "H has no self-loop; cliques mapping into H have bounded size")
    # tree / outerplanar / planar / genus(k)
    if has_edge:
        return Classification("VNPComplete", "H contains an edge")
    return Classification("VNPComplete", "H has a self-loop but no edge",
                          caveat=LOOP_ONLY_CAVEAT)


def _vac0_report(lemma_id: str, params: dict, reason: str) -> ReductionReport:
    zero = Polynomial.zero()
    return ReductionReport(lemma_id, params, zero, zero, True,
                           details={"skipped": reason})


def _gadget_lemma(lemma_id: str, h: Graph, cls: GraphClass, params: dict,
                  expected, body) -> ReductionReport:
    """The classifier's skip, then body(details), which returns the report.
    A PipelineIntegrityError from the body becomes a failed report against
    expected(), keeping the details the body recorded before it."""
    verdict = classify(h, cls)
    if verdict.kind != "VNPComplete" or not h.edges:
        reason = verdict.witness if verdict.kind != "VNPComplete" else LOOP_ONLY_CAVEAT
        return _vac0_report(lemma_id, params, reason)
    details: dict = {}
    try:
        return body(details)
    except PipelineIntegrityError as exc:
        details["calibration_failure"] = str(exc)
        return ReductionReport(lemma_id, params, Polynomial.zero(), expected(), False,
                               details=details)


# -- enforced enumeration shared by the gadget pipelines -----------------------------

def budget_survivors(nvert: int, enforced, free, pick: int, class_check,
                     hom_target: Graph | None = None) -> list[frozenset]:
    """Edge subsets (enforced plus pick free edges) passing the class and
    homomorphism checks.

    Equivalent to enforcing the given edges and slicing the class generating
    function at the total edge budget, computed without materializing the
    unrestricted polynomial; gadget edges are canonical, so no Graph.make.
    """
    base = sorted(enforced)
    out = []
    for combo in itertools.combinations(sorted(free), pick):
        g = Graph(nvert, frozenset(base + list(combo)))
        if not class_check(g):
            continue
        if hom_target is not None and not is_homomorphic(g, hom_target):
            continue
        out.append(g.edges)
    return out


def _gadget_survivors(gadget, class_check, hom_target: Graph | None) -> list:
    """budget_survivors over the gadget's enforced edges and its budget."""
    return budget_survivors(gadget.graph.n, gadget.enforced, gadget.free_edges(),
                            gadget.budget - len(gadget.enforced), class_check,
                            hom_target)


def _edge_vars_at(v: int, others) -> list:
    return [edge_var(v, w) for w in others if w != v]


def _slice(p: Polynomial, filters, check: bool,
           details: dict) -> tuple[Polynomial, int | None]:
    """Apply the (vars, k) homogeneous-component filters to p in order; the
    sliced polynomial and the circuit size (None when check is false).

    The same filter list is re-run through interpolation circuits: p is the
    circuit's one oracle, over p's own variables (none for a constant p),
    and one interpolation is nested per filter, each of degree max(k,
    degree of p in vars).  The evaluated circuit must equal the direct
    slices, else PipelineIntegrityError; records the sizes per nesting
    level and returns the final one.  check is only the
    empty-polynomial guard: the gadget pipelines pass bool(p), so a
    mis-calibrated budget with no survivors adds no circuit keys, while the
    tree pipeline always passes True and checks an empty p too.
    """
    sliced = p
    for vars, k in filters:
        sliced = sliced.homogeneous_component(vars, k)
    if not check:
        return sliced, None
    c = circ.oracle_call_circuit(sorted(p.variables()))
    sizes = [circ.size(c)]
    for vars, k in filters:
        c = circ.interpolate_homc(c, vars, k, max(k, p.degree_in(vars)))
        sizes.append(circ.size(c))
    if circ.eval_symbolic(c, p) != sliced:
        raise PipelineIntegrityError("circuit route disagrees with direct route")
    details["circuit_sizes"] = sizes
    details["circuit_agrees"] = True
    return sliced, sizes[-1]


# -- cycles -------------------------------------------------------------------------

def reduce_cycles(h: Graph, n: int) -> ReductionReport:
    """Slice the cycle polynomial at the even length and, for odd n, contract
    one enforced edge of the one-larger host; compare with the Hamiltonian
    cycle oracle."""
    params = {"n": n, "h": h.to_json_obj()}
    if n < 3 or n > 6:
        raise ValueError("cycle pipeline supports 3 <= n <= 6")
    cls = classify(h, CYCLE)
    if cls.kind != "VNPComplete":
        return _vac0_report("cycles-even", params, cls.witness)

    details: dict = {}
    if h.loops or n % 2 == 0:
        host = n
        F = hom_poly(h, host, CYCLE)
        evars = [edge_var(i, j) for i, j in all_edges(host)]
        produced = F.homogeneous_component(evars, n)
        details["branch"] = "loop" if h.loops else "even"
    else:
        host = n + 1
        F = hom_poly(h, host, CYCLE)
        evars = [edge_var(i, j) for i, j in all_edges(host)]
        sliced = F.homogeneous_component(evars, host)
        produced = contract_enforced_edge(sliced, (0, n))
        details["branch"] = "odd-contraction"
    expected = oracle_uhc(n)

    k = n if details["branch"] != "odd-contraction" else host
    c = circ.extract_homc(evars, evars, k, host)
    sizes = [circ.size(c)]
    if details["branch"] == "odd-contraction":
        c = circ.interpolate_homc(c, [edge_var(0, n)], 1, 1)
        sizes.append(circ.size(c))
        mapping = {edge_var(i, n): edge_var(0, i) for i in range(1, n)}
        mapping[edge_var(0, n)] = 1
        c = circ.substitute_vars(c, mapping)
        c = circ.scale_circuit(c, Fraction(1, 2))
    if circ.eval_symbolic(c, F) != produced:
        raise PipelineIntegrityError("circuit route disagrees with direct route")
    details["circuit_sizes"] = sizes
    details["circuit_agrees"] = True

    return ReductionReport("cycles-even", params, produced, expected,
                           produced == expected, circ.size(c), details=details)


def contraction_transfer_check(n: int) -> ReductionReport:
    """contract_enforced_edge on the (n+1)-vertex Hamiltonian polynomial must
    reproduce the n-vertex one, with the factor-two integrality assertion."""
    produced = contract_enforced_edge(oracle_uhc(n + 1), (0, n))
    expected = oracle_uhc(n)
    return ReductionReport("cycles-even", {"n": n, "phase": "transfer"},
                           produced, expected, produced == expected)


# -- cliques ------------------------------------------------------------------------

def clique_number(h: Graph) -> int:
    best = 1 if h.n else 0
    for size in range(2, h.n + 1):
        for verts in itertools.combinations(range(h.n), size):
            if all(h.has_edge(a, b) for a, b in itertools.combinations(verts, 2)):
                best = max(best, size)
    return best


def reduce_cliques_vac0(h: Graph, n: int) -> Polynomial:
    """Explicit clique polynomial: one monomial per clique of K_n of size
    between 2 and the clique number of h.  Term count is at most c*n^c for
    c the clique number."""
    if h.loops:
        raise ValueError("the explicit clique enumeration needs a loopless H")
    return clique_poly(n, clique_number(h))


# -- trees --------------------------------------------------------------------------

def tree_gadget_edges(target: Graph) -> tuple[list, int]:
    """Gadget for a matching target: originals, one vertex per target edge,
    and a root s joined to every edge vertex.  Returns (edges in canonical
    order, n_vertices)."""
    tn = target.n
    tedges = sorted(target.edges)
    s = tn + len(tedges)
    out = []
    for k, (u, v) in enumerate(tedges):
        ev = tn + k
        out += [(u, ev), (v, ev), (ev, s)]
    return sorted(canonical_edge(*e) for e in out), tn + len(tedges) + 1


DEFAULT_TREE_NODE_BUDGET = 2_000_000


def gadget_tree_poly(target: Graph, node_budget: int = DEFAULT_TREE_NODE_BUDGET
                     ) -> tuple[Polynomial, int]:
    """Size-restricted tree polynomial of the matching gadget of an even
    target, in the edge-and-vertex model, and the number of search nodes.

    A depth-first search decides the gadget edges in canonical order.  A
    branch is dropped when an edge would close a cycle, when more than tn/2
    edge vertices are covered, when the forest passes 3tn/2 edges, or when too
    few edges remain to reach 3tn/2 - 1.  A leaf forest is kept when it is one
    tree (covered vertices = edges + 1) with 3tn/2 - 1 or 3tn/2 edges.  The
    trees that reduce_trees keeps, on tn/2 edge vertices, tn originals and the
    root, have exactly 3tn/2 edges.  The 3tn/2 - 1 edge trees each miss one of
    those vertices and never survive the slices.  They are kept on purpose:
    the slices, and the circuit filters that re-run them, have these terms to
    remove.  Raises BudgetExceededError past node_budget nodes.
    """
    gedges, nvert = tree_gadget_edges(target)
    half = target.n // 2
    top = 3 * half
    root = nvert - 1
    parent = list(range(nvert))
    deg = [0] * nvert
    chosen: list = []
    terms: dict = {}
    nodes = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(i: int, evs: int, covered: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise BudgetExceededError(
                f"tree search exceeds the node budget {node_budget}")
        k = len(chosen)
        if k == top or i == len(gedges):
            if k >= top - 1 and covered == k + 1:
                mono = [(edge_var(*e), 1) for e in chosen]
                mono += [(vertex_var(v), 1) for v in range(nvert) if deg[v]]
                terms[tuple(mono)] = 1
            return
        if k + len(gedges) - i < top - 1:
            return
        a, b = gedges[i]
        ev = a if b == root else b  # every gadget edge has one edge vertex
        grown = evs + (deg[ev] == 0)
        ra, rb = find(a), find(b)
        if ra != rb and grown <= half:
            parent[ra] = rb
            chosen.append((a, b))
            cov = covered + (deg[a] == 0) + (deg[b] == 0)
            deg[a] += 1
            deg[b] += 1
            visit(i + 1, grown, cov)
            deg[a] -= 1
            deg[b] -= 1
            chosen.pop()
            parent[ra] = ra
        visit(i + 1, evs, covered)

    visit(0, 0, 0)
    return Polynomial(terms), nodes


def reduce_trees(h: Graph, target: Graph,
                 node_budget: int = DEFAULT_TREE_NODE_BUDGET) -> ReductionReport:
    """Recover the perfect matchings of the target from the tree polynomial
    of the matching gadget in the edge-and-vertex model.

    For an even target, gadget_tree_poly gives the trees of 3tn/2 - 1 or
    3tn/2 edges.  Slicing them at degree tn/2 in the edge-vertex variables,
    tn in the original-vertex variables and one in the root's variable keeps
    one tree per perfect matching: each chosen edge vertex with its full
    star.  The slices remove exactly the 3tn/2 - 1 edge trees; the 3tn/2 edge
    trees all pass.  Setting every variable but the root edges to one and
    renaming each root edge to its target edge gives the matching polynomial.
    The three slices are re-run through nested interpolation circuits, which
    must agree, so the circuit check tests that its filters remove those
    smaller trees.
    An odd target has no perfect matching: the result is zero, with nothing
    to search and the circuit check reported as skipped.
    """
    params = {"target": target.to_json_obj(), "h": h.to_json_obj()}
    if target.loops:
        raise ValueError("matching target must be loopless")
    if not target.n:
        # the empty matching would count as 1, but the gadget has no tree
        raise ValueError("matching target needs a vertex")
    cls = classify(h, TREE)
    if cls.kind != "VNPComplete":
        return _vac0_report("tree-matching", params, cls.witness)
    if not h.edges:
        return _vac0_report("tree-matching", params, "tree pipeline needs an edge in H")

    tn = target.n
    tedges = sorted(target.edges)
    gedges, nvert = tree_gadget_edges(target)
    s = nvert - 1
    details: dict = {"gadget_vertices": nvert, "gadget_edges": len(gedges)}

    csize = None
    if tn % 2:
        sliced = Polynomial.zero()
        details["circuit"] = "skipped: odd target has no perfect matching"
    else:
        P, details["dfs_nodes"] = gadget_tree_poly(target, node_budget)
        details["tree_terms"] = len(P)
        # the root slice only bites on a two-vertex target, whose path u-e-v
        # spans both originals without the root
        filters = [([vertex_var(tn + k) for k in range(len(tedges))], tn // 2),
                   ([vertex_var(v) for v in range(tn)], tn),
                   ([vertex_var(s)], 1)]
        sliced, csize = _slice(P, filters, True, details)

    # every tree is bipartite, hence homomorphic to any H with an edge; the
    # class polynomial's homomorphism filter is checked on the survivors
    survivors = [m for m, _ in sliced.terms()]
    details["survivors"] = len(survivors)
    for m in survivors:
        es = [(v[1], v[2]) for v, _ in m if v[0] == 'e']
        if not is_homomorphic(Graph.make(nvert, es), h):
            raise PipelineIntegrityError("survivor not homomorphic to H")

    # project onto the root edges and rename them to the target's edge variables
    mapping = {}
    for var in sliced.variables():
        if var[0] == 'e' and var[2] == s:
            mapping[var] = edge_var(*tedges[var[1] - tn])
        else:
            mapping[var] = 1
    produced = sliced.substitute(mapping)
    expected = oracle_matching(target)

    return ReductionReport("tree-matching", params, produced, expected,
                           produced == expected, csize, details=details)


# -- outerplanar ---------------------------------------------------------------------

def reduce_outerplanar(h: Graph, n: int, budget: int | None = None
                       ) -> ReductionReport:
    """Star-gadget pipeline: enforce the center star and the total edge
    budget, fix the two designated path endpoints, then glue them to turn
    the surviving outer paths into the Hamiltonian cycles of K_{n-2}."""
    params = {"n": n, "h": h.to_json_obj()}
    if n < 5 or n > 7:
        raise ValueError("outerplanar pipeline supports 5 <= n <= 7")

    def body(details: dict) -> ReductionReport:
        # without a triangle in H, the buddy transform of the star gadget is
        # bipartite and its buddy pairs contract back onto the star's edges
        direct = is_homomorphic(K3, h)
        details["branch"] = "triangle" if direct else "buddy"
        if not direct and n > 6:
            raise ValueError("the buddy branch supports n <= 6")
        star = star_gadget(n, budget)
        gadget = star if direct else buddy_transform(star)
        center, a, b = star.role("center"), star.role("glue-a"), star.role("glue-b")
        outer = list(range(1, n))
        k = len(outer)
        survivors = _gadget_survivors(gadget, lambda g: recognize(g, OUTERPLANAR), h)
        p_budget = subsets_to_poly(survivors)
        details.update(budget_valid=len(p_budget), budget=gadget.budget)
        if direct:
            ends = [_edge_vars_at(v, outer) for v in (a, b)]
        else:
            def pair_conn_vars(v):
                out = [edge_var(*canonical_edge(v, w + k)) for w in outer if w != v]
                out += [edge_var(*canonical_edge(w, v + k)) for w in outer if w != v]
                return out
            ends = [pair_conn_vars(v) for v in (a, b)]
            details["support_bipartite"] = hom_to_single_edge(gadget.graph)
        p_pts, csize = _slice(p_budget, [(vs, 1) for vs in ends],
                              bool(p_budget), details)
        details["endpoint_valid"] = len(p_pts)
        if direct:
            _verify_star_survivors(p_pts, n, center, a, b, outer)
        else:
            # contract the buddy pairs: pair edges to one, buddies relabeled
            # onto their originals; the lift multiplicity (one per
            # order-respecting attachment pattern, n-1 in total) is uniform
            # and divided out
            p_pts = p_pts.substitute({edge_var(v, v + k): 1 for v in outer})
            p_pts = relabel_edges_poly(p_pts, {v + k: v for v in outer})
            p_pts, details["lift_multiplicity"] = divide_uniform(
                p_pts, "contracting buddy pairs")
        glued = _glue_endpoints(p_pts, sorted(star.enforced), a, b,
                                [v for v in outer if v != b])
        expected = oracle_uhc(n - 2)
        equal = glued == expected
        if not equal:
            details["calibration_failure"] = True
        return ReductionReport("outerplanar-star", params, glued, expected, equal,
                               csize, details=details)

    return _gadget_lemma("outerplanar-star", h, OUTERPLANAR, params,
                         lambda: oracle_uhc(n - 2), body)


def _glue_endpoints(p: Polynomial, drop_to_one, a: int, b: int,
                    final_vertices) -> Polynomial:
    """Set the given edges to one, relabel b onto a, canonicalize labels."""
    p = p.substitute({edge_var(*e): 1 for e in drop_to_one})
    vmap = {v: i for i, v in enumerate(sorted(final_vertices))}
    vmap[b] = vmap.get(a, a)
    return divide_integral(relabel_edges_poly(p, vmap), 2, "gluing endpoints")


def _verify_star_survivors(p_pts: Polynomial, n, center, a, b, outer) -> None:
    """The degree structure behind the small-bipartite-minor argument: the
    center keeps its full star, the glue endpoints have one outer edge, and
    every other outer vertex has exactly two."""
    for m, _ in p_pts.terms():
        es = [(v[1], v[2]) for v, _ in m if v[0] == 'e']
        g = Graph.make(n, es)
        if g.degree(center) != n - 1:
            raise PipelineIntegrityError("survivor lost a star edge")
        for v in outer:
            outdeg = sum(1 for (x, y) in es if center not in (x, y) and v in (x, y))
            want = 1 if v in (a, b) else 2
            if outdeg != want:
                raise PipelineIntegrityError(
                    f"survivor outer degree {outdeg} at {v}, wanted {want}")
        if not topo.is_outerplanar(g):
            raise PipelineIntegrityError("survivor is not outerplanar")


# -- planar --------------------------------------------------------------------------

def reduce_planar(h: Graph, m: int, budget: int | None = None) -> ReductionReport:
    """Apex-gadget pipeline: with all apex edges enforced and m-1 middle
    edges allowed, the planar survivors are exactly the Hamiltonian paths on
    the middle clique (m!/2 of them); for m >= 6 the designated end edges
    and endpoint degrees are enforced and the second/second-to-last vertices
    are glued, recovering the Hamiltonian cycles on m-3 vertices."""
    params = {"m": m, "h": h.to_json_obj()}
    if m < 3 or m > 6:
        raise ValueError("planar pipeline supports 3 <= m <= 6")

    def body(details: dict) -> ReductionReport:
        gadget = planar_gadget(m, budget)
        triangle_branch = is_homomorphic(K3, h)
        survivors = _gadget_survivors(gadget, lambda g: recognize(g, PLANAR),
                                      h if triangle_branch else None)
        details["budget"] = gadget.budget
        mids = list(range(m))
        got_middle, expected_paths = _path_lemma(survivors, mids, details)
        equal = got_middle == expected_paths
        if not equal:
            details["calibration_failure"] = True
        if not triangle_branch:
            variant = subdivide_and_buddy_planar(gadget)
            details["bipartite_variant"] = hom_to_single_edge(variant.graph)
            details["hom_certificate"] = "subdivided+buddy support is bipartite"
            equal = equal and details["bipartite_variant"]
        if m < 6:
            return ReductionReport("planar-permutation", params,
                                   subsets_to_poly(got_middle),
                                   subsets_to_poly(expected_paths), equal,
                                   details=details)
        e_left, e_right = end_edges(gadget)
        lo = gadget.graph.label("end-left-outer")
        ro = gadget.graph.label("end-right-outer")
        ga, gb = gadget.role("glue-a"), gadget.role("glue-b")
        # on the multilinear survivor polynomial a degree-one slice in x_e
        # enforces e
        filters = [([edge_var(*e_left)], 1), ([edge_var(*e_right)], 1),
                   (_edge_vars_at(lo, mids), 1), (_edge_vars_at(ro, mids), 1)]
        glued, uhc, csize = _glue_into_uhc(
            survivors, filters, sorted(gadget.enforced) + [e_left, e_right], ga, gb,
            [v for v in mids if v not in (lo, ro, gb)], details)
        return ReductionReport("planar-permutation", params, glued, uhc,
                               equal and glued == uhc, csize, details=details)

    def expected() -> Polynomial:
        # what body compares its result with: the glued cycles at m = 6,
        # the middle Hamiltonian paths below
        if m == 6:
            return oracle_uhc(m - 3)
        return subsets_to_poly(_ham_path_sets(range(m)))

    return _gadget_lemma("planar-permutation", h, PLANAR, params, expected, body)


def _ham_path_sets(vertices) -> set:
    return {frozenset(canonical_edge(a, b) for a, b in zip(p, p[1:]))
            for p in hamiltonian_orders(vertices)}


def _path_lemma(survivors, mids, details: dict) -> tuple[set, set]:
    """The survivors' edge sets among the middle vertices, and the
    Hamiltonian paths on those vertices that the sets should be."""
    got = {frozenset(e for e in es if e[0] in mids and e[1] in mids)
           for es in survivors}
    expected = _ham_path_sets(mids)
    details.update(middle_valid=len(survivors), expected_paths=len(expected))
    return got, expected


def _glue_into_uhc(survivors, filters, drop_to_one, a: int, b: int,
                   final_vertices, details: dict) -> tuple:
    """Slice the survivors' polynomial by the filters, glue b onto a, and
    compare with the Hamiltonian cycles on the final vertices; returns the
    glued polynomial, oracle_uhc and the circuit size."""
    p = subsets_to_poly(survivors)
    p_glue, csize = _slice(p, filters, bool(p), details)
    details["glue_survivors"] = len(p_glue)
    glued = _glue_endpoints(p_glue, drop_to_one, a, b, final_vertices)
    uhc = oracle_uhc(len(final_vertices))
    details["glued_equal_uhc"] = glued == uhc
    return glued, uhc, csize


# -- genus ---------------------------------------------------------------------------

BLOCK_GENUS_BUDGET = 100_000

_block_cache: dict = {}


def _block_certificate() -> dict:
    """The block certificate, computed once per process and shared; callers
    must not mutate it."""
    if not _block_cache:
        g = genus_block().graph
        planar = topo.is_planar(g)
        witness = topo.kuratowski_witness(g)
        genus, rot = topo.min_genus_rotation(g, budget=BLOCK_GENUS_BUDGET)
        _block_cache.update({
            "planar": planar,
            "minor": None if witness is None else
            {"kind": witness[0], "branch_sets": [sorted(s) for s in witness[1]]},
            "min_genus": genus,
            "rotation": topo.rotation_to_json_obj(rot),
            "search_space": topo.rotation_search_space(g),
        })
    return _block_cache


def block_certificates() -> dict:
    """Non-planarity witness (the validated Kuratowski minor of
    topo.kuratowski_witness, a K3,3 for this block, plus the planarity test)
    and the minimum-genus certificate for the 8-vertex block: the
    first rotation of least genus, found by min_genus_rotation, which stops
    at genus one once a validated Kuratowski minor rules out genus zero.
    Returns a fresh copy of the per-process certificate."""
    return copy.deepcopy(_block_certificate())


def genus_block_report() -> ReductionReport:
    """The block certificates as a report.  Its verdict, which reduce_genus
    reads too: the block is not planar, has a Kuratowski minor, and has
    least genus one."""
    certs = block_certificates()
    ok = (not certs["planar"] and certs["minor"] is not None
          and certs["min_genus"] == 1)
    zero = Polynomial.zero()
    return ReductionReport(
        "genus-block", {}, zero, zero, ok,
        details={"planar": certs["planar"], "min_genus": certs["min_genus"],
                 "minor_kind": certs["minor"]["kind"] if certs["minor"] else None,
                 "rotation": certs["rotation"],
                 "search_space": certs["search_space"]})


def chain_rotation(k: int, subdivide: bool = False) -> dict:
    """Concatenated rotation system for the k-block chain.

    Each block keeps the genus-one rotation of the block certificate and
    every junction splices the two local rings contiguously, which adds
    exactly one to the genus per block; for a subdivided chain the rotation
    is transferred through the subdivision (replace each diagonal endpoint
    by the midpoint), which preserves faces and hence genus.
    """
    from .gadgets import BLOCK_DIAGONALS, chain_layout
    rot1 = topo.rotation_from_json_obj(_block_certificate()["rotation"])
    edges, vmaps, midpoints, next_id = chain_layout(k, subdivide)
    chain = Graph.make(next_id, edges)
    mid_of = {(b, uv): w for b, uv, w in midpoints}
    rot: dict[int, tuple] = {}
    for b, vmap in enumerate(vmaps):
        for v in range(8):
            ring = [vmap[x] for x in rot1[v]]
            if subdivide:
                for (lu, lv) in BLOCK_DIAGONALS:
                    w = mid_of[(b, (lu, lv))]
                    if v == lu:
                        ring = [w if x == vmap[lv] else x for x in ring]
                    elif v == lv:
                        ring = [w if x == vmap[lu] else x for x in ring]
            gv = vmap[v]
            rot[gv] = rot.get(gv, ()) + tuple(ring)
        if subdivide:
            for (lu, lv) in BLOCK_DIAGONALS:
                rot[mid_of[(b, (lu, lv))]] = (vmap[lu], vmap[lv])
    genus = topo.genus_of_rotation(chain, rot)
    return {"genus": genus, "rotation": rot, "graph": chain}


def reduce_genus(h: Graph, k: int, m: int) -> ReductionReport:
    """Chain of k genus blocks with the planar gadget amalgamated at the free
    end.  The block chain is certified non-planar with an explicit embedding
    of genus k; genus additivity over one-vertex amalgams then pins the class
    test down to planarity of the apex portion, which reruns the permutation
    lemma and the endpoint glue under the genus-k budget."""
    params = {"k": k, "m": m, "h": h.to_json_obj()}
    if k < 1 or k > 2 or m < 4 or m > 5:
        raise ValueError("genus pipeline supports k in {1,2}, 4 <= m <= 5")

    def body(details: dict) -> ReductionReport:
        block = genus_block_report()
        details["block"] = {"planar": block.details["planar"],
                            "min_genus": block.details["min_genus"],
                            "minor": block.details["minor_kind"]}
        structural_ok = block.equal
        details["lower_bound"] = "genus additivity over vertex amalgams, used as a black box"

        # the plain block contains a 4-clique, so unless that maps into h the
        # pipeline runs on the diagonal-subdivided chain, whose blocks keep
        # their genus while folding onto a single edge
        k4_branch = is_homomorphic(Graph.complete(4), h)
        triangle_branch = is_homomorphic(K3, h)
        use_subdivided = not k4_branch
        details["chain_variant"] = "subdivided" if use_subdivided else "plain"
        chain_cert = chain_rotation(k, subdivide=use_subdivided)
        details["chain_embedding_genus"] = chain_cert["genus"]
        structural_ok = structural_ok and chain_cert["genus"] == k
        if use_subdivided:
            sub_block = amalgam_chain(1, subdivide=True).graph
            details["subdivided_block_nonplanar"] = not topo.is_planar(sub_block)
            structural_ok = structural_ok and details["subdivided_block_nonplanar"]

        gadget = amalgam_chain(k, attach_planar=m, subdivide=use_subdivided)
        g = gadget.graph
        apex_a, apex_b = g.label("planar-apex-a"), g.label("planar-apex-b")
        mids = sorted(w for (u, v) in g.edges if apex_a in (u, v)
                      for w in (u, v) if w != apex_a)
        planar_part_vertices = set(mids) | {apex_a, apex_b}

        def class_check(cand: Graph) -> bool:
            # blocks are enforced and each has genus one; by additivity over
            # the one-vertex amalgams the candidate has genus exactly k iff
            # its apex portion (the only piece that varies) is planar
            return topo.is_planar(cand.induced(planar_part_vertices))

        # a 4-clique maps into h only if a triangle does
        survivors = _gadget_survivors(gadget, class_check,
                                      h if triangle_branch else None)
        got_middle, expected_paths = _path_lemma(survivors, mids, details)

        # endpoint glue in ends-direct mode: the designated path endpoints are
        # the outer end vertex and the junction; fixing their middle degree to
        # one and identifying them turns each path into a cycle on m-1 vertices
        pa = g.label("planar-end-left-outer")
        pb = g.label("planar-end-right-outer")
        glued, uhc, csize = _glue_into_uhc(
            survivors, [(_edge_vars_at(pa, mids), 1), (_edge_vars_at(pb, mids), 1)],
            sorted(gadget.enforced), pa, pb, [v for v in mids if v != pb], details)

        if not triangle_branch:
            folded = amalgam_chain(k, subdivide=True)
            variant = subdivide_and_buddy_planar(planar_gadget(m))
            details["chain_folds_to_edge"] = fold_block_to_edge_certificate(folded)
            details["planar_variant_bipartite"] = hom_to_single_edge(variant.graph)
            structural_ok = structural_ok and details["chain_folds_to_edge"] \
                and details["planar_variant_bipartite"]

        equal = structural_ok and got_middle == expected_paths and glued == uhc
        caveat = None if structural_ok else "embedding or certificate search failed"
        return ReductionReport("genus-chain", params, glued, uhc, equal, csize,
                               details=details, caveat=caveat)

    return _gadget_lemma("genus-chain", h, genus_class(k), params,
                         lambda: oracle_uhc(m - 1), body)
