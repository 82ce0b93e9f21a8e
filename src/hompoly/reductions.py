"""Executable reduction pipelines and the dichotomy classifier.

Each pipeline builds a class generating function over a gadget, applies
homogeneous-component slices, a projection and exact division, and compares
the result against an independent brute-force oracle.  Enforcing edges is a
slice at full degree in their variables; contracting an enforced edge uv is
the slice ([x_uv], 1), then the projection
(edge_projection(vars, {v: u}, [uv]), 2).  Pipelines always run their
extraction steps twice: once as direct polynomial operations and once
through interpolation circuits with oracle gates, and both routes must agree.

Every polynomial lemma (cycles, trees, outerplanar, planar and genus) runs
in one frame, _lemma_frame: the classifier's skip, then the lemma's body,
where a PipelineIntegrityError (a mis-calibrated budget, a survivor failing
its certificate, or the circuit route disagreeing) becomes one failed
report keeping the details recorded so far.  One function, _slice, builds,
projects and checks every circuit, and one builder, edge_projection, makes
each vertex map's projection.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import circuit as circ
from . import topo
from .errors import BudgetExceededError, PipelineIntegrityError, count_text
from .gadgets import (amalgam_chain, buddy_transform, chain_layout,
                      end_edges, genus_block, planar_gadget, star_gadget,
                      subdivide_and_buddy_planar, fold_block_to_edge_certificate)
from .genfun import (VariableModel, _assemble, clique_poly, hamiltonian_orders,
                     hom_poly, oracle_matching, oracle_uhc, subsets_to_poly)
from .graphs import (CYCLE, OUTERPLANAR, PLANAR, TREE, Graph,
                     GraphClass, all_edges, canonical_edge, genus_class,
                     hom_to_single_edge, is_homomorphic, recognize)
from .poly import Polynomial, edge_var, vertex_var

K3 = Graph.complete(3)

# lemma id -> size keyword -> (verify default, (least, greatest) supported)
LEMMA_SIZES = {
    "cycles-even": {"n": (4, (3, 6))},
    "tree-matching": {},
    "outerplanar-star": {"n": (6, (5, 7))},
    "planar-permutation": {"m": (4, (3, 6))},
    "genus-block": {},
    "genus-chain": {"k": (1, (1, 2)), "m": (4, (4, 5))},
}


def _params(lemma_id: str, h: Graph, **sizes) -> dict:
    for key, value in sizes.items():
        lo, hi = LEMMA_SIZES[lemma_id][key][1]
        if not lo <= value <= hi:
            raise ValueError(f"{lemma_id} supports {lo} <= {key} <= {hi}")
    return {**sizes, "h": h.to_json_obj()}


# -- core filtering operations ---------------------------------------------------

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


def edge_projection(vars, vmap: dict, to_one=()) -> dict:
    """{var: 1 | renamed edge var} over the edge variables among vars: the
    edges to_one go to one, every other is renamed by the vertex map vmap.
    vmap merging an edge's ends is a PipelineIntegrityError."""
    ones = {edge_var(*e) for e in to_one}
    mapping = {}
    for var in vars:
        if var in ones:
            mapping[var] = 1
        elif var[0] == 'e':
            i, j = vmap.get(var[1], var[1]), vmap.get(var[2], var[2])
            if i == j:
                raise PipelineIntegrityError(f"relabeling merges the ends of {var}")
            mapping[var] = edge_var(i, j)
    return mapping


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


def _lemma_frame(lemma_id: str, h: Graph, cls: GraphClass, params: dict,
                 expected: Polynomial, body) -> ReductionReport:
    """The classifier's skip, then body(details), which returns the report.
    The lemma is skipped when classify(h, cls) is not VNP-complete or
    carries a caveat, which is then the reason given, else the witness.  A
    PipelineIntegrityError from the body becomes a failed report against
    expected, the polynomial the body compares with, keeping the details
    the body recorded before it."""
    verdict = classify(h, cls)
    if verdict.kind != "VNPComplete" or verdict.caveat:
        zero = Polynomial.zero()
        return ReductionReport(lemma_id, params, zero, zero, True,
                               details={"skipped": verdict.caveat or verdict.witness})
    details: dict = {}
    try:
        return body(details)
    except PipelineIntegrityError as exc:
        details["calibration_failure"] = str(exc)
        return ReductionReport(lemma_id, params, Polynomial.zero(), expected, False,
                               details=details)


# -- enforced enumeration shared by the gadget pipelines -----------------------------

def budget_survivors(nvert: int, enforced, free, pick: int, class_check,
                     hom_target: Graph | None = None) -> list[frozenset]:
    """Edge subsets (enforced plus pick free edges) passing the class and
    homomorphism checks.

    Equivalent to enforcing the given edges and slicing the class generating
    function at the total edge budget, computed without materializing the
    unrestricted polynomial.  Gadget edges are canonical, so each candidate is
    made by Graph.with_nbrs from a copy of the enforced masks plus its picks.
    """
    base = Graph(nvert, frozenset(enforced))
    masks = list(base.nbrs)
    out = []
    for combo in itertools.combinations(sorted(free), pick):
        nbrs = masks.copy()
        for a, b in combo:
            nbrs[a] |= 1 << b
            nbrs[b] |= 1 << a
        g = Graph.with_nbrs(nvert, base.edges.union(combo), tuple(nbrs))
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


def _free_at(gadget, vs) -> set:
    """The variables of the gadget's free edges with an end in vs."""
    return {edge_var(*e) for e in gadget.free_edges() if e[0] in vs or e[1] in vs}


def _slice(p: Polynomial, filters, details: dict, project=None) -> tuple[Polynomial, int]:
    """Apply the (vars, k) homogeneous-component filters to p in order, then
    project = (mapping, d), if given: substitute mapping, divide by d.  The
    result and the circuit size.

    The one function that builds, projects and checks a circuit: p is its
    one oracle, over p's own variables (none for a constant p), one
    interpolation is nested per filter, each of degree max(k, degree of p in
    vars), and the projection substitutes mapping into the circuit and
    scales it by 1/d.  The evaluated circuit must equal the direct result,
    else PipelineIntegrityError; details records the sizes from the oracle
    call on, one per nesting.  An empty p is checked too, so a budget that
    leaves no survivor still reports its circuit keys.
    """
    direct = p
    for vars, k in filters:
        direct = direct.homogeneous_component(vars, k)
    c = circ.oracle_call_circuit(sorted(p.variables()))
    sizes = [circ.size(c)]
    for vars, k in filters:
        c = circ.interpolate_homc(c, vars, k, max(k, p.degree_in(vars)))
        sizes.append(circ.size(c))
    if project is not None:
        mapping, d = project
        direct = divide_integral(direct.substitute(mapping), d, "projecting the slice")
        c = circ.scale_circuit(circ.substitute_vars(c, mapping), Fraction(1, d))
    if circ.eval_symbolic(c, p) != direct:
        raise PipelineIntegrityError("circuit route disagrees with direct route")
    details["circuit_sizes"] = sizes
    details["circuit_agrees"] = True
    return direct, circ.size(c)


# -- cycles -------------------------------------------------------------------------

def reduce_cycles(h: Graph, n: int) -> ReductionReport:
    """Slice the cycle polynomial at the even length and, for odd n, contract
    one enforced edge of the one-larger host; compare with the Hamiltonian
    cycle oracle."""
    params = _params("cycles-even", h, n=n)
    expected = oracle_uhc(n)

    def body(details: dict) -> ReductionReport:
        odd = not h.loops and n % 2 == 1
        details["branch"] = "odd-contraction" if odd else "loop" if h.loops else "even"
        host = n + 1 if odd else n
        F = hom_poly(h, host, CYCLE)
        evars = [edge_var(i, j) for i, j in all_edges(host)]
        filters, project = [(evars, host)], None
        if odd:
            filters.append(([edge_var(0, n)], 1))
            project = edge_projection(evars, {n: 0}, [(0, n)]), 2
        produced, csize = _slice(F, filters, details, project)
        return ReductionReport("cycles-even", params, produced, expected,
                               produced == expected, csize, details=details)

    return _lemma_frame("cycles-even", h, CYCLE, params, expected, body)


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


TREE_CANDIDATE_BUDGET = 2_000_000


def gadget_tree_poly(target: Graph) -> tuple[Polynomial, int]:
    """Size-restricted tree polynomial of the matching gadget of an even
    target, in the edge-and-vertex model, and the number of candidates.

    Every gadget edge has exactly one edge-vertex end, and each edge vertex
    has degree three, so a forest on at most tn/2 edge vertices has at most
    3tn/2 edges.  A kept tree has 3tn/2 - 1 or 3tn/2 edges, so it covers
    exactly tn/2 edge vertices, each with its full star or with one star
    edge missing.  The candidates are, for each tn/2-subset of the target's
    edges, the union of their stars, whole and then with each of its 3tn/2
    edges dropped in turn: C(|E|, tn/2) (3tn/2 + 1) of them, each built once.
    A candidate is kept when it is a tree.  The trees that reduce_trees
    keeps, on tn/2 edge vertices, tn originals and the root, have exactly
    3tn/2 edges.  The 3tn/2 - 1 edge trees each miss one of those vertices
    and never survive the slices.  They are kept on purpose: the slices, and
    the circuit filters that re-run them, have these terms to remove.
    Raises BudgetExceededError, before any candidate is built, when the
    count passes TREE_CANDIDATE_BUDGET.
    """
    gedges, nvert = tree_gadget_edges(target)
    half = target.n // 2
    count = math.comb(len(target.edges), half) * (3 * half + 1)
    if count > TREE_CANDIDATE_BUDGET:
        raise BudgetExceededError(
            f"{count_text(count, TREE_CANDIDATE_BUDGET)} tree candidates exceed "
            f"the candidate budget {TREE_CANDIDATE_BUDGET}")
    bit = {e: 1 << i for i, e in enumerate(gedges)}
    stars = [[] for _ in target.edges]  # the three gadget edges at each edge vertex
    for a, b in gedges:
        stars[(a if b == nvert - 1 else b) - target.n].append((a, b))
    masks = []
    for chosen in itertools.combinations(stars, half):
        whole = frozenset(itertools.chain.from_iterable(chosen))
        full = sum(map(bit.__getitem__, whole))
        g = Graph(nvert, whole)
        if recognize(g, TREE):
            masks.append(full)
        for a, b in whole:  # each edge dropped in turn: the masks of g less two bits
            cut = list(g.nbrs)
            cut[a] ^= 1 << b
            cut[b] ^= 1 << a
            if recognize(Graph.with_nbrs(nvert, whole - {(a, b)}, tuple(cut)), TREE):
                masks.append(full - bit[a, b])
    return _assemble(masks, [edge_var(*e) for e in gedges],
                     VariableModel.EDGE_AND_VERTEX), count


def reduce_trees(h: Graph, target: Graph) -> ReductionReport:
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
    expected = oracle_matching(target)

    def body(details: dict) -> ReductionReport:
        tn = target.n
        tedges = sorted(target.edges)
        gedges, nvert = tree_gadget_edges(target)
        s = nvert - 1
        details.update(gadget_vertices=nvert, gadget_edges=len(gedges))
        if tn % 2:
            sliced, csize = Polynomial.zero(), None
            details["circuit"] = "skipped: odd target has no perfect matching"
        else:
            P, details["tree_candidates"] = gadget_tree_poly(target)
            details["tree_terms"] = len(P)
            # the root slice only bites on a two-vertex target, whose path
            # u-e-v spans both originals without the root
            filters = [([vertex_var(tn + k) for k in range(len(tedges))], tn // 2),
                       ([vertex_var(v) for v in range(tn)], tn),
                       ([vertex_var(s)], 1)]
            sliced, csize = _slice(P, filters, details)

        # every tree is bipartite, hence homomorphic to any H with an edge;
        # the class polynomial's homomorphism filter is checked on the survivors
        survivors = [m for m, _ in sliced.terms()]
        details["survivors"] = len(survivors)
        for m in survivors:
            es = [(v[1], v[2]) for v, _ in m if v[0] == 'e']
            if not is_homomorphic(Graph.make(nvert, es), h):
                raise PipelineIntegrityError("survivor not homomorphic to H")

        # project onto the root edges, renamed to the target's edge variables
        produced = sliced.substitute(
            {var: edge_var(*tedges[var[1] - tn]) if var[0] == 'e' and var[2] == s else 1
             for var in sliced.variables()})
        return ReductionReport("tree-matching", params, produced, expected,
                               produced == expected, csize, details=details)

    return _lemma_frame("tree-matching", h, TREE, params, expected, body)


# -- outerplanar ---------------------------------------------------------------------

def reduce_outerplanar(h: Graph, n: int) -> ReductionReport:
    """Star-gadget pipeline: enforce the center star and star_gadget's edge
    budget 2n-3, fix the two designated path endpoints, then glue them to
    turn the surviving outer paths into the Hamiltonian cycles of K_{n-2}."""
    params = _params("outerplanar-star", h, n=n)
    expected = oracle_uhc(n - 2)

    def body(details: dict) -> ReductionReport:
        star = star_gadget(n)
        center, a, b = map(star.graph.label, ("center", "glue-a", "glue-b"))
        outer = list(range(1, n))
        k = len(outer)
        # without a triangle in H, the buddy transform of the star gadget is
        # bipartite and its buddy pairs contract back onto the star's edges;
        # there an end is the vertex together with its buddy
        if is_homomorphic(K3, h):
            details["branch"] = "triangle"
            gadget = star
            ends = [{v} for v in (a, b)]
        else:
            details["branch"] = "buddy"
            if n > 6:
                raise ValueError("the buddy branch supports n <= 6")
            gadget = buddy_transform(star)
            ends = [{v, v + k} for v in (a, b)]
            details["support_bipartite"] = hom_to_single_edge(gadget.graph)
        survivors = _gadget_survivors(gadget, lambda g: recognize(g, OUTERPLANAR), h)
        p_budget = subsets_to_poly(survivors)
        details.update(budget_valid=len(p_budget), budget=gadget.budget)
        p_pts, csize = _slice(p_budget, [(_free_at(gadget, vs), 1) for vs in ends],
                              details)
        details["endpoint_valid"] = len(p_pts)
        if gadget is star:
            _verify_star_survivors(p_pts, n, center, a, b, outer)
        else:
            # contract the buddy pairs: pair edges to one, buddies relabeled
            # onto their originals; the lift multiplicity (one per
            # order-respecting attachment pattern, n-1 in total) is uniform
            # and divided out
            p_pts = p_pts.substitute(edge_projection(
                p_pts.variables(), {v + k: v for v in outer}, [(v, v + k) for v in outer]))
            p_pts, details["lift_multiplicity"] = divide_uniform(
                p_pts, "contracting buddy pairs")
        glued = _glue_endpoints(p_pts, star.enforced, a, b)
        equal = glued == expected
        if not equal:
            details["calibration_failure"] = True
        return ReductionReport("outerplanar-star", params, glued, expected, equal,
                               csize, details=details)

    return _lemma_frame("outerplanar-star", h, OUTERPLANAR, params, expected, body)


def _glue_endpoints(p: Polynomial, drop_to_one, a: int, b: int) -> Polynomial:
    """Set the given edges to one, relabel b onto a, and number in order the
    vertices left on p's other edges: a stray vertex shows as a label past
    the cycle's length, a missing one as a short cycle."""
    drop = {edge_var(*e) for e in drop_to_one}
    kept = {x for var in p.variables() - drop for x in var[1:]}
    vmap = {v: i for i, v in enumerate(sorted(kept - {b}))}
    vmap[b] = vmap.get(a, a)
    p = p.substitute(edge_projection(p.variables(), vmap, drop_to_one))
    return divide_integral(p, 2, "gluing endpoints")


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
            outdeg = g.degree(v) - 1  # the star edge to the center, checked above
            want = 1 if v in (a, b) else 2
            if outdeg != want:
                raise PipelineIntegrityError(
                    f"survivor outer degree {outdeg} at {v}, wanted {want}")
        if not topo.is_outerplanar(g):
            raise PipelineIntegrityError("survivor is not outerplanar")


# -- planar --------------------------------------------------------------------------

def reduce_planar(h: Graph, m: int) -> ReductionReport:
    """Apex-gadget pipeline: all apex edges are enforced and planar_gadget's
    budget 3m-1 leaves m-1 middle edges, so the planar survivors are exactly
    the Hamiltonian paths on the middle clique (m!/2 of them); for m >= 6 the
    designated end edges and endpoint degrees are enforced and the second and
    second-to-last vertices glued, recovering the Hamiltonian cycles on m-3."""
    params = _params("planar-permutation", h, m=m)
    glue = m >= 6
    expected = (oracle_uhc(m - 3) if glue
                else subsets_to_poly(_ham_path_sets(range(m))))

    def body(details: dict) -> ReductionReport:
        gadget = planar_gadget(m)
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
        if not glue:
            return ReductionReport("planar-permutation", params,
                                   subsets_to_poly(got_middle), expected, equal,
                                   details=details)
        e_left, e_right = end_edges(gadget)
        lo = gadget.graph.label("end-left-outer")
        ro = gadget.graph.label("end-right-outer")
        ga, gb = map(gadget.graph.label, ("glue-a", "glue-b"))
        # on the multilinear survivor polynomial a degree-one slice in x_e
        # enforces e
        filters = [([edge_var(*e_left)], 1), ([edge_var(*e_right)], 1),
                   (_free_at(gadget, {lo}), 1), (_free_at(gadget, {ro}), 1)]
        glued, csize = _glue_into_uhc(
            survivors, filters, gadget.enforced | {e_left, e_right}, ga, gb,
            expected, details)
        return ReductionReport("planar-permutation", params, glued, expected,
                               equal and glued == expected, csize, details=details)

    return _lemma_frame("planar-permutation", h, PLANAR, params, expected, body)


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
                   uhc: Polynomial, details: dict) -> tuple:
    """Slice the survivors' polynomial by the filters, glue b onto a, and
    compare with uhc, the Hamiltonian cycles on the glued vertices; returns
    the glued polynomial and the circuit size."""
    p_glue, csize = _slice(subsets_to_poly(survivors), filters, details)
    details["glue_survivors"] = len(p_glue)
    glued = _glue_endpoints(p_glue, drop_to_one, a, b)
    details["glued_equal_uhc"] = glued == uhc
    return glued, csize


# -- genus ---------------------------------------------------------------------------

@functools.cache
def _block_certificate() -> tuple:
    """(planar, witness, genus, rotation, search_space) for the genus block,
    as topo gives them; computed once per process and shared, so callers
    must not mutate it."""
    g = genus_block().graph
    genus, rot, witness = topo._min_genus_witnessed(g)
    return topo.is_planar(g), witness, genus, rot, topo.rotation_search_space(g)


def block_certificates() -> dict:
    """Non-planarity witness (the validated Kuratowski minor of
    topo.kuratowski_witness, a K3,3 for this block, plus the planarity test)
    and the minimum-genus certificate for the 8-vertex block: a traced
    rotation of genus one, built as in topo.min_genus_rotation by putting
    one edge back into a plane rotation of the block minus that edge.  The
    one Kuratowski search serves both the minor and the genus lower bound.
    Each call builds a fresh JSON object from the per-process record."""
    planar, witness, genus, rot, space = _block_certificate()
    return {"planar": planar,
            "minor": None if witness is None else
            {"kind": witness[0], "branch_sets": [sorted(s) for s in witness[1]]},
            "min_genus": genus,
            "rotation": topo.rotation_to_json_obj(rot),
            "search_space": space}


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
    exactly one to the genus per block.  For a subdivided chain the rotation
    is then moved through the subdivision: the midpoint w of a diagonal uv
    takes v's place in u's ring and u's place in v's ring, and gets the ring
    (u, v); this preserves faces and hence genus.
    """
    block_rot = _block_certificate()[3]
    edges, vmaps, midpoints, next_id = chain_layout(k, subdivide)
    rot: dict[int, tuple] = {}
    for vmap in vmaps:
        for v, ring in block_rot.items():
            rot[vmap[v]] = rot.get(vmap[v], ()) + tuple(vmap[x] for x in ring)
    for b, (lu, lv), w in midpoints:
        u, v = vmaps[b][lu], vmaps[b][lv]
        rot[u] = tuple(w if x == v else x for x in rot[u])
        rot[v] = tuple(w if x == u else x for x in rot[v])
        rot[w] = (u, v)
    chain = Graph.make(next_id, edges)
    return {"genus": topo.genus_of_rotation(chain, rot), "rotation": rot, "graph": chain}


def reduce_genus(h: Graph, k: int, m: int) -> ReductionReport:
    """Chain of k genus blocks with the planar gadget amalgamated at the free
    end.  The block chain is certified non-planar with an explicit embedding
    of genus k; genus additivity over one-vertex amalgams then pins the class
    test down to planarity of the apex portion, which reruns the permutation
    lemma and the endpoint glue under the genus-k budget."""
    params = _params("genus-chain", h, k=k, m=m)
    expected = oracle_uhc(m - 1)

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
        mids = list(g.adjacency[apex_a])
        part = sorted(set(mids) | {apex_a, apex_b})
        part_edges = frozenset(itertools.combinations(part, 2))
        part_mask = sum(1 << v for v in part)
        keep = [part_mask if part_mask >> v & 1 else 0 for v in range(g.n)]

        def class_check(cand: Graph) -> bool:
            # blocks are enforced and each has genus one; by additivity over
            # the one-vertex amalgams the candidate has genus exactly k iff
            # its apex portion (the only piece that varies) is planar; the
            # portion keeps the candidate's vertex numbers, the rest isolated
            return topo.is_planar(Graph.with_nbrs(
                g.n, cand.edges & part_edges, tuple(map(int.__and__, cand.nbrs, keep))))

        # a 4-clique maps into h only if a triangle does
        survivors = _gadget_survivors(gadget, class_check,
                                      h if triangle_branch else None)
        got_middle, expected_paths = _path_lemma(survivors, mids, details)

        # endpoint glue in ends-direct mode: the designated path endpoints are
        # the outer end vertex and the junction; fixing their middle degree to
        # one and identifying them turns each path into a cycle on m-1 vertices
        pa = g.label("planar-end-left-outer")
        pb = g.label("planar-end-right-outer")
        glued, csize = _glue_into_uhc(
            survivors, [(_free_at(gadget, {pa}), 1), (_free_at(gadget, {pb}), 1)],
            gadget.enforced, pa, pb, expected, details)

        if not triangle_branch:
            folded = amalgam_chain(k, subdivide=True)
            variant = subdivide_and_buddy_planar(planar_gadget(m))
            details["chain_folds_to_edge"] = fold_block_to_edge_certificate(folded)
            details["planar_variant_bipartite"] = hom_to_single_edge(variant.graph)
            structural_ok = structural_ok and details["chain_folds_to_edge"] \
                and details["planar_variant_bipartite"]

        equal = structural_ok and got_middle == expected_paths and glued == expected
        caveat = None if structural_ok else "embedding or certificate search failed"
        return ReductionReport("genus-chain", params, glued, expected, equal, csize,
                               details=details, caveat=caveat)

    return _lemma_frame("genus-chain", h, genus_class(k), params, expected, body)
