"""Combinatorial embeddings: planarity, rotation systems, faces, genus, minors.

Only orientable embeddings are modeled.  A rotation system assigns each
vertex a cyclic order of its neighbors; tracing the face orbits of the
induced dart permutation gives the Euler genus via V - E + F = 2 - 2g.
Planarity itself is delegated to networkx's linear-time test; the rotation
search and the minor finder below are independent code paths, so the three
agree-or-fail cross checks in the test suite are meaningful.

The rotation search stops at the first genus-one rotation once a Kuratowski
subgraph from networkx, read as K5 or K3,3 branch sets, has passed the same
branch-set validation as the minor finder.  The cross checks stay
independent: a genus-0 verdict is still a rotation found and traced by the
search, and a genus >= 1 verdict either comes from the exhaustive search or
rests on a validated minor, never on networkx's planarity bit alone.
"""

from __future__ import annotations

import itertools
from math import factorial

import networkx as nx

from .errors import BudgetExceededError
from .graphs import Graph, canonical_edge

DEFAULT_GENUS_BUDGET = 1_000_000
DEFAULT_MINOR_BUDGET = 2_000_000

RotationSystem = dict  # vertex -> tuple of neighbors in cyclic order


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def is_planar(g: Graph) -> bool:
    """Edge counts decide first: K3,3 has 9 edges, so fewer are planar, and a
    planar graph on n >= 3 vertices has at most 3n - 6 edges.  The rest go to
    networkx's planarity test."""
    m = len(g.edges)
    if m <= 8:
        return True
    if g.n >= 3 and m > 3 * g.n - 6:
        return False
    return nx.check_planarity(_to_nx(g), counterexample=False)[0]


def is_outerplanar(g: Graph) -> bool:
    """Outerplanar iff the graph plus a universal apex vertex is planar.

    Edge counts decide first: K4 and K2,3 have 6 edges, so fewer are
    outerplanar, and an outerplanar graph on n >= 2 vertices has at most
    2n - 3 edges.
    """
    m = len(g.edges)
    if m <= 5:
        return True
    if g.n >= 2 and m > 2 * g.n - 3:
        return False
    h = _to_nx(g)
    apex = g.n
    for v in range(g.n):
        h.add_edge(apex, v)
    return nx.check_planarity(h, counterexample=False)[0]


def planar_rotation(g: Graph) -> RotationSystem:
    """A rotation system realizing a planar embedding (graph must be planar)."""
    ok, emb = nx.check_planarity(_to_nx(g))
    if not ok:
        raise ValueError("graph is not planar")
    return {v: tuple(emb.neighbors_cw_order(v)) for v in range(g.n) if g.degree(v)}


def validate_rotation(g: Graph, rot: RotationSystem) -> None:
    support = {v for v in range(g.n) if g.degree(v) > 0}
    if set(rot) != support:
        raise ValueError("rotation system must cover exactly the non-isolated vertices")
    for v, ring in rot.items():
        if sorted(ring) != g.neighbors(v):
            raise ValueError(f"rotation at {v} is not a permutation of its neighbors")


def trace_faces(g: Graph, rot: RotationSystem) -> int:
    """Number of face orbits of the next-dart permutation."""
    validate_rotation(g, rot)
    index = {}
    for v, ring in rot.items():
        for i, u in enumerate(ring):
            index[(v, u)] = i
    faces = 0
    seen = set()
    for u in rot:
        for v in rot[u]:
            d0 = (u, v)
            if d0 in seen:
                continue
            faces += 1
            d = d0
            while d not in seen:
                seen.add(d)
                du, dv = d
                ring = rot[dv]
                d = (dv, ring[(index[(dv, du)] + 1) % len(ring)])
    return faces


def genus_of_rotation(g: Graph, rot: RotationSystem) -> int:
    """Euler genus of the embedding determined by rot; g must be connected."""
    if not g.is_connected():
        raise ValueError("face tracing needs a connected graph")
    V = g.n
    E = len(g.edges)
    F = trace_faces(g, rot)
    chi = V - E + F
    if chi % 2 != 0:
        raise AssertionError(f"odd Euler characteristic {chi} from V={V} E={E} F={F}")
    genus = (2 - chi) // 2
    if genus < 0:
        raise AssertionError(f"negative genus from V={V} E={E} F={F}")
    return genus


def _rotation_choices(g: Graph):
    """Per-vertex cyclic-order representatives.

    Cyclic rotations are quotiented by pinning the first neighbor; the global
    reflection symmetry is quotiented at the first vertex of degree >= 3.
    """
    choices = []
    reflection_done = False
    for v in range(g.n):
        ns = g.neighbors(v)
        if not ns:
            continue
        if len(ns) <= 2:
            choices.append((v, [tuple(ns)]))
            continue
        perms = [(ns[0],) + p for p in itertools.permutations(ns[1:])]
        if not reflection_done:
            perms = [p for p in perms if p[1] < p[-1]]
            reflection_done = True
        choices.append((v, perms))
    return choices


def rotation_search_space(g: Graph) -> int:
    total = 1
    for _, perms in _rotation_choices(g):
        total *= len(perms)
    return total


def min_genus(g: Graph, budget: int = DEFAULT_GENUS_BUDGET) -> int:
    """Exact minimum genus of a connected graph, by min_genus_rotation."""
    if not g.edges and g.is_connected():
        return 0
    return min_genus_rotation(g, budget=budget)[0]


def min_genus_rotation(g: Graph, budget: int = DEFAULT_GENUS_BUDGET):
    """(genus, rotation) pair attaining the minimum genus of a connected graph.

    Rotation systems are tried in a fixed order and the first one reaching
    the minimum is kept.  The search stops on genus 0, and on genus 1 once
    kuratowski_witness, looked up the first time genus 1 is reached, proves
    the graph non-planar; without a validated witness it stays exhaustive.
    Either way the pair is the one the exhaustive search returns.  Raises
    BudgetExceededError, before any search, when the quotiented search space
    is larger than budget.
    """
    if not g.is_connected():
        raise ValueError("min_genus needs a connected graph")
    choices = _rotation_choices(g)
    space = rotation_search_space(g)
    if space > budget:
        raise BudgetExceededError(f"rotation space {space} exceeds budget {budget}")
    verts = [v for v, _ in choices]
    best = None
    best_rot = None
    nonplanar = None
    for combo in itertools.product(*(perms for _, perms in choices)):
        rot = dict(zip(verts, combo))
        genus = genus_of_rotation(g, rot)
        if best is None or genus < best:
            best, best_rot = genus, rot
        if best == 1 and nonplanar is None:
            nonplanar = kuratowski_witness(g) is not None
        if best == 0 or (best == 1 and nonplanar):
            break
    return best, best_rot


# -- minor search -------------------------------------------------------------

K5 = Graph.complete(5)
K33 = Graph.complete_bipartite(3, 3)
K4 = Graph.complete(4)
K23 = Graph.complete_bipartite(2, 3)


def contains_subgraph(g_adj: dict, h: Graph):
    """Injective map of h's vertices into keys of g_adj preserving h's edges."""
    hverts = sorted(range(h.n), key=lambda v: -h.degree(v))
    gverts = list(g_adj)
    assignment: dict[int, object] = {}
    used: set = set()

    def backtrack(i):
        if i == len(hverts):
            return dict(assignment)
        v = hverts[i]
        need = [assignment[u] for u in h.neighbors(v) if u in assignment]
        for img in gverts:
            if img in used:
                continue
            if all(x in g_adj[img] for x in need):
                assignment[v] = img
                used.add(img)
            else:
                continue
            result = backtrack(i + 1)
            if result is not None:
                return result
            del assignment[v]
            used.discard(img)
        return None

    return backtrack(0)


def find_minor(g: Graph, target: Graph, budget: int = DEFAULT_MINOR_BUDGET):
    """Branch sets witnessing target as a minor of g, or None.

    Searches contraction sequences down to |V(target)| vertices, testing
    subgraph containment at every level; states are memoized on adjacency
    structure.  Found witnesses are re-validated before returning.
    """
    base_adj: dict[frozenset, set] = {frozenset([v]): set() for v in range(g.n)}
    key = {frozenset([v]): v for v in range(g.n)}
    for a, b in g.edges:
        base_adj[frozenset([a])].add(frozenset([b]))
        base_adj[frozenset([b])].add(frozenset([a]))

    seen = set()
    work = 0

    def canon(adj):
        return frozenset((bs, frozenset(ns)) for bs, ns in adj.items())

    def search(adj):
        nonlocal work
        work += 1
        if work > budget:
            raise BudgetExceededError("minor search budget exceeded")
        ck = canon(adj)
        if ck in seen:
            return None
        seen.add(ck)
        if len(adj) >= target.n:
            hit = contains_subgraph(adj, target)
            if hit is not None:
                return [set(hit[v]) for v in range(target.n)]
        if len(adj) <= target.n:
            return None
        branches = sorted(adj, key=sorted)
        for bs in branches:
            for nb in sorted(adj[bs], key=sorted):
                if sorted(nb) < sorted(bs):
                    continue
                merged = bs | nb
                new_adj = {}
                for x, ns in adj.items():
                    if x in (bs, nb):
                        continue
                    new_ns = set()
                    for y in ns:
                        new_ns.add(merged if y in (bs, nb) else y)
                    new_adj[x] = new_ns
                new_adj[merged] = {x for x in (adj[bs] | adj[nb]) if x not in (bs, nb)}
                result = search(new_adj)
                if result is not None:
                    return result
        return None

    witness = search(base_adj)
    if witness is None:
        return None
    _validate_branch_sets(g, target, witness)
    return witness


def _validate_branch_sets(g: Graph, target: Graph, sets) -> None:
    flat = [v for s in sets for v in s]
    if len(flat) != len(set(flat)):
        raise AssertionError("branch sets overlap")
    for s in sets:
        if not g.induced(s).is_connected():
            raise AssertionError(f"branch set {sorted(s)} is not connected")
    for a, b in target.edges:
        if not any(g.has_edge(u, w) for u in sets[a] for w in sets[b]):
            raise AssertionError(f"no edge between branch sets {a} and {b}")


def kuratowski_witness(g: Graph):
    """("k5"|"k33", branch sets) read off networkx's Kuratowski subgraph.

    None for a planar graph, and also when the branch sets fail
    _validate_branch_sets, so that a faulty witness can only make the genus
    search exhaustive, never end it early.
    """
    planar, sub = nx.check_planarity(_to_nx(g), counterexample=True)
    if planar:
        return None
    witness = _kuratowski_branch_sets(sub)
    if witness is None:
        return None
    kind, sets = witness
    try:
        _validate_branch_sets(g, K5 if kind == "k5" else K33, sets)
    except AssertionError:
        return None
    return witness


def _kuratowski_branch_sets(sub: nx.Graph):
    """Contract a subdivided K5 or K3,3 onto its branch vertices.

    The inner vertices of each subdivided path join the branch set of the end
    the walk started from; K3,3 sets are ordered side by side as in K33.
    """
    branch = sorted(v for v in sub if sub.degree(v) >= 3)
    if len(branch) not in (5, 6):
        return None
    owner = {b: b for b in branch}
    for b in branch:
        for nb in sub[b]:
            prev, cur = b, nb
            while cur not in owner:
                owner[cur] = b
                step = [x for x in sub[cur] if x != prev]
                if len(step) != 1:
                    return None
                prev, cur = cur, step[0]
    sets = {b: {v for v, o in owner.items() if o == b} for b in branch}
    if len(branch) == 5:
        return "k5", [sets[b] for b in branch]
    across = {owner[w] for v in sets[branch[0]] for w in sub[v]} - {branch[0]}
    side = [b for b in branch if b not in across]
    return "k33", [sets[b] for b in side + [b for b in branch if b not in side]]


def find_k33_or_k5_minor(g: Graph, budget: int = DEFAULT_MINOR_BUDGET):
    """Kuratowski-style witness: ("k5"|"k33", branch sets) or None."""
    w = find_minor(g, K5, budget=budget)
    if w is not None:
        return ("k5", w)
    w = find_minor(g, K33, budget=budget)
    if w is not None:
        return ("k33", w)
    return None


# -- JSON ----------------------------------------------------------------------

def rotation_to_json_obj(rot: RotationSystem) -> dict:
    return {str(v): list(ring) for v, ring in sorted(rot.items())}


def rotation_from_json_obj(obj: dict) -> RotationSystem:
    return {int(v): tuple(ring) for v, ring in obj.items()}
