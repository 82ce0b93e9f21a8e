"""Combinatorial embeddings: planarity, rotation systems, faces, genus, minors.

Only orientable embeddings are modeled.  A rotation system assigns each
vertex a cyclic order of its neighbors; tracing the face orbits of the
induced dart permutation gives the Euler genus via V - E + F = 2 - 2g.

Class membership is decided by exact certificates first.  is_outerplanar
never calls networkx: edge counts, then a peel of vertices of degree <= 2
(Mitchell 1979).  is_planar uses edge counts, deletes vertices of degree
<= 1 and reduces a graph with one or two dominating vertices to that peel or
to a path-and-cycle test (Chartrand and Harary 1967); only a graph none of
these decides goes to networkx's linear-time test.  networkx also supplies
planar_rotation's embedding and kuratowski_witness's subgraph.  The rotation
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

import networkx as nx

from .errors import BudgetExceededError
from .graphs import Graph

DEFAULT_GENUS_BUDGET = 1_000_000
DEFAULT_MINOR_BUDGET = 2_000_000

RotationSystem = dict  # vertex -> tuple of neighbors in cyclic order


def _to_nx(g: Graph) -> nx.Graph:
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def _adjacency_sets(g: Graph) -> list[set]:
    adj = [set() for _ in range(g.n)]
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _delete_vertex(adj: list[set], alive: set, v: int) -> set:
    """Remove v from the graph held by adj and alive; return its neighbors."""
    alive.discard(v)
    nbrs = adj[v]
    adj[v] = set()
    for u in nbrs:
        adj[u].discard(v)
    return nbrs


def _joined_without_edge(adj: list[set], u: int, w: int) -> bool:
    """Whether a u-w path avoids the edge uw, i.e. uw is not a bridge."""
    seen = {u}
    stack = [x for x in adj[u] if x != w]
    seen.update(stack)
    while stack:
        x = stack.pop()
        if w in adj[x]:
            return True
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return False


def _peel_outerplanar(adj: list[set], alive: set) -> bool:
    """Decide outerplanarity of the graph held by adj and alive (consumed).

    Peels vertices of degree <= 2; see is_outerplanar for the rules.
    """
    marked = set()  # edges that must lie on the outer face
    stack = [v for v in alive if len(adj[v]) <= 2]
    while stack:
        v = stack.pop()
        if v not in alive or len(adj[v]) > 2:
            continue
        nbrs = _delete_vertex(adj, alive, v)
        if len(nbrs) == 2:
            u, w = sorted(nbrs)
            if w not in adj[u]:
                adj[u].add(w)
                adj[w].add(u)
            elif (u, w) in marked and _joined_without_edge(adj, u, w):
                return False
            marked.add((u, w))
        stack.extend(u for u in nbrs if len(adj[u]) <= 2)
    return not alive


def _is_path_forest_or_cycle(adj: list[set], alive: set) -> bool:
    """Maximum degree <= 2, and either no cycle or a single spanning cycle."""
    if any(len(adj[v]) > 2 for v in alive):
        return False
    edges = sum(len(adj[v]) for v in alive) // 2
    components = 0
    seen: set = set()
    for s in alive:
        if s in seen:
            continue
        components += 1
        seen.add(s)
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return edges == len(alive) - components or (components == 1 and edges == len(alive))


def is_planar(g: Graph) -> bool:
    """Planarity, by exact certificates first and networkx for the rest.

    - Edge counts: a non-planar graph contains a subdivided K5 (10 edges) or
      K3,3 (9 edges) (Kuratowski 1930), so at most 8 edges is planar; Euler's
      formula bounds a planar graph on n >= 3 vertices by 3n - 6 edges.
    - Vertices of degree <= 1 are deleted: they can always be put back.
    - (P1) If c is adjacent to every other vertex, G is planar iff G - c is
      outerplanar (Chartrand and Harary 1967): an outerplanar drawing takes
      c in its outer face, and deleting c from a plane G leaves every vertex
      on the face c was in.  The peel of is_outerplanar decides G - c.
    - (P2) If a and b are non-adjacent and each is adjacent to every other
      vertex, G is planar iff H = G - a - b has maximum degree <= 2 and is a
      linear forest or a single cycle.  Such an H is drawn along a circle
      with a inside and b outside.  Conversely, a vertex x of H with three
      neighbors y1, y2, y3 gives a K3,3 on {x, a, b} and {y1, y2, y3}.  A
      cycle C of H has a and b on opposite sides: a and C form a wheel, and
      a vertex on a's side lies in one of its triangles, which meets only
      two vertices of C.  So any other vertex of H, being adjacent to both a
      and b, would have to cross C.

    Only a graph none of these decides goes to networkx's linear-time test.
    """
    m = len(g.edges)
    if m <= 8:
        return True
    if g.n >= 3 and m > 3 * g.n - 6:
        return False
    adj = _adjacency_sets(g)
    alive = set(range(g.n))
    stack = [v for v in alive if len(adj[v]) <= 1]
    while stack:
        v = stack.pop()
        if v in alive and len(adj[v]) <= 1:
            stack.extend(_delete_vertex(adj, alive, v))
    k = len(alive)
    dominating = [v for v in alive if len(adj[v]) == k - 1]
    if dominating:
        _delete_vertex(adj, alive, dominating[0])
        return _peel_outerplanar(adj, alive)
    # a vertex of degree k - 2 misses exactly one other vertex
    pairs = [(a, (alive - adj[a] - {a}).pop()) for a in alive if len(adj[a]) == k - 2]
    for a, b in pairs:
        if len(adj[b]) == k - 2:
            _delete_vertex(adj, alive, a)
            _delete_vertex(adj, alive, b)
            return _is_path_forest_or_cycle(adj, alive)
    return nx.check_planarity(_to_nx(g), counterexample=False)[0]


def is_outerplanar(g: Graph) -> bool:
    """Outerplanarity, decided exactly without networkx.

    Edge counts decide first: K4 and K2,3 have 6 edges, so fewer are
    outerplanar, and an outerplanar graph on n >= 2 vertices has at most
    2n - 3 edges.

    The rest is a peel of vertices of degree <= 2 (Mitchell 1979, "Linear
    algorithms to recognize outerplanar and maximal outerplanar graphs").
    It carries a set of marked edges that must lie on the outer face, and
    keeps the answer "G has an outerplanar drawing with every marked edge on
    the outer face", which for no marks is outerplanarity:
    - a vertex of degree <= 1 is deleted; it can be put back in the outer
      face;
    - a vertex v of degree 2 with neighbors u, w lies on the outer face, and
      so do both its edges.  It is deleted, and uw is added if absent and
      marked: the path u v w is drawn along uw, or, when uw is present, the
      triangle u v w is a face (no vertex can lie inside it), which merges
      with the outer face once v is gone;
    - if uw is present and already marked, the outer face must lie on both
      sides of uw once v is gone, so the answer is False unless uw is a
      bridge of G - v (an edge with one face on both sides is a bridge);
    - every outerplanar graph has a vertex of degree <= 2, so a non-empty
      graph without one is not outerplanar.
    Marking matters: suppressing the degree-2 vertices of K2,3 without it
    leaves the outerplanar diamond.
    """
    m = len(g.edges)
    if m <= 5:
        return True
    if g.n >= 2 and m > 2 * g.n - 3:
        return False
    return _peel_outerplanar(_adjacency_sets(g), set(range(g.n)))


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


def _require_one_edge_component(g: Graph, what: str) -> None:
    if sum(1 for comp in g.components() if len(comp) > 1) != 1:
        raise ValueError(f"{what} needs exactly one component with edges")


def genus_of_rotation(g: Graph, rot: RotationSystem) -> int:
    """Euler genus of the embedding determined by rot; exactly one component
    of g has edges.  Isolated vertices add nothing to the genus: V
    counts the rotation's vertices, which validate_rotation requires to be
    the non-isolated ones."""
    _require_one_edge_component(g, "face tracing")
    V = len(rot)
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
    """Exact minimum genus by min_genus_rotation; an edgeless graph on at
    most one vertex has genus 0."""
    if not g.edges and g.is_connected():
        return 0
    return min_genus_rotation(g, budget=budget)[0]


def min_genus_rotation(g: Graph, budget: int = DEFAULT_GENUS_BUDGET):
    """(genus, rotation) pair attaining the minimum genus of a graph with
    exactly one component with edges; isolated vertices add nothing to the
    genus and have no entry in the rotation.

    Rotation systems are tried in a fixed order and the first one reaching
    the minimum is kept.  The search stops on genus 0, and on genus 1 once
    kuratowski_witness, looked up the first time genus 1 is reached, proves
    the graph non-planar; without a validated witness it stays exhaustive.
    Either way the pair is the one the exhaustive search returns.  Raises
    BudgetExceededError, before any search, when the quotiented search space
    is larger than budget.
    """
    _require_one_edge_component(g, "min_genus")
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


# -- JSON ----------------------------------------------------------------------

def rotation_to_json_obj(rot: RotationSystem) -> dict:
    return {str(v): list(ring) for v, ring in sorted(rot.items())}


def rotation_from_json_obj(obj: dict) -> RotationSystem:
    return {int(v): tuple(ring) for v, ring in obj.items()}
