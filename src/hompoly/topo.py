"""Combinatorial embeddings: planarity, rotation systems, faces, genus, minors.

Only orientable embeddings are modeled.  A rotation system assigns each
vertex a cyclic order of its neighbors; tracing the face orbits of the
induced dart permutation gives the Euler genus via V - E + F = 2 - 2g.

Class membership is decided by exact certificates first.  is_outerplanar
uses edge counts, then a peel of vertices of degree <= 2 (Mitchell 1979).
is_planar uses edge counts, deletes vertices of degree <= 1 and reduces a
graph with one or two dominating vertices to that peel or to a
path-and-cycle test (Chartrand and Harary 1967); only a graph none of these
decides goes to the general test, planar_rotation.  That one embeds each
biconnected block (Hopcroft and Tarjan 1973) by path addition (Demoucron,
Malgrange and Pertuiset 1964) and traces the merged rotation, so every
planar verdict it gives is a checked plane embedding.  kuratowski_witness
deletes edges while the rest stays non-planar, down to a subdivided K5 or
K3,3, and reads its branch sets off; it tests no planarity of the whole
graph, as on planar input the branch-set check rejects whatever is read.
The certificates, the peels (which delete vertices inline and keep
outer-face marks as a mask per vertex), the embedder, the Kuratowski reader
and the branch-set check work on neighbour masks, with graphs.reach for
connectivity and _path for shortest paths; only the rotation search and the
minor finder read adjacency tuples.

The rotation search and the minor finder are independent code paths, so
the three agree-or-fail cross checks in the test suite are meaningful.
min_genus_rotation first looks for a Kuratowski subgraph, read as K5 or
K3,3 branch sets that pass the same validation as the minor finder's.  With
one, genus 1 is certified without a search when some G - e is planar: e put
back into a plane rotation of G - e traces to genus at most 1 (Mohar and
Thomassen 2001), and the witness rules out 0.  Otherwise the search stops at
the first genus-one rotation when the witness exists and runs exhaustively
when it does not.  So a genus-0 verdict is a rotation found and traced by
the search, and a genus >= 1 verdict comes from the exhaustive search or
rests on a validated minor, never on a planarity bit alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import BudgetExceededError, count_bound, count_text
from .graphs import Graph, bits, core, reach

DEFAULT_GENUS_BUDGET = 1_000_000
MINOR_BUDGET = 2_000_000

RotationSystem = dict  # vertex -> tuple of neighbors in cyclic order


def _joined_without_edge(nbrs: list, u: int, w: int) -> bool:
    """Whether a u-w path avoids the edge uw, i.e. uw is not a bridge."""
    cut = list(nbrs)
    cut[u] ^= 1 << w
    cut[w] ^= 1 << u
    return bool(reach(cut, u) >> w & 1)


def _peel_outerplanar(nbrs: list) -> bool:
    """Decide outerplanarity of the graph with neighbour masks nbrs (consumed).

    Peels vertices of degree <= 2; see is_outerplanar for the rules.  Every
    vertex whose degree drops to 2 or less is peeled in turn, so the graph
    is gone, and outerplanar, exactly when no edge is left.  A vertex is
    deleted inline: its neighbours u <= w are its mask's low and high bits.
    """
    marked = [0] * len(nbrs)  # bit w of marked[u], u < w: uw is on the outer face
    stack = [v for v, ns in enumerate(nbrs) if ns.bit_count() <= 2]
    while stack:
        v = stack.pop()
        ns = nbrs[v]
        if not 0 < ns.bit_count() <= 2:
            continue
        nbrs[v] = 0
        u, w = (ns & -ns).bit_length() - 1, ns.bit_length() - 1
        nbrs[u] ^= 1 << v
        if u == w:
            stack.append(u)
            continue
        nbrs[w] ^= 1 << v
        stack += u, w
        if not nbrs[u] >> w & 1:
            nbrs[u] |= 1 << w
            nbrs[w] |= 1 << u
        elif marked[u] >> w & 1 and _joined_without_edge(nbrs, u, w):
            return False
        marked[u] |= 1 << w
    return not any(nbrs)


def _is_path_forest_or_cycle(nbrs: list, alive: int) -> bool:
    """Whether the graph that the masks nbrs induce on the vertices in the
    mask alive has maximum degree <= 2 and either no cycle or a single
    spanning cycle."""
    h = [ns & alive if alive >> v & 1 else 0 for v, ns in enumerate(nbrs)]
    if any(ns.bit_count() > 2 for ns in h):
        return False
    edges = sum(ns.bit_count() for ns in h) // 2
    components, left = 0, alive
    while left:
        left &= ~reach(h, (left & -left).bit_length() - 1)
        components += 1
    k = alive.bit_count()
    return edges == k - components or (components == 1 and edges == k)


def is_planar(g: Graph) -> bool:
    """Planarity, by exact certificates first and planar_rotation for the
    rest.

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

    Only a graph none of these decides goes to the general test: planar
    exactly when planar_rotation finds a plane embedding of g.
    """
    m = len(g.edges)
    if m <= 8:
        return True
    if g.n >= 3 and m > 3 * g.n - 6:
        return False
    nbrs = core(g.nbrs, 1)
    # what is left has minimum degree 2, so alive is every vertex with an
    # edge, and a deleted vertex's degree 0 is neither k - 1 nor k - 2
    alive = functools.reduce(operator.or_, nbrs, 0)
    if not alive:
        return True  # a forest: the peel deleted every vertex
    k = alive.bit_count()
    degree = list(map(int.bit_count, nbrs))
    if k - 1 in degree:
        c = 1 << degree.index(k - 1)  # adjacent to every other vertex left
        return _peel_outerplanar([ns ^ c if ns & c else 0 for ns in nbrs])
    for a, d in enumerate(degree):
        if d == k - 2:
            b = (alive & ~nbrs[a] & ~(1 << a)).bit_length() - 1  # the one a misses
            if degree[b] == k - 2:
                return _is_path_forest_or_cycle(nbrs, alive & ~(1 << a | 1 << b))
    return planar_rotation(g) is not None


def is_outerplanar(g: Graph) -> bool:
    """Outerplanarity, decided exactly by certificates.

    Edge counts decide first: K4 and K2,3 have 6 edges, so fewer are
    outerplanar, and an outerplanar graph on n >= 2 vertices has at most
    2n - 3 edges.

    The rest is a peel of vertices of degree <= 2 (Mitchell 1979, "Linear
    algorithms to recognize outerplanar and maximal outerplanar graphs").
    It deletes each vertex inline from the neighbour masks, marks edges that
    must lie on the outer face in one mask per vertex, and keeps the answer
    "G has an outerplanar drawing with every marked edge on the outer face",
    which for no marks is outerplanarity:
    - a vertex of degree <= 1 is deleted: it goes back in the outer face;
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
    return _peel_outerplanar(list(g.nbrs))


# -- planar embedding ---------------------------------------------------------

def _blocks(nbrs) -> list[list[tuple]]:
    """Edge lists of the biconnected components (Hopcroft and Tarjan 1973)
    of the graph with neighbour masks nbrs.

    An iterative depth-first search keeps the tree and back edges on a
    stack; when a child's low point does not reach above its parent, the
    edges from the tree edge parent-child up are one block.
    """
    disc = [0] * len(nbrs)  # discovery time, 0 while unvisited
    low = [0] * len(nbrs)
    blocks = []
    time = 0
    for root, root_ns in enumerate(nbrs):
        if disc[root] or not root_ns:
            continue
        time += 1
        disc[root] = low[root] = time
        walk = [(root, -1, iter(bits(root_ns)))]
        edges = []
        while walk:
            v, parent, it = walk[-1]
            for w in it:
                if not disc[w]:
                    edges.append((v, w))
                    time += 1
                    disc[w] = low[w] = time
                    walk.append((w, v, iter(bits(nbrs[w]))))
                    break
                if w != parent and disc[w] < disc[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                walk.pop()
                if walk:
                    u = walk[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] >= disc[u]:
                        block = [edges.pop()]
                        while block[-1] != (u, v):
                            block.append(edges.pop())
                        blocks.append(block)
    return blocks


def _path(nbrs, first: int, through: int, goal: int) -> list | None:
    """A shortest path first, ..., x with at least one edge, ending at a
    vertex x of the mask goal, with every other vertex in the mask through
    (first included), or None.  The breadth-first search keeps one mask per
    distance from first and walks the path back through them."""
    seen = 1 << first
    layers = [seen]
    while True:
        ahead = 0
        for v in bits(layers[-1]):
            ahead |= nbrs[v]
        hit = ahead & goal
        if hit:
            break
        ahead &= through & ~seen
        if not ahead:
            return None
        seen |= ahead
        layers.append(ahead)
    path = [(hit & -hit).bit_length() - 1]
    for layer in reversed(layers):
        back = nbrs[path[-1]] & layer
        path.append((back & -back).bit_length() - 1)
    return path[::-1]


def _embed_block(nbrs: list) -> list | None:
    """Faces of a plane embedding of a biconnected block that has a cycle,
    or None if the block is not planar; nbrs[v] is the mask of v's
    neighbours in the block, 0 off it.

    Path addition (Demoucron, Malgrange and Pertuiset 1964): a cycle is
    drawn first, as two faces.  While edges are left, each fragment (an
    undrawn chord between drawn vertices, or a graphs.reach component of the
    undrawn vertices with its attachments) is matched with the faces that
    hold all of its attachments; none proves the block non-planar.  A
    fragment with the fewest such faces has a _path between two attachments
    drawn across the first of them, splitting it in two; DMP showed this
    never blocks the embedding of a planar block.  The drawn vertices, the
    undrawn edges and the faces' vertex sets are masks.  Each face is a list
    of vertices, oriented so that every edge is walked once each way.
    """
    block = functools.reduce(operator.or_, nbrs)
    left = sum(map(int.bit_count, nbrs)) // 2
    if left > 3 * block.bit_count() - 6:  # Euler's bound, as in is_planar
        return None
    s = (block & -block).bit_length() - 1
    t = (nbrs[s] & -nbrs[s]).bit_length() - 1
    # a path from t to another neighbour of s that avoids s closes a cycle
    cycle = _path(nbrs, t, block & ~(1 << s), nbrs[s] & ~(1 << t)) + [s]
    faces = [cycle, cycle[::-1]]
    placed = sum(1 << v for v in cycle)
    held = [placed, placed]  # the vertex mask of each face
    rest = list(nbrs)  # the undrawn edges
    path = cycle + cycle[:1]
    while True:
        for u, w in zip(path, path[1:]):
            rest[u] &= ~(1 << w)
            rest[w] &= ~(1 << u)
        left -= len(path) - 1
        if not left:
            return faces
        fragments = [(1 << v | 1 << w, 0) for v, ns in enumerate(rest)
                     if ns & placed and placed >> v & 1 for w in bits(ns & placed) if v < w]
        free = block & ~placed
        if free:
            inside = [ns & free for ns in nbrs]  # the edges between undrawn vertices
        while free:
            inner = reach(inside, (free & -free).bit_length() - 1)
            free &= ~inner
            att = 0
            for x in bits(inner):
                att |= nbrs[x]
            fragments.append((att & placed, inner))
        best = None
        for att, inner in fragments:
            fits = [k for k, vs in enumerate(held) if not att & ~vs]
            if not fits:
                return None
            if best is None or len(fits) < len(best[2]):
                best = att, inner, fits
                if len(fits) == 1:
                    break
        att, inner, fits = best
        path = bits(att)
        if inner:  # from the lowest attachment through the fragment
            start = nbrs[path[0]] & inner
            path[1:] = _path(nbrs, (start & -start).bit_length() - 1, inner,
                             placed & ~(1 << path[0]))
        k = fits[0]
        f = faces[k]
        i, j = f.index(path[0]), f.index(path[-1])
        middle = path[1:-1]
        if i < j:
            one, other = f[i:j + 1], f[j:] + f[:i + 1]
        else:
            one, other = f[i:] + f[:j + 1], f[j:i + 1]
        faces[k] = one + middle[::-1]
        faces.append(other + middle)
        held[k] = sum(1 << v for v in faces[k])
        held.append(sum(1 << v for v in faces[-1]))
        placed |= held[-1]  # adds the path's inner vertices


def planar_rotation(g: Graph) -> RotationSystem | None:
    """A rotation system of a plane embedding of g, or None if g is not
    planar.

    Each block (see _blocks) gets its own neighbour-mask list and, with two
    or more edges, is embedded by _embed_block.  A vertex's ring in the
    block is read off the oriented faces from its lowest neighbour on: a
    face walked a, v, b puts b right after a.  At a cut vertex the block
    rings are concatenated, which places each block in a face of the others
    and adds their genera, so the result is plane on every component.
    Isolated vertices get no entry.  The rotation is traced before it is
    returned: each component with edges must have Euler characteristic 2,
    so every planar verdict is certified.
    """
    rings: dict = {}
    for block in _blocks(g.nbrs):
        nbrs = [0] * g.n
        for u, w in block:
            nbrs[u] |= 1 << w
            nbrs[w] |= 1 << u
        # a bridge is one face, walked once each way
        faces = _embed_block(nbrs) if len(block) > 1 else block
        if faces is None:
            return None
        after: dict = {}  # (v, a) -> the neighbour after a in v's ring
        for f in faces:
            a, v = f[-2], f[-1]
            for b in f:
                after[v, a] = b
                a, v = v, b
        for v in bits(functools.reduce(operator.or_, nbrs)):
            ring = rings.setdefault(v, [])
            x = (nbrs[v] & -nbrs[v]).bit_length() - 1
            for _ in range(nbrs[v].bit_count()):
                ring.append(x)
                x = after[v, x]
    rot = {v: tuple(ring) for v, ring in sorted(rings.items())}
    edged = sum(1 for comp in g.components if len(comp) > 1)
    chi = len(rot) - len(g.edges) + trace_faces(g, rot)
    if chi != 2 * edged:
        raise AssertionError(f"embedding has Euler characteristic {chi} "
                             f"on {edged} components with edges")
    return rot


def validate_rotation(g: Graph, rot: RotationSystem) -> None:
    adj = g.adjacency
    if set(rot) != {v for v, ns in enumerate(adj) if ns}:
        raise ValueError("rotation system must cover exactly the non-isolated vertices")
    for v, ring in rot.items():
        if tuple(sorted(ring)) != adj[v]:
            raise ValueError(f"rotation at {v} is not a permutation of its neighbors")


def trace_faces(g: Graph, rot: RotationSystem) -> int:
    """Number of face orbits of the next-dart permutation: the dart a->v is
    followed by v->after[v, a], and each orbit's darts are popped once."""
    validate_rotation(g, rot)
    after = {(v, a): b for v, ring in rot.items()
             for a, b in zip(ring, ring[1:] + ring[:1])}
    faces = 0
    while after:
        (v, a), b = after.popitem()
        while (b, v) in after:
            v, b = b, after.pop((b, v))
        faces += 1
    return faces


def _require_one_edge_component(g: Graph, what: str) -> None:
    if sum(1 for comp in g.components if len(comp) > 1) != 1:
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
    """Per-vertex cyclic orders, pinned at the first neighbor, which leaves
    one order below degree 3; the global reflection symmetry is quotiented
    at the first vertex of degree >= 3.
    """
    choices = []
    reflection_done = False
    for v, ns in enumerate(g.adjacency):
        if not ns:
            continue
        perms = [(ns[0],) + p for p in itertools.permutations(ns[1:])]
        if not reflection_done and len(ns) >= 3:
            perms = [p for p in perms if p[1] < p[-1]]
            reflection_done = True
        choices.append((v, perms))
    return choices


def rotation_search_space(g: Graph, cap: int | None = None) -> int:
    """The number of rotation systems _rotation_choices gives, in closed
    form from the degrees: (d-1)! cyclic orders at each vertex of degree
    d >= 3, halved once for the reflection.  With a cap, the product stops
    as soon as the count is known to pass cap, and a result above cap is
    only a lower bound."""
    space = 1
    for ns in g.adjacency:
        space *= math.factorial(max(len(ns) - 1, 0))
        if cap is not None and space > 2 * cap:
            break
    # the product is even once a vertex of degree >= 3 is in it, else 1
    return max(space // 2, 1)


def min_genus(g: Graph) -> int:
    """Exact minimum genus by min_genus_rotation; an edgeless graph on at
    most one vertex has genus 0."""
    if not g.edges and g.is_connected():
        return 0
    return min_genus_rotation(g)[0]


def min_genus_rotation(g: Graph, budget: int = DEFAULT_GENUS_BUDGET):
    """(genus, rotation) pair attaining the minimum genus of a graph with
    exactly one component with edges; isolated vertices add nothing to the
    genus and have no entry in the rotation.

    Raises BudgetExceededError, before anything else, when the quotiented
    rotation search space is larger than budget.  A graph with a validated
    kuratowski_witness (genus >= 1) that one edge deletion makes planar gets
    genus 1 from that deletion's certificate (_one_edge_rotation), with no
    search.  Any other graph gets the first rotation of least genus in a
    fixed search order: the search stops on genus 0, and on genus 1 when the
    witness exists; without one it stays exhaustive.
    """
    return _min_genus_witnessed(g, budget)[:2]


def _min_genus_witnessed(g: Graph, budget: int = DEFAULT_GENUS_BUDGET):
    """min_genus_rotation's pair and the kuratowski_witness (or None) it
    rests on, from one Kuratowski search."""
    _require_one_edge_component(g, "min_genus")
    space = rotation_search_space(g, count_bound(budget))
    if space > budget:
        raise BudgetExceededError(
            f"rotation space {count_text(space, budget)} exceeds budget {budget}")
    witness = kuratowski_witness(g)
    rot = _one_edge_rotation(g) if witness is not None else None
    if rot is not None:
        return 1, rot, witness
    choices = _rotation_choices(g)
    verts = [v for v, _ in choices]
    best = None
    best_rot = None
    for combo in itertools.product(*(perms for _, perms in choices)):
        rot = dict(zip(verts, combo))
        genus = genus_of_rotation(g, rot)
        if best is None or genus < best:
            best, best_rot = genus, rot
        if best == 0 or (best == 1 and witness is not None):
            break
    return best, best_rot, witness


def _one_edge_rotation(g: Graph) -> RotationSystem | None:
    """A traced genus-1 rotation of the non-planar graph g, or None: the
    plane rotation of the first G - e, for e in canonical order, that is
    planar, with e put back at the end of both its end vertices' rings.

    Putting one edge into an embedding splits a face or joins two, so the
    Euler characteristic drops by 0 or 2 and the genus rises by at most 1
    (Mohar and Thomassen, Graphs on Surfaces, 2001); as g is not planar,
    any other traced genus is a fault and raises AssertionError.  Both ends
    of e keep a ring in G - e: e lies in every non-planar block of g, and a
    block with a cycle has minimum degree 2.
    """
    for u, w in sorted(g.edges):
        rot = planar_rotation(Graph(g.n, g.edges - {(u, w)}))
        if rot is not None:
            rot[u] += (w,)
            rot[w] += (u,)
            genus = genus_of_rotation(g, rot)
            if genus != 1:
                raise AssertionError(f"one-edge insertion gave genus {genus}, not 1")
            return rot
    return None


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
        need = [assignment[u] for u in h.adjacency[v] if u in assignment]
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


def find_minor(g: Graph, target: Graph):
    """Branch sets witnessing target as a minor of g, or None.

    Searches contraction sequences down to |V(target)| vertices, testing
    subgraph containment at every level; states are memoized on adjacency
    structure.  Found witnesses are re-validated before returning.  Raises
    BudgetExceededError past MINOR_BUDGET search states.
    """
    base_adj = {frozenset([v]): {frozenset([w]) for w in ns}
                for v, ns in enumerate(g.adjacency)}

    seen, work, budget = set(), 0, MINOR_BUDGET

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
    masks = [sum(1 << v for v in s) for s in sets]
    for s, mask in zip(sets, masks):
        if mask and reach([ns & mask for ns in g.nbrs], min(s)) != mask:
            raise AssertionError(f"branch set {sorted(s)} is not connected")
    for a, b in target.edges:
        if not any(g.nbrs[u] & masks[b] for u in sets[a]):
            raise AssertionError(f"no edge between branch sets {a} and {b}")


def kuratowski_witness(g: Graph):
    """("k5"|"k33", branch sets) of a Kuratowski subgraph of g, or None.

    The edges of g are deleted one at a time, in canonical order, and a
    deletion is kept only if the rest stays non-planar (is_planar).  For a
    non-planar g what is left is edge-minimal non-planar, so by Kuratowski's
    theorem a subdivided K5 or K3,3, whose branch sets
    _kuratowski_branch_sets reads off.  None when they fail
    _validate_branch_sets, so that a faulty witness can only make the genus
    search exhaustive, never end it early.  A planar g gets None the same
    way, with no planarity test of g itself: every deletion is put back, and
    sets that pass the validation are a K5 or K3,3 minor, which no planar
    graph has.
    """
    keep = set(g.edges)
    for e in sorted(g.edges):
        keep.discard(e)
        if is_planar(Graph(g.n, frozenset(keep))):
            keep.add(e)
    witness = _kuratowski_branch_sets(Graph(g.n, frozenset(keep)).nbrs)
    if witness is None:
        return None
    kind, sets = witness
    try:
        _validate_branch_sets(g, K5 if kind == "k5" else K33, sets)
    except AssertionError:
        return None
    return witness


def _kuratowski_branch_sets(nbrs):
    """Contract a subdivided K5 or K3,3, given by the neighbour masks of its
    vertices, onto its branch vertices.

    The inner vertices of each subdivided path join the branch set of the end
    the walk started from; K3,3 sets are ordered side by side as in K33.
    """
    branch = [v for v, ns in enumerate(nbrs) if ns.bit_count() >= 3]
    if len(branch) not in (5, 6):
        return None
    owner = {b: b for b in branch}
    for b in branch:
        for nb in bits(nbrs[b]):
            prev, cur = b, nb
            while cur not in owner:
                owner[cur] = b
                step = nbrs[cur] & ~(1 << prev)
                if step.bit_count() != 1:
                    return None
                prev, cur = cur, step.bit_length() - 1
    sets = {b: {v for v, o in owner.items() if o == b} for b in branch}
    if len(branch) == 5:
        return "k5", [sets[b] for b in branch]
    across = {owner[w] for v in sets[branch[0]] for w in bits(nbrs[v])} - {branch[0]}
    side = [b for b in branch if b not in across]
    return "k33", [sets[b] for b in side + [b for b in branch if b not in side]]


# -- JSON ----------------------------------------------------------------------

def rotation_to_json_obj(rot: RotationSystem) -> dict:
    return {str(v): list(ring) for v, ring in sorted(rot.items())}
