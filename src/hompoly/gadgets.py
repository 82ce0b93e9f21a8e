"""Gadget graph constructors for the hardness pipelines.

Each Gadget bundles the support graph (edges that may carry weight), the
edges a pipeline enforces, the edges it explicitly zeroes out, and the total
edge budget the surviving subgraphs must meet, fixed by each constructor
(2n-3 for the star, 3m-1 for the apex gadget).  Role labels (center, apexes,
glue endpoints, buddies) live on the graph so transforms can relabel them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, all_edges, canonical_edge, hom_to_single_edge


@dataclass(frozen=True)
class Gadget:
    graph: Graph
    enforced: frozenset
    denied: frozenset = frozenset()
    budget: int = 0

    def __post_init__(self):
        if self.denied & self.graph.edges:
            raise ValueError("denied edges must be absent from the gadget graph")
        if not self.enforced <= self.graph.edges:
            raise ValueError("enforced edges must be present in the gadget graph")
        if self.budget < len(self.enforced):
            raise ValueError("budget below the enforced edge count")

    def free_edges(self) -> list:
        return sorted(self.graph.edges - self.enforced)

    def to_json_obj(self) -> dict:
        return {
            "graph": self.graph.to_json_obj(),
            "enforced": [list(e) for e in sorted(self.enforced)],
            "denied": [list(e) for e in sorted(self.denied)],
            "budget": self.budget,
        }


# -- outerplanar star ------------------------------------------------------------

def star_gadget(n: int) -> Gadget:
    """Complete graph on a center plus n-1 outer vertices.

    The center's star is enforced; surviving subgraphs must meet the total
    edge budget 2n-3 (star plus a spanning outer path).  Two designated
    outer vertices are the glue endpoints the pipeline later identifies.
    """
    if n < 5:
        raise ValueError("star gadget needs n >= 5")
    g = Graph.make(n, all_edges(n), labels={"center": 0, "glue-a": 1, "glue-b": 2})
    star = frozenset((0, i) for i in range(1, n))
    return Gadget(g, star, frozenset(), 2 * n - 3)


def buddy_transform(gadget: Gadget) -> Gadget:
    """Split every outer vertex into a (vertex, buddy) pair.

    The pair edges are enforced; buddy-center, buddy-buddy and original-
    original edges are zeroed, so the only free edges run between an original
    and a foreign buddy.  Every subgraph of the support is then bipartite,
    and contracting the pair edges recovers subgraphs of the input gadget.
    """
    center = gadget.graph.label("center")
    if center != 0:
        raise ValueError("expected the center at vertex 0")
    n = gadget.graph.n
    outer = list(range(1, n))
    k = len(outer)

    def buddy(v: int) -> int:
        return v + k

    support = []
    support += [(0, v) for v in outer]
    support += [(v, buddy(v)) for v in outer]
    support += [canonical_edge(v, buddy(w)) for v in outer for w in outer if v != w]
    denied = [(0, buddy(v)) for v in outer]
    denied += [canonical_edge(buddy(v), buddy(w))
               for v in outer for w in outer if v < w]
    denied += [(v, w) for v in outer for w in outer if v < w]
    labels = {"center": 0,
              "glue-a": gadget.graph.label("glue-a"),
              "glue-b": gadget.graph.label("glue-b")}
    for v in outer:
        labels[f"buddy-of-{v}"] = buddy(v)
    g = Graph.make(2 * k + 1, support, labels=labels)
    enforced = frozenset([(0, v) for v in outer] + [(v, buddy(v)) for v in outer])
    budget = len(enforced) + (k - 1)
    return Gadget(g, enforced, frozenset(denied), budget)


# -- planar gadget ----------------------------------------------------------------

def planar_gadget(m: int) -> Gadget:
    """Middle clique K_m plus two apexes adjacent to every middle vertex.

    All apex edges are enforced and the budget leaves room for m-1 middle
    edges, so the planar survivors are exactly the Hamiltonian paths on the
    middle vertices.  The designated end edges (0,1) and (m-2,m-1) and the
    glue pair 1, m-2 are marked for the cycle-recovery phase.
    """
    if m < 3:
        raise ValueError("planar gadget needs m >= 3")
    a, b = m, m + 1
    edges = all_edges(m) + [(v, a) for v in range(m)] + [(v, b) for v in range(m)]
    labels = {"apex-a": a, "apex-b": b,
              "end-left-outer": 0, "end-left-inner": 1,
              "end-right-inner": m - 2, "end-right-outer": m - 1,
              "glue-a": 1, "glue-b": m - 2}
    g = Graph.make(m + 2, edges, labels=labels)
    enforced = frozenset([canonical_edge(v, a) for v in range(m)] +
                         [canonical_edge(v, b) for v in range(m)])
    return Gadget(g, enforced, frozenset(), 2 * m + (m - 1))


def end_edges(gadget: Gadget) -> tuple:
    """The two designated end edges of a planar gadget."""
    g = gadget.graph
    return (canonical_edge(g.label("end-left-outer"), g.label("end-left-inner")),
            canonical_edge(g.label("end-right-inner"), g.label("end-right-outer")))


def subdivide_and_buddy_planar(gadget: Gadget) -> Gadget:
    """Bipartite variant of the planar gadget.

    Every middle vertex v gets a buddy u_v adjacent to both apexes, the apex
    edges (a,v) and (b,v) are subdivided, middle-middle and buddy-buddy edges
    are zeroed, and the free edges run from a middle vertex to a foreign
    buddy.  The result is 2-colorable, so each surviving subgraph maps
    homomorphically onto a single edge.
    """
    g = gadget.graph
    a, b = g.label("apex-a"), g.label("apex-b")
    m = g.n - 2
    mids = list(range(m))

    def buddy(v):
        return m + 2 + v

    def sub_a(v):
        return 2 * m + 2 + v

    def sub_b(v):
        return 3 * m + 2 + v

    support = []
    for v in mids:
        support += [(min(a, sub_a(v)), max(a, sub_a(v))), (v, sub_a(v)),
                    (min(b, sub_b(v)), max(b, sub_b(v))), (v, sub_b(v)),
                    (v, buddy(v)),
                    (min(a, buddy(v)), max(a, buddy(v))),
                    (min(b, buddy(v)), max(b, buddy(v)))]
    support += [canonical_edge(v, buddy(w)) for v in mids for w in mids if v != w]
    denied = [(v, w) for v in mids for w in mids if v < w]
    denied += [canonical_edge(buddy(v), buddy(w)) for v in mids for w in mids if v < w]
    labels = {"apex-a": a, "apex-b": b, "glue-a": g.label("glue-a"),
              "glue-b": g.label("glue-b")}
    for v in mids:
        labels[f"buddy-of-{v}"] = buddy(v)
        labels[f"sub-a-of-{v}"] = sub_a(v)
        labels[f"sub-b-of-{v}"] = sub_b(v)
    newg = Graph.make(4 * m + 2, support, labels=labels)
    free = frozenset(canonical_edge(v, buddy(w)) for v in mids for w in mids if v != w)
    enforced = newg.edges - free
    return Gadget(newg, enforced, frozenset(denied), len(enforced) + (m - 1))


# -- genus blocks -----------------------------------------------------------------

BLOCK_EDGES = ((0, 1), (1, 2), (2, 3), (0, 3),
               (4, 5), (5, 6), (6, 7), (4, 7),
               (0, 4), (1, 5), (2, 6), (3, 7),
               (0, 2), (1, 3))
BLOCK_DIAGONALS = ((0, 2), (1, 3))


def genus_block() -> Gadget:
    """The 8-vertex nonplanar block: two nested squares joined by spokes,
    with both diagonals of the inner square; 14 edges, minimum genus one."""
    g = Graph.make(8, BLOCK_EDGES, labels={"junction-in": 0, "junction-out": 7})
    edges = frozenset(BLOCK_EDGES)
    return Gadget(g, edges, frozenset(), len(edges))


def chain_layout(k: int, subdivide: bool = False):
    """Vertex layout shared by the chain constructors.

    Returns (edges, block_vmaps, midpoints, next_id) where block_vmaps[b]
    maps block-local vertices 0..7 to chain vertices (block b's vertex 0 is
    block b-1's vertex 7) and midpoints lists (block, local_edge, mid_vertex)
    for every subdivided diagonal.
    """
    if k < 1:
        raise ValueError("need at least one block")
    edges: list = []
    block_vmaps: list = []
    midpoints: list = []
    next_id = 8
    prev_out = None
    for b in range(k):
        if b == 0:
            vmap = {i: i for i in range(8)}
        else:
            vmap = {0: prev_out}
            for i in range(1, 8):
                vmap[i] = next_id
                next_id += 1
        block_vmaps.append(vmap)
        for (u, v) in BLOCK_EDGES:
            if subdivide and (u, v) in BLOCK_DIAGONALS:
                continue
            edges.append(canonical_edge(vmap[u], vmap[v]))
        if subdivide:
            for (u, v) in BLOCK_DIAGONALS:
                w = next_id
                next_id += 1
                midpoints.append((b, (u, v), w))
                edges.append(canonical_edge(vmap[u], w))
                edges.append(canonical_edge(w, vmap[v]))
        prev_out = vmap[7]
    return edges, block_vmaps, midpoints, next_id


def amalgam_chain(k: int, attach_planar: int | None = None,
                  subdivide: bool = False) -> Gadget:
    """k genus blocks amalgamated at single vertices, optionally ending in a
    planar gadget.

    Block i's vertex 7 is identified with block i+1's vertex 0, so the bare
    chain has 7k+1 vertices and 14k edges.  With subdivide=True each block's
    two diagonals are subdivided, which keeps every block's genus while
    making the chain bipartite.  With attach_planar=m, a planar gadget's
    outer end vertex is identified with the last block's vertex 7; the
    planar middle edges stay free while all block edges are enforced.
    """
    edges, block_vmaps, midpoints, next_id = chain_layout(k, subdivide)
    prev_out = block_vmaps[-1][7]
    labels: dict = {"chain-in": 0, "chain-out": prev_out}
    for b, (u, v), w in midpoints:
        labels[f"div-{b}-{u}-{v}"] = w
    enforced = list(edges)
    budget = len(enforced)
    if attach_planar is not None:
        m = attach_planar
        pg = planar_gadget(m)
        pmap = {}
        for v in range(pg.graph.n):
            if v == pg.graph.label("end-right-outer"):
                pmap[v] = prev_out
            else:
                pmap[v] = next_id
                next_id += 1
        for (u, v) in sorted(pg.graph.edges):
            edges.append(canonical_edge(pmap[u], pmap[v]))
        for (u, v) in pg.enforced:
            enforced.append(canonical_edge(pmap[u], pmap[v]))
        for role, v in pg.graph.labels:
            labels[f"planar-{role}"] = pmap[v]
        budget = len(enforced) + (m - 1)
    g = Graph.make(next_id, edges, labels=labels)
    return Gadget(g, frozenset(enforced), frozenset(), budget)


def fold_block_to_edge_certificate(gadget: Gadget) -> bool:
    """True iff the (subdivided) chain is bipartite, certifying that every
    subgraph folds onto a single edge."""
    return hom_to_single_edge(gadget.graph)
