"""Undirected labeled graphs, class recognizers, homomorphism search, enumeration.

Vertices are 0..n-1.  Edges are canonical pairs (i, j) with i < j; self-loops
live in a separate vertex set (loops are legal in homomorphism targets H but
never selected by class enumerations).  Labels attach role names to vertices
for gadget bookkeeping.  A Graph's neighbour masks (nbrs: bit w of nbrs[v]
is the edge vw), its adjacency tuples read off them and its components are
computed once, on first use, and shared by every reader, so all are
immutable.  Class checks and the homomorphism search read only the masks;
reach is the one traversal over them.

Class enumeration keeps each edge subset as an int bitmask over the host's
edges in canonical order (class_edge_masks); mask_edges decodes one.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceededError, count_bound, count_text

HOM_BUDGET = 2_000_000  # search nodes of one is_homomorphic call
SUBSET_FILTER_MAX_EDGES = 21  # K7; class_edge_masks filters 2^edges subsets
SHAPE_MAX_MASKS = 1_000_000  # K8's 441,204 trees fit; K9's 7,874,235 do not
GRAPH_FILE_MAX_VERTICES = 10_000  # n of a graph read by Graph.from_json_obj

Edge = tuple


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError("self-loops are not edges; use the loops set")
    return (u, v) if u < v else (v, u)


def all_edges(n: int) -> list[Edge]:
    """Edges of K_n in canonical (lexicographic) order."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset = frozenset()
    loops: frozenset = frozenset()
    labels: tuple = ()

    @classmethod
    def make(cls, n, edges=(), loops=(), labels=None) -> "Graph":
        if n < 0:
            raise ValueError(f"vertex count {n} is negative")
        es = frozenset(canonical_edge(u, v) for u, v in edges)
        ls = frozenset(loops)
        for u, v in es:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        # sorted pairs, not a dict, so that a repeated role is caught below
        pairs = labels.items() if isinstance(labels, dict) else labels or ()
        lab = tuple(sorted(pairs))
        for what, v in [("loop", v) for v in ls] + [(f"label {r!r}", v) for r, v in lab]:
            if not 0 <= v < n:
                raise ValueError(f"{what} at {v} out of range for n={n}")
        roles = [r for r, _ in lab]
        if len(set(roles)) != len(roles):
            raise ValueError("duplicate role labels")
        return cls(n, es, ls, lab)

    @classmethod
    def with_nbrs(cls, n: int, edges: frozenset, nbrs) -> "Graph":
        """Graph(n, edges) holding nbrs as its masks; the caller vouches that
        edges are canonical and that nbrs are the masks Graph.nbrs builds."""
        g = cls(n, edges)
        g.__dict__["nbrs"] = nbrs
        return g

    # -- stock graphs ----------------------------------------------------

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.make(n)

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.make(n, all_edges(n))

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return cls.make(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls.make(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def complete_bipartite(cls, a: int, b: int) -> "Graph":
        return cls.make(a + b, [(i, a + j) for i in range(a) for j in range(b)])

    @classmethod
    def single_edge(cls) -> "Graph":
        return cls.make(2, [(0, 1)])

    @classmethod
    def looped_vertex(cls) -> "Graph":
        return cls.make(1, loops=[0])

    # -- basics -----------------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return canonical_edge(u, v) in self.edges

    @functools.cached_property
    def nbrs(self) -> tuple:
        """One int mask of neighbours per vertex: bit w of nbrs[v] is the edge vw."""
        masks = [0] * self.n
        for a, b in self.edges:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        return tuple(masks)

    @functools.cached_property
    def adjacency(self) -> tuple:
        """One ascending tuple of neighbours per vertex."""
        return tuple(map(tuple, map(bits, self.nbrs)))

    def degree(self, v: int) -> int:
        return self.nbrs[v].bit_count()

    def label(self, role: str) -> int:
        for r, v in self.labels:
            if r == role:
                return v
        raise KeyError(role)

    @functools.cached_property
    def components(self) -> tuple:
        """The vertex sets of the connected components, by least vertex."""
        comps, left = [], (1 << self.n) - 1
        while left:
            comp = reach(self.nbrs, (left & -left).bit_length() - 1)
            comps.append(frozenset(bits(comp)))
            left &= ~comp
        return tuple(comps)

    def is_connected(self) -> bool:
        return len(self.components) <= 1

    # -- JSON ---------------------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "edges": [list(e) for e in sorted(self.edges)],
            "loops": sorted(self.loops),
            "labels": {r: v for r, v in self.labels},
        }

    @classmethod
    def from_json_obj(cls, obj) -> "Graph":
        """The graph of a to_json_obj object; malformed input raises ValueError,
        and n past GRAPH_FILE_MAX_VERTICES BudgetExceededError."""
        if not isinstance(obj, dict):
            raise ValueError(f"graph JSON must be an object, not {type(obj).__name__}")
        n, edges = obj.get("n"), obj.get("edges", [])
        loops, labels = obj.get("loops", []), obj.get("labels", {})
        if not (_ints([n]) and _ints(loops) and isinstance(edges, list)
                and all(_ints(e) and len(e) == 2 for e in edges)
                and isinstance(labels, dict) and _ints(list(labels.values()))
                and all(isinstance(r, str) for r in labels)):
            raise ValueError("graph JSON needs an integer n, integer pairs as edges, "
                             "integer loops and labels mapping roles to integers")
        if n > GRAPH_FILE_MAX_VERTICES:
            raise BudgetExceededError(
                f"{count_text(n, GRAPH_FILE_MAX_VERTICES)} vertices exceed the graph "
                f"file limit {GRAPH_FILE_MAX_VERTICES}")
        return cls.make(n, [tuple(e) for e in edges], loops, labels)


def _ints(xs) -> bool:
    return isinstance(xs, list) and all(type(x) is int for x in xs)  # no bools


def bits(mask: int) -> list[int]:
    """The positions of mask's set bits, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def reach(nbrs, seed: int) -> int:
    """The mask of the vertices joined to seed by paths; nbrs[v] is the mask
    of v's neighbours."""
    seen, todo = 0, 1 << seed
    while todo:
        low = todo & -todo
        seen |= low
        todo = (todo | nbrs[low.bit_length() - 1]) & ~seen
    return seen


# -- graph classes ----------------------------------------------------------

@dataclass(frozen=True)
class GraphClass:
    """A one-nontrivial-component graph property.

    A graph satisfies the class when exactly one connected component has the
    stated shape and every other component is a single vertex.
    """
    kind: str
    genus: int | None = None

    def __str__(self) -> str:
        if self.kind == "genus":
            return f"genus({self.genus})"
        return self.kind


CYCLE = GraphClass("cycle")
CLIQUE = GraphClass("clique")
TREE = GraphClass("tree")
OUTERPLANAR = GraphClass("outerplanar")
PLANAR = GraphClass("planar")

# Kinds whose members with equal edge counts are homomorphically equivalent
# (see class_edge_masks).
SHAPE_KINDS = ("cycle", "clique", "tree")


def genus_class(k: int) -> GraphClass:
    if k < 0:
        raise ValueError("genus must be nonnegative")
    return GraphClass("genus", k)


def parse_class(name: str, k: int | None = None) -> GraphClass:
    name = name.lower()
    if name in SHAPE_KINDS + ("outerplanar", "planar"):
        if k is not None:
            raise ValueError(f"class {name!r} takes no genus k")
        return GraphClass(name)
    if name == "genus":
        if k is None:
            raise ValueError("genus class needs k")
        return genus_class(k)
    raise ValueError(f"unknown graph class {name!r}")


def recognize(g: Graph, cls: GraphClass) -> bool:
    """Exactly one component has the class shape; the rest are single vertices.
    g is checked in place: isolated vertices change no verdict of topo's.
    A genus class past topo.DEFAULT_GENUS_BUDGET raises BudgetExceededError."""
    if g.loops:
        return False
    nbrs = g.nbrs
    edged = functools.reduce(operator.or_, nbrs, 0)  # the vertices with an edge
    if not edged or reach(nbrs, (edged & -edged).bit_length() - 1) != edged:
        return False
    v, m = edged.bit_count(), len(g.edges)
    if cls.kind == "cycle":
        return m == v and all(ns.bit_count() in (0, 2) for ns in nbrs)
    if cls.kind == "clique":
        return m == v * (v - 1) // 2
    if cls.kind == "tree":
        return m == v - 1
    if cls.kind == "outerplanar":
        return topo.is_outerplanar(g)
    if cls.kind == "planar" or cls.kind == "genus" and cls.genus == 0:
        return topo.is_planar(g)
    if cls.kind == "genus":
        return not topo.is_planar(g) and topo.min_genus(g) == cls.genus
    raise ValueError(f"unknown class kind {cls.kind}")


# -- homomorphism search ------------------------------------------------------

def _two_colourable(nbrs) -> bool:
    """Whether the loopless graph with neighbour masks nbrs is bipartite:
    a search from each uncoloured vertex gives every neighbour of a vertex
    the other colour, and fails on a neighbour that has its colour."""
    colour = [0, 0]  # the masks of the vertices coloured 0 and 1
    for s in range(len(nbrs)):
        if (colour[0] | colour[1]) >> s & 1:
            continue
        colour[0] |= 1 << s
        todo = 1 << s
        while todo:
            low = todo & -todo
            todo ^= low
            c = 0 if colour[0] & low else 1
            ns = nbrs[low.bit_length() - 1]
            if ns & colour[c]:
                return False
            new = ns & ~colour[1 - c]
            colour[1 - c] |= new
            todo |= new
    return True


def core(nbrs, d: int) -> list:
    """A copy of the masks nbrs after deleting, one at a time, every vertex
    with 0 < degree <= d: each vertex left has no edge or more than d."""
    nbrs = list(nbrs)
    stack = [v for v, ns in enumerate(nbrs) if 0 < ns.bit_count() <= d]
    while stack:
        v = stack.pop()
        for u in bits(nbrs[v]):
            nbrs[u] ^= 1 << v
            if nbrs[u].bit_count() == d:
                stack.append(u)
        nbrs[v] = 0
    return nbrs


def is_homomorphic(g: Graph, h: Graph) -> bool:
    """Whether some map f sends every edge of g to an edge or loop of h and
    every loop of g to a loop of h.

    Certificates decide first: a looped vertex of h takes all of g; a loop
    of g needs one in h; a 2-colourable g maps onto any edge of h, and a g
    that is not 2-colourable maps into no loopless bipartite h (Hell and
    Nesetril 1990).  A 2-degenerate g maps onto any triangle of h: coloured
    in reverse order of a peel of vertices of degree <= 2, each vertex sees
    at most two coloured neighbours (Szekeres and Wilf 1968).  Otherwise
    the backtracking search assigns g's vertices with an edge in
    degree-descending order with adjacency pruning, trying only h's
    vertices with an edge as images (h has no loop), and past HOM_BUDGET
    nodes raises BudgetExceededError.
    """
    if h.n == 0:
        return g.n == 0
    if h.loops:
        return True
    if g.loops:
        return False
    if not g.edges:
        return True
    if not h.edges:
        return False
    gnbrs, hnbrs = g.nbrs, h.nbrs
    if _two_colourable(gnbrs):
        return True
    if _two_colourable(hnbrs):
        return False
    if any(hnbrs[a] & hnbrs[b] for a, b in h.edges) and not any(core(gnbrs, 2)):
        return True

    active = sorted((v for v in range(g.n) if gnbrs[v]),
                    key=lambda v: -gnbrs[v].bit_count())
    images = [x for x, ws in enumerate(hnbrs) if ws]

    pos = {v: i for i, v in enumerate(active)}
    assignment = [-1] * len(active)
    nodes, budget = 0, HOM_BUDGET

    def backtrack(i: int) -> bool:
        nonlocal nodes
        if i == len(active):
            return True
        need = 0  # the images of active[i]'s neighbours placed before it
        for u in bits(gnbrs[active[i]]):
            if pos[u] < i:
                need |= 1 << assignment[pos[u]]
        for img in images:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("homomorphism search budget exceeded")
            if not need & ~hnbrs[img]:
                assignment[i] = img
                if backtrack(i + 1):
                    return True
                assignment[i] = -1
        return False

    return backtrack(0)


def hom_to_single_edge(g: Graph) -> bool:
    """Equivalent to is_homomorphic(g, K_2): a loopless graph maps to one
    edge exactly when it is bipartite."""
    if g.loops:
        raise ValueError("hom_to_single_edge needs a loopless graph")
    return _two_colourable(g.nbrs)


# -- class-restricted subgraph enumeration ------------------------------------

def _edge_index(k: int) -> list[list[int]]:
    """index[a][b]: the position of edge (a, b) or (b, a) in all_edges(k)."""
    index = [[0] * k for _ in range(k)]
    for idx, (a, b) in enumerate(all_edges(k)):
        index[a][b] = index[b][a] = idx
    return index


def _prufer_templates(k: int) -> list[tuple]:
    """Every labeled tree on positions 0..k-1 (k >= 3), once each, as the
    indices of its edges in all_edges(k): one linear-time Pruefer decoding
    (Pruefer 1918) per sequence, k^(k-2) of them (Cayley's count)."""
    index = _edge_index(k)
    out = []
    for seq in itertools.product(range(k), repeat=k - 2):
        degree = [1] * k
        for x in seq:
            degree[x] += 1
        ptr = degree.index(1)
        leaf, es = ptr, []
        for x in seq:
            es.append(index[leaf][x])
            degree[x] -= 1
            if degree[x] == 1 and x < ptr:
                leaf = x
            else:
                ptr += 1
                while degree[ptr] != 1:
                    ptr += 1
                leaf = ptr
        es.append(index[leaf][k - 1])
        out.append(tuple(es))
    return out


def _cycle_templates(k: int) -> list[tuple]:
    """Every cycle through all of positions 0..k-1 (k >= 3), once each, as
    the indices of its edges in all_edges(k)."""
    index = _edge_index(k)
    out = []
    for p in itertools.permutations(range(1, k)):
        if p[0] < p[-1]:
            cyc = (0,) + p
            out.append(tuple(index[cyc[i - 1]][cyc[i]] for i in range(k)))
    return out


def _shape_kind(kind: str) -> tuple:
    """The kind's shape count on k labeled vertices and its template builder
    for k >= 3; a function, not a module table, so the builders are looked
    up at call time."""
    return {
        "cycle": (lambda k: math.factorial(k - 1) // 2, _cycle_templates),  # 0 at k = 2
        "clique": (lambda k: 1, lambda k: [tuple(range(k * (k - 1) // 2))]),
        "tree": (lambda k: k ** (k - 2), _prufer_templates),
    }[kind]


def check_enumeration(n: int, m: int, kind: str) -> bool:
    """Whether the class subsets of a host with n vertices and m edges come
    from shape templates (a complete host and a SHAPE_KINDS class) rather
    than from filtering every edge subset, decided from n and m alone.

    Raises BudgetExceededError, before anything is built, when the shapes,
    counted in closed form (C(n,k) times k^(k-2) trees by Cayley, (k-1)!/2
    cycles or one clique per k), pass SHAPE_MAX_MASKS, or when a filtered
    host has more than SUBSET_FILTER_MAX_EDGES edges.  Both limits are read
    at call time; the count stops once past count_bound."""
    if m != n * (n - 1) // 2 or kind not in SHAPE_KINDS:
        if m > SUBSET_FILTER_MAX_EDGES:
            raise BudgetExceededError(
                f"{count_text(m, SUBSET_FILTER_MAX_EDGES)} candidate edges exceed "
                f"the enumeration budget {SUBSET_FILTER_MAX_EDGES}")
        return False
    per_k = _shape_kind(kind)[0]
    count = 0
    for k in range(2, n + 1):
        count += math.comb(n, k) * per_k(k)
        if count > count_bound(SHAPE_MAX_MASKS):
            break
    if count > SHAPE_MAX_MASKS:
        raise BudgetExceededError(
            f"{count_text(count, SHAPE_MAX_MASKS)} {kind} subsets of K{n} exceed "
            f"the shape enumeration budget {SHAPE_MAX_MASKS}")
    return True


def _shape_masks(n: int, kind: str) -> list[int]:
    """The masks of K_n's cycles, cliques or trees, unsorted.

    Each shape on k >= 3 vertices is a template over positions 0..k-1,
    placed on every k-subset of the vertices through that subset's bit[a][b]
    entries; the edge of K2 is a clique and a tree.  check_enumeration has
    bounded their count."""
    templates = _shape_kind(kind)[1]
    bit = [[0] * n for _ in range(n)]
    for idx, (a, b) in enumerate(all_edges(n)):
        bit[a][b] = 1 << idx
    out = [] if kind == "cycle" else [1 << i for i in range(n * (n - 1) // 2)]
    for k in range(3, n + 1):
        getters = [itemgetter(*t) for t in templates(k)]
        for verts in itertools.combinations(range(n), k):
            placed = [bit[a][b] for a, b in itertools.combinations(verts, 2)]
            out += [sum(get(placed)) for get in getters]  # disjoint bits: sum is OR
    return out


def subset_in_class(n: int, es: list, cls: GraphClass) -> bool:
    """recognize on the n-vertex graph with the given edge list."""
    return recognize(Graph.make(n, es), cls)


def mask_edges(mask: int, edges: list) -> frozenset:
    """The edges whose bits are set in mask; bit i is edges[i]."""
    return frozenset(e for i, e in enumerate(edges) if mask >> i & 1)


def class_edge_masks(g: Graph, cls: GraphClass) -> list[int]:
    """Edge subsets of g in the class, each once, as ascending bitmasks: bit
    i selects the i-th edge of g in canonical order (sorted(g.edges)).

    Over a complete host the SHAPE_KINDS (cycle, clique, tree) are built
    from templates (_shape_masks); every other case filters the bitmasks of
    g's edges through subset_in_class (recognize on each subset's graph, in
    place).  check_enumeration picks the route and raises
    BudgetExceededError past its limit, before either runs.

    Two members of one shape kind with equal edge counts are homomorphically
    equivalent, so they map to the same targets (Hell and Nesetril, "The core
    of a graph", 1992): cycles with equal edge counts are isomorphic, and so
    are cliques, and every tree with an edge has core K2.  Isolated vertices
    change no verdict.  genfun.hom_poly relies on this.
    """
    edges = sorted(g.edges)
    if check_enumeration(g.n, len(edges), cls.kind):
        return sorted(_shape_masks(g.n, cls.kind))
    return [mask for mask in range(1, 1 << len(edges))
            if subset_in_class(g.n, [e for i, e in enumerate(edges) if mask >> i & 1],
                               cls)]


# topo imports Graph, bits, core and reach from this module, so it is
# imported once they are defined; recognize reads it as a module attribute.
from . import topo  # noqa: E402
