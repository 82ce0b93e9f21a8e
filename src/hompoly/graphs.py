"""Undirected labeled graphs, class recognizers, homomorphism search, enumeration.

Vertices are 0..n-1.  Edges are canonical pairs (i, j) with i < j; self-loops
live in a separate vertex set (loops are legal in homomorphism targets H but
never selected by class enumerations).  Labels attach role names to vertices
for gadget bookkeeping.

Class enumeration keeps each edge subset as an int bitmask over the host's
edges in canonical order (class_edge_masks); class_edge_subsets is the
frozenset view for callers that want edge sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .errors import BudgetExceededError

DEFAULT_HOM_BUDGET = 2_000_000
SUBSET_FILTER_MAX_EDGES = 21  # K7; class_edge_subsets filters 2^edges subsets

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

    def neighbors(self, v: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == v:
                out.append(b)
            elif b == v:
                out.append(a)
        return sorted(out)

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return adj

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def label(self, role: str) -> int:
        for r, v in self.labels:
            if r == role:
                return v
        raise KeyError(role)

    def with_labels(self, labels: dict) -> "Graph":
        merged = dict(self.labels)
        merged.update(labels)
        return Graph.make(self.n, self.edges, self.loops, merged)

    def components(self) -> list[frozenset]:
        adj = self.adjacency()
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in adj[v]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(frozenset(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def induced(self, vertices) -> "Graph":
        """Induced subgraph relabeled to 0..k-1 in sorted (so canonical) order."""
        vs = sorted(vertices)
        idx = {v: i for i, v in enumerate(vs)}
        es = [(idx[a], idx[b]) for a, b in self.edges if a in idx and b in idx]
        ls = [idx[v] for v in self.loops if v in idx]
        return Graph(len(vs), frozenset(es), frozenset(ls))

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
        """The graph of a to_json_obj object; malformed input raises ValueError."""
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
        return cls.make(n, [tuple(e) for e in edges], loops, labels)


def _ints(xs) -> bool:
    return isinstance(xs, list) and all(type(x) is int for x in xs)  # no bools


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
# (see class_edge_subsets).
SHAPE_KINDS = ("cycle", "clique", "tree")


def genus_class(k: int) -> GraphClass:
    if k < 0:
        raise ValueError("genus must be nonnegative")
    return GraphClass("genus", k)


def parse_class(name: str, k: int | None = None) -> GraphClass:
    name = name.lower()
    if name in SHAPE_KINDS + ("outerplanar", "planar"):
        return GraphClass(name)
    if name == "genus":
        if k is None:
            raise ValueError("genus class needs k")
        return genus_class(k)
    raise ValueError(f"unknown graph class {name!r}")


def _component_shape_ok(comp: Graph, cls: GraphClass) -> bool:
    # comp is connected with >= 2 vertices and no loops
    v, m = comp.n, len(comp.edges)
    if cls.kind == "cycle":
        return v >= 3 and m == v and all(comp.degree(x) == 2 for x in range(v))
    if cls.kind == "clique":
        return m == v * (v - 1) // 2
    if cls.kind == "tree":
        return m == v - 1
    from . import topo
    if cls.kind == "outerplanar":
        return topo.is_outerplanar(comp)
    if cls.kind == "planar":
        return topo.is_planar(comp)
    if cls.kind == "genus":
        if cls.genus == 0:
            return topo.is_planar(comp)
        if topo.is_planar(comp):
            return False
        return topo.min_genus(comp) == cls.genus
    raise ValueError(f"unknown class kind {cls.kind}")


def recognize(g: Graph, cls: GraphClass) -> bool:
    """Exactly one component has the class shape; the rest are single vertices.
    A genus class past topo.DEFAULT_GENUS_BUDGET raises BudgetExceededError."""
    if g.loops:
        return False
    nontrivial = [c for c in g.components() if len(c) > 1]
    if len(nontrivial) != 1:
        return False
    return _component_shape_ok(g.induced(nontrivial[0]), cls)


# -- homomorphism search ------------------------------------------------------

def _two_colourable(adj: list[list[int]]) -> bool:
    """Whether the loopless graph with adjacency lists adj is bipartite."""
    color = [-1] * len(adj)
    for s in range(len(adj)):
        if color[s] >= 0:
            continue
        color[s] = 0
        stack = [s]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] < 0:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def is_homomorphic(g: Graph, h: Graph, budget: int = DEFAULT_HOM_BUDGET) -> bool:
    """Whether some map f sends every edge of g to an edge or loop of h and
    every loop of g to a loop of h.

    Certificates decide first: a looped vertex of h takes all of g; a loop
    of g needs one in h; a 2-colourable g maps onto any edge of h, and a g
    that is not 2-colourable maps into no loopless bipartite h (Hell and
    Nesetril 1990).  Only the remaining cases run the backtracking search:
    isolated vertices of g are skipped, the others are assigned in
    degree-descending order with adjacency pruning, and the node budget
    guards against blowup.  Each assigned vertex has an edge and h has no
    loop, so only the vertices of h with an edge are tried as images.
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
    gadj = g.adjacency()
    if _two_colourable(gadj):
        return True
    hlists = h.adjacency()
    if _two_colourable(hlists):
        return False

    active = sorted((v for v in range(g.n) if gadj[v]), key=lambda v: -len(gadj[v]))
    hadj = [set(ws) for ws in hlists]
    images = [x for x, ws in enumerate(hadj) if ws]

    pos = {v: i for i, v in enumerate(active)}
    assignment = [-1] * len(active)
    nodes = 0

    def backtrack(i: int) -> bool:
        nonlocal nodes
        if i == len(active):
            return True
        v = active[i]
        earlier = [u for u in gadj[v] if pos[u] < i]
        for img in images:
            nodes += 1
            if nodes > budget:
                raise BudgetExceededError("homomorphism search budget exceeded")
            if all(assignment[pos[u]] in hadj[img] for u in earlier):
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
    return _two_colourable(g.adjacency())


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


def _shape_masks(n: int, kind: str) -> list[int]:
    """The masks of K_n's cycles, cliques or trees, unsorted.

    Each shape on k >= 3 vertices is a template over positions 0..k-1,
    placed on every k-subset of the vertices through that subset's bit[a][b]
    entries; the edge of K2 is a clique and a tree."""
    bit = [[0] * n for _ in range(n)]
    for idx, (a, b) in enumerate(all_edges(n)):
        bit[a][b] = 1 << idx
    out = [] if kind == "cycle" else [1 << i for i in range(n * (n - 1) // 2)]
    for k in range(3, n + 1):
        if kind == "cycle":
            templates = _cycle_templates(k)
        elif kind == "tree":
            templates = _prufer_templates(k)
        else:
            templates = [tuple(range(k * (k - 1) // 2))]
        getters = [itemgetter(*t) for t in templates]
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
    g's edges through subset_in_class (recognize on each subset) and raises
    BudgetExceededError when g has more than SUBSET_FILTER_MAX_EDGES edges
    (read at call time).

    Two members of one shape kind with equal edge counts are homomorphically
    equivalent, so they map to the same targets (Hell and Nesetril, "The core
    of a graph", 1992): cycles with equal edge counts are isomorphic, and so
    are cliques, and every tree with an edge has core K2.  Isolated vertices
    change no verdict.  genfun.hom_poly relies on this.
    """
    edges = sorted(g.edges)
    if len(edges) == g.n * (g.n - 1) // 2 and cls.kind in SHAPE_KINDS:
        return sorted(_shape_masks(g.n, cls.kind))
    if len(edges) > SUBSET_FILTER_MAX_EDGES:
        raise BudgetExceededError(f"{len(edges)} candidate edges exceed the "
                                  f"enumeration budget {SUBSET_FILTER_MAX_EDGES}")
    return [mask for mask in range(1, 1 << len(edges))
            if subset_in_class(g.n, [e for i, e in enumerate(edges) if mask >> i & 1],
                               cls)]


def class_edge_subsets(g: Graph, cls: GraphClass) -> list[frozenset]:
    """class_edge_masks decoded into frozensets of edges, in the same
    ascending bitmask order, for callers that want edge sets; the
    polynomial builders in genfun read the masks themselves."""
    edges = sorted(g.edges)
    return [mask_edges(mask, edges) for mask in class_edge_masks(g, cls)]
