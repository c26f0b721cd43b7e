"""Simple undirected graphs with the structural queries the constructions need.

Deliberately small: regularity, bipartition, components, girth,
spanning-tree enumeration and perfect-matching decomposition.
"""

from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import InvalidParameterError, PreconditionError


def vertex_sort_key(v):
    """Total order over mixed-type vertex labels, deterministic across runs."""
    if isinstance(v, bool):
        return (0, "", int(v))
    if isinstance(v, int):
        return (0, "", v)
    if isinstance(v, str):
        return (1, v, 0)
    return (2, repr(v), 0)


def normalize_edge(u, v) -> Tuple:
    if u == v:
        raise InvalidParameterError(f"self-loop at {u!r}")
    if type(u) is type(v) and type(u) in (str, int):  # vertex_sort_key orders these as < does
        return (u, v) if u < v else (v, u)
    if vertex_sort_key(u) <= vertex_sort_key(v):
        return (u, v)
    return (v, u)


class SimpleGraph:
    """Undirected graph, no loops or multi-edges; vertices are hashables."""

    def __init__(self, vertices: Iterable, edges: Iterable[Tuple]) -> None:
        vs = list(dict.fromkeys(vertices))
        es = []
        seen = set()
        for u, v in edges:
            e = normalize_edge(u, v)
            if e in seen:
                raise InvalidParameterError(f"duplicate edge {e!r}")
            seen.add(e)
            es.append(e)
        vset = set(vs)
        for u, v in es:
            if u not in vset or v not in vset:
                raise InvalidParameterError(f"edge ({u!r}, {v!r}) uses unknown vertex")
        self.vertices: Tuple = tuple(sorted(vs, key=vertex_sort_key))
        self.edges: Tuple[Tuple, ...] = tuple(
            sorted(es, key=lambda e: (vertex_sort_key(e[0]), vertex_sort_key(e[1])))
        )
        # filled in edge order, so every neighbour list is in vertex order
        self._adj: Dict = {v: [] for v in self.vertices}
        for u, v in self.edges:
            self._adj[u].append(v)
            self._adj[v].append(u)

    @cached_property
    def _edge_set(self) -> frozenset:
        """Built on first use: most graphs, those of instances among them, never need it."""
        return frozenset(self.edges)

    # -- basic queries -------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def m(self) -> int:
        return len(self.edges)

    def has_edge(self, u, v) -> bool:
        # edges are held normalized, so if {u, v} is one, it is held in one of the two orders
        return u != v and ((u, v) in self._edge_set or (v, u) in self._edge_set)

    def neighbors(self, v) -> Tuple:
        return tuple(self._adj[v])

    def regular_degree(self) -> Optional[int]:
        """Common degree if the graph is regular, else None."""
        if not self.vertices:
            return None
        degs = {len(self._adj[v]) for v in self.vertices}
        return degs.pop() if len(degs) == 1 else None

    # -- traversal -----------------------------------------------------

    def components(self) -> List[Tuple]:
        out = []
        seen = set()
        for s in self.vertices:
            if s in seen:
                continue
            comp = []
            q = deque([s])
            seen.add(s)
            while q:
                u = q.popleft()
                comp.append(u)
                for w in self._adj[u]:
                    if w not in seen:
                        seen.add(w)
                        q.append(w)
            out.append(tuple(sorted(comp, key=vertex_sort_key)))
        return out

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def bipartition(self) -> Optional[Tuple[frozenset, frozenset]]:
        """2-coloring as (side0, side1), or None when an odd cycle exists."""
        color: Dict = {}
        for s in self.vertices:
            if s in color:
                continue
            color[s] = 0
            q = deque([s])
            while q:
                u = q.popleft()
                for w in self._adj[u]:
                    if w not in color:
                        color[w] = 1 - color[u]
                        q.append(w)
                    elif color[w] == color[u]:
                        return None
        side0 = frozenset(v for v, c in color.items() if c == 0)
        side1 = frozenset(v for v, c in color.items() if c == 1)
        return side0, side1

    def bfs_distances(self, source) -> Dict:
        dist = {source: 0}
        q = deque([source])
        while q:
            u = q.popleft()
            for w in self._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return dist

    def spanning_trees(self) -> Iterator[Tuple[Tuple, ...]]:
        """Every spanning tree once, as a tuple of edges in ``edges`` order.

        An include/exclude search over ``edges`` in order, include first. An
        edge is included only if it joins two components of the chosen edges,
        and left out only if the chosen edges plus the later ones still
        connect the graph, so every branch ends in a tree. A disconnected
        graph has none; a graph with at most one vertex has the empty tree.
        """
        if not self.is_connected():
            return
        n = self.n
        index = {v: i for i, v in enumerate(self.vertices)}
        pairs = [(index[u], index[v]) for u, v in self.edges]
        # comp labels each vertex with a representative r of its component
        # under the chosen edges, and comp[r] == r; the stack pops include first
        stack = [(0, tuple(range(n)), ())]
        while stack:
            i, comp, chosen = stack.pop()
            if len(chosen) >= n - 1:
                yield tuple(self.edges[j] for j in chosen)
                continue
            if _connects(comp, n - len(chosen), pairs[i + 1 :]):
                stack.append((i + 1, comp, chosen))
            a, b = comp[pairs[i][0]], comp[pairs[i][1]]
            if a != b:
                stack.append((i + 1, tuple(b if c == a else c for c in comp), chosen + (i,)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.vertices == other.vertices
            and self._edge_set == other._edge_set
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self._edge_set))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.m})"


def _connects(comp: Tuple[int, ...], parts: int, pairs: Sequence[Tuple[int, int]]) -> bool:
    """Whether the edges pairs join the parts components labelled by comp
    (see SimpleGraph.spanning_trees) into one, by union-find."""
    parent = list(comp)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
            if parts == 1:
                return True
    return parts <= 1


def girth(g: SimpleGraph):
    """Length of the shortest cycle, or math.inf for forests.

    BFS from every vertex; a scanned non-tree edge (x, y) certifies a closed
    walk of length d(x)+d(y)+1 through the root, and rooting at a vertex of a
    shortest cycle attains its length, so the minimum over roots is exact.
    """
    best = math.inf
    for s in g.vertices:
        dist = {s: 0}
        parent = {s: None}
        q = deque([s])
        while q:
            u = q.popleft()
            if dist[u] * 2 >= best:
                continue
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    q.append(w)
                elif parent[u] != w:
                    cand = dist[u] + dist[w] + 1
                    if cand < best:
                        best = cand
    return best


# -- standard builders ---------------------------------------------------


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise InvalidParameterError("complete graph needs n >= 1")
    return SimpleGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle_graph(n: int) -> SimpleGraph:
    if n < 3:
        raise InvalidParameterError("cycle needs n >= 3")
    return SimpleGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def petersen_graph() -> SimpleGraph:
    # outer 5-cycle 0..4, spokes i-(i+5), inner pentagram step 2
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(range(10), edges)


# -- matching decomposition ----------------------------------------------


def _kuhn_perfect_matching(g: SimpleGraph, avail_edges: set, left: Sequence) -> Dict:
    """Perfect matching of a regular bipartite (sub)graph by augmenting paths
    from the ``left`` vertices, tried in the order given."""
    adj = {u: [] for u in left}
    for u, v in avail_edges:
        if u in adj:
            adj[u].append(v)
        else:
            adj[v].append(u)
    for u in adj:
        adj[u].sort(key=vertex_sort_key)
    match_r: Dict = {}  # right vertex -> left vertex

    def try_augment(root) -> bool:
        """Depth-first search for an augmenting path from root, on an explicit
        stack: each frame is a left vertex and the iterator over its
        neighbours, and path[i] is the right vertex that frame i tried."""
        visited: set = set()
        stack, path = [(root, iter(adj[root]))], []
        while stack:
            u, untried = stack[-1]
            for w in untried:
                if w not in visited:
                    break
            else:  # no augmenting path through u: back up to its parent
                stack.pop()
                path[-1:] = []
                continue
            visited.add(w)
            path.append(w)
            if w not in match_r:  # flip the path: frame i's vertex takes path[i]
                for (x, _), y in zip(stack, path):
                    match_r[y] = x
                return True
            stack.append((match_r[w], iter(adj[match_r[w]])))
        return False

    for u in left:
        if not try_augment(u):
            raise PreconditionError("no perfect matching in bipartite layer")
    return {u: w for w, u in match_r.items()}


def matching_decomposition(g: SimpleGraph) -> List[Tuple[Tuple, ...]]:
    """Partition the edges of a d-regular bipartite graph into d perfect
    matchings.

    Matchings are peeled off one at a time with augmenting paths (each layer
    of a regular bipartite graph has one by Hall's theorem), and each comes
    back sorted by edge. Non-bipartite graphs such as K_4 are rejected; a
    proper edge-coloring of one goes to ``klein_pair`` directly.
    """
    d = g.regular_degree()
    if d is None:
        raise PreconditionError("matching decomposition needs a regular graph")
    if g.n % 2 != 0:
        raise PreconditionError("odd vertex count admits no perfect matching")
    parts = g.bipartition()
    if parts is None:
        raise PreconditionError("graph is not bipartite")
    left = sorted(parts[0], key=vertex_sort_key)
    if len(parts[0]) != len(parts[1]):
        raise PreconditionError("bipartition sides differ; no perfect matching")
    remaining = set(g.edges)
    out = []
    for _ in range(d):
        match = _kuhn_perfect_matching(g, remaining, left)
        layer = tuple(sorted((normalize_edge(u, w) for u, w in match.items()),
                             key=lambda e: (vertex_sort_key(e[0]), vertex_sort_key(e[1]))))
        out.append(layer)
        remaining -= set(layer)
    assert not remaining
    return out


__all__ = [
    "SimpleGraph",
    "vertex_sort_key",
    "normalize_edge",
    "girth",
    "complete_graph",
    "cycle_graph",
    "petersen_graph",
    "matching_decomposition",
]
