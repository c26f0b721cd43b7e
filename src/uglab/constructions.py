"""Builders for the instance families, the cycle-graph pursuit strategy,
the good-edge filter, and the quantitative parameter calculator."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    InvalidParameterError,
    PreconditionError,
    StrategyViolationError,
)
from .gf2 import Gf2Subspace, Gf2Vector, random_subspace, random_vector, span_of
from .graphs import (
    SimpleGraph,
    girth,
    matching_decomposition,
    normalize_edge,
    vertex_sort_key,
)
from .instances import GroupUgInstance

# Klein four-group as F_2^2; e is the identity
KLEIN = {"e": 0, "a": 1, "b": 2, "c": 3}
KLEIN_NAMES = {bits: name for name, bits in KLEIN.items()}


def klein_vec(name: str) -> Gf2Vector:
    if name not in KLEIN:
        raise InvalidParameterError(f"unknown Klein element {name!r}")
    return Gf2Vector(KLEIN[name], 2)


# -- pair sidecar encoding ------------------------------------------------------
#
# The JSON sidecars written next to a pair's instance files. Vertex names are
# written with str(), so a sidecar read back carries string names, as the
# parsed instance files do.


def _edge_json(e: Tuple) -> List[str]:
    return [str(e[0]), str(e[1])]


def _edge_key(e: Tuple) -> str:
    return f"{e[0]} {e[1]}"


def _json_edge(e) -> Tuple:
    if not isinstance(e, list) or len(e) != 2:
        raise InvalidParameterError(f"sidecar edge {e!r} is not two vertex names")
    return normalize_edge(*e)


def _key_edge(key: str) -> Tuple:
    return _json_edge(key.split())


def _graph_json(g: SimpleGraph) -> Dict:
    return {"vertices": [str(v) for v in g.vertices], "edges": [_edge_json(e) for e in g.edges]}


def _graph_from_json(data) -> SimpleGraph:
    vertices, edges = _fields(data, "sidecar graph", ("vertices", "edges"))
    return SimpleGraph(vertices, [_json_edge(e) for e in edges])


def _fields(data, what: str, keys: Sequence[str]) -> List:
    """The values of keys in the JSON object data, in order."""
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{what} is not a JSON object")
    for key in keys:
        if key not in data:
            raise InvalidParameterError(f"{what} has no {key!r} key")
    return [data[key] for key in keys]


def _sidecar(sc, kind: str, made_by: str, keys: Sequence[str]) -> List:
    """The values of keys in a sidecar of this kind, written by `uglab <made_by>`."""
    got = sc.get("kind") if isinstance(sc, dict) else None
    if got != kind:
        raise InvalidParameterError(f"needs a {made_by!r} sidecar (kind {kind!r}), got kind {got!r}")
    return _fields(sc, f"{made_by!r} sidecar", keys)


# -- fully unsatisfiable-beyond-2/n family ----------------------------------


def unsat_complete_graph(delta) -> GroupUgInstance:
    """Complete-graph instance whose satisfiability is exactly 2/n for the
    least n > max(1, 2/delta); every vertex pair carries its own standard
    basis vector, so no cycle of constraints can be fully satisfied."""
    delta = Fraction(delta)
    if delta <= 0:
        raise InvalidParameterError("delta must be positive")
    bound = max(Fraction(1), 2 / delta)
    n = int(bound) + 1  # least integer strictly above the bound
    m = n * (n - 1) // 2
    if m > 64:
        raise InvalidParameterError(f"delta={delta} needs m={m} > 64 bits")
    bundles = []
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            bundles.append((i, j, [Gf2Vector.unit(idx, m)]))
            idx += 1
    return GroupUgInstance(m, range(n), bundles)


# -- Klein-group pair over an edge-colored cubic graph -----------------------


def klein_pair(
    h: SimpleGraph, coloring: Dict[Tuple, str], star_edge: Tuple
) -> Tuple[GroupUgInstance, GroupUgInstance]:
    """Two instances over F_2^2 from a proper 3-edge-coloring of a cubic graph.

    U1 carries {0, m(e)} on every edge; U2 differs only on star_edge, whose
    bundle is the complementary coset (the two Klein elements outside
    {0, m(star)}), leaving exactly one bundle out of reach.
    """
    if h.regular_degree() != 3:
        raise PreconditionError("Klein pair needs a 3-regular graph")
    star = normalize_edge(*star_edge)
    if star not in set(h.edges):
        raise PreconditionError(f"star edge {star!r} not in graph")
    for e in h.edges:
        if e not in coloring:
            raise PreconditionError(f"coloring misses edge {e!r}")
        if coloring[e] not in ("a", "b", "c"):
            raise PreconditionError(f"color {coloring[e]!r} is not one of a, b, c")
    for v in h.vertices:
        incident = [coloring[normalize_edge(v, w)] for w in h.neighbors(v)]
        if len(set(incident)) != 3:
            raise PreconditionError(f"coloring not proper at vertex {v!r}")
    zero = Gf2Vector.zero(2)
    u1_bundles = []
    u2_bundles = []
    for e in h.edges:
        me = klein_vec(coloring[e])
        u1_bundles.append((e[0], e[1], [zero, me]))
        if e == star:
            others = [Gf2Vector(b, 2) for b in range(4) if b not in (0, me.bits)]
            u2_bundles.append((e[0], e[1], others))
        else:
            u2_bundles.append((e[0], e[1], [zero, me]))
    u1 = GroupUgInstance(2, h.vertices, u1_bundles)
    u2 = GroupUgInstance(2, h.vertices, u2_bundles)
    return u1, u2


def klein_to_json(h: SimpleGraph, coloring: Dict[Tuple, str], star_edge: Tuple) -> Dict:
    """The 'gen klein' sidecar fields for klein_pair's inputs."""
    return {
        "kind": "klein",
        "m": 2,
        "graph": _graph_json(h),
        "coloring": {_edge_key(e): c for e, c in sorted(coloring.items())},
        "star": _edge_json(star_edge),
    }


def klein_from_json(sc: Dict) -> Tuple[SimpleGraph, Dict[Tuple, str], Tuple]:
    """The (graph, coloring, star edge) that klein_to_json wrote, checked
    as klein_pair checks its inputs."""
    graph, coloring, star = _sidecar(sc, "klein", "gen klein", ("graph", "coloring", "star"))
    inputs = (_graph_from_json(graph), {_key_edge(k): c for k, c in coloring.items()}, _json_edge(star))
    klein_pair(*inputs)
    return inputs


def k4_klein_inputs() -> Tuple[SimpleGraph, Dict[Tuple, str], Tuple]:
    """The hand-built K_4 inputs: opposite edge pairs share a color and the
    starred edge is (v3, v4)."""
    vs = ["v1", "v2", "v3", "v4"]
    g = SimpleGraph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1 :]])
    coloring = {
        normalize_edge("v1", "v2"): "a",
        normalize_edge("v3", "v4"): "a",
        normalize_edge("v1", "v3"): "b",
        normalize_edge("v2", "v4"): "b",
        normalize_edge("v1", "v4"): "c",
        normalize_edge("v2", "v3"): "c",
    }
    return g, coloring, normalize_edge("v3", "v4")


def cubic_edge_coloring(h: SimpleGraph) -> Dict[Tuple, str]:
    """Proper 3-edge-coloring of a cubic bipartite graph via matchings."""
    matchings = matching_decomposition(h)
    out: Dict[Tuple, str] = {}
    for color, matching in zip("abc", matchings):
        for e in matching:
            out[e] = color
    return out


# -- cycle-replacement pursuit graph -----------------------------------------


class CopsRobbersGraph(SimpleGraph):
    """Cubic bipartite graph of k cycles joined by paired bridges, with the
    cycle structure kept for the pursuit strategy."""

    def __init__(self, k: int, vertices, edges, cycles: Sequence[Tuple]) -> None:
        super().__init__(vertices, edges)
        self.k = k
        self.cycles: Tuple[Tuple, ...] = tuple(tuple(c) for c in cycles)
        self.cycle_of: Dict = {}
        for i, cyc in enumerate(self.cycles):
            for v in cyc:
                self.cycle_of[v] = i
        cyc_edges = set()
        for cyc in self.cycles:
            for t in range(len(cyc)):
                cyc_edges.add(normalize_edge(cyc[t], cyc[(t + 1) % len(cyc)]))
        self.cycle_edge_set: FrozenSet = frozenset(cyc_edges)
        self.bridge_edge_set: FrozenSet = frozenset(set(self.edges) - cyc_edges)


def cops_robbers_graph(k: int) -> CopsRobbersGraph:
    """Replace each vertex of K_k by a cycle of 2(k-1) vertices; every K_k
    edge becomes two bridges joining even-indexed to odd-indexed cycle
    vertices, which keeps the result bipartite.

    k = 2 would need 2-vertex cycles (a multigraph), so the k = 3 graph is
    returned for it instead.
    """
    if k < 2:
        raise InvalidParameterError("need k >= 2")
    if k == 2:
        k = 3
    L = 2 * (k - 1)
    vertices = [f"c{i}n{j}" for i in range(k) for j in range(L)]
    cycles = [tuple(f"c{i}n{j}" for j in range(L)) for i in range(k)]
    edges = []
    for i in range(k):
        for j in range(L):
            edges.append((f"c{i}n{j}", f"c{i}n{(j + 1) % L}"))
    # cycle i's neighbor ranks: the t-th smallest other index owns slot (2t, 2t+1)
    def slot(i: int, j: int) -> int:
        others = [x for x in range(k) if x != i]
        return 2 * others.index(j)

    for i in range(k):
        for j in range(i + 1, k):
            si, sj = slot(i, j), slot(j, i)
            edges.append((f"c{i}n{si}", f"c{j}n{sj + 1}"))
            edges.append((f"c{i}n{si + 1}", f"c{j}n{sj}"))
    return CopsRobbersGraph(k, vertices, edges, cycles)


def _cycle_cop_free(h: CopsRobbersGraph, i: int, cops: FrozenSet) -> bool:
    return all(v not in cops for v in h.cycles[i])


def _escape_paths(h: SimpleGraph, p0, p1, cops: FrozenSet, target_ok) -> Optional[List]:
    """Shortest cop-free simple path [p0, p1, ..., x, y] whose last edge
    satisfies target_ok(x, y); BFS from p1 with p0 already used."""
    from collections import deque

    parent = {p1: None}
    queue = deque([p1])
    while queue:
        x = queue.popleft()
        trail = []
        t = x
        while t is not None:
            trail.append(t)
            t = parent[t]
        trail.append(p0)
        trail.reverse()
        used = set(trail)
        for y in sorted(h.neighbors(x), key=vertex_sort_key):
            if y in cops or y in used:
                continue
            if target_ok(x, y):
                return trail + [y]
        for y in h.neighbors(x):
            if y not in cops and y != p0 and y not in parent:
                parent[y] = x
                queue.append(y)
    return None


def robber_move(h: SimpleGraph, cops, robber: Tuple) -> List:
    """Evasion move for the edge-dwelling robber against <= k-1 cops.

    Returns a vertex path [p_0, ..., p_L]: p_0 and p_1 span the current
    edge, interior vertices are cop-free, and the last two vertices span the
    new edge. An empty path means the robber stays put.

    On a cycle-replacement graph the robber keeps to a cycle edge of a
    cop-free cycle and relocates the moment that fails; on other cubic
    graphs it moves only when a cop reaches an endpoint.
    """
    cops = frozenset(cops)
    e = normalize_edge(*robber)
    if not h.has_edge(*e):
        raise InvalidParameterError(f"robber edge {e!r} not in graph")
    if e[0] in cops and e[1] in cops:
        raise PreconditionError("robber edge is captured")

    if isinstance(h, CopsRobbersGraph):
        if e in h.cycle_edge_set:
            if _cycle_cop_free(h, h.cycle_of[e[0]], cops):
                return []
        elif not cops:
            return []  # on a bridge but unthreatened

        def target_ok(x, y):
            edge = normalize_edge(x, y)
            if edge not in h.cycle_edge_set or edge == e:
                return False
            return _cycle_cop_free(h, h.cycle_of[x], cops)

    else:
        if e[0] not in cops and e[1] not in cops:
            return []

        def target_ok(x, y):
            edge = normalize_edge(x, y)
            return edge != e and x not in cops and y not in cops

    candidates = []
    for p1 in sorted((p for p in e if p not in cops), key=vertex_sort_key):
        p0 = e[0] if p1 == e[1] else e[1]
        path = _escape_paths(h, p0, p1, cops, target_ok)
        if path is not None:
            candidates.append(path)
    if not candidates:
        raise StrategyViolationError(
            "robber has no escape; the cop bound was exceeded or the graph is not as built",
            side="duplicator",
            detail={"cops": sorted(cops, key=vertex_sort_key), "robber": list(e)},
        )
    candidates.sort(key=lambda p: (len(p), [vertex_sort_key(v) for v in p]))
    return candidates[0]


# -- good edges ----------------------------------------------------------------


def paths_through_edge(base: SimpleGraph, e: Tuple, r: int) -> Iterator[Tuple]:
    """All simple paths of r edges whose edge set contains e, as vertex
    tuples; each undirected path is produced exactly once (e oriented
    left-to-right as given)."""
    u, v = e
    if not base.has_edge(u, v):
        raise InvalidParameterError(f"edge {e!r} not in graph")
    if r < 1:
        raise InvalidParameterError("path length must be >= 1")

    def grow(path: Tuple, steps: int, at_end: bool) -> Iterator[Tuple]:
        if steps == 0:
            yield path
            return
        anchor = path[-1] if at_end else path[0]
        for w in base.neighbors(anchor):
            if w in path:
                continue
            nxt = path + (w,) if at_end else (w,) + path
            yield from grow(nxt, steps - 1, at_end)

    for i in range(r):  # edges before e on the left
        for left in grow((u, v), i, at_end=False):
            yield from grow(left, r - 1 - i, at_end=True)


def good_edges(
    base: SimpleGraph,
    zmap: Dict[Tuple, Gf2Subspace],
    r: int,
    m: int,
    override: bool = False,
) -> FrozenSet:
    """Edges e such that every simple r-edge path through e has subspaces
    whose union spans F_2^m. Requires girth > r so the path census is the
    clean one; pass override to run below that."""
    if not override and girth(base) <= r:
        raise PreconditionError("girth must exceed r; pass override to relax")
    good = set()
    for e in base.edges:
        ok = True
        for path in paths_through_edge(base, e, r):
            vecs = []
            for a, b in zip(path, path[1:]):
                vecs.extend(zmap[normalize_edge(a, b)].basis)
            if span_of(vecs, m).rank < m:
                ok = False
                break
        if ok:
            good.add(e)
    return frozenset(good)


# -- parameter calculator ---------------------------------------------------------


_GUARD = 1e-12


@dataclass(frozen=True)
class ParamSet:
    alpha: Fraction
    gamma: Fraction
    epsilon: Fraction
    d: int
    ell: int
    m: int
    r: int
    q: int

    def to_dict(self) -> Dict:
        """Fractions as strings, so from_dict reads them back exactly."""
        return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, data) -> "ParamSet":
        """The set that to_dict wrote."""
        names = [f.name for f in fields(cls)]
        kinds = [Fraction] * 3 + [int] * 5
        parsed = []
        for name, kind, v in zip(names, kinds, _fields(data, "parameter set", names)):
            try:
                parsed.append(kind(v))
            except (TypeError, ValueError, ZeroDivisionError):
                what = "a rational" if kind is Fraction else "an integer"
                raise InvalidParameterError(f"parameter set value {name}={v!r} is not {what}") from None
        return cls(*parsed)


def _ceil_guarded(x: float) -> int:
    return math.ceil(x - _GUARD)


def compute_params(alpha, gamma=Fraction(1, 4), epsilon=Fraction(1, 4)) -> ParamSet:
    """Smallest admissible degree d plus the derived (ell, m, r, q).

    d is minimal with d >= (16/alpha^2)(ln d + 2 + ln 2 - ln epsilon); the
    remaining values are ceilings of closed forms. Floating point is guarded
    by a 1e-12 band so boundary cases resolve the way exact arithmetic would.
    """
    alpha = Fraction(alpha)
    gamma = Fraction(gamma)
    epsilon = Fraction(epsilon)
    if not 0 < alpha <= 1:
        raise InvalidParameterError("alpha must be in (0, 1]")
    if not 0 < gamma < Fraction(1, 2):
        raise InvalidParameterError("gamma must be in (0, 1/2)")
    if not 0 < epsilon < Fraction(1, 2):
        raise InvalidParameterError("epsilon must be in (0, 1/2)")
    coeff = 16 / float(alpha) ** 2
    shift = 2 + math.log(2) - math.log(float(epsilon))

    def satisfies(d: int) -> bool:
        return d + _GUARD >= coeff * (math.log(d) + shift)

    if satisfies(5):
        d = 5
    else:
        # the deficit is unimodal, so below the first satisfying point the
        # condition is monotone: gallop for an upper bound, then bisect
        hi = 10
        while not satisfies(hi):
            hi *= 2
        lo = max(5, hi // 2)
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if satisfies(mid):
                hi = mid
            else:
                lo = mid
        d = hi
    if d > 5 and satisfies(d - 1):
        raise InvalidParameterError("internal: d minimality violated")

    margin = (Fraction(1, 2) - gamma) * alpha - Fraction(2, d)
    if margin <= 0:
        raise InvalidParameterError(
            f"d={d} fails the strict bound d > 4/((1-2*gamma)*alpha); no admissible m"
        )
    ell = _ceil_guarded(math.log2(d) + 2 * math.log2(math.e))
    m = _ceil_guarded(ell - math.log2(float(margin)))
    r = _ceil_guarded(m * math.log(2) - math.log(float(gamma)))
    return ParamSet(alpha, gamma, epsilon, d, ell, m, r, 2**m)


# -- random hard pair -----------------------------------------------------------


@dataclass(frozen=True)
class InapproxPair:
    """Random pair over a d-regular base: full instances carry every edge's
    subspace bundle (shifted by b on the second), restricted ones keep only
    good edges; zmap/bmap expose the raw draws for the game strategies."""

    u1: GroupUgInstance
    u2: GroupUgInstance
    u1_full: GroupUgInstance
    u2_full: GroupUgInstance
    good: FrozenSet
    zmap: Dict[Tuple, Gf2Subspace]
    bmap: Dict[Tuple, Gf2Vector]
    params: ParamSet
    base: SimpleGraph
    girth_ok: bool

    def to_json(self) -> Dict:
        """The 'gen random-pair' sidecar fields."""
        return {
            "kind": "tree",
            "graph": _graph_json(self.base),
            "params": self.params.to_dict(),
            "zmap": {_edge_key(e): [v.to_hex() for v in z.basis] for e, z in sorted(self.zmap.items())},
            "bmap": {_edge_key(e): v.to_hex() for e, v in sorted(self.bmap.items())},
            "good": [_edge_json(e) for e in sorted(self.good)],
            "girth_ok": self.girth_ok,
        }

    @classmethod
    def from_json(cls, sc: Dict, u1: GroupUgInstance, u2: GroupUgInstance) -> "InapproxPair":
        """The pair whose to_json wrote sc, with u1 and u2 its good-edge
        instances as read from their files; they must match the sidecar."""
        graph, params, zraw, braw, good, girth_ok = _sidecar(
            sc, "tree", "gen random-pair", ("graph", "params", "zmap", "bmap", "good", "girth_ok")
        )
        params = ParamSet.from_dict(params)
        m = params.m
        base = _graph_from_json(graph)
        zmap = {
            _key_edge(k): Gf2Subspace.from_vectors([Gf2Vector.from_hex(h, m) for h in basis], m)
            for k, basis in zraw.items()
        }
        bmap = {_key_edge(k): Gf2Vector.from_hex(h, m) for k, h in braw.items()}
        good = frozenset(_json_edge(e) for e in good)
        pair = cls(*_pair_instances(base, zmap, bmap, good, m), good, zmap, bmap, params, base, bool(girth_ok))
        for name, given, built in (("u1", u1, pair.u1), ("u2", u2, pair.u2)):
            if (given.m, given.vertices, given.bundles) != (built.m, built.vertices, built.bundles):
                raise InvalidParameterError(f"{name} instance does not match the sidecar's good edges")
        return pair


def _pair_instances(
    base: SimpleGraph, zmap: Dict, bmap: Dict, good: FrozenSet, m: int
) -> Tuple[GroupUgInstance, GroupUgInstance, GroupUgInstance, GroupUgInstance]:
    """(u1, u2, u1_full, u2_full): Z(e) on the first instance and the coset
    Z(e)+b(e) on the second, over every edge and over good edges only."""
    for name, table in (("zmap", zmap), ("bmap", bmap)):
        for e in base.edges:
            if e not in table:
                raise InvalidParameterError(f"{name} has no entry for edge {_edge_key(e)!r}")
    full1 = [(u, v, list(zmap[(u, v)].elements())) for u, v in base.edges]
    full2 = [(u, v, sorted(zmap[(u, v)].shifted(bmap[(u, v)]))) for u, v in base.edges]
    u1 = GroupUgInstance(m, base.vertices, [b for b in full1 if b[:2] in good])
    u2 = GroupUgInstance(m, base.vertices, [b for b in full2 if b[:2] in good])
    return u1, u2, GroupUgInstance(m, base.vertices, full1), GroupUgInstance(m, base.vertices, full2)


def random_inapprox_pair(
    params: ParamSet,
    base: SimpleGraph,
    rng,
    k: int = 2,
    good_override: bool = False,
) -> InapproxPair:
    """Draw b(e) uniform in F_2^m and Z(e) a uniform rank-ell subspace per
    edge; bundle Z(e) on the first instance and the coset Z(e)+b(e) on the
    second, then restrict both to good edges (vertices are kept)."""
    d = base.regular_degree()
    if d != params.d:
        raise PreconditionError(f"base is {d}-regular, params want d={params.d}")
    m, ell, r = params.m, params.ell, params.r
    need = (k + 1) ** 2 * r
    g = girth(base)
    girth_ok = g >= need
    if not girth_ok:
        warnings.warn(
            f"girth {g} below ({k}+1)^2*r = {need}; strategy guarantees degrade",
            stacklevel=2,
        )
    zmap: Dict[Tuple, Gf2Subspace] = {}
    bmap: Dict[Tuple, Gf2Vector] = {}
    for e in base.edges:  # canonical order; b drawn before Z on each edge
        bmap[e] = random_vector(m, rng)
        zmap[e] = random_subspace(m, ell, rng)
    good = good_edges(base, zmap, r, m, override=good_override)
    return InapproxPair(*_pair_instances(base, zmap, bmap, good, m), good, zmap, bmap, params, base, girth_ok)


__all__ = [
    "KLEIN",
    "KLEIN_NAMES",
    "klein_vec",
    "unsat_complete_graph",
    "klein_pair",
    "klein_to_json",
    "klein_from_json",
    "k4_klein_inputs",
    "cubic_edge_coloring",
    "CopsRobbersGraph",
    "cops_robbers_graph",
    "robber_move",
    "paths_through_edge",
    "good_edges",
    "ParamSet",
    "compute_params",
    "InapproxPair",
    "random_inapprox_pair",
]
