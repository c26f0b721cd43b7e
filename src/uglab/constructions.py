"""Builders for the instance families, the cycle-graph pursuit strategy,
the good-edge filter, and the quantitative parameter calculator."""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    InvalidParameterError,
    PreconditionError,
    SearchBudgetError,
    StrategyViolationError,
)
from .gf2 import MAX_DIM, Gf2Subspace, Gf2Vector, random_subspace, random_vector, span_of
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
COPS_BUDGET = 100  # k of cops_robbers_graph(k), whose 2k(k-1) vertices every pursuit command builds
PAIR_ELEMENT_BUDGET = 2**17  # subspace elements |E| 2^ell of a random pair: Petersen fits at ell = 13, not at 14
# simple r-edge paths that good_edges may check, at most |E| r (d-1)^(r-1): cops:17 at r = 5,
# bounded by 65 280, took 1.2 s on one core of a 2-vCPU x86-64 machine
PATH_CENSUS_BUDGET = 2**16
MIN_ALPHA = Fraction(1, 10**150)  # keeps 16/alpha^2, and so the degree d, a finite float


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


def _json_edge(e, key: str) -> Tuple:
    """An edge read from the sidecar's key, checked to be two vertex names."""
    if not isinstance(e, list) or len(e) != 2 or not all(isinstance(x, str) for x in e):
        raise InvalidParameterError(f"sidecar {key!r} edge {e!r} is not two vertex names")
    return normalize_edge(*e)


def _key_edge(text: str, key: str) -> Tuple:
    return _json_edge(text.split(), key)


def _graph_json(g: SimpleGraph) -> Dict:
    return {"vertices": [str(v) for v in g.vertices], "edges": [_edge_json(e) for e in g.edges]}


def _graph_from_json(data) -> SimpleGraph:
    vertices, edges = _fields(data, "sidecar graph", ("vertices", "edges"))
    vertices = _str_list(vertices, "'vertices'")
    return SimpleGraph(vertices, [_json_edge(e, "graph") for e in _typed(edges, "edges", list)])


def _fields(data, what: str, keys: Sequence[str]) -> List:
    """The values of keys in the JSON object data, in order."""
    if not isinstance(data, dict):
        raise InvalidParameterError(f"{what} is not a JSON object")
    for key in keys:
        if key not in data:
            raise InvalidParameterError(f"{what} has no {key!r} key")
    return [data[key] for key in keys]


def _typed(value, key: str, kind: type):
    """value, read from the sidecar's key, checked to be a JSON object (dict) or array (list)."""
    if not isinstance(value, kind):
        raise InvalidParameterError(f"sidecar {key!r} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _str_list(value, what: str) -> List[str]:
    """value, checked to be a JSON array of strings; what names it in the error."""
    if not isinstance(value, list) or not all(isinstance(h, str) for h in value):
        raise InvalidParameterError(f"sidecar {what} is not a JSON array of strings")
    return value


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
        "coloring": {_edge_key(e): c for e, c in coloring.items()},
        "star": _edge_json(star_edge),
    }


def klein_from_json(
    sc: Dict, u1: GroupUgInstance, u2: GroupUgInstance
) -> Tuple[SimpleGraph, Dict[Tuple, str], Tuple]:
    """The (graph, coloring, star edge) that klein_to_json wrote, checked
    as klein_pair checks its inputs, with u1 and u2 the pair's instances as
    read from their files; they must be the pair klein_pair builds."""
    graph, coloring, star = _sidecar(sc, "klein", "gen klein", ("graph", "coloring", "star"))
    coloring = {_key_edge(k, "coloring"): c for k, c in _typed(coloring, "coloring", dict).items()}
    inputs = (_graph_from_json(graph), coloring, _json_edge(star, "star"))
    _match_files((u1, u2), klein_pair(*inputs), "the sidecar's coloring and star edge")
    return inputs


def _match_files(given: Sequence[GroupUgInstance], built: Sequence[GroupUgInstance], what: str) -> None:
    """Raise unless the pair's instances read from their files equal the two
    built from the sidecar; the error names the first that differs."""
    for name, a, b in zip(("u1", "u2"), given, built):
        if (a.m, a.vertices, a.bundles) != (b.m, b.vertices, b.bundles):
            raise InvalidParameterError(f"{name} instance does not match {what}")


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


def cops_robbers_graph(k: int) -> SimpleGraph:
    """Replace each vertex of K_k by a cycle of 2(k-1) vertices; every K_k
    edge becomes two bridges joining even-indexed to odd-indexed cycle
    vertices, which keeps the result bipartite.

    k = 2 would need 2-vertex cycles (a multigraph), so the k = 3 graph is
    returned for it instead. Each k's graph is built once and shared; k
    above COPS_BUDGET is refused before anything is built.
    """
    if k < 2:
        raise InvalidParameterError("need k >= 2")
    if k > COPS_BUDGET:
        raise InvalidParameterError(f"need k <= {COPS_BUDGET}, got {k}")
    return _cops_graph(max(k, 3))[0]


@lru_cache(maxsize=None)
def _cops_graph(k: int) -> Tuple[SimpleGraph, Dict, Tuple[Tuple, ...]]:
    """cops_robbers_graph(k) with each vertex's cycle index and the cycles."""
    L = 2 * (k - 1)
    cycles = tuple(tuple(f"c{i}n{j}" for j in range(L)) for i in range(k))
    edges = [(cyc[j], cyc[(j + 1) % L]) for cyc in cycles for j in range(L)]
    # cycle i's neighbor ranks: the t-th smallest other index owns slot (2t, 2t+1)
    def slot(i: int, j: int) -> int:
        others = [x for x in range(k) if x != i]
        return 2 * others.index(j)

    for i in range(k):
        for j in range(i + 1, k):
            si, sj = slot(i, j), slot(j, i)
            edges.append((cycles[i][si], cycles[j][sj + 1]))
            edges.append((cycles[i][si + 1], cycles[j][sj]))
    cycle_of = {v: i for i, cyc in enumerate(cycles) for v in cyc}
    return SimpleGraph(cycle_of, edges), cycle_of, cycles


def _cycle_structure(h: SimpleGraph) -> Optional[Tuple[Dict, Tuple[Tuple, ...]]]:
    """(cycle index per vertex, cycles) when h equals cops_robbers_graph(k)
    for the one k with 2k(k-1) vertices, else None."""
    k = (1 + math.isqrt(1 + 2 * h.n)) // 2
    if k < 3 or h.n != 2 * k * (k - 1) or h.m != 3 * k * (k - 1):
        return None
    g, cycle_of, cycles = _cops_graph(k)
    return (cycle_of, cycles) if h is g or h == g else None


def shared_pursuit_graph(h: SimpleGraph) -> SimpleGraph:
    """The shared cops_robbers_graph(k) object when h equals it, else h.
    Keeping the result makes robber_move's structure check an identity hit."""
    structure = _cycle_structure(h)
    return h if structure is None else _cops_graph(len(structure[1]))[0]


def _escape_paths(h: SimpleGraph, p0, p1, cops: FrozenSet, target_ok) -> Optional[List]:
    """Shortest cop-free simple path [p0, p1, ..., x, y] whose last edge
    satisfies target_ok(x, y); BFS from p1 with p0 already used."""
    trails = {p1: (p0, p1)}
    queue = deque([p1])
    while queue:
        x = queue.popleft()
        trail = trails[x]
        nbrs = h.neighbors(x)
        for y in nbrs:
            if y not in cops and y not in trail and target_ok(x, y):
                return [*trail, y]
        for y in nbrs:
            if y not in cops and y != p0 and y not in trails:
                trails[y] = trail + (y,)
                queue.append(y)
    return None


def robber_move(h: SimpleGraph, cops, robber: Tuple) -> List:
    """Evasion move for the edge-dwelling robber against <= k-1 cops.

    Returns a vertex path [p_0, ..., p_L]: p_0 and p_1 span the current
    edge, interior vertices are cop-free, and the last two vertices span the
    new edge. An empty path means the robber stays put.

    The strategy depends only on the graph's vertices and edges. On a graph
    equal to some cops_robbers_graph(k), however it was built or read, the
    robber keeps to a cycle edge of a cop-free cycle and relocates the
    moment that fails. On any other cubic graph, such as the K_4 of the
    Klein pair, it moves only when a cop reaches an endpoint.
    """
    cops = frozenset(cops)
    e = normalize_edge(*robber)
    if not h.has_edge(*e):
        raise InvalidParameterError(f"robber edge {e!r} not in graph")
    if e[0] in cops and e[1] in cops:
        raise PreconditionError("robber edge is captured")

    # the BFS trail holds both robber endpoints and never a cop, so every
    # edge target_ok sees is cop-free and differs from the robber's
    structure = _cycle_structure(h)
    if structure is not None:
        cycle_of = structure[0]
        busy = {cycle_of.get(c) for c in cops}
        i = cycle_of[e[0]]
        if i == cycle_of[e[1]]:  # bridges join two different cycles
            if i not in busy:
                return []
        elif not cops:
            return []  # on a bridge but unthreatened

        def target_ok(x, y):
            j = cycle_of[x]
            return j == cycle_of[y] and j not in busy

    else:
        if e[0] not in cops and e[1] not in cops:
            return []

        def target_ok(x, y):
            return True

    candidates = []
    for p1 in (p for p in e if p not in cops):
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
    clean one; pass override to run below that. The census, at most
    |E| r (d-1)^(r-1) paths for maximum degree d, is refused past
    PATH_CENSUS_BUDGET before the first path is drawn."""
    if not override and girth(base) <= r:
        raise PreconditionError("girth must exceed r; pass override to relax")
    spread = max((len(base.neighbors(v)) for v in base.vertices), default=1) - 1
    # past the cap's bit length, 2^(r-1) alone exceeds it, so the power is never formed for a huge r
    if spread > 1 and r > PATH_CENSUS_BUDGET.bit_length() or (
        len(base.edges) * r * spread ** max(r - 1, 0) > PATH_CENSUS_BUDGET
    ):
        raise SearchBudgetError(f"up to |E| r (d-1)^(r-1) paths of {r} edges to check, cap is {PATH_CENSUS_BUDGET}")
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
    if alpha < MIN_ALPHA:
        raise InvalidParameterError("alpha must be at least 1e-150")
    for name, x in (("gamma", gamma), ("epsilon", epsilon)):
        if float(x) == 0:  # its log is taken as a float
            raise InvalidParameterError(f"{name} must be at least 5e-324, the least positive float")
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
    """Random pair over a d-regular base: each good edge carries its
    subspace bundle, shifted by b on the second instance; zmap/bmap expose
    the raw draws of every edge for the game strategies."""

    u1: GroupUgInstance
    u2: GroupUgInstance
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
            "zmap": {_edge_key(e): [v.to_hex() for v in z.basis] for e, z in self.zmap.items()},
            "bmap": {_edge_key(e): v.to_hex() for e, v in self.bmap.items()},
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
            _key_edge(k, "zmap"): Gf2Subspace.from_vectors(
                [Gf2Vector.from_hex(h, m) for h in _str_list(basis, f"'zmap' entry {k!r}")], m
            )
            for k, basis in _typed(zraw, "zmap", dict).items()
        }
        bmap = {_key_edge(k, "bmap"): Gf2Vector.from_hex(h, m) for k, h in _typed(braw, "bmap", dict).items()}
        good = frozenset(_json_edge(e, "good") for e in _typed(good, "good", list))
        pair = cls(*_pair_instances(base, zmap, bmap, good, m), good, zmap, bmap, params, base, bool(girth_ok))
        _match_files((u1, u2), (pair.u1, pair.u2), "the sidecar's good edges")
        return pair


def _pair_instances(
    base: SimpleGraph, zmap: Dict, bmap: Dict, good: FrozenSet, m: int
) -> Tuple[GroupUgInstance, GroupUgInstance]:
    """(u1, u2): Z(e) on the first instance and the coset Z(e)+b(e) on the
    second, over good edges only; every base vertex is kept."""
    for name, table in (("zmap", zmap), ("bmap", bmap)):
        for e in base.edges:
            if e not in table:
                raise InvalidParameterError(f"{name} has no entry for edge {_edge_key(e)!r}")
    kept = [e for e in base.edges if e in good]
    u1 = GroupUgInstance(m, base.vertices, [(u, v, list(zmap[u, v].elements())) for u, v in kept])
    u2 = GroupUgInstance(m, base.vertices, [(u, v, sorted(zmap[u, v].shifted(bmap[u, v]))) for u, v in kept])
    return u1, u2


def random_inapprox_pair(
    params: ParamSet,
    base: SimpleGraph,
    rng,
    k: int = 2,
    good_override: bool = False,
) -> InapproxPair:
    """Draw b(e) uniform in F_2^m and Z(e) a uniform rank-ell subspace per
    edge; bundle Z(e) on the first instance and the coset Z(e)+b(e) on the
    second, then restrict both to good edges (vertices are kept). The pair
    lists |E| 2^ell subspace elements per instance; more than
    PAIR_ELEMENT_BUDGET are refused before any draw."""
    if k < 1:
        raise InvalidParameterError("need k >= 1")
    d = base.regular_degree()
    if d != params.d:
        raise PreconditionError(f"base is {d}-regular, params want d={params.d}")
    m, ell, r = params.m, params.ell, params.r
    # an ell or m that the draws refuse is left to them
    if 0 <= ell <= min(m, MAX_DIM) and (elements := len(base.edges) << ell) > PAIR_ELEMENT_BUDGET:
        raise SearchBudgetError(f"pair has {elements} subspace elements, cap is {PAIR_ELEMENT_BUDGET}")
    zmap: Dict[Tuple, Gf2Subspace] = {}
    bmap: Dict[Tuple, Gf2Vector] = {}
    for e in base.edges:  # canonical order; b drawn before Z on each edge
        bmap[e] = random_vector(m, rng)
        zmap[e] = random_subspace(m, ell, rng)
    good = good_edges(base, zmap, r, m, override=good_override)
    need = (k + 1) ** 2 * r
    g = girth(base)
    girth_ok = g >= need
    if not girth_ok:  # after the draws and the good-edge census, whose checks raise first
        warnings.warn(
            f"girth {g} below ({k}+1)^2*r = {need}; strategy guarantees degrade",
            stacklevel=2,
        )
    return InapproxPair(*_pair_instances(base, zmap, bmap, good, m), good, zmap, bmap, params, base, girth_ok)


__all__ = [
    "KLEIN",
    "COPS_BUDGET",
    "PAIR_ELEMENT_BUDGET",
    "PATH_CENSUS_BUDGET",
    "klein_vec",
    "unsat_complete_graph",
    "klein_pair",
    "klein_to_json",
    "klein_from_json",
    "k4_klein_inputs",
    "cubic_edge_coloring",
    "cops_robbers_graph",
    "robber_move",
    "shared_pursuit_graph",
    "paths_through_edge",
    "good_edges",
    "ParamSet",
    "compute_params",
    "InapproxPair",
    "random_inapprox_pair",
]
