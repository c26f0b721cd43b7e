"""k-pebble bijective game engine over virtually lifted instances.

Universe elements are pairs (base vertex, group element). Every Duplicator
here answers with a map g*: V -> F_2^m inducing the bijection
f(v, g) = (v, g + g*(v)), so bijections are permutations by construction
and rule compliance reduces to checks on g*.

Inside this layer, differences, g* shifts and edge sets are int bitmasks
(a tree is a mask over ``graph.edges``); bundles are read from the int table
each instance builds once, ``GroupUgInstance.diff_bits``. ``Gf2Vector`` stays
at the API: lifted elements, what ``GStarMap.apply`` returns, and
transcripts. Canonical order comes from ``SimpleGraph``,
``GroupUgInstance`` and the JSON writer; nothing here sorts it again.

The referee checks each placement against the pebbles still down, not the
whole board. The pairs still down are the previous board's, less the lifted
one (``_answer`` has checked that g* fixes each of them), and that board
passed the check or the game would have ended; part of a partial isomorphism
is one. So the new board is a partial isomorphism iff the new pair agrees
with each pair still down, which is what ``check_partial_isomorphism`` is
asked with ``new``. Transcripts, the JSON boundary, read their hex digits
from the per-m table ``gf2.hex_digits``; a ``GStarMap`` is read only once
built, so it formats its hex map at most once.

The pursuit strategy checks its own invariant the same way: after a first
round over every edge, each round re-checks only the edges that the change
since the last state that passed can reach, and a round that changed
nothing returns the answer that passed (``CopsDuplicator``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from .constructions import KLEIN, robber_move, shared_pursuit_graph
from .errors import (
    InvalidParameterError,
    NotInSpanError,
    PreconditionError,
    SearchBudgetError,
    StrategyViolationError,
)
from .gf2 import Gf2Subspace, Gf2Vector, coefficients_in_basis, hex_digits, span_of
from .graphs import SimpleGraph, normalize_edge, vertex_sort_key
from .instances import GroupUgInstance

PEBBLE_BUDGET = 1000  # pebble pairs k of one game
ROUNDS_BUDGET = 10_000  # rounds of one game, each one Duplicator bijection and one transcript entry
SEARCH_BUDGET = 500_000  # simulated placements of one find_winning_line search


def _check_pebbles(k: int) -> None:
    """Before any per-pebble list exists: 1 <= k <= PEBBLE_BUDGET."""
    if not 1 <= k <= PEBBLE_BUDGET:
        raise InvalidParameterError(f"need k in 1..{PEBBLE_BUDGET}, got {k}")


class LiftedStructure:
    """Virtual view of the label lift of a base instance; never materialized."""

    def __init__(self, base: GroupUgInstance) -> None:
        self.base = base
        self._elements = tuple((v, Gf2Vector(g, base.m)) for v in base.vertices for g in range(base.q))

    @cached_property
    def element_set(self) -> FrozenSet[Tuple]:
        """The elements as a set, for membership tests; built on first use."""
        return frozenset(self._elements)

    def universe_size(self) -> int:
        return len(self._elements)

    def elements(self) -> Tuple[Tuple, ...]:
        return self._elements

    def allowed_diffs(self, a: Tuple, b: Tuple) -> FrozenSet[int]:
        """Allowed differences between the lifted vertices a = (u, x) and
        b = (w, y), as int bits: z + x + y for each z in the base bundle on
        (u, w). Empty for two clones of one base vertex and where the base
        has no bundle."""
        (u, x), (w, y) = a, b
        diffs = self.base.diff_bits.get(u, {}).get(w, frozenset())  # no bundle joins u to itself
        shift = x.bits ^ y.bits
        return frozenset(z ^ shift for z in diffs) if shift else diffs


class GStarMap:
    """Map base vertex -> shift as int bits; vertices not mentioned shift by zero.

    Read only once built: ``values`` is a read-only view of a private copy,
    so the hex map is formatted at most once, however often it is asked for.
    """

    def __init__(self, m: int, values: Dict[object, int]) -> None:
        self.m = m
        self.values: Mapping[object, int] = MappingProxyType(dict(values))

    def apply(self, elem: Tuple) -> Tuple:
        v, g = elem
        s = self.values.get(v, 0)
        return (v, Gf2Vector(g.bits ^ s, self.m)) if s else elem

    def fixes(self, a: Tuple, b: Tuple) -> bool:
        """``apply(a) == b``, read on int bits without building the image."""
        s = self.values.get(a[0], 0)
        if not s:
            return a == b
        (v, g), (w, h) = a, b
        return v == w and h.dim == self.m and h.bits == g.bits ^ s

    @cached_property
    def _hex(self) -> Dict[str, str]:
        digits = hex_digits(self.m)
        return {str(v): digits[g] for v, g in self.values.items()}

    def to_hex(self) -> Dict[str, str]:
        return dict(self._hex)


@dataclass
class GameView:
    A: LiftedStructure
    B: LiftedStructure
    k: int
    round_no: int
    pebbles: Tuple[Optional[Tuple], ...]
    picked: Optional[int]


def check_partial_isomorphism(
    A: LiftedStructure, B: LiftedStructure, pairs: Sequence[Tuple], new: Optional[int] = None
) -> bool:
    """True iff the pebbled pairs induce a well-defined injective map that
    preserves allowed-difference sets in both structures.

    By default every two pairs are compared. With ``new``, only the pairs
    that involve ``pairs[new]`` are: the caller vouches that the others
    passed the check together, so the answer is the full check's.

    Sets are compared on int bits. For the pairs ((u, x), (v, y)) and
    ((w, x'), (z, y')), the allowed differences are D_A(u, w) + x + x' and
    D_B(v, z) + y + y', so they agree iff D_A(u, w) equals D_B(v, z) shifted
    by s = x + x' + y + y', whatever the base vertices are: the two sets
    have one size and every shifted member of D_B is in D_A. No set is built.
    """
    if new is None:  # each pair against the ones before it
        return all(check_partial_isomorphism(A, B, pairs[: j + 1], j) for j in range(1, len(pairs)))
    a1, b1 = pairs[new]
    (u, x), (v, y) = a1, b1
    none = frozenset()
    row_a, row_b, s1 = A.base.diff_bits.get(u, {}), B.base.diff_bits.get(v, {}), x.bits ^ y.bits
    for j, (a2, b2) in enumerate(pairs):
        if j == new:
            continue
        if (a1 == a2) != (b1 == b2):
            return False
        if a1 == a2:
            continue
        da = row_a.get(a2[0], none)  # no bundle joins a vertex to itself
        db = row_b.get(b2[0], none)
        if len(da) != len(db):
            return False
        s = s1 ^ a2[1].bits ^ b2[1].bits
        for t in db:
            if t ^ s not in da:
                return False
    return True


def _elem_json(elem: Tuple) -> List:
    v, g = elem
    return [str(v), hex_digits(g.dim)[g.bits]]


def _answer(duplicator, A, B, k: int, round_no: int, pebbles: List[Optional[Tuple]], picked: int):
    """Lift pebble pair ``picked`` and ask for the Duplicator's bijection,
    which must fix every pair still placed; returns (view, bijection)."""
    pebbles[picked] = None
    view = GameView(A, B, k, round_no, tuple(pebbles), picked)
    gstar = duplicator.bijection(view)
    for pair in pebbles:
        if pair is not None and not gstar.fixes(*pair):
            raise StrategyViolationError(
                "bijection moves a placed pebble pair",
                side="duplicator",
                detail={"pair": [_elem_json(pair[0]), _elem_json(pair[1])]},
            )
    return view, gstar


def play_game(
    A: LiftedStructure,
    B: LiftedStructure,
    k: int,
    duplicator,
    spoiler,
    max_rounds: int,
) -> Dict:
    """Run the bijective pebble game; returns a JSON-ready transcript.

    Each round: Spoiler lifts a pebble pair, Duplicator commits to a
    bijection (checked to respect the remaining pairs), Spoiler places the
    lifted pair on (a, f(a)), and the placed pairs are checked for partial
    isomorphism. Spoiler wins on the first failed check. The new pair is
    checked against the pairs still down, which last round's check passed.
    """
    if A.universe_size() != B.universe_size():
        raise PreconditionError("universes differ in size; no bijection exists")
    _check_pebbles(k)
    if max_rounds < 0:
        raise InvalidParameterError(f"need max_rounds >= 0, got {max_rounds}")
    if max_rounds > ROUNDS_BUDGET:
        raise InvalidParameterError(f"need max_rounds <= {ROUNDS_BUDGET}, got {max_rounds}")
    if not A.universe_size():
        raise PreconditionError("the universe is empty; there is no element to place")
    pebbles: List[Optional[Tuple]] = [None] * k
    rounds = []
    winner = None
    valid = A.element_set
    for round_no in range(1, max_rounds + 1):
        view = GameView(A, B, k, round_no, tuple(pebbles), None)
        picked = spoiler.pick_up(view)
        if not 0 <= picked < k:
            raise InvalidParameterError(f"spoiler picked slot {picked} outside 0..{k-1}")
        view, gstar = _answer(duplicator, A, B, k, round_no, pebbles, picked)
        a = spoiler.place(view, gstar)
        if a not in valid:
            raise InvalidParameterError(f"spoiler placed on {a!r}, not a universe element")
        b = gstar.apply(a)
        pebbles[picked] = (a, b)
        pairs = [p for i, p in enumerate(pebbles) if p is not None and i != picked]
        pairs.append((a, b))
        ok = check_partial_isomorphism(A, B, pairs, new=len(pairs) - 1)
        rounds.append(
            {
                "round": round_no,
                "picked": picked,
                "gstar": gstar.to_hex(),
                "placement": {"a": _elem_json(a), "b": _elem_json(b)},
                "ok": ok,
            }
        )
        if not ok:
            winner = "spoiler"
            break
        if hasattr(duplicator, "observe_placement"):
            duplicator.observe_placement(GameView(A, B, k, round_no, tuple(pebbles), picked))
    return {
        "k": k,
        "max_rounds": max_rounds,
        "rounds": rounds,
        "winner": winner,
        "survived": len(rounds) if winner is None else len(rounds) - 1,
    }


# -- spoilers -----------------------------------------------------------------


class RandomSpoiler:
    """Uniform pick-up slot and uniform placement element."""

    def __init__(self, rng) -> None:
        self.rng = rng

    def pick_up(self, view: GameView) -> int:
        return self.rng.randrange(view.k)

    def place(self, view: GameView, gstar: GStarMap) -> Tuple:
        els = view.A.elements()
        return els[self.rng.randrange(len(els))]


def _diff_table(a: GroupUgInstance, b: GroupUgInstance) -> Dict:
    """Per base vertex u, the triples (w, D_A(u, w), D_B(u, w)) for every w
    joined to u by a bundle in either instance, read from the instances'
    ``diff_bits`` (a set is empty where the instance has no bundle)."""
    ta, tb, none = a.diff_bits, b.diff_bits, frozenset()
    table: Dict = {}
    for u in dict.fromkeys([*ta, *tb]):
        ra, rb = ta.get(u, {}), tb.get(u, {})
        table[u] = [(w, ra.get(w, none), rb.get(w, none)) for w in dict.fromkeys([*ra, *rb])]
    return table


def find_winning_line(
    A: LiftedStructure,
    B: LiftedStructure,
    k: int,
    duplicator_factory: Callable[[], object],
    depth: int,
    budget: int = SEARCH_BUDGET,
) -> Optional[List[Tuple]]:
    """Exhaustive Spoiler: DFS over pick-up/placement sequences up to depth
    against a deterministic Duplicator. Returns the first winning move list
    [(slot, element), ...] or None.

    The Duplicator's bijection for a move depends on the prefix and the
    lifted slot, not on the element placed. So for each node and slot a
    fresh duplicator (answering may change its state) replays the prefix
    and answers once, and every placement is tested against that one map.
    A duplicator whose class declares ``stateless = True`` answers from the
    view alone, and answering or observing changes nothing; it is built
    once, at the first question, and asked about the search's own board
    with no replay. On the last level its verdict, the first failing
    element or none, is kept per board after the lift and lifted slot in a
    dict that lives for the call, so each such board is asked about once.
    Empty slots are interchangeable, so only the first empty slot is tried
    alongside the occupied ones. The budget caps simulated placements and
    is checked before the Duplicator is asked.

    Placements are decided per base vertex. ``_answer`` checks that the
    answer g* fixes every pair still placed, so each pair is (a, g*(a)),
    and the new pebble (w, x) goes to (w, x + g*(w)). Against a pebble at
    base vertex u != w, the lifted difference sets are D_A(w, u) + x + y and
    D_B(w, u) + x + y + g*(w) + g*(u) for the pebble's label y, so they
    agree iff D_A(w, u) = D_B(w, u) + g*(w) + g*(u): the label x drops out.
    Against a pebble on w itself both sets are empty, and since g* is a
    bijection the pairs stay well defined. The pairs still placed passed
    the check when their node was reached, and a deterministic Duplicator
    rebuilds them unchanged on replay. So a placement fails iff its base
    vertex is one of the failing vertices, computed once per node and slot
    from int bit tables; on the last level, where nothing recurses, the
    first failing element in ``A.elements()`` order is the line.
    """
    if A.universe_size() != B.universe_size():
        raise PreconditionError("universes differ in size; no bijection exists")
    _check_pebbles(k)
    els = A.elements()
    if not els:  # nothing to place: the Duplicator is never asked
        return None
    first_at: Dict = {}
    for i, (v, _) in enumerate(els):
        first_at.setdefault(v, i)
    diffs = _diff_table(A.base, B.base)
    moves_tried = 0
    shared = None  # a stateless duplicator, kept from the first question on
    verdicts: Dict[Tuple, Optional[int]] = {}  # last level, stateless: (board after the lift, slot) -> hit

    def spend(moves: int) -> None:
        nonlocal moves_tried
        moves_tried += moves
        if moves_tried > budget:
            raise SearchBudgetError(f"winning-line search exceeded {budget} moves")

    def replay(prefix: Sequence[Tuple]):
        """Fresh duplicator driven through the move prefix; prefixes recurse
        only when no check failed, so replays never hit a Spoiler win."""
        dup = duplicator_factory()
        pebbles: List[Optional[Tuple]] = [None] * k
        for rnd, (slot, a) in enumerate(prefix, start=1):
            _, g = _answer(dup, A, B, k, rnd, pebbles, slot)
            pebbles[slot] = (a, g.apply(a))
            if hasattr(dup, "observe_placement"):
                dup.observe_placement(GameView(A, B, k, rnd, tuple(pebbles), slot))
        return dup, pebbles

    def ask(prefix: Sequence[Tuple], pebbles: Sequence[Optional[Tuple]], slot: int):
        """The board after lifting ``slot`` and the Duplicator's answer."""
        nonlocal shared
        if shared is None:
            dup, lifted = replay(prefix)
            if getattr(dup, "stateless", False):
                shared = dup
        else:
            dup, lifted = shared, list(pebbles)
        _, g = _answer(dup, A, B, k, len(prefix) + 1, lifted, slot)
        return lifted, g

    def candidate_slots(pebbles: Sequence[Optional[Tuple]]) -> List[int]:
        slots = [i for i, p in enumerate(pebbles) if p is not None]
        for i, p in enumerate(pebbles):
            if p is None:
                slots.append(i)
                break
        return slots

    def failing_vertices(pebbles: Sequence[Optional[Tuple]], g: GStarMap) -> set:
        """Base vertices w where D_A(w, u) != D_B(w, u) + g*(w) + g*(u) for
        the base vertex u of some placed pebble."""
        bad = set()
        for u in {p[0][0] for p in pebbles if p is not None}:
            su = g.values.get(u, 0)
            for w, da, db in diffs.get(u, ()):
                t = su ^ g.values.get(w, 0)
                if da != (frozenset(z ^ t for z in db) if t else db):
                    bad.add(w)
        return bad

    def first_hit(prefix: List[Tuple], pebbles: Sequence[Optional[Tuple]], slot: int) -> Optional[int]:
        """Last level: the index in ``els`` of the first failing placement
        after lifting ``slot``, or None. A stateless duplicator is asked once
        per key; one dict lookup per visit, as hashing the board is its cost."""
        key = (*pebbles[:slot], None, *pebbles[slot + 1 :], slot)
        hit = verdicts.get(key, -1)  # -1: not asked yet
        if hit != -1:
            return hit
        lifted, g = ask(prefix, pebbles, slot)
        bad = failing_vertices(lifted, g)
        hit = min((first_at[w] for w in bad if w in first_at), default=None)
        if shared is not None:
            verdicts[key] = hit
        return hit

    def rec(prefix: List[Tuple], pebbles: Sequence[Optional[Tuple]]) -> Optional[List[Tuple]]:
        if len(prefix) >= depth:
            return None
        last = len(prefix) + 1 == depth
        for slot in candidate_slots(pebbles):
            spend(1)  # the first placement; an exhausted budget comes before the question
            if last:
                hit = first_hit(prefix, pebbles, slot)
                spend(len(els) - 1 if hit is None else hit)
                if hit is not None:
                    return prefix + [(slot, els[hit])]
                continue
            lifted, g = ask(prefix, pebbles, slot)
            bad = failing_vertices(lifted, g)
            for i, a in enumerate(els):
                if i:
                    spend(1)
                line = prefix + [(slot, a)]
                if a[0] in bad:
                    return line
                child = list(lifted)
                child[slot] = (a, g.apply(a))
                found = rec(line, child)
                if found is not None:
                    return found
        return None

    return rec([], [None] * k)


# -- identity duplicator --------------------------------------------------------


class IdentityDuplicator:
    """Always answers the identity bijection (g* = 0). Stateless: the
    winning-line search builds one and asks it about every board."""

    stateless = True

    def __init__(self, m: int) -> None:
        self.m = m

    def bijection(self, view: GameView) -> GStarMap:
        return GStarMap(self.m, {})


def duplicator_identity(m: int) -> IdentityDuplicator:
    return IdentityDuplicator(m)


# -- 2-pebble strategy -----------------------------------------------------------


class K2Duplicator:
    """Stateless 2-pebble strategy for singleton-bundle pairs on one graph.

    With the single surviving pebble on (x_v0^{g1}, x_v0^{g2}): shift v0 by
    g1+g2; shift each neighbor v by g1+g2+z2+z1, where z1, z2 are the least
    diffs on (v0, v) in the two instances; everything else shifts by zero.
    The offsets z1+z2 are computed once per vertex. The answer depends on
    the view alone (``stateless``), so the winning-line search builds one
    and asks it about every board.
    """

    stateless = True

    def __init__(self, u1: GroupUgInstance, u2: GroupUgInstance) -> None:
        if u1.m != u2.m:
            raise PreconditionError("instances over different groups")
        if u1.vertices != u2.vertices or u1.graph().edges != u2.graph().edges:
            raise PreconditionError("instances must share one base graph")
        self.u1 = u1
        self.u2 = u2
        d2 = u2.diff_bits
        self._offsets = {v: {w: min(d) ^ min(d2[v][w]) for w, d in row.items()} for v, row in u1.diff_bits.items()}

    def bijection(self, view: GameView) -> GStarMap:
        placed = [p for p in view.pebbles if p is not None]
        if len(placed) > 1:
            raise PreconditionError("2-pebble strategy queried with several free pairs")
        if not placed:
            return GStarMap(self.u1.m, {})
        (v0, g1), (v0b, g2) = placed[0]
        if v0 != v0b:
            raise StrategyViolationError(
                "pebble pair spans two base vertices", side="duplicator"
            )
        s = g1.bits ^ g2.bits
        vals = {v0: s, **{w: s ^ z for w, z in self._offsets.get(v0, {}).items()}}
        return GStarMap(self.u1.m, vals)


def duplicator_k2(u1: GroupUgInstance, u2: GroupUgInstance) -> K2Duplicator:
    return K2Duplicator(u1, u2)


# -- pursuit strategy over an edge-colored cubic graph ----------------------------


@lru_cache(maxsize=16)
def _edge_index(g: SimpleGraph) -> Tuple[Dict[Tuple, int], Dict[object, List[int]]]:
    """Each edge's position in ``g.edges``, and the positions of the edges at
    each vertex; shared by every caller: read only."""
    edge_at = {e: i for i, e in enumerate(g.edges)}
    edges_of: Dict[object, List[int]] = {v: [] for v in g.vertices}
    for (u, v), i in edge_at.items():
        edges_of[u].append(i)
        edges_of[v].append(i)
    return edge_at, edges_of


class CopsDuplicator:
    """Stateful strategy: cops are the pebbled base vertices, the robber
    holds the one inconsistent edge, and every robber move adds the color of
    the bystander edge at each interior path vertex to g*.

    Every answer is checked against the invariant: each edge away from the
    robber is consistent, and the robber edge's two diff sets are disjoint.
    The first round checks every edge. Later rounds re-check only what
    changed since the last state that passed: the edges at each vertex
    whose g* differs from that state's, that state's robber edge and the
    current one. Every other edge and its role are as they were when they
    passed, so the answer is the full check's; edges are re-checked in
    ``h.edges`` order, so the first failure is the full check's too. The
    change set is a diff of the state, not the robber's path, so a write
    anywhere is caught. A round that changed nothing returns the answer
    that passed.
    """

    def __init__(
        self,
        u1: GroupUgInstance,
        u2: GroupUgInstance,
        h: SimpleGraph,
        coloring: Dict[Tuple, str],
        star_edge: Tuple,
    ) -> None:
        if u1.vertices != u2.vertices or not u1.graph().edges == u2.graph().edges == h.edges:
            raise PreconditionError("instances do not match the coloring graph")
        # a copy of a built pursuit graph, such as one read from pair.json,
        # gives way to the shared built object once, not in every round
        self.h = shared_pursuit_graph(h)
        self.coloring = coloring
        self.robber = normalize_edge(*star_edge)
        self.gstar: Dict = {v: 0 for v in h.vertices}  # int bits in the Klein group F_2^2
        # per edge (u, v): its diffs in u1, and in u2 shifted by each of the
        # four values of g*(u) + g*(v), built once per distinct u2 bundle
        d1, d2 = u1.diff_bits, u2.diff_bits
        shifts: Dict[FrozenSet[int], Tuple[FrozenSet[int], ...]] = {}
        for u, v in h.edges:
            db = d2[u][v]
            if db not in shifts:
                shifts[db] = tuple(frozenset(z ^ s for z in db) for s in range(4))
        self._edge_diffs = [(e, e[0], e[1], d1[e[0]][e[1]], shifts[d2[e[0]][e[1]]]) for e in h.edges]
        # the last answer whose state passed the check, with its robber edge
        self._passed: Optional[Tuple[GStarMap, Tuple]] = None

    def bijection(self, view: GameView) -> GStarMap:
        cops = {p[0][0] for p in view.pebbles if p is not None}
        if self.robber[0] in cops and self.robber[1] in cops:
            raise StrategyViolationError(
                "robber edge is fully pebbled", side="duplicator",
                detail={"robber": list(self.robber)},
            )
        path = robber_move(self.h, cops, self.robber)
        if path:
            for j in range(1, len(path) - 1):
                others = [w for w in self.h.neighbors(path[j]) if w not in (path[j - 1], path[j + 1])]
                if len(others) != 1:
                    raise StrategyViolationError(
                        "interior path vertex is not cubic", side="duplicator",
                        detail={"vertex": str(path[j])},
                    )
                e_j = normalize_edge(path[j], others[0])
                self.gstar[path[j]] ^= KLEIN[self.coloring[e_j]]
            self.robber = normalize_edge(path[-2], path[-1])
        return self._checked_answer()

    def _checked_answer(self) -> GStarMap:
        if self._passed is None:  # first round: fetch the edge index, check every edge
            self._index = _edge_index(self.h)
            self._assert_invariant()
        else:
            answer, robber = self._passed
            if robber == self.robber and answer.values == self.gstar:
                return answer
            edge_at, edges_of = self._index
            moved = self.gstar.items() ^ answer.values.items()
            again = {i for v, _ in moved for i in edges_of.get(v, ())}
            again.update(edge_at[e] for e in (robber, self.robber) if e in edge_at)
            self._assert_invariant(sorted(again))
        answer = GStarMap(2, self.gstar)
        self._passed = (answer, self.robber)
        return answer

    def _assert_invariant(self, edges: Optional[Sequence[int]] = None) -> None:
        """Check the edges of the given positions in ``h.edges``, all by default."""
        gstar, robber, table = self.gstar, self.robber, self._edge_diffs
        for e, u, v, d1, shifted in table if edges is None else map(table.__getitem__, edges):
            d2 = shifted[gstar[u] ^ gstar[v]]
            if e == robber:
                if not d1.isdisjoint(d2):
                    raise StrategyViolationError(
                        "robber edge diff sets are not disjoint", side="duplicator",
                        detail={"edge": [str(x) for x in e]},
                    )
            elif d1 != d2:
                raise StrategyViolationError(
                    "edge away from the robber lost consistency", side="duplicator",
                    detail={"edge": [str(x) for x in e]},
                )


def duplicator_cops(
    u1: GroupUgInstance,
    u2: GroupUgInstance,
    h: SimpleGraph,
    coloring: Dict[Tuple, str],
    star_edge: Tuple,
) -> CopsDuplicator:
    return CopsDuplicator(u1, u2, h, coloring, star_edge)


# -- tree strategy for the random pair ----------------------------------------------


def extend_along_path(
    path: Sequence,
    g_start: Gf2Vector,
    g_end: Gf2Vector,
    zmap: Dict[Tuple, Gf2Subspace],
    bmap: Dict[Tuple, Gf2Vector],
) -> Dict:
    """Interior g* values making every path edge consistent with both
    endpoints pinned; needs the union of the edge subspaces to span.

    Writing the required total shift over a basis drawn from the edge
    subspaces and folding each basis vector into its own edge's step makes
    the per-edge condition b(e) + g*(v1) + g*(v2) in Z(e) hold by
    construction, and the steps telescope to g_end exactly.
    """
    if len(path) < 2:
        raise InvalidParameterError("path needs at least one edge")
    m = g_start.dim
    edges = [normalize_edge(a, b) for a, b in zip(path, path[1:])]
    tagged = [(i, z) for i, e in enumerate(edges) for z in zmap[e].basis]
    pool = [z for _, z in tagged]
    if span_of(pool, m).rank < m:
        raise NotInSpanError("edge subspaces along the path do not span")
    deltas = [bmap[e].bits for e in edges]
    target = g_start.bits ^ g_end.bits
    for d in deltas:
        target ^= d
    for (i, z), c in zip(tagged, coefficients_in_basis(Gf2Vector(target, m), pool)):
        if c:
            deltas[i] ^= z.bits
    out: Dict = {}
    cur = g_start.bits
    for i, d in enumerate(deltas):
        cur ^= d
        if i < len(edges) - 1:
            out[path[i + 1]] = Gf2Vector(cur, m)
    if cur != g_end.bits:
        raise StrategyViolationError("path extension missed its endpoint", side="duplicator")
    return out


@lru_cache(maxsize=16)
def _path_table(g: SimpleGraph) -> Tuple[Dict, Tuple[Tuple[Optional[int], ...], ...]]:
    """Vertex ranks in ``g.vertices`` order, and the lex-least shortest paths
    between all vertex pairs of ``g``.

    Entry [i][j] is the path between the vertices of ranks i and j in
    ``g.vertices`` order, as a bitmask over edge indices in ``g.edges``
    order, or None when they are disconnected. The path between u < w walks
    back from w along least-ranked predecessors of a BFS from u, so both
    entries of a pair hold that one path.
    """
    rank = {v: i for i, v in enumerate(g.vertices)}
    bit = {e: 1 << i for i, e in enumerate(g.edges)}
    n = len(g.vertices)
    table: List[List[Optional[int]]] = [[None] * n for _ in range(n)]
    for i, src in enumerate(g.vertices):
        dist = g.bfs_distances(src)
        row = table[i]
        row[i] = 0
        for w in dist:  # BFS order: predecessors come first
            if w == src:
                continue
            pred = next(x for x in g.neighbors(w) if dist.get(x, -1) == dist[w] - 1)
            row[rank[w]] = row[rank[pred]] | bit[normalize_edge(pred, w)]
    for i in range(n):
        for j in range(i):
            table[i][j] = table[j][i]
    return rank, tuple(map(tuple, table))  # shared by every caller: read only


def _smaller(a: int, b: Optional[int]) -> bool:
    """Order of edge sets as bitmasks: fewer edges first, then the sorted
    edge tuples lexicographically, whose first difference is the lowest
    edge index held by exactly one of the two sets."""
    if b is None:
        return True
    na, nb = a.bit_count(), b.bit_count()
    if na != nb:
        return na < nb
    x = a ^ b
    return bool(x & -x & a)


def steiner_tree(g: SimpleGraph, terminals: Sequence) -> Dict:
    """Map each vertex v joined to the terminals to the edge set of a minimum
    tree spanning the terminals and v, deterministic under ties; no terminals
    map every vertex to the empty tree.

    Each edge set is an int bitmask over ``g.edges``: bit i stands for
    ``g.edges[i]``. One Dreyfus-Wagner subset DP over the terminals in rank
    order merges lex-least shortest paths from a per-graph table, ordering
    trees by (size, sorted edges); v's tree is the last layer read at v.
    """
    terms = sorted(set(terminals), key=vertex_sort_key)
    rank, table = _path_table(g)
    for t in terms:
        if t not in rank:
            raise PreconditionError(f"terminal {t!r} is not a vertex of the graph")
    ids = [rank[t] for t in terms]
    n = len(table)
    dp: Dict[int, Sequence[Optional[int]]] = {0: [0] * n}
    dp.update((1 << i, table[t]) for i, t in enumerate(ids))
    full = (1 << len(ids)) - 1
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        layer: List[Optional[int]] = [None] * n
        sub = (mask - 1) & mask
        while sub:
            rest = mask ^ sub
            if sub < rest:  # each split once
                for v, (a, b) in enumerate(zip(dp[sub], dp[rest])):
                    if a is not None and b is not None and _smaller(a | b, layer[v]):
                        layer[v] = a | b
            sub = (sub - 1) & mask
        # grow: attach a shortest path from the best-connected vertex
        changed = True
        while changed:
            changed = False
            for v in range(n):
                row = table[v]
                for w in range(n):
                    src = layer[w]
                    if src is None or v == w or row[w] is None:
                        continue
                    cand = src | row[w]
                    if _smaller(cand, layer[v]):
                        layer[v] = cand
                        changed = True
        dp[mask] = layer
    if any(dp[full][t] is None for t in ids):
        raise PreconditionError(f"terminals are not all connected: {terms!r} span disconnected components")
    return {v: tree for v, tree in zip(g.vertices, dp[full]) if tree is not None}


def _bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class TreeDuplicator:
    """Strategy for the random pair: per candidate placement u, take the
    minimal tree spanning u and the pebbled vertices of its component (one
    ``steiner_tree`` call per component and round yields every u's tree),
    reuse last round's values where the trees overlap, propagate across short
    new segments, and solve long ones exactly; the bijection reads each
    vertex's value from its own tree."""

    def __init__(
        self,
        u1: GroupUgInstance,
        u2: GroupUgInstance,
        zmap: Dict[Tuple, Gf2Subspace],
        bmap: Dict[Tuple, Gf2Vector],
        r: int,
    ) -> None:
        if u1.vertices != u2.vertices or u1.graph().edges != u2.graph().edges:
            raise PreconditionError("instances must share one base graph")
        self.m = u1.m
        self.r = r
        self.graph = u1.graph()
        self.zmap = {e: zmap[e] for e in self.graph.edges}
        self.bmap = {e: bmap[e] for e in self.graph.edges}
        # the same edge data as int bits: each subspace's members, each offset
        self.zbits = {e: frozenset(z.element_bits()) for e, z in self.zmap.items()}
        self.bbits = {e: b.bits for e, b in self.bmap.items()}
        self.comp_of: Dict = {}
        for comp in self.graph.components():
            for v in comp:
                self.comp_of[v] = comp[0]
        # per component: (edge mask of the stored tree, int values on its vertices)
        self.state: Dict = {}
        self._round_trees: Dict = {}
        self._extended: Dict = {}  # this round's long-segment solutions, by (segment, start, end)

    # ---- per-round construction

    def bijection(self, view: GameView) -> GStarMap:
        pebbled: Dict = {}
        for pair in view.pebbles:
            if pair is None:
                continue
            (v, ga), (vb, gb) = pair
            if v != vb:
                raise StrategyViolationError(
                    "pebble pair spans two base vertices", side="duplicator"
                )
            pebbled[v] = ga.bits ^ gb.bits
        trees = {
            root: steiner_tree(self.graph, [v for v in pebbled if self.comp_of[v] == root])
            for root in dict.fromkeys(self.comp_of.values())
        }
        rank = _path_table(self.graph)[0]
        self._round_trees = {}
        self._extended = {}
        values: Dict = {}
        for u in self.graph.vertices:
            tree, vals = self._tree_for(u, trees[self.comp_of[u]][u], pebbled, rank)
            self._round_trees[u] = (tree, vals)
            values[u] = vals[u]
            self._assert_tree(u, tree, vals, pebbled)
        return GStarMap(self.m, values)

    def observe_placement(self, view: GameView) -> None:
        pair = view.pebbles[view.picked]
        if pair is None:
            return
        u_star = pair[0][0]
        self.state[self.comp_of[u_star]] = self._round_trees[u_star]

    def _tree_for(self, u, tree: int, pebbled: Dict, rank: Dict) -> Tuple[int, Dict]:
        comp = self.comp_of[u]
        prev, prev_vals = self.state.get(comp, (0, {}))
        edges = self.graph.edges
        deg = Counter(v for i in _bit_indices(tree) for v in edges[i])
        tree_vertices = {u, *deg}
        vals = {v: prev_vals[v] for v in tree_vertices if v in prev_vals}
        marked = {v for v in pebbled if self.comp_of[v] == comp} | {u}
        marked.update(v for v, d in deg.items() if d >= 3)
        marked.update(vals)
        short, long_segs = 0, []
        for seg, seg_mask in _split_segments(edges, tree & ~prev, marked, rank):
            if len(seg) - 1 < self.r:
                short |= seg_mask
            else:
                long_segs.append(seg)
        self._fill_short(short, vals, rank)
        for seg in long_segs:
            key = (tuple(seg), vals.setdefault(seg[0], 0), vals.setdefault(seg[-1], 0))
            if key not in self._extended:
                ends = (Gf2Vector(g, self.m) for g in key[1:])
                got = extend_along_path(seg, *ends, self.zmap, self.bmap)
                self._extended[key] = {v: g.bits for v, g in got.items()}
            vals.update(self._extended[key])
        vals.setdefault(u, 0)
        for v in tree_vertices:
            if v not in vals:
                raise StrategyViolationError(
                    "tree vertex left undefined", side="duplicator", detail={"vertex": str(v)}
                )
        return tree, vals

    def _fill_short(self, mask: int, vals: Dict, rank: Dict) -> None:
        """The proof's while-loop over the short segments' edges ``mask``:
        propagate across one-defined edges, else seed the least undefined
        vertex with zero; afterwards check every closed edge (a short segment
        both of whose ends arrived with values can only close consistently at
        theorem-scale girth)."""
        edges = [self.graph.edges[i] for i in _bit_indices(mask)]
        vertices = sorted({v for e in edges for v in e}, key=rank.__getitem__)
        pending = set(edges)
        while True:
            progressed = False
            for e in edges:
                if e not in pending:
                    continue
                d0, d1 = e[0] in vals, e[1] in vals
                if d0 and d1:
                    continue
                if d0 or d1:
                    src, dst = (e[0], e[1]) if d0 else (e[1], e[0])
                    vals[dst] = vals[src] ^ self.bbits[e]
                    pending.discard(e)
                    progressed = True
                    break
            if progressed:
                continue
            undefined = [v for v in vertices if v not in vals]
            if not undefined:
                break
            vals[undefined[0]] = 0
        for e in edges:  # edges that closed with both ends already valued
            if e in pending and self.bbits[e] ^ vals[e[0]] ^ vals[e[1]] not in self.zbits[e]:
                raise StrategyViolationError(
                    "a short segment closed inconsistently (girth too small for the bound)",
                    side="duplicator",
                    detail={"edge": [str(x) for x in e]},
                )

    def _assert_tree(self, u, tree: int, vals: Dict, pebbled: Dict) -> None:
        for v, s in pebbled.items():
            if self.comp_of[v] == self.comp_of[u] and vals.get(v) != s:
                raise StrategyViolationError(
                    "pebbled vertex value drifted", side="duplicator",
                    detail={"vertex": str(v), "anchor": str(u)},
                )
        for i in _bit_indices(tree):
            e = self.graph.edges[i]
            if self.bbits[e] ^ vals[e[0]] ^ vals[e[1]] not in self.zbits[e]:
                raise StrategyViolationError(
                    "tree edge inconsistent with its bundle", side="duplicator",
                    detail={"edge": [str(x) for x in e], "anchor": str(u)},
                )


def _split_segments(edges: Sequence[Tuple], new: int, marked: set, rank: Dict) -> List[Tuple[List, int]]:
    """Decompose a forest of fresh tree edges, a bitmask over a graph's
    ``edges``, into paths with unmarked interiors, each with its edge mask;
    every leaf of the forest is marked, so the walk always ends. Adjacency is
    filled in edge order, hence vertex order; marked vertices go by ``rank``."""
    adj: Dict = {}
    for i in _bit_indices(new):
        a, b = edges[i]
        adj.setdefault(a, []).append((b, 1 << i))
        adj.setdefault(b, []).append((a, 1 << i))
    seen = 0
    segments = []
    for mv in sorted((v for v in adj if v in marked), key=rank.__getitem__):
        for w, bit in adj[mv]:
            if seen & bit:
                continue
            seen |= bit
            seg, seg_mask = [mv, w], bit
            while seg[-1] not in marked:
                nxt = [(x, b) for x, b in adj[seg[-1]] if not seen & b]
                if len(nxt) != 1:
                    raise StrategyViolationError(
                        "segment interior is not a simple chain", side="duplicator"
                    )
                x, step = nxt[0]
                seen |= step
                seg_mask |= step
                seg.append(x)
            segments.append((seg, seg_mask))
    if seen != new:
        raise StrategyViolationError("new tree edges contain an unmarked cycle", side="duplicator")
    return segments


def duplicator_tree(pair) -> TreeDuplicator:
    """Strategy over the good-edge restriction of a random pair."""
    return TreeDuplicator(pair.u1, pair.u2, pair.zmap, pair.bmap, pair.params.r)


__all__ = [
    "LiftedStructure",
    "GStarMap",
    "GameView",
    "check_partial_isomorphism",
    "play_game",
    "RandomSpoiler",
    "find_winning_line",
    "IdentityDuplicator",
    "duplicator_identity",
    "K2Duplicator",
    "duplicator_k2",
    "CopsDuplicator",
    "duplicator_cops",
    "extend_along_path",
    "steiner_tree",
    "TreeDuplicator",
    "duplicator_tree",
]
