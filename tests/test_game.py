"""Pebble game engine, strategies, and the tree machinery underneath."""

from __future__ import annotations

import functools
import hashlib
import json
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab.constructions import (
    ParamSet,
    cops_robbers_graph,
    cubic_edge_coloring,
    k4_klein_inputs,
    klein_pair,
    random_inapprox_pair,
)
from uglab.errors import (
    InvalidParameterError,
    NotInSpanError,
    PreconditionError,
    SearchBudgetError,
    StrategyViolationError,
)
from uglab.game import (
    ROUNDS_BUDGET,
    GameView,
    _diff_table,
    _elem_json,
    GStarMap,
    K2Duplicator,
    LiftedStructure,
    RandomSpoiler,
    check_partial_isomorphism,
    duplicator_cops,
    duplicator_identity,
    duplicator_k2,
    duplicator_tree,
    extend_along_path,
    find_winning_line,
    play_game,
    steiner_tree,
)
from uglab.gf2 import HEX_TABLE_DIM, Gf2Subspace, Gf2Vector, hex_digits, random_subspace, random_vector, span_of
from uglab.graphs import SimpleGraph, cycle_graph, normalize_edge, petersen_graph, vertex_sort_key
from uglab.instances import GroupUgInstance

from fractions import Fraction


def diffs_on(inst, u, w):
    """The differences of the bundle on {u, w}, read from ``inst.bundles``; () where none."""
    return next((diffs for a, b, diffs in inst.bundles if {a, b} == {u, w}), ())


def klein_lifts():
    g, coloring, star = k4_klein_inputs()
    u1, u2 = klein_pair(g, coloring, star)
    return u1, u2, LiftedStructure(u1), LiftedStructure(u2), g, coloring, star


def test_lifted_structure_basics():
    u1, _, A, _, _, _, _ = klein_lifts()
    assert A.universe_size() == 16
    els = A.elements()
    assert len(set(els)) == 16
    assert ("v1", Gf2Vector(3, 2)) in els
    assert ("v9", Gf2Vector(0, 2)) not in els
    a = ("v1", Gf2Vector(1, 2))
    b = ("v2", Gf2Vector(2, 2))
    assert A.allowed_diffs(a, b) == {z.bits ^ 1 ^ 2 for z in diffs_on(u1, "v1", "v2")} != set()
    assert A.allowed_diffs(a, ("v1", Gf2Vector(2, 2))) == frozenset()  # clones of one vertex
    assert A.allowed_diffs(a, ("v9", Gf2Vector(2, 2))) == frozenset()  # a vertex the base lacks


def test_gstar_map():
    # shifts are held as int bits; labels go in and come out as Gf2Vector
    g = GStarMap(2, {"x": 3})
    assert g.apply(("x", Gf2Vector(1, 2))) == ("x", Gf2Vector(2, 2))
    assert g.apply(("y", Gf2Vector(1, 2))) == ("y", Gf2Vector(1, 2))
    assert g.values == {"x": 3}
    assert g.to_hex() == {"x": "3"}
    assert GStarMap(5, {"x": 17, "y": 0}).to_hex() == {"x": "11", "y": "00"}


@pytest.mark.parametrize("m", sorted({1, 2, 3, 4, 8, 9, 16, 64, HEX_TABLE_DIM, HEX_TABLE_DIM + 1}))
def test_transcript_hex_digits_match_format(m):
    # table lookups up to HEX_TABLE_DIM, format above; both must read as format does
    spec = f"0{(m + 3) // 4}x"
    top = (1 << m) - 1
    values = sorted({0, 1, top // 3, top - 1, top})
    assert GStarMap(m, {f"v{g}": g for g in values}).to_hex() == {f"v{g}": format(g, spec) for g in values}
    for g in values:
        assert _elem_json(("v", Gf2Vector(g, m))) == ["v", format(g, spec)] == ["v", Gf2Vector(g, m).to_hex()]
    assert len(hex_digits(m)) == (1 << m if m <= HEX_TABLE_DIM else 0)  # never 2^m strings above the bound


def test_transcript_placements_above_the_hex_table_bound():
    m = HEX_TABLE_DIM + 1
    A = LiftedStructure(GroupUgInstance(m, ["v"], []))
    t = play_game(A, A, 2, duplicator_identity(m), RandomSpoiler(random.Random(0)), 5)
    for r in t["rounds"]:
        (_, ga), (_, gb) = r["placement"]["a"], r["placement"]["b"]
        assert len(ga) == len(gb) == (m + 3) // 4 and ga == gb


def reference_partial_isomorphism(A, B, pairs):
    """Every two pairs through ``allowed_diffs``: the referee's definition."""
    for i in range(len(pairs)):
        a1, b1 = pairs[i]
        for j in range(i + 1, len(pairs)):
            a2, b2 = pairs[j]
            if (a1 == a2) != (b1 == b2):
                return False
            if a1 != a2 and A.allowed_diffs(a1, a2) != B.allowed_diffs(b1, b2):
                return False
    return True


@st.composite
def referee_boards(draw):
    """Instances over F_2^m (m <= 3) on n <= 6 vertices, the second either
    drawn on its own or the first moved by a vertex permutation pi and
    shifted by a random g*, with at most one edge re-drawn; and a board of
    pebble pairs, each ((v, x), (pi(v), x + g*(v))), or on v with any label,
    or on any element at all."""
    m = draw(st.integers(1, 3))
    vs = list(range(draw(st.integers(1, 6))))
    label = st.integers(0, (1 << m) - 1)
    bundle = st.lists(label, min_size=1, max_size=1 << m, unique=True)
    possible = [(a, b) for a in vs for b in vs if a < b]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    b1 = {e: draw(bundle) for e in edges}
    gs = [draw(label) for _ in vs]
    pi = draw(st.one_of(st.just(vs), st.permutations(vs)))
    if draw(st.booleans()):
        b2 = {tuple(sorted((pi[u], pi[w]))): [z ^ gs[u] ^ gs[w] for z in b1[(u, w)]] for u, w in edges}
        if b2 and draw(st.booleans()):
            b2[draw(st.sampled_from(sorted(b2)))] = draw(bundle)
    else:
        b2 = {e: draw(bundle) for e in draw(st.lists(st.sampled_from(edges), unique=True))} if edges else {}

    def lifted(bundles):
        inst = GroupUgInstance(m, vs, [(u, w, [Gf2Vector(z, m) for z in zs]) for (u, w), zs in bundles.items()])
        return LiftedStructure(inst)

    def pair():
        v, x = draw(st.sampled_from(vs)), draw(label)
        how = draw(st.sampled_from(["shift", "same vertex", "any"]))
        if how == "shift":
            w, y = pi[v], x ^ gs[v]
        else:
            w, y = v if how == "same vertex" else draw(st.sampled_from(vs)), draw(label)
        return (v, Gf2Vector(x, m)), (w, Gf2Vector(y, m))

    return lifted(b1), lifted(b2), [pair() for _ in range(draw(st.integers(1, 5)))]


@settings(max_examples=300, deadline=None)
@given(referee_boards())
def test_referee_matches_the_allowed_diffs_reference(case):
    A, B, pairs = case
    want = reference_partial_isomorphism(A, B, pairs)
    assert check_partial_isomorphism(A, B, pairs) == want
    for j in range(len(pairs)):  # the new pair alone decides once the others agree
        if reference_partial_isomorphism(A, B, pairs[:j] + pairs[j + 1:]):
            assert check_partial_isomorphism(A, B, pairs, new=j) == want


def test_partial_isomorphism_identity_pairs():
    _, _, A, _, _, _, _ = klein_lifts()
    els = A.elements()
    pairs = [(els[0], els[0]), (els[5], els[5]), (els[9], els[9])]
    assert check_partial_isomorphism(A, A, pairs)


def test_partial_isomorphism_star_pinned():
    _, _, A, B, _, _, star = klein_lifts()
    zero = Gf2Vector.zero(2)
    pairs = [
        ((star[0], zero), (star[0], zero)),
        ((star[1], zero), (star[1], zero)),
    ]
    assert not check_partial_isomorphism(A, B, pairs)


def test_partial_isomorphism_well_defined():
    _, _, A, _, _, _, _ = klein_lifts()
    a = ("v1", Gf2Vector(0, 2))
    b = ("v1", Gf2Vector(1, 2))
    assert not check_partial_isomorphism(A, A, [(a, a), (a, b)])
    assert not check_partial_isomorphism(A, A, [(a, b), (b, b)])


def test_play_game_identity_on_self():
    u1, _, A, _, _, _, _ = klein_lifts()
    t = play_game(A, A, 3, duplicator_identity(2), RandomSpoiler(random.Random(5)), 40)
    assert t["winner"] is None
    assert t["survived"] == 40
    assert len(t["rounds"]) == 40
    json.dumps(t)  # transcript must be serializable
    r = t["rounds"][0]
    assert set(r) == {"round", "picked", "gstar", "placement", "ok"}


def test_play_game_size_mismatch():
    _, _, A, _, _, _, _ = klein_lifts()
    small = LiftedStructure(GroupUgInstance(2, ["w"], []))
    with pytest.raises(PreconditionError):
        play_game(A, small, 2, duplicator_identity(2), RandomSpoiler(random.Random(0)), 5)
    # the lifted twisted C5 (20 elements) against a lifted C4 (16): both
    # refuse, and the search before its duplicator factory runs
    u1, _ = twisted_c5(0)
    c4 = GroupUgInstance(2, range(4), [(u, v, [Gf2Vector.zero(2)]) for u, v in cycle_graph(4).edges])
    A, B = LiftedStructure(u1), LiftedStructure(c4)
    built = []
    message = "^universes differ in size; no bijection exists$"
    with pytest.raises(PreconditionError, match=message):
        play_game(A, B, 2, duplicator_identity(2), RandomSpoiler(random.Random(0)), 5)
    with pytest.raises(PreconditionError, match=message):
        find_winning_line(A, B, 2, lambda: built.append(1) or duplicator_identity(2), depth=3)
    assert built == []


def test_play_game_rejects_an_empty_universe_and_negative_rounds():
    empty = LiftedStructure(GroupUgInstance(2, [], []))
    with pytest.raises(PreconditionError, match="universe is empty"):
        play_game(empty, empty, 2, duplicator_identity(2), RandomSpoiler(random.Random(0)), 5)
    _, _, A, _, _, _, _ = klein_lifts()
    with pytest.raises(InvalidParameterError, match="max_rounds >= 0"):
        play_game(A, A, 2, duplicator_identity(2), RandomSpoiler(random.Random(0)), -4)
    assert play_game(A, A, 2, duplicator_identity(2), RandomSpoiler(random.Random(0)), 0)["rounds"] == []


def test_play_game_with_one_pebble_pair():
    _, _, A, _, _, _, _ = klein_lifts()
    t = play_game(A, A, 1, duplicator_identity(2), RandomSpoiler(random.Random(3)), 6)
    assert t["winner"] is None and t["survived"] == 6
    assert [r["picked"] for r in t["rounds"]] == [0] * 6


def test_play_game_rejects_a_spoiler_slot_past_k():
    _, _, A, _, _, _, _ = klein_lifts()

    class PastTheEnd(RandomSpoiler):
        def pick_up(self, view):
            return view.k

    with pytest.raises(InvalidParameterError, match=r"spoiler picked slot 2 outside 0\.\.1"):
        play_game(A, A, 2, duplicator_identity(2), PastTheEnd(random.Random(0)), 3)


def test_rounds_budget_is_checked_before_round_one():
    _, _, A, _, _, _, _ = klein_lifts()

    class Started(Exception):
        pass

    class StopAtRoundOne(RandomSpoiler):
        def pick_up(self, view):
            raise Started

    with pytest.raises(InvalidParameterError, match=f"need max_rounds <= {ROUNDS_BUDGET}, got {ROUNDS_BUDGET + 1}"):
        play_game(A, A, 2, duplicator_identity(2), StopAtRoundOne(random.Random(0)), ROUNDS_BUDGET + 1)
    with pytest.raises(Started):  # the cap itself is allowed: round 1 begins
        play_game(A, A, 2, duplicator_identity(2), StopAtRoundOne(random.Random(0)), ROUNDS_BUDGET)
    assert ROUNDS_BUDGET >= 200  # the largest --rounds of the README and its CI pipelines


def test_identity_duplicator_loses_on_the_pair():
    _, _, A, B, _, _, _ = klein_lifts()
    line = find_winning_line(A, B, 2, lambda: duplicator_identity(2), depth=2)
    assert line is not None
    assert len(line) <= 2


def test_k2_duplicator_survives_exhaustive_depth3():
    u1, u2, A, B, _, _, _ = klein_lifts()
    line = find_winning_line(A, B, 2, lambda: duplicator_k2(u1, u2), depth=3)
    assert line is None


def singleton_pair():
    vs = ["a", "b", "c", "d"]
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
    zero = Gf2Vector.zero(2)
    diffs = [Gf2Vector(1, 2), Gf2Vector(2, 2), Gf2Vector(3, 2), Gf2Vector(1, 2)]
    u2 = GroupUgInstance(2, vs, [(u, v, [z]) for (u, v), z in zip(edges, diffs)])
    u1 = GroupUgInstance(2, vs, [(u, v, [zero]) for u, v in edges])
    return u1, u2


def test_k2_duplicator_on_singleton_twin():
    u1, u2 = singleton_pair()
    A, B = LiftedStructure(u1), LiftedStructure(u2)
    assert find_winning_line(A, B, 2, lambda: duplicator_k2(u1, u2), depth=3) is None
    assert find_winning_line(A, B, 2, lambda: duplicator_identity(2), depth=2) is not None


def twisted_c5(seed):
    """C5 with zero bundles, and a copy where one random edge carries a
    random nonzero difference, so no shift aligns the two."""
    rng = random.Random(seed)
    base = cycle_graph(5)
    zero = Gf2Vector.zero(2)
    twist = base.edges[rng.randrange(5)]
    z = Gf2Vector(rng.randrange(1, 4), 2)
    u1 = GroupUgInstance(2, base.vertices, [(u, v, [zero]) for u, v in base.edges])
    u2 = GroupUgInstance(2, base.vertices, [(u, v, [z if (u, v) == twist else zero]) for u, v in base.edges])
    return u1, u2


@pytest.mark.parametrize("seed, identity_line", [
    (0, [(0, 0), (0, 2), (1, 3)]),
    (2, [(0, 0), (0, 0), (1, 1)]),
    (5, [(0, 0), (0, 3), (1, 4)]),
])
def test_winning_lines_on_twisted_c5_are_pinned(seed, identity_line):
    # depth-3 searches, as in the benchmark: K2 holds, and identity loses on
    # the line recorded before the game layer moved to int labels
    u1, u2 = twisted_c5(seed)
    A, B = LiftedStructure(u1), LiftedStructure(u2)
    assert find_winning_line(A, B, 2, lambda: duplicator_k2(u1, u2), depth=3) is None
    line = find_winning_line(A, B, 2, lambda: duplicator_identity(2), depth=3)
    assert line == [(slot, (v, Gf2Vector.zero(2))) for slot, v in identity_line]


def test_stateless_search_builds_one_duplicator_and_asks_once_per_board():
    # the benchmark's depth-3 search: K2 holds on twisted_c5(0), so the whole
    # tree is explored. The duplicator is built once and asked once per
    # (node, slot) above the last level, and once per distinct board after
    # the lift and lifted slot on it; both counts come from a walk of the tree
    u1, u2 = twisted_c5(0)
    A, B = LiftedStructure(u1), LiftedStructure(u2)
    built, asked = [], []

    class Counted(K2Duplicator):
        def bijection(self, view):
            asked.append(view)
            return super().bijection(view)

    def factory():
        built.append(1)
        return Counted(u1, u2)

    assert find_winning_line(A, B, 2, factory, depth=3) is None
    k2, above, boards = duplicator_k2(u1, u2), [], set()

    def walk(board, rnd):
        occupied = [i for i, p in enumerate(board) if p is not None]
        for slot in occupied + [i for i, p in enumerate(board) if p is None][:1]:
            lifted = list(board)
            lifted[slot] = None
            if rnd == 3:
                boards.add((tuple(lifted), slot))
                continue
            above.append(slot)
            g = k2.bijection(GameView(A, B, 2, rnd, tuple(lifted), slot))
            for a in A.elements():
                child = list(lifted)
                child[slot] = (a, g.apply(a))
                walk(child, rnd + 1)

    walk([None, None], 1)
    assert len(built) == 1
    assert len(asked) == len(above) + len(boards)


@st.composite
def pairs_over_one_graph(draw):
    """Two instances over F_2^m, m in 1..3, on one edge set of vertices 0..n-1
    plus an isolated vertex "iso", with bundles of any size; and a third on
    an edge set of its own."""
    m = draw(st.integers(1, 3))
    vs = list(range(draw(st.integers(2, 5)))) + ["iso"]
    pairs = [(a, b) for a in vs[:-1] for b in vs[:-1] if a < b]
    edge_sets = st.lists(st.sampled_from(pairs), unique=True)
    bundle = st.lists(st.integers(0, (1 << m) - 1).map(lambda b: Gf2Vector(b, m)), min_size=1, max_size=1 << m, unique=True)

    def instance(edges):
        return GroupUgInstance(m, vs, [(u, v, draw(bundle)) for u, v in edges])

    edges = draw(edge_sets)
    return instance(edges), instance(edges), instance(draw(edge_sets))


@settings(max_examples=60, deadline=None)
@given(pairs_over_one_graph())
def test_int_tables_match_the_gf2vector_definitions(case):
    u1, u2, u3 = case
    A, B = LiftedStructure(u1), LiftedStructure(u2)
    els = A.elements()
    for a in els:
        for b in els:
            want = set() if a[0] == b[0] else {(z + a[1] + b[1]).bits for z in diffs_on(u1, a[0], b[0])}
            assert A.allowed_diffs(a, b) == want
    for x, y in ((u1, u2), (u1, u3)):
        got = {u: {w: (da, db) for w, da, db in row} for u, row in _diff_table(x, y).items()}
        assert all(len(got[u]) == len(row) for u, row in _diff_table(x, y).items())
        want = {
            u: {
                w: (frozenset(z.bits for z in diffs_on(x, u, w)), frozenset(z.bits for z in diffs_on(y, u, w)))
                for w in x.vertices
                if w != u and (diffs_on(x, u, w) or diffs_on(y, u, w))
            }
            for u in x.vertices
        }
        assert got == want
    dup = duplicator_k2(u1, u2)
    for v0, g1 in els:
        for g2 in (Gf2Vector(b, u1.m) for b in range(u1.q)):
            view = GameView(A, B, 2, 2, (((v0, g1), (v0, g2)), None), 1)
            want = {v0: g1 + g2}
            for w in u1.vertices:
                if w != v0 and diffs_on(u1, v0, w):
                    want[w] = g1 + g2 + diffs_on(u1, v0, w)[0] + diffs_on(u2, v0, w)[0]
            assert dup.bijection(view).values == {v: g.bits for v, g in want.items()}


def test_k2_duplicator_validation():
    u1, u2 = singleton_pair()
    other = GroupUgInstance(2, ["a", "b"], [("a", "b", [Gf2Vector(0, 2)])])
    with pytest.raises(PreconditionError):
        duplicator_k2(u1, other)


class _CheatingDuplicator:
    """Shifts a pebbled vertex on round two; the engine must object."""

    def __init__(self):
        self.calls = 0

    def bijection(self, view):
        self.calls += 1
        if self.calls == 1:
            return GStarMap(2, {})
        placed = [p for p in view.pebbles if p is not None]
        if not placed:
            return GStarMap(2, {})
        v = placed[0][0][0]
        return GStarMap(2, {v: 1})


class _StubbornSpoiler:
    def __init__(self, element):
        self.element = element

    def pick_up(self, view):
        for i, p in enumerate(view.pebbles):
            if p is None:
                return i
        return 0

    def place(self, view, gstar):
        return self.element


def test_play_game_rejects_moving_placed_pairs():
    _, _, A, _, _, _, _ = klein_lifts()
    spoiler = _StubbornSpoiler(A.elements()[0])
    with pytest.raises(StrategyViolationError):
        play_game(A, A, 2, _CheatingDuplicator(), spoiler, 3)


# -- pursuit strategy --------------------------------------------------------------


def test_cops_duplicator_k4_random_rounds():
    u1, u2, A, B, g, coloring, star = klein_lifts()
    dup = duplicator_cops(u1, u2, g, coloring, star)
    t = play_game(A, B, 3, dup, RandomSpoiler(random.Random(11)), 200)
    assert t["winner"] is None
    assert t["survived"] == 200


def test_cops_duplicator_cycle_graph_random_rounds():
    h = cops_robbers_graph(3)
    coloring = cubic_edge_coloring(h)
    star = h.edges[0]
    u1, u2 = klein_pair(h, coloring, star)
    A, B = LiftedStructure(u1), LiftedStructure(u2)
    dup = duplicator_cops(u1, u2, h, coloring, star)
    t = play_game(A, B, 3, dup, RandomSpoiler(random.Random(12)), 200)
    assert t["winner"] is None
    assert t["survived"] == 200


def test_cops_duplicator_assert_levels_run():
    """The invariant checks run on every edge each round and hold for 30 rounds."""
    u1, u2, A, B, g, coloring, star = klein_lifts()
    dup = duplicator_cops(u1, u2, g, coloring, star)
    t = play_game(A, B, 3, dup, RandomSpoiler(random.Random(13)), 30)
    assert t["winner"] is None


def test_cops_duplicator_raises_when_an_edge_away_from_the_robber_breaks():
    u1, u2, A, B, g, coloring, star = klein_lifts()
    dup = duplicator_cops(u1, u2, g, coloring, star)
    view = GameView(A, B, 3, 1, (None, None, None), 0)
    dup.bijection(view)  # holds before the tampering
    off = next(v for v in g.vertices if v not in star)
    dup.gstar[off] ^= 1  # breaks every edge at off, none the robber's
    with pytest.raises(StrategyViolationError, match="edge away from the robber lost consistency") as exc:
        dup.bijection(view)
    assert off in exc.value.detail["edge"] and exc.value.side == "duplicator"


def test_cops_duplicator_raises_when_the_robber_edge_sets_meet():
    u1, u2, A, B, g, coloring, star = klein_lifts()
    dup = duplicator_cops(u1, u2, g, coloring, star)
    view = GameView(A, B, 3, 1, (None, None, None), 0)
    dup.bijection(view)
    # with no cop down the robber stays put; on the first edge, which agrees
    # in both instances, its two diff sets are equal rather than disjoint
    dup.robber = g.edges[0]
    assert g.edges[0] != normalize_edge(*star)
    with pytest.raises(StrategyViolationError, match="robber edge diff sets are not disjoint") as exc:
        dup.bijection(view)
    assert exc.value.detail["edge"] == [str(x) for x in g.edges[0]]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([3, 4, 5]),
    st.randoms(use_true_random=False),
    st.lists(st.tuples(st.sampled_from(["play", "play", "flip", "move"]), st.integers(0, 2**16), st.integers(1, 3)),
             min_size=1, max_size=40),
)
def test_cops_duplicator_checks_each_round_as_the_full_check_would(k, rng, steps):
    # between rounds a vertex's g* is flipped, or the robber is put on another
    # edge with no cop on it; the strategy, which re-checks only what changed
    # since the last state that passed, must answer or raise as one that
    # checks every edge in every round
    h = cops_robbers_graph(k)
    coloring = cubic_edge_coloring(h)
    star = h.edges[rng.randrange(h.m)]
    u1, u2 = klein_pair(h, coloring, star)
    A, B = LiftedStructure(u1), LiftedStructure(u2)
    dup, full = (duplicator_cops(u1, u2, h, coloring, star) for _ in range(2))
    full._checked_answer = lambda: (full._assert_invariant(), GStarMap(2, full.gstar))[1]
    pebbles = [None] * k
    for round_no, (action, at, shift) in enumerate(steps, 1):
        picked = (round_no - 1) % k
        pebbles[picked] = None
        view = GameView(A, B, k, round_no, tuple(pebbles), picked)
        if action == "flip":
            v = h.vertices[at % h.n]
            dup.gstar[v] ^= shift
            full.gstar[v] ^= shift
        elif action == "move":
            cops = {p[0][0] for p in pebbles if p is not None}
            free = [e for e in h.edges if cops.isdisjoint(e)]
            dup.robber = full.robber = free[at % len(free)]
        outcomes = []
        for d in (dup, full):
            try:
                outcomes.append(dict(d.bijection(view).values))
            except StrategyViolationError as exc:
                outcomes.append((str(exc), exc.detail))
        assert outcomes[0] == outcomes[1]
        assert (dup.gstar, dup.robber) == (full.gstar, full.robber)
        if isinstance(outcomes[0], dict):
            a = rng.choice(A.elements())
            pebbles[picked] = (a, GStarMap(2, outcomes[0]).apply(a))


def test_cops_duplicator_k24_transcript_is_pinned():
    # a pursuit game far past the cycle graphs below, pinned before rounds
    # re-checked only what they changed
    h = cops_robbers_graph(24)
    coloring = cubic_edge_coloring(h)
    star = h.edges[0]
    u1, u2 = klein_pair(h, coloring, star)
    dup = duplicator_cops(u1, u2, h, coloring, star)
    t = play_game(LiftedStructure(u1), LiftedStructure(u2), 24, dup, RandomSpoiler(random.Random(1)), 50)
    assert t["survived"] == 50
    digest = hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest()
    assert digest == "6f56e508863ecdfdeae6456608ce479419f23377b6db4b690f19232d39ad7554"


COPS_TRANSCRIPTS = {
    3: "bac2d50d849846a854b7c322627e6bee2a66e5c62e4a021d82debf9a1f599100",
    4: "c1627cc0c3c1582680cc5bdc4a0f0133fb6563906ec6372ea8ce5e19ddb5e552",
    5: "3feb554e662a00325fd2866017bbb20a6b0ebbe241688c0becb9653bc01529c3",
}


# the identity strategy on the K4 Klein pair: Spoiler wins, so each pins a failed check
IDENTITY_LOSSES = {
    2: "cf2c0723dea57aef6435c632e6568680727990f5bb63f5997e151f271a54178d",
    3: "1d426788b51c95f04111537b7c5c8a665b8f09d26478556e8a3c2c7efb0ba5b8",
    4: "3c949d92829a11d7ecaaab01bab287f71382aced8826cfb4a8165c558b49c465",
}


@pytest.mark.parametrize("k, digest", sorted(IDENTITY_LOSSES.items()))
def test_identity_duplicator_losses_are_pinned(k, digest):
    _, _, A, B, _, _, _ = klein_lifts()
    t = play_game(A, B, k, duplicator_identity(2), RandomSpoiler(random.Random(1)), 50)
    assert t["winner"] == "spoiler" and not t["rounds"][-1]["ok"]
    assert all(r["ok"] for r in t["rounds"][:-1])
    assert hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest() == digest


@pytest.mark.parametrize("k, digest", sorted(COPS_TRANSCRIPTS.items()))
def test_cops_duplicator_cycle_graph_transcripts_are_pinned(k, digest):
    # the cycle strategy on the built pursuit graphs must not change one answer
    h = cops_robbers_graph(k)
    coloring = cubic_edge_coloring(h)
    star = h.edges[0]
    u1, u2 = klein_pair(h, coloring, star)
    dup = duplicator_cops(u1, u2, h, coloring, star)
    t = play_game(LiftedStructure(u1), LiftedStructure(u2), k, dup, RandomSpoiler(random.Random(1)), 200)
    assert t["survived"] == 200
    assert hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest() == digest


def test_cops_duplicator_on_a_rebuilt_pursuit_graph_holds_the_built_one():
    # a pair.json sidecar is read back as a new SimpleGraph; the duplicator
    # swaps it for the shared built graph once and plays the same game
    h = cops_robbers_graph(3)
    coloring = cubic_edge_coloring(h)
    star = h.edges[0]
    u1, u2 = klein_pair(h, coloring, star)
    copy = SimpleGraph(h.vertices, h.edges)
    assert copy is not h
    dup = duplicator_cops(u1, u2, copy, coloring, star)
    assert dup.h is h
    t = play_game(LiftedStructure(u1), LiftedStructure(u2), 3, dup, RandomSpoiler(random.Random(1)), 200)
    assert hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest() == COPS_TRANSCRIPTS[3]


@pytest.mark.parametrize("side", ["u1", "u2"])
def test_cops_duplicator_rejects_an_instance_missing_an_edge(side):
    # a missing bundle fails at construction, as a precondition, rather than
    # in the first round as a violation blamed on the strategy
    h = cops_robbers_graph(3)
    coloring = cubic_edge_coloring(h)
    star = h.edges[0]
    pair = dict(zip(("u1", "u2"), klein_pair(h, coloring, star)))
    full = pair[side]
    pair[side] = GroupUgInstance(2, full.vertices, full.bundles[:-1])
    assert pair[side].vertices == full.vertices
    with pytest.raises(PreconditionError, match="instances do not match the coloring graph"):
        duplicator_cops(pair["u1"], pair["u2"], h, coloring, star)


# -- path extension ------------------------------------------------------------------


def test_extend_along_path_random():
    rng = random.Random(42)
    spanning, skipped = 0, 0
    for _ in range(500):
        m = rng.choice([2, 3, 4])
        length = rng.randrange(2, 7)
        path = [f"p{i}" for i in range(length + 1)]
        zmap, bmap = {}, {}
        for a, b in zip(path, path[1:]):
            e = normalize_edge(a, b)
            zmap[e] = random_subspace(m, rng.choice([1, 2]), rng)
            bmap[e] = random_vector(m, rng)
        pool = [z for e in zmap for z in zmap[e].basis]
        g_start = random_vector(m, rng)
        g_end = random_vector(m, rng)
        if span_of(pool, m).rank < m:
            skipped += 1
            with pytest.raises(NotInSpanError):
                extend_along_path(path, g_start, g_end, zmap, bmap)
            continue
        spanning += 1
        vals = extend_along_path(path, g_start, g_end, zmap, bmap)
        full = dict(vals)
        full[path[0]] = g_start
        full[path[-1]] = g_end
        for a, b in zip(path, path[1:]):
            e = normalize_edge(a, b)
            s = full[a] + full[b]
            assert (bmap[e] + s) in zmap[e]
    assert spanning > 100 and skipped > 20


def test_extend_along_path_single_edge():
    e = normalize_edge("x", "y")
    zmap = {e: Gf2Subspace.from_vectors([Gf2Vector(1, 2), Gf2Vector(2, 2)], 2)}
    bmap = {e: Gf2Vector(3, 2)}
    vals = extend_along_path(["x", "y"], Gf2Vector(0, 2), Gf2Vector(1, 2), zmap, bmap)
    assert vals == {}  # no interior; endpoints already consistent


# -- minimal trees ------------------------------------------------------------------


def steiner_edge_sets(g, terminals):
    """``steiner_tree`` with each vertex's bitmask turned into its edge set:
    bit i stands for ``g.edges[i]``, and no bit lies past the last edge."""
    trees = steiner_tree(g, terminals)
    assert all(mask >> len(g.edges) == 0 for mask in trees.values())
    return {v: frozenset(e for i, e in enumerate(g.edges) if mask >> i & 1) for v, mask in trees.items()}


def path(n):
    return SimpleGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def _one_tree(g, terminals):
    """The tree for one terminal set: the DP over all terminals but the last
    (in vertex order), read at the last."""
    terms = sorted(set(terminals), key=vertex_sort_key)
    return steiner_edge_sets(g, terms[:-1])[terms[-1]]


def test_steiner_tree_two_terminals():
    g = path(5)
    assert _one_tree(g, [0, 4]) == frozenset({(0, 1), (1, 2), (2, 3), (3, 4)})
    c = cycle_graph(6)
    assert _one_tree(c, [0, 3]) == frozenset({(0, 1), (1, 2), (2, 3)})
    assert _one_tree(g, [2]) == frozenset()


def test_steiner_tree_maps_every_vertex_of_the_terminals_component():
    g = path(5)
    assert steiner_edge_sets(g, []) == {v: frozenset() for v in g.vertices}
    assert steiner_edge_sets(g, [1, 3]) == {
        0: frozenset({(0, 1), (1, 2), (2, 3)}),
        1: frozenset({(1, 2), (2, 3)}),
        2: frozenset({(1, 2), (2, 3)}),
        3: frozenset({(1, 2), (2, 3)}),
        4: frozenset({(1, 2), (2, 3), (3, 4)}),
    }
    split = SimpleGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
    assert steiner_edge_sets(split, [0]) == {0: frozenset(), 1: frozenset({(0, 1)})}
    assert steiner_edge_sets(split, [3, 2]) == {2: frozenset({(2, 3)}), 3: frozenset({(2, 3)})}


def _tree_is_connected_cover(g, edges, terminals):
    if not edges:
        return len(set(terminals)) <= 1
    verts = {v for e in edges for v in e}
    if not set(terminals) <= verts:
        return False
    # connectivity over the edge set
    adj = {v: [] for v in verts}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {next(iter(verts))}
    stack = [next(iter(verts))]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == verts and len(edges) == len(verts) - 1


def _brute_steiner_size(g, terminals):
    from itertools import combinations

    terms = set(terminals)
    others = [v for v in g.vertices if v not in terms]
    for extra in range(len(others) + 1):
        for added in combinations(others, extra):
            verts = terms | set(added)
            sub = SimpleGraph(verts, [e for e in g.edges if e[0] in verts and e[1] in verts])
            if len(sub.edges) >= len(verts) - 1:
                comp = sub.components()
                if len(comp) == 1:
                    return len(verts) - 1
    raise AssertionError("terminals disconnected")


@pytest.mark.parametrize("terminals", [[0, 5, 7], [1, 3, 8], [0, 2, 6, 9]])
def test_steiner_tree_matches_brute_minimum(terminals):
    g = petersen_graph()
    edges = _one_tree(g, terminals)
    assert _tree_is_connected_cover(g, edges, terminals)
    assert len(edges) == _brute_steiner_size(g, terminals)


def test_steiner_tree_is_deterministic():
    g = petersen_graph()
    a = steiner_tree(g, [0, 5, 7])
    b = steiner_tree(g, [7, 0, 5, 0])
    assert a == b


@st.composite
def graphs_with_cycles(draw):
    """Connected graph on at most 10 vertices with at least one cycle, plus
    3-4 terminals; labels are ints or strings."""
    n = draw(st.integers(4, 10))
    parents = [draw(st.integers(0, i - 1)) for i in range(1, n)]
    edges = {(p, i) for i, p in enumerate(parents, start=1)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=n, unique=True))
    terminals = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=4, unique=True))
    name = (lambda i: i) if draw(st.booleans()) else (lambda i: f"v{i}")
    g = SimpleGraph([name(i) for i in range(n)], [(name(a), name(b)) for a, b in sorted(edges | set(extra))])
    return g, [name(t) for t in terminals]


@settings(max_examples=60, deadline=None)
@given(graphs_with_cycles())
def test_steiner_tree_minimum_on_random_graphs(case):
    g, terminals = case
    edges = _one_tree(g, terminals)
    assert edges <= set(g.edges)
    assert _tree_is_connected_cover(g, edges, terminals)
    assert len(edges) == _brute_steiner_size(g, terminals)
    trees = steiner_edge_sets(g, terminals)
    assert set(trees) == set(g.vertices)
    for v, edges in trees.items():
        assert edges <= set(g.edges)
        assert _tree_is_connected_cover(g, edges, terminals + [v])
        assert len(edges) == _brute_steiner_size(g, terminals + [v])


def c6_with_chords(name=lambda i: i):
    ring = [(name(i), name((i + 1) % 6)) for i in range(6)]
    return SimpleGraph([name(i) for i in range(6)], ring + [(name(0), name(3)), (name(1), name(4))])


@pytest.mark.parametrize(
    "g, terminals, expected",
    [  # recorded from the all-pairs BFS implementation; many equal-size trees tie here
        (petersen_graph(), [0, 5, 7], [(0, 5), (5, 7)]),
        (petersen_graph(), [1, 3, 8], [(1, 2), (2, 3), (3, 8)]),
        (petersen_graph(), [3, 6, 8], [(3, 8), (6, 8)]),
        (petersen_graph(), [2, 4, 7, 9], [(2, 7), (4, 9), (7, 9)]),
        (petersen_graph(), [0, 2, 6, 9], [(0, 1), (1, 2), (1, 6), (6, 9)]),
        (c6_with_chords(), [0, 2, 4], [(0, 1), (1, 2), (1, 4)]),
        (c6_with_chords(), [1, 3, 5], [(0, 1), (0, 3), (0, 5)]),
        (c6_with_chords(), [0, 2, 3, 5], [(0, 3), (0, 5), (2, 3)]),
        (c6_with_chords(), [2, 5], [(0, 1), (0, 5), (1, 2)]),
        (c6_with_chords(lambda i: f"v{i}"), ["v0", "v2", "v4"], [("v0", "v1"), ("v1", "v2"), ("v1", "v4")]),
        (c6_with_chords(lambda i: f"v{i}"), ["v5", "v1", "v3"], [("v0", "v1"), ("v0", "v3"), ("v0", "v5")]),
    ],
)
def test_steiner_tree_tie_breaks_pinned(g, terminals, expected):
    assert _one_tree(g, terminals) == frozenset(expected)


def test_steiner_tree_mixed_labels_and_errors():
    g = c6_with_chords(lambda i: i if i % 2 else f"s{i}")
    edges = _one_tree(g, ["s0", 3, "s4"])
    assert _tree_is_connected_cover(g, edges, ["s0", 3, "s4"]) and len(edges) == 2
    split = SimpleGraph([0, 1, 2, 3], [(0, 1), (2, 3)])
    with pytest.raises(PreconditionError, match="disconnected"):
        steiner_tree(split, [0, 3])
    with pytest.raises(PreconditionError, match="not all connected"):
        steiner_tree(split, [0, 1, 3])
    with pytest.raises(PreconditionError, match="not a vertex"):
        steiner_tree(split, [0, 9])


# -- tree strategy -----------------------------------------------------------------


def desk_params():
    return ParamSet(
        alpha=Fraction(1),
        gamma=Fraction(1, 4),
        epsilon=Fraction(1, 4),
        d=3,
        ell=2,
        m=3,
        r=3,
        q=8,
    )


def desk_pair(seed):
    with pytest.warns(UserWarning):
        return random_inapprox_pair(desk_params(), petersen_graph(), random.Random(seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_tree_duplicator_survives_random_rounds(seed):
    pair = desk_pair(seed)
    A, B = LiftedStructure(pair.u1), LiftedStructure(pair.u2)
    dup = duplicator_tree(pair)
    t = play_game(A, B, 2, dup, RandomSpoiler(random.Random(100 + seed)), 100)
    assert t["winner"] is None
    assert t["survived"] == 100


class _RecordingSpoiler(RandomSpoiler):
    """Random Spoiler that records each round's answer and placement, so a
    game that raises still leaves the rounds before the raise."""

    def __init__(self, rng) -> None:
        super().__init__(rng)
        self.rounds = []

    def place(self, view, gstar):
        a = super().place(view, gstar)
        self.rounds.append([view.round_no, gstar.to_hex(), [str(a[0]), a[1].to_hex()]])
        return a


def k3_tree_record(seed):
    """The transcript of a 30-round k=3 tree game on the Petersen desk pair of
    ``seed``, or, where the strategy raises, its error line, detail and the
    rounds played before the raise."""
    pair = desk_pair(seed)
    spoiler = _RecordingSpoiler(random.Random(seed))
    try:
        return play_game(LiftedStructure(pair.u1), LiftedStructure(pair.u2), 3, duplicator_tree(pair), spoiler, 30)
    except StrategyViolationError as exc:
        return {"error": f"strategy violation: {exc}", "detail": exc.detail, "rounds": spoiler.rounds}


@pytest.mark.parametrize("seed, digest", [
    (0, "55b05d15487528ebd6c42cd4749dcb262e77d5d4c50da0b7016349663fb4c489"),
    (1, "590eddd47bd2511b97f72be3e5bd363cf8ed87a8e1b13b7b0048e8cc50ba5c69"),
    (2, "4fc00aedb50eaa7a3b67c662a137f0deb942d7a8d1592e7800822a36e307d18a"),
    (8, "47fd3f0be506aefa049bc9f0d1d3f34172b2fe10ef03cd6f4e7c06e7c4bb1256"),
    (9, "beec388468c8c99ba626f157a754a096983ccdbb70b3c485550f87084d147ccb"),
    (11, "a53a7213a1f709ce3a632c95b0356a1c30e33446561efc58189353d312ea1637"),
])
def test_tree_duplicator_k3_transcripts_are_pinned(seed, digest):
    # k=3 games merge two terminals per component, which the k=2 README pin
    # never does; the tree strategy's bookkeeping must not change one answer
    record = json.dumps(k3_tree_record(seed), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == digest


def test_tree_duplicator_solves_once_per_component_per_round(monkeypatch):
    import uglab.game as game_module

    calls = []

    def counting(g, terminals):
        calls.append(list(terminals))
        return steiner_tree(g, terminals)

    monkeypatch.setattr(game_module, "steiner_tree", counting)
    pair = desk_pair(0)
    A, B = LiftedStructure(pair.u1), LiftedStructure(pair.u2)
    dup = duplicator_tree(pair)
    t = play_game(A, B, 3, dup, RandomSpoiler(random.Random(7)), 12)
    assert t["winner"] is None
    components = dup.graph.components()
    assert len(calls) == 12 * len(components)
    # the terminals are the pebbled vertices of one component: at most k - 1,
    # since one pair is lifted when the Duplicator answers
    assert max(len(c) for c in calls) == 2


def generalized_petersen(n, k):
    outer = [(i, (i + 1) % n) for i in range(n)]
    return SimpleGraph(range(2 * n), outer + [(i, n + i) for i in range(n)] + [(n + i, n + (i + k) % n) for i in range(n)])


@pytest.mark.parametrize("seed, digest", [
    (5, "adf2061650550ae90543595ce85c1d46b5a212cdc26d30e706965bbb6b3864d4"),
    (7, "fcf8e711260414f2e01e55ab0bec953ec4df61ebf71418d70c442a8018639877"),
])
def test_tree_duplicator_solves_each_long_segment_once_per_round(monkeypatch, seed, digest):
    # on GP(30, 7) the trees of several base vertices hold the same long
    # segment between the same values; each is solved once per round, and
    # the transcript is the one recorded when every vertex solved its own
    import uglab.game as game_module

    asked = []

    def counting(path, g_start, g_end, zmap, bmap):
        asked[-1].append((tuple(path), g_start, g_end))
        return extend_along_path(path, g_start, g_end, zmap, bmap)

    monkeypatch.setattr(game_module, "extend_along_path", counting)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # girth 7 is below the theorem's
        pair = random_inapprox_pair(desk_params(), generalized_petersen(30, 7), random.Random(seed), k=3)
    dup = duplicator_tree(pair)
    answer = dup.bijection
    dup.bijection = lambda view: asked.append([]) or answer(view)
    t = play_game(LiftedStructure(pair.u1), LiftedStructure(pair.u2), 3, dup, RandomSpoiler(random.Random(seed)), 12)
    assert hashlib.sha256(json.dumps(t, sort_keys=True).encode()).hexdigest() == digest
    assert len(asked) == 12 and sum(map(len, asked)) > 100
    assert all(len(set(r)) == len(r) for r in asked)


def test_tree_duplicator_respects_pebbles_under_search():
    pair = desk_pair(2)
    A, B = LiftedStructure(pair.u1), LiftedStructure(pair.u2)
    line = find_winning_line(
        A, B, 2, lambda: duplicator_tree(pair), depth=2, budget=60_000
    )
    assert line is None


# -- winning-line search against a replay-everything reference ----------------------


def naive_winning_line(A, B, k, duplicator_factory, depth, budget):
    """The search as first written: replay a fresh duplicator from the empty
    board for every move tried. Returns (line, moves tried)."""
    els = A.elements()
    tried = 0

    def replay(prefix):
        dup = duplicator_factory()
        pebbles = [None] * k
        for rnd, (slot, a) in enumerate(prefix, start=1):
            pebbles[slot] = None
            g = dup.bijection(GameView(A, B, k, rnd, tuple(pebbles), slot))
            if any(p is not None and g.apply(p[0]) != p[1] for p in pebbles):
                raise StrategyViolationError("bijection moves a placed pebble pair", side="duplicator")
            pebbles[slot] = (a, g.apply(a))
            if hasattr(dup, "observe_placement"):
                dup.observe_placement(GameView(A, B, k, rnd, tuple(pebbles), slot))
        return pebbles

    def rec(prefix):
        nonlocal tried
        if len(prefix) >= depth:
            return None
        pebbles = replay(prefix)
        occupied = [i for i, p in enumerate(pebbles) if p is not None]
        for slot in occupied + [i for i, p in enumerate(pebbles) if p is None][:1]:
            for a in els:
                tried += 1
                if tried > budget:
                    raise SearchBudgetError(f"winning-line search exceeded {budget} moves")
                line = prefix + [(slot, a)]
                if not check_partial_isomorphism(A, B, [p for p in replay(line) if p is not None]):
                    return line
                found = rec(line)
                if found is not None:
                    return found
        return None

    return rec([]), tried


class ShiftsAfterFirstRound:
    """Identity in round 1, then a shift of every vertex, which moves the
    placed pair: the search must raise once it first asks in round 2."""

    def bijection(self, view):
        if view.round_no == 1:
            return GStarMap(1, {})
        return GStarMap(1, {v: 1 for v in view.A.base.vertices})


def twisted_triangle():
    base = cycle_graph(3)
    zero, one = Gf2Vector(0, 1), Gf2Vector(1, 1)
    u1 = GroupUgInstance(1, base.vertices, [(u, v, [zero]) for u, v in base.edges])
    u2 = GroupUgInstance(1, base.vertices, [(u, v, [one if (u, v) == (0, 1) else zero]) for u, v in base.edges])
    return u1, u2


class StatefulK2:
    """Counts its calls: the K2 answer while ``k2_while(calls, round_no)``
    holds, the identity otherwise."""

    def __init__(self, u1, u2, k2_while):
        self.inner = duplicator_k2(u1, u2)
        self.k2_while = k2_while
        self.calls = 0

    def bijection(self, view):
        self.calls += 1
        if self.k2_while(self.calls, view.round_no):
            return self.inner.bijection(view)
        return duplicator_identity(self.inner.u1.m).bijection(view)


class PinningK2:
    """The K2 answer around every placed pebble at once: each pebbled vertex
    keeps its pair's shift, and each other neighbour takes the K2 shift from
    the first pebbled vertex next to it, in slot order. Unlike K2 it answers
    with two pebbles down, and can lose there, so three-pebble boards get
    decided."""

    def __init__(self, u1, u2):
        self.u1, self.u2 = u1, u2

    def bijection(self, view):
        placed = [p for p in view.pebbles if p is not None]
        vals = {a[0]: (a[1] + b[1]).bits for a, b in placed}
        for (v0, _), _ in placed:
            for a, b, diffs in self.u1.bundles:
                if v0 in (a, b):
                    z = diffs[0] + diffs_on(self.u2, a, b)[0]
                    vals.setdefault(b if a == v0 else a, vals[v0] ^ z.bits)
        return GStarMap(self.u1.m, vals)


class FirstPlacementRules:
    """The K2 answer while the game's first placement is unknown or at base
    vertex ``home``, the identity after one elsewhere: the answer depends on
    the line, not only on the board, so one board reached by two lines may
    get two verdicts."""

    def __init__(self, u1, u2, home):
        self.inner = duplicator_k2(u1, u2)
        self.home = home
        self.first = None

    def bijection(self, view):
        if self.first in (None, self.home):
            return self.inner.bijection(view)
        return duplicator_identity(self.inner.u1.m).bijection(view)

    def observe_placement(self, view):
        if self.first is None:
            self.first = view.pebbles[view.picked][0][0]


def twisted_path():
    """The path 0-1-2 over F_2, twisted on (0, 1) only."""
    zero, one = Gf2Vector(0, 1), Gf2Vector(1, 1)
    p1 = GroupUgInstance(1, [0, 1, 2], [(0, 1, [zero]), (1, 2, [zero])])
    p2 = GroupUgInstance(1, [0, 1, 2], [(0, 1, [one]), (1, 2, [zero])])
    return p1, p2


def search_cases():
    u1, u2, A, B, g, coloring, star = klein_lifts()
    t1, t2 = singleton_pair()
    C, D = LiftedStructure(t1), LiftedStructure(t2)
    r1, r2 = twisted_triangle()
    E, F = LiftedStructure(r1), LiftedStructure(r2)
    p1, p2 = twisted_path()
    P, Q = LiftedStructure(p1), LiftedStructure(p2)
    return [
        ("identity", A, B, 2, lambda: duplicator_identity(2), 3),
        ("identity-k3", C, D, 3, lambda: duplicator_identity(2), 2),
        ("k2", C, D, 2, lambda: duplicator_k2(t1, t2), 2),
        ("k2-triangle", E, F, 2, lambda: duplicator_k2(r1, r2), 3),
        # gives way after two answers, so the line is found in round 3
        ("k2-for-two-calls", C, D, 2, lambda: StatefulK2(t1, t2, lambda calls, rnd: calls <= 2), 3),
        # loses only if one duplicator answers twice in a replay
        ("k2-once-per-round", E, F, 2, lambda: StatefulK2(r1, r2, lambda calls, rnd: calls == rnd), 3),
        ("cops", A, B, 3, lambda: duplicator_cops(u1, u2, g, coloring, star), 2),
        # pebbles on 0 and 2, then on 1, which agrees with the pebble on 0
        # and not with the one on 2: a placement is checked against every pebble
        ("pinning-k3-path", P, Q, 3, lambda: PinningK2(p1, p2), 3),
        # the lines that start on "a" hold; the line from ("b", 0) reaches a
        # last-level board that they reached and loses on it
        ("first-placement-rules", C, D, 2, lambda: FirstPlacementRules(t1, t2, "a"), 3),
    ]


@functools.cache
def _replayed(cls):
    return type(f"Replayed{cls.__name__}", (cls,), {"stateless": False})


def replayed(factory):
    """The factory's strategy with its stateless declaration withdrawn, so
    the search replays every prefix through a fresh one."""

    def build():
        dup = factory()
        dup.__class__ = _replayed(type(dup))
        return dup

    return build


def assert_search_matches_reference(A, B, k, factory, depth, cap):
    """The search gives the reference's line at the reference's exact budget,
    the budget error one move short, and the reference's error where a
    strategy breaks or `cap` runs out; returns the line, or None after an
    error. A stateless factory's replayed twin is held to the same, so asking
    once per board changes nothing."""
    stateless = getattr(factory(), "stateless", False)
    searches = (factory, replayed(factory)) if stateless else (factory,)
    try:
        want, needed = naive_winning_line(A, B, k, factory, depth, budget=cap)
    except (SearchBudgetError, PreconditionError, StrategyViolationError) as ref:
        for search in searches:
            with pytest.raises(type(ref)) as got:
                find_winning_line(A, B, k, search, depth, budget=cap)
            assert str(got.value) == str(ref)
        return None
    for search in searches:
        assert find_winning_line(A, B, k, search, depth, budget=needed) == want
        with pytest.raises(SearchBudgetError) as got:
            find_winning_line(A, B, k, search, depth, budget=needed - 1)
        assert str(got.value) == f"winning-line search exceeded {needed - 1} moves"
    return want


@pytest.mark.parametrize("case", search_cases(), ids=lambda c: c[0])
def test_winning_line_matches_replay_reference(case):
    _, A, B, k, factory, depth = case
    want = assert_search_matches_reference(A, B, k, factory, depth, cap=10**6)
    assert find_winning_line(A, B, k, factory, depth) == want


@st.composite
def random_search_cases(draw, stateless):
    """Two instances on one set of 2 to 5 base vertices over F_2^m, m in
    {1, 2}, with k in {2, 3} and depth 2 or 3 (a lone pebble never breaks
    the board, so depth 1 decides nothing). The identity duplicator
    plays bundles of any size on edge sets drawn independently; K2,
    StatefulK2 and PinningK2 play singleton bundles on one shared edge set.
    The first two are stateless, the last two not."""
    kind = draw(st.sampled_from(["identity", "k2"] if stateless else ["stateful", "pinning"]))
    n = draw(st.integers(2, 5))
    m = draw(st.sampled_from([1, 2]))
    # with one pebble down PinningK2 is K2, which never loses
    k = 3 if kind == "pinning" else draw(st.sampled_from([2, 3]))
    depth = 3 if kind == "pinning" else draw(st.integers(2, 3))
    vs = list(range(n))
    pairs = [(a, b) for a in vs for b in vs if a < b]
    vec = st.integers(0, (1 << m) - 1).map(lambda bits: Gf2Vector(bits, m))
    edge_sets = st.lists(st.sampled_from(pairs), unique=True)

    def instance(edges, singleton):
        bundles = st.lists(vec, min_size=1, max_size=1 if singleton else 1 << m, unique=True)
        return GroupUgInstance(m, vs, [(u, v, draw(bundles)) for u, v in edges])

    if kind == "identity":
        u1, u2 = instance(draw(edge_sets), False), instance(draw(edge_sets), False)
        factory = lambda: duplicator_identity(m)
    else:
        edges = draw(edge_sets)
        u1, u2 = instance(edges, True), instance(edges, True)
        if kind == "k2":
            factory = lambda: duplicator_k2(u1, u2)
        elif kind == "pinning":
            factory = lambda: PinningK2(u1, u2)
        else:
            calls_left = draw(st.integers(1, 4))
            rule = draw(st.sampled_from([
                lambda calls, rnd: calls <= calls_left,
                lambda calls, rnd: calls == rnd,
            ]))
            factory = lambda: StatefulK2(u1, u2, rule)
    return LiftedStructure(u1), LiftedStructure(u2), k, factory, depth


@settings(max_examples=60, deadline=None)
@given(random_search_cases(stateless=True), random_search_cases(stateless=False))
def test_winning_line_matches_replay_reference_on_random_pairs(stateless_case, stateful_case):
    # the per-base-vertex decision against the full check of every replayed board
    for case in (stateless_case, stateful_case):
        assert_search_matches_reference(*case, cap=3000)


def test_winning_line_budget_before_strategy_check():
    # after the first placement, round 2 tries slot 0 (nothing left pinned)
    # on every element, then slot 1, whose first placement is the first move
    # the duplicator must answer with a pair pinned: a budget one short stops
    # the search before it asks, an exact one lets the violation surface
    r1, _ = twisted_triangle()
    A = LiftedStructure(r1)
    first_pinned = 1 + A.universe_size() + 1
    for search in (find_winning_line, naive_winning_line):
        with pytest.raises(SearchBudgetError):
            search(A, A, 2, ShiftsAfterFirstRound, 2, budget=first_pinned - 1)
        with pytest.raises(StrategyViolationError, match="moves a placed pebble pair"):
            search(A, A, 2, ShiftsAfterFirstRound, 2, budget=first_pinned)
