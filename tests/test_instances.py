from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab import cli
from uglab.errors import (
    IncompleteAssignmentError,
    InvalidParameterError,
    PreconditionError,
    SearchBudgetError,
)
from uglab import instances
from uglab.constructions import cops_robbers_graph, cubic_edge_coloring, klein_pair, unsat_complete_graph
from uglab.formats import write_gug
from uglab.gf2 import Gf2Vector
from uglab.instances import (
    CspType,
    GroupUgInstance,
    PermUgInstance,
    WeightedCspInstance,
    brute_force_opt,
    csp_brute_opt,
    csp_value,
    evaluate,
    label_lift,
    lifted_opt,
    propagate_complete_sat,
    spanning_tree_opt,
)

from test_oracles import eliminate, product_enumeration, random_group_instance, table_enumeration


def v(bits, m):
    return Gf2Vector(bits, m)


def diffs_on(inst, u, w):
    """The differences of the bundle on {u, w}, read from ``inst.bundles``; () where none."""
    return next((diffs for a, b, diffs in inst.bundles if {a, b} == {u, w}), ())


# -- data model ------------------------------------------------------------


def test_perm_instance_builds_its_graph_once():
    # constraints both ways on one pair make one edge; vertices come from the graph
    inst = PermUgInstance(2, ["c", "b"], [("a", "b", (1, 0)), ("b", "a", (0, 1))])
    assert inst.graph() is inst.graph()
    assert inst.vertices == inst.graph().vertices == ("a", "b", "c")
    assert inst.graph().edges == (("a", "b"),)


def test_group_instance_merges_bundles_per_edge():
    inst = GroupUgInstance(
        2,
        [0, 1],
        [(0, 1, [v(0, 2), v(1, 2)]), (1, 0, [v(1, 2), v(2, 2)])],
    )
    assert len(inst.bundles) == 1
    assert inst.constraint_count == 3
    assert inst.graph() is inst.graph() and inst.graph().edges == ((0, 1),)
    assert diffs_on(inst, 1, 0) == (v(0, 2), v(1, 2), v(2, 2))


def test_group_instance_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        GroupUgInstance(2, [0, 1], [(0, 1, [])])
    with pytest.raises(InvalidParameterError):
        GroupUgInstance(2, [0, 1], [(0, 1, [v(0, 3)])])
    with pytest.raises(InvalidParameterError):
        GroupUgInstance(0, [0], [])


def test_perm_instance_validation():
    PermUgInstance(2, [0, 1], [(0, 1, (1, 0))])
    with pytest.raises(InvalidParameterError):
        PermUgInstance(2, [0, 1], [(0, 1, (0, 0))])
    with pytest.raises(InvalidParameterError):
        PermUgInstance(2, [0], [(0, 0, (0, 1))])


# -- evaluate ----------------------------------------------------------------


def test_evaluate_single_zero_bundle():
    inst = GroupUgInstance(1, ["u", "w"], [("u", "w", [v(0, 1)])])
    a = {"u": v(0, 1), "w": v(0, 1)}
    assert evaluate(inst, a) == (1, Fraction(1))


def test_evaluate_counts_at_most_one_per_bundle():
    inst = GroupUgInstance(2, [0, 1], [(0, 1, [v(0, 2), v(1, 2), v(2, 2), v(3, 2)])])
    count, frac = evaluate(inst, {0: v(0, 2), 1: v(3, 2)})
    assert count == 1
    assert frac == Fraction(1, 4)


def test_evaluate_requires_total_assignment():
    inst = GroupUgInstance(1, [0, 1, 2], [(0, 1, [v(0, 1)])])
    with pytest.raises(IncompleteAssignmentError):
        evaluate(inst, {0: v(0, 1), 1: v(0, 1)})
    csp = WeightedCspInstance(2, "xy", {"one": CspType(1, [(1,)], 2)}, [("one", ("y",), 1)])
    with pytest.raises(IncompleteAssignmentError, match="^assignment misses variable 'y'$"):
        csp_value(csp, {"x": 0})


def test_evaluate_perm_orientation():
    # a(u) = perm(a(v)), not the other way around
    inst = PermUgInstance(3, ["u", "w"], [("u", "w", (1, 2, 0))])
    assert evaluate(inst, {"u": 1, "w": 0})[0] == 1
    assert evaluate(inst, {"u": 0, "w": 1})[0] == 0


# -- brute force -------------------------------------------------------------


def test_brute_single_bundle():
    inst = GroupUgInstance(2, [0, 1], [(0, 1, [v(3, 2)])])
    count, frac, witness = brute_force_opt(inst)
    assert count == 1 and frac == Fraction(1)
    assert witness[0] + witness[1] == v(3, 2)
    # lex-least witness fixes the root at zero
    assert witness[0] == v(0, 2)


def _refused_before_build(solve, match):
    """solve() raises SearchBudgetError matching `match`, and no elimination
    builds a table on the way."""
    real = instances._eliminate

    def fail():
        raise AssertionError("a table was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "_eliminate", lambda radices, scopes, build, budget: real(radices, scopes, fail, budget))
        with pytest.raises(SearchBudgetError, match=match):
            solve()


# sums of largest |entry| at and just past the int8, int16 and int32 maxima,
# and one far past them
SCORE_BOUNDS = (127, 128, 32767, 32768, 2**31 - 1, 2**31, 2**40)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(SCORE_BOUNDS), st.sampled_from([1, -1, 0]))
def test_eliminate_exact_at_score_type_bounds(rng, bound, sign):
    # the largest |entry| of the tables sums to exactly `bound`, and with one
    # sign every table holds its extreme on one planted assignment, so the
    # optimum (sign 1) or the lowest score (sign -1) is +-bound itself
    radices = [rng.randint(1, 3) for _ in range(rng.randint(1, 5))]
    planted = [rng.randrange(r) for r in radices]
    cuts = sorted(rng.randint(0, bound) for _ in range(rng.randint(0, 4)))
    tables = []
    for share in (b - a for a, b in zip([0, *cuts], [*cuts, bound])):
        scope = tuple(rng.randrange(len(radices)) for _ in range(rng.randint(1, 3)))
        shape = [radices[i] for i in scope]
        low, high = (0, share) if sign > 0 else (-share, 0) if sign < 0 else (-share, share)
        table = np.array([rng.randint(low, high) for _ in range(math.prod(shape))], dtype=np.int64)
        table = table.reshape(shape)
        table[tuple(planted[i] for i in scope)] = share if sign >= 0 else -share
        tables.append((scope, table))
    best, best_at = table_enumeration(radices, tables)
    if sign > 0:
        assert best == bound
    assert eliminate(radices, tables) == (best, best_at)


def test_brute_two_hundred_tables_on_three_vertices():
    # 200 constraints on 3 vertices, 160 of them held by one planted
    # assignment: the count passes the int8 range, so scores need int16
    rng = random.Random(24)
    planted = {0: 2, 1: 0, 2: 1}
    cons = []
    for i in range(200):
        u, w = rng.sample(range(3), 2)
        perm = rng.sample(range(3), 3)
        if i < 160:  # make perm map planted[w] to planted[u]
            k = perm.index(planted[u])
            perm[k], perm[planted[w]] = perm[planted[w]], perm[k]
        cons.append((u, w, tuple(perm)))
    inst = PermUgInstance(3, range(3), cons)
    best, best_at = product_enumeration(
        [range(3)] * 3, lambda values: evaluate(inst, dict(zip(range(3), values)))[0]
    )
    assert best >= 160
    assert brute_force_opt(inst) == (best, Fraction(best, 200), dict(zip(range(3), best_at)))


def test_csp_weights_past_int64_rejected_before_enumeration(monkeypatch):
    one = CspType(1, [(1,)], 2)

    def csp(*weights):
        return WeightedCspInstance(2, ["x"], {"one": one}, [("one", ("x",), w) for w in weights])

    assert csp_brute_opt(csp(2**62, 2**62 - 1)) == (2**63 - 1, {"x": 1})

    def fail(*args):
        raise AssertionError("elimination started")

    monkeypatch.setattr(instances, "_eliminate", fail)
    # 1/3 scales every weight by 3: 2**62 + 1/3 becomes 3 * 2**62 + 1
    for weights in [(2**62, 2**62), (2**62, Fraction(1, 3))]:
        with pytest.raises(SearchBudgetError):
            csp_brute_opt(csp(*weights))


def test_csp_brute_budget_boundary():
    # the chain x - y - z over q = 3 eliminates z over (y, z), then y over
    # (x, y), then x: 9 + 9 + 3 = 21 entries, solved at a budget of 21 and
    # refused at 20 before any table is built
    neq = CspType(2, [(a, b) for a in range(3) for b in range(3) if a != b], 3)
    csp = WeightedCspInstance(3, "xyz", {"neq": neq}, [("neq", ("x", "y"), 1), ("neq", ("y", "z"), 2)])
    assert csp_brute_opt(csp, budget=21) == (Fraction(3), {"x": 0, "y": 1, "z": 0})
    _refused_before_build(lambda: csp_brute_opt(csp, budget=20), "of 21 entries in all exceed the budget 20$")


def test_csp_repeated_scope_table_is_built_over_its_distinct_variables():
    # one variable under an arity-40 type applied as x x ... x: its table
    # holds q = 2 entries, where the type's own table would hold 2^40 int64s
    # (8 TiB); only the satisfying tuples that give x one value count
    big = CspType(40, [(1,) * 40, (0,) * 39 + (1,)], 2)
    csp = WeightedCspInstance(2, ["x"], {"big": big}, [("big", ("x",) * 40, Fraction(3, 2))])
    assert csp_brute_opt(csp, budget=2) == (Fraction(3, 2), {"x": 1})
    _refused_before_build(lambda: csp_brute_opt(csp, budget=1), "of 2 entries in all exceed the budget 1$")
    # a pattern (x, y, x) keeps the tuples whose first and last entries agree
    t = CspType(3, [(0, 1, 1), (1, 0, 1), (1, 1, 0)], 2)
    csp = WeightedCspInstance(2, "xy", {"t": t}, [("t", ("x", "y", "x"), 1)])
    assert csp_brute_opt(csp) == (Fraction(1), {"x": 1, "y": 0})


def test_brute_budget_error():
    # a 6-vertex path over F_2^2 with its first vertex fixed: four 4 x 4 tables,
    # one of 4 entries and one of 1, 69 in all, where the search space is 4^5
    inst = GroupUgInstance(2, range(6), [(i, i + 1, [v(0, 2)]) for i in range(5)])
    assert brute_force_opt(inst, budget=69) == (5, Fraction(1), {i: v(0, 2) for i in range(6)})
    _refused_before_build(lambda: brute_force_opt(inst, budget=68), "of 69 entries in all exceed the budget 68$")


def test_brute_large_labels_build_tables_sized_by_radix():
    # the root's radix is 1, so the one table is 1 x 2^20, not 2^20 x 2^20
    inst = GroupUgInstance(20, [0, 1], [(0, 1, [v(5, 20), v(3, 20)])])
    assert brute_force_opt(inst) == (1, Fraction(1, 2), {0: v(0, 20), 1: v(3, 20)})
    path = GroupUgInstance(64, range(3), [(0, 1, [v(1, 64)]), (1, 2, [v(2**63, 64)])])
    with pytest.raises(SearchBudgetError):
        brute_force_opt(path)


def test_brute_disconnected_sums_components():
    inst = GroupUgInstance(
        1,
        range(4),
        [(0, 1, [v(1, 1)]), (2, 3, [v(1, 1)])],
    )
    count, frac, witness = brute_force_opt(inst)
    assert count == 2 and frac == Fraction(1)
    assert evaluate(inst, witness)[0] == 2


def test_brute_perm_budget_bounds_the_total_over_components():
    # two 3-vertex components solved in one elimination: the triangle's tables
    # hold 27 + 9 + 3 entries and the path's 9 + 9 + 3, 60 in all
    inst = PermUgInstance(
        3,
        range(6),
        [(0, 1, (1, 2, 0)), (1, 2, (1, 2, 0)), (0, 2, (0, 1, 2)), (3, 4, (2, 0, 1)), (4, 5, (0, 2, 1))],
    )
    count, frac, witness = brute_force_opt(inst, budget=60)
    assert (count, frac) == (4, Fraction(4, 5))
    assert witness == {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 2}
    assert evaluate(inst, witness)[0] == 4
    _refused_before_build(lambda: brute_force_opt(inst, budget=59), "of 60 entries in all exceed the budget 59$")


def test_brute_perm_instance():
    inst = PermUgInstance(
        2,
        [0, 1, 2],
        [(0, 1, (0, 1)), (1, 2, (0, 1)), (0, 2, (1, 0))],
    )
    count, frac, witness = brute_force_opt(inst)
    assert count == 2 and frac == Fraction(2, 3)


# -- propagation -------------------------------------------------------------


def test_propagate_consistent_triangle():
    ident = (0, 1, 2)
    inst = PermUgInstance(3, [0, 1, 2], [(0, 1, ident), (1, 2, ident), (0, 2, ident)])
    ok, witness = propagate_complete_sat(inst)
    assert ok
    assert evaluate(inst, witness)[0] == 3


def test_propagate_inconsistent_triangle():
    ident, swap = (0, 1), (1, 0)
    inst = PermUgInstance(2, [0, 1, 2], [(0, 1, ident), (1, 2, ident), (0, 2, swap)])
    ok, witness = propagate_complete_sat(inst)
    assert not ok and witness is None


def test_propagate_disconnected_components():
    ident = (0, 1)
    inst = PermUgInstance(2, range(4), [(0, 1, (1, 0)), (2, 3, ident)])
    ok, witness = propagate_complete_sat(inst)
    assert ok
    assert evaluate(inst, witness)[0] == 2


# -- label lift ---------------------------------------------------------------


def test_lift_size_and_membership():
    inst = GroupUgInstance(1, ["u", "w"], [("u", "w", [v(0, 1)])])
    lifted = label_lift(inst)
    assert len(lifted.vertices) == 4
    assert lifted.constraint_count == 4  # 2^{2m} copies
    assert diffs_on(lifted, ("u", 0), ("w", 1)) == (v(1, 1),)


def test_lift_cap():
    inst = GroupUgInstance(2, range(3), [(0, 1, [v(0, 2)])])
    with pytest.raises(SearchBudgetError):
        label_lift(inst, max_vertices=5)


def test_lift_cap_boundary():
    # 3 vertices times q = 4 labels: lifted at a cap of 12, refused at 11
    inst = GroupUgInstance(2, range(3), [(0, 1, [v(0, 2)])])
    assert len(label_lift(inst, max_vertices=12).vertices) == 12
    with pytest.raises(SearchBudgetError, match="lift has 12 vertices, cap is 11"):
        label_lift(inst, max_vertices=11)


def test_lift_bundle_cap_boundary(monkeypatch):
    # one bundle over q = 4 lifts to 16: lifted at a cap of 16, refused at 15
    inst = GroupUgInstance(2, range(3), [(0, 1, [v(0, 2)])])
    monkeypatch.setattr(instances, "LIFT_BUNDLE_BUDGET", 16)
    assert len(label_lift(inst).bundles) == 16
    monkeypatch.setattr(instances, "LIFT_BUNDLE_BUDGET", 15)
    with pytest.raises(SearchBudgetError, match="^lift has 16 bundles, cap is 15$"):
        label_lift(inst)


def test_lifted_opt_results_are_pinned():
    # count, fraction and witness on 100 seeded bases, m = 1 on 5 vertices and
    # m = 2 on 4, up to three chords, connected or not, K4 on every tenth;
    # recorded with the dense profile grid that elimination replaced
    rng = random.Random(33)
    digest = hashlib.sha256()
    for i in range(100):
        m = 1 + i % 2
        n = 5 if m == 1 else 4
        if i % 10 == 9:
            pairs = itertools.combinations(range(n), 2)
            bundles = [(a, b, [v(z, m) for z in rng.sample(range(1 << m), rng.randint(1, 1 << m))]) for a, b in pairs]
            inst = GroupUgInstance(m, range(n), bundles)
        else:
            inst = random_group_instance(rng, n - (i % 7 == 0), m, n - 1 + rng.randrange(4), connected=i % 5 != 0)
        count, frac, witness = lifted_opt(inst)
        digest.update(repr((count, frac, sorted((x, g, label.bits) for (x, g), label in witness.items()))).encode())
    assert digest.hexdigest() == "2e9f8f65cf507fe54f45b36dc3530d99fd4d7d8d2da9dff808a0d46fae6e8950"


# -- bucket elimination ------------------------------------------------------


def test_eliminate_more_radix_one_variables_than_numpy_axes():
    # 80 tables share variable 80 with one radix-1 variable each: a combined
    # table over all 81 variables would pass numpy's dimension cap
    radices = [1] * 80 + [3]
    tables = [((i, 80), np.array([[i % 3 == 1, False, i % 3 == 2]])) for i in range(80)]
    assert eliminate(radices, tables) == (27, (0,) * 80 + (0,))


def test_eliminate_radix_one_scopes_in_either_order_past_numpy_axes():
    # more radix-1 variables than numpy has axes, with scopes in either order
    # and a table of radix-1 variables only
    radices = [1] * 80 + [3]
    tables = [((80, 0), np.array([[1], [5], [2]], dtype=np.int64)), ((3, 79), np.array([[-1]], dtype=np.int64))]
    assert eliminate(radices, tables) == (4, (0,) * 80 + (1,))


def test_component_tables_are_bool_and_sized_by_radix(monkeypatch):
    # each component's first vertex has radix 1, so an m = 20 edge holds 2^20
    # entries, not 2^40; a lone vertex of F_2^64 gets no table and no 2^64-wide mask
    inst = GroupUgInstance(20, ["a", "b", "c"], [("a", "b", [Gf2Vector(5, 20), Gf2Vector(9, 20)])])
    real, seen = instances._eliminate, []

    def spy(radices, scopes, build, budget):
        seen.append((radices, scopes, build()))
        return real(radices, scopes, lambda: seen[-1][2], budget)

    monkeypatch.setattr(instances, "_eliminate", spy)
    count, frac, witness = brute_force_opt(inst)
    [(radices, scopes, [table])] = seen
    assert (radices, scopes) == ([1, 2**20, 1], [(0, 1)])
    assert table.dtype == bool and table.shape == (1, 2**20)
    assert np.flatnonzero(table[0]).tolist() == [5, 9]
    assert (count, frac) == evaluate(inst, witness) == (1, Fraction(1, 2))
    assert witness == {"a": Gf2Vector(0, 20), "b": Gf2Vector(5, 20), "c": Gf2Vector(0, 20)}
    monkeypatch.undo()
    assert brute_force_opt(GroupUgInstance(64, ["a"], []))[::2] == (0, {"a": Gf2Vector(0, 64)})
    _refused_before_build(lambda: brute_force_opt(PermUgInstance(10**12, ["a"], [])), "exceed the budget")


def _pursuit_pair(k):
    h = cops_robbers_graph(k)
    return klein_pair(h, cubic_edge_coloring(h), h.edges[0])


@pytest.mark.parametrize("k, u1_opt, u2_opt", [(3, Fraction(1, 2), Fraction(17, 36)), (4, Fraction(1, 2), Fraction(35, 72))])
def test_pursuit_optima_through_elimination(k, u1_opt, u2_opt):
    for inst, opt in zip(_pursuit_pair(k), (u1_opt, u2_opt)):
        count, frac, witness = brute_force_opt(inst)
        assert frac == opt
        assert evaluate(inst, witness) == (count, frac)


def test_pursuit_k5_refused_before_any_table():
    # both sides share the graph, so their tables total the same 624929365 entries
    for inst in _pursuit_pair(5):
        _refused_before_build(lambda: brute_force_opt(inst), "^elimination tables of 624929365 entries in all exceed")


def test_eliminate_budget_is_the_total_of_combined_tables():
    # eliminating variable 2 combines both tables over (0, 1, 2): 2 * 3 * 4 = 24
    # entries; variable 1's holds 6 and variable 0's 2, 32 in all
    radices = [2, 3, 4]
    tables = [((2, 0), np.arange(8).reshape(4, 2) % 3), ((1, 2), np.eye(3, 4, dtype=bool))]
    assert eliminate(radices, tables, 32) == (3, (0, 1, 1))
    _refused_before_build(lambda: eliminate(radices, tables, 31), "^elimination tables of 32 entries in all exceed the budget 31$")


def test_elimination_ceiling_binds_under_any_budget(monkeypatch):
    # the same 32 entries, at a ceiling of 32 and of 31; the README's u5.gug
    # (m = 10) needs 1100586419201 entries, past the real ceiling whatever
    # the budget, and is refused before any table is built
    radices = [2, 3, 4]
    tables = [((2, 0), np.arange(8).reshape(4, 2) % 3), ((1, 2), np.eye(3, 4, dtype=bool))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instances, "ELIMINATION_CEILING", 32)
        assert eliminate(radices, tables, 10**18) == (3, (0, 1, 1))
        mp.setattr(instances, "ELIMINATION_CEILING", 31)
        _refused_before_build(lambda: eliminate(radices, tables, 10**18), "of 32 entries in all exceed the ceiling 31$")
    u5 = unsat_complete_graph(Fraction(1, 2))
    _refused_before_build(
        lambda: brute_force_opt(u5, budget=1_200_000_000_000),
        f"^elimination tables of 1100586419201 entries in all exceed the ceiling {2**27}$",
    )


def test_brute_budget_above_the_default_is_honoured(monkeypatch):
    # a caller's budget above DEFAULT_BRUTE_BUDGET solves what it admits: the
    # group cycle's tables total 16 + 16 + 4 + 1 = 37 entries and the CSP
    # path's 4 + 4 + 4 + 2 = 14, under a default of 3
    group = GroupUgInstance(2, range(4), [(0, 1, [v(1, 2)]), (1, 2, [v(2, 2)]), (2, 3, [v(3, 2)]), (0, 3, [v(1, 2)])])
    neq = CspType(2, [(0, 1), (1, 0)], 2)
    csp = WeightedCspInstance(2, "wxyz", {"neq": neq}, [("neq", pair, 1) for pair in ("wx", "xy", "yz")])
    expected = brute_force_opt(group), csp_brute_opt(csp)
    assert expected == (
        (3, Fraction(3, 4), {0: v(0, 2), 1: v(0, 2), 2: v(2, 2), 3: v(1, 2)}),
        (3, {"w": 0, "x": 1, "y": 0, "z": 1}),
    )
    monkeypatch.setattr(instances, "DEFAULT_BRUTE_BUDGET", 3)
    assert (brute_force_opt(group, budget=37), csp_brute_opt(csp, budget=14)) == expected


def test_lifted_opt_budget_boundaries(monkeypatch):
    # at m = 2 each vertex has 35 profiles: a bundle's pair eliminates through
    # 35^2 + 35 entries, an isolated vertex through 35; at m = 4 the 300540195
    # profiles are refused before any is listed
    pair = GroupUgInstance(2, "ab", [("a", "b", [v(1, 2)])])
    single = GroupUgInstance(2, "a", [])
    for inst, size in ((pair, 35**2 + 35), (single, 35)):
        monkeypatch.setattr(instances, "DEFAULT_BRUTE_BUDGET", size)
        assert lifted_opt(inst)[1] == 1
        monkeypatch.setattr(instances, "DEFAULT_BRUTE_BUDGET", size - 1)
        _refused_before_build(lambda: lifted_opt(inst), f"of {size} entries in all exceed the budget {size - 1}$")
    monkeypatch.undo()
    _refused_before_build(lambda: lifted_opt(GroupUgInstance(4, "a", [])), "of 300540195 entries")


# -- spanning tree oracle ------------------------------------------------------


def test_tree_instance_fully_satisfiable():
    inst = GroupUgInstance(
        2, range(4), [(0, 1, [v(1, 2)]), (1, 2, [v(2, 2)]), (1, 3, [v(3, 2)])]
    )
    count, frac, witness = spanning_tree_opt(inst)
    assert count == 3 and frac == Fraction(1)
    assert evaluate(inst, witness)[0] == 3


def test_spanning_tree_requires_connected():
    inst = GroupUgInstance(1, range(4), [(0, 1, [v(0, 1)]), (2, 3, [v(0, 1)])])
    with pytest.raises(PreconditionError):
        spanning_tree_opt(inst)


def test_spanning_tree_budget():
    rng = random.Random(2)
    inst = random_group_instance(rng, 5, 2, 10, connected=True)
    with pytest.raises(SearchBudgetError):
        spanning_tree_opt(inst, budget=1)


def test_spanning_tree_budget_boundary():
    # a triangle whose bundles cannot all hold, so no search stops early: its
    # three trees take 2 + 2 + 1 = 5 evaluations, solved at a budget of 5 and
    # refused at 4
    inst = GroupUgInstance(2, range(3), [(0, 1, [v(1, 2), v(2, 2)]), (1, 2, [v(1, 2)]), (0, 2, [v(1, 2)])])
    assert spanning_tree_opt(inst, budget=5) == brute_force_opt(inst) == (2, Fraction(1, 2), {0: v(0, 2), 1: v(0, 2), 2: v(1, 2)})
    with pytest.raises(SearchBudgetError, match="spanning tree search exceeded budget 4"):
        spanning_tree_opt(inst, budget=4)


def test_oracles_agree_on_an_instance_with_no_vertices(tmp_path, capsys):
    inst = GroupUgInstance(2, [], [])
    assert spanning_tree_opt(inst) == brute_force_opt(inst) == (0, Fraction(1), {})
    path = tmp_path / "empty.gug"
    path.write_text(write_gug(inst))
    for mode in ("tree", "brute"):
        assert cli.main(["solve", mode, "--in", str(path), "--out", str(tmp_path / f"{mode}.json")]) == 0
        assert capsys.readouterr().out == "optimum 0 of 0 (1)\n"


def test_spanning_tree_results_are_pinned():
    # count and witness of 50 seeded draws, 7 of them not fully satisfiable,
    # so both the early-stop rule and the lex-least rule are pinned
    rng = random.Random(23)
    digest = hashlib.sha256()
    for _ in range(50):
        inst = random_group_instance(rng, rng.randrange(4, 6), 2, 10, connected=True)
        count, _, witness = spanning_tree_opt(inst)
        digest.update(repr((count, sorted((x, label.bits) for x, label in witness.items()))).encode())
    assert digest.hexdigest() == "f12ee1d301b0accb8af259f9d28410fd0a1fead516f33b325f79f0b6728820ff"


# -- weighted CSPs ---------------------------------------------------------------


def _maxcut_csp(edges, n, weight):
    neq = CspType(2, [(0, 1), (1, 0)], 2)
    apps = [("neq", e, weight) for e in edges]
    return WeightedCspInstance(2, range(n), {"neq": neq}, apps)


def test_csp_value_empty():
    inst = WeightedCspInstance(2, [0, 1], {}, [])
    assert csp_value(inst, {0: 0, 1: 1}) == 0
    val, witness = csp_brute_opt(inst)
    assert val == 0


def test_csp_triangle_maxcut():
    inst = _maxcut_csp([(0, 1), (1, 2), (0, 2)], 3, Fraction(1, 3))
    val, witness = csp_brute_opt(inst)
    assert val == Fraction(2, 3)
    assert csp_value(inst, witness) == val


def test_csp_negative_weight_avoided():
    never = CspType(1, [], 2)
    bad = CspType(1, [(0,), (1,)], 2)
    inst = WeightedCspInstance(
        2, [0], {"never": never, "bad": bad}, [("bad", (0,), Fraction(-1, 2))]
    )
    val, witness = csp_brute_opt(inst)
    assert val == Fraction(-1, 2)  # the constraint always holds, weight unavoidable
    inst2 = WeightedCspInstance(2, [0], {"never": never}, [("never", (0,), Fraction(-1, 2))])
    val2, _ = csp_brute_opt(inst2)
    assert val2 == 0  # unsatisfiable tuple set, negative weight avoided


def test_csp_duplicate_applications_both_count():
    eq = CspType(2, [(0, 0), (1, 1)], 2)
    inst = WeightedCspInstance(
        2, [0, 1], {"eq": eq}, [("eq", (0, 1), Fraction(1, 4)), ("eq", (0, 1), Fraction(1, 4))]
    )
    assert csp_value(inst, {0: 1, 1: 1}) == Fraction(1, 2)
