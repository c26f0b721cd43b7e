from __future__ import annotations

import hashlib
import itertools
import random
from fractions import Fraction
from unittest import mock

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
from uglab.formats import write_gug
from uglab.game import LiftedStructure
from uglab.gf2 import Gf2Vector
from uglab.instances import (
    CspType,
    GroupUgInstance,
    PermUgInstance,
    WeightedCspInstance,
    all_labels,
    brute_force_opt,
    csp_brute_opt,
    csp_value,
    evaluate,
    label_lift,
    lifted_opt,
    propagate_complete_sat,
    spanning_tree_opt,
)


def v(bits, m):
    return Gf2Vector(bits, m)


def random_group_instance(rng, n_vertices, m, max_bundles, connected=False):
    pairs = [(i, j) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
    if connected:
        # random spanning tree first, then extra edges
        order = list(range(n_vertices))
        rng.shuffle(order)
        chosen = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n_vertices)}
        extra = [p for p in pairs if p not in chosen]
        rng.shuffle(extra)
        for p in extra[: rng.randrange(0, max(1, max_bundles - len(chosen) + 1))]:
            chosen.add(p)
    else:
        rng.shuffle(pairs)
        chosen = set(pairs[: rng.randrange(1, max_bundles + 1)])
    bundles = []
    for u, w in sorted(chosen):
        size = rng.randrange(1, (1 << m) + 1)
        diffs = [v(b, m) for b in rng.sample(range(1 << m), size)]
        bundles.append((u, w, diffs))
    return GroupUgInstance(m, range(n_vertices), bundles)


# -- data model ------------------------------------------------------------


def test_group_instance_merges_bundles_per_edge():
    inst = GroupUgInstance(
        2,
        [0, 1],
        [(0, 1, [v(0, 2), v(1, 2)]), (1, 0, [v(1, 2), v(2, 2)])],
    )
    assert len(inst.bundles) == 1
    assert inst.constraint_count == 3
    assert inst.diffs_on(1, 0) == (v(0, 2), v(1, 2), v(2, 2))


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


def test_brute_witness_attains_reported_count():
    rng = random.Random(11)
    for _ in range(20):
        inst = random_group_instance(rng, rng.randrange(2, 6), rng.randrange(1, 3), 8)
        count, frac, witness = brute_force_opt(inst)
        got, gfrac = evaluate(inst, witness)
        assert got == count and gfrac == frac


def test_brute_root_fixing_matches_full_search():
    # the solver fixes the first vertex to zero; a search over every label
    # of every vertex finds the same value and lex-least witness
    rng = random.Random(5)
    for _ in range(15):
        inst = random_group_instance(rng, rng.randrange(2, 5), rng.randrange(1, 3), 6, connected=True)
        vs = inst.vertices
        best, best_at = _first_strict_max(
            [all_labels(inst.m)] * len(vs), lambda values: evaluate(inst, dict(zip(vs, values)))[0]
        )
        count, frac, witness = brute_force_opt(inst)
        assert (count, frac) == (best, evaluate(inst, witness)[1])
        assert witness == dict(zip(vs, best_at))
        assert witness[vs[0]] == v(0, inst.m)  # lex-least optimum always has a zero root


# the default block, and blocks small enough that the leading variables of
# these instances run in several steps
BLOCKS = (instances._BLOCK, 1, 4)


def _first_strict_max(domains, score):
    """Plain product enumeration: the first assignment with the best score."""
    best, best_at = None, None
    for values in itertools.product(*domains):
        s = score(values)
        if best is None or s > best:
            best, best_at = s, values
    return best, best_at


def _random_perm_instance(rng):
    q, n = rng.randint(1, 3), rng.randint(1, 5)
    cons = []
    for _ in range(rng.randint(0, 6) if n > 1 else 0):
        u, w = rng.sample(range(n), 2)
        cons.append((u, w, tuple(rng.sample(range(q), q))))
    return PermUgInstance(q, range(n), cons)


def _random_csp(rng):
    q, n = rng.randint(1, 3), rng.randint(1, 5)
    types, apps = {}, []
    for t in range(rng.randint(0, 5)):
        arity = rng.randint(1, 3)
        tuples = list(itertools.product(range(q), repeat=arity))
        types[f"t{t}"] = CspType(arity, rng.sample(tuples, rng.randint(0, len(tuples))), q)
        scope = tuple(rng.randrange(n) for _ in range(arity))  # may repeat a variable
        apps.append((f"t{t}", scope, Fraction(rng.randint(-6, 6), rng.randint(1, 6))))
    return WeightedCspInstance(q, range(n), types, apps)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_brute_group_matches_product_enumeration(rng, connected):
    inst = random_group_instance(rng, rng.randint(1, 5), rng.randint(1, 2), 6, connected=connected)
    vs = inst.vertices
    best, best_at = _first_strict_max(
        [all_labels(inst.m)] * len(vs), lambda values: evaluate(inst, dict(zip(vs, values)))[0]
    )
    expected = (best, evaluate(inst, dict(zip(vs, best_at)))[1], dict(zip(vs, best_at)))
    for block in BLOCKS:
        with mock.patch.object(instances, "_BLOCK", block):
            assert brute_force_opt(inst) == expected


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_brute_perm_and_csp_match_product_enumeration(rng):
    perm = _random_perm_instance(rng)
    vs = perm.vertices
    best, best_at = _first_strict_max(
        [range(perm.q)] * len(vs), lambda values: evaluate(perm, dict(zip(vs, values)))[0]
    )
    witness = dict(zip(vs, best_at))
    for block in BLOCKS:
        with mock.patch.object(instances, "_BLOCK", block):
            assert brute_force_opt(perm) == (best, evaluate(perm, witness)[1], witness)

    csp = _random_csp(rng)
    vs = csp.variables
    best, best_at = _first_strict_max(
        [range(csp.q)] * len(vs), lambda values: csp_value(csp, dict(zip(vs, values)))
    )
    for block in BLOCKS:
        with mock.patch.object(instances, "_BLOCK", block):
            assert csp_brute_opt(csp) == (best, dict(zip(vs, best_at)))


def test_csp_weights_past_int64_rejected_before_enumeration(monkeypatch):
    one = CspType(1, [(1,)], 2)

    def csp(*weights):
        return WeightedCspInstance(2, ["x"], {"one": one}, [("one", ("x",), w) for w in weights])

    assert csp_brute_opt(csp(2**62, 2**62 - 1)) == (2**63 - 1, {"x": 1})

    def fail(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(instances, "_enumerate", fail)
    # 1/3 scales every weight by 3: 2**62 + 1/3 becomes 3 * 2**62 + 1
    for weights in [(2**62, 2**62), (2**62, Fraction(1, 3))]:
        with pytest.raises(SearchBudgetError):
            csp_brute_opt(csp(*weights))


def test_brute_budget_error():
    inst = GroupUgInstance(2, range(6), [(i, i + 1, [v(0, 2)]) for i in range(5)])
    with pytest.raises(SearchBudgetError):
        brute_force_opt(inst, budget=100)


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


def test_brute_perm_budget_bounds_each_component():
    # two 3-vertex components: 3^6 = 729 assignments in all, 27 per component
    inst = PermUgInstance(
        3,
        range(6),
        [(0, 1, (1, 2, 0)), (1, 2, (1, 2, 0)), (0, 2, (0, 1, 2)), (3, 4, (2, 0, 1)), (4, 5, (0, 2, 1))],
    )
    count, frac, witness = brute_force_opt(inst, budget=27)
    assert (count, frac) == (4, Fraction(4, 5))
    assert witness == {0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 2}
    assert evaluate(inst, witness)[0] == 4
    with pytest.raises(SearchBudgetError):
        brute_force_opt(inst, budget=26)


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


def test_propagate_agrees_with_brute_force():
    rng = random.Random(77)
    perms_by_q = {2: [(0, 1), (1, 0)], 3: [p for p in __import__("itertools").permutations(range(3))]}
    for _ in range(200):
        q = rng.choice([2, 3])
        n = rng.randrange(2, 6)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        cons = [(u, w, rng.choice(perms_by_q[q])) for u, w in pairs[: rng.randrange(1, len(pairs) + 1)]]
        inst = PermUgInstance(q, range(n), cons)
        ok, witness = propagate_complete_sat(inst)
        count, frac, _ = brute_force_opt(inst)
        assert ok == (frac == 1)
        if ok:
            assert evaluate(inst, witness)[0] == inst.constraint_count


# -- label lift ---------------------------------------------------------------


def test_lift_size_and_membership():
    inst = GroupUgInstance(1, ["u", "w"], [("u", "w", [v(0, 1)])])
    lifted = label_lift(inst)
    assert len(lifted.vertices) == 4
    assert lifted.constraint_count == 4  # 2^{2m} copies
    assert lifted.diffs_on(("u", 0), ("w", 1)) == (v(1, 1),)


def test_lift_cap():
    inst = GroupUgInstance(2, range(3), [(0, 1, [v(0, 2)])])
    with pytest.raises(SearchBudgetError):
        label_lift(inst, max_vertices=5)


def test_lifted_allowed_diffs_matches_materialized():
    rng = random.Random(9)
    for _ in range(20):
        inst = random_group_instance(rng, rng.randrange(2, 5), rng.randrange(1, 3), 6)
        lifted = label_lift(inst)
        structure = LiftedStructure(inst)
        for _ in range(50):
            u = rng.choice(inst.vertices)
            w = rng.choice(inst.vertices)
            if u == w:
                continue
            g1 = v(rng.randrange(inst.q), inst.m)
            g2 = v(rng.randrange(inst.q), inst.m)
            virtual = structure.allowed_diffs((u, g1), (w, g2))
            materialized = {z.bits for z in lifted.diffs_on((u, g1.bits), (w, g2.bits))}
            assert virtual == materialized


def test_lifted_opt_matches_raw_brute_force_m1():
    rng = random.Random(31)
    for _ in range(10):
        inst = random_group_instance(rng, 3, 1, 3)
        lifted = label_lift(inst)
        c_raw, f_raw, _ = brute_force_opt(lifted)
        c_prof, f_prof, witness = lifted_opt(inst)
        assert (c_raw, f_raw) == (c_prof, f_prof)
        assert evaluate(lifted, witness)[0] == c_prof


def test_lift_preserves_satisfiability_spot_check():
    rng = random.Random(4242)
    for _ in range(10):
        m = rng.choice([1, 2])
        n = rng.randrange(2, 6) if m == 1 else rng.randrange(2, 5)
        inst = random_group_instance(rng, n, m, 8)
        _, base_frac, _ = brute_force_opt(inst)
        _, lift_frac, _ = lifted_opt(inst)
        assert base_frac == lift_frac


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


def test_oracles_agree_on_an_instance_with_no_vertices(tmp_path, capsys):
    inst = GroupUgInstance(2, [], [])
    assert spanning_tree_opt(inst) == brute_force_opt(inst) == (0, Fraction(1), {})
    path = tmp_path / "empty.gug"
    path.write_text(write_gug(inst))
    for mode in ("tree", "brute"):
        assert cli.main(["solve", mode, "--in", str(path), "--out", str(tmp_path / f"{mode}.json")]) == 0
        assert capsys.readouterr().out == "optimum 0 of 0 (1)\n"


def test_spanning_tree_matches_brute_force():
    rng = random.Random(17)
    for _ in range(30):
        inst = random_group_instance(rng, rng.randrange(2, 6), rng.randrange(1, 3), 8, connected=True)
        c1, f1, _ = brute_force_opt(inst)
        c2, f2, w2 = spanning_tree_opt(inst)
        assert (c1, f1) == (c2, f2)
        assert evaluate(inst, w2)[0] == c2


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
