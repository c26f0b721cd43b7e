"""Relaxation values, rounding statistics, and the SDPA text round trip."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab.errors import (
    ConvergenceError,
    InvalidParameterError,
    PreconditionError,
    SearchBudgetError,
    UglabError,
)
from uglab.graphs import SimpleGraph
from uglab.instances import CspType, WeightedCspInstance, csp_brute_opt
from uglab.sdp import (
    GapTable,
    SdpInstance,
    SdpSolution,
    SymMatrix,
    build_lc_relaxation,
    build_maxcut_sdp,
    gap_curve_estimate,
    gw_alpha,
    gw_symmetric_value,
    hyperplane_round,
    parse_sdpa,
    solve_sdp_lowrank,
    to_sdpa,
)
from uglab.sdp import _colour_classes, _dense, _mixing


def cycle(n):
    return SimpleGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def maxcut_brute(graph, weights=None):
    vs = graph.vertices
    best = Fraction(0)
    for mask in range(1 << len(vs)):
        side = {v: (mask >> i) & 1 for i, v in enumerate(vs)}
        val = Fraction(0)
        for u, v in graph.edges:
            if side[u] != side[v]:
                val += Fraction(weights[(u, v)]) if weights else Fraction(1)
        best = max(best, val)
    return best


# -- matrices and instances --------------------------------------------------


def test_symmatrix_accumulates_symmetrically():
    a = SymMatrix()
    a.add(2, 1, 3.0)
    a.add(1, 2, -1.0)
    a.add(0, 0, 5.0)
    assert a.entries == {(1, 2): 2.0, (0, 0): 5.0}
    table = SdpInstance(3, a)
    assert sorted(zip(table._i.tolist(), table._j.tolist(), table._coef.tolist())) == [
        (0, 0, 5.0),
        (1, 2, 2.0),
    ]
    a.add(2, 1, -2.0)
    assert a.entries == {(0, 0): 5.0}


def test_symmatrix_dense_reproduces_value():
    a = SymMatrix({(0, 1): 4.0, (1, 1): 2.0})
    x = np.array([[1.0, 0.5], [0.5, 3.0]])
    inst = SdpInstance(2, a)
    pairs_once = sum(c * x[i, j] for i, j, c in zip(inst._i, inst._j, inst._coef))
    assert pairs_once == pytest.approx(4.0 * 0.5 + 2.0 * 3.0)
    assert np.sum(_dense(inst, 0, 1)[0] * x) == pytest.approx(pairs_once)
    # one scatter per block: matrix k of an "s" block mirrors its pairs, a
    # "d" block keeps its diagonal as a vector
    cons = [(SymMatrix({(0, 1): 4.0, (2, 2): -1.0}), 1.0, "==")]
    two = SdpInstance(3, a, cons, blocks=[("s", 2), ("d", 1)])
    s_block, d_block = _dense(two, 0, 2), _dense(two, 1, 2)
    assert s_block.shape == (2, 2, 2) and d_block.shape == (2, 1)
    assert np.sum(s_block[1] * x) == pytest.approx(4.0 * 0.5)
    assert d_block.tolist() == [[0.0], [-1.0]]


def test_instance_validation():
    with pytest.raises(InvalidParameterError):
        SdpInstance(2, SymMatrix(), blocks=[("x", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(3, SymMatrix(), blocks=[("s", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(4, SymMatrix({(0, 3): 1.0}), blocks=[("s", 2), ("s", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(2, SymMatrix({(0, 1): 1.0}), blocks=[("d", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(1, SymMatrix(), [(SymMatrix({(0, 0): 1.0}), 1.0, ">=")])


# -- cut relaxation -----------------------------------------------------------


def test_maxcut_builder_fields():
    inst = build_maxcut_sdp(SimpleGraph(range(3), [(0, 1), (1, 2), (0, 2)]))
    assert inst.n == 3
    assert inst.constant == 1.5
    assert inst.objective.entries == {(0, 1): -0.5, (1, 2): -0.5, (0, 2): -0.5}
    assert len(inst.constraints) == 3
    for a, b, sense in inst.constraints:
        assert b == 1.0 and sense == "=="
        ((i, j),) = a.entries
        assert i == j


def test_maxcut_empty_graph():
    inst = build_maxcut_sdp(SimpleGraph(["a", "b", "c"], []))
    assert len(inst.constraints) == 3
    assert inst.objective.entries == {}
    assert solve_sdp_lowrank(inst).value == 0.0


def test_maxcut_no_vertices():
    sol = solve_sdp_lowrank(build_maxcut_sdp(SimpleGraph([], [])))
    assert sol.value == 0.0 and sol.residual == 0.0


@pytest.mark.parametrize("cons", [[], [(SymMatrix(), 0.0, "==")]])
def test_zero_dimensional_solve_returns_the_constant(cons):
    sol = solve_sdp_lowrank(SdpInstance(0, SymMatrix(), cons, constant=2.5), restarts=3, rng=7)
    assert (sol.value, sol.residual, sol.spread) == (2.5, 0.0, 0.0)
    assert (sol.restarts, sol.seed, sol.factor.shape) == (3, 7, (0, 0))


def test_zero_dimensional_solve_checks_its_constraints():
    """With no variables, 0 == 1 can never hold."""
    inst = SdpInstance(0, SymMatrix(), [(SymMatrix(), 1.0, "==")], constant=2.5)
    with pytest.raises(ConvergenceError, match="feasibility residual 1 above tolerance") as err:
        solve_sdp_lowrank(inst)
    assert err.value.best.residual == 1.0


def test_single_edge_value():
    sol = solve_sdp_lowrank(build_maxcut_sdp(SimpleGraph(["a", "b"], [("a", "b")])))
    assert abs(sol.value - 1.0) <= 1e-6
    assert sol.residual <= 1e-6
    assert np.linalg.eigvalsh(sol.gram()).min() >= -1e-9


def test_solver_deterministic():
    g = cycle(7)
    v1 = solve_sdp_lowrank(build_maxcut_sdp(g), rng=11).value
    v2 = solve_sdp_lowrank(build_maxcut_sdp(g), rng=11).value
    assert v1 == v2


def test_five_cycle_matches_closed_form():
    sol = solve_sdp_lowrank(build_maxcut_sdp(cycle(5)))
    assert sol.value >= 4.0 - 1e-4
    assert sol.value == pytest.approx(2.5 * (1 + math.cos(math.pi / 5)), abs=1e-6)


def test_bipartite_value_is_total_weight():
    k23 = SimpleGraph(range(5), [(i, j) for i in range(2) for j in range(2, 5)])
    assert solve_sdp_lowrank(build_maxcut_sdp(k23)).value == pytest.approx(6.0, abs=1e-4)
    assert solve_sdp_lowrank(build_maxcut_sdp(cycle(6))).value == pytest.approx(6.0, abs=1e-4)


def test_sdp_dominates_brute_force_cut():
    rnd = random.Random(5)
    for _ in range(8):
        n = rnd.randint(2, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rnd.random() < 0.6]
        g = SimpleGraph(range(n), edges)
        weights = {e: Fraction(rnd.randint(1, 4)) for e in g.edges}
        sol = solve_sdp_lowrank(build_maxcut_sdp(g, weights))
        opt = maxcut_brute(g, weights)
        assert sol.value >= float(opt) - 1e-4
        assert sol.residual <= 1e-6
        assert np.linalg.eigvalsh(sol.gram()).min() >= -1e-9


# -- the colour-class mixing sweep ----------------------------------------------


FRACS = st.fractions(-4, 4, max_denominator=4).filter(bool)


@st.composite
def weighted_graph_sdps(draw):
    """Unit-diagonal instances of random weighted graphs on 1-25 vertices,
    isolated ones included, some with diagonal objective entries."""
    n = draw(st.integers(1, 25))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs), max_size=60))) if pairs else []
    weights = {e: draw(FRACS) for e in edges}
    cut = build_maxcut_sdp(SimpleGraph(range(n), edges), weights)
    objective = SymMatrix(cut.objective.entries)
    for i, c in draw(st.dictionaries(st.integers(0, n - 1), FRACS, max_size=3)).items():
        objective.add(i, i, c)
    return SdpInstance(n, objective, cut.constraints, constant=cut.constant)


def mixing_reference(inst, order, gen, sweeps):
    """Per-column coordinate ascent over the indices in the given order."""
    n = inst.n
    p = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    c = _dense(inst, 0, 1)[0]
    v = gen.standard_normal((p, n))
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    v /= norms
    for _ in range(sweeps):
        for i in order:
            g = v @ c[:, i] - c[i, i] * v[:, i]
            nrm = float(np.linalg.norm(g))
            if nrm > 1e-15:
                v[:, i] = g / nrm
    return v, float(np.einsum("ij,ij->", v.T @ v, c)) + inst.constant


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps(), st.integers(0, 2**32 - 1))
def test_mixing_equals_the_per_column_sweep_in_colour_order(inst, seed):
    # the reference runs as many sweeps as the restart did: near a flat
    # plateau a last-bit difference in the sums may stop one sweep apart
    restart, _ = _mixing(inst, 1e-6)
    factor, value, _, _, counts = restart(np.random.default_rng(seed))
    order = np.concatenate(_colour_classes(inst))
    ref, ref_value = mixing_reference(inst, order, np.random.default_rng(seed), counts["sweeps"])
    assert np.abs(factor - ref).max() <= 1e-12
    assert abs(value - ref_value) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps())
def test_colour_classes_partition_and_hold_no_objective_entry(inst):
    classes = _colour_classes(inst)
    assert sorted(np.concatenate(classes).tolist()) == list(range(inst.n))
    colour = {int(i): c for c, members in enumerate(classes) for i in members}
    for i, j in inst.objective.entries:
        assert i == j or colour[i] != colour[j]


def test_dense_unit_diagonal_sdpa_instance_solves():
    # max -3 tr X - sum_{i != j} X_ij over unit diagonals is -15 + 5 at n = 5,
    # reached when the five vectors sum to zero; every pair shares an entry,
    # so each class is one index
    n = 5
    lines = ["*constant 2.5", str(n), "1", str(n), " ".join(["1"] * n)]
    lines += [f"0 1 {i} {j} {-3 if i == j else -1}" for i in range(1, n + 1) for j in range(i, n + 1)]
    lines += [f"{k} 1 {k} {k} 1" for k in range(1, n + 1)]
    inst = parse_sdpa("\n".join(lines) + "\n")
    assert [s.tolist() for s in _colour_classes(inst)] == [[i] for i in range(n)]
    sol = solve_sdp_lowrank(inst, restarts=2)
    assert sol.value == pytest.approx(-10.0 + 2.5, abs=1e-6)
    assert sol.residual <= 1e-6 and len(sol.stats["sweeps"]) == 2


# -- rounding -----------------------------------------------------------------


def test_gw_alpha_reference_value():
    assert abs(gw_alpha() - 0.87856) <= 1e-4
    # the bracket endpoint is strictly worse than the minimum
    assert 2 * math.pi / (math.pi * 2) == 1.0 > gw_alpha()


def test_gw_pointwise_inequality_on_grid():
    t = np.linspace(-1.0, 1.0, 100_000)
    lhs = np.arccos(np.clip(t, -1.0, 1.0)) / math.pi
    rhs = gw_alpha() * (1.0 - t) / 2.0
    assert float((lhs - rhs).min()) >= -1e-12


def test_gw_symmetric_value_tracks_alpha():
    sol = solve_sdp_lowrank(build_maxcut_sdp(SimpleGraph(["a", "b"], [("a", "b")])))
    assert gw_symmetric_value(sol) == pytest.approx(gw_alpha(), abs=1e-6)
    tri = solve_sdp_lowrank(build_maxcut_sdp(SimpleGraph(range(3), [(0, 1), (1, 2), (0, 2)])))
    assert gw_symmetric_value(tri) <= 2.0 + 1e-4
    assert gw_symmetric_value(tri) / tri.value == pytest.approx(gw_alpha(), abs=1e-12)


def test_rank_one_factor_rounds_constantly():
    edge = build_maxcut_sdp(SimpleGraph(["a", "b"], [("a", "b")]))
    sol = SdpSolution(
        value=1.0,
        factor=np.array([[1.0, -1.0]]),
        residual=0.0,
        spread=0.0,
        restarts=1,
        seed=0,
        instance=edge,
    )
    mean, std = hyperplane_round(sol, rng=3, trials=64)
    assert mean == 1.0 and std == 0.0


def test_rounding_matches_expectation_formula():
    g = cycle(5)
    sol = solve_sdp_lowrank(build_maxcut_sdp(g))
    mean, std = hyperplane_round(sol, rng=9, trials=2000)
    se = std / math.sqrt(2000)
    x = sol.gram()
    expected = sum(math.acos(max(-1.0, min(1.0, x[i, j]))) / math.pi for (i, j) in sol.instance.meta["weights"])
    assert abs(mean - expected) <= 3 * se
    assert mean >= gw_symmetric_value(sol) - 3 * se


def test_rounding_needs_recorded_weights():
    inst = SdpInstance(1, SymMatrix({(0, 0): 1.0}), [(SymMatrix({(0, 0): 1.0}), 1.0, "==")])
    sol = solve_sdp_lowrank(inst)
    with pytest.raises(PreconditionError):
        hyperplane_round(sol, rng=0, trials=4)


# -- general solver paths ------------------------------------------------------


def test_inequality_sense_binds():
    a = SymMatrix({(0, 0): 1.0})
    inst = SdpInstance(1, SymMatrix({(0, 0): 1.0}), [(a, 2.0, "<=")])
    sol = solve_sdp_lowrank(inst)
    assert sol.value == pytest.approx(2.0, abs=1e-5)


@pytest.mark.parametrize("coeff, bound, value", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (1.0, 2.0, 2.0)])
def test_only_unit_diagonal_instances_take_the_mixing_path(coeff, bound, value):
    # max -X_01 subject to coeff * X_ii == bound is bound / coeff; the mixing
    # path holds X_ii at 1 and would report 1.0 for every row
    cons = [(SymMatrix({(i, i): coeff}), bound, "==") for i in range(2)]
    sol = solve_sdp_lowrank(SdpInstance(2, SymMatrix({(0, 1): -1.0}), cons), restarts=1)
    assert sol.value == pytest.approx(value, abs=1e-5)


def test_infeasible_instance_raises_with_best():
    a = SymMatrix({(0, 0): 1.0})
    inst = SdpInstance(1, SymMatrix(), [(a, 1.0, "=="), (a, 2.0, "==")])
    with pytest.raises(ConvergenceError) as err:
        solve_sdp_lowrank(inst)
    assert isinstance(err.value.best, SdpSolution)
    assert err.value.best.residual > 1e-6


# -- label-distribution relaxation ----------------------------------------------


def xor_cycle_csp(n, w=1):
    xor = CspType(2, [(0, 1), (1, 0)], 2)
    apps = [("xor", (i, (i + 1) % n), w) for i in range(n)]
    return WeightedCspInstance(2, range(n), {"xor": xor}, apps)


def test_lc_single_unary_constraint():
    ct = CspType(1, [(0,)], 2)
    csp = WeightedCspInstance(2, ["x"], {"zero": ct}, [("zero", ("x",), 1)])
    inst = build_lc_relaxation(csp)
    assert inst.n == 4
    assert inst.blocks == (("s", 2), ("d", 2))
    sol = solve_sdp_lowrank(inst)
    assert sol.value == pytest.approx(1.0, abs=1e-4)
    assert sol.residual <= 1e-6


def test_lc_even_cycle_fully_satisfiable():
    inst = build_lc_relaxation(xor_cycle_csp(6))
    assert inst.meta["scale"] == 6.0
    sol = solve_sdp_lowrank(inst)
    assert sol.value == pytest.approx(1.0, abs=1e-4)


def test_lc_second_block_declared_diagonal():
    inst = build_lc_relaxation(xor_cycle_csp(4))
    n1 = 4 * 2
    assert inst.blocks == (("s", n1), ("d", inst.n - n1))
    for a, _, _ in [(inst.objective, 0.0, "==")] + list(inst.constraints):
        assert all(i == j for i, j in a.entries if j >= n1)
    x = solve_sdp_lowrank(inst).gram()
    assert np.abs(x[n1:, n1:] - np.diag(np.diag(x[n1:, n1:]))).max() <= 1e-6


def test_lc_dominates_brute_force():
    rnd = random.Random(23)
    for _ in range(5):
        nv = rnd.randint(2, 4)
        vs = [f"x{i}" for i in range(nv)]
        types, apps = {}, []
        for a in range(rnd.randint(2, 4)):
            arity = rnd.randint(1, 2)
            sat = {t for t in itertools.product(range(2), repeat=arity) if rnd.random() < 0.6}
            types[f"t{a}"] = CspType(arity, sat, 2)
            apps.append((f"t{a}", tuple(rnd.sample(vs, arity)), Fraction(rnd.randint(1, 4))))
        csp = WeightedCspInstance(2, vs, types, apps)
        inst = build_lc_relaxation(csp)
        sol = solve_sdp_lowrank(inst)
        opt, _ = csp_brute_opt(csp)
        assert sol.value >= float(opt / csp.abs_weight()) - 1e-4


def test_lc_rejects_repeated_scope_variable():
    eq = CspType(2, [(0, 0), (1, 1)], 2)
    csp = WeightedCspInstance(2, ["x"], {"eq": eq}, [("eq", ("x", "x"), 1)])
    with pytest.raises(InvalidParameterError):
        build_lc_relaxation(csp)


def test_lc_size_budget():
    ct = CspType(1, [(0,)], 2)
    vs = [f"v{i}" for i in range(1100)]
    csp = WeightedCspInstance(2, vs, {"z": ct}, [("z", (vs[0],), 1)])
    with pytest.raises(SearchBudgetError):
        build_lc_relaxation(csp)


def test_lc_count_normalization():
    inst = build_lc_relaxation(xor_cycle_csp(4, w=Fraction(1, 2)), normalization="count")
    assert inst.meta["scale"] == 4.0
    sol = solve_sdp_lowrank(inst)
    assert sol.value == pytest.approx(0.5, abs=1e-4)


# -- gap tables ------------------------------------------------------------------


def test_gap_lookup_rules():
    t = GapTable(points=((0.5, 0.4), (0.9, 0.8)), eta=0.1)
    assert t.lookup(0.5) == -math.inf
    assert t.lookup(0.6) == pytest.approx(0.3)
    assert t.lookup(1.1) == pytest.approx(0.7)


def test_gap_curve_singleton_family():
    table = gap_curve_estimate([xor_cycle_csp(4)], eta=0.05, grid=[0.5, 1.5])
    (sdp_val, opt_val), = table.points
    assert opt_val == pytest.approx(1.0)
    assert table.lookup(0.5) == -math.inf
    assert table.lookup(sdp_val + 0.01) == pytest.approx(opt_val - 0.05, abs=1e-6)
    assert table.samples[0][1] == -math.inf


def test_gap_lookup_monotone():
    ct_and = CspType(2, [(1, 1)], 2)
    ct_or = CspType(2, [(0, 1), (1, 0), (1, 1)], 2)
    family = []
    rnd = random.Random(3)
    for k in range(6):
        apps = []
        for a in range(rnd.randint(1, 3)):
            t = rnd.choice(["and", "or"])
            apps.append((t, tuple(rnd.sample(["x", "y", "z"], 2)), Fraction(rnd.randint(1, 3))))
        family.append(WeightedCspInstance(2, ["x", "y", "z"], {"and": ct_and, "or": ct_or}, apps))
    table = gap_curve_estimate(family, eta=0.1, restarts=2)
    grid = np.linspace(0.0, 1.5, 40)
    vals = [table.lookup(float(c)) for c in grid]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


# -- SDPA text --------------------------------------------------------------------


def test_sdpa_round_trip_maxcut():
    inst = build_maxcut_sdp(SimpleGraph(range(3), [(0, 1), (1, 2), (0, 2)]))
    back = parse_sdpa(to_sdpa(inst))
    assert back.n == inst.n
    assert back.blocks == inst.blocks
    assert back.constant == inst.constant
    assert back.objective == inst.objective
    assert [(a.entries, b) for a, b, _ in back.constraints] == [
        (a.entries, b) for a, b, _ in inst.constraints
    ]
    assert solve_sdp_lowrank(back).value == pytest.approx(solve_sdp_lowrank(inst).value, abs=1e-9)


def test_sdpa_round_trip_lc():
    inst = build_lc_relaxation(xor_cycle_csp(4))
    back = parse_sdpa(to_sdpa(inst))
    assert back.n == inst.n and back.blocks == inst.blocks
    assert back.objective == inst.objective
    assert len(back.constraints) == len(inst.constraints)


def test_sdpa_round_trip_without_constraints():
    # an empty bound vector is written "{}", so the header keeps its four lines
    inst = SdpInstance(1, SymMatrix({(0, 0): 2.0}), constant=0.5)
    text = to_sdpa(inst)
    assert text.splitlines()[1:5] == ["0", "1", "1", "{}"]
    back = parse_sdpa(text)
    assert back.objective == inst.objective and back.constraints == () and back.constant == 0.5


def test_sdpa_rejects_inequalities():
    a = SymMatrix({(0, 0): 1.0})
    inst = SdpInstance(1, SymMatrix(), [(a, 1.0, "<=")])
    with pytest.raises(InvalidParameterError):
        to_sdpa(inst)


def test_sdpa_parse_errors():
    with pytest.raises(InvalidParameterError):
        parse_sdpa("1\n1\n")
    with pytest.raises(InvalidParameterError):
        parse_sdpa("1\n1\n1\n1.0\n0 1 1\n")


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("1\n1\n1\n1.0\n0 1 1 1 x\n", 5),  # non-numeric coefficient
        ("1\n1\n1\n1.0\n0 1 a 1 2.0\n", 5),  # non-integer index
        ("m\n1\n1\n1.0\n", 1),  # non-integer constraint count
        ("1\n1.5\n1\n1.0\n", 2),  # non-integer block count
        ('"comment\n1\n1\n{x}\n1.0\n', 4),  # non-integer block size
        ("1\n1\n1\nb\n", 4),  # non-numeric bound
        ('1\n1\n1\n1.0\n"constant y\n', 5),
        ("1\n1\n1\n1.0\n2 1 1 1 1.0\n", 5),  # matrix number out of range
        ("1\n2\n2 2\n1.0\n0 2 0 0 1.0\n", 5),  # index 0 of block 2, not block 1's last
        ("1\n1\n1\n1.0\n0 1 5 5 1.0\n", 5),  # index past the block size
        ("1\n1\n1\n1.0\n0 1 0 1 1.0\n", 5),  # index 0
        ("1\n1\n-2\n1.0\n0 1 1 2 1.0\n", 5),  # off-diagonal in a diagonal block
        ("1\n1\n0\n1.0\n", 3),  # zero block size
    ],
)
def test_sdpa_parse_errors_carry_line(text, lineno):
    with pytest.raises(InvalidParameterError, match=f"^line {lineno}:"):
        parse_sdpa(text)


def test_sdpa_diagonal_block_dimension():
    a = SymMatrix({(1, 1): 1.0})
    inst = SdpInstance(2, SymMatrix({(0, 0): 1.0}), [(a, 1.0, "==")], blocks=[("s", 1), ("d", 1)])
    text = to_sdpa(inst)
    assert "1 -1" in text.splitlines()[3]
    back = parse_sdpa(text)
    assert back.blocks == (("s", 1), ("d", 1))


# halving and doubling are exact away from the subnormal range
COEFFS = st.floats(-1e6, 1e6, allow_subnormal=False).filter(lambda c: c == 0 or abs(c) >= 1e-300)


@st.composite
def sdpa_instances(draw):
    """1-3 blocks of either kind, entries only where a block holds them
    (pairs of an "s" block, the diagonal of a "d" block), equalities."""
    blocks = draw(st.lists(st.tuples(st.sampled_from("sd"), st.integers(1, 4)), min_size=1, max_size=3))
    offsets = itertools.accumulate((size for _, size in blocks), initial=0)
    slots = [
        (off + i, off + j)
        for (kind, size), off in zip(blocks, offsets)
        for i in range(size)
        for j in range(i, size)
        if kind == "s" or i == j
    ]

    def matrix():
        a = SymMatrix()
        for (i, j), c in draw(st.lists(st.tuples(st.sampled_from(slots), COEFFS), max_size=6)):
            a.add(*((j, i) if draw(st.booleans()) else (i, j)), c)
        return a

    cons = [(matrix(), draw(COEFFS), "==") for _ in range(draw(st.integers(0, 4)))]
    constant = draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0))
    n = sum(size for _, size in blocks)
    return SdpInstance(n, matrix(), cons, blocks=blocks, constant=constant)


@settings(max_examples=150, deadline=None)
@given(sdpa_instances())
def test_sdpa_round_trip_property(inst):
    back = parse_sdpa(to_sdpa(inst))
    assert (back.n, back.blocks, back.constant) == (inst.n, inst.blocks, inst.constant)
    assert back.objective.entries == inst.objective.entries
    assert [(a.entries, b) for a, b, _ in back.constraints] == [(a.entries, b) for a, b, _ in inst.constraints]


SDPA_TOKENS = ["0", "1", "2", "3", "-1", "-2", "1.5", "-0.5", "x", "{", "}", ",", "*", '"constant', "nan", "1e3"]
SDPA_HEADS = ["", "1\n1\n2\n1.0\n", "2\n2\n2 -2\n1.0 0.0\n"]


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(SDPA_HEADS),
    st.lists(st.lists(st.sampled_from(SDPA_TOKENS), max_size=6).map(" ".join), max_size=8).map("\n".join),
)
def test_sdpa_parse_raises_only_uglab_errors(head, body):
    try:
        parse_sdpa(head + body)
    except UglabError:
        pass
