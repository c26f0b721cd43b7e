"""Relaxation values, rounding statistics, and the SDPA text export."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
import weakref
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
)
from uglab import sdp
from uglab.graphs import SimpleGraph
from uglab.instances import CspType, WeightedCspInstance, csp_brute_opt, csp_value
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
    solve_sdp_lowrank,
    to_sdpa,
)
from uglab.sdp import (
    DIMENSION_BUDGET,
    OVER_RELAXATION,
    RESTART_BUDGET,
    ROUND_SIZE_BUDGET,
    _colour_classes,
    _dense,
    _mixing,
    _restart_generators,
)


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
    assert np.sum(_dense(inst) * x) == pytest.approx(pairs_once)


def test_instance_validation():
    with pytest.raises(InvalidParameterError):
        SdpInstance(2, SymMatrix(), blocks=[("x", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(3, SymMatrix(), blocks=[("s", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(4, SymMatrix({(0, 3): 1.0}), blocks=[("s", 2), ("s", 2)])
    with pytest.raises(InvalidParameterError):
        SdpInstance(2, SymMatrix({(0, 1): 1.0}), blocks=[("d", 2)])
    one = SymMatrix({(0, 0): 1.0})
    for con in [(one, 1.0, "<="), (one, 1.0, ">="), (one,), (1.0, one), one]:
        with pytest.raises(InvalidParameterError, match=r"a constraint must be a \(matrix, bound\) pair"):
            SdpInstance(1, SymMatrix(), [con])


# -- cut relaxation -----------------------------------------------------------


def constraint_rows(inst):
    """The coefficient table's constraint rows as (k, i, j, coefficient, b_k)."""
    rows = inst._mat > 0
    k, i, j, c = inst._mat[rows], inst._i[rows], inst._j[rows], inst._coef[rows]
    return list(zip(k.tolist(), i.tolist(), j.tolist(), c.tolist(), inst._bounds[k - 1].tolist()))


def test_maxcut_builder_fields():
    inst = build_maxcut_sdp(SimpleGraph(range(3), [(0, 1), (1, 2), (0, 2)]))
    assert inst.n == 3
    assert inst.constant == 1.5
    assert inst.objective.entries == {(0, 1): -0.5, (1, 2): -0.5, (0, 2): -0.5}
    # the unit diagonal is declared, not given: the table holds X_ii = 1 as constraint i + 1
    assert inst.blocks == (("u", 3),) and inst.constraints == ()
    assert constraint_rows(inst) == [(i + 1, i, i, 1.0, 1.0) for i in range(3)]


def test_maxcut_empty_graph():
    inst = build_maxcut_sdp(SimpleGraph(["a", "b", "c"], []))
    assert inst.blocks == (("u", 3),) and inst.constraints == ()
    assert constraint_rows(inst) == [(i + 1, i, i, 1.0, 1.0) for i in range(3)]
    assert inst.objective.entries == {}
    assert solve_sdp_lowrank(inst).value == 0.0


def test_maxcut_no_vertices():
    # a 0-vertex cut instance is unit-diagonal too, so it takes the mixing path
    sol = solve_sdp_lowrank(build_maxcut_sdp(SimpleGraph([], [])))
    assert sol.value == 0.0 and sol.residual == 0.0
    assert list(sol.stats) == ["sweeps"]


@pytest.mark.parametrize("cons", [[], [(SymMatrix(), 0.0)]])
def test_zero_dimensional_solve_returns_the_constant(cons):
    sol = solve_sdp_lowrank(SdpInstance(0, SymMatrix(), cons, constant=2.5), restarts=3, rng=7)
    assert (sol.value, sol.residual, sol.spread) == (2.5, 0.0, 0.0)
    assert (sol.restarts, sol.seed, sol.factor.shape) == (3, 7, (0, 0))


def test_zero_dimensional_solve_checks_its_constraints():
    """With no variables, 0 == 1 can never hold."""
    inst = SdpInstance(0, SymMatrix(), [(SymMatrix(), 1.0)], constant=2.5)
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


def _unit_diagonal_sdp(draw, n, pairs, min_edges=0):
    """A cut instance on the drawn edges among pairs, with up to three
    diagonal objective entries added."""
    edges = sorted(draw(st.sets(st.sampled_from(pairs), min_size=min_edges, max_size=60))) if pairs else []
    weights = {e: draw(FRACS) for e in edges}
    cut = build_maxcut_sdp(SimpleGraph(range(n), edges), weights)
    objective = SymMatrix(cut.objective.entries)
    for i, c in draw(st.dictionaries(st.integers(0, n - 1), FRACS, max_size=3)).items():
        objective.add(i, i, c)
    return SdpInstance(n, objective, blocks=[("u", n)], constant=cut.constant)


@st.composite
def weighted_graph_sdps(draw):
    """Unit-diagonal instances of random weighted graphs on 1-25 vertices,
    isolated ones included, some with diagonal objective entries."""
    n = draw(st.integers(1, 25))
    return _unit_diagonal_sdp(draw, n, list(itertools.combinations(range(n), 2)))


@st.composite
def bipartite_graph_sdps(draw):
    """As weighted_graph_sdps, with every edge between the two sides of a
    drawn bipartition, and at least one edge."""
    n = draw(st.integers(2, 25))
    side = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if side[i] != side[j]]
    return _unit_diagonal_sdp(draw, n, pairs, min_edges=1)


def mixing_reference(inst, order, gen, sweeps=None, values=None):
    """Per-column over-relaxed coordinate ascent over the indices in the
    given order, finished with exact steps.

    Column i moves to w = (v + omega d) / s, where u = g / |g|, d = u - v,
    delta = |d|^2 and s = sqrt(1 + omega (omega - 1) delta). Once a sweep's
    summed |g_i| delta_i passes the mixing method's plateau test, omega is
    1 (w = u) until it passes again. It runs `sweeps` sweeps or, when that
    is None, until that second plateau. Each step's exact ascent
    2 <g, w - v> is summed in closed form: |g| delta (1 - 2 (omega - 1)^2
    (1 - delta / 4) / (s (a + s))) with a = 1 + (omega - 1) delta / 2.
    When `values` is a list, the objective after each sweep is appended.
    Returns the factor, the value, the initial objective, the summed
    ascents and the sweep count.
    """
    n = inst.n
    p = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    c = _dense(inst)
    v = gen.standard_normal((p, n))
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    v /= norms
    start = float(np.einsum("ij,ij->", v.T @ v, c))
    rows = np.ascontiguousarray(v.T)  # row i is column i; c is symmetric, so c[i] is its column i
    omega, measured, gains = OVER_RELAXATION, 0.0, 0.0
    for sweep in range(1, (sweeps or 30000) + 1):
        gain = 0.0
        for i in order.tolist():
            g = c[i] @ rows - c[i, i] * rows[i]
            nrm = math.sqrt(g @ g)
            if nrm > 1e-15:
                u = g / nrm
                d = u - rows[i]
                delta = float(d @ d)
                s = math.sqrt(1.0 + omega * (omega - 1.0) * delta)
                a = 1.0 + (omega - 1.0) * delta / 2.0
                gain += nrm * delta
                gains += nrm * delta * (1.0 - 2.0 * (omega - 1.0) ** 2 * (1.0 - delta / 4.0) / (s * (a + s)))
                rows[i] = u if omega == 1.0 else (rows[i] + omega * d) / s
        measured += gain
        if values is not None:
            values.append(float(np.einsum("ij,ji->", rows @ rows.T, c)))
        if gain <= 1e-13 * (1.0 + abs(start + measured)):
            if sweeps is None and omega == 1.0:
                break
            omega = 1.0
    v = rows.T
    value = float(np.einsum("ij,ij->", v.T @ v, c)) + inst.constant
    return v, value, start, gains, sweep


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps(), st.integers(0, 2**32 - 1))
def test_mixing_equals_the_per_column_sweep_in_colour_order(inst, seed):
    # the reference runs as many sweeps as the restart did: near a flat
    # plateau a last-bit difference in the sums may stop one sweep apart
    restart, _ = _mixing(inst, 1e-6)
    factor, value, _, _, counts = restart(np.random.default_rng(seed))
    order = np.concatenate(_colour_classes(inst))
    ref, ref_value, _, _, _ = mixing_reference(inst, order, np.random.default_rng(seed), counts["sweeps"])
    assert np.abs(factor - ref).max() <= 1e-12
    assert abs(value - ref_value) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps(), st.integers(0, 2**32 - 1))
def test_mixing_gains_add_up_to_the_value(inst, seed):
    # each step's closed-form ascent, relaxed or exact, must sum to the objective's rise
    restart, _ = _mixing(inst, 1e-6)
    _, value, _, _, counts = restart(np.random.default_rng(seed))
    order = np.concatenate(_colour_classes(inst))
    _, _, start, gains, _ = mixing_reference(inst, order, np.random.default_rng(seed), counts["sweeps"])
    objective = value - inst.constant
    assert abs(start + gains - objective) <= 1e-9 * (1.0 + abs(objective))


def random_weighted_graph_sdp(rng):
    """weighted_graph_sdps drawn from a seeded random.Random instead."""
    n = rng.randint(1, 25)
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(rng.sample(pairs, rng.randint(0, min(60, len(pairs)))))
    fracs = [f for f in (Fraction(a, b) for a in range(-16, 17) for b in (1, 2, 3, 4)) if f and abs(f) <= 4]
    cut = build_maxcut_sdp(SimpleGraph(range(n), edges), {e: rng.choice(fracs) for e in edges})
    objective = SymMatrix(cut.objective.entries)
    for i in rng.sample(range(n), min(n, rng.randint(0, 3))):
        objective.add(i, i, rng.choice(fracs))
    return SdpInstance(n, objective, blocks=[("u", n)], constant=cut.constant)


def test_mixing_stops_on_the_sweep_of_the_per_column_reference():
    # a plateau test on the objective differenced from sweep to sweep leaves
    # the stopping sweep to last-bit rounding: run that way, 5 of these 400
    # stopped one or two sweeps apart from their matrix-vector reference. The
    # summed gains are free of cancellation, so both stop on the same sweep.
    for k in range(400):
        inst = random_weighted_graph_sdp(random.Random(k))
        restart, _ = _mixing(inst, 1e-6)
        factor, value, _, _, counts = restart(np.random.default_rng(k))
        order = np.concatenate(_colour_classes(inst))
        ref, ref_value, _, _, sweeps = mixing_reference(inst, order, np.random.default_rng(k))
        assert counts["sweeps"] == sweeps, k
        assert np.abs(factor - ref).max() <= 1e-12 and abs(value - ref_value) <= 1e-12, k


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps(), st.integers(0, 2**32 - 1))
def test_mixing_objective_never_decreases_from_sweep_to_sweep(inst, seed):
    # every relaxed and exact column step ascends; the reference takes the
    # restart's steps, so its per-sweep objectives are the restart's
    values = []
    order = np.concatenate(_colour_classes(inst))
    _, _, start, _, _ = mixing_reference(inst, order, np.random.default_rng(seed), values=values)
    for before, after in zip([start] + values, values):
        assert after >= before - 1e-12 * (1.0 + abs(before))


def generalized_petersen_edges(n, k):
    return [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)] + [
        (n + i, n + (i + k) % n) for i in range(n)
    ]


def random_cubic(n, rng):
    """Connected simple cubic graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, 3 * n, 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            g = SimpleGraph(range(n), sorted(pairs))
            if g.is_connected():
                return g


@pytest.mark.parametrize(
    "graph, bound",
    [
        # exact steps alone take 79 and 3012 sweeps; over-relaxed, 25 and 1098
        (SimpleGraph(range(58), generalized_petersen_edges(29, 3)), 40),
        (random_cubic(50, random.Random(2)), 1500),
    ],
    ids=["GP(29,3)", "cubic50"],
)
def test_mixing_sweep_count_guard(graph, bound):
    # a sweep count, not a timing: a regression to plain exact steps fails it
    sol = solve_sdp_lowrank(build_maxcut_sdp(graph), restarts=1, rng=0)
    assert sol.stats["sweeps"][0] <= bound


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps())
def test_colour_classes_partition_and_hold_no_objective_entry(inst):
    classes = _colour_classes(inst)
    assert sorted(np.concatenate(classes).tolist()) == list(range(inst.n))
    colour = {int(i): c for c, members in enumerate(classes) for i in members}
    for i, j in inst.objective.entries:
        assert i == j or colour[i] != colour[j]


@settings(max_examples=60, deadline=None)
@given(weighted_graph_sdps())
def test_colour_classes_number_at_most_the_largest_degree_plus_one(inst):
    degree = [0] * inst.n
    for i, j in inst.objective.entries:
        if i != j:
            degree[i] += 1
            degree[j] += 1
    assert len(_colour_classes(inst)) <= max(degree) + 1


@settings(max_examples=60, deadline=None)
@given(bipartite_graph_sdps())
def test_colour_classes_of_a_bipartite_pattern_are_two(inst):
    assert len(_colour_classes(inst)) == 2


@pytest.mark.parametrize("n", range(16, 30))
def test_colour_classes_of_relabelled_generalized_petersen_graphs(n):
    # GP(n, 3) is bipartite for even n and 3-chromatic for odd n; each sweep
    # costs one step per class, so the colouring must find that number
    edges = generalized_petersen_edges(n, 3)
    rng = random.Random(n)
    for _ in range(20):
        perm = list(range(2 * n))
        rng.shuffle(perm)
        inst = build_maxcut_sdp(SimpleGraph(range(2 * n), [(perm[u], perm[v]) for u, v in edges]))
        assert len(_colour_classes(inst)) == (2 if n % 2 == 0 else 3)


def dsatur_reference(inst):
    """DSatur over sets and tuples: the next index sees the most colours, ties
    going to the most neighbours, then the least index, and takes the least
    colour it does not see; the classes in colour order, indices ascending."""
    nbrs = {i: set() for i in range(inst.n)}
    for i, j in inst.objective.entries:
        if i != j:
            nbrs[i].add(j)
            nbrs[j].add(i)
    colour = {}
    while len(colour) < inst.n:
        seen = {i: {colour[j] for j in nbrs[i] if j in colour} for i in nbrs if i not in colour}
        i = min(seen, key=lambda i: (-len(seen[i]), -len(nbrs[i]), i))
        colour[i] = next(c for c in itertools.count() if c not in seen[i])
    return [sorted(i for i in colour if colour[i] == c) for c in range(max(colour.values(), default=-1) + 1)]


def test_colour_classes_match_the_set_based_dsatur():
    patterns = [random_weighted_graph_sdp(random.Random(k)) for k in range(400)]
    for n in (16, 23, 29):
        rng = random.Random(n)
        perm = list(range(2 * n))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in generalized_petersen_edges(n, 3)]
        patterns.append(build_maxcut_sdp(SimpleGraph(range(2 * n), edges)))
    for inst in patterns:
        assert [c.tolist() for c in _colour_classes(inst)] == dsatur_reference(inst)


def test_dense_unit_diagonal_sdpa_instance_solves():
    # max -3 tr X - sum_{i != j} X_ij over unit diagonals is -15 + 5 at n = 5,
    # reached when the five vectors sum to zero; every pair shares an entry,
    # so each class is one index
    n = 5
    objective = SymMatrix({(i, j): -3.0 if i == j else -2.0 for i in range(n) for j in range(i, n)})
    inst = SdpInstance(n, objective, blocks=[("u", n)], constant=2.5)
    assert [s.tolist() for s in _colour_classes(inst)] == [[i] for i in range(n)]
    sol = solve_sdp_lowrank(inst, restarts=2)
    assert sol.value == pytest.approx(-10.0 + 2.5, abs=1e-6)
    assert sol.residual <= 1e-6 and len(sol.stats["sweeps"]) == 2
    # the diagonal spelled out as n given constraints, as an SDPA file holds it, is
    # the same problem on the interior-point path
    spelled = SdpInstance(n, objective, [(SymMatrix({(k, k): 1.0}), 1.0) for k in range(n)], constant=2.5)
    sol = solve_sdp_lowrank(spelled, restarts=2)
    assert sol.value == pytest.approx(-10.0 + 2.5, abs=1e-6)
    assert sol.residual <= 1e-6 and len(sol.stats["iterations"]) == 2


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
    # unit weights on vertices 0..4, so each vertex is its own index
    expected = sum(math.acos(max(-1.0, min(1.0, x[i, j]))) / math.pi for (i, j) in g.edges)
    # a floor of a few ulps: when every rounded cut is equal, se is 0 and the
    # arccos sum still differs from that cut in its last bits
    assert abs(mean - expected) <= 3 * se + 16 * math.ulp(expected)
    assert mean >= gw_symmetric_value(sol) - 3 * se


@st.composite
def weighted_graph_factors(draw):
    """A MaxCut instance of a random weighted graph on 1-12 vertices, a
    random factor for it, of rank 1-6, row-major or column-major, and the
    edge weights it was built from (vertex k is index k)."""
    n = draw(st.integers(1, 12))
    edges = sorted(draw(st.sets(st.sampled_from(list(itertools.combinations(range(n), 2))), max_size=30))) if n > 1 else []
    weights = {e: draw(st.fractions(-4, 4, max_denominator=4)) for e in edges}
    inst = build_maxcut_sdp(SimpleGraph(range(n), edges), weights)
    seed = draw(st.integers(0, 2**32 - 1))
    factor = np.random.default_rng(seed).standard_normal((draw(st.integers(1, 6)), n))
    if draw(st.booleans()):
        factor = np.asfortranarray(factor)
    sol = SdpSolution(value=0.0, factor=factor, residual=0.0, spread=0.0, restarts=1, seed=0, instance=inst)
    return sol, {e: float(w) for e, w in weights.items()}


@settings(max_examples=60, deadline=None)
@given(weighted_graph_factors(), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_rounding_equals_the_per_trial_cut_of_the_same_draws(case, seed, trials):
    # trial t splits the vertices by the sign of <h_t, v_k>, h_t row t of the
    # same standard normal draw, and cuts the weight of the split edges
    sol, weights = case
    mean, std = hyperplane_round(sol, rng=seed, trials=trials)
    h = np.random.default_rng(seed).standard_normal((trials, sol.factor.shape[0]))
    cuts = []
    for row in h:
        side = [float(row @ sol.factor[:, k]) >= 0 for k in range(sol.instance.n)]
        cuts.append(math.fsum(w for (i, j), w in weights.items() if side[i] != side[j]))
    assert mean == pytest.approx(math.fsum(cuts) / trials, rel=1e-12, abs=1e-12)
    assert std == pytest.approx(np.std(cuts, ddof=1) if trials > 1 else 0.0, rel=1e-9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(weighted_graph_factors())
def test_gw_symmetric_value_equals_the_gram_formula(case):
    sol, weights = case
    x = sol.factor.T @ sol.factor
    expected = 0.5 * gw_alpha() * math.fsum(w * (1.0 - x[i, j]) for (i, j), w in weights.items())
    assert gw_symmetric_value(sol) == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_rounding_needs_recorded_weights():
    inst = SdpInstance(1, SymMatrix({(0, 0): 1.0}), [(SymMatrix({(0, 0): 1.0}), 1.0)])
    sol = solve_sdp_lowrank(inst)
    with pytest.raises(PreconditionError):
        hyperplane_round(sol, rng=0, trials=4)


def test_rounding_budget_is_checked_before_any_projection():
    sol = solve_sdp_lowrank(build_maxcut_sdp(cycle(4)))
    with pytest.raises(SearchBudgetError, match="trials of 4 vertices exceed"):
        hyperplane_round(sol, trials=ROUND_SIZE_BUDGET // 4 + 1)
    assert hyperplane_round(sol, trials=2)[0] >= 0.0


def test_rounding_seeds_by_the_restart_rule():
    sol = solve_sdp_lowrank(build_maxcut_sdp(cycle(4)))
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        hyperplane_round(sol, rng=-1)
    assert hyperplane_round(sol, rng=None, trials=8) == hyperplane_round(sol, rng=0, trials=8)


# -- general solver paths ------------------------------------------------------


def test_restarts_and_seeds_are_checked_before_any_solve():
    inst = build_maxcut_sdp(cycle(4))
    with pytest.raises(InvalidParameterError, match=f"restarts must be in 1..{RESTART_BUDGET}, got 10"):
        solve_sdp_lowrank(inst, restarts=10 * RESTART_BUDGET)
    with pytest.raises(InvalidParameterError, match="restarts must be in"):
        gap_curve_estimate([xor_cycle_csp(4)], eta=0.1, restarts=10**12)
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        solve_sdp_lowrank(inst, rng=-1)
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -3"):
        _restart_generators(-3, 2)
    assert solve_sdp_lowrank(inst, restarts=RESTART_BUDGET // 100, rng=0).restarts == RESTART_BUDGET // 100


def test_only_the_best_restart_keeps_its_factor(monkeypatch):
    # a weak reference follows every restart's factor: when a restart starts,
    # only the best earlier one may still be alive, and the solution is the
    # one a solve that keeps every factor returns
    inst = build_maxcut_sdp(cycle(7))
    want = solve_sdp_lowrank(inst, restarts=6, rng=11)
    real, factors, alive = sdp._mixing, [], []

    def tracked(instance, tol):
        restart, failure = real(instance, tol)

        def run(gen):
            alive.append(sum(ref() is not None for ref in factors))
            out = restart(gen)
            factors.append(weakref.ref(out[0]))
            return out

        return run, failure

    monkeypatch.setattr(sdp, "_mixing", tracked)
    got = solve_sdp_lowrank(inst, restarts=6, rng=11)
    assert alive == [0] + [1] * 5
    assert (got.value, got.residual, got.spread, got.stats) == (want.value, want.residual, want.spread, want.stats)
    assert np.array_equal(got.factor, want.factor)


def basic_feasible_optimum(a, b, c):
    """max c^T x over a x = b, x >= 0, for a feasible and bounded LP: the best
    basic feasible solution, over every linearly independent set of columns."""
    best = -math.inf
    for size in range(len(c) + 1):
        for cols in map(list, itertools.combinations(range(len(c)), size)):
            x = np.zeros(len(c))
            if size:
                if np.linalg.matrix_rank(a[:, cols]) < size:
                    continue
                x[cols] = np.linalg.lstsq(a[:, cols], b, rcond=None)[0]
            if np.abs(a @ x - b).max() <= 1e-9 and x.min() >= -1e-9:
                best = max(best, float(c @ x))
    return best


@st.composite
def planted_lps(draw):
    """max c^T x over a x = b, x >= 0 with integer data: up to two random rows
    and a last row sum x = sum x0, b = a x0 for a planted integer x0 >= 0, so
    the LP is feasible and bounded."""
    n, k = draw(st.integers(1, 6)), draw(st.integers(0, 2))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)), dtype=float)

    a = np.vstack([ints(-3, 3, k * n).reshape(k, n), np.ones((1, n))])
    return a, a @ ints(0, 3, n), ints(-5, 5, n)


def diagonal_sdp(a, b, c):
    """The LP as an SdpInstance of one "d" block."""
    def diag(row):
        return SymMatrix({(i, i): float(v) for i, v in enumerate(row) if v})

    return SdpInstance(len(c), diag(c), [(diag(row), float(bk)) for row, bk in zip(a, b)], blocks=[("d", len(c))])


@settings(max_examples=150, deadline=None)
@given(planted_lps(), st.integers(0, 2**32 - 1))
def test_interior_point_matches_the_best_basic_feasible_solution(lp, seed):
    a, b, c = lp
    sol = solve_sdp_lowrank(diagonal_sdp(a, b, c), tol=1e-9, restarts=1, rng=seed)
    assert abs(sol.value - basic_feasible_optimum(a, b, c)) <= 1e-6
    assert sol.residual <= 1e-9 and 1 <= sol.stats["iterations"][0] <= sdp.IPM_ITERATIONS


@st.composite
def small_weighted_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    return SimpleGraph(range(n), edges), {e: draw(FRACS) for e in edges}


@settings(max_examples=60, deadline=None)
@given(small_weighted_graphs(), st.integers(0, 2**32 - 1))
def test_cut_relaxation_agrees_on_both_paths(graph, seed):
    # 2 X_ii = 2 holds X_ii at 1 as well, but is not unit-diagonal form: the
    # interior-point path solves what the mixing path solves
    cut = build_maxcut_sdp(*graph)
    doubled = [(SymMatrix({(i, i): 2.0}), 2.0) for i in range(cut.n)]
    other = SdpInstance(cut.n, cut.objective, doubled, constant=cut.constant)
    mixed = solve_sdp_lowrank(cut, restarts=1, rng=seed)
    interior = solve_sdp_lowrank(other, tol=1e-9, restarts=1, rng=seed)
    assert list(mixed.stats) == ["sweeps"] and list(interior.stats) == ["iterations"]
    assert abs(mixed.value - interior.value) <= 1e-6


def test_dependent_consistent_constraints_solve():
    # max 2 X_01 with X_00 = 1 given twice and X_00 + X_11 = 2 implied by the rest
    one = SymMatrix({(0, 0): 1.0})
    cons = [(one, 1.0), (one, 1.0), (SymMatrix({(1, 1): 1.0}), 1.0), (SymMatrix({(0, 0): 1.0, (1, 1): 1.0}), 2.0)]
    sol = solve_sdp_lowrank(SdpInstance(2, SymMatrix({(0, 1): 2.0}), cons))
    assert sol.value == pytest.approx(2.0, abs=1e-6) and sol.residual <= 1e-6


def test_schur_budget_boundary(monkeypatch):
    # M holds one entry per pair of constraints: solved at K^2, refused at
    # K^2 - 1 before any array of that size is built
    inst = build_lc_relaxation(xor_cycle_csp(4))
    limit = len(inst.constraints) ** 2
    monkeypatch.setattr(sdp, "SCHUR_BUDGET", limit)
    assert solve_sdp_lowrank(inst, restarts=1).value == pytest.approx(1.0, abs=1e-6)
    monkeypatch.setattr(sdp, "SCHUR_BUDGET", limit - 1)
    with pytest.raises(SearchBudgetError, match=f"{limit} constraint pairs in the Newton system exceed {limit - 1}"):
        solve_sdp_lowrank(inst, restarts=1)
    # 2000 constraints: refused without allocating anything near 2000^2 doubles
    cons = [(SymMatrix({(i % 50, 50 + i // 50): 1.0}), 0.0) for i in range(2000)]
    big = SdpInstance(90, SymMatrix(), cons)
    monkeypatch.setattr(sdp, "SCHUR_BUDGET", 2000**2 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(SearchBudgetError):
            solve_sdp_lowrank(big, restarts=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000**2 * 8 / 20


@pytest.mark.parametrize("coeff, bound, value", [(1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (1.0, 2.0, 2.0), (None, None, 1.0)])
def test_only_unit_diagonal_instances_take_the_mixing_path(coeff, bound, value):
    # max -X_01 subject to coeff * X_ii == bound is bound / coeff; the mixing
    # path holds X_ii at 1 and would report 1.0 for every row. Only a declared
    # "u" block (coeff None) mixes: a given X_ii == 1 takes the interior-point path
    if coeff is None:
        inst = SdpInstance(2, SymMatrix({(0, 1): -1.0}), blocks=[("u", 2)])
    else:
        inst = SdpInstance(2, SymMatrix({(0, 1): -1.0}), [(SymMatrix({(i, i): coeff}), bound) for i in range(2)])
    sol = solve_sdp_lowrank(inst, restarts=1)
    assert sol.value == pytest.approx(value, abs=1e-5)
    assert list(sol.stats) == ["sweeps" if coeff is None else "iterations"]


def test_unit_diagonal_block_beside_a_diagonal_block():
    # max X_22 subject to X_01 + X_22 = 0 over a "u" block of 2 and a "d" block
    # of 1 is 1, at X_01 = -1: the declared diagonal is what bounds it
    objective, link = SymMatrix({(2, 2): 1.0}), SymMatrix({(0, 1): 1.0, (2, 2): 1.0})
    inst = SdpInstance(3, objective, [(link, 0.0)], blocks=[("u", 2), ("d", 1)])
    assert constraint_rows(inst) == [(1, 0, 1, 1.0, 0.0), (1, 2, 2, 1.0, 0.0), (2, 0, 0, 1.0, 1.0), (3, 1, 1, 1.0, 1.0)]
    sol = solve_sdp_lowrank(inst, restarts=1)
    assert sol.value == pytest.approx(1.0, abs=1e-6) and sol.residual <= 1e-6
    assert list(sol.stats) == ["iterations"]
    # SDPA writes the "u" block as a symmetric one, its X_ii = 1 rows after the given constraint
    assert to_sdpa(inst).splitlines() == [
        "*constant 0.0", "3", "2", "2 -1", "0.0 1.0 1.0",
        "0 2 1 1 1.0", "1 1 1 2 0.5", "1 2 1 1 1.0", "2 1 1 1 1.0", "3 1 2 2 1.0",
    ]
    # a given constraint on the declared diagonal is one more row; X_00 = 2 cannot hold beside X_00 = 1
    clash = SdpInstance(3, objective, [(link, 0.0), (SymMatrix({(0, 0): 1.0}), 2.0)], blocks=[("u", 2), ("d", 1)])
    with pytest.raises(ConvergenceError):
        solve_sdp_lowrank(clash, restarts=1)


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan, math.inf])
def test_tolerance_must_be_positive(tol):
    # a NaN tolerance would run every restart to its budget and then fail;
    # an infinite one would accept the first iterate as feasible
    with pytest.raises(InvalidParameterError, match="tol must be positive"):
        solve_sdp_lowrank(build_maxcut_sdp(cycle(5)), tol=tol)


def test_infeasible_instance_raises_with_best():
    a = SymMatrix({(0, 0): 1.0})
    inst = SdpInstance(1, SymMatrix(), [(a, 1.0), (a, 2.0)])
    with pytest.raises(ConvergenceError) as err:
        solve_sdp_lowrank(inst)
    assert isinstance(err.value.best, SdpSolution)
    assert err.value.best.residual > 1e-6


def test_unbounded_instance_raises_with_best():
    # max X_00 with no constraint has no optimum: the iterates grow until a step
    # overflows, which ends the restart unconverged
    with pytest.raises(ConvergenceError, match="duality gap above 1e-06") as err:
        solve_sdp_lowrank(SdpInstance(1, SymMatrix({(0, 0): 1.0})), restarts=1)
    assert err.value.best.residual == 0.0 and err.value.best.value > 1e6


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
    for a in [inst.objective] + [a for a, _ in inst.constraints]:
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


@st.composite
def small_csps(draw):
    """Random CSPs in the style of acceptance criterion 11: 2-4 binary
    variables, 1-3 constraint types of arity 1-2, 1-5 weighted applications."""
    vs = [f"x{i}" for i in range(draw(st.integers(2, 4)))]
    types = {}
    for name in ("t0", "t1", "t2")[: draw(st.integers(1, 3))]:
        arity = draw(st.integers(1, 2))
        tuples = list(itertools.product(range(2), repeat=arity))
        types[name] = CspType(arity, draw(st.sets(st.sampled_from(tuples), min_size=1)), 2)
    apps = []
    for _ in range(draw(st.integers(1, 5))):
        name = draw(st.sampled_from(sorted(types)))
        scope = tuple(draw(st.permutations(vs))[: types[name].arity])
        apps.append((name, scope, Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))))
    return WeightedCspInstance(2, vs, types, apps)


@settings(max_examples=40, deadline=None)
@given(small_csps(), st.integers(0, 2**32 - 1))
def test_lc_bounds_the_optimum_with_a_diagonal_nonnegative_distribution_block(csp, seed):
    inst = build_lc_relaxation(csp)
    sol = solve_sdp_lowrank(inst, restarts=1, rng=seed)
    opt, _ = csp_brute_opt(csp)
    assert sol.value >= float(opt / csp.abs_weight()) - 1e-4
    assert sol.residual <= 1e-6
    (_, n1), (kind, _) = inst.blocks
    mu = sol.gram()[n1:, n1:]
    assert kind == "d" and np.array_equal(mu, np.diag(np.diag(mu))) and np.diag(mu).min() >= 0.0


def test_lc_converges_where_the_penalty_needs_a_step_below_twenty_halvings():
    # three unary applications on x0 drive its label-0 vector and masses to zero;
    # with at most 20 halvings per step the solver stalled at residual 1.17e-06
    one = CspType(1, [(1,)], 2)
    apps = [("one", ("x0",), 3), ("one", ("x0",), 1), ("one", ("x2",), 3), ("one", ("x0",), 3)]
    csp = WeightedCspInstance(2, ["x0", "x1", "x2"], {"zero": CspType(1, [(0,)], 2), "one": one}, apps)
    sol = solve_sdp_lowrank(build_lc_relaxation(csp), restarts=1, rng=139821920)
    assert sol.residual <= 1e-6 and sol.value >= 1.0 - 1e-4


def test_lc_xor8_reaches_its_integral_optimum():
    # an XOR 8-cycle with four XOR/EQ chords; the solver once stopped
    # feasible at 0.916450, below the integral optimum 11/12 it must bound
    rng, nv = random.Random(2), 8
    xor, eq = CspType(2, [(0, 1), (1, 0)], 2), CspType(2, [(0, 0), (1, 1)], 2)
    apps = [("xor", (f"x{i}", f"x{(i + 1) % nv}"), 1) for i in range(nv)]
    pairs = [(i, j) for i in range(nv) for j in range(i + 2, nv) if (i, j) != (0, nv - 1)]
    for i, j in rng.sample(pairs, 4):
        apps.append((rng.choice(["xor", "eq"]), (f"x{i}", f"x{j}"), 1))
    csp = WeightedCspInstance(2, [f"x{i}" for i in range(nv)], {"xor": xor, "eq": eq}, apps)
    opt, _ = csp_brute_opt(csp)
    assert opt / csp.abs_weight() == Fraction(11, 12)
    inst = build_lc_relaxation(csp)
    for seed in range(3):
        assert solve_sdp_lowrank(inst, restarts=1, rng=seed).value >= 11 / 12 - 1e-4


def xor_csp(nv, rng, chords):
    """XOR cycle over nv variables plus random XOR/EQ chords, as perfbench's sdp workload draws it."""
    xor, eq = CspType(2, [(0, 1), (1, 0)], 2), CspType(2, [(0, 0), (1, 1)], 2)
    apps = [("xor", (f"x{i}", f"x{(i + 1) % nv}"), 1) for i in range(nv)]
    pairs = [(i, j) for i in range(nv) for j in range(i + 2, nv) if (i, j) != (0, nv - 1)]
    for i, j in rng.sample(pairs, chords):
        apps.append((rng.choice(["xor", "eq"]), (f"x{i}", f"x{j}"), 1))
    return WeightedCspInstance(2, [f"x{i}" for i in range(nv)], {"xor": xor, "eq": eq}, apps)


def test_lc_solves_the_40_variable_xor_instance():
    # 484 constraints; the augmented Lagrangian stopped infeasible after its 30 outer iterations
    csp = xor_csp(40, random.Random(2), 4)
    sol = solve_sdp_lowrank(build_lc_relaxation(csp), restarts=1)
    alternating = csp_value(csp, {f"x{i}": i % 2 for i in range(40)}) / csp.abs_weight()
    assert alternating >= Fraction(40, 44)
    assert float(alternating) <= sol.value <= 1.0 + 1e-6 and sol.residual <= 1e-6


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


def test_lc_constraint_budget_boundary(monkeypatch):
    # the constraints are counted from the applications: built while the
    # solve's Newton system admits K^2 pairs, refused at K^2 - 1 before any
    # matrix of the relaxation exists; q and arity up to 3
    rng, built = random.Random(4), []

    class Counted(SymMatrix):
        def __init__(self, *args):
            built.append(1)
            super().__init__(*args)

    for _ in range(20):
        q, vs = rng.randint(2, 3), ["x", "y", "z"]
        types = {f"t{r}": CspType(r, [(0,) * r], q) for r in (1, 2, 3)}
        apps = [(f"t{r}", tuple(rng.sample(vs, r)), 1) for r in (rng.randint(1, 3) for _ in range(rng.randint(1, 4)))]
        csp = WeightedCspInstance(q, vs, types, apps)
        limit = len(build_lc_relaxation(csp).constraints)
        with monkeypatch.context() as patch:
            patch.setattr(sdp, "SCHUR_BUDGET", limit**2)
            assert len(build_lc_relaxation(csp).constraints) == limit
            patch.setattr(sdp, "SCHUR_BUDGET", limit**2 - 1)
            patch.setattr(sdp, "SymMatrix", Counted)
            message = f"^{limit**2} constraint pairs in the Newton system exceed {limit**2 - 1}$"
            with pytest.raises(SearchBudgetError, match=message):
                build_lc_relaxation(csp)
        assert built == []


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


def test_gap_curve_optimum_is_exact():
    # fully satisfiable; a float round trip of the weight scale read 0.9999999999999999
    ct_eq = CspType(2, [(0, 0), (1, 1)], 2)
    apps = [
        ("eq", ("a", "b"), Fraction(44, 999961)),
        ("eq", ("b", "c"), Fraction(10, 999983)),
        ("eq", ("a", "c"), Fraction(38, 9973)),
    ]
    csp = WeightedCspInstance(2, ["a", "b", "c"], {"eq": ct_eq}, apps)
    (_, opt_val), = gap_curve_estimate([csp], eta=0.05, restarts=1).points
    assert opt_val == 1.0


@pytest.mark.parametrize("seed", [0, 7])
def test_gap_curve_seeds_instance_i_with_spawned_child_i(seed):
    ct_and = CspType(2, [(1, 1)], 2)
    family = [xor_cycle_csp(3), xor_cycle_csp(4, w=Fraction(1, 3)),
              WeightedCspInstance(2, ["x", "y"], {"and": ct_and}, [("and", ("x", "y"), 2)])]
    table = gap_curve_estimate(family, eta=0.1, restarts=1, rng=seed)
    children = np.random.SeedSequence(seed).spawn(len(family))
    expected = []
    for csp, child in zip(family, children):
        sol = solve_sdp_lowrank(build_lc_relaxation(csp), restarts=1, rng=np.random.default_rng(child))
        expected.append((sol.value, float(csp_brute_opt(csp)[0] / csp.abs_weight())))
    assert table.points == tuple(sorted(expected))


@pytest.mark.parametrize("point", [math.nan, math.inf, -math.inf])
def test_gap_curve_rejects_a_non_finite_grid_point(point):
    with pytest.raises(InvalidParameterError, match="grid points must be finite"):
        gap_curve_estimate([xor_cycle_csp(4)], eta=0.1, grid=[0.5, point])


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


def read_sdpa(text):
    """to_sdpa's output read back, asserting its layout line by line: the
    constant comment, the constraint and block counts, the block sizes
    (negative for a diagonal block), the bounds, then one entry a line in
    table order, with 1-based block-local indices i <= j and off-diagonals
    halved."""
    lines = text.splitlines()
    assert lines[0].startswith("*constant ")
    m, nblocks = int(lines[1]), int(lines[2])
    dims, bounds = ([] if line == "{}" else line.split() for line in lines[3:5])
    assert len(dims) == nblocks and len(bounds) == m
    blocks = [("s", int(d)) if int(d) > 0 else ("d", -int(d)) for d in dims]
    offsets = list(itertools.accumulate((size for _, size in blocks), initial=0))
    rows = [line.split() for line in lines[5:]]
    keys = [tuple(map(int, row[:4])) for row in rows]
    assert keys == sorted(set(keys)) and all(len(row) == 5 for row in rows)
    mats = [SymMatrix() for _ in range(m + 1)]
    for (k, b, i, j), row in zip(keys, rows):
        assert 0 <= k <= m and 1 <= b <= nblocks
        kind, size = blocks[b - 1]
        assert 1 <= i <= j <= size and (kind == "s" or i == j)
        v = float(row[4])
        mats[k].add(offsets[b - 1] + i - 1, offsets[b - 1] + j - 1, v if i == j else 2 * v)
    cons = list(zip(mats[1:], map(float, bounds)))
    return SdpInstance(offsets[-1], mats[0], cons, blocks=blocks, constant=float(lines[0].split()[1]))


def test_sdpa_round_trip_maxcut():
    # SDPA has no unit-diagonal block: the "u" block reads back as an "s" block
    # with its X_ii = 1 rows given, and the coefficient tables are equal
    inst = build_maxcut_sdp(SimpleGraph(range(3), [(0, 1), (1, 2), (0, 2)]))
    back = read_sdpa(to_sdpa(inst))
    assert back.n == inst.n
    assert back.constant == inst.constant
    assert back.objective.entries == inst.objective.entries
    for name in ("_mat", "_i", "_j", "_coef", "_bounds"):
        assert np.array_equal(getattr(back, name), getattr(inst, name)), name
    # the read-back form takes the interior-point path, at a tolerance that holds its value to 1e-9
    interior = solve_sdp_lowrank(back, tol=1e-9)
    assert list(interior.stats) == ["iterations"]
    assert interior.value == pytest.approx(solve_sdp_lowrank(inst).value, abs=1e-9)


def test_sdpa_round_trip_lc():
    inst = build_lc_relaxation(xor_cycle_csp(4))
    back = read_sdpa(to_sdpa(inst))
    assert back.n == inst.n and back.blocks == inst.blocks
    assert back.objective.entries == inst.objective.entries
    assert [(a.entries, b) for a, b in back.constraints] == [(a.entries, b) for a, b in inst.constraints]


def test_sdpa_round_trip_without_constraints():
    # an empty bound vector is written "{}", so the header keeps its four lines
    inst = SdpInstance(1, SymMatrix({(0, 0): 2.0}), constant=0.5)
    text = to_sdpa(inst)
    assert text.splitlines()[1:5] == ["0", "1", "1", "{}"]
    back = read_sdpa(text)
    assert back.objective.entries == inst.objective.entries and back.constraints == () and back.constant == 0.5


def test_dimension_budget_boundary():
    # checked before any array is built: a dense block of 10^12 indices would need 8 * 10^24 bytes
    with pytest.raises(SearchBudgetError, match="^matrix dimension 999999999999 exceeds"):
        SdpInstance(999999999999, SymMatrix())
    cap = DIMENSION_BUDGET
    assert SdpInstance(cap, SymMatrix()).n == cap
    assert SdpInstance(cap, SymMatrix(), blocks=[("s", cap - 1), ("d", 1)]).n == cap
    with pytest.raises(SearchBudgetError, match=f"^matrix dimension {cap + 1} exceeds"):
        SdpInstance(cap + 1, SymMatrix())


def test_sdpa_diagonal_block_dimension():
    # the off-diagonal 3.0 is written halved; index 2 is the first of block 2,
    # a diagonal block, whose size is written negative
    objective = SymMatrix({(0, 1): 3.0, (2, 2): -1.0})
    cons = [(SymMatrix({(0, 0): 1.0, (2, 2): 1.0}), 2.0)]
    inst = SdpInstance(3, objective, cons, blocks=[("s", 2), ("d", 1)], constant=0.5)
    text = to_sdpa(inst)
    assert text.splitlines() == [
        "*constant 0.5", "1", "2", "2 -1", "2.0",
        "0 1 1 2 1.5", "0 2 1 1 -1.0", "1 1 1 1 1.0", "1 2 1 1 1.0",
    ]
    assert read_sdpa(text).blocks == (("s", 2), ("d", 1))


def test_diagonal_block_entry_reaches_zero():
    # max -mu_1 subject to mu_1 + mu_2 = 1 over one diagonal block: mu_1 = 0
    cons = [(SymMatrix({(0, 0): 1.0, (1, 1): 1.0}), 1.0)]
    inst = SdpInstance(2, SymMatrix({(0, 0): -1.0}), cons, blocks=[("d", 2)])
    sol = solve_sdp_lowrank(inst)
    assert sol.value == pytest.approx(0.0, abs=1e-6)
    assert sol.residual <= 1e-6


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

    cons = [(matrix(), draw(COEFFS)) for _ in range(draw(st.integers(0, 4)))]
    constant = draw(st.floats(allow_nan=False, allow_infinity=False).filter(lambda c: c != 0))
    n = sum(size for _, size in blocks)
    return SdpInstance(n, matrix(), cons, blocks=blocks, constant=constant)


@settings(max_examples=150, deadline=None)
@given(sdpa_instances())
def test_sdpa_round_trip_property(inst):
    back = read_sdpa(to_sdpa(inst))
    assert (back.n, back.blocks, back.constant) == (inst.n, inst.blocks, inst.constant)
    assert back.objective.entries == inst.objective.entries
    assert [(a.entries, b) for a, b in back.constraints] == [(a.entries, b) for a, b in inst.constraints]
