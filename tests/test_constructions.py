"""Instance families, the pursuit move, good edges, and the parameter table."""

from __future__ import annotations

import json
import math
import random
import warnings
from fractions import Fraction

import pytest

from uglab import formats
from uglab.constructions import (
    InapproxPair,
    KLEIN,
    ParamSet,
    compute_params,
    cops_robbers_graph,
    cubic_edge_coloring,
    good_edges,
    k4_klein_inputs,
    klein_from_json,
    klein_pair,
    klein_to_json,
    klein_vec,
    paths_through_edge,
    random_inapprox_pair,
    robber_move,
    shared_pursuit_graph,
    unsat_complete_graph,
    _cycle_structure,
)
from uglab.errors import InvalidParameterError, PreconditionError, StrategyViolationError
from uglab.gf2 import Gf2Subspace, Gf2Vector, span_of
from uglab.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    girth,
    normalize_edge,
    petersen_graph,
)
from uglab.instances import brute_force_opt, evaluate, spanning_tree_opt


def test_klein_is_the_four_group():
    e, a, b, c = (klein_vec(x) for x in "eabc")
    assert e.is_zero()
    assert a + b == c and a + c == b and b + c == a
    assert a + a == e
    assert sorted(KLEIN.values()) == [0, 1, 2, 3]
    with pytest.raises(InvalidParameterError):
        klein_vec("d")


# -- unsat complete-graph family ----------------------------------------------


def test_unsat_family_sizes():
    inst = unsat_complete_graph(Fraction(2, 3))
    assert len(inst.vertices) == 4
    assert len(inst.bundles) == 6
    assert inst.m == 6
    assert all(len(d) == 1 for _, _, d in inst.bundles)
    # every pair carries a distinct standard basis vector
    units = {d[0].bits for _, _, d in inst.bundles}
    assert units == {1 << i for i in range(6)}


def test_unsat_family_opt_n4():
    inst = unsat_complete_graph(Fraction(2, 3))
    count, frac, witness = brute_force_opt(inst)
    assert count == 3
    assert frac == Fraction(1, 2)  # = 2/n with n = 4
    assert evaluate(inst, witness) == (3, Fraction(1, 2))


def test_unsat_family_opt_n5_tree_oracle():
    inst = unsat_complete_graph(Fraction(1, 2))
    assert len(inst.vertices) == 5
    count, frac, witness = spanning_tree_opt(inst)
    assert count == 4
    assert frac == Fraction(2, 5)
    assert evaluate(inst, witness) == (4, Fraction(2, 5))


def test_unsat_family_small_and_errors():
    inst = unsat_complete_graph(2)  # bound max(1, 1) -> n = 2
    assert len(inst.vertices) == 2
    count, frac, _ = brute_force_opt(inst)
    assert (count, frac) == (1, Fraction(1))
    inst3 = unsat_complete_graph(1)
    assert len(inst3.vertices) == 3
    assert brute_force_opt(inst3)[1] == Fraction(2, 3)
    with pytest.raises(InvalidParameterError):
        unsat_complete_graph(0)
    with pytest.raises(InvalidParameterError):
        unsat_complete_graph(Fraction(1, 8))  # n = 17 pairs overflow 64 bits


# -- Klein pair ------------------------------------------------------------------


def test_k4_klein_pair_values():
    g, coloring, star = k4_klein_inputs()
    u1, u2 = klein_pair(g, coloring, star)
    assert u1.constraint_count == 12 and u2.constraint_count == 12
    c1, f1, w1 = brute_force_opt(u1)
    assert (c1, f1) == (6, Fraction(1, 2))
    assert evaluate(u1, w1)[0] == 6
    c2, f2, w2 = brute_force_opt(u2)
    assert (c2, f2) == (5, Fraction(5, 12))
    assert evaluate(u2, w2)[0] == 5


def test_k4_klein_zero_assignment_attains_u1():
    g, coloring, star = k4_klein_inputs()
    u1, _ = klein_pair(g, coloring, star)
    zero = {v: Gf2Vector.zero(2) for v in u1.vertices}
    assert evaluate(u1, zero) == (6, Fraction(1, 2))


def test_klein_pair_star_bundle_is_complementary_coset():
    g, coloring, star = k4_klein_inputs()
    u1, u2 = klein_pair(g, coloring, star)
    me = klein_vec(coloring[star])
    assert set(u1.diffs_on(*star)) == {Gf2Vector.zero(2), me}
    star_diffs = set(u2.diffs_on(*star))
    assert star_diffs == {Gf2Vector(b, 2) for b in range(4)} - {Gf2Vector.zero(2), me}
    for e in g.edges:
        if e != star:
            assert u1.diffs_on(*e) == u2.diffs_on(*e)


def test_klein_pair_validation():
    g, coloring, star = k4_klein_inputs()
    bad = dict(coloring)
    bad[normalize_edge("v1", "v2")] = "b"  # v1 now sees b twice
    with pytest.raises(PreconditionError):
        klein_pair(g, bad, star)
    with pytest.raises(PreconditionError):
        klein_pair(g, coloring, ("v1", "w9"))
    with pytest.raises(InvalidParameterError):
        klein_pair(g, coloring, ("v1", "v1"))
    square = cycle_graph(4)
    with pytest.raises(PreconditionError):
        klein_pair(square, {}, (0, 1))


def test_klein_pair_on_pursuit_graph():
    h = cops_robbers_graph(3)
    coloring = cubic_edge_coloring(h)
    star = h.edges[0]
    u1, u2 = klein_pair(h, coloring, star)
    zero = {v: Gf2Vector.zero(2) for v in h.vertices}
    count, frac = evaluate(u1, zero)
    assert count == len(u1.bundles) == 18
    assert frac == Fraction(1, 2)  # one constraint per bundle is the ceiling
    c2, f2, _ = brute_force_opt(u2)
    assert c2 == 17  # all but one bundle
    assert f2 == Fraction(17, 36)


def _through_json(data):
    return json.loads(json.dumps(data))


@pytest.mark.parametrize("cops", [0, 3])
def test_klein_sidecar_round_trip(cops):
    # the inputs of `uglab gen klein` (cops=0) and `uglab gen klein --cops 3`
    if cops:
        h = cops_robbers_graph(cops)
        inputs = (h, cubic_edge_coloring(h), h.edges[0])
    else:
        inputs = k4_klein_inputs()
    back = klein_from_json(_through_json(klein_to_json(*inputs)), *klein_pair(*inputs))
    assert back == inputs
    # the pursuit strategy reads the cycles from the graph's data, so the
    # graph read back plays the cycle strategy exactly when the built one does
    assert back[0] is not inputs[0]
    assert _cycle_structure(back[0]) == _cycle_structure(inputs[0])
    assert (_cycle_structure(back[0]) is None) == (not cops)


def test_klein_sidecar_rejects_malformed_fields():
    sc = _through_json(klein_to_json(*k4_klein_inputs()))
    u1, u2 = klein_pair(*k4_klein_inputs())
    with pytest.raises(InvalidParameterError, match="is not two vertex names"):
        klein_from_json({**sc, "star": ["v3"]}, u1, u2)
    with pytest.raises(PreconditionError, match="coloring misses edge"):
        klein_from_json({**sc, "coloring": {}}, u1, u2)


def test_klein_sidecar_rejects_instances_of_another_pair():
    inputs = k4_klein_inputs()
    sc = _through_json(klein_to_json(*inputs))
    u1, u2 = klein_pair(*inputs)
    with pytest.raises(InvalidParameterError, match="u2 instance does not match"):
        klein_from_json(sc, u1, u1)
    with pytest.raises(InvalidParameterError, match="u1 instance does not match"):
        klein_from_json(sc, u2, u2)
    # another star edge gives another u2 on the same graph
    other = klein_pair(inputs[0], inputs[1], inputs[0].edges[0])
    with pytest.raises(InvalidParameterError, match="u2 instance does not match"):
        klein_from_json(sc, *other)


def test_cubic_edge_coloring_is_proper():
    h = cops_robbers_graph(4)
    coloring = cubic_edge_coloring(h)
    assert set(coloring) == set(h.edges)
    counts = {"a": 0, "b": 0, "c": 0}
    for color in coloring.values():
        counts[color] += 1
    assert set(counts.values()) == {len(h.edges) // 3}
    for v in h.vertices:
        incident = {coloring[normalize_edge(v, w)] for w in h.neighbors(v)}
        assert incident == {"a", "b", "c"}


# -- pursuit graph ------------------------------------------------------------------


def _cycle_and_bridge_edges(h):
    cycle_of, _ = _cycle_structure(h)
    cycle_edges = {e for e in h.edges if cycle_of[e[0]] == cycle_of[e[1]]}
    return cycle_edges, set(h.edges) - cycle_edges


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_cops_robbers_graph_structure(k):
    h = cops_robbers_graph(k)
    kk = max(k, 3)
    assert len(h.vertices) == 2 * kk * (kk - 1)
    assert len(h.edges) == 3 * kk * (kk - 1)
    assert h.regular_degree() == 3
    assert h.is_connected()
    assert h.bipartition() is not None
    cycle_of, cycles = _cycle_structure(h)
    assert len(cycles) == kk
    assert all(len(c) == 2 * (kk - 1) for c in cycles)
    assert {v: i for i, c in enumerate(cycles) for v in c} == cycle_of
    assert set(cycle_of) == set(h.vertices)
    # the edges inside a cycle are exactly its consecutive pairs; the rest are bridges
    cycle_edges, bridges = _cycle_and_bridge_edges(h)
    assert cycle_edges == {normalize_edge(c[t], c[(t + 1) % len(c)]) for c in cycles for t in range(len(c))}
    assert len(bridges) == kk * (kk - 1)


def test_cycle_structure_depends_only_on_the_graphs_data():
    h = cops_robbers_graph(4)
    assert cops_robbers_graph(4) is h  # built once per k
    assert _cycle_structure(SimpleGraph(h.vertices, h.edges)) == _cycle_structure(h)
    assert shared_pursuit_graph(SimpleGraph(h.vertices, h.edges)) is h
    # the same vertices and edge count with two names swapped is another graph
    swap = {"c0n0": "c1n1", "c1n1": "c0n0"}
    relabelled = SimpleGraph(h.vertices, [(swap.get(u, u), swap.get(v, v)) for u, v in h.edges])
    assert relabelled != h and _cycle_structure(relabelled) is None
    assert shared_pursuit_graph(relabelled) is relabelled
    for g in (k4_klein_inputs()[0], petersen_graph(), complete_graph(12), SimpleGraph([], [])):
        assert _cycle_structure(g) is None and shared_pursuit_graph(g) is g


def test_cops_robbers_graph_k3_girth():
    assert girth(cops_robbers_graph(3)) == 4


def test_cops_robbers_rejects_k1():
    with pytest.raises(InvalidParameterError):
        cops_robbers_graph(1)


# -- robber moves ---------------------------------------------------------------------


def k4_graph():
    return k4_klein_inputs()[0]


def test_robber_worked_example():
    g = k4_graph()
    path = robber_move(g, {"v1", "v4"}, ("v3", "v4"))
    assert path == ["v4", "v3", "v2"]


def test_robber_stays_when_unthreatened():
    g = k4_graph()
    assert robber_move(g, {"v1"}, ("v3", "v4")) == []
    assert robber_move(g, set(), ("v1", "v2")) == []


def test_robber_capture_is_an_error():
    g = k4_graph()
    with pytest.raises(PreconditionError):
        robber_move(g, {"v3", "v4"}, ("v3", "v4"))


def test_robber_cycle_rules():
    h = cops_robbers_graph(3)
    cycle_of, cycles = _cycle_structure(h)
    cyc = cycles[0]
    edge = (cyc[0], cyc[1])
    # cop on another cycle: the robber's cycle is clean, stay put
    assert robber_move(h, {cycles[1][0]}, edge) == []
    # cop lands on the robber's own cycle (not on the edge): relocate
    path = robber_move(h, {cyc[2]}, edge)
    assert path != []
    new_edge = normalize_edge(path[-2], path[-1])
    assert new_edge in _cycle_and_bridge_edges(h)[0]
    target_cycle = cycle_of[path[-1]]
    assert all(v not in {cyc[2]} for v in cycles[target_cycle])


def test_robber_bridge_rules():
    h = cops_robbers_graph(3)
    cycle_edges, bridges = _cycle_and_bridge_edges(h)
    bridge = sorted(bridges)[0]
    assert robber_move(h, set(), bridge) == []
    cycles = _cycle_structure(h)[1]
    path = robber_move(h, {cycles[2][2]}, bridge)
    assert path != []
    assert normalize_edge(path[-2], path[-1]) in cycle_edges


def _path_postconditions(h, cops, old_edge, path):
    if not path:
        return old_edge
    assert len(path) >= 2
    assert normalize_edge(path[0], path[1]) == old_edge
    assert len(set(path)) == len(path)
    for a, b in zip(path, path[1:]):
        assert h.has_edge(a, b)
    for v in path[1:]:
        assert v not in cops
    new_edge = normalize_edge(path[-2], path[-1])
    assert new_edge != old_edge
    structure = _cycle_structure(h)
    if structure is not None:
        cycle_of, cycles = structure
        assert cycle_of[new_edge[0]] == cycle_of[new_edge[1]]  # a cycle edge
        assert all(v not in cops for v in cycles[cycle_of[new_edge[0]]])
    else:
        assert path[-2] not in cops and path[-1] not in cops
    return new_edge


@pytest.mark.parametrize("k", [3, 4])
def test_robber_random_schedules(k):
    h = cops_robbers_graph(k)
    rng = random.Random(1000 + k)
    cyc = _cycle_structure(h)[1][0]
    robber = normalize_edge(cyc[0], cyc[1])
    cops = []
    for _ in range(5000):
        if cops and (len(cops) == k - 1 or rng.random() < 0.3):
            cops.pop(rng.randrange(len(cops)))
        v = h.vertices[rng.randrange(len(h.vertices))]
        if v not in cops:
            cops.append(v)
        path = robber_move(h, frozenset(cops), robber)
        robber = _path_postconditions(h, frozenset(cops), robber, path)


def test_robber_random_schedules_k4_generic():
    g = k4_graph()
    rng = random.Random(7)
    robber = normalize_edge("v3", "v4")
    cops = []
    for _ in range(2000):
        if cops and (len(cops) == 2 or rng.random() < 0.3):
            cops.pop(rng.randrange(len(cops)))
        v = g.vertices[rng.randrange(len(g.vertices))]
        if v not in cops:
            cops.append(v)
        path = robber_move(g, frozenset(cops), robber)
        robber = _path_postconditions(g, frozenset(cops), robber, path)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_robber_move_on_a_rebuilt_graph_matches_the_built_one(k):
    # a graph read back from a sidecar is a new SimpleGraph with the same
    # data; the robber must answer on it exactly as on the built graph
    h = cops_robbers_graph(k)
    rebuilt = SimpleGraph(h.vertices, h.edges)
    rng = random.Random(2000 + k)
    moved = 0
    for _ in range(600):
        cops = rng.sample(h.vertices, rng.randrange(k))
        robber = h.edges[rng.randrange(len(h.edges))]
        try:
            want = robber_move(h, cops, robber)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                robber_move(rebuilt, cops, robber)
            continue
        assert robber_move(rebuilt, cops, robber) == want
        moved += bool(want)
    assert moved > 100


# -- paths through an edge ----------------------------------------------------------


def test_paths_through_edge_cycle():
    g = cycle_graph(6)
    paths = list(paths_through_edge(g, (0, 1), 2))
    assert sorted(paths) == [(0, 1, 2), (5, 0, 1)]


def test_paths_through_edge_petersen_counts():
    g = petersen_graph()
    for e in g.edges:
        p2 = list(paths_through_edge(g, e, 2))
        p4 = list(paths_through_edge(g, e, 4))
        assert len(p2) == 4
        assert len(p4) == 32
        for paths, r in ((p2, 2), (p4, 4)):
            seen = set()
            for p in paths:
                assert len(p) == r + 1
                assert len(set(p)) == r + 1
                edges = {normalize_edge(a, b) for a, b in zip(p, p[1:])}
                assert normalize_edge(*e) in edges
                assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                assert p not in seen and tuple(reversed(p)) not in seen
                seen.add(p)


def test_paths_through_edge_validation():
    g = petersen_graph()
    with pytest.raises(InvalidParameterError):
        list(paths_through_edge(g, (0, 7), 2))
    with pytest.raises(InvalidParameterError):
        list(paths_through_edge(g, (0, 1), 0))


# -- good edges -----------------------------------------------------------------------


def _const_zmap(g, vectors, m):
    space = Gf2Subspace.from_vectors(vectors, m)
    return {e: space for e in g.edges}


def test_good_edges_full_rank_subspaces():
    g = petersen_graph()
    zmap = _const_zmap(g, [Gf2Vector.unit(0, 2), Gf2Vector.unit(1, 2)], 2)
    assert good_edges(g, zmap, 2, 2) == frozenset(g.edges)


def test_good_edges_rank_starved():
    g = petersen_graph()
    zmap = _const_zmap(g, [Gf2Vector.unit(0, 3)], 3)
    assert good_edges(g, zmap, 2, 3) == frozenset()


def test_good_edges_mixed():
    g = petersen_graph()
    full = Gf2Subspace.from_vectors([Gf2Vector.unit(0, 2), Gf2Vector.unit(1, 2)], 2)
    thin = Gf2Subspace.from_vectors([Gf2Vector.unit(0, 2)], 2)
    zmap = {e: full for e in g.edges}
    # starve the edge (0, 1) and everything incident to it
    for e in g.edges:
        if 0 in e or 1 in e:
            zmap[e] = thin
    good = good_edges(g, zmap, 2, 2)
    assert normalize_edge(0, 1) not in good
    assert normalize_edge(2, 3) in good


def test_good_edges_girth_guard():
    g = complete_graph(4)
    zmap = _const_zmap(g, [Gf2Vector.unit(0, 1)], 1)
    with pytest.raises(PreconditionError):
        good_edges(g, zmap, 3, 1)
    assert good_edges(g, zmap, 3, 1, override=True) == frozenset(g.edges)


# -- parameter calculator ----------------------------------------------------------


def test_compute_params_reference_point():
    p = compute_params(1)
    assert (p.d, p.ell, p.m, p.r, p.q) == (145, 11, 14, 12, 16384)
    assert p.alpha == 1 and p.gamma == Fraction(1, 4) and p.epsilon == Fraction(1, 4)
    d = p.to_dict()
    assert d["d"] == 145 and d["alpha"] == "1"


def test_compute_params_d_is_minimal():
    rhs = lambda d: 16.0 * (math.log(d) + 2 + math.log(2) - math.log(0.25))
    assert 145 >= rhs(145) - 1e-9
    assert 144 < rhs(144)


def test_compute_params_other_alphas():
    prev_d = 0
    for i in range(1, 7):
        p = compute_params(Fraction(1, i))
        assert p.d > prev_d or i == 1
        prev_d = p.d
        assert p.q == 2**p.m
        assert p.ell <= p.m
        # the inequality the degree was chosen for
        lhs = 16 / float(p.alpha) ** 2 * (math.log(p.d) + 2 + math.log(2) - math.log(0.25))
        assert p.d + 1e-9 >= lhs
        if p.d > 5:
            assert p.d - 1 < 16 / float(p.alpha) ** 2 * (
                math.log(p.d - 1) + 2 + math.log(2) - math.log(0.25)
            )


def test_compute_params_validation():
    with pytest.raises(InvalidParameterError):
        compute_params(0)
    with pytest.raises(InvalidParameterError):
        compute_params(2)
    with pytest.raises(InvalidParameterError):
        compute_params(1, gamma=Fraction(1, 2))
    with pytest.raises(InvalidParameterError):
        compute_params(1, epsilon=Fraction(3, 4))


# -- random pair -----------------------------------------------------------------------


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


def test_random_pair_draws():
    params = desk_params()
    base = petersen_graph()
    with pytest.warns(UserWarning):
        pair = random_inapprox_pair(params, base, random.Random(0))
    assert not pair.girth_ok
    assert len(pair.u1_full.bundles) == 15
    assert len(pair.u2_full.bundles) == 15
    for e in base.edges:
        z = pair.zmap[e]
        b = pair.bmap[e]
        assert z.rank == 2
        assert set(pair.u1_full.diffs_on(*e)) == set(z.elements())
        assert set(pair.u2_full.diffs_on(*e)) == z.shifted(b)
    assert pair.good <= set(base.edges)
    assert len(pair.u1.bundles) == len(pair.good)
    assert pair.u1.vertices == pair.u1_full.vertices  # vertices survive filtering
    # determinism under the seed
    with pytest.warns(UserWarning):
        again = random_inapprox_pair(params, base, random.Random(0))
    assert again.bmap == pair.bmap
    assert {e: z.basis for e, z in again.zmap.items()} == {
        e: z.basis for e, z in pair.zmap.items()
    }


def test_random_pair_u1_value_when_good_edges_exist():
    params = desk_params()
    base = petersen_graph()
    with pytest.warns(UserWarning):
        pair = random_inapprox_pair(params, base, random.Random(3))
    if pair.u1.bundles:
        zero = {v: Gf2Vector.zero(3) for v in pair.u1.vertices}
        count, frac = evaluate(pair.u1, zero)
        assert count == len(pair.u1.bundles)
        assert frac == Fraction(1, 4)  # 2^-ell


@pytest.mark.parametrize("base", [petersen_graph(), cops_robbers_graph(3)], ids=["petersen", "cops3"])
def test_random_pair_sidecar_round_trip(base):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # desk parameters sit below the girth bound
        pair = random_inapprox_pair(desk_params(), base, random.Random(4))
    # files and sidecars carry vertex names as strings
    u1, u2 = (formats.parse_gug(formats.write_gug(u)) for u in (pair.u1, pair.u2))
    back = InapproxPair.from_json(_through_json(pair.to_json()), u1, u2)

    def named(e):
        return (str(e[0]), str(e[1]))

    assert back.zmap == {named(e): z for e, z in pair.zmap.items()}
    assert back.bmap == {named(e): b for e, b in pair.bmap.items()}
    assert back.good == {named(e) for e in pair.good}
    assert back.params == pair.params
    assert back.base == SimpleGraph([str(v) for v in base.vertices], [named(e) for e in base.edges])
    assert back.girth_ok == pair.girth_ok
    for got, want in [(back.u1_full, pair.u1_full), (back.u2_full, pair.u2_full), (back.u1, u1), (back.u2, u2)]:
        assert formats.write_gug(got) == formats.write_gug(want)


def test_random_pair_sidecar_rejects_mismatched_instances():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pair = random_inapprox_pair(desk_params(), petersen_graph(), random.Random(4))
    u1, u2 = (formats.parse_gug(formats.write_gug(u)) for u in (pair.u1, pair.u2))
    with pytest.raises(InvalidParameterError, match="u2 instance does not match"):
        InapproxPair.from_json(_through_json(pair.to_json()), u1, u1)
    sc = _through_json(pair.to_json())
    del sc["zmap"]["0 1"]
    with pytest.raises(InvalidParameterError, match="zmap has no entry for edge '0 1'"):
        InapproxPair.from_json(sc, u1, u2)


def test_param_set_dict_round_trip():
    for params in (desk_params(), compute_params(Fraction(1, 2))):
        assert ParamSet.from_dict(_through_json(params.to_dict())) == params
    with pytest.raises(InvalidParameterError, match="parameter set has no 'ell' key"):
        ParamSet.from_dict({"alpha": "1", "gamma": "1/4", "epsilon": "1/4", "d": 3})


def test_random_pair_degree_check():
    params = desk_params()
    with pytest.raises(PreconditionError):
        random_inapprox_pair(params, complete_graph(5), random.Random(0))
