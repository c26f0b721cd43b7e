"""Each check rejects a deliberately wrong output and accepts the right one.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py
"""

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from uglab import constructions, game, instances, sdp  # noqa: E402
from uglab.gf2 import Gf2Vector  # noqa: E402
from uglab.graphs import complete_graph, cycle_graph  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import wl_exact  # noqa: E402
import wl_game  # noqa: E402
import wl_sdp  # noqa: E402
from ops import Task, TimedSpoiler, execute  # noqa: E402

evaluate = instances.evaluate


def _worse(witness, changed, step):
    """A copy of the witness with one label moved so that ``changed`` holds."""
    for key in witness:
        bad = dict(witness)
        bad[key] = step(bad[key])
        if changed(bad):
            return bad
    raise AssertionError("no single-label change alters the count")


@pytest.fixture(scope="module")
def planted():
    inst, opt = wl_exact.planted_group(random.Random(5), 2, 6, 3, 2)
    return inst, opt, instances.brute_force_opt(inst)


# -- exact ----------------------------------------------------------------------


@pytest.mark.parametrize("m,n,chords,width", [(1, 6, 3, 1), (2, 5, 2, 2), (2, 6, 4, 3), (3, 4, 1, 2)])
def test_planted_group_optimum_is_known(m, n, chords, width):
    for s in range(5):
        inst, opt = wl_exact.planted_group(random.Random(s), m, n, chords, width)
        assert instances.brute_force_opt(inst)[0] == opt == len(inst.bundles) - 1


def test_planted_perm_optimum_is_known():
    for s in range(5):
        inst, opt = wl_exact.planted_perm(random.Random(s), 3, 5, 1)
        assert instances.brute_force_opt(inst)[0] == opt == len(inst.constraints) - 1


def test_group_opt_accepts_right_and_rejects_wrong(planted):
    inst, opt, result = planted
    assert checks.check_group_opt(result, inst, opt, evaluate) is None
    count, frac, witness = result
    assert checks.check_group_opt((count + 1, frac, witness), inst, opt, evaluate)
    assert checks.check_group_opt((count, frac + Fraction(1, 100), witness), inst, opt, evaluate)
    bad = _worse(witness, lambda w: checks.group_satisfied(inst, w) != count,
                 lambda label: label + Gf2Vector(1, inst.m))
    assert checks.check_group_opt((count, frac, bad), inst, opt, evaluate)
    short = dict(witness)
    short.pop(inst.vertices[-1])
    assert checks.check_group_opt((count, frac, short), inst, opt, evaluate)
    assert checks.check_group_opt(result, inst, opt - 1, evaluate)


def test_group_opt_catches_a_lying_evaluator(planted):
    inst, opt, result = planted
    assert checks.check_group_opt(result, inst, opt, lambda i, w: (0, Fraction(0)))


def test_unsat_family_and_klein_values():
    u5 = constructions.unsat_complete_graph(Fraction(1, 2))
    res = instances.spanning_tree_opt(u5)
    assert checks.check_group_opt(res, u5, 4, evaluate) is None  # 2/n of 10 constraints
    assert checks.check_group_opt(res, u5, 5, evaluate)
    h, coloring, star = constructions.k4_klein_inputs()
    u1, u2 = constructions.klein_pair(h, coloring, star)
    assert checks.check_group_opt(instances.brute_force_opt(u2), u2, 5, evaluate) is None
    assert checks.check_group_opt(instances.brute_force_opt(u1), u1, 5, evaluate)


def test_lifted_opt_checks():
    base, opt = wl_exact.planted_group(random.Random(3), 2, 4, 1, 2)
    expected = Fraction(opt, base.constraint_count)
    best, frac, witness = instances.lifted_opt(base)
    assert checks.check_lifted_opt((best, frac, witness), base, expected) is None
    assert checks.check_lifted_opt((best, frac, witness), base, expected + Fraction(1, 10))
    assert checks.check_lifted_opt((best - 1, frac, witness), base, expected)
    bad = _worse(witness, lambda w: checks.lifted_satisfied(base, w) != best, lambda g: g + Gf2Vector(1, 2))
    assert checks.check_lifted_opt((best, frac, bad), base, expected)


def test_perm_opt_checks():
    inst, opt = wl_exact.planted_perm(random.Random(1), 3, 5, 1)
    count, frac, witness = instances.brute_force_opt(inst)
    assert checks.check_perm_opt((count, frac, witness), inst, opt) is None
    assert checks.check_perm_opt((count + 1, frac, witness), inst, opt)
    satisfied = lambda w: sum(1 for u, v, p in inst.constraints if w[u] == p[w[v]])  # noqa: E731
    bad = _worse(witness, lambda w: satisfied(w) != count, lambda label: (label + 1) % 3)
    assert checks.check_perm_opt((count, frac, bad), inst, opt)


def test_csp_checks():
    csp = wl_exact.random_csp(random.Random(2), 5, 6)
    expected = checks.csp_optimum(csp)
    value, witness = instances.csp_brute_opt(csp)
    assert checks.check_csp_opt((value, witness), csp, expected) is None
    assert checks.check_csp_opt((value + 1, witness), csp, expected)
    bad = _worse(witness, lambda w: checks.csp_value(csp, w) != value, lambda label: 1 - label)
    assert checks.check_csp_opt((value, bad), csp, expected)
    # the enumeration itself on a hand-checked instance: x0 one way, 1 + 1/2
    xor = instances.CspType(2, [(0, 1), (1, 0)], 2)
    one = instances.CspType(1, [(1,)], 2)
    small = instances.WeightedCspInstance(2, ["a", "b"], {"xor": xor, "one": one},
                                          [("xor", ("a", "b"), 1), ("one", ("a",), Fraction(1, 2)), ("one", ("b",), Fraction(1, 2))])
    assert checks.csp_optimum(small) == Fraction(3, 2)


# -- game -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def cops_game():
    h = constructions.cops_robbers_graph(3)
    coloring = constructions.cubic_edge_coloring(h)
    star = h.edges[0]
    u1, u2 = constructions.klein_pair(h, coloring, star)
    transcript = game.play_game(
        game.LiftedStructure(u1), game.LiftedStructure(u2), 3,
        game.duplicator_cops(u1, u2, h, coloring, star), TimedSpoiler(random.Random(7), []), 30,
    )
    return u1, u2, transcript


def test_transcript_accepts_a_real_game(cops_game):
    u1, u2, transcript = cops_game
    assert checks.check_transcript(transcript, u1, u2, 3, 30) == [None] * 30


def test_transcript_rejects_a_board_that_is_not_a_map(cops_game):
    """Round 11 pebbles the element still pebbled from round 10, answered
    with another label: the pebbled pairs no longer define a map."""
    u1, u2, transcript = cops_game
    bad = copy.deepcopy(transcript)
    a, (v, g) = bad["rounds"][9]["placement"]["a"], bad["rounds"][9]["placement"]["b"]
    bad["rounds"][10]["placement"] = {"a": list(a), "b": [v, format(int(g, 16) ^ 1, "x")]}
    verdicts = checks.check_transcript(bad, u1, u2, 3, 30)
    assert verdicts[10] is not None and verdicts[9] is None


def test_transcript_rejects_a_lost_or_short_game(cops_game):
    u1, u2, transcript = cops_game
    lost = dict(transcript, winner="spoiler", survived=29)
    assert all(checks.check_transcript(lost, u1, u2, 3, 30))
    short = dict(transcript, rounds=transcript["rounds"][:20], survived=20)
    assert all(checks.check_transcript(short, u1, u2, 3, 30))


def test_search_checks():
    u1, u2 = wl_game.twisted_cycle(random.Random(4))
    a, b = game.LiftedStructure(u1), game.LiftedStructure(u2)
    line = game.find_winning_line(a, b, 2, lambda: game.duplicator_identity(2), depth=3)
    assert checks.check_identity_line(line, u1, u2, 2) is None
    assert checks.check_identity_line(line + line[-1:], u1, u2, 2)  # fails before its end
    assert checks.check_identity_line(line[:-1], u1, u2, 2)  # never fails
    assert checks.check_identity_line(None, u1, u2, 2)
    assert checks.check_no_line(None) is None
    assert checks.check_no_line(line)


def test_tree_pair_restriction_is_a_good_spanning_tree():
    u1, u2, zmap, bmap = wl_game.tree_pair(random.Random(9))
    g = u1.graph()
    assert g.is_connected() and g.m == g.n - 1 == 29
    sub = {e: zmap[e] for e in g.edges}
    assert constructions.good_edges(g, sub, 3, 3) == frozenset(g.edges)


# -- relaxations ------------------------------------------------------------------


def test_maxcut_brute_known_values():
    assert checks.maxcut_brute(4, complete_graph(4).edges) == 4
    assert checks.maxcut_brute(5, cycle_graph(5).edges) == 4
    assert checks.maxcut_brute(6, cycle_graph(6).edges) == 6


@pytest.fixture(scope="module")
def maxcut_out():
    g = wl_sdp.MAXCUT[-5][1]
    assert g.n <= wl_sdp.BRUTE_LIMIT
    return g, wl_sdp.maxcut_task("maxcut-20", g, 3).call()


def test_maxcut_accepts_a_real_solve(maxcut_out):
    g, out = maxcut_out
    brute = checks.maxcut_brute(g.n, g.edges)
    assert checks.check_maxcut(out, g.n, g.edges, np.random.default_rng(0), brute) is None


def test_maxcut_rejects_wrong_values(maxcut_out):
    g, (value, factor, mean, gws) = maxcut_out
    rng = np.random.default_rng(0)
    brute = checks.maxcut_brute(g.n, g.edges)
    assert "eigenvalue" in checks.check_maxcut((value + 5, factor, mean, gws), g.n, g.edges, rng)
    assert "rounded cut" in checks.check_maxcut((brute - 3, factor, mean, gws), g.n, g.edges, rng)
    assert "rounding mean" in checks.check_maxcut((value, factor, value + 1, gws), g.n, g.edges, rng)
    assert "symmetric" in checks.check_maxcut((value, factor, mean, brute + 1), g.n, g.edges, rng, brute)
    assert "max cut" in checks.check_maxcut((value, factor, mean, gws), g.n, g.edges, rng, int(value) + 1)


def test_lc_checks():
    csp = wl_sdp.LC_SMALL[3]
    value = sdp.solve_sdp_lowrank(sdp.build_lc_relaxation(csp), restarts=1, rng=0).value
    opt = checks.csp_optimum(csp)
    assert checks.check_lc(value, csp, opt) is None
    assert checks.check_lc(float(opt / checks.abs_weight(csp)) - 0.01, csp, opt)
    assert checks.check_value(1.0 + 1e-7, 1.0) is None
    assert checks.check_value(0.99, 1.0)


def test_gap_checks():
    family = wl_sdp.GAP_FAMILY
    table = sdp.gap_curve_estimate(family, eta=0.05, grid=wl_sdp.GAP_GRID, restarts=1, rng=0)
    optima = [float(checks.csp_optimum(c) / checks.abs_weight(c)) for c in family]
    assert checks.check_gap(table, optima) is None
    falling = sdp.GapTable(table.points, table.eta, ((0.1, 0.5), (0.2, 0.4)))
    assert checks.check_gap(falling, optima)
    assert checks.check_gap(table, [o + 0.1 for o in optima])
    assert checks.check_gap(table, optima[:-1])


# -- command line ------------------------------------------------------------------


def test_cli_checks():
    assert checks.check_fields({"winner": None, "survived": 200}, {"winner": None, "survived": 200}) is None
    assert checks.check_fields({"winner": "spoiler", "survived": 12}, {"winner": None, "survived": 200})
    assert checks.check_fields({"value": "2/5"}, {"value": "1/2"})
    edges = cycle_graph(6).edges
    assert checks.check_cli_maxcut({"value": 6.0, "round_mean": 5.5}, 6, edges) is None
    assert checks.check_cli_maxcut({"value": 5.0, "round_mean": 5.5}, 6, edges)
    assert checks.check_cli_maxcut({"value": 7.0, "round_mean": 5.5}, 6, edges)
    assert checks.check_cli_maxcut({"value": 6.0}, 6, edges)
    assert checks.count_records("gug m=2\nvertex a\nvertex b\nbundle a b 1\n", "vertex") == 2


# -- the correctness gate ----------------------------------------------------------


def _raise():
    raise ValueError("boom")


def test_execute_sorts_ops_into_ok_failed_and_wrong():
    right = lambda out: None if out == 1 else "not 1"  # noqa: E731
    [ok] = execute(Task("t", lambda: 1, right))
    [bad] = execute(Task("t", lambda: 2, right))
    [known] = execute(Task("t", lambda: 2, right, known_fault=True))
    [raised] = execute(Task("t", _raise, right))
    assert ok.ok and not ok.wrong
    assert not bad.ok and bad.wrong
    assert not known.ok and not known.wrong
    assert not raised.ok and not raised.wrong
    rounds = execute(Task("g", lambda marks: marks.extend([0.0, 0.0]), lambda out: [None, "lost"], rounds=2))
    assert [(op.ok, op.wrong) for op in rounds] == [(True, False), (False, True)]


def test_cpu_clock_counts_reaped_children_and_not_sleep():
    # in the workers' environment: with OpenBLAS's own thread count, its idle
    # threads spin after a BLAS call and the process's CPU clock counts them
    script = "\n".join([
        "import subprocess, sys, time",
        "import numpy as np",
        "from ops import cpu_clock",
        "a = np.ones((300, 300)); a @ a",
        "t0 = cpu_clock(); time.sleep(0.2); slept = cpu_clock() - t0",
        "t0 = cpu_clock(); subprocess.run([sys.executable, '-c', 'sum(range(3 * 10**6))'], check=True)",
        "print(slept, cpu_clock() - t0)",
    ])
    out = subprocess.run([sys.executable, "-c", script], cwd=HERE, env=run.child_env(),
                         capture_output=True, text=True, check=True)
    slept, child = map(float, out.stdout.split())
    assert slept < 0.05
    assert child > 0.02


def _fake_worker(run_wrong, setup_wrong=0):
    def fake(workload, seed, mode, seconds=0.0):
        if mode == "setup":
            return {"setup_s": 1.0, "wrong": setup_wrong}
        return {"attempted": 10, "failed": run_wrong + 1, "wrong": run_wrong, "ops_per_s": 5.0,
                "op_p50_ms": 2.0, "setup_s": 1.5, "peak_rss_mb": 50.0}
    return fake


@pytest.mark.parametrize("run_wrong,setup_wrong,correct", [(0, 0, True), (1, 0, False), (0, 1, False)])
def test_a_wrong_output_makes_the_run_incorrect(monkeypatch, run_wrong, setup_wrong, correct):
    monkeypatch.setattr(run, "worker", _fake_worker(run_wrong, setup_wrong))
    out = run.end_to_end("exact", 1, 1.0)
    assert out["correct"] is correct
    assert out["failed"] == run_wrong + 1
    assert out["metrics"]["setup_s"]["value"] == 1.0


def test_only_the_xor_lc_solve_is_a_declared_known_fault():
    tasks = wl_sdp.make_pass(1, 0) + wl_exact.make_pass(1, 0) + wl_game.make_pass(1, 0)
    assert [t.kind for t in tasks if t.known_fault] == ["lc-xor8"]


# -- the benchmark's own declarations ------------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _, _ in tracing.METRICS
    ]


def test_tracer_records_spans_and_restores_the_program():
    original = instances.brute_force_opt
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, [])
    try:
        inst, _ = wl_exact.planted_group(random.Random(1), 2, 5, 2, 2)
        instances.brute_force_opt(inst)
        with tracer.paused():
            instances.brute_force_opt(inst)
    finally:
        tracing.uninstall(undo)
    assert instances.brute_force_opt is original
    spans = tracing.Spans(tracer)
    assert spans.calls("instances.brute_force_opt") == 1
    assert tracer.notes[spans.spans("instances.brute_force_opt")[0]] == 4 ** 4
    assert spans.calls("instances.GroupUgInstance.graph", spans.under("instances.brute_force_opt")) == 1
