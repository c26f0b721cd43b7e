"""End-to-end command line runs against temp directories."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import uglab
from uglab import cli, formats
from uglab.constructions import InapproxPair, good_edges
from uglab.errors import StrategyViolationError
from uglab.gf2 import Gf2Vector
from uglab.instances import CspType, GroupUgInstance, WeightedCspInstance, evaluate
from uglab.sdp import parse_sdpa


def run(*argv):
    return cli.main([str(a) for a in argv])


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_params_prints_reference_line(capsys):
    assert run("params", "--alpha", "1", "--gamma", "0.25", "--epsilon", "1/4") == 0
    out = capsys.readouterr().out
    assert "d=145 ell=11 m=14 r=12 q=16384" in out


def test_params_json_output(tmp_path):
    out = tmp_path / "p.json"
    assert run("params", "--alpha", "1", "--out", out, "--no-timestamp") == 0
    data = load(out)
    assert data["d"] == 145 and data["q"] == 16384 and data["alpha"] == "1"
    assert "generated" not in data


def test_unsat_families_end_to_end(tmp_path):
    u5 = tmp_path / "u5.gug"
    r5 = tmp_path / "r5.json"
    assert run("gen", "unsat", "--delta", "0.5", "--out", u5) == 0
    assert run("solve", "tree", "--in", u5, "--out", r5, "--no-timestamp") == 0
    data = load(r5)
    assert data["value"] == "2/5" and data["count"] == 4 and data["total"] == 10
    # emitted file re-parses to a structurally equal instance
    text = u5.read_text()
    inst = formats.parse_gug(text)
    assert formats.write_gug(inst) == text

    u4 = tmp_path / "u4.gug"
    r4 = tmp_path / "r4.json"
    assert run("gen", "unsat", "--delta", "2/3", "--out", u4) == 0
    assert run("solve", "brute", "--in", u4, "--out", r4, "--no-timestamp") == 0
    assert load(r4)["value"] == "1/2"


def test_solve_vacuous_flag(tmp_path):
    path = tmp_path / "empty.gug"
    formats.atomic_write_text(str(path), formats.write_gug(GroupUgInstance(1, ["a", "b"], [])))
    out = tmp_path / "r.json"
    assert run("solve", "brute", "--in", path, "--out", out, "--no-timestamp") == 0
    data = load(out)
    assert data["vacuous"] is True and data["value"] == "1" and data["count"] == 0


def test_witness_file_checks_out(tmp_path):
    u4 = tmp_path / "u4.gug"
    wout = tmp_path / "w.assign"
    run("gen", "unsat", "--delta", "2/3", "--out", u4)
    assert run("solve", "brute", "--in", u4, "--witness-out", wout) == 0
    inst = formats.parse_gug(u4.read_text())
    witness = formats.parse_assignment(wout.read_text(), inst)
    count, frac = evaluate(inst, witness)
    assert (count, str(frac)) == (3, "1/2")


def test_lift_preserves_value(tmp_path):
    one = Gf2Vector.from_hex("1", 1)
    base = GroupUgInstance(1, ["a", "b"], [("a", "b", [one])])
    upath = tmp_path / "u.gug"
    formats.atomic_write_text(str(upath), formats.write_gug(base))
    lifted = tmp_path / "lifted.gug"
    assert run("lift", "--in", upath, "--out", lifted) == 0
    li = formats.parse_gug(lifted.read_text())
    assert len(li.vertices) == 4
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run("solve", "brute", "--in", upath, "--out", r1, "--no-timestamp")
    run("solve", "brute", "--in", lifted, "--out", r2, "--no-timestamp")
    assert load(r1)["value"] == load(r2)["value"] == "1"


def test_klein_pair_games(tmp_path):
    pdir = tmp_path / "klein"
    assert run("gen", "klein", "--out-dir", pdir, "--no-timestamp") == 0
    tr = tmp_path / "t.json"
    assert run(
        "game", "--pair", pdir / "pair.json", "--duplicator", "cops", "--k", 3,
        "--rounds", 60, "--seed", 2, "--out", tr, "--no-timestamp",
    ) == 0
    data = load(tr)
    assert data["winner"] is None and data["survived"] == 60
    assert data["seed"] == 2 and data["duplicator"] == "cops"

    assert run(
        "game", "--pair", pdir / "pair.json", "--duplicator", "identity", "--k", 3,
        "--rounds", 60, "--seed", 2, "--out", tr, "--no-timestamp",
    ) == 0
    assert load(tr)["winner"] == "spoiler"


def test_random_pair_tree_game(tmp_path):
    pdir = tmp_path / "pair"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # desk parameters sit below the girth bound
        assert run("gen", "random-pair", "--out-dir", pdir, "--seed", 4, "--no-timestamp") == 0
    sc = load(pdir / "pair.json")
    assert sc["kind"] == "tree" and sc["girth_ok"] is False and sc["seed"] == 4
    tr = tmp_path / "t.json"
    assert run(
        "game", "--pair", pdir / "pair.json", "--duplicator", "tree", "--k", 2,
        "--rounds", 30, "--seed", 3, "--out", tr, "--no-timestamp",
    ) == 0
    assert load(tr)["winner"] is None
    rt = tmp_path / "rt.json"
    assert run("solve", "tree", "--in", pdir / "u1.gug", "--out", rt, "--no-timestamp") == 0
    assert load(rt)["value"] == "1/4"


def test_good_override_allows_girth_at_most_r_and_still_filters(tmp_path, capsys):
    """Petersen has girth 5: r=5 is refused without the flag. With it the
    good-edge filter runs, and at ell=1, m=5 no edge keeps full rank."""
    argv = ["gen", "random-pair", "--r", 5, "--ell", 1, "--m", 5, "--seed", 1, "--no-timestamp"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(*argv, "--out-dir", tmp_path / "plain") == 2
        assert "girth must exceed r" in capsys.readouterr().err
        pdir = tmp_path / "override"
        assert run(*argv, "--out-dir", pdir, "--good-override") == 0
    assert "(0 good of 15 edges" in capsys.readouterr().out
    sc = load(pdir / "pair.json")
    u1, u2 = (formats.parse_gug((pdir / f).read_text()) for f in ("u1.gug", "u2.gug"))
    pair = InapproxPair.from_json(sc, u1, u2)
    assert pair.good == good_edges(pair.base, pair.zmap, 5, 5, override=True) == frozenset()


def test_tree_duplicator_rejects_klein_sidecar(tmp_path, capsys):
    pdir = tmp_path / "klein"
    assert run("gen", "klein", "--out-dir", pdir, "--no-timestamp") == 0
    capsys.readouterr()
    assert run("game", "--pair", pdir / "pair.json", "--duplicator", "tree", "--k", 2, "--rounds", 1) == 2
    assert "needs a 'gen random-pair' sidecar (kind 'tree'), got kind 'klein'" in capsys.readouterr().err


@pytest.fixture
def pairs(tmp_path):
    """The sidecars of `gen klein` and `gen random-pair --seed 4`."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("gen", "klein", "--out-dir", tmp_path / "klein", "--no-timestamp") == 0
        assert run("gen", "random-pair", "--out-dir", tmp_path / "rp", "--seed", 4, "--no-timestamp") == 0
    return {"klein": tmp_path / "klein" / "pair.json", "tree": tmp_path / "rp" / "pair.json"}


def test_cops_duplicator_rejects_random_pair_sidecar(pairs, capsys):
    capsys.readouterr()
    assert run("game", "--pair", pairs["tree"], "--duplicator", "cops", "--k", 2, "--rounds", 1) == 2
    assert "needs a 'gen klein' sidecar (kind 'klein'), got kind 'tree'" in capsys.readouterr().err


@pytest.mark.parametrize("duplicator, sidecar, key, message", [
    ("cops", "klein", "coloring", "'gen klein' sidecar has no 'coloring' key"),
    ("tree", "tree", "zmap", "'gen random-pair' sidecar has no 'zmap' key"),
    ("tree", "tree", "girth_ok", "'gen random-pair' sidecar has no 'girth_ok' key"),
    ("identity", "klein", "u2", "does not name the pair's 'u1' and 'u2' instance files"),
])
def test_sidecar_missing_key_exits_2(pairs, capsys, duplicator, sidecar, key, message):
    sc = load(pairs[sidecar])
    del sc[key]
    pairs[sidecar].write_text(json.dumps(sc))
    capsys.readouterr()
    assert run("game", "--pair", pairs[sidecar], "--duplicator", duplicator, "--k", 2, "--rounds", 1) == 2
    err = capsys.readouterr().err
    assert message in err and err.strip() != f"error: {key!r}"


@pytest.mark.parametrize("value", [5, "x", None, [], {}], ids=["5", "str", "null", "array", "object"])
@pytest.mark.parametrize("duplicator, sidecar, key, kind", [
    ("cops", "klein", "coloring", dict),
    ("tree", "tree", "zmap", dict),
    ("tree", "tree", "bmap", dict),
    ("tree", "tree", "good", list),
])
def test_sidecar_value_of_wrong_json_type_exits_2(pairs, capsys, duplicator, sidecar, key, kind, value):
    sc = load(pairs[sidecar])
    sc[key] = value
    pairs[sidecar].write_text(json.dumps(sc))
    capsys.readouterr()
    assert run("game", "--pair", pairs[sidecar], "--duplicator", duplicator, "--k", 2, "--rounds", 1) == 2
    err = capsys.readouterr().err
    # a value of the right type but empty fails later, on the edges it lacks
    if not isinstance(value, kind):
        assert err == f"error: sidecar {key!r} is not a JSON {'object' if kind is dict else 'array'}\n"


@pytest.mark.parametrize("path, value, message", [
    (("zmap", 0), 5, "sidecar 'zmap' entry {key!r} is not a JSON array of strings"),
    (("zmap", 0), None, "sidecar 'zmap' entry {key!r} is not a JSON array of strings"),
    (("zmap", 0), [5], "sidecar 'zmap' entry {key!r} is not a JSON array of strings"),
    (("zmap", 0), "1", "sidecar 'zmap' entry {key!r} is not a JSON array of strings"),
    (("bmap", 0), 5, "bad hex vector 5"),
    (("bmap", 0), None, "bad hex vector None"),
    (("bmap", 0), ["1"], "bad hex vector ['1']"),
    (("graph", "vertices"), 5, "sidecar 'vertices' is not a JSON array of strings"),
    (("graph", "vertices"), [[1, 2]], "sidecar 'vertices' is not a JSON array of strings"),
    (("graph", "edges"), 5, "sidecar 'edges' is not a JSON array"),
    (("graph", "edges", 0), [["a"], "b"], "sidecar 'graph' edge [['a'], 'b'] is not two vertex names"),
    (("good",), [[[1], "x"]], "sidecar 'good' edge [[1], 'x'] is not two vertex names"),
], ids=["zmap-5", "zmap-null", "zmap-array-of-5", "zmap-str", "bmap-5", "bmap-null", "bmap-array",
        "vertices-5", "vertices-array-of-array", "edges-5", "graph-edge-of-array", "good-edge-of-array"])
def test_sidecar_entry_of_wrong_json_type_exits_2(pairs, capsys, path, value, message):
    # the entries of 'zmap', 'bmap', 'good' and the base graph, not only the
    # maps and arrays themselves, are checked; an int after a map's name
    # picks its entries in sorted key order
    sc = load(pairs["tree"])
    *parents, key = path
    target = sc
    for k in parents:
        target = target[k]
    if isinstance(target, dict) and isinstance(key, int):
        key = sorted(target)[key]
    target[key] = value
    pairs["tree"].write_text(json.dumps(sc))
    capsys.readouterr()
    assert run("game", "--pair", pairs["tree"], "--duplicator", "tree", "--k", 2, "--rounds", 1) == 2
    assert capsys.readouterr().err == f"error: {message.format(key=key)}\n"


@pytest.mark.parametrize("gen, game, digest", [
    (["klein"], ["--duplicator", "cops", "--k", 3, "--rounds", 200, "--seed", 1],
     "0588223f18fdabadca25c8bcfc4b9b9cad8d58b2482a9c3a346a170525e90283"),
    (["random-pair", "--seed", 4], ["--duplicator", "tree", "--k", 2, "--rounds", 100, "--seed", 2],
     "2ec37b335404fe6cd908d89666369379b0dab86217aed00078361aa60505ad4b"),
    (["klein"], ["--duplicator", "k2", "--k", 2, "--rounds", 200, "--seed", 1],
     "8d588c24f6d40aade442e28fa5b3acabb0375b24f5182b62f0f014be81bcb26b"),
    (["klein"], ["--duplicator", "identity", "--k", 2, "--rounds", 50, "--seed", 1],
     "5a738a7bbc913e7fda51db5a6564d060d99eb2488441ece4011325405e72b6f2"),
], ids=["cops", "tree", "k2", "identity"])
def test_readme_game_transcripts_are_pinned(tmp_path, gen, game, digest):
    # the README game commands must keep writing these exact --no-timestamp
    # transcripts; a faster Duplicator or search must not change one byte
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # random-pair warns that the base's girth is small
        assert run("gen", *gen, "--out-dir", tmp_path / "pair") == 0
    out = tmp_path / "game.json"
    assert run("game", "--pair", tmp_path / "pair" / "pair.json", *game, "--out", out, "--no-timestamp") == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("k, seed", [(4, 11), (5, 10)])
def test_cops_game_on_a_generated_pursuit_pair_survives(tmp_path, k, seed):
    # pair.json rebuilds a plain graph; the robber must still play the cycle
    # strategy on it, which the endpoint strategy loses within the cop bound
    assert run("gen", "klein", "--cops", k, "--out-dir", tmp_path / "pair", "--no-timestamp") == 0
    out = tmp_path / "game.json"
    assert run(
        "game", "--pair", tmp_path / "pair" / "pair.json", "--duplicator", "cops", "--k", k,
        "--rounds", 200, "--seed", seed, "--out", out, "--no-timestamp",
    ) == 0
    data = load(out)
    assert data["winner"] is None and data["survived"] == 200


def test_byte_identical_reruns(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert run("gen", "klein", "--out-dir", d, "--no-timestamp") == 0
    assert (d1 / "pair.json").read_bytes() == (d2 / "pair.json").read_bytes()
    assert (d1 / "u1.gug").read_bytes() == (d2 / "u1.gug").read_bytes()

    g = tmp_path / "c3.graph"
    run("gen", "cops-graph", "--k", 3, "--out", g)
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for m in (m1, m2):
        assert run("sdp", "maxcut", "--graph", g, "--out", m, "--seed", 7, "--no-timestamp") == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_sdp_maxcut_cli(tmp_path):
    g = tmp_path / "c3.graph"
    run("gen", "cops-graph", "--k", 3, "--out", g)
    out = tmp_path / "mc.json"
    dats = tmp_path / "mc.dats"
    assert run(
        "sdp", "maxcut", "--graph", g, "--out", out, "--sdpa", dats,
        "--round", 400, "--no-timestamp",
    ) == 0
    data = load(out)
    assert data["value"] == pytest.approx(18.0, abs=1e-4)  # bipartite, unit weights
    assert data["residual"] <= 1e-6
    assert data["round_mean"] == pytest.approx(18.0, abs=1e-9)
    assert data["seed"] == 0
    assert (data["kind"], data["n"]) == ("maxcut", 12) and data["spread"] >= 0
    # one entry per restart (5 by default), no wall time
    assert list(data["stats"]) == ["sweeps"] and len(data["stats"]["sweeps"]) == 5
    assert all(isinstance(s, int) and s >= 1 for s in data["stats"]["sweeps"])
    back = parse_sdpa(dats.read_text())
    assert back.n == 12 and len(back.constraints) == 12


def write_family(tmp_path):
    xor = CspType(2, [(0, 1), (1, 0)], 2)
    anb = CspType(2, [(1, 1)], 2)
    fam = tmp_path / "fam"
    fam.mkdir()
    rows = [
        [("xor", ("a", "b"), 1), ("xor", ("b", "c"), 1)],
        [("and", ("a", "b"), 2), ("xor", ("a", "b"), 1)],
    ]
    for i, apps in enumerate(rows):
        inst = WeightedCspInstance(2, ["a", "b", "c"], {"xor": xor, "and": anb}, apps)
        formats.atomic_write_text(str(fam / f"f{i}.csp"), formats.write_csp(inst))
    return fam


def test_sdp_lc_and_gap_cli(tmp_path):
    fam = write_family(tmp_path)
    out = tmp_path / "lc.json"
    dats = tmp_path / "lc.dats"
    assert run("sdp", "lc", "--csp", fam / "f0.csp", "--out", out, "--sdpa", dats, "--no-timestamp") == 0
    data = load(out)
    assert data["value"] == pytest.approx(1.0, abs=1e-4)
    assert data["scale"] == 2.0
    assert (data["kind"], data["n"]) == ("lc", 14) and data["spread"] >= 0
    assert sorted(data["stats"]) == ["evaluations", "outer_iterations"]
    assert [len(v) for v in data["stats"].values()] == [5, 5]
    assert all(1 <= k <= 30 for k in data["stats"]["outer_iterations"])
    assert all(e >= 1 for e in data["stats"]["evaluations"])
    assert parse_sdpa(dats.read_text()).n == 14

    gap = tmp_path / "gap.json"
    assert run(
        "sdp", "gap", "--family", fam, "--eta", "0.1", "--grid", "0.1,0.9,1.2",
        "--out", gap, "--no-timestamp",
    ) == 0
    gdata = load(gap)
    assert gdata["files"] == ["f0.csp", "f1.csp"]
    assert gdata["samples"][0][1] is None  # below every point
    assert gdata["samples"][1][1] == pytest.approx(2 / 3 - 0.1, abs=1e-4)
    assert gdata["samples"][2][1] == pytest.approx(1.0 - 0.1, abs=1e-4)
    sdps = [p[0] for p in gdata["points"]]
    assert sdps == sorted(sdps)


def test_report_aggregates(tmp_path):
    run("gen", "klein", "--out-dir", tmp_path / "k", "--no-timestamp")
    (tmp_path / "junk.json").write_text("{not json")
    out = tmp_path / "report.json"
    assert run("report", "--dir", tmp_path, "--out", out, "--no-timestamp") == 0
    data = load(out)
    assert data["count"] == 2
    assert data["runs"]["junk.json"]["unreadable"].startswith("line 1: ")
    assert data["runs"]["k/pair.json"]["kind"] == "klein"


def test_malformed_header_exits_2(tmp_path, capsys):
    for name, text in [
        ("h.gug", "gug\n"),
        ("x.gug", "gug m=x\n"),
        ("p.pug", "pug q=2\nedge a b perm=0,x\n"),
        ("z.gug", "gug m=2\nbundle a b zz\n"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert run("solve", "brute", "--in", path) == 2
        assert "error: line " in capsys.readouterr().err


def test_exit_codes(tmp_path, capsys, monkeypatch):
    assert run("nosuch") == 1
    assert run("gen", "unsat", "--delta", "notanumber", "--out", tmp_path / "x.gug") == 1
    assert run("--help") == 0
    capsys.readouterr()
    assert run("solve", "brute", "--in", tmp_path / "missing.gug", "--out", tmp_path / "x.json") == 2
    assert run("gen", "unsat", "--delta", "1/8", "--out", tmp_path / "x.gug") == 2
    capsys.readouterr()

    pdir = tmp_path / "klein"
    run("gen", "klein", "--out-dir", pdir, "--no-timestamp")

    def boom(*a, **kw):
        raise StrategyViolationError("synthetic break")

    monkeypatch.setattr("uglab.game.play_game", boom)
    code = run("game", "--pair", pdir / "pair.json", "--duplicator", "cops", "--k", 3)
    assert code == 3
    assert "strategy violation" in capsys.readouterr().err

    def bug(*a, **kw):
        raise KeyError("lost")

    # a fault of the program is not reported as invalid input
    monkeypatch.setattr("uglab.game.play_game", bug)
    assert run("game", "--pair", pdir / "pair.json", "--duplicator", "cops", "--k", 3) == 4
    assert capsys.readouterr().err == "internal error: KeyError: 'lost'\n"


def _edit_sidecar(path, text):
    path.write_text(text)
    return ["game", "--pair", path, "--duplicator", "identity", "--rounds", 1]


def _bad_params(path):
    sc = load(path)
    sc["params"]["d"] = "x"
    path.write_text(json.dumps(sc))
    return ["game", "--pair", path, "--duplicator", "tree", "--rounds", 1]


def _empty_pair(path):
    for name in ("u1.gug", "u2.gug"):
        (path.parent / name).write_text("gug m=2\n")
    return ["game", "--pair", path, "--duplicator", "identity", "--rounds", 3]


def _u2_missing_an_edge(path):
    u2 = path.parent / "u2.gug"
    u2.write_text("".join(u2.read_text().splitlines(keepends=True)[:-1]))  # the last bundle line
    return ["game", "--pair", path, "--duplicator", "cops", "--k", 3, "--rounds", 5]


def _u2_bundle_changed(path):
    u2 = path.parent / "u2.gug"
    text = u2.read_text()
    assert "bundle v1 v2 0,1\n" in text
    u2.write_text(text.replace("bundle v1 v2 0,1\n", "bundle v1 v2 0,2\n"))
    return ["game", "--pair", path, "--duplicator", "cops", "--k", 3, "--rounds", 5]


def _bad_bytes(path):
    bad = path.parent / "u1.gug"
    bad.write_bytes(b"gug m=2\nvertex \xff\n")
    return ["solve", "brute", "--in", bad]


@pytest.mark.parametrize("argv, message", [
    (lambda p: _edit_sidecar(p["klein"], "{not json"), "error: line 1: "),
    (lambda p: _edit_sidecar(p["klein"], '{\n  "u1": "u1.gug",\n  u2\n}\n'), "error: line 3: "),
    (lambda p: ["gen", "random-pair", "--base", "cops:x", "--out-dir", p["tree"].parent / "x"],
     "error: --base cops:K needs an integer K, got 'cops:x'"),
    (lambda p: ["sdp", "gap", "--family", ".", "--eta", "0.1", "--grid", "0.1,x", "--out", "gap.json"],
     "error: --grid takes comma-separated numbers, got '0.1,x'"),
    (lambda p: _bad_params(p["tree"]), "error: parameter set value d='x' is not an integer"),
    (lambda p: _bad_bytes(p["klein"]), "error: line 2: "),
    (lambda p: ["gen", "random-pair", "--m", -1, "--out-dir", p["tree"].parent / "x"],
     "error: dimension must be in 1..64, got -1"),
    (lambda p: ["gen", "random-pair", "--m", 0, "--out-dir", p["tree"].parent / "x"],
     "error: dimension must be in 1..64, got 0"),
    (lambda p: ["gen", "random-pair", "--m", 70, "--out-dir", p["tree"].parent / "x"],
     "error: dimension must be in 1..64, got 70"),
    (lambda p: ["gen", "random-pair", "--ell", 5, "--m", 3, "--out-dir", p["tree"].parent / "x"],
     "error: need 0 <= ell <= m, got ell=5, m=3"),
    (lambda p: ["gen", "random-pair", "--k", 0, "--out-dir", p["tree"].parent / "x"], "error: need k >= 1"),
    (lambda p: ["gen", "random-pair", "--k", -1, "--out-dir", p["tree"].parent / "x"], "error: need k >= 1"),
    (lambda p: _empty_pair(p["klein"]), "error: the universe is empty"),
    (lambda p: ["game", "--pair", p["klein"], "--duplicator", "cops", "--rounds", -4, "--out", p["klein"].parent / "g.json"],
     "error: need max_rounds >= 0, got -4"),
    (lambda p: ["gen", "klein", "--cops", 0, "--out-dir", p["klein"].parent / "x"], "error: need k >= 2"),
    (lambda p: ["report", "--dir", p["klein"].parent / "missing", "--out", p["klein"].parent / "r.json"],
     lambda p: f"error: --dir '{p['klein'].parent / 'missing'}' is not a directory"),
    (lambda p: ["report", "--dir", p["klein"], "--out", p["klein"].parent / "r.json"],
     lambda p: f"error: --dir '{p['klein']}' is not a directory"),
    (lambda p: _u2_missing_an_edge(p["klein"]), "error: u2 instance does not match the sidecar's coloring"),
    (lambda p: _u2_bundle_changed(p["klein"]), "error: u2 instance does not match the sidecar's coloring"),
    (lambda p: ["sdp", "gap", "--family", write_family(p["klein"].parent.parent), "--eta", "-1",
                "--out", p["klein"].parent / "g.json"], "error: eta must be >= 0, got -1.0"),
    (lambda p: ["sdp", "gap", "--family", write_family(p["klein"].parent.parent), "--eta", "1e400",
                "--out", p["klein"].parent / "g.json"], "error: eta must be finite, got inf"),
    (lambda p: ["sdp", "gap", "--family", write_family(p["klein"].parent.parent), "--eta", "0.1",
                "--grid", "nan,inf,-inf", "--out", p["klein"].parent / "g.json"],
     "error: grid points must be finite, got nan"),
    (lambda p: ["sdp", "lc", "--csp", write_family(p["klein"].parent.parent) / "f0.csp", "--tol", "inf",
                "--out", p["klein"].parent / "lc.json"], "error: tol must be positive and finite, got inf"),
], ids=["sidecar-not-json", "sidecar-line-3", "base-cops", "grid", "params", "not-utf8", "negative-m", "m-0", "m-70",
        "ell-above-m", "k-0", "k-negative", "empty-universe", "rounds-negative", "klein-cops-0", "report-dir-missing",
        "report-dir-is-file", "cops-u2-missing-edge", "cops-u2-bundle-changed", "gap-eta-negative",
        "gap-eta-overflow", "gap-grid-non-finite", "lc-tol-inf"])
# the girth warning goes to stderr outside pytest, so no case may reach it
@pytest.mark.filterwarnings("error:girth")
def test_malformed_input_exits_2(pairs, capsys, argv, message):
    args = argv(pairs)
    capsys.readouterr()
    assert run(*args) == 2
    err = capsys.readouterr().err
    assert err.startswith(message(pairs) if callable(message) else message) and err.count("\n") == 1


def _python(*args, cwd=None):
    """Run this interpreter on args with the package under test importable."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(uglab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, check=True)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # each command imports the layers it runs; commands such as `params` and
    # `gen` should pay at start-up for neither the solvers' scipy.optimize nor
    # numpy, the SDP layer or the game layer
    names = ["scipy.optimize", "numpy", "uglab.sdp", "uglab.game"]
    out = _python("-c", f"import sys, uglab.cli; print([m for m in {names!r} if m in sys.modules])")
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("argv, numpy", [
    (["sdp", "maxcut", "--graph", "c3.graph", "--out", "mc.json", "--round", "100", "--no-timestamp"], True),
    (["solve", "brute", "--in", "u4.gug", "--out", "r.json", "--no-timestamp"], True),
    (["solve", "tree", "--in", "u5.gug", "--out", "r.json", "--no-timestamp"], False),
    (["gen", "unsat", "--delta", "1/2", "--out", "x.gug"], False),
    (["gen", "klein", "--out-dir", "x", "--no-timestamp"], False),
    (["gen", "cops-graph", "--k", "3", "--out", "x.graph"], False),
    (["gen", "random-pair", "--seed", "4", "--out-dir", "x", "--no-timestamp"], False),
    (["lift", "--in", "klein/u1.gug", "--out", "lifted.gug"], False),
    (["game", "--pair", "klein/pair.json", "--duplicator", "cops", "--k", "3", "--rounds", "5", "--no-timestamp"], False),
    (["game", "--pair", "rp/pair.json", "--duplicator", "tree", "--k", "2", "--rounds", "5", "--no-timestamp"], False),
    (["params", "--alpha", "1"], False),
    (["report", "--dir", ".", "--out", "report.json", "--no-timestamp"], False),
], ids=["sdp-maxcut", "solve-brute", "solve-tree", "gen-unsat", "gen-klein", "gen-cops-graph", "gen-random-pair", "lift",
        "game-cops", "game-tree", "params", "report"])
def test_commands_that_need_no_scipy_import_none(tmp_path, argv, numpy):
    # mixing, rounding, gw_alpha and the exact solvers are numpy-only; an
    # eager scipy import would add its start-up time to every such run, and
    # the spanning-tree oracle enumerates its trees without networkx. Only
    # brute force and the relaxations need numpy, so no other command loads it.
    assert run("gen", "cops-graph", "--k", 3, "--out", tmp_path / "c3.graph") == 0
    assert run("gen", "unsat", "--delta", "2/3", "--out", tmp_path / "u4.gug") == 0
    assert run("gen", "unsat", "--delta", "1/2", "--out", tmp_path / "u5.gug") == 0
    assert run("gen", "klein", "--out-dir", tmp_path / "klein", "--no-timestamp") == 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("gen", "random-pair", "--out-dir", tmp_path / "rp", "--seed", 4, "--no-timestamp") == 0
    err = _python("-X", "importtime", "-m", "uglab", *argv, cwd=tmp_path).stderr
    modules = [line.split("|")[-1].strip() for line in err.splitlines() if line.startswith("import time:")]
    assert "uglab.cli" in modules
    assert [m for m in modules if m.split(".")[0] in ("scipy", "networkx")] == []
    assert ("numpy" in modules) == numpy


def test_readme_solve_tree_result_is_pinned(tmp_path, monkeypatch):
    # the README "Solve exactly" tree command, run with relative paths because
    # result.json records its input; the oracle's tree order must not change it
    monkeypatch.chdir(tmp_path)
    assert run("gen", "unsat", "--delta", "0.5", "--out", "u5.gug") == 0
    assert run("solve", "tree", "--in", "u5.gug", "--out", "result.json", "--no-timestamp") == 0
    for name, digest in (
        ("u5.gug", "73120c25031cf87ff4f1319de0d75d973538bfcb6c5418fc58ec02aac8e03d22"),
        ("result.json", "0b9f9a9185ee7136ef38502b92818228c05bbfa03d45ec365298d0589a3b9814"),
    ):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
