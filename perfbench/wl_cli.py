"""cli workload: the README pipelines as ``python -m uglab`` subprocesses, one
at a time. One op is one command, so interpreter start-up, imports and the
file formats are measured here and nowhere else. Most commands do little
beyond starting up, so the median latency is a start-up-bound command.

In traced mode the same commands run in-process through ``uglab.cli.main``,
so spans cover the commands without their start-up, which is measured apart
(cli.import_ms, cli.interp_ms).
"""

from __future__ import annotations

import atexit
import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from typing import Callable, List, Optional

import checks
from ops import Task

NOMINAL_PASS_S = 18.0
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "results", f"cli-work-{os.getpid()}")


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _records(path: str, **expected: int) -> Optional[str]:
    text = _read(path)
    for record, count in expected.items():
        got = checks.count_records(text, record)
        if got != count:
            return f"{os.path.basename(path)} has {got} {record} records, expected {count}"
    return None


def _graph(path: str):
    text = _read(path)
    names = [line.split()[1] for line in text.splitlines() if line.split()[:1] == ["v"]]
    index = {v: i for i, v in enumerate(names)}
    edges = [(index[p[1]], index[p[2]]) for p in (line.split() for line in text.splitlines()) if p[:1] == ["e"]]
    return len(names), edges


def commands(d: str, rng) -> List[tuple]:
    """(kind, argv, check) for one pass; checks read the files written."""
    s_pair, s_cops, s_tree, s_mc = (str(rng.randrange(10**6)) for _ in range(4))

    def p(*parts: str) -> str:
        return os.path.join(d, *parts)

    def fields(path: str, **expected) -> Callable[[], Optional[str]]:
        return lambda: checks.check_fields(_load(path), expected)

    def maxcut() -> Optional[str]:
        n, edges = _graph(p("c3.graph"))
        return checks.check_cli_maxcut(_load(p("mc.json")), n, edges) or _records(p("c3.graph"), v=12, e=18)

    def rerun_identical() -> Optional[str]:
        same = _read(p("game-cops.json")) == _read(p("game-cops-rerun.json"))
        return None if same else "--no-timestamp rerun differs"

    def report() -> Optional[str]:
        found = sum(
            1 for _, _, names in os.walk(d) for name in names if name.endswith(".json") and name != "report.json"
        )
        return checks.check_fields(_load(p("report.json")), {"count": found})

    game_cops = ["game", "--pair", p("c3", "pair.json"), "--duplicator", "cops", "--k", "3", "--rounds", "200",
                 "--seed", s_cops, "--no-timestamp", "--out"]
    return [
        ("gen", ["gen", "unsat", "--delta", "1/2", "--out", p("u5.gug")],
         lambda: _records(p("u5.gug"), vertex=5, bundle=10)),
        ("gen", ["gen", "klein", "--out-dir", p("k4"), "--no-timestamp"],
         lambda: _records(p("k4", "u1.gug"), vertex=4, bundle=6) or checks.check_fields(_load(p("k4", "pair.json")), {"kind": "klein"})),
        ("gen", ["gen", "klein", "--cops", "3", "--out-dir", p("c3"), "--no-timestamp"],
         lambda: _records(p("c3", "u2.gug"), vertex=12, bundle=18)),
        ("gen", ["gen", "cops-graph", "--k", "3", "--out", p("c3.graph")],
         lambda: _records(p("c3.graph"), v=12, e=18)),
        ("gen", ["gen", "random-pair", "--seed", s_pair, "--out-dir", p("rp"), "--no-timestamp"],
         fields(p("rp", "pair.json"), kind="tree", seed=int(s_pair))),
        ("solve-tree", ["solve", "tree", "--in", p("u5.gug"), "--out", p("tree.json"), "--no-timestamp"],
         fields(p("tree.json"), count=4, total=10, value="2/5")),
        ("solve-brute", ["solve", "brute", "--in", p("k4", "u1.gug"), "--witness-out", p("u1.assign"),
                         "--out", p("brute1.json"), "--no-timestamp"],
         fields(p("brute1.json"), value="1/2")),
        ("solve-brute", ["solve", "brute", "--in", p("k4", "u2.gug"), "--out", p("brute2.json"), "--no-timestamp"],
         fields(p("brute2.json"), value="5/12")),
        ("lift", ["lift", "--in", p("k4", "u1.gug"), "--out", p("lifted.gug")],
         lambda: _records(p("lifted.gug"), vertex=4 * 4)),  # |V| * q
        ("game-cops", game_cops + [p("game-cops.json")],
         fields(p("game-cops.json"), winner=None, survived=200)),
        ("game-tree", ["game", "--pair", p("rp", "pair.json"), "--duplicator", "tree", "--k", "2", "--rounds", "100",
                       "--seed", s_tree, "--out", p("game-tree.json"), "--no-timestamp"],
         fields(p("game-tree.json"), winner=None, survived=100)),
        ("sdp-maxcut", ["sdp", "maxcut", "--graph", p("c3.graph"), "--out", p("mc.json"), "--round", "1000",
                        "--sdpa", p("mc.dats"), "--seed", s_mc, "--no-timestamp"],
         maxcut),
        ("params", ["params", "--alpha", "1", "--gamma", "1/4", "--epsilon", "1/4", "--out", p("params.json"),
                    "--no-timestamp"],
         fields(p("params.json"), d=145, ell=11, m=14, r=12, q=16384)),
        ("game-cops", game_cops + [p("game-cops-rerun.json")], rerun_identical),
        ("report", ["report", "--dir", d, "--out", p("report.json"), "--no-timestamp"], report),
    ]


def _subprocess(argv: List[str]):
    proc = subprocess.run([sys.executable, "-m", "uglab", *argv], cwd=ROOT, capture_output=True, text=True)
    return proc.returncode, proc.stderr


def _in_process(argv: List[str]):
    from uglab import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    return code, err.getvalue()


def _task(kind: str, argv: List[str], check: Callable, runner: Callable) -> Task:
    def verdict(out) -> Optional[str]:
        code, err = out
        if code != 0:
            return f"exit {code}: {err.strip().splitlines()[-1:] or ''}"
        return check()

    return Task(kind, lambda: runner(argv), verdict)


_DIRS = itertools.count()


def _workdir() -> str:
    """A fresh directory per pass, removed when the process exits."""
    if not os.path.isdir(WORK):
        os.makedirs(WORK)
        atexit.register(shutil.rmtree, WORK, True)
    d = os.path.join(WORK, f"pass{next(_DIRS)}")
    os.makedirs(d)
    return d


def make_pass(seed: int, index: int, runner: Callable = _subprocess) -> List[Task]:
    rng = random.Random(f"{seed}/cli/{index}")
    return [_task(kind, argv, check, runner) for kind, argv, check in commands(_workdir(), rng)]


def make_trace_pass(seed: int, index: int) -> List[Task]:
    return make_pass(seed, index, _in_process)


def warmup(seed: int) -> List[Task]:
    """One start-up, so the first timed command does not pay for cold files."""
    return [_task("params", ["params", "--alpha", "1"], lambda: None, _subprocess)]


def trace_warmup(seed: int) -> List[Task]:
    """One in-process pass, so the first traced or untraced pass of a trace
    does not pay for the commands' first calls alone."""
    return make_trace_pass(seed, -1)
