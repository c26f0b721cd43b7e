"""The README's CLI section, run as written: the determinism gate.

Every `uglab ...` line of the README's fenced blocks runs verbatim, in order,
as a `python -m uglab` subprocess in an empty directory; a block whose first
line is `# <file> ...` is an input, saved under each name it gives when the
run reaches it. Two runs go side by side, under PYTHONHASHSEED=1 with one
BLAS/OpenMP thread and PYTHONHASHSEED=2 with two, and must write the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import uglab

README = Path(__file__).resolve().parents[1] / "README.md"

# sha256 of the README outputs whose bytes are pinned. When one changes on
# purpose, log the change and its reason in CHANGES.md and update it here.
DIGESTS = {
    "game-cops.json": "0588223f18fdabadca25c8bcfc4b9b9cad8d58b2482a9c3a346a170525e90283",
    "game-tree.json": "2ec37b335404fe6cd908d89666369379b0dab86217aed00078361aa60505ad4b",
    "game-tree-long.json": "d1d5e2563647930262c5fa0bcc6de5020189147dc2e630986d9f075d253d3167",
    "game-k2.json": "8d588c24f6d40aade442e28fa5b3acabb0375b24f5182b62f0f014be81bcb26b",
    "game-identity.json": "5a738a7bbc913e7fda51db5a6564d060d99eb2488441ece4011325405e72b6f2",
    "u5.gug": "73120c25031cf87ff4f1319de0d75d973538bfcb6c5418fc58ec02aac8e03d22",
    "result.json": "0b9f9a9185ee7136ef38502b92818228c05bbfa03d45ec365298d0589a3b9814",
    "mc.dats": "b58232d2f3a59de19b39efae4360ceb1343329e426f583631205fa4b9d6138eb",
    "lc.dats": "477fdfa682efc18159ea7aba361a9b22158455298a5dd9fe4b0d7573ab0baba7",
}


def readme_steps():
    """The CLI section in order: (name, text) for each file an input block
    is saved as, (None, line) for each `uglab` line."""
    steps = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", README.read_text(encoding="utf-8"), re.MULTILINE | re.DOTALL):
        head = block.split("\n", 1)[0].split()
        if head[:1] == ["#"] and len(head) > 1 and all("." in name for name in head[1:]):
            steps += [(name, block) for name in head[1:]]
        else:
            steps += [(None, line) for line in block.splitlines() if line.startswith("uglab ")]
    return steps


def readme_input(name: str) -> str:
    return next(text for n, text in readme_steps() if n == name)


def run_readme(directory: Path, hash_seed: int, threads: int):
    """Run the CLI section in a new directory; (line, exit code, stderr) per command."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(uglab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(threads)))
    env["PYTHONHASHSEED"] = str(hash_seed)
    directory.mkdir()
    ran = []
    for name, text in readme_steps():
        if name:
            (directory / name).parent.mkdir(parents=True, exist_ok=True)
            (directory / name).write_text(text, encoding="utf-8")
        else:
            argv = [sys.executable, "-m", "uglab", *shlex.split(text)[1:]]
            proc = subprocess.run(argv, cwd=directory, env=env, capture_output=True, text=True)
            ran.append((text, proc.returncode, proc.stderr))
    return ran


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    dirs = (tmp_path_factory.mktemp("readme") / "a", tmp_path_factory.mktemp("readme") / "b")
    with ThreadPoolExecutor(2) as pool:
        return dirs, list(pool.map(run_readme, dirs, (1, 2), (1, 2)))


def written(directory: Path):
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())


def test_every_readme_command_exits_0(runs):
    _, (ran, _) = runs
    assert ran and [(line, code, err) for line, code, err in ran if code] == []


def test_reruns_write_the_same_bytes(runs):
    (a, b), _ = runs
    assert written(a) == written(b)
    for name in written(a):
        one, two = (a / name).read_bytes(), (b / name).read_bytes()
        if name == "report.json":  # without the one field that records where the command ran
            one, two = (re.sub(rb'\n  "directory": [^\n]*\n', b"\n", data, count=1) for data in (one, two))
        assert one == two, name


def test_json_outputs_are_strict_and_untimestamped(runs):
    def reject(token):
        raise ValueError(f"non-finite number {token}")

    for directory in runs[0]:  # the runs go side by side, so a timestamp could read alike in both
        for name in [name for name in written(directory) if name.endswith(".json")]:
            data = json.loads((directory / name).read_text(encoding="utf-8"), parse_constant=reject)
            assert "generated" not in data, f"{name}: its README line lacks --no-timestamp"


def test_pinned_outputs_keep_their_digests(runs):
    (a, _), _ = runs
    assert {name: hashlib.sha256((a / name).read_bytes()).hexdigest() for name in DIGESTS} == DIGESTS
