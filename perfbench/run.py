"""uglab benchmark: one workload, timed end to end or traced layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 20 --trace 0

Each workload runs in its own process with the BLAS and OpenMP thread pools
pinned to one thread. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones (ops_per_s, op_p50_ms, setup_s, peak_rss_mb); set-up is
timed in three processes and the median reported. With --trace 1 one pass
of every workload is run untraced, traced and untraced again, and the
metrics are the per-layer ones, each taken from the workload it is expected
to move, plus the tracing overhead.

``correct`` is false when any op's output was rejected by its check, other
than the ops of a declared known fault of the program, which are counted in
``failed`` instead (see ops.py).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("exact", "game", "sdp", "cli")
SETUP_RUNS = 3

sys.path.insert(0, HERE)
from tracing import METRICS, UNITS  # noqa: E402

END_TO_END = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    env.update({
        # OpenBLAS picks its own thread count otherwise, and LC solves move by
        # tens of percent either way depending on the instance size
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": os.path.join(ROOT, "src"),
    })
    return env


def worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> dict:
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    # a run lasts about --seconds, a trace three passes; set-up takes a few seconds
    timeout = 2 * seconds + 120
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    results = [worker(workload, seed, "setup") for _ in range(SETUP_RUNS - 1)]
    res = worker(workload, seed, "run", seconds)
    results.append(res)
    setups = [r["setup_s"] for r in results]
    print(f"setup_s samples: {json.dumps(setups)}", file=sys.stderr)
    values = {
        "ops_per_s": res["ops_per_s"],
        "op_p50_ms": res["op_p50_ms"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return {
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: metric(values[name], unit) for name, unit in END_TO_END.items()},
    }


def traced(seed: int, seconds: float) -> dict:
    """Per-layer figures: each from the traced run of its home workload."""
    values, attempted, failed, wrong, untraced_s, traced_s = {}, 0, 0, 0, 0.0, 0.0
    for w in WORKLOADS:
        res = worker(w, seed, "trace", seconds)
        values.update(res["metrics"])
        attempted += res["attempted"]
        failed += res["failed"]
        wrong += res["wrong"]
        untraced_s += res["untraced_s"]
        traced_s += res["traced_s"]
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: metric(values[name], UNITS[name]) for name, *_ in METRICS},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "uglab", "__init__.py")):
        print(f"error: no uglab package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        out = traced(args.seed, args.seconds) if args.trace else end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
