"""Run one workload in this process and print its figures as one JSON line.

Started by run.py in a fresh, single-threaded process per workload:

    python3 perfbench/worker.py --workload exact --seed 1 --mode run --seconds 20

Modes: ``setup`` imports, generates the first pass's inputs and runs the
warm-up pass, then reports its time, the same work whatever ``--seconds``;
``run`` does the same, then generates the other passes' inputs untimed and
runs the timed passes; ``trace`` runs one pass untraced, again with spans
around every call into the program, and untraced once more, each on freshly
generated inputs of the first pass.
"""

import time

# set-up is timed from here, before any import below, on the CPU clock that
# times the ops (ops.cpu_clock; no child has been reaped yet)
T0 = time.process_time()

import argparse
import contextlib
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, os.path.join(ROOT, "src"))

from ops import cpu_clock, execute  # noqa: E402


def run_pass(tasks, tracer=None):
    ops = []
    pause = tracer.paused if tracer is not None else contextlib.nullcontext
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.op_id = i
        ops.extend(execute(task, pause))
    return ops


def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def wrong(ops) -> int:
    """Ops whose output was rejected, other than declared known faults."""
    return sum(op.wrong for op in ops)


def summarize(ops):
    ok = [op.seconds for op in ops if op.ok]
    spent = sum(op.seconds for op in ops)
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "wrong": wrong(ops),
        "ops_per_s": len(ok) / spent if spent else 0.0,
        "op_p50_ms": 1e3 * statistics.median(ok) if ok else 0.0,
        "seconds": spent,
    }


def write_ops(path, ops) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[op.kind, round(op.seconds * 1e3, 4), op.ok, op.why] for op in ops], fh)


def report_failures(ops) -> None:
    for op in [op for op in ops if not op.ok][:10]:
        print(f"failed {op.kind}: {op.why}", file=sys.stderr)


def subprocess_ms(argv, repeats: int) -> float:
    """Median CPU time of a command, on the clock the cli ops are timed on."""
    times = []
    for _ in range(repeats):
        t0 = cpu_clock()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(1e3 * (cpu_clock() - t0))
    return statistics.median(times)


def trace(wl, name: str, seed: int, tag: str, make, tasks):
    import tracing

    # install() imports every layer; do it before the untraced pass too, so
    # that pass does not pay imports the traced one is spared
    for layer in tracing.LAYERS:
        importlib.import_module(f"uglab.{layer}")
    before = run_pass(tasks)
    gc.collect()
    tracer = tracing.Tracer()
    bench = [sys.modules[m] for m in ("checks", "ops", wl.__name__)]
    undo = tracing.install(tracer, bench)
    try:
        traced = run_pass(make(seed, 0), tracer)  # input generation is traced too
    finally:
        tracing.uninstall(undo)
    gc.collect()
    # untraced on both sides, so a drift in the machine's speed during the
    # three passes cancels out of the overhead
    after = run_pass(make(seed, 0))
    metrics = tracing.derive(tracer, name)
    if name == "sdp":
        tracemalloc.start()
        wl.lc_alloc_probe(seed)
        metrics["sdp.lc_alloc_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    if name == "cli":
        metrics["cli.import_ms"] = subprocess_ms([sys.executable, "-c", "import uglab.cli"], 5)
        metrics["cli.interp_ms"] = subprocess_ms([sys.executable, "-c", "pass"], 5)
    tracer.dump(os.path.join(RESULTS, f"spans-{tag}.json"))
    with open(os.path.join(RESULTS, f"layers-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(tracing.Spans(tracer).summary(), fh, indent=1)
    ops = before + traced + after
    report_failures(ops)
    untraced_s = (summarize(before)["seconds"] + summarize(after)["seconds"]) / 2
    return {
        "attempted": len(ops),
        "failed": len(ops) - sum(op.ok for op in ops),
        "wrong": wrong(ops),
        "metrics": metrics,
        "untraced_s": untraced_s,
        "traced_s": summarize(traced)["seconds"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["exact", "game", "sdp", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=["setup", "run", "trace"])
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args()
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-{args.mode}"

    wl = importlib.import_module(f"wl_{args.workload}")
    # cli commands run in-process when traced, so spans see them
    make = getattr(wl, "make_trace_pass", wl.make_pass) if args.mode == "trace" else wl.make_pass
    warmup = getattr(wl, "trace_warmup", wl.warmup) if args.mode == "trace" else wl.warmup
    plans = [make(args.seed, 0)]
    warm = run_pass(warmup(args.seed))
    report_failures(warm)
    setup_s = cpu_clock() - T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "wrong": wrong(warm)}))
        return 0
    if args.mode == "trace":
        out = trace(wl, args.workload, args.seed, tag, make, plans[0])
        out.update({"setup_s": setup_s, "wrong": out["wrong"] + wrong(warm)})
        print(json.dumps(out))
        return 0

    passes = max(1, round(args.seconds / wl.NOMINAL_PASS_S))
    plans += [make(args.seed, i) for i in range(1, passes)]
    ops = []
    for tasks in plans:
        gc.collect()
        ops.extend(run_pass(tasks))
    report_failures(ops)
    write_ops(os.path.join(RESULTS, f"ops-{tag}.json"), ops)
    summary = summarize(ops)
    summary.update({
        "wrong": summary["wrong"] + wrong(warm),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "passes": passes,
    })
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
