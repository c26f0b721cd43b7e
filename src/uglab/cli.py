"""Batch command line: generate instances, solve them, play games, run relaxations.

Every output file is JSON or line text, written atomically.  Randomized runs
record their seed; timestamps are suppressed with --no-timestamp so reruns
with one RunConfig produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from datetime import datetime, timezone
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import formats
from .constructions import (
    ParamSet,
    cops_robbers_graph,
    compute_params,
    cubic_edge_coloring,
    InapproxPair,
    k4_klein_inputs,
    klein_from_json,
    klein_pair,
    klein_to_json,
    random_inapprox_pair,
    unsat_complete_graph,
)
from .errors import InvalidParameterError, PreconditionError, StrategyViolationError, UglabError
from .gf2 import Gf2Vector
from .graphs import SimpleGraph, petersen_graph
from .instances import (
    DEFAULT_LIFT_VERTEX_CAP,
    GroupUgInstance,
    brute_force_opt,
    csp_brute_opt,
    label_lift,
    propagate_complete_sat,
    spanning_tree_opt,
)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)  # handles "3/4", "-2", and decimal strings
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad rational {text!r}")


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise InvalidParameterError(f"line {line}: {path} is not UTF-8 text") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")  # the newlines text mode reads


def _read_json(path: str):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InvalidParameterError(f"line {exc.lineno}: {path} is not JSON: {exc.msg}") from None


def _stamp(args, extra: Dict) -> Dict:
    if not getattr(args, "no_timestamp", False):
        extra["generated"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return extra


def _load_instance(path: str):
    text = _read(path)
    if path.endswith(".gug"):
        return formats.parse_gug(text), "group"
    if path.endswith(".pug"):
        return formats.parse_pug(text), "perm"
    if path.endswith(".csp"):
        return formats.parse_csp(text), "csp"
    raise InvalidParameterError(f"unknown instance extension on {path!r} (expect .gug/.pug/.csp)")


def _witness_json(witness: Dict) -> Dict:
    out = {}
    for v, label in witness.items():
        out[str(v)] = label.to_hex() if isinstance(label, Gf2Vector) else int(label)
    return out


# -- gen ------------------------------------------------------------------------


def cmd_gen_unsat(args) -> int:
    inst = unsat_complete_graph(args.delta)
    formats.atomic_write_text(args.out, formats.write_gug(inst))
    print(f"wrote {args.out}: {len(inst.vertices)} vertices, {inst.constraint_count} bundles")
    return 0


# the sidecar names the pair's instance files, which sit next to it
PAIR_FILES = {"u1": "u1.gug", "u2": "u2.gug"}


def _write_pair(args, u1: GroupUgInstance, u2: GroupUgInstance, sidecar: Dict) -> None:
    os.makedirs(args.out_dir, exist_ok=True)
    for inst, name in zip((u1, u2), PAIR_FILES.values()):
        formats.atomic_write_text(os.path.join(args.out_dir, name), formats.write_gug(inst))
    formats.atomic_write_json(os.path.join(args.out_dir, "pair.json"), _stamp(args, {**sidecar, **PAIR_FILES}))


def _read_pair(path: str) -> Tuple[Dict, GroupUgInstance, GroupUgInstance]:
    sc = _read_json(path)
    if not isinstance(sc, dict) or not all(isinstance(sc.get(key), str) for key in PAIR_FILES):
        raise InvalidParameterError(f"{path} does not name the pair's 'u1' and 'u2' instance files")
    basedir = os.path.dirname(os.path.abspath(path))
    u1, u2 = (formats.parse_gug(_read(os.path.join(basedir, sc[key]))) for key in PAIR_FILES)
    return sc, u1, u2


def cmd_gen_klein(args) -> int:
    if args.cops is not None:
        h = cops_robbers_graph(args.cops)
        coloring = cubic_edge_coloring(h)
        star = h.edges[0]
    else:
        h, coloring, star = k4_klein_inputs()
    _write_pair(args, *klein_pair(h, coloring, star), klein_to_json(h, coloring, star))
    print(f"wrote {args.out_dir}: u1.gug u2.gug pair.json (star {star[0]}-{star[1]})")
    return 0


def cmd_gen_cops_graph(args) -> int:
    h = cops_robbers_graph(args.k)
    formats.atomic_write_text(args.out, formats.write_graph(h))
    print(f"wrote {args.out}: {len(h.vertices)} vertices, {len(h.edges)} edges")
    return 0


def _base_graph(name: str) -> SimpleGraph:
    if name == "petersen":
        return petersen_graph()
    if name.startswith("cops:"):
        try:
            k = int(name.split(":", 1)[1])
        except ValueError:
            raise InvalidParameterError(f"--base cops:K needs an integer K, got {name!r}") from None
        return cops_robbers_graph(k)
    return formats.parse_graph(_read(name))


def cmd_gen_random_pair(args) -> int:
    base = _base_graph(args.base)
    d = base.regular_degree()
    params = ParamSet(
        Fraction(1), Fraction(1, 4), Fraction(1, 4), d, args.ell, args.m, args.r, 2**args.m
    )
    pair = random_inapprox_pair(
        params, base, random.Random(args.seed), k=args.k, good_override=args.good_override
    )
    _write_pair(args, pair.u1, pair.u2, {"seed": args.seed, **pair.to_json()})
    print(
        f"wrote {args.out_dir}: u1.gug u2.gug pair.json "
        f"({len(pair.good)} good of {len(base.edges)} edges, girth_ok={pair.girth_ok})"
    )
    return 0


# -- lift and solve ----------------------------------------------------------------


def cmd_lift(args) -> int:
    inst, kind = _load_instance(args.infile)
    if kind != "group":
        raise PreconditionError("lift applies to group instances (.gug)")
    lifted = label_lift(inst, max_vertices=args.max_vertices)
    # lifted vertices are (base, group-element) pairs; files need flat names
    name = {vg: f"{vg[0]}@{vg[1]:x}" for vg in lifted.vertices}
    flat = GroupUgInstance(
        lifted.m,
        [name[vg] for vg in lifted.vertices],
        [(name[a], name[b], diffs) for a, b, diffs in lifted.bundles],
    )
    formats.atomic_write_text(args.out, formats.write_gug(flat))
    print(f"wrote {args.out}: {len(lifted.vertices)} vertices, {lifted.constraint_count} bundles")
    return 0


def cmd_solve(args) -> int:
    inst, kind = _load_instance(args.infile)
    out: Dict = {"solver": args.mode, "input": os.path.basename(args.infile)}
    witness: Optional[Dict] = None
    if args.mode == "propagate":
        if kind != "perm":
            raise PreconditionError("propagate applies to permutation instances (.pug)")
        complete, witness = propagate_complete_sat(inst)
        out["complete"] = complete
        print(f"completely satisfiable: {complete}")
    elif kind == "csp":
        if args.mode != "brute":
            raise PreconditionError("weighted CSPs only support the brute solver")
        value, witness = csp_brute_opt(inst, budget=args.budget)
        out.update({
            "value": str(value),
            "vacuous": len(inst.applications) == 0,
        })
        print(f"optimum weight {value}")
    else:
        if args.mode == "brute":
            count, frac, witness = brute_force_opt(inst, budget=args.budget)
        else:
            if kind != "group":
                raise PreconditionError("the tree solver applies to group instances (.gug)")
            count, frac, witness = spanning_tree_opt(inst, budget=args.budget)
        total = inst.constraint_count
        out.update({
            "count": count,
            "total": total,
            "value": str(frac),
            "vacuous": total == 0,
        })
        print(f"optimum {count} of {total} ({frac})")
    if witness is not None:
        out["witness"] = _witness_json(witness)
        if args.witness_out:
            formats.atomic_write_text(args.witness_out, formats.write_assignment(witness, inst))
    if args.out:
        formats.atomic_write_json(args.out, _stamp(args, out))
    return 0


# -- game ---------------------------------------------------------------------------


def cmd_game(args) -> int:
    from .game import (
        LiftedStructure,
        RandomSpoiler,
        duplicator_cops,
        duplicator_identity,
        duplicator_k2,
        duplicator_tree,
        play_game,
    )

    sc, u1, u2 = _read_pair(args.pair)
    a = LiftedStructure(u1)
    b = LiftedStructure(u2)
    if args.duplicator == "identity":
        dup = duplicator_identity(u1.m)
    elif args.duplicator == "k2":
        dup = duplicator_k2(u1, u2)
    elif args.duplicator == "cops":
        dup = duplicator_cops(u1, u2, *klein_from_json(sc, u1, u2))
    else:
        dup = duplicator_tree(InapproxPair.from_json(sc, u1, u2))
    transcript = play_game(a, b, args.k, dup, RandomSpoiler(random.Random(args.seed)), max_rounds=args.rounds)
    out = _stamp(args, {
        "seed": args.seed,
        "duplicator": args.duplicator,
        "pair": os.path.basename(args.pair),
        **transcript,
    })
    if args.out:
        formats.atomic_write_json(args.out, out)
    winner = transcript["winner"] or "none"
    print(f"survived {transcript['survived']} of {args.rounds} rounds, winner: {winner}")
    return 0


# -- sdp ----------------------------------------------------------------------------


def cmd_sdp_maxcut(args) -> int:
    from .sdp import build_maxcut_sdp, gw_alpha, gw_symmetric_value, hyperplane_round, solve_sdp_lowrank, to_sdpa

    g = formats.parse_graph(_read(args.graph))
    inst = build_maxcut_sdp(g)
    sol = solve_sdp_lowrank(inst, tol=args.tol, restarts=args.restarts, rng=args.seed)
    out = {**sol.result_json(), "gw_alpha": gw_alpha(), "gw_symmetric": gw_symmetric_value(sol)}
    if args.round:
        mean, std = hyperplane_round(sol, rng=args.seed, trials=args.round)
        out["round_mean"] = mean
        out["round_std"] = std
        out["round_trials"] = args.round
    if args.sdpa:
        formats.atomic_write_text(args.sdpa, to_sdpa(inst))
    formats.atomic_write_json(args.out, _stamp(args, out))
    print(f"value {out['value']:.6f} residual {out['residual']:.2e} -> {args.out}")
    return 0


def cmd_sdp_lc(args) -> int:
    from .sdp import build_lc_relaxation, solve_sdp_lowrank, to_sdpa

    csp = formats.parse_csp(_read(args.csp))
    inst = build_lc_relaxation(csp)
    sol = solve_sdp_lowrank(inst, tol=args.tol, restarts=args.restarts, rng=args.seed)
    out = {**sol.result_json(), "scale": float(inst.meta["scale"])}
    if args.sdpa:
        formats.atomic_write_text(args.sdpa, to_sdpa(inst))
    formats.atomic_write_json(args.out, _stamp(args, out))
    print(f"value {out['value']:.6f} residual {out['residual']:.2e} -> {args.out}")
    return 0


def cmd_sdp_gap(args) -> int:
    from .sdp import gap_curve_estimate

    grid = None
    if args.grid:
        try:
            grid = [float(tok) for tok in args.grid.split(",")]
        except ValueError:
            raise InvalidParameterError(f"--grid takes comma-separated numbers, got {args.grid!r}") from None
    paths = sorted(
        os.path.join(args.family, name)
        for name in os.listdir(args.family)
        if name.endswith(".csp")
    )
    if not paths:
        raise PreconditionError(f"no .csp files in {args.family!r}")
    family = [formats.parse_csp(_read(p)) for p in paths]
    try:
        eta = float(args.eta)
    except OverflowError:  # a rational beyond the float range; gap_curve_estimate rejects it
        eta = math.inf if args.eta > 0 else -math.inf
    table = gap_curve_estimate(
        family,
        eta=eta,
        grid=grid,
        tol=args.tol,
        restarts=args.restarts,
        rng=args.seed,
    )
    out = _stamp(args, {
        "kind": "gap",
        "eta": eta,
        "seed": args.seed,
        "files": [os.path.basename(p) for p in paths],
        "points": [[s, o] for s, o in table.points],
        # -inf (no entry below c) is not valid JSON, reported as null
        "samples": [[c, None if val == -math.inf else val] for c, val in table.samples],
    })
    formats.atomic_write_json(args.out, out)
    print(f"{len(table.points)} points -> {args.out}")
    return 0


# -- params and report ----------------------------------------------------------------


def cmd_params(args) -> int:
    p = compute_params(args.alpha, args.gamma, args.epsilon)
    print(f"d={p.d} ell={p.ell} m={p.m} r={p.r} q={p.q}")
    if args.out:
        formats.atomic_write_json(args.out, _stamp(args, p.to_dict()))
    return 0


def cmd_report(args) -> int:
    if not os.path.isdir(args.dir):
        raise InvalidParameterError(f"--dir {args.dir!r} is not a directory")
    runs: Dict[str, object] = {}
    out_abs = os.path.abspath(args.out)
    for root, _, names in os.walk(args.dir):
        for name in sorted(names):
            path = os.path.join(root, name)
            if not name.endswith(".json") or os.path.abspath(path) == out_abs:
                continue
            rel = os.path.relpath(path, args.dir)
            try:
                runs[rel] = _read_json(path)
            except (OSError, InvalidParameterError) as exc:
                runs[rel] = {"unreadable": str(exc)}
    report = _stamp(args, {"directory": os.path.abspath(args.dir), "count": len(runs), "runs": runs})
    formats.atomic_write_json(args.out, report)
    print(f"aggregated {len(runs)} files -> {args.out}")
    return 0


# -- parser ------------------------------------------------------------------------------


def _add_no_timestamp(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-timestamp", action="store_true", help="omit timestamps for byte-stable output")


def _add_sdp_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_no_timestamp(p)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="uglab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate instances and graphs")
    gsub = gen.add_subparsers(dest="what", required=True)

    g_unsat = gsub.add_parser("unsat", help="complete-graph family member for a target gap")
    g_unsat.add_argument("--delta", type=_rational, required=True)
    g_unsat.add_argument("--out", required=True)
    g_unsat.set_defaults(func=cmd_gen_unsat)

    g_klein = gsub.add_parser("klein", help="two-instance pair from an edge 3-coloring")
    g_klein.add_argument("--cops", type=int, default=None, help="use this cops graph instead of K_4")
    g_klein.add_argument("--out-dir", required=True)
    _add_no_timestamp(g_klein)
    g_klein.set_defaults(func=cmd_gen_klein)

    g_cops = gsub.add_parser("cops-graph", help="cycles-plus-bridges cubic graph")
    g_cops.add_argument("--k", type=int, required=True)
    g_cops.add_argument("--out", required=True)
    g_cops.set_defaults(func=cmd_gen_cops_graph)

    g_pair = gsub.add_parser("random-pair", help="random subspace-bundle pair over a regular base")
    g_pair.add_argument("--base", default="petersen", help="petersen, cops:K, or a .graph path")
    g_pair.add_argument("--ell", type=int, default=2)
    g_pair.add_argument("--m", type=int, default=3)
    g_pair.add_argument("--r", type=int, default=3)
    g_pair.add_argument("--k", type=int, default=2, help="pebble count for the girth check")
    g_pair.add_argument(
        "--good-override", action="store_true", help="allow girth <= r; edges are still filtered by rank"
    )
    g_pair.add_argument("--seed", type=int, default=0)
    g_pair.add_argument("--out-dir", required=True)
    _add_no_timestamp(g_pair)
    g_pair.set_defaults(func=cmd_gen_random_pair)

    lift = sub.add_parser("lift", help="materialize the label lift of a group instance")
    lift.add_argument("--in", dest="infile", required=True)
    lift.add_argument("--out", required=True)
    lift.add_argument("--max-vertices", type=int, default=DEFAULT_LIFT_VERTEX_CAP)
    lift.set_defaults(func=cmd_lift)

    solve = sub.add_parser("solve", help="exact solvers")
    solve.add_argument("mode", choices=["brute", "propagate", "tree"])
    solve.add_argument("--in", dest="infile", required=True)
    solve.add_argument("--out", default=None, help="result JSON path")
    solve.add_argument("--witness-out", default=None, help="assignment text path")
    solve.add_argument("--budget", type=int, default=None)
    _add_no_timestamp(solve)
    solve.set_defaults(func=cmd_solve)

    game = sub.add_parser("game", help="play the bijective pebble game from a pair sidecar")
    game.add_argument("--pair", required=True, help="pair.json written by gen")
    game.add_argument("--duplicator", choices=["identity", "k2", "cops", "tree"], required=True)
    game.add_argument("--k", type=int, default=2)
    game.add_argument("--rounds", type=int, default=50)
    game.add_argument("--seed", type=int, default=0)
    game.add_argument("--out", default=None, help="transcript JSON path")
    _add_no_timestamp(game)
    game.set_defaults(func=cmd_game)

    sdp = sub.add_parser("sdp", help="relaxations and rounding")
    ssub = sdp.add_subparsers(dest="what", required=True)

    s_mc = ssub.add_parser("maxcut", help="cut relaxation of a .graph file")
    s_mc.add_argument("--graph", required=True)
    s_mc.add_argument("--out", required=True)
    s_mc.add_argument("--sdpa", default=None, help="also export SDPA sparse text")
    s_mc.add_argument("--round", type=int, default=0, help="hyperplane-rounding trials")
    _add_sdp_common(s_mc)
    s_mc.set_defaults(func=cmd_sdp_maxcut)

    s_lc = ssub.add_parser("lc", help="label-distribution relaxation of a .csp file")
    s_lc.add_argument("--csp", required=True)
    s_lc.add_argument("--out", required=True)
    s_lc.add_argument("--sdpa", default=None)
    _add_sdp_common(s_lc)
    s_lc.set_defaults(func=cmd_sdp_lc)

    s_gap = ssub.add_parser("gap", help="relaxation-vs-optimum table over a directory of .csp files")
    s_gap.add_argument("--family", required=True)
    s_gap.add_argument("--eta", type=_rational, required=True)
    s_gap.add_argument("--grid", default=None, help="comma-separated lookup points")
    s_gap.add_argument("--out", required=True)
    _add_sdp_common(s_gap)
    s_gap.set_defaults(func=cmd_sdp_gap)

    params = sub.add_parser("params", help="smallest admissible parameter set")
    params.add_argument("--alpha", type=_rational, required=True)
    params.add_argument("--gamma", type=_rational, default=Fraction(1, 4))
    params.add_argument("--epsilon", type=_rational, default=Fraction(1, 4))
    params.add_argument("--out", default=None, help="also write the set as JSON")
    _add_no_timestamp(params)
    params.set_defaults(func=cmd_params)

    report = sub.add_parser("report", help="aggregate a run directory of JSON outputs")
    report.add_argument("--dir", required=True)
    report.add_argument("--out", required=True)
    _add_no_timestamp(report)
    report.set_defaults(func=cmd_report)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except StrategyViolationError as exc:
        print(f"strategy violation: {exc}", file=sys.stderr)
        return 3
    except (UglabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
