"""Traced mode: spans around the calls into each uglab module, taken from outside.

``install`` wraps the public functions of every module (its ``__all__``; for
``cli`` the names without a leading underscore) and the public methods of its
public classes. A wrapped function is rebound under every name that refers to
it in the program's modules and in the benchmark's, so calls between modules
(``from .gf2 import span_of``) are seen as well. Each call records a span
(name, start, end, parent span, op id) in memory; spans are written out once,
when the run ends. Nothing under ``src/`` changes.

``METRICS`` derives the per-layer figures from the spans of the workload each
one is expected to move (``home``).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import statistics
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("gf2", "graphs", "instances", "constructions", "game", "sdp", "formats", "cli")

# Public names called once per element, edge, pebble or matrix entry inside
# the layers above. Each call costs less than the wrapper around it, so a span
# would time the tracer rather than the program.
SKIP = frozenset({
    "gf2.Gf2Vector.is_zero", "gf2.Gf2Vector.to_hex", "gf2.Gf2Vector.from_hex",
    "gf2.Gf2Vector.zero", "gf2.Gf2Vector.unit", "gf2.Gf2Subspace.reduce",
    "graphs.vertex_sort_key", "graphs.normalize_edge", "graphs.SimpleGraph.neighbors",
    "graphs.SimpleGraph.has_edge", "graphs.SimpleGraph.has_vertex", "graphs.SimpleGraph.degree",
    "instances.GroupUgInstance.diffs_on", "instances.lifted_allowed_diffs",
    "constructions.klein_vec",
    "game.LiftedStructure.allowed_diffs", "game.LiftedStructure.has_element",
    "game.LiftedStructure.universe_size", "game.GStarMap.shift", "game.GStarMap.apply",
    "sdp.SymMatrix.add", "sdp.SymMatrix.get", "sdp.SymMatrix.max_index", "sdp.SdpInstance.block_range",
})


class Tracer:
    """Spans kept in flat arrays; ``notes`` holds one number or tag per span
    for the names that ``NOTES`` annotates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.notes: Dict[int, object] = {}
        self.op_id = -1  # -1 while inputs are generated
        self.recording = True
        self._stack: List[int] = []

    @contextlib.contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not spans."""
        before, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = before

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if note is not None:
                self.notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "columns": ["name", "start", "end", "parent", "op"],
                "spans": [
                    [self.name_id[i], round(self.start[i], 7), round(self.end[i], 7), self.parent[i], self.op[i]]
                    for i in range(len(self.start))
                ],
                "notes": {str(i): v for i, v in self.notes.items()},
            }, fh)


def _search_space(args, kwargs, result) -> int:
    """Assignments brute_force_opt enumerates: q^(|V|-1) with the root fixed
    (connected group instances), q^|V| for permutation instances."""
    inst = args[0]
    q = inst.q
    return q ** (len(inst.vertices) - 1) if hasattr(inst, "bundles") else q ** len(inst.vertices)


NOTES: Dict[str, Callable] = {
    "instances.brute_force_opt": _search_space,
    "sdp.solve_sdp_lowrank": lambda a, k, r: a[0].meta.get("kind", ""),
    "sdp.build_lc_relaxation": lambda a, k, r: len(r.constraints),
}


def _public_names(mod) -> List[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n, v in vars(mod).items() if not n.startswith("_") and getattr(v, "__module__", None) == mod.__name__]
    return list(names)


def install(tracer: Tracer, bench_modules) -> List[Tuple[object, str, object]]:
    """Wrap the program's public callables; returns what ``uninstall`` restores."""
    import importlib

    undo: List[Tuple[object, str, object]] = []
    wrapped: Dict[int, Tuple[object, Callable]] = {}
    program = [importlib.import_module(f"uglab.{layer}") for layer in LAYERS]
    for mod in program:
        layer = mod.__name__.split(".")[1]
        for name in _public_names(mod):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj):
                for attr, raw in list(vars(obj).items()):
                    full = f"{layer}.{obj.__name__}.{attr}"
                    if attr.startswith("_") or full in SKIP:
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(tracer.wrap(full, raw.__func__))
                    elif inspect.isfunction(raw):
                        new = tracer.wrap(full, raw)
                    else:
                        continue
                    setattr(obj, attr, new)
                    undo.append((obj, attr, raw))
            elif callable(obj):
                full = f"{layer}.{name}"
                if full in SKIP or inspect.isgeneratorfunction(obj):
                    continue
                wrapped[id(obj)] = (obj, tracer.wrap(full, obj))
    for mod in [m for m in list(sys.modules.values()) if m is not None]:
        if not (mod.__name__.startswith("uglab") or mod in bench_modules):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrapped.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))
    return undo


def uninstall(undo) -> None:
    for obj, attr, old in reversed(undo):
        setattr(obj, attr, old)


# -- derived figures ------------------------------------------------------------


class Spans:
    """Read-side view: durations, outermost spans per name, self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.t = tracer
        n = len(tracer.start)
        self.dur = [tracer.end[i] - tracer.start[i] for i in range(n)]
        self.by_name: Dict[str, List[int]] = {}
        for i in range(n):
            self.by_name.setdefault(tracer.names[tracer.name_id[i]], []).append(i)
        self.child_time = [0.0] * n
        for i in range(n):
            p = tracer.parent[i]
            if p >= 0:
                self.child_time[p] += self.dur[i]

    def _ancestor_named(self, i: int, nid: int) -> bool:
        p = self.t.parent[i]
        while p >= 0:
            if self.t.name_id[p] == nid:
                return True
            p = self.t.parent[p]
        return False

    def spans(self, name: str, where: Optional[Callable[[int], bool]] = None) -> List[int]:
        out = self.by_name.get(name, [])
        return [i for i in out if where is None or where(i)]

    def calls(self, name: str, where=None) -> int:
        return len(self.spans(name, where))

    def total_ms(self, name: str, where=None) -> float:
        """Inclusive time of the outermost calls of ``name``."""
        nid = self.t._ids.get(name)
        return 1e3 * sum(self.dur[i] for i in self.spans(name, where) if not self._ancestor_named(i, nid))

    def mean_ms(self, name: str, where=None) -> float:
        got = [self.dur[i] for i in self.spans(name, where)]
        return 1e3 * sum(got) / len(got) if got else 0.0

    def median_ms(self, name: str, where=None) -> float:
        got = [self.dur[i] for i in self.spans(name, where)]
        return 1e3 * statistics.median(got) if got else 0.0

    def under(self, ancestor: str) -> Callable[[int], bool]:
        nid = self.t._ids.get(ancestor, -2)
        return lambda i: self._ancestor_named(i, nid)

    def note_is(self, value) -> Callable[[int], bool]:
        return lambda i: self.t.notes.get(i) == value

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Calls, inclusive and self milliseconds per span name."""
        out = {}
        for name, idx in sorted(self.by_name.items()):
            out[name] = {
                "calls": len(idx),
                "total_ms": round(self.total_ms(name), 3),
                "self_ms": round(1e3 * sum(self.dur[i] - self.child_time[i] for i in idx), 3),
            }
        return out


def _brute(span: Spans, large: bool) -> Callable[[int], bool]:
    return lambda i: (span.t.notes.get(i, 0) >= 50_000) == large


def _space_per_s(s: Spans) -> float:
    idx = s.spans("instances.brute_force_opt")
    seconds = sum(s.dur[i] for i in idx)
    return sum(s.t.notes[i] for i in idx) / seconds if seconds else 0.0


def _bijections_in_search(s: Spans) -> int:
    under = s.under("game.find_winning_line")
    return sum(s.calls(name, under) for name in s.by_name if name.endswith(".bijection"))


def _parse_ms(s: Spans) -> float:
    return sum(s.total_ms(n) for n in s.by_name if n.startswith("formats.parse_"))


def _write_ms(s: Spans) -> float:
    return sum(s.total_ms(n) for n in s.by_name if n.startswith(("formats.write_", "formats.atomic_write_")))


# (name, unit, better, home workload, value from the home workload's spans).
# Figures marked "extra" are measured by the worker itself, not from spans.
METRICS: List[Tuple[str, str, str, str, Optional[Callable[[Spans], float]]]] = [
    ("gf2.span_calls", "count", "lower", "game", lambda s: s.calls("gf2.span_of")),
    ("gf2.span_ms", "ms", "lower", "game", lambda s: s.total_ms("gf2.span_of")),
    ("gf2.coeff_ms", "ms", "lower", "game", lambda s: s.total_ms("gf2.coefficients_in_basis")),
    ("graphs.girth_ms", "ms", "lower", "game", lambda s: s.total_ms("graphs.girth")),
    ("graphs.bfs_calls", "count", "lower", "game", lambda s: s.calls("graphs.SimpleGraph.bfs_distances")),
    ("instances.brute_small_ms", "ms", "lower", "exact", lambda s: s.median_ms("instances.brute_force_opt", _brute(s, False))),
    ("instances.brute_large_ms", "ms", "lower", "exact", lambda s: s.median_ms("instances.brute_force_opt", _brute(s, True))),
    ("instances.brute_space_per_s", "1/s", "higher", "exact", _space_per_s),
    ("instances.tree_ms", "ms", "lower", "exact", lambda s: s.total_ms("instances.spanning_tree_opt")),
    ("instances.evaluate_calls", "count", "lower", "exact", lambda s: s.calls("instances.evaluate")),
    ("instances.lifted_ms", "ms", "lower", "exact", lambda s: s.total_ms("instances.lifted_opt")),
    ("instances.csp_brute_ms", "ms", "lower", "sdp", lambda s: s.total_ms("instances.csp_brute_opt")),
    ("constructions.pair_ms", "ms", "lower", "game", lambda s: s.total_ms("constructions.random_inapprox_pair")),
    ("constructions.good_edges_ms", "ms", "lower", "game", lambda s: s.total_ms("constructions.good_edges")),
    ("constructions.robber_move_ms", "ms", "lower", "game", lambda s: s.total_ms("constructions.robber_move")),
    ("game.tree_round_ms", "ms", "lower", "game", lambda s: s.mean_ms("game.TreeDuplicator.bijection")),
    ("game.steiner_calls", "count", "lower", "game", lambda s: s.calls("game.steiner_tree")),
    ("game.steiner_ms", "ms", "lower", "game", lambda s: s.total_ms("game.steiner_tree")),
    ("game.cops_round_ms", "ms", "lower", "game", lambda s: s.median_ms("game.CopsDuplicator.bijection")),
    ("game.check_ms", "ms", "lower", "game", lambda s: s.total_ms("game.check_partial_isomorphism")),
    ("game.search_ms", "ms", "lower", "game", lambda s: s.total_ms("game.find_winning_line")),
    ("game.search_bijections", "count", "lower", "game", _bijections_in_search),
    ("sdp.maxcut_solve_ms", "ms", "lower", "sdp", lambda s: s.total_ms("sdp.solve_sdp_lowrank", s.note_is("maxcut"))),
    ("sdp.lc_build_ms", "ms", "lower", "sdp", lambda s: s.total_ms("sdp.build_lc_relaxation")),
    ("sdp.lc_solve_ms", "ms", "lower", "sdp", lambda s: s.total_ms("sdp.solve_sdp_lowrank", s.note_is("lc"))),
    ("sdp.gap_ms", "ms", "lower", "sdp", lambda s: s.total_ms("sdp.gap_curve_estimate")),
    ("sdp.round_ms", "ms", "lower", "sdp", lambda s: s.median_ms("sdp.hyperplane_round")),
    ("sdp.lc_constraints", "count", "lower", "sdp", lambda s: sum(s.t.notes[i] for i in s.spans("sdp.build_lc_relaxation"))),
    ("sdp.lc_alloc_peak_mb", "MB", "lower", "sdp", None),
    ("formats.parse_ms", "ms", "lower", "cli", _parse_ms),
    ("formats.write_ms", "ms", "lower", "cli", _write_ms),
    ("cli.command_ms", "ms", "lower", "cli", lambda s: s.median_ms("cli.main")),
    ("cli.import_ms", "ms", "lower", "cli", None),
    ("cli.interp_ms", "ms", "lower", "cli", None),
    ("trace.overhead_pct", "%", "lower", "all", None),
]

UNITS = {name: unit for name, unit, _, _, _ in METRICS}


def derive(tracer: Tracer, workload: str) -> Dict[str, float]:
    """Per-layer figures whose home is ``workload``."""
    s = Spans(tracer)
    return {name: float(fn(s)) for name, _, _, home, fn in METRICS if home == workload and fn is not None}
