"""Instance data model, exact evaluation, label lift, and exact solvers.

Three instance kinds: group instances over F_2^m (per-edge bundles of
allowed differences, x_u + x_v = z), permutation unique games (a(u) =
pi(a(v))), and weighted CSPs with exact rational weights. Satisfiability
fractions are fractions.Fraction throughout; no floats on this path.

Every exact optimum but the spanning-tree oracle's comes from one engine,
bucket elimination over integer tables of any scope: brute force hands it
both unique-games kinds and weighted CSPs whole, and `lifted_opt` tables
over label-count profiles. Its one budget bounds the total entries of its
tables, sized from their scopes before any is built. It returns the
lex-least optimum and scores in the narrowest exact integer type (int8 for
unique games below 128 tables). The spanning-tree oracle works on int
labels and reads ``GroupUgInstance.diff_bits``; ``Gf2Vector`` labels appear
only in the witnesses returned. numpy is imported inside the solvers that
use it, so commands that never call them start without it.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    IncompleteAssignmentError,
    InvalidParameterError,
    PreconditionError,
    SearchBudgetError,
)
from .gf2 import Gf2Vector
from .graphs import SimpleGraph, normalize_edge, vertex_sort_key

DEFAULT_BRUTE_BUDGET = 8_000_000  # total entries of the elimination tables, sized before any table is built
ELIMINATION_CEILING = 2**27  # the same total under any budget: 1 GiB at 8 bytes an entry
DEFAULT_TREE_BUDGET = 1_000_000  # (tree, diff-choice) evaluations performed
DEFAULT_LIFT_VERTEX_CAP = 4096
LIFT_BUNDLE_BUDGET = 2**17  # bundles of a label lift, |E| q^2: K4 fits at m = 7 (98304), not at m = 8


class GroupUgInstance:
    """Graph plus one bundle of allowed GF(2)^m differences per edge.

    Bundles given on the same unordered pair are merged by union, so each
    (u, v, z) triple counts once; an assignment satisfies at most one
    constraint per bundle because x_u + x_v pins the difference.
    """

    def __init__(self, m: int, vertices: Iterable, bundles: Iterable[Tuple]) -> None:
        if not 1 <= m <= 64:
            raise InvalidParameterError(f"m must be in 1..64, got {m}")
        self.m = m
        merged: Dict[Tuple, set] = {}
        for u, v, diffs in bundles:
            e = normalize_edge(u, v)
            acc = merged.setdefault(e, set())
            for z in diffs:
                if not isinstance(z, Gf2Vector) or z.dim != m:
                    raise InvalidParameterError(f"bundle diff {z!r} not in F_2^{m}")
                acc.add(z)
        for e, acc in merged.items():
            if not acc:
                raise InvalidParameterError(f"empty bundle on {e!r}")
        vs = set(vertices)
        for u, v in merged:
            vs.add(u)
            vs.add(v)
        self._graph = SimpleGraph(vs, merged)
        self.vertices: Tuple = self._graph.vertices
        self.bundles: Tuple[Tuple, ...] = tuple((u, v, tuple(sorted(merged[u, v]))) for u, v in self._graph.edges)

    @property
    def q(self) -> int:
        return 1 << self.m

    @property
    def constraint_count(self) -> int:
        return sum(len(d) for _, _, d in self.bundles)

    @cached_property
    def diff_bits(self) -> Dict:
        """Per vertex u, per neighbour w in bundle order, the differences on (u, w)
        as a frozenset of int bits; built on first use, by the game layer or
        the spanning-tree oracle."""
        table: Dict = {v: {} for v in self.vertices}
        sets: Dict = {}  # equal bundles share one frozenset
        for u, w, diffs in self.bundles:
            table[u][w] = table[w][u] = sets.setdefault(diffs, frozenset(z.bits for z in diffs))
        return table

    def graph(self) -> SimpleGraph:
        """The base graph, built once; callers share it and must not change it."""
        return self._graph

    def __repr__(self) -> str:
        return (
            f"GroupUgInstance(m={self.m}, |V|={len(self.vertices)}, "
            f"bundles={len(self.bundles)}, constraints={self.constraint_count})"
        )


class PermUgInstance:
    """Unique games with permutation constraints a(u) = perm(a(v))."""

    def __init__(self, q: int, vertices: Iterable, constraints: Iterable[Tuple]) -> None:
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        self.q = q
        cons = []
        vs = set(vertices)
        for u, v, perm in constraints:
            if u == v:
                raise InvalidParameterError(f"self-loop constraint at {u!r}")
            perm = tuple(perm)
            if len(perm) != q or sorted(perm) != list(range(q)):  # a length check first: q may be huge
                raise InvalidParameterError(f"{perm!r} is not a permutation of 0..{q-1}")
            cons.append((u, v, perm))
            vs.add(u)
            vs.add(v)
        self._graph = SimpleGraph(vs, {normalize_edge(u, v) for u, v, _ in cons})
        self.vertices: Tuple = self._graph.vertices
        self.constraints: Tuple[Tuple, ...] = tuple(cons)

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def graph(self) -> SimpleGraph:
        """The constraint graph, built once; callers share it and must not change it."""
        return self._graph

    def __repr__(self) -> str:
        return f"PermUgInstance(q={self.q}, |V|={len(self.vertices)}, constraints={len(self.constraints)})"


class CspType:
    def __init__(self, arity: int, satisfying: Iterable[Tuple[int, ...]], q: int) -> None:
        if arity < 1:
            raise InvalidParameterError("arity must be >= 1")
        self.arity = arity
        sat = set()
        for t in satisfying:
            t = tuple(t)
            if len(t) != arity:
                raise InvalidParameterError(f"tuple {t!r} does not match arity {arity}")
            if any(not 0 <= x < q for x in t):
                raise InvalidParameterError(f"tuple {t!r} has entries outside 0..{q-1}")
            sat.add(t)
        self.satisfying = frozenset(sat)

    def __repr__(self) -> str:
        return f"CspType(arity={self.arity}, |sat|={len(self.satisfying)})"


class WeightedCspInstance:
    """Weighted CSP; weights are exact rationals and may be negative."""

    def __init__(
        self,
        q: int,
        variables: Iterable,
        constraint_types: Dict[str, CspType],
        applications: Iterable[Tuple],
    ) -> None:
        if q < 1:
            raise InvalidParameterError(f"q must be >= 1, got {q}")
        self.q = q
        self.constraint_types = dict(constraint_types)
        apps = []
        vs = set(variables)
        for tname, var_tuple, w in applications:
            if tname not in self.constraint_types:
                raise InvalidParameterError(f"unknown constraint type {tname!r}")
            ct = self.constraint_types[tname]
            var_tuple = tuple(var_tuple)
            if len(var_tuple) != ct.arity:
                raise InvalidParameterError(
                    f"application of {tname!r} has {len(var_tuple)} vars, arity is {ct.arity}"
                )
            apps.append((tname, var_tuple, Fraction(w)))
            vs.update(var_tuple)
        self.variables: Tuple = tuple(sorted(vs, key=vertex_sort_key))
        self.applications: Tuple[Tuple, ...] = tuple(apps)

    def abs_weight(self) -> Fraction:
        return sum((abs(w) for _, _, w in self.applications), Fraction(0))

    def __repr__(self) -> str:
        return (
            f"WeightedCspInstance(q={self.q}, |V|={len(self.variables)}, "
            f"applications={len(self.applications)})"
        )


# -- evaluation ------------------------------------------------------------


def _fraction(count: int, total: int) -> Fraction:
    """Satisfied share of the constraints; a vacuous instance scores 1."""
    return Fraction(count, total) if total else Fraction(1)


def evaluate(instance, assignment: Dict) -> Tuple[int, Fraction]:
    """Satisfied-constraint count and exact fraction under a total assignment."""
    if not isinstance(instance, (GroupUgInstance, PermUgInstance)):
        raise InvalidParameterError(f"cannot evaluate {type(instance).__name__}")
    for v in instance.vertices:
        if v not in assignment:
            raise IncompleteAssignmentError(f"assignment misses vertex {v!r}")
    if isinstance(instance, GroupUgInstance):
        count = sum(assignment[u] + assignment[v] in diffs for u, v, diffs in instance.bundles)
    else:
        count = sum(assignment[u] == perm[assignment[v]] for u, v, perm in instance.constraints)
    return count, _fraction(count, instance.constraint_count)


def csp_value(instance: WeightedCspInstance, assignment: Dict) -> Fraction:
    total = Fraction(0)
    for tname, var_tuple, w in instance.applications:
        ct = instance.constraint_types[tname]
        try:
            values = tuple(assignment[x] for x in var_tuple)
        except KeyError as exc:
            raise IncompleteAssignmentError(f"assignment misses variable {exc.args[0]!r}") from exc
        if values in ct.satisfying:
            total += w
    return total


# -- brute force -----------------------------------------------------------


def _eliminate(radices: Sequence[int], scopes: Sequence[Tuple], build: Callable, budget: int) -> Tuple[int, Tuple]:
    """Maximum total score over a mixed-radix space, with the lex-least argmax,
    by bucket elimination (Dechter 1999).

    Variable i takes the values 0..radices[i]-1; lex order reads the first
    variable as the most significant digit. build() returns one integer or
    bool array per scope, of shape (radices[i] for i in scope), and an
    assignment scores the sum of their entries; a scope may be in any order
    and repeat a variable. Radix-1 variables leave every scope. The last
    variable goes first: the tables and messages whose last variable it is
    sum into one combined table over their scopes' union, whose maximum over
    that variable is a message to the next-last one, and whose first argmax
    over it is kept. The combined tables are sized from the scopes alone, and
    their total entries, which also bound the kept argmaxes, are checked
    against `budget` and `ELIMINATION_CEILING` before build() is called.
    Scores are exact in the narrowest of int8..int64 that holds B, the sum of
    each table's largest |entry| (1 for a bool table), which bounds every
    message. Decoding goes from the first variable up: with the labels before
    it fixed, its kept argmax is the first label with the best completion, so
    the optimum is kept and the witness is lex-least.
    """
    import numpy as np

    k = len(radices)
    kept = [[i for i in sorted(set(scope)) if radices[i] > 1] for scope in scopes]
    held = [{i} for i in range(k)]  # per variable, the scope of its combined table
    for axes in filter(None, kept):
        held[axes[-1]].update(axes)
    total = 0
    for i in reversed(range(k)):
        total += math.prod(radices[j] for j in held[i])
        held[max(held[i] - {i}, default=i)].update(held[i] - {i})
    for limit, name in ((budget, "budget"), (ELIMINATION_CEILING, "ceiling")):
        if total > limit:
            raise SearchBudgetError(f"elimination tables of {total} entries in all exceed the {name} {limit}")
    tables = build()
    dtype = np.min_scalar_type(-1 - sum(1 if t.dtype == bool else int(np.abs(t).max()) for t in tables))
    buckets = [[] for _ in range(k + 1)]  # per variable, (axes, array) whose last axis it is; constants last
    for scope, table, axes in zip(scopes, tables, kept):
        full = sorted(set(scope))
        if list(scope) != full:
            table = np.einsum(table, [full.index(i) for i in scope], range(len(full)))
        buckets[axes[-1] if axes else k].append((axes, table.reshape([radices[i] for i in axes]).astype(dtype)))
    argmax = [None] * k  # per variable, the axes before it in its combined table and its first argmax there
    for i in reversed(range(k)):
        axes = sorted(held[i])
        combined = np.zeros([radices[j] for j in axes], dtype)
        for scope, table in buckets[i]:
            combined += table.reshape([radices[j] if j in scope else 1 for j in axes])
        buckets[axes[-2] if len(axes) > 1 else k].append((axes[:-1], combined.max(axis=-1)))
        argmax[i] = axes[:-1], combined.argmax(axis=-1)
    values: List[int] = []
    for before, arg in argmax:
        values.append(int(arg[tuple(values[j] for j in before)]))
    return sum(int(table) for _, table in buckets[k]), tuple(values)


def brute_force_opt(instance, budget: Optional[int] = None) -> Tuple[int, Fraction, Dict]:
    """Exact maximum satisfied count, with lex-least witness.

    One `_eliminate` call over the whole instance, on one bool table per
    bundle, T[a, b] = mask[a ^ b] (the masks are rows of one array, set in
    one scatter; each a ^ b index array is built once per radix pair), or per
    constraint a(u) = perm(a(v)), T[a, b] = (a == perm[b]). The first vertex
    of each group component, also its lex-first, is fixed to zero, radix 1,
    as a global shift keeps every count and the witness lex-least.
    """
    import numpy as np

    if budget is None:
        budget = DEFAULT_BRUTE_BUDGET
    vs = instance.vertices
    pos = {v: i for i, v in enumerate(vs)}
    radices = [instance.q] * len(vs)
    if isinstance(instance, GroupUgInstance):
        for comp in instance.graph().components():
            radices[pos[comp[0]]] = 1
        cons, label = instance.bundles, partial(Gf2Vector, dim=instance.m)

        def build():
            rows = np.repeat(np.arange(len(cons)), [len(d) for _, _, d in cons])
            masks = np.zeros((len(cons), max(radices, default=1)), dtype=bool)
            masks[rows, [z.bits for _, _, d in cons for z in d]] = True
            pairs = [(radices[a], radices[b]) for a, b in scopes]
            xors = {pair: np.arange(pair[0])[:, None] ^ np.arange(pair[1]) for pair in set(pairs)}
            return [mask[xors[pair]] for mask, pair in zip(masks, pairs)]

    elif isinstance(instance, PermUgInstance):
        cons, label = instance.constraints, int

        def build():
            labels = np.arange(instance.q)[:, None]
            return [labels == np.array(perm) for _, _, perm in cons]

    else:
        raise InvalidParameterError(f"cannot brute-force {type(instance).__name__}")
    scopes = [(pos[u], pos[v]) for u, v, _ in cons]
    count, values = _eliminate(radices, scopes, build, budget)
    return count, _fraction(count, instance.constraint_count), dict(zip(vs, map(label, values)))


def csp_brute_opt(instance: WeightedCspInstance, budget: Optional[int] = None) -> Tuple[Fraction, Dict]:
    """Exact maximum weight, with lex-least witness.

    Weights are scaled by the LCM L of their denominators, so each
    application becomes an integer table, over its scope's distinct
    variables, of its satisfying tuples that give a repeated variable one
    value, times w*L, for `_eliminate`, which scores in the narrowest integer
    type that holds the scaled absolute weight; the optimum comes back
    exactly as Fraction(best, L). Raises SearchBudgetError, before any table
    is built, when the scaled absolute weights do not sum below 2^63 or the
    elimination tables pass the budget.
    """
    import numpy as np

    if budget is None:
        budget = DEFAULT_BRUTE_BUDGET
    vs = instance.variables
    scale = math.lcm(*(w.denominator for _, _, w in instance.applications))
    scaled = [int(w * scale) for _, _, w in instance.applications]
    if sum(map(abs, scaled)) >= 1 << 63:
        raise SearchBudgetError(f"weights scaled by {scale} to integers overflow int64")
    pos = {v: i for i, v in enumerate(vs)}
    scopes = [tuple(dict.fromkeys([pos[x] for x in var_tuple])) for _, var_tuple, _ in instance.applications]

    def build():
        masks: Dict[Tuple, "np.ndarray"] = {}  # per type and repeat pattern in use, its 0/1 table
        tables = []
        for (tname, var_tuple, _), scope, value in zip(instance.applications, scopes, scaled):
            ct = instance.constraint_types[tname]
            # where each position's variable first occurs, when a variable repeats
            first = tuple(map(var_tuple.index, var_tuple)) if len(scope) < ct.arity else None
            mask = masks.get((tname, first))
            if mask is None:
                sat = np.array(list(ct.satisfying), dtype=np.intp).reshape(-1, ct.arity)
                if first:  # the tuples that give a repeated variable one value
                    sat = sat[(sat == sat[:, first]).all(axis=1)][:, sorted(set(first))]
                mask = masks[tname, first] = np.zeros((instance.q,) * len(scope), dtype=np.int64)
                mask[tuple(sat.T)] = 1
            tables.append(mask * value)
        return tables

    best, values = _eliminate([instance.q] * len(vs), scopes, build, budget)
    return Fraction(best, scale), dict(zip(vs, values))


# -- propagation for permutation instances ---------------------------------


def propagate_complete_sat(instance: PermUgInstance) -> Tuple[bool, Optional[Dict]]:
    """Complete-satisfiability test: per component, try each root label and
    propagate forced labels along constraints, then check every constraint."""
    adj: Dict = {v: [] for v in instance.vertices}
    for u, v, perm in instance.constraints:
        inv = [0] * instance.q
        for j, i in enumerate(perm):
            inv[i] = j
        adj[u].append((v, tuple(inv)))  # a(v) = perm^{-1}(a(u))
        adj[v].append((u, perm))  # a(u) = perm(a(v))
    witness: Dict = {}
    for comp in instance.graph().components():
        root = comp[0]
        found = None
        for label in range(instance.q):
            a = {root: label}
            queue = deque([root])
            ok = True
            while queue and ok:
                x = queue.popleft()
                for y, f in adj[x]:
                    forced = f[a[x]]
                    if y not in a:
                        a[y] = forced
                        queue.append(y)
                    elif a[y] != forced:
                        ok = False
                        break
            if ok:
                found = a
                break
        if found is None:
            return False, None
        witness.update(found)
    count, _ = evaluate(instance, witness)
    if count != instance.constraint_count:
        return False, None
    return True, witness


# -- label lift --------------------------------------------------------------


def label_lift(instance: GroupUgInstance, max_vertices: int = DEFAULT_LIFT_VERTEX_CAP) -> GroupUgInstance:
    """Materialized lift: vertices (v, g bits); constraint x_{v1}^{g1} +
    x_{v2}^{g2} = z + g1 + g2 for every base constraint and every g1, g2."""
    q = instance.q
    n_lifted = len(instance.vertices) * q
    if n_lifted > max_vertices:
        raise SearchBudgetError(f"lift has {n_lifted} vertices, cap is {max_vertices}")
    n_bundles = len(instance.bundles) * q * q
    if n_bundles > LIFT_BUNDLE_BUDGET:
        raise SearchBudgetError(f"lift has {n_bundles} bundles, cap is {LIFT_BUNDLE_BUDGET}")
    lifted_vertices = [(v, g) for v in instance.vertices for g in range(q)]
    bundles = []
    for u, v, diffs in instance.bundles:
        for g1 in range(q):
            for g2 in range(q):
                shift = g1 ^ g2
                bundles.append(
                    ((u, g1), (v, g2), [Gf2Vector(z.bits ^ shift, instance.m) for z in diffs])
                )
    return GroupUgInstance(instance.m, lifted_vertices, bundles)


def lifted_opt(instance: GroupUgInstance) -> Tuple[int, Fraction, Dict]:
    """Exact optimum of the lifted instance without materializing it.

    Substituting y_v^g := x_v^g + g turns every lifted constraint into
    y_{v1}^{g1} + y_{v2}^{g2} = z, which no longer mentions g1, g2. The
    satisfied count then depends only on each vertex's label-count profile
    (how many of its q copies take each label): it sums one table per
    bundle over the profiles p, r of its ends, T[p, r] = the sum over z in
    the bundle and labels a of p[a] * r[a + z]. `_eliminate` maximizes that
    sum over profile tuples instead of the q^(q|V|) raw assignments; the
    witness is the lex-least optimal profile tuple in `_compositions` order,
    and each vertex's copies take its profile's labels in ascending order.
    """
    import numpy as np

    q = instance.q
    n_profiles = math.comb(2 * q - 1, q)  # compositions of q into q parts
    pos = {v: i for i, v in enumerate(instance.vertices)}
    profiles: List[Tuple[int, ...]] = []

    def build():
        profiles.extend(_compositions(q, q))
        P = np.array(profiles)  # (#profiles, q) count matrix
        return [sum(P @ P[:, [a ^ z.bits for a in range(q)]].T for z in diffs) for _, _, diffs in instance.bundles]

    scopes = [(pos[u], pos[v]) for u, v, _ in instance.bundles]
    best, chosen = _eliminate([n_profiles] * len(pos), scopes, build, DEFAULT_BRUTE_BUDGET)
    witness: Dict = {}
    for v, p in zip(instance.vertices, chosen):
        labels = [a for a in range(q) for _ in range(profiles[p][a])]  # sorted multiset
        for g, y in enumerate(labels):
            witness[(v, g)] = Gf2Vector(y ^ g, instance.m)
    return best, _fraction(best, instance.constraint_count * q * q), witness


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, in lex order,
    which is the lex order of their bar positions in stars and bars."""
    for bars in itertools.combinations(range(total + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + parts - 1)))


# -- spanning tree oracle ----------------------------------------------------


def spanning_tree_opt(
    instance: GroupUgInstance, budget: Optional[int] = None
) -> Tuple[int, Fraction, Dict]:
    """Exact optimum for connected group instances via spanning-tree search.

    Every optimal assignment restricted to the edges it satisfies extends a
    spanning forest, so for some spanning tree and some per-tree-edge choice
    of allowed difference, propagating from a zero root reproduces an optimal
    assignment up to a shift. The budget counts (tree, diff-choice)
    evaluations performed.

    Labels are int bits throughout: each choice is propagated along the
    tree's BFS order and scored against ``diff_bits``, and ``Gf2Vector``
    labels are built only for the returned witness. The witness is optimal.
    It is the lex-least optimal tree assignment, whatever the tree order,
    unless the search stops early: once an assignment satisfies every
    bundle, the search returns the first such assignment in
    ``SimpleGraph.spanning_trees`` order. An instance with no vertices
    scores 1 vacuously, as under brute force.
    """
    if budget is None:
        budget = DEFAULT_TREE_BUDGET
    g = instance.graph()
    if not g.is_connected():
        raise PreconditionError("spanning tree oracle requires a connected instance")
    early = len(instance.bundles)
    total = instance.constraint_count
    if not g.vertices:
        return 0, Fraction(1), {}
    vs = instance.vertices
    pos = {v: i for i, v in enumerate(vs)}
    checks = [(pos[u], pos[v], instance.diff_bits[u][v]) for u, v, _ in instance.bundles]
    root = vs[0]
    best_count, best_key = -1, None
    evals = 0
    for tree_edges in g.spanning_trees():
        adj: Dict = {v: [] for v in vs}
        for k, (u, v) in enumerate(tree_edges):
            adj[u].append((v, k))
            adj[v].append((u, k))
        order = []  # (vertex, parent, tree-edge index) as positions, in BFS order from root
        seen = {root}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y, k in adj[x]:
                if y not in seen:
                    seen.add(y)
                    order.append((pos[y], pos[x], k))
                    queue.append(y)
        labels = [0] * len(vs)
        for combo in itertools.product(*(sorted(instance.diff_bits[u][v]) for u, v in tree_edges)):
            evals += 1
            if evals > budget:
                raise SearchBudgetError(f"spanning tree search exceeded budget {budget}")
            for y, x, k in order:
                labels[y] = labels[x] ^ combo[k]
            count = sum(labels[iu] ^ labels[iv] in diffs for iu, iv, diffs in checks)
            if count > best_count or (count == best_count and labels < best_key):
                best_count, best_key = count, labels.copy()
            if best_count >= early:
                break
        if best_count >= early:
            break
    witness = {v: Gf2Vector(bits, instance.m) for v, bits in zip(vs, best_key)}
    return best_count, _fraction(best_count, total), witness


__all__ = [
    "GroupUgInstance",
    "PermUgInstance",
    "CspType",
    "WeightedCspInstance",
    "evaluate",
    "csp_value",
    "brute_force_opt",
    "csp_brute_opt",
    "propagate_complete_sat",
    "label_lift",
    "lifted_opt",
    "spanning_tree_opt",
    "DEFAULT_BRUTE_BUDGET",
    "DEFAULT_TREE_BUDGET",
]
