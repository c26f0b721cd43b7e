"""Instance data model, exact evaluation, label lift, and exact solvers.

Three instance kinds: group instances over F_2^m (per-edge bundles of
allowed differences, x_u + x_v = z), permutation unique games (a(u) =
pi(a(v))), and weighted CSPs with exact rational weights. Satisfiability
fractions are fractions.Fraction throughout; no floats on this path.

Every exhaustive solver runs one mixed-radix enumerator; both unique-games
kinds go through it one connected component at a time. The spanning-tree
oracle works on int labels and reads ``GroupUgInstance.diff_bits``;
``Gf2Vector`` labels appear only in the witnesses returned. numpy is
imported inside the solvers that enumerate, so the commands that never call
them start without it.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction
from functools import cached_property, partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (
    IncompleteAssignmentError,
    InvalidParameterError,
    PreconditionError,
    SearchBudgetError,
)
from .gf2 import Gf2Vector
from .graphs import SimpleGraph, normalize_edge, vertex_sort_key

DEFAULT_BRUTE_BUDGET = 8_000_000  # assignments enumerated
DEFAULT_TREE_BUDGET = 1_000_000  # (tree, diff-choice) evaluations performed
DEFAULT_LIFT_VERTEX_CAP = 4096


def all_labels(m: int) -> List[Gf2Vector]:
    return [Gf2Vector(b, m) for b in range(1 << m)]


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
        self.vertices: Tuple = tuple(sorted(vs, key=vertex_sort_key))
        self.bundles: Tuple[Tuple, ...] = tuple(
            (e[0], e[1], tuple(sorted(diffs)))
            for e, diffs in sorted(
                merged.items(), key=lambda kv: (vertex_sort_key(kv[0][0]), vertex_sort_key(kv[0][1]))
            )
        )
        self.bundle_map: Dict[Tuple, Tuple[Gf2Vector, ...]] = {
            (u, v): diffs for u, v, diffs in self.bundles
        }

    @property
    def q(self) -> int:
        return 1 << self.m

    @property
    def constraint_count(self) -> int:
        return sum(len(d) for _, _, d in self.bundles)

    def diffs_on(self, u, v) -> Tuple[Gf2Vector, ...]:
        return self.bundle_map.get(normalize_edge(u, v), ())

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
        return SimpleGraph(self.vertices, [(u, v) for u, v, _ in self.bundles])

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
            if sorted(perm) != list(range(q)):
                raise InvalidParameterError(f"{perm!r} is not a permutation of 0..{q-1}")
            cons.append((u, v, perm))
            vs.add(u)
            vs.add(v)
        self.vertices: Tuple = tuple(sorted(vs, key=vertex_sort_key))
        self.constraints: Tuple[Tuple, ...] = tuple(cons)

    @property
    def constraint_count(self) -> int:
        return len(self.constraints)

    def graph(self) -> SimpleGraph:
        edges = {normalize_edge(u, v) for u, v, _ in self.constraints}
        return SimpleGraph(self.vertices, edges)

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

_BLOCK = 1 << 14  # trailing assignments scored per numpy step


def _enumerate(radices: Sequence[int], tables: Sequence[Tuple], stop: int) -> Tuple[int, Tuple[int, ...]]:
    """Maximum total score over a mixed-radix space, with the lex-least argmax.

    Variable i takes the values 0..radices[i]-1; the first variable is the
    most significant digit. Each table is (scope, int64 array of shape
    (radices[i] for i in scope)), and an assignment scores the sum of its
    table entries. The digits of the trailing variables that fit one block
    are computed once; the leading variables run in lex order, each step
    adding one `take` per table that reads both kinds of variable. Only a
    strict improvement replaces the best, and np.argmax picks the first
    occurrence in a block, so the witness is lex-least. The search stops once
    the best score reaches `stop`, which must be an upper bound.
    """
    import numpy as np

    k = len(radices)
    split, size = k, 1
    while split and (size == 1 or size * radices[split - 1] <= _BLOCK):
        split -= 1
        size *= radices[split]
    idx = np.arange(size, dtype=np.int64)
    digits: Dict[int, np.ndarray] = {}
    for i in range(split, k):
        size_below = math.prod(radices[i + 1 :])
        digits[i] = idx // size_below % radices[i]

    base = np.zeros(size, dtype=np.int64)
    scalar, mixed = [], []  # tables that read only leading / both kinds of variable
    for scope, table in tables:
        strides = [math.prod(table.shape[p + 1 :]) for p in range(len(scope))]
        lead = [(i, s) for i, s in zip(scope, strides) if i < split]
        trail = [(i, s) for i, s in zip(scope, strides) if i >= split]
        flat = table.ravel()
        if not trail:
            scalar.append((flat, lead))
            continue
        key = sum(digits[i] * s for i, s in trail)
        if lead:
            mixed.append((flat, lead, key))
        else:
            base += flat.take(key)

    best, best_at = None, ()
    scores = np.empty(size, dtype=np.int64)
    for head in itertools.product(*(range(r) for r in radices[:split])):
        np.copyto(scores, base)
        for flat, lead, key in mixed:
            scores += flat[sum(head[i] * s for i, s in lead) :].take(key)
        j = int(np.argmax(scores))
        score = int(scores[j]) + sum(int(flat[sum(head[i] * s for i, s in lead)]) for flat, lead in scalar)
        if best is None or score > best:
            best, best_at = score, head + tuple(int(digits[i][j]) for i in range(split, k))
            if best >= stop:
                break
    return best, best_at


def brute_force_opt(instance, budget: Optional[int] = None) -> Tuple[int, Fraction, Dict]:
    """Exact maximum satisfied count by exhaustion, with lex-least witness.

    Both unique-games kinds run one connected component at a time, in vertex
    order as ``SimpleGraph.components`` returns it, through the mixed-radix
    enumerator, with one 0/1 table per bundle or constraint: T[a, b] =
    (a + b in diffs) for group instances and T[a, b] = (a == perm[b]) for
    permutation constraints a(u) = perm(a(v)). A group component's first
    vertex is fixed to zero as a radix-1 variable (every assignment family is
    closed under a global shift, so an optimal root-zero assignment always
    exists). Components are independent, so the lex-least optimum is the
    union of each component's lex-least optimum. The budget bounds the search
    space of each component and is checked before its tables are built, each
    sized by the radices of the two vertices it reads.
    """
    import numpy as np

    if budget is None:
        budget = DEFAULT_BRUTE_BUDGET
    q = instance.q
    if isinstance(instance, GroupUgInstance):
        root_radix, label, cons = 1, partial(Gf2Vector, dim=instance.m), instance.bundles
        rule = lambda a, b, diffs: np.isin(a[:, None] ^ b, [z.bits for z in diffs])
    elif isinstance(instance, PermUgInstance):
        root_radix, label, cons = q, int, instance.constraints
        rule = lambda a, b, perm: a[:, None] == np.array(perm)[b]
    else:
        raise InvalidParameterError(f"cannot brute-force {type(instance).__name__}")
    count, witness = 0, {}
    for comp in instance.graph().components():
        space = root_radix * q ** (len(comp) - 1)
        if space > budget:
            raise SearchBudgetError(f"search space {space} exceeds budget {budget}")
        pos = {v: i for i, v in enumerate(comp)}
        radices = [root_radix] + [q] * (len(comp) - 1)
        tables = []
        for u, v, x in cons:
            if u in pos:
                a, b = np.arange(radices[pos[u]]), np.arange(radices[pos[v]])
                tables.append(((pos[u], pos[v]), rule(a, b, x).astype(np.int64)))
        c, values = _enumerate(radices, tables, len(tables))
        count += c
        witness.update(zip(comp, map(label, values)))
    return count, _fraction(count, instance.constraint_count), witness


def csp_brute_opt(
    instance: WeightedCspInstance, budget: Optional[int] = None
) -> Tuple[Fraction, Dict]:
    """Exact maximum weight by exhaustion, with lex-least witness.

    Weights are scaled by the LCM L of their denominators, so each
    application becomes an int64 table holding w*L on its satisfying tuples
    for the enumerator behind brute_force_opt, and the optimum comes back
    exactly as Fraction(best, L). The search stops early once it reaches the
    sum of the positive weights. Raises SearchBudgetError when the space
    exceeds the budget or the scaled absolute weights do not sum below 2^63.
    """
    import numpy as np

    if budget is None:
        budget = DEFAULT_BRUTE_BUDGET
    vs = instance.variables
    space = instance.q ** len(vs)
    if space > budget:
        raise SearchBudgetError(f"search space {space} exceeds budget {budget}")
    scale = math.lcm(*(w.denominator for _, _, w in instance.applications))
    if instance.abs_weight() * scale >= 1 << 63:
        raise SearchBudgetError(f"weights scaled by {scale} to integers overflow int64")
    pos = {v: i for i, v in enumerate(vs)}
    tables = []
    for tname, var_tuple, w in instance.applications:
        table = np.zeros((instance.q,) * len(var_tuple), dtype=np.int64)
        for f in instance.constraint_types[tname].satisfying:
            table[f] = int(w * scale)
        tables.append((tuple(pos[x] for x in var_tuple), table))
    upper = sum(int(w * scale) for _, _, w in instance.applications if w > 0)
    best, values = _enumerate([instance.q] * len(vs), tables, upper)
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
    (how many of its q copies take each label), so we maximize over profile
    tuples instead of the q^(q|V|) raw assignments.
    """
    import numpy as np

    q = instance.q
    n = len(instance.vertices)
    profiles = [p for p in _compositions(q, q)]
    P = np.array(profiles, dtype=np.int32)  # (#profiles, q) count matrix
    np_profiles = len(profiles)
    if np_profiles**n > 5_000_000:
        raise SearchBudgetError(f"profile space {np_profiles}^{n} too large")
    pos = {v: i for i, v in enumerate(instance.vertices)}
    # pairwise score of profiles p, r on a bundle: sum over labels a, b with
    # a + b in diffs of count_p[a] * count_r[b]
    total = np.zeros((np_profiles,) * n, dtype=np.int32)
    for u, v, diffs in instance.bundles:
        M = np.zeros((np_profiles, np_profiles), dtype=np.int32)
        for z in diffs:
            perm = [a ^ z.bits for a in range(q)]
            M += P @ P[:, perm].T
        # broadcast M into the (u, v) axes of the profile grid; bundles are
        # normalized, so u comes before v in vertex order
        shape = [1] * n
        shape[pos[u]] = shape[pos[v]] = np_profiles
        total += M.reshape(shape)
    flat_idx = int(np.argmax(total))
    best = int(total.flat[flat_idx])
    chosen = np.unravel_index(flat_idx, total.shape)
    witness: Dict = {}
    for v in instance.vertices:
        counts = profiles[chosen[pos[v]]]
        labels = [a for a in range(q) for _ in range(counts[a])]  # sorted multiset
        for g, y in enumerate(labels):
            witness[(v, g)] = Gf2Vector(y ^ g, instance.m)
    return best, _fraction(best, instance.constraint_count * q * q), witness


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


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
    "all_labels",
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
