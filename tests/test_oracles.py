"""The exact oracles cross-checked on one draw: each relation asserted once.

One strategy per instance kind (group, permutation, weighted CSP) draws
instances small enough for plain product enumeration over every label of
every vertex, and one test per kind asserts every relation that applies
to the draw; a fault in one table construction or solver shows as a
disagreement with the others on the same instance. The relations, by number:

1. ``brute_force_opt`` and ``csp_brute_opt`` equal product enumeration:
   the same count or weight, fraction and lex-least witness, and
   ``evaluate`` or ``csp_value`` re-scores the witness.
2. Brute force's group and permutation tables agree with its CSP tables:
   on a CSP view of the instance, one binary type per bundle or constraint
   of weight 1, ``csp_brute_opt`` gives the same optimum and witness (as bits).
3. Elimination over a whole instance equals the sum of its per-component
   solves, and its witness is the union of theirs.
4. On a connected group instance ``spanning_tree_opt`` gives elimination's
   count and fraction, and its witness re-scores to its count.
5. ``propagate_complete_sat`` succeeds iff the optimum satisfies every
   constraint, and then its witness is elimination's.
6. ``lifted_opt``'s count is q^2 times the base optimum, a theorem: after
   y = x + g a lifted assignment scores q^2 times the expected base score
   of independent per-vertex label distributions, which cannot beat the
   best single assignment, and q copies of that assignment reach it. Its
   witness re-scores on ``label_lift``; where the lift has at most 12
   vertices, brute force on it gives the same count.
7. ``label_lift``'s bundles equal ``LiftedStructure.allowed_diffs``, the
   lifted bundle by its definition, pair by pair.
8. ``_eliminate`` on raw mixed-radix tables equals product enumeration.

Pinned-value, budget and boundary tests stay in ``test_instances.py``,
which takes its seeded group generator and the enumeration from here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab import instances
from uglab.game import LiftedStructure
from uglab.gf2 import Gf2Vector
from uglab.instances import (
    CspType,
    GroupUgInstance,
    PermUgInstance,
    WeightedCspInstance,
    brute_force_opt,
    csp_brute_opt,
    csp_value,
    evaluate,
    label_lift,
    lifted_opt,
    propagate_complete_sat,
    spanning_tree_opt,
)

LIFT_BRUTE_VERTICES = 12  # relation 6 solves the materialized lift up to this many vertices


def product_enumeration(domains, score):
    """The best score over the product of the domains and the first
    assignment, in lex order, that attains it."""
    best, best_at = None, None
    for values in itertools.product(*domains):
        s = score(values)
        if best is None or s > best:
            best, best_at = s, values
    return best, best_at


def table_enumeration(radices, tables):
    """Product enumeration of the sum of (scope, array) tables over a mixed-radix space."""
    return product_enumeration(
        [range(r) for r in radices], lambda values: sum(int(t[tuple(values[i] for i in scope)]) for scope, t in tables)
    )


def eliminate(radices, tables, budget=instances.DEFAULT_BRUTE_BUDGET):
    """`_eliminate` on (scope, array) pairs."""
    return instances._eliminate(radices, [scope for scope, _ in tables], lambda: [t for _, t in tables], budget)


def random_group_instance(rng, n_vertices, m, max_bundles, connected=False):
    """Bundles of random size on a random edge set of `n_vertices`: 1 to
    `max_bundles` pairs, or with `connected` a random spanning tree and up
    to `max_bundles` edges in all."""
    pairs = [(i, j) for i in range(n_vertices) for j in range(i + 1, n_vertices)]
    if connected:
        # random spanning tree first, then extra edges
        order = list(range(n_vertices))
        rng.shuffle(order)
        chosen = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n_vertices)}
        extra = [p for p in pairs if p not in chosen]
        rng.shuffle(extra)
        for p in extra[: rng.randrange(0, max(1, max_bundles - len(chosen) + 1))]:
            chosen.add(p)
    else:
        rng.shuffle(pairs)
        chosen = set(pairs[: rng.randrange(1, max_bundles + 1)])
    bundles = []
    for u, w in sorted(chosen):
        size = rng.randrange(1, (1 << m) + 1)
        diffs = [Gf2Vector(b, m) for b in rng.sample(range(1 << m), size)]
        bundles.append((u, w, diffs))
    return GroupUgInstance(m, range(n_vertices), bundles)


def _group_draw(rng, connected):
    # m in {1, 2} on 1 to 6 vertices, any nonempty edge set (every pair may
    # carry a bundle), connected or not; a drawn cap on the edges makes
    # sparse sets, and so more components, as likely as dense ones
    n = rng.randint(1, 6)
    return random_group_instance(rng, n, rng.randint(1, 2), rng.randint(1, math.comb(n, 2) or 1), connected=connected)


def _perm_draw(rng):
    # q <= 3 on 1 to 5 vertices: any set of vertex pairs, each with one
    # constraint, and up to six more on pairs of the set, of either orientation
    q, n = rng.randint(1, 3), rng.randint(1, 5)
    pairs = list(itertools.combinations(range(n), 2))
    pairs = rng.sample(pairs, rng.randint(0, len(pairs)))
    cons = []
    for u, w in pairs + [rng.choice(pairs) for _ in range(rng.randint(0, 6) if pairs else 0)]:
        a, b = (u, w) if rng.random() < 0.5 else (w, u)
        cons.append((a, b, tuple(rng.sample(range(q), q))))
    return PermUgInstance(q, range(n), cons)


def _csp_draw(rng):
    # q <= 3 on 1 to 5 variables: up to five types of arity 1-3 with any
    # satisfying set, applied up to six times on scopes that may repeat a
    # variable, with signed rational weights
    q, n = rng.randint(1, 3), rng.randint(1, 5)
    types = {}
    for t in range(rng.randint(1, 5)):
        arity = rng.randint(1, 3)
        tuples = list(itertools.product(range(q), repeat=arity))
        types[f"t{t}"] = CspType(arity, rng.sample(tuples, rng.randint(0, len(tuples))), q)
    apps = []
    for _ in range(rng.randint(0, 6)):
        name = rng.choice(sorted(types))
        scope = tuple(rng.randrange(n) for _ in range(types[name].arity))
        apps.append((name, scope, Fraction(rng.randint(-6, 6), rng.randint(1, 6))))
    return WeightedCspInstance(q, range(n), types, apps)


group_instances = st.builds(_group_draw, st.randoms(use_true_random=False), st.booleans())
perm_instances = st.randoms(use_true_random=False).map(_perm_draw)
csp_instances = st.randoms(use_true_random=False).map(_csp_draw)


def _component(inst, comp):
    """The sub-instance of `inst` on the vertices of one component."""
    if isinstance(inst, GroupUgInstance):
        return GroupUgInstance(inst.m, comp, [(a, b, d) for a, b, d in inst.bundles if a in comp])
    return PermUgInstance(inst.q, comp, [(a, b, p) for a, b, p in inst.constraints if a in comp])


def _csp_view(inst):
    """The instance as a weighted CSP on its vertices: one binary type of
    weight 1 per bundle, (a, b) holding iff a ^ b is in it, or per
    constraint, {(perm[b], b)}."""
    q = inst.q
    if isinstance(inst, GroupUgInstance):
        sat = [[(a, b) for a in range(q) for b in range(q) if a ^ b in {z.bits for z in d}] for _, _, d in inst.bundles]
        cons = inst.bundles
    else:
        sat = [[(perm[b], b) for b in range(q)] for _, _, perm in inst.constraints]
        cons = inst.constraints
    types = {f"c{i}": CspType(2, tuples, q) for i, tuples in enumerate(sat)}
    return WeightedCspInstance(q, inst.vertices, types, [(f"c{i}", (u, w), 1) for i, (u, w, _) in enumerate(cons)])


def _check_unique_game(inst, score):
    """Relations 1, 2 and 3 on a group or permutation instance whose
    vertices are 0..n-1 and whose assignments `score` reads as label tuples;
    returns brute force's (count, fraction, witness)."""
    vs, label = inst.vertices, (lambda b: Gf2Vector(b, inst.m)) if isinstance(inst, GroupUgInstance) else int
    best, best_at = product_enumeration([range(inst.q)] * len(vs), score)
    witness = {x: label(b) for x, b in zip(vs, best_at)}
    rescored, frac = evaluate(inst, witness)
    assert rescored == best
    assert brute_force_opt(inst) == (best, frac, witness)  # 1
    assert csp_brute_opt(_csp_view(inst)) == (best, dict(zip(vs, best_at)))  # 2
    parts = [brute_force_opt(_component(inst, comp)) for comp in inst.graph().components()]
    assert sum(c for c, _, _ in parts) == best  # 3
    assert {x: a for _, _, w in parts for x, a in w.items()} == witness
    return best, frac, witness


@settings(max_examples=100, deadline=None)
@given(group_instances)
def test_group_oracles_agree(inst):
    bits = [(u, w, {z.bits for z in d}) for u, w, d in inst.bundles]
    count, frac, witness = _check_unique_game(inst, lambda x: sum(x[u] ^ x[w] in d for u, w, d in bits))
    if inst.graph().is_connected():  # 4
        tree_count, tree_frac, tree_witness = spanning_tree_opt(inst)
        assert (tree_count, tree_frac) == (count, frac)
        assert evaluate(inst, tree_witness)[0] == count
    q, n = inst.q, len(inst.vertices)
    lifted = label_lift(inst)
    if inst.m == 1 or n <= 4:  # 6: at m = 2, five vertices' profile tables can pass the budget
        lift_count, lift_frac, lift_witness = lifted_opt(inst)
        assert (lift_count, lift_frac) == (q * q * count, frac)
        assert evaluate(lifted, lift_witness) == (lift_count, lift_frac)
        if n * q <= LIFT_BRUTE_VERTICES:
            assert brute_force_opt(lifted)[:2] == (lift_count, lift_frac)
    materialized = {}  # 7
    for a, b, d in lifted.bundles:
        materialized[a, b] = materialized[b, a] = {z.bits for z in d}
    structure = LiftedStructure(inst)
    elements = [(x, Gf2Vector(g, inst.m)) for x in inst.vertices for g in range(q)]
    for a, b in itertools.permutations(elements, 2):
        assert structure.allowed_diffs(a, b) == materialized.get(((a[0], a[1].bits), (b[0], b[1].bits)), set())


@settings(max_examples=100, deadline=None)
@given(perm_instances)
def test_perm_oracles_agree(inst):
    count, frac, witness = _check_unique_game(
        inst, lambda x: sum(x[u] == perm[x[w]] for u, w, perm in inst.constraints)
    )
    ok, propagated = propagate_complete_sat(inst)  # 5
    assert ok == (frac == 1)
    assert propagated == (witness if ok else None)


@settings(max_examples=60, deadline=None)
@given(csp_instances)
def test_csp_oracles_agree(csp):
    vs = csp.variables
    sat = [(csp.constraint_types[name].satisfying, scope, w) for name, scope, w in csp.applications]
    best, best_at = product_enumeration(
        [range(csp.q)] * len(vs), lambda x: sum((w for s, scope, w in sat if tuple(x[i] for i in scope) in s), Fraction(0))
    )
    witness = dict(zip(vs, best_at))
    assert csp_brute_opt(csp) == (best, witness)  # 1
    assert csp_value(csp, witness) == best


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_eliminate_matches_product_enumeration(rng):
    # 8: mixed radices with radix 1 anywhere, scopes of arity 0-3 in any order
    # that may repeat a variable, bool tables and signed int tables whose
    # entries reach past the int8, int16 or int32 range
    radices = [rng.randint(1, 3) for _ in range(rng.randint(0, 6))]
    tables = []
    for _ in range(rng.randint(0, 7)):
        scope = tuple(rng.randrange(len(radices)) for _ in range(rng.randint(0, 3) if radices else 0))
        shape = [radices[i] for i in scope]
        if rng.random() < 0.4:
            table = np.array([rng.random() < 0.5 for _ in range(math.prod(shape))], dtype=bool)
        else:
            top = rng.choice([3, 100, 40_000, 2**40])
            table = np.array([rng.randint(-top, top) for _ in range(math.prod(shape))], dtype=np.int64)
        tables.append((scope, table.reshape(shape)))
    assert eliminate(radices, tables) == table_enumeration(radices, tables)
