"""exact workload: exact optima over a ladder of group instances, the
spanning-tree and profile-reduced solvers, a permutation instance and a CSP.

One op is one instance solved. Every group and permutation instance is
planted: a hidden assignment satisfies every bundle but one edge of a fixed
triangle, whose bundles cannot all hold at once, so the optimum is known to
be (bundles - 1) without solving, and no search can stop early. The
4096-assignment rung is the most frequent op, so the median latency is
always one of its pure-Python solves; most of the time goes to the rungs
above the 50 000-assignment switch, so throughput follows the numpy path.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from uglab import constructions, instances
from uglab.gf2 import Gf2Vector

import checks
from ops import Task, spread

NOMINAL_PASS_S = 0.8

# (kind, m, vertices, extra chords, bundle width); the search space after the
# root is fixed is (2^m)^(vertices - 1). The 16 solves of the median kind have
# 0 to 14 chords (7 to 21 bundles), so their latencies spread over a factor of
# about three and the median moves smoothly with the machine's speed instead
# of jumping between its fast and slow modes.
MEDIAN_KIND = "brute-4096"
LADDER = [(MEDIAN_KIND, 2, 7, chords, 2) for chords in [*range(15), 7]] + [
    ("brute-256", 2, 5, 2, 2),
    ("brute-512", 1, 10, 4, 1),
    ("brute-1024", 2, 6, 3, 2),
    ("brute-16384", 2, 8, 5, 2),
    ("brute-32768", 3, 6, 3, 2),
    ("brute-65536", 2, 9, 5, 2),
    ("brute-262144", 3, 7, 4, 2),
    ("brute-262144", 2, 10, 6, 2),
    ("brute-1048576", 2, 11, 6, 2),
    ("brute-1048576", 4, 6, 3, 2),
]


def _frustrated_pairs(rng, n: int, chords: int) -> List[Tuple[int, int]]:
    """A spanning path, the triangle chord (0, 2) and random extra chords."""
    others = [(i, j) for i in range(n) for j in range(i + 2, n) if (i, j) != (0, 2)]
    return [(i, i + 1) for i in range(n - 1)] + [(0, 2)] + rng.sample(others, chords)


def planted_group(rng, m: int, n: int, chords: int, width: int):
    """Group instance with known optimum: (0,1) and (1,2) carry only the
    planted difference and (0,2) every difference but it, so the triangle
    never closes; all other bundles hold the planted difference."""
    q = 1 << m
    names = [f"v{i}" for i in range(n)]
    x = [rng.randrange(q) for _ in range(n)]
    pairs = _frustrated_pairs(rng, n, chords)
    bundles = []
    for i, j in pairs:
        d = x[i] ^ x[j]
        rest = [z for z in range(q) if z != d]
        if (i, j) == (0, 2):
            diffs = rng.sample(rest, min(width, q - 1))
        elif (i, j) in ((0, 1), (1, 2)):
            diffs = [d]
        else:
            diffs = [d] + rng.sample(rest, width - 1)
        bundles.append((names[i], names[j], [Gf2Vector(z, m) for z in diffs]))
    return instances.GroupUgInstance(m, names, bundles), len(pairs) - 1


def planted_perm(rng, q: int, n: int, chords: int):
    """Permutation instance with known optimum: the chord (0,2) applies a
    fixed-point-free shift after the composed permutations of (0,1) and
    (1,2), so those three constraints never hold together."""
    a = [rng.randrange(q) for _ in range(n)]
    perms = {}
    pairs = _frustrated_pairs(rng, n, chords)
    for i, j in pairs:
        if (i, j) == (0, 2):
            continue
        p = list(range(q))
        rng.shuffle(p)
        k = p.index(a[i])
        p[k], p[a[j]] = p[a[j]], p[k]  # a(i) = p(a(j)) for the planted labels
        perms[(i, j)] = p
    p01, p12 = perms[(0, 1)], perms[(1, 2)]
    perms[(0, 2)] = [(p01[p12[y]] + 1) % q for y in range(q)]
    cons = [(f"v{i}", f"v{j}", tuple(perms[(i, j)])) for i, j in pairs]
    return instances.PermUgInstance(q, [f"v{i}" for i in range(n)], cons), len(pairs) - 1


def random_csp(rng, nv: int, apps: int):
    """Binary XOR/EQ constraints with rational weights, plus two unary
    constraints on one variable that cannot both hold, so the search never
    reaches the sum of positive weights and stops early."""
    types = {
        "xor": instances.CspType(2, [(0, 1), (1, 0)], 2),
        "eq": instances.CspType(2, [(0, 0), (1, 1)], 2),
        "one": instances.CspType(1, [(1,)], 2),
        "zero": instances.CspType(1, [(0,)], 2),
    }
    names = [f"x{i}" for i in range(nv)]
    applications = [("one", (names[0],), Fraction(1)), ("zero", (names[0],), Fraction(1))]
    for _ in range(apps):
        u, v = rng.sample(names, 2)
        applications.append((rng.choice(["xor", "eq"]), (u, v), Fraction(rng.randint(1, 4), rng.randint(1, 4))))
    return instances.WeightedCspInstance(2, names, types, applications)


def _group_brute(kind, inst, expected) -> Task:
    evaluate = instances.evaluate
    return Task(
        kind,
        lambda: instances.brute_force_opt(inst),
        lambda out: checks.check_group_opt(out, inst, expected, evaluate),
    )


def _group_tree(kind, inst, expected) -> Task:
    evaluate = instances.evaluate
    return Task(
        kind,
        lambda: instances.spanning_tree_opt(inst),
        lambda out: checks.check_group_opt(out, inst, expected, evaluate),
    )


def _known(inst, frac: Fraction) -> int:
    """Satisfied bundles that a known optimal fraction stands for."""
    return int(frac * inst.constraint_count)


def _lifted(kind, inst, expected_frac) -> Task:
    return Task(
        kind,
        lambda: instances.lifted_opt(inst),
        lambda out: checks.check_lifted_opt(out, inst, expected_frac),
    )


def _lift_brute(kind, inst, expected_frac) -> Task:
    def call():
        lifted = instances.label_lift(inst)
        return lifted, instances.brute_force_opt(lifted)

    def check(out):
        lifted, (count, frac, witness) = out
        if frac != expected_frac:
            return f"lift optimum {frac}, expected the base optimum {expected_frac}"
        return checks.check_group_opt((count, frac, witness), lifted, count, instances.evaluate)

    return Task(kind, call, check)


def _perm(kind, inst, expected) -> Task:
    return Task(kind, lambda: instances.brute_force_opt(inst), lambda out: checks.check_perm_opt(out, inst, expected))


def _csp(kind, csp) -> Task:
    return Task(
        kind,
        lambda: instances.csp_brute_opt(csp),
        lambda out: checks.check_csp_opt(out, csp, checks.csp_optimum(csp)),
    )


def _fraction(inst, count: int) -> Fraction:
    return Fraction(count, inst.constraint_count)


def make_pass(seed: int, index: int) -> List[Task]:
    rng = random.Random(f"{seed}/exact/{index}")
    median_kind: List[Task] = []
    tasks: List[Task] = []
    for kind, m, n, chords, width in LADDER:
        inst, opt = planted_group(rng, m, n, chords, width)
        (median_kind if kind == MEDIAN_KIND else tasks).append(_group_brute(kind, inst, opt))
    small, opt = planted_group(rng, 2, 5, 2, 2)
    tasks.append(_group_brute("brute-256", small, opt))
    tasks.append(_group_tree("tree-planted", small, opt))  # agrees with the brute force above

    # the unsat family has optimum exactly 2/n; n=4 also fits the brute force
    u5 = constructions.unsat_complete_graph(Fraction(1, 2))
    u4 = constructions.unsat_complete_graph(Fraction(2, 3))
    tasks.append(_group_tree("tree-unsat5", u5, _known(u5, Fraction(2, 5))))
    tasks.append(_group_tree("tree-unsat4", u4, _known(u4, Fraction(2, 4))))
    tasks.append(_group_brute("brute-unsat4", u4, _known(u4, Fraction(2, 4))))

    h, coloring, star = constructions.k4_klein_inputs()
    u1, u2 = constructions.klein_pair(h, coloring, star)
    tasks.append(_group_brute("brute-klein", u1, _known(u1, Fraction(1, 2))))
    tasks.append(_group_brute("brute-klein", u2, _known(u2, Fraction(5, 12))))

    base2, opt2 = planted_group(rng, 2, 4, 1, 2)
    tasks.append(_lifted("lifted-m2", base2, _fraction(base2, opt2)))
    base1, opt1 = planted_group(rng, 1, 5, 2, 1)
    tasks.append(_lifted("lifted-m1", base1, _fraction(base1, opt1)))
    tasks.append(_lift_brute("lift-brute-m1", base1, _fraction(base1, opt1)))

    perm, popt = planted_perm(rng, 3, 7, 2)
    tasks.append(_perm("perm-2187", perm, popt))
    tasks.append(_csp("csp-1024", random_csp(rng, 10, 12)))
    return spread(median_kind, tasks)


def warmup(seed: int) -> List[Task]:
    """One op of each code path on inputs of their own; the first
    spanning-tree call imports networkx."""
    rng = random.Random(f"{seed}/exact/warmup")
    small, opt = planted_group(rng, 2, 5, 2, 2)
    big, big_opt = planted_group(rng, 2, 9, 5, 2)
    base1, opt1 = planted_group(rng, 1, 5, 2, 1)
    perm, popt = planted_perm(rng, 3, 5, 1)
    return [
        _group_brute("brute-256", small, opt),
        _group_brute("brute-65536", big, big_opt),
        _group_tree("tree-planted", small, opt),
        _lifted("lifted-m1", base1, _fraction(base1, opt1)),
        _lift_brute("lift-brute-m1", base1, _fraction(base1, opt1)),
        _perm("perm-243", perm, popt),
        _csp("csp-16", random_csp(rng, 4, 4)),
    ]
