"""sdp workload: MaxCut mixing solves with hyperplane rounding, LC
augmented-Lagrangian solves and one gap table. One op is one solve (with its
rounding) or one table; every solve uses a single restart.

The mixing method's sweep count swings tenfold between random cubic graphs of
one size, and the LC solver's iteration count between random CSPs, so the
graphs and CSPs are fixed (construction seeds below) and the workload seed
relabels their vertices and variables and seeds the solvers. The median op is
a MaxCut solve on one of the generalized Petersen graphs GP(n, 3), n = 16..29,
the most frequent op; their sizes spread its latency over a factor of about
six, so the median moves smoothly with the machine's speed instead of
jumping between its fast and slow modes. Each of them is solved under four
relabellings and solver seeds a pass: the sweep count moves one solve's time
by about a fifth with the solver seed, and with one draw per graph the
median moved that much from seed to seed. Both solver paths run: mixing for
MaxCut, the augmented Lagrangian with dense constraint tensors for LC.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

import numpy as np

from uglab import sdp
from uglab.graphs import SimpleGraph
from uglab.instances import CspType, WeightedCspInstance

import checks
from ops import Task, spread

NOMINAL_PASS_S = 10.0  # 9 s to 12 s here, with the machine's speed
BRUTE_LIMIT = 20  # graphs this small also get an exact max cut
ROUND_TRIALS = 1000
GP_DRAWS = 4  # relabellings of each GP(n, 3) graph per pass


def random_cubic(n: int, rng) -> SimpleGraph:
    """Connected simple cubic graph from the pairing model, by rejection."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        edges = set()
        for i in range(0, len(points), 2):
            u, v = points[i], points[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                break
            edges.add((min(u, v), max(u, v)))
        else:
            g = SimpleGraph(range(n), sorted(edges))
            if g.is_connected():
                return g


def generalized_petersen(n: int, k: int) -> SimpleGraph:
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return SimpleGraph(range(2 * n), outer + spokes + inner)


# (kind, graph). random_cubic(50, 101) takes about 40 times as long as a
# GP(n, 3) graph of its size to reach the plateau; it stays in as the hard case.
MEDIAN_KIND = "maxcut-gp"
MAXCUT = [(MEDIAN_KIND, generalized_petersen(n, 3)) for n in range(16, 30)] + [
    ("maxcut-20", random_cubic(20, random.Random(300))),
    ("maxcut-20", random_cubic(20, random.Random(301))),
    ("maxcut-50", random_cubic(50, random.Random(102))),
    ("maxcut-50-hard", random_cubic(50, random.Random(101))),
    ("maxcut-100", random_cubic(100, random.Random(200))),
]


def criterion11_csp(rng) -> WeightedCspInstance:
    """The random CSP family of acceptance criterion 11 (2-4 binary variables)."""
    nv = rng.randint(2, 4)
    vs = [f"x{i}" for i in range(nv)]
    types = {}
    for name in ("t0", "t1", "t2")[: rng.randint(1, 3)]:
        arity = rng.randint(1, 2)
        tuples = [t for t in np.ndindex(*(2,) * arity) if rng.random() < 0.6]
        if not tuples:
            tuples = [tuple(rng.randrange(2) for _ in range(arity))]
        types[name] = CspType(arity, [tuple(int(x) for x in t) for t in tuples], 2)
    apps = []
    for _ in range(rng.randint(2, 5)):
        name = rng.choice(sorted(types))
        scope = tuple(rng.sample(vs, types[name].arity))
        apps.append((name, scope, Fraction(rng.randint(1, 4), rng.randint(1, 4))))
    return WeightedCspInstance(2, vs, types, apps)


XOR = CspType(2, [(0, 1), (1, 0)], 2)
EQ = CspType(2, [(0, 0), (1, 1)], 2)


def xor_csp(nv: int, rng, chords: int) -> WeightedCspInstance:
    """XOR cycle over nv variables plus random XOR/EQ chords: n = 64 and
    1260 constraints in the relaxation for nv = 8, chords = 4."""
    apps = [("xor", (f"x{i}", f"x{(i + 1) % nv}"), 1) for i in range(nv)]
    pairs = [(i, j) for i in range(nv) for j in range(i + 2, nv) if (i, j) != (0, nv - 1)]
    for i, j in rng.sample(pairs, chords):
        apps.append((rng.choice(["xor", "eq"]), (f"x{i}", f"x{j}"), 1))
    return WeightedCspInstance(2, [f"x{i}" for i in range(nv)], {"xor": XOR, "eq": EQ}, apps)


def even_cycle(n: int) -> WeightedCspInstance:
    return WeightedCspInstance(2, range(n), {"xor": XOR}, [("xor", (i, (i + 1) % n), 1) for i in range(n)])


# criterion-11 construction seeds: solves of about 170, 90, 10 and 15 ms
LC_SMALL = [criterion11_csp(random.Random(2000 + j)) for j in (0, 2, 5, 7)]
GAP_FAMILY = [criterion11_csp(random.Random(2000 + j)) for j in (3, 5, 7)]
GAP_GRID = [0.05 * i for i in range(21)]
XOR_SEED = 2


def relabel(g: SimpleGraph, rng) -> SimpleGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return SimpleGraph(range(g.n), [(perm[u], perm[v]) for u, v in g.edges])


def rename(csp: WeightedCspInstance, rng) -> WeightedCspInstance:
    names = [f"y{i}" for i in range(len(csp.variables))]
    rng.shuffle(names)
    to = dict(zip(csp.variables, names))
    apps = [(t, tuple(to[x] for x in scope), w) for t, scope, w in csp.applications]
    return WeightedCspInstance(csp.q, names, csp.constraint_types, apps)


def maxcut_task(kind: str, g: SimpleGraph, seed: int) -> Task:
    def call():
        inst = sdp.build_maxcut_sdp(g)
        sol = sdp.solve_sdp_lowrank(inst, restarts=1, rng=seed)
        mean, _ = sdp.hyperplane_round(sol, rng=seed, trials=ROUND_TRIALS)
        return sol.value, sol.factor, mean, sdp.gw_symmetric_value(sol)

    def check(out):
        brute = checks.maxcut_brute(g.n, g.edges) if g.n <= BRUTE_LIMIT else None
        return checks.check_maxcut(out, g.n, g.edges, np.random.default_rng(seed + 1), brute)

    return Task(kind, call, check)


def lc_task(kind: str, csp: WeightedCspInstance, seed: int, expected=None, known_fault=False) -> Task:
    def call():
        return sdp.solve_sdp_lowrank(sdp.build_lc_relaxation(csp), restarts=1, rng=seed).value

    def check(value):
        if expected is not None:
            return checks.check_value(value, expected)
        return checks.check_lc(value, csp, checks.csp_optimum(csp))

    return Task(kind, call, check, known_fault=known_fault)


def gap_task(family, seed: int) -> Task:
    return Task(
        "gap",
        lambda: sdp.gap_curve_estimate(family, eta=0.05, grid=GAP_GRID, restarts=1, rng=seed),
        lambda table: checks.check_gap(
            table, [float(checks.csp_optimum(c) / checks.abs_weight(c)) for c in family]
        ),
    )


def make_pass(seed: int, index: int) -> List[Task]:
    rng = random.Random(f"{seed}/sdp/{index}")
    median_kind, others = [], []
    # draw by draw, so every stretch of the pass holds GP graphs of all sizes
    for kind, g in [pair for _ in range(GP_DRAWS) for pair in MAXCUT if pair[0] == MEDIAN_KIND]:
        median_kind.append(maxcut_task(kind, relabel(g, rng), rng.randrange(2**31)))
    for kind, g in [pair for pair in MAXCUT if pair[0] != MEDIAN_KIND]:
        others.append(maxcut_task(kind, relabel(g, rng), rng.randrange(2**31)))
    for csp in LC_SMALL:
        others.append(lc_task("lc-small", rename(csp, rng), rng.randrange(2**31)))
    others.append(lc_task("lc-cycle", rename(even_cycle(6), rng), rng.randrange(2**31), expected=1.0))
    # The XOR instance is fixed, names and solver seed too: its iteration
    # count is the widest swing in the workload. Its LC value lands below the
    # integral optimum it must bound, so this op fails in every pass; it is
    # the one declared known fault, counted as failed rather than wrong.
    others.append(lc_task("lc-xor8", xor_csp(8, random.Random(XOR_SEED), 4), 0, known_fault=True))
    others.append(gap_task([rename(c, rng) for c in GAP_FAMILY], rng.randrange(2**31)))
    return spread(median_kind, others)


def warmup(seed: int) -> List[Task]:
    rng = random.Random(f"{seed}/sdp/warmup")
    return [
        maxcut_task("maxcut-20", relabel(MAXCUT[-5][1], rng), 1),
        lc_task("lc-small", rename(LC_SMALL[3], rng), 1),
        gap_task([rename(GAP_FAMILY[1], rng)], 1),
    ]


def lc_alloc_probe(seed: int) -> None:
    """The largest LC build and solve, for the tracemalloc peak."""
    sdp.solve_sdp_lowrank(sdp.build_lc_relaxation(xor_csp(8, random.Random(XOR_SEED), 4)), restarts=1, rng=0)
