"""game workload: Duplicator rounds under ``play_game`` and the depth-3
winning-line search. One op is one round, or one search.

- Tree rounds, k=3: a random bundle pair over the Tutte-Coxeter graph (30
  vertices, girth 8) from ``random_inapprox_pair``, restricted to a random
  BFS spanning tree whose edges are all good. On a tree no new short segment
  can close a cycle, which is how the strategy stops with "girth too small"
  below the theorem's girth; and once k-1 pebbles are down, every round
  solves one 3-terminal Steiner problem per base vertex, so round cost does
  not swing with where good edges happened to fall.
- Cops rounds on the pursuit graphs for k = 3, 4, 5, from a random star edge.
  They are most of the ops, and the k=4 ones sit in the middle, so the median
  latency is a k=4 pursuit round. They are played in short games spread
  between the long ops, so the median samples the whole run rather than one
  moment of it.
- One depth-3 search against the K2 strategy on a twisted 5-cycle (it finds
  nothing, so it always explores the whole tree), and one against the
  identity strategy, which finds a line at once.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from fractions import Fraction
from typing import List

from uglab import constructions, game
from uglab.gf2 import Gf2Vector
from uglab.graphs import SimpleGraph, cycle_graph
from uglab.instances import GroupUgInstance

import checks
from ops import Task, TimedSpoiler

NOMINAL_PASS_S = 6.5

# alpha, gamma, epsilon, d, ell, m, r, q: the desk-scale parameters of the
# acceptance suite; the base's girth 8 is below (k+1)^2 r, hence the restriction.
TREE_PARAMS = constructions.ParamSet(Fraction(1), Fraction(1, 4), Fraction(1, 4), 3, 2, 3, 3, 8)
TREE_K = 3
TREE_ROUNDS = 4  # the first k-1 rounds have fewer than k-1 pebbles down
TREE_GAMES = 2
COPS_ROUNDS = {3: 25, 4: 50, 5: 25}  # per game; one game of each per block
COPS_BLOCKS = 4
SEARCH_DEPTH = 3


def lcf_graph(n: int, shifts: List[int], repeats: int) -> SimpleGraph:
    """Hamiltonian cycle plus the chords given in LCF notation."""
    edges = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    for i in range(len(shifts) * repeats):
        j = (i + shifts[i % len(shifts)]) % n
        edges.add((min(i, j), max(i, j)))
    return SimpleGraph(range(n), sorted(edges))


TUTTE_COXETER = lcf_graph(30, [-13, -9, 7, -7, 9, 13], 5)


def bfs_spanning_tree(g: SimpleGraph, rng) -> SimpleGraph:
    root = g.vertices[rng.randrange(g.n)]
    seen, queue, edges = {root}, deque([root]), []
    while queue:
        u = queue.popleft()
        nbrs = list(g.neighbors(u))
        rng.shuffle(nbrs)
        for w in nbrs:
            if w not in seen:
                seen.add(w)
                edges.append((u, w))
                queue.append(w)
    return SimpleGraph(g.vertices, edges)


def tree_pair(rng):
    """Draw pairs until a random spanning tree of the base has only good
    edges; returns the two instances restricted to it and the raw draws."""
    p = TREE_PARAMS
    while True:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # girth 8 < (k+1)^2 r, as documented above
            pair = constructions.random_inapprox_pair(p, TUTTE_COXETER, rng, k=TREE_K)
        tree = bfs_spanning_tree(TUTTE_COXETER, rng)
        zsub = {e: pair.zmap[e] for e in tree.edges}
        if len(constructions.good_edges(tree, zsub, p.r, p.m)) == tree.m:
            break
    u1 = GroupUgInstance(p.m, tree.vertices, [(u, v, list(pair.zmap[(u, v)].elements())) for u, v in tree.edges])
    u2 = GroupUgInstance(
        p.m, tree.vertices, [(u, v, sorted(pair.zmap[(u, v)].shifted(pair.bmap[(u, v)]))) for u, v in tree.edges]
    )
    return u1, u2, pair.zmap, pair.bmap


def _game(kind, u1, u2, k, rounds, new_duplicator, rng) -> Task:
    a, b = game.LiftedStructure(u1), game.LiftedStructure(u2)

    def call(marks):
        return game.play_game(a, b, k, new_duplicator(), TimedSpoiler(rng, marks), rounds)

    return Task(kind, call, lambda out: checks.check_transcript(out, u1, u2, k, rounds), rounds)


def tree_task(rng, rounds: int = TREE_ROUNDS) -> Task:
    u1, u2, zmap, bmap = tree_pair(rng)
    r = TREE_PARAMS.r
    return _game("tree", u1, u2, TREE_K, rounds, lambda: game.TreeDuplicator(u1, u2, zmap, bmap, r), rng)


def cops_task(rng, k: int, rounds: int) -> Task:
    h = constructions.cops_robbers_graph(k)
    coloring = constructions.cubic_edge_coloring(h)
    star = h.edges[rng.randrange(len(h.edges))]
    u1, u2 = constructions.klein_pair(h, coloring, star)
    return _game(
        f"cops-{k}", u1, u2, k, rounds, lambda: game.duplicator_cops(u1, u2, h, coloring, star), rng
    )


def twisted_cycle(rng):
    """C5 with zero bundles, and a copy where one edge carries a nonzero
    difference, so no shift aligns the two."""
    base = cycle_graph(5)
    zero = Gf2Vector.zero(2)
    twist = base.edges[rng.randrange(5)]
    z = Gf2Vector(rng.randrange(1, 4), 2)
    u1 = GroupUgInstance(2, base.vertices, [(u, v, [zero]) for u, v in base.edges])
    u2 = GroupUgInstance(2, base.vertices, [(u, v, [z if (u, v) == twist else zero]) for u, v in base.edges])
    return u1, u2


def search_tasks(rng) -> List[Task]:
    u1, u2 = twisted_cycle(rng)
    a, b = game.LiftedStructure(u1), game.LiftedStructure(u2)
    return [
        Task(
            "search-k2",
            lambda: game.find_winning_line(a, b, 2, lambda: game.duplicator_k2(u1, u2), depth=SEARCH_DEPTH),
            checks.check_no_line,
        ),
        Task(
            "search-identity",
            lambda: game.find_winning_line(a, b, 2, lambda: game.duplicator_identity(2), depth=SEARCH_DEPTH),
            lambda line: checks.check_identity_line(line, u1, u2, 2),
        ),
    ]


def make_pass(seed: int, index: int) -> List[Task]:
    rng = random.Random(f"{seed}/game/{index}")
    blocks = [
        [cops_task(random.Random(rng.random()), k, n) for k, n in COPS_ROUNDS.items()] for _ in range(COPS_BLOCKS)
    ]
    trees = [tree_task(random.Random(rng.random())) for _ in range(TREE_GAMES)]
    k2, identity = search_tasks(random.Random(rng.random()))
    long_ops = [trees[0], k2, trees[1], identity]
    return [task for block, op in zip(blocks, long_ops) for task in block + [op]]


def warmup(seed: int) -> List[Task]:
    rng = random.Random(f"{seed}/game/warmup")
    return [
        cops_task(rng, 3, 10),
        tree_task(rng, rounds=3),
        search_tasks(rng)[1],
    ]
