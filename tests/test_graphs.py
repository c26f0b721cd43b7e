from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab import graphs
from uglab.errors import InvalidParameterError, PreconditionError
from uglab.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    girth,
    matching_decomposition,
    petersen_graph,
)


def path(n):
    return SimpleGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def k33():
    left, right = [("L", i) for i in range(3)], [("R", j) for j in range(3)]
    return SimpleGraph(left + right, [(u, w) for u in left for w in right])


def test_construction_normalizes_edges():
    g = SimpleGraph([2, 1, 3], [(3, 1), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(1, 2)
    assert g.neighbors(3) == (1, 2)


def test_rejects_loops_and_duplicates():
    with pytest.raises(InvalidParameterError):
        SimpleGraph([1], [(1, 1)])
    with pytest.raises(InvalidParameterError):
        SimpleGraph([1, 2], [(1, 2), (2, 1)])
    with pytest.raises(InvalidParameterError):
        SimpleGraph([1, 2], [(1, 3)])


def test_regular_degree():
    assert complete_graph(4).regular_degree() == 3
    assert petersen_graph().regular_degree() == 3
    assert path(3).regular_degree() is None


def test_components_and_connectivity():
    g = SimpleGraph(range(5), [(0, 1), (2, 3)])
    comps = g.components()
    assert comps == [(0, 1), (2, 3), (4,)]
    assert not g.is_connected()
    assert cycle_graph(6).is_connected()


def test_bipartition():
    sides = cycle_graph(6).bipartition()
    assert sides is not None
    a, b = sides
    assert {frozenset({0, 2, 4}), frozenset({1, 3, 5})} == {a, b}
    assert cycle_graph(5).bipartition() is None
    assert complete_graph(4).bipartition() is None


def test_girth_values():
    assert girth(complete_graph(4)) == 3
    assert girth(cycle_graph(7)) == 7
    assert girth(petersen_graph()) == 5
    assert girth(path(5)) == math.inf
    assert girth(k33()) == 4


def test_matching_decomposition_k33():
    g = k33()
    ms = matching_decomposition(g)
    assert len(ms) == 3
    all_edges = [e for m in ms for e in m]
    assert sorted(all_edges) == sorted(g.edges)
    for m in ms:
        covered = [v for e in m for v in e]
        assert sorted(covered) == sorted(g.vertices)


def _recursive_matching(avail_edges, left):
    """The augmenting-path search written as a recursion, for comparison."""
    adj = {u: [] for u in left}
    for u, v in avail_edges:
        if u in adj:
            adj[u].append(v)
        else:
            adj[v].append(u)
    for u in adj:
        adj[u].sort(key=graphs.vertex_sort_key)
    match_r = {}

    def try_augment(u, visited):
        for w in adj[u]:
            if w not in visited:
                visited.add(w)
                if w not in match_r or try_augment(match_r[w], visited):
                    match_r[w] = u
                    return True
        return False

    for u in left:
        assert try_augment(u, set())
    return {u: w for w, u in match_r.items()}


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_augmenting_stack_matches_the_recursion(rng):
    # a d-regular bipartite graph as d disjoint shifted matchings; each layer
    # the search peels off must equal the recursion's, in insertion order too
    n = rng.randint(1, 9)
    d = rng.randint(1, n)
    right = rng.sample(range(n, 2 * n), n)
    edges = [(i, right[(i + t) % n]) for t in rng.sample(range(n), d) for i in range(n)]
    g = SimpleGraph(range(2 * n), edges)
    left = rng.sample(range(n), n)
    avail = set(g.edges)
    for _ in range(d):
        got = graphs._kuhn_perfect_matching(g, avail, left)
        want = _recursive_matching(avail, left)
        assert list(got.items()) == list(want.items())
        avail -= {graphs.normalize_edge(u, w) for u, w in got.items()}


def test_matching_decomposition_needs_bipartite_or_coloring():
    with pytest.raises(PreconditionError):
        matching_decomposition(complete_graph(4))
    with pytest.raises(PreconditionError):
        matching_decomposition(path(4))  # not regular


def test_cycle_decomposes_into_two_matchings():
    ms = matching_decomposition(cycle_graph(6))
    assert len(ms) == 2
    assert all(len(m) == 3 for m in ms)


@pytest.mark.parametrize("g, count", [
    (complete_graph(5), 125),
    (complete_graph(6), 1296),
    (petersen_graph(), 2000),
    (SimpleGraph([0], []), 1),
    (SimpleGraph([], []), 1),
    (SimpleGraph([0, 1, 2], [(0, 1)]), 0),
], ids=["K5", "K6", "petersen", "single-vertex", "no-vertex", "disconnected"])
def test_spanning_tree_counts(g, count):
    trees = list(g.spanning_trees())
    assert len(trees) == len(set(trees)) == count


def _matrix_tree_count(g):
    """Determinant of the Laplacian with the first row and column removed,
    by exact Gaussian elimination."""
    pos = {v: i for i, v in enumerate(g.vertices)}
    lap = [[Fraction(0)] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        a, b = pos[u], pos[v]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    rows = [row[1:] for row in lap[1:]]
    det = Fraction(1)
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            return 0
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            for k in range(c, len(rows)):
                rows[r][k] -= f * rows[c][k]
    return det


@st.composite
def connected_graphs(draw):
    """A random tree on 1-7 vertices plus any set of further edges."""
    n = draw(st.integers(1, 7))
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if pairs:
        edges |= draw(st.sets(st.sampled_from(pairs)))
    return SimpleGraph(range(n), edges)


@settings(max_examples=100, deadline=None)
@given(connected_graphs())
def test_spanning_trees_are_distinct_trees_counted_by_the_matrix_tree_theorem(g):
    trees = list(g.spanning_trees())
    for tree in trees:
        assert len(tree) == g.n - 1
        assert SimpleGraph(g.vertices, tree).is_connected()  # so acyclic
        assert list(tree) == sorted(tree, key=g.edges.index)
    assert len(set(trees)) == len(trees) == _matrix_tree_count(g)
