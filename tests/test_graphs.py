from __future__ import annotations

import math

import pytest

from uglab.errors import InvalidParameterError, PreconditionError
from uglab.graphs import (
    SimpleGraph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    girth,
    matching_decomposition,
    path_graph,
    petersen_graph,
)


def test_construction_normalizes_edges():
    g = SimpleGraph([2, 1, 3], [(3, 1), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.edges == ((1, 3), (2, 3))
    assert g.has_edge(1, 3) and g.has_edge(3, 1)
    assert not g.has_edge(1, 2)
    assert g.degree(3) == 2


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
    assert path_graph(3).regular_degree() is None


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
    assert girth(path_graph(5)) == math.inf
    assert girth(complete_bipartite_graph(3, 3)) == 4


def test_matching_decomposition_k33():
    g = complete_bipartite_graph(3, 3)
    ms = matching_decomposition(g)
    assert len(ms) == 3
    all_edges = [e for m in ms for e in m]
    assert sorted(all_edges) == sorted(g.edges)
    for m in ms:
        covered = [v for e in m for v in e]
        assert sorted(covered) == sorted(g.vertices)


def test_matching_decomposition_needs_bipartite_or_coloring():
    with pytest.raises(PreconditionError):
        matching_decomposition(complete_graph(4))
    with pytest.raises(PreconditionError):
        matching_decomposition(path_graph(4))  # not regular


def test_cycle_decomposes_into_two_matchings():
    ms = matching_decomposition(cycle_graph(6))
    assert len(ms) == 2
    assert all(len(m) == 3 for m in ms)
