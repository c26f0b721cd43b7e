"""Text format round-trips and the atomic file helpers."""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import partial

import pytest

from uglab.errors import InvalidParameterError
from uglab.formats import (
    atomic_write_json,
    atomic_write_text,
    parse_assignment,
    parse_csp,
    parse_fraction,
    parse_graph,
    parse_gug,
    parse_pug,
    write_assignment,
    write_csp,
    write_graph,
    write_gug,
    write_pug,
)
from uglab.gf2 import Gf2Vector
from uglab.graphs import SimpleGraph
from uglab.instances import (
    CspType,
    GroupUgInstance,
    PermUgInstance,
    WeightedCspInstance,
)


def test_gug_round_trip():
    v = lambda bits: Gf2Vector(bits, 5)
    inst = GroupUgInstance(
        5,
        ["a", "b", "c", "lonely"],
        [("a", "b", [v(0), v(31)]), ("b", "c", [v(7)])],
    )
    back = parse_gug(write_gug(inst))
    assert back.m == 5
    assert back.vertices == inst.vertices
    assert back.bundles == inst.bundles


def test_gug_comments_and_blanks():
    text = """
    # a tiny instance
    gug m=2

    vertex x
    vertex y   # trailing comment
    bundle x y 0,3
    """
    inst = parse_gug(text)
    assert inst.vertices == ("x", "y")
    assert inst.diffs_on("x", "y") == (Gf2Vector(0, 2), Gf2Vector(3, 2))


def test_gug_errors():
    with pytest.raises(InvalidParameterError):
        parse_gug("graph\n")
    with pytest.raises(InvalidParameterError):
        parse_gug("gug m=2\nbundle x y\n")
    with pytest.raises(InvalidParameterError):
        parse_gug("gug m=2\nwhat x\n")


@pytest.mark.parametrize(
    "parse, text, lineno",
    [
        (parse_gug, "gug\n", 1),
        (parse_gug, "# header\ngug m=x\n", 2),
        (parse_pug, "pug\n", 1),
        (parse_pug, "pug q=x\n", 1),
        (parse_pug, "pug q=2\nedge a b perm=0,x\n", 2),
    ],
)
def test_header_and_integer_errors_carry_line(parse, text, lineno):
    with pytest.raises(InvalidParameterError, match=f"^line {lineno}:"):
        parse(text)


PERM_AB = PermUgInstance(2, ["a", "b"], [("a", "b", (1, 0))])


@pytest.mark.parametrize(
    "parse, text, lineno, message",
    [
        (parse_gug, "gug m=2\nvertex a\nbundle a b zz\n", 3, "bad hex vector"),
        (parse_gug, "# header\ngug m=0\n", 2, "m must be in 1..64"),
        (parse_pug, "pug q=2\nvertex a\nedge a b perm=0,2\n", 3, "not a permutation"),
        (parse_csp, "csp q=2\nctype t arity=2 sat=0,1\napply t a w=1\n", 3, "arity is 2"),
        (parse_graph, "graph\nv a\ne a a\n", 3, "self-loop"),
        (parse_graph, "graph\nv a\ne a b\n", 3, "unknown vertex"),
        (partial(parse_assignment, instance=PermUgInstance(2, ["a"], [])), "assign a x\n", 1, "needs an integer"),
        (partial(parse_assignment, instance=PERM_AB), "assign b 0\nassign a 7\n", 2, "label 7 outside 0..1"),
        (partial(parse_assignment, instance=PERM_AB), "assign a -1\n", 1, "label -1 outside 0..1"),
        (partial(parse_assignment, instance=PERM_AB), "assign a 1\n\nassign zz 1\n", 3, "unknown vertex 'zz'"),
    ],
)
def test_record_errors_carry_line(parse, text, lineno, message):
    with pytest.raises(InvalidParameterError, match=f"^line {lineno}: .*{message}"):
        parse(text)


def test_gug_hex_width():
    inst = GroupUgInstance(5, ["u", "w"], [("u", "w", [Gf2Vector(31, 5)])])
    text = write_gug(inst)
    assert "bundle u w 1f" in text


def test_pug_round_trip_keeps_orientation():
    inst = PermUgInstance(
        3,
        ["n1", "n2", "n3"],
        [("n2", "n1", (2, 0, 1)), ("n1", "n3", (0, 2, 1))],
    )
    back = parse_pug(write_pug(inst))
    assert back.q == 3
    assert back.vertices == inst.vertices
    assert back.constraints == inst.constraints


def test_pug_errors():
    with pytest.raises(InvalidParameterError):
        parse_pug("pug q=2\nedge a b perm=0,0\n")
    with pytest.raises(InvalidParameterError):
        parse_pug("gug m=1\n")


def test_csp_round_trip():
    ct_xor = CspType(2, [(0, 1), (1, 0)], 2)
    ct_never = CspType(1, [], 2)
    inst = WeightedCspInstance(
        2,
        ["p", "q", "r"],
        {"xor": ct_xor, "never": ct_never},
        [
            ("xor", ("p", "q"), Fraction(1, 3)),
            ("xor", ("q", "r"), Fraction(-2, 5)),
            ("never", ("r",), Fraction(7)),
        ],
    )
    back = parse_csp(write_csp(inst))
    assert back.q == 2
    assert back.variables == inst.variables
    assert set(back.constraint_types) == {"xor", "never"}
    assert back.constraint_types["xor"].satisfying == ct_xor.satisfying
    assert back.constraint_types["never"].satisfying == frozenset()
    assert back.applications == inst.applications


def test_csp_duplicate_applications_sum():
    text = (
        "csp q=2\n"
        "ctype eq arity=2 sat=0,0;1,1\n"
        "apply eq a b w=1/4\n"
        "apply eq b c w=1\n"
        "apply eq a b w=1/2\n"
    )
    inst = parse_csp(text)
    assert inst.applications == (
        ("eq", ("a", "b"), Fraction(3, 4)),
        ("eq", ("b", "c"), Fraction(1)),
    )


def test_csp_errors():
    with pytest.raises(InvalidParameterError):
        parse_csp("csp q=2\nctype t arity=2 sat=0,5\n")
    with pytest.raises(InvalidParameterError):
        parse_csp("csp q=2\nctype t arity=1 sat=\nctype t arity=1 sat=\n")
    with pytest.raises(InvalidParameterError):
        parse_csp("csp q=2\napply missing a w=1\n")


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction("-2") == Fraction(-2)
    assert parse_fraction("-1/8") == Fraction(-1, 8)
    with pytest.raises(InvalidParameterError):
        parse_fraction("1/0")
    with pytest.raises(InvalidParameterError):
        parse_fraction("pi")


def test_graph_round_trip():
    g = SimpleGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "b")])
    back = parse_graph(write_graph(g))
    assert back == g
    with pytest.raises(InvalidParameterError):
        parse_graph("gug m=1\n")


def test_vertex_names_must_be_clean():
    g = SimpleGraph(["a b"], [])
    with pytest.raises(InvalidParameterError):
        write_graph(g)


def test_assignment_round_trip_group():
    inst = GroupUgInstance(3, ["x", "y"], [("x", "y", [Gf2Vector(5, 3)])])
    a = {"x": Gf2Vector(5, 3), "y": Gf2Vector(0, 3)}
    back = parse_assignment(write_assignment(a, inst), inst)
    assert back == a


def test_assignment_round_trip_perm():
    inst = PermUgInstance(4, ["x", "y"], [("x", "y", (1, 2, 3, 0))])
    a = {"x": 3, "y": 0}
    back = parse_assignment(write_assignment(a, inst), inst)
    assert back == a


def test_atomic_write_text(tmp_path):
    path = tmp_path / "out.txt"
    atomic_write_text(str(path), "first\n")
    atomic_write_text(str(path), "second\n")
    assert path.read_text() == "second\n"
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_json(tmp_path):
    path = tmp_path / "out.json"
    atomic_write_json(str(path), {"b": 2, "a": [1, 2]})
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == {"a": [1, 2], "b": 2}
    assert text.index('"a"') < text.index('"b"')
