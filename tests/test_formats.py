"""Text format round-trips and the atomic file helpers."""

from __future__ import annotations

import json
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uglab.errors import InvalidParameterError, UglabError
from uglab.formats import (
    atomic_write_json,
    atomic_write_text,
    parse_csp,
    parse_fraction,
    parse_graph,
    parse_gug,
    parse_pug,
    write_assignment,
    write_graph,
    write_gug,
)
from uglab.gf2 import Gf2Vector
from uglab.graphs import SimpleGraph
from uglab.instances import (
    CspType,
    GroupUgInstance,
    PermUgInstance,
    WeightedCspInstance,
)

# The program reads .pug and .csp files but never writes them; these writers
# are the parsers' round-trip oracles.


def write_pug(instance: PermUgInstance) -> str:
    lines = [f"pug q={instance.q}"]
    lines += [f"vertex {v}" for v in instance.vertices]
    lines += [f"edge {u} {v} perm={','.join(map(str, perm))}" for u, v, perm in instance.constraints]
    return "\n".join(lines) + "\n"


def write_csp(instance: WeightedCspInstance) -> str:
    # one apply line per (type, tuple): the parser sums repeated ones
    lines = [f"csp q={instance.q}"]
    lines += [f"var {v}" for v in instance.variables]
    for name, ct in sorted(instance.constraint_types.items()):
        tuples = ";".join(",".join(map(str, t)) for t in sorted(ct.satisfying))
        lines.append(f"ctype {name} arity={ct.arity} sat={tuples}")
    for tname, var_tuple, w in instance.applications:
        lines.append(f"apply {tname} {' '.join(var_tuple)} w={w.numerator}/{w.denominator}")
    return "\n".join(lines) + "\n"


def read_assignment(text: str) -> dict:
    """write_assignment's output as {name: label text}, its layout asserted:
    one 'assign <name> <label>' line per vertex, in name order."""
    rows = [line.split() for line in text.splitlines()]
    assert all(len(row) == 3 and row[0] == "assign" for row in rows)
    assert [row[1] for row in rows] == sorted(row[1] for row in rows)
    return {name: label for _, name, label in rows}


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
    assert inst.bundles == (("x", "y", (Gf2Vector(0, 2), Gf2Vector(3, 2))),)


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


@pytest.mark.parametrize(
    "parse, text, lineno, message",
    [
        (parse_gug, "gug m=2\nvertex a\nbundle a b zz\n", 3, "bad hex vector"),
        (parse_gug, "# header\ngug m=0\n", 2, "m must be in 1..64"),
        (parse_pug, "pug q=2\nvertex a\nedge a b perm=0,2\n", 3, "not a permutation"),
        (parse_csp, "csp q=2\nctype t arity=2 sat=0,1\napply t a w=1\n", 3, "arity is 2"),
        (parse_graph, "graph\nv a\ne a a\n", 3, "self-loop"),
        (parse_graph, "graph\nv a\ne a b\n", 3, "unknown vertex"),
        (parse_gug, "gug m=2\nvertex a\nbundle a a 1\n", 3, "self-loop"),
        # a q past int64 once raised OverflowError, and q = 10**18 MemoryError, building range(q)
        (parse_pug, f"pug q={2**63}\nedge a b perm=1,0\n", 2, "not a permutation"),
        (parse_pug, f"pug q={10**18}\nedge a b perm=1,0\n", 2, "not a permutation"),
        (parse_graph, "# header\ngraf\n", 2, "must start with a 'graph' header"),
        (parse_csp, "\nvar x\n", 2, "must start with a 'csp q=<int>' header"),
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


@pytest.mark.parametrize("name", ["a#b", "#", ""])
def test_names_with_a_comment_marker_are_not_written(name):
    """A '#' would start a comment on reading, so the name would come back cut."""
    with pytest.raises(InvalidParameterError, match="whitespace or '#'"):
        write_graph(SimpleGraph([name, "c"], []))
    with pytest.raises(InvalidParameterError, match="whitespace or '#'"):
        write_gug(GroupUgInstance(1, [name, "c"], []))


def test_assignment_round_trip_group():
    # hex labels of ceil(m/4) digits
    a = {"y": Gf2Vector(31, 5), "x": Gf2Vector(5, 5)}
    assert write_assignment(a) == "assign x 05\nassign y 1f\n"


def test_assignment_round_trip_perm():
    assert write_assignment({"y": 0, "x": 3}) == "assign x 3\nassign y 0\n"


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
    # strict JSON: a non-finite number raises and leaves the file as it was
    with pytest.raises(ValueError):
        atomic_write_json(str(path), {"x": float("nan")})
    assert path.read_text() == text


# -- write -> parse round trips and arbitrary input -------------------------------

# any name the writers accept: no whitespace (it splits tokens) and no '#'
# (it starts a comment)
NAMES = st.text(
    st.characters(blacklist_categories=("Cs",)).filter(lambda c: not c.isspace() and c != "#"),
    min_size=1,
    max_size=4,
)


@st.composite
def group_instances(draw):
    m = draw(st.integers(1, 8))
    vs = draw(st.lists(NAMES, min_size=2, max_size=6, unique=True))
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True))
    diffs = st.lists(st.integers(0, (1 << m) - 1).map(lambda b: Gf2Vector(b, m)), min_size=1, max_size=3)
    return GroupUgInstance(m, vs, [(u, v, draw(diffs)) for u, v in edges])


@st.composite
def perm_instances(draw):
    q = draw(st.integers(1, 4))
    vs = draw(st.lists(NAMES, min_size=2, max_size=6, unique=True))
    ordered = [(u, v) for u in vs for v in vs if u != v]
    perms = st.permutations(range(q)).map(tuple)
    # repeated and reversed pairs are kept as written
    cons = [(u, v, draw(perms)) for u, v in draw(st.lists(st.sampled_from(ordered), max_size=6))]
    return PermUgInstance(q, vs, cons)


@st.composite
def csp_instances(draw):
    q = draw(st.integers(1, 3))
    vs = draw(st.lists(NAMES, min_size=1, max_size=5, unique=True))
    ctypes = {}
    for name in draw(st.lists(NAMES, min_size=1, max_size=3, unique=True)):
        arity = draw(st.integers(1, 2))
        tuples = st.tuples(*[st.integers(0, q - 1)] * arity)
        ctypes[name] = CspType(arity, draw(st.lists(tuples, max_size=4)), q)
    weights = st.fractions(min_value=-10, max_value=10, max_denominator=12)
    apps, seen = [], set()
    for _ in range(draw(st.integers(0, 5))):
        tname = draw(st.sampled_from(sorted(ctypes)))
        scope = draw(st.tuples(*[st.sampled_from(vs)] * ctypes[tname].arity))
        if (tname, scope) not in seen:  # the parser sums repeated applications
            seen.add((tname, scope))
            apps.append((tname, scope, draw(weights)))
    return WeightedCspInstance(q, vs, ctypes, apps)


@st.composite
def graphs(draw):
    vs = draw(st.lists(NAMES, max_size=6, unique=True))
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    return SimpleGraph(vs, draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else [])


@settings(max_examples=100, deadline=None)
@given(group_instances())
def test_gug_round_trip_property(inst):
    back = parse_gug(write_gug(inst))
    assert (back.m, back.vertices, back.bundles) == (inst.m, inst.vertices, inst.bundles)


@settings(max_examples=100, deadline=None)
@given(perm_instances())
def test_pug_round_trip_property(inst):
    back = parse_pug(write_pug(inst))
    assert (back.q, back.vertices, back.constraints) == (inst.q, inst.vertices, inst.constraints)


@settings(max_examples=100, deadline=None)
@given(csp_instances())
def test_csp_round_trip_property(inst):
    back = parse_csp(write_csp(inst))
    assert (back.q, back.variables, back.applications) == (inst.q, inst.variables, inst.applications)
    assert {n: (t.arity, t.satisfying) for n, t in back.constraint_types.items()} == {
        n: (t.arity, t.satisfying) for n, t in inst.constraint_types.items()
    }


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_graph_round_trip_property(g):
    back = parse_graph(write_graph(g))
    assert (back.vertices, back.edges) == (g.vertices, g.edges)


@settings(max_examples=100, deadline=None)
@given(st.one_of(group_instances(), perm_instances()), st.data())
def test_assignment_round_trip_property(inst, data):
    if isinstance(inst, GroupUgInstance):
        label = st.integers(0, inst.q - 1).map(lambda b: Gf2Vector(b, inst.m))
    else:
        label = st.integers(0, inst.q - 1)
    a = {v: data.draw(label) for v in inst.vertices}
    back = read_assignment(write_assignment(a))
    if isinstance(inst, GroupUgInstance):
        assert {v: Gf2Vector.from_hex(text, inst.m) for v, text in back.items()} == a
    else:
        assert {v: int(text) for v, text in back.items()} == a


JUNK = [
    "gug", "pug", "csp", "graph", "vertex", "bundle", "edge", "var", "ctype", "apply", "v", "e",
    "m=2", "m=0", "m=x", "q=2", "q=0", "q=-1", "q=x", "a", "b", "0", "1", "-1", "3", "ff", "zz", ",", "=", "#", "",
    "perm=1,0", "perm=0,0", "perm=0,x", "perm=", "arity=1", "arity=0", "arity=x",
    "sat=0,1;1,0", "sat=0", "sat=", "sat=;", "sat=0,x", "w=1/2", "w=-3", "w=1/0", "w=x", "w=",
]
VALUES = [
    "x", "", "0", "-1", "2", "99", "1/0", "1/2", "0,x", "0,0", "1,0", ";", "0,1;1,0", ",", "ff",
    str(2**63), str(10**18), "1e400", "nan", "inf",  # past int64, a huge q, and what float() would take
]


@st.composite
def texts(draw):
    """A parser and either a soup of junk lines or a written file with a few
    tokens replaced by junk, deleted, inserted or given a junk value (the
    part after '=' of a key=value token, else the whole token)."""
    parse, write, inst = draw(st.sampled_from([
        (parse_gug, write_gug, group_instances()),
        (parse_pug, write_pug, perm_instances()),
        (parse_csp, write_csp, csp_instances()),
        (parse_graph, write_graph, graphs()),
    ]))
    text = write(draw(inst))
    junk = st.sampled_from(JUNK)
    if draw(st.booleans()):
        return parse, "\n".join(" ".join(draw(st.lists(junk, max_size=5))) for _ in range(draw(st.integers(0, 6))))
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        toks = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(toks)))
        how = draw(st.sampled_from(["revalue", "replace", "delete", "insert"]))
        if how == "insert" or at == len(toks):
            toks.insert(at, draw(junk))
        elif how == "replace":
            toks[at] = draw(junk)
        elif how == "delete":
            del toks[at]
        else:
            key, eq, _ = toks[at].rpartition("=")
            toks[at] = key + eq + draw(st.sampled_from(VALUES))
    return parse, "\n".join(" ".join(toks) for toks in lines)


@settings(max_examples=400, deadline=None)
@given(texts())
def test_text_parsers_raise_only_uglab_errors(case):
    parse, text = case
    try:
        parse(text)
    except UglabError as exc:  # a file with a record names the line at fault
        if any(line.split("#", 1)[0].strip() for line in text.splitlines()):
            assert str(exc).startswith("line "), str(exc)
