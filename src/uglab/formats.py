"""Line-oriented text formats for instances, graphs, and assignments.

One record per line, '#' starts a comment. Group instances (.gug) and
graphs are written and read; permutation instances (.pug) and weighted
CSPs (.csp) are only read, and assignment files only written. Vertex
names are serialized with str(), so they must not contain whitespace or
'#'; parsed files always carry string names. Group labels are lowercase
hex of ceil(m/4) digits.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterator, List, Tuple

from .errors import InvalidParameterError
from .gf2 import Gf2Vector
from .graphs import SimpleGraph, normalize_edge
from .instances import CspType, GroupUgInstance, PermUgInstance, WeightedCspInstance


def _name(v) -> str:
    s = str(v)
    if not s or "#" in s or any(c.isspace() for c in s):
        raise InvalidParameterError(f"name {v!r} is empty or holds whitespace or '#'")
    return s


def _content_lines(text: str) -> List[Tuple[int, List[str]]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((lineno, line.split()))
    return out


def _parse_kv(token: str, key: str, lineno: int) -> str:
    prefix = key + "="
    if not token.startswith(prefix):
        raise InvalidParameterError(f"line {lineno}: expected {key}=..., got {token!r}")
    return token[len(prefix):]


def _int(text: str, key: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise InvalidParameterError(f"line {lineno}: {key}= needs an integer, got {text!r}") from None


def _ints(text: str, key: str, lineno: int) -> List[int]:
    return [_int(x, key, lineno) for x in text.split(",")]


def _first_line(lines: List[Tuple[int, List[str]]]) -> str:
    """'line N: ' for the first content line, or nothing for a file without one."""
    return f"line {lines[0][0]}: " if lines else ""


def _header(text: str, kind: str, key: str) -> Tuple[int, int, List[Tuple[int, List[str]]]]:
    """The integer of a '<kind> <key>=<int>' header, its line number and the
    lines after it."""
    lines = _content_lines(text)
    if not lines or lines[0][1][0] != kind:
        raise InvalidParameterError(f"{_first_line(lines)}{kind} file must start with a '{kind} {key}=<int>' header")
    lineno, head = lines[0]
    if len(head) < 2:
        raise InvalidParameterError(f"line {lineno}: {kind} header needs {key}=<int>")
    return _int(_parse_kv(head[1], key, lineno), key, lineno), lineno, lines[1:]


@contextmanager
def _at(lineno: int) -> Iterator[None]:
    """Prefix 'line N: ' to an InvalidParameterError raised in the block.

    Parsers check a record by building an instance of that record alone
    inside the block, so every rule of the constructor reports the line.
    """
    try:
        yield
    except InvalidParameterError as exc:
        if str(exc).startswith("line "):
            raise
        raise InvalidParameterError(f"line {lineno}: {exc}") from None


# -- group instances ---------------------------------------------------------


def write_gug(instance: GroupUgInstance) -> str:
    lines = [f"gug m={instance.m}"]
    for v in instance.vertices:
        lines.append(f"vertex {_name(v)}")
    for u, v, diffs in instance.bundles:
        hexes = ",".join(z.to_hex() for z in diffs)
        lines.append(f"bundle {_name(u)} {_name(v)} {hexes}")
    return "\n".join(lines) + "\n"


def parse_gug(text: str) -> GroupUgInstance:
    m, head, lines = _header(text, "gug", "m")
    with _at(head):
        GroupUgInstance(m, [], [])
    vertices: List[str] = []
    bundles = []
    for lineno, toks in lines:
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "bundle" and len(toks) == 4:
            with _at(lineno):
                bundle = (toks[1], toks[2], [Gf2Vector.from_hex(h, m) for h in toks[3].split(",")])
                normalize_edge(toks[1], toks[2])  # rejects a self-loop; from_hex checked the width
            bundles.append(bundle)
        else:
            raise InvalidParameterError(f"line {lineno}: bad gug record {' '.join(toks)!r}")
    return GroupUgInstance(m, vertices, bundles)


# -- permutation instances -----------------------------------------------------


def parse_pug(text: str) -> PermUgInstance:
    q, head, lines = _header(text, "pug", "q")
    with _at(head):
        PermUgInstance(q, [], [])
    vertices: List[str] = []
    constraints = []
    for lineno, toks in lines:
        if toks[0] == "vertex" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "edge" and len(toks) == 4:
            constraint = (toks[1], toks[2], tuple(_ints(_parse_kv(toks[3], "perm", lineno), "perm", lineno)))
            with _at(lineno):
                PermUgInstance(q, [], [constraint])
            constraints.append(constraint)
        else:
            raise InvalidParameterError(f"line {lineno}: bad pug record {' '.join(toks)!r}")
    return PermUgInstance(q, vertices, constraints)


# -- weighted CSPs --------------------------------------------------------------


def parse_fraction(text: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"bad rational {text!r}") from exc


def parse_csp(text: str) -> WeightedCspInstance:
    q, head, lines = _header(text, "csp", "q")
    with _at(head):
        WeightedCspInstance(q, [], {}, [])
    variables: List[str] = []
    ctypes: Dict[str, CspType] = {}
    summed: Dict[Tuple, Fraction] = {}
    order: List[Tuple] = []
    first_line: Dict[Tuple, int] = {}
    for lineno, toks in lines:
        if toks[0] == "var" and len(toks) == 2:
            variables.append(toks[1])
        elif toks[0] == "ctype" and len(toks) == 4:
            name = toks[1]
            if name in ctypes:
                raise InvalidParameterError(f"line {lineno}: duplicate ctype {name!r}")
            arity = _int(_parse_kv(toks[2], "arity", lineno), "arity", lineno)
            sat_text = _parse_kv(toks[3], "sat", lineno)
            tuples = []
            if sat_text:
                for part in sat_text.split(";"):
                    tuples.append(tuple(_ints(part, "sat", lineno)))
            with _at(lineno):
                ctypes[name] = CspType(arity, tuples, q)
        elif toks[0] == "apply" and len(toks) >= 4:
            tname = toks[1]
            var_tuple = tuple(toks[2:-1])
            with _at(lineno):
                w = parse_fraction(_parse_kv(toks[-1], "w", lineno))
            key = (tname, var_tuple)
            if key in summed:
                summed[key] += w  # duplicate application: weights add
            else:
                summed[key] = w
                order.append(key)
                first_line[key] = lineno
        else:
            raise InvalidParameterError(f"line {lineno}: bad csp record {' '.join(toks)!r}")
    apps = [(tname, var_tuple, summed[(tname, var_tuple)]) for tname, var_tuple in order]
    for app in apps:  # a ctype may follow the applications that use it
        with _at(first_line[app[:2]]):
            WeightedCspInstance(q, [], ctypes, [app])
    return WeightedCspInstance(q, variables, ctypes, apps)


# -- graphs ----------------------------------------------------------------------


def write_graph(g: SimpleGraph) -> str:
    lines = ["graph"]
    for v in g.vertices:
        lines.append(f"v {_name(v)}")
    for u, v in g.edges:
        lines.append(f"e {_name(u)} {_name(v)}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> SimpleGraph:
    lines = _content_lines(text)
    if not lines or lines[0][1] != ["graph"]:
        raise InvalidParameterError(f"{_first_line(lines)}graph file must start with a 'graph' header")
    vertices: List[str] = []
    edges: Dict[Tuple, int] = {}  # edge -> its line
    for lineno, toks in lines[1:]:
        if toks[0] == "v" and len(toks) == 2:
            vertices.append(toks[1])
        elif toks[0] == "e" and len(toks) == 3:
            with _at(lineno):
                edge = normalize_edge(toks[1], toks[2])
                if edge in edges:
                    raise InvalidParameterError(f"duplicate edge {edge!r}")
            edges[edge] = lineno
        else:
            raise InvalidParameterError(f"line {lineno}: bad graph record {' '.join(toks)!r}")
    declared = set(vertices)
    for edge, lineno in edges.items():  # a vertex may follow the edges that use it
        if not declared.issuperset(edge):
            raise InvalidParameterError(f"line {lineno}: edge {edge!r} uses unknown vertex")
    return SimpleGraph(vertices, list(edges))


# -- assignments -------------------------------------------------------------------


def write_assignment(assignment: Dict) -> str:
    lines = []
    for v in sorted(assignment, key=_name):
        label = assignment[v]
        text = label.to_hex() if isinstance(label, Gf2Vector) else str(label)
        lines.append(f"assign {_name(v)} {text}")
    return "\n".join(lines) + "\n"


# -- files --------------------------------------------------------------------------


def atomic_write_text(path: str, content: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_json(path: str, obj) -> None:
    """Strict JSON: a NaN or infinity raises ValueError rather than being written."""
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n")


__all__ = [
    "write_gug",
    "parse_gug",
    "parse_pug",
    "parse_csp",
    "write_graph",
    "parse_graph",
    "write_assignment",
    "parse_fraction",
    "atomic_write_text",
    "atomic_write_json",
]
