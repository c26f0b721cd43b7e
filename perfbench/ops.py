"""Ops, tasks and the clock that times them.

An op is the unit a user waits on: one instance solved, one Duplicator
round, one CLI command. A task produces one op, or one op per round for a
game. Only the program call is timed; the check of its output runs after
the clock stops.

Ops are timed on the CPU clock of the process and of the children it has
waited for, not on the wall clock; see ``cpu_clock``.

An op that raises has failed. An op whose output its check rejects is wrong,
which makes the run incorrect, unless its task is a declared ``known_fault``:
a fault of the program that shows in every pass, counted as failed instead.
"""

from __future__ import annotations

import contextlib
import resource
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional


def cpu_clock() -> float:
    """CPU seconds (user and system) of this process and of every child it
    has waited for.

    The program is single-threaded and CPU-bound, so on a core of its own an
    op's CPU time is its latency. On a virtual machine the wall clock also
    runs while the host gives the virtual CPU to other guests (steal time),
    which comes and goes with the host's load and which no change to the
    program can move; the CPU clock leaves it out. A ``cli`` op's time is
    mostly its subprocess's, which counts here once the subprocess is reaped.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Op:
    kind: str
    seconds: float
    ok: bool
    why: str = ""
    wrong: bool = False


class Task:
    """One timed call into the program and the check of what it returned.

    For a single op, ``call()`` returns the output and ``check(output)``
    returns None when it is right, else the reason. For a game, ``rounds``
    is the number of rounds, ``call(marks)`` must append ``cpu_clock()``
    to ``marks`` at the start of every round, and ``check(output)`` returns
    one verdict per round (or one reason for all of them).
    """

    def __init__(
        self, kind: str, call: Callable, check: Callable, rounds: int = 0, known_fault: bool = False
    ) -> None:
        self.kind = kind
        self.call = call
        self.check = check
        self.rounds = rounds
        self.known_fault = known_fault


def _failure(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def execute(task: Task, pause: Callable = contextlib.nullcontext) -> List[Op]:
    """Run a task and return its ops; exceptions from the program fail them."""
    if task.rounds:
        return _execute_game(task, pause)
    t0 = cpu_clock()
    try:
        out = task.call()
    except Exception as exc:  # a failing op is counted, not fatal
        return [Op(task.kind, cpu_clock() - t0, False, _failure(exc))]
    dt = cpu_clock() - t0
    with pause():
        why = task.check(out)
    return [_checked(task, dt, why)]


def _checked(task: Task, seconds: float, why: Optional[str]) -> Op:
    return Op(task.kind, seconds, why is None, why or "", why is not None and not task.known_fault)


def _execute_game(task: Task, pause: Callable) -> List[Op]:
    marks: List[float] = []
    t0 = cpu_clock()
    try:
        out = task.call(marks)
    except Exception as exc:
        share = (cpu_clock() - t0) / task.rounds
        return [Op(task.kind, share, False, _failure(exc)) for _ in range(task.rounds)]
    end = cpu_clock()
    with pause():
        verdict = task.check(out)
    if isinstance(verdict, str):
        verdicts: List[Optional[str]] = [verdict] * task.rounds
    else:
        verdicts = list(verdict) + ["round not played"] * (task.rounds - len(verdict))
    bounds = marks[: task.rounds] + [end]
    ops = []
    for r in range(task.rounds):
        dt = bounds[r + 1] - bounds[r] if r + 1 < len(bounds) else 0.0
        ops.append(_checked(task, dt, verdicts[r]))
    return ops


def spread(median_kind: List[Task], others: List[Task]) -> List[Task]:
    """Place the median kind's tasks evenly between the others, so the
    median latency samples the whole run rather than one moment of it."""
    out: List[Task] = []
    for i, task in enumerate(others):
        lo, hi = i * len(median_kind) // len(others), (i + 1) * len(median_kind) // len(others)
        out += median_kind[lo:hi] + [task]
    return out


class TimedSpoiler:
    """Spoiler for ``play_game``: lifts the pebbles in turn and places on a
    uniformly random element, and marks the clock as each round starts.

    Lifting in turn means every round after the (k-1)-th leaves k-1 pebbles
    on the board, the case the Duplicator strategies are built for.
    """

    def __init__(self, rng, marks: List[float]) -> None:
        self.rng = rng
        self.marks = marks

    def pick_up(self, view) -> int:
        self.marks.append(cpu_clock())
        return (view.round_no - 1) % view.k

    def place(self, view, gstar) -> Any:
        elements = view.A.elements()
        return elements[self.rng.randrange(len(elements))]
