"""Checks of the program's outputs against computations made apart from it.

Every check returns None when the output is right and a short reason when it
is not. Recomputations here read only the instances' data (bundle sets,
permutations, weights, edge lists) and never call the solver they check;
the one exception is the re-evaluation of witnesses with ``evaluate``, which
is a different code path from the search that produced them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

TOL = 1e-6  # SDP values are floats solved to a 1e-6 feasibility tolerance
LC_TOL = 1e-4  # the tolerance the acceptance suite uses for LC bounds


# -- exact layer --------------------------------------------------------------


def group_satisfied(instance, witness: Dict) -> int:
    """Satisfied bundles of a group instance, from its bundle sets alone."""
    count = 0
    for u, v, diffs in instance.bundles:
        if (witness[u].bits ^ witness[v].bits) in {z.bits for z in diffs}:
            count += 1
    return count


def check_group_opt(result, instance, expected: int, evaluate) -> Optional[str]:
    """Optimum count equals the known optimum, fraction and witness agree."""
    count, frac, witness = result
    if count != expected:
        return f"optimum {count}, expected {expected}"
    total = sum(len(diffs) for _, _, diffs in instance.bundles)
    if frac != Fraction(count, total):
        return f"fraction {frac} does not match {count}/{total}"
    missing = [v for v in instance.vertices if v not in witness]
    if missing:
        return f"witness misses {len(missing)} vertices"
    if group_satisfied(instance, witness) != count:
        return "witness does not satisfy the claimed count"
    if tuple(evaluate(instance, witness)) != (count, frac):
        return "witness re-evaluates to another count"
    return None


def lifted_satisfied(base, witness: Dict) -> int:
    """Satisfied constraints of the label lift, from the base bundles: copy
    (u, g1) and copy (v, g2) must differ by z + g1 + g2 for some z."""
    count = 0
    for u, v, diffs in base.bundles:
        zs = {z.bits for z in diffs}
        for g1 in range(base.q):
            for g2 in range(base.q):
                if witness[(u, g1)].bits ^ witness[(v, g2)].bits ^ g1 ^ g2 in zs:
                    count += 1
    return count


def check_lifted_opt(result, base, expected: Fraction) -> Optional[str]:
    """Lifted optimum equals the base optimum and its witness attains it."""
    best, frac, witness = result
    if frac != expected:
        return f"lifted value {frac}, expected the base optimum {expected}"
    total = sum(len(diffs) for _, _, diffs in base.bundles) * base.q * base.q
    if frac != Fraction(best, total):
        return f"fraction {frac} does not match {best}/{total}"
    if lifted_satisfied(base, witness) != best:
        return "lifted witness does not satisfy the claimed count"
    return None


def check_perm_opt(result, instance, expected: int) -> Optional[str]:
    count, frac, witness = result
    if count != expected:
        return f"optimum {count}, expected {expected}"
    got = sum(1 for u, v, perm in instance.constraints if witness[u] == perm[witness[v]])
    if got != count:
        return "witness does not satisfy the claimed count"
    if frac != Fraction(count, len(instance.constraints)):
        return f"fraction {frac} does not match {count}/{len(instance.constraints)}"
    return None


def csp_value(csp, assignment: Dict) -> Fraction:
    total = Fraction(0)
    for tname, scope, w in csp.applications:
        if tuple(assignment[x] for x in scope) in csp.constraint_types[tname].satisfying:
            total += w
    return total


def csp_optimum(csp) -> Fraction:
    """Maximum weight by plain enumeration of every assignment."""
    best = None
    for values in itertools.product(range(csp.q), repeat=len(csp.variables)):
        val = csp_value(csp, dict(zip(csp.variables, values)))
        if best is None or val > best:
            best = val
    return best if best is not None else Fraction(0)


def check_csp_opt(result, csp, expected: Fraction) -> Optional[str]:
    value, witness = result
    if value != expected:
        return f"optimum {value}, enumeration gives {expected}"
    if csp_value(csp, witness) != value:
        return "witness does not reach the claimed weight"
    return None


# -- game layer ---------------------------------------------------------------


def bundle_sets(instance) -> Dict[frozenset, frozenset]:
    """Allowed differences per unordered pair of vertex names."""
    return {
        frozenset((str(u), str(v))): frozenset(z.bits for z in diffs)
        for u, v, diffs in instance.bundles
    }


def _allowed(sets: Dict, x: Tuple[str, int], y: Tuple[str, int]) -> frozenset:
    (u, g), (v, h) = x, y
    if u == v:
        return frozenset()
    return frozenset(z ^ g ^ h for z in sets.get(frozenset((u, v)), ()))


def partial_isomorphism(pairs: Sequence[Tuple], sets1: Dict, sets2: Dict) -> bool:
    """Pebbled pairs ((u, g), (v, h)) of lifted elements map injectively and
    keep every allowed-difference set between the two lifts."""
    for (a1, b1), (a2, b2) in itertools.combinations(pairs, 2):
        if (a1 == a2) != (b1 == b2):
            return False
        if a1 != a2 and _allowed(sets1, a1, a2) != _allowed(sets2, b1, b2):
            return False
    return True


def _element(pair: Sequence) -> Tuple[str, int]:
    return (str(pair[0]), int(pair[1], 16))


def check_transcript(transcript: Dict, u1, u2, k: int, rounds: int) -> List[Optional[str]]:
    """One verdict per round: the board after each placement is a partial
    isomorphism, and the Duplicator survives every round."""
    sets1, sets2 = bundle_sets(u1), bundle_sets(u2)
    played = transcript["rounds"]
    pebbles: List[Optional[Tuple]] = [None] * k
    verdicts: List[Optional[str]] = []
    for entry in played:
        place = entry["placement"]
        pebbles[entry["picked"]] = (_element(place["a"]), _element(place["b"]))
        if not partial_isomorphism([p for p in pebbles if p is not None], sets1, sets2):
            verdicts.append(f"round {entry['round']}: board is not a partial isomorphism")
        elif not entry["ok"]:
            verdicts.append(f"round {entry['round']}: engine reported a failed check")
        else:
            verdicts.append(None)
    if transcript["winner"] is not None or transcript["survived"] != rounds or len(played) != rounds:
        reason = f"Duplicator survived {transcript['survived']} of {rounds} rounds"
        verdicts = [v or reason for v in verdicts] + [reason] * (rounds - len(verdicts))
    return verdicts


def check_no_line(line) -> Optional[str]:
    return None if line is None else f"found a winning line of {len(line)} moves"


def check_identity_line(line, u1, u2, k: int) -> Optional[str]:
    """Replaying the line against the identity bijection (b = a) fails the
    partial-isomorphism check on its last move and not before."""
    if not line:
        return "no winning line against the identity strategy"
    sets1, sets2 = bundle_sets(u1), bundle_sets(u2)
    pebbles: List[Optional[Tuple]] = [None] * k
    for i, (slot, (v, g)) in enumerate(line):
        element = (str(v), g.bits)
        pebbles[slot] = (element, element)
        ok = partial_isomorphism([p for p in pebbles if p is not None], sets1, sets2)
        if ok == (i == len(line) - 1):
            return f"line replays to {'a pass' if ok else 'a failure'} at move {i + 1}"
    return None


# -- relaxation layer -----------------------------------------------------------


def laplacian_bound(n: int, edges: Iterable[Tuple[int, int]]) -> float:
    """(n/4) * lambda_max(L), an upper bound on the max cut and on its SDP."""
    lap = np.zeros((n, n))
    for i, j in edges:
        lap[i, i] += 1
        lap[j, j] += 1
        lap[i, j] -= 1
        lap[j, i] -= 1
    return n / 4.0 * float(np.linalg.eigvalsh(lap)[-1])


def best_rounded_cut(factor: np.ndarray, edges: Sequence[Tuple[int, int]], rng, trials: int) -> float:
    """Largest cut among random hyperplanes through the solution vectors."""
    signs = np.sign(rng.standard_normal((trials, factor.shape[0])) @ factor)
    signs[signs == 0] = 1.0
    e = np.asarray(edges)
    return float((signs[:, e[:, 0]] != signs[:, e[:, 1]]).sum(axis=1).max())


def maxcut_brute(n: int, edges: Sequence[Tuple[int, int]]) -> int:
    """Exact max cut by enumeration with vertex 0 fixed on one side."""
    sides = np.arange(1 << (n - 1), dtype=np.int64) << 1
    cut = np.zeros(sides.shape, dtype=np.int32)
    for i, j in edges:
        cut += ((sides >> i) ^ (sides >> j)) & 1
    return int(cut.max())


def check_maxcut(out, n: int, edges, rng, brute: Optional[int] = None) -> Optional[str]:
    """SDP value between the best rounded cut and the eigenvalue bound; the
    rounding mean and the symmetric bound below the exact max cut."""
    value, factor, round_mean, gw_symmetric = out
    rounded = best_rounded_cut(factor, edges, rng, 200)
    if value < rounded - TOL:
        return f"SDP value {value:.6f} below a rounded cut {rounded}"
    bound = laplacian_bound(n, edges)
    if value > bound + TOL:
        return f"SDP value {value:.6f} above the eigenvalue bound {bound:.6f}"
    if round_mean > value + TOL:
        return f"rounding mean {round_mean:.6f} above the SDP value {value:.6f}"
    if brute is not None:
        if value < brute - LC_TOL:
            return f"SDP value {value:.6f} below the max cut {brute}"
        if gw_symmetric > brute + LC_TOL:
            return f"symmetric value {gw_symmetric:.6f} above the max cut {brute}"
    return None


def abs_weight(csp) -> Fraction:
    return sum((abs(w) for _, _, w in csp.applications), Fraction(0))


def check_lc(value: float, csp, optimum: Fraction) -> Optional[str]:
    """The relaxation bounds the normalized optimum from above."""
    target = float(optimum / abs_weight(csp))
    if value < target - LC_TOL:
        return f"LC value {value:.6f} below the normalized optimum {target:.6f}"
    return None


def check_value(value: float, expected: float) -> Optional[str]:
    if abs(value - expected) > LC_TOL:
        return f"value {value:.6f}, expected {expected}"
    return None


def check_gap(table, optima: Sequence[float]) -> Optional[str]:
    """Each point's optimum is the enumerated one and lookups are monotone."""
    got, want = sorted(opt for _, opt in table.points), sorted(optima)
    if len(got) != len(want) or any(not math.isclose(a, b, abs_tol=1e-9) for a, b in zip(got, want)):
        return f"gap table optima {got} differ from the enumerated {want}"
    if not table.samples:
        return "gap table has no samples"
    for (c1, a), (c2, b) in zip(table.samples, table.samples[1:]):
        if a > b + 1e-12:
            return f"lookup falls from {a} at {c1} to {b} at {c2}"
    return None


# -- command line ----------------------------------------------------------------


def check_fields(doc: Dict, expected: Dict) -> Optional[str]:
    for key, want in expected.items():
        if doc.get(key) != want:
            return f"{key} is {doc.get(key)!r}, expected {want!r}"
    return None


def check_cli_maxcut(doc: Dict, n: int, edges) -> Optional[str]:
    if doc.get("round_mean") is None or doc["value"] < doc["round_mean"] - TOL:
        return f"maxcut value {doc.get('value')} below its rounding mean {doc.get('round_mean')}"
    bound = laplacian_bound(n, edges)
    if doc["value"] > bound + TOL:
        return f"maxcut value {doc['value']} above the eigenvalue bound {bound}"
    return None


def count_records(text: str, record: str) -> int:
    return sum(1 for line in text.splitlines() if line.split()[:1] == [record])
