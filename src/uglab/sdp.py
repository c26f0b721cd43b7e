"""Low-rank semidefinite programming for cut values and label distributions.

Coefficient convention: each unordered index pair (i, j), i <= j, holds its
full coefficient c once, so a matrix's value at X is the sum of c * X_ij.  In
a dense block (and in SDPA text, whose inner products run over both
triangles) an off-diagonal c is halved and mirrored; ``_halved`` is the one
place that does it.  An instance flattens its objective and constraints into
one coefficient table of parallel arrays (matrix number, i, j, coefficient)
that its checks, both solvers and the SDPA export read.

Solving always happens on an explicit factorization X = V^T V, never on a
full PSD matrix variable: unit-diagonal cut instances get a coordinate-ascent
"mixing" solver at rank ceil(sqrt(2n))+1, everything else an
augmented-Lagrangian ascent at full rank per symmetric block, with each
diagonal block a vector whose squares are its entries.  A mixing sweep
takes one vectorized step per colour class of indices; no objective entry
joins two indices of a class, so that is the per-column sweep in class order.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ConvergenceError,
    InvalidParameterError,
    PreconditionError,
    SearchBudgetError,
)
from .graphs import SimpleGraph, normalize_edge
from .instances import WeightedCspInstance, csp_brute_opt

# -- sparse symmetric matrices ----------------------------------------------


class SymMatrix:
    """Accumulator the builders fill; each unordered pair holds its full coefficient."""

    def __init__(self, entries: Optional[Dict[Tuple[int, int], float]] = None) -> None:
        self.entries: Dict[Tuple[int, int], float] = {}
        if entries:
            for (i, j), c in entries.items():
                self.add(i, j, c)

    @staticmethod
    def _key(i: int, j: int) -> Tuple[int, int]:
        if i < 0 or j < 0:
            raise InvalidParameterError(f"negative matrix index ({i}, {j})")
        return (i, j) if i <= j else (j, i)

    def add(self, i: int, j: int, coeff) -> None:
        key = self._key(i, j)
        c = self.entries.get(key, 0.0) + float(coeff)
        if c == 0.0:
            self.entries.pop(key, None)
        else:
            self.entries[key] = c

    def __eq__(self, other) -> bool:
        return isinstance(other, SymMatrix) and self.entries == other.entries

    def __repr__(self) -> str:
        return f"SymMatrix({len(self.entries)} entries)"


# -- instances ---------------------------------------------------------------

SENSES = ("==", "<=")


class SdpInstance:
    """Maximization SDP over a block-diagonal PSD variable.

    ``blocks`` lists (kind, size) pairs, kind "s" for a full symmetric block
    and "d" for a diagonal one.  Indices are global across blocks; entries
    crossing two blocks or off the diagonal of a "d" block are rejected since
    the corresponding variable entries are structurally zero.  ``constant``
    is added to every reported objective value.  ``objective`` and
    ``constraints`` are kept as given; everything else reads the coefficient
    table built from them once here.
    """

    def __init__(
        self,
        n: int,
        objective: SymMatrix,
        constraints: Iterable[Tuple[SymMatrix, float, str]] = (),
        blocks: Optional[Sequence[Tuple[str, int]]] = None,
        constant: float = 0.0,
        meta: Optional[Dict] = None,
    ) -> None:
        if n < 0:
            raise InvalidParameterError(f"matrix dimension must be >= 0, got {n}")
        self.n = n
        if blocks is None:
            blocks = [("s", n)] if n else []
        blocks = [(str(kind), int(size)) for kind, size in blocks]
        for kind, size in blocks:
            if kind not in ("s", "d"):
                raise InvalidParameterError(f"unknown block kind {kind!r}")
            if size < 1:
                raise InvalidParameterError(f"block size must be >= 1, got {size}")
        if sum(size for _, size in blocks) != n:
            raise InvalidParameterError("block sizes must sum to the dimension")
        self.blocks: Tuple[Tuple[str, int], ...] = tuple(blocks)
        sizes = [size for _, size in blocks]
        self.block_offsets: Tuple[int, ...] = tuple(itertools.accumulate(sizes, initial=0))[:-1]
        self._block_of = np.repeat(np.arange(len(blocks)), sizes)
        cons = []
        for a, bound, sense in constraints:
            if sense not in SENSES:
                raise InvalidParameterError(f"constraint sense must be one of {SENSES}, got {sense!r}")
            cons.append((a, float(bound), sense))
        self.objective = objective
        self.constraints: Tuple[Tuple[SymMatrix, float, str], ...] = tuple(cons)
        self.constant = float(constant)
        self.meta: Dict = dict(meta or {})
        # the coefficient table: row r is entry (_i[r], _j[r]), i <= j, of
        # matrix _mat[r] (0 the objective, k constraint k) with full
        # coefficient _coef[r]; constraint k reads _bounds[k-1], _is_le[k-1]
        mats = [objective] + [a for a, _, _ in cons]
        self._mat = np.repeat(np.arange(len(mats)), [len(a.entries) for a in mats])
        ij = np.array([key for a in mats for key in a.entries], dtype=int).reshape(-1, 2)
        self._i, self._j = ij[:, 0], ij[:, 1]
        self._coef = np.array([c for a in mats for c in a.entries.values()], dtype=float)
        self._bounds = np.array([bound for _, bound, _ in cons], dtype=float)
        self._is_le = np.array([sense == "<=" for _, _, sense in cons], dtype=bool)
        self._check_table()

    def _check_table(self) -> None:
        """Reject the first entry, in table order, that no block can hold."""
        n = self.n
        block_of = np.append(self._block_of, -1)  # -1: past the last index
        diagonal = np.array([kind == "d" for kind, _ in self.blocks] + [False])
        bi = block_of[np.minimum(self._i, n)]
        bj = block_of[np.minimum(self._j, n)]
        out = self._j >= n
        cross = bi != bj
        bad = out | cross | ((self._i != self._j) & diagonal[bi])
        if not bad.any():
            return
        r = int(np.argmax(bad))
        what = "objective" if self._mat[r] == 0 else "constraint"
        i, j = int(self._i[r]), int(self._j[r])
        if out[r]:
            raise InvalidParameterError(f"{what} index {j} out of range for dimension {n}")
        if cross[r]:
            raise InvalidParameterError(
                f"{what} entry ({i}, {j}) crosses blocks; that position is structurally zero"
            )
        raise InvalidParameterError(f"{what} entry ({i}, {j}) is off-diagonal inside a diagonal block")

    def __repr__(self) -> str:
        return (
            f"SdpInstance(n={self.n}, blocks={list(self.blocks)}, "
            f"constraints={len(self.constraints)})"
        )


@dataclasses.dataclass
class SdpSolution:
    """Factorized solution; the Gram matrix X = factor^T factor is PSD by construction."""

    value: float
    factor: np.ndarray
    residual: float
    spread: float
    restarts: int
    seed: Optional[int]
    instance: SdpInstance
    # one list per solver counter, one entry per restart
    stats: Dict[str, List[int]] = dataclasses.field(default_factory=dict)

    def gram(self) -> np.ndarray:
        return self.factor.T @ self.factor

    def result_json(self) -> Dict:
        return {
            "kind": self.instance.meta.get("kind"),
            "n": self.instance.n,
            "spread": self.spread,
            "value": self.value,
            "residual": self.residual,
            "restarts": self.restarts,
            "seed": self.seed,
            "stats": self.stats,
        }


# -- cut relaxation -----------------------------------------------------------


def build_maxcut_sdp(graph: SimpleGraph, weights: Optional[Dict] = None) -> SdpInstance:
    """Unit-diagonal relaxation of the maximum cut of a weighted graph.

    The objective carries -w/2 per edge pair; the constant half of the total
    weight is stored separately so reported values equal actual cut weights.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    wmap: Dict[Tuple[int, int], Fraction] = {}
    total = Fraction(0)
    for u, v in graph.edges:
        w = Fraction(weights[normalize_edge(u, v)]) if weights is not None else Fraction(1)
        i, j = index[u], index[v]
        if i > j:
            i, j = j, i
        wmap[(i, j)] = w
        total += w
    n = len(graph.vertices)
    c = SymMatrix()
    for (i, j), w in wmap.items():
        c.add(i, j, -Fraction(w, 2))
    cons = []
    for i in range(n):
        a = SymMatrix()
        a.add(i, i, 1.0)
        cons.append((a, 1.0, "=="))
    meta = {
        "kind": "maxcut",
        "weights": {(i, j): float(w) for (i, j), w in sorted(wmap.items())},
    }
    return SdpInstance(n, c, cons, blocks=[("s", n)] if n else [], constant=float(total / 2), meta=meta)


# -- solver -------------------------------------------------------------------


def _restart_generators(rng, restarts: int) -> Tuple[List[np.random.Generator], Optional[int]]:
    if isinstance(rng, np.random.Generator):
        seeds = rng.integers(0, 2**63 - 1, size=restarts)
        return [np.random.default_rng(int(s)) for s in seeds], None
    seed = 0 if rng is None else int(rng)
    children = np.random.SeedSequence(seed).spawn(restarts)
    return [np.random.default_rng(c) for c in children], seed


def _unit_diagonal_form(instance: SdpInstance) -> bool:
    """One "s" block and n constraints X_ii == 1, one per index."""
    n, rows = instance.n, instance._mat > 0
    i, ones = instance._i[rows], np.ones(n)
    return (
        instance.blocks == (("s", n),)
        and len(instance.constraints) == n
        and np.array_equal(instance._mat[rows], np.arange(1, n + 1))
        and not instance._is_le.any()
        and np.array_equal(instance._bounds, ones)
        and np.array_equal(i, instance._j[rows])
        and np.array_equal(instance._coef[rows], ones)
        and np.array_equal(np.sort(i), np.arange(n))
    )


def _halved(instance: SdpInstance) -> np.ndarray:
    """Table coefficients as a dense block holds them: off-diagonal ones halved."""
    return np.where(instance._i == instance._j, instance._coef, instance._coef / 2.0)


def _dense(instance: SdpInstance, b: int, stop: int) -> np.ndarray:
    """Block b of matrices 0..stop-1 (0 the objective), dense.

    Shape (stop, size) for a "d" block and (stop, size, size), pairs mirrored,
    for an "s" block, so a Frobenius product gives the sum of c * X_ij.
    """
    kind, size = instance.blocks[b]
    off = instance.block_offsets[b]
    rows = (instance._mat < stop) & (instance._block_of[instance._i] == b)
    k, i, j = instance._mat[rows], instance._i[rows] - off, instance._j[rows] - off
    c = _halved(instance)[rows]
    out = np.zeros((stop,) + (size,) * (1 if kind == "d" else 2))
    if kind == "d":
        out[k, i] = c
    else:
        out[k, i, j] = c
        out[k, j, i] = c
    return out


def _colour_classes(instance: SdpInstance) -> List[np.ndarray]:
    """Greedy colouring of the objective's off-diagonal entries, indices in
    ascending order, each taking the least colour no earlier neighbour has."""
    rows = (instance._mat == 0) & (instance._i != instance._j)
    earlier: List[List[int]] = [[] for _ in range(instance.n)]
    for i, j in zip(instance._i[rows].tolist(), instance._j[rows].tolist()):
        earlier[j].append(i)
    colour: List[int] = []
    for nbrs in earlier:
        colour.append(min(set(range(len(nbrs) + 1)) - {colour[i] for i in nbrs}))
    return [np.flatnonzero(np.array(colour) == c) for c in range(max(colour, default=-1) + 1)]


def _mixing(instance: SdpInstance, tol: float) -> Tuple[Callable, Callable[[float], str]]:
    """The coordinate-ascent restart and its failure message.

    Each restart runs coordinate-exact ascent over unit columns at rank p;
    it is monotone, so a plateau means done.  A sweep takes one vectorized
    step per colour class: no two indices of a class share an objective
    entry, so their updates read none of each other, and the step equals
    the per-column sweep over the class's indices in ascending order.
    """
    n = instance.n
    p = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    cd = _dense(instance, 0, 1)[0]
    steps = [(s, cd[:, s], np.diag(cd)[s]) for s in _colour_classes(instance)]

    def restart(gen: np.random.Generator) -> Tuple[np.ndarray, float, float, bool, Dict[str, int]]:
        v = gen.standard_normal((p, n))
        norms = np.linalg.norm(v, axis=0)
        norms[norms == 0] = 1.0
        v /= norms
        val = float(np.einsum("ij,ij->", v.T @ v, cd))
        # degenerate weight patterns crawl along nearly flat directions: a generous budget
        for sweeps in range(1, 30001):
            for s, cs, ds in steps:
                g = v @ cs - v[:, s] * ds
                nrm = np.linalg.norm(g, axis=0)
                keep = nrm > 1e-15
                v[:, s[keep]] = g[:, keep] / nrm[keep]
            new = float(np.einsum("ij,ij->", v.T @ v, cd))
            converged = abs(new - val) <= 1e-13 * (1.0 + abs(new))
            val = new
            if converged:
                break
        residual = float(np.max(np.abs(np.einsum("ij,ij->j", v, v) - 1.0)))
        return v, val + instance.constant, residual, converged and residual <= tol, {"sweeps": sweeps}

    return restart, lambda residual: f"no restart reached tolerance {tol} within the sweep budget"


def _augmented_lagrangian(instance: SdpInstance, tol: float) -> Tuple[Callable, Callable[[float], str]]:
    """The augmented-Lagrangian restart and its failure message."""
    from scipy.optimize import minimize  # imported here: it costs most of `import uglab.cli`

    n = instance.n
    diag_param = [kind == "d" for kind, _ in instance.blocks]
    kcount = len(instance.constraints)
    bvec, is_le = instance._bounds, instance._is_le

    # per block: [0] the objective piece, [1:] the (K, ...) constraint tensor
    dense = [_dense(instance, b, kcount + 1) for b in range(len(instance.blocks))]

    sizes = [size * size if not diag_param[b] else size for b, (_, size) in enumerate(instance.blocks)]
    x_offsets = list(itertools.accumulate(sizes, initial=0))

    def unpack(x: np.ndarray) -> List[np.ndarray]:
        parts = []
        for b, (_, size) in enumerate(instance.blocks):
            seg = x[x_offsets[b] : x_offsets[b + 1]]
            parts.append(seg if diag_param[b] else seg.reshape(size, size))
        return parts

    def constraint_values(parts: List[np.ndarray]) -> np.ndarray:
        c = -bvec.copy()
        for part, d, diag in zip(parts, dense, diag_param):
            c += d[1:] @ (part * part) if diag else np.einsum("kij,ij->k", d[1:], part.T @ part)
        return c

    def objective_value(parts: List[np.ndarray]) -> float:
        f = 0.0
        for part, d, diag in zip(parts, dense, diag_param):
            f += float(d[0] @ (part * part)) if diag else float(np.einsum("ij,ij->", d[0], part.T @ part))
        return f

    def restart(gen: np.random.Generator) -> Tuple[np.ndarray, float, float, bool, Dict[str, int]]:
        x0 = []
        for b, (_, size) in enumerate(instance.blocks):
            if diag_param[b]:
                x0.append(0.5 + 0.1 * gen.standard_normal(size))
            else:
                x0.append((0.4 * gen.standard_normal((size, size))).ravel())
        x = np.concatenate(x0) if x0 else np.zeros(0)
        lam = np.zeros(kcount)
        rho = 10.0
        infeas_prev = math.inf
        evaluations = 0
        for outer in range(1, 31):
            def neg_lagrangian(xv: np.ndarray):
                parts = unpack(xv)
                c = constraint_values(parts)
                w = lam + rho * c
                if is_le.any():
                    w = np.where(is_le, np.maximum(0.0, w), w)
                pen_eq = lam * c + 0.5 * rho * c * c
                pen_le = (np.maximum(0.0, lam + rho * c) ** 2 - lam * lam) / (2 * rho)
                val = objective_value(parts) - float(np.where(is_le, pen_le, pen_eq).sum())
                grads = []
                for part, d, diag in zip(parts, dense, diag_param):
                    if diag:
                        m = d[0] - np.einsum("k,kj->j", w, d[1:])
                        grads.append(-2.0 * part * m)
                    else:
                        m = d[0] - np.einsum("k,kij->ij", w, d[1:])
                        grads.append((-2.0 * (part @ m)).ravel())
                g = np.concatenate(grads) if grads else np.zeros(0)
                return -val, g

            if x.size:
                options = {"maxiter": 400, "ftol": 1e-14, "gtol": 1e-10}
                res = minimize(neg_lagrangian, x, jac=True, method="L-BFGS-B", options=options)
                x, evaluations = res.x, evaluations + int(res.nfev)
            c = constraint_values(unpack(x))
            viol = np.where(is_le, np.maximum(0.0, c), np.abs(c))
            infeas = float(viol.max()) if kcount else 0.0
            lam = np.where(is_le, np.maximum(0.0, lam + rho * c), lam + rho * c)
            if infeas <= tol:
                break
            if infeas > 0.25 * infeas_prev:
                rho = min(rho * 10.0, 1e9)
            infeas_prev = infeas
        parts = unpack(x)  # infeas above is already this x's residual
        # a block-diagonal factor, so the Gram really is the block variable
        factor = np.zeros((n, n))
        for off, (_, size), part, diag in zip(instance.block_offsets, instance.blocks, parts, diag_param):
            factor[off : off + size, off : off + size] = np.diag(part) if diag else part
        value = objective_value(parts) + instance.constant
        return factor, value, infeas, infeas <= tol, {"outer_iterations": outer, "evaluations": evaluations}

    return restart, lambda residual: (
        f"feasibility residual {residual:.3g} above tolerance {tol} after the outer budget"
    )


def solve_sdp_lowrank(
    instance: SdpInstance, tol: float = 1e-6, restarts: int = 5, rng=0
) -> SdpSolution:
    """Best-of-restarts factorized solve; deterministic for a fixed seed.

    Unit-diagonal single-block instances take the coordinate-ascent path at
    rank min(n, ceil(sqrt(2n))+1); anything else runs an augmented-Lagrangian
    ascent at full rank per symmetric block, diagonal blocks as squared
    vectors.  The best restart is the feasible one of largest value (the
    largest value when none is feasible).  `spread` is the max - min of the
    feasible restarts' values (of all restarts when none is feasible); it
    bounds nothing, the distance to the SDP optimum included.  Raises
    ConvergenceError, with the best iterate attached, when no restart meets
    the feasibility tolerance.
    """
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be >= 1, got {restarts}")
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    gens, seed = _restart_generators(rng, restarts)
    path = _mixing if _unit_diagonal_form(instance) else _augmented_lagrangian
    restart, failure = path(instance, tol)
    runs = [restart(gen) for gen in gens]  # (factor, value, residual, ok, counters)
    factor, value, residual, ok, _ = max(runs, key=lambda run: (run[3], run[1]))
    pool = [run[1] for run in runs if run[3]] or [run[1] for run in runs]
    sol = SdpSolution(
        value=value,
        factor=factor,
        residual=residual,
        spread=float(max(pool) - min(pool)),
        restarts=restarts,
        seed=seed,
        instance=instance,
        stats={key: [run[4][key] for run in runs] for key in runs[0][4]},
    )
    if not ok:
        raise ConvergenceError(failure(residual), best=sol)
    return sol


# -- rounding and the symmetric cut value -------------------------------------


@functools.lru_cache(maxsize=1)
def gw_alpha() -> float:
    """min over theta in (0, pi] of 2 theta / (pi (1 - cos theta))."""
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda t: 2.0 * t / (math.pi * (1.0 - math.cos(t))),
        bounds=(1e-12, math.pi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.fun)


def _edge_weights(solution: SdpSolution) -> Dict[Tuple[int, int], float]:
    got = solution.instance.meta.get("weights")
    if got is None:
        raise PreconditionError("solution's instance records no edge weights (not a MaxCut relaxation)")
    return {tuple(k): float(w) for k, w in got.items()}


def gw_symmetric_value(solution: SdpSolution) -> float:
    """(alpha/2) * sum of w_ij (1 - X_ij); exactly alpha times the relaxation value."""
    wmap = _edge_weights(solution)
    x = solution.gram()
    alpha = gw_alpha()
    return float(sum(0.5 * alpha * w * (1.0 - x[i, j]) for (i, j), w in wmap.items()))


def hyperplane_round(solution: SdpSolution, rng=0, trials: int = 1000) -> Tuple[float, float]:
    """Sample mean and std of random-hyperplane cuts of the solution vectors.

    This is a numeric cross-check oracle only; a gaussian direction is drawn
    per trial and vertices split by the sign of the projection.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    wmap = _edge_weights(solution)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0 if rng is None else int(rng))
    v = solution.factor
    h = gen.standard_normal((trials, v.shape[0]))
    signs = np.sign(h @ v)
    signs[signs == 0] = 1.0
    cuts = np.zeros(trials)
    for (i, j), w in sorted(wmap.items()):
        cuts += w * (signs[:, i] != signs[:, j])
    mean = float(cuts.mean())
    std = float(cuts.std(ddof=1)) if trials > 1 else 0.0
    return mean, std


# -- label-distribution relaxation --------------------------------------------

LC_SIZE_BUDGET = 2048


def build_lc_relaxation(
    instance: WeightedCspInstance, normalization: str = "weight"
) -> SdpInstance:
    """Vector relaxation of a weighted CSP over label vectors and distributions.

    The first block holds one vector per (variable, label); the second is
    declared diagonal ("d") and holds one nonnegative entry per (application,
    local assignment).  Gram entries of the first block are tied to marginals
    of the per-application distributions, and each distribution sums to one.
    Weights are scaled by a recorded normalization factor so objective values
    land in [-1, 1].
    """
    if normalization not in ("weight", "count", "none"):
        raise InvalidParameterError(f"unknown normalization {normalization!r}")
    q = instance.q
    variables = instance.variables
    var_pos = {v: i for i, v in enumerate(variables)}
    n1 = len(variables) * q
    sizes = []
    for tname, var_tuple, _ in instance.applications:
        if len(set(var_tuple)) != len(var_tuple):
            raise InvalidParameterError(
                f"application of {tname!r} repeats a variable; scopes must be distinct"
            )
        sizes.append(q ** len(var_tuple))
    n2 = sum(sizes)
    n = n1 + n2
    if n > LC_SIZE_BUDGET:
        raise SearchBudgetError(f"index set size {n} exceeds the desk budget {LC_SIZE_BUDGET}")
    mu_offsets = list(itertools.accumulate(sizes, initial=n1))[:-1] if sizes else []

    if normalization == "weight":
        scale = instance.abs_weight() or Fraction(1)
    elif normalization == "count":
        scale = Fraction(len(instance.applications) or 1)
    else:
        scale = Fraction(1)

    def vec_idx(var, label: int) -> int:
        return var_pos[var] * q + label

    objective = SymMatrix()
    constraints: List[Tuple[SymMatrix, float, str]] = []
    for t, (tname, var_tuple, w) in enumerate(instance.applications):
        ct = instance.constraint_types[tname]
        arity = len(var_tuple)
        locals_ = list(itertools.product(range(q), repeat=arity))
        wn = Fraction(w) / scale
        norm_row = SymMatrix()
        for r, f in enumerate(locals_):
            mu = mu_offsets[t] + r
            norm_row.add(mu, mu, 1.0)
            if f in ct.satisfying and wn:
                objective.add(mu, mu, wn)
        constraints.append((norm_row, 1.0, "=="))
        # marginal ties: Gram entry equals the matching distribution mass
        for p1 in range(arity):
            for p2 in range(p1, arity):
                for a in range(q):
                    bs = range(a, q) if p1 == p2 else range(q)
                    for bl in bs:
                        row = SymMatrix()
                        row.add(vec_idx(var_tuple[p1], a), vec_idx(var_tuple[p2], bl), 1.0)
                        for r, f in enumerate(locals_):
                            if f[p1] == a and f[p2] == bl:
                                row.add(mu_offsets[t] + r, mu_offsets[t] + r, -1.0)
                        constraints.append((row, 0.0, "=="))
    if len(constraints) > 40000:
        raise SearchBudgetError(f"{len(constraints)} constraints exceed the desk budget")
    blocks = ([("s", n1)] if n1 else []) + ([("d", n2)] if n2 else [])
    meta = {"kind": "lc", "scale": float(scale)}
    return SdpInstance(n, objective, constraints, blocks=blocks, constant=0.0, meta=meta)


# -- gap tables ----------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GapTable:
    """Sorted (relaxation value, exact optimum) pairs with an eta-discounted lookup."""

    points: Tuple[Tuple[float, float], ...]
    eta: float
    samples: Tuple[Tuple[float, float], ...] = ()

    def lookup(self, c: float) -> float:
        best = -math.inf
        for sdp_val, opt_val in self.points:
            if sdp_val < c and opt_val > best:
                best = opt_val
        return best - self.eta if best > -math.inf else -math.inf


def gap_curve_estimate(
    family: Sequence[WeightedCspInstance],
    eta: float,
    grid: Optional[Sequence[float]] = None,
    normalization: str = "weight",
    tol: float = 1e-6,
    restarts: int = 5,
    rng=0,
) -> GapTable:
    """Relaxation-versus-optimum table over a family, one point per instance."""
    seed = 0 if rng is None else rng
    children = (
        np.random.SeedSequence(int(seed)).spawn(len(family))
        if not isinstance(seed, np.random.Generator)
        else [seed] * len(family)
    )
    points = []
    for csp, child in zip(family, children):
        relax = build_lc_relaxation(csp, normalization=normalization)
        gen = child if isinstance(child, np.random.Generator) else np.random.default_rng(child)
        sol = solve_sdp_lowrank(relax, tol=tol, restarts=restarts, rng=gen)
        opt, _ = csp_brute_opt(csp)
        scale = Fraction(relax.meta["scale"]).limit_denominator(10**9)
        points.append((sol.value, float(opt / scale)))
    table = GapTable(points=tuple(sorted(points)), eta=float(eta))
    if grid is not None:
        samples = tuple((float(c), table.lookup(float(c))) for c in grid)
        table = dataclasses.replace(table, samples=samples)
    return table


# -- SDPA sparse text ----------------------------------------------------------


def to_sdpa(instance: SdpInstance) -> str:
    """SDPA sparse text; matrix 0 is the objective, off-diagonals are halved.

    SDPA inner products run over both triangles, so the halved entries make an
    external solver reproduce this module's values.  The objective constant
    travels in a comment since the format has no slot for it.
    """
    if instance._is_le.any():
        raise InvalidParameterError("SDPA export supports equality constraints only")
    lines = [f"*constant {instance.constant!r}"]
    lines.append(f"{len(instance._bounds)}")
    lines.append(f"{len(instance.blocks)}")
    # an empty vector is written "{}": a blank line would not hold its place
    lines.append(" ".join(str(size if kind == "s" else -size) for kind, size in instance.blocks) or "{}")
    lines.append(" ".join(repr(b) for b in instance._bounds.tolist()) or "{}")
    order = np.lexsort((instance._j, instance._i, instance._mat))
    i, j = instance._i[order], instance._j[order]
    b = instance._block_of[i]
    off = np.array(instance.block_offsets, dtype=int)[b]
    for row in zip(
        instance._mat[order].tolist(),
        (b + 1).tolist(),
        (i - off + 1).tolist(),
        (j - off + 1).tolist(),
        _halved(instance)[order].tolist(),
    ):
        lines.append("%d %d %d %d %r" % row)
    return "\n".join(lines) + "\n"


def _sdpa_number(tok: str, kind: type, lineno: int):
    try:
        return kind(tok)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise InvalidParameterError(f"line {lineno}: expected {what}, got {tok!r}") from None


def _sdpa_tokens(line: str) -> List[str]:
    return line.replace(",", " ").replace("{", " ").replace("}", " ").split()


def parse_sdpa(text: str) -> SdpInstance:
    """Inverse of to_sdpa; also accepts negative dimensions as diagonal blocks."""
    constant = 0.0
    header: List[Tuple[int, str]] = []
    entries: List[Tuple[int, List[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith('"') or line.startswith("*"):
            parts = line[1:].split()
            if parts and parts[0] == "constant":
                constant = _sdpa_number(parts[1] if len(parts) > 1 else "", float, lineno)
            continue
        if len(header) < 4:
            header.append((lineno, line))
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 5:
            raise InvalidParameterError(f"line {lineno}: malformed SDPA entry line {raw!r}")
        entries.append((lineno, parts))
    if len(header) < 4:
        raise InvalidParameterError("SDPA text is missing header lines")
    (l_m, h_m), (l_nb, h_nb), (l_dims, h_dims), (l_b, h_b) = header
    m = _sdpa_number(h_m.split()[0], int, l_m)
    nblocks = _sdpa_number(h_nb.split()[0], int, l_nb)
    dims = [_sdpa_number(tok, int, l_dims) for tok in _sdpa_tokens(h_dims)]
    if len(dims) != nblocks:
        raise InvalidParameterError(f"line {l_dims}: expected {nblocks} block sizes, got {len(dims)}")
    if 0 in dims:
        raise InvalidParameterError(f"line {l_dims}: block size must be nonzero, got 0")
    bvals = [_sdpa_number(tok, float, l_b) for tok in _sdpa_tokens(h_b)]
    if len(bvals) != m:
        raise InvalidParameterError(f"line {l_b}: expected {m} bounds, got {len(bvals)}")
    blocks = [("s", d) if d > 0 else ("d", -d) for d in dims]
    offsets = list(itertools.accumulate((s for _, s in blocks), initial=0))
    mats = [SymMatrix() for _ in range(m + 1)]
    for lineno, parts in entries:
        matno, blk, i, j = (_sdpa_number(tok, int, lineno) for tok in parts[:4])
        v = _sdpa_number(parts[4], float, lineno)
        if not 0 <= matno <= m:
            raise InvalidParameterError(f"line {lineno}: matrix number {matno} out of range")
        if not 1 <= blk <= nblocks:
            raise InvalidParameterError(f"line {lineno}: block number {blk} out of range")
        kind, size = blocks[blk - 1]
        if not (1 <= i <= size and 1 <= j <= size):
            raise InvalidParameterError(f"line {lineno}: index ({i}, {j}) outside 1..{size} of block {blk}")
        if kind == "d" and i != j:
            raise InvalidParameterError(
                f"line {lineno}: entry ({i}, {j}) is off-diagonal in diagonal block {blk}"
            )
        gi = offsets[blk - 1] + i - 1
        gj = offsets[blk - 1] + j - 1
        mats[matno].add(gi, gj, v if gi == gj else 2.0 * v)
    n = offsets[-1]
    cons = [(mats[k], bvals[k - 1], "==") for k in range(1, m + 1)]
    return SdpInstance(n, mats[0], cons, blocks=blocks, constant=constant, meta={"kind": "sdpa"})


__all__ = [
    "SymMatrix",
    "SdpInstance",
    "SdpSolution",
    "build_maxcut_sdp",
    "solve_sdp_lowrank",
    "gw_alpha",
    "gw_symmetric_value",
    "hyperplane_round",
    "build_lc_relaxation",
    "GapTable",
    "gap_curve_estimate",
    "to_sdpa",
    "parse_sdpa",
]
