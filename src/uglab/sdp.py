"""Low-rank semidefinite programming for cut values and label distributions.

Coefficient convention: each unordered index pair (i, j), i <= j, holds its
full coefficient c once, so a matrix's value at X is the sum of c * X_ij.  In
a dense block (and in SDPA text, whose inner products run over both
triangles) an off-diagonal c is halved and mirrored; ``_halved`` is the one
place that does it.  An instance flattens its objective and constraints into
one coefficient table of parallel arrays (matrix number, i, j, coefficient)
that its checks, both solvers and the SDPA export read.  Every constraint
is an equality <A_k, X> = b_k.

Solving always happens on an explicit factorization X = V^T V, never on a
full PSD matrix variable: unit-diagonal cut instances get a coordinate-ascent
"mixing" solver at rank ceil(sqrt(2n))+1, everything else an
augmented-Lagrangian ascent at full rank per symmetric block, with each
diagonal block's entries held directly as variables bounded below by 0.  A
mixing sweep takes one vectorized step per colour class of indices; no
objective entry joins two indices of a class, so that is the per-column sweep
in class order.
"""

from __future__ import annotations

import dataclasses
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


class SdpInstance:
    """Maximization SDP over a block-diagonal PSD variable, subject to
    equalities <A_k, X> = b_k given as (A_k, b_k) pairs in ``constraints``.

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
        constraints: Iterable[Tuple[SymMatrix, float]] = (),
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
        for con in constraints:
            if not (isinstance(con, tuple) and len(con) == 2 and isinstance(con[0], SymMatrix)):
                raise InvalidParameterError(f"a constraint must be a (matrix, bound) pair, got {con!r}")
            cons.append((con[0], float(con[1])))
        self.objective = objective
        self.constraints: Tuple[Tuple[SymMatrix, float], ...] = tuple(cons)
        self.constant = float(constant)
        self.meta: Dict = dict(meta or {})
        # the coefficient table: row r is entry (_i[r], _j[r]), i <= j, of
        # matrix _mat[r] (0 the objective, k constraint k) with full
        # coefficient _coef[r]; constraint k reads _bounds[k-1]
        mats = [objective] + [a for a, _ in cons]
        self._mat = np.repeat(np.arange(len(mats)), [len(a.entries) for a in mats])
        ij = np.array([key for a in mats for key in a.entries], dtype=int).reshape(-1, 2)
        self._i, self._j = ij[:, 0], ij[:, 1]
        self._coef = np.array([c for a in mats for c in a.entries.values()], dtype=float)
        self._bounds = np.array([bound for _, bound in cons], dtype=float)
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
    pairs = [tuple(sorted((index[u], index[v]))) for u, v in graph.edges]
    c = SymMatrix()
    if weights is None:
        wmap = dict.fromkeys(pairs, 1.0)
        c.entries = dict.fromkeys(pairs, -0.5)
        constant = len(pairs) / 2
    else:
        # exact sums, so the constant does not depend on the edge order
        ws = [Fraction(weights[normalize_edge(u, v)]) for u, v in graph.edges]
        wmap = {ij: float(w) for ij, w in zip(pairs, ws)}
        c.entries = {ij: float(-w / 2) for ij, w in zip(pairs, ws) if w}
        constant = float(sum(ws) / 2)
    n = len(graph.vertices)
    cons = [(SymMatrix({(i, i): 1.0}), 1.0) for i in range(n)]
    meta = {"kind": "maxcut", "weights": dict(sorted(wmap.items()))}
    return SdpInstance(n, c, cons, blocks=[("s", n)] if n else [], constant=constant, meta=meta)


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
        and np.array_equal(instance._bounds, ones)
        and np.array_equal(i, instance._j[rows])
        and np.array_equal(instance._coef[rows], ones)
        and np.array_equal(np.sort(i), np.arange(n))
    )


def _halved(instance: SdpInstance) -> np.ndarray:
    """Table coefficients as a dense block holds them: off-diagonal ones halved."""
    return np.where(instance._i == instance._j, instance._coef, instance._coef / 2.0)


def _dense(instance: SdpInstance) -> np.ndarray:
    """The objective of a one-"s"-block instance, dense with pairs mirrored."""
    rows = instance._mat == 0
    i, j, c = instance._i[rows], instance._j[rows], _halved(instance)[rows]
    out = np.zeros((instance.n, instance.n))
    out[i, j] = c
    out[j, i] = c
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
    cd = _dense(instance)
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
    """The augmented-Lagrangian restart and its failure message.

    The unknowns x hold, block after block, a square factor P of each "s"
    block (row-major) and the entries mu >= 0 of each "d" block.  With each P
    replaced by its Gram P^T P, x becomes z, and one sparse map A (row k:
    matrix k's coefficients at z's positions) gives every matrix value as A z.
    """
    # imported here: only this path needs scipy, whose import would otherwise
    # slow every run of the mixing method and of the exact solvers
    from scipy.optimize import minimize
    from scipy.sparse import csr_matrix

    n, kcount = instance.n, len(instance.constraints)
    diagonal = np.array([kind == "d" for kind, _ in instance.blocks], dtype=bool)
    sizes = np.array([size for _, size in instance.blocks], dtype=int)
    lengths = np.where(diagonal, sizes, sizes * sizes)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    squares = [(starts[b], starts[b + 1], sizes[b]) for b in np.flatnonzero(~diagonal)]
    # table row r sits at (i, j) of its "s" block's row-major Gram, or at i of its "d" block
    b = instance._block_of[instance._i]
    first = np.array(instance.block_offsets, dtype=int)[b]
    i, j = instance._i - first, instance._j - first
    col = starts[b] + np.where(diagonal[b], i, i * sizes[b] + j)
    amap = csr_matrix((instance._coef, (instance._mat, col)), shape=(kcount + 1, starts[-1]))
    amap_t = amap.T.tocsr()
    bounds = [(0.0, None) if diag else (None, None) for diag, m in zip(diagonal, lengths) for _ in range(m)]

    def values(x: np.ndarray) -> np.ndarray:
        """A z: the objective, then each constraint's value minus its bound."""
        z = x.copy()
        for lo, hi, size in squares:
            p = x[lo:hi].reshape(size, size)
            z[lo:hi] = (p.T @ p).ravel()
        v = amap @ z
        v[1:] -= instance._bounds
        return v

    def restart(gen: np.random.Generator) -> Tuple[np.ndarray, float, float, bool, Dict[str, int]]:
        x0 = []
        for kind, size in instance.blocks:
            if kind == "d":
                x0.append((0.5 + 0.1 * gen.standard_normal(size)) ** 2)
            else:
                x0.append((0.4 * gen.standard_normal((size, size))).ravel())
        x = np.concatenate(x0) if x0 else np.zeros(0)
        lam = np.zeros(kcount)
        rho = 10.0
        infeas_prev = math.inf
        evaluations = 0
        for outer in range(1, 31):
            def neg_lagrangian(xv: np.ndarray):
                v = values(xv)
                c = v[1:]
                w = lam + rho * c
                val = v[0] - float((lam * c + 0.5 * rho * c * c).sum())
                # d val / d z, then through each Gram: d <M, P^T P> / d P = P (M + M^T)
                g = amap_t @ np.concatenate(([1.0], -w))
                for lo, hi, size in squares:
                    m = g[lo:hi].reshape(size, size)
                    g[lo:hi] = (xv[lo:hi].reshape(size, size) @ (m + m.T)).ravel()
                return -val, -g

            if x.size:
                options = {"maxiter": 400, "ftol": 1e-14, "gtol": 1e-10}
                res = minimize(neg_lagrangian, x, jac=True, method="L-BFGS-B", bounds=bounds, options=options)
                x, evaluations = res.x, evaluations + int(res.nfev)
            v = values(x)
            c = v[1:]
            infeas = float(np.abs(c).max()) if kcount else 0.0
            lam = lam + rho * c
            if infeas <= tol:
                break
            if infeas > 0.25 * infeas_prev:
                rho = min(rho * 10.0, 1e9)
            infeas_prev = infeas
        # a block-diagonal factor, so the Gram really is the block variable
        factor = np.zeros((n, n))
        for off, (kind, size), lo, hi in zip(instance.block_offsets, instance.blocks, starts, starts[1:]):
            seg = x[lo:hi]
            part = np.diag(np.sqrt(seg)) if kind == "d" else seg.reshape(size, size)
            factor[off : off + size, off : off + size] = part
        value = float(v[0]) + instance.constant  # v and infeas above are this x's
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
    ascent at full rank per symmetric block, diagonal blocks as nonnegative
    bounded vectors.  The best restart is the feasible one of largest value (the
    largest value when none is feasible).  `spread` is the max - min of the
    feasible restarts' values (of all restarts when none is feasible); it
    bounds nothing, the distance to the SDP optimum included.  Raises
    ConvergenceError, with the best iterate attached, when no restart meets
    the feasibility tolerance.
    """
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be >= 1, got {restarts}")
    if not 0 < tol < math.inf:  # NaN too; an infinite tol would accept any iterate
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
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


def gw_alpha() -> float:
    """min over theta in (0, pi] of 2 theta / (pi (1 - cos theta)).

    The minimizer is the root of tan(theta / 2) = theta in [2, 2.5], found by
    bisection down to adjacent floats.
    """
    lo, hi = 2.0, 2.5
    while lo < (mid := (lo + hi) / 2) < hi:
        if math.tan(mid / 2) < mid:
            lo = mid
        else:
            hi = mid
    return 2.0 * lo / (math.pi * (1.0 - math.cos(lo)))


def _edge_arrays(solution: SdpSolution) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Endpoints i < j and weights of the relaxed graph's edges, in sorted order."""
    got = solution.instance.meta.get("weights")
    if got is None:
        raise PreconditionError("solution's instance records no edge weights (not a MaxCut relaxation)")
    pairs = sorted(got.items())
    ij = np.array([key for key, _ in pairs], dtype=int).reshape(-1, 2)
    return ij[:, 0], ij[:, 1], np.array([w for _, w in pairs], dtype=float)


def gw_symmetric_value(solution: SdpSolution) -> float:
    """(alpha/2) * sum of w_ij (1 - X_ij); exactly alpha times the relaxation value."""
    i, j, w = _edge_arrays(solution)
    return float(0.5 * gw_alpha() * (w @ (1.0 - solution.gram()[i, j])))


def hyperplane_round(solution: SdpSolution, rng=0, trials: int = 1000) -> Tuple[float, float]:
    """Sample mean and std of random-hyperplane cuts of the solution vectors.

    This is a numeric cross-check oracle only; a gaussian direction is drawn
    per trial and vertices split by the sign of the projection.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    i, j, w = _edge_arrays(solution)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(0 if rng is None else int(rng))
    v = solution.factor
    h = gen.standard_normal((trials, v.shape[0]))
    side = h @ v >= 0  # a zero projection counts as positive
    cuts = (side[:, i] != side[:, j]) @ w
    mean = float(cuts.mean())
    std = float(cuts.std(ddof=1)) if trials > 1 else 0.0
    return mean, std


# -- label-distribution relaxation --------------------------------------------

LC_SIZE_BUDGET = 2048


def build_lc_relaxation(instance: WeightedCspInstance) -> SdpInstance:
    """Vector relaxation of a weighted CSP over label vectors and distributions.

    The first block holds one vector per (variable, label); the second is
    declared diagonal ("d") and holds one nonnegative entry per (application,
    local assignment).  Gram entries of the first block are tied to marginals
    of the per-application distributions, and each distribution sums to one,
    all by equalities.  Weights are divided by the total absolute weight,
    recorded as meta["scale"], so objective values land in [-1, 1].
    """
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
    scale = instance.abs_weight() or Fraction(1)

    def vec_idx(var, label: int) -> int:
        return var_pos[var] * q + label

    objective = SymMatrix()
    constraints: List[Tuple[SymMatrix, float]] = []
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
        constraints.append((norm_row, 1.0))
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
                        constraints.append((row, 0.0))
    if len(constraints) > 40000:
        raise SearchBudgetError(f"{len(constraints)} constraints exceed the desk budget")
    blocks = ([("s", n1)] if n1 else []) + ([("d", n2)] if n2 else [])
    meta = {"kind": "lc", "scale": scale}
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
    tol: float = 1e-6,
    restarts: int = 5,
    rng=0,
) -> GapTable:
    """Weight-normalized relaxation-versus-optimum table over a family, one
    point per instance, instance i solved with generator i of
    _restart_generators(rng, len(family)).  eta must be >= 0: lookup
    discounts the optimum by it, and a negative eta would report more than
    every measured optimum.  eta and the grid points must be finite, as
    JSON needs."""
    if not eta >= 0:  # NaN too
        raise InvalidParameterError(f"eta must be >= 0, got {eta}")
    if eta == math.inf:
        raise InvalidParameterError(f"eta must be finite, got {eta}")
    for c in grid or ():
        if not math.isfinite(c):
            raise InvalidParameterError(f"grid points must be finite, got {c}")
    gens, _ = _restart_generators(rng, len(family))
    points = []
    for csp, gen in zip(family, gens):
        relax = build_lc_relaxation(csp)
        sol = solve_sdp_lowrank(relax, tol=tol, restarts=restarts, rng=gen)
        opt, _ = csp_brute_opt(csp)
        points.append((sol.value, float(opt / relax.meta["scale"])))
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
    cons = [(mats[k], bvals[k - 1]) for k in range(1, m + 1)]
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
