"""Semidefinite programming for cut values and label distributions.

Coefficient convention: each unordered index pair (i, j), i <= j, holds its
full coefficient c once, so a matrix's value at X is the sum of c * X_ij.  In
a dense block (and in SDPA text, whose inner products run over both
triangles) an off-diagonal c is halved and mirrored; ``_halved`` is the one
place that does it.  An instance flattens its objective, its constraints and
its "u" blocks' X_ii = 1 rows into one coefficient table of parallel arrays
(matrix number, i, j, coefficient) that its checks, both solvers and the SDPA
export read.  Every constraint is an equality <A_k, X> = b_k.

Every solve returns a factorization X = V^T V.  One "u" block and no given
constraint, a cut relaxation, gets coordinate-ascent "mixing" at rank
ceil(sqrt(2n))+1 on V^T held row-major, one vectorized step per DSatur colour
class on its block of rows (no objective entry joins two indices of a class,
so that is the per-vector sweep in class order), over-relaxed until a plateau
of its exact-step ascent and then exact until the plateau holds again;
everything else a primal-dual interior-point method, stopping on its residuals
and duality gap.
"""

from __future__ import annotations

import dataclasses
import functools
import heapq
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

# desk budgets, each checked before the work it bounds
DIMENSION_BUDGET = 4096  # matrix dimension n; a dense block of it holds 8 n^2 bytes, 128 MiB at the cap
LC_SIZE_BUDGET = 2048  # LC index set size
RESTART_BUDGET = 1000
ROUND_SIZE_BUDGET = 10**7  # hyperplane-rounding trials x vertices, 8 bytes each
SCHUR_BUDGET = 2**24  # constraint pairs in an interior-point Newton system
IPM_ITERATIONS = 100  # Newton steps per interior-point restart
OVER_RELAXATION = 1.5  # mixing step factor before the exact finish; sweep counts in CHANGES.md
MIXING_SWEEPS = 30_000  # sweeps of one mixing restart; degenerate weight patterns crawl, so it is generous

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

    def __repr__(self) -> str:
        return f"SymMatrix({len(self.entries)} entries)"


# -- instances ---------------------------------------------------------------


class SdpInstance:
    """Maximization SDP over a block-diagonal PSD variable, subject to
    equalities <A_k, X> = b_k given as (A_k, b_k) pairs in ``constraints``.

    ``blocks`` lists (kind, size) pairs, kind "s" for a full symmetric block,
    "u" for a symmetric one whose diagonal is 1, and "d" for a diagonal one.
    Indices are global across blocks; entries crossing two blocks or off the
    diagonal of a "d" block are rejected since the corresponding variable
    entries are structurally zero.  ``constant`` is added to every reported
    objective value.  ``objective`` and ``constraints`` are kept as given;
    everything else reads the coefficient table built once here from them
    and, after them, one X_ii = 1 row per index of a "u" block.
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
        if n > DIMENSION_BUDGET:  # before any array of the instance exists
            raise SearchBudgetError(f"matrix dimension {n} exceeds the desk budget {DIMENSION_BUDGET}")
        self.n = n
        if blocks is None:
            blocks = [("s", n)] if n else []
        blocks = [(str(kind), int(size)) for kind, size in blocks]
        for kind, size in blocks:
            if kind not in ("s", "u", "d"):
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
        # coefficient _coef[r]; constraint k reads _bounds[k-1], the "u" rows last
        mats, chain = [objective.entries] + [a.entries for a, _ in cons], itertools.chain.from_iterable
        unit = np.flatnonzero(np.array([kind == "u" for kind, _ in blocks], dtype=bool)[self._block_of])
        pairs, ones = np.fromiter(chain(chain(mats)), dtype=int).reshape(-1, 2), np.ones(len(unit))
        self._mat = np.concatenate((np.repeat(np.arange(len(mats)), [len(a) for a in mats]),
                                    len(mats) + np.arange(len(unit))))
        self._i, self._j = np.concatenate((pairs, np.column_stack((unit, unit)))).T
        self._coef = np.concatenate((np.fromiter(chain(a.values() for a in mats), dtype=float), ones))
        self._bounds = np.concatenate(([bound for _, bound in cons], ones))
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
    """Unit-diagonal relaxation of the maximum cut of a weighted graph, one "u" block.

    The objective carries -w/2 per edge pair; the constant half of the total
    weight is stored separately so reported values equal actual cut weights.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    # graph.edges and the index both follow vertex_sort_key: the pairs come sorted, each with i < j
    pairs = [(index[u], index[v]) for u, v in graph.edges]
    c = SymMatrix()
    if weights is None:
        ws = [1.0] * len(pairs)
        c.entries = dict.fromkeys(pairs, -0.5)
        constant = len(pairs) / 2
    else:
        # exact sums, so the constant does not depend on the edge order
        exact = [Fraction(weights[normalize_edge(u, v)]) for u, v in graph.edges]
        ws = [float(w) for w in exact]
        c.entries = {ij: float(-w / 2) for ij, w in zip(pairs, exact) if w}
        constant = float(sum(exact) / 2)
    n = len(graph.vertices)
    i, j = np.fromiter(itertools.chain.from_iterable(pairs), dtype=int, count=2 * len(pairs)).reshape(-1, 2).T
    meta = {"kind": "maxcut", "edges": (i, j, np.array(ws, dtype=float))}
    return SdpInstance(n, c, blocks=[("u", n)] if n else [], constant=constant, meta=meta)


# -- solver -------------------------------------------------------------------


def _seed(rng) -> int:
    """The int seed an `rng` argument other than a Generator stands for: None is 0."""
    seed = 0 if rng is None else int(rng)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    return seed


def _restart_generators(rng, restarts: int) -> Tuple[List[np.random.Generator], Optional[int]]:
    if isinstance(rng, np.random.Generator):
        seeds = rng.integers(0, 2**63 - 1, size=restarts)
        return [np.random.default_rng(int(s)) for s in seeds], None
    seed = _seed(rng)
    children = np.random.SeedSequence(seed).spawn(restarts)
    return [np.random.default_rng(c) for c in children], seed


def _halved(instance: SdpInstance) -> np.ndarray:
    """Table coefficients as a dense block holds them: off-diagonal ones halved."""
    return np.where(instance._i == instance._j, instance._coef, instance._coef / 2.0)


def _dense(instance: SdpInstance, at: Optional[np.ndarray] = None) -> np.ndarray:
    """The objective of a one-block instance, dense with pairs mirrored;
    index k at row and column at[k] when `at` is given."""
    rows = instance._mat == 0
    i, j, c = instance._i[rows], instance._j[rows], _halved(instance)[rows]
    if at is not None:
        i, j = at[i], at[j]
    out = np.zeros((instance.n, instance.n))
    out[i, j] = c
    out[j, i] = c
    return out


def _colour_classes(instance: SdpInstance) -> List[np.ndarray]:
    """DSatur colouring of the objective's off-diagonal entries (Brelaz 1979):
    the next index sees the most colours (the bits of an int), ties going to
    the most neighbours, then the least index, and takes the least colour it
    does not see.  A heap of int keys in that order, stale ones skipped, makes
    it O((n + E) log n).  A bipartite pattern with an entry gets two classes;
    a class lists its indices in ascending order."""
    n, rows = instance.n, (instance._mat == 0) & (instance._i != instance._j)
    nbrs: List[List[int]] = [[] for _ in range(n)]
    for i, j in zip(instance._i[rows].tolist(), instance._j[rows].tolist()):
        nbrs[i].append(j)
        nbrs[j].append(i)
    span = n * (1 + max(map(len, nbrs), default=0))  # key: index - neighbours n - colours seen span
    key = [i - len(adj) * n for i, adj in enumerate(nbrs)]
    heap, seen, colour = sorted(key), [0] * n, [-1] * n
    while heap:
        k = heapq.heappop(heap)
        i = k % n
        if k == key[i]:  # each key is pushed once, so this entry is live and i uncoloured
            bit = ~seen[i] & (seen[i] + 1)  # the least colour not seen
            colour[i] = bit.bit_length() - 1
            for j in nbrs[i]:
                if colour[j] < 0 and not seen[j] & bit:
                    seen[j] |= bit
                    key[j] -= span
                    heapq.heappush(heap, key[j])
    classes: List[List[int]] = [[] for _ in range(max(colour, default=-1) + 1)]
    for i, c in enumerate(colour):
        classes[c].append(i)
    return [np.array(c) for c in classes]


def _mixing(instance: SdpInstance, tol: float) -> Tuple[Callable, Callable[[float], str]]:
    """The coordinate-ascent restart and its failure message.

    Each restart runs coordinate ascent over unit vectors at rank p (the
    mixing method of Wang, Chang and Kolter, 2017), over-relaxed as in
    successive over-relaxation (Young, 1950).  The factor is held row-major,
    one row per index, class after class, so a sweep takes one vectorized step
    per colour class on a block of rows: no two indices of a class share an
    objective entry, so the step equals the per-vector sweep over the class's
    indices in ascending order.  With g_i = sum_{j != i} c_ij v_j, u_i = g_i /
    |g_i| is the exact maximizer and d = u_i - v_i; the step moves v_i to
    w = (v_i + omega d) / |v_i + omega d|, omega = OVER_RELAXATION.

    - Every step ascends.  For omega in [1, 2) and c = <u_i, v_i> < 1,
      <u_i, w> = (1 + (omega - 1)(1 - c)) / |v_i + omega d| is positive and
      <u_i, w>^2 - c^2 has the sign of omega (1 - 2c) + 2c > 0, so
      <g_i, w> > <g_i, v_i>.
    - No division near zero: |v + omega d|^2 = 1 + omega (omega - 1) |d|^2,
      at least 1.
    - The plateau measure is the exact step's ascent
      2 (|g_i| - <v_i, g_i>) = |g_i| |u_i - v_i|^2, summed in that form,
      free of cancellation; it bounds a relaxed step's ascent from above.
      The ascent is monotone, so a sweep that measures at most
      1e-13 (1 + |value|) ends a phase, and the objective is computed once,
      at the end.

    After the relaxed phase's plateau the restart continues with exact
    steps (omega = 1) until the plateau holds again, so every returned
    factor is a fixed point of the exact step to that tolerance.
    """
    n = instance.n
    p = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    classes = _colour_classes(instance)
    order = np.concatenate([np.zeros(0, dtype=int)] + classes)
    back = np.argsort(order)  # the row of each index
    cd = _dense(instance, back)
    off = cd - np.diag(np.diag(cd))
    ends = list(itertools.accumulate(map(len, classes), initial=0))

    def restart(gen: np.random.Generator) -> Tuple[np.ndarray, float, float, bool, Dict[str, int]]:
        v = gen.standard_normal((p, n))
        norms = np.linalg.norm(v, axis=0)
        norms[norms == 0] = 1.0
        v = (v / norms).T[order]
        steps = [(v[lo:hi], off[lo:hi]) for lo, hi in zip(ends, ends[1:])]
        val = float(np.vecdot(cd @ v, v).sum())
        omega = OVER_RELAXATION
        for sweeps in range(1, MIXING_SWEEPS + 1):
            gain, shrink = 0.0, omega * (omega - 1.0)
            for vs, cs in steps:
                g = cs @ v
                nrm = np.sqrt(np.vecdot(g, g))
                if nrm.min() <= 1e-15:  # a zero gradient leaves its vector as it is
                    stay = nrm <= 1e-15
                    g[stay], nrm[stay] = vs[stay], 1.0
                g /= nrm[:, None]
                d = g - vs
                dd = np.vecdot(d, d)
                gain += float(dd @ nrm)
                if omega == 1.0:
                    vs[...] = g
                else:
                    d *= omega
                    d += vs
                    np.divide(d, np.sqrt(1.0 + shrink * dd)[:, None], out=vs)
            val += gain
            converged = gain <= 1e-13 * (1.0 + abs(val))
            if converged:
                if omega == 1.0:
                    break
                omega, converged = 1.0, False  # finish with exact steps
        val = float(np.vecdot(cd @ v, v).sum())
        residual = float(np.max(np.abs(np.vecdot(v, v) - 1.0), initial=0.0))
        return v[back].T, val + instance.constant, residual, converged and residual <= tol, {"sweeps": sweeps}

    return restart, lambda residual: f"no restart reached tolerance {tol} within the sweep budget"


def _interior_point(instance: SdpInstance, tol: float) -> Tuple[Callable, Callable[[float], str]]:
    """The interior-point restart and its failure message.

    Infeasible-start primal-dual path following (Helmberg, Rendl, Vanderbei &
    Wolkowicz 1996) on max <C, X> s.t. <A_k, X> = b_k over the table's rows
    (a "u" block's X_ii = 1 among them), X psd per "s" or "u" block and >= 0
    per "d" block; the dual is min b^T y s.t. Z = sum_k y_k A_k - C psd.
    Each step takes the HKM direction with Mehrotra's predictor and corrector,
    sigma = (mu_aff / mu)^3, from the Schur complement M_kl = <A_k, X A_l W>,
    W = Z^-1, and goes 0.95 of the way to the psd boundary, at most 1.  X and
    Z are flat, block after block (symmetric blocks row-major).  A symmetric
    block adds S T S^T to M, T over pairs r, s of its entries in use (i, j):
    X_ir,is W_jr,js + X_jr,js W_ir,is + X_ir,js W_jr,is + X_jr,is W_ir,js,
    S_kr = c / 2 for constraint k's coefficient c at r; a "d" block adds
    A_d diag(x / z) A_d^T.  M covers only constraints independent of earlier
    ones.  A restart stops once the residuals are <= tol and
    |b^T y - <C, X>| <= tol max(1, |<C, X>|).
    """
    n, kcount = instance.n, len(instance._bounds)
    diagonal = np.array([kind == "d" for kind, _ in instance.blocks], dtype=bool)
    sizes = np.array([size for _, size in instance.blocks], dtype=int)
    starts = np.concatenate(([0], np.cumsum(np.where(diagonal, sizes, sizes * sizes))))
    squares = [(starts[b], starts[b + 1], sizes[b]) for b in np.flatnonzero(~diagonal)]
    # table row r sits at (i, j) of its symmetric block's row-major matrix, or at i of its "d" block
    block = instance._block_of[instance._i]
    first = np.array(instance.block_offsets, dtype=int)[block]
    i, j = instance._i - first, instance._j - first
    col = starts[block] + np.where(diagonal[block], i, i * sizes[block] + j)
    mirror = starts[block] + np.where(diagonal[block], i, j * sizes[block] + i)  # at (j, i)
    mat, coef, bounds = instance._mat, instance._coef, instance._bounds
    rows_per_block = [int(np.sum((mat > 0) & (block == b))) for b in np.flatnonzero(~diagonal)]
    if (pairs := max([kcount] + rows_per_block) ** 2) > SCHUR_BUDGET:  # M, the Gram and each block's T
        raise SearchBudgetError(f"{pairs} constraint pairs in the Newton system exceed {SCHUR_BUDGET}")
    flat = np.repeat(diagonal, np.diff(starts))  # the "d" entries of a flat iterate
    ident = np.concatenate([np.zeros(0)] + [np.eye(size).ravel() if kind != "d" else np.ones(size)
                                            for kind, size in instance.blocks])
    # each constraint's coefficients at the flat entries in use, off-diagonal ones times sqrt(1/2), so amat amat^T
    # is the Gram <A_k, A_l>; a constraint whose QR diagonal entry is below 1e-9 of its column is left out
    cons = mat > 0
    cells, at = np.unique(col[cons], return_inverse=True)
    amat = np.zeros((kcount, len(cells)))
    amat[mat[cons] - 1, at] = coef[cons] * np.where(i == j, 1.0, math.sqrt(0.5))[cons]
    gram = amat @ amat.T
    keep = np.flatnonzero(np.abs(np.linalg.qr(gram, mode="r").diagonal()) > 1e-9 * np.linalg.norm(gram, axis=0))
    amat, dense, on_d = amat[keep], amat[keep][:, flat[cells]], cells[flat[cells]]  # dense: A_d at "d" entries in use
    parts = []  # per symmetric block: its slice, the local i and j of its entries in use, and S = their c / 2
    for lo, hi, size in squares:
        on = (cells >= lo) & (cells < hi) & amat.any(axis=0)
        ib, jb = np.divmod(cells[on] - lo, size)
        parts.append((lo, hi, size, ib, jb, amat[:, on] * np.where(ib == jb, 0.5, math.sqrt(0.5))))

    def schur(x: np.ndarray, w: np.ndarray) -> np.ndarray:
        m = (dense * (x[on_d] * w[on_d])) @ dense.T
        for lo, hi, size, ib, jb, s in parts:
            xs, ws = x[lo:hi].reshape(size, size), w[lo:hi].reshape(size, size)
            xi, xj, wi, wj = xs.take(ib, 0), xs.take(jb, 0), ws.take(ib, 0), ws.take(jb, 0)
            t = xi.take(jb, 1) * wj.take(ib, 1)
            t += t.T  # numpy buffers the overlap
            t += xi.take(ib, 1) * wj.take(jb, 1)
            t += xj.take(jb, 1) * wi.take(ib, 1)
            m += s @ t @ s.T
        return m

    def apply(g: np.ndarray) -> np.ndarray:
        """<A_k, G> for the objective (k = 0), then each constraint; G symmetric."""
        return np.bincount(mat, coef * g[col], kcount + 1).astype(float, copy=False)

    def adjoint(w: np.ndarray) -> np.ndarray:
        """sum_k w_k A_k, w[0] weighing the objective: half of each coefficient at (i, j), half at (j, i)."""
        return np.bincount(np.concatenate((col, mirror)), np.tile(coef * w[mat] / 2, 2), starts[-1]).astype(float)

    def sym_product(a: np.ndarray, g: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The symmetric part of A G W, block by block."""
        out = a * g * w
        for lo, hi, size in squares:
            p = a[lo:hi].reshape(size, size) @ g[lo:hi].reshape(size, size) @ w[lo:hi].reshape(size, size)
            out[lo:hi] = ((p + p.T) / 2).ravel()
        return out

    def inverse_factors(v: np.ndarray) -> List[np.ndarray]:
        """L^-1 for each symmetric block L L^T of v."""
        return [np.linalg.inv(np.linalg.cholesky(v[lo:hi].reshape(size, size))) for lo, hi, size in squares]

    def step(v: np.ndarray, dv: np.ndarray, invs: List[np.ndarray]) -> float:
        """0.95 of the largest step along dv that keeps v positive definite, at most 1."""
        worst = float((dv[flat] / v[flat]).min(initial=0.0))
        for (lo, hi, size), inv in zip(squares, invs):  # the least eigenvalue of L^-1 dV L^-T
            worst = min(worst, np.linalg.eigvalsh(inv @ dv[lo:hi].reshape(size, size) @ inv.T)[0])
        return min(1.0, -0.95 / worst) if worst < 0 else 1.0

    def restart(gen: np.random.Generator) -> Tuple[np.ndarray, float, float, bool, Dict[str, int]]:
        x, z, y, done = ident.copy(), ident.copy(), np.zeros(kcount), False
        for (kind, size), lo, hi in zip(instance.blocks, starts, starts[1:]):
            if kind == "d":
                x[lo:hi] = 0.5 + gen.random(size)
            else:
                g = gen.standard_normal((size, size))
                x[lo:hi] += (g @ g.T).ravel() / size
        for iterations in range(IPM_ITERATIONS + 1):
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    v = apply(x)
                    rp, rd = bounds - v[1:], z - adjoint(np.concatenate(([-1.0], y)))  # b - A X, C - A^T y + Z
                    gap = abs(bounds @ y - v[0]) / max(1.0, abs(v[0]))
                    done = max(np.abs(rp).max(initial=0.0), np.abs(rd).max(initial=0.0), gap) <= tol
                    if done or iterations == IPM_ITERATIONS or not n:
                        break
                    inv_x, inv_z = inverse_factors(x), inverse_factors(z)
                    w = 1.0 / np.where(flat, z, 1.0)
                    for (lo, hi, _), inv in zip(squares, inv_z):  # W = Z^-1 as a Gram: symmetric psd
                        w[lo:hi] = (inv.T @ inv).ravel()
                    m = schur(x, w)

                    def direction(target, corr):
                        """dX, dy, dZ with A dX = r_p, A^T dy - dZ = r_d and X Z + sym(dX Z + X dZ) = target - corr."""
                        h = target * w - x + sym_product(x, rd, w) - corr
                        dy = np.zeros(kcount)
                        try:
                            dy[keep] = np.linalg.solve(m, (apply(h)[1:] - rp)[keep])
                        except np.linalg.LinAlgError:  # M singular in rounding, as at a degenerate optimum
                            dy[keep] = np.linalg.lstsq(m, (apply(h)[1:] - rp)[keep], rcond=None)[0]
                        dz = adjoint(np.concatenate(([0.0], dy))) - rd
                        return target * w - x - sym_product(x, dz, w) - corr, dy, dz

                    dx, dy, dz = direction(0.0, 0.0)
                    sigma = ((x + step(x, dx, inv_x) * dx) @ (z + step(z, dz, inv_z) * dz) / (x @ z)) ** 3
                    dx, dy, dz = direction(sigma * (x @ z) / n, sym_product(dx, dz, w))
                    primal, dual = step(x, dx, inv_x), step(z, dz, inv_z)
                    x, y, z = x + primal * dx, y + dual * dy, z + dual * dz
            except (np.linalg.LinAlgError, FloatingPointError):  # rounding broke definiteness, or divergence
                break
        factor = np.zeros((n, n))  # each block's factor: (Q sqrt(L))^T from X = Q L Q^T, or diag(sqrt(x))
        for off, (kind, size), lo, hi in zip(instance.block_offsets, instance.blocks, starts, starts[1:]):
            if kind == "d":
                part = np.diag(np.sqrt(x[lo:hi]))
            else:
                lam, q = np.linalg.eigh(x[lo:hi].reshape(size, size))
                part = (q * np.sqrt(np.maximum(lam, 0.0))).T
            factor[off : off + size, off : off + size] = part
        v = np.bincount(mat, coef * (factor.T @ factor)[instance._i, instance._j], kcount + 1).astype(float)
        residual = float(np.abs(v[1:] - bounds).max(initial=0.0))
        return factor, float(v[0]) + instance.constant, residual, done and residual <= tol, {"iterations": iterations}

    return restart, lambda residual: (f"feasibility residual {residual:.3g} above tolerance {tol}" if residual > tol
                                      else f"duality gap above {tol}") + " within the interior-point iteration budget"


def solve_sdp_lowrank(
    instance: SdpInstance, tol: float = 1e-6, restarts: int = 5, rng=0
) -> SdpSolution:
    """Best-of-restarts factorized solve; deterministic for a fixed seed.

    One "u" block (none when n = 0) and no given constraint takes the
    coordinate-ascent path at rank min(n, ceil(sqrt(2n))+1); anything else
    takes the interior-point path (_interior_point) at full rank per block.
    The best restart is the feasible one of largest value (the largest value
    when none is), the first such; only its factor is held while later
    restarts run.  `spread` is the max - min of the feasible restarts' values
    (of all when none is); it bounds nothing.  Raises ConvergenceError, with
    the best iterate attached, when no restart meets the tolerance.
    """
    if not 1 <= restarts <= RESTART_BUDGET:
        raise InvalidParameterError(f"restarts must be in 1..{RESTART_BUDGET}, got {restarts}")
    if not 0 < tol < math.inf:  # NaN too; an infinite tol would accept any iterate
        raise InvalidParameterError(f"tol must be positive and finite, got {tol}")
    gens, seed = _restart_generators(rng, restarts)
    cut = not instance.constraints and instance.blocks in ((), (("u", instance.n),))
    restart, failure = (_mixing if cut else _interior_point)(instance, tol)
    runs = []  # every restart's (value, residual, ok, counters)

    def summarized(run):  # (factor, value, residual, ok, counters)
        runs.append(run[1:])
        return run

    # max() over the lazy map holds only the best run so far while the next one is solved
    factor, value, residual, ok, _ = max(map(summarized, map(restart, gens)), key=lambda run: (run[3], run[1]))
    pool = [run[0] for run in runs if run[2]] or [run[0] for run in runs]
    stats = {key: [run[3][key] for run in runs] for key in runs[0][3]}
    sol = SdpSolution(value=value, factor=factor, residual=residual, spread=float(max(pool) - min(pool)),
                      restarts=restarts, seed=seed, instance=instance, stats=stats)
    if not ok:
        raise ConvergenceError(failure(residual), best=sol)
    return sol


# -- rounding and the symmetric cut value -------------------------------------


@functools.cache
def gw_alpha() -> float:
    """min over theta in (0, pi] of 2 theta / (pi (1 - cos theta)).

    The minimizer is the root of tan(theta / 2) = theta in [2, 2.5], found by
    bisection down to adjacent floats, once per process.
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
    if (got := solution.instance.meta.get("edges")) is None:
        raise PreconditionError("solution's instance records no edge weights (not a MaxCut relaxation)")
    return got


def gw_symmetric_value(solution: SdpSolution) -> float:
    """(alpha/2) * sum of w_ij (1 - X_ij); exactly alpha times the relaxation value."""
    i, j, w = _edge_arrays(solution)
    rows = solution.factor.T
    return float(0.5 * gw_alpha() * (w @ (1.0 - np.vecdot(rows[i], rows[j]))))


def hyperplane_round(solution: SdpSolution, rng=0, trials: int = 1000) -> Tuple[float, float]:
    """Sample mean and std of random-hyperplane cuts of the solution vectors.

    This is a numeric cross-check oracle only; a gaussian direction is drawn
    per trial and vertices split by the sign of the projection.
    """
    if trials < 1:
        raise InvalidParameterError(f"trials must be >= 1, got {trials}")
    v = solution.factor
    if trials * v.shape[1] > ROUND_SIZE_BUDGET:
        raise SearchBudgetError(f"{trials} trials of {v.shape[1]} vertices exceed {ROUND_SIZE_BUDGET}")
    i, j, w = _edge_arrays(solution)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(_seed(rng))
    h = gen.standard_normal((trials, v.shape[0]))
    side = np.matmul(v.T, h.T) >= 0  # vertex-major; a zero projection counts as positive
    cuts = w @ (side[i] != side[j])
    return float(cuts.mean()), float(cuts.std(ddof=1)) if trials > 1 else 0.0


# -- label-distribution relaxation --------------------------------------------

def build_lc_relaxation(instance: WeightedCspInstance) -> SdpInstance:
    """Vector relaxation of a weighted CSP over label vectors and distributions.

    The first block holds one vector per (variable, label); the second is
    declared diagonal ("d") and holds one nonnegative entry per (application,
    local assignment).  Gram entries of the first block are tied to marginals
    of the per-application distributions, and each distribution sums to one,
    all by equalities.  Weights are divided by the total absolute weight,
    recorded as meta["scale"], so objective values land in [-1, 1].
    The constraints are counted from the applications before any is built;
    K of them are refused when the solve would refuse K^2 pairs in its
    Newton system (``SCHUR_BUDGET``), with the solve's message.
    """
    q = instance.q
    variables = instance.variables
    var_pos = {v: i for i, v in enumerate(variables)}
    n1 = len(variables) * q
    sizes, count = [], 0
    for tname, var_tuple, _ in instance.applications:
        if len(set(var_tuple)) != len(var_tuple):
            raise InvalidParameterError(
                f"application of {tname!r} repeats a variable; scopes must be distinct"
            )
        r = len(var_tuple)
        sizes.append(q**r)
        # the norm row, then a tie per label pair a <= b of each variable and per label pair of each two
        count += 1 + r * q * (q + 1) // 2 + r * (r - 1) // 2 * q * q
    n2 = sum(sizes)
    n = n1 + n2
    if n > LC_SIZE_BUDGET:
        raise SearchBudgetError(f"index set size {n} exceeds the desk budget {LC_SIZE_BUDGET}")
    if (pairs := count**2) > SCHUR_BUDGET:  # the solve's Newton system, refused before the build
        raise SearchBudgetError(f"{pairs} constraint pairs in the Newton system exceed {SCHUR_BUDGET}")
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
        best = max((opt_val for sdp_val, opt_val in self.points if sdp_val < c), default=-math.inf)
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
    if not 1 <= restarts <= RESTART_BUDGET:  # before any solve
        raise InvalidParameterError(f"restarts must be in 1..{RESTART_BUDGET}, got {restarts}")
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
    travels in a comment since the format has no slot for it.  A "u" block is
    written as a symmetric block with its X_ii = 1 rows.
    """
    lines = [f"*constant {instance.constant!r}"]
    lines.append(f"{len(instance._bounds)}")
    lines.append(f"{len(instance.blocks)}")
    # an empty vector is written "{}": a blank line would not hold its place
    lines.append(" ".join(str(size if kind != "d" else -size) for kind, size in instance.blocks) or "{}")
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
]
