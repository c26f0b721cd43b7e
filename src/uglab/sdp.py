"""Low-rank semidefinite programming for cut values and label distributions.

Symmetric matrices are stored sparsely with each unordered index pair counted
once.  The dense view halves off-diagonal entries, so Frobenius inner products
against it reproduce the sparse value.  Solving always happens on an explicit
factorization X = V^T V, never on a full PSD matrix variable: unit-diagonal
cut instances get a coordinate-ascent "mixing" solver at rank ceil(sqrt(2n))+1,
everything else an augmented-Lagrangian ascent at full rank per symmetric
block, with each diagonal block a vector whose squares are its entries.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

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
    """Sparse symmetric matrix; each unordered pair holds its full coefficient."""

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

    def get(self, i: int, j: int) -> float:
        return self.entries.get(self._key(i, j), 0.0)

    def value(self, x: np.ndarray) -> float:
        """Inner product against a dense symmetric matrix, pairs counted once."""
        return float(sum(c * x[i, j] for (i, j), c in self.entries.items()))

    def dense(self, n: int) -> np.ndarray:
        """Dense view with halved off-diagonal so <dense, X>_F = value(X)."""
        a = np.zeros((n, n))
        for (i, j), c in self.entries.items():
            if i == j:
                a[i, i] = c
            else:
                a[i, j] = c / 2.0
                a[j, i] = c / 2.0
        return a

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
    is added to every reported objective value.
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
        self._block_of = np.zeros(n, dtype=int)
        offsets = []
        off = 0
        for b, (_, size) in enumerate(blocks):
            offsets.append(off)
            self._block_of[off : off + size] = b
            off += size
        self.block_offsets: Tuple[int, ...] = tuple(offsets)
        self._check_matrix(objective, "objective")
        self.objective = objective
        cons = []
        for a, bound, sense in constraints:
            if sense not in SENSES:
                raise InvalidParameterError(f"constraint sense must be one of {SENSES}, got {sense!r}")
            self._check_matrix(a, "constraint")
            cons.append((a, float(bound), sense))
        self.constraints: Tuple[Tuple[SymMatrix, float, str], ...] = tuple(cons)
        self.constant = float(constant)
        self.meta: Dict = dict(meta or {})

    def _check_matrix(self, a: SymMatrix, what: str) -> None:
        for (i, j) in a.entries:
            if j >= self.n:
                raise InvalidParameterError(f"{what} index {j} out of range for dimension {self.n}")
            bi, bj = self._block_of[i], self._block_of[j]
            if bi != bj:
                raise InvalidParameterError(
                    f"{what} entry ({i}, {j}) crosses blocks; that position is structurally zero"
                )
            if i != j and self.blocks[bi][0] == "d":
                raise InvalidParameterError(
                    f"{what} entry ({i}, {j}) is off-diagonal inside a diagonal block"
                )

    def block_range(self, b: int) -> Tuple[int, int]:
        off = self.block_offsets[b]
        return off, off + self.blocks[b][1]

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
        "index": {str(v): i for v, i in index.items()},
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
    if len(instance.blocks) != 1 or instance.blocks[0][0] != "s":
        return False
    if len(instance.constraints) != instance.n:
        return False
    seen = set()
    for a, bound, sense in instance.constraints:
        if sense != "==" or bound != 1.0 or len(a.entries) != 1:
            return False
        ((i, j), c), = a.entries.items()
        if i != j or c != 1.0:
            return False
        seen.add(i)
    return seen == set(range(instance.n))


def _mixing_restart(cd: np.ndarray, p: int, rng: np.random.Generator) -> Tuple[np.ndarray, float, bool]:
    """Coordinate-exact ascent over unit columns; monotone, so plateaus mean done."""
    n = cd.shape[0]
    v = rng.standard_normal((p, n))
    norms = np.linalg.norm(v, axis=0)
    norms[norms == 0] = 1.0
    v /= norms
    val = float(np.einsum("ij,ij->", v.T @ v, cd))
    converged = False
    # degenerate weight patterns crawl along nearly flat directions, so the
    # sweep budget is generous; single sweeps are O(n^2 p) and cheap here
    for _ in range(30000):
        for i in range(n):
            g = v @ cd[:, i] - cd[i, i] * v[:, i]
            nrm = float(np.linalg.norm(g))
            if nrm > 1e-15:
                v[:, i] = g / nrm
        new = float(np.einsum("ij,ij->", v.T @ v, cd))
        if abs(new - val) <= 1e-13 * (1.0 + abs(new)):
            val = new
            converged = True
            break
        val = new
    return v, val, converged


def _solve_unit_diagonal(
    instance: SdpInstance, tol: float, restarts: int, rng
) -> SdpSolution:
    n = instance.n
    gens, seed = _restart_generators(rng, restarts)
    p = min(n, math.ceil(math.sqrt(2 * n)) + 1)
    cd = instance.objective.dense(n)
    best = None
    values = []
    feasible_values = []
    for gen in gens:
        v, val, converged = _mixing_restart(cd, p, gen)
        residual = float(np.max(np.abs(np.einsum("ij,ij->j", v, v) - 1.0))) if n else 0.0
        ok = converged and residual <= tol
        total = val + instance.constant
        values.append(total)
        if ok:
            feasible_values.append(total)
        if best is None or (ok, total) > (best[3], best[1]):
            best = (v, total, residual, ok)
    v, val, residual, any_ok = best
    pool = feasible_values if feasible_values else values
    spread = float(max(pool) - min(pool)) if pool else 0.0
    sol = SdpSolution(
        value=val,
        factor=v,
        residual=residual,
        spread=spread,
        restarts=restarts,
        seed=seed,
        instance=instance,
    )
    if not any_ok:
        raise ConvergenceError(
            f"no restart reached tolerance {tol} within the sweep budget", best=sol
        )
    return sol


def _solve_general(instance: SdpInstance, tol: float, restarts: int, rng) -> SdpSolution:
    from scipy.optimize import minimize  # imported here: it costs most of `import uglab.cli`

    n = instance.n
    gens, seed = _restart_generators(rng, restarts)
    diag_param = [kind == "d" for kind, _ in instance.blocks]
    kcount = len(instance.constraints)
    bvec = np.array([bound for _, bound, _ in instance.constraints])
    is_le = np.array([sense == "<=" for _, _, sense in instance.constraints])

    # per block: dense objective piece and (K, ...) constraint tensors
    cd_full = instance.objective.dense(n)
    block_data = []
    for b, (kind, size) in enumerate(instance.blocks):
        off, end = instance.block_range(b)
        if diag_param[b]:
            cpart = np.diag(cd_full[off:end, off:end]).copy()
            apart = np.zeros((kcount, size))
            for k, (a, _, _) in enumerate(instance.constraints):
                for (i, j), c in a.entries.items():
                    if i == j and off <= i < end:
                        apart[k, i - off] = c
        else:
            cpart = cd_full[off:end, off:end].copy()
            apart = np.zeros((kcount, size, size))
            for k, (a, _, _) in enumerate(instance.constraints):
                adense = apart[k]
                for (i, j), c in a.entries.items():
                    if off <= i < end and off <= j < end:
                        if i == j:
                            adense[i - off, i - off] = c
                        else:
                            adense[i - off, j - off] = c / 2.0
                            adense[j - off, i - off] = c / 2.0
        block_data.append((off, size, cpart, apart))

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
        for b, part in enumerate(parts):
            _, size, _, apart = block_data[b]
            if diag_param[b]:
                c += apart @ (part * part)
            else:
                c += np.einsum("kij,ij->k", apart, part.T @ part)
        return c

    def objective_value(parts: List[np.ndarray]) -> float:
        f = 0.0
        for b, part in enumerate(parts):
            _, _, cpart, _ = block_data[b]
            if diag_param[b]:
                f += float(cpart @ (part * part))
            else:
                f += float(np.einsum("ij,ij->", cpart, part.T @ part))
        return f

    def solve_restart(gen: np.random.Generator) -> Tuple[np.ndarray, float, float]:
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
        for _ in range(30):
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
                for b, part in enumerate(parts):
                    _, _, cpart, apart = block_data[b]
                    if diag_param[b]:
                        m = cpart - np.einsum("k,kj->j", w, apart)
                        grads.append(-2.0 * part * m)
                    else:
                        m = cpart - np.einsum("k,kij->ij", w, apart)
                        grads.append((-2.0 * (part @ m)).ravel())
                g = np.concatenate(grads) if grads else np.zeros(0)
                return -val, g

            if x.size:
                res = minimize(
                    neg_lagrangian,
                    x,
                    jac=True,
                    method="L-BFGS-B",
                    options={"maxiter": 400, "ftol": 1e-14, "gtol": 1e-10},
                )
                x = res.x
            c = constraint_values(unpack(x))
            viol = np.where(is_le, np.maximum(0.0, c), np.abs(c))
            infeas = float(viol.max()) if kcount else 0.0
            lam = np.where(is_le, np.maximum(0.0, lam + rho * c), lam + rho * c)
            if infeas <= tol:
                break
            if infeas > 0.25 * infeas_prev:
                rho = min(rho * 10.0, 1e9)
            infeas_prev = infeas
        parts = unpack(x)
        c = constraint_values(parts)
        viol = np.where(is_le, np.maximum(0.0, c), np.abs(c))
        infeas = float(viol.max()) if kcount else 0.0
        return x, objective_value(parts) + instance.constant, infeas

    best = None
    values = []
    feasible_values = []
    for gen in gens:
        x, val, infeas = solve_restart(gen)
        ok = infeas <= tol
        values.append(val)
        if ok:
            feasible_values.append(val)
        key = (ok, val)
        if best is None or key > (best[3], best[1]):
            best = (x, val, infeas, ok)
    x, val, infeas, ok = best

    # assemble a block-diagonal factor so the Gram really is the block variable
    factor = np.zeros((n, n))
    for b, part in enumerate(unpack(x)):
        off, size, _, _ = block_data[b]
        factor[off : off + size, off : off + size] = np.diag(part) if diag_param[b] else part
    pool = feasible_values if feasible_values else values
    spread = float(max(pool) - min(pool)) if pool else 0.0
    sol = SdpSolution(
        value=val,
        factor=factor,
        residual=infeas,
        spread=spread,
        restarts=restarts,
        seed=seed,
        instance=instance,
    )
    if not ok:
        raise ConvergenceError(
            f"feasibility residual {infeas:.3g} above tolerance {tol} after the outer budget",
            best=sol,
        )
    return sol


def solve_sdp_lowrank(
    instance: SdpInstance, tol: float = 1e-6, restarts: int = 5, rng=0
) -> SdpSolution:
    """Best-of-restarts factorized solve; deterministic for a fixed seed.

    Unit-diagonal single-block instances take the coordinate-ascent path at
    rank min(n, ceil(sqrt(2n))+1); anything else runs an augmented-Lagrangian
    ascent at full rank per symmetric block, diagonal blocks as squared
    vectors.  `spread` is the max - min of the feasible restarts' values (of
    all restarts when none is feasible); it bounds nothing, the distance to
    the SDP optimum included.  Raises ConvergenceError, with the best iterate
    attached, when no restart meets the feasibility tolerance.
    """
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be >= 1, got {restarts}")
    if tol <= 0:
        raise InvalidParameterError(f"tol must be positive, got {tol}")
    if instance.n == 0:
        _, seed = _restart_generators(rng, 1)
        return SdpSolution(
            value=instance.constant,
            factor=np.zeros((0, 0)),
            residual=0.0,
            spread=0.0,
            restarts=restarts,
            seed=seed,
            instance=instance,
        )
    if _unit_diagonal_form(instance):
        return _solve_unit_diagonal(instance, tol, restarts, rng)
    return _solve_general(instance, tol, restarts, rng)


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


def _edge_weights(solution: SdpSolution, weights: Optional[Dict]) -> Dict[Tuple[int, int], float]:
    if weights is not None:
        return {SymMatrix._key(i, j): float(w) for (i, j), w in weights.items()}
    got = solution.instance.meta.get("weights")
    if got is None:
        raise PreconditionError("solution's instance records no edge weights; pass them explicitly")
    return {tuple(k): float(w) for k, w in got.items()}


def gw_symmetric_value(solution: SdpSolution, weights: Optional[Dict] = None) -> float:
    """(alpha/2) * sum of w_ij (1 - X_ij); exactly alpha times the relaxation value."""
    wmap = _edge_weights(solution, weights)
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
    wmap = _edge_weights(solution, None)
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
    meta = {
        "kind": "lc",
        "scale": float(scale),
        "normalization": normalization,
        "q": q,
        "variables": [str(v) for v in variables],
        "mu_offsets": list(mu_offsets),
    }
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
    for _, _, sense in instance.constraints:
        if sense != "==":
            raise InvalidParameterError("SDPA export supports equality constraints only")
    lines = [f"*constant {instance.constant!r}"]
    lines.append(f"{len(instance.constraints)}")
    lines.append(f"{len(instance.blocks)}")
    lines.append(" ".join(str(size if kind == "s" else -size) for kind, size in instance.blocks))
    lines.append(" ".join(repr(b) for _, b, _ in instance.constraints) or "")

    def local(i: int) -> Tuple[int, int]:
        b = int(instance._block_of[i])
        return b, i - instance.block_offsets[b]

    def emit(matno: int, a: SymMatrix) -> None:
        for (i, j) in sorted(a.entries):
            c = a.entries[(i, j)]
            b, li = local(i)
            _, lj = local(j)
            v = c if i == j else c / 2.0
            lines.append(f"{matno} {b + 1} {li + 1} {lj + 1} {v!r}")

    emit(0, instance.objective)
    for k, (a, _, _) in enumerate(instance.constraints, start=1):
        emit(k, a)
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
