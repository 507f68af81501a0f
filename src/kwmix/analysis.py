"""Functional-inequality machinery over exact kernels.

Dirichlet form, entropy, and their ratio (whose infimum over nonnegative
non-constant functions is the chain's log-Sobolev constant). Every ratio
evaluated at a valid witness is an upper bound on that constant, so a
multi-start descent that drives the ratio down is a falsification
harness for claimed lower bounds: finding a witness below a claimed
bound would disprove it, and failing to find one is evidence in favor.
`paper_alpha_floor` is the claimed bound that applies to a chain, and
`chain_rule_check` tests the conditional-entropy chain rule on random
functions.

Entropy and the Dirichlet form use natural log and the 0*log(0) = 0
convention; reported sums run through math.fsum so the tight acceptance
tolerances are not eaten by accumulation error. lsc_search runs its
restarts as the rows of one numpy L-BFGS (Liu and Nocedal, 1989), whose
objective takes only sparse matvecs and row-wise ufunc reductions: no
BLAS call, so no BLAS thread pool, and a row's result does not depend on
the rows beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .chains import ChainSpec, Kernel, _tuple_states
from .errors import InvariantViolation
from .rng import make_rng

# Kernels with at most this many states take the dense eigvalsh path in
# spectral_gap; there both solvers take a few milliseconds.
DENSE_GAP_STATES = 200
# largest detailed-balance violation spectral_gap accepts as reversible
GAP_REVERSIBILITY_TOL = 1e-9


def _fsum(values: np.ndarray) -> float:
    return math.fsum(values.tolist())


def dirichlet_form(kernel: Kernel, f: np.ndarray) -> float:
    """(1/2) sum_{x,y} (f(x) - f(y))^2 pi(x) P(x,y)."""
    f = np.asarray(f, dtype=float)
    if f.shape != (kernel.size,):
        raise ValueError(f"function has shape {f.shape}, kernel has {kernel.size} states")
    m = kernel.matrix
    rows = np.repeat(np.arange(kernel.size), np.diff(m.indptr))
    diff = f[rows] - f[m.indices]
    terms = diff * diff * kernel.stationary[rows] * m.data
    return 0.5 * _fsum(terms)


def entropy(pi: np.ndarray, f: np.ndarray) -> float:
    """sum_x pi(x) f(x) log(f(x) / E_pi[f]), natural log, 0*log(0) = 0.

    Evaluated as sum pi * (f log(f/m) - f + m), which is identical
    (the added terms sum to zero) but termwise nonnegative, so nearly
    constant f does not lose the result to cancellation across states.
    Identically-zero f is mapped to 0 by continuity.
    """
    pi = np.asarray(pi, dtype=float)
    f = np.asarray(f, dtype=float)
    if pi.shape != f.shape:
        raise ValueError("distribution and function are misaligned")
    if f.min() < 0:
        raise ValueError(f"entropy needs f >= 0, got min {f.min()}")
    mean = _fsum(pi * f)
    if mean == 0.0:
        return 0.0
    dev = f - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(f > 0, f * np.log1p(dev / mean) - dev, mean)
    return _fsum(pi * terms)


def lsc_ratio(kernel: Kernel, f: np.ndarray) -> float:
    """Dirichlet form of sqrt(f) over entropy of f; an upper bound on the
    chain's log-Sobolev constant for every valid f."""
    f = np.asarray(f, dtype=float)
    ent = entropy(kernel.stationary, f)
    if ent <= 0.0:
        raise ValueError("log-Sobolev ratio needs a non-constant f with positive entropy")
    return dirichlet_form(kernel, np.sqrt(f)) / ent


# Most (restarts x undirected edges) entries of one group of restarts that
# lsc_search steps together. A group's edge differences and its L-BFGS
# history (2 x _HISTORY arrays of restarts x states) scale with it, so the
# search's memory does not grow with the restart count.
SEARCH_ENTRIES = 1 << 20
# L-BFGS of each restart: (s, y) pairs kept, as scipy's maxcor; Armijo
# constant; most step halvings of one line search
_HISTORY = 10
_ARMIJO = 1e-4
_BACKTRACKS = 20
# a restart stops when the relative fall of the ratio is at most _FTOL,
# when its largest gradient entry is at most _GTOL, or after _MAXITER steps
_FTOL = 1e-13
_GTOL = 1e-12
_MAXITER = 500
# an entropy of f = g^2 at most this fraction of its mean E_pi[f] is too
# small to trust: a constant f has entropy 0 but computes to about 1e-32
# times its mean, which would give it a ratio near 0 (_trusted_entropy)
ENTROPY_FLOOR = 1e-13
# why a restart stopped: the three limits above, a line search that found
# no Armijo step, or a start whose ratio is undefined (no entropy above
# the floor)
STOPS = ("ftol", "gtol", "maxiter", "line_search", "collapsed")


@dataclass
class RestartStats:
    iterations: int
    evaluations: int
    stop: str  # one of STOPS


@dataclass
class SearchResult:
    best_ratio: float
    witness: np.ndarray
    restarts: int
    evaluations: int  # objective rows over all restarts, collapsed ones included
    runs: list[RestartStats]  # one per restart, in restart order


def _flow(kernel: Kernel) -> sparse.csr_matrix:
    """The probability flow pi_x P_xy of each edge, as CSR."""
    return kernel.matrix.multiply(kernel.stationary[:, None]).tocsr()


def _symmetric_weights(flow: sparse.csr_matrix):
    # W[x,y] = (pi_x P_xy + pi_y P_yx) / 2; for reversible kernels this
    # equals pi_x P_xy and leaves the Dirichlet form unchanged.
    w = ((flow + flow.T) * 0.5).tocsr()
    return w, np.asarray(w.sum(axis=1)).ravel()


def _trusted_entropy(ent, mean):
    """Whether an entropy is above ENTROPY_FLOOR times its function's
    mean: the one rule of the search objective and the witness check. A
    function of mean 0 has entropy 0 and fails it."""
    return ent > ENTROPY_FLOOR * mean


def _row_sums(a: np.ndarray) -> np.ndarray:
    # summed in C order, each row gets the same pairwise sum whatever rows
    # sit beside it; a column-major operand (a transposed sparse product
    # is one) would be summed down the columns instead
    return np.add.reduce(np.ascontiguousarray(a), axis=1)


def _ratio_objective(kernel: Kernel):
    """(objective, undirected edges) of the search on f = g^2.

    objective(g) maps a (rows, states) array to each row's ratio and its
    gradient in g. Energy and entropy are evaluated in cancellation-free
    forms, so near-constant g cannot produce a spuriously small ratio; a
    row whose entropy fails _trusted_entropy (a constant or zero g among
    them) gets ratio inf and gradient 0.
    The energy is the weighted sum of squared differences over each
    undirected edge once (W is symmetric), taken by sparse products,
    which sum each column in edge order: like _row_sums, they give a row
    the same value whatever rows sit beside it.
    """
    w, deg = _symmetric_weights(_flow(kernel))
    coo = w.tocoo()
    once = coo.row < coo.col  # W's strict upper triangle, in row-major order
    edges = int(once.sum())
    # row e is +1 at one end of edge e and -1 at the other, so a product
    # with it gives each difference exactly
    incidence = sparse.csr_matrix(
        (np.tile([1.0, -1.0], edges), np.column_stack([coo.row[once], coo.col[once]]).ravel(),
         np.arange(0, 2 * edges + 1, 2)), shape=(edges, kernel.size))
    weight = sparse.csr_matrix(coo.data[once][None, :])
    pi = kernel.stationary

    def objective(g: np.ndarray):
        with np.errstate(all="ignore"):
            diff = incidence @ g.T
            energy = (weight @ (diff * diff))[0]
            g2 = g * g
            mean = _row_sums(pi * g2)[:, None]
            dev = g2 - mean
            stable = np.where(g2 > 0, g2 * np.log1p(dev / mean) - dev, mean)
            logterm = np.where(g2 > 0, np.log(g2) - np.log(mean), 0.0)
            ent = _row_sums(pi * stable)
            valid = _trusted_entropy(ent, mean[:, 0])
            ratio = np.where(valid, energy / ent, np.inf)
            grad_energy = 2.0 * (deg * g - (w @ g.T).T)
            grad_ent = 2.0 * pi * g * logterm
            grad = (grad_energy - ratio[:, None] * grad_ent) / ent[:, None]
        grad[~valid] = 0.0
        return ratio, grad

    return objective, edges


def _lbfgs(objective, x: np.ndarray):
    """Minimize objective from each row of x by L-BFGS, all rows together.

    Each row keeps _HISTORY (s, y) pairs, skipping a pair whose curvature
    s.y is not above eps |y|^2 (it enters with weight 0), and steps by
    backtracking Armijo from step 1, or 1/|grad| on the first step. A row
    stops under the first of the STOPS it meets, and stopped rows leave
    the arrays. Returns (best value, its point, iterations, evaluations,
    stop) per row: the best is taken over every evaluated point, not
    only over the accepted ones.
    """
    rows, size = x.shape
    best_f = np.full(rows, np.inf)
    best_x = x.copy()
    iterations = np.zeros(rows, dtype=np.int64)
    evaluations = np.zeros(rows, dtype=np.int64)
    stops = np.full(rows, "", dtype=object)

    def evaluate(at: np.ndarray, points: np.ndarray):
        evaluations[at] += 1
        values, grads = objective(points)
        better = values < best_f[at]
        best_f[at[better]] = values[better]
        best_x[at[better]] = points[better]
        return values, grads

    live = np.arange(rows)  # row of x behind each row still running
    f, grad = evaluate(live, x)
    stops[~np.isfinite(f)] = "collapsed"
    stops[np.isfinite(f) & (np.abs(grad).max(axis=1) <= _GTOL)] = "gtol"
    keep = stops == ""
    live, x, f, grad = live[keep], x[keep], f[keep], grad[keep]
    s_hist = np.zeros((_HISTORY, len(live), size))
    y_hist = np.zeros((_HISTORY, len(live), size))
    rho = np.zeros((_HISTORY, len(live)))
    gamma = np.ones(len(live))
    step_no = 0
    while len(live):
        # two-loop recursion: d = -H grad, H built from the stored pairs
        slots = [(step_no - 1 - j) % _HISTORY for j in range(min(step_no, _HISTORY))]
        q = grad.copy()
        alphas = []
        for slot in slots:
            alphas.append(rho[slot] * _row_sums(s_hist[slot] * q))
            q -= alphas[-1][:, None] * y_hist[slot]
        q *= gamma[:, None]
        for slot, alpha in zip(reversed(slots), reversed(alphas)):
            beta = rho[slot] * _row_sums(y_hist[slot] * q)
            q += s_hist[slot] * (alpha - beta)[:, None]
        d = -q
        slope = _row_sums(grad * d)
        if step_no == 0:
            step = 1.0 / np.sqrt(_row_sums(grad * grad))
        else:
            step = np.ones(len(live))

        new_x, new_f, new_grad = x.copy(), f.copy(), grad.copy()
        moved = np.zeros(len(live), dtype=bool)
        pending = np.flatnonzero(slope < 0.0)
        for _ in range(_BACKTRACKS):
            if not len(pending):
                break
            points = x[pending] + step[pending, None] * d[pending]
            values, grads = evaluate(live[pending], points)
            ok = values <= f[pending] + _ARMIJO * step[pending] * slope[pending]
            done = pending[ok]
            new_x[done], new_f[done], new_grad[done] = points[ok], values[ok], grads[ok]
            moved[done] = True
            pending = pending[~ok]
            step[pending] *= 0.5

        s, y = new_x - x, new_grad - grad
        sy = _row_sums(s * y)
        yy = _row_sums(y * y)
        curved = moved & (sy > np.finfo(float).eps * yy)
        slot = step_no % _HISTORY
        s_hist[slot] = np.where(curved[:, None], s, 0.0)
        y_hist[slot] = np.where(curved[:, None], y, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            rho[slot] = np.where(curved, 1.0 / sy, 0.0)
            gamma = np.where(curved, sy / yy, gamma)
        iterations[live] += 1
        step_no += 1

        fall = f - new_f
        scale = np.maximum(np.maximum(np.abs(f), np.abs(new_f)), 1.0)
        stop = np.select(
            [~moved, np.abs(new_grad).max(axis=1) <= _GTOL, fall <= _FTOL * scale,
             np.full(len(live), step_no >= _MAXITER)],
            ["line_search", "gtol", "ftol", "maxiter"], "")
        stops[live] = stop
        x, f, grad = new_x, new_f, new_grad
        keep = stop == ""
        if not keep.all():
            live, x, f, grad, gamma = live[keep], x[keep], f[keep], grad[keep], gamma[keep]
            s_hist, y_hist, rho = s_hist[:, keep], y_hist[:, keep], rho[:, keep]
    return best_f, best_x, iterations, evaluations, stops


def _starts(rng: np.random.Generator, first: int, rows: int, size: int) -> np.ndarray:
    """Starting g of restarts first .. first + rows - 1, one per row,
    drawn in restart order from rng: in turn log-normal, additive and
    uniform with one raised state."""
    starts = np.empty((rows, size))
    for row, r in enumerate(range(first, first + rows)):
        if r % 3 == 0:
            starts[row] = np.exp(0.8 * rng.standard_normal(size))
        elif r % 3 == 1:
            starts[row] = 1.0 + 0.5 * rng.standard_normal(size)
        else:
            starts[row] = 0.05 + rng.random(size)
            starts[row, rng.integers(size)] += 3.0
    return starts


def lsc_search(
    kernel: Kernel,
    restarts: int = 200,
    seed: int = 0,
) -> SearchResult:
    """Multi-start descent minimizing the log-Sobolev ratio.

    Parameterizes f = g^2 and runs L-BFGS on g from multiplicatively
    perturbed starts, drawn restart by restart from the one Philox stream
    of the seed, so the first r starts do not depend on how many restarts
    follow. The restarts advance together as the rows of one array
    (_lbfgs), in groups of at most SEARCH_ENTRIES (restarts x edges)
    entries; a row's steps do not depend on its group. The objective
    takes only sparse matvecs and ufunc reductions, no BLAS call. Each
    restart's best evaluated point is re-checked with the exact
    lsc_ratio; the smallest, the first of equal ones, is returned with
    its witness, a certified upper bound on the log-Sobolev constant. A
    kernel of fewer than 2 states, on which every function is constant,
    and a reducible kernel, whose constant is exactly 0, are refused first.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if kernel.size < 2:
        raise ValueError(f"log-Sobolev search needs at least 2 states, got {kernel.size}")
    kernel.check_irreducible("its log-Sobolev constant is 0")
    objective, edges = _ratio_objective(kernel)
    group = max(1, SEARCH_ENTRIES // max(1, edges))
    rng = make_rng(seed)
    pi = kernel.stationary
    best_ratio, witness, runs = np.inf, None, []
    for first in range(0, restarts, group):
        rows = min(group, restarts - first)
        found, points, iterations, evaluations, stops = _lbfgs(
            objective, _starts(rng, first, rows, kernel.size))
        for value, g in zip(found, np.abs(points)):
            f = g * g
            if value < np.inf and _trusted_entropy(entropy(pi, f), _fsum(pi * f)):
                ratio = lsc_ratio(kernel, f)
                if ratio < best_ratio:
                    best_ratio, witness = ratio, f
        runs += [RestartStats(int(i), int(e), s)
                 for i, e, s in zip(iterations, evaluations, stops)]
    if witness is None:
        raise ValueError("every restart collapsed to a constant function")
    return SearchResult(best_ratio=best_ratio, witness=witness, restarts=restarts,
                        evaluations=sum(run.evaluations for run in runs), runs=runs)


def ucc_alpha_lower_bound(k: int, N: int, base: float = math.e) -> float:
    """Claimed log-Sobolev floor 1 / (12 k log N) for the uniform
    recoloring chain, stated for k <= N/2. Natural log by default; the
    base is a parameter because the claim leaves it open."""
    if not 1 <= k or not k * 2 <= N:
        raise ValueError(f"bound is stated for k <= N/2, got k={k}, N={N}")
    return 1.0 / (12.0 * k * math.log(N, base))


def complete_alpha_lower_bound(N: int, base: float = math.e) -> float:
    """Known log-Sobolev floor 1 / (3 log N) for the complete graph."""
    return 1.0 / (3.0 * math.log(N, base))


def paper_alpha_floor(spec: ChainSpec, base: float = math.e) -> float | None:
    """The claimed log-Sobolev floor that applies to a chain, in log base
    `base`: the complete graph's, ucc's where it is stated (2k <= N), and
    None for every other chain."""
    if spec.family == "complete":
        return complete_alpha_lower_bound(spec.ncolors, base)
    if spec.family == "ucc" and 2 * spec.k <= spec.ncolors:
        return ucc_alpha_lower_bound(spec.k, spec.ncolors, base)
    return None


def spectral_gap(kernel: Kernel) -> float:
    """1 - lambda_2 of the symmetrized kernel (requires reversibility).

    The operator is A = D^{-1/2} W D^{-1/2}, with W the symmetrized flow
    that lsc_search also uses and D its row sums; for a reversible kernel
    A is similar to P. Up to DENSE_GAP_STATES states the spectrum comes
    from a dense eigvalsh. Above that, ARPACK's eigsh finds the two
    largest eigenvalues to machine precision (tol=0) on the sparse A, so
    no S x S copy is made and there is no size limit. eigsh starts from a
    fixed positive vector (make_rng(0)), not ARPACK's own random one, so
    the same kernel gives the same float on every call.

    Raises ValueError for a kernel of fewer than 2 states, for a
    reducible kernel (more than one strongly connected class, whose gap
    is 0 and would print as roundoff) or if eigsh does not converge, and
    InvariantViolation if the top eigenvalue is further than 1e-10 from 1.
    """
    if kernel.size < 2:
        raise ValueError(f"spectral gap needs at least 2 states, got {kernel.size}")
    flow = _flow(kernel)
    report = _detailed_balance(flow, GAP_REVERSIBILITY_TOL)
    if not report.passes:
        raise ValueError(
            f"kernel is not reversible (violation {report.max_violation:.3e})")
    kernel.check_irreducible("its spectral gap is 0")
    if kernel.stationary.min() <= 0:
        raise ValueError("spectral gap needs a strictly positive stationary law")
    a, deg = _symmetric_weights(flow)
    scale = 1.0 / np.sqrt(deg)
    rows = np.repeat(np.arange(kernel.size), np.diff(a.indptr))
    # scale[x] * scale[y] is one commutative product, so A stays exactly symmetric
    a.data *= scale[rows] * scale[a.indices]
    if kernel.size <= DENSE_GAP_STATES:
        top2 = np.linalg.eigvalsh(a.toarray())[-2:]
    else:
        v0 = 0.5 + make_rng(0).random(kernel.size)
        try:
            top2 = np.sort(eigsh(a, k=2, which="LA", tol=0, v0=v0,
                                 return_eigenvectors=False))
        except ArpackNoConvergence as exc:
            raise ValueError(
                f"eigsh did not converge on {kernel.size} states: {exc}") from exc
    lambda2, top = (float(v) for v in top2)
    if abs(top - 1.0) > 1e-10:
        raise InvariantViolation(
            f"top eigenvalue of the symmetrized kernel is {top!r}, not 1")
    return 1.0 - lambda2


@dataclass
class ReversibilityReport:
    max_violation: float
    passes: bool
    worst_pair: tuple[int, int]


def verify_reversible(kernel: Kernel, tol: float = 1e-12) -> ReversibilityReport:
    """Largest detailed-balance violation |pi_x P_xy - pi_y P_yx|."""
    return _detailed_balance(_flow(kernel), tol)


def _detailed_balance(flow: sparse.csr_matrix, tol: float) -> ReversibilityReport:
    asym = (flow - flow.T).tocoo()
    if asym.nnz == 0:
        return ReversibilityReport(0.0, True, (0, 0))
    j = int(np.argmax(np.abs(asym.data)))
    violation = float(abs(asym.data[j]))
    return ReversibilityReport(violation, violation <= tol,
                               (int(asym.row[j]), int(asym.col[j])))


# ---------------------------------------------------------------------------
# The entropy chain rule on the distinct-tuple space.
# ---------------------------------------------------------------------------


def chain_rule_residual(f: np.ndarray, i: int, k: int, N: int) -> float:
    """|Ent(f) - E_c[Ent(f restricted to x_i=c)] - Ent(F_i)|, F_i(c) being
    the average of f over the slice {x_i = c}.

    The conditional-entropy chain rule says this vanishes identically;
    anything beyond roundoff indicates a bug in the entropy machinery.
    The tuple space is enumerated once, and each restriction is a mask on
    its column i.
    """
    if not 0 <= i < k:
        raise IndexError(f"coordinate {i} out of range for k={k}")
    states = _tuple_states(k, N, f"tuple function(k={k},N={N})")
    f = np.asarray(f, dtype=float)
    if f.shape != (len(states),):
        raise ValueError(f"function has shape {f.shape}, expected ({len(states)},)")
    return _chain_rule_terms(f, states[:, i], N)[0]


def _chain_rule_terms(f: np.ndarray, column: np.ndarray, N: int) -> tuple[float, float]:
    """(chain_rule_residual, Ent(f)) of f on the tuple space, `column`
    holding coordinate i of each tuple."""
    ent = entropy(np.full(len(f), 1.0 / len(f)), f)
    cond_terms = []
    for c in range(N):
        sliced = f[column == c]
        cond_terms.append(entropy(np.full(len(sliced), 1.0 / len(sliced)), sliced))
    marginal = np.bincount(column, weights=f, minlength=N) / (len(f) // N)
    rhs = math.fsum(cond_terms) / N + entropy(np.full(N, 1.0 / N), marginal)
    return abs(ent - rhs), ent


def _check_count(count: int) -> None:
    """A check needs at least one random function (the commands' --count)."""
    if count < 1:
        raise ValueError(f"need --count >= 1, got {count}")


@dataclass
class CoordinateResidual:
    i: int
    max_abs_residual: float
    max_rel_residual: float  # each residual over its Ent(f)


@dataclass
class ChainRuleReport:
    k: int
    N: int
    count: int
    max_abs_residual: float
    max_rel_residual: float
    per_coordinate: list[CoordinateResidual]


def chain_rule_check(k: int, N: int, count: int, seed: int = 0) -> ChainRuleReport:
    """Largest chain_rule_residual, absolute and relative to Ent(f), of
    `count` random f = U[0,1) + 0.05 per coordinate i on the distinct
    k-tuples of N colors.

    The count and the state cap are checked, and the tuple space
    enumerated once, before any f is drawn. The f of coordinate 0 come
    first from the one stream of the seed, then those of coordinate 1,
    and so on.
    """
    _check_count(count)
    states = _tuple_states(k, N, f"tuple function(k={k},N={N})")
    rng = make_rng(seed)
    per_coordinate = []
    for i in range(k):
        max_abs = max_rel = 0.0
        for _ in range(count):
            res, ent = _chain_rule_terms(rng.random(len(states)) + 0.05, states[:, i], N)
            max_abs = max(max_abs, res)
            max_rel = max(max_rel, res / ent if ent > 0 else res)
        per_coordinate.append(CoordinateResidual(i, max_abs, max_rel))
    return ChainRuleReport(
        k=k, N=N, count=count,
        max_abs_residual=max(c.max_abs_residual for c in per_coordinate),
        max_rel_residual=max(c.max_rel_residual for c in per_coordinate),
        per_coordinate=per_coordinate)
