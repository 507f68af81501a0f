"""Functional-inequality machinery over exact kernels.

Dirichlet form, entropy, and their ratio (whose infimum over nonnegative
non-constant functions is the chain's log-Sobolev constant). Every ratio
evaluated at a valid witness is an upper bound on that constant, so a
multi-start descent that drives the ratio down is a falsification
harness for claimed lower bounds: finding a witness below a claimed
bound would disprove it, and failing to find one is evidence in favor.

Entropy and the Dirichlet form use natural log and the 0*log(0) = 0
convention; reported sums run through math.fsum so the tight acceptance
tolerances are not eaten by accumulation error. The lsc_search objective
sums with ufunc reductions, not np.dot: numpy and scipy each bring their
own OpenBLAS thread pool, and a threaded ddot on numpy's pool fights
scipy's L-BFGS-B pool for the same cores on every step. The restarts run
with every loaded OpenBLAS pinned to one thread (_one_blas_thread), since
otherwise scipy's idle pool busy-waits after each L-BFGS-B step.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .chains import Kernel, _tuple_states
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
    m = kernel.matrix.tocoo()
    diff = f[m.row] - f[m.col]
    terms = diff * diff * kernel.stationary[m.row] * m.data
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


# where Linux lists the shared objects mapped into this process
_PROC_MAPS = "/proc/self/maps"
# (get, set) thread-count symbols of the OpenBLAS builds that numpy and
# scipy bundle (scipy-openblas, 64- and 32-bit ints) and of a plain build
_BLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


def _openblas_thread_controls() -> list[tuple]:
    """(get, set) thread-count functions of every OpenBLAS loaded in this
    process, found in _PROC_MAPS; none where that file is missing."""
    paths = set()
    try:
        with open(_PROC_MAPS) as fp:
            for line in fp:
                path = line.split()[-1]
                name = os.path.basename(path).lower()
                if "openblas" in name and ".so" in name:
                    paths.add(path)
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return controls


# held while the thread counts are pinned, so that a second caller reads
# the counts only after the first has restored them
_BLAS_PIN_LOCK = threading.Lock()


@contextmanager
def _one_blas_thread():
    """Pin every loaded OpenBLAS to one thread, then restore each count.

    Process-wide while it is held; concurrent callers take turns. A no-op
    where no OpenBLAS is found.
    """
    with _BLAS_PIN_LOCK:
        saved = [(set_, get()) for get, set_ in _openblas_thread_controls()]
        try:
            for set_, _ in saved:
                set_(1)
            yield
        finally:
            for set_, threads in saved:
                set_(threads)


@dataclass
class SearchResult:
    best_ratio: float
    witness: np.ndarray
    restarts: int
    evaluations: int  # objective calls over all restarts, collapsed ones included


def _symmetric_weights(kernel: Kernel):
    # W[x,y] = (pi_x P_xy + pi_y P_yx) / 2; for reversible kernels this
    # equals pi_x P_xy and leaves the Dirichlet form unchanged.
    d = kernel.matrix.multiply(kernel.stationary[:, None]).tocsr()
    w = ((d + d.T) * 0.5).tocsr()
    deg = np.asarray(w.sum(axis=1)).ravel()
    coo = w.tocoo()
    off = coo.row != coo.col
    return w, deg, coo.row[off], coo.col[off], coo.data[off]


def lsc_search(
    kernel: Kernel,
    restarts: int = 200,
    seed: int = 0,
) -> SearchResult:
    """Multi-start descent minimizing the log-Sobolev ratio.

    Parameterizes f = g^2 and runs L-BFGS on g from multiplicatively
    perturbed starts, drawn restart by restart from the one Philox stream
    of the seed, so the first r starts do not depend on how many restarts
    follow. Returns the smallest ratio found and its witness; the value
    is a certified upper bound on the log-Sobolev constant. The
    objective's sums are ufunc reductions, not np.dot, because numpy and
    scipy bring separate OpenBLAS pools: a threaded dot on numpy's pool
    would busy-wait against scipy's L-BFGS-B pool, and the result would
    depend on numpy's BLAS thread count. The vectors are too short for
    threaded BLAS to help, so the restarts run with every OpenBLAS pinned
    to one thread; the previous counts are restored on return and on
    error. A reducible kernel, whose constant is exactly 0, is refused first.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    kernel.check_irreducible("its log-Sobolev constant is 0")
    w, deg, erow, ecol, eweight = _symmetric_weights(kernel)
    pi = kernel.stationary
    log = np.log

    def make_objective(tracker: list):
        # tracker holds [best_ratio, best_g, evaluations]: every evaluated
        # point is a valid witness, so keep the minimum over all of them,
        # not just L-BFGS endpoints. Energy and entropy are evaluated in
        # cancellation-free forms so near-constant g cannot produce a
        # spuriously small ratio.
        def objective(g: np.ndarray):
            tracker[2] += 1
            diff = g[erow] - g[ecol]
            energy = 0.5 * float(np.add.reduce(diff * diff * eweight))
            g2 = g * g
            mean = float(np.add.reduce(pi * g2))
            if mean <= 0.0:
                return np.inf, np.zeros_like(g)
            dev = g2 - mean
            with np.errstate(divide="ignore", invalid="ignore"):
                stable = np.where(g2 > 0, g2 * np.log1p(dev / mean) - dev, mean)
                logterm = np.where(g2 > 0, log(g2) - math.log(mean), 0.0)
            ent = float(np.add.reduce(pi * stable))
            if ent < 1e-300:
                return np.inf, np.zeros_like(g)
            grad_energy = 2.0 * (deg * g - w @ g)
            grad_ent = 2.0 * pi * g * logterm
            ratio = energy / ent
            if ratio < tracker[0]:
                tracker[0] = ratio
                tracker[1] = g.copy()
            grad = (grad_energy - ratio * grad_ent) / ent
            return ratio, grad

        return objective

    def run_restart(r: int) -> tuple[float, np.ndarray | None, int]:
        # (ratio, witness, evaluations); a collapsed restart has no
        # witness and ratio inf, but its evaluations still count
        if r % 3 == 0:
            g0 = np.exp(0.8 * rng.standard_normal(kernel.size))
        elif r % 3 == 1:
            g0 = 1.0 + 0.5 * rng.standard_normal(kernel.size)
        else:
            g0 = 0.05 + rng.random(kernel.size)
            g0[rng.integers(kernel.size)] += 3.0
        tracker: list = [np.inf, None, 0]
        optimize.minimize(
            make_objective(tracker), g0, jac=True, method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-13, "gtol": 1e-12},
        )
        if tracker[1] is None:
            return np.inf, None, tracker[2]
        g = np.abs(tracker[1])
        f = g * g
        if entropy(pi, f) <= 1e-13:
            return np.inf, None, tracker[2]
        return lsc_ratio(kernel, f), f, tracker[2]

    rng = make_rng(seed)
    with _one_blas_thread():
        outcomes = [run_restart(r) for r in range(restarts)]
    # min keeps the first of equal ratios
    best_ratio, witness, _ = min(outcomes, key=lambda out: out[0])
    if witness is None:
        raise ValueError("every restart collapsed to a constant function")
    return SearchResult(best_ratio=best_ratio, witness=witness, restarts=restarts,
                        evaluations=sum(out[2] for out in outcomes))


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
    report = verify_reversible(kernel, tol=GAP_REVERSIBILITY_TOL)
    if not report.passes:
        raise ValueError(
            f"kernel is not reversible (violation {report.max_violation:.3e})")
    kernel.check_irreducible("its spectral gap is 0")
    if kernel.stationary.min() <= 0:
        raise ValueError("spectral gap needs a strictly positive stationary law")
    a, deg = _symmetric_weights(kernel)[:2]
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
    flow = kernel.matrix.multiply(kernel.stationary[:, None]).tocoo()
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
    column = states[:, i]
    lhs = entropy(np.full(len(f), 1.0 / len(f)), f)
    cond_terms = []
    for c in range(N):
        sliced = f[column == c]
        cond_terms.append(entropy(np.full(len(sliced), 1.0 / len(sliced)), sliced))
    marginal = np.bincount(column, weights=f, minlength=N) / (len(f) // N)
    rhs = math.fsum(cond_terms) / N + entropy(np.full(N, 1.0 / N), marginal)
    return abs(lhs - rhs)
