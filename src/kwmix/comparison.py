"""Randomized edge-to-path map from uniform to standard recoloring moves.

A uniform-chain edge either recolors a vertex with a fresh color (also a
legal standard-chain move: the path is the edge itself) or swaps two
vertices' colors. A swap is simulated by three standard moves routed
through a uniformly random free color l': park vertex i on l', move
vertex j to i's old color, then move i to j's old color.

`congestion_delta` applies the map to the whole state array and computes
its congestion exactly: for every standard-chain edge, the expected
weighted load over all uniform-chain moves, the expectation over l'
averaged rather than sampled. The loads are integer moves on the state
array, assembled as the kernels are. The map's scalar statement, one path
per (state, move), is the test oracle in ``tests/oracles.py``.
`compare_check` tests the Dirichlet-form comparison that the constant
gives on random functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product

import numpy as np

from .analysis import _check_count, dirichlet_form
from .chains import (
    ChainSpec,
    Kernel,
    Moves,
    _chain_states,
    _count_matrix,
    _draw_bounds,
    _step_moves,
    build_kernel,
)
from .errors import InvariantViolation
from .rng import make_rng

UNIVERSAL_CONGESTION_BOUND = 19.0  # 1 + 9*2, valid whenever k <= N/2


@dataclass
class CongestionResult:
    k: int
    N: int
    a_delta: float
    argmax_edge: tuple[tuple[int, ...], tuple[int, ...]]
    formula_bound: float


def congestion_formula_bound(k: int, N: int) -> float:
    """(N-k+1)/N * (1 + 9(k-1)/(N-k)), the closed-form congestion bound."""
    if k >= N:
        raise ValueError("bound needs k < N")
    return (N - k + 1) / N * (1.0 + 9.0 * (k - 1) / (N - k))


def congestion_delta(k: int, N: int) -> CongestionResult:
    """Exact comparison constant of the path map.

    For every standard-chain edge (a, b): sum over uniform-chain moves of
    E[1{(a,b) on path} * path length] * pi~(x) P~(x, move) / (pi(a) P(a, b)),
    maximized over (a, b). Both stationary laws are uniform on the same
    space, so each term reduces to a load times (N-k+1)/N over the
    standard chain's draw count of the edge.

    Loads are integers in units of 1/(N-k): a fresh or own color is a
    direct edge loaded N-k, and a swap loads each of its three path edges
    3 for each of the N-k detour colors. Among equal maxima the first
    edge in (row, col) order is reported.
    """
    if not 1 <= k <= N - 1:
        raise ValueError(f"need 1 <= k < N, got k={k}, N={N}")
    cc = ChainSpec(family="cc", k=k, ncolors=N)
    x, index = _chain_states(cc)
    src = np.arange(len(x))
    cc_draws = list(product(*map(range, _draw_bounds(cc))))

    def loaded_moves() -> Moves:
        yield from _step_moves(cc, x, index, cc_draws, N - k)
        for free in range(N):  # one piece per detour color
            unused = ~(x == free).any(axis=1)
            tails, heads = [], []
            for i, j in permutations(range(k), 2):
                path = [x[unused]]
                for coord, color in ((i, free), (j, path[0][:, i]), (i, path[0][:, j])):
                    step = path[-1].copy()
                    step[:, coord] = color
                    path.append(step)
                ranks = [src[unused]] + [index(step) for step in path[1:]]
                tails += ranks[:-1]
                heads += ranks[1:]
            if tails:  # k = 1 has no swap
                yield np.concatenate(tails), np.concatenate(heads), 3

    draws = _count_matrix(_step_moves(cc, x, index, cc_draws), len(x))
    loads = _count_matrix(loaded_moves(), len(x))
    # every standard edge is loaded, so equal patterns mean no other edge is
    if not (np.array_equal(loads.indptr, draws.indptr)
            and np.array_equal(loads.indices, draws.indices)):
        raise InvariantViolation("a path uses an edge of no standard-chain move")
    ratio = loads.data * (N - k + 1) / ((N - k) * N * draws.data)
    best = int(np.argmax(ratio))
    row = int(np.searchsorted(loads.indptr, best, side="right")) - 1
    return CongestionResult(
        k=k, N=N, a_delta=float(ratio[best]),
        argmax_edge=(tuple(x[row].tolist()), tuple(x[loads.indices[best]].tolist())),
        formula_bound=congestion_formula_bound(k, N),
    )


def dirichlet_comparison_residual(f: np.ndarray, ucc_kernel: Kernel, cc_kernel: Kernel,
                                  a_delta: float) -> float:
    """max(0, E_ucc(f, f) - A * E_cc(f, f)) for the ucc and cc kernels of
    one (k, N) and A = ``congestion_delta(k, N).a_delta``; the comparison
    bound says 0."""
    e_ucc = dirichlet_form(ucc_kernel, f)
    e_cc = dirichlet_form(cc_kernel, f)
    return max(0.0, e_ucc - a_delta * e_cc)


@dataclass
class ComparisonReport:
    k: int
    N: int
    count: int
    A_delta: float
    max_residual: float


def compare_check(k: int, N: int, count: int, seed: int = 0) -> ComparisonReport:
    """Largest dirichlet_comparison_residual of sqrt(f) over `count`
    random f = U[0,1) on the ucc and cc kernels of (k, N), drawn from the
    one stream of the seed.

    The count and congestion_delta's 1 <= k < N are checked, and A
    computed, before either kernel is built.
    """
    _check_count(count)
    a_delta = congestion_delta(k, N).a_delta
    ucc = build_kernel(ChainSpec(family="ucc", k=k, ncolors=N))
    cc = build_kernel(ChainSpec(family="cc", k=k, ncolors=N))
    rng = make_rng(seed)
    worst = 0.0
    for _ in range(count):
        root = np.sqrt(rng.random(ucc.size))
        worst = max(worst, dirichlet_comparison_residual(root, ucc, cc, a_delta))
    return ComparisonReport(k=k, N=N, count=count, A_delta=a_delta, max_residual=worst)
