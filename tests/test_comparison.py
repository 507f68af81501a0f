"""Path map and congestion against a literal brute-force oracle."""

import math

import numpy as np
import pytest

from kwmix.analysis import dirichlet_form
from kwmix.chains import ChainSpec, build_kernel
from kwmix.comparison import (
    UNIVERSAL_CONGESTION_BOUND,
    compare_check,
    congestion_delta,
    congestion_formula_bound,
    dirichlet_comparison_residual,
)
from kwmix.core import enumerate_tuples, tuple_space_size
from kwmix.rng import make_rng
from oracles import delta_path, is_cc_move, recolor


def test_unused_color_gives_single_edge():
    path = delta_path((0, 1), 0, 2, N=4)
    assert len(path) == 1
    assert path.edges == (((0, 1), (2, 1)),)


def test_own_color_gives_self_loop_edge():
    path = delta_path((0, 1), 1, 1, N=4)
    assert path.edges == (((0, 1), (0, 1)),)


def test_swap_case_three_transpositions():
    # swap colors of the two vertices via detour color 2
    path = delta_path((0, 1), 0, 1, N=4, free_color=2)
    assert [e[0] for e in path.edges] + [path.end] == [
        (0, 1), (2, 1), (2, 0), (1, 0)]


def test_swap_case_has_one_path_per_free_color():
    x = (0, 1)
    N = 4
    realizations = {delta_path(x, 0, 1, N, free_color=c).edges for c in (2, 3)}
    assert len(realizations) == N - 2
    with pytest.raises(ValueError):
        delta_path(x, 0, 1, N, free_color=1)


def test_swap_needs_a_free_color():
    with pytest.raises(ValueError):
        delta_path((0, 1), 0, 1, N=2, free_color=None, rng=make_rng(0))


def test_rng_draws_only_unused_detours():
    rng = make_rng(0)
    seen = set()
    for _ in range(200):
        path = delta_path((0, 1), 0, 1, N=5, rng=rng)
        seen.add(path.edges[0][1][0])  # the detour color parked on vertex 0
    assert seen == {2, 3, 4}


def test_all_paths_are_legal_and_end_correctly():
    for k, N in [(2, 4), (3, 6)]:
        cc = build_kernel(ChainSpec(family="cc", k=k, ncolors=N))
        idx = {s: i for i, s in enumerate(map(tuple, cc.states.tolist()))}
        dense = cc.dense()
        for x in map(tuple, enumerate_tuples(k, N).tolist()):
            unused = [c for c in range(N) if c not in x]
            for i in range(k):
                for color in range(N):
                    if color != x[i] and color in x:
                        paths = [delta_path(x, i, color, N, free_color=c)
                                 for c in unused]
                    else:
                        paths = [delta_path(x, i, color, N)]
                    for path in paths:
                        assert path.start == x
                        assert path.end == recolor(x, i, color)
                        for a, b in path.edges:
                            assert dense[idx[a], idx[b]] > 0


def _congestion_oracle(k, N):
    """Literal evaluation of the comparison constant from kernel entries.

    Sums over uniform-chain pairs (x, y); a swap pair mixes the two
    parameterizations that produce it with probability 1/2 each.
    """
    ucc = build_kernel(ChainSpec(family="ucc", k=k, ncolors=N))
    cc = build_kernel(ChainSpec(family="cc", k=k, ncolors=N))
    states = list(map(tuple, ucc.states.tolist()))
    idx = {s: i for i, s in enumerate(states)}
    p_ucc = ucc.dense()
    p_cc = cc.dense()
    pi = 1.0 / len(states)

    # expected load per target edge: E[1{edge on path} * |path|] * pi * P_ucc
    load = {}
    for x in states:
        unused = [c for c in range(N) if c not in x]
        for y in states:
            if p_ucc[idx[x], idx[y]] == 0:
                continue
            weight = pi * p_ucc[idx[x], idx[y]]
            if x == y:
                load[(x, y)] = load.get((x, y), 0.0) + weight
                continue
            moved = [i for i in range(len(x)) if x[i] != y[i]]
            if len(moved) == 1:
                paths = [(1.0, delta_path(x, moved[0], y[moved[0]], N))]
            else:
                i, j = moved
                paths = []
                for vertex, color in ((i, x[j]), (j, x[i])):
                    for c in unused:
                        paths.append((0.5 / len(unused),
                                      delta_path(x, vertex, color, N, free_color=c)))
            for prob, path in paths:
                assert path.start == x and path.end == y
                for edge in path.edges:
                    load[edge] = load.get(edge, 0.0) + prob * len(path) * weight

    best = -math.inf
    for (a, b), value in load.items():
        denom = pi * p_cc[idx[a], idx[b]]
        assert denom > 0
        best = max(best, value / denom)
    return best


# at (2, 12), N - k > 9: a self-loop would top the maximum if its draw
# count k were dropped
@pytest.mark.parametrize("k,N", [(1, 5), (2, 4), (2, 6), (2, 12), (3, 6), (3, 8)])
def test_congestion_matches_brute_force_oracle(k, N):
    oracle = _congestion_oracle(k, N)
    result = congestion_delta(k, N)
    assert result.a_delta == pytest.approx(oracle, rel=1e-12)


def test_congestion_small_cases_frozen_values():
    # k = 1: the two chains coincide and every path is the edge itself
    assert congestion_delta(1, 5).a_delta == pytest.approx(1.0, abs=1e-14)
    # k >= 2: the load is edge-independent and matches the closed form
    assert congestion_delta(2, 4).a_delta == pytest.approx(4.125, abs=1e-12)
    assert congestion_delta(2, 6).a_delta == pytest.approx(65 / 24, rel=1e-13)
    assert congestion_delta(3, 6).a_delta == pytest.approx(14 / 3, rel=1e-13)


def test_congestion_argmax_is_first_maximal_edge():
    # every off-diagonal edge attains the maximum at k=4, N=9; the report
    # names the first in (row, col) order, as Python ints
    result = congestion_delta(4, 9)
    assert result.a_delta == 64 / 15
    assert result.argmax_edge == ((0, 1, 2, 3), (0, 1, 2, 4))
    assert all(type(v) is int for state in result.argmax_edge for v in state)


def test_congestion_below_both_bounds():
    # color and coordinate permutations act transitively on the non-loop
    # cc edges, so every such edge carries the same load and the exact
    # congestion equals the closed form, not merely stays below it
    for k, N in [(2, 8), (3, 8), (4, 10), (2, 4), (3, 6), (1, 5), (2, 6), (2, 10),
                 (2, 12), (4, 9), (5, 11)]:
        result = congestion_delta(k, N)
        assert result.a_delta <= UNIVERSAL_CONGESTION_BOUND + 1e-12
        assert result.a_delta <= congestion_formula_bound(k, N) + 1e-12
        assert result.a_delta == pytest.approx(congestion_formula_bound(k, N), rel=1e-12)


def test_is_cc_move_classification():
    assert is_cc_move((0, 1), (0, 1), 4)
    assert is_cc_move((0, 1), (2, 1), 4)
    assert not is_cc_move((0, 1), (1, 0), 4)   # swap is not one cc move
    assert not is_cc_move((0, 1), (2, 3), 4)   # two coordinates changed


def _residual_inputs(k, N):
    # the ucc and cc kernels and the congestion that the residual compares
    return (build_kernel(ChainSpec(family="ucc", k=k, ncolors=N)),
            build_kernel(ChainSpec(family="cc", k=k, ncolors=N)),
            congestion_delta(k, N).a_delta)


def test_comparison_residual_constant_f_is_zero():
    f = np.full(tuple_space_size(2, 5), 2.0)
    assert dirichlet_comparison_residual(f, *_residual_inputs(2, 5)) == 0.0


def test_comparison_residual_random_f_theta_3_6():
    rng = make_rng(12)
    ucc, cc, a_delta = _residual_inputs(3, 6)
    for _ in range(25):
        f = rng.random(ucc.size)
        res = dirichlet_comparison_residual(np.sqrt(f), ucc, cc, a_delta)
        assert res <= 1e-12


def test_comparison_residual_indicator_theta_2_6():
    k, N = 2, 6
    f = np.zeros(tuple_space_size(k, N))
    f[7] = 1.0
    assert dirichlet_comparison_residual(f, *_residual_inputs(k, N)) <= 1e-12


def test_compare_check_equals_the_acceptance_loop():
    # acceptance criterion 3's loop over random f on (3, 8)
    ucc = build_kernel(ChainSpec(family="ucc", k=3, ncolors=8))
    cc = build_kernel(ChainSpec(family="cc", k=3, ncolors=8))
    a_delta = congestion_delta(3, 8).a_delta
    rng = make_rng(0)
    worst = 0.0
    for _ in range(100):
        root = np.sqrt(rng.random(ucc.size))
        worst = max(worst, dirichlet_form(ucc, root) - a_delta * dirichlet_form(cc, root))
    report = compare_check(3, 8, 100, 0)
    assert (report.A_delta, report.max_residual) == (a_delta, worst)
