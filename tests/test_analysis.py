"""Dirichlet forms, entropy, ratio search, and the entropy chain rule."""

import math
import threading
from dataclasses import asdict

import numpy as np
import pytest
from scipy import optimize, sparse
from scipy.sparse.linalg import eigsh

from kwmix import analysis
from kwmix.analysis import (
    chain_rule_check,
    chain_rule_residual,
    complete_alpha_lower_bound,
    dirichlet_form,
    entropy,
    lsc_ratio,
    lsc_search,
    spectral_gap,
    ucc_alpha_lower_bound,
    verify_reversible,
)
from kwmix.chains import ChainSpec, Kernel, build_kernel, product_kernel
from kwmix.core import enumerate_tuples, tuple_space_size
from kwmix.generic import make_partition
from kwmix.rng import make_rng
from oracles import marginal, restrict_conditional


def _ranks(k, N):
    # rank of each distinct tuple: its row in the lexicographic enumeration
    return {t: idx for idx, t in enumerate(map(tuple, enumerate_tuples(k, N).tolist()))}


@pytest.fixture(scope="module")
def ucc24():
    return build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))


@pytest.fixture(scope="module")
def k2():
    return build_kernel(ChainSpec(family="complete", ncolors=2))


def test_dirichlet_constant_function_vanishes(ucc24):
    assert dirichlet_form(ucc24, np.full(ucc24.size, 3.7)) == 0.0


def test_dirichlet_two_state_closed_form(k2):
    assert dirichlet_form(k2, np.array([0.0, 1.0])) == pytest.approx(0.25, abs=1e-16)


def test_dirichlet_matches_brute_force_double_sum(ucc24):
    rng = make_rng(5)
    dense = ucc24.dense()
    pi = ucc24.stationary
    for _ in range(5):
        f = rng.random(ucc24.size)
        oracle = 0.5 * sum(
            (f[x] - f[y]) ** 2 * pi[x] * dense[x, y]
            for x in range(ucc24.size)
            for y in range(ucc24.size)
        )
        assert dirichlet_form(ucc24, f) == pytest.approx(oracle, rel=1e-13)


def test_dirichlet_rejects_misaligned(ucc24):
    with pytest.raises(ValueError):
        dirichlet_form(ucc24, np.ones(5))


def test_entropy_constant_function_vanishes():
    pi = np.full(4, 0.25)
    assert entropy(pi, np.full(4, 2.2)) == pytest.approx(0.0, abs=1e-15)


def test_entropy_two_state_closed_form():
    pi = np.full(2, 0.5)
    assert entropy(pi, np.array([2.0, 0.0])) == pytest.approx(math.log(2), rel=1e-15)


def test_entropy_nonnegative_on_random_functions():
    rng = make_rng(9)
    for _ in range(1000):
        m = int(rng.integers(2, 30))
        pi = rng.random(m) + 0.01
        pi /= pi.sum()
        f = rng.random(m) * 3
        assert entropy(pi, f) >= 0.0


def test_entropy_rejects_negative_values():
    with pytest.raises(ValueError):
        entropy(np.full(2, 0.5), np.array([1.0, -0.5]))


def test_lsc_ratio_positive_and_rejects_constant(ucc24):
    rng = make_rng(2)
    f = rng.random(ucc24.size) + 0.1
    assert lsc_ratio(ucc24, f) > 0
    with pytest.raises(ValueError):
        lsc_ratio(ucc24, np.ones(ucc24.size))


def test_two_state_search_matches_one_dimensional_oracle(k2):
    # oracle: scan f = (a, 2-a); scale invariance makes this exhaustive
    def ratio(a):
        f = np.array([a, 2.0 - a])
        return lsc_ratio(k2, f)

    grid = np.linspace(1e-9, 2 - 1e-9, 20001)
    grid = grid[np.abs(grid - 1.0) > 1e-6]
    oracle = min(ratio(a) for a in grid)
    res = optimize.minimize_scalar(ratio, bounds=(1e-12, 0.999999), method="bounded")
    oracle = min(oracle, res.fun)

    found = lsc_search(k2, restarts=40, seed=1).best_ratio
    assert found == pytest.approx(oracle, rel=1e-4)
    # the two-point uniform chain is the textbook alpha = 1/2 case
    assert oracle == pytest.approx(0.5, abs=1e-6)


def test_search_respects_complete_graph_floor():
    for N in (3, 5, 8):
        kernel = build_kernel(ChainSpec(family="complete", ncolors=N))
        best = lsc_search(kernel, restarts=60, seed=0).best_ratio
        assert best >= complete_alpha_lower_bound(N)
        assert best <= spectral_gap(kernel) / 2 + 1e-9


def test_search_respects_uniform_recoloring_floor():
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=5))
    best = lsc_search(kernel, restarts=80, seed=0).best_ratio
    assert best >= ucc_alpha_lower_bound(2, 5)
    assert best <= spectral_gap(kernel) / 2 + 1e-9


def test_search_runs_above_ten_thousand_states():
    kernel = build_kernel(ChainSpec(family="ucc", k=3, ncolors=24))
    assert kernel.size == 12144
    result = lsc_search(kernel, restarts=1, seed=0)
    assert result.restarts == 1
    assert result.best_ratio > ucc_alpha_lower_bound(3, 24)


def _no_blas_dot(*args, **kwargs):
    raise AssertionError("a BLAS dot product ran during the search")


@pytest.fixture
def no_blas_dot(monkeypatch):
    for name in ("dot", "vdot", "inner"):
        monkeypatch.setattr(np, name, _no_blas_dot)


def test_search_objective_makes_no_blas_dot_call(no_blas_dot):
    # 17280 off-diagonal edges, above OpenBLAS's threaded-ddot threshold
    kernel = build_kernel(ChainSpec(family="ucc", k=3, ncolors=10))
    coo = kernel.matrix.tocoo()
    assert np.count_nonzero(coo.row != coo.col) == 17280
    result = lsc_search(kernel, restarts=12, seed=0)
    assert result.best_ratio == pytest.approx(0.12838395071555392, rel=1e-12)
    assert result.evaluations == 363


def test_gate_chain_search_is_pinned(no_blas_dot):
    kernel = build_kernel(ChainSpec(family="rev", k=2, n=4))
    result = lsc_search(kernel, restarts=24, seed=0)
    assert result.best_ratio == pytest.approx(0.06037139964559212, rel=1e-12)
    assert result.evaluations == 1129


def _spy_starts(monkeypatch, change=lambda first, starts: starts):
    """Record every group of starts lsc_search draws, after change(first,
    starts) has had its say."""
    groups = []
    draw = analysis._starts

    def spied(rng, first, rows, size):
        groups.append(change(first, draw(rng, first, rows, size)))
        return groups[-1]

    monkeypatch.setattr(analysis, "_starts", spied)
    return groups


def test_search_counts_the_evaluations_of_a_collapsed_restart(monkeypatch):
    # restart 0 starts at g = 0, where the objective is inf with a zero
    # gradient: it stops at once with no witness, but its one evaluation
    # still counts
    def zero_first(first, starts):
        if first == 0:
            starts[0] = 0.0
        return starts

    _spy_starts(monkeypatch, zero_first)
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=5))
    result = lsc_search(kernel, restarts=4, seed=0)
    assert result.runs[0] == analysis.RestartStats(iterations=0, evaluations=1, stop="collapsed")
    assert all(run.stop != "collapsed" for run in result.runs[1:])
    assert result.evaluations == sum(run.evaluations for run in result.runs)
    monkeypatch.undo()
    full = lsc_search(kernel, restarts=4, seed=0)
    assert result.runs[1:] == full.runs[1:]
    assert result.evaluations == full.evaluations - full.runs[0].evaluations + 1


def test_a_constant_g_has_no_ratio(monkeypatch):
    # the rounded mean of a constant g^2 differs from g^2 by an ulp, so its
    # entropy computes to about 1e-32, not 0: below the floor relative to
    # the mean it gets ratio inf and gradient 0, whatever the constant
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=5))
    objective, _ = analysis._ratio_objective(kernel)
    ratio, grad = objective(np.array([np.ones(kernel.size), np.full(kernel.size, 3.0)]))
    assert ratio.tolist() == [np.inf, np.inf]
    assert not grad.any()

    def constant_first(first, starts):
        if first == 0:
            starts[0] = 1.0
        return starts

    _spy_starts(monkeypatch, constant_first)
    result = lsc_search(kernel, restarts=2, seed=0)
    assert result.runs[0] == analysis.RestartStats(iterations=0, evaluations=1, stop="collapsed")


def test_fewer_restarts_take_the_first_starts_of_more(monkeypatch):
    # the restarts draw their starts in turn from the one stream of the
    # seed, so a shorter search runs a prefix of a longer one
    groups = _spy_starts(monkeypatch)
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=5))
    for restarts in (4, 8):
        lsc_search(kernel, restarts=restarts, seed=3)
    short, long = groups
    assert short.shape == (4, kernel.size) and long.shape == (8, kernel.size)
    np.testing.assert_array_equal(short, long[:4])
    assert not any(np.array_equal(long[0], later) for later in long[1:])


@pytest.mark.parametrize("entries", [1, 500, 1500])
def test_search_groups_do_not_change_the_result(monkeypatch, entries):
    # ucc k=2 N=5 has 70 undirected edges: groups of 1, 7 and 21 restarts
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=5))
    whole = lsc_search(kernel, restarts=40, seed=2)
    groups = _spy_starts(monkeypatch)
    monkeypatch.setattr(analysis, "SEARCH_ENTRIES", entries)
    split = lsc_search(kernel, restarts=40, seed=2)
    rows = max(1, entries // 70)
    assert [len(g) for g in groups] == [rows] * (40 // rows) + [40 % rows] * (40 % rows > 0)
    assert split.best_ratio == whole.best_ratio
    np.testing.assert_array_equal(split.witness, whole.witness)
    assert split.runs == whole.runs and split.evaluations == whole.evaluations


def test_search_records_each_restart():
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=6))
    result = lsc_search(kernel, restarts=30, seed=0)
    assert len(result.runs) == 30
    assert sum(run.evaluations for run in result.runs) == result.evaluations
    for run in result.runs:
        assert run.stop in analysis.STOPS
        # one evaluation at the start and at least one per step
        assert 1 <= run.iterations < run.evaluations
        assert run.iterations <= 500


def test_search_reaches_the_complete_graph_constant():
    # the complete graph's log-Sobolev constant is (1 - 2/N) / log(N - 1)
    # (Diaconis and Saloff-Coste, 1996, Theorem A.1)
    for N in range(3, 17):
        kernel = build_kernel(ChainSpec(family="complete", ncolors=N))
        exact = (1.0 - 2.0 / N) / math.log(N - 1)
        assert lsc_search(kernel, restarts=200, seed=0).best_ratio == \
            pytest.approx(exact, rel=1e-6)


def test_recurrence_direction_compatibility():
    # searched inverse constants should satisfy the one-step recurrence
    # up to search slack: both searches sit near the true constants
    s_2_6 = lsc_search(build_kernel(ChainSpec(family="ucc", k=2, ncolors=6)),
                       restarts=120, seed=0).best_ratio
    s_1_5 = lsc_search(build_kernel(ChainSpec(family="ucc", k=1, ncolors=5)),
                       restarts=120, seed=0).best_ratio
    lhs = 1.0 / s_2_6
    rhs = (6.0 / 5.0) / s_1_5 + 3.0 * math.log(6)
    assert lhs <= rhs * 1.05


def test_spectral_gap_complete_graph_is_one():
    for N in (2, 4, 9):
        kernel = build_kernel(ChainSpec(family="complete", ncolors=N))
        assert spectral_gap(kernel) == pytest.approx(1.0, abs=1e-12)


def test_spectral_gap_of_identical_product_scales():
    base = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))
    g1 = spectral_gap(base)
    for t in (2, 3):
        prod = product_kernel([base] * t)
        assert spectral_gap(prod) == pytest.approx(g1 / t, abs=1e-10)


def test_spectral_gap_ucc24_against_dense_oracle(ucc24):
    # oracle: eigensolve the dense symmetric kernel directly
    eigs = np.sort(np.linalg.eigvalsh(ucc24.dense()))
    assert spectral_gap(ucc24) == pytest.approx(1.0 - eigs[-2], abs=1e-12)


def _dense_gap_oracle(kernel):
    # 1 - lambda_2 of D^{1/2} P D^{-1/2} from a dense eigvalsh, D = diag(pi)
    sqrt_pi = np.sqrt(kernel.stationary)
    a = kernel.dense() * (sqrt_pi[:, None] / sqrt_pi[None, :])
    return 1.0 - np.linalg.eigvalsh(0.5 * (a + a.T))[-2]


def _lazy_bits(count):
    return product_kernel([build_kernel(ChainSpec(family="complete", ncolors=2))] * count)


@pytest.mark.parametrize("make", [
    lambda: build_kernel(ChainSpec(family="rev", k=2, n=4)),
    lambda: build_kernel(ChainSpec(family="rev", k=2, n=4, gate_mode="set")),
    lambda: build_kernel(ChainSpec(family="grev", k=2, n=5,
                                   partition=make_partition(5, 2, w=2, p=2))),
    lambda: build_kernel(ChainSpec(family="cc", k=3, ncolors=6)),
    lambda: build_kernel(ChainSpec(family="ucc", k=3, ncolors=8)),
    # degenerate second eigenvalues: 0 six times, and 3/4 four times
    lambda: build_kernel(ChainSpec(family="complete", ncolors=7)),
    lambda: _lazy_bits(4),
    lambda: build_kernel(ChainSpec(family="tgrev", k=2, n=5,
                                   partition=make_partition(5, 2, w=2, p=2))),
], ids=["rev", "rev-set", "grev", "cc", "ucc", "complete", "lazy-bits", "tgrev"])
def test_sparse_spectral_gap_matches_dense_oracle(make, monkeypatch):
    kernel = make()
    monkeypatch.setattr(analysis, "DENSE_GAP_STATES", 0)
    assert spectral_gap(kernel) == pytest.approx(_dense_gap_oracle(kernel), abs=1e-12)


def test_spectral_gap_above_the_dense_cutoff():
    ucc = build_kernel(ChainSpec(family="ucc", k=3, ncolors=16))
    tgrev = build_kernel(ChainSpec(family="tgrev", k=2, n=6,
                                   partition=make_partition(6, 2, w=2, p=2)))
    assert min(ucc.size, tgrev.size) > analysis.DENSE_GAP_STATES
    assert spectral_gap(ucc) == pytest.approx(1 / 3, abs=1e-12)
    assert spectral_gap(tgrev) == pytest.approx(1 / 12, abs=1e-12)


@pytest.mark.parametrize("k,N", [(k, N) for k in (2, 3) for N in range(2 * k, 2 * k + 4)])
def test_recoloring_gaps_have_closed_forms(k, N):
    # ucc's gap is 1/k and cc's is (N - k)/(k(N - k + 1)); k=3 at N >= 7
    # (210 states and up) runs the eigsh path
    ucc = build_kernel(ChainSpec(family="ucc", k=k, ncolors=N))
    cc = build_kernel(ChainSpec(family="cc", k=k, ncolors=N))
    assert abs(spectral_gap(ucc) - 1 / k) <= 1e-13
    assert abs(spectral_gap(cc) - (N - k) / (k * (N - k + 1))) <= 1e-13
    if (k, N) == (3, 8):
        assert ucc.size == 336 > analysis.DENSE_GAP_STATES


def test_sparse_spectral_gap_is_deterministic():
    kernel = build_kernel(ChainSpec(family="ucc", k=3, ncolors=8))
    assert kernel.size > analysis.DENSE_GAP_STATES
    first = spectral_gap(kernel)
    # an unrelated eigsh call advances ARPACK's own random start state
    eigsh(sparse.diags(np.arange(1.0, 301.0)), k=2, which="LA")
    assert spectral_gap(kernel) == first


def test_spectral_gap_raises_on_solver_failure(monkeypatch):
    from scipy.sparse.linalg import ArpackNoConvergence

    from kwmix.errors import InvariantViolation

    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))
    monkeypatch.setattr(analysis, "DENSE_GAP_STATES", 0)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("synthetic", np.array([]), np.array([]))

    monkeypatch.setattr(analysis, "eigsh", no_convergence)
    with pytest.raises(ValueError, match="did not converge"):
        spectral_gap(kernel)
    monkeypatch.setattr(analysis, "eigsh", lambda *a, **kw: np.array([0.5, 0.999]))
    with pytest.raises(InvariantViolation, match="top eigenvalue"):
        spectral_gap(kernel)


def test_spectral_gap_rejects_nonreversible():
    matrix = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    from scipy import sparse

    kernel = Kernel(matrix=sparse.csr_matrix(matrix),
                    stationary=np.full(3, 1 / 3), meta={"family": "cycle"})
    with pytest.raises(ValueError):
        spectral_gap(kernel)


def test_verify_reversible_passes_exact_chains(ucc24):
    assert verify_reversible(ucc24).max_violation == 0.0
    rev = build_kernel(ChainSpec(family="rev", k=2, n=3))
    assert verify_reversible(rev).max_violation <= 1e-12


def test_verify_reversible_flags_perturbation(ucc24):
    dense = ucc24.dense()
    i, j = np.argwhere(dense > 0)[3]
    dense[i, j] += 1e-6
    dense[i] /= dense[i].sum()
    from scipy import sparse

    bad = Kernel(matrix=sparse.csr_matrix(dense), stationary=ucc24.stationary,
                 meta={"family": "perturbed"})
    report = verify_reversible(bad)
    assert not report.passes
    assert report.max_violation > 0


# ---------------------------------------------------------------------------
# conditional restriction, marginal, chain rule
# ---------------------------------------------------------------------------


def test_restriction_and_marginal_of_constant():
    k, N = 3, 5
    f = np.full(tuple_space_size(k, N), 2.5)
    r = restrict_conditional(f, 1, 2, k, N)
    assert r.shape == (tuple_space_size(k - 1, N - 1),)
    assert np.allclose(r, 2.5, atol=0)
    assert np.allclose(marginal(f, 1, k, N), 2.5, atol=0)


def test_marginal_of_indicator_k2_n3():
    k, N = 2, 3
    f = np.zeros(tuple_space_size(k, N))
    f[_ranks(k, N)[(0, 1)]] = 1.0
    m = marginal(f, 0, k, N)
    assert m[0] == pytest.approx(0.5, abs=0)
    assert m[1] == 0.0 and m[2] == 0.0


def test_slice_sizes_by_enumeration():
    k, N = 3, 5
    expected = math.factorial(N - 1) // math.factorial(N - k)
    for i in range(k):
        for c in range(N):
            count = sum(1 for t in enumerate_tuples(k, N) if t[i] == c)
            assert count == expected


def test_restriction_indices_align_with_slice():
    # spot-check: restriction at (i, c) visits exactly the slice values
    k, N = 2, 4
    rng = make_rng(4)
    f = rng.random(tuple_space_size(k, N))
    for i in range(k):
        for c in range(N):
            r = restrict_conditional(f, i, c, k, N)
            slice_vals = sorted(f[idx] for t, idx in _ranks(k, N).items() if t[i] == c)
            assert sorted(r.tolist()) == pytest.approx(slice_vals)


def _restrict_reference(f, i, c, k, N):
    """Per-tuple restriction: take each (k-1)-tuple in lexicographic order,
    lift it past color c, insert c at coordinate i and look the full tuple
    up."""
    rank = _ranks(k, N)
    if k == 1:
        return np.array([f[rank[(c,)]]])
    out = []
    for small in _ranks(k - 1, N - 1):
        lifted = tuple(v if v < c else v + 1 for v in small)
        out.append(f[rank[lifted[:i] + (c,) + lifted[i:]]])
    return np.array(out)


@pytest.mark.parametrize("k,N", [(1, 4), (2, 4), (2, 5), (3, 5), (3, 6), (4, 6)])
def test_restriction_and_marginal_match_per_tuple_reference(k, N):
    f = make_rng(k * 10 + N).random(tuple_space_size(k, N))
    for i in range(k):
        sums = np.zeros(N)
        for idx, t in enumerate(enumerate_tuples(k, N)):
            sums[t[i]] += f[idx]
        assert marginal(f, i, k, N).tolist() == (sums / (len(f) // N)).tolist()
        for c in range(N):
            assert (restrict_conditional(f, i, c, k, N).tolist()
                    == _restrict_reference(f, i, c, k, N).tolist())


def test_chain_rule_constant_function():
    assert chain_rule_residual(np.full(tuple_space_size(2, 4), 1.3), 0, 2, 4) \
        == pytest.approx(0.0, abs=1e-15)


def test_chain_rule_random_functions_theta_2_6():
    rng = make_rng(8)
    size = tuple_space_size(2, 6)
    pi = np.full(size, 1.0 / size)
    for _ in range(100):
        f = rng.random(size) + 0.05
        ent = entropy(pi, f)
        for i in range(2):
            assert chain_rule_residual(f, i, 2, 6) <= 1e-10 * max(ent, 1.0)


def test_chain_rule_indicator_theta_2_4():
    size = tuple_space_size(2, 4)
    f = np.zeros(size)
    f[_ranks(2, 4)[(2, 0)]] = 1.0
    for i in range(2):
        assert chain_rule_residual(f, i, 2, 4) <= 1e-12


def test_chain_rule_closed_form_indicator():
    # oracle: for an indicator of one tuple, Ent(f) = log|Theta| / |Theta|
    k, N = 2, 4
    size = tuple_space_size(k, N)
    f = np.zeros(size)
    f[_ranks(k, N)[(1, 3)]] = 1.0
    pi = np.full(size, 1.0 / size)
    assert entropy(pi, f) == pytest.approx(math.log(size) / size, rel=1e-14)


def _chain_rule_per_color(f, i, k, N):
    """The residual assembled from one `restrict_conditional` call per
    color and one `marginal` call, each enumerating the tuple space."""
    lhs = entropy(np.full(len(f), 1.0 / len(f)), f)
    cond_terms = []
    for c in range(N):
        sliced = restrict_conditional(f, i, c, k, N)
        cond_terms.append(entropy(np.full(len(sliced), 1.0 / len(sliced)), sliced))
    rhs = math.fsum(cond_terms) / N + entropy(np.full(N, 1.0 / N), marginal(f, i, k, N))
    return abs(lhs - rhs)


@pytest.mark.parametrize("k,N", [(2, 3), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7)])
def test_chain_rule_residual_equals_the_per_color_path(k, N, monkeypatch):
    rng = make_rng(100 * k + N)
    size = tuple_space_size(k, N)
    calls = []
    original = analysis._tuple_states
    monkeypatch.setattr(analysis, "_tuple_states",
                        lambda *a: calls.append(a) or original(*a))
    for trial in range(5):
        f = rng.random(size) + 0.05
        if trial == 4:
            f[rng.random(size) < 0.5] = 0.0
        for i in range(k):
            calls.clear()
            got = chain_rule_residual(f, i, k, N)
            assert len(calls) == 1  # the tuple space is enumerated once
            assert got == _chain_rule_per_color(f, i, k, N)


@pytest.mark.parametrize("k,N", [(2, 5), (3, 8)])
def test_chain_rule_check_equals_the_residual_loop(k, N, monkeypatch):
    # the loop over chain_rule_residual, one enumeration per call, that
    # the check replaces
    size = tuple_space_size(k, N)
    rng = make_rng(7)
    per_coordinate = []
    for i in range(k):
        max_abs = max_rel = 0.0
        for _ in range(4):
            f = rng.random(size) + 0.05
            res = chain_rule_residual(f, i, k, N)
            ent = entropy(np.full(size, 1.0 / size), f)
            max_abs = max(max_abs, res)
            max_rel = max(max_rel, res / ent if ent > 0 else res)
        per_coordinate.append({"i": i, "max_abs_residual": max_abs,
                               "max_rel_residual": max_rel})
    calls = []
    original = analysis._tuple_states
    monkeypatch.setattr(analysis, "_tuple_states",
                        lambda *a: calls.append(a) or original(*a))
    report = asdict(chain_rule_check(k, N, 4, seed=7))
    assert len(calls) == 1  # the tuple space is enumerated once per check
    assert report == {
        "k": k, "N": N, "count": 4,
        "max_abs_residual": max(c["max_abs_residual"] for c in per_coordinate),
        "max_rel_residual": max(c["max_rel_residual"] for c in per_coordinate),
        "per_coordinate": per_coordinate}


def test_spectral_gap_forms_the_flow_once(monkeypatch):
    kernel = build_kernel(ChainSpec(family="ucc", k=3, ncolors=16))
    calls = []
    original = type(kernel.matrix).multiply
    monkeypatch.setattr(type(kernel.matrix), "multiply",
                        lambda *a: calls.append(a) or original(*a))
    spectral_gap(kernel)
    assert len(calls) == 1


def test_concurrent_searches_agree():
    kernel = build_kernel(ChainSpec(family="ucc", k=3, ncolors=10))
    expected = lsc_search(kernel, restarts=6, seed=0)
    results = []
    workers = [threading.Thread(target=lambda: results.append(lsc_search(kernel, 6, seed=0)))
               for _ in range(2)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert [(r.best_ratio, r.evaluations) for r in results] == \
        [(expected.best_ratio, expected.evaluations)] * 2
