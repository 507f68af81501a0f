"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Every criterion runs at its stated tolerance and carries a wall-clock
budget. Criterion 10 is split: the Monte Carlo clause (10a) and the toy
enumeration clause (10b) are independent checks.
"""

import math
import time

import numpy as np

from kwmix.analysis import (
    complete_alpha_lower_bound,
    dirichlet_form,
    lsc_search,
    ucc_alpha_lower_bound,
    verify_reversible,
)
from kwmix import chains
from kwmix.chains import ChainSpec, build_kernel, sample_chain
from kwmix.comparison import congestion_delta, congestion_formula_bound
from kwmix.core import dedupe_gates, tuple_space_size
from kwmix.generic import (
    generic_fraction_exact,
    generic_fraction_mc,
    make_partition,
    verify_tgrev_product_structure,
)
from kwmix.mixing import (
    kwise_stat_mc,
    mixing_time_exact,
    pointwise_relative_error,
    tv_curve,
)
from kwmix.rng import make_rng


def _report(number: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number}: {status} [{elapsed:.1f}s/{budget:.0f}s] {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_kernel_exactness():
    started = time.perf_counter()
    checks = []
    for k, N in [(2, 6), (3, 8)]:
        for family in ("ucc", "cc"):
            kernel = build_kernel(ChainSpec(family=family, k=k, ncolors=N))
            rows = np.asarray(kernel.matrix.sum(axis=1)).ravel()
            checks.append(np.abs(rows - 1).max() <= 1e-12)
            checks.append(verify_reversible(kernel).max_violation <= 1e-12)
            diag = kernel.dense().diagonal()
            target = 1 / N if family == "ucc" else 1 / (N - k + 1)
            checks.append(np.abs(diag - target).max() <= 1e-12)
    rev = build_kernel(ChainSpec(family="rev", k=2, n=3))
    rows = np.asarray(rev.matrix.sum(axis=1)).ravel()
    checks.append(np.abs(rows - 1).max() <= 1e-12)
    checks.append(verify_reversible(rev).max_violation <= 1e-12)
    elapsed = time.perf_counter() - started
    _report("1", all(checks), "kernel rows, detailed balance, self-loops",
            elapsed, 10.0)


def test_criterion_2_congestion():
    started = time.perf_counter()
    ok = True
    details = []
    for k, N in [(2, 8), (3, 8), (4, 10)]:
        result = congestion_delta(k, N)
        formula = congestion_formula_bound(k, N)
        ok &= result.a_delta <= 19.0 + 1e-12
        ok &= result.a_delta <= formula + 1e-12
        details.append(f"A({k},{N})={result.a_delta:.4f}<=min(19,{formula:.4f})")
    elapsed = time.perf_counter() - started
    _report("2", ok, "; ".join(details), elapsed, 60.0)


def test_criterion_3_comparison_transfer():
    started = time.perf_counter()
    k, N = 3, 8
    ucc = build_kernel(ChainSpec(family="ucc", k=k, ncolors=N))
    cc = build_kernel(ChainSpec(family="cc", k=k, ncolors=N))
    a_delta = congestion_delta(k, N).a_delta
    rng = make_rng(0)
    worst = 0.0
    for _ in range(100):
        f = rng.random(ucc.size)
        root = np.sqrt(f)
        gap = dirichlet_form(ucc, root) - a_delta * dirichlet_form(cc, root)
        worst = max(worst, gap)
    elapsed = time.perf_counter() - started
    _report("3", worst <= 1e-12,
            f"100 random f on (3,8): worst E_ucc - A*E_cc = {worst:.3e}",
            elapsed, 30.0)


def test_criterion_4_chain_rule_identity():
    from kwmix.analysis import chain_rule_residual, entropy

    started = time.perf_counter()
    k, N = 2, 6
    size = tuple_space_size(k, N)
    pi = np.full(size, 1.0 / size)
    rng = make_rng(0)
    worst = 0.0
    for _ in range(100):
        f = rng.random(size) + 0.05
        ent = entropy(pi, f)
        for i in range(k):
            worst = max(worst, chain_rule_residual(f, i, k, N) / ent)
    elapsed = time.perf_counter() - started
    _report("4", worst <= 1e-10,
            f"100 random f, both coordinates: worst relative residual {worst:.3e}",
            elapsed, 10.0)


def test_criterion_5_log_sobolev_non_falsification():
    started = time.perf_counter()
    ok = True
    details = []
    for k, N in [(2, 6), (3, 8)]:
        kernel = build_kernel(ChainSpec(family="ucc", k=k, ncolors=N))
        best = lsc_search(kernel, restarts=200, seed=0).best_ratio
        floor = ucc_alpha_lower_bound(k, N)
        ok &= best >= floor
        details.append(f"ucc({k},{N}): {best:.5f}>={floor:.5f}")
    for N in range(2, 17):
        kernel = build_kernel(ChainSpec(family="complete", ncolors=N))
        best = lsc_search(kernel, restarts=200, seed=0).best_ratio
        if N >= 3:
            ok &= best >= complete_alpha_lower_bound(N)
    details.append("complete graphs N=2..16 all above 1/(3 ln N) for N>=3")
    elapsed = time.perf_counter() - started
    _report("5", ok, "; ".join(details), elapsed, 300.0)


def test_criterion_6_gate_involution_and_bijectivity(monkeypatch):
    started = time.perf_counter()
    ok = True
    for n in range(3, 11):
        tables = dedupe_gates(n)[0].astype(np.intp)
        identity = np.arange(1 << n)
        ok &= bool((np.sort(tables, axis=1) == identity).all())
        ok &= bool((np.take_along_axis(tables, tables, axis=1) == identity).all())
    # row v of one parameter-mode step draws gate index v, and every row is
    # the tuple of all n-bit strings, so its image is gate v's table
    monkeypatch.setattr(chains, "_gate_draws",
                        lambda rng, t, rows, high, dtype: iter([np.arange(high, dtype=dtype)]))
    for n in range(3, 6):
        x = np.tile(np.arange(1 << n), (16 * n * (n - 1) ** 2, 1))
        images = sample_chain(ChainSpec(family="rev", k=1 << n, n=n), x, 1, make_rng(0))
        rows, first, counts = np.unique(images, axis=0, return_index=True,
                                        return_counts=True)
        order = np.argsort(first)
        tables, weights = dedupe_gates(n)
        ok &= np.array_equal(rows[order], tables) and np.array_equal(counts[order], weights)
    elapsed = time.perf_counter() - started
    _report("6", ok, "dedupe_gates tables are involutive permutations at n=3..10; "
            "one sampler step per gate index gives them and their counts at n=3..5",
            elapsed, 5.0)


def test_criterion_7_exact_mixing():
    started = time.perf_counter()
    kernel = build_kernel(ChainSpec(family="rev", k=2, n=3))
    tau = mixing_time_exact(kernel, 0.25)
    ok = tau >= 1
    for start in range(kernel.size):
        curve = tv_curve(kernel, start, 2 * tau)
        ok &= bool((np.diff(curve) <= 1e-12).all())
    t, err = 0, math.inf
    while err >= 0.1 and t <= 500:
        t += 1
        err = pointwise_relative_error(kernel, 0, t)
    ok &= err < 0.1
    elapsed = time.perf_counter() - started
    _report("7", ok,
            f"tau_1/4 = {tau}; TV nonincreasing to 2*tau; "
            f"pointwise err {err:.4f} < 0.1 at t={t}",
            elapsed, 60.0)


def test_criterion_8_kwise_statistical_test():
    started = time.perf_counter()
    main = kwise_stat_mc(n=12, k=2, gates=2000, samples=100_000,
                         statistic="xor", seed=0, bins=64)
    negative = kwise_stat_mc(n=12, k=2, gates=0, samples=100_000,
                             statistic="xor", seed=0, bins=64)
    positive = kwise_stat_mc(n=12, k=2, gates=0, samples=100_000,
                             statistic="xor", seed=0, bins=64,
                             sampler="uniform")
    ok = (not main.rejects(0.001)) and negative.rejects(0.001) \
        and not positive.rejects(0.001)
    elapsed = time.perf_counter() - started
    _report("8", ok,
            f"2000 gates p={main.p_value:.3f}; 0 gates p={negative.p_value:.2e}; "
            f"uniform p={positive.p_value:.3f}",
            elapsed, 300.0)


def test_criterion_9_product_structure():
    started = time.perf_counter()
    partition = make_partition(3, 2, w=2, p=1)
    report = verify_tgrev_product_structure(partition)
    ok = (report.max_mixture_deviation <= 1e-12
          and report.max_block_factor_deviation <= 1e-12
          and report.max_remainder_deviation <= 1e-12
          and report.gap_identity_error <= 1e-9)
    elapsed = time.perf_counter() - started
    _report("9", ok,
            f"mixture dev {report.max_mixture_deviation:.1e}, block dev "
            f"{report.max_block_factor_deviation:.1e}, gap err "
            f"{report.gap_identity_error:.1e}",
            elapsed, 10.0)


def test_criterion_10a_genericity_monte_carlo():
    started = time.perf_counter()
    partition = make_partition(512, 2)
    est = generic_fraction_mc(partition, samples=10_000, seed=0)
    ok = est.fraction >= 0.99
    ok &= est.wilson_low <= est.union_bound_low <= est.wilson_high
    elapsed = time.perf_counter() - started
    _report("10a", ok,
            f"n=512 fraction {est.fraction:.4f} >= 0.99, union bound "
            f"{est.union_bound_low:.6f} inside Wilson "
            f"[{est.wilson_low:.6f}, {est.wilson_high:.6f}]",
            elapsed, 30.0)


def test_criterion_10b_genericity_toy_enumeration():
    # Stated expectation: exactly 1/2 on the (w=1, p=1, k=2, n=2) toy
    # partition. Exhaustive enumeration of the 12 ordered distinct pairs
    # gives 8/12 = 2/3 (a pair is generic iff the block bits differ, and
    # 4*2 of the 12 pairs differ there); 1/2 would require counting the
    # 16 not-necessarily-distinct pairs. The stated value is asserted
    # as written; see the decisions ledger for the analysis.
    started = time.perf_counter()
    partition = make_partition(2, 2, w=1, p=1)
    frac = generic_fraction_exact(partition)
    ok = frac == 0.5
    elapsed = time.perf_counter() - started
    _report("10b", ok, f"toy enumeration fraction = {frac} (stated: 1/2)",
            elapsed, 30.0)
