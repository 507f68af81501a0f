"""Distribution evolution, mixing times, and the statistical harness."""

import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import kwmix.rng
from kwmix import chains, cli, generic, mixing
from kwmix.chains import (
    ChainSpec,
    build_kernel,
    enumerate_generic_states,
    product_kernel,
    sample_chain,
)
from kwmix.core import enumerate_tuples, sample_uniform_tuples
from kwmix.errors import InvariantViolation
from kwmix.generic import generic_fraction_mc, make_partition
from kwmix.mixing import (
    MIN_EXPECTED_COUNT,
    SAMPLERS,
    STATISTICS,
    _orbit_labels,
    _statistic,
    _worst_tv_series,
    end_state_test,
    evolve,
    kwise_stat_mc,
    kwise_tv_exact,
    mixing_curve,
    mixing_time_exact,
    orbit_starts,
    pointwise_relative_error,
    tv_curve,
    tv_distance,
)
from kwmix.rng import make_rng


@pytest.fixture(scope="module")
def rev32():
    return build_kernel(ChainSpec(family="rev", k=2, n=3))


def test_evolve_zero_steps_is_point_mass(rev32):
    p = evolve(rev32, 5, 0)
    assert p[5] == 1.0 and p.sum() == 1.0


def test_complete_graph_is_uniform_after_one_step():
    kernel = build_kernel(ChainSpec(family="complete", ncolors=7))
    p = evolve(kernel, 2, 1)
    assert np.allclose(p, 1 / 7, atol=1e-16)


def test_evolution_conserves_mass(rev32):
    p = evolve(rev32, 0, 5)
    assert abs(p.sum() - 1.0) <= 1e-12


# Kernels whose evolution is checked against a CSR copy of P^T; grev's
# renormalized rows, and a product with a grev factor, have P != P^T.
EVOLVED = {
    "rev": lambda: build_kernel(ChainSpec(family="rev", k=2, n=4)),
    "ucc": lambda: build_kernel(ChainSpec(family="ucc", k=3, ncolors=7)),
    "cc": lambda: build_kernel(ChainSpec(family="cc", k=3, ncolors=6)),
    "grev": lambda: build_kernel(ChainSpec(family="grev", k=2, n=5,
                                           partition=make_partition(5, 2, w=2, p=2))),
    "product": lambda: product_kernel([
        build_kernel(ChainSpec(family="grev", k=2, n=4,
                               partition=make_partition(4, 2, w=1, p=2))),
        build_kernel(ChainSpec(family="cc", k=2, ncolors=3))]),
}


@pytest.mark.parametrize("name", EVOLVED)
def test_one_column_evolution_equals_the_matvec_loop_bit_for_bit(name):
    # evolve and tv_curve step an (S, 1) matrix through the view P.T; its
    # products must be those of the plain vector loop over a CSR copy of
    # P^T, to the last bit
    kernel = EVOLVED[name]()
    if name in ("grev", "product"):
        assert (kernel.matrix != kernel.matrix.T).nnz
    pt = kernel.matrix.transpose().tocsr()
    for start in (0, kernel.size - 1):
        p = np.zeros(kernel.size)
        p[start] = 1.0
        curve = [tv_distance(p, kernel.stationary)]
        for _ in range(60):
            p = pt @ p
            curve.append(tv_distance(p, kernel.stationary))
        assert np.array_equal(evolve(kernel, start, 60), p)
        assert tv_curve(kernel, start, 60) == curve


@pytest.mark.parametrize("name", EVOLVED)
def test_all_starts_series_equals_the_csr_copy_bit_for_bit(name):
    # the same kernel with P stored as the transpose of a CSR copy of P^T,
    # so that its evolution steps that copy: the worst-start series over
    # every start, an (S, S) matrix per step, must not change by a bit
    kernel = EVOLVED[name]()
    copied = dataclasses.replace(kernel, matrix=kernel.matrix.transpose().tocsr().T)
    assert copied.matrix.T.format == "csr" and kernel.matrix.T.format == "csc"
    assert (list(itertools.islice(_worst_tv_series(kernel, all_starts=True), 40))
            == list(itertools.islice(_worst_tv_series(copied, all_starts=True), 40)))


def test_evolution_refuses_out_of_range_starts_and_negative_times(rev32):
    for start in (-1, rev32.size):
        with pytest.raises(IndexError):
            evolve(rev32, start, 3)
        with pytest.raises(IndexError):
            tv_curve(rev32, start, 3)
    with pytest.raises(ValueError):
        evolve(rev32, 0, -1)
    with pytest.raises(ValueError):
        tv_curve(rev32, 0, -1)


def test_tv_identical_and_disjoint():
    assert tv_distance(np.array([0.3, 0.7]), np.array([0.3, 0.7])) == 0.0
    assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0


def test_tv_point_mass_vs_uniform():
    for m in (4, 9):
        point = np.zeros(m)
        point[0] = 1.0
        assert tv_distance(point, np.full(m, 1 / m)) == pytest.approx(1 - 1 / m)


def test_mixing_time_complete_graph_is_one():
    kernel = build_kernel(ChainSpec(family="complete", ncolors=5))
    for eps in (0.5, 0.25, 0.01):
        assert mixing_time_exact(kernel, eps) == 1


def test_mixing_time_monotone_in_epsilon(rev32):
    taus = [mixing_time_exact(rev32, eps) for eps in (0.4, 0.25, 0.1, 0.02)]
    assert taus == sorted(taus)
    assert taus[-1] < 200


def test_tv_curve_nonincreasing(rev32):
    for start in (0, 17, 55):
        curve = tv_curve(rev32, start, 40)
        diffs = np.diff(curve)
        assert (diffs <= 1e-12).all()


def test_tv_curve_nonincreasing_other_chains():
    for spec in [ChainSpec(family="ucc", k=2, ncolors=5),
                 ChainSpec(family="cc", k=2, ncolors=5)]:
        kernel = build_kernel(spec)
        curve = tv_curve(kernel, 0, 30)
        assert (np.diff(curve) <= 1e-12).all()


def test_pointwise_relative_error_decays(rev32):
    errs = [pointwise_relative_error(rev32, 0, t) for t in (0, 5, 15, 40)]
    assert errs[-1] < 0.1
    assert errs[-1] < errs[0]


def test_pointwise_threshold_finite_and_monotone(rev32):
    # t*(eps): first step where the worst-start relative error dips below
    # eps; must be finite and nondecreasing as eps shrinks
    def threshold(eps):
        for t in range(400):
            worst = max(pointwise_relative_error(rev32, s, t)
                        for s in range(rev32.size))
            if worst <= eps:
                return t
        raise AssertionError(f"threshold for eps={eps} not reached")

    thresholds = [threshold(eps) for eps in (0.5, 0.2, 0.1)]
    assert thresholds == sorted(thresholds)


def test_reducible_kernel_is_refused_at_once():
    part = make_partition(5, 2, w=1, p=2)
    kernel = build_kernel(ChainSpec(family="tgrev", k=2, n=5, partition=part))
    for solve in (mixing_time_exact, mixing_curve):
        with pytest.raises(ValueError, match="4 strongly connected classes"):
            solve(kernel, 0.25)


def test_kwise_tv_at_zero_steps():
    size = 8 * 7
    assert kwise_tv_exact(3, 2, 0)[0] == pytest.approx(1 - 1 / size, abs=1e-14)


def test_worst_tv_at_zero_steps_is_accurate_to_2_ulps():
    # 992 starts, each column 1 - 1/992 and 991 entries 1/992 from pi
    kernel = build_kernel(ChainSpec(family="rev", k=2, n=5))
    exact = 1 - 1 / 992
    assert abs(next(_worst_tv_series(kernel)) - exact) <= 2 * math.ulp(exact)


def test_kwise_tv_decays_monotonically():
    values = kwise_tv_exact(3, 2, 24)[::4]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert values[-1] < 0.1


def test_kwise_tv_k1_matches_single_string_chain():
    kernel = build_kernel(ChainSpec(family="rev", k=1, n=3))
    for t in (0, 1, 3, 7):
        direct = max(
            tv_distance(evolve(kernel, s, t), kernel.stationary)
            for s in range(kernel.size)
        )
        assert kwise_tv_exact(3, 1, t)[t] == pytest.approx(direct, abs=1e-14)


# ---------------------------------------------------------------------------
# worst-start TV over one start per symmetry orbit
# ---------------------------------------------------------------------------

ORBIT_EQUIVALENCE_SPECS = (
    [ChainSpec(family="rev", k=k, n=n, gate_mode=mode)
     for k, ns in ((1, (3, 4, 5)), (2, (3, 4, 5)), (3, (3, 4)))
     for n in ns for mode in ("parameter", "set")]
    + [ChainSpec(family="grev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
       ChainSpec(family="grev", k=2, n=5, partition=make_partition(5, 2, w=1, p=2)),
       ChainSpec(family="tgrev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
       ChainSpec(family="cc", k=2, ncolors=5),
       ChainSpec(family="ucc", k=3, ncolors=5),
       ChainSpec(family="complete", ncolors=7)]
)


@pytest.mark.parametrize("spec", ORBIT_EQUIVALENCE_SPECS,
                         ids=lambda s: s.label().replace(",", "-"))
def test_orbit_start_series_equals_all_starts(spec):
    kernel = build_kernel(spec)
    steps = 40
    orbit = list(itertools.islice(_worst_tv_series(kernel), steps + 1))
    every = list(itertools.islice(_worst_tv_series(kernel, all_starts=True), steps + 1))
    assert np.abs(np.subtract(orbit, every)).max() <= 1e-13
    for eps in (0.5, 0.25, 0.05):
        tau = next(t for t, v in enumerate(every) if v <= eps)
        assert mixing_time_exact(kernel, eps) == tau


@pytest.mark.parametrize("k,n,orbits", [
    (2, 5, 5), (3, 4, 6), (2, 6, 6), (2, 7, 7), (3, 5, 10), (5, 3, 3), (6, 3, 3),
    (7, 3, 1)])
def test_orbit_counts_of_the_tuple_space(k, n, orbits):
    labels = _orbit_labels(enumerate_tuples(k, 1 << n), n, ())
    assert len(np.unique(labels)) == orbits


def test_kwise_tv_exact_at_k7_over_one_orbit():
    assert kwise_tv_exact(3, 7, 3) == [0.99997519841269833, 0.99885912698412693,
                                       0.97378472222222223, 0.87656792534722217]


def test_orbit_starts_are_the_first_state_of_each_orbit():
    kernel = build_kernel(ChainSpec(family="grev", k=2, n=5,
                                    partition=make_partition(5, 2, w=2, p=2)))
    starts = orbit_starts(kernel)
    labels = _orbit_labels(kernel.states, 5, ((0, 1), (2, 3)))
    assert len(starts) == 6 and list(starts) == sorted(starts)
    assert [int(np.flatnonzero(labels == labels[s])[0]) for s in starts] == list(starts)
    assert len(set(labels[starts])) == len(starts)


def _permute_wires(x: np.ndarray, perm) -> np.ndarray:
    # wire j of the image is wire perm[j] of x
    return sum(((x >> int(src)) & 1) << j for j, src in enumerate(perm))


def _shape_preserving_perm(draw, n: int, blocks) -> list[int]:
    held = [w for b in blocks for w in b]
    remainder = [w for w in range(n) if w not in held]
    perm = list(range(n))
    shuffled_blocks = draw(st.permutations(list(blocks)))
    for block, source in zip(blocks, shuffled_blocks):
        for wire, src in zip(block, draw(st.permutations(list(source)))):
            perm[wire] = src
    for wire, src in zip(remainder, draw(st.permutations(remainder))):
        perm[wire] = src
    return perm


@functools.cache
def _tuple_space_labels(k: int, n: int, blocks) -> np.ndarray:
    return _orbit_labels(enumerate_tuples(k, 1 << n), n, blocks)


@functools.cache
def _tuple_ranks(k: int, N: int) -> dict:
    return {t: i for i, t in enumerate(map(tuple, enumerate_tuples(k, N).tolist()))}


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_orbit_labels_are_invariant_under_the_symmetries(data):
    n = data.draw(st.integers(3, 5), label="n")
    k = data.draw(st.integers(1, 3), label="k")
    w = data.draw(st.integers(1, n // 2), label="w")
    p = data.draw(st.integers(0, n // w), label="p")
    blocks = tuple(tuple(range(b * w, (b + 1) * w)) for b in range(p))
    N = 1 << n
    rows = data.draw(st.lists(st.permutations(range(N)), min_size=1, max_size=6),
                     label="x")
    x = np.array([row[:k] for row in rows], dtype=np.int64)
    mask = data.draw(st.integers(0, N - 1), label="xor")
    perm = _shape_preserving_perm(data.draw, n, blocks)
    order = data.draw(st.permutations(range(k)), label="rows")
    image = _permute_wires(x ^ mask, perm)[:, order]
    labels = _tuple_space_labels(k, n, blocks)
    rank = _tuple_ranks(k, N)
    ranks = [[rank[tuple(row)] for row in y.tolist()] for y in (x, image)]
    assert (labels[ranks[0]] == labels[ranks[1]]).all()


# ---------------------------------------------------------------------------
# statistic laws and the chi-square harness
# ---------------------------------------------------------------------------


def _enumerate_statistic_law(statistic, n, k, bins):
    # oracle: enumerate all distinct tuples and bin the statistic
    N = 1 << n
    counts = np.zeros(bins)
    total = 0
    for t in itertools.permutations(range(N), k):
        if statistic == "hamming":
            a = (n + 1 - bins) // 2  # end bins pool weights <= a and >= n - a
            v = min(max(bin(t[0]).count("1"), a), n - a) - a
        elif statistic == "xor":
            v = (t[0] ^ t[1]) & (bins - 1)
        else:
            v = t[0] & (bins - 1)
        counts[v] += 1
        total += 1
    return counts / total


@pytest.mark.parametrize("statistic,bins", [
    ("hamming", 5), ("hamming", 3), ("xor", 4), ("xor", 16), ("lowbits", 8)])
def test_statistic_laws_match_enumeration(statistic, bins):
    n, k = 4, 2
    law = _statistic(statistic, n, k, bins)[0]
    oracle = _enumerate_statistic_law(statistic, n, k, bins)
    assert np.abs(law - oracle).max() <= 1e-15
    assert law.sum() == pytest.approx(1.0, abs=1e-14)


def test_statistic_law_rejects_bad_requests():
    with pytest.raises(ValueError):
        _statistic("xor", 4, 1, 4)       # needs two coordinates
    with pytest.raises(ValueError):
        _statistic("lowbits", 4, 1, 3)   # bins must be a power of two
    with pytest.raises(ValueError):
        _statistic("hamming", 4, 1, 4)   # needs n + 1 - 2a bins
    with pytest.raises(ValueError):
        _statistic("hamming", 4, 1, 7)   # a < 0
    with pytest.raises(ValueError):
        _statistic("hamming", 3, 1, 0)   # fewer than 2 bins


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 33, 64])
def test_pooled_hamming_law_sums_the_binomial_law_exactly(n):
    for bins in range(n + 1, 1, -2):
        a = (n + 1 - bins) // 2
        pooled = [range(a + 1), *([w] for w in range(a + 1, n - a)), range(n - a, n + 1)]
        exact = [float(Fraction(sum(math.comb(n, w) for w in weights), 2 ** n))
                 for weights in pooled]
        assert _statistic("hamming", n, 2, bins)[0].tolist() == exact


@pytest.mark.parametrize("n", [3, 4, 7, 10])
def test_pooled_hamming_values_follow_the_pooled_law(n):
    # every n-bit string once, and for xor and lowbits every distinct pair
    # at n <= 7: the counts of the binned values are the law's numerators,
    # through the one branch of `_statistic` that gives both
    strings = np.arange(1 << n, dtype=np.uint64)[:, None]
    for bins in range(n + 1, 1, -2):
        law, bin_of = _statistic("hamming", n, 1, bins)
        counts = np.bincount(bin_of(strings), minlength=bins)
        assert len(counts) == bins
        assert (counts / (1 << n)).tolist() == law.tolist()
    if n > 7:
        return
    pairs = enumerate_tuples(2, 1 << n).astype(np.uint64)
    for statistic in ("xor", "lowbits"):
        for bins in (1 << b for b in range(1, n + 1)):
            law, bin_of = _statistic(statistic, n, 2, bins)
            counts = np.bincount(bin_of(pairs), minlength=bins)
            assert len(counts) == bins
            assert (counts / len(pairs)).tolist() == law.tolist()


def test_sample_uniform_tuples_are_distinct():
    rng = make_rng(21)
    x = sample_uniform_tuples(3, 3, 5_000, rng)[..., 0]
    assert (x < 8).all()
    assert ((x[:, 0] != x[:, 1]) & (x[:, 0] != x[:, 2])
            & (x[:, 1] != x[:, 2])).all()


def test_zero_gate_circuit_rejects():
    report = kwise_stat_mc(n=6, k=2, gates=0, samples=5_000, statistic="xor",
                           seed=0, bins=16)
    assert report.rejects(0.001)


def test_uniform_sampler_passes():
    report = kwise_stat_mc(n=6, k=2, gates=0, samples=50_000, statistic="xor",
                           seed=0, bins=16, sampler="uniform")
    assert not report.rejects(0.001)


def test_moderate_circuit_passes_all_statistics():
    for statistic, bins in (("xor", 16), ("hamming", 7), ("lowbits", 8)):
        report = kwise_stat_mc(n=6, k=2, gates=400, samples=30_000,
                               statistic=statistic, seed=1, bins=bins)
        assert not report.rejects(0.001), (statistic, report.p_value)


def test_harness_is_deterministic():
    a = kwise_stat_mc(n=6, k=2, gates=50, samples=10_000, statistic="xor",
                      seed=5, bins=16)
    b = kwise_stat_mc(n=6, k=2, gates=50, samples=10_000, statistic="xor",
                      seed=5, bins=16)
    assert a == b


def test_circuit_draw_order_is_pinned():
    # fixed by the rev step's one uint32 draw per gate and its split into
    # truth table, target and controls; any change to them moves this
    # value. It moved from 53.54800000000001 when the four draws per gate
    # (target, two control offsets, truth table) became one, and from
    # 71.75500000000002 when the samples stopped being split over eight
    # streams and all came from the one stream of the seed.
    report = kwise_stat_mc(n=6, k=2, gates=50, samples=2000, seed=3)
    assert report.chi2 == 63.94300000000001


def test_monte_carlo_shares_are_drawn_in_bounded_pieces(monkeypatch):
    # 40000 and 100 samples over 4 xor bins expect at least 23.8 per bin
    kwise = dict(n=6, k=2, gates=50, seed=3, bins=4)
    rows = []
    monkeypatch.setattr(mixing, "sample_chain", lambda spec, x, t, rng: (
        rows.append(len(x)) or sample_chain(spec, x, t, rng)))
    # 40000 samples fit in one piece of at most 65536 rows
    kwise_stat_mc(samples=40_000, **kwise)
    assert rows == [40_000]

    # no caller draws more rows at once than one piece
    monkeypatch.setattr(kwmix.rng, "MC_PIECE", 5)
    rows.clear()
    kwise_stat_mc(samples=100, **kwise)
    assert rows == [5] * 20
    rows.clear()
    end_state_test(ChainSpec(family="ucc", k=2, ncolors=3), 3, 100)  # 6 states
    assert rows == [5] * 20
    rows.clear()
    monkeypatch.setattr(generic, "sample_uniform_tuples", lambda n, k, size, stream: (
        rows.append(size) or sample_uniform_tuples(n, k, size, stream)))
    kwise_stat_mc(samples=100, **kwise)
    generic_fraction_mc(make_partition(8, 2, w=2, p=2), 100, seed=3)
    assert max(rows) == 5 and sum(rows) == 200


def test_monte_carlo_pieces_draw_in_turn_from_one_stream(monkeypatch):
    # 100 samples in pieces of 5, each circuit's 50 steps spanning draw blocks
    monkeypatch.setattr(kwmix.rng, "MC_PIECE", 5)
    monkeypatch.setattr(chains, "DRAW_BLOCK_BYTES", 1000)
    spec = ChainSpec(family="rev", k=2, n=6)
    seen = []
    statistic = mixing._statistic

    def spied(*args):
        law, bin_of = statistic(*args)
        return law, lambda tuples: seen.append(tuples) or bin_of(tuples)

    monkeypatch.setattr(mixing, "_statistic", spied)
    for sampler in SAMPLERS:
        seen.clear()
        kwise_stat_mc(n=6, k=2, gates=50, samples=100, seed=3, bins=4, sampler=sampler)
        rng = make_rng(3)
        if sampler == "circuit":
            loop = [sample_chain(spec, np.tile((0, 1), (5, 1)), 50, rng) for _ in range(20)]
        else:
            loop = [sample_uniform_tuples(6, 2, 5, rng)[..., 0] for _ in range(20)]
        np.testing.assert_array_equal(np.concatenate(seen), np.concatenate(loop))

    part = make_partition(8, 2, w=2, p=2)
    rng = make_rng(3)
    hits = sum(int(generic.generic_mask(sample_uniform_tuples(8, 2, 5, rng), part).sum())
               for _ in range(20))
    estimate = generic_fraction_mc(part, 100, seed=3)
    assert estimate.hits == hits < 100

    # the end-state counts of 100 ucc(k=2, N=3) trajectories, as ranked
    ucc = ChainSpec(family="ucc", k=2, ncolors=3)
    counted = []
    monkeypatch.setattr(mixing, "mc_counts", lambda *args: (
        counted.append(kwmix.rng.mc_counts(*args)) or counted[-1]))
    end_state_test(ucc, 4, 100, seed=3)
    states, index = chains._chain_states(ucc)
    rng = make_rng(3)
    ranks = [index(sample_chain(ucc, np.tile(states[0], (5, 1)), 4, rng)) for _ in range(20)]
    np.testing.assert_array_equal(counted, [np.bincount(np.concatenate(ranks), minlength=6)])


def test_chi_square_refuses_or_halves_bins_that_expect_too_few_samples():
    # 10 samples over 63 nonzero xor bins expect 0.159 each
    with pytest.raises(ValueError, match=f"expect 0.159 .* at least {MIN_EXPECTED_COUNT}"):
        kwise_stat_mc(n=6, k=2, gates=5, samples=10, bins=64)
    # 2 lowbits bins expect exactly MIN_EXPECTED_COUNT from 10 samples
    assert kwise_stat_mc(n=6, k=2, gates=5, samples=10, statistic="lowbits",
                         bins=2, sampler="uniform").dof == 1
    # the default binning halves until its least likely bin expects enough:
    # 50 samples over 16, 8 or 4 xor bins of 4-bit strings expect 3.33,
    # 3.33 or 10 in the least likely bin
    assert kwise_stat_mc(n=4, k=2, gates=3, samples=50).bins == 4
    # over 64 or 32 xor bins of 6-bit strings the least likely bin holds
    # 1/63 of the mass, over 16 bins 3/63
    assert kwise_stat_mc(n=6, k=2, gates=3, samples=315).bins == 64
    assert kwise_stat_mc(n=6, k=2, gates=3, samples=314).bins == 16
    with pytest.raises(ValueError, match="4 samples over 2 bins expect 1.97"):
        kwise_stat_mc(n=6, k=2, gates=3, samples=4)
    # hamming pools its end bins instead: over 21 bins of 20-bit weights the
    # end bins expect 0.00095 from 1000 samples, and weights <= 4 and >= 16
    # pooled (13 bins) expect 5.9; an explicit --bins is kept and refused
    with pytest.raises(ValueError, match="over 21 bins expect 0.000954"):
        kwise_stat_mc(n=20, k=2, gates=3, samples=1000, statistic="hamming", bins=21)
    assert kwise_stat_mc(n=20, k=2, gates=3, samples=1000, statistic="hamming").bins == 13
    # n=4 pools down to 3 bins (weights <= 1, 2 and >= 3, 5/16 of the mass
    # in each end bin) and no further
    assert kwise_stat_mc(n=4, k=2, gates=3, samples=16, statistic="hamming").bins == 3
    with pytest.raises(ValueError, match="15 samples over 3 bins expect 4.69"):
        kwise_stat_mc(n=4, k=2, gates=3, samples=15, statistic="hamming")


def test_harness_calibration_rejection_rate():
    # on truly uniform inputs the rejection rate at significance s must sit
    # within 3 sigma of s across 200 independent harness runs
    significance = 0.05
    runs = 200
    rejections = sum(
        kwise_stat_mc(n=6, k=2, gates=0, samples=2_000, statistic="xor",
                      seed=seed, bins=16, sampler="uniform").rejects(significance)
        for seed in range(runs)
    )
    sigma = math.sqrt(runs * significance * (1 - significance))
    assert abs(rejections - runs * significance) <= 3 * sigma


def test_end_state_test_of_a_point_mass_counts_every_unvisited_state():
    # t = 0 leaves all m samples at the start: one visited state holding
    # m, and 11 unvisited ones each expecting m / 12
    spec = ChainSpec(family="ucc", k=2, ncolors=4)
    report = end_state_test(spec, 0, 60)
    assert (report.states, report.distinct_visited, report.dof) == (12, 1, 11)
    assert report.chi2 == pytest.approx((60 - 5) ** 2 / 5 + 11 * 5, rel=1e-15)
    assert report.empirical_tv == pytest.approx(11 / 12, rel=1e-15)
    assert report.p_value == sps.chi2.sf(660.0, 11)


@pytest.mark.parametrize("spec", [
    ChainSpec(family="ucc", k=2, ncolors=4),
    ChainSpec(family="cc", k=3, ncolors=5),
    ChainSpec(family="rev", k=2, n=3),
    ChainSpec(family="tgrev", k=2, n=3, partition=make_partition(3, 2, w=2, p=1)),
], ids=lambda spec: spec.label())
def test_end_state_test_matches_a_count_over_every_state(spec, monkeypatch):
    if spec.family == "tgrev":
        states = enumerate_generic_states(spec.partition)
    else:
        states = enumerate_tuples(spec.k, 1 << spec.n if spec.n else spec.ncolors)
    m, t, seed = 40 * len(states), 3, 9
    # the m trajectories span several pieces of 100, the last one short
    monkeypatch.setattr(kwmix.rng, "MC_PIECE", 100)
    report = end_state_test(spec, t, m, seed)
    rng = make_rng(seed)
    ends = np.concatenate([sample_chain(spec, np.tile(states[0], (min(100, m - a), 1)), t, rng)
                           for a in range(0, m, 100)])
    counts = {tuple(row): 0 for row in states.tolist()}
    for row in ends.tolist():
        counts[tuple(row)] += 1
    assert len(counts) == len(states)  # every end state is a state
    expected = m / len(states)
    observed = np.array(list(counts.values()))
    chi2 = math.fsum((observed - expected) ** 2 / expected)
    assert report.states == len(states) and report.dof == len(states) - 1
    # reports.json_dumps refuses numpy integers
    assert {type(report.states), type(report.distinct_visited), type(report.dof)} == {int}
    assert report.distinct_visited == int((observed > 0).sum())
    assert report.chi2 == pytest.approx(chi2, rel=1e-12)
    assert report.p_value == pytest.approx(sps.chi2.sf(chi2, len(states) - 1), rel=1e-9)
    assert report.empirical_tv == pytest.approx(
        0.5 * np.abs(observed / m - 1 / len(states)).sum(), rel=1e-12)


# p-values come from scipy.special.chdtrc; scipy.stats stays the oracle here


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("statistic", STATISTICS)
def test_kwise_p_value_is_the_chi2_survival_function(statistic, sampler):
    report = kwise_stat_mc(n=6, k=2, gates=30, samples=3000, statistic=statistic,
                           seed=2, sampler=sampler)
    assert 0.0 < report.p_value == sps.chi2.sf(report.chi2, report.dof)


@pytest.mark.parametrize("spec", [
    ChainSpec(family="ucc", k=2, ncolors=4),
    ChainSpec(family="cc", k=3, ncolors=5),
    ChainSpec(family="rev", k=2, n=3),
    ChainSpec(family="tgrev", k=2, n=3, partition=make_partition(3, 2, w=2, p=1)),
], ids=lambda spec: spec.label())
def test_end_state_p_value_is_the_chi2_survival_function(spec):
    for t in (1, 20):  # far from and near the uniform law
        report = end_state_test(spec, t, 10_000, seed=4)
        assert report.p_value == sps.chi2.sf(report.chi2, report.dof)


def test_count_in_an_unsupported_bin_has_p_value_zero(monkeypatch):
    # tuples with equal rows put every xor value in bin 0, which distinct
    # 4-bit tuples never reach
    monkeypatch.setattr(mixing, "sample_uniform_tuples",
                        lambda n, k, size, rng: np.zeros((size, k, 1), dtype=np.uint64))
    report = kwise_stat_mc(n=4, k=2, gates=0, samples=150, statistic="xor", bins=16,
                           sampler="uniform")
    assert (report.chi2, report.dof) == (math.inf, 14)
    assert report.p_value == 0.0 == sps.chi2.sf(report.chi2, report.dof)


def test_a_sample_outside_its_bins_is_an_internal_fault(monkeypatch):
    # tuples with equal rows are no state of ucc and rank -1; the CLI exits
    # 4 (internal invariant violation), not 2 (invalid configuration)
    monkeypatch.setattr(mixing, "sample_chain", lambda spec, x, t, rng: np.zeros_like(x))
    with pytest.raises(InvariantViolation, match="outside its 12 bins"):
        end_state_test(ChainSpec(family="ucc", k=2, ncolors=4), 3, 60)
    assert cli.main(["mix-mc", "--chain", "ucc", "--k", "2", "--N", "4", "--t", "3",
                     "--samples", "60"]) == 4
    with pytest.raises(InvariantViolation, match="outside its 2 bins"):
        kwmix.rng.mc_counts(10, 0, 2, lambda rows, rng: np.full(rows, 2))


def test_p_value_needs_a_degree_of_freedom():
    # chdtrc(0, x) is 0.0 where chi2.sf gives nan; neither caller gets there
    with pytest.raises(InvariantViolation, match="dof >= 1, got 0"):
        mixing._chi2_p_value(1.0, 0)
    with pytest.raises(ValueError, match="xor of 1-bit strings takes one value"):
        kwise_stat_mc(n=1, k=2, gates=0, samples=10, sampler="uniform")
    with pytest.raises(ValueError, match="has one state"):
        end_state_test(ChainSpec(family="ucc", k=1, ncolors=1), 3, 10)


def test_end_state_test_refuses_too_few_samples_per_state():
    spec = ChainSpec(family="rev", k=2, n=4)  # 240 states
    with pytest.raises(ValueError, match=f"at least {MIN_EXPECTED_COUNT}"):
        end_state_test(spec, 10, MIN_EXPECTED_COUNT * 240 - 1)
    assert end_state_test(spec, 10, MIN_EXPECTED_COUNT * 240).states == 240
