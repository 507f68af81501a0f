"""Partitions, genericity, and the product-structure verification."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy import sparse
from scipy import stats as sps

from kwmix.chains import ChainSpec, build_kernel
from kwmix.core import sample_uniform_tuples, tuple_space_size
from kwmix.generic import (
    Partition,
    _factor_deviation,
    count_generic_states,
    extract_block,
    generic_fraction_exact,
    generic_fraction_mc,
    generic_mask,
    insert_block,
    make_partition,
    union_bound_generic_fraction,
    verify_tgrev_product_structure,
)
from kwmix.rng import make_rng
from oracles import factor_deviation_by_index, is_generic


def test_default_partition_n512_k2():
    part = make_partition(512, 2)
    assert part.w == 100
    assert part.p == 3
    assert len(part.remainder) == 512 - 300


def test_default_partition_n1024_k4():
    part = make_partition(1024, 4)
    assert part.w == 120
    assert part.p == 5


def test_default_partition_too_wide_errors():
    with pytest.raises(ValueError):
        make_partition(64, 2)


def test_default_partition_of_one_wire_and_one_row_is_refused():
    # w = ceil(10 (log2 1 + log2 1)) = 0 leaves no block to size p by
    with pytest.raises(ValueError, match="default sizing produced w=0; supply an override"):
        make_partition(1, 1)
    with pytest.raises(ValueError, match="default sizing produced w=0"):
        make_partition(1, 1, p=1)
    assert make_partition(1, 1, w=1).p == 1


def test_blocks_are_contiguous_and_disjoint():
    part = make_partition(10, 2, w=3, p=2)
    assert part.blocks == ((0, 1, 2), (3, 4, 5))
    assert part.remainder == (6, 7, 8, 9)
    desc = part.descriptor()
    assert desc["w"] == 3 and desc["p"] == 2


def test_extract_insert_block_roundtrip():
    positions = (1, 3, 4)
    value = 0b10110
    block = extract_block(value, positions)
    assert insert_block(value, positions, block) == value
    assert extract_block(insert_block(0, positions, 0b101), positions) == 0b101


def test_single_row_is_always_generic():
    part = make_partition(4, 1, w=2, p=1)
    for v in range(16):
        assert is_generic((v,), part)


def test_equal_block_restriction_is_not_generic():
    part = make_partition(4, 2, w=2, p=1)
    # rows agree on bits {0,1} (the block) but differ on the remainder
    assert not is_generic((0b0101, 0b1001), part)


def test_rows_equal_only_on_remainder_are_generic():
    part = make_partition(4, 2, w=2, p=1)
    # rows differ on the block, agree on remainder bits {2,3}
    assert is_generic((0b0101, 0b0110), part)


def test_is_generic_invariant_under_row_permutation():
    part = make_partition(6, 3, w=2, p=2)
    rng = make_rng(17)
    for _ in range(200):
        rows = tuple(int(v) for v in rng.integers(0, 64, size=3))
        if len(set(rows)) < 3:
            continue
        base = is_generic(rows, part)
        for perm in itertools.permutations(rows):
            assert is_generic(perm, part) == base


def _as_ints(words):
    # (S, k, W) little-endian 64-bit words -> tuples of Python ints
    return [tuple(sum(int(w) << (64 * j) for j, w in enumerate(row)) for row in sample)
            for sample in words]


@pytest.mark.parametrize("n,k,w,p", [(3, 2, 1, 2), (4, 2, 2, 1), (6, 3, 2, 2), (8, 4, 2, 3),
                                     (12, 3, 3, 4), (12, 5, 3, 2), (5, 1, 2, 2), (4, 2, 1, 0)])
def test_generic_mask_matches_is_generic(n, k, w, p):
    part = make_partition(n, k, w=w, p=p)
    words = sample_uniform_tuples(n, k, 3_000, make_rng(n * 100 + k))
    mask = generic_mask(words, part)
    expected = [is_generic(rows, part) for rows in _as_ints(words)]
    assert mask.tolist() == expected
    assert 0 < sum(expected) < len(expected) or p == 0 or k == 1


def _straddling_partition(n, k, blocks):
    rest = tuple(sorted(set(range(n)) - {pos for block in blocks for pos in block}))
    return Partition(n=n, k=k, w=len(blocks[0]), p=len(blocks), blocks=blocks,
                     remainder=rest)


@pytest.mark.parametrize("n,blocks", [
    (130, ((62, 63, 64), (127, 128, 129), (0, 70, 126))),
    (512, ((63, 64, 65), (191, 192, 300), (5, 250, 511), (447, 448, 449))),
])
def test_generic_mask_on_blocks_straddling_words(n, blocks):
    k = 3
    part = _straddling_partition(n, k, blocks)
    words = sample_uniform_tuples(n, k, 2_000, make_rng(n))
    assert words.shape == (2_000, k, -(-n // 64))
    rows = _as_ints(words)
    assert max(max(r) for r in rows).bit_length() == n
    expected = [is_generic(r, part) for r in rows]
    assert generic_mask(words, part).tolist() == expected
    assert 0 < sum(expected) < len(expected)


def test_sampler_draws_one_integers_call_per_word():
    # word j of every row is one rng.integers draw over its bits, so a
    # single-word sampler draws exactly what a (samples, k) call draws
    a = sample_uniform_tuples(12, 2, 500, make_rng(4))
    b = make_rng(4).integers(0, 1 << 12, size=(500, 2), dtype=np.uint64)
    redrawn = (b[:, 0] == b[:, 1])
    assert (a[~redrawn, :, 0] == b[~redrawn]).all()
    words = sample_uniform_tuples(100, 2, 1_000, make_rng(5))
    assert (words[:, :, 1] < (1 << 36)).all() and (words[:, :, 1] >= (1 << 35)).any()


def test_sampler_is_uniform_over_distinct_tuples():
    # n=2, k=3: all 24 distinct tuples, most samples redraw some row
    x = sample_uniform_tuples(2, 3, 12_000, make_rng(7))[..., 0]
    assert (x[:, 0] != x[:, 1]).all() and (x[:, 1] != x[:, 2]).all()
    assert (x[:, 0] != x[:, 2]).all()
    counts = np.bincount((x @ np.array([16, 4, 1], dtype=np.uint64)).astype(np.int64),
                         minlength=64)
    counts = counts[counts > 0]
    assert len(counts) == 24
    assert sps.chisquare(counts).pvalue > 1e-3


def test_sampler_refuses_more_rows_than_strings_before_drawing():
    rng = make_rng(6)
    with pytest.raises(ValueError):
        sample_uniform_tuples(2, 5, 10, rng)
    assert rng.integers(1 << 30) == make_rng(6).integers(1 << 30)
    assert sample_uniform_tuples(2, 4, 50, rng).shape == (50, 4, 1)


def _oracle_fraction(part):
    # independent enumeration with inline bit arithmetic
    n, k = part.n, part.k
    total = 0
    generic = 0
    for rows in itertools.permutations(range(1 << n), k):
        total += 1
        ok = True
        for block in part.blocks:
            vals = set()
            for r in rows:
                vals.add(tuple((r >> pos) & 1 for pos in block))
            if len(vals) != k:
                ok = False
                break
        if ok:
            generic += 1
    return Fraction(generic, total)


def test_exact_toy_fraction_matches_enumeration_oracle():
    part = make_partition(2, 2, w=1, p=1)
    oracle = _oracle_fraction(part)
    assert oracle == Fraction(2, 3)  # 8 of the 12 ordered distinct pairs
    assert generic_fraction_exact(part) == oracle


def test_exact_fraction_k1_is_one():
    part = make_partition(3, 1, w=1, p=1)
    assert generic_fraction_exact(part) == 1


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("w,extra", [(2, 0), (2, 1), (3, 1)])
def test_exact_fraction_matches_closed_form_count(k, p, w, extra):
    n = max(p * w + extra, 2)
    part = make_partition(n, k, w=w, p=p)
    assert generic_fraction_exact(part) == Fraction(count_generic_states(part),
                                                    tuple_space_size(k, 2**n))


def test_mc_matches_exact_on_small_instance():
    part = make_partition(4, 2, w=2, p=1)
    exact = float(generic_fraction_exact(part))
    est = generic_fraction_mc(part, samples=20_000, seed=3)
    assert est.wilson_low <= exact <= est.wilson_high


def test_mc_is_deterministic_per_seed():
    part = make_partition(4, 2, w=1, p=2)
    a = generic_fraction_mc(part, samples=5_000, seed=9)
    b = generic_fraction_mc(part, samples=5_000, seed=9)
    assert a == b
    c = generic_fraction_mc(part, samples=5_000, seed=10)
    assert c.hits != a.hits or c.fraction == a.fraction


def test_default_partition_fraction_beats_union_bound():
    part = make_partition(512, 2)
    est = generic_fraction_mc(part, samples=2_000, seed=0)
    assert est.fraction >= union_bound_generic_fraction(part) - 0.01
    assert est.union_bound_low > 0.999999


def test_product_structure_toy_partition():
    part = make_partition(3, 2, w=2, p=1)
    report = verify_tgrev_product_structure(part)
    assert report.max_mixture_deviation <= 1e-12
    assert report.max_block_factor_deviation <= 1e-12
    assert report.max_remainder_deviation <= 1e-12
    assert report.gap_identity_error <= 1e-9
    assert report.passes()
    assert report.gap_remainder == pytest.approx(0.5, abs=1e-12)


def test_product_structure_two_blocks():
    part = make_partition(5, 2, w=1, p=2)
    report = verify_tgrev_product_structure(part)
    assert report.passes()


def _dense_factor_deviation(dense, factor_matrices, factor_count, weight, which):
    # the dense triple loop that checked factor rates before the sparse version
    sizes = [m.shape[0] for m in factor_matrices]
    t = len(sizes)
    strides = [1] * t
    for i in range(t - 2, -1, -1):
        strides[i] = strides[i + 1] * sizes[i + 1]
    total = dense.shape[0]

    offset = 0 if which == "block" else t - factor_count
    worst = 0.0
    for m in range(offset, offset + factor_count):
        expected = factor_matrices[m]
        size_m = sizes[m]
        for idx in range(total):
            digit = (idx // strides[m]) % size_m
            base = idx - digit * strides[m]
            for s2 in range(size_m):
                if s2 == digit:
                    continue
                got = dense[idx, base + s2 * strides[m]] * weight
                worst = max(worst, abs(got - expected[digit, s2]))
    return worst


@pytest.mark.parametrize("n,k,w,p", [(3, 2, 2, 1), (5, 2, 1, 2), (6, 2, 2, 2)])
def test_sparse_factor_deviations_match_dense_loop(n, k, w, p):
    part = make_partition(n, k, w=w, p=p)
    tgrev = build_kernel(ChainSpec(family="tgrev", k=k, n=n, partition=part))
    cc_block = build_kernel(ChainSpec(family="cc", k=k, ncolors=1 << w))
    lazy_bit = build_kernel(ChainSpec(family="complete", ncolors=2))
    rem_bits = k * len(part.remainder)
    sizes = [cc_block.size] * p + [2] * rem_bits
    factors = [cc_block.dense()] * p + [lazy_bit.dense()] * rem_bits
    report = verify_tgrev_product_structure(part)
    # the kernel itself, then a copy with every entry perturbed, so that the
    # deviations are far from zero and differ from entry to entry
    noisy = tgrev.matrix.copy()
    noisy.data *= 1 + make_rng(n).random(noisy.nnz)
    for matrix, block_dev, rem_dev in (
            (tgrev.matrix, report.max_block_factor_deviation,
             report.max_remainder_deviation),
            (noisy, None, None)):
        dense = matrix.toarray()
        ref_block = _dense_factor_deviation(dense, factors, p, 2.0 * p, "block")
        ref_rem = _dense_factor_deviation(dense, factors, rem_bits, 2.0 * rem_bits,
                                          "remainder")
        got_block = _factor_deviation(matrix, sizes, range(p), cc_block, 2.0 * p)
        got_rem = _factor_deviation(matrix, sizes, range(p, p + rem_bits), lazy_bit,
                                    2.0 * rem_bits)
        assert (got_block, got_rem) == (ref_block, ref_rem)
        if block_dev is not None:
            assert (block_dev, rem_dev) == (ref_block, ref_rem)
        else:
            assert max(ref_block, ref_rem) > 1e-3


@pytest.mark.parametrize("n,k,w,p", [(6, 2, 2, 2), (3, 2, 2, 1), (5, 3, 2, 1), (4, 1, 1, 2)])
def test_kronecker_factor_deviations_match_index_arithmetic(n, k, w, p):
    # each factor read through chains._kron_term against the stride-and-digit
    # indexing it replaced, bit for bit, on perturbed tgrev matrices: every
    # entry scaled, some moves dropped, and stray entries added where the
    # factors have none
    part = make_partition(n, k, w=w, p=p)
    tgrev = build_kernel(ChainSpec(family="tgrev", k=k, n=n, partition=part))
    cc_block = build_kernel(ChainSpec(family="cc", k=k, ncolors=1 << w))
    lazy_bit = build_kernel(ChainSpec(family="complete", ncolors=2))
    rem_bits = k * len(part.remainder)
    sizes = [cc_block.size] * p + [2] * rem_bits
    cases = ((range(p), cc_block, 2.0 * p), (range(p, p + rem_bits), lazy_bit, 2.0 * rem_bits))
    matrices = [tgrev.matrix]
    for seed in range(3):
        rng = make_rng(seed)
        noisy = tgrev.matrix.copy()
        noisy.data *= 1 + 0.01 * (rng.random(noisy.nnz) - 0.5)
        noisy.data[rng.random(noisy.nnz) < 0.01] = 0.0
        noisy.eliminate_zeros()
        stray = sparse.random(tgrev.size, tgrev.size, density=0.001, format="csr",
                              random_state=rng)
        matrices.append((noisy + 0.01 * stray).tocsr())
    for matrix in matrices:
        for positions, factor, weight in cases:
            args = (matrix, sizes, positions, factor, weight)
            assert _factor_deviation(*args) == factor_deviation_by_index(*args)
    assert min(_factor_deviation(m, sizes, *cases[0]) for m in matrices[1:]) > 0
