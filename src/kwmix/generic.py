"""Block partitions of the wire set and generic circuit states.

The n wires are split into p disjoint width-w blocks plus a remainder
set. A k-tuple of n-bit strings is *generic* when every pair of rows
differs inside every block (the remainder carries no constraint). The
default sizing is w = ceil(10 * (log2 k + log2 n)), p = ceil(n / (2w)),
which is far too wide for exhaustive experiments, so overrides are
accepted everywhere.

Sampled and enumerated tuples go through one array test: a batch is an
(S, k, W) array of little-endian 64-bit words, and a tuple is generic
when the XOR of each row pair has a set bit under each block's mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import enumerate_tuples, sample_uniform_tuples, tuple_space_size
from .rng import mc_counts


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks C_1..C_p of width w plus remainder C covering [n]."""

    n: int
    k: int
    w: int
    p: int
    blocks: tuple[tuple[int, ...], ...]
    remainder: tuple[int, ...]

    def __post_init__(self) -> None:
        covered = [pos for block in self.blocks for pos in block]
        covered += list(self.remainder)
        if sorted(covered) != list(range(self.n)):
            raise ValueError("blocks and remainder must partition the wire set")
        if len(self.blocks) != self.p:
            raise ValueError(f"expected {self.p} blocks, got {len(self.blocks)}")
        for block in self.blocks:
            if len(block) != self.w:
                raise ValueError(f"every block must have width {self.w}")

    def descriptor(self) -> dict:
        """JSON-ready description of the partition."""
        return {
            "n": self.n,
            "k": self.k,
            "w": self.w,
            "p": self.p,
            "blocks": [list(b) for b in self.blocks],
            "remainder": list(self.remainder),
        }


def default_block_width(n: int, k: int) -> int:
    return math.ceil(10.0 * (math.log(k, 2.0) + math.log(n, 2.0)))


def make_partition(
    n: int,
    k: int,
    w: int | None = None,
    p: int | None = None,
) -> Partition:
    """Contiguous-block partition; default sizes unless (w, p) overridden.

    Block t covers wires [t*w, (t+1)*w); the remainder is the tail.
    """
    if n < 1 or k < 1:
        raise ValueError(f"need n, k >= 1, got n={n}, k={k}")
    override = w is not None or p is not None
    if w is None:
        w = default_block_width(n, k)
        if w < 1:
            raise ValueError(f"default sizing produced w={w}; supply an override")
    if p is None:
        p = math.ceil(n / (2 * w))
    if p < 1 and not override:
        raise ValueError(f"default sizing produced p={p}; supply an override")
    if p < 0 or w < 1:
        raise ValueError(f"invalid override w={w}, p={p}")
    if p * w > n:
        raise ValueError(f"blocks need {p * w} wires but only {n} exist")
    blocks = tuple(tuple(range(t * w, (t + 1) * w)) for t in range(p))
    remainder = tuple(range(p * w, n))
    return Partition(n=n, k=k, w=w, p=p, blocks=blocks, remainder=remainder)


def extract_block(value: int, positions: Sequence[int]) -> int:
    """Bits of `value` at `positions`, packed into an int (LSB first); also
    elementwise on an int64 array, as `chains._move` uses it."""
    out = 0
    for m, pos in enumerate(positions):
        out |= ((value >> pos) & 1) << m
    return out


def insert_block(value: int, positions: Sequence[int], block_value: int) -> int:
    """Replace the bits of `value` at `positions` with those of block_value;
    also elementwise on int64 arrays, as `chains._move` and
    `chains.enumerate_generic_states` use it."""
    for m, pos in enumerate(positions):
        bit = (block_value >> m) & 1
        value = (value & ~(1 << pos)) | (bit << pos)
    return value


def generic_mask(words: np.ndarray, partition: Partition) -> np.ndarray:
    """Genericity of every tuple in an (S, k, W) uint64 word array, as a
    bool (S,) array: each row pair must differ under every block mask."""
    S, k, W = words.shape
    masks = np.array([[(sum(1 << pos for pos in block) >> 64 * j) & (2**64 - 1)
                       for j in range(W)] for block in partition.blocks],
                     dtype=np.uint64).reshape(partition.p, W)
    ok = np.ones(S, dtype=bool)
    for a, b in combinations(range(k), 2):
        diff = words[:, a] ^ words[:, b]
        for mask in masks:
            ok &= (diff & mask).any(axis=1)
    return ok


def count_generic_states(partition: Partition) -> int:
    """|Generic| = (product over blocks of distinct k-tuples) * 2^(k * |C|);
    without blocks, every distinct tuple."""
    if partition.p == 0:
        return tuple_space_size(partition.k, 1 << partition.n)
    per_block = tuple_space_size(partition.k, 1 << partition.w)
    return per_block ** partition.p * (1 << (partition.k * len(partition.remainder)))


@dataclass(frozen=True)
class FractionEstimate:
    fraction: float
    hits: int
    samples: int
    wilson_low: float
    wilson_high: float
    union_bound_low: float


def union_bound_generic_fraction(partition: Partition) -> float:
    """Crude lower bound on the generic fraction: 1 - p * k^2 * 2^(1-w)."""
    return 1.0 - partition.p * partition.k**2 * 2.0 ** (1 - partition.w)


def _wilson(hits: int, samples: int) -> tuple[float, float]:
    z = 2.5758293035489004  # two-sided 99% normal quantile
    if samples == 0:
        raise ValueError("need at least one sample")
    phat = hits / samples
    denom = 1.0 + z * z / samples
    center = (phat + z * z / (2 * samples)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / samples + z * z / (4 * samples**2))
    return max(0.0, center - half), min(1.0, center + half)


def generic_fraction_mc(partition: Partition, samples: int, seed: int = 0) -> FractionEstimate:
    """Monte Carlo estimate of Pr[a uniform distinct k-tuple is generic].

    `rng.mc_counts` bins the `generic_mask` value, 0 or 1, of every sample,
    drawn in pieces of at most MC_PIECE rows from the one stream of
    `seed`, so memory does not grow with `samples`; the hits are bin 1.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    hits = int(mc_counts(samples, seed, 2, lambda rows, rng: generic_mask(
        sample_uniform_tuples(partition.n, partition.k, rows, rng), partition))[1])
    low, high = _wilson(hits, samples)
    return FractionEstimate(
        fraction=hits / samples,
        hits=hits,
        samples=samples,
        wilson_low=low,
        wilson_high=high,
        union_bound_low=union_bound_generic_fraction(partition),
    )


def generic_fraction_exact(partition: Partition) -> Fraction:
    """Exact generic fraction by enumerating all distinct k-tuples."""
    n, k = partition.n, partition.k
    N = 1 << n
    total = tuple_space_size(k, N)
    if total > 10_000_000:
        raise ValueError(f"{total} tuples is too many to enumerate exactly")
    words = enumerate_tuples(k, N).view(np.uint64)[..., None]
    return Fraction(int(generic_mask(words, partition).sum()), total)


@dataclass(frozen=True)
class ProductStructureReport:
    """Deviations between the product chain on generic states and its
    claimed factorization; each max_* field should be roundoff-sized."""

    max_mixture_deviation: float
    max_block_factor_deviation: float
    max_remainder_deviation: float
    gap_product: float
    gap_blocks: float
    gap_remainder: float
    gap_identity_error: float

    def passes(self) -> bool:
        return bool(
            self.max_mixture_deviation <= 1e-12
            and self.max_block_factor_deviation <= 1e-12
            and self.max_remainder_deviation <= 1e-12
            and self.gap_identity_error <= 1e-9
        )


def verify_tgrev_product_structure(partition: Partition) -> ProductStructureReport:
    """Check the factorization of the product chain on generic states.

    (a) the kernel equals the half/half mixture of the block chain and
        the remainder chain;
    (b) each block factor equals the standard recoloring kernel on
        k-tuples of block values;
    (c) the remainder chain equals the product of k*|C| lazy two-state
        kernels;
    (d) gap(product) = (1/2) * min(factor gaps), a reducible kernel's
        gap being exactly 0.

    Needs a toy-scale partition: every kernel is built exactly.
    """
    from .analysis import spectral_gap
    from .chains import ChainSpec, build_kernel, product_kernel

    k = partition.k
    tgrev = build_kernel(ChainSpec(family="tgrev", k=k, n=partition.n, partition=partition))

    cc_block = build_kernel(ChainSpec(family="cc", k=k, ncolors=1 << partition.w))
    blocks_chain = product_kernel([cc_block] * partition.p)
    lazy_bit = build_kernel(ChainSpec(family="complete", ncolors=2))
    rem_bits = k * len(partition.remainder)
    remainder_chain = product_kernel([lazy_bit] * rem_bits)
    mixture = product_kernel([blocks_chain, remainder_chain])

    # enumerate_generic_states orders states as (block digits, remainder
    # bits), exactly the product order of [blocks_chain, remainder_chain]
    max_mixture = float(abs(tgrev.matrix - mixture.matrix).max())

    sizes = [cc_block.size] * partition.p + [lazy_bit.size] * rem_bits
    max_block = _factor_deviation(tgrev.matrix, sizes, range(partition.p),
                                  cc_block, weight=2.0 * partition.p)
    max_rem = _factor_deviation(tgrev.matrix, sizes, range(partition.p, len(sizes)),
                                lazy_bit, weight=2.0 * rem_bits)

    def gap(kernel):
        # spectral_gap refuses a reducible kernel; its gap is exactly 0
        # (2^w = k leaves no block value free, so the blocks never move)
        return 0.0 if kernel.strong_classes() > 1 else spectral_gap(kernel)

    gap_product = gap(tgrev)
    gap_blocks = gap(blocks_chain)
    gap_remainder = gap(remainder_chain)
    gap_err = abs(gap_product - 0.5 * min(gap_blocks, gap_remainder))
    return ProductStructureReport(
        max_mixture_deviation=max_mixture,
        max_block_factor_deviation=max_block,
        max_remainder_deviation=max_rem,
        gap_product=gap_product,
        gap_blocks=gap_blocks,
        gap_remainder=gap_remainder,
        gap_identity_error=gap_err,
    )


def _factor_deviation(matrix, sizes, positions, factor, weight) -> float:
    """Largest |matrix entry * weight - factor entry| over the moves of the
    factor at each of `positions` of a product state of factors of the
    given sizes, in every context of the other digits: the factor is read
    through the Kronecker term that `chains.product_kernel` places it by,
    and both on the moves of that digit alone."""
    from .chains import _kron_term

    worst = 0.0
    for m in positions:
        moves = _kron_term(sizes, m, np.ones((factor.size,) * 2) - np.eye(factor.size))
        dev = (matrix.multiply(moves) * weight
               - _kron_term(sizes, m, factor.matrix).multiply(moves))
        worst = max(worst, float(abs(dev).max()))
    return worst
