"""Bit strings, 3-wire reversible gates, and distinct tuples.

Gate v of n wires, 0 <= v < 16 n (n-1)^2, is v = 16 q + h: entry q of
`gate_wires(n)` gives its target t and controls c1, c2, and h is a 4-bit
truth table. On an n-bit string x the gate flips bit t by bit (2 a + b)
of h, a and b being bits c1 and c2 of x (`gate_flips`, the one statement
of that rule). Every gate is an involution and therefore a permutation
of {0,1}^n. `gate_classes` names the distinct permutations by their
first indices, with no table, and `dedupe_gates` tables them (n <= 12)
for the exact kernels at n = 3; from n = 4 on the kernels count the rows
each gate flips (`chains._flip_moves`). The rev sampler steps indices.

Tuples of k pairwise-distinct values from a ground set of size N (the
common state space of the coloring chains, and of circuit states with
N = 2^n) are enumerated lexicographically, so kernels can address them
as a contiguous integer range. Uniform distinct tuples of n-bit strings
are sampled as arrays of 64-bit words, so n is not bounded by a word.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

def gate_wires(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Target, first control and second control of each of the n (n-1)^2
    wire choices of a gate, index q = (target (n-1) + j1) (n-1) + j2 with
    control i the wire target + 1 + ji (mod n). Controls range over all
    wires other than the target, independently (so they may coincide)."""
    if n < 3:
        raise ValueError(f"need n >= 3 wires, got {n}")
    target, j = np.divmod(np.arange(n * (n - 1) ** 2), (n - 1) ** 2)
    j1, j2 = np.divmod(j, n - 1)
    return target, (target + 1 + j1) % n, (target + 1 + j2) % n


def gate_flips(x: np.ndarray, target, control1, control2, h,
               out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The bits the gate (target, control1, control2, h) flips in x: bit
    (2 a + b) of h, a and b being bits control1 and control2 of x,
    shifted to bit target; x ^ flips is the gate's image of x.

    Elementwise under numpy broadcasting, in x's unsigned word: `out`
    takes the broadcast shape of all five arguments and is returned, and
    `scratch` that of x and control2.
    """
    np.right_shift(x, control1, out=out)
    out &= 1
    out <<= 1
    np.right_shift(x, control2, out=scratch)
    scratch &= 1
    out |= scratch
    np.right_shift(h, out, out=out)
    out &= 1
    out <<= target
    return out


# Truth tables h of controls c1 != c2 that read both control bits: 10 of 16.
READS_BOTH = [h for h in range(16) if (h ^ h >> 2) & 3 and (h ^ h >> 1) & 5]


def gate_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct permutations the 16 n (n-1)^2 gates induce, with no
    table: the first index v of each, increasing, and how many induce it.

    Gate (t, c1, c2, h) XORs f(x_c1, x_c2) into x_t: the identity if f = 0,
    else fixed by t and f as a function of x, which is NOT, x_c or not x_c
    of one wire c, or a `READS_BOTH` table of two wires. Target t's gates
    are target 0's with the wires rotated by t: the same classes, t blocks
    of indices on, and targets share only the identity.
    """
    _, c1, c2 = (w[:(n - 1) ** 2, None] for w in gate_wires(n))  # target 0's
    h = np.arange(16)
    # f as the table of (x_lo, x_hi), lo <= hi; with c1 = c2, of x_lo alone
    lo, hi = np.minimum(c1, c2), np.maximum(c1, c2)
    f = np.where(c1 < c2, h, h & 9 | h << 1 & 4 | h >> 1 & 2)
    f = np.where(c1 == c2, (h & 1) * 3 | (h >> 3) * 12, f)
    # f of at most one wire c as the table of (x_c, x_c), c = 0 (the target) if constant
    reads_hi = (f ^ f >> 1) & 5 > 0
    c = np.where(reads_hi, hi, np.where((f ^ f >> 2) & 3 > 0, lo, 0))
    one = (f & 1) * 3 | np.where(reads_hi, f >> 1, f >> 2) % 2 * 12
    key = np.where(np.isin(f, READS_BOTH), (lo * n + hi) * 16 + f, c * (n + 1) * 16 + one)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)[1:]  # all but the identity: key 0, first at v = 0
    blocks = first[order] + 16 * (n - 1) ** 2 * np.arange(n)[:, None]
    return np.append(0, blocks), np.append(n * counts[0], np.tile(counts[order], n))


def dedupe_gates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The `gate_classes` as a (count, 2^n) uint16 array of permutation
    tables, one `gate_flips` broadcast of their first indices, and their
    int64 multiplicities; n <= 12, so the tables fit in uint16 and memory."""
    if n > 12:
        raise ValueError(f"dedupe_gates needs n <= 12, got {n}")
    first, counts = gate_classes(n)
    values = np.arange(1 << n, dtype=np.uint16)
    gate = [w[first >> 4, None] for w in gate_wires(n)] + [first[:, None] & 15]  # t, c1, c2, h
    tables = np.empty((len(first), 1 << n), np.uint16)
    gate_flips(values, *(g.astype(np.uint16) for g in gate), tables, np.empty_like(tables))
    tables ^= values
    return tables, counts


# ---------------------------------------------------------------------------
# Tuples with pairwise-distinct entries over a ground set {0,...,N-1}.
# ---------------------------------------------------------------------------


def tuple_space_size(k: int, N: int) -> int:
    """N * (N-1) * ... * (N-k+1), the number of distinct k-tuples."""
    if k < 1 or N < 1 or k > N:
        raise ValueError(f"need 1 <= k <= N, got k={k}, N={N}")
    return math.perm(N, k)


def enumerate_tuples(k: int, N: int) -> np.ndarray:
    """All distinct k-tuples over {0,...,N-1}, in lexicographic order, as
    the rows of an (S, k) int64 array."""
    size = tuple_space_size(k, N)
    flat = itertools.chain.from_iterable(itertools.permutations(range(N), k))
    return np.fromiter(flat, dtype=np.int64, count=size * k).reshape(size, k)


def sample_uniform_tuples(
    n: int, k: int, samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform distinct k-tuples of n-bit strings, as a (samples, k, W)
    uint64 array of little-endian 64-bit words, W = ceil(n / 64).

    Word j of every row is one ``rng.integers`` draw over min(64, n - 64j)
    bits. Row i of a sample is then drawn again while it equals an
    earlier row, so each row is uniform over the strings the earlier rows
    leave free, and samples without a collision keep their first draw."""
    if n < 1 or not 1 <= k <= 1 << n:
        raise ValueError(f"need n >= 1 and 1 <= k <= 2^n, got n={n}, k={k}")
    bits = [min(64, n - 64 * j) for j in range(-(-n // 64))]

    def draw(*shape: int) -> np.ndarray:
        return np.stack([rng.integers(0, 1 << b, size=shape, dtype=np.uint64)
                         for b in bits], axis=-1)

    x = draw(samples, k)
    for i in range(1, k):
        rows = np.arange(samples)
        while len(rows := rows[(x[rows, :i] == x[rows, i:i + 1]).all(2).any(1)]):
            x[rows, i] = draw(len(rows))
    return x

