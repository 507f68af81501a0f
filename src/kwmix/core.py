"""Bit strings, 3-wire reversible gates, and distinct tuples.

Gate v of n wires, 0 <= v < 16 n (n-1)^2, is v = 16 q + h: entry q of
`gate_wires(n)` gives its target t and controls c1, c2, and h is a 4-bit
truth table. On an n-bit string x the gate flips bit t by bit (2 a + b)
of h, a and b being bits c1 and c2 of x (`gate_flips`, the one statement
of that rule). Every gate is an involution and therefore a permutation
of {0,1}^n. `dedupe_gates` lists the distinct permutation tables
(n <= 12) in first-seen v order with the number of indices v inducing
each. The parameter-mode rev sampler draws v and the set-mode sampler a
table; the exact kernels map states through the tables only at n = 3,
and from n = 4 on count the rows each gate flips
(`chains._flip_moves`), with no table and no bound on n.

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

NUM_TRUTH_TABLES = 16


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


MAX_DEDUPE_WIRES = 12


def dedupe_gates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The gate measure: distinct permutations of {0,1}^n induced by the
    16 n (n-1)^2 gates, with how many gates induce each.

    Returns (tables, counts): a (count, 2^n) uint16 array of permutation
    tables in first-seen index order, and the int64 multiplicity of each,
    summing to 16 n (n-1)^2. The gates of each target are built in one
    broadcast. Requires n <= 12 so the tables fit in uint16 and in memory.
    """
    if n > MAX_DEDUPE_WIRES:
        raise ValueError(f"dedupe_gates needs n <= {MAX_DEDUPE_WIRES}, got {n}")
    values = np.arange(1 << n, dtype=np.uint16)
    h = np.arange(NUM_TRUTH_TABLES, dtype=np.uint16)[:, None]
    # per target, its (n-1)^2 wire choices along the first axis
    wires = [w.astype(np.uint16).reshape(n, -1, 1, 1) for w in gate_wires(n)]
    flips = np.empty(((n - 1) ** 2, NUM_TRUTH_TABLES, 1 << n), np.uint16)
    scratch = np.empty(((n - 1) ** 2, 1, 1 << n), np.uint16)
    counts: dict[bytes, int] = {}
    for target, control1, control2 in zip(*wires):
        rows = values ^ gate_flips(values, target, control1, control2, h, flips, scratch)
        for row in rows.reshape(-1, 1 << n):
            key = row.tobytes()
            counts[key] = counts.get(key, 0) + 1
    tables = np.frombuffer(b"".join(counts), dtype=np.uint16).reshape(len(counts), -1)
    return tables, np.fromiter(counts.values(), dtype=np.int64, count=len(counts))


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

