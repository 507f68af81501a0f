"""Bit strings, 3-wire reversible gates, and distinct tuples.

A gate is parameterized by a target wire, two control wires and a 4-bit
truth table h; it XORs h(control bits) into the target bit. Every such
gate is an involution and therefore a permutation of {0,1}^n. The gate
has one parameter index v = 16 q + h, q indexing the wire choices of
`gate_wires`: `enumerate_gates(n)[v]` is gate v, `dedupe_gates` lists the
distinct permutation tables (n <= 12) in first-seen v order with the
number of parameter tuples inducing each, and the rev sampler draws v.

Tuples of k pairwise-distinct values from a ground set of size N (the
common state space of the coloring chains, and of circuit states with
N = 2^n) are enumerated lexicographically, so kernels can address them
as a contiguous integer range. Uniform distinct tuples of n-bit strings
are sampled as arrays of 64-bit words, so n is not bounded by a word.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

# Truth tables are 4-bit ints: bit (2*a + b) holds h(a, b).
NUM_TRUTH_TABLES = 16


@dataclass(frozen=True)
class Gate:
    """3-wire gate (target, j1, j2, h): XOR h(bit j1, bit j2) into bit target.

    j1 == j2 is allowed (h then degenerates to a 1-bit function); the
    target must differ from both controls.
    """

    target: int
    j1: int
    j2: int
    h: int

    def __post_init__(self) -> None:
        if self.target == self.j1 or self.target == self.j2:
            raise ValueError("target wire must differ from both control wires")
        if min(self.target, self.j1, self.j2) < 0:
            raise ValueError("wire indices must be nonnegative")
        if not 0 <= self.h < NUM_TRUTH_TABLES:
            raise ValueError(f"truth table must be in [0, 16), got {self.h}")


def apply_gate_to_int(value: int, g: Gate) -> int:
    """Image of the n-bit string `value` under g: bit `target` XORed with
    h(bit j1, bit j2). Wires are not bounds-checked."""
    a = (value >> g.j1) & 1
    b = (value >> g.j2) & 1
    return value ^ (((g.h >> (a << 1 | b)) & 1) << g.target)


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


def enumerate_gates(n: int) -> list[Gate]:
    """All 16 n (n-1)^2 gate parameter tuples for n wires; entry v = 16 q + h
    has the wires of `gate_wires` choice q and truth table h."""
    return [Gate(*wires, h) for wires in zip(*(w.tolist() for w in gate_wires(n)))
            for h in range(NUM_TRUTH_TABLES)]


MAX_DEDUPE_WIRES = 12


def dedupe_gates(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The gate measure: distinct permutations of {0,1}^n induced by
    enumerate_gates(n), with how many parameter tuples induce each.

    Returns (tables, counts): a (count, 2^n) uint16 array of permutation
    tables in first-seen parameter-index order, and the int64 multiplicity
    of each, summing to 16 n (n-1)^2. The 16 truth tables of each wire
    choice are built in one broadcast. Requires n <= 12 so the tables fit
    in uint16 and in memory.
    """
    if n > MAX_DEDUPE_WIRES:
        raise ValueError(f"dedupe_gates needs n <= {MAX_DEDUPE_WIRES}, got {n}")
    values = np.arange(1 << n, dtype=np.uint16)
    h = np.arange(NUM_TRUTH_TABLES, dtype=np.uint16)[:, None]
    counts: dict[bytes, int] = {}
    for target, j1, j2 in zip(*(w.tolist() for w in gate_wires(n))):
        controls = ((values >> j1) & 1) << 1 | (values >> j2) & 1
        for row in values ^ ((h >> controls) & 1) << target:
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
    size = 1
    for j in range(k):
        size *= N - j
    return size


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

