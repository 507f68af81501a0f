"""Scalar statements of kwmix's rules, for tests to compare against.

The package states each rule once, on arrays: the gate in
``core.gate_flips``, the recolor move and the swap path in
``chains._move`` and ``comparison.congestion_delta``, genericity in
``generic.generic_mask``, the dump format in ``reports.dump_kernel``.
The functions here restate them one gate, tuple or slice at a time,
written independently, so a test can check the array code entry for
entry: ``Gate``, ``apply_gate_to_int`` and ``enumerate_gates`` the
gate, ``recolor``, ``Path``, ``is_cc_move`` and ``delta_path`` the
recoloring moves, ``is_generic`` genericity, ``restrict_conditional``
and ``marginal`` the slices that ``analysis.chain_rule_residual`` sums
over, and ``load_kernel_dump`` the dump format.
``coo_count_matrix`` is the scipy COO assembly that
``chains._count_matrix`` replaced, kept to check it bit for bit.
``distinct_gates`` is the closed-form count of the permutations that
``core.dedupe_gates`` tabulates. ``search_ranks`` is the binary search in
sorted state keys that ``chains._StateIndex`` keeps only for sparse
spans, the reference its direct-address table is checked against.
``factor_deviation_by_index`` is the stride-and-digit indexing that
``generic._factor_deviation`` replaced with ``chains._kron_term``, kept
to check it bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np
from scipy import sparse

from kwmix.chains import Moves
from kwmix.core import enumerate_tuples, gate_wires
from kwmix.errors import InvariantViolation
from kwmix.generic import Partition, extract_block

# Truth tables are 4-bit ints: bit (2*a + b) holds h(a, b).
H_ZERO = 0b0000
H_AND = 0b1000
H_XOR = 0b0110


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
        if not 0 <= self.h < 16:
            raise ValueError(f"truth table must be in [0, 16), got {self.h}")


def apply_gate_to_int(value: int, g: Gate) -> int:
    """Image of the n-bit string `value` under g: bit `target` XORed with
    h(bit j1, bit j2). Wires are not bounds-checked."""
    a = (value >> g.j1) & 1
    b = (value >> g.j2) & 1
    return value ^ (((g.h >> (a << 1 | b)) & 1) << g.target)


def enumerate_gates(n: int) -> list[Gate]:
    """All 16 n (n-1)^2 gates of n wires; entry v = 16 q + h has the wires
    of ``core.gate_wires`` choice q and truth table h."""
    return [Gate(*wires, h) for wires in zip(*(w.tolist() for w in gate_wires(n)))
            for h in range(16)]


def distinct_gates(n: int) -> int:
    """D(n), the number of distinct permutations the gates of n wires
    induce: the identity and, per target, NOT, x_c and not x_c per other
    wire c, and the 10 functions reading both wires of each pair of other
    wires."""
    return 1 + n * (1 + 2 * (n - 1) + 10 * math.comb(n - 1, 2))


def recolor(x: tuple[int, ...], i: int, color: int) -> tuple[int, ...]:
    """Assign `color` to coordinate i; if another coordinate already holds
    it, the two coordinates swap values. Output stays distinct."""
    k = len(x)
    if not 0 <= i < k:
        raise IndexError(f"coordinate {i} out of range for k={k}")
    if color == x[i]:
        return x
    y = list(x)
    try:
        j = x.index(color)
    except ValueError:
        y[i] = color
        return tuple(y)
    y[i], y[j] = x[j], x[i]
    return tuple(y)


@dataclass(frozen=True)
class Path:
    """Edge sequence between tuple states; consecutive edges share states."""

    edges: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    def __post_init__(self) -> None:
        if not self.edges:
            raise InvariantViolation("a path needs at least one edge")
        for (a, b), (c, _) in zip(self.edges, self.edges[1:]):
            if b != c:
                raise InvariantViolation("consecutive edges must share a state")

    @property
    def start(self) -> tuple[int, ...]:
        return self.edges[0][0]

    @property
    def end(self) -> tuple[int, ...]:
        return self.edges[-1][1]

    def __len__(self) -> int:
        return len(self.edges)


def is_cc_move(x: tuple[int, ...], y: tuple[int, ...], N: int) -> bool:
    """True iff y is reachable from x in one standard-recoloring step."""
    if x == y:
        return True
    diff = [i for i, (a, b) in enumerate(zip(x, y)) if a != b]
    if len(diff) != 1:
        return False
    i = diff[0]
    return y[i] not in x and 0 <= y[i] < N


def delta_path(
    x: tuple[int, ...],
    i: int,
    color: int,
    N: int,
    rng: np.random.Generator | None = None,
    free_color: int | None = None,
) -> Path:
    """Path of standard moves simulating the uniform move (x, x^{i,color}).

    Fresh or held-by-i colors give the single-edge path. A swap with
    vertex j needs a detour color: pass one explicitly via ``free_color``
    or let it be drawn uniformly from the colors unused in x.
    """
    k = len(x)
    if not 0 <= i < k:
        raise IndexError(f"coordinate {i} out of range for k={k}")
    if not 0 <= color < N:
        raise IndexError(f"color {color} out of range for N={N}")
    if color == x[i] or color not in x:
        return Path(edges=((x, recolor(x, i, color)),))

    j = x.index(color)
    unused = [c for c in range(N) if c not in x]
    if not unused:
        raise ValueError(f"swap case needs a free color but k={k} equals N={N}")
    if free_color is None:
        if rng is None:
            raise ValueError("swap case needs either rng or an explicit free_color")
        free_color = unused[int(rng.integers(len(unused)))]
    if free_color in x or not 0 <= free_color < N:
        raise ValueError(f"free color {free_color} is not unused in {x}")

    y = recolor(x, i, free_color)
    z = recolor(y, j, x[i])
    end = recolor(z, i, x[j])
    path = Path(edges=((x, y), (y, z), (z, end)))
    _validate_swap_path(path, x, i, color, N)
    return path


def _validate_swap_path(path: Path, x, i, color, N) -> None:
    if path.start != x or path.end != recolor(x, i, color):
        raise InvariantViolation("path endpoints do not match the simulated edge")
    for a, b in path.edges:
        if a == b or not is_cc_move(a, b, N):
            raise InvariantViolation(f"illegal standard-chain edge {(a, b)}")


def is_generic(state: Sequence[int], partition: Partition) -> bool:
    """True iff every pair of rows differs on every block."""
    k = len(state)
    for block in partition.blocks:
        seen = set()
        for row in state:
            seen.add(extract_block(row, block))
        if len(seen) != k:
            return False
    return True


def restrict_conditional(f: np.ndarray, i: int, c: int, k: int, N: int) -> np.ndarray:
    """Restriction of f, a function on the lexicographic k-tuples over
    {0,...,N-1}, to the slice {x_i = c}. The slice in lex order of the
    k-tuples is in lex order of the (k-1)-tuples with color c removed."""
    f = np.asarray(f, dtype=float)
    return f[enumerate_tuples(k, N)[:, i] == c]


def marginal(f: np.ndarray, i: int, k: int, N: int) -> np.ndarray:
    """F_i(c): average of f over the slice {x_i = c}, for each color c."""
    f = np.asarray(f, dtype=float)
    sums = np.bincount(enumerate_tuples(k, N)[:, i], weights=f, minlength=N)
    return sums / (len(f) // N)


def load_kernel_dump(fp: IO[str]) -> tuple[dict, list[tuple[int, int, float]]]:
    """Inverse of ``reports.dump_kernel``, for round-trip checks."""
    header = json.loads(fp.readline())
    columns = fp.readline().strip()
    if columns != "row,col,prob":
        raise ValueError(f"unexpected column header {columns!r}")
    triples = []
    for line in fp:
        if not line.strip():
            continue
        r, c, p = line.split(",")
        triples.append((int(r), int(c), float(p)))
    return header, triples


def search_ranks(states: np.ndarray, base: int, keys: np.ndarray) -> np.ndarray:
    """Rank of each key among the base-`base` keys of the rows of an
    (S, k) state array, -1 for a key no row has: a binary search in the
    sorted keys of the states."""
    weights = base ** np.arange(states.shape[1] - 1, -1, -1, dtype=np.int64)
    state_keys = states @ weights
    order = np.argsort(state_keys)
    sorted_keys = state_keys[order]
    pos = np.searchsorted(sorted_keys, keys).clip(max=len(order) - 1)
    return np.where(sorted_keys[pos] == keys, order[pos], -1)


def coo_count_matrix(moves: Moves, size: int) -> sparse.csr_matrix:
    """Sum the moves into a CSR matrix of counts. Each emitted piece is
    summed on arrival, so buffers stay near the final nnz."""
    rows, cols, counts = [], [], []
    for src, dst, count in moves:
        piece = sparse.coo_matrix((np.broadcast_to(count, src.shape), (src, dst)),
                                  shape=(size, size))
        piece.sum_duplicates()
        rows.append(piece.row)
        cols.append(piece.col)
        counts.append(piece.data)
    summed = sparse.coo_matrix(
        (np.concatenate(counts), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size))
    summed.sum_duplicates()
    return summed.tocsr()


def factor_deviation_by_index(matrix, sizes, positions, factor, weight) -> float:
    """Largest |matrix entry * weight - factor entry| over the moves of the
    factor at each of `positions` of a product state (digits of the given
    sizes, first most significant), in every context of the other digits,
    each entry found by its digit's stride."""
    idx = np.arange(matrix.shape[0])
    values = np.arange(factor.size)
    expected = factor.dense()
    worst = 0.0
    for m in positions:
        stride = math.prod(sizes[m + 1:])
        digit = (idx // stride % factor.size)[:, None]
        cols = idx[:, None] + (values - digit) * stride
        got = matrix[idx[:, None], cols].toarray() * weight
        dev = np.abs(got - expected[digit, values])[values != digit]
        worst = max(worst, float(dev.max(initial=0.0)))
    return worst
