"""Exact transition kernels and a batch step sampler for the chains.

Families:

* ``rev``      -- k distinct n-bit strings; one uniformly random 3-wire gate
                  per step, applied to every coordinate.
* ``cc``       -- recolor a random clique vertex with one of the N-k+1
                  colors available to it (its own color included).
* ``ucc``      -- recolor a random vertex with a uniform color from all N;
                  colliding vertices swap colors.
* ``grev``     -- rev restricted to generic states, rows renormalized.
* ``tgrev``    -- product chain on generic states: lazy remainder-bit flips
                  mixed half/half with per-block recoloring.
* ``complete`` -- jump to a uniform state (the complete-graph kernel).

``build_kernel(spec)`` is the one entry point and the one builder body;
it reads the validated ``ChainSpec``, which refuses a field its family
does not read. Every kernel is a random walk on a symmetric weighted
move graph. `_chain_states` gives the family's states, an (S, k) int64
array kept as ``Kernel.states`` (None for product kernels), and ranks
successor tuples by their base-N keys (``_StateIndex``: a key -> rank
table where the keys are dense, a binary search where sparse; it also
ranks the symmetry images of ``mixing.orbit_starts``). The moves come
as arrays (src, dst, count), count being the integer weight of the
draws of one step that move src to dst: for rev and grev from n = 4 on,
each target wire and set of flipped rows under its gate measure,
counted from the state's column types (`_flip_moves`), and at n = 3
each distinct gate table (`_gate_moves`); the tgrev draws grouped by
the values each kind reads; and every draw for ucc, cc and complete.
One helper sums them into a CSR matrix of counts, sorting them by int64
(src, dst) keys (a drawn family's pieces come sorted and are merged as
runs); each row is divided once by its own total w(x), and the
stationary law is pi = w / sum(w). For every family but grev, w is
the draw total and pi uniform. Rows sum to 1 up to a few ulps.
``product_kernel`` is the Kronecker sum (1/t) sum_i I ⊗ P_i ⊗ I of its
t factor kernels, each term a `_kron_term` (``scipy.sparse.kron``), the
one statement of a product state's digit order: ``generic`` reads each
factor of tgrev through it.

``sample_chain`` runs rev, cc, ucc, complete and tgrev (not grev) on a
batch: an (S, k) state array, one move drawn per row and step. A ucc, cc,
complete or tgrev step is written once: `_draw_bounds` gives the ranges
of the integers it draws and `_move` applies them, to per-row draws in
the sampler and to every draw in ``build_kernel`` and
``comparison.congestion_delta``; complete steps as ucc with k = 1, whose
recoloring of its one vertex is the jump to a uniform state. rev draws
a gate index v and applies gate v through ``core.gate_flips``, the rule
``core.dedupe_gates`` also builds its tables with (or, in ``set`` mode,
draws a deduplicated table), stepped on the transposed (k, S) array in
the narrowest unsigned word holding n bits (uint16 up to n = 16, uint32
up to 32, uint64 up to 64); its (S, k) uint64 result is that of a loop
on the (S, k) uint64 array making the same draws. Every row draws from
the one generator passed to ``sample_chain``; rev draws a block of steps
as one C-ordered (steps, S) call, whose values do not depend on the
block length.

Gate randomness has two documented measures, both weights on the
distinct permutations the gates induce (the tables of
``core.dedupe_gates``): ``parameter`` (uniform over the 16 n (n-1)^2
parameter tuples, the default) weights each distinct permutation by the
number of tuples that induce it, and ``set`` (uniform over the distinct
permutations) weights each by 1. Flip sets count both measures without
a table, so the n <= 12 of ``dedupe_gates`` binds only the set-mode
sampler, and the state cap alone limits the gate kernels.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Iterable, Iterator, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .core import dedupe_gates, enumerate_tuples, gate_flips, gate_wires, tuple_space_size
from .errors import InvariantViolation, StateCapExceeded, check_state_cap
from .generic import Partition, count_generic_states, extract_block, insert_block

FAMILIES = ("rev", "cc", "ucc", "grev", "tgrev", "complete")
GATE_MODES = ("parameter", "set")

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class ChainSpec:
    """Parameters selecting one chain instance."""

    family: str
    k: int = 1
    n: int | None = None          # wires, for rev/grev/tgrev
    ncolors: int | None = None    # N, for cc/ucc/complete
    partition: Partition | None = None
    gate_mode: str = "parameter"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.gate_mode not in GATE_MODES:
            raise ValueError(f"unknown gate mode {self.gate_mode!r}")
        gates = self.family in ("rev", "grev")
        wires = gates or self.family == "tgrev"
        generic = self.family in ("grev", "tgrev")
        unread = [what for what, given in (
            ("n", not wires and self.n is not None),
            ("N", wires and self.ncolors is not None),
            ("partition", not generic and self.partition is not None),
            ("k other than 1", self.family == "complete" and self.k != 1),
            ("gate mode 'set'", not gates and self.gate_mode == "set")) if given]
        if unread:
            raise ValueError(f"{self.family} takes no {', '.join(unread)}")
        if not wires and (self.ncolors is None or not 1 <= self.k <= self.ncolors):
            raise ValueError(f"{self.family} needs 1 <= k <= N")
        if wires:
            least = 1 if self.family == "tgrev" else 3  # a gate acts on 3 wires
            if self.n is None or self.n < least:
                raise ValueError(f"{self.family} needs n >= {least}")
            if not 1 <= self.k <= (1 << self.n):
                raise ValueError("need 1 <= k <= 2^n")
        if generic:
            if (part := self.partition) is None:
                raise ValueError(f"{self.family} needs a partition")
            if part.n != self.n:
                raise ValueError(f"partition covers n={part.n}, chain has n={self.n}")
            if part.k != self.k:
                raise ValueError(f"partition was built for k={part.k}, got k={self.k}")
            _check_partition_rows(part)
            if self.family == "tgrev" and not part.remainder:
                raise ValueError("product chain needs a nonempty remainder")

    def label(self) -> str:
        """The family, then the k, n and N of `meta` as key=value, then
        its gate mode where it has one: ``rev(k=2,n=3,parameter)``."""
        meta = self.meta()
        fields = [f"{key}={meta[key]}" for key in ("k", "n", "N") if key in meta]
        if "gate_mode" in meta:
            fields.append(meta["gate_mode"])
        return f"{self.family}({','.join(fields)})"

    def meta(self) -> dict:
        """Header of the built kernel: the family and the fields it reads."""
        if self.family in ("cc", "ucc"):
            return {"family": self.family, "k": self.k, "N": self.ncolors}
        if self.family == "complete":
            return {"family": "complete", "N": self.ncolors}
        meta = {"family": self.family, "k": self.k, "n": self.n}
        if self.family != "tgrev":
            meta["gate_mode"] = self.gate_mode
        if self.partition is not None:
            meta["partition"] = self.partition.descriptor()
        return meta


@dataclass
class Kernel:
    """Row-stochastic transition matrix with its stationary distribution."""

    matrix: sparse.csr_matrix
    stationary: np.ndarray
    meta: dict = field(default_factory=dict)
    states: np.ndarray | None = None  # (S, k) int64, row i is state i

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> None:
        m = self.matrix
        if m.shape[0] != m.shape[1]:
            raise InvariantViolation("kernel matrix must be square")
        if m.nnz and m.data.min() < 0:
            raise InvariantViolation("negative transition probability")
        row_err = np.abs(np.asarray(m.sum(axis=1)).ravel() - 1.0).max()
        if row_err > ROW_SUM_TOL:
            raise InvariantViolation(f"row sums off by {row_err:.3e}")
        if abs(self.stationary.sum() - 1.0) > ROW_SUM_TOL:
            raise InvariantViolation("stationary distribution does not sum to 1")
        if self.stationary.min() < 0:
            raise InvariantViolation("negative stationary probability")

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def strong_classes(self) -> int:
        """Number of strongly connected classes (one O(nnz) pass); more
        than one means the kernel is reducible."""
        return connected_components(self.matrix, connection="strong")[0]

    def check_irreducible(self, consequence: str) -> None:
        """Raise ValueError, naming the consequence, for a reducible kernel."""
        classes = self.strong_classes()
        if classes > 1:
            raise ValueError(f"kernel has {classes} strongly connected classes; "
                             f"it is reducible and {consequence}")


# ---------------------------------------------------------------------------
# Batch step sampler
# ---------------------------------------------------------------------------


def sample_chain(spec: ChainSpec, x: np.ndarray, t: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Run t steps of the chain from every row of an (S, k) state array.

    Each step draws one move per row, the moves `build_kernel` counts.
    Returns a new (S, k) array, uint64 for rev (n <= 64) and int64 otherwise.
    """
    if spec.family == "grev":
        raise ValueError("sample_chain runs rev, cc, ucc, complete and tgrev, not grev")
    if t < 0:
        raise ValueError("need t >= 0")
    if spec.family == "rev" and spec.n > 64:
        raise ValueError(f"rev sampling needs n <= 64, got {spec.n}")
    x = np.array(x, dtype=np.uint64 if spec.family == "rev" else np.int64)
    if x.ndim != 2 or x.shape[1] != spec.k:
        raise ValueError(f"need an (S, {spec.k}) state array, got shape {x.shape}")
    if spec.family == "rev":
        return _sample_rev(spec.n, spec.gate_mode, x, t, rng)
    bounds = _draw_bounds(spec)
    for _ in range(t):
        x = _move(spec, x, [rng.integers(b, size=len(x)) for b in bounds])
    return x


def _draw_bounds(spec: ChainSpec) -> tuple[int, ...]:
    """Ranges of the integers one ucc, cc, complete or tgrev step draws
    per row, in draw order: ucc a coordinate and a color; cc a coordinate
    and the r-th color available to it; tgrev a kind (0 holds, 1 flips a
    remainder bit, 2 and 3 recolor a block), a row, a remainder bit, a
    block and the r-th block value free for the row. complete draws as
    ucc with k = 1: its one coordinate, a range of one value that takes
    nothing from the stream, and the state it jumps to."""
    k = spec.k
    if spec.family in ("ucc", "complete"):
        return k, spec.ncolors
    if spec.family == "cc":
        return k, spec.ncolors - k + 1
    if spec.family == "tgrev":
        part = spec.partition
        return 4, k, len(part.remainder), part.p, (1 << part.w) - k + 1
    raise ValueError(f"no move rule for {spec.family!r}")


def _move(spec: ChainSpec, x: np.ndarray, draw: Sequence) -> np.ndarray:
    """Successor of every row of an (S, k) int64 state array under one
    ucc, cc, complete or tgrev step making the draws of `_draw_bounds`.
    Each draw value is an array with one entry per row or a scalar shared
    by all."""
    rows = np.arange(len(x))
    draw = [np.broadcast_to(d, rows.shape) for d in draw]
    if spec.family in ("ucc", "complete"):  # recolor, swapping on collision
        i, color = draw
        y = np.where(x == color[:, None], x[rows, i][:, None], x)
        y[rows, i] = color
        return y
    y = x.copy()
    if spec.family == "cc":
        i, r = draw
        y[rows, i] = _nth_free(x, i, r)
        return y
    kind, i, bit, ell, r = draw
    part = spec.partition
    flip = np.flatnonzero(kind == 1)
    y[flip, i[flip]] ^= 1 << np.array(part.remainder)[bit[flip]]
    for j, block in enumerate(part.blocks):
        m = np.flatnonzero((kind >= 2) & (ell == j))
        u = _nth_free(extract_block(x[m], block), i[m], r[m])
        y[m, i[m]] = insert_block(x[m, i[m]], block, u)
    return y


# Most bytes of gate draws the rev sampler holds at once; a block spans
# several steps, so the draw calls stay long.
DRAW_BLOCK_BYTES = 1 << 20


def _sample_rev(n: int, gate_mode: str, x: np.ndarray, t: int,
                rng: np.random.Generator) -> np.ndarray:
    """t rev steps from the rows of an (S, k) uint64 array of n-bit strings.

    The state is stepped transposed, as a C-contiguous (k, S) array in the
    narrowest unsigned word holding n bits, so each per-sample gate vector
    broadcasts along the long axis. In parameter mode each step makes one
    exact bounded uint32 draw per row of the gate index v in
    [0, 16 n (n-1)^2) and XORs in the `core.gate_flips` of gate v: the
    truth table is v & 15 and v >> 4 indexes the `core.gate_wires` tables
    of target and controls, so each gate is drawn with probability
    exactly 1 / (16 n (n-1)^2). In set mode each step draws one
    deduplicated table per row. The draws come in blocks of steps
    (`_gate_draws`).
    """
    if n < 64 and x.size and x.max() >> n:
        raise ValueError(f"rev states are {n}-bit strings")
    word = next(w for w in (np.uint16, np.uint32, np.uint64) if n <= np.iinfo(w).bits)
    x = np.ascontiguousarray(x.T, dtype=word)
    if gate_mode == "set":
        tables = dedupe_gates(n)[0]
        for v in _gate_draws(rng, t, x.shape[1], len(tables), np.int64):
            x = tables[v, x]
        return np.ascontiguousarray(x.T, dtype=np.uint64)
    targets, controls1, controls2 = (w.astype(word) for w in gate_wires(n))
    flips, scratch = np.empty_like(x), np.empty_like(x)
    for v in _gate_draws(rng, t, x.shape[1], 16 * len(targets), np.uint32):
        h = (v & 15).astype(word)
        q = (v >> 4).astype(np.intp)
        x ^= gate_flips(x, targets.take(q), controls1.take(q), controls2.take(q), h,
                        flips, scratch)
    return np.ascontiguousarray(x.T, dtype=np.uint64)


def _gate_draws(rng: np.random.Generator, t: int, rows: int,
                high: int, dtype: type) -> Iterator[np.ndarray]:
    """The t per-step draw vectors of `_sample_rev`, `rows` draws in
    [0, high) each. A block of steps is one C-ordered (steps, rows) call,
    which yields the values of that many one-step calls, so the draws do
    not depend on the block length. A block holds at most
    DRAW_BLOCK_BYTES (one step of more rows exceeds it)."""
    steps = max(1, DRAW_BLOCK_BYTES // (np.dtype(dtype).itemsize * max(rows, 1)))
    for done in range(0, t, steps):
        yield from rng.integers(0, high, size=(min(steps, t - done), rows), dtype=dtype)


def _nth_free(values: np.ndarray, i: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Per row, the r-th smallest value >= 0 held by no column other than i:
    a walk over the row sorted with column i moved past the end."""
    others = values.copy()
    others[np.arange(len(values)), i] = np.iinfo(values.dtype).max
    others.sort(axis=1)
    free = r.copy()
    for column in others.T:
        free += column <= free
    return free


# ---------------------------------------------------------------------------
# Exact kernel builders
# ---------------------------------------------------------------------------

# Cap on the entries a gate chain fills per chunk of states: gate tables x
# state entries mapped by `_gate_moves` at n = 3, states x wires x row
# masks counted by `_flip_moves` from n = 4 on. Each chunk is one piece of
# moves, ranked and then merged by `_count_matrix` before the next, so it
# bounds the count, ranking and sort buffers of a build.
CHUNK_ENTRIES = 1 << 14

# (src, dst, count) arrays of one step's moves; a scalar count is broadcast
Moves = Iterable[tuple[np.ndarray, np.ndarray, "np.ndarray | int"]]


def build_kernel(spec: ChainSpec) -> Kernel:
    """Exact kernel for the requested chain: the random walk on its
    symmetric weighted move graph. The integer move counts c(x, y) of one
    step are summed, each row is divided once by its own total w(x), and
    the stationary law is pi(x) = w(x) / sum(w) exactly (Levin, Peres and
    Wilmer, Markov Chains and Mixing Times, section 1.5): every move has
    its reverse with the same count. For the drawn families, and for rev,
    w is the draw total, so pi is uniform. rev and grev count their moves
    from flip sets from n = 4 on and from the distinct gate tables at
    n = 3, where the tables are faster; the two give the same counts.
    Raises StateCapExceeded when the state space is larger than the
    configured cap, or, at k = 1 for complete, ucc and cc (each the
    complete graph), when its N^2 kernel entries are, before enumerating."""
    if spec.ncolors is not None and spec.k == 1:
        check_state_cap(spec.ncolors ** 2, spec.label(), unit="kernel entries")
    states, index = _chain_states(spec)
    if spec.family in ("rev", "grev") and spec.n > 3:
        moves = _flip_moves(spec, states, index)
    elif spec.family in ("rev", "grev"):
        tables, weights = dedupe_gates(spec.n)
        if spec.gate_mode == "set":
            weights = np.ones_like(weights)
        moves = _gate_moves(states, tables, weights, index)
    elif spec.family == "tgrev":
        moves = _tgrev_moves(spec, states, index)
    else:
        moves = _step_moves(spec, states, index, product(*map(range, _draw_bounds(spec))))
    counts = _count_matrix(moves, len(states))
    w = np.asarray(counts.sum(axis=1)).ravel()
    matrix = counts.astype(np.float64)
    matrix.data /= np.repeat(w, np.diff(matrix.indptr))
    kernel = Kernel(matrix, w / w.sum(), spec.meta(), states)
    kernel.validate()
    return kernel


def _chain_states(spec: ChainSpec):
    """The family's states, an (S, k) int64 array, and their
    `_StateIndex` ranker: distinct tuples over 2^n (rev) or N (ucc, cc,
    complete), or the generic states of the partition (grev, tgrev)."""
    base = spec.ncolors if spec.n is None else 1 << spec.n
    if spec.partition is not None:
        states = enumerate_generic_states(spec.partition)
    else:
        states = _tuple_states(spec.k, base, spec.label())
    return states, _StateIndex(states, base)


def _count_matrix(moves: Moves, size: int) -> sparse.csr_matrix:
    """Sum the moves into a canonical CSR matrix of counts.

    A move is keyed by the int64 ``src * size + dst``, so sorted keys are
    in (row, col) order. A piece whose keys already strictly increase (a
    drawn family's piece: one move per state, in src order) is kept as
    it is; any other is merged on arrival (`_merge_keys`), so buffers stay
    near the final nnz. The pieces are merged once more only when their
    keys do not already increase, by a stable sort (timsort on int64),
    which merges the sorted pieces as runs instead of sorting them again.
    Counts are integers only, so their sums are exact in any order, and
    the CSR constructor stores the indices as int32 where they fit, so the
    arrays are those of a COO assembly byte for byte. Refuses a size whose
    keys overflow int64 (StateCapExceeded) and a move off the states.
    """
    if size > math.isqrt(np.iinfo(np.int64).max):
        raise StateCapExceeded(f"{size} states: (src, dst) keys overflow int64")
    keys, counts = [], []
    for src, dst, count in moves:
        if len(src) and (src.min() < 0 or dst.min() < 0 or src.max() >= size
                         or dst.max() >= size):
            raise InvariantViolation(f"a move leaves the {size} states")
        key = src.astype(np.int64, copy=False) * size + dst
        count = np.broadcast_to(count, src.shape)
        if not _increasing(key):
            key, count = _merge_keys(key, count)
        keys.append(key)
        counts.append(count)
    if not keys:
        return sparse.csr_matrix((size, size), dtype=np.int64)
    keys, counts = np.concatenate(keys), np.concatenate(counts)  # frees the pieces
    if not _increasing(keys):
        keys, counts = _merge_keys(keys, counts, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(keys // size, minlength=size))))
    return sparse.csr_matrix((counts, keys % size, indptr), shape=(size, size))


def _increasing(keys: np.ndarray) -> bool:
    """Whether the keys strictly increase, so none repeats."""
    return bool((keys[1:] > keys[:-1]).all())


def _merge_keys(keys: np.ndarray, counts: np.ndarray,
                kind: str | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys, sorted by an argsort of the given kind, and the
    summed integer counts of each."""
    order = np.argsort(keys, kind=kind)
    keys = keys[order]
    first = np.empty(len(keys), bool)  # first of a run of equal keys
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.add.reduceat(counts[order], starts, dtype=counts.dtype)


# A key -> rank table over all base^k keys is built when there are at most
# this many keys per state; sparser spans are ranked by binary search.
DIRECT_SPAN = 8


class _StateIndex:
    """Ranker of k-tuples among the rows of an (S, k) state array.

    Tuples are read as base-`base` numbers, `keys[i]` being that of
    state i. Calling the index maps (..., k) tuples to (...) ranks, and
    `rank_keys` maps keys, with -1 for a key that is not a state's (any
    key outside [0, base^k) among them). A span of at most DIRECT_SPAN
    keys per state is ranked by direct address, through a table holding
    each key's rank; a sparser one by binary search in the sorted keys of
    the states (`tests/oracles.py` keeps that rule as the reference).
    """

    def __init__(self, states: np.ndarray, base: int) -> None:
        self.weights = base ** np.arange(states.shape[1] - 1, -1, -1, dtype=np.int64)
        self.keys = states @ self.weights
        self._span = base ** states.shape[1]
        self._table = None
        if self._span <= DIRECT_SPAN * len(states):
            self._table = np.full(self._span, -1, np.int64)
            self._table[self.keys] = np.arange(len(states))
        else:
            self._order = np.argsort(self.keys)
            self._sorted_keys = self.keys[self._order]

    def __call__(self, tuples: np.ndarray) -> np.ndarray:
        return self.rank_keys(tuples @ self.weights)

    def rank_keys(self, keys: np.ndarray) -> np.ndarray:
        if self._table is not None:
            outside = (keys < 0) | (keys >= self._span)
            return np.where(outside, -1, self._table.take(keys, mode="clip"))
        pos = np.searchsorted(self._sorted_keys, keys).clip(max=len(self._order) - 1)
        return np.where(self._sorted_keys[pos] == keys, self._order[pos], -1)


def _tuple_states(k: int, N: int, what: str) -> np.ndarray:
    check_state_cap(tuple_space_size(k, N), what)
    return enumerate_tuples(k, N)


def _step_moves(spec: ChainSpec, states: np.ndarray, index, draws: Iterable,
                count: int = 1) -> Moves:
    """One move per (state, draw) to its `_move` successor, counting `count`."""
    src = np.arange(len(states))
    for draw in draws:
        yield src, index(_move(spec, states, draw)), count


def _gate_moves(states: np.ndarray, tables: np.ndarray, weights: np.ndarray,
                index) -> Moves:
    """One move per (state, distinct gate table), counting the table's
    weight. Successors outside the state set (index -1) are dropped."""
    step = max(1, CHUNK_ENTRIES // (len(tables) * states.shape[1]))
    for a in range(0, len(states), step):
        dst = index(tables[:, states[a:a + step]])
        src = np.broadcast_to(np.arange(a, a + dst.shape[1]), dst.shape)
        hit = dst >= 0
        yield src[hit], dst[hit], np.broadcast_to(weights[:, None], dst.shape)[hit]


# Truth tables h of controls c1 != c2 that read both control bits: 10 of 16.
READS_BOTH = [h for h in range(16) if (h ^ h >> 2) & 3 and (h ^ h >> 1) & 5]


def _mask_table(k: int, u1: np.ndarray, u2: np.ndarray, truth_tables,
                weight: int) -> np.ndarray:
    """(len(u1), 2^k) int64 counts: entry [i, M] is `weight` times the
    number of the truth tables h under which a gate whose controls have
    column types u1[i] and u2[i] flips exactly the row set M. Row r is
    flipped when bit (2 a + b) of h is set, a and b being bit r of u1
    and u2."""
    full = (1 << k) - 1
    classes = [~u1 & ~u2 & full, ~u1 & u2 & full, u1 & ~u2 & full, u1 & u2]
    table = np.zeros((len(u1), 1 << k), np.int64)
    rows = np.arange(len(u1))
    for h in truth_tables:
        table[rows, sum(c for a, c in enumerate(classes) if h >> a & 1)] += weight
    return table


def _flip_moves(spec: ChainSpec, states: np.ndarray, index) -> Moves:
    """The moves of `_gate_moves`, counted from flip sets.

    Gate (t, c1, c2, h) flips bit t of exactly the rows whose control
    bits select a set bit of h, so every successor of x is x with bit t
    flipped on a row set M, and its count depends on x only through the
    column types u_j = sum_r x_r[j] 2^r. `_mask_table` counts the masks
    per pair of column types, once per measure: in parameter mode all 16
    truth tables, twice over for controls c1 < c2 (swapping the controls
    permutes the 16 tables, so both orders count alike) and once for
    c1 = c2; in set mode one of each distinct permutation,
    the 10 `READS_BOTH` tables of each pair c1 < c2, x_c and not x_c of
    each control c, NOT once per target and the identity once. A target
    counts every control pair avoiding it: all pairs less those touching
    it. M = {} adds to the hold count. Only successors of nonzero count
    are ranked, and those outside the state set (index -1) are dropped.
    Chunks of states come in src order.
    """
    n, k = spec.n, spec.k
    full = (1 << k) - 1
    types, masks = np.arange(1 << 2 * k), np.arange(full + 1)  # types: u1 2^k + u2
    if spec.gate_mode == "set":
        # with c1 = c2 = c the pattern 2a + b is 0 or 3: 0b1000 is x_c, 0b0001 not x_c
        pair = _mask_table(k, types >> k, types & full, READS_BOTH, 1)
        single = _mask_table(k, masks, masks, [0b1000, 0b0001], 1)
    else:
        pair = _mask_table(k, types >> k, types & full, range(16), 2)
        single = _mask_table(k, masks, masks, range(16), 1)
    pairs = list(zip(*np.triu_indices(n, 1)))
    rows = np.arange(k)
    # key weight of the rows of each mask; flipping bit t of the rows in
    # M moves a key by 2^t (W[M] - 2 W[M & u_t]): up for a 0, down for a 1
    mask_weight = (masks[:, None] >> rows & 1) @ index.weights
    step = max(1, CHUNK_ENTRIES // (n << k))
    for a in range(0, len(states), step):
        x = states[a:a + step]
        u = ((x[:, :, None] >> np.arange(n) & 1) << rows[:, None]).sum(axis=1)
        # (chunk, n, 2^k): the counts of the control pairs touching each wire
        touching = single[u]
        total = touching.sum(axis=1)
        for c1, c2 in pairs:
            g = pair[u[:, c1] << k | u[:, c2]]
            total += g
            touching[:, c1] += g
            touching[:, c2] += g
        counts = total[:, None, :] - touching
        hold = counts[:, :, 0].sum(axis=1)
        counts[:, :, 0] = 0
        if spec.gate_mode == "set":
            counts[:, :, full] += 1  # NOT
            hold += 1  # the identity
        cells = np.flatnonzero(counts)
        st, m = np.divmod(cells, full + 1)  # st = s n + t
        s, t = np.divmod(st, n)
        dst = index.rank_keys(index.keys[a + s] + (
            (mask_weight[m] - 2 * mask_weight[m & u.ravel()[st]]) << t))
        hit = dst >= 0
        src = np.arange(a, a + len(x))
        yield (np.concatenate((src, a + s[hit])), np.concatenate((src, dst[hit])),
               np.concatenate((hold, counts.ravel()[cells[hit]])))


def enumerate_generic_states(partition: Partition) -> np.ndarray:
    """All generic states as the rows of an (S, k) int64 array, k being
    the partition's, ordered as the product of per-block tuple indices
    (major) and remainder bits in (row, wire) order (minor)."""
    _check_partition_rows(partition)
    k = partition.k
    check_state_cap(count_generic_states(partition), f"generic(k={k},n={partition.n})")
    block_tuples = _tuple_states(k, 1 << partition.w, f"block(k={k},w={partition.w})")
    digits = np.indices((len(block_tuples),) * partition.p).reshape(partition.p, -1)
    base = sum(insert_block(0, block, block_tuples[d])
               for block, d in zip(partition.blocks, digits))
    rem = np.array(partition.remainder, dtype=np.int64)
    nbits = k * len(rem)
    bits = np.arange(1 << nbits)[:, None] >> np.arange(nbits - 1, -1, -1) & 1
    tails = (bits.reshape(1 << nbits, k, len(rem)) << rem).sum(axis=2)
    return (base[:, None, :] | tails[None, :, :]).reshape(-1, k)


def _check_partition_rows(partition: Partition) -> None:
    if partition.p < 1:
        raise ValueError("generic states need at least one block")
    if partition.k > (1 << partition.w):
        raise ValueError("more rows than block values; no state is generic")


def _tgrev_moves(spec: ChainSpec, states: np.ndarray, index) -> Moves:
    """The tgrev draws of `_draw_bounds`, grouped by the values each kind
    reads, over the draw total 4 k |C| p (2^w - k + 1), C the remainder:
    the hold counts k |C| p (2^w - k + 1), each (row, remainder bit) flip
    p (2^w - k + 1) and each (row, block, r) block move 2 |C|.
    """
    k = spec.k
    _, _, rem, p, avail = _draw_bounds(spec)
    return chain(
        _step_moves(spec, states, index, [(0, 0, 0, 0, 0)], k * rem * p * avail),
        _step_moves(spec, states, index, product([1], range(k), range(rem), [0], [0]),
                    p * avail),
        _step_moves(spec, states, index, product([2], range(k), [0], range(p), range(avail)),
                    2 * rem))


def _kron_term(sizes: Sequence[int], i: int, matrix) -> sparse.csr_matrix:
    """I ⊗ matrix ⊗ I on the product of factors of the given sizes (first
    most significant): `matrix` moves digit i, the identities on the
    factors before and after it keep the other digits."""
    # COO throughout: the cheapest route through scipy's kron, whose
    # BSR route for a dense factor would store that factor's zeros
    before = sparse.identity(math.prod(sizes[:i]), format="coo")
    after = sparse.identity(math.prod(sizes[i + 1:]), format="coo")
    return sparse.kron(sparse.kron(before, matrix, format="coo"), after, format="csr")


def product_kernel(factors: Sequence[Kernel]) -> Kernel:
    """Uniform mixture of single-factor moves on the product state space
    (first factor most significant): the Kronecker sum
    (1/t) sum_i I ⊗ P_i ⊗ I of the factor kernels P_1..P_t, the
    `_kron_term`s added in factor order, with stationary law
    pi_1 ⊗ ... ⊗ pi_t."""
    if not factors:
        raise ValueError("need at least one factor")
    sizes = [f.size for f in factors]
    check_state_cap(math.prod(sizes), "product chain")
    matrix = sum(_kron_term(sizes, i, f.matrix) for i, f in enumerate(factors))
    matrix.data /= len(factors)
    pi = functools.reduce(np.kron, [f.stationary for f in factors])
    kernel = Kernel(matrix, pi, {"family": "product", "factors": [f.meta for f in factors]})
    kernel.validate()
    return kernel
