"""Vectorized kernel assembly against short per-state loop references.

Each reference walks the states one at a time, lists the draws of one
step with the scalar oracles of ``tests/oracles.py`` (``enumerate_gates``
and ``apply_gate_to_int`` for the gates, ``recolor`` and
``is_generic``), and divides the counts once. Every family and the
product chains must match entry for entry.
``chains._count_matrix`` must also equal the scipy COO assembly it
replaced (``oracles.coo_count_matrix``) byte for byte, dtypes included,
and the gate chains' two move sources, flip sets (``chains._flip_moves``)
and distinct gate tables (``chains._gate_moves``), must sum to the same
bytes in both gate measures. ``chains._StateIndex`` must rank every key
as the binary search of ``oracles.search_ranks`` does, on both sides of
its direct-address rule.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwmix import chains, comparison
from kwmix.chains import ChainSpec, build_kernel, product_kernel
from kwmix.core import dedupe_gates, enumerate_tuples
from kwmix.errors import InvariantViolation, StateCapExceeded
from kwmix.generic import extract_block, insert_block, make_partition
from oracles import (
    apply_gate_to_int,
    coo_count_matrix,
    distinct_gates,
    enumerate_gates,
    is_generic,
    recolor,
    search_ranks,
)


def _rows(states: np.ndarray) -> tuple:
    return tuple(map(tuple, states.tolist()))


def _divided(counts: Counter) -> dict:
    total = sum(counts.values())
    return {y: c / total for y, c in counts.items()}


def _dense(rows: dict, states: tuple) -> np.ndarray:
    index = {s: i for i, s in enumerate(states)}
    out = np.zeros((len(states), len(states)))
    for x, row in rows.items():
        for y, prob in row.items():
            out[index[x], index[y]] = prob
    return out


def reference_gate_rows(states, n: int, gate_mode: str) -> dict:
    """Gate successors that stay in `states`, counted per state."""
    if gate_mode == "set":
        tables = [t.tolist() for t in dedupe_gates(n)[0]]
    else:
        tables = [[apply_gate_to_int(v, g) for v in range(1 << n)]
                  for g in enumerate_gates(n)]
    inside = set(states)
    rows = {}
    for x in states:
        images = (tuple(t[v] for v in x) for t in tables)
        rows[x] = _divided(Counter(y for y in images if y in inside))
    return rows


def reference_coloring_rows(k: int, N: int, swaps: bool) -> dict:
    rows = {}
    for x in _rows(enumerate_tuples(k, N)):
        counts = Counter()
        for i in range(k):
            for color in range(N):
                if swaps or color == x[i] or color not in x:
                    counts[recolor(x, i, color)] += 1
        rows[x] = _divided(counts)
    return rows


def reference_tgrev_rows(states, partition) -> dict:
    """Exact rationals of the step_tgrev description, rounded once."""
    k, rem = partition.k, partition.remainder
    rows = {}
    for x in states:
        row = Counter({x: Fraction(1, 4)})
        for r in range(k):
            for pos in rem:
                y = list(x)
                y[r] ^= 1 << pos
                row[tuple(y)] += Fraction(1, 4 * k * len(rem))
        for block in partition.blocks:
            for r in range(k):
                taken = {extract_block(x[i], block) for i in range(k) if i != r}
                avail = [u for u in range(1 << partition.w) if u not in taken]
                for u in avail:
                    y = list(x)
                    y[r] = insert_block(x[r], block, u)
                    row[tuple(y)] += Fraction(1, 2 * partition.p * k * len(avail))
        rows[x] = {y: float(p) for y, p in row.items()}
    return rows


def _generic_states(kernel, k: int, partition) -> tuple:
    generic = {t for t in _rows(enumerate_tuples(k, 1 << partition.n))
               if is_generic(t, partition)}
    states = _rows(kernel.states)
    assert set(states) == generic
    assert len(states) == len(generic)
    return states


def _assert_lexicographic_tuples(states: np.ndarray, k: int, N: int) -> None:
    assert states.dtype == np.int64
    assert np.array_equal(states, np.array(list(permutations(range(N), k))))


@settings(max_examples=20, deadline=None)
@given(nk=st.sampled_from([(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)]),
       gate_mode=st.sampled_from(["parameter", "set"]))
def test_rev_matches_loop_reference(nk, gate_mode):
    n, k = nk
    kernel = build_kernel(ChainSpec(family="rev", k=k, n=n, gate_mode=gate_mode))
    _assert_lexicographic_tuples(kernel.states, k, 1 << n)
    states = _rows(kernel.states)
    ref = _dense(reference_gate_rows(states, n, gate_mode), states)
    assert np.abs(kernel.dense() - ref).max() == 0


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from(["ucc", "cc"]), k=st.integers(1, 3), extra=st.integers(0, 4))
def test_coloring_matches_loop_reference(family, k, extra):
    N = k + extra
    kernel = build_kernel(ChainSpec(family=family, k=k, ncolors=N))
    _assert_lexicographic_tuples(kernel.states, k, N)
    ref = _dense(reference_coloring_rows(k, N, swaps=family == "ucc"), _rows(kernel.states))
    assert np.abs(kernel.dense() - ref).max() == 0


@given(N=st.integers(1, 9))
def test_complete_matches_uniform_rows(N):
    kernel = build_kernel(ChainSpec(family="complete", ncolors=N))
    _assert_lexicographic_tuples(kernel.states, 1, N)
    assert np.abs(kernel.dense() - np.full((N, N), 1.0 / N)).max() == 0


@st.composite
def generic_specs(draw, max_n: int, max_k: int, product_chain: bool):
    """(n, k, partition) with at least one block; the product chain also
    needs a nonempty remainder."""
    n = draw(st.integers(3, max_n))
    w = draw(st.integers(1, 2))
    k = draw(st.integers(1, min(max_k, 1 << w)))
    p = draw(st.integers(1, (n - 1) // w if product_chain else n // w))
    return n, k, make_partition(n, k, w=w, p=p)


@settings(max_examples=20, deadline=None)
@given(spec=generic_specs(max_n=4, max_k=2, product_chain=False),
       gate_mode=st.sampled_from(["parameter", "set"]))
def test_grev_matches_loop_reference(spec, gate_mode):
    n, k, partition = spec
    kernel = build_kernel(ChainSpec(family="grev", k=k, n=n, partition=partition,
                                    gate_mode=gate_mode))
    states = _generic_states(kernel, k, partition)
    ref = _dense(reference_gate_rows(states, n, gate_mode), states)
    assert np.abs(kernel.dense() - ref).max() == 0


@settings(max_examples=20, deadline=None)
@given(spec=generic_specs(max_n=5, max_k=3, product_chain=True))
def test_tgrev_matches_loop_reference(spec):
    n, k, partition = spec
    kernel = build_kernel(ChainSpec(family="tgrev", k=k, n=n, partition=partition))
    states = _generic_states(kernel, k, partition)
    ref = _dense(reference_tgrev_rows(states, partition), states)
    assert np.abs(kernel.dense() - ref).max() <= 1e-16


def test_product_matches_loop_reference():
    factors = [build_kernel(ChainSpec(family="cc", k=2, ncolors=3)),
               build_kernel(ChainSpec(family="complete", ncolors=2)),
               build_kernel(ChainSpec(family="ucc", k=1, ncolors=3))]
    sizes = [f.size for f in factors]
    dense = [f.dense() for f in factors]
    prod = product_kernel(factors)
    digits = list(np.ndindex(*sizes))  # first factor most significant
    ref = np.zeros((len(digits), len(digits)))
    for a, x in enumerate(digits):
        for b, y in enumerate(digits):
            moved = [i for i in range(len(sizes)) if x[i] != y[i]]
            if not moved:
                ref[a, b] = sum(dense[i][x[i], x[i]] for i in range(len(sizes))) / 3
            elif len(moved) == 1:
                i = moved[0]
                ref[a, b] = dense[i][x[i], y[i]] / 3
    assert np.array_equal(prod.dense(), ref)
    assert prod.matrix.has_canonical_format
    assert prod.matrix.indices.dtype == np.int32
    assert np.array_equal(prod.stationary, np.full(len(digits), 1.0 / len(digits)))


def test_chunk_size_does_not_change_the_kernel(monkeypatch):
    partition = make_partition(5, 2, w=2, p=2)
    specs = [ChainSpec(family="rev", k=2, n=3),  # gate tables
             ChainSpec(family="rev", k=2, n=4),  # flip sets from four wires on
             ChainSpec(family="rev", k=2, n=4, gate_mode="set"),
             ChainSpec(family="grev", k=2, n=5, partition=partition),
             ChainSpec(family="grev", k=2, n=5, partition=partition, gate_mode="set")]
    default = [build_kernel(spec).matrix for spec in specs]
    monkeypatch.setattr(chains, "CHUNK_ENTRIES", 1)  # one state per chunk
    for spec, matrix in zip(specs, default):
        _assert_same_csr(build_kernel(spec).matrix, matrix)


@pytest.mark.parametrize("spec", [
    ChainSpec(family="ucc", k=3, ncolors=6),
    ChainSpec(family="rev", k=2, n=4, gate_mode="set"),
    ChainSpec(family="tgrev", k=2, n=4, partition=make_partition(4, 2, w=1, p=2)),
    None,  # a product kernel
])
def test_assembled_matrices_are_canonical(spec):
    if spec is None:
        matrix = product_kernel([build_kernel(ChainSpec(family="cc", k=2, ncolors=4)),
                                 build_kernel(ChainSpec(family="complete", ncolors=3))]).matrix
    else:
        matrix = build_kernel(spec).matrix
    assert matrix.has_canonical_format
    assert matrix.data.dtype == np.float64
    assert (matrix.data > 0).all()


def _assert_same_csr(got, want) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


_i = np.array

BIG = 1 << 53  # a float64 sum of BIG and 1 drops the 1

# key (1, 2) gets BIG, 1, BIG and 1 from three pieces: only an exact
# integer sum keeps both ones
COUNT_CASES = {
    "scalar-int": [(_i([0, 2, 1, 2]), _i([1, 0, 1, 0]), 3), (_i([1, 2]), _i([1, 2]), 1)],
    "array-int": [(_i([3, 0, 3, 1]), _i([2, 2, 2, 0]), _i([5, 1, 7, 2]))],
    "key-in-three-pieces": [(_i([1, 0, 1]), _i([2, 0, 2]), _i([BIG, 5, 1])),
                            (_i([1]), _i([2]), _i([BIG])),
                            (_i([2, 1]), _i([3, 2]), _i([3, 1]))],
    "src-out-of-order": [(_i([3, 4, 3]), _i([0, 1, 0]), 1), (_i([0, 3]), _i([4, 0]), 2),
                         (_i([1]), _i([1]), 1)],
    "duplicates-in-piece": [(_i([2, 2, 2, 0, 2]), _i([4, 4, 4, 0, 1]), _i([1, 2, 3, 4, 5])),
                            (_i([4, 4, 4, 4]), _i([3, 3, 3, 3]), _i([1, BIG, 1, BIG]))],
    "empty-pieces": [(_i([], dtype=np.int64), _i([], dtype=np.int64), 1),
                     (_i([1, 1]), _i([0, 0]), 2),
                     (_i([], dtype=np.int64), _i([], dtype=np.int64), _i([], dtype=np.int64))],
}


@pytest.mark.parametrize("name", COUNT_CASES)
def test_count_matrix_equals_coo_assembly(name):
    pieces = COUNT_CASES[name]
    _assert_same_csr(chains._count_matrix(pieces, 5), coo_count_matrix(pieces, 5))


@st.composite
def move_pieces(draw, size: int):
    """Pieces of moves on `size` states with integer counts, scalar or
    per move, some so large that a float sum of them would round. The
    pieces hold repeated keys in any order, or strictly increasing keys
    (kept without a merge on arrival) coming in src order or against it."""
    big = draw(st.booleans())
    order = draw(st.sampled_from(["any", "increasing", "src-descending"]))
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        if order == "any":
            m = draw(st.integers(0, 12))
            ends = st.lists(st.integers(0, size - 1), min_size=m, max_size=m)
            src, dst = _i(draw(ends), dtype=np.int64), _i(draw(ends), dtype=np.int64)
        else:
            keys = sorted(draw(st.sets(st.integers(0, size * size - 1), max_size=12)))
            src, dst = np.divmod(_i(keys, dtype=np.int64), size)
        m = len(src)
        if big:
            counts = _i(draw(st.lists(st.sampled_from([BIG, 1, 3]), min_size=m, max_size=m)),
                        dtype=np.int64)
        elif draw(st.booleans()):
            counts = draw(st.integers(1, 9))
        else:
            counts = _i(draw(st.lists(st.integers(1, 9), min_size=m, max_size=m)),
                        dtype=np.int64)
        pieces.append((src, dst, counts))
    if order == "src-descending":
        pieces.sort(key=lambda piece: -piece[0].min(initial=0))
    return pieces


@settings(max_examples=60, deadline=None)
@given(pieces=move_pieces(size=4))
def test_count_matrix_equals_coo_assembly_on_random_pieces(pieces):
    _assert_same_csr(chains._count_matrix(pieces, 4), coo_count_matrix(pieces, 4))


@pytest.mark.parametrize("spec", [
    ChainSpec(family="ucc", k=4, ncolors=11),
    ChainSpec(family="cc", k=3, ncolors=6),
    ChainSpec(family="complete", ncolors=7),
    ChainSpec(family="tgrev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
], ids=ChainSpec.label)
def test_drawn_pieces_are_merged_once(spec, monkeypatch):
    # every per-draw piece holds one move per state in src order, so its
    # keys already increase: only the concatenation is merged
    calls = []
    merge = chains._merge_keys

    def spy(*args, **kwargs):
        calls.append(args)
        return merge(*args, **kwargs)

    monkeypatch.setattr(chains, "_merge_keys", spy)
    build_kernel(spec)
    assert len(calls) <= 1


RANK_SPACES = {  # (spec, base, whether its span is sparse)
    "tuples": (ChainSpec(family="ucc", k=3, ncolors=5), 5, False),
    "tuples-sparse": (ChainSpec(family="rev", k=8, n=3), 8, True),  # 8^8 keys, 8! states
    "generic": (ChainSpec(family="grev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
                32, False),
    "generic-sparse": (ChainSpec(family="grev", k=3, n=6,
                                 partition=make_partition(6, 3, w=2, p=3)), 64, True),
    "complete": (ChainSpec(family="complete", ncolors=7), 7, False),
}


@pytest.mark.parametrize("searched", [False, True], ids=["default", "all-searched"])
@pytest.mark.parametrize("name", RANK_SPACES)
def test_ranks_equal_the_binary_search(name, searched, monkeypatch):
    spec, base, sparse_span = RANK_SPACES[name]
    if searched:
        monkeypatch.setattr(chains, "DIRECT_SPAN", 0)
    states, index = chains._chain_states(spec)
    assert (index._table is None) == (sparse_span or searched)
    k = states.shape[1]
    span = base ** k
    rng = np.random.default_rng(5)
    # random tuples repeat entries and are mostly not generic
    tuples = rng.integers(0, base, size=(3000, k))
    assert np.array_equal(index(states), np.arange(len(states)))
    assert np.array_equal(index(tuples), search_ranks(states, base, tuples @ index.weights))
    assert (index(tuples) == -1).any() == (len(states) < span)  # complete has every tuple
    keys = np.concatenate([[-1, -span, -(1 << 62), span, span + 1, 1 << 62],
                           rng.integers(-span, 2 * span, size=1000)])
    ranks = index.rank_keys(keys)
    assert np.array_equal(ranks, search_ranks(states, base, keys))
    assert (ranks[:6] == -1).all()


def test_count_matrix_of_no_moves_is_zero():
    matrix = chains._count_matrix([], 3)
    assert matrix.shape == (3, 3)
    assert matrix.nnz == 0


@pytest.mark.parametrize("src,dst", [([0, 1], [1, -1]), ([0, 3], [1, 0]), ([0], [3])])
def test_count_matrix_refuses_moves_off_the_states(src, dst):
    with pytest.raises(InvariantViolation):
        chains._count_matrix([(_i(src), _i(dst), 1)], 3)


def test_count_matrix_refuses_sizes_whose_keys_overflow_int64(monkeypatch):
    # only a raised state cap lets a builder ask for this; no moves, so
    # nothing is allocated before the refusal
    monkeypatch.setenv("KWM_STATE_CAP", str(1 << 64))
    with pytest.raises(StateCapExceeded):
        chains._count_matrix([], 1 << 32)


@pytest.mark.parametrize("spec", [
    ChainSpec(family="ucc", k=3, ncolors=6),
    ChainSpec(family="cc", k=3, ncolors=6),
    ChainSpec(family="complete", ncolors=7),
    ChainSpec(family="rev", k=2, n=5),
    ChainSpec(family="rev", k=2, n=5, gate_mode="set"),
    ChainSpec(family="grev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
    ChainSpec(family="tgrev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
], ids=ChainSpec.label)
def test_kernels_equal_coo_assembled_kernels(spec, monkeypatch):
    kernel = build_kernel(spec).matrix
    monkeypatch.setattr(chains, "_count_matrix", coo_count_matrix)
    _assert_same_csr(kernel, build_kernel(spec).matrix)


def test_kernel_assembly_sums_integer_counts_only(monkeypatch):
    factors = [build_kernel(ChainSpec(family="cc", k=2, ncolors=3)),
               build_kernel(ChainSpec(family="complete", ncolors=2))]
    kinds = []  # dtype kind of each piece's counts, per _count_matrix call
    count_matrix = chains._count_matrix

    def spy(moves, size):
        kinds.append(set())

        def watched():
            for src, dst, count in moves:
                kinds[-1].add(np.asarray(count).dtype.kind)
                yield src, dst, count

        return count_matrix(watched(), size)

    monkeypatch.setattr(chains, "_count_matrix", spy)
    monkeypatch.setattr(comparison, "_count_matrix", spy)
    product_kernel(factors)
    assert kinds == []  # a product is a Kronecker sum of its factors
    for spec in [
        ChainSpec(family="ucc", k=2, ncolors=4),
        ChainSpec(family="cc", k=2, ncolors=4),
        ChainSpec(family="complete", ncolors=5),
        ChainSpec(family="rev", k=2, n=3),
        ChainSpec(family="rev", k=2, n=3, gate_mode="set"),
        ChainSpec(family="grev", k=2, n=4, partition=make_partition(4, 2, w=2, p=2)),
        ChainSpec(family="tgrev", k=2, n=4, partition=make_partition(4, 2, w=1, p=2)),
    ]:
        build_kernel(spec)
    comparison.congestion_delta(3, 6)
    assert len(kinds) == 9  # one per kernel, two for congestion_delta
    assert all(calls and calls <= {"i", "u"} for calls in kinds), kinds


def _table_moves(spec: ChainSpec, states: np.ndarray, index):
    tables, weights = dedupe_gates(spec.n)
    if spec.gate_mode == "set":
        weights = np.ones_like(weights)
    return chains._gate_moves(states, tables, weights, index)


FLIP_SPECS = [ChainSpec(family="rev", k=k, n=n, gate_mode=gate_mode)
              for k, wires in [(1, range(3, 7)), (2, range(3, 8)), (3, range(3, 6)),
                               (4, range(3, 5))]
              for n in wires for gate_mode in ("parameter", "set")]
FLIP_SPECS += [ChainSpec(family="grev", k=k, n=n, partition=make_partition(n, k, w=w, p=p),
                         gate_mode=gate_mode)
               for n, k, w, p in [(4, 2, 2, 2), (4, 2, 1, 2), (5, 2, 2, 2), (5, 3, 2, 1)]
               for gate_mode in ("parameter", "set")]


@pytest.mark.parametrize("spec", FLIP_SPECS, ids=ChainSpec.label)
def test_flip_sets_count_the_moves_of_the_gate_tables(spec):
    states, index = chains._chain_states(spec)
    flips = chains._count_matrix(chains._flip_moves(spec, states, index), len(states))
    tables = chains._count_matrix(_table_moves(spec, states, index), len(states))
    _assert_same_csr(flips, tables)


@pytest.mark.parametrize("n", range(3, 8))
def test_distinct_gates_counts_the_gate_tables(n):
    assert distinct_gates(n) == len(dedupe_gates(n)[0])


def test_flip_side_builds_make_no_gate_tables(monkeypatch):
    calls = []

    def spy(n):
        calls.append(n)
        return dedupe_gates(n)

    monkeypatch.setattr(chains, "dedupe_gates", spy)
    for gate_mode in ("parameter", "set"):
        build_kernel(ChainSpec(family="rev", k=2, n=4, gate_mode=gate_mode))
        build_kernel(ChainSpec(family="grev", k=2, n=5, gate_mode=gate_mode,
                               partition=make_partition(5, 2, w=2, p=2)))
    assert calls == []
    build_kernel(ChainSpec(family="rev", k=2, n=3))  # three wires stay on the tables
    assert calls == [3]


class _FlipSource(Exception):
    pass


@pytest.mark.parametrize("gate_mode", ["parameter", "set"])
@pytest.mark.parametrize("family, w", [("rev", None), ("grev", 3)])
def test_four_wires_take_flip_sets_at_every_k(monkeypatch, family, w, gate_mode):
    # at k = 5 a state's 125 successors come near the 149 gate tables of
    # n = 4, and the source still depends on n alone. The spy stops the
    # build at the source, before its moves are counted.
    def flip_moves(spec, states, index):
        raise _FlipSource

    monkeypatch.setattr(chains, "_flip_moves", flip_moves)
    monkeypatch.setattr(chains, "dedupe_gates", None)  # no table is made
    partition = make_partition(4, 5, w=w, p=1) if w else None
    with pytest.raises(_FlipSource):
        build_kernel(ChainSpec(family=family, k=5, n=4, partition=partition,
                               gate_mode=gate_mode))
