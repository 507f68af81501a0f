"""Gates and distinct tuples against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwmix.core import (
    dedupe_gates,
    enumerate_tuples,
    gate_flips,
    gate_wires,
    tuple_space_size,
)
from oracles import (
    H_AND,
    H_XOR,
    H_ZERO,
    Gate,
    apply_gate_to_int,
    enumerate_gates,
    recolor,
)


def test_apply_gate_and_case():
    # bits (0, 1, 1): AND of wires 1 and 2 is 1, flipping wire 0
    g = Gate(target=0, j1=1, j2=2, h=H_AND)
    assert apply_gate_to_int(0b110, g) == 0b111


def test_apply_gate_xor_case():
    # bits (1, 0, 1): XOR of wires 1 and 2 is 1, flipping wire 0
    g = Gate(target=0, j1=1, j2=2, h=H_XOR)
    assert apply_gate_to_int(0b101, g) == 0b100


def test_apply_gate_zero_table_is_identity():
    for value in range(8):
        for g in enumerate_gates(3):
            if g.h == H_ZERO:
                assert apply_gate_to_int(value, g) == value


def test_gate_rejects_target_among_controls():
    with pytest.raises(ValueError):
        Gate(1, 1, 2, 5)
    with pytest.raises(ValueError):
        Gate(1, 2, 1, 5)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_gate_involution_and_bijection(data):
    n = data.draw(st.integers(min_value=3, max_value=10))
    target = data.draw(st.integers(min_value=0, max_value=n - 1))
    others = [j for j in range(n) if j != target]
    j1 = data.draw(st.sampled_from(others))
    j2 = data.draw(st.sampled_from(others))
    h = data.draw(st.integers(min_value=0, max_value=15))
    g = Gate(target, j1, j2, h)
    value = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    once = apply_gate_to_int(value, g)
    assert 0 <= once < (1 << n)
    assert apply_gate_to_int(once, g) == value


def test_every_gate_is_a_bijection_exhaustive_n3():
    for g in enumerate_gates(3):
        images = {apply_gate_to_int(v, g) for v in range(8)}
        assert images == set(range(8))


def test_enumerate_gate_counts():
    assert len(enumerate_gates(3)) == 16 * 3 * 2 * 2
    assert len(enumerate_gates(4)) == 16 * 4 * 3 * 3


def test_enumerate_includes_equal_controls():
    assert any(g.j1 == g.j2 for g in enumerate_gates(3))


def test_enumerate_rejects_small_n():
    with pytest.raises(ValueError):
        enumerate_gates(2)


def test_enumerate_gates_follows_the_gate_wires_index():
    # gate v = 16 q + h has the wires of gate_wires choice q and table h;
    # every (target, control 1, control 2) with controls off the target
    # appears once
    for n in (3, 4, 5):
        targets, controls1, controls2 = gate_wires(n)
        gates = enumerate_gates(n)
        assert len(gates) == 16 * len(targets)
        for v, g in enumerate(gates):
            q, h = divmod(v, 16)
            assert g == Gate(int(targets[q]), int(controls1[q]), int(controls2[q]), h)
        assert len({(g.target, g.j1, g.j2) for g in gates}) == n * (n - 1) ** 2


def _brute_force_distinct_tables(n):
    # independent oracle: hash each gate's full action, bit by bit
    tables = set()
    for g in enumerate_gates(n):
        action = []
        for value in range(1 << n):
            bits = [(value >> i) & 1 for i in range(n)]
            out = list(bits)
            out[g.target] ^= (g.h >> ((bits[g.j1] << 1) | bits[g.j2])) & 1
            action.append(sum(b << i for i, b in enumerate(out)))
        tables.add(tuple(action))
    return tables


def test_dedupe_gates_n3_against_enumeration_oracle():
    expected = _brute_force_distinct_tables(3)
    got = dedupe_gates(3)[0]
    assert len(got) == len(expected) == 46
    assert {tuple(int(v) for v in row) for row in got} == expected


def test_dedupe_contains_identity_exactly_once():
    got = [tuple(int(v) for v in row) for row in dedupe_gates(3)[0]]
    identity = tuple(range(8))
    assert got.count(identity) == 1
    assert len(got) < 192


def _dedupe_by_loop(n):
    # reference: one pointwise table per parameter tuple, keyed by its bytes
    tables, counts = {}, {}
    for g in enumerate_gates(n):
        table = np.array([apply_gate_to_int(v, g) for v in range(1 << n)])
        key = table.astype(np.uint16).tobytes()
        tables.setdefault(key, table)
        counts[key] = counts.get(key, 0) + 1
    return np.stack(list(tables.values())), np.array(list(counts.values()))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_dedupe_gates_matches_the_per_gate_loop(n):
    tables, counts = dedupe_gates(n)
    want_tables, want_counts = _dedupe_by_loop(n)
    assert np.array_equal(tables, want_tables)  # same tables, first-seen order
    assert np.array_equal(counts, want_counts)
    assert counts.sum() == 16 * n * (n - 1) ** 2


@pytest.mark.parametrize("n, word", [(3, np.uint16), (5, np.uint32), (6, np.uint64)])
def test_gate_flips_is_the_scalar_gate(n, word):
    # every gate on every n-bit string at once: gates along axis 0, strings
    # along axis 1, the wire and table arrays broadcast as columns
    gates = enumerate_gates(n)
    wires = [np.array([getattr(g, f) for g in gates], dtype=word)[:, None]
             for f in ("target", "j1", "j2", "h")]
    x = np.arange(1 << n, dtype=word)
    out = np.empty((len(gates), 1 << n), dtype=word)
    flips = gate_flips(x, *wires, out, np.empty_like(out))
    assert flips is out
    want = [[apply_gate_to_int(v, g) for v in range(1 << n)] for g in gates]
    assert (x ^ flips).tolist() == want


def test_dedupe_rejects_large_n():
    with pytest.raises(ValueError):
        dedupe_gates(13)


# ---------------------------------------------------------------------------
# distinct-tuple indexing
# ---------------------------------------------------------------------------


def _ranks(k, N):
    # rank of each distinct tuple: its row in the lexicographic enumeration
    return {t: idx for idx, t in enumerate(map(tuple, enumerate_tuples(k, N).tolist()))}


def test_first_tuple_has_index_zero():
    assert _ranks(2, 3)[(0, 1)] == 0
    assert tuple_space_size(2, 3) == 6


def test_index_matches_lexicographic_enumeration():
    for k, N in [(1, 4), (2, 5), (3, 5), (4, 4)]:
        tuples = enumerate_tuples(k, N)
        assert tuples.shape == (tuple_space_size(k, N), k)
        assert tuples.dtype == np.int64
        assert list(map(tuple, tuples.tolist())) == list(itertools.permutations(range(N), k))


def test_roundtrip_theta_3_5_exhaustive():
    tuples = enumerate_tuples(3, 5)
    ranks = _ranks(3, 5)
    for t in itertools.permutations(range(5), 3):
        assert tuple(tuples[ranks[t]].tolist()) == t
    assert sorted(ranks.values()) == list(range(60))


def test_enumerated_tuples_are_distinct():
    tuples = np.sort(enumerate_tuples(3, 6), axis=1)
    assert (tuples[:, 1:] != tuples[:, :-1]).all()
    assert len(np.unique(tuples @ [36, 6, 1])) == tuple_space_size(3, 6) // 6


def test_tuple_space_rejects_bad_input():
    for k, N in [(0, 4), (5, 4), (1, 0)]:
        with pytest.raises(ValueError):
            tuple_space_size(k, N)
        with pytest.raises(ValueError):
            enumerate_tuples(k, N)


def test_recolor_swap_and_fresh_cases():
    assert recolor((0, 1), 0, 1) == (1, 0)       # collision: swap
    assert recolor((0, 1), 0, 2) == (2, 1)       # fresh color
    assert recolor((0, 1), 1, 1) == (0, 1)       # own color: hold
    assert recolor((2, 0, 3), 2, 0) == (2, 3, 0)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_recolor_preserves_distinctness(data):
    N = data.draw(st.integers(min_value=2, max_value=8))
    k = data.draw(st.integers(min_value=1, max_value=N))
    t = tuple(data.draw(st.permutations(range(N)))[:k])
    i = data.draw(st.integers(min_value=0, max_value=k - 1))
    color = data.draw(st.integers(min_value=0, max_value=N - 1))
    out = recolor(t, i, color)
    assert len(set(out)) == k
    assert out[i] == color
