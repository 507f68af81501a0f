"""Exact kernels: closed-form entries, symmetry, and sampler agreement."""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy import stats as sps
from scipy.sparse.csgraph import connected_components

from kwmix import chains
from kwmix.chains import (
    ChainSpec,
    _count_matrix,
    _draw_bounds,
    _move,
    _StateIndex,
    _step_moves,
    build_kernel,
    enumerate_generic_states,
    product_kernel,
    sample_chain,
)
from kwmix.core import dedupe_gates, enumerate_tuples, gate_wires
from kwmix.errors import StateCapExceeded
from kwmix.generic import Partition, make_partition
from kwmix.rng import make_rng
from oracles import apply_gate_to_int, enumerate_gates, is_generic

SIGNIFICANCE = 0.001


def test_ucc_k1_is_complete_graph():
    kernel = build_kernel(ChainSpec(family="ucc", k=1, ncolors=3))
    assert np.allclose(kernel.dense(), np.full((3, 3), 1 / 3), atol=0)


def test_ucc_self_loop_is_one_over_n():
    kernel = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))
    dense = kernel.dense()
    assert np.allclose(np.diag(dense), 1 / 4, atol=1e-15)


def test_cc_self_loop_is_one_over_available():
    kernel = build_kernel(ChainSpec(family="cc", k=2, ncolors=4))
    dense = kernel.dense()
    assert np.allclose(np.diag(dense), 1 / 3, atol=1e-15)


def test_rows_sum_to_one():
    specs = [
        ChainSpec(family="ucc", k=2, ncolors=6),
        ChainSpec(family="cc", k=3, ncolors=6),
        ChainSpec(family="rev", k=2, n=3),
        ChainSpec(family="complete", ncolors=5),
    ]
    for spec in specs:
        kernel = build_kernel(spec)
        sums = np.asarray(kernel.matrix.sum(axis=1)).ravel()
        assert np.abs(sums - 1).max() <= 1e-12


def test_coloring_and_gate_kernels_are_symmetric():
    for spec in [
        ChainSpec(family="ucc", k=2, ncolors=5),
        ChainSpec(family="cc", k=2, ncolors=5),
    ]:
        dense = build_kernel(spec).dense()
        assert np.array_equal(dense, dense.T)
    rev = build_kernel(ChainSpec(family="rev", k=2, n=3)).dense()
    assert np.abs(rev - rev.T).max() <= 1e-12


def test_cc_edges_are_contained_in_ucc_edges():
    ucc = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4)).dense()
    cc = build_kernel(ChainSpec(family="cc", k=2, ncolors=4)).dense()
    off = ~np.eye(len(ucc), dtype=bool)
    assert not ((cc > 0) & off & ~(ucc > 0)).any()
    # swap moves exist only in the uniform chain
    assert ((ucc > 0) & off & ~(cc > 0)).any()


def test_chains_are_ergodic_for_k_below_n():
    for spec in [
        ChainSpec(family="ucc", k=3, ncolors=4),
        ChainSpec(family="cc", k=3, ncolors=4),
        ChainSpec(family="rev", k=2, n=3),
    ]:
        kernel = build_kernel(spec)
        ncomp, _ = connected_components(kernel.matrix, directed=True,
                                        connection="strong")
        assert ncomp == 1


def test_state_cap_is_enforced(monkeypatch):
    monkeypatch.setenv("KWM_STATE_CAP", "10")
    with pytest.raises(StateCapExceeded):
        build_kernel(ChainSpec(family="ucc", k=2, ncolors=6))


def test_rev_set_mode_differs_from_parameter_mode():
    par = build_kernel(ChainSpec(family="rev", k=2, n=3, gate_mode="parameter"))
    dedup = build_kernel(ChainSpec(family="rev", k=2, n=3, gate_mode="set"))
    assert par.meta["gate_mode"] == "parameter"
    assert dedup.meta["gate_mode"] == "set"
    # both uniform-stationary and symmetric, but different hold weights
    assert not np.allclose(par.dense(), dedup.dense())
    assert np.abs(dedup.dense() - dedup.dense().T).max() <= 1e-12


# ---------------------------------------------------------------------------
# product kernels
# ---------------------------------------------------------------------------


def test_product_of_two_k2_factors():
    k2 = build_kernel(ChainSpec(family="complete", ncolors=2))
    prod = product_kernel([k2, k2])
    expected = np.array([
        [0.5, 0.25, 0.25, 0.0],
        [0.25, 0.5, 0.0, 0.25],
        [0.25, 0.0, 0.5, 0.25],
        [0.0, 0.25, 0.25, 0.5],
    ])
    assert np.allclose(prod.dense(), expected, atol=1e-15)


def test_product_of_single_factor_is_identity_operation():
    ucc = build_kernel(ChainSpec(family="ucc", k=2, ncolors=4))
    prod = product_kernel([ucc])
    assert np.allclose(prod.dense(), ucc.dense(), atol=0)


def test_product_stationary_law_is_the_outer_product_loop_bit_for_bit():
    # grev's law is not uniform, so every product of two factors is a
    # product of distinct floats
    grev = build_kernel(ChainSpec(family="grev", k=2, n=4,
                                  partition=make_partition(4, 2, w=1, p=2)))
    factors = [grev, build_kernel(ChainSpec(family="complete", ncolors=3)), grev]
    for count in range(1, 4):
        expected = factors[0].stationary
        for f in factors[1:count]:
            expected = np.outer(expected, f.stationary).ravel()
        got = product_kernel(factors[:count]).stationary
        assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


def test_product_gap_k2_k3_against_dense_eigensolve():
    # oracle: build the 6x6 mixture explicitly and eigensolve it
    k2 = np.full((2, 2), 0.5)
    k3 = np.full((3, 3), 1 / 3)
    mix = 0.5 * (np.kron(k2, np.eye(3)) + np.kron(np.eye(2), k3))
    eigs = np.sort(np.linalg.eigvalsh(mix))
    oracle_gap = 1.0 - eigs[-2]
    assert oracle_gap == pytest.approx(0.5, abs=1e-12)

    from kwmix.analysis import spectral_gap

    prod = product_kernel([
        build_kernel(ChainSpec(family="complete", ncolors=2)),
        build_kernel(ChainSpec(family="complete", ncolors=3)),
    ])
    assert spectral_gap(prod) == pytest.approx(oracle_gap, abs=1e-12)


# ---------------------------------------------------------------------------
# generic-state kernels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def toy_partition():
    return make_partition(3, 2, w=2, p=1)


def test_generic_enumeration_matches_filter(toy_partition):
    listed = set(map(tuple, enumerate_generic_states(toy_partition).tolist()))
    filtered = {t for t in map(tuple, enumerate_tuples(2, 8).tolist())
                if is_generic(t, toy_partition)}
    assert listed == filtered
    assert len(listed) == 48


def _generic_states_reference(k, partition):
    # the nested loop that enumerated generic states before the array version
    from itertools import product

    from kwmix.generic import insert_block

    block_tuples = tuple(map(tuple, enumerate_tuples(k, 1 << partition.w).tolist()))
    rem = partition.remainder
    rem_patterns = tuple(product((0, 1), repeat=k * len(rem))) if rem else ((),)
    states = []
    for blocks in product(block_tuples, repeat=partition.p):
        base = [0] * k
        for t, vals in enumerate(blocks):
            for r in range(k):
                base[r] = insert_block(base[r], partition.blocks[t], vals[r])
        for bits in rem_patterns:
            rows = list(base)
            for r in range(k):
                for m, pos in enumerate(rem):
                    rows[r] |= bits[r * len(rem) + m] << pos
            states.append(tuple(rows))
    return tuple(states)


@pytest.mark.parametrize("k,n,w,p", [(1, 4, 2, 1), (2, 3, 2, 1), (2, 4, 2, 2), (2, 5, 1, 2),
                                     (2, 5, 2, 2), (2, 6, 1, 3), (3, 5, 2, 1), (3, 6, 2, 2),
                                     (4, 5, 2, 1)])
def test_generic_enumeration_order_matches_nested_loop(k, n, w, p):
    part = make_partition(n, k, w=w, p=p)
    states = enumerate_generic_states(part)
    assert states.dtype == np.int64
    assert np.array_equal(states, np.array(_generic_states_reference(k, part)))


def test_tgrev_rows_and_symmetry(toy_partition):
    kernel = build_kernel(ChainSpec(family="tgrev", k=2, n=3, partition=toy_partition))
    dense = kernel.dense()
    assert np.abs(dense.sum(axis=1) - 1).max() <= 1e-12
    assert np.abs(dense - dense.T).max() <= 1e-12
    assert np.allclose(np.diag(dense) >= 0.25, True)


def test_grev_rows_renormalize_rev_rows(toy_partition):
    # oracle: per state, count gate successors landing in the generic set
    kernel = build_kernel(ChainSpec(family="grev", k=2, n=3, partition=toy_partition))
    states = list(map(tuple, kernel.states.tolist()))
    index = {s: i for i, s in enumerate(states)}
    generic = set(states)
    gates = enumerate_gates(3)
    dense = kernel.dense()
    for s in states:
        counts = {}
        for g in gates:
            y = tuple(apply_gate_to_int(v, g) for v in s)
            if y in generic:
                counts[y] = counts.get(y, 0) + 1
        total = sum(counts.values())
        row = np.zeros(len(states))
        for y, c in counts.items():
            row[index[y]] = c / total
        assert np.abs(dense[index[s]] - row).max() <= 1e-15


def test_grev_row_equals_rev_row_when_all_successors_generic():
    # with k=1 every state is generic, so the restriction changes nothing
    part = make_partition(3, 1, w=2, p=1)
    grev = build_kernel(ChainSpec(family="grev", k=1, n=3, partition=part))
    rev = build_kernel(ChainSpec(family="rev", k=1, n=3))
    order = [rev.states.tolist().index(s) for s in grev.states.tolist()]
    assert np.allclose(grev.dense(), rev.dense()[np.ix_(order, order)], atol=1e-15)


def test_grev_stationary_is_left_eigenvector(toy_partition):
    kernel = build_kernel(ChainSpec(family="grev", k=2, n=3, partition=toy_partition))
    pi = kernel.stationary
    assert np.abs(pi @ kernel.dense() - pi).max() <= 1e-12
    # renormalization by generic-successor mass: stationary tracks that mass
    rev = build_kernel(ChainSpec(family="rev", k=2, n=3))
    rev_index = {s: i for i, s in enumerate(map(tuple, rev.states.tolist()))}
    states = list(map(tuple, kernel.states.tolist()))
    mass = np.array([
        sum(rev.dense()[rev_index[s], rev_index[t]] for t in states)
        for s in states
    ])
    assert np.abs(pi - mass / mass.sum()).max() <= 1e-12


def _generic_successor_totals(kernel, n):
    # w(x): parameter tuples whose gate maps state x to a generic state
    states = kernel.states
    place = (1 << n) ** np.arange(states.shape[1])
    generic = states @ place
    w = np.zeros(len(states), dtype=np.int64)
    for g in enumerate_gates(n):
        table = np.array([apply_gate_to_int(v, g) for v in range(1 << n)])
        w += np.isin(table[states] @ place, generic)
    return w


@pytest.mark.parametrize("n, k, w, p", [(3, 2, 2, 1), (5, 2, 2, 2), (5, 2, 1, 2)])
def test_grev_stationary_is_the_correctly_rounded_row_total_share(n, k, w, p):
    kernel = build_kernel(ChainSpec(family="grev", k=k, n=n,
                                    partition=make_partition(n, k, w=w, p=p)))
    totals = [int(v) for v in _generic_successor_totals(kernel, n)]
    grand = sum(totals)
    assert kernel.stationary.tolist() == [float(Fraction(v, grand)) for v in totals]


@pytest.mark.parametrize("spec", [
    ChainSpec(family="ucc", k=2, ncolors=5),
    ChainSpec(family="cc", k=3, ncolors=6),
    ChainSpec(family="complete", ncolors=7),
    ChainSpec(family="rev", k=2, n=4),
    ChainSpec(family="rev", k=2, n=4, gate_mode="set"),
    ChainSpec(family="tgrev", k=2, n=5, partition=make_partition(5, 2, w=2, p=2)),
], ids=lambda spec: spec.label())
def test_drawn_and_rev_stationary_is_the_correctly_rounded_uniform_law(spec):
    # every draw stays in the state space, so each row total is the draw
    # total and w / sum(w) rounds to 1 / S
    kernel = build_kernel(spec)
    assert kernel.stationary.tolist() == [float(Fraction(1, kernel.size))] * kernel.size


def _power_iteration_stationary(matrix, tol=1e-15, max_iter=200_000):
    # reference: the iterative solve the closed form replaced
    pt = matrix.transpose().tocsr()
    pi = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(max_iter):
        nxt = pt @ pi
        nxt /= nxt.sum()
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    raise AssertionError("power iteration did not converge")


@pytest.mark.parametrize("n, k, w, p, gate_mode", [
    (5, 2, 2, 2, "parameter"), (5, 2, 1, 2, "parameter"), (4, 2, 1, 2, "set"),
    (6, 2, 2, 2, "parameter"), (5, 3, 2, 1, "parameter"),
])
def test_grev_stationary_matches_power_iteration(n, k, w, p, gate_mode):
    kernel = build_kernel(ChainSpec(family="grev", k=k, n=n, gate_mode=gate_mode,
                                    partition=make_partition(n, k, w=w, p=p)))
    reference = _power_iteration_stationary(kernel.matrix)
    assert np.abs(kernel.stationary / reference - 1).max() <= 1e-13


def test_grev_reversible_under_measured_stationary(toy_partition):
    # measured, not assumed: the restriction is in detailed balance with
    # its own (non-uniform) stationary law
    from kwmix.analysis import verify_reversible

    kernel = build_kernel(ChainSpec(family="grev", k=2, n=3, partition=toy_partition))
    assert np.ptp(kernel.stationary) > 1e-4  # visibly non-uniform
    assert verify_reversible(kernel, tol=1e-12).passes


# ---------------------------------------------------------------------------
# the batch step sampler agrees with kernel rows
# ---------------------------------------------------------------------------

SAMPLED_SPECS = {
    "ucc": ChainSpec(family="ucc", k=2, ncolors=4),
    "cc": ChainSpec(family="cc", k=2, ncolors=4),
    "complete": ChainSpec(family="complete", ncolors=5),
    "cc-k3": ChainSpec(family="cc", k=3, ncolors=6),
    "rev": ChainSpec(family="rev", k=2, n=3),
    "rev-set": ChainSpec(family="rev", k=2, n=3, gate_mode="set"),
    "tgrev": ChainSpec(family="tgrev", k=2, n=3, partition=make_partition(3, 2, w=2, p=1)),
    "tgrev-k3": ChainSpec(family="tgrev", k=3, n=5,
                          partition=make_partition(5, 3, w=2, p=2)),
}


@pytest.mark.parametrize("name", list(SAMPLED_SPECS))
def test_step_sampler_matches_kernel_row(name):
    spec = SAMPLED_SPECS[name]
    kernel = build_kernel(spec)
    start = 0 if spec.family == "tgrev" else kernel.states.tolist().index(list(range(spec.k)))
    samples = 1_000_000
    ends = sample_chain(spec, np.tile(kernel.states[start], (samples, 1)), 1, make_rng(7))
    # every value in these chains is below 64, so base-64 keys rank the tuples
    weights = 64 ** np.arange(spec.k)
    keys, counts = np.unique(ends.astype(np.int64) @ weights, return_counts=True)
    index = {int(key): i for i, key in enumerate(kernel.states @ weights)}
    observed = np.zeros(kernel.size)
    observed[[index[int(key)] for key in keys]] = counts
    row = kernel.matrix.getrow(start).toarray().ravel()
    support = row > 0
    assert not observed[~support].any()
    chi2 = ((observed[support] - samples * row[support]) ** 2
            / (samples * row[support])).sum()
    assert sps.chi2.sf(chi2, int(support.sum()) - 1) > SIGNIFICANCE


@pytest.mark.parametrize("partition", [
    make_partition(3, 2, w=2, p=1),
    make_partition(5, 3, w=2, p=2),
    make_partition(6, 2, w=2, p=2),
    Partition(n=5, k=2, w=2, p=2, blocks=((0, 3), (4, 1)), remainder=(2,)),
], ids=["3-2-2-1", "5-3-2-2", "6-2-2-2", "noncontiguous"])
def test_tgrev_grouped_weights_equal_the_full_draw_product(partition):
    # _tgrev_moves counts one draw per kind and values read, weighted by the
    # draws that agree on them; counting every draw gives the same integers
    k = partition.k
    spec = ChainSpec(family="tgrev", k=k, n=partition.n, partition=partition)
    bounds = _draw_bounds(spec)
    states = enumerate_generic_states(partition)
    index = _StateIndex(states, 1 << partition.n)
    full = _count_matrix(_step_moves(spec, states, index, product(*map(range, bounds))),
                         len(states))
    kernel = build_kernel(spec)
    assert np.array_equal(kernel.matrix.indptr, full.indptr)
    assert np.array_equal(kernel.matrix.indices, full.indices)
    assert np.array_equal(kernel.matrix.data, full.data / math.prod(bounds))
    assert np.array_equal(np.rint(kernel.matrix.data * math.prod(bounds)), full.data)


@pytest.mark.parametrize("name", ["ucc", "cc-k3", "complete", "tgrev-k3"])
def test_move_reads_a_scalar_draw_as_one_value_per_row(name):
    spec = SAMPLED_SPECS[name]
    states = build_kernel(spec).states
    for draw in product(*map(range, _draw_bounds(spec))):
        rows = [np.full(len(states), d) for d in draw]
        assert np.array_equal(_move(spec, states, draw), _move(spec, states, rows))


def test_tgrev_on_two_wires_builds_and_samples():
    # the product chain has no gates, so it runs below the 3 wires of rev
    partition = make_partition(2, 2, w=1, p=1)
    spec = ChainSpec(family="tgrev", k=2, n=2, partition=partition)
    kernel = build_kernel(spec)
    assert kernel.size == 8
    ends = sample_chain(spec, np.tile(kernel.states[0], (100, 1)), 5, make_rng(0))
    assert set(map(tuple, ends.tolist())) <= set(map(tuple, kernel.states.tolist()))


def _assert_distinct_for_50_steps(spec, seed):
    rng = make_rng(seed)
    x = np.tile(np.arange(spec.k) * 2 + 1, (2_000, 1))
    for _ in range(50):
        x = sample_chain(spec, x, 1, rng)
        assert (np.diff(np.sort(x, axis=1), axis=1) != 0).all()


def test_step_rev_preserves_distinctness():
    for name in ("rev", "rev-set"):
        _assert_distinct_for_50_steps(SAMPLED_SPECS[name], 3)


def test_step_coloring_preserves_distinctness():
    for name in ("ucc", "cc-k3"):
        _assert_distinct_for_50_steps(SAMPLED_SPECS[name], 5)


def test_step_tgrev_stays_generic():
    rng = make_rng(11)
    for spec in (SAMPLED_SPECS["tgrev"], SAMPLED_SPECS["tgrev-k3"]):
        x = np.tile(enumerate_generic_states(spec.partition)[0], (500, 1))
        for _ in range(20):
            x = sample_chain(spec, x, 1, rng)
            assert all(is_generic(tuple(int(v) for v in row), spec.partition)
                       for row in x)


def test_step_tgrev_rejects_degenerate_partition():
    # (w, p) = (2, 2) leaves no remainder on 4 wires; (1, 0) has no block;
    # the spec refuses both, so no step can be drawn from one
    for w, p, message in ((2, 2, "nonempty remainder"), (1, 0, "at least one block")):
        with pytest.raises(ValueError, match=message):
            ChainSpec(family="tgrev", k=2, n=4, partition=make_partition(4, 2, w=w, p=p))


# part holds the (n, k, w, p) arguments of make_partition
@pytest.mark.parametrize("family", ["grev", "tgrev"])
@pytest.mark.parametrize("n,k,part,message", [
    (5, 2, (6, 2, 2, 2), "partition covers n=6, chain has n=5"),
    (6, 3, (6, 2, 2, 2), "partition was built for k=2, got k=3"),
    (6, 3, (6, 3, 1, 2), "more rows than block values"),
    (6, 2, (6, 2, 1, 0), "at least one block"),
])
def test_spec_refuses_a_partition_that_does_not_fit(family, n, k, part, message):
    with pytest.raises(ValueError, match=message):
        ChainSpec(family=family, k=k, n=n, partition=make_partition(*part))


_PART_5_2 = make_partition(5, 2, w=2, p=1)


@pytest.mark.parametrize("fields, message", [
    (dict(family="cc", k=2, ncolors=4, n=5), "cc takes no n"),
    (dict(family="ucc", k=2, ncolors=6, n=9), "ucc takes no n"),
    (dict(family="complete", ncolors=4, n=3), "complete takes no n"),
    (dict(family="rev", k=2, n=3, ncolors=6), "rev takes no N"),
    (dict(family="grev", k=2, n=5, ncolors=6, partition=_PART_5_2), "grev takes no N"),
    (dict(family="tgrev", k=2, n=5, ncolors=6, partition=_PART_5_2), "tgrev takes no N"),
    (dict(family="rev", k=2, n=5, partition=_PART_5_2), "rev takes no partition"),
    (dict(family="cc", k=2, ncolors=4, partition=_PART_5_2), "cc takes no partition"),
    (dict(family="ucc", k=2, ncolors=6, partition=_PART_5_2), "ucc takes no partition"),
    (dict(family="complete", ncolors=4, partition=_PART_5_2), "complete takes no partition"),
    (dict(family="complete", k=3, ncolors=4), "complete takes no k other than 1"),
    (dict(family="cc", k=2, ncolors=4, gate_mode="set"), "cc takes no gate mode 'set'"),
    (dict(family="ucc", k=2, ncolors=4, gate_mode="set"), "ucc takes no gate mode 'set'"),
    (dict(family="complete", ncolors=4, gate_mode="set"),
     "complete takes no gate mode 'set'"),
    (dict(family="tgrev", k=2, n=5, partition=_PART_5_2, gate_mode="set"),
     "tgrev takes no gate mode 'set'"),
    (dict(family="ucc", k=2, ncolors=6, n=9, partition=_PART_5_2),
     "ucc takes no n, partition"),
])
def test_spec_refuses_a_field_its_family_does_not_read(fields, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ChainSpec(**fields)


def test_label_names_the_fields_each_family_reads():
    # the gate mode only where gates are drawn, as in ChainSpec.meta()
    labels = [ChainSpec(**fields).label() for fields in (
        dict(family="rev", k=2, n=5, gate_mode="set"),
        dict(family="grev", k=2, n=5, partition=_PART_5_2),
        dict(family="tgrev", k=2, n=5, partition=_PART_5_2),
        dict(family="cc", k=2, ncolors=4),
        dict(family="ucc", k=3, ncolors=6),
        dict(family="complete", ncolors=4),
    )]
    assert labels == ["rev(k=2,n=5,set)", "grev(k=2,n=5,parameter)", "tgrev(k=2,n=5)",
                      "cc(k=2,N=4)", "ucc(k=3,N=6)", "complete(N=4)"]


def test_sampler_rejects_families_without_moves_and_bad_shapes():
    rng = make_rng(0)
    with pytest.raises(ValueError):
        sample_chain(ChainSpec(family="grev", k=2, n=3, partition=make_partition(3, 2, w=2, p=1)),
                     np.zeros((2, 2)), 1, rng)
    with pytest.raises(ValueError):
        sample_chain(SAMPLED_SPECS["rev"], np.zeros((2, 3)), 1, rng)
    with pytest.raises(ValueError):
        sample_chain(SAMPLED_SPECS["rev"], np.zeros((2, 2)), -1, rng)
    with pytest.raises(ValueError, match="3-bit strings"):
        sample_chain(SAMPLED_SPECS["rev"], np.array([[0, 8]]), 1, rng)


# ---------------------------------------------------------------------------
# the rev sampler equals an (S, k) uint64 step loop making the same draws
# ---------------------------------------------------------------------------


def _reference_rev_steps(x, t, rng, n, tables=None):
    """rev steps on an (S, k) uint64 array: per row one uint32 draw v in
    [0, 16 n (n-1)^2), read as truth table v & 15 and wire choice
    q = v >> 4 = (target (n-1) + j1) (n-1) + j2, control i being the wire
    target + 1 + ji (mod n); or in set mode one deduplicated table."""
    x = np.array(x, dtype=np.uint64)
    size = len(x)
    for _ in range(t):
        if tables is not None:
            x = tables[rng.integers(len(tables), size=size)[:, None], x]
            continue
        v = rng.integers(0, 16 * n * (n - 1) ** 2, size=size, dtype=np.uint32)
        h = (v & 15).astype(np.uint64)
        q = (v >> 4).astype(np.uint64)
        target = q // (n - 1) ** 2
        j1 = (target + 1 + q // (n - 1) % (n - 1)) % n
        j2 = (target + 1 + q % (n - 1)) % n
        a = (x >> j1[:, None]) & 1
        b = (x >> j2[:, None]) & 1
        x ^= ((h[:, None] >> ((a << 1) | b)) & 1) << target[:, None]
    return x


def _distinct_starts(n, k, seed, rows=40):
    # per row k distinct small values XORed with one n-bit mask whose top
    # wire is set: rows stay distinct and carry high bits
    g = np.random.default_rng(seed)
    small = np.argsort(g.random((rows, min(1 << n, 256))), axis=1)[:, :k]
    mask = g.integers(0, 1 << n, size=(rows, 1), dtype=np.uint64)
    return small.astype(np.uint64) ^ (mask | np.uint64(1 << (n - 1)))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("n", [3, 12, 16, 17, 32, 33, 63, 64])
def test_rev_sampler_equals_the_uint64_loop(n, k):
    spec = ChainSpec(family="rev", k=k, n=n)
    for seed in range(3):
        x = _distinct_starts(n, k, seed)
        got = sample_chain(spec, x, 25, make_rng(seed))
        assert got.dtype == np.uint64 and got.shape == x.shape
        np.testing.assert_array_equal(got, _reference_rev_steps(x, 25, make_rng(seed), n))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rev_set_sampler_equals_the_uint64_loop(n):
    tables = dedupe_gates(n)[0].astype(np.uint64)
    for k in (1, 2, 3, 5):
        spec = ChainSpec(family="rev", k=k, n=n, gate_mode="set")
        for seed in range(3):
            x = _distinct_starts(n, k, seed)
            got = sample_chain(spec, x, 25, make_rng(seed))
            assert got.dtype == np.uint64 and got.shape == x.shape
            np.testing.assert_array_equal(
                got, _reference_rev_steps(x, 25, make_rng(seed), n, tables))


@pytest.mark.parametrize("block_bytes", [1, 100, 1000])
@pytest.mark.parametrize("rows", [1, 40])
@pytest.mark.parametrize("t", [0, 25])
@pytest.mark.parametrize("gate_mode", ["parameter", "set"])
def test_rev_draw_blocks_do_not_change_the_draws(monkeypatch, block_bytes, rows, t, gate_mode):
    # blocks of 1 step, of a few steps (t=25 crosses several) or of all 25
    monkeypatch.setattr(chains, "DRAW_BLOCK_BYTES", block_bytes)
    n = 5
    tables = dedupe_gates(n)[0].astype(np.uint64) if gate_mode == "set" else None
    spec = ChainSpec(family="rev", k=3, n=n, gate_mode=gate_mode)
    for seed in range(3):
        x = _distinct_starts(n, 3, seed, rows)
        np.testing.assert_array_equal(sample_chain(spec, x, t, make_rng(seed)),
                                      _reference_rev_steps(x, t, make_rng(seed), n, tables))


@pytest.mark.parametrize("n", [3, 4, 5, 12, 64])
def test_one_draw_decodes_each_parameter_tuple_once(n):
    # every v in [0, 16 n (n-1)^2) decodes to a distinct (target, control 1,
    # control 2, truth table) with both controls off the target; there are
    # exactly 16 n (n-1)^2 such tuples, so one uniform v draws each with
    # probability 1 / (16 n (n-1)^2), the parameter measure
    targets, controls1, controls2 = gate_wires(n)
    v = np.arange(16 * n * (n - 1) ** 2)
    target, c1, c2, h = targets[v >> 4], controls1[v >> 4], controls2[v >> 4], v & 15
    for wire in (target, c1, c2):
        assert wire.min() >= 0 and wire.max() < n
    assert (c1 != target).all() and (c2 != target).all()
    assert h.min() == 0 and h.max() == 15
    keys = ((target * n + c1) * n + c2) * 16 + h
    assert len(np.unique(keys)) == len(v)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_parameter_step_applies_the_enumerated_gate_of_its_draw(n):
    # one step draws v per row, replayed from the same seed, and applies
    # the oracle gate enumerate_gates(n)[v] to every coordinate
    gates = enumerate_gates(n)
    spec = ChainSpec(family="rev", k=3, n=n)
    for seed in range(3):
        x = _distinct_starts(n, 3, seed)
        v = make_rng(seed).integers(0, len(gates), size=len(x), dtype=np.uint32)
        want = [[apply_gate_to_int(value, gates[int(vi)]) for value in row]
                for row, vi in zip(x.tolist(), v)]
        assert sample_chain(spec, x, 1, make_rng(seed)).tolist() == want
