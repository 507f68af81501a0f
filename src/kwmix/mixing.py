"""Exact distribution evolution, mixing times, and statistical tests.

Exact experiments evolve point masses through a kernel and track total
variation to stationarity. A gate chain tracks one start per symmetry
orbit; the orbits are the connected components of the graph joining
each state to its images under a few generators of the symmetry group,
ranked against the kernel's (S, k) state array. At sizes where the
tuple space is out of reach, circuits are sampled instead and a
projected statistic of the output tuple is tested against its
closed-form law under the uniform distribution on distinct tuples
(chi-square goodness of fit). Each statistic is one branch of
`_statistic`: its law, the bin counts it takes, and the binning of
sampled tuples. The projections keep the null law exactly computable,
which raw TV over a ~2^(nk)-point support would not be.
Where the state space is small enough to count every state, sampled
end states are tested against the uniform law directly
(`end_state_test`, the statistic of ``kwmix mix-mc``). Both tests count
samples in pieces with `rng.mc_counts` and score them in `_chi_square`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components
from scipy.special import chdtrc

from .chains import ChainSpec, Kernel, _chain_states, _StateIndex, build_kernel, sample_chain
from .core import sample_uniform_tuples
from .errors import InvariantViolation
from .rng import mc_counts

# chains whose color-permutation symmetry makes every start equivalent
TRANSITIVE_FAMILIES = {"ucc", "cc", "complete"}
# gate chains whose starts `orbit_starts` classes into symmetry orbits
ORBIT_FAMILIES = {"rev", "grev", "tgrev"}


def _evolution(kernel: Kernel, starts: Sequence[int]) -> Iterator[np.ndarray]:
    """The (S, R) distributions at t = 0, 1, 2, ... (without end) of the
    chain started from point masses at `starts`, one column per start,
    stepped by the view P.T (no copy of P), whose sums are a CSR copy's."""
    starts = np.asarray(starts, dtype=np.int64)
    bad = starts[(starts < 0) | (starts >= kernel.size)]
    if len(bad):
        raise IndexError(f"start state {bad[0]} out of range")
    pt = kernel.matrix.T
    dists = np.zeros((kernel.size, len(starts)))
    dists[starts, np.arange(len(starts))] = 1.0
    while True:
        yield dists
        dists = pt @ dists


def evolve(kernel: Kernel, start: int, t: int) -> np.ndarray:
    """Exact t-step distribution from a point mass at state `start`."""
    if t < 0:
        raise ValueError("need t >= 0")
    return next(islice(_evolution(kernel, [start]), t, None))[:, 0]


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Half the l1 distance between two aligned distributions."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("distributions are misaligned")
    return 0.5 * math.fsum(np.abs(p - q).tolist())


def tv_curve(kernel: Kernel, start: int, t_max: int) -> list[float]:
    """TV(p_start^t, stationary) for t = 0..t_max."""
    if t_max < 0:
        raise ValueError("need t_max >= 0")
    return [tv_distance(p[:, 0], kernel.stationary)
            for p in islice(_evolution(kernel, [start]), t_max + 1)]


def pointwise_relative_error(kernel: Kernel, start: int, t: int) -> float:
    """max_y |p_start^t(y) - pi(y)| / pi(y)."""
    p = evolve(kernel, start, t)
    pi = kernel.stationary
    if pi.min() <= 0:
        raise ValueError("needs a strictly positive stationary law")
    return float(np.max(np.abs(p - pi) / pi))


def _swap_and_roll(items: Sequence) -> list[list]:
    """Orders of `items` that generate all their permutations: the first
    two swapped, and a roll by one where that is not the same move."""
    items = list(items)
    orders = []
    if len(items) > 1:
        orders.append(items[1::-1] + items[2:])
    if len(items) > 2:
        orders.append(items[1:] + items[:1])
    return orders


def _permute_wires(states: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Wire j of the image is wire perm[j] of each string."""
    moved = np.flatnonzero(perm != np.arange(len(perm)))
    image = states & ~sum(1 << int(j) for j in moved)
    for j in moved:
        image |= (states >> perm[j] & 1) << j
    return image


def _symmetry_images(states: np.ndarray, n: int,
                     blocks: Sequence[Sequence[int]]) -> Iterator[np.ndarray]:
    """Images of an (S, k) state array under generators of its symmetry
    group: one-bit XORs, then a swap and a roll of the wires inside each
    block and inside the remainder, of the whole blocks, and of the rows."""
    for j in range(n):
        yield states ^ (1 << j)
    held = {wire for block in blocks for wire in block}
    # wire groups permuted among themselves: the single wires of each
    # block, those of the remainder, and the whole blocks
    families = [[[w] for w in block] for block in blocks]
    families += [[[w] for w in range(n) if w not in held], list(blocks)]
    for groups in families:
        for order in _swap_and_roll(groups):
            perm = np.arange(n)
            perm[np.concatenate(groups)] = np.concatenate(order)
            yield _permute_wires(states, perm)
    for order in _swap_and_roll(range(states.shape[1])):
        yield states[:, order]


def _orbit_labels(states: np.ndarray, n: int, blocks: Sequence[Sequence[int]]) -> np.ndarray:
    """Orbit label of each row of an (S, k) array of n-bit tuples, the
    array being closed under the symmetries of `_symmetry_images`.

    The orbits are the connected components of the graph that joins each
    state to its generator images, ranked by the kernels' `_StateIndex`.
    """
    index = _StateIndex(states, 1 << n)
    ranks = [index(image) for image in _symmetry_images(states, n, blocks)]
    dst = np.concatenate(ranks)
    if dst.min() < 0:
        raise InvariantViolation("a symmetry image is not one of the states")
    src = np.tile(np.arange(len(states)), len(ranks))
    graph = sparse.coo_matrix((np.ones(len(dst), dtype=bool), (src, dst)),
                              shape=(len(states), len(states)))
    return connected_components(graph, directed=False)[1]


def orbit_starts(kernel: Kernel) -> np.ndarray:
    """One start state per symmetry orbit of a gate-chain kernel (rev, grev,
    tgrev), the lowest index in each orbit, in increasing order.

    The kernel and its stationary law are invariant under XOR with a
    constant, row permutations and wire permutations (for grev and tgrev,
    those keeping the partition's blocks and remainder, whole blocks
    being exchangeable), so every start in an orbit has the same TV curve
    (Boyd, Diaconis, Parrilo and Xiao, "Symmetry analysis of reversible
    Markov chains", 2005). The orbits come from `_orbit_labels`.
    """
    meta = kernel.meta
    if meta.get("family") not in ORBIT_FAMILIES:
        raise ValueError(f"no orbit labels for family {meta.get('family')!r}")
    blocks = meta["partition"]["blocks"] if "partition" in meta else []
    labels = _orbit_labels(kernel.states, meta["n"], blocks)
    return np.sort(np.unique(labels, return_index=True)[1])


def _starts(kernel: Kernel, all_starts: bool | None) -> np.ndarray:
    if all_starts is None:
        family = kernel.meta.get("family")
        if family in ORBIT_FAMILIES:
            return orbit_starts(kernel)
        all_starts = family not in TRANSITIVE_FAMILIES
    return np.arange(kernel.size if all_starts else 1)


def _worst_tv_series(kernel: Kernel, all_starts: bool | None = None) -> Iterator[float]:
    """Worst-start TV(p_x^t, pi) for t = 0, 1, 2, ... (without end).

    The tracked starts are the columns of an (S, R) matrix of
    distributions, evolved together. By default a chain marked transitive
    tracks state 0 alone, a gate chain one start per symmetry orbit
    (`orbit_starts`), any other chain every start. ``all_starts`` true
    tracks every start, false state 0 alone.
    """
    pi = kernel.stationary[:, None]
    for dists in _evolution(kernel, _starts(kernel, all_starts)):
        # column sums of |dists - pi|, added pairwise by halving the rows
        dev = dists - pi
        np.abs(dev, out=dev)
        rows = len(dev)
        while rows > 1:
            half = rows // 2
            dev[:half] += dev[rows - half:rows]
            rows -= half
        yield float(np.max(0.5 * dev[0]))


def _scan_to_mixing(kernel: Kernel, epsilon: float, max_steps: int,
                    all_starts: bool | None = None) -> tuple[list[float], Iterator[float]]:
    """The worst-start series up to and including its first value <=
    epsilon, and the rest of the series. A kernel with more than one
    strongly connected class is refused before any step: starts in
    different classes never meet, so no number of steps mixes."""
    if not 0 < epsilon < 1:
        raise ValueError("need 0 < epsilon < 1")
    if max_steps < 0:
        raise ValueError("need max_steps >= 0")
    kernel.check_irreducible("never mixes")
    series = _worst_tv_series(kernel, all_starts)
    seen = []
    for worst in islice(series, max_steps + 1):
        seen.append(worst)
        if worst <= epsilon:
            return seen, series
    raise RuntimeError(f"no mixing within {max_steps} steps (TV still {worst:.3g})")


def mixing_time_exact(
    kernel: Kernel,
    epsilon: float,
    max_steps: int = 100_000,
    all_starts: bool | None = None,
) -> int:
    """Smallest t with max-over-starts TV(p_x^t, pi) <= epsilon.

    The starts are those of `_worst_tv_series`: one per symmetry orbit for
    the gate chains, state 0 for chains marked transitive. Raises
    ValueError at once for a reducible kernel.
    """
    return len(_scan_to_mixing(kernel, epsilon, max_steps, all_starts)[0]) - 1


def mixing_curve(kernel: Kernel, epsilon: float,
                 max_steps: int = 100_000) -> tuple[int, list[float]]:
    """The mixing time tau of `mixing_time_exact` and the worst-start TV
    for t = 0 .. max(2 tau, 1), read from one evolution."""
    curve, series = _scan_to_mixing(kernel, epsilon, max_steps)
    tau = len(curve) - 1
    curve += islice(series, max(2 * tau, 1) + 1 - len(curve))
    return tau, curve


def kwise_tv_exact(n: int, k: int, t: int, gate_mode: str = "parameter") -> list[float]:
    """Exact approximation error of the s-gate circuit distribution for
    s = 0..t: max over start tuples of TV(p_x^s, uniform on distinct
    tuples), taken over one start per symmetry orbit, from one evolution."""
    if t < 0:
        raise ValueError("need t >= 0")
    kernel = build_kernel(ChainSpec(family="rev", k=k, n=n, gate_mode=gate_mode))
    return list(islice(_worst_tv_series(kernel), t + 1))


# ---------------------------------------------------------------------------
# Monte Carlo statistics of sampled chains and of random circuits
# ---------------------------------------------------------------------------

# smallest expected count per outcome at which a chi-square test runs
MIN_EXPECTED_COUNT = 5


def _chi2_p_value(chi2: float, dof: int) -> float:
    """Upper tail of the chi-square law with `dof` degrees of freedom at
    `chi2`: scipy.special.chdtrc, the function scipy.stats.chi2.sf
    evaluates, so the same float, and 0.0 at chi2 = inf."""
    if dof < 1:
        raise InvariantViolation(f"a chi-square test needs dof >= 1, got {dof}")
    return float(chdtrc(dof, chi2))


def _chi_square(expected: np.ndarray, samples: int, seed: int,
                draw: Callable[[int, np.random.Generator], np.ndarray],
                unit: str, one_outcome: str) -> tuple[np.ndarray, float, int, float]:
    """Counts, chi2, dof and p-value of `rng.mc_counts(samples, seed,
    len(expected), draw)` against `expected`, over its positive entries.

    Refuses before any draw (ValueError) no samples, one outcome
    (`one_outcome` says which), and a least expected count below
    MIN_EXPECTED_COUNT. A count outside the support gives chi2 = inf."""
    if samples < 1:
        raise ValueError("need at least one sample")
    support = expected > 0
    if support.sum() < 2:
        raise ValueError(f"{one_outcome}; a chi-square test needs two")
    least = expected[support].min()
    if least < MIN_EXPECTED_COUNT:
        # 3 digits, or as many more as it takes not to read as enough
        digits = next(d for d in range(3, 18) if float(f"{least:.{d}g}") < MIN_EXPECTED_COUNT)
        raise ValueError(
            f"{samples} samples over {len(expected)} {unit}s expect {least:.{digits}g} in the "
            f"least likely {unit}; the chi-square test needs at least {MIN_EXPECTED_COUNT}")
    counts = mc_counts(samples, seed, len(expected), draw)
    chi2 = float(np.sum((counts[support] - expected[support]) ** 2 / expected[support]))
    if counts[~support].any():
        chi2 = math.inf
    dof = int(support.sum()) - 1
    return counts, chi2, dof, _chi2_p_value(chi2, dof)


@dataclass
class EndStateReport:
    states: int
    distinct_visited: int
    chi2: float
    dof: int
    p_value: float
    empirical_tv: float


def end_state_test(spec: ChainSpec, t: int, samples: int, seed: int = 0) -> EndStateReport:
    """Chi-square test of the end states of `samples` t-step trajectories
    against the uniform law on the states of `chains._chain_states`.

    Every trajectory starts at the first state, (0, 1, ..., k-1) or for
    tgrev the first generic state. `rng.mc_counts` steps them with
    `sample_chain` in pieces of at most MC_PIECE rows from the one stream
    of `seed`, so memory does not grow with `samples`, and counts the end
    states by rank. Refused as in `_chi_square`, below MIN_EXPECTED_COUNT
    samples per state.
    """
    states, index = _chain_states(spec)
    size = len(states)

    def ranks(rows: int, rng: np.random.Generator) -> np.ndarray:
        ends = sample_chain(spec, np.tile(states[0], (rows, 1)), t, rng)
        return index(ends.astype(np.int64, copy=False))

    counts, chi2, dof, p_value = _chi_square(np.full(size, samples / size), samples, seed,
                                             ranks, "state", f"{spec.label()} has one state")
    emp_tv = float(0.5 * np.abs(counts / samples - 1.0 / size).sum())
    return EndStateReport(states=size, distinct_visited=int(np.count_nonzero(counts)),
                          chi2=chi2, dof=dof, p_value=p_value, empirical_tv=emp_tv)


STATISTICS = ("hamming", "xor", "lowbits")
SAMPLERS = ("circuit", "uniform")


@dataclass
class StatTestReport:
    n: int
    k: int
    gates: int
    samples: int
    statistic: str
    bins: int
    chi2: float
    dof: int
    p_value: float
    seed: int
    gate_mode: str
    sampler: str

    def rejects(self, significance: float) -> bool:
        return self.p_value < significance


def _statistic(statistic: str, n: int, k: int, bins: int
               ) -> tuple[np.ndarray, Callable[[np.ndarray], np.ndarray]]:
    """The exact law over `bins` bins of a projected statistic under
    uniform distinct tuples, and `bin_of`, which maps a sampled (S, k)
    tuple array to the bin of each row. Raises ValueError for a bin count
    the statistic cannot take."""
    N = 1 << n
    if statistic == "hamming":
        # weight of y1; the weights <= a and >= n - a pool into the end bins
        a, odd = divmod(n + 1 - bins, 2)
        if odd or a < 0 or bins < 2:
            raise ValueError(f"hamming weight of an {n}-bit string needs n + 1 - 2a >= 2 "
                             f"bins for some a >= 0, got {bins}")
        # per-coordinate marginal of a uniform distinct tuple is uniform
        weights = [math.comb(n, w) for w in range(n + 1)]
        pooled = [sum(weights[:a + 1]), *weights[a + 1:n - a], sum(weights[n - a:])]
        return (np.array([count / N for count in pooled]),
                lambda tuples: np.clip(np.bitwise_count(tuples[:, 0]), a, n - a) - a)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}; pick one of {STATISTICS}")
    if statistic == "xor" and k < 2:
        raise ValueError("xor statistic needs k >= 2")
    # xor and lowbits bin a value by its low bits
    if bins < 2 or bins & (bins - 1):
        raise ValueError(f"bins must be a power of two >= 2, got {bins}")
    if bins > N:
        raise ValueError(f"bins={bins} exceeds the {N}-point value range")
    if statistic == "xor":
        # y1 ^ y2 is uniform over the N-1 nonzero strings; bucket v of the
        # low-bit reduction holds N/bins strings, minus the zero string.
        law = np.full(bins, (N // bins) / (N - 1))
        law[0] = (N // bins - 1) / (N - 1)
        return law, lambda tuples: (tuples[:, 0] ^ tuples[:, 1]) & (bins - 1)
    return np.full(bins, 1.0 / bins), lambda tuples: tuples[:, 0] & (bins - 1)


def kwise_stat_mc(
    n: int,
    k: int,
    gates: int,
    samples: int,
    statistic: str = "xor",
    seed: int = 0,
    bins: int | None = None,
    sampler: str = "circuit",
) -> StatTestReport:
    """Chi-square test of a projected circuit-output statistic against its
    exact law under uniform distinct tuples.

    Each sample runs `gates` steps of the parameter-measure rev chain
    from the fixed start (0, 1, ..., k-1) (any fixed distinct start would
    do), one bounded integer per gate and sample; ``sampler="uniform"``
    replaces them by direct uniform tuples (the positive control for the
    harness itself). `rng.mc_counts` bins the statistic of every sample,
    drawn in pieces of at most MC_PIECE rows from the one stream of
    `seed`, one `sample_chain` or `core.sample_uniform_tuples` call per
    piece, so memory does not grow with `samples`.

    `_statistic` gives each statistic's law and binning; hamming pools
    the weights <= a and >= n - a into its two end bins, which leaves
    n + 1 - 2a bins. Without `bins`, the bin counts are tried finest
    first, hamming n + 1, n - 1, ... and xor and lowbits min(64, 2^n)
    halved, never below 2 bins, and the first whose least likely bin
    expects MIN_EXPECTED_COUNT samples is taken; an explicit `bins` is
    never changed. Raises ValueError where the least likely bin still
    expects fewer, too few for the chi-square approximation.
    """
    if sampler not in SAMPLERS:
        raise ValueError(f"unknown sampler {sampler!r}")
    if gates < 0:
        raise ValueError(f"need gates >= 0, got {gates}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > 64:
        raise ValueError(f"statistics are taken on one 64-bit word, need n <= 64, got {n}")
    if bins is not None:
        choices = [bins]
    elif statistic == "hamming":
        choices = range(n + 1, 1, -2)
    else:
        choices = [min(64, 1 << n) >> i for i in range(min(n, 6))]
    # finest first, keeping the coarsest if none expects enough
    for bins in choices:
        law, bin_of = _statistic(statistic, n, k, bins)
        if samples * law[law > 0].min() >= MIN_EXPECTED_COUNT:
            break
    if sampler == "circuit":
        spec = ChainSpec(family="rev", k=k, n=n)  # refuse a bad n or k before the count check

    def values(rows: int, rng: np.random.Generator) -> np.ndarray:
        tuples = (sample_chain(spec, np.tile(np.arange(k, dtype=np.uint64), (rows, 1)), gates, rng)
                  if sampler == "circuit" else sample_uniform_tuples(n, k, rows, rng)[..., 0])
        return bin_of(tuples)

    _, chi2, dof, p_value = _chi_square(
        law * samples, samples, seed, values, "bin",
        f"{statistic} of {n}-bit strings takes one value over {bins} bins")
    return StatTestReport(
        n=n, k=k, gates=gates, samples=samples, statistic=statistic, bins=bins,
        chi2=chi2, dof=dof, p_value=p_value, seed=seed, gate_mode="parameter",
        sampler=sampler,
    )

