"""Reproducible randomness built on numpy's counter-based Philox generator.

Every experiment takes an integer seed and derives all of its randomness
from the one Philox stream of that seed (`make_rng`), the only generator
constructor of the package. A Monte Carlo statistic draws it in
consecutive pieces of at most MC_PIECE rows and sums the binned values
of each piece (`mc_counts`), for `kwise_stat_mc`, `end_state_test` and
`generic_fraction_mc` alike; `analysis.lsc_search` draws its restarts'
starts from it in restart order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import InvariantViolation

# most rows of one drawn piece, so Monte Carlo memory does not grow
# with the sample count
MC_PIECE = 1 << 16


def make_rng(seed: int) -> np.random.Generator:
    """Single Philox stream keyed by an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def mc_counts(samples: int, seed: int, bins: int,
              draw: Callable[[int, np.random.Generator], np.ndarray]) -> np.ndarray:
    """Counts over `bins` bins of `samples` values, an int64 (bins,) vector.

    `draw(rows, rng)` gives the bin of each of `rows` samples. Every piece,
    of at most MC_PIECE rows, draws in turn from the one stream of `seed`.
    A bin outside [0, bins) is an InvariantViolation.
    """
    rng = make_rng(seed)
    counts = np.zeros(bins, dtype=np.int64)
    for start in range(0, samples, MC_PIECE):
        values = draw(min(MC_PIECE, samples - start), rng).astype(np.int64, copy=False)
        if values.min() < 0 or values.max() >= bins:
            raise InvariantViolation(f"a Monte Carlo sample falls outside its {bins} bins")
        counts += np.bincount(values, minlength=bins)
    return counts
