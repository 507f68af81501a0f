"""Reproducible randomness built on numpy's counter-based Philox generator.

Every experiment takes an integer seed and derives all of its randomness
from it. A Monte Carlo statistic draws from the one stream of its seed
(`make_rng`); `kwise_stat_mc` and `generic_fraction_mc` draw it in the
consecutive pieces of `mc_pieces`, at most MC_PIECE rows each.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# most rows of one yielded piece, so Monte Carlo memory does not grow
# with the sample count
MC_PIECE = 1 << 16


def make_rng(seed: int) -> np.random.Generator:
    """Single Philox stream keyed by an integer seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def split_rngs(seed: int, count: int) -> list[np.random.Generator]:
    """`count` independent Philox streams derived from one seed.

    The split depends only on (seed, count), never on thread scheduling.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    return [np.random.Generator(np.random.Philox(ss)) for ss in children]


def mc_pieces(samples: int) -> Iterator[int]:
    """Sizes of the consecutive pieces of at most MC_PIECE rows that
    make up `samples` rows."""
    for start in range(0, samples, MC_PIECE):
        yield min(MC_PIECE, samples - start)
