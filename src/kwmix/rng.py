"""Reproducible randomness built on numpy's counter-based Philox generator.

Every experiment takes an integer seed and derives all of its randomness
from it. Work that may be split across workers uses a fixed number of
child streams spawned from the seed, so results are bit-identical no
matter how the chunks are scheduled.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

# fixed stream split for Monte Carlo work; few enough that vectorized
# chunks stay large, many enough to parcel out to workers
MC_STREAMS = 8


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


def mc_chunks(seed: int, samples: int) -> Iterator[tuple[np.random.Generator, int]]:
    """`samples` split over the MC_STREAMS streams of `seed`: (stream,
    share) pairs with nonempty shares, the first ``samples % MC_STREAMS``
    streams taking one sample more than the rest."""
    base, extra = divmod(samples, MC_STREAMS)
    for ci, rng in enumerate(split_rngs(seed, MC_STREAMS)):
        chunk = base + (1 if ci < extra else 0)
        if chunk:
            yield rng, chunk
