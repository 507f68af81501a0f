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


def mc_chunks(seed: int, samples: int) -> Iterator[tuple[np.random.Generator, int]]:
    """`samples` split over the MC_STREAMS streams of `seed`, the first
    ``samples % MC_STREAMS`` streams taking one sample more than the rest.
    Each stream's share is yielded as (stream, size) pieces of at most
    MC_PIECE rows, in order and all drawn from that stream; a share of at
    most MC_PIECE is one piece."""
    base, extra = divmod(samples, MC_STREAMS)
    for ci, rng in enumerate(split_rngs(seed, MC_STREAMS)):
        share = base + (1 if ci < extra else 0)
        for start in range(0, share, MC_PIECE):
            yield rng, min(MC_PIECE, share - start)


def mc_groups(seed: int, samples: int) -> Iterator[list[tuple[np.random.Generator, int]]]:
    """The pieces of `mc_chunks`, consecutive ones grouped while their
    rows sum to at most MC_PIECE, for a sampler that steps a group as one
    batch (each piece drawing from its own stream) in memory still bounded
    by MC_PIECE rows. Shares differ by at most one row, so a share of more
    than MC_PIECE rows has each of its pieces in a group alone, and no
    group holds two pieces of one stream: every stream draws in the order
    of one call per piece."""
    group: list[tuple[np.random.Generator, int]] = []
    for rng, size in mc_chunks(seed, samples):
        if group and sum(rows for _, rows in group) + size > MC_PIECE:
            yield group
            group = []
        group.append((rng, size))
    if group:
        yield group
