"""Seeded random-number-generator plumbing.

Every stochastic component in ``repro`` (defect placement, lot fabrication,
random pattern generation) takes an explicit ``numpy.random.Generator`` so
experiments are reproducible end to end.  These helpers centralize creation
and hierarchical splitting of generators.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["make_rng", "spawn_rngs", "spawn_seeds"]


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator``.

    Accepts an integer seed, ``None`` (OS entropy), or an existing generator
    (returned unchanged) so that APIs can take a single ``seed`` argument of
    any of the three kinds.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_seeds(
    rng: np.random.Generator, count: int
) -> Sequence[np.random.SeedSequence]:
    """The ``count`` child seeds :func:`spawn_rngs` builds its generators from.

    ``make_rng(seed)`` on a child gives the same stream as the matching
    :func:`spawn_rngs` generator; a seed is cheaper to build and to send
    to another process than a generator.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return rng.bit_generator.seed_seq.spawn(count)  # type: ignore[union-attr]


def spawn_rngs(rng: np.random.Generator, count: int) -> Sequence[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent child generators.

    Child streams are derived through ``SeedSequence.spawn`` so parallel
    consumers (e.g. per-wafer fabrication) never share a stream.
    """
    return [np.random.default_rng(s) for s in spawn_seeds(rng, count)]
