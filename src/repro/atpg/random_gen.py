"""Random test-pattern generation.

Uniform random patterns detect the easy bulk of the stuck-at universe
quickly — the steep initial rise of the paper's Table 1 / Fig. 5 coverage
curve.  Weighted random patterns bias each input's 1-probability, which
helps circuits with deep AND/OR cones (a classical remedy predating
deterministic ATPG for the resistant tail).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.circuit.netlist import Netlist
from repro.utils.rng import make_rng

__all__ = ["random_patterns", "weighted_random_patterns"]


def random_patterns(
    netlist: Netlist, count: int, seed=None
) -> list[dict[str, int]]:
    """Generate ``count`` uniform random patterns for the netlist's inputs."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    inputs = netlist.inputs
    bits = rng.integers(0, 2, size=(count, len(inputs)))
    # ``tolist`` yields Python ints in one pass (no per-element ``int()``).
    return [dict(zip(inputs, row)) for row in bits.tolist()]


def weighted_random_patterns(
    netlist: Netlist,
    count: int,
    weights: Mapping[str, float] | Sequence[float] | float,
    seed=None,
) -> list[dict[str, int]]:
    """Random patterns with per-input probability of a logic 1.

    ``weights`` may be a single probability for all inputs, a positional
    sequence, or a mapping by input name.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    inputs = netlist.inputs
    if isinstance(weights, Mapping):
        probs = [weights[name] for name in inputs]
    elif isinstance(weights, (int, float)):
        probs = [float(weights)] * len(inputs)
    else:
        probs = [float(w) for w in weights]
        if len(probs) != len(inputs):
            raise ValueError(
                f"{len(probs)} weights for {len(inputs)} inputs"
            )
    for p in probs:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"weight {p} outside [0, 1]")
    rng = make_rng(seed)
    draws = rng.random(size=(count, len(inputs)))
    # ``int`` values, not ``bool``: a pattern serialises as 0/1 on the wire.
    bits = (draws < np.asarray(probs)).astype(np.int64)
    return [dict(zip(inputs, row)) for row in bits.tolist()]
