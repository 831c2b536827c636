"""Pattern packing for 64-way bit-parallel simulation.

A *pattern* is a mapping (or sequence) of 0/1 values for the primary
inputs.  The parallel simulator processes patterns in words of 64: bit
``k`` of every signal word belongs to pattern ``k`` of the block.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import Mapping, Sequence

import numpy as np

__all__ = ["WORD_BITS", "pack_patterns", "unpack_outputs", "first_detecting_bits"]

WORD_BITS = 64


def first_detecting_bits(
    detect_words: Sequence[int] | np.ndarray, num_patterns: int
) -> np.ndarray:
    """Lowest set bit of each detect word within the block, or ``-1``.

    The one place the first-detect idiom lives: bits at or above
    ``num_patterns`` are masked off (they belong to zero-filled pad
    patterns), and the surviving word's lowest set bit is the block-local
    index of the first detecting pattern.  Returns an ``int64`` array,
    ``-1`` for a word with no such bit.  Used by the fault simulator's
    drop loop and the wafer tester's first-fail scan alike.
    """
    if not 1 <= num_patterns <= WORD_BITS:
        raise ValueError(f"num_patterns must be in [1, {WORD_BITS}]")
    words = np.asarray(detect_words, dtype=np.uint64)
    words = words & np.uint64((1 << num_patterns) - 1)
    lowest = words & (~words + np.uint64(1))
    # frexp(2**k) is exactly (0.5, k + 1), and frexp(0) is (0, 0).
    _, exponent = np.frexp(lowest.astype(np.float64))
    return exponent.astype(np.int64) - 1


def pack_patterns(
    input_names: Sequence[str],
    patterns: Sequence[Mapping[str, int] | Sequence[int]],
) -> dict[str, int]:
    """Pack up to 64 patterns into one word per input signal.

    Each pattern is either a dict keyed by input name or a positional
    sequence aligned with ``input_names`` (lists, tuples, and NumPy rows
    all work).  Returns ``{input_name: word}`` where bit ``k`` of the word
    is that input's value in pattern ``k``.

    Dict patterns must carry *exactly* the declared inputs: a missing key
    raises, and so does an unknown one — a typo'd input name would
    otherwise silently degrade to a stale 0 bit and corrupt every coverage
    number downstream.
    """
    if len(patterns) == 0:
        raise ValueError("need at least one pattern")
    if len(patterns) > WORD_BITS:
        raise ValueError(f"at most {WORD_BITS} patterns per word, got {len(patterns)}")
    bits = _pattern_bits(input_names, patterns)
    if bits is None:
        return _pack_checked(input_names, patterns)
    padded = np.zeros((WORD_BITS, len(input_names)), dtype=np.uint8)
    padded[: len(patterns)] = bits
    packed = np.packbits(padded, axis=0, bitorder="little")  # (8, inputs)
    words = np.ascontiguousarray(packed.T).view("<u8").reshape(-1)
    return dict(zip(input_names, words.tolist()))


def _pattern_bits(
    input_names: Sequence[str],
    patterns: Sequence[Mapping[str, int] | Sequence[int]],
) -> np.ndarray | None:
    """The patterns as a ``(patterns, inputs)`` 0/1 ``uint8`` matrix, one
    gather per block, or ``None`` when they are not all well-formed (the
    checked loop then names the first fault)."""
    num_inputs = len(input_names)
    if not num_inputs:
        return None
    if all(isinstance(pattern, Mapping) for pattern in patterns):
        num_keys = len(set(input_names))
        if any(len(pattern) != num_keys for pattern in patterns):
            return None
        gather = itemgetter(*input_names)
        try:
            rows = [gather(pattern) for pattern in patterns]
        except KeyError:
            return None
        if num_inputs == 1:
            rows = [(value,) for value in rows]
    elif any(isinstance(pattern, Mapping) for pattern in patterns):
        return None
    elif any(len(pattern) != num_inputs for pattern in patterns):
        return None
    else:
        rows = patterns
    try:  # integers in range(256) only
        flat = bytes(chain.from_iterable(rows))
    except (TypeError, ValueError):
        return None
    if len(flat) != len(patterns) * num_inputs or flat.translate(None, b"\x00\x01"):
        return None
    return np.frombuffer(flat, dtype=np.uint8).reshape(len(patterns), num_inputs)


def _pack_checked(
    input_names: Sequence[str],
    patterns: Sequence[Mapping[str, int] | Sequence[int]],
) -> dict[str, int]:
    """:func:`pack_patterns` one value at a time, raising on the first
    malformed pattern."""
    words = {name: 0 for name in input_names}
    for k, pattern in enumerate(patterns):
        if isinstance(pattern, Mapping):
            if len(pattern) != len(words):
                unknown = sorted(set(pattern) - set(words))
                if unknown:
                    raise ValueError(
                        f"pattern {k} has unknown inputs {unknown}"
                    )
            for name in input_names:
                try:
                    value = pattern[name]
                except KeyError:
                    raise ValueError(f"pattern {k} missing input {name!r}") from None
                if value not in (0, 1):
                    raise ValueError(f"pattern {k} input {name!r}: value must be 0/1")
                if value:
                    words[name] |= 1 << k
        else:
            if len(pattern) != len(input_names):
                raise ValueError(
                    f"pattern {k} has {len(pattern)} values for "
                    f"{len(input_names)} inputs"
                )
            for i, name in enumerate(input_names):
                value = pattern[i]
                if value not in (0, 1):
                    raise ValueError(f"pattern {k} input {name!r}: value must be 0/1")
                if value:
                    words[name] |= 1 << k
    return words


def unpack_outputs(
    output_words: Mapping[str, int], num_patterns: int
) -> list[dict[str, int]]:
    """Unpack output words back into one dict per pattern."""
    if not 1 <= num_patterns <= WORD_BITS:
        raise ValueError(f"num_patterns must be in [1, {WORD_BITS}]")
    return [
        {name: (word >> k) & 1 for name, word in output_words.items()}
        for k in range(num_patterns)
    ]
