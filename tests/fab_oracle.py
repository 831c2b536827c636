"""Differential oracles of the fab: scalar per-object references.

* :func:`sites_within_scan` — the full-die distance scan the layout's
  grid index replaced;
* :func:`faults_for_chip_scalar` — the per-defect, per-site scalar
  defect -> fault mapping, the ground truth of the fab suites and the
  fab benchmark's serial-object baseline;
* :func:`sample_hits_words` — the per-chip Python word-stream sampler
  the fab hot path used before it became lot-wide.

The product samples every die of a lot at once
(:meth:`repro.defects.mapping.DefectToFaultMapper.draw_hits`); these
straightforward loops are what the fab suites compare it against,
alongside the product's generic per-call sampler.
"""

from __future__ import annotations

import numpy as np

from repro.faults.model import StuckAtFault
from repro.utils.rng import make_rng

__all__ = ["faults_for_chip_scalar", "sample_hits_words", "sites_within_scan"]


def sites_within_scan(layout, x: float, y: float, radius: float) -> list[int]:
    """Reference full-die distance scan (the pre-grid implementation).

    Must stay bit-identical to
    :meth:`repro.defects.layout.ChipLayout.sites_within`.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    coordinates = layout.coordinates
    d2 = (coordinates[:, 0] - x) ** 2 + (coordinates[:, 1] - y) ** 2
    return list(np.nonzero(d2 <= radius * radius)[0])


def faults_for_chip_scalar(mapper, defects, rng=None) -> list[StuckAtFault]:
    """Reference per-object implementation of
    :meth:`repro.defects.mapping.DefectToFaultMapper.faults_for_chip`.

    Walks defects one at a time, each with a full-die distance scan and
    per-site scalar draws: per defect one uniform per covered site, one
    bounded integer iff none activated, one polarity per kept site.  The
    first polarity drawn for a site wins.
    """
    rng = make_rng(rng)
    layout = mapper.layout
    chosen: dict[tuple, StuckAtFault] = {}
    for defect in defects:
        covered = sites_within_scan(layout, defect.x, defect.y, defect.radius)
        if not covered:
            continue
        keep = [i for i in covered if rng.random() < mapper.activation_probability]
        if not keep:
            keep = [covered[int(rng.integers(len(covered)))]]
        for idx in keep:
            site = layout.sites[idx]
            value = int(rng.integers(2))
            key = (site.signal, site.gate, site.pin)
            if key not in chosen:
                chosen[key] = StuckAtFault(
                    site.signal, value, gate=site.gate, pin=site.pin
                )
    return list(chosen.values())

# (word >> 11) * 2^-53 is how a 64-bit generator word becomes a uniform
# double in [0, 1) — numpy's standard transformation.
_DOUBLE_SCALE = 2.0**-53
_U32_MOD = 1 << 32


def sample_hits_words(
    site_indices: np.ndarray, bounds: list, activation: float, rng
) -> tuple[list, list]:
    """Word-stream sampler: emulate one chip's draws from raw words.

    Bulk-draws the generator's native 64-bit words once per chip and
    re-applies numpy's own transformations in plain Python — uniforms
    are ``(word >> 11) * 2^-53`` (one word each), bounded integers are
    Lemire rejection on buffered 32-bit half-words (low half first, the
    spare half carried in the generator's ``uinteger`` slot).  Consuming
    the stream this way is bit-identical to calling ``rng.random`` /
    ``rng.integers`` per defect but costs two O(words) vector ops per
    chip instead of two Generator calls per defect.  The generator is
    left in exactly the state the per-call path would leave it in
    (surplus words are returned via ``advance``; the half-word buffer is
    written back), so callers can keep drawing from it.
    """
    bit_generator = rng.bit_generator
    state = bit_generator.state
    has_half = bool(state["has_uint32"])
    half = int(state["uinteger"])
    start0 = bounds[0]
    total_covered = bounds[-1] - start0
    # Word budget: one per covered site (uniforms) plus up to one half
    # per kept site (polarities) plus slack for Lemire redraws; the
    # parse refills mid-chip if a redraw streak outruns the slack.
    drawn = total_covered + (total_covered >> 1) + 8
    words = bit_generator.random_raw(drawn)
    keep_flags = (
        ((words >> np.uint64(11)) * _DOUBLE_SCALE) < activation
    ).tolist()
    word_list = words.tolist()
    buffered = len(word_list)

    def refill(chunk):
        # Extend word_list/keep_flags/drawn/buffered together — the four
        # must stay mutually consistent for the stream emulation to hold.
        nonlocal drawn, buffered
        extra = bit_generator.random_raw(chunk)
        drawn += chunk
        word_list.extend(extra.tolist())
        keep_flags.extend(
            (((extra >> np.uint64(11)) * _DOUBLE_SCALE) < activation).tolist()
        )
        buffered = len(word_list)

    chip_sites = site_indices[start0 : bounds[-1]].tolist()
    kept: list[int] = []
    polarities: list[int] = []
    polarities_append = polarities.append
    pos = 0
    previous = start0
    for stop in bounds[1:]:
        count = stop - previous
        if count == 0:
            continue
        if pos + count + (count >> 1) + 4 > buffered:
            refill(max(pos + count + (count >> 1) + 4 - buffered, 64))
        base = previous - start0
        selected = [
            site
            for site, flag in zip(
                chip_sites[base : base + count], keep_flags[pos : pos + count]
            )
            if flag
        ]
        pos += count
        previous = stop
        if not selected:
            if count == 1:
                selected = [chip_sites[base]]
            else:
                # Lemire bounded draw on [0, count) — numpy's algorithm
                # on buffered 32-bit half-words, low half first.
                threshold = None
                while True:
                    if has_half:
                        has_half = False
                        value = half
                    else:
                        if pos >= buffered:
                            refill(64)
                        word = word_list[pos]
                        pos += 1
                        half = word >> 32
                        has_half = True
                        value = word & 0xFFFFFFFF
                    product = value * count
                    leftover = product & 0xFFFFFFFF
                    if leftover >= count:
                        break
                    if threshold is None:
                        threshold = (_U32_MOD - count) % count
                    if leftover >= threshold:
                        break
                selected = [chip_sites[base + (product >> 32)]]
        # Polarity bits: one 32-bit half per kept site, low half first —
        # i.e. bits 31 and 63 of each stream word, the spare half kept
        # in the generator's buffer slot.
        kept.extend(selected)
        remaining = len(selected)
        if has_half:
            has_half = False
            polarities_append((half >> 31) & 1)
            remaining -= 1
        if pos + (remaining >> 1) + 1 > buffered:
            # Only reachable when a Lemire redraw streak ate the
            # per-defect slack — astronomically rare, but cheap to guard.
            refill(64)
        for word in word_list[pos : pos + (remaining >> 1)]:
            polarities_append((word >> 31) & 1)
            polarities_append(word >> 63)
        pos += remaining >> 1
        if remaining & 1:
            word = word_list[pos]
            pos += 1
            polarities_append((word >> 31) & 1)
            half = word >> 32
            has_half = True

    if pos != drawn:
        bit_generator.advance(int(pos) - int(drawn))
    state = bit_generator.state
    state["has_uint32"] = int(has_half)
    state["uinteger"] = half
    bit_generator.state = state
    return kept, polarities
