"""Defect footprint -> stuck-at fault mapping.

A spot defect covers a disc of the die; every fault site inside the disc
is a candidate, and each candidate becomes an actual stuck-at fault with
an activation probability (not every short/break lands on silicon that
matters).  A defect touching zero sites is benign — it hit empty area.

This is the mechanism that realizes the paper's observation that one
physical defect yields several logical faults, and hence ``n0 > 1``: the
expected faults per killing defect grows with ``(radius / cell)^2``.

The hot path is array-native and lot-wide:
:meth:`DefectToFaultMapper.draw_hits` maps a whole lot's covered-site CSR
to per-die fault arrays in one vectorized pass, drawing each die's
random numbers from its own generator in the exact per-defect order of
the scalar reference path, so fabricated chips are bit-identical to it.
A drawn stuck level is folded into the fault's universe index where the
hit is kept (:func:`_first_hits`), so every layer below reads one
``int32`` fault index per hit.  Fault *objects* are materialized only
at the API boundary (:meth:`DefectToFaultMapper.faults_for_chip`,
:attr:`repro.manufacturing.wafer.FabricatedChip.faults`).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.defects.generation import Defect
from repro.defects.layout import ChipLayout
from repro.faults.model import StuckAtFault
from repro.utils.rng import make_rng

__all__ = ["DefectToFaultMapper"]

# (word >> 11) * 2^-53 is how a 64-bit generator word becomes a uniform
# double in [0, 1) — numpy's standard transformation.
_DOUBLE_SCALE = 2.0**-53
_U32_MOD = np.uint64(1 << 32)
_LOW32 = np.uint64(0xFFFFFFFF)

# Whether the vectorized sampler reproduces this numpy's Generator draws
# bit-for-bit (None = not yet checked).  Verified once per process
# against the generic path; a numpy release that changed the Generator
# stream internals would flip this to False and quietly fall back.
_WORD_STREAM_OK: bool | None = None


def _word_budget(covered):
    """Raw words drawn per die: one per covered site (uniforms) plus up
    to one half-word per site (Lemire fallbacks and polarities) plus
    slack.  Only a Lemire rejection can outrun it (see
    :func:`_sample_words`)."""
    return covered + covered // 2 + 8


def _sample_words(
    words: np.ndarray,
    word_starts: np.ndarray,
    has_half: np.ndarray,
    half: np.ndarray,
    cov_offsets: np.ndarray,
    cover: np.ndarray,
    cover_die: np.ndarray,
    activation: float,
):
    """Parse many dies' raw PCG64 words into their draws, all at once.

    Die ``k``'s words start at ``words[word_starts[k]]`` and its 32-bit
    half-word buffer (the generator's ``has_uint32`` / ``uinteger``
    slot) is ``has_half[k]`` / ``half[k]``.  ``cover`` lists the defects
    that cover at least one site, die-major, and ``cover_die`` their die;
    defect ``j`` covers entries ``cov_offsets[j]:cov_offsets[j + 1]``.

    numpy's transformations are re-applied to the words: a uniform is
    ``(word >> 11) * 2^-53`` (one word), a bounded integer is Lemire
    rejection on buffered half-words (low half first, the spare half
    kept in the buffer).  Within a die the draws are sequential, so the
    parse runs one round per defect rank: round ``r`` handles the
    ``r``-th covering defect of every die at once — its uniforms, the
    first Lemire attempt when nothing activated, its polarity bits
    (bit 31 of each half-word), and the cursor advance.

    Returns ``(kept, polarity, ok, used, has_half, half)``: per covered
    entry whether it became a fault and its stuck level; per die whether
    the parse is exact, the words it consumed and its final buffer.  A
    die is not ``ok`` when a Lemire draw would be rejected (probability
    ``count / 2^32``) — the caller re-draws it on the generic path.
    Without a rejection a die consumes at most ``covered`` words of
    uniforms and ``ceil(covered / 2)`` words of half-words, inside
    :func:`_word_budget`.
    """
    num_dies = word_starts.size
    kept = np.zeros(int(cov_offsets[-1]), dtype=bool)
    polarity = np.zeros(kept.size, dtype=np.uint8)
    ok = np.ones(num_dies, dtype=bool)
    pos = word_starts.astype(np.int64)
    has = has_half.astype(bool)
    half = half.astype(np.uint64)
    activated = ((words >> np.uint64(11)) * _DOUBLE_SCALE) < activation
    per_die = np.bincount(cover_die, minlength=num_dies)
    rank = np.arange(cover.size) - np.repeat(np.cumsum(per_die) - per_die, per_die)
    order = np.argsort(rank, kind="stable")
    cover, cover_die = cover[order], cover_die[order]
    start = 0
    for stop in np.cumsum(np.bincount(rank)).tolist():
        defects, dies = cover[start:stop], cover_die[start:stop]
        start = stop
        live = ok[dies]
        if not live.all():
            defects, dies = defects[live], dies[live]
            if not dies.size:
                break
        first = cov_offsets[defects]
        count = cov_offsets[defects + 1] - first
        seg_end = np.cumsum(count)
        seg = seg_end - count
        p = pos[dies]
        # Uniforms: the defect's covered entries read consecutive words.
        flat = np.arange(int(seg_end[-1]))
        entries = flat + np.repeat(first - seg, count)
        drawn = activated[flat + np.repeat(p - seg, count)]
        kept_count = np.add.reduceat(drawn, seg, dtype=np.int64)
        p += count
        none = np.flatnonzero(kept_count == 0)
        if none.size:
            # At-least-one-site fallback: a one-site defect keeps its
            # site without a draw; wider ones make one Lemire attempt.
            pick = np.zeros(none.size, dtype=np.int64)
            multi = np.flatnonzero(count[none] > 1)
            if multi.size:
                rows = none[multi]
                die = dies[rows]
                bound = count[rows].astype(np.uint64)
                buffered = has[die]
                word = words[p[rows]]
                value = np.where(buffered, half[die], word & _LOW32)
                p[rows] += ~buffered
                half[die] = np.where(buffered, half[die], word >> np.uint64(32))
                has[die] = ~buffered
                product = value * bound
                ok[die[(product & _LOW32) < (_U32_MOD - bound) % bound]] = False
                pick[multi] = product >> np.uint64(32)
            drawn[seg[none] + pick] = True
            kept_count[none] = 1
        kept[entries] = drawn
        # Polarities: one half-word per kept site, the buffered half
        # first, then both halves of each following word.
        hits = np.flatnonzero(drawn)
        row = np.repeat(np.arange(dies.size), kept_count)
        spare = has[dies].astype(np.int64)
        q = np.arange(hits.size) - np.repeat(
            np.cumsum(kept_count) - kept_count + spare, kept_count
        )
        word = words[p[row] + (q >> 1)]
        bits = (word >> (31 + 32 * (q & 1)).astype(np.uint64)) & np.uint64(1)
        from_buffer = np.flatnonzero(q < 0)
        if from_buffer.size:
            bits[from_buffer] = (half[dies[row[from_buffer]]] >> np.uint64(31)) & 1
        polarity[entries[hits]] = bits
        rest = kept_count - spare
        p += (rest + 1) >> 1
        odd = (rest & 1).astype(bool)
        half[dies[odd]] = words[p[odd] - 1] >> np.uint64(32)
        has[dies] = odd
        pos[dies] = p
    return kept, polarity, ok, pos - word_starts, has, half


def _lot_draws(
    site_indices: np.ndarray,
    cov_offsets: np.ndarray,
    die_bounds: np.ndarray,
    rngs: Sequence[np.random.Generator],
    activation: float,
    vectorize: bool,
    restore: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every die's hits before deduplication: ``(die, site, polarity)``.

    Die ``d`` owns defects ``die_bounds[d]:die_bounds[d + 1]`` of the
    covered-site CSR and draws from ``rngs[d]``.  PCG64 dies (when
    ``vectorize``) each make one ``random_raw`` call and are parsed
    together by :func:`_sample_words`; other dies, and any die the parse
    rejects (rewound with ``advance``), go through
    :func:`_sample_hits_generic`.  Hits come out die-major, in draw
    order.  The dies' generators are left past their draws unless
    ``restore``, which leaves each exactly where the per-call path
    would (surplus words returned, half-word buffer written back).
    """
    cov_bounds = cov_offsets[die_bounds]
    covered = np.diff(cov_bounds)
    num_dies = covered.size
    fast: list[int] = []
    slow: list[int] = []
    for die in np.flatnonzero(covered).tolist():
        if vectorize and type(rngs[die].bit_generator) is np.random.PCG64:
            fast.append(die)
        else:
            slow.append(die)
    kept = np.zeros(int(cov_bounds[-1] - cov_bounds[0]), dtype=bool)
    polarity = np.zeros(kept.size, dtype=np.uint8)
    if fast:
        budgets = _word_budget(covered[fast])
        buffers, has_half, half = [], [], []
        for die, budget in zip(fast, budgets.tolist()):
            bit_generator = rngs[die].bit_generator
            state = bit_generator.state
            has_half.append(state["has_uint32"])
            half.append(state["uinteger"])
            buffers.append(bit_generator.random_raw(budget))
        index_of = np.full(num_dies, -1, dtype=np.intp)
        index_of[fast] = np.arange(len(fast))
        defect_die = index_of[
            np.repeat(np.arange(num_dies), np.diff(die_bounds))
        ]
        local = cov_offsets[die_bounds[0] : die_bounds[-1] + 1] - cov_bounds[0]
        cover = np.flatnonzero((np.diff(local) > 0) & (defect_die >= 0))
        kept, polarity, ok, used, has, last = _sample_words(
            np.concatenate(buffers),
            np.cumsum(budgets) - budgets,
            np.array(has_half, dtype=bool),
            np.array(half, dtype=np.uint64),
            local,
            cover,
            defect_die[cover],
            activation,
        )
        for k in np.flatnonzero(~ok).tolist():
            # Rewind the rejected die and re-draw it exactly.
            rngs[fast[k]].bit_generator.advance(-int(budgets[k]))
            slow.append(fast[k])
        if restore:
            for k in np.flatnonzero(ok).tolist():
                bit_generator = rngs[fast[k]].bit_generator
                bit_generator.advance(int(used[k]) - int(budgets[k]))
                state = bit_generator.state
                state["has_uint32"] = int(has[k])
                state["uinteger"] = int(last[k])
                bit_generator.state = state
    entry_die = np.repeat(np.arange(num_dies), covered)
    if slow:
        kept[np.isin(entry_die, slow)] = False
    hits = np.flatnonzero(kept)
    hit_die = entry_die[hits]
    sites = site_indices[hits + cov_bounds[0]]
    polarities = polarity[hits]
    if slow:
        parts = [(hit_die, sites, polarities)]
        for die in slow:
            die_sites, die_polarities = _sample_hits_generic(
                site_indices,
                cov_offsets[die_bounds[die] : die_bounds[die + 1] + 1].tolist(),
                activation,
                rngs[die],
            )
            parts.append(
                (np.full(die_sites.size, die), die_sites, die_polarities)
            )
        hit_die, sites, polarities = (
            np.concatenate(column) for column in zip(*parts)
        )
        order = np.argsort(hit_die, kind="stable")
        hit_die, sites = hit_die[order], sites[order]
        polarities = polarities[order].astype(np.uint8)
    return hit_die, sites, polarities


def _word_stream_verified() -> bool:
    """One-time differential self-check of the vectorized sampler.

    Runs it and the generic sampler on a synthetic covered-site CSR
    (activation low enough to exercise the fallback and Lemire paths,
    with and without a buffered half-word on entry) and requires
    identical hits, polarities, and *generator continuations*.  Cheap
    insurance against a future numpy changing Generator stream
    internals out from under the emulation.
    """
    global _WORD_STREAM_OK
    if _WORD_STREAM_OK is None:
        sites = np.arange(24, dtype=np.intp)
        bounds = [0, 3, 3, 4, 9, 17, 24]
        ok = True
        for seed in range(4):
            for activation in (0.05, 0.7):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(seed)
                if seed % 2:
                    a.integers(7)
                    b.integers(7)
                ga, pa = _sample_hits_generic(sites, bounds, activation, a)
                _, gb, pb = _lot_draws(
                    sites, np.array(bounds), np.array([0, 6]), [b],
                    activation, vectorize=True, restore=True,
                )
                ok &= ga.tolist() == gb.tolist() and pa.tolist() == pb.tolist()
                ok &= a.random(3).tolist() == b.random(3).tolist()
                ok &= a.integers(97, size=5).tolist() == b.integers(
                    97, size=5
                ).tolist()
        _WORD_STREAM_OK = ok
    return _WORD_STREAM_OK


def _sample_hits_generic(
    site_indices: np.ndarray, bounds: list, activation: float, rng
) -> tuple[np.ndarray, np.ndarray]:
    """Per-defect Generator-call sampler (any bit generator).

    The portable implementation of the sampling contract: one
    ``rng.random(covered)`` per defect, a bounded ``rng.integers`` iff
    nothing activated, one ``rng.integers(2, size=kept)`` for the
    polarities.  The vectorized path must match this bit for bit.
    """
    random = rng.random
    integers = rng.integers
    kept_chunks: list[np.ndarray] = []
    polarity_chunks: list[np.ndarray] = []
    start = bounds[0]
    for stop in bounds[1:]:
        if stop > start:
            covered = site_indices[start:stop]
            keep = covered[random(stop - start) < activation]
            if not keep.size:
                fallback = integers(stop - start)
                keep = covered[fallback : fallback + 1]
            kept_chunks.append(keep)
            polarity_chunks.append(integers(2, size=keep.size))
        start = stop
    if not kept_chunks:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    return np.concatenate(kept_chunks), np.concatenate(polarity_chunks)


def _first_hits(
    num_dies: int, hit_die, sites, polarities
) -> tuple[np.ndarray, np.ndarray]:
    """Fold the drawn polarities into fault indices and keep each die's
    first hit per site, in hit order — as a per-die CSR.

    The universe lists both stuck levels of a site next to each other,
    stuck-at-0 first (see :func:`~repro.faults.model.full_fault_universe`),
    so the drawn polarity picks the fault ``(site & ~1) | polarity`` and
    ``fault >> 1`` names the electrical site: first polarity wins, as
    one net carries one DC state.
    """
    faults = (sites.astype(np.int32) & ~np.int32(1)) | polarities
    keys = (hit_die.astype(np.int64) << 31) | (faults >> 1)
    _, first = np.unique(keys, return_index=True)
    first.sort()
    hit_offsets = np.zeros(num_dies + 1, dtype=np.int64)
    np.cumsum(np.bincount(hit_die[first], minlength=num_dies), out=hit_offsets[1:])
    return hit_offsets, faults[first]


class DefectToFaultMapper:
    """Maps defect sets to stuck-at fault sets on a fixed layout.

    Parameters
    ----------
    layout:
        The chip floorplan (fault-site coordinates).
    activation_probability:
        Probability that a covered site actually becomes faulty; at least
        one site is always activated for a defect that covers any sites,
        so a killing defect produces at least one fault (matching the
        paper's shifted distribution, where a defective chip has n >= 1).
    """

    def __init__(self, layout: ChipLayout, activation_probability: float = 0.7):
        if not 0.0 < activation_probability <= 1.0:
            raise ValueError(
                f"activation probability must be in (0, 1], got "
                f"{activation_probability}"
            )
        self.layout = layout
        self.activation_probability = activation_probability

    def site_hits_for_chip(self, xs, ys, radii, rng=None) -> np.ndarray:
        """All of one chip's defects -> its deduplicated fault indices.

        The single-chip form of :meth:`draw_hits`: one batched grid
        query covers every defect, then the lot sampler runs on this
        one die.  Random draws are consumed in the exact per-defect
        order of the scalar reference path: one uniform per covered site
        in ascending site order, one bounded integer iff no site
        activated, then one polarity bit per kept site — so results are
        bit-identical to it for the same generator state, and ``rng`` is
        left exactly where that path leaves it.

        Returns one :func:`~repro.faults.model.full_fault_universe`
        index per distinct faulted site, in first-hit order.
        """
        site_idx, offsets = self.layout.sites_within_many(xs, ys, radii)
        hits = _lot_draws(
            site_idx,
            offsets,
            np.array([0, offsets.size - 1]),
            [make_rng(rng)],
            self.activation_probability,
            vectorize=_word_stream_verified(),
            restore=True,
        )
        return _first_hits(1, *hits)[1]

    def draw_hits(
        self,
        site_indices: np.ndarray,
        offsets: np.ndarray,
        rngs: Sequence[np.random.Generator],
        die_bounds: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """A whole lot's covered-site CSR -> per-die faults.

        ``site_indices[offsets[j]:offsets[j + 1]]`` are the sites defect
        ``j`` covers (as :meth:`~repro.defects.layout.ChipLayout.
        sites_within_many` returns them); die ``d`` owns defects
        ``die_bounds[d]:die_bounds[d + 1]`` and draws from ``rngs[d]``,
        in the per-defect order of :meth:`site_hits_for_chip`.  The
        geometry and the sampling run once for the lot, not per die, and
        each die's generator is consumed (its position afterwards is
        unspecified).

        Returns the CSR ``(hit_offsets, faults)``: die ``d``'s faults
        are ``faults[hit_offsets[d]:hit_offsets[d + 1]]``, one universe
        index per distinct faulted site, in first-hit order.
        """
        die_bounds = np.asarray(die_bounds)
        hits = _lot_draws(
            site_indices,
            offsets,
            die_bounds,
            rngs,
            self.activation_probability,
            vectorize=_word_stream_verified(),
        )
        return _first_hits(die_bounds.size - 1, *hits)

    def faults_for_defect(self, defect: Defect, rng=None) -> list[StuckAtFault]:
        """Stuck-at faults induced by one defect (possibly empty)."""
        rng = make_rng(rng)
        covered = self.layout.sites_within(defect.x, defect.y, defect.radius)
        if not covered:
            return []
        keep = [i for i in covered if rng.random() < self.activation_probability]
        if not keep:
            keep = [covered[int(rng.integers(len(covered)))]]
        faults = []
        for idx in keep:
            site = self.layout.sites[idx]
            # The stuck polarity is the defect's electrical effect; model it
            # as a fair coin (shorts to VDD and GND are about equally likely).
            value = int(rng.integers(2))
            faults.append(
                StuckAtFault(site.signal, value, gate=site.gate, pin=site.pin)
            )
        return faults

    def faults_for_chip(
        self, defects: Sequence[Defect], rng=None
    ) -> list[StuckAtFault]:
        """Union of faults over a chip's defects (deduplicated, ordered).

        Two defects can hit the same site; a site cannot be stuck at both
        values, so the first polarity drawn wins — mirroring the physical
        reality that one net carries one DC state.  Runs on the array
        path (:meth:`site_hits_for_chip`).
        """
        xs = np.array([defect.x for defect in defects], dtype=float)
        ys = np.array([defect.y for defect in defects], dtype=float)
        radii = np.array([defect.radius for defect in defects], dtype=float)
        return self.layout.site_faults(self.site_hits_for_chip(xs, ys, radii, rng=rng))

    def expected_sites_per_defect(self, radius: float) -> float:
        """Mean fault sites covered by a defect of the given radius.

        Analytic density x footprint approximation, used to pick
        ``mean_radius`` for a target fault multiplicity.  See
        :meth:`counted_sites_per_defect` for the exact counted variant.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        site_density = self.layout.num_sites / self.layout.area
        return site_density * math.pi * radius * radius

    def counted_sites_per_defect(self, radius: float, resolution: int = 64) -> float:
        """Exact (counted) mean sites covered by a defect of the given radius.

        Averages the true covered-site count over a ``resolution x
        resolution`` lattice of defect centers via one batched grid
        query — no density approximation, no edge-effect blindness.  The
        analytic :meth:`expected_sites_per_defect` overshoots near the
        die edge (footprints hang off active area); this is the ground
        truth the tests compare it against.
        """
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        if resolution < 1:
            raise ValueError(f"resolution must be >= 1, got {resolution}")
        step = self.layout.side / resolution
        centers = (np.arange(resolution) + 0.5) * step
        grid_x, grid_y = np.meshgrid(centers, centers)
        xs = grid_x.ravel()
        _, offsets = self.layout.sites_within_many(
            xs, grid_y.ravel(), np.full(xs.size, float(radius))
        )
        return float(np.diff(offsets).mean())
