"""Differential suite for the lot-wide defect -> fault sampler.

:meth:`DefectToFaultMapper.draw_hits` samples every die of a lot in one
vectorized pass over the dies' raw PCG64 words.  Its contract is
bit-identity with sampling each die alone: the per-call generic sampler
(``_sample_hits_generic``) and the per-chip Python word parse kept as
``fab_oracle.sample_hits_words`` must give the same faults (each hit
site with its drawn polarity folded in) and — where the caller keeps
drawing — the same generator continuation, over random covered-site
CSRs, zero-defect dies, dies that
start with a buffered half-word, truncated wafers, worker counts, and
the Lemire-rejection dies that are rewound and re-drawn exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fab_oracle import sample_hits_words, sites_within_scan
from test_fab_array import fabricate_wafer_scalar

from repro.circuit.generators import c17, synthetic_chip
from repro.defects import mapping
from repro.defects.generation import DefectGenerator
from repro.defects.layout import _QUERY_CHUNK, ChipLayout
from repro.defects.mapping import DefectToFaultMapper
from repro.defects.sizes import DefectSizeDistribution
from repro.manufacturing.lot import fabricate_lot
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import Wafer
from repro.runtime import ParallelExecutor
from repro.utils.rng import make_rng, spawn_rngs
from repro.yieldmodels.density import DeltaDensity

LAYOUT = ChipLayout(synthetic_chip(1, seed=2), area=1.0)

# PCG64's 128-bit LCG multiplier (numpy's PCG_DEFAULT_MULTIPLIER_128).
_PCG_MULT = (2549297995355413924 << 64) | 4865540595714422341
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


def first_hits(sites, polarities):
    """Folded fault indices, first polarity winning per site, in hit order.

    Both levels of a site are universe entries ``2k`` (s-a-0) and
    ``2k + 1`` (s-a-1), so a hit on entry ``site`` drawn at ``polarity``
    is the fault ``(site & ~1) | polarity``.
    """
    seen, kept = set(), []
    for site, polarity in zip(np.asarray(sites).tolist(), np.asarray(polarities).tolist()):
        if site >> 1 not in seen:
            seen.add(site >> 1)
            kept.append((site & ~1) | polarity)
    return kept


def per_die(hit_offsets, faults):
    """A hit CSR as one list of fault indices per die."""
    bounds = hit_offsets.tolist()
    return [faults[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


@st.composite
def lots(draw):
    """A random lot CSR: per die a few defects covering 0-80 sites each."""
    num_dies = draw(st.integers(1, 10))
    counts = draw(
        st.lists(
            st.lists(st.integers(0, 80), max_size=6), min_size=num_dies, max_size=num_dies
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chunks = [
        np.sort(rng.choice(LAYOUT.num_sites, size=c, replace=False))
        for die in counts
        for c in die
    ]
    defects = [c for die in counts for c in die]
    offsets = np.zeros(len(defects) + 1, dtype=np.intp)
    np.cumsum(defects, out=offsets[1:])
    sites = np.concatenate(chunks).astype(np.intp) if chunks else np.empty(0, np.intp)
    die_bounds = np.zeros(num_dies + 1, dtype=np.intp)
    np.cumsum([len(die) for die in counts], out=die_bounds[1:])
    return sites, offsets, die_bounds


def die_generators(seed, num_dies, buffered):
    """Spawned die generators; ``buffered`` dies first draw one bounded
    integer, leaving a half-word in the generator's buffer."""
    rngs = spawn_rngs(make_rng(seed), num_dies)
    for rng, pre in zip(rngs, buffered):
        if pre:
            rng.integers(1000)
    return rngs


@settings(max_examples=80, deadline=None)
@given(
    lot=lots(),
    activation=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    buffered=st.lists(st.booleans(), min_size=10, max_size=10),
)
def test_lot_sampler_matches_generic_and_word_oracle(lot, activation, seed, buffered):
    sites, offsets, die_bounds = lot
    num_dies = die_bounds.size - 1
    mapper = DefectToFaultMapper(LAYOUT, activation_probability=activation)
    got = per_die(*mapper.draw_hits(sites, offsets, die_generators(seed, num_dies, buffered), die_bounds))
    generic_rngs = die_generators(seed, num_dies, buffered)
    oracle_rngs = die_generators(seed, num_dies, buffered)
    for die in range(num_dies):
        bounds = offsets[die_bounds[die] : die_bounds[die + 1] + 1].tolist()
        expected = first_hits(
            *mapping._sample_hits_generic(sites, bounds, activation, generic_rngs[die])
        )
        assert got[die] == expected, die
        if bounds[-1] > bounds[0]:
            assert first_hits(*sample_hits_words(sites, bounds, activation, oracle_rngs[die])) == expected
        # The oracle and the generic path leave the die's generator alike.
        assert oracle_rngs[die].random(2).tolist() == generic_rngs[die].random(2).tolist()


@settings(max_examples=40, deadline=None)
@given(lot=lots(), activation=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1), pre=st.booleans())
def test_single_chip_call_continues_the_stream(lot, activation, seed, pre):
    # One die through the lot sampler with ``restore``: same hits and
    # the same generator continuation as the generic per-call path.
    sites, offsets, die_bounds = lot
    window = offsets[: die_bounds[1] + 1]
    a, b = make_rng(seed), make_rng(seed)
    if pre:
        a.integers(9)
        b.integers(9)
    expected = mapping._sample_hits_generic(sites, window.tolist(), activation, a)
    _, got_sites, got_pols = mapping._lot_draws(
        sites, window, np.array([0, window.size - 1]), [b], activation,
        vectorize=True, restore=True,
    )
    assert got_sites.tolist() == expected[0].tolist()
    assert got_pols.tolist() == expected[1].tolist()
    assert a.random(3).tolist() == b.random(3).tolist()
    assert a.integers(97, size=5).tolist() == b.integers(97, size=5).tolist()


def test_self_check_passes():
    assert mapping._word_stream_verified() is True


def test_non_pcg64_dies_take_the_generic_path():
    rng = np.random.default_rng(4)
    sites = np.sort(rng.choice(LAYOUT.num_sites, 40, replace=False)).astype(np.intp)
    offsets = np.array([0, 5, 5, 17, 30, 40])
    die_bounds = np.array([0, 2, 2, 4, 5])
    mapper = DefectToFaultMapper(LAYOUT, activation_probability=0.3)

    def generators():
        return [
            np.random.Generator(np.random.MT19937(1)),
            make_rng(2),
            np.random.Generator(np.random.Philox(3)),
            make_rng(4),
        ]

    got = per_die(*mapper.draw_hits(sites, offsets, generators(), die_bounds))
    for die, rng in enumerate(generators()):
        bounds = offsets[die_bounds[die] : die_bounds[die + 1] + 1].tolist()
        assert got[die] == first_hits(
            *mapping._sample_hits_generic(sites, bounds, 0.3, rng)
        )


# ------------------------------------------------------- rejection / rewind


def pcg64_state_emitting(word: int, after: int, seed: int) -> dict:
    """A PCG64 state whose ``after``-th next output (0-based) is ``word``.

    Inverts one PCG64 step: choose the post-step state's high half,
    solve the XSL-RR output for its low half, undo the LCG step, then
    rewind ``after`` more steps with ``advance``.
    """
    rng = make_rng(seed)
    inc = make_rng(seed).bit_generator.state["state"]["inc"]
    high = int(rng.integers(0, 2**63)) << 1 | 1
    rot = high >> 58
    rotl = ((word << rot) | (word >> (64 - rot))) & _MASK64 if rot else word
    post = (high << 64) | (high ^ rotl)
    pre = ((post - inc) * pow(_PCG_MULT, -1, 1 << 128)) & _MASK128
    bit_generator = np.random.PCG64()
    bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": pre, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }
    bit_generator.advance(-after)
    return bit_generator.state


def test_crafted_state_emits_the_word():
    state = pcg64_state_emitting(0xDEADBEEF00000000, after=3, seed=1)
    bit_generator = np.random.PCG64()
    bit_generator.state = state
    assert int(bit_generator.random_raw(4)[3]) == 0xDEADBEEF00000000


def _rejecting_die(seed):
    """A die whose one defect covers 3 sites, activates none, and whose
    first Lemire draw on [0, 3) is rejected (half-word 0 < threshold 1)."""
    for attempt in range(50):
        state = pcg64_state_emitting(0x12345678_00000000, after=3, seed=seed + attempt)
        probe = np.random.PCG64()
        probe.state = state
        words = probe.random_raw(3)
        if (((words >> np.uint64(11)) * 2.0**-53) >= 0.01).all():
            return state
    raise AssertionError("no crafted state left all three sites inactive")


def test_rejected_lemire_draw_rewinds_and_redraws(monkeypatch):
    sites = np.array([3, 40, 41, 100, 101, 102, 103], dtype=np.intp)
    offsets = np.array([0, 3, 7])
    die_bounds = np.array([0, 1, 2])
    state = _rejecting_die(seed=11)

    def generators():
        crafted = np.random.Generator(np.random.PCG64())
        crafted.bit_generator.state = state
        return [crafted, make_rng(5)]

    calls = []
    generic = mapping._sample_hits_generic

    def spy(*args):
        calls.append(args[1])
        return generic(*args)

    mapper = DefectToFaultMapper(LAYOUT, activation_probability=0.01)
    monkeypatch.setattr(mapping, "_sample_hits_generic", spy)
    got = per_die(*mapper.draw_hits(sites, offsets, generators(), die_bounds))
    assert calls == [[0, 3]]  # only the rejected die was re-drawn
    monkeypatch.setattr(mapping, "_sample_hits_generic", generic)
    for die, rng in enumerate(generators()):
        bounds = offsets[die_bounds[die] : die_bounds[die + 1] + 1].tolist()
        expected = first_hits(*generic(sites, bounds, 0.01, rng))
        assert got[die] == expected
    oracle = generators()[0]
    assert first_hits(*sample_hits_words(sites, [0, 3], 0.01, oracle)) == got[0]


def test_injected_words_flag_only_the_rejecting_die():
    # Two dies, one 3-site defect each, no site activated (every word's
    # uniform is ~1).  Die 0's Lemire half-word is 0: rejected.  Die 1's
    # is 2^31: accepted, pick (2^31 * 3) >> 32 = 1.
    ones = np.uint64(0xFFFFFFFFFFFFF800)
    words = np.full(24, ones, dtype=np.uint64)
    words[3] = np.uint64(0xFFFFFFFF_00000000)
    words[12 + 3] = np.uint64(0xFFFFFFFF_80000000)
    kept, polarity, ok, used, has, half = mapping._sample_words(
        words,
        np.array([0, 12]),
        np.zeros(2, dtype=bool),
        np.zeros(2, dtype=np.uint64),
        np.array([0, 3, 6]),
        np.array([0, 1]),
        np.array([0, 1]),
        0.5,
    )
    assert ok.tolist() == [False, True]
    assert kept[3:].tolist() == [False, True, False]
    # Die 1: uniforms 3 words, Lemire took the low half of word 3, the
    # polarity the buffered high half (bit 31 of 0xFFFFFFFF = 1).
    assert used[1] == 4 and not has[1]
    assert polarity[4] == 1


# ------------------------------------------------------------ wafers / lots


def test_lot_sized_geometry_query_matches_scan():
    # More defects than one query pass takes: the chunked query must
    # still match the full-die scan defect by defect.
    rng = np.random.default_rng(8)
    count = 2 * _QUERY_CHUNK + 17
    xs = rng.uniform(-0.1, LAYOUT.side + 0.1, count)
    ys = rng.uniform(-0.1, LAYOUT.side + 0.1, count)
    radii = rng.lognormal(-3.0, 0.8, count)
    sites, offsets = LAYOUT.sites_within_many(xs, ys, radii)
    assert offsets.size == count + 1 and offsets[-1] == sites.size
    for d in range(count):
        assert sites[offsets[d] : offsets[d + 1]].tolist() == [
            int(i) for i in sites_within_scan(LAYOUT, xs[d], ys[d], radii[d])
        ], d


class _BufferedSizes(DefectSizeDistribution):
    """Radii from a bounded-integer draw, so an odd defect count leaves a
    half-word in the die generator's buffer before its sampling starts."""

    def mean(self) -> float:
        return 0.08

    def sample(self, rng, size: int) -> np.ndarray:
        return 0.04 * (1 + rng.integers(3, size=size))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_custom_sizes_law_with_buffered_half_word(seed):
    recipe = ProcessRecipe(defect_density=4.0, activation_probability=0.4)
    wafer = Wafer(recipe, LAYOUT, dies_per_wafer=12)
    wafer._generator = DefectGenerator(DeltaDensity(4.0), mean_radius=0.08, sizes=_BufferedSizes())
    assert wafer.fabricate(seed=seed) == fabricate_wafer_scalar(wafer, seed)


@pytest.fixture(scope="module")
def pool():
    with ParallelExecutor(2) as executor:
        yield executor


@settings(max_examples=12, deadline=None)
@given(
    num_chips=st.integers(1, 60),
    dies_per_wafer=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    activation=st.floats(0.05, 1.0),
)
def test_lot_matches_per_wafer_scalar_serial_and_pooled(
    pool, num_chips, dies_per_wafer, seed, activation
):
    net = c17()
    recipe = ProcessRecipe(
        defect_density=3.0, clustering=0.5, mean_defect_radius=0.2,
        activation_probability=activation,
    )
    serial = fabricate_lot(net, recipe, num_chips, dies_per_wafer=dies_per_wafer, seed=seed)
    pooled = fabricate_lot(
        net, recipe, num_chips, dies_per_wafer=dies_per_wafer, seed=seed, executor=pool
    )
    wafer = Wafer(recipe, serial.layout, dies_per_wafer=dies_per_wafer)
    reference = [
        chip
        for index, wafer_rng in enumerate(spawn_rngs(make_rng(seed), -(-num_chips // dies_per_wafer)))
        for chip in fabricate_wafer_scalar(wafer, wafer_rng, first_chip_id=index * dies_per_wafer)
    ][:num_chips]
    assert serial.chips == tuple(reference)
    assert pooled.chips == serial.chips
    np.testing.assert_array_equal(pooled.fault_counts(), serial.fault_counts())
