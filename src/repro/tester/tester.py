"""The wafer tester: apply a program, record the first failing pattern.

Each chip's *actual* multi-fault machine is simulated (all of its stuck-at
faults injected simultaneously), so fault masking between coexisting
faults is physical, not assumed away — the tester sees exactly what a
Sentry saw: output disagreement at some pattern, or a clean pass.

Lot testing is chip-parallel by default (``engine="batch"``): every
still-passing defective chip is one row of a
:class:`~repro.simulator.batch_sim.BatchCompiledCircuit` batch, so one
vectorized pass per 64-pattern block tests the whole lot at once, and
chips drop out of the batch as soon as they fail.  The lot enters as a
``(site index, polarity)`` CSR — a column-backed lot's hit arrays as
they are, eager chips mapped through the fault-universe lookup once per
lot — and each block's injection tables are gathered from it, so no
fault object (and, for a column-backed lot, no chip object) is built on
the test path.  ``engine="compiled"`` keeps the serial
chip-at-a-time loop as the word-level reference.

Above the engine sits the process axis: ``workers > 1`` cuts the chip
list into contiguous shards and tests each shard in a worker process
(carrying the pre-compiled circuit, so workers never re-levelize).
Chips are independent machines, so the merged records are bit-identical
to the serial run at every worker count (see :mod:`repro.runtime`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.faults.model import (
    StuckAtFault,
    fault_site_lookup,
    full_fault_universe,
    materialize_site_faults,
)
from repro.manufacturing.lot import FabricatedLot
from repro.manufacturing.wafer import FabricatedChip, _concat
from repro.runtime import (
    ParallelExecutor,
    ShardPlan,
    new_context_token,
    resolve_workers,
)
from repro.simulator import ENGINES, make_engine
from repro.simulator.batch_sim import BatchCompiledCircuit
from repro.simulator.kernels.ir import InjectionTables, SiteTable
from repro.simulator.parallel_sim import CompiledCircuit
from repro.simulator.values import WORD_BITS, first_detecting_bits, pack_patterns
from repro.tester.program import TestProgram

__all__ = ["ChipTestRecord", "WaferTester"]


@dataclass(frozen=True)
class ChipTestRecord:
    """Outcome of testing one chip.

    ``first_fail`` is the 0-based index of the first failing pattern, or
    ``None`` when the chip passed the whole program.
    """

    chip_id: int
    is_good: bool
    first_fail: int | None

    @property
    def passed(self) -> bool:
        return self.first_fail is None

    @property
    def is_test_escape(self) -> bool:
        """A defective chip that passed — the paper's ``Ybg`` event."""
        return self.passed and not self.is_good


def _chip_sites(
    netlist, lot: FabricatedLot, sites_of
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(offsets, site indices, polarities)`` CSR of a lot.

    A column-backed lot laid out against ``netlist`` hands over its hit
    arrays as they are; otherwise array-backed chips contribute their
    arrays and the faults of eager (or unpickled) chips are mapped by
    one ``sites_of(faults)`` call per lot.
    """
    columns = lot.columns_for(netlist)
    if columns is not None:
        return columns.hit_offsets, columns.site_indices, columns.polarities
    chips = lot.chips
    site_chunks: list = []
    pol_chunks: list = []
    eager: list[tuple[int, tuple[StuckAtFault, ...]]] = []
    for k, chip in enumerate(chips):
        arrays = chip.fault_site_arrays(netlist)
        if arrays is None:
            eager.append((k, chip.faults))
            arrays = (None, None)  # filled in below
        site_chunks.append(arrays[0])
        pol_chunks.append(arrays[1])
    if eager:
        faults = [fault for _, chip_faults in eager for fault in chip_faults]
        sites = sites_of(faults)
        polarities = np.fromiter(
            (fault.value for fault in faults), dtype=np.uint8, count=len(faults)
        )
        start = 0
        for k, chip_faults in eager:
            stop = start + len(chip_faults)
            site_chunks[k] = sites[start:stop]
            pol_chunks[k] = polarities[start:stop]
            start = stop
    offsets = np.zeros(len(chips) + 1, dtype=np.int64)
    np.cumsum([chunk.size for chunk in site_chunks], out=offsets[1:])
    return (
        offsets,
        _concat(site_chunks, np.intp),
        _concat(pol_chunks, np.uint8),
    )


@dataclass(frozen=True)
class _LotSites:
    """A chip list as a ``(site index, polarity)`` CSR against one circuit.

    Chip ``k``'s faults are ``sites[offsets[k]:offsets[k + 1]]`` (with
    the matching ``polarities``), indexing ``table`` — the circuit's
    site table, extended with any ad-hoc sites the lot carries.
    """

    offsets: np.ndarray
    sites: np.ndarray
    polarities: np.ndarray
    table: SiteTable

    @classmethod
    def of_lot(
        cls, batch: BatchCompiledCircuit, lot: FabricatedLot
    ) -> "_LotSites":
        """Gather a lot against ``batch``'s site table; ad-hoc sites of
        eager chips extend a copy of the table."""
        table = batch.site_table

        def sites_of(faults):
            nonlocal table
            sites, table = batch.sites_of(faults)
            return sites

        offsets, sites, polarities = _chip_sites(batch.netlist, lot, sites_of)
        return cls(offsets, sites, polarities, table)

    @classmethod
    def of_shard(
        cls, batch: BatchCompiledCircuit, shard: "_SoAChipShard"
    ) -> "_LotSites":
        """Decode a shard payload's coded sites (no fault objects)."""
        return cls(
            offsets=shard.fault_offsets,
            sites=shard.coded_sites >> 1,
            polarities=shard.coded_sites & 1,
            table=batch.site_table,
        )


def _first_fail_codes(
    batch: BatchCompiledCircuit,
    blocks: Sequence[tuple[dict[str, int], int]],
    lot: _LotSites,
) -> np.ndarray:
    """Chip-parallel first-fail scan: one batch row per still-passing chip.

    The core lot-test loop, shared by the in-process path and the shard
    workers (each worker runs it over its own chip shard).  Each block's
    injection tables are gathered from the lot's CSR for the chips still
    passing — rows compact as chips fail, and no fault object is touched.
    Returns each chip's first failing pattern, ``-1`` for a pass.
    """
    counts = np.diff(lot.offsets)
    first_fail = np.full(counts.size, -1, dtype=np.int64)
    remaining = np.flatnonzero(counts)
    offset = 0
    for words, block_len in blocks:
        if not remaining.size:
            break
        row_counts = counts[remaining]
        ends = np.cumsum(row_counts)
        # Positions of the remaining chips' entries in the lot CSR.
        entries = np.arange(ends[-1]) + np.repeat(
            lot.offsets[remaining] - (ends - row_counts), row_counts
        )
        tables = InjectionTables.from_sites(
            remaining.size + 1,
            np.repeat(np.arange(1, remaining.size + 1), row_counts),
            lot.sites[entries],
            lot.polarities[entries],
            lot.table,
        )
        fail_words = batch.detect_words(words, tables)
        passing: list[int] = []
        for i, first_bit in zip(
            remaining.tolist(), first_detecting_bits(fail_words, block_len)
        ):
            if first_bit is None:
                passing.append(i)
            else:
                first_fail[i] = offset + first_bit
        remaining = np.array(passing, dtype=np.intp)
        offset += block_len
    return first_fail


def _records(lot: FabricatedLot, first_fail: np.ndarray) -> list[ChipTestRecord]:
    """Records from per-chip first-fail codes (``-1`` = passed)."""
    return [
        ChipTestRecord(
            chip_id, is_good=count == 0, first_fail=None if code < 0 else code
        )
        for chip_id, count, code in zip(
            lot.chip_ids().tolist(),
            lot.fault_counts().tolist(),
            first_fail.tolist(),
        )
    ]


def _word_level_first_fail(
    compiled: CompiledCircuit,
    blocks: Sequence[tuple[dict[str, int], int]],
    good: Sequence[dict[str, int]],
    faults: Sequence[StuckAtFault],
) -> int | None:
    """Serial word-level first-fail scan of one chip's multi-fault machine:
    the first failing pattern, or ``None`` if the chip passes."""
    stems = []
    pins = []
    for fault in faults:
        if fault.is_branch:
            pins.append((fault.gate, fault.pin, fault.value))
        else:
            stems.append((fault.signal, fault.value))
    if not stems and not pins:
        return None

    offset = 0
    for (words, block_len), good_words in zip(blocks, good):
        observed = compiled.simulate(words, stuck_signals=stems, stuck_pins=pins)
        fail_word = 0
        for name, good_word in good_words.items():
            fail_word |= good_word ^ observed[name]
        (first_bit,) = first_detecting_bits([fail_word], block_len)
        if first_bit is not None:
            return offset + first_bit
        offset += block_len
    return None


@dataclass(frozen=True)
class _LotShardContext:
    """Per-pool worker context: compiled circuit(s) plus packed blocks.

    Exactly one of ``batch`` / ``compiled`` is set, selecting the engine
    the shard worker replays; both ship pre-compiled arrays so workers
    never re-levelize the netlist.
    """

    blocks: tuple[tuple[dict[str, int], int], ...]
    batch: BatchCompiledCircuit | None = None
    compiled: CompiledCircuit | None = None
    good: tuple[dict[str, int], ...] = ()


@dataclass(frozen=True)
class _SoAChipShard:
    """One chip shard as two flat arrays — the SoA wire payload.

    ``coded_sites`` packs one fault per element as
    ``(universe_index << 1) | polarity`` (``int32``, ~4 bytes per fault
    vs ~hundreds for a pickled :class:`StuckAtFault`); ``fault_offsets``
    is the per-chip CSR into it.  A site index is meaningful only
    relative to the shard context's netlist, whose fault universe is a
    deterministic enumeration in every process; a batch worker gathers
    its injection tables straight from these arrays.
    """

    fault_offsets: np.ndarray
    coded_sites: np.ndarray


def _pack_soa_shards(
    netlist, lot: FabricatedLot, bounds
) -> list[_SoAChipShard] | None:
    """Encode a lot as one :class:`_SoAChipShard` per ``(start, stop)``.

    Eager chips' faults go through :func:`fault_site_lookup`; the lot is
    encoded in one pass and cut into shards by slicing.  Returns
    ``None`` when any fault does not belong to ``netlist``'s universe —
    the caller then ships the object payload for the whole lot.
    """
    lookup = fault_site_lookup(netlist)

    def sites_of(faults):
        return np.fromiter(
            (lookup[fault] for fault in faults), dtype=np.int32, count=len(faults)
        )

    try:
        offsets, sites, polarities = _chip_sites(netlist, lot, sites_of)
    except KeyError:
        return None
    coded = (sites.astype(np.int32) << np.int32(1)) | polarities.astype(np.int32)
    return [
        _SoAChipShard(
            fault_offsets=offsets[start : stop + 1] - offsets[start],
            coded_sites=coded[offsets[start] : offsets[stop]],
        )
        for start, stop in bounds
    ]


def _test_lot_shard(context: _LotShardContext, shard) -> np.ndarray:
    """Worker: first-fail test one chip shard with the shipped circuit.

    The shard is an :class:`_SoAChipShard` or a list of
    :class:`FabricatedChip` objects.  Returns the shard's first-fail
    codes (``-1`` = passed) — one small array back over the pipe.
    """
    if context.batch is not None:
        if isinstance(shard, _SoAChipShard):
            lot = _LotSites.of_shard(context.batch, shard)
        else:
            lot = _LotSites.of_lot(context.batch, FabricatedLot(None, shard))
        return _first_fail_codes(context.batch, context.blocks, lot)
    if isinstance(shard, _SoAChipShard):
        universe = full_fault_universe(context.compiled.netlist)
        offsets = shard.fault_offsets.tolist()
        site_indices = (shard.coded_sites >> 1).tolist()
        polarities = (shard.coded_sites & 1).tolist()
        fault_lists = [
            materialize_site_faults(
                universe,
                site_indices[offsets[k] : offsets[k + 1]],
                polarities[offsets[k] : offsets[k + 1]],
            )
            for k in range(len(offsets) - 1)
        ]
    else:
        fault_lists = [chip.faults for chip in shard]
    first_fails = [
        _word_level_first_fail(
            context.compiled, context.blocks, context.good, faults
        )
        for faults in fault_lists
    ]
    return np.array(
        [-1 if fail is None else fail for fail in first_fails], dtype=np.int64
    )


class WaferTester:
    """Applies a :class:`TestProgram` to fabricated chips, first-fail mode."""

    def __init__(
        self,
        program: TestProgram,
        engine: str = "batch",
        workers: int | str = 1,
        executor: ParallelExecutor | None = None,
        batch_circuit: BatchCompiledCircuit | None = None,
        compiled_circuit: CompiledCircuit | None = None,
        payload_format: str = "soa",
    ):
        """``engine="batch"`` (and the kernel-backed names ``batch-jit``,
        ``batch-gpu``, ``auto``) tests the lot chip-parallel;
        ``"compiled"``/``"event"`` fall back to the serial chip-at-a-time
        word-level loop.
        ``workers`` shards the chip list over a process pool (``1`` =
        serial, ``"auto"`` = one per CPU) under either engine.
        ``executor`` injects a long-lived pool (a
        :class:`repro.api.Session` owns one): the tester's shard context
        is then shipped to the workers once, keyed by a context token,
        and reused by every subsequent ``test_lot``.  ``batch_circuit`` /
        ``compiled_circuit`` hand the tester circuits something else
        already compiled for this netlist (a session engine cache),
        skipping re-levelization.  ``payload_format`` selects what shard
        tasks carry over the pool pipe: ``"soa"`` (default) ships chips
        as packed ``(site index, polarity)`` arrays the worker tests
        without building fault objects — bit-identical results, a
        fraction of the bytes;
        ``"objects"`` ships pickled chip objects (the differential-test
        baseline)."""
        if engine not in ENGINES:
            raise ValueError(
                f"tester engine must be one of "
                f"{', '.join(repr(name) for name in sorted(ENGINES))}, "
                f"got {engine!r}"
            )
        if payload_format not in ("soa", "objects"):
            raise ValueError(
                f"payload_format must be 'soa' or 'objects', "
                f"got {payload_format!r}"
            )
        for circuit in (batch_circuit, compiled_circuit):
            if circuit is not None and circuit.netlist is not program.netlist:
                raise ValueError(
                    f"injected circuit was compiled for netlist "
                    f"{circuit.netlist.name!r}, not {program.netlist.name!r}"
                )
        self.program = program
        self.engine = engine
        self.workers = workers
        self.executor = executor
        self.payload_format = payload_format
        inputs = program.netlist.inputs
        # Pre-pack pattern blocks once.  Both compiled circuits and the
        # good-machine responses are lazy: the batched lot path carries the
        # good machine as row 0 of each batch and never touches the serial
        # word-level circuit, and vice versa.
        self._blocks: list[tuple[dict[str, int], int]] = []
        patterns = program.patterns
        for start in range(0, len(patterns), WORD_BITS):
            block = patterns[start : start + WORD_BITS]
            words = pack_patterns(inputs, block)
            self._blocks.append((words, len(block)))
        self._compiled_circuit: CompiledCircuit | None = compiled_circuit
        self._batch: BatchCompiledCircuit | None = batch_circuit
        self._good: list[dict[str, int]] | None = None
        self._shard_context: _LotShardContext | None = None
        self._context_token = new_context_token()

    @property
    def _compiled(self) -> CompiledCircuit:
        if self._compiled_circuit is None:
            self._compiled_circuit = CompiledCircuit(self.program.netlist)
        return self._compiled_circuit

    def _good_responses(self) -> list[dict[str, int]]:
        if self._good is None:
            self._good = [
                self._compiled.simulate(words) for words, _ in self._blocks
            ]
        return self._good

    def test_chip(self, chip: FabricatedChip) -> ChipTestRecord:
        """Test one chip, stopping at its first failing pattern."""
        first_fail = _word_level_first_fail(
            self._compiled, self._blocks, self._good_responses(), chip.faults
        )
        return ChipTestRecord(
            chip.chip_id, is_good=chip.is_good, first_fail=first_fail
        )

    def test_lot(
        self,
        chips: FabricatedLot | Sequence[FabricatedChip],
        workers: int | str | None = None,
    ) -> list[ChipTestRecord]:
        """Test every chip of a lot (or bare chip list); records in chip order.

        A column-backed lot is tested straight from its hit arrays and
        its records are built from its chip ids and fault counts — no
        chip object is built.  ``workers`` overrides the constructor
        setting for this lot; above 1 the lot is sharded over a process
        pool and the merged records are bit-identical to the serial run.
        With an injected ``executor`` (and no explicit ``workers``) the
        call reuses its pool and its worker count; the tester's shard
        context travels to the workers only on the first lot, later lots
        ship just their chip shards.  An explicit ``workers`` always
        wins, on a one-shot pool of that size.
        """
        lot = chips if isinstance(chips, FabricatedLot) else FabricatedLot.of_chips(chips)
        # An explicit per-call ``workers`` takes precedence over an
        # injected executor (whose pool is sized once): the override
        # runs on a one-shot pool of exactly that size.
        use_injected = workers is None and self.executor is not None
        if use_injected:
            num_workers = self.executor.num_workers
        else:
            num_workers = resolve_workers(
                self.workers if workers is None else workers
            )
        plan = ShardPlan.balanced(len(lot), num_workers)
        if plan.num_shards > 1:
            context = self._lot_shard_context()
            tasks = self._shard_tasks(lot, plan)
            if use_injected:
                codes = self.executor.map_shards(
                    _test_lot_shard,
                    context,
                    tasks,
                    token=self._context_token,
                )
            else:
                with ParallelExecutor(num_workers) as executor:
                    codes = executor.map_shards(_test_lot_shard, context, tasks)
            return _records(lot, np.concatenate(codes))
        if self.engine in ("compiled", "event"):
            return [self.test_chip(chip) for chip in lot.chips]
        batch = self._batch_circuit
        return _records(
            lot,
            _first_fail_codes(batch, self._blocks, _LotSites.of_lot(batch, lot)),
        )

    def _shard_tasks(self, lot: FabricatedLot, plan: ShardPlan) -> list:
        """Encode chip shards for the pool pipe per ``payload_format``.

        ``"soa"`` packs every shard as a :class:`_SoAChipShard`; if any
        chip's faults cannot be mapped into this program's fault
        universe, the whole lot falls back to object shards so results
        never depend on which chips were encodable.
        """
        if self.payload_format == "soa":
            packed = _pack_soa_shards(
                self.program.netlist, lot, plan.bounds()
            )
            if packed is not None:
                return packed
        return plan.split(list(lot.chips))

    def _lot_shard_context(self) -> _LotShardContext:
        """The tester's shard context, built once and token-stable.

        Cached so repeated ``test_lot`` calls through a persistent pool
        present the same token with the same content — the executor then
        skips re-shipping the compiled circuit and packed blocks.
        """
        if self._shard_context is None:
            if self.engine not in ("compiled", "event"):
                self._shard_context = _LotShardContext(
                    blocks=tuple(self._blocks), batch=self._batch_circuit
                )
            else:
                self._shard_context = _LotShardContext(
                    blocks=tuple(self._blocks),
                    compiled=self._compiled,
                    good=tuple(self._good_responses()),
                )
        return self._shard_context

    @property
    def _batch_circuit(self) -> BatchCompiledCircuit:
        if self._batch is None:
            # The engine's own backend-bound circuit, so lot testing runs
            # through the same executor as fault simulation.
            self._batch = make_engine(self.program.netlist, self.engine).batch
        return self._batch
