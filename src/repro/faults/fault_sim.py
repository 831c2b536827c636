"""Parallel-pattern single-fault stuck-at simulation.

Patterns are processed in 64-wide blocks; within each block the simulation
engine answers which patterns detect which faults.  Faults are dropped
from later blocks once their first detecting pattern is known — the batch
is *compacted* between blocks, so the cost is dominated by hard-to-detect
faults, the same economics as the serial fault simulators the paper's
LAMP reference implemented in hardware description.

The engine is fault-parallel evaluation of the lowered kernel IR: every
gate is evaluated once per block for *all* remaining faults
simultaneously, one machine per row of a ``(num_faults + 1,
num_signals)`` ``uint64`` matrix.  Faults reach it as an array of
universe indices, so each block's injection tables are gathers, not
per-fault lookups.  The engine names
(``"batch"``, ``"batch-jit"``, ``"batch-gpu"``, ``"auto"``; see
:func:`repro.simulator.make_engine`) pick the kernel backend, and all of
them produce bit-identical :class:`FaultSimResult` values.  The
differential test suite enforces that against reference simulators
handed in as :class:`~repro.simulator.Engine` instances.

:meth:`FaultSimulator.run` takes faults as an integer array of
:func:`~repro.faults.model.full_fault_universe` indices or as objects,
which :func:`~repro.faults.model.universe_indices` encodes at the
boundary (a fault outside the universe is a ``ValueError``).  The result
carries its first-detects as an ``int64`` array and materialises fault
objects only when asked.  That is how
:meth:`repro.tester.program.TestProgram.build` runs a collapsed
simulation on the representatives of
:func:`~repro.faults.collapse.collapsed_indices` and expands it with one
gather, building no fault object on a warm netlist.

The headline artifact is :meth:`FaultSimResult.coverage_curve`: cumulative
fault coverage after each pattern, i.e. the x-axis of the paper's Table 1
and Fig. 5 calibration experiment.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.circuit.netlist import Netlist
from repro.faults.model import (
    StuckAtFault,
    full_fault_universe,
    universe_indices,
)
from repro.runtime import (
    ParallelExecutor,
    ShardPlan,
    new_context_token,
    resolve_workers,
)
from repro.simulator import Engine, make_engine
from repro.simulator.values import WORD_BITS, first_detecting_bits, pack_patterns

__all__ = [
    "FaultSimulator",
    "FaultSimResult",
    "cumulative_coverage",
    "engine_context_token",
]


def cumulative_coverage(
    detects: np.ndarray, num_patterns: int, universe_size: int
) -> np.ndarray:
    """Cumulative coverage after each pattern from a first-detect vector.

    ``detects`` is an integer array (``-1`` = undetected); ``curve[k]``
    counts the faults first detected at or before pattern ``k`` over
    ``universe_size``.  The counts are an ``int64`` cumulative sum
    divided once, so the ``float64`` curve is byte-stable.
    """
    counts = np.bincount(detects[detects >= 0], minlength=num_patterns)
    return np.cumsum(counts.astype(np.int64)) / universe_size


def _detect_array(first_detect: Sequence[int | None]) -> np.ndarray:
    """``first_detect`` as a read-only ``int64`` array, ``-1`` for ``None``."""
    detects = np.fromiter(
        (-1 if d is None else d for d in first_detect),
        dtype=np.int64,
        count=len(first_detect),
    )
    detects.flags.writeable = False
    return detects


class FaultSimResult:
    """Outcome of fault-simulating a pattern sequence.

    ``detects`` is the first-detect vector as a read-only ``int64``
    array: ``detects[i]`` is the 0-based index of the first pattern that
    detects fault ``i``, or ``-1`` if the sequence misses it.  The
    object views are ``faults`` and ``first_detect`` (the same vector
    with ``None`` for a miss).  A :meth:`FaultSimulator.run` result
    materialises them from the memoised fault universe on first access
    only, so counts, coverage and the curve never touch a fault object.
    """

    def __init__(
        self,
        faults: Sequence[StuckAtFault],
        first_detect: Sequence[int | None],
        num_patterns: int,
    ):
        self._faults: tuple[StuckAtFault, ...] | None = tuple(faults)
        self._first_detect: tuple[int | None, ...] | None = tuple(first_detect)
        self.detects = _detect_array(self._first_detect)
        self.num_patterns = num_patterns
        self._source: tuple[list[StuckAtFault], np.ndarray] | None = None

    @classmethod
    def from_indices(
        cls,
        universe: list[StuckAtFault],
        indices: np.ndarray,
        detects: np.ndarray,
        num_patterns: int,
    ) -> "FaultSimResult":
        """A result over ``universe[indices]`` with ``int64`` first-detects."""
        result = cls.__new__(cls)
        result._faults = result._first_detect = None
        result._source = (universe, indices)
        result.detects = detects
        result.num_patterns = num_patterns
        return result

    @property
    def faults(self) -> tuple[StuckAtFault, ...]:
        if self._faults is None:
            universe, indices = self._source
            self._faults = tuple(universe[i] for i in indices.tolist())
        return self._faults

    @property
    def first_detect(self) -> tuple[int | None, ...]:
        if self._first_detect is None:
            self._first_detect = tuple(
                None if d < 0 else d for d in self.detects.tolist()
            )
        return self._first_detect

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultSimResult):
            return NotImplemented
        return (
            self.num_patterns == other.num_patterns
            and np.array_equal(self.detects, other.detects)
            and self.faults == other.faults
        )

    @property
    def num_detected(self) -> int:
        return int(np.count_nonzero(self.detects >= 0))

    @property
    def coverage(self) -> float:
        """Final fault coverage f = detected / universe."""
        if len(self.detects) == 0:
            raise ValueError("empty fault list has no coverage")
        return self.num_detected / len(self.detects)

    def coverage_curve(self) -> np.ndarray:
        """Cumulative coverage after each pattern (length ``num_patterns``).

        ``curve[k]`` is the fault coverage of the test *prefix* ending at
        pattern ``k`` — the quantity the paper's calibration procedure reads
        off the fault simulator.
        """
        return cumulative_coverage(self.detects, self.num_patterns, len(self.detects))

    def detected_faults(self) -> list[StuckAtFault]:
        return [f for f, d in zip(self.faults, self.detects.tolist()) if d >= 0]

    def undetected_faults(self) -> list[StuckAtFault]:
        return [f for f, d in zip(self.faults, self.detects.tolist()) if d < 0]

    def expand(
        self, classes: Mapping[StuckAtFault, Sequence[StuckAtFault]]
    ) -> "FaultSimResult":
        """Expand a collapsed-run result to the full fault universe.

        Every member of an equivalence class inherits its representative's
        first-detect index (equivalent faults are detected by exactly the
        same tests), restoring full-universe coverage percentages.  The
        index form of this expansion is one gather through
        :func:`~repro.faults.collapse.collapsed_indices`.
        """
        faults: list[StuckAtFault] = []
        detects: list[int | None] = []
        for rep, det in zip(self.faults, self.first_detect):
            members = classes.get(rep)
            if members is None:
                raise KeyError(f"representative {rep} missing from class map")
            faults.extend(members)
            detects.extend([det] * len(members))
        return FaultSimResult(faults, detects, self.num_patterns)


def _scan_blocks(
    engine: Engine,
    blocks: Iterable[tuple[Mapping[str, int], int]],
    faults: np.ndarray,
) -> np.ndarray:
    """Pattern-block scan with cross-block fault dropping.

    The one copy of the drop loop, shared by the serial path (lazy block
    packing, early exit once every fault is detected) and the sharded
    workers (each scans its own fault shard with per-shard compaction).
    ``faults`` is an integer array of universe indices.  Returns each
    fault's first detecting pattern as an ``int64`` array, ``-1`` for a
    miss.
    """
    first_detect = np.full(len(faults), -1, dtype=np.int64)
    remaining = np.arange(len(faults))
    offset = 0
    for words, block_len in blocks:
        if not remaining.size:
            break
        bits = first_detecting_bits(
            engine.detect_block(words, block_len, faults[remaining]), block_len
        )
        # Compact the batch: only still-undetected faults ride into the
        # next block.
        detected = bits >= 0
        first_detect[remaining[detected]] = offset + bits[detected]
        remaining = remaining[~detected]
        offset += block_len
    return first_detect


@dataclass(frozen=True)
class _FaultShardContext:
    """Per-pool worker context: the compiled engine.

    Shipped to each worker process once, so workers reuse the parent's
    compiled NumPy arrays instead of re-levelizing.  The packed pattern
    blocks vary per run, so they travel with the shard tasks instead —
    a persistent pool can then keep the engine cached under a stable
    token (see :func:`engine_context_token`) across many runs.
    """

    engine: Engine


# Stable context token per compiled engine instance: repeated runs that
# share an engine (a session's per-netlist cache) present the same token
# to a persistent pool, which then ships the engine exactly once.
_ENGINE_TOKENS: "weakref.WeakKeyDictionary[Engine, tuple]" = (
    weakref.WeakKeyDictionary()
)


def engine_context_token(engine: Engine) -> tuple:
    """The stable shard-context token of one compiled engine instance.

    Minted on first request and cached weakly, so every caller that
    ships ``engine`` to a persistent pool — the fault simulator, a
    session, the lot-testing server — presents one token and the pool
    installs the context once.  :class:`repro.api.Session` also uses it
    to evict the engine's context from the pool workers.
    """
    token = _ENGINE_TOKENS.get(engine)
    if token is None:
        token = new_context_token()
        _ENGINE_TOKENS[engine] = token
    return token


def _simulate_fault_shard(
    context: _FaultShardContext,
    task: "tuple[tuple[tuple[dict[str, int], int], ...], np.ndarray]",
) -> np.ndarray:
    """Worker: scan the task's pattern blocks against its fault shard,
    an ``int32`` array of fault-universe indices (the SoA wire format)."""
    blocks, faults = task
    return _scan_blocks(context.engine, blocks, faults)


def _checked_indices(faults: np.ndarray | None, universe_size: int) -> np.ndarray:
    """``faults`` as ``int32`` universe indices (``None``: the whole universe)."""
    if faults is None:
        return np.arange(universe_size, dtype=np.int32)
    if faults.ndim != 1 or faults.dtype.kind not in "iu":
        raise ValueError(
            f"fault indices must be a 1-D integer array, got "
            f"{faults.ndim}-D {faults.dtype}"
        )
    if len(faults) and (faults.min() < 0 or faults.max() >= universe_size):
        raise ValueError(
            f"fault indices must lie in [0, {universe_size}), got "
            f"[{faults.min()}, {faults.max()}]"
        )
    return faults.astype(np.int32)


class FaultSimulator:
    """Single-stuck-at fault simulator with a selectable block engine.

    ``engine`` is an engine name (default ``"batch"``; see
    :data:`repro.simulator.ENGINES`) or a ready
    :class:`~repro.simulator.Engine` instance to share a compiled engine
    across simulators.  ``workers`` shards the fault list over a
    process pool (``1`` = serial, ``"auto"`` = one per CPU); results are
    bit-identical at every setting (see :mod:`repro.runtime`).
    ``executor`` injects a long-lived :class:`ParallelExecutor` (a
    :class:`repro.api.Session` pool) instead of a one-shot pool per run;
    its worker count then governs the sharding.
    """

    def __init__(
        self,
        netlist: Netlist,
        engine: str | Engine = "batch",
        workers: int | str = 1,
        executor: ParallelExecutor | None = None,
    ):
        self.netlist = netlist
        self.engine = make_engine(netlist, engine)
        self.workers = workers
        self.executor = executor

    def run(
        self,
        patterns: Sequence[Mapping[str, int] | Sequence[int]],
        faults: Sequence[StuckAtFault] | np.ndarray | None = None,
        workers: int | str | None = None,
    ) -> FaultSimResult:
        """Fault-simulate ``patterns`` in order against ``faults``.

        ``faults`` defaults to the full universe.  It is a 1-D integer
        array of :func:`~repro.faults.model.full_fault_universe` indices
        — the form the engine consumes — or a sequence of fault objects,
        encoded by :func:`~repro.faults.model.universe_indices`: a fault
        outside the universe raises ``ValueError``.
        ``patterns`` is any sliceable sequence of patterns — a list of
        dicts, a list of 0/1 tuples, or a 2D NumPy array with one row per
        pattern.  Patterns are processed in 64-wide blocks with fault
        dropping across blocks.

        ``workers`` overrides the constructor setting for this run; above
        1, the fault list is cut into contiguous shards, each worker
        process scans all blocks against its shard (per-shard
        compaction), and the merged first-detects are bit-identical to
        the serial scan — per-fault results never depend on batch
        composition.  With an injected ``executor`` (and no explicit
        ``workers``) the run reuses its pool and its worker count
        instead of building one; an explicit ``workers`` always wins,
        on a one-shot pool of that size.
        """
        if len(patterns) == 0:
            raise ValueError("need at least one pattern")
        universe = full_fault_universe(self.netlist)
        if faults is None or isinstance(faults, np.ndarray):
            indices = _checked_indices(faults, len(universe))
        else:
            indices = universe_indices(self.netlist, faults)
        input_names = self.netlist.inputs

        # An explicit per-run ``workers`` takes precedence over an
        # injected executor (whose pool is sized once): the override
        # runs on a one-shot pool of exactly that size.
        use_injected = workers is None and self.executor is not None
        if use_injected:
            num_workers = self.executor.num_workers
        else:
            num_workers = resolve_workers(
                self.workers if workers is None else workers
            )
        plan = ShardPlan.balanced(len(indices), num_workers)

        if plan.num_shards > 1:
            blocks = []
            for start in range(0, len(patterns), WORD_BITS):
                block = patterns[start : start + WORD_BITS]
                blocks.append((pack_patterns(input_names, block), len(block)))
            blocks = tuple(blocks)
            context = _FaultShardContext(engine=self.engine)
            tasks = [
                (blocks, indices[start:stop]) for start, stop in plan.bounds()
            ]
            if use_injected:
                shard_detects = self.executor.map_shards(
                    _simulate_fault_shard,
                    context,
                    tasks,
                    token=engine_context_token(self.engine),
                )
            else:
                with ParallelExecutor(num_workers) as executor:
                    shard_detects = executor.map_shards(
                        _simulate_fault_shard, context, tasks
                    )
            detects = np.asarray(plan.merge(shard_detects), dtype=np.int64)
        else:

            def lazy_blocks():
                for start in range(0, len(patterns), WORD_BITS):
                    block = patterns[start : start + WORD_BITS]
                    yield pack_patterns(input_names, block), len(block)

            detects = _scan_blocks(self.engine, lazy_blocks(), indices)

        detects.flags.writeable = False
        return FaultSimResult.from_indices(
            universe, indices, detects, len(patterns)
        )

    def detects(
        self,
        pattern: Mapping[str, int] | Sequence[int],
        fault: StuckAtFault,
    ) -> bool:
        """True iff a single pattern detects a single fault: a one-pattern,
        one-fault :meth:`run` in this process."""
        return self.run([pattern], faults=[fault], workers=1).num_detected == 1
