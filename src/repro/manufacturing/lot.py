"""Lot fabrication and empirical statistics.

A lot is a set of wafers from one recipe.  :class:`FabricatedLot` exposes
the empirical quantities the paper's analysis is built on — yield, the
fault-count histogram, and the mean fault count of defective chips (the
ground-truth ``n0``) — so experiments can compare what the calibration
procedure *estimates* against what the fab actually *did*.

A fabricated lot is *column-backed*: it holds the fab pipeline's
:class:`~repro.manufacturing.wafer.LotColumns` (chip ids plus CSR defect
and fault-hit arrays), its statistics come from the CSR offsets, the
tester and the wire encoders read the arrays directly, and per-chip
:class:`~repro.manufacturing.wafer.FabricatedChip` views are built only
when something reads :attr:`FabricatedLot.chips`.

Fabrication is wafer-parallel: wafers of a lot are independent once each
has its RNG-tree child, so ``fabricate_lot(..., workers=N)`` shards the
wafer list over a process pool.  The per-wafer seeds are spawned
from the lot seed *before* sharding, so the fabricated lot is
bit-identical at every worker count (see :mod:`repro.runtime`).  Shard
workers return their columns, and the coordinator concatenates them.
The expensive :class:`~repro.defects.layout.ChipLayout` (a full
fault-site placement) and its :class:`~repro.manufacturing.wafer.Wafer`
are cached per netlist revision, so call sites that fabricate many lots
under one recipe levelize the layout once, and an edited netlist gets a
fresh layout.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.circuit.netlist import Netlist
from repro.defects.layout import ChipLayout
from repro.faults.model import netlist_memo, universe_indices
from repro.manufacturing.process import ProcessRecipe
from repro.manufacturing.wafer import FabricatedChip, LotColumns, Wafer, _concat
from repro.runtime import (
    ParallelExecutor,
    ShardPlan,
    new_context_token,
    resolve_workers,
)
from repro.utils.rng import make_rng, spawn_seeds

__all__ = [
    "FabricatedLot",
    "fabricate_lot",
    "pack_lot_chips",
    "unpack_lot",
    "unpack_lot_chips",
]


class FabricatedLot:
    """All chips of a lot plus the recipe that produced them.

    Built either from chip objects (``FabricatedLot(recipe, chips)``) or
    from columns (``FabricatedLot(recipe, columns=..., layout=...)``, the
    fab and wire paths).  The aggregate statistics run on per-chip
    fault and defect count arrays — read off the column offsets, or
    counted once from the chips — so they never materialize a
    ``Defect`` or ``StuckAtFault``.  Equality, hashing and pickling are
    defined on ``(recipe, chips)``, so the two forms are interchangeable.
    """

    __slots__ = ("recipe", "columns", "layout", "_chips", "_counts_cache")

    def __init__(
        self,
        recipe: ProcessRecipe,
        chips: Sequence[FabricatedChip] | None = None,
        *,
        columns: LotColumns | None = None,
        layout: ChipLayout | None = None,
    ):
        if (chips is None) == (columns is None):
            raise TypeError("FabricatedLot takes exactly one of chips or columns=")
        if columns is not None and layout is None:
            raise TypeError("a column-backed FabricatedLot needs its layout=")
        self.recipe = recipe
        self.columns = columns
        self.layout = layout
        self._chips = None if chips is None else tuple(chips)
        self._counts_cache: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def of_chips(cls, chips: Sequence[FabricatedChip]) -> "FabricatedLot":
        """A recipe-less lot over ``chips``, column-backed when they are
        exactly the views of one column set, in order — e.g. another
        lot's ``chips`` — so consumers can read the columns directly."""
        chips = tuple(chips)
        columns = chips[0]._columns if chips else None
        if (
            columns is not None
            and columns.num_dies == len(chips)
            and all(
                chip._columns is columns
                and chip._index == k
                and chip._layout is chips[0]._layout
                for k, chip in enumerate(chips)
            )
        ):
            return cls(None, columns=columns, layout=chips[0]._layout)
        return cls(None, chips)

    @property
    def chips(self) -> tuple[FabricatedChip, ...]:
        """The lot's chips (views over the columns, built on first use)."""
        if self._chips is None:
            self._chips = self.columns.chips(self.layout)
        return self._chips

    def columns_for(self, netlist: Netlist) -> LotColumns | None:
        """The lot's columns if its fault indices refer to ``netlist``.

        A fault index is only meaningful relative to one netlist's fault
        universe; ``None`` for chip-built lots and for lots laid out
        against a different netlist object.
        """
        if self.columns is not None and self.layout.netlist is netlist:
            return self.columns
        return None

    def __len__(self) -> int:
        if self.columns is not None:
            return self.columns.num_dies
        return len(self._chips)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FabricatedLot):
            return NotImplemented
        return self.recipe == other.recipe and self.chips == other.chips

    def __hash__(self) -> int:
        return hash((self.recipe, self.chips))

    def __reduce__(self):
        # Chips pickle as their materialized triples; the layout behind
        # the columns must not travel.
        return (FabricatedLot, (self.recipe, self.chips))

    def __repr__(self) -> str:
        return f"FabricatedLot(recipe={self.recipe!r}, chips={len(self)})"

    def _counts(self) -> tuple[np.ndarray, np.ndarray]:
        """``(fault_counts, defect_counts)`` per chip."""
        if self._counts_cache is None:
            if self.columns is not None:
                self._counts_cache = (
                    np.diff(self.columns.hit_offsets).astype(np.int64),
                    np.diff(self.columns.defect_offsets).astype(np.int64),
                )
            else:
                self._counts_cache = (
                    np.array([c.fault_count for c in self._chips], dtype=np.int64),
                    np.array([c.defect_count for c in self._chips], dtype=np.int64),
                )
        return self._counts_cache

    def chip_ids(self) -> np.ndarray:
        """Per-chip ids, in lot order."""
        if self.columns is not None:
            return self.columns.chip_ids
        return np.array([c.chip_id for c in self._chips], dtype=np.int64)

    def empirical_yield(self) -> float:
        """Fraction of fault-free chips."""
        if not len(self):
            raise ValueError("empty lot has no yield")
        fault_counts, _ = self._counts()
        return int((fault_counts == 0).sum()) / len(self)

    def fault_counts(self) -> np.ndarray:
        """Per-chip logical-fault counts."""
        return self._counts()[0]

    def fault_count_histogram(self) -> dict[int, int]:
        """``{fault count: number of chips}`` — the empirical Eq. 1."""
        if not len(self):
            return {}
        counts = np.bincount(self.fault_counts())
        return {int(n): int(c) for n, c in enumerate(counts) if c}

    def empirical_n0(self) -> float:
        """Mean fault count over *defective* chips — the true ``n0``."""
        counts = self.fault_counts()
        defective = counts[counts > 0]
        if defective.size == 0:
            raise ValueError("lot has no defective chips; n0 undefined")
        return float(defective.mean())

    def empirical_nav(self) -> float:
        """Mean fault count over all chips (the paper's ``nav``, Eq. 2)."""
        if not len(self):
            raise ValueError("empty lot has no mean fault count")
        return float(self.fault_counts().mean())

    def defective_chips(self) -> list[FabricatedChip]:
        return [chip for chip in self.chips if not chip.is_good]

    def mean_defects_per_chip(self) -> float:
        """Mean *physical* defect count per chip (good chips included)."""
        if not len(self):
            raise ValueError("empty lot has no mean defect count")
        return float(self._counts()[1].mean())


# One memo entry per netlist: the fault-site placements, the wafers built
# on them and the fab shard contexts, keyed inside by the parameters that
# shape them.  Weak keys let dead netlists drop their entries, and the
# revision stamp (see netlist_memo) rebuilds all of them — the context
# with a fresh token, so persistent pools re-ship it — once the netlist
# is edited.
_FAB_CACHE: "weakref.WeakKeyDictionary[Netlist, tuple]" = weakref.WeakKeyDictionary()


def _fab_memo(netlist: Netlist, key: tuple, build):
    """``build()``, memoised under ``key`` for the netlist's revision."""
    entries = netlist_memo(_FAB_CACHE, netlist, lambda _: {})
    value = entries.get(key)
    if value is None:
        value = entries[key] = build()
    return value


def _cached_layout(netlist: Netlist, chip_area: float) -> ChipLayout:
    """The fault-site placement for (netlist, area), built at most once.

    Shared by wafer construction and the wire-format decoders (a lot
    shipped as arrays is rebuilt against this layout), so a fault index
    always resolves against the same placement object per process.
    """
    return _fab_memo(
        netlist, ("layout", chip_area), lambda: ChipLayout(netlist, area=chip_area)
    )


def _cached_wafer(
    netlist: Netlist, recipe: ProcessRecipe, dies_per_wafer: int
) -> Wafer:
    """The wafer for (netlist, recipe, dies), levelizing the layout once."""
    return _fab_memo(
        netlist,
        ("wafer", recipe, dies_per_wafer),
        lambda: Wafer(
            recipe,
            _cached_layout(netlist, recipe.chip_area),
            dies_per_wafer=dies_per_wafer,
        ),
    )


# Fabrication shards per pool worker (see fabricate_lot).
_SHARDS_PER_WORKER = 8


@dataclass(frozen=True)
class _FabShardContext:
    """Per-pool worker context: the pre-built wafer (layout included)."""

    wafer: Wafer
    dies_per_wafer: int


def _cached_fab_context(
    netlist: Netlist, recipe: ProcessRecipe, dies_per_wafer: int
) -> "tuple[_FabShardContext, tuple]":
    """The fab shard context and its token for (netlist, recipe, dies).

    Persistent pools key context shipping on the token, so repeated
    fabrication under one session ships the pre-built wafer to the
    workers exactly once per netlist revision.
    """
    return _fab_memo(
        netlist,
        ("context", recipe, dies_per_wafer),
        lambda: (
            _FabShardContext(
                wafer=_cached_wafer(netlist, recipe, dies_per_wafer),
                dies_per_wafer=dies_per_wafer,
            ),
            new_context_token(),
        ),
    )


def pack_lot_chips(
    netlist: Netlist, lot: "FabricatedLot | Sequence[FabricatedChip]"
) -> LotColumns:
    """Encode a lot (or any chip sequence) as :class:`LotColumns`.

    The one lot encoder, shared by the wafer tester, its pool shards,
    the binary server protocol and the HTTP gateway: a column-backed lot
    laid out against ``netlist`` hands over its columns as they are;
    otherwise each chip contributes its arrays (array-backed chips on
    ``netlist``) or its faults are encoded by :func:`universe_indices`
    (eager chips, e.g. a lot that crossed a pickle boundary).  A fault
    outside ``netlist``'s universe raises ``ValueError``.
    """
    if isinstance(lot, FabricatedLot):
        columns = lot.columns_for(netlist)
        if columns is not None:
            return columns
        lot = lot.chips
    xs, ys, radii, faults = [], [], [], []
    eager: list[tuple[int, FabricatedChip]] = []
    for k, chip in enumerate(lot):
        data = chip._data
        if data is not None and data.layout.netlist is netlist:
            xs.append(data.xs)
            ys.append(data.ys)
            radii.append(data.radii)
            faults.append(data.fault_indices)
        else:
            eager.append((k, chip))
            for chunks in (xs, ys, radii, faults):
                chunks.append(None)  # filled in below
    if eager:
        # Eager chips' faults and defects are encoded in one pass each,
        # then split per chip.
        codes = universe_indices(
            netlist, [fault for _, chip in eager for fault in chip.faults]
        )
        coords = np.array(
            [(d.x, d.y, d.radius) for _, chip in eager for d in chip.defects],
            dtype=float,
        ).reshape(-1, 3)
        fault_start = defect_start = 0
        for k, chip in eager:
            fault_stop = fault_start + len(chip.faults)
            defect_stop = defect_start + len(chip.defects)
            faults[k] = codes[fault_start:fault_stop]
            xs[k], ys[k], radii[k] = coords[defect_start:defect_stop].T
            fault_start, defect_start = fault_stop, defect_stop

    def offsets(chunks):
        out = np.zeros(len(chunks) + 1, dtype=np.int64)
        np.cumsum([chunk.size for chunk in chunks], out=out[1:])
        return out

    return LotColumns(
        chip_ids=np.array([chip.chip_id for chip in lot], dtype=np.int64),
        defect_offsets=offsets(xs),
        xs=_concat(xs, float),
        ys=_concat(ys, float),
        radii=_concat(radii, float),
        hit_offsets=offsets(faults),
        fault_indices=_concat(faults, np.int32).astype(np.int32),
    )


def unpack_lot(
    netlist: Netlist, recipe: ProcessRecipe, chip_area: float, columns: LotColumns
) -> FabricatedLot:
    """Decode :func:`pack_lot_chips` output into a column-backed lot.

    The wire decoders' one entry point: the columns are validated
    against the fault universe of the per-process :func:`_cached_layout`
    for ``(netlist, chip_area)`` (``ValueError`` on a malformed or
    hostile payload), whose enumeration is deterministic — so the
    decoded lot is bit-identical to the encoded one on any receiver
    that agrees on the netlist.
    """
    if not (isinstance(chip_area, (int, float)) and 0 < chip_area < math.inf):
        raise ValueError(f"malformed lot: chip area {chip_area!r}")
    layout = _cached_layout(netlist, chip_area)
    columns.validate(layout.num_sites)
    return FabricatedLot(recipe, columns=columns, layout=layout)


def unpack_lot_chips(
    netlist: Netlist, chip_area: float, columns: LotColumns
) -> "tuple[FabricatedChip, ...]":
    """The chips of :func:`unpack_lot` (lazy views over the columns)."""
    return unpack_lot(netlist, None, chip_area, columns).chips


def _fabricate_wafer_shard(
    context: _FabShardContext,
    wafer_tasks: list[tuple[int, object, int | None]],
) -> LotColumns:
    """Worker: fabricate ``(wafer_index, wafer_seed, die_limit)`` tasks.

    Returns the shard's :class:`LotColumns` — seven flat arrays over the
    pool pipe, not a pickled object tree per die.
    """
    return context.wafer.fabricate_columns(
        [
            (index * context.dies_per_wafer, wafer_seed, die_limit)
            for index, wafer_seed, die_limit in wafer_tasks
        ]
    )


def fabricate_lot(
    netlist: Netlist,
    recipe: ProcessRecipe,
    num_chips: int,
    dies_per_wafer: int = 100,
    seed=None,
    workers: int | str = 1,
    executor: ParallelExecutor | None = None,
) -> FabricatedLot:
    """Fabricate ``num_chips`` dies of ``netlist`` under ``recipe``.

    Chips come off whole wafers; the final wafer gets a die-count limit
    so exactly ``num_chips`` are fabricated — no truncated surplus dies,
    serial or sharded.  ``workers`` fabricates wafers in parallel (``1``
    = serial, ``"auto"`` = one process per CPU); the per-wafer RNG tree
    is spawned from ``seed`` before sharding, so the lot is bit-identical
    for any worker count.  ``executor`` injects a long-lived pool (a
    :class:`repro.api.Session` owns one): its worker count governs the
    sharding and the pre-built wafer ships to the workers once per
    session, not once per lot.  The lot is column-backed.
    """
    if num_chips < 1:
        raise ValueError(f"need >= 1 chip, got {num_chips}")
    wafer = _cached_wafer(netlist, recipe, dies_per_wafer)
    rng = make_rng(seed)
    num_wafers = -(-num_chips // dies_per_wafer)
    last_limit = num_chips - (num_wafers - 1) * dies_per_wafer
    tasks = [
        (index, wafer_seed, last_limit if index == num_wafers - 1 else None)
        for index, wafer_seed in enumerate(spawn_seeds(rng, num_wafers))
    ]
    if executor is not None:
        num_workers = executor.num_workers
    else:
        num_workers = resolve_workers(workers)
    # Several shards per worker: pool workers pull shards as they free
    # up, so a slower worker (a busy core, a wafer-heavy shard) does not
    # set the wall time of the whole lot.
    plan = ShardPlan.balanced(
        num_wafers, 1 if num_workers == 1 else num_workers * _SHARDS_PER_WORKER
    )
    context, token = _cached_fab_context(netlist, recipe, dies_per_wafer)
    if plan.num_shards > 1:
        shard_tasks = plan.split(tasks)
        if executor is not None:
            parts = executor.map_shards(
                _fabricate_wafer_shard, context, shard_tasks, token=token
            )
        else:
            with ParallelExecutor(num_workers) as one_shot:
                parts = one_shot.map_shards(
                    _fabricate_wafer_shard, context, shard_tasks
                )
        columns = LotColumns.concat(list(parts))
    else:
        columns = _fabricate_wafer_shard(context, tasks)
    return FabricatedLot(recipe, columns=columns, layout=wafer.layout)
