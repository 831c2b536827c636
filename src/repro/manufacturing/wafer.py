"""Wafer- and chip-level fabrication.

A wafer draws one defect-density realization from the recipe's mixing
distribution — defect clustering in real lines is dominated by
wafer-to-wafer and lot-to-lot variation — and every die on the wafer then
sees an independent Poisson defect count at that density.  Dies are
fabricated in bulk (:func:`fabricate_dies`): each die draws its defect
arrays on its own generator, one grid query covers every die's
footprints and one vectorized pass samples every die's faults, into a
:class:`LotColumns` of flat arrays.  :class:`FabricatedChip` views are
built from the columns only on demand, and ``Defect`` / ``StuckAtFault``
objects only when a consumer actually asks for them.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.defects.generation import Defect, DefectGenerator
from repro.defects.layout import ChipLayout
from repro.defects.mapping import DefectToFaultMapper
from repro.faults.model import StuckAtFault
from repro.manufacturing.process import ProcessRecipe
from repro.utils.rng import make_rng, spawn_rngs

__all__ = ["ChipFabData", "FabricatedChip", "LotColumns", "Wafer", "fabricate_dies"]


def _concat(chunks: list[np.ndarray], dtype) -> np.ndarray:
    """Empty-safe concatenate (np.concatenate rejects zero arrays)."""
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=dtype)


class ChipFabData:
    """Array backing of one die: its slice of the lot's columns.

    ``xs``/``ys``/``radii`` are the die's spot defects and
    ``fault_indices`` its faults, one universe index per faulted site —
    views into die ``index`` of ``columns`` (a :class:`LotColumns`),
    sliced on access, so a lot's chip views cost no array work until a
    chip is read.  ``layout`` maps fault indices back to
    :class:`~repro.faults.model.StuckAtFault` objects on demand.
    """

    __slots__ = ("columns", "index", "layout")

    def __init__(self, columns: "LotColumns", index: int, layout: ChipLayout):
        self.columns = columns
        self.index = index
        self.layout = layout

    def _slice(self, offsets: np.ndarray) -> slice:
        return slice(offsets[self.index], offsets[self.index + 1])

    @property
    def xs(self) -> np.ndarray:
        return self.columns.xs[self._slice(self.columns.defect_offsets)]

    @property
    def ys(self) -> np.ndarray:
        return self.columns.ys[self._slice(self.columns.defect_offsets)]

    @property
    def radii(self) -> np.ndarray:
        return self.columns.radii[self._slice(self.columns.defect_offsets)]

    @property
    def fault_indices(self) -> np.ndarray:
        return self.columns.fault_indices[self._slice(self.columns.hit_offsets)]


class FabricatedChip:
    """One die: its physical defects and the logical faults they caused.

    Array-backed chips (the fab hot path) are built from a
    :class:`ChipFabData` view — kept as its three fields, so a chip is
    one object — and materialize their ``defects`` / ``faults`` tuples
    lazily; eagerly
    constructed chips (``FabricatedChip(id, defects, faults)``, the
    historical signature) behave exactly as before.  Equality, hashing,
    and pickling are defined on the materialized ``(chip_id, defects,
    faults)`` triple, so the two representations are interchangeable.
    """

    __slots__ = ("chip_id", "_defects", "_faults", "_columns", "_index", "_layout")

    def __init__(
        self,
        chip_id: int,
        defects: tuple[Defect, ...] | None = None,
        faults: tuple[StuckAtFault, ...] | None = None,
        *,
        data: ChipFabData | None = None,
    ):
        if data is None:
            if defects is None or faults is None:
                raise TypeError(
                    "FabricatedChip needs either defects= and faults= "
                    "tuples or an array-backed data= payload"
                )
            self._defects: tuple[Defect, ...] | None = tuple(defects)
            self._faults: tuple[StuckAtFault, ...] | None = tuple(faults)
            self._columns = None
        else:
            if defects is not None or faults is not None:
                raise TypeError(
                    "FabricatedChip takes defects=/faults= or data=, not both"
                )
            self._defects = None
            self._faults = None
            self._columns = data.columns
            self._index = data.index
            self._layout = data.layout
        self.chip_id = chip_id

    @property
    def _data(self) -> ChipFabData | None:
        """The chip's array view, or ``None`` for an eager chip."""
        if self._columns is None:
            return None
        return ChipFabData(self._columns, self._index, self._layout)

    @property
    def defects(self) -> tuple[Defect, ...]:
        """The die's spot defects (materialized from arrays on first use)."""
        if self._defects is None:
            data = self._data
            self._defects = tuple(
                Defect(x, y, r)
                for x, y, r in zip(
                    data.xs.tolist(), data.ys.tolist(), data.radii.tolist()
                )
            )
        return self._defects

    @property
    def faults(self) -> tuple[StuckAtFault, ...]:
        """The die's stuck-at faults (materialized from arrays on first use)."""
        if self._faults is None:
            data = self._data
            self._faults = tuple(data.layout.site_faults(data.fault_indices))
        return self._faults

    @property
    def fault_count(self) -> int:
        """Logical-fault count — O(1), no materialization."""
        if self._faults is not None:
            return len(self._faults)
        return int(self._data.fault_indices.size)

    @property
    def defect_count(self) -> int:
        """Physical-defect count — O(1), no materialization."""
        if self._defects is not None:
            return len(self._defects)
        return int(self._data.xs.size)

    @property
    def is_good(self) -> bool:
        """A chip is good iff it carries no logical fault.

        A die can have physical defects yet be good — a defect on empty
        area damages nothing, which is one reason the paper separates the
        defect count (yield) from the fault count (``n0``).
        """
        return self.fault_count == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, FabricatedChip):
            return NotImplemented
        return (
            self.chip_id == other.chip_id
            and self.fault_count == other.fault_count
            and self.defect_count == other.defect_count
            and self.defects == other.defects
            and self.faults == other.faults
        )

    def __hash__(self) -> int:
        return hash((self.chip_id, self.defects, self.faults))

    def __reduce__(self):
        # Pickle the materialized triple: consumers on the other side of
        # a pipe (pool workers, server clients) need the objects anyway,
        # and the layout backing an array chip must not travel with it.
        return (FabricatedChip, (self.chip_id, self.defects, self.faults))

    def __repr__(self) -> str:
        return (
            f"FabricatedChip(chip_id={self.chip_id}, "
            f"defects={self.defect_count}, faults={self.fault_count})"
        )


@dataclass(frozen=True)
class LotColumns:
    """A lot's dies as seven flat arrays — the fab pipeline's output.

    Per die a chip id plus CSR slices into the concatenated defect
    arrays (``defect_offsets``) and fault array (``hit_offsets``): die
    ``k``'s defects are ``xs/ys/radii[defect_offsets[k]:
    defect_offsets[k + 1]]`` and its faults ``fault_indices[
    hit_offsets[k]:hit_offsets[k + 1]]``, ``int32`` indices into the
    netlist's :func:`~repro.faults.model.full_fault_universe`.  The
    same arrays are what pool workers return, what a column-backed
    :class:`~repro.manufacturing.lot.FabricatedLot` holds, what the
    tester reads, and (wrapped) what travels over the socket and HTTP
    wire formats.
    """

    chip_ids: np.ndarray
    defect_offsets: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    radii: np.ndarray
    hit_offsets: np.ndarray
    fault_indices: np.ndarray

    @property
    def num_dies(self) -> int:
        return int(self.chip_ids.size)

    @classmethod
    def concat(cls, parts: "list[LotColumns]") -> "LotColumns":
        """One column set for consecutive parts (e.g. pool shards)."""
        if len(parts) == 1:
            return parts[0]

        def offsets(name):
            chunks = [getattr(parts[0], name)[:1]]
            base = 0
            for part in parts:
                chunks.append(getattr(part, name)[1:] + base)
                base += getattr(part, name)[-1]
            return np.concatenate(chunks)

        return cls(
            chip_ids=np.concatenate([p.chip_ids for p in parts]),
            defect_offsets=offsets("defect_offsets"),
            xs=np.concatenate([p.xs for p in parts]),
            ys=np.concatenate([p.ys for p in parts]),
            radii=np.concatenate([p.radii for p in parts]),
            hit_offsets=offsets("hit_offsets"),
            fault_indices=np.concatenate([p.fault_indices for p in parts]),
        )

    def validate(self, num_faults: int) -> None:
        """Reject columns that do not describe a lot on a universe of
        ``num_faults`` faults.

        The wire decoders' one gate: every array 1-D with the right
        dtype kind, ``len(chip_ids) + 1`` offsets per CSR starting at 0,
        never decreasing and ending at its arrays' length, and every
        fault index in ``[0, num_faults)``.  Raises ``ValueError`` naming
        the first violation.
        """

        def reject(problem: str):
            raise ValueError(f"malformed lot columns: {problem}")

        for field in dataclasses.fields(self):
            array = getattr(self, field.name)
            kinds = "f" if field.name in ("xs", "ys", "radii") else "iu"
            if not isinstance(array, np.ndarray) or array.ndim != 1:
                reject(f"{field.name} must be a 1-D array")
            if array.dtype.kind not in kinds:
                expected = "float" if kinds == "f" else "integer"
                reject(f"{field.name} has dtype {array.dtype.str!r}, not {expected}")
        for name, columns in (
            ("defect_offsets", ("xs", "ys", "radii")),
            ("hit_offsets", ("fault_indices",)),
        ):
            offsets = getattr(self, name)
            if offsets.size != self.chip_ids.size + 1:
                reject(f"{offsets.size} {name} for {self.chip_ids.size} chip ids")
            if offsets[0] != 0 or (np.diff(offsets) < 0).any():
                reject(f"{name} must start at 0 and never decrease")
            for column in columns:
                if getattr(self, column).size != offsets[-1]:
                    reject(
                        f"{name} end at {offsets[-1]} but {column} has "
                        f"{getattr(self, column).size} entries"
                    )
        faults = self.fault_indices
        if faults.size and (faults.min() < 0 or faults.max() >= num_faults):
            reject(
                f"fault indices {faults.min()}..{faults.max()} outside "
                f"[0, {num_faults})"
            )

    def chips(self, layout: ChipLayout) -> tuple[FabricatedChip, ...]:
        """Lazy array-backed chips, one :class:`ChipFabData` view per die."""
        return tuple(
            FabricatedChip(chip_id, data=ChipFabData(self, k, layout))
            for k, chip_id in enumerate(self.chip_ids.tolist())
        )


def fabricate_dies(
    generator: DefectGenerator,
    mapper: DefectToFaultMapper,
    area: float,
    chip_ids: np.ndarray,
    die_rngs: Sequence[np.random.Generator],
    densities: Sequence[float],
) -> LotColumns:
    """Fabricate dies, each on its own generator at its own density.

    The one sampling path of every wafer model.  Each die draws its
    defect arrays (Poisson count, positions, radii) from its generator;
    then the layout answers every die's footprints in one batched grid
    query and :meth:`~repro.defects.mapping.DefectToFaultMapper.draw_hits`
    samples every die's faults in one vectorized pass — geometry draws
    no randomness, and each die's sampling draws stay on its generator,
    so every die is bit-identical to fabricating it alone.
    """
    per_die = [
        generator.chip_defect_arrays(area, rng=rng, density_value=density)
        for rng, density in zip(die_rngs, densities)
    ]
    defect_offsets = np.zeros(len(per_die) + 1, dtype=np.int64)
    np.cumsum([xs.size for xs, _, _ in per_die], out=defect_offsets[1:])
    xs = _concat([die[0] for die in per_die], float)
    ys = _concat([die[1] for die in per_die], float)
    radii = _concat([die[2] for die in per_die], float)
    covered, offsets = mapper.layout.sites_within_many(xs, ys, radii)
    hit_offsets, faults = mapper.draw_hits(covered, offsets, die_rngs, defect_offsets)
    return LotColumns(
        chip_ids=np.asarray(chip_ids, dtype=np.int64),
        defect_offsets=defect_offsets,
        xs=xs,
        ys=ys,
        radii=radii,
        hit_offsets=hit_offsets,
        fault_indices=faults,
    )


class Wafer:
    """A wafer of dies fabricated under one density realization."""

    def __init__(
        self,
        recipe: ProcessRecipe,
        layout: ChipLayout,
        dies_per_wafer: int = 100,
    ):
        if dies_per_wafer < 1:
            raise ValueError(f"need >= 1 die per wafer, got {dies_per_wafer}")
        if abs(layout.area - recipe.chip_area) > 1e-9:
            raise ValueError(
                f"layout area {layout.area} != recipe chip area {recipe.chip_area}"
            )
        self.recipe = recipe
        self.layout = layout
        self.dies_per_wafer = dies_per_wafer
        self._generator = recipe.defect_generator()
        self._mapper = DefectToFaultMapper(
            layout, activation_probability=recipe.activation_probability
        )

    def fabricate(
        self,
        seed=None,
        first_chip_id: int = 0,
        max_dies: int | None = None,
    ) -> list[FabricatedChip]:
        """Fabricate one wafer's worth of dies as lazy chips.

        ``max_dies`` truncates the wafer after that many dies — used for
        a lot's final partial wafer.  Safe for determinism: per-die RNGs
        are spawned by index from the wafer generator, so the first ``k``
        dies of a truncated wafer are bit-identical to the first ``k``
        dies of the full one.
        """
        columns = self.fabricate_columns([(first_chip_id, seed, max_dies)])
        return list(columns.chips(self.layout))

    def fabricate_columns(
        self, wafers: Sequence[tuple[int, object, int | None]]
    ) -> LotColumns:
        """Fabricate ``(first_chip_id, seed, max_dies)`` wafers as columns.

        Each wafer draws its density realization and spawns its die
        generators; then every die of every wafer goes through one
        :func:`fabricate_dies` call.
        """
        chip_ids: list[np.ndarray] = []
        die_rngs: list[np.random.Generator] = []
        densities: list[float] = []
        for first_chip_id, seed, max_dies in wafers:
            if max_dies is not None and max_dies < 1:
                raise ValueError(f"max_dies must be >= 1, got {max_dies}")
            rng = make_rng(seed)
            density = float(
                self.recipe.density_distribution().sample(rng, 1)[0]
            )
            count = (
                self.dies_per_wafer
                if max_dies is None
                else min(max_dies, self.dies_per_wafer)
            )
            chip_ids.append(np.arange(first_chip_id, first_chip_id + count))
            die_rngs.extend(spawn_rngs(rng, count))
            densities.extend([density] * count)
        return fabricate_dies(
            self._generator,
            self._mapper,
            self.recipe.chip_area,
            _concat(chip_ids, np.int64),
            die_rngs,
            densities,
        )
