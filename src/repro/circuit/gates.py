"""Gate types and their structural properties.

Each :class:`GateType` knows its arity bounds, whether it inverts, and
its controlling value — what netlist validation, fault collapsing and
PODEM read.  Signal values are 64-bit words (64 packed patterns),
masked with :data:`WORD_MASK`.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["GateType", "WORD_MASK"]

# All word arithmetic is on 64-bit unsigned words.
WORD_MASK = (1 << 64) - 1


class GateType(Enum):
    """Supported gate primitives.

    ``INPUT`` is a primary input placeholder (no evaluation); ``BUF`` and
    ``NOT`` are single-input; the rest accept two or more inputs.
    """

    INPUT = "input"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    NAND = "nand"
    OR = "or"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"

    @property
    def min_inputs(self) -> int:
        if self is GateType.INPUT:
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        return 2

    @property
    def max_inputs(self) -> int | None:
        if self is GateType.INPUT:
            return 0
        if self in (GateType.BUF, GateType.NOT):
            return 1
        return None  # unbounded fan-in

    @property
    def inverting(self) -> bool:
        """True when the gate inverts its "natural" function (NAND/NOR/...)."""
        return self in (GateType.NOT, GateType.NAND, GateType.NOR, GateType.XNOR)

    @property
    def controlling_value(self) -> int | None:
        """The input value that forces the output regardless of other inputs.

        0 for AND/NAND, 1 for OR/NOR, None for XOR-family and single-input
        gates.  Used by fault collapsing and by PODEM's backtrace.
        """
        if self in (GateType.AND, GateType.NAND):
            return 0
        if self in (GateType.OR, GateType.NOR):
            return 1
        return None

    @property
    def controlled_response(self) -> int | None:
        """Output value produced when any input is at the controlling value."""
        if self is GateType.AND:
            return 0
        if self is GateType.NAND:
            return 1
        if self is GateType.OR:
            return 1
        if self is GateType.NOR:
            return 0
        return None
