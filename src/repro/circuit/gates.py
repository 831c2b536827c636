"""Gate types and their boolean evaluation.

Evaluation is defined on Python ints used as 64-bit words so the same
tables serve both scalar evaluation (word = 0 or 1) and bit-parallel
evaluation (word = 64 packed patterns).
"""

from __future__ import annotations

from enum import Enum

__all__ = ["GateType", "WORD_MASK", "evaluate_word"]

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


def evaluate_word(gate_type: GateType, inputs: list[int]) -> int:
    """Evaluate a gate on 64-bit words (bitwise across packed patterns).

    Raises on arity violations — silent arity bugs corrupt every downstream
    fault-coverage number, so they must fail loudly.
    """
    n = len(inputs)
    if n < gate_type.min_inputs:
        raise ValueError(f"{gate_type.name} needs >= {gate_type.min_inputs} inputs, got {n}")
    max_in = gate_type.max_inputs
    if max_in is not None and n > max_in:
        raise ValueError(f"{gate_type.name} takes <= {max_in} inputs, got {n}")

    if gate_type is GateType.INPUT:
        raise ValueError("INPUT pseudo-gates are not evaluated")
    if gate_type is GateType.BUF:
        return inputs[0] & WORD_MASK
    if gate_type is GateType.NOT:
        return ~inputs[0] & WORD_MASK

    acc = inputs[0]
    if gate_type in (GateType.AND, GateType.NAND):
        for v in inputs[1:]:
            acc &= v
    elif gate_type in (GateType.OR, GateType.NOR):
        for v in inputs[1:]:
            acc |= v
    else:  # XOR / XNOR
        for v in inputs[1:]:
            acc ^= v
    if gate_type.inverting:
        acc = ~acc
    return acc & WORD_MASK
