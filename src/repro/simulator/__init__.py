"""Logic simulation substrate.

One simulator over the :class:`~repro.circuit.netlist.Netlist` model:
:mod:`repro.simulator.batch_sim`, the fault-parallel batched circuit.
It holds a ``uint64`` value matrix of shape ``(num_machines + 1,
num_signals)`` whose row 0 is the good machine and whose other rows each
carry one injected fault set, so every gate is evaluated once per
64-pattern block for *all* machines at once.  The netlist is lowered to
the flat kernel IR of :mod:`repro.simulator.kernels` and run by one of
its backends, each an engine name: the NumPy executor
(``engine="batch"``, the default everywhere), numba
(``engine="batch-jit"``, a row-parallel compiled kernel), CuPy
(``engine="batch-gpu"``, one CUDA launch per block), or a shape-aware
autotuner that calibrates once per process and picks the fastest
available backend per netlist fingerprint and batch size
(``engine="auto"``).  numba and CuPy are optional; those engines
degrade to the NumPy executor when they are missing.

Anything that fault-simulates (:class:`~repro.faults.fault_sim.FaultSimulator`,
:class:`~repro.tester.tester.WaferTester`, PODEM fault dropping, the
experiment harness) accepts one of the names above.  The fault
simulator also takes a ready :class:`Engine` instance and routes its
inner loop through :meth:`Engine.detect_block`; that is how the test
suite diffs the kernel against its reference simulators, which live
in ``tests/``.
"""

from __future__ import annotations

from typing import Mapping, Protocol, Sequence, runtime_checkable

from repro.circuit.netlist import Netlist
from repro.simulator.values import WORD_BITS, pack_patterns, unpack_outputs
from repro.simulator.batch_sim import (
    AutoBatchEngine,
    BatchCompiledCircuit,
    BatchEngine,
    GpuBatchEngine,
    JitBatchEngine,
)

__all__ = [
    "WORD_BITS",
    "pack_patterns",
    "unpack_outputs",
    "BatchCompiledCircuit",
    "BatchEngine",
    "JitBatchEngine",
    "GpuBatchEngine",
    "AutoBatchEngine",
    "Engine",
    "ENGINES",
    "make_engine",
]


@runtime_checkable
class Engine(Protocol):
    """One 64-pattern block of fault simulation, however implemented.

    The fault simulator owns pattern blocking, first-detect bookkeeping,
    and fault dropping; an engine only answers the per-block question:
    *which patterns of this block detect which of these faults?*

    ``netlist`` is the circuit the engine was compiled for — required so
    :func:`make_engine` can reject an engine handed to a simulator of a
    *different* circuit, which would otherwise silently corrupt coverage.

    ``faults`` is an integer array of
    :func:`~repro.faults.model.full_fault_universe` indices — what the
    fault simulator always passes — or, for direct callers, a sequence
    of fault objects of that universe.
    """

    name: str
    netlist: Netlist

    def detect_block(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        faults: Sequence,
    ) -> Sequence[int]:
        """Detect words for ``faults`` under one packed pattern block.

        ``input_words`` maps each primary input to a 64-bit packed word
        (see :func:`pack_patterns`); ``num_patterns`` is the number of
        valid patterns in the block.  Bit ``k`` of ``result[i]`` is set
        iff pattern ``k`` detects ``faults[i]``.  Bits at or above
        ``num_patterns`` are unspecified — callers mask them off.
        """
        ...


ENGINES = {
    "batch": BatchEngine,
    "batch-jit": JitBatchEngine,
    "batch-gpu": GpuBatchEngine,
    "auto": AutoBatchEngine,
}


def make_engine(netlist: Netlist, engine: str | Engine = "batch") -> Engine:
    """Resolve an engine name (or pass through an instance) for ``netlist``.

    An :class:`Engine` instance is returned as-is — callers sharing one
    compiled engine across simulators pass the instance directly.  The
    instance must have been built for the *same* netlist object: detect
    words computed on a different circuit would silently corrupt every
    downstream coverage number.
    """
    if isinstance(engine, str):
        try:
            engine_cls = ENGINES[engine]
        except KeyError:
            raise ValueError(
                f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
            ) from None
        return engine_cls(netlist)
    if not isinstance(engine, Engine):
        raise TypeError(
            f"engine must be a name or an Engine instance (with a "
            f"netlist attribute), got {engine!r}"
        )
    if engine.netlist is not netlist:
        raise ValueError(
            f"engine {engine.name!r} was compiled for netlist "
            f"{engine.netlist.name!r}, not {netlist.name!r}"
        )
    return engine
