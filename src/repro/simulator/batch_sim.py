"""Fault-parallel batched simulation on NumPy ``uint64`` arrays.

The classical parallel-pattern trick packs 64 patterns into one machine
word; this module adds the orthogonal axis and evaluates a whole *batch of
machines* simultaneously.  A batch run holds signal values in a 2D array
of shape ``(num_machines + 1, num_signals)`` where

* **row 0 is the good machine**, and
* **each other row carries one machine's injected fault set** — a single
  stuck-at fault for the fault simulator, or a defective chip's whole
  multi-fault set for the wafer tester.

A gate is evaluated once per 64-pattern block for many rows at a time,
so the per-fault cost collapses from a full Python resimulation to one
row of a vectorized reduction.  The NumPy backend evaluates a group of
rows only on the union of their faults' fanout cones (see
:mod:`~repro.simulator.kernels.numpy_exec`); the accelerated backends
evaluate every gate for every row.

:class:`BatchCompiledCircuit` lowers the netlist once into a flat,
levelized :class:`~repro.simulator.kernels.ir.KernelProgram` and runs
every block on a kernel backend (:mod:`repro.simulator.kernels`): the
NumPy executor for ``engine="batch"``, numba for ``batch-jit``, CuPy for
``batch-gpu``, the autotuner's pick for ``auto`` — one class, four
backends, one set of injection tables.

Fault injection follows the stuck-at model's two site kinds:

* **stem faults** force the signal's word *after* its driver evaluates
  (primary-input stems are forced at load time);
* **pin faults** force one input pin of one sink gate only, which is
  what makes fanout-branch faults distinct sites.

Injections travel as :class:`~repro.simulator.kernels.ir.InjectionTables`
gathered from the circuit's per-site
:class:`~repro.simulator.kernels.ir.SiteTable` — built once, indexed by
:func:`~repro.faults.model.full_fault_universe` position, with every
site validated when the table is built.  Callers holding ``(row, fault
index)`` arrays (the wafer tester, the fault simulator) build
tables with no per-fault Python work; fault-object machines are encoded
by :func:`~repro.faults.model.universe_indices` and gather from the
same table, so a fault outside the universe is a ``ValueError``.

Detection is a column gather of the primary outputs: XOR every faulty row
against row 0 and OR-reduce across outputs, yielding one 64-bit detect
word per machine.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.circuit.gates import WORD_MASK
from repro.circuit.netlist import Netlist
from repro.simulator.kernels import autotune
from repro.simulator.kernels.backends import (
    available_backends,
    check_backend,
    resolve_backend,
)
from repro.simulator.kernels.gpu_exec import execute_gpu
from repro.simulator.kernels.ir import (
    ConeTable,
    InjectionTables,
    SiteTable,
    cone_table,
    lower_program,
    resolve_sites,
)
from repro.simulator.kernels.jit_exec import execute_jit
from repro.simulator.kernels.numpy_exec import execute_numpy

__all__ = [
    "BatchCompiledCircuit",
    "BatchEngine",
    "JitBatchEngine",
    "GpuBatchEngine",
    "AutoBatchEngine",
]

_U64 = np.uint64


class BatchCompiledCircuit:
    """A netlist lowered for fault-parallel, pattern-parallel evaluation.

    One instance is reusable across blocks and machine batches; only the
    value matrix and the injection tables are rebuilt per call.
    ``backend`` picks the executor (see
    :mod:`repro.simulator.kernels.backends`).
    """

    def __init__(self, netlist: Netlist, backend: str = "numpy"):
        check_backend(backend)
        netlist.validate()
        self.netlist = netlist
        self.backend = backend
        self._index: dict[str, int] = {
            name: i for i, name in enumerate(netlist.topological_order())
        }
        self.program = lower_program(netlist, self._index)
        self._site_table: SiteTable | None = None
        self._cones: ConeTable | None = None

    @property
    def num_signals(self) -> int:
        return self.program.num_signals

    def signal_index(self, name: str) -> int:
        """Index of a signal in a value matrix column."""
        return self._index[name]

    # -------------------------------------------------------- fault tables

    @property
    def site_table(self) -> SiteTable:
        """Injection target of every fault-universe site, built (and
        validated) on first use."""
        if self._site_table is None:
            # Imported here: repro.faults imports this package.
            from repro.faults.model import full_fault_universe

            self._site_table = resolve_sites(
                self.netlist,
                self._index,
                self.program,
                full_fault_universe(self.netlist),
            )
        return self._site_table

    @property
    def cones(self) -> ConeTable:
        """Fanout cones of the lowered program, built on first use."""
        if self._cones is None:
            self._cones = cone_table(self.program)
        return self._cones

    def machine_tables(self, machines: Sequence[Sequence]) -> InjectionTables:
        """Injection tables for fault-object machines (one row each); a
        fault outside the fault universe raises ``ValueError``."""
        from repro.faults.model import universe_indices

        counts = [len(machine) for machine in machines]
        faults = [fault for machine in machines for fault in machine]
        return InjectionTables.from_sites(
            len(machines) + 1,
            np.repeat(np.arange(1, len(machines) + 1), counts),
            universe_indices(self.netlist, faults),
            self.site_table,
        )

    def single_fault_tables(self, sites: np.ndarray) -> InjectionTables:
        """One single-fault machine per universe index in ``sites``."""
        return InjectionTables.from_sites(
            len(sites) + 1, np.arange(1, len(sites) + 1), sites, self.site_table
        )

    # ------------------------------------------------------------ evaluation

    def _input_values(self, input_words: Mapping[str, int]) -> list[int]:
        """One masked word per primary input, in program order."""
        values = []
        for name in self.program.input_names:
            try:
                values.append(input_words[name] & WORD_MASK)
            except KeyError:
                raise ValueError(f"missing input word for {name!r}") from None
        return values

    def _prefill(
        self,
        input_words: Mapping[str, int],
        tables: InjectionTables,
        transposed: bool,
    ) -> np.ndarray:
        """A fresh full value matrix with inputs and PI stems loaded, for
        the dense JIT/GPU executors.

        ``np.empty`` is safe: every column is either an input (filled
        here) or a gate output (written by its gate in schedule order).
        Transposed is ``(num_signals, num_rows)``.
        """
        if transposed:
            values = np.empty((self.num_signals, tables.num_rows), dtype=_U64)
            view = values
        else:
            values = np.empty((tables.num_rows, self.num_signals), dtype=_U64)
            view = values.T
        view[self.program.input_cols] = np.array(
            self._input_values(input_words), dtype=_U64
        )[:, None]
        if tables.pi_row.size:
            view[tables.pi_col, tables.pi_row] = tables.pi_word
        return values

    def _execute(
        self,
        backend: str,
        input_words: Mapping[str, int],
        tables: InjectionTables,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Run one block on a concrete backend; returns the ``columns``
        (default: every signal) of every row, ``(num_rows,
        len(columns))``, possibly as a transposed view."""
        if backend == "numpy":
            if columns is None:
                columns = np.arange(self.num_signals)
            return execute_numpy(
                self.program,
                self.cones,
                self._input_values(input_words),
                tables,
                columns,
            )
        if backend == "jit":
            values = self._prefill(input_words, tables, False)
            execute_jit(self.program, values, tables)
        else:
            values_t = self._prefill(input_words, tables, True)
            execute_gpu(self.program, values_t, tables)
            values = values_t.T
        return values if columns is None else values[:, columns]

    def run_batch(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence] | InjectionTables,
        columns: np.ndarray | None = None,
    ) -> np.ndarray:
        """Evaluate row 0 (good) plus one row per machine.

        ``input_words`` is one packed 64-pattern word per primary input, as
        produced by :func:`~repro.simulator.values.pack_patterns`.
        ``machines`` is either prebuilt :class:`InjectionTables` or a
        sequence of fault sets (fault-universe members, see
        :meth:`machine_tables`), each injected *simultaneously* into its
        own row.  Returns the ``(num_rows, num_signals)`` value matrix,
        or only its signal ``columns`` (an index array) when given.
        """
        if isinstance(machines, InjectionTables):
            tables = machines
        else:
            tables = self.machine_tables(machines)
        backend = resolve_backend(self.backend)
        if backend == "auto":
            fingerprint = self.program.fingerprint
            backend = autotune.cached_decision(fingerprint, tables.num_rows)
            if backend is None:
                candidates = [
                    (
                        name,
                        lambda name=name: self._execute(
                            name, input_words, tables, columns
                        ),
                    )
                    for name in available_backends()
                ]
                backend, values = autotune.calibrate(
                    fingerprint, tables.num_rows, candidates
                )
                autotune.note_block(backend)
                return values
        values = self._execute(backend, input_words, tables, columns)
        autotune.note_block(backend)
        return values

    def detect_words(
        self,
        input_words: Mapping[str, int],
        machines: Sequence[Sequence] | InjectionTables,
    ) -> np.ndarray:
        """One 64-bit detect word per machine: bit ``k`` set iff pattern
        ``k`` of the block distinguishes that machine from the good one at
        some primary output."""
        outputs = self.run_batch(
            input_words, machines, columns=self.program.output_cols
        )  # (rows, num_outputs), a fresh array
        diff = outputs[1:]
        diff ^= outputs[0]
        return np.bitwise_or.reduce(diff, axis=1)

    def output_words(self, values: np.ndarray, row: int = 0) -> dict[str, int]:
        """Extract ``{output_name: word}`` for one row of a value matrix."""
        return {
            name: int(values[row, idx])
            for name, idx in zip(self.netlist.outputs, self.program.output_cols)
        }

    def __getstate__(self):
        # Ship the IR, not the site table or the cones: they rebuild
        # (the site table revalidates) in the receiving process on first
        # use; numba/CuPy state is module-global and recreated per
        # process.
        state = self.__dict__.copy()
        state["_site_table"] = None
        state["_cones"] = None
        return state


class BatchEngine:
    """Fault-parallel block engine: all faults in one vectorized pass.

    Satisfies the :class:`~repro.simulator.Engine` protocol; each fault
    becomes one single-fault machine row of a
    :class:`BatchCompiledCircuit` batch.  ``faults`` is an integer array
    of :func:`~repro.faults.model.full_fault_universe` indices (what the
    fault simulator passes) or fault objects, encoded by
    :func:`~repro.faults.model.universe_indices`.
    """

    name = "batch"
    backend = "numpy"

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.batch = BatchCompiledCircuit(netlist, backend=self.backend)

    def detect_block(
        self,
        input_words: Mapping[str, int],
        num_patterns: int,
        faults: Sequence,
    ) -> list[int]:
        if len(faults) == 0:
            return []
        if not isinstance(faults, np.ndarray):
            from repro.faults.model import universe_indices

            faults = universe_indices(self.netlist, faults)
        tables = self.batch.single_fault_tables(faults)
        return self.batch.detect_words(input_words, tables).tolist()


class JitBatchEngine(BatchEngine):
    """``batch-jit``: the numba row-parallel kernel (NumPy fallback)."""

    name = "batch-jit"
    backend = "jit"


class GpuBatchEngine(BatchEngine):
    """``batch-gpu``: the CuPy CUDA kernel (NumPy fallback)."""

    name = "batch-gpu"
    backend = "gpu"


class AutoBatchEngine(BatchEngine):
    """``auto``: calibrated per-shape choice among available backends."""

    name = "auto"
    backend = "auto"
