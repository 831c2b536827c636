"""Pluggable kernel backends for the batch engine.

The package holds the flat, levelized IR a
:class:`~repro.simulator.batch_sim.BatchCompiledCircuit` lowers to
(:mod:`~repro.simulator.kernels.ir`) and the interchangeable executors
that run it — NumPy (:mod:`~repro.simulator.kernels.numpy_exec`), numba
JIT (:mod:`~repro.simulator.kernels.jit_exec`), CuPy GPU
(:mod:`~repro.simulator.kernels.gpu_exec`) — with backend selection in
:mod:`~repro.simulator.kernels.backends` and a shape-aware autotuner
(:mod:`~repro.simulator.kernels.autotune`) picking per-shape winners for
``make_engine("auto")``.  numba and CuPy are soft dependencies
throughout; everything degrades to the NumPy executor.
"""

from repro.simulator.kernels.backends import BACKENDS, reset_fallback_warnings
from repro.simulator.kernels.gpu_exec import cupy_available
from repro.simulator.kernels.ir import (
    InjectionTables,
    KernelProgram,
    SiteTable,
    lower_program,
    resolve_sites,
)
from repro.simulator.kernels.jit_exec import numba_available

__all__ = [
    "BACKENDS",
    "KernelProgram",
    "InjectionTables",
    "SiteTable",
    "lower_program",
    "resolve_sites",
    "numba_available",
    "cupy_available",
    "reset_fallback_warnings",
]
