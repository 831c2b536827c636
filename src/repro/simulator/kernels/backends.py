"""Backend selection for the batch circuit: names, availability, fallback.

:class:`~repro.simulator.batch_sim.BatchCompiledCircuit` runs its
lowered :class:`~repro.simulator.kernels.ir.KernelProgram` on one of
these backends:

* ``numpy`` — the preallocated transposed executor; always available,
  and the semantic baseline for everything faster (``engine="batch"``);
* ``jit`` — the numba row-parallel kernel (``engine="batch-jit"``);
* ``gpu`` — the CuPy single-launch CUDA kernel (``engine="batch-gpu"``);
* ``auto`` — per-shape autotuned choice among whichever of the above
  this process can actually run (``engine="auto"``, see
  :mod:`repro.simulator.kernels.autotune`).

Requesting ``jit``/``gpu`` where numba/CuPy is missing degrades to the
NumPy executor with a one-time warning — the engine keeps working and
keeps its name, so configs are portable across differently-provisioned
machines.  ``auto`` silently uses what exists; absence of an optional
accelerator is normal there, not warning-worthy.
"""

from __future__ import annotations

import warnings

from repro.simulator.kernels.gpu_exec import cupy_available
from repro.simulator.kernels.jit_exec import numba_available

__all__ = [
    "BACKENDS",
    "available_backends",
    "check_backend",
    "resolve_backend",
    "reset_fallback_warnings",
]

BACKENDS = ("numpy", "jit", "gpu", "auto")

_FALLBACK_WARNED: set[str] = set()


def reset_fallback_warnings() -> None:
    """Test hook: allow the one-time fallback warnings to fire again."""
    _FALLBACK_WARNED.clear()


def _warn_fallback(backend: str, message: str) -> None:
    if backend not in _FALLBACK_WARNED:
        _FALLBACK_WARNED.add(backend)
        warnings.warn(message, RuntimeWarning, stacklevel=4)


def check_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown kernel backend {backend!r}; "
            f"choose from {', '.join(BACKENDS)}"
        )


def resolve_backend(backend: str) -> str:
    """The backend that will actually run a requested one.

    ``jit``/``gpu`` without their accelerator fall back to ``numpy``
    (warning once per process); ``auto`` stays ``auto`` for the
    autotuner to settle per shape.
    """
    if backend == "jit" and not numba_available():
        _warn_fallback(
            "jit",
            "numba is not installed; engine 'batch-jit' is falling "
            "back to the NumPy kernel executor "
            "(install the 'jit' extra — pip install '.[jit]' — to "
            "enable it)",
        )
        return "numpy"
    if backend == "gpu" and not cupy_available():
        _warn_fallback(
            "gpu",
            "CuPy (or a CUDA device) is unavailable; engine "
            "'batch-gpu' is falling back to the NumPy kernel "
            "executor (install the 'gpu' extra — pip install "
            "'.[gpu]' — to enable it)",
        )
        return "numpy"
    return backend


def available_backends() -> list[str]:
    """Concrete backends this process can run, NumPy first."""
    names = ["numpy"]
    if numba_available():
        names.append("jit")
    if cupy_available():
        names.append("gpu")
    return names
