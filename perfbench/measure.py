"""Statistics, process inspection and run metadata for the benchmark.

Imports nothing from the program, so the self-tests run without it.
"""

from __future__ import annotations

import math
import os
import platform
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

MIN_BEYOND = 10  # samples a reported tail percentile must have above it
# reference_s() on the 2-CPU box the bounds were set on, so reference
# seconds read about like wall seconds there.
REFERENCE_S = 0.007


@dataclass
class OpRecord:
    """One timed op: latency, the work it completed, and whether it was right."""

    index: int
    seconds: float
    work: int
    ok: bool
    extras: dict = field(default_factory=dict)
    error: str | None = None
    speed_s: float = REFERENCE_S  # reference_s() read around the op

    @property
    def ref_seconds(self) -> float:
        return at_reference_speed(self.seconds, self.speed_s)


def reference_s() -> float:
    """Seconds for a fixed ~7 ms pure-Python loop: the machine's speed right now.

    The host this benchmark runs on changes speed by up to 2x over
    seconds to minutes.  Read right before and after a timed interval,
    this loop slows down with it, while a change to the program does not
    touch it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(50_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def at_reference_speed(seconds: float, speed_s: float) -> float:
    """``seconds`` measured while :func:`reference_s` read ``speed_s``, in reference seconds."""
    return seconds * REFERENCE_S / speed_s


def median(values) -> float:
    return float(statistics.median(values))


def tail_percentile(samples, q: float) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` with fewer than 10 samples beyond it.

    ``q`` is a fraction (0.9 for p90).  The rank is ``ceil(q * n)``, so
    ``n - rank`` samples lie beyond it; a tail percentile resting on
    fewer than :data:`MIN_BEYOND` of them is not reported.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    if len(ordered) - rank < MIN_BEYOND:
        return None
    return float(ordered[rank - 1])


def count_failures(records, leaks: int = 0) -> tuple[int, int]:
    """``(attempted, failed)``: failed ops plus leaked resources, at most all ops."""
    attempted = len(records)
    failed = sum(1 for record in records if not record.ok) + leaks
    return attempted, min(failed, attempted)


# -------------------------------------------------------------- processes


def _ppid_and_state(pid: int) -> tuple[int, str] | None:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    fields = text[text.rindex(")") + 2 :].split()
    return int(fields[1]), fields[0]


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (children, grandchildren, ...)."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            info = _ppid_and_state(int(entry))
            if info is not None and info[1] != "Z":
                children.setdefault(info[0], []).append(int(entry))
    found, frontier = [], [pid]
    while frontier:
        kids = children.get(frontier.pop(), [])
        found.extend(kids)
        frontier.extend(kids)
    return found


def alive(pid: int) -> bool:
    info = _ppid_and_state(pid)
    return info is not None and info[1] != "Z"


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, if one was started, and wait for it.

    A worker pool's shared memory starts the tracker as a child of this
    process; left alone it ends only after this process has exited.
    """
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        stop()


def reap_children(grace_s: float = 5.0) -> list[int]:
    """Kill every process still below this one and wait until each has ended.

    Returns the pids it had to kill: empty when teardown left nothing.
    """
    left = descendants(os.getpid())
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + grace_s
    for pid in left:
        while alive(pid) and time.monotonic() < deadline:
            time.sleep(0.01)
    # Collect the exit status of every child, killed or already dead.
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            if time.monotonic() >= deadline:
                break
            time.sleep(0.01)
    return left


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` in MiB; 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def shm_entries() -> set[str]:
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def leaks_after_teardown(pids, shm_before: set[str], grace_s: float = 2.0) -> list[str]:
    """Processes still alive and ``/dev/shm`` segments new since ``shm_before``."""
    deadline = time.monotonic() + grace_s
    survivors = sorted(set(pids) - {os.getpid()})
    while True:
        survivors = [pid for pid in survivors if alive(pid)]
        if not survivors or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    return [f"pid {pid}" for pid in survivors] + [
        f"/dev/shm/{name}" for name in sorted(shm_entries() - shm_before)
    ]


# --------------------------------------------------------------- metadata


def calibrate() -> float:
    """Seconds for a fixed pure-Python plus NumPy loop: a machine-speed reading."""
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    words = np.arange(1 << 16, dtype=np.uint64)
    for _ in range(200):
        words = words * np.uint64(6364136223846793005) + np.uint64(1442695040888963407)
        words ^= words >> np.uint64(29)
    return time.perf_counter() - start


def run_metadata(root: Path) -> dict:
    """Git sha, CPUs, Python/NumPy versions and load average at start."""
    import numpy as np

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }
