"""Deterministic fault injection: schedules, injection points, accounting.

The resilience layer (executor watchdog + quarantine, server deadlines +
drain + backpressure, client retry/reconnect) is only trustworthy if its
failure paths are *exercised*, mechanically, on every change.  This
module is the lever: named **injection points** threaded through the
runtime call :func:`fire`, and an installed :class:`ChaosSchedule`
decides — deterministically — which calls blow up and how.

Determinism has two halves:

* **Matching** is structural, not probabilistic: a :class:`Fault` names
  its injection ``point`` and optionally the call-site ``index`` (e.g.
  the shard index a pool worker is about to run), so "kill the worker
  that picks up shard 2" means exactly that, on every run.
* **Budgets survive process death.**  A fault fires at most ``times``
  times *across every process sharing the schedule* — workers are
  forked, killed, and respawned mid-test, so in-memory counters cannot
  work.  Each firing atomically claims a marker file in the schedule's
  ``state_dir`` (``O_CREAT | O_EXCL``); a respawned worker inherits the
  directory and sees the budget already spent.  The marker files double
  as the injection record: :meth:`ChaosSchedule.injection_counts` reads
  them back, which is how tests assert "the fault really fired" and how
  :meth:`repro.api.Session.stats` reports ``chaos_injections``.

Schedules travel as compact string **specs** (see :meth:`ChaosSchedule.
spec`) so they fit in the ``REPRO_CHAOS`` environment variable::

    REPRO_CHAOS="kill@executor.shard:2*1;delay@server.job=0.25*3"

means "SIGKILL the worker the first time shard 2 is dispatched" and
"sleep ~0.25 s in the next three pipeline jobs".  Forked pool workers
inherit the installed schedule (and the env var) from the coordinator,
so one ``install()`` covers the whole process tree.

Injection points and the actions each supports:

=================  ======================================  =================
point              where it fires                          typical actions
=================  ======================================  =================
``executor.shard`` pool worker, about to run shard         ``kill``, ``hang``,
                   ``index``                               ``fail``
``wire.shm_attach`` attaching a shared-memory segment      ``fail``
``server.job``     scheduler lane thread (server and       ``delay``
                   gateway), about to run a pipeline job
``server.reply``   server event loop, about to write a     ``truncate``,
                   reply frame                             ``reset``, ``delay``
``client.send``    client, about to send a request frame   ``reset``
``router.forward`` router, about to forward a request to   ``reset``, ``fail``,
                   backend ``index``                       ``delay``
``router.backend`` backend lane thread (``backend_id`` =   ``kill``, ``hang``,
                   ``index``), about to run a routed job   ``fail``
=================  ======================================  =================

``kill`` / ``hang`` / ``fail`` / ``delay`` are performed by the harness
itself (SIGKILL self, sleep, raise :class:`InjectedFault`, sleep with
seeded jitter).  ``reset`` and ``truncate`` need the call site's socket,
so :func:`fire` *returns* the claimed :class:`Fault` and the call site
applies the effect — as does any action listed in ``defer`` (an async
call site defers ``delay`` so it can ``await`` instead of blocking the
event loop).

Every fault here models a failure the production stack must absorb with
**bit-identical results** — degraded never means wrong.  The seeded
end-to-end proof lives in ``tests/test_chaos.py``.
"""

from __future__ import annotations

import hashlib
import os
import signal
import tempfile
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

__all__ = [
    "ACTIONS",
    "POINTS",
    "ChaosSchedule",
    "Fault",
    "InjectedFault",
    "active",
    "active_schedule",
    "enabled",
    "fire",
    "install",
    "uninstall",
]

ENV_VAR = "REPRO_CHAOS"

ACTIONS = frozenset({"kill", "hang", "fail", "delay", "reset", "truncate"})

POINTS = frozenset(
    {
        "executor.shard",
        "wire.shm_attach",
        "server.job",
        "server.reply",
        "client.send",
        "router.forward",
        "router.backend",
    }
)

# Actions fire() always returns to the call site (the harness has no
# access to the socket it is supposed to cut).
_CALL_SITE_ACTIONS = frozenset({"reset", "truncate"})

# Unlimited faults (times=-1) still record firings, up to this many
# marker files — purely bookkeeping, never a firing bound.
_UNLIMITED_RECORD_CAP = 4096


class InjectedFault(RuntimeError):
    """The exception a ``fail`` action raises at its injection point."""


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: where, what, when, and how often.

    ``point``
        Injection-point name (one of :data:`POINTS`).
    ``action``
        What happens (one of :data:`ACTIONS`).
    ``index``
        Fire only when the call site reports this index (e.g. a shard
        index); ``None`` matches any call.
    ``times``
        Total firings across every process sharing the schedule;
        ``-1`` means unlimited (the poison-shard shape).
    ``value``
        Action parameter: seconds for ``hang``/``delay``, bytes before
        the cut for ``reset``.
    """

    point: str
    action: str
    index: int | None = None
    times: int = 1
    value: float | None = None
    # State-file prefix; assigned by the owning ChaosSchedule so it is
    # stable across processes parsing the same spec.
    key: str = ""

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r}; choose from {sorted(ACTIONS)}"
            )
        if self.point not in POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; choose from {sorted(POINTS)}"
            )
        if self.times == 0 or self.times < -1:
            raise ValueError(f"times must be >= 1 or -1 (unlimited), got {self.times}")

    def to_spec(self) -> str:
        """This fault's entry in the compact ``REPRO_CHAOS`` grammar."""
        text = f"{self.action}@{self.point}"
        if self.index is not None:
            text += f":{self.index}"
        if self.value is not None:
            text += f"={self.value:g}"
        if self.times != 1:
            text += f"*{self.times}"
        return text

    @classmethod
    def from_spec(cls, text: str) -> "Fault":
        """Parse one ``action@point[:index][=value][*times]`` entry."""
        body = text.strip()
        times = 1
        if "*" in body:
            body, _, times_text = body.rpartition("*")
            times = int(times_text)
        value = None
        if "=" in body:
            body, _, value_text = body.partition("=")
            value = float(value_text)
        action, sep, point = body.partition("@")
        if not sep or not action or not point:
            raise ValueError(f"malformed chaos fault spec {text!r}")
        index = None
        head, sep, index_text = point.rpartition(":")
        if sep:
            point = head
            index = int(index_text)
        return cls(point=point, action=action, index=index, times=times, value=value)


class ChaosSchedule:
    """An ordered set of faults plus the shared cross-process state dir.

    Parameters
    ----------
    faults:
        :class:`Fault` instances, matched in order at each injection
        point (the first matching fault with remaining budget fires).
    seed:
        Seeds the deterministic jitter applied to ``delay`` values; two
        runs with the same schedule sleep the same amounts.
    state_dir:
        Directory for the atomic firing markers.  Defaults to a fresh
        temp directory; pass an existing one to *resume* accounting
        (e.g. across a coordinator restart).
    """

    def __init__(
        self,
        faults: Iterable[Fault],
        seed: int = 0,
        state_dir: str | None = None,
    ):
        keyed = []
        for i, fault in enumerate(faults):
            keyed.append(replace(fault, key=f"f{i:02d}-{fault.action}"))
        self.faults: tuple[Fault, ...] = tuple(keyed)
        self.seed = int(seed)
        if state_dir is None:
            state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        else:
            os.makedirs(state_dir, exist_ok=True)
        self.state_dir = state_dir

    # ------------------------------------------------------------- spec I/O

    def spec(self) -> str:
        """Serialize to the ``REPRO_CHAOS`` string form (round-trips)."""
        parts = [f"dir={self.state_dir}", f"seed={self.seed}"]
        parts.extend(fault.to_spec() for fault in self.faults)
        return ";".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosSchedule":
        """Parse a :meth:`spec` string (the ``REPRO_CHAOS`` env format)."""
        faults: list[Fault] = []
        seed = 0
        state_dir = None
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("dir="):
                state_dir = entry[len("dir="):]
            elif entry.startswith("seed="):
                seed = int(entry[len("seed="):])
            else:
                faults.append(Fault.from_spec(entry))
        return cls(faults, seed=seed, state_dir=state_dir)

    # ---------------------------------------------------------- accounting

    def injection_counts(self) -> Counter:
        """Firings per fault key, read back from the marker files."""
        counts: Counter = Counter()
        try:
            names = os.listdir(self.state_dir)
        except OSError:
            return counts
        for name in names:
            key, sep, serial = name.rpartition(".")
            if sep and serial.isdigit():
                counts[key] += 1
        return counts

    def total_injections(self) -> int:
        """Total recorded firings across every fault and process."""
        return sum(self.injection_counts().values())


# ------------------------------------------------------------- active state

_ACTIVE: ChaosSchedule | None = None


def install(schedule: ChaosSchedule) -> ChaosSchedule:
    """Make ``schedule`` the process-wide active schedule.

    Also exports it via :data:`ENV_VAR` so subprocesses (and pool
    workers under the ``spawn`` start method) pick it up; forked workers
    inherit the in-memory schedule directly.
    """
    global _ACTIVE
    _ACTIVE = schedule
    os.environ[ENV_VAR] = schedule.spec()
    return schedule


def uninstall() -> None:
    """Clear the active schedule (and the env export).  Idempotent."""
    global _ACTIVE
    _ACTIVE = None
    os.environ.pop(ENV_VAR, None)


def active_schedule() -> ChaosSchedule | None:
    """The active schedule, lazily parsed from ``REPRO_CHAOS`` if needed."""
    global _ACTIVE
    if _ACTIVE is not None:
        return _ACTIVE
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    _ACTIVE = ChaosSchedule.from_spec(spec)
    return _ACTIVE


def enabled() -> bool:
    """Cheap guard: is any schedule active in this process?"""
    return _ACTIVE is not None or bool(os.environ.get(ENV_VAR))


@contextmanager
def active(schedule: ChaosSchedule) -> Iterator[ChaosSchedule]:
    """``with chaos.active(schedule):`` — install, then always uninstall."""
    install(schedule)
    try:
        yield schedule
    finally:
        uninstall()


# ------------------------------------------------------------------- firing


def _claim(schedule: ChaosSchedule, fault: Fault) -> bool:
    """Atomically claim one firing of ``fault``; False when budget spent.

    ``O_CREAT | O_EXCL`` marker files make the claim race-free across
    processes *and* durable across worker death — the whole reason kill
    faults terminate (the respawned worker finds the budget spent)
    instead of looping forever.  Unlimited faults always fire but still
    record markers (up to a bookkeeping cap).
    """
    limit = fault.times if fault.times >= 0 else _UNLIMITED_RECORD_CAP
    for serial in range(limit):
        path = os.path.join(schedule.state_dir, f"{fault.key}.{serial}")
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue
        except OSError:
            # State dir unusable: never fire a *bounded* fault without a
            # claim (it could loop forever); unlimited faults fire anyway.
            return fault.times < 0
        os.close(fd)
        return True
    return fault.times < 0


def _jittered_delay(schedule: ChaosSchedule, fault: Fault) -> float:
    """A delay in [0.75v, 1.25v], deterministic in (seed, fault key)."""
    base = fault.value if fault.value is not None else 0.1
    digest = hashlib.sha256(
        f"{schedule.seed}:{fault.key}".encode("ascii")
    ).digest()
    unit = int.from_bytes(digest[:8], "big") / 2**64
    return base * (0.75 + 0.5 * unit)


def _perform(schedule: ChaosSchedule, fault: Fault) -> None:
    if fault.action == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
    elif fault.action == "hang":
        time.sleep(fault.value if fault.value is not None else 3600.0)
    elif fault.action == "delay":
        time.sleep(_jittered_delay(schedule, fault))
    elif fault.action == "fail":
        raise InjectedFault(f"injected failure at {fault.point}")


def fire(point: str, index: int | None = None, defer: tuple = ()) -> Fault | None:
    """Consult the active schedule at injection point ``point``.

    Returns ``None`` when nothing fires (the overwhelmingly common case:
    one env-dict lookup when no schedule is installed).  When a fault
    with remaining budget matches, the harness performs ``kill`` /
    ``hang`` / ``delay`` itself and raises :class:`InjectedFault` for
    ``fail``; ``reset`` / ``truncate`` — and any action named in
    ``defer`` — are *returned* for the call site to apply.
    """
    if _ACTIVE is None and ENV_VAR not in os.environ:
        return None
    schedule = active_schedule()
    if schedule is None:
        return None
    for fault in schedule.faults:
        if fault.point != point:
            continue
        if fault.index is not None and fault.index != index:
            continue
        if not _claim(schedule, fault):
            continue
        if fault.action in _CALL_SITE_ACTIONS or fault.action in defer:
            return fault
        _perform(schedule, fault)
        return None
    return None
