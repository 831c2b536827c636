"""The benchmark's workloads: inputs from a seed, set-up, one op, checks.

Every workload draws its ops from a fixed pool of inputs whose outputs
are pinned in ``digests.json`` (see ``pin_digests.py``); the run seed
only chooses the order the pool is visited in.  So the same seed gives
byte-identical inputs, every run does the same kind of work, and every
op's output can be checked exactly.

A workload object has four parts that ``run.py`` calls:

* ``setup()`` builds everything up to the first timed op and returns a
  state object;
* ``op(state, i)`` runs op ``i`` and returns its outputs (timed);
* ``check(state, i, outputs)`` compares them with the pins (untimed)
  and returns ``(ok, extras)``;
* ``teardown(state)`` releases what ``setup`` opened.

``pids(state)`` names the processes doing the work, for peak memory and
for the leak check after teardown.  ``spans`` names the entry points
(as ``layers.py`` labels them) that every traced loop must reach.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

HERE = Path(__file__).resolve().parent
DIGESTS_PATH = HERE / "digests.json"

# Lot workloads: the canonical chip and recipe (repro.experiments.config),
# ~1,000-chip lots on 16-die wafers, one lot seed per pool entry.
LOT_CHIPS = 1000
DIES_PER_WAFER = 16
LOT_POOL = tuple(range(20_000, 20_032))
WARMUP_CHIPS = 64
WARMUP_LOT_SEED = 19_999

# deep_program: two deep netlists, fresh random patterns per op.
DEEP_NETLISTS = ("mult16", "syn4")
DEEP_PATTERNS = 256
DEEP_PATTERN_SEEDS = tuple(range(4))
DEEP_WARMUP_PATTERNS = 64
DEEP_WARMUP_SEED = 99
SYNTHETIC_SEED = 11

# serve_lots: every UPLOAD_EVERY-th transaction uploads a set-up lot.
UPLOAD_EVERY = 4
UPLOAD_LOTS = 2
FRONT_ENDS = ("server", "gateway", "router")
CLIENT_TIMEOUT_S = 60.0
MAX_HANDLES = 16


# ------------------------------------------------------------------ inputs


def lot_plan(seed: int) -> list[int]:
    """Pool indices of the lot ops, in the order seed ``seed`` visits them."""
    return [int(k) for k in np.random.default_rng(seed).permutation(len(LOT_POOL))]


def deep_plan(seed: int) -> list[int]:
    """Pattern-seed indices of the deep ops, in the order seed ``seed`` visits them.

    Both netlists of an op use the same index.  Op cost depends on the
    pattern seeds, so pairing them by seed would give each run a
    different mix of op costs and move its median with the seed.
    """
    return [int(k) for k in np.random.default_rng(seed).permutation(len(DEEP_PATTERN_SEEDS))]


def deep_netlist(name: str):
    """A fresh deep netlist (~1.4k gates for mult16, ~1k for syn4)."""
    from repro.circuit.generators import array_multiplier, synthetic_chip

    if name == "mult16":
        return array_multiplier(16)
    if name == "syn4":
        return synthetic_chip(scale=4, seed=SYNTHETIC_SEED, name="syn4")
    raise ValueError(f"unknown deep netlist {name!r}")


def deep_op_input(plan: list[int], i: int) -> list[int]:
    """Pattern seed per deep netlist (in ``DEEP_NETLISTS`` order) of deep op ``i``."""
    return [DEEP_PATTERN_SEEDS[plan[i % len(plan)]]] * len(DEEP_NETLISTS)


# ----------------------------------------------------------------- digests


def digest(array) -> str:
    """Short hash of an array's dtype and bytes."""
    array = np.ascontiguousarray(array)
    return hashlib.sha256(array.dtype.str.encode() + array.tobytes()).hexdigest()[:16]


def first_fail_vector(records) -> np.ndarray:
    """Each chip's first failing pattern index, -1 for a pass."""
    return np.array(
        [-1 if r.first_fail is None else r.first_fail for r in records],
        dtype=np.int32,
    )


def lot_digests(lot, result) -> dict[str, str]:
    """The pinned outputs of one lot op: fault counts and first-fail vector."""
    return {
        "fault_counts": digest(lot.fault_counts().astype(np.int64)),
        "first_fail": digest(first_fail_vector(result.records)),
    }


def program_digests(program) -> dict[str, Any]:
    """The pinned outputs of one deep op: coverage curve and universe size."""
    return {
        "coverage": digest(np.asarray(program.coverage_curve, dtype=np.float64)),
        "universe": int(program.universe_size),
    }


def load_digests() -> dict:
    with open(DIGESTS_PATH) as handle:
        return json.load(handle)


# ------------------------------------------------------------ lot workloads


def canonical():
    """The paper experiment's chip and process recipe (``repro.experiments.config``)."""
    from repro.experiments import config

    return config.make_chip(), config.make_recipe()


def canonical_patterns(chip):
    """The canonical 96 random patterns the lot workloads' program is built from."""
    from repro.atpg.random_gen import random_patterns
    from repro.experiments import config

    return random_patterns(chip, config.NUM_PATTERNS, seed=config.PATTERN_SEED)


@dataclass
class SessionState:
    session: Any
    chip: Any = None
    recipe: Any = None
    program: Any = None
    netlists: list = field(default_factory=list)


class LotPipeline:
    """Serial session: fabricate a ~1,000-chip lot, test it, fit ``n0``."""

    name = "lot_pipeline"
    workers = 1
    spans = (
        "api.fabricate", "api.test", "manufacturing.fabricate", "defects.draw_hits",
        "tester.test_lot", "simulator.run_batch", "core.estimate",
    )

    def __init__(self, seed: int):
        self.seed = seed
        self.plan = lot_plan(seed)
        self.pins = load_digests()["lots"]

    def traced_twin(self):
        """The same inputs on a 2-worker pool, for the traced ``runtime`` metrics."""
        return PoolLots(self.seed)

    def setup(self) -> SessionState:
        from repro.api import Session

        chip, recipe = canonical()
        session = Session(workers=self.workers)
        try:
            program = session.build_program(chip, canonical_patterns(chip))
            warm = session.fabricate(
                chip, recipe, WARMUP_CHIPS, dies_per_wafer=DIES_PER_WAFER,
                seed=WARMUP_LOT_SEED,
            )
            session.test(warm, program)
        except BaseException:
            session.close()
            raise
        return SessionState(session, chip, recipe, program)

    def pool_index(self, i: int) -> int:
        return self.plan[i % len(self.plan)]

    def work(self, i: int) -> int:
        return LOT_CHIPS

    def op(self, state: SessionState, i: int):
        from repro.core.estimation import estimate_n0_mle

        lot = state.session.fabricate(
            state.chip, state.recipe, LOT_CHIPS,
            dies_per_wafer=DIES_PER_WAFER, seed=LOT_POOL[self.pool_index(i)],
        )
        result = state.session.test(lot, state.program)
        n0 = estimate_n0_mle(result.coverage_points(), lot.empirical_yield(), len(lot))
        return lot, result, n0

    def check(self, state: SessionState, i: int, outputs) -> tuple[bool, dict]:
        lot, result, n0 = outputs
        k = self.pool_index(i)
        ok = (
            len(lot) == LOT_CHIPS
            and lot_digests(lot, result) == self.pins["ops"][k]
            and math.isfinite(n0)
            and n0 > 0
        )
        return ok, {"n0_abs_err": abs(n0 - lot.empirical_n0())}

    def pids(self, state: SessionState) -> list[int]:
        return [os.getpid()]

    def session_stats(self, state: SessionState) -> dict:
        return state.session.stats()

    def teardown(self, state: SessionState) -> None:
        state.session.close()


class PoolLots(LotPipeline):
    """``lot_pipeline``'s inputs through a 2-worker session pool."""

    name = "pool_lots"
    workers = 2
    # Fabrication and testing run in the untraced pool workers.
    spans = ("api.fabricate", "api.test", "runtime.map_shards", "core.estimate")

    def traced_twin(self):
        return None

    def pids(self, state: SessionState) -> list[int]:
        workers = state.session.executor.worker_stats()
        return [os.getpid(), *(worker["pid"] for worker in workers)]


# --------------------------------------------------------------- deep build


class DeepProgram:
    """Serial session: one op builds a program on each deep netlist from fresh patterns."""

    name = "deep_program"
    spans = (
        "api.build_program", "atpg.patterns", "circuit.fanout", "faults.universe",
        "faults.collapse", "faults.sim", "simulator.detect_block", "simulator.run_batch",
    )

    def __init__(self, seed: int):
        self.plan = deep_plan(seed)
        self.pins = load_digests()["deep"]

    def setup(self) -> SessionState:
        from repro.api import Session
        from repro.atpg.random_gen import random_patterns

        netlists = [deep_netlist(name) for name in DEEP_NETLISTS]
        session = Session(workers=1)
        try:
            for netlist in netlists:
                session.build_program(
                    netlist,
                    random_patterns(netlist, DEEP_WARMUP_PATTERNS, seed=DEEP_WARMUP_SEED),
                )
        except BaseException:
            session.close()
            raise
        return SessionState(session, netlists=netlists)

    def work(self, i: int) -> int:
        return sum(self.pins[name]["collapsed"] for name in DEEP_NETLISTS) * DEEP_PATTERNS

    def op(self, state: SessionState, i: int):
        from repro.atpg.random_gen import random_patterns

        return [
            state.session.build_program(
                netlist, random_patterns(netlist, DEEP_PATTERNS, seed=pattern_seed)
            )
            for netlist, pattern_seed in zip(state.netlists, deep_op_input(self.plan, i))
        ]

    def check(self, state: SessionState, i: int, programs) -> tuple[bool, dict]:
        expected = [
            self.pins[name]["ops"][DEEP_PATTERN_SEEDS.index(pattern_seed)]
            for name, pattern_seed in zip(DEEP_NETLISTS, deep_op_input(self.plan, i))
        ]
        return [program_digests(p) for p in programs] == expected, {}

    def pids(self, state: SessionState) -> list[int]:
        return [os.getpid()]

    def session_stats(self, state: SessionState) -> dict:
        return state.session.stats()

    def teardown(self, state: SessionState) -> None:
        state.session.close()


# ------------------------------------------------------------------ serving


@dataclass
class ServeState:
    processes: dict = field(default_factory=dict)
    clients: dict = field(default_factory=dict)
    programs: dict = field(default_factory=dict)
    chip: Any = None
    recipe: Any = None
    upload_lots: list = field(default_factory=list)
    session: Any = None  # in-process reference, traced pass only
    local_program: Any = None


class ServeLots:
    """One client rotating transactions over the TCP, HTTP and router fronts."""

    name = "serve_lots"
    spans = tuple(f"{key}.{call}" for key in FRONT_ENDS for call in ("fabricate", "test"))

    def __init__(self, seed: int):
        self.plan = lot_plan(seed)
        self.pins = load_digests()["lots"]
        # The in-process reference session is opened only for the traced
        # pass, where it also gives each transaction's transport cost.
        self.reference = False

    def front_end(self, i: int) -> str:
        return FRONT_ENDS[i % len(FRONT_ENDS)]

    def is_upload(self, i: int) -> bool:
        return i % UPLOAD_EVERY == UPLOAD_EVERY - 1

    def pool_index(self, i: int) -> int:
        if self.is_upload(i):
            return self.plan[-1 - (i // UPLOAD_EVERY) % UPLOAD_LOTS]
        return self.plan[i % (len(self.plan) - UPLOAD_LOTS)]

    def work(self, i: int) -> int:
        return LOT_CHIPS

    def setup(self) -> ServeState:
        from repro.api import Session
        from repro.gateway.client import GatewayClient
        from repro.server.client import Client
        from repro.testing import spawn_server

        state = ServeState()
        try:
            args = ("--port", 0, "--workers", 1, "--max-handles", MAX_HANDLES)
            spawned: dict = {}
            errors: list = []

            def spawn(key, **kwargs):
                try:
                    spawned[key] = spawn_server(*args, **kwargs)
                except BaseException as exc:  # re-raised below
                    errors.append(exc)

            threads = [
                threading.Thread(target=spawn, args=("server",)),
                threading.Thread(
                    target=spawn,
                    args=("gateway",),
                    kwargs=dict(
                        module="repro.gateway",
                        announce="repro-gateway listening on",
                    ),
                ),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            state.processes.update(spawned)
            if errors:
                raise errors[0]
            state.processes["router"] = spawn_server(
                "--port", 0, "--backend", state.processes["server"].address,
                module="repro.router", announce="repro-router listening on",
            )
            state.clients["server"] = Client(
                state.processes["server"].address, timeout=CLIENT_TIMEOUT_S
            )
            state.clients["gateway"] = GatewayClient(
                state.processes["gateway"].address, timeout=CLIENT_TIMEOUT_S
            )
            state.clients["router"] = Client(
                state.processes["router"].address, timeout=CLIENT_TIMEOUT_S
            )
            state.chip, state.recipe = canonical()
            patterns = canonical_patterns(state.chip)
            for key, client in state.clients.items():
                state.programs[key] = client.build_program(state.chip, patterns)
                warm = client.fabricate(
                    state.chip, state.recipe, WARMUP_CHIPS,
                    dies_per_wafer=DIES_PER_WAFER, seed=WARMUP_LOT_SEED,
                )
                client.test(warm, state.programs[key])
            with Session(workers=1) as session:
                state.upload_lots = [
                    session.fabricate(
                        state.chip, state.recipe, LOT_CHIPS,
                        dies_per_wafer=DIES_PER_WAFER,
                        seed=LOT_POOL[self.plan[-1 - j]],
                    )
                    for j in range(UPLOAD_LOTS)
                ]
            if self.reference:
                state.session = Session(workers=1)
                state.local_program = state.session.build_program(state.chip, patterns)
        except BaseException:
            self.teardown(state)
            raise
        return state

    def op(self, state: ServeState, i: int):
        key = self.front_end(i)
        client = state.clients[key]
        if self.is_upload(i):
            lot = state.upload_lots[(i // UPLOAD_EVERY) % UPLOAD_LOTS]
        else:
            lot = client.fabricate(
                state.chip, state.recipe, LOT_CHIPS,
                dies_per_wafer=DIES_PER_WAFER, seed=LOT_POOL[self.pool_index(i)],
            )
        return lot, client.test(lot, state.programs[key])

    def reference_op(self, state: ServeState, i: int):
        """The identical transaction on the in-process reference session."""
        lot = state.session.fabricate(
            state.chip, state.recipe, LOT_CHIPS,
            dies_per_wafer=DIES_PER_WAFER, seed=LOT_POOL[self.pool_index(i)],
        )
        return lot, state.session.test(lot, state.local_program)

    def check(self, state: ServeState, i: int, outputs) -> tuple[bool, dict]:
        lot, result = outputs
        ok = lot_digests(lot, result) == self.pins["ops"][self.pool_index(i)]
        return ok, {"front_end": self.front_end(i), "upload": self.is_upload(i)}

    def pids(self, state: ServeState) -> list[int]:
        from measure import descendants

        pids = []
        for process in state.processes.values():
            pids.append(process.pid)
            pids.extend(descendants(process.pid))
        return pids

    def front_end_stats(self, state: ServeState) -> dict:
        """Replay hits and rejections (overload + deadline) of the TCP and HTTP fronts.

        The router keeps no such counters; its requests land on the server's.
        """
        server = state.clients["server"].stats()["server"]
        gateway = state.clients["gateway"].stats()
        http = gateway["http"]
        return {
            "replay_hits": server["replay_hits"] + http["replay_hits"],
            "rejections": (
                server["overload_rejections"]
                + server["deadline_expirations"]
                + gateway["scheduler"]["overload_rejections"]
                + http["deadline_expirations"]
            ),
        }

    def teardown(self, state: ServeState) -> None:
        for client in state.clients.values():
            try:
                client.close()
            except Exception:  # the process stop below still runs
                pass
        for key in ("router", "gateway", "server"):
            process = state.processes.get(key)
            if process is not None:
                process.stop()
        if state.session is not None:
            state.session.close()


WORKLOADS = {
    cls.name: cls for cls in (LotPipeline, DeepProgram, ServeLots, PoolLots)
}
