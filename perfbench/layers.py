"""The traced pass: which entry points get spans, and the per-layer metrics.

Span names are ``<layer>.<entry point>``, with the layer named after the
``repro`` package it belongs to.  The layer → end-to-end map these
metrics serve is in this directory's README.
"""

from __future__ import annotations

from collections import defaultdict

from measure import median
from spans import Tracer, op_breakdown

LAYERS = (
    "circuit", "defects", "manufacturing", "faults", "simulator", "atpg",
    "tester", "core", "api", "runtime", "server", "gateway", "router",
)


def _count_collapsed(tracer, args, kwargs, classes):
    tracer.count("faults.collapsed", len(classes))


def _count_detections(tracer, args, kwargs, words):
    faults = args[3] if len(args) > 3 else kwargs["faults"]
    tracer.count("simulator.machine_evals", len(faults))
    tracer.count("simulator.first_detections", sum(1 for word in words if word))


def _count_fabricated(tracer, args, kwargs, lot):
    tracer.count("manufacturing.chips", len(lot))
    tracer.count("manufacturing.faults", int(lot.fault_counts().sum()))


def _count_tested(tracer, args, kwargs, records):
    tracer.count("tester.chips", len(records))


def install(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (undo with ``tracer.uninstall``)."""
    from repro.api.session import Session
    from repro.atpg.random_gen import random_patterns
    from repro.circuit.netlist import Netlist
    from repro.core.estimation import estimate_n0_mle
    from repro.defects.mapping import DefectToFaultMapper
    from repro.faults.collapse import equivalence_classes
    from repro.faults.fault_sim import FaultSimulator
    from repro.faults.model import full_fault_universe
    from repro.manufacturing.lot import fabricate_lot
    from repro.runtime.executor import ParallelExecutor
    from repro.simulator.batch_sim import BatchCompiledCircuit, BatchEngine
    from repro.tester.tester import WaferTester

    tracer.patch_method(Netlist, "fanout", "circuit.fanout")
    tracer.patch_function(full_fault_universe, "faults.universe")
    tracer.patch_function(equivalence_classes, "faults.collapse", _count_collapsed)
    tracer.patch_method(FaultSimulator, "run", "faults.sim")
    tracer.patch_method(BatchCompiledCircuit, "__init__", "simulator.compile")
    tracer.patch_method(BatchCompiledCircuit, "run_batch", "simulator.run_batch")
    tracer.patch_method(BatchEngine, "detect_block", "simulator.detect_block", _count_detections)
    tracer.patch_method(DefectToFaultMapper, "draw_hits", "defects.draw_hits")
    tracer.patch_function(fabricate_lot, "manufacturing.fabricate", _count_fabricated)
    tracer.patch_method(WaferTester, "test_lot", "tester.test_lot", _count_tested)
    tracer.patch_function(estimate_n0_mle, "core.estimate")
    tracer.patch_function(random_patterns, "atpg.patterns")
    for attr in ("fabricate", "build_program", "test"):
        tracer.patch_method(Session, attr, f"api.{attr}")
    tracer.patch_method(ParallelExecutor, "map_shards", "runtime.map_shards")


def install_clients(tracer: Tracer, clients: dict) -> None:
    """Span each front end's client calls under that front end's layer name."""
    for layer, client in clients.items():
        for attr in ("fabricate", "test"):
            tracer.patch_instance(client, attr, f"{layer}.{attr}")


def _stat_delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def per_layer_metrics(
    tracer: Tracer,
    records: list,
    stats_before: dict,
    stats_after: dict,
    serve: dict | None,
) -> tuple[dict, dict]:
    """``(metrics, detail)`` from one traced loop over ``records``.

    Span seconds are means per traced op; ``simulator.compile_s`` and
    ``simulator.compiles`` are totals over the traced set-up plus ops,
    since compiling belongs to set-up.  ``detail`` holds every layer's
    self time and every span's call count per op.  Per op, the layer self
    times plus ``unattributed_s`` equal the op's wall time by construction
    (see :func:`spans.op_breakdown`).
    """
    grouped = tracer.op_spans()
    ops = {record.index for record in records}
    n = max(1, len(ops))
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    unattributed = 0.0
    for op in ops:
        parts = op_breakdown(grouped.get(op, []))
        for name, value in parts["inclusive_s"].items():
            inclusive[name] += value
        for name, value in parts["calls"].items():
            calls[name] += value
        for layer, value in parts["self_s"].items():
            self_s[layer] += value
        unattributed += parts["unattributed_s"]
    counters: dict[str, float] = defaultdict(float)
    for (op, key), value in tracer.counters.items():
        if op in ops:
            counters[key] += value
    compile_spans = [
        end - start
        for name, start, end, op, _depth in tracer.spans()
        if name == "simulator.compile" and (op == -1 or op in ops)
    ]

    def per_op(value: float) -> float:
        return value / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "circuit.fanout_calls": per_op(calls["circuit.fanout"]),
        "circuit.fanout_s": per_op(inclusive["circuit.fanout"]),
        "faults.universe_s": per_op(inclusive["faults.universe"]),
        "faults.collapse_s": per_op(inclusive["faults.collapse"]),
        "faults.collapsed": ratio(counters["faults.collapsed"], calls["faults.collapse"]),
        "faults.sim_s": per_op(inclusive["faults.sim"]),
        "simulator.useful_machine_frac": ratio(
            counters["simulator.first_detections"], counters["simulator.machine_evals"]
        ),
        "simulator.compile_s": sum(compile_spans),
        "simulator.compiles": float(len(compile_spans)),
        "simulator.run_batch_s": per_op(inclusive["simulator.run_batch"]),
        "simulator.blocks": per_op(calls["simulator.run_batch"]),
        "defects.draw_hits_s": per_op(inclusive["defects.draw_hits"]),
        "manufacturing.fabricate_s": per_op(inclusive["manufacturing.fabricate"]),
        "manufacturing.chips_per_s": ratio(
            counters["manufacturing.chips"], inclusive["manufacturing.fabricate"]
        ),
        "manufacturing.faults_per_chip": ratio(
            counters["manufacturing.faults"], counters["manufacturing.chips"]
        ),
        "tester.test_lot_s": per_op(inclusive["tester.test_lot"]),
        "tester.chips_per_s": ratio(counters["tester.chips"], inclusive["tester.test_lot"]),
        "core.estimate_s": per_op(inclusive["core.estimate"]),
        "core.n0_abs_err": per_op(sum(r.extras.get("n0_abs_err", 0.0) for r in records)),
        "atpg.patterns_s": per_op(inclusive["atpg.patterns"]),
        "api.engine_compiles": float(stats_after.get("engine_compiles", 0)),
        "runtime.map_shards_s": per_op(inclusive["runtime.map_shards"]),
        "runtime.dispatches": per_op(_stat_delta(stats_after, stats_before, "dispatches")),
        "runtime.ipc_bytes_out": per_op(_stat_delta(stats_after, stats_before, "ipc_bytes_out")),
        "runtime.ipc_bytes_in": per_op(_stat_delta(stats_after, stats_before, "ipc_bytes_in")),
        "runtime.contexts_shipped": float(stats_after.get("contexts_shipped", 0)),
        "unattributed_s": per_op(unattributed),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = per_op(self_s.get(layer, 0.0))
    metrics.update(_serve_metrics(records, serve))
    detail = {
        "traced_ops": len(ops),
        "layer_self_s_per_op": {k: per_op(v) for k, v in sorted(self_s.items())},
        "span_calls_per_op": {k: per_op(v) for k, v in sorted(calls.items())},
    }
    return metrics, detail


def _serve_metrics(records: list, serve: dict | None) -> dict:
    """Front-end round trips, transport share and rejections (``serve_lots`` only)."""
    names = (
        "server.rt_p50_ms", "gateway.rt_p50_ms", "router.rt_p50_ms",
        "serve.upload_rt_p50_ms", "serve.transport_ms",
        "server.replay_hits", "serve.rejections",
    )
    if serve is None:
        return dict.fromkeys(names, 0.0)
    ok = [r for r in records if r.ok]

    def p50_ms(rows) -> float:
        return 1e3 * median([r.seconds for r in rows]) if rows else 0.0

    handle = [r for r in ok if not r.extras["upload"]]
    transport = [
        r.seconds - r.extras["reference_s"] for r in handle if "reference_s" in r.extras
    ]
    return {
        "server.rt_p50_ms": p50_ms([r for r in handle if r.extras["front_end"] == "server"]),
        "gateway.rt_p50_ms": p50_ms([r for r in handle if r.extras["front_end"] == "gateway"]),
        "router.rt_p50_ms": p50_ms([r for r in handle if r.extras["front_end"] == "router"]),
        "serve.upload_rt_p50_ms": p50_ms([r for r in ok if r.extras["upload"]]),
        "serve.transport_ms": 1e3 * median(transport) if transport else 0.0,
        "server.replay_hits": float(serve["replay_hits"]),
        "serve.rejections": float(serve["rejections"]),
    }
