"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload lot_pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: the median of several
fresh set-ups, then a closed loop of ops for ``--seconds``.  Their times
are in reference seconds: every set-up and op is bracketed by readings
of a fixed reference loop and scaled to the speed at which that loop
takes ``measure.REFERENCE_S``, so the host's speed swings cancel out;
the wall-clock figures are kept in the record.  ``--trace 1``
is the separate traced pass: one traced set-up, an untraced loop and a
traced loop over the same ops (half the seconds each), giving the
per-layer metrics and the tracing overhead.  Every op's output is
checked against the pins in ``digests.json``; a mismatch, an exception
or a leak left after teardown counts as a failed op.  A traced pass in
which an entry point the workload must reach recorded no span is not
correct.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries the run metadata, and the full record (with
the spans of a traced pass) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Fresh set-ups per untraced run, half before the timed loop and as many
# again after it, so setup_s (their median) samples the machine at both
# ends of the run: at least MIN_SETUPS before, more while they add up to
# under SETUP_BUDGET_S, at most MAX_SETUPS.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 2, 5, 1.0
OP_TIMEOUT_S = 30.0
REPLAYS = 12  # traced serve_lots transactions replayed in-process
MAX_ERRORS_KEPT = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_loop(workload, state, seconds, tracer=None):
    """Closed loop, one op in flight, ops ``0, 1, ...`` until ``seconds`` pass."""
    from measure import OpRecord, reference_s

    records = []
    deadline = time.perf_counter() + seconds
    i = 0
    before = reference_s()
    while True:
        root = tracer.begin_op(i) if tracer is not None else None
        start = time.perf_counter()
        error = None
        try:
            outputs = workload.op(state, i)
        except Exception as exc:  # a failed op is counted, never fatal
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
            tracer.op = -2  # the benchmark's checks are not the op's
        after = reference_s()
        ok, extras = False, {}
        if error is None:
            try:
                ok, extras = workload.check(state, i, outputs)
                if not ok:
                    error = "output differs from the pinned digest"
                elif elapsed > OP_TIMEOUT_S:
                    ok, error = False, f"timed out ({elapsed:.1f} s)"
            except Exception as exc:
                ok, error = False, f"check raised {type(exc).__name__}: {exc}"
        records.append(OpRecord(
            i, elapsed, workload.work(i) if ok else 0, ok, extras, error, (before + after) / 2
        ))
        before = after
        i += 1
        if time.perf_counter() >= deadline:
            return records


def replay_in_process(workload, state, records):
    """Time the first checked transactions again on the in-process session.

    Both copies must match the same pinned digest, so they match each
    other; the time difference is the transaction's transport cost.
    """
    replayable = [r for r in records if r.ok and not r.extras["upload"]]
    for record in replayable[:REPLAYS]:
        start = time.perf_counter()
        outputs = workload.reference_op(state, record.index)
        record.extras["reference_s"] = time.perf_counter() - start
        if not workload.check(state, record.index, outputs)[0]:
            record.ok, record.work = False, 0
            record.error = "differs from the in-process session"


def time_metrics(records, setups, seconds_of):
    """``setup_s``, ``work_per_s`` and ``op_p50_ms`` with times read by ``seconds_of``."""
    from measure import median

    # One op shape per latency metric: serve_lots uploads are left out.
    shaped = [seconds_of(r) for r in records if r.ok and not r.extras.get("upload")]
    return {
        "setup_s": median([seconds_of(s) for s in setups]),
        "work_per_s": sum(r.work for r in records) / sum(seconds_of(r) for r in records),
        "op_p50_ms": 1e3 * median(shaped) if shaped else 0.0,
    }, shaped


def end_to_end(records, setups, rss_mb):
    """The gated metrics in reference seconds, and a detail dict.

    The detail holds ``op_p90_ms`` (reference seconds; ``None`` when the
    run holds too few ops) and the time metrics in wall seconds.
    """
    from measure import tail_percentile

    metrics, shaped = time_metrics(records, setups, lambda r: r.ref_seconds)
    metrics["peak_rss_mb"] = rss_mb
    p90 = tail_percentile(shaped, 0.9)
    wall, _ = time_metrics(records, setups, lambda r: r.seconds)
    return metrics, {
        "op_p90_ms": None if p90 is None else 1e3 * p90,
        "samples": len(shaped),
        "wall": wall,
    }


def timed_setup(workload, setups):
    """Set up once; append its timing, as an op record, to ``setups``."""
    from measure import OpRecord, reference_s

    before = reference_s()
    start = time.perf_counter()
    state = workload.setup()
    elapsed = time.perf_counter() - start
    setups.append(OpRecord(-1, elapsed, 0, True, speed_s=(before + reference_s()) / 2))
    return state


def untraced_run(workload, seconds):
    """Fresh set-ups (the last kept for the loop), the timed loop, more set-ups."""
    from measure import vmhwm_mb

    setups, pids, state = [], [], None
    try:
        while len(setups) < MIN_SETUPS or (
            len(setups) < MAX_SETUPS and sum(s.seconds for s in setups) < SETUP_BUDGET_S
        ):
            if state is not None:
                pids.extend(workload.pids(state))
                workload.teardown(state)
                state = None
            state = timed_setup(workload, setups)
        records = run_loop(workload, state, seconds)
        work_pids = workload.pids(state)
        rss_mb = sum(vmhwm_mb(pid) for pid in work_pids)
        pids.extend(work_pids)
        for _ in range(len(setups)):
            workload.teardown(state)
            state = None
            state = timed_setup(workload, setups)
            pids.extend(workload.pids(state))
    finally:
        if state is not None:
            workload.teardown(state)
    metrics, detail = end_to_end(records, setups, rss_mb)
    detail["setup_wall_s"] = [s.seconds for s in setups]
    return records, metrics, pids, detail


def traced_pass(workload, seconds, spans_path, compare_untraced):
    """Traced set-up; an untraced loop if asked; a traced loop over the same ops."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    reference = hasattr(workload, "reference_op")
    if reference:
        workload.reference = True
    layers.install(tracer)
    try:
        state = workload.setup()
    finally:
        tracer.uninstall()
    untraced = []
    try:
        if compare_untraced:
            untraced = run_loop(workload, state, seconds)
        stats_before = _session_stats(workload, state)
        layers.install(tracer)
        if hasattr(state, "clients"):
            layers.install_clients(tracer, state.clients)
        try:
            traced = run_loop(workload, state, seconds, tracer)
        finally:
            tracer.uninstall()
        if reference:
            replay_in_process(workload, state, traced)
        stats_after = _session_stats(workload, state)
        serve = workload.front_end_stats(state) if reference else None
        pids = workload.pids(state)
    finally:
        workload.teardown(state)
    metrics, detail = layers.per_layer_metrics(tracer, traced, stats_before, stats_after, serve)
    detail["missing_spans"] = [
        name for name in workload.spans if name not in detail["span_calls_per_op"]
    ]
    tracer.save(spans_path)
    return untraced, traced, metrics, pids, detail


def traced_run(workload, seconds, stem):
    """The per-layer pass: half the seconds untraced, half traced.

    A workload with a ``traced_twin`` (``lot_pipeline``) also runs the
    twin (the same inputs on a 2-worker pool) traced for a quarter of
    the seconds, and takes the ``runtime.*`` metrics from it.
    """

    def rate(records):
        return sum(r.work for r in records) / sum(r.ref_seconds for r in records)

    untraced, traced, metrics, pids, detail = traced_pass(
        workload, seconds / 2, OUT_DIR / f"{stem}-spans.npz", True
    )
    metrics["trace.overhead_frac"] = 1.0 - rate(traced) / rate(untraced)
    records = untraced + traced
    twin = workload.traced_twin() if hasattr(workload, "traced_twin") else None
    if twin is not None:
        _, twin_traced, twin_metrics, twin_pids, twin_detail = traced_pass(
            twin, seconds / 4, OUT_DIR / f"{stem}-{twin.name}-spans.npz", False
        )
        # runtime.self_s stays the main pass's, so the printed layer self
        # times still partition that pass's op wall time.
        metrics.update({
            k: v for k, v in twin_metrics.items()
            if k.startswith("runtime.") and k != "runtime.self_s"
        })
        records += twin_traced
        pids += twin_pids
        detail["runtime_from"] = {"workload": twin.name, **twin_detail}
        detail["missing_spans"] += twin_detail["missing_spans"]
    detail["untraced_ops"] = len(untraced)
    return records, metrics, pids, detail


def _session_stats(workload, state):
    return workload.session_stats(state) if hasattr(workload, "session_stats") else {}


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {src}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from measure import reap_children, stop_resource_tracker
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    # A SIGTERM unwinds like an exception, so every teardown still runs.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return measure_and_report(args, WORKLOADS[args.workload](args.seed))
    finally:
        # Nothing this run started may outlive it, on any path out.
        stop_resource_tracker()
        reap_children()


def measure_and_report(args, workload) -> int:
    """Run ``workload`` as ``args`` ask, check it and print the result line."""
    from measure import calibrate, count_failures, leaks_after_teardown
    from measure import reap_children, run_metadata, shm_entries, stop_resource_tracker

    meta = run_metadata(ROOT)
    calibrate()  # first call pays one-time NumPy set-up
    meta["calibration_start_s"] = calibrate()
    shm_before = shm_entries()
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}"
    if args.trace:
        records, metrics, pids, detail = traced_run(workload, args.seconds, stem)
    else:
        records, metrics, pids, detail = untraced_run(workload, args.seconds)
    leaks = leaks_after_teardown(pids, shm_before)
    stop_resource_tracker()
    leaks += [f"stray pid {pid}" for pid in reap_children()]
    meta["calibration_end_s"] = calibrate()
    attempted, failed = count_failures(records, len(leaks))
    correct = failed == 0
    if args.trace:
        metrics["fail_frac"] = failed / attempted
        correct = correct and not detail["missing_spans"]
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "meta": meta,
        "metrics": metrics,
        "ops": len(records),
        "op_ms": [round(1e3 * r.seconds, 3) for r in records],
        "speed_ms": [round(1e3 * r.speed_s, 3) for r in records],
        "leaks": leaks,
        "errors": [f"op {r.index}: {r.error}" for r in records if r.error][:MAX_ERRORS_KEPT],
        "detail": detail,
    }
    with open(OUT_DIR / f"{stem}.json", "w") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"meta": meta, "ops": len(records), "leaks": leaks,
                      "errors": record["errors"], "op_p90_ms": detail.get("op_p90_ms"),
                      "wall": detail.get("wall"), "missing_spans": detail.get("missing_spans")}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
