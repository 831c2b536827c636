"""Workload inputs are a pure function of the seed."""

import pickle
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import workloads  # noqa: E402


def test_same_seed_gives_byte_identical_plans():
    for seed in (0, 1, 12345):
        assert pickle.dumps(workloads.lot_plan(seed)) == pickle.dumps(workloads.lot_plan(seed))
        assert pickle.dumps(workloads.deep_plan(seed)) == pickle.dumps(workloads.deep_plan(seed))
    assert workloads.lot_plan(1) != workloads.lot_plan(2)


def test_plans_visit_the_whole_pinned_pool():
    assert sorted(workloads.lot_plan(7)) == list(range(len(workloads.LOT_POOL)))
    assert sorted(workloads.deep_plan(7)) == list(range(len(workloads.DEEP_PATTERN_SEEDS)))


def test_deep_ops_cover_every_pattern_seed_of_every_netlist():
    plan = workloads.deep_plan(3)
    inputs = [workloads.deep_op_input(plan, i) for i in range(len(workloads.DEEP_PATTERN_SEEDS))]
    assert all(len(seeds) == len(workloads.DEEP_NETLISTS) for seeds in inputs)
    for netlist in range(len(workloads.DEEP_NETLISTS)):
        assert sorted(seeds[netlist] for seeds in inputs) == list(workloads.DEEP_PATTERN_SEEDS)


def test_every_seed_runs_the_same_mix_of_deep_ops():
    cycle = len(workloads.DEEP_PATTERN_SEEDS)
    mixes = {
        tuple(sorted(tuple(workloads.deep_op_input(workloads.deep_plan(seed), i)) for i in range(cycle)))
        for seed in range(5)
    }
    assert len(mixes) == 1


def test_same_seed_gives_byte_identical_generated_inputs():
    from repro.atpg.random_gen import random_patterns

    netlist = workloads.deep_netlist("syn4")
    again = workloads.deep_netlist("syn4")
    assert pickle.dumps(netlist.stats()) == pickle.dumps(again.stats())
    pattern_seed = workloads.deep_op_input(workloads.deep_plan(5), 1)[1]
    first = random_patterns(netlist, 64, seed=pattern_seed)
    assert pickle.dumps(first) == pickle.dumps(random_patterns(again, 64, seed=pattern_seed))


def test_serve_lots_uploads_every_fourth_transaction_from_its_own_lots():
    serve = workloads.ServeLots.__new__(workloads.ServeLots)
    serve.plan = workloads.lot_plan(9)
    uploads = [i for i in range(12) if serve.is_upload(i)]
    assert uploads == [3, 7, 11]
    upload_lots = {serve.pool_index(i) for i in uploads}
    assert upload_lots == set(serve.plan[-workloads.UPLOAD_LOTS:])
    fabricated = {serve.pool_index(i) for i in range(200) if not serve.is_upload(i)}
    assert not fabricated & upload_lots
    assert [serve.front_end(i) for i in range(4)] == ["server", "gateway", "router", "server"]
