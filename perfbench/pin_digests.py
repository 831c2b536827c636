"""Regenerate ``digests.json``: the pinned outputs every benchmark op is checked against.

The pins come from the ``compiled`` engine, the scalar reference the
batch engines are proven bit-identical to, so a benchmark run on the
default ``batch`` engine checks itself against an independent oracle.
Run from the repository root (takes ~15 minutes on one core)::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as w  # noqa: E402


def main() -> int:
    from repro.api import Session
    from repro.atpg.random_gen import random_patterns
    from repro.faults.collapse import equivalence_classes

    with Session(engine="compiled", workers=1) as session:
        chip, recipe = w.canonical()
        program = session.build_program(chip, w.canonical_patterns(chip))
        lots = []
        for lot_seed in w.LOT_POOL:
            lot = session.fabricate(
                chip, recipe, w.LOT_CHIPS, dies_per_wafer=w.DIES_PER_WAFER, seed=lot_seed
            )
            lots.append(w.lot_digests(lot, session.test(lot, program)))
            print(f"lot {lot_seed}: {lots[-1]}", flush=True)
        deep = {}
        for name in w.DEEP_NETLISTS:
            netlist = w.deep_netlist(name)
            ops = []
            for pattern_seed in w.DEEP_PATTERN_SEEDS:
                patterns = random_patterns(netlist, w.DEEP_PATTERNS, seed=pattern_seed)
                ops.append(w.program_digests(session.build_program(netlist, patterns)))
                print(f"{name} patterns {pattern_seed}: {ops[-1]}", flush=True)
            deep[name] = {
                "collapsed": len(equivalence_classes(netlist)),
                "ops": ops,
            }
    pins = {
        "engine": "compiled",
        "lots": {"lot_seeds": list(w.LOT_POOL), "ops": lots},
        "deep": deep,
    }
    with open(w.DIGESTS_PATH, "w") as handle:
        json.dump(pins, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
