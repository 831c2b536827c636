"""Run every experiment and print the paper-versus-measured report.

Installed as the ``repro-experiments`` console script::

    repro-experiments                        # run everything
    repro-experiments fig1 fig6              # run a subset
    repro-experiments --list                 # print the experiment names
    repro-experiments --output-dir results/  # also write one .txt each
    repro-experiments --engine batch-jit     # numba kernel backend
    repro-experiments --workers auto         # process-sharded Monte Carlo
    repro-experiments --server 127.0.0.1:7642  # run on a repro-server
    repro-experiments --server 127.0.0.1:7641  # on a repro-router federation
    repro-experiments --server http://127.0.0.1:8642  # on a repro-gateway

One :class:`repro.api.Session` carries the selected engine and worker
pool across every experiment of an invocation: each ``run(session=...)``
draws on the same persistent pool and compiled-circuit caches, so the
CLI is also the smallest demonstration of the session API.  With
``--server ADDR`` the experiments run on a remote
:class:`repro.server.LotServer` — or a :class:`repro.router.Router`
federation of them (same protocol; experiments shard across backends by
name), or, with an ``http(s)://`` address, a
:class:`repro.gateway.Gateway` — instead (which owns execution policy,
so ``--engine`` / ``--workers`` cannot be combined with it); reports
are bit-identical either way.  Unknown experiment names are rejected up
front (exit code 2, valid choices listed) before anything runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.api import Session, resolve_session
from repro.simulator import ENGINES
from repro.experiments import example, fig1, fig234, fig5, fig6, fineline, table1
from repro.runtime import resolve_workers

__all__ = ["main", "run_experiment", "EXPERIMENTS"]

EXPERIMENTS = {
    "fig1": (fig1.run, fig1.render),
    "fig234": (fig234.run, fig234.render),
    "fig5": (fig5.run, fig5.render),
    "fig6": (fig6.run, fig6.render),
    "table1": (table1.run, table1.render),
    "example": (example.run, example.render),
    "fineline": (fineline.run, fineline.render),
}


def run_experiment(
    name: str,
    *,
    session: Session | None = None,
    engine: str | None = None,
    workers: int | str | None = None,
) -> str:
    """Run one experiment by name and return its rendered report.

    ``session`` supplies execution policy — engine and worker pool — for
    the experiments that simulate (fig5, table1, example, fineline); the
    purely analytic ones accept and ignore it.  Every ``run`` takes the
    session directly, so there is no per-experiment kwarg sniffing.  The
    ``engine`` / ``workers`` kwargs are deprecated shims wrapping a
    throwaway session.
    """
    if name not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}"
        )
    run, render = EXPERIMENTS[name]
    with resolve_session(
        session, engine=engine, workers=workers, owner="run_experiment()"
    ) as session:
        return render(run(session=session))


def _parse_workers(value: str) -> int | str:
    """argparse type for ``--workers``: an integer >= 1 or ``auto``."""
    workers: int | str = value
    if value != "auto":
        try:
            workers = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"workers must be an integer >= 1 or 'auto', got {value!r}"
            ) from None
    try:
        resolve_workers(workers)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return workers


def main(argv: list[str] | None = None) -> int:
    """Console entry point."""
    parser = argparse.ArgumentParser(
        description=(
            "Regenerate the tables and figures of 'LSI Product Quality and "
            "Fault Coverage' (Agrawal, Seth & Agrawal, DAC 1981)."
        )
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"subset to run (default: all of {sorted(EXPERIMENTS)})",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="print the available experiment names and exit",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="also write each report to <dir>/<experiment>.txt",
    )
    parser.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default="batch",
        help=(
            "fault-simulation engine for the Monte-Carlo experiments "
            "(default: batch, the fault-parallel NumPy engine; "
            "'batch-jit'/'batch-gpu' run the kernel backends when "
            "numba/CuPy are installed, 'auto' picks per shape). Every "
            "engine gives bit-identical reports."
        ),
    )
    parser.add_argument(
        "--workers",
        type=_parse_workers,
        default=1,
        help=(
            "worker processes for the Monte-Carlo experiments: an integer "
            "or 'auto' (one per CPU). Default: 1, serial. Results are "
            "bit-identical at every worker count."
        ),
    )
    parser.add_argument(
        "--server",
        metavar="ADDR",
        default=None,
        help=(
            "run the experiments on a repro-server or repro-router at "
            "ADDR ('host:port', 'unix:/path', a comma-separated "
            "failover list, or an 'http://'/'https://' URL for a "
            "repro-gateway) instead of in-process; the server owns "
            "engine/workers policy, so this flag excludes --engine and "
            "--workers"
        ),
    )
    args = parser.parse_args(argv)
    if args.server is not None and (args.engine != "batch" or args.workers != 1):
        parser.error(
            "--server is mutually exclusive with --engine/--workers: "
            "execution policy belongs to the server (repro-server "
            "--engine ... --workers ...)"
        )
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    names = args.experiments or list(EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(repr(name) for name in unknown)}; "
            f"choose from {sorted(EXPERIMENTS)}",
            file=sys.stderr,
        )
        return 2
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)

    def report_all(run_one) -> None:
        for name in names:
            start = time.perf_counter()
            report = run_one(name)
            elapsed = time.perf_counter() - start
            banner = f"=== {name} ({elapsed:.1f}s) ==="
            print(banner)
            print(report)
            print()
            if args.output_dir is not None:
                (args.output_dir / f"{name}.txt").write_text(report + "\n")

    if args.server is not None:
        # Imported lazily so the in-process path never pays for it.  An
        # http(s):// address targets the HTTP/JSON gateway; anything else
        # keeps the original TCP/unix framed protocol.
        if args.server.startswith(("http://", "https://")):
            from repro.gateway import GatewayClient as Client
        else:
            from repro.server import Client

        with Client(args.server) as client:
            report_all(client.run_experiment)
    else:
        with Session(engine=args.engine, workers=args.workers) as session:
            report_all(lambda name: run_experiment(name, session=session))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
