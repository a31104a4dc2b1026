"""Command-line driver for the chaos nemesis.

Two subcommands::

    # soak: run N generated schedules per system; on failure, shrink and
    # write a repro artifact, then exit 1
    PYTHONPATH=src python -m repro.chaos soak --schedules 50 \\
        --systems cht,multipaxos --seed 0 --artifact chaos-repro.json

    # repro: replay an artifact; exit 0 iff the recorded failure reproduces
    PYTHONPATH=src python -m repro.chaos repro chaos-repro.json

Everything is deterministic for a fixed ``--seed``: the soak explores the
same schedules, fails the same way, and shrinks to the same artifact on
every run.  That determinism survives parallelism: each schedule's
verdict is a pure function of ``(system, seed, index)``, so the soak
fans whole runs (simulation *and* verification) over a process pool —
while schedule *k*'s history is being verified, later schedules are
already simulating on other workers — and consumes verdicts in index
order.  ``--workers 1`` forces the serial path; both paths render
byte-identical verdict streams.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional, Sequence

from ..analysis.parallel import default_workers, parallel_imap
from .generator import ScheduleGenerator
from .nemesis import SYSTEMS, NemesisResult, NemesisRunner
from .shrink import run_artifact, save_artifact, shrink

__all__ = ["main"]


def _build(
    system: str,
    n: int,
    clients: int,
    horizon: float,
    seed: int,
    ops_per_client: int = 6,
    bug: Optional[str] = None,
    groups: int = 2,
    handoffs: int = 1,
    durability: bool = False,
    num_leaseholders: int = 0,
) -> tuple[ScheduleGenerator, NemesisRunner]:
    """The schedule generator and nemesis runner of one soak config."""
    runner = NemesisRunner(
        system=system, n=n, num_clients=clients, seed=seed, horizon=horizon,
        ops_per_client=ops_per_client, bug=bug,
        groups=groups, handoffs=handoffs,
        durability=durability, num_leaseholders=num_leaseholders,
    )
    generator = ScheduleGenerator(
        n=n, num_clients=clients, horizon=horizon, seed=seed,
        durability=durability, num_leaseholders=num_leaseholders,
        leaseholder_base=runner.leaseholder_base,
    )
    return generator, runner


def _soak_cell(cell: dict[str, Any]) -> NemesisResult:
    """One soak cell: generate schedule ``cell["index"]`` and run it.

    ``cell`` holds the schedule ``index`` plus :func:`_build`'s keyword
    arguments.  Module-level (picklable) and self-contained so it
    executes identically in a forked worker and in the parent process.
    """
    config = dict(cell)
    index = config.pop("index")
    generator, runner = _build(**config)
    return runner.run(generator.generate(index))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="randomized fault-schedule soak testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    soak = sub.add_parser("soak", help="run generated schedules")
    soak.add_argument("--schedules", type=int, default=50,
                      help="schedules per system (default 50)")
    soak.add_argument("--systems", default="cht,multipaxos",
                      help=f"comma-separated subset of {','.join(SYSTEMS)}")
    soak.add_argument("--seed", type=int, default=0)
    soak.add_argument("--n", type=int, default=5, help="replicas")
    soak.add_argument("--clients", type=int, default=2)
    soak.add_argument("--ops-per-client", type=int, default=6)
    soak.add_argument("--horizon", type=float, default=2500.0)
    soak.add_argument("--bug", default=None,
                      help="plant a bug switch (e.g. skip_reply_cache)")
    soak.add_argument("--groups", type=int, default=2,
                      help="CHT groups per sharded run (system=sharded)")
    soak.add_argument("--handoffs", type=int, default=1,
                      help="fenced handoffs fired mid-schedule per "
                           "sharded run (system=sharded)")
    soak.add_argument("--durability", action="store_true",
                      help="attach in-sim durable storage to every CHT "
                           "replica and add crash-restart + storage-fault "
                           "windows to generated schedules (cht/sharded "
                           "systems only)")
    soak.add_argument("--leaseholders", type=int, default=0,
                      help="read-only leaseholders serving local reads "
                           "per CHT cluster (or per shard group); "
                           "schedules gain leaseholder crash/partition "
                           "faults (cht/sharded systems only)")
    soak.add_argument("--artifact", default="chaos-repro.json",
                      help="where to write the shrunken repro on failure")
    soak.add_argument("--shrink-budget", type=int, default=200)
    soak.add_argument("--workers", type=int, default=0,
                      help="worker processes for schedule fan-out "
                           "(0 = all CPUs, 1 = serial; verdicts are "
                           "identical either way)")

    repro = sub.add_parser("repro", help="replay a repro artifact")
    repro.add_argument("artifact")
    return parser


def _soak(args: argparse.Namespace) -> int:
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    for system in systems:
        if system not in SYSTEMS:
            print(f"unknown system {system!r}; pick from {SYSTEMS}")
            return 2
        if args.durability and system == "multipaxos":
            print(
                "--durability requires the CHT durable-storage seam; "
                "drop multipaxos from --systems"
            )
            return 2
        if args.leaseholders and system == "multipaxos":
            print(
                "--leaseholders requires the CHT lease machinery; "
                "drop multipaxos from --systems"
            )
            return 2
    started = time.time()
    workers = args.workers if args.workers > 0 else default_workers()
    total = 0
    total_ops = 0
    undecided = 0
    for system in systems:
        sys_undecided = 0
        config = dict(
            system=system, n=args.n, clients=args.clients,
            horizon=args.horizon, seed=args.seed,
            ops_per_client=args.ops_per_client, bug=args.bug,
            groups=args.groups, handoffs=args.handoffs,
            durability=args.durability, num_leaseholders=args.leaseholders,
        )
        cells = [
            dict(config, index=index) for index in range(args.schedules)
        ]
        # Stream verdicts in index order; workers simulate+verify ahead.
        # Breaking out on the first failure terminates outstanding work,
        # so the verdict stream is identical to a serial loop's.
        for index, result in enumerate(
            parallel_imap(_soak_cell, cells, workers=workers)
        ):
            total += 1
            total_ops += result.ops_completed
            if result.ok:
                continue
            if result.kind == "undecided":
                # Not a bug, not a pass: the checker gave up at its
                # budget.  Count it, report it, keep soaking.
                undecided += 1
                sys_undecided += 1
                print(
                    f"UNDECIDED system={system} seed={args.seed} "
                    f"schedule={index}\n  {result.detail}"
                )
                continue
            print(
                f"FAIL system={system} seed={args.seed} schedule={index} "
                f"kind={result.kind}\n  {result.detail}"
            )
            # Shrinking replays mutated schedules serially in this
            # process; rebuild the failing cell's generator and runner.
            generator, runner = _build(**config)
            schedule = generator.generate(index)
            print(
                f"shrinking ({schedule.fault_count()} fault entries)...",
                flush=True,
            )
            small, small_result = shrink(
                runner, schedule, result, budget=args.shrink_budget,
                on_progress=lambda msg: print(f"  {msg}"),
            )
            artifact = save_artifact(args.artifact, runner, small, small_result)
            print(
                f"shrunk to {artifact['logical_faults']} logical faults "
                f"({artifact['fault_count']} entries); artifact written to "
                f"{args.artifact}"
            )
            if artifact["metrics_path"]:
                print(f"metrics snapshot: {artifact['metrics_path']}")
            print(f"rerun: {artifact['command']}")
            return 1
        if sys_undecided:
            print(
                f"{system}: {args.schedules - sys_undecided}/"
                f"{args.schedules} schedules passed, {sys_undecided} "
                f"undecided (lin + invariants + liveness)"
            )
        else:
            print(
                f"{system}: {args.schedules} schedules passed "
                f"(lin + invariants + liveness)"
            )
    elapsed = time.time() - started
    # A schedule is one whole nemesis run; each drives many client ops.
    # Reporting both keeps the workload volume honest — 50 schedules at
    # 2 clients x 6 ops is 600 checked operations, not 50.
    suffix = f", {undecided} undecided" if undecided else ""
    print(
        f"soak passed: {total} schedules, {total_ops} client ops "
        f"in {elapsed:.1f}s ({workers} workers{suffix})"
    )
    return 0


def _repro(args: argparse.Namespace) -> int:
    reproduced, result = run_artifact(args.artifact)
    if reproduced:
        print(f"failure reproduced: kind={result.kind}\n  {result.detail}")
        return 0
    if result.ok:
        print("run passed — recorded failure did NOT reproduce")
    else:
        print(
            f"run failed with kind={result.kind}, not the recorded kind\n"
            f"  {result.detail}"
        )
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "soak":
        return _soak(args)
    return _repro(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
