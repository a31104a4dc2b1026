"""The CHT benchmark: one command, three workloads, named metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim-reads --seed 1 --seconds 20 --trace 0

Workloads (see each module's docstring for what it runs and why):

- ``sim-reads``  (``sim_reads.py``): local read path, open loop.
- ``sim-writes`` (``sim_writes.py``): sharded commit pipeline, closed
  loop, with a leader crash and WAL recovery in every round.
- ``net-kv``     (``net_kv.py``): real processes over loopback TCP,
  open loop, with the leader SIGKILLed mid-schedule.

A run repeats fresh rounds, each seeded from ``--seed`` and its index,
until ``--seconds`` of measured wall time have passed, traced and
untraced passes together (net-kv splits ``--seconds`` over a fixed
number of rounds).  Set-up and the
correctness check of each round are timed apart from the measured
window.  Every round is checked; any failed check makes ``correct``
false and the exit code 1.

With ``--trace 0`` the result line carries the end-to-end metrics of
``metrics.END_TO_END``; with ``--trace 1`` each round is run twice,
untraced then traced, and the line carries ``metrics.PER_LAYER``.  The
last line of standard output is always the JSON result.  ``--save``
also writes it, with the machine fingerprint, to
``perfbench/results/<workload>.<e2e|layers>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-reads", "sim-writes", "net-kv")
#: net-kv rounds per run (each launches a fresh cluster).
NET_ROUNDS = 8


def round_seed(seed: int, index: int) -> int:
    """The seed of round ``index`` of a run seeded with ``seed``."""
    return random.Random(f"{seed}/{index}").getrandbits(31)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", action="store_true",
                        help="also write the result under perfbench/results/")
    return parser.parse_args(argv)


def load_program():
    """Import the program from this checkout's ``src``; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"error: imported repro from {repro.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)


def run_sim(module, seed: int, seconds: float, trace: bool):
    from common import Tally
    from layers import LayerProfile

    tally = Tally()
    overhead = []
    spent = 0.0  # measured wall of every pass, traced or not
    index = 0
    while index == 0 or spent < seconds:
        rs = round_seed(seed, index)
        try:
            if trace:
                base = module.run_round(rs, Tally())
                traced = module.run_round(rs, tally, LayerProfile())
                overhead.append(traced / base)
                spent += base + traced
            else:
                spent += module.run_round(rs, tally)
        except AssertionError as exc:  # an online monitor fired
            tally.violations.append(f"round seed {rs}: {exc!r}")
            break
        index += 1
    return tally, overhead


def run_net(seed: int, seconds: float, trace: bool):
    import net_kv
    from common import Tally

    tally = Tally()
    if not trace:
        for index in range(NET_ROUNDS):
            net_kv.run_round(round_seed(seed, index), seconds / NET_ROUNDS,
                             tally)
        return tally, []
    rs = round_seed(seed, 0)
    base = net_kv.run_round(rs, seconds / 2, Tally())
    traced = net_kv.run_round(rs, seconds / 2, tally, trace=True)
    return tally, [traced / base]


def end_to_end(tally) -> dict:
    from common import import_seconds, median_or_zero, p50, peak_rss_mb

    return {
        "setup_s": import_seconds() + median_or_zero(tally.setup_s),
        "ops_per_wall_s": median_or_zero(tally.round_rates),
        "write_p50_ms": p50(tally.write_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def reported(tally, workload: str) -> dict:
    from common import median_or_zero, p50, p99
    from metrics import REPORTED

    values = {
        "read_p50_ms": p50(tally.read_ms),
        "read_p99_ms": p99(tally.read_ms),
        "write_p99_ms": p99(tally.write_ms),
        "writes_per_sim_s": (tally.committed_writes / (tally.sim_ms / 1e3)
                             if tally.sim_ms else 0.0),
        "failover_ms": median_or_zero(tally.failover_ms),
        "msgs_per_op": tally.messages / max(tally.completed, 1),
        "failed_ops_frac": tally.failed / max(tally.attempted, 1),
    }
    return {name: values[name] for name, (_unit, where) in REPORTED.items()
            if workload in where}


def per_layer(tally, overhead: list[float]) -> dict:
    """Means over the traced rounds; 0 for a layer the workload never
    runs."""
    from common import median_or_zero
    from metrics import PER_LAYER

    values = {name: (sum(samples) / len(samples)
                     if (samples := tally.layers.get(name)) else 0.0)
              for name in PER_LAYER}
    values["verify.check_s"] = tally.check_s
    values["obs.trace_overhead"] = median_or_zero(overhead)
    return values


def print_table(workload: str, tally, metrics: dict, units: dict) -> None:
    print(f"workload {workload}: {tally.rounds} rounds, "
          f"{tally.measured_wall_s:.2f} s measured, "
          f"{tally.check_s:.2f} s checking, "
          f"{len(tally.read_ms)} reads / {len(tally.write_ms)} writes timed, "
          f"{len(tally.failover_ms)} failovers")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.4f} {units[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    load_program()
    import sim_reads
    import sim_writes
    from common import fingerprint
    from metrics import END_TO_END, PER_LAYER, REPORTED

    print("fingerprint", json.dumps(fingerprint()))
    trace = bool(args.trace)
    if args.workload == "net-kv":
        tally, overhead = run_net(args.seed, args.seconds, trace)
    else:
        module = sim_reads if args.workload == "sim-reads" else sim_writes
        tally, overhead = run_sim(module, args.seed, args.seconds, trace)

    if trace:
        metrics = per_layer(tally, overhead)
        units = {name: unit for name, (unit, _b) in PER_LAYER.items()}
        shown = metrics
    else:
        metrics = end_to_end(tally)
        units = {name: unit for name, (unit, _b) in END_TO_END.items()}
        extra = reported(tally, args.workload)
        units.update({name: REPORTED[name][0] for name in extra})
        shown = {**metrics, **extra}
    print_table(args.workload, tally, shown, units)
    for violation in tally.violations:
        print("CHECK FAILED:", violation)
    print("loadavg_after", json.dumps([round(x, 2) for x in os.getloadavg()]))

    result = {
        "correct": not tally.violations and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in (PER_LAYER if trace else END_TO_END)},
    }
    if args.save:
        out = HERE / "results" / (
            f"{args.workload}.{'layers' if trace else 'e2e'}.json")
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(
            {"fingerprint": {**fingerprint(),
                             "loadavg_after": list(os.getloadavg())},
             "seed": args.seed, "seconds": args.seconds, **result},
            indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
