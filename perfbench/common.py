"""Pieces shared by the workloads: the run tally, the correctness gate,
peak memory and the machine fingerprint.

Latency percentiles use :func:`repro.sim.trace.percentile` (linear
interpolation).  ``p99`` needs at least 1000 samples to have ten
beyond it; every tally prints its sample counts so a reader can see
whether the percentile it reports is supported.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import platform
import resource
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Iterable, Optional

from repro.objects.spec import ObjectSpec
from repro.sim.trace import OpRecord, percentile
from repro.verify.history import History, HistoryEntry
from repro.verify.linearizability import check_linearizable

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for the real-network workload (cluster files, WALs).
WORK_DIR = ROOT / "perfbench" / "_work"


@dataclass
class Tally:
    """Everything one benchmark run accumulates across its rounds.

    A run repeats fresh rounds (a new cluster seeded from the run seed
    and the round index) until ``--seconds`` of measured wall time have
    passed; set-up and the correctness check of each round are timed
    apart and never count as measured time.
    """

    # Samples live in arrays so the tally's own memory stays small next
    # to the program's in ``peak_rss_mb``.
    read_ms: array = field(default_factory=lambda: array("d"))
    write_ms: array = field(default_factory=lambda: array("d"))
    setup_s: list[float] = field(default_factory=list)
    failover_ms: list[float] = field(default_factory=list)
    #: Completed ops per measured wall second, one entry per round; the
    #: median damps rounds slowed by other load on the machine.
    round_rates: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    measured_wall_s: float = 0.0
    check_s: float = 0.0
    rounds: int = 0
    #: Simulated milliseconds of measured window (sim workloads only).
    sim_ms: float = 0.0
    committed_writes: int = 0
    #: Protocol messages sent during the measured windows (sim only).
    messages: int = 0
    #: One line per correctness-gate failure; any entry fails the run.
    violations: list[str] = field(default_factory=list)
    #: Per-layer accumulators of the traced run (name -> list of samples).
    layers: dict[str, list[float]] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def end_round(self, completed: int, wall: float) -> None:
        self.measured_wall_s += wall
        self.round_rates.append(completed / wall)
        self.rounds += 1

    def add_layer(self, name: str, value: float) -> None:
        self.layers.setdefault(name, []).append(float(value))

    def record_ops(self, records: Iterable[OpRecord]) -> None:
        """Count ``records`` as attempted; incomplete ones as failed."""
        for record in records:
            self.attempted += 1
            if record.responded_at is None:
                self.failed += 1
            elif record.kind == "read":
                self.read_ms.append(record.latency)
            else:
                self.write_ms.append(record.latency)


def p50(values) -> float:
    return percentile(values, 50) if values else 0.0


def p99(values) -> float:
    return percentile(values, 99) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_or_zero(values: list[float]) -> float:
    return median(values) if values else 0.0


#: The modules a benchmark run imports from the program.
PROGRAM_MODULES = (
    "repro.core.client", "repro.shard", "repro.durable", "repro.net.client",
    "repro.net.launch", "repro.obs.timeline", "repro.verify.linearizability",
)


def import_seconds(runs: int = 3) -> float:
    """Median wall time to import the program in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(PROGRAM_MODULES)
            + "; print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(runs):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        times.append(float(out.stdout))
    return median(times)


# ----------------------------------------------------------------------
# Correctness gate
# ----------------------------------------------------------------------

def isolated(fn, *args) -> Optional[str]:
    """Run the check ``fn(*args)`` in a forked child; return its verdict.

    The checker's memory then never shows in this process's
    ``peak_rss_mb``, which is meant to measure the program.  Only for
    single-threaded callers (the simulated workloads).
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: run the check, send the verdict, exit at once
        try:
            os.close(read_fd)
            try:
                verdict = fn(*args)
            except Exception as exc:  # reported to the parent as a failure
                verdict = f"check raised {exc!r}"
            with os.fdopen(write_fd, "wb") as out:
                out.write(pickle.dumps(verdict))
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as src:
        payload = src.read()
    _, status = os.waitpid(pid, 0)
    if not payload:
        return f"check process ended with status {status} and no verdict"
    return pickle.loads(payload)


def check_history(spec: ObjectSpec, records: Iterable[OpRecord],
                  limit: int) -> Optional[str]:
    """Per-key linearizability of the leading ``limit`` completed ops.

    Returns ``None`` when linearizable, else the reason.  An undecided
    verdict (the checker's configuration budget ran out) is a failure:
    the slice size is fixed so that it decides on a correct run.
    """
    ordered = sorted((r for r in records if r.responded_at is not None),
                     key=lambda r: (r.invoked_at, r.op_id))
    entries = [
        HistoryEntry(op=r.op, response=r.response, invoked_at=r.invoked_at,
                     responded_at=r.responded_at, pid=r.pid, op_id=r.op_id)
        for r in ordered[:limit]
    ]
    result = check_linearizable(spec, History(entries),
                                partition_by_key=True)
    if result.ok:
        return None
    kind = "undecided" if result.undecided else "not linearizable"
    return f"history of {len(entries)} ops {kind}: {result.reason}"


def check_counters(acked: dict[Any, int],
                   final: dict[Any, Any]) -> Optional[str]:
    """Exactly-once: every key's counter equals its acknowledged
    increments (a lost or doubled increment breaks the equality)."""
    wrong = {k: (acked[k], final.get(k)) for k in acked
             if (final.get(k) or 0) != acked[k]}
    if not wrong:
        return None
    return f"counter != acked increments (acked, counter): {wrong}"


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------

def _source_digest() -> str:
    """sha256 over the program's source files, so results from two
    trees can be told apart without git (checkouts may have none)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def fingerprint() -> dict[str, Any]:
    """Machine and tree identity; results with different fingerprints
    are never compared."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "started_unix": round(time.time(), 1),
    }
