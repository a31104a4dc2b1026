"""Greedy counterexample shrinking and repro artifacts.

When a nemesis run fails, :func:`shrink` minimizes the fault schedule
while preserving the failure *kind*: it repeatedly tries dropping whole
logical faults (a crash and its recovery travel together, so removal
never strands a replica past the majority budget) and narrowing fault
windows, keeping each mutation only if the failure still reproduces.
The result is the small schedule a human actually debugs — typically one
or two faults instead of a dozen.

:func:`save_artifact` writes the failure as a self-contained JSON file:
every init field of the :class:`NemesisRunner` (the run description),
the (shrunken) schedule, the observed failure, and a one-line rerun
command.  :func:`run_artifact`
replays it deterministically.
"""

from __future__ import annotations

import json
from dataclasses import fields, replace
from typing import Callable, Optional

from ..sim.failures import Crash, FaultSchedule, Recover
from .generator import schedule_from_dict, schedule_to_dict
from .nemesis import NemesisResult, NemesisRunner

__all__ = [
    "shrink",
    "logical_faults",
    "save_artifact",
    "load_artifact",
    "run_artifact",
]

ARTIFACT_VERSION = 1


# ----------------------------------------------------------------------
# Logical fault units
# ----------------------------------------------------------------------

def logical_faults(schedule: FaultSchedule) -> list[tuple[str, tuple]]:
    """Decompose a schedule into independently removable units.

    Each unit is ``(field_name, entries)``; a crash pairs with the first
    recovery of the same pid at-or-after it, so dropping the unit never
    leaves a replica crashed longer than the generator planned.
    """
    units: list[tuple[str, tuple]] = []
    recoveries = list(schedule.recoveries)
    for crash in schedule.crashes:
        match = None
        for rec in recoveries:
            if rec.pid == crash.pid and rec.at >= crash.at:
                if match is None or rec.at < match.at:
                    match = rec
        if match is not None:
            recoveries.remove(match)
            units.append(("crashes", (crash, match)))
        else:
            units.append(("crashes", (crash,)))
    for rec in recoveries:  # unpaired recoveries (hand-written plans)
        units.append(("recoveries", (rec,)))
    for f in fields(FaultSchedule):
        if f.name not in ("crashes", "recoveries"):  # paired above
            for entry in getattr(schedule, f.name):
                units.append((f.name, (entry,)))
    return units


def _assemble(units: list[tuple[str, tuple]]) -> FaultSchedule:
    """Rebuild a schedule from logical units."""
    schedule = FaultSchedule()
    for name, entries in units:
        for entry in entries:
            if isinstance(entry, Crash):
                schedule.crashes.append(entry)  # type: ignore[attr-defined]
            elif isinstance(entry, Recover):
                schedule.recoveries.append(entry)  # type: ignore[attr-defined]
            else:
                getattr(schedule, name).append(entry)
    return schedule


def _narrowed(entry: object) -> Optional[object]:
    """A version of ``entry`` with its active window halved, or None when
    the entry has no meaningful window to narrow."""
    if isinstance(entry, Crash) or isinstance(entry, Recover):
        return None
    if hasattr(entry, "start") and hasattr(entry, "end"):
        start, end = entry.start, entry.end
        if end is None or end == float("inf"):
            return None
        length = end - start
        if length <= 25.0:
            return None
        return replace(entry, end=start + length / 2)  # type: ignore[arg-type]
    if hasattr(entry, "downtime"):  # LeaderCrash, CrashRestart
        if entry.downtime <= 50.0:
            return None
        return replace(entry, downtime=entry.downtime / 2)  # type: ignore[arg-type]
    return None


# ----------------------------------------------------------------------
# Greedy shrink
# ----------------------------------------------------------------------

def shrink(
    runner: NemesisRunner,
    schedule: FaultSchedule,
    failure: NemesisResult,
    budget: int = 200,
    on_progress: Optional[Callable[[str], None]] = None,
) -> tuple[FaultSchedule, NemesisResult]:
    """Minimize ``schedule`` while the run still fails with the same kind.

    Greedy and deterministic: first drop whole logical faults to a local
    fixpoint, then halve remaining windows.  ``budget`` caps the number
    of candidate runs.  Returns the smallest failing schedule found and
    its (re-verified) failure result.
    """

    def note(msg: str) -> None:
        if on_progress is not None:
            on_progress(msg)

    runs = 0

    def still_fails(candidate: FaultSchedule) -> Optional[NemesisResult]:
        nonlocal runs
        if runs >= budget:
            return None
        runs += 1
        result = runner.run(candidate)
        if not result.ok and result.kind == failure.kind:
            return result
        return None

    units = logical_faults(schedule)
    best = schedule
    best_result = failure

    # Pass 1: drop whole faults until no single removal keeps the failure.
    changed = True
    while changed and runs < budget:
        changed = False
        for i in range(len(units)):
            candidate_units = units[:i] + units[i + 1 :]
            candidate = _assemble(candidate_units)
            result = still_fails(candidate)
            if result is not None:
                note(
                    f"dropped {units[i][0]} fault; "
                    f"{len(candidate_units)} units remain"
                )
                units = candidate_units
                best, best_result = candidate, result
                changed = True
                break

    # Pass 2: narrow the windows of what remains.
    changed = True
    while changed and runs < budget:
        changed = False
        for i, (name, entries) in enumerate(units):
            if len(entries) != 1:
                continue
            narrowed = _narrowed(entries[0])
            if narrowed is None:
                continue
            candidate_units = list(units)
            candidate_units[i] = (name, (narrowed,))
            candidate = _assemble(candidate_units)
            result = still_fails(candidate)
            if result is not None:
                note(f"narrowed {name} window")
                units = candidate_units
                best, best_result = candidate, result
                changed = True
                break

    return best, best_result


# ----------------------------------------------------------------------
# Repro artifacts
# ----------------------------------------------------------------------

def save_artifact(
    path: str,
    runner: NemesisRunner,
    schedule: FaultSchedule,
    failure: NemesisResult,
) -> dict:
    """Write a self-contained, deterministic repro artifact as JSON.

    When the failure carries a metrics snapshot (the runner had
    observability on), the snapshot is written next to the artifact as
    ``<path minus .json>.metrics.json`` and referenced from the
    artifact's ``metrics_path`` key — kept separate so the artifact
    itself stays a small, diffable repro recipe.
    """
    metrics_path = None
    if failure.metrics is not None:
        stem = path[:-5] if path.endswith(".json") else path
        metrics_path = f"{stem}.metrics.json"
        with open(metrics_path, "w") as fh:
            json.dump(failure.metrics, fh, indent=2, sort_keys=True)
            fh.write("\n")
    artifact = {
        "version": ARTIFACT_VERSION,
        **{f.name: getattr(runner, f.name) for f in fields(runner) if f.init},
        "fault_count": schedule.fault_count(),
        "logical_faults": len(logical_faults(schedule)),
        "schedule": schedule_to_dict(schedule),
        "failure": {"kind": failure.kind, "detail": failure.detail},
        "metrics_path": metrics_path,
        "command": (
            f"PYTHONPATH=src python -m repro.chaos repro {path}"
        ),
    }
    with open(path, "w") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return artifact


def load_artifact(path: str) -> tuple[NemesisRunner, FaultSchedule, dict]:
    """Rebuild the runner and schedule recorded in an artifact."""
    with open(path) as fh:
        artifact = json.load(fh)
    version = artifact.get("version") if isinstance(artifact, dict) else None
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {version!r}")
    # Keys missing from older artifacts (sharding, durability, read-tier
    # and verifier parameters) take the runner's defaults.
    runner = NemesisRunner(**{
        f.name: artifact[f.name]
        for f in fields(NemesisRunner) if f.init and f.name in artifact
    })
    return runner, schedule_from_dict(artifact["schedule"]), artifact


def run_artifact(path: str) -> tuple[bool, NemesisResult]:
    """Replay an artifact; True when the recorded failure reproduces."""
    runner, schedule, artifact = load_artifact(path)
    result = runner.run(schedule)
    reproduced = (not result.ok) and result.kind == artifact["failure"]["kind"]
    return reproduced, result
