"""Chaos nemesis engine: randomized fault schedules, whole-run checking,
and counterexample shrinking.

The package follows the Jepsen recipe adapted to deterministic
simulation:

* :class:`ScheduleGenerator` samples seeded random :class:`FaultSchedule`
  plans — crash/recover storms that respect the majority-correct
  constraint, symmetric and one-directional partitions, loss windows,
  duplication bursts, slow-link delay windows, clock-desync bursts, and
  leader-targeted crashes.
* :class:`NemesisRunner` is one run description (system, sizes, seed,
  workload, tiers): it generates its schedules, drives a client-session
  workload plus one schedule through a cluster (CHT, a baseline, or
  sharded CHT groups) and verifies the full history: linearizability,
  the I1–I3 / leader-interval invariants, and liveness-after-heal.
* :func:`shrink` greedily minimizes a failing schedule and
  :func:`save_artifact` emits a deterministic seeded repro artifact
  (JSON plus a one-line rerun command).

Everything is deterministic for a fixed seed, so any failure found by a
soak is replayable bit-for-bit from its artifact.
"""

from .generator import ScheduleGenerator, schedule_from_dict, schedule_to_dict
from .nemesis import NemesisResult, NemesisRunner, last_disruption, run_cell
from .shrink import load_artifact, run_artifact, save_artifact, shrink

__all__ = [
    "ScheduleGenerator",
    "schedule_from_dict",
    "schedule_to_dict",
    "NemesisResult",
    "NemesisRunner",
    "last_disruption",
    "run_cell",
    "shrink",
    "save_artifact",
    "load_artifact",
    "run_artifact",
]
