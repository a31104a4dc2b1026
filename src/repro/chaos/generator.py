"""Randomized fault-schedule generation.

:class:`ScheduleGenerator` samples :class:`~repro.sim.failures.FaultSchedule`
plans from a seeded RNG.  Schedule ``i`` of generator seed ``s`` is a pure
function of ``(s, i)`` — the soak, the shrinker, and the repro artifact all
rely on that determinism.

Two structural constraints are enforced at generation time:

* **Majority-correct**: at no point does the plan crash more than
  ``(n - 1) // 2`` replicas at once, and when the plan contains
  leader-targeted crashes one crash slot is reserved for them (the
  runtime guard in :class:`~repro.sim.failures.LeaderCrash` then never
  has to skip for lack of headroom).
* **Everything heals**: every partition, window, and desync ends before
  the horizon and every crashed replica recovers, so liveness-after-heal
  is a meaningful check for any generated schedule.

Schedules serialize to plain JSON-friendly dicts via
:func:`schedule_to_dict` / :func:`schedule_from_dict` (used by the repro
artifact).
"""

from __future__ import annotations

import random
from dataclasses import Field, fields
from typing import Any, Optional, get_args, get_type_hints

from ..sim.failures import (
    ClockDesync,
    Crash,
    CrashRestart,
    DelayBurstWindow,
    DiskFaultWindow,
    DuplicationWindow,
    FaultSchedule,
    LeaderCrash,
    LossWindow,
    OneWayPartitionWindow,
    PartitionWindow,
    Recover,
)

__all__ = ["ScheduleGenerator", "schedule_to_dict", "schedule_from_dict"]

_INF = float("inf")


class ScheduleGenerator:
    """Samples randomized fault schedules for an ``n``-replica cluster.

    ``num_clients`` client-session pids (``n .. n + num_clients - 1``) may
    be drawn into partition groups, which is what exercises lost client
    replies and therefore the reply cache.
    """

    def __init__(
        self,
        n: int,
        num_clients: int = 0,
        horizon: float = 2500.0,
        seed: int = 0,
        delta: float = 10.0,
        epsilon: float = 2.0,
        durability: bool = False,
        num_leaseholders: int = 0,
        leaseholder_base: Optional[int] = None,
    ) -> None:
        if n < 3:
            raise ValueError("chaos schedules need n >= 3 replicas")
        self.n = n
        self.num_clients = num_clients
        self.horizon = horizon
        self.seed = seed
        self.delta = delta
        self.epsilon = epsilon
        self.f_max = (n - 1) // 2
        # Durability mode adds CrashRestart + storage-fault windows.
        # Those draws come *after* every legacy draw, so for a fixed
        # (seed, index) a durability-off schedule is unchanged by this
        # generator growing the new fault kinds.
        self.durability = durability
        # Leaseholder faults (crashes and partitions of the read-only
        # tier at pids n + num_clients ..) are drawn after even those,
        # by the same additivity rule.  ``leaseholder_base`` overrides
        # where the tier's pids start — sharded groups interpose one
        # extra (coordinator) session between clients and leaseholders.
        self.num_leaseholders = num_leaseholders
        self.leaseholder_base = (
            leaseholder_base if leaseholder_base is not None
            else n + num_clients
        )

    # ------------------------------------------------------------------
    def generate(self, index: int) -> FaultSchedule:
        """The ``index``-th schedule of this generator (deterministic)."""
        rng = random.Random(f"chaos-schedule:{self.seed}:{index}")
        horizon = self.horizon
        # Faults start in the first 70% of the run and heal by 90%, so the
        # final stretch plus the liveness bound is always fault-free.
        start_span = 0.7 * horizon
        heal_by = 0.9 * horizon

        leader_crashes = self._gen_leader_crashes(rng, start_span, heal_by)
        crashes, recoveries = self._gen_crash_storm(
            rng, start_span, heal_by, reserved=1 if leader_crashes else 0
        )
        partitions = [
            self._gen_partition(rng, start_span, heal_by, one_way=False)
            for _ in range(rng.randint(0, 2))
        ]
        one_way = [
            self._gen_partition(rng, start_span, heal_by, one_way=True)
            for _ in range(rng.randint(0, 2))
        ]
        losses = [
            self._gen_loss(rng, start_span, heal_by)
            for _ in range(rng.randint(0, 2))
        ]
        duplications = [
            self._gen_duplication(rng, start_span, heal_by)
            for _ in range(rng.randint(0, 2))
        ]
        delay_bursts = [
            self._gen_delay_burst(rng, start_span, heal_by)
            for _ in range(rng.randint(0, 2))
        ]
        desyncs: list[ClockDesync] = []
        for _ in range(rng.randint(0, 2)):
            candidate = self._gen_desync(rng, start_span, heal_by)
            # Clock segments must be appended in time order, and a resync
            # keeps appending until its catch-up completes (~1.1x the jump
            # past ``end`` — the same margin last_disruption budgets), so
            # a second desync of the same clock may not begin inside an
            # earlier one's active-plus-catch-up window.  The candidate
            # consumed its rng draws either way, so dropping it never
            # perturbs healthy schedules at other indices.
            if any(
                d.pid == candidate.pid
                and candidate.start < self._desync_clear(d)
                and d.start < self._desync_clear(candidate)
                for d in desyncs
            ):
                continue
            desyncs.append(candidate)

        crash_restarts: list[CrashRestart] = []
        disk_faults: list[DiskFaultWindow] = []
        if self.durability:
            # Drawn last (see __init__): legacy schedules stay identical.
            storm = list(zip(crashes, recoveries))
            crash_restarts = self._gen_crash_restarts(
                rng, start_span, heal_by, storm,
                reserved=1 if leader_crashes else 0,
            )
            disk_faults = [
                self._gen_disk_fault(rng, start_span, heal_by)
                for _ in range(rng.randint(0, 2))
            ]

        if self.num_leaseholders:
            # Drawn last of all (see __init__).  Leaseholders are outside
            # the replica crash budget — any number of them may be down
            # without threatening a majority — so their crash/recover
            # pairs are sampled independently of the storm above.
            lh_base = self.leaseholder_base
            lh_intervals: list[tuple[float, float, int]] = []
            for _ in range(rng.randint(1, 2)):
                pid = lh_base + rng.randrange(self.num_leaseholders)
                at = rng.uniform(0.0, start_span)
                end = min(at + rng.uniform(100.0, 500.0), heal_by)
                if end <= at or any(
                    p == pid and s < end and at < e
                    for s, e, p in lh_intervals
                ):
                    continue
                lh_intervals.append((at, end, pid))
                crashes.append(Crash(pid=pid, at=at))
                recoveries.append(Recover(pid=pid, at=end))
            if rng.random() < 0.8:
                # Isolate one leaseholder — usually together with a
                # client it keeps serving — from every replica.  This is
                # the scenario the lease-expiry wait exists for: the
                # partitioned holder cannot ack Prepares, so commits must
                # wait out its lease before proceeding (and the planted
                # skip_lease_shrink bug turns exactly this into a stale
                # read the linearizability verdict catches).
                lh_idx = rng.randrange(self.num_leaseholders)
                group_a = {lh_base + lh_idx}
                if self.num_clients and rng.random() < 0.9:
                    # Co-partition a client whose *preferred* leaseholder
                    # (client i prefers holder i mod L) is the isolated
                    # one, so its reads keep landing there.
                    preferring = [
                        c for c in range(self.num_clients)
                        if c % self.num_leaseholders == lh_idx
                    ] or list(range(self.num_clients))
                    group_a.add(self.n + rng.choice(preferring))
                # Bias the cut early, while the closed-loop workload is
                # still issuing ops: the stale-serve window is only
                # about one LeasePeriod past the cut, so a late
                # partition would isolate an idle pair and test nothing.
                start = rng.uniform(0.0, 0.4 * start_span)
                end = min(start + rng.uniform(150.0, 600.0), heal_by)
                partitions.append(PartitionWindow(
                    group_a=frozenset(group_a),
                    group_b=frozenset(range(self.n)),
                    start=start,
                    end=end,
                ))

        schedule = FaultSchedule(
            crashes=crashes,
            recoveries=recoveries,
            leader_crashes=leader_crashes,
            crash_restarts=crash_restarts,
            disk_faults=disk_faults,
            partitions=partitions,
            one_way_partitions=one_way,
            losses=losses,
            duplications=duplications,
            delay_bursts=delay_bursts,
            desyncs=desyncs,
        )
        if schedule.fault_count() == 0:
            # Never emit an empty plan; a loss window is the mildest fault.
            schedule.losses = [self._gen_loss(rng, start_span, heal_by)]
        return schedule

    # ------------------------------------------------------------------
    # Individual fault samplers
    # ------------------------------------------------------------------
    def _gen_leader_crashes(
        self, rng: random.Random, start_span: float, heal_by: float
    ) -> list[LeaderCrash]:
        count = rng.choices([0, 1, 2], weights=[3, 3, 1])[0]
        out = []
        for _ in range(count):
            at = rng.uniform(0.0, start_span)
            downtime = rng.uniform(100.0, 400.0)
            downtime = min(downtime, max(heal_by - at, 50.0))
            out.append(LeaderCrash(at=at, downtime=downtime))
        return out

    def _gen_crash_storm(
        self,
        rng: random.Random,
        start_span: float,
        heal_by: float,
        reserved: int,
    ) -> tuple[list[Crash], list[Recover]]:
        """Crash/recover pairs whose overlap never exceeds the budget."""
        budget = self.f_max - reserved
        crashes: list[Crash] = []
        recoveries: list[Recover] = []
        if budget <= 0:
            return crashes, recoveries
        intervals: list[tuple[float, float, int]] = []  # (start, end, pid)
        for _ in range(rng.randint(0, 3)):
            pid = rng.randrange(self.n)
            at = rng.uniform(0.0, start_span)
            end = min(at + rng.uniform(100.0, 500.0), heal_by)
            if end <= at:
                continue
            # Reject overlap with the same pid (recovery order would be
            # ambiguous) and any point where the storm would exceed the
            # concurrent-crash budget.
            same_pid = any(
                p == pid and s < end and at < e for s, e, p in intervals
            )
            concurrent = sum(
                1 for s, e, _ in intervals if s < end and at < e
            )
            if same_pid or concurrent + 1 > budget:
                continue
            intervals.append((at, end, pid))
            crashes.append(Crash(pid=pid, at=at))
            recoveries.append(Recover(pid=pid, at=end))
        return crashes, recoveries

    def _gen_crash_restarts(
        self,
        rng: random.Random,
        start_span: float,
        heal_by: float,
        storm: list,
        reserved: int,
    ) -> list[CrashRestart]:
        """At least one durable crash-restart; never over the crash budget.

        Restarts share the concurrent-crash budget with the crash storm
        (their downtime is a crash interval like any other), and a slot
        stays reserved for leader-targeted crashes exactly as in
        ``_gen_crash_storm``.
        """
        budget = max(self.f_max - reserved, 1)
        intervals = [
            (crash.at, rec.at, crash.pid) for crash, rec in storm
        ]
        out: list[CrashRestart] = []
        want = rng.choices([1, 2, 3], weights=[3, 2, 1])[0]
        for _ in range(want * 3):  # rejection headroom
            if len(out) >= want:
                break
            pid = rng.randrange(self.n)
            at = rng.uniform(0.0, start_span)
            downtime = rng.uniform(80.0, 400.0)
            end = min(at + downtime, heal_by)
            if end <= at:
                continue
            same_pid = any(
                p == pid and s < end and at < e for s, e, p in intervals
            )
            concurrent = sum(
                1 for s, e, _ in intervals if s < end and at < e
            )
            if same_pid or concurrent + 1 > budget:
                continue
            intervals.append((at, end, pid))
            out.append(CrashRestart(pid=pid, at=at, downtime=end - at))
        if not out:
            # A durability soak without a single restart checks nothing
            # new; fall back to a short early restart of replica 0,
            # which always fits the budget on its own.
            out.append(CrashRestart(
                pid=0, at=rng.uniform(0.0, 0.3 * start_span),
                downtime=rng.uniform(80.0, 150.0),
            ))
        return out

    def _gen_disk_fault(
        self, rng: random.Random, start_span: float, heal_by: float
    ) -> DiskFaultWindow:
        kind = rng.choices(
            ["slow", "stall", "torn"], weights=[2, 2, 3]
        )[0]
        start, end = self._window(rng, start_span, heal_by, 50.0, 400.0)
        low = high = 0.0
        if kind == "slow":
            low = rng.uniform(0.2 * self.delta, self.delta)
            high = rng.uniform(low, 3.0 * self.delta)
        return DiskFaultWindow(
            pid=rng.randrange(self.n), kind=kind,
            start=start, end=end, low=low, high=high,
        )

    def _split_groups(
        self, rng: random.Random
    ) -> tuple[frozenset[int], frozenset[int]]:
        pids = list(range(self.n))
        rng.shuffle(pids)
        cut = rng.randint(1, self.n - 1)
        group_a, group_b = set(pids[:cut]), set(pids[cut:])
        # Sometimes drag client sessions into the partition: blocking the
        # reply path is how retransmission + reply cache get exercised.
        if self.num_clients and rng.random() < 0.5:
            for client in range(self.n, self.n + self.num_clients):
                if rng.random() < 0.5:
                    (group_a if rng.random() < 0.5 else group_b).add(client)
        return frozenset(group_a), frozenset(group_b)

    def _window(
        self, rng: random.Random, start_span: float, heal_by: float,
        min_len: float, max_len: float,
    ) -> tuple[float, float]:
        start = rng.uniform(0.0, start_span)
        end = min(start + rng.uniform(min_len, max_len), heal_by)
        return start, max(end, start + min_len / 2)

    def _gen_partition(
        self, rng: random.Random, start_span: float, heal_by: float,
        one_way: bool,
    ) -> Any:
        group_a, group_b = self._split_groups(rng)
        start, end = self._window(rng, start_span, heal_by, 100.0, 600.0)
        if one_way:
            return OneWayPartitionWindow(
                from_group=group_a, to_group=group_b, start=start, end=end
            )
        return PartitionWindow(
            group_a=group_a, group_b=group_b, start=start, end=end
        )

    def _gen_loss(
        self, rng: random.Random, start_span: float, heal_by: float
    ) -> LossWindow:
        start, end = self._window(rng, start_span, heal_by, 50.0, 400.0)
        return LossWindow(start=start, end=end, prob=rng.uniform(0.05, 0.4))

    def _gen_duplication(
        self, rng: random.Random, start_span: float, heal_by: float
    ) -> DuplicationWindow:
        start, end = self._window(rng, start_span, heal_by, 100.0, 600.0)
        return DuplicationWindow(
            start=start, end=end, prob=rng.uniform(0.1, 0.5)
        )

    def _gen_delay_burst(
        self, rng: random.Random, start_span: float, heal_by: float
    ) -> DelayBurstWindow:
        start, end = self._window(rng, start_span, heal_by, 100.0, 500.0)
        low = rng.uniform(0.5 * self.delta, self.delta)
        high = rng.uniform(low, 3.0 * self.delta)
        return DelayBurstWindow(start=start, end=end, low=low, high=high)

    @staticmethod
    def _desync_clear(desync: ClockDesync) -> float:
        """The real time by which the desynced clock is fully back."""
        if desync.end is None:
            return _INF
        return desync.end + 1.1 * desync.jump

    def _gen_desync(
        self, rng: random.Random, start_span: float, heal_by: float
    ) -> ClockDesync:
        start = rng.uniform(0.0, start_span)
        end = min(start + rng.uniform(50.0, 300.0), heal_by)
        return ClockDesync(
            pid=rng.randrange(self.n),
            start=start,
            jump=rng.uniform(self.epsilon, 10.0 * self.epsilon),
            end=end,
        )


# ----------------------------------------------------------------------
# Serialization (repro artifacts)
# ----------------------------------------------------------------------

def _entry_types() -> dict[str, type]:
    """Fault kind name -> entry dataclass, read off FaultSchedule."""
    hints = get_type_hints(FaultSchedule)
    return {f.name: get_args(hints[f.name])[0] for f in fields(FaultSchedule)}


def _encode(value: Any) -> Any:
    # JSON has no sets and no infinity: a pid group becomes a sorted
    # list and an open-ended window end becomes null.
    if isinstance(value, frozenset):
        return sorted(value)
    return None if value == _INF else value


def _decode(spec: Field, value: Any) -> Any:
    if isinstance(value, list):
        return frozenset(value)
    if value is None and spec.default == _INF:
        return _INF
    return value


def schedule_to_dict(schedule: FaultSchedule) -> dict:
    """Encode a schedule as a JSON-serializable dict."""
    return {
        kind.name: [
            {f.name: _encode(getattr(entry, f.name)) for f in fields(entry)}
            for entry in getattr(schedule, kind.name)
        ]
        for kind in fields(FaultSchedule)
    }


def schedule_from_dict(data: dict) -> FaultSchedule:
    """Inverse of :func:`schedule_to_dict`; a missing kind decodes as no
    entries (artifacts written before that fault kind existed)."""
    return FaultSchedule(**{
        name: [
            cls(**{f.name: _decode(f, entry[f.name]) for f in fields(cls)})
            for entry in data.get(name, [])
        ]
        for name, cls in _entry_types().items()
    })
