"""Fault-injection schedules.

A :class:`FaultSchedule` declaratively lists the faults to inject into a run
(crashes, recoveries, partitions — symmetric and one-directional — message
loss, duplication bursts, slow-link delay windows, clock desync,
leader-targeted crashes, crash-restarts that replay durable state, and
storage-fault windows on durable replicas), and arms them on a simulator.  Keeping fault
plans declarative makes experiment scripts short, makes the injected
scenario visible in one place, and lets the chaos engine
(:mod:`repro.chaos`) generate, serialize, and *shrink* schedules.

Every pid referenced by a schedule is validated when the schedule is
armed, so a typo surfaces as an immediate ``ValueError`` naming the bad
fault entry rather than a bare ``KeyError`` from inside a scheduled
callback at fire time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .clocks import ClockModel
from .core import Simulator
from .network import Network

if TYPE_CHECKING:  # pragma: no cover
    from .process import Process

__all__ = [
    "Crash",
    "Recover",
    "LeaderCrash",
    "CrashRestart",
    "DiskFaultWindow",
    "PartitionWindow",
    "OneWayPartitionWindow",
    "LossWindow",
    "DuplicationWindow",
    "DelayBurstWindow",
    "ClockDesync",
    "FaultSchedule",
]


@dataclass
class Crash:
    """Crash process ``pid`` at real time ``at``."""

    pid: int
    at: float


@dataclass
class Recover:
    """Recover a crashed process ``pid`` at real time ``at``."""

    pid: int
    at: float


@dataclass
class LeaderCrash:
    """Crash whichever process is the cluster's leader at real time ``at``,
    recovering it ``downtime`` later.

    The target is resolved at fire time by the ``leader_probe`` callable
    passed to :meth:`FaultSchedule.arm`.  The crash is skipped when no
    leader is known, the probed process is already crashed, or crashing it
    would leave fewer than a majority of processes alive (the model's
    majority-correct assumption).
    """

    at: float
    downtime: float = 200.0


@dataclass
class CrashRestart:
    """Crash process ``pid`` at ``at`` and restart it ``downtime`` later.

    Unlike a plain :class:`Crash`/:class:`Recover` pair — which in the
    legacy model keeps stable state alive in memory — a CrashRestart is
    the *durability* fault: on a replica with an attached durability
    layer the crash erases all of memory and the restart genuinely
    rebuilds from snapshot + WAL replay.  The fire is skipped when the
    target is already crashed (composability with crash storms) and the
    restart is skipped when something else already recovered it.
    """

    pid: int
    at: float
    downtime: float = 150.0


@dataclass
class DiskFaultWindow:
    """Inject a storage fault on ``pid``'s durable store over
    ``[start, end)``.

    ``kind`` is one of the storage model's windows: ``"slow"`` (each
    flush takes a uniform ``[low, high]`` device delay), ``"stall"``
    (flushes issued inside the window complete only when it ends —
    fsync loss if the process crashes first), or ``"torn"`` (a crash
    inside the window persists a random prefix of the unsynced WAL
    tail instead of dropping it whole).
    """

    pid: int
    kind: str
    start: float
    end: float
    low: float = 0.0
    high: float = 0.0


@dataclass
class PartitionWindow:
    """Partition ``group_a`` from ``group_b`` during ``[start, end)``."""

    group_a: frozenset[int]
    group_b: frozenset[int]
    start: float
    end: float = field(default=float("inf"))


@dataclass
class OneWayPartitionWindow:
    """Block only ``from_group -> to_group`` messages during ``[start, end)``.

    The reverse direction keeps working — an asymmetric link failure, the
    kind that confuses heartbeat-based failure detectors (a process that
    can hear everyone but reach no one).
    """

    from_group: frozenset[int]
    to_group: frozenset[int]
    start: float
    end: float = field(default=float("inf"))


@dataclass
class LossWindow:
    """Drop each message with probability ``prob`` during ``[start, end)``."""

    start: float
    end: float
    prob: float

    def __post_init__(self) -> None:
        if not 0 <= self.prob <= 1:
            raise ValueError("loss probability must be in [0, 1]")


@dataclass
class DuplicationWindow:
    """Deliver each message twice with probability ``prob`` during
    ``[start, end)`` (the duplicate never overtakes the original on a
    FIFO link)."""

    start: float
    end: float
    prob: float

    def __post_init__(self) -> None:
        if not 0 <= self.prob <= 1:
            raise ValueError("duplication probability must be in [0, 1]")


@dataclass
class DelayBurstWindow:
    """During ``[start, end)`` every message delay is drawn from
    ``[low, high]`` (clamped to the network's delta after GST)."""

    start: float
    end: float
    low: float
    high: float


@dataclass
class ClockDesync:
    """Push ``pid``'s clock ``jump`` ahead at ``start``; resync at ``end``.

    ``end`` may be None to leave the clock desynchronized permanently.
    """

    pid: int
    start: float
    jump: float
    end: Optional[float] = None


@dataclass
class FaultSchedule:
    """A declarative fault plan for one run."""

    crashes: Sequence[Crash] = field(default_factory=list)
    recoveries: Sequence[Recover] = field(default_factory=list)
    leader_crashes: Sequence[LeaderCrash] = field(default_factory=list)
    crash_restarts: Sequence[CrashRestart] = field(default_factory=list)
    disk_faults: Sequence[DiskFaultWindow] = field(default_factory=list)
    partitions: Sequence[PartitionWindow] = field(default_factory=list)
    one_way_partitions: Sequence[OneWayPartitionWindow] = field(
        default_factory=list
    )
    losses: Sequence[LossWindow] = field(default_factory=list)
    duplications: Sequence[DuplicationWindow] = field(default_factory=list)
    delay_bursts: Sequence[DelayBurstWindow] = field(default_factory=list)
    desyncs: Sequence[ClockDesync] = field(default_factory=list)

    def fault_count(self) -> int:
        """Total number of fault entries in the plan."""
        return sum(len(getattr(self, f.name)) for f in fields(self))

    def arm(
        self,
        sim: Simulator,
        net: Network,
        processes: Sequence["Process"],
        clocks: Optional[ClockModel] = None,
        leader_probe: Optional[Callable[[], Optional[int]]] = None,
    ) -> None:
        """Schedule every fault in the plan on the given simulation.

        ``leader_probe`` (required when the plan has leader-targeted
        crashes) returns the pid of the current leader, or None when no
        leader is currently known.
        """
        by_pid = {p.pid: p for p in processes}
        self._validate(by_pid, clocks, leader_probe)

        for crash in self.crashes:
            sim.schedule_at(crash.at, lambda c=crash: by_pid[c.pid].crash())
        for rec in self.recoveries:
            sim.schedule_at(rec.at, lambda r=rec: by_pid[r.pid].recover())
        for lc in self.leader_crashes:
            sim.schedule_at(
                lc.at,
                lambda e=lc: self._fire_leader_crash(
                    e, sim, by_pid, leader_probe
                ),
            )
        for cr in self.crash_restarts:
            sim.schedule_at(
                cr.at,
                lambda e=cr: self._fire_crash_restart(e, sim, by_pid),
            )
        for df in self.disk_faults:
            by_pid[df.pid].durable.storage.add_window(
                df.kind, df.start, df.end, df.low, df.high
            )
        for part in self.partitions:
            net.add_partition(part.group_a, part.group_b, part.start, part.end)
        for owp in self.one_way_partitions:
            net.add_one_way_partition(
                owp.from_group, owp.to_group, owp.start, owp.end
            )
        if self.losses:
            self._arm_losses(net)
        if self.duplications:
            self._arm_duplications(net)
        for burst in self.delay_bursts:
            net.add_delay_burst(burst.start, burst.end, burst.low, burst.high)
        for desync in self.desyncs:
            self._arm_desync(sim, clocks, desync)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(
        self,
        by_pid: dict,
        clocks: Optional[ClockModel],
        leader_probe: Optional[Callable[[], Optional[int]]],
    ) -> None:
        def check_pid(pid: int, entry: object) -> None:
            if pid not in by_pid:
                raise ValueError(
                    f"fault entry {entry!r} references unknown process "
                    f"{pid} (known: {sorted(by_pid)})"
                )

        for crash in self.crashes:
            check_pid(crash.pid, crash)
        for rec in self.recoveries:
            check_pid(rec.pid, rec)
        for part in self.partitions:
            for pid in sorted(part.group_a | part.group_b):
                check_pid(pid, part)
        for owp in self.one_way_partitions:
            for pid in sorted(owp.from_group | owp.to_group):
                check_pid(pid, owp)
        for desync in self.desyncs:
            check_pid(desync.pid, desync)
            if clocks is None:
                raise ValueError("clock desync requires a ClockModel")
        for cr in self.crash_restarts:
            check_pid(cr.pid, cr)
        for df in self.disk_faults:
            check_pid(df.pid, df)
            target = by_pid[df.pid]
            storage = getattr(
                getattr(target, "durable", None), "storage", None
            )
            if storage is None or not hasattr(storage, "add_window"):
                raise ValueError(
                    f"fault entry {df!r} requires process {df.pid} to have "
                    f"a durability layer with fault-window support "
                    f"(attach repro.durable.MemStorage first)"
                )
        if self.leader_crashes and leader_probe is None:
            raise ValueError(
                "leader-targeted crashes require a leader_probe callable"
            )

    # ------------------------------------------------------------------
    # Arming helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _fire_leader_crash(
        entry: LeaderCrash,
        sim: Simulator,
        by_pid: dict,
        leader_probe: Callable[[], Optional[int]],
    ) -> None:
        pid = leader_probe()
        if pid is None:
            return
        target = by_pid.get(pid)
        if target is None or target.crashed:
            return
        # Majority-correct guard: never crash into a minority of live
        # processes, whatever the rest of the schedule did.
        crashed = sum(1 for p in by_pid.values() if p.crashed)
        if crashed + 1 > (len(by_pid) - 1) // 2:
            return
        target.crash()
        sim.schedule_at(sim.now + entry.downtime, target.recover)

    @staticmethod
    def _fire_crash_restart(
        entry: CrashRestart, sim: Simulator, by_pid: dict
    ) -> None:
        target = by_pid[entry.pid]
        if target.crashed:
            return  # a crash storm got there first; let its plan play out
        target.crash()

        def restart() -> None:
            if target.crashed:
                target.recover()

        sim.schedule_at(sim.now + entry.downtime, restart)

    def _arm_losses(self, net: Network) -> None:
        windows = list(self.losses)
        rng = net.fork_rng("loss-windows")
        previous_rule = net.drop_rule

        def drop(src: int, dst: int, msg: object, now: float) -> bool:
            if previous_rule is not None and previous_rule(src, dst, msg, now):
                return True
            for window in windows:
                if window.start <= now < window.end and rng.random() < window.prob:
                    return True
            return False

        net.drop_rule = drop

    def _arm_duplications(self, net: Network) -> None:
        windows = list(self.duplications)
        rng = net.fork_rng("dup-windows")
        previous_rule = net.dup_rule

        def dup(src: int, dst: int, msg: object, now: float) -> bool:
            if previous_rule is not None and previous_rule(src, dst, msg, now):
                return True
            for window in windows:
                if window.start <= now < window.end and rng.random() < window.prob:
                    return True
            return False

        net.dup_rule = dup

    @staticmethod
    def _arm_desync(sim: Simulator, clocks: ClockModel, desync: ClockDesync) -> None:
        sim.schedule_at(
            desync.start,
            lambda: clocks.desynchronize(desync.pid, desync.start, desync.jump),
        )
        if desync.end is not None:
            sim.schedule_at(
                desync.end,
                lambda: clocks.resynchronize(desync.pid, desync.end),
            )
