"""The enhanced leader service (paper Section 2, Appendix B).

Transforms any Omega detector into a service providing
``AmLeader(t1, t2)`` with the two properties the replication algorithm
needs:

* **EL1** — if calls by *distinct* processes both return True, their
  local-time intervals are disjoint: at most one process considers itself
  leader at any local time.
* **EL2** — eventually some correct process is permanently the leader, and
  every other process permanently gets False.

Mechanism (as described in the paper): each process ``q`` periodically
calls ``leader()``; it sends the believed leader a *leader-lease* message
containing an interval of local time during which ``q`` supports it, plus a
counter of how many times ``q`` has observed the leader change.  A process
``p`` answers ``AmLeader(t1, t2) = True`` iff a majority of processes have
each sent it a lease covering ``t1`` and a lease covering ``t2`` *with the
same counter* (same counter means the supporter never switched away in
between).

EL1 rests on one local rule: when ``q`` switches support to a new leader,
the new support interval must begin *after the end of every interval q has
ever granted* (a grant is a promise that cannot be revoked).  The end of
the latest granted interval and the change counter are kept in stable
storage so the rule survives crash-recovery.

Runtime independence: this service touches its host only through the
:class:`~repro.sim.process.Process` surface (``local_time``, ``send``,
``every``, ``stable``, ``obs``), i.e. the
:class:`~repro.net.runtime.Runtime` contract — so the identical class runs
on the simulator and on the asyncio TCP backend.  EL1's safety depends
only on local-clock skew being bounded by the configured epsilon (real
deployments: one machine clock, or NTP-bounded skew), never on the
message-delay bound delta, which is liveness-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from .omega import OmegaDetector

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.process import Process
    from ..verify.invariants import LeaderIntervalMonitor

__all__ = ["LeaderLease", "EnhancedLeaderService"]

_STABLE_KEY = "enhanced-leader"


@dataclass(frozen=True)
class LeaderLease:
    """Support for a leader over ``[start, end]`` in the sender's local time."""

    counter: int
    start: float
    end: float

    category = "leader-election"


class _SupportStore:
    """Merged support intervals received from one process, keyed by counter."""

    def __init__(self) -> None:
        self.by_counter: dict[int, list[tuple[float, float]]] = {}

    def add(self, lease: LeaderLease) -> None:
        spans = self.by_counter.setdefault(lease.counter, [])
        merged = (lease.start, lease.end)
        kept = []
        for (s, e) in spans:
            if merged[0] <= e and s <= merged[1]:
                merged = (min(merged[0], s), max(merged[1], e))
            else:
                kept.append((s, e))
        kept.append(merged)
        spans[:] = kept

    def covers_both(self, t1: float, t2: float) -> bool:
        """True iff some counter has intervals covering t1 and covering t2."""
        for spans in self.by_counter.values():
            covers_t1 = False
            covers_t2 = False
            for (s, e) in spans:
                if s <= t1 <= e:
                    covers_t1 = True
                if s <= t2 <= e:
                    covers_t2 = True
            if covers_t1 and covers_t2:
                return True
        return False


class EnhancedLeaderService:
    """Per-process component implementing ``AmLeader``.

    Parameters
    ----------
    host:
        The owning process.
    omega:
        The underlying (simple) leader service.
    n:
        Total number of processes (majorities are computed from this).
    support_period:
        How often (local time) support leases are refreshed.
    support_duration:
        How far into the future each lease extends.  Must exceed
        ``support_period + delta`` or post-GST coverage has gaps; the
        repository default is ``3 * support_period``.
    monitor:
        Optional :class:`LeaderIntervalMonitor` checking EL1 on the fly.
    """

    def __init__(
        self,
        host: "Process",
        omega: OmegaDetector,
        n: int,
        support_period: float,
        support_duration: float,
        monitor: Optional["LeaderIntervalMonitor"] = None,
    ) -> None:
        if support_duration <= support_period:
            raise ValueError("support_duration must exceed support_period")
        self.host = host
        self.omega = omega
        self.n = n
        self.majority = n // 2 + 1
        self.support_period = support_period
        self.support_duration = support_duration
        self.monitor = monitor
        self.support: dict[int, _SupportStore] = {}
        # Stable across crashes: the change counter and the end of the last
        # interval this process ever granted (the EL1 promise).
        persisted = host.stable.setdefault(
            _STABLE_KEY, {"counter": 0, "granted_until": -1.0, "last_leader": None}
        )
        self._state = persisted

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        self.omega.start()
        self._support_tick()
        self.host.every(self.support_period, self._support_tick)

    def on_recover(self) -> None:
        """After a crash-recovery, drop volatile support knowledge and force
        a counter bump so pre-crash grants can never be confused with
        post-crash ones."""
        self.support = {}
        self._state["counter"] += 1
        self._state["last_leader"] = None

    # ------------------------------------------------------------------
    # Support granting
    # ------------------------------------------------------------------
    def _support_tick(self) -> None:
        believed = self.omega.leader()
        now = self.host.local_time
        if believed != self._state["last_leader"]:
            obs = self.host.obs
            if obs is not None:
                # One EL epoch edge per support switch: this process
                # stopped backing last_leader and started backing
                # ``believed`` under a fresh counter (EL1's interval
                # boundary, and — once switches stop — EL2's quiescence).
                obs.tracer.instant(
                    "leader.change", "leader", self.host.pid,
                    prev=self._state["last_leader"], now=believed,
                    counter=self._state["counter"] + 1,
                )
                obs.registry.counter(
                    "leader_changes_total", pid=self.host.pid
                ).inc()
            self._state["counter"] += 1
            self._state["last_leader"] = believed
        # A new grant may never overlap an interval granted to a previous
        # leader; when extending support for the same leader under the same
        # counter, overlap with our own earlier grants is harmless.
        start = now
        if self._state["granted_until"] > start:
            start = self._state["granted_until"]
        end = now + self.support_duration
        if end <= start:
            return  # outstanding promise reaches too far; retry next tick
        lease = LeaderLease(self._state["counter"], start, end)
        self._state["granted_until"] = max(self._state["granted_until"], end)
        if believed == self.host.pid:
            self._record(self.host.pid, lease)
        else:
            self.host.send(believed, lease)

    def _record(self, src: int, lease: LeaderLease) -> None:
        self.support.setdefault(src, _SupportStore()).add(lease)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------
    def handle(self, src: int, msg: Any) -> bool:
        if isinstance(msg, LeaderLease):
            self._record(src, msg)
            return True
        return self.omega.handle(src, msg)

    # ------------------------------------------------------------------
    # The service interface
    # ------------------------------------------------------------------
    def am_leader(self, t1: float, t2: float) -> bool:
        """The paper's ``AmLeader(t1, t2)``.

        True iff this process has been the leader continuously at all local
        times in ``[t1, t2]``, witnessed by same-counter support from a
        majority of processes.
        """
        if t1 > t2:
            raise ValueError(f"AmLeader interval is backwards: [{t1}, {t2}]")
        needed = self.majority
        supporters = 0
        for store in self.support.values():
            if store.covers_both(t1, t2):
                supporters += 1
                if supporters >= needed:
                    break
        result = supporters >= needed
        if result and self.monitor is not None:
            self.monitor.record_true(self.host.pid, t1, t2)
        return result

    def believed_leader(self) -> int:
        """The underlying Omega output (used to route client operations)."""
        return self.omega.leader()
