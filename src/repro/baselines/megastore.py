"""Megastore's replication mechanism (Baker et al., CIDR'11).

Per the paper's Section 5 discussion, the relevant traits are:

* Before committing a write, the coordinator must know that **all**
  replicas have been notified; a replica that does not acknowledge must be
  *invalidated* (marked out-of-date) through the Chubby lock service
  before the write may proceed.
* Reads are local at any replica that is up-to-date; an invalidated
  replica must catch up and revalidate before serving reads again.
* **The Chubby dependency**: if the writer loses contact with Chubby while
  other replicas maintain contact, writes block indefinitely ("requires
  manual intervention by an operator to fix") — reproduced verbatim by
  :class:`ChubbyService.disconnect`.

Chubby is modelled as a global service with a fixed round-trip cost and
per-process session state, matching how Megastore consults it out of band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator

from ..leader.omega import HeartbeatOmega
from ..objects.spec import OpInstance
from ..sim.tasks import Future
from .common import BaseCluster, BaseReplica, ClientOp

__all__ = ["ChubbyService", "MegastoreReplica", "MegastoreCluster"]


class ChubbyService:
    """A coarse model of the Chubby lock service.

    Tracks which processes currently hold a Chubby session.  Invalidating a
    replica requires a live session at the *caller*; the call costs one
    Chubby round trip of simulated time (modelled by the caller sleeping).
    """

    def __init__(self, n: int, rtt: float = 20.0) -> None:
        self.n = n
        self.rtt = rtt
        self.connected = [True] * n
        self._replicas: dict[int, "MegastoreReplica"] = {}

    def register(self, replica: "MegastoreReplica") -> None:
        self._replicas[replica.pid] = replica

    def disconnect(self, pid: int) -> None:
        """Sever ``pid``'s Chubby session (fault injection)."""
        self.connected[pid] = False

    def reconnect(self, pid: int) -> None:
        self.connected[pid] = True

    def invalidate(self, pids: set[int]) -> None:
        """Mark the coordinators of ``pids`` out-of-date.

        Happens out of band (through Chubby lock expiry), which is why it
        reaches even replicas the writer cannot talk to directly.
        """
        for pid in pids:
            replica = self._replicas.get(pid)
            if replica is not None and not replica.crashed:
                replica.up_to_date = False


@dataclass(frozen=True)
class MWrite:
    op_num: int
    instance: OpInstance

    category = "consensus"


@dataclass(frozen=True)
class MWriteAck:
    op_num: int

    category = "consensus"


@dataclass(frozen=True)
class MCommit:
    op_num: int

    category = "consensus"


@dataclass(frozen=True)
class MFetch:
    have: int

    category = "consensus"


@dataclass(frozen=True)
class MFetchReply:
    entries: tuple  # tuple[(op_num, instance), ...]
    committed: int

    category = "consensus"


@dataclass(frozen=True)
class MRevalidate:
    """An invalidated replica announces it has caught up to ``op_num``."""

    op_num: int

    category = "consensus"


class MegastoreReplica(BaseReplica):
    """One Megastore replica (log replica + coordinator in one)."""

    def __init__(self, *args: Any, chubby: ChubbyService,
                 heartbeat_period: float = 20.0,
                 heartbeat_timeout: float = 60.0,
                 ack_timeout: float = 40.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.chubby = chubby
        self.ack_timeout = ack_timeout
        self.omega = HeartbeatOmega(self, heartbeat_period, heartbeat_timeout)
        self.log: dict[int, OpInstance] = {}
        self.next_op_num = 1
        self.committed = 0
        self.acked_upto = 0
        # Coordinator state: am I up-to-date (may I serve local reads)?
        self.up_to_date = True
        # Leader-side.
        self.pending: dict[tuple[int, int], OpInstance] = {}
        self.out_of_date: set[int] = set()
        self._write_acks: dict[int, set[int]] = {}
        self._log_ids: set[tuple[int, int]] = set()
        self._writer_running = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.omega.start()
        self.spawn(self._sync_task(), name="megastore-sync")

    def on_crash(self) -> None:
        super().on_crash()
        self.pending = {}
        self._write_acks = {}
        self._writer_running = False
        self.up_to_date = False

    def on_recover(self) -> None:
        self.start()

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def start_operation(self, instance: OpInstance, kind: str,
                        future: Future) -> None:
        if kind == "read":
            self.spawn(self._read_task(instance, future), name="read")
        else:
            self.spawn(self._write_client_task(instance, future), name="write")

    def _write_client_task(self, instance: OpInstance,
                           future: Future) -> Generator:
        while not future.done:
            target = self.omega.leader()
            if target == self.pid:
                self._enqueue(instance)
            else:
                self.send(target, ClientOp(instance, kind="rmw"))
            yield from self.wait_for(lambda: future.done,
                                     timeout=self.retry_period)

    def _read_task(self, instance: OpInstance, future: Future) -> Generator:
        """Local read: up-to-date replicas serve from the local replica
        after applying every write they have acknowledged.  An
        out-of-date replica waits for the sync task to catch it up and
        revalidate it first."""
        if not self.up_to_date:
            yield from self.wait_for(lambda: self.up_to_date)
        target = self.acked_upto
        if self.applied_upto < target:
            yield from self.wait_for(lambda: self.applied_upto >= target)
        _, value = self.spec.apply_any(self.state, instance.op)
        self.resolve_op(instance.op_id, value)

    def _enqueue(self, instance: OpInstance) -> None:
        if instance.op_id in self._log_ids:
            return
        self.pending[instance.op_id] = instance
        if not self._writer_running:
            self.spawn(self._writer_task(), name="megastore-writer")

    # ------------------------------------------------------------------
    # Leader write path: acknowledge-all with Chubby invalidation
    # ------------------------------------------------------------------
    def _writer_task(self) -> Generator:
        self._writer_running = True
        try:
            while self.pending and self.omega.leader() == self.pid:
                op_id, instance = next(iter(self.pending.items()))
                del self.pending[op_id]
                if op_id in self._log_ids:
                    continue
                ok = yield from self._commit_one(instance)
                if not ok:
                    self.pending[op_id] = instance
                    return
        finally:
            self._writer_running = False

    def _commit_one(self, instance: OpInstance) -> Generator:
        op_num = self.next_op_num
        self.next_op_num += 1
        self.log[op_num] = instance
        self._log_ids.add(instance.op_id)
        self.acked_upto = max(self.acked_upto, op_num)
        self._write_acks[op_num] = {self.pid}
        acks = self._write_acks[op_num]
        deadline = self.local_time + self.ack_timeout

        def all_needed_acked() -> bool:
            needed = set(range(self.n)) - self.out_of_date
            return needed <= acks

        while not all_needed_acked():
            self.broadcast(MWrite(op_num, instance))
            yield from self.wait_for(
                all_needed_acked,
                timeout=min(self.retry_period,
                            max(deadline - self.local_time, 0.1)),
            )
            if all_needed_acked():
                break
            if self.local_time >= deadline:
                # Invalidate the non-responders through Chubby.  This is
                # the step that hangs forever when the writer has lost its
                # own Chubby session (the paper's noted vulnerability).
                laggards = set(range(self.n)) - self.out_of_date - acks
                ok = yield from self._invalidate(laggards)
                if not ok:
                    return False

        self.committed = max(self.committed, op_num)
        self._apply_ready()
        self.broadcast(MCommit(op_num))
        return True

    def _invalidate(self, laggards: set[int]) -> Generator:
        """Mark ``laggards`` out-of-date via Chubby.  Blocks while our own
        Chubby session is down (writes stall indefinitely)."""
        if not self.chubby.connected[self.pid]:
            yield from self.wait_for(
                lambda: self.chubby.connected[self.pid]
            )
        # One Chubby round trip to invalidate the coordinators.  The
        # invalidation reaches the laggards out of band (lock expiry), so
        # it works even across the very partition that made them lag.
        yield from self.wait_for(lambda: False, timeout=self.chubby.rtt)
        self.chubby.invalidate(laggards)
        self.out_of_date |= laggards
        return True

    # ------------------------------------------------------------------
    # Catch-up and revalidation (anti-entropy)
    # ------------------------------------------------------------------
    def _sync_task(self) -> Generator:
        """Periodically pull missing log entries while lagging, and
        revalidate (one Chubby round trip) once caught up."""
        while True:
            yield from self.wait_for(lambda: False,
                                     timeout=self.retry_period)
            lagging = (not self.up_to_date
                       or self.applied_upto < self.acked_upto)
            if not lagging:
                continue
            target = self.omega.leader()
            if target != self.pid:
                self.send(target, MFetch(self.applied_upto))
            if not self.up_to_date and self._caught_up():
                yield from self.wait_for(lambda: False,
                                         timeout=self.chubby.rtt)
                if self._caught_up():
                    self.up_to_date = True
                    target = self.omega.leader()
                    if target != self.pid:
                        self.send(target, MRevalidate(self.applied_upto))

    def _caught_up(self) -> bool:
        return self.applied_upto >= self.committed and (
            self.applied_upto >= self.acked_upto
        )

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_message(self, src: int, msg: Any) -> None:
        if self.omega.handle(src, msg):
            return
        name = type(msg).__name__
        handler = getattr(self, f"_on_{name.lower()}", None)
        if handler is None:
            raise TypeError(f"unhandled message {msg!r}")
        handler(src, msg)

    def _on_clientop(self, src: int, msg: ClientOp) -> None:
        if self.omega.leader() == self.pid:
            self._enqueue(msg.instance)

    def _on_mwrite(self, src: int, msg: MWrite) -> None:
        self.log[msg.op_num] = msg.instance
        self._log_ids.add(msg.instance.op_id)
        self.acked_upto = max(self.acked_upto, msg.op_num)
        self.send(src, MWriteAck(msg.op_num))

    def _on_mwriteack(self, src: int, msg: MWriteAck) -> None:
        acks = self._write_acks.get(msg.op_num)
        if acks is not None:
            acks.add(src)

    def _on_mcommit(self, src: int, msg: MCommit) -> None:
        self.committed = max(self.committed, msg.op_num)
        self._apply_ready()

    def _on_mfetch(self, src: int, msg: MFetch) -> None:
        entries = tuple(
            (num, self.log[num])
            for num in range(msg.have + 1, self.committed + 1)
            if num in self.log
        )
        self.send(src, MFetchReply(entries, self.committed))

    def _on_mfetchreply(self, src: int, msg: MFetchReply) -> None:
        for num, instance in msg.entries:
            self.log[num] = instance
            self._log_ids.add(instance.op_id)
            self.acked_upto = max(self.acked_upto, num)
        self.committed = max(self.committed, msg.committed)
        self._apply_ready()

    def _on_mrevalidate(self, src: int, msg: MRevalidate) -> None:
        if msg.op_num >= self.committed - 1:
            self.out_of_date.discard(src)

    # ------------------------------------------------------------------
    def _apply_ready(self) -> None:
        while (self.applied_upto + 1) in self.log and (
            self.applied_upto + 1 <= self.committed
        ):
            num = self.applied_upto + 1
            instance = self.log[num]
            self.state, response = self.spec.apply_any(self.state, instance.op)
            if instance.op_id[0] == self.pid:
                self.resolve_op(instance.op_id, response)
            self.applied_upto = num


class MegastoreCluster(BaseCluster):
    """A Megastore deployment with its Chubby service."""

    replica_class = MegastoreReplica

    def __init__(self, spec: Any, n: int = 5, *, chubby_rtt: float = 20.0,
                 ack_timeout: float = 40.0, **kwargs: Any) -> None:
        self.chubby = ChubbyService(n, rtt=chubby_rtt)
        self._ack_timeout = ack_timeout
        super().__init__(spec, n=n, **kwargs)
        for replica in self.replicas:
            self.chubby.register(replica)

    def build_replica(self, pid: int, **kwargs: Any) -> MegastoreReplica:
        return MegastoreReplica(
            pid,
            self.net,
            self.spec,
            self.n,
            self.stats,
            retry_period=2 * self.delta,
            chubby=self.chubby,
            ack_timeout=self._ack_timeout,
            **kwargs,
        )
