"""Spanner's replication and read path (Corbett et al., OSDI'12).

Models the TrueTime-based design the paper contrasts with in Section 5:

* **Writes pay the clock uncertainty.**  The leader timestamps each write
  with ``TT.now().latest`` and *commit-waits* until ``TT.now().earliest``
  exceeds the timestamp before acknowledging — roughly ``2 * uncertainty``
  of added latency on every write, which grows with the clock skew bound
  (CHT's post-GST commit latency is independent of epsilon).
* **Reads at followers have three options**, all reproduced:

  - ``"leader"`` (option a): forward to the leader — not local, and the
    read load concentrates on the leader;
  - ``"now"`` (option b): pick ``t_read = TT.now().latest`` and wait until
    a write with a higher timestamp has been applied — blocks unboundedly
    when no writes arrive, even without any conflict;
  - ``"stale"`` (option c): read at the highest applied timestamp — never
    blocks but may return stale values, violating linearizability (the
    checker in :mod:`repro.verify` catches this in experiment E9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..leader.omega import HeartbeatOmega
from ..objects.spec import Operation, OpInstance
from ..sim.clocks import TrueTimeClock
from ..sim.tasks import Future, Until
from .common import BaseCluster, BaseReplica, ClientOp

__all__ = ["SpannerReplica", "SpannerCluster"]


@dataclass(frozen=True)
class SWrite:
    seq: int
    ts: float
    instance: OpInstance

    category = "consensus"


@dataclass(frozen=True)
class SWriteAck:
    seq: int

    category = "consensus"


@dataclass(frozen=True)
class SApply:
    """Leader announces entries up to ``seq`` are committed and applied."""

    seq: int

    category = "consensus"


@dataclass(frozen=True)
class SFetch:
    have: int

    category = "consensus"


@dataclass(frozen=True)
class SFetchReply:
    entries: tuple  # ((seq, ts, instance), ...)
    committed: int

    category = "consensus"


@dataclass(frozen=True)
class SReadRequest:
    op_id: tuple
    op: Operation

    category = "consensus"


@dataclass(frozen=True)
class SReadReply:
    op_id: tuple
    value: Any

    category = "consensus"


class SpannerReplica(BaseReplica):
    """One Spanner group member."""

    def __init__(self, *args: Any, uncertainty: float,
                 read_mode: str = "leader",
                 heartbeat_period: float = 20.0,
                 heartbeat_timeout: float = 60.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if read_mode not in ("leader", "now", "stale"):
            raise ValueError(f"unknown read mode {read_mode!r}")
        self.read_mode = read_mode
        self.omega = HeartbeatOmega(self, heartbeat_period, heartbeat_timeout)
        self.truetime = TrueTimeClock(self._clock, uncertainty)
        self.log: dict[int, tuple[float, OpInstance]] = {}
        self.committed = 0
        self.next_seq = 1
        self.last_ts = 0.0
        self.max_applied_ts = 0.0
        # (ts, state_after) snapshots for timestamped reads.
        self.snapshots: list[tuple[float, Any]] = []
        self.pending: dict[tuple[int, int], OpInstance] = {}
        self._write_acks: dict[int, set[int]] = {}
        self._log_ids: set[tuple[int, int]] = set()
        self._writer_running = False
        self.commit_waits: list[float] = []  # measured commit-wait durations

    def tt_now(self) -> tuple[float, float]:
        return self.truetime.now(self.now)

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.omega.start()

    def on_crash(self) -> None:
        super().on_crash()
        self.pending = {}
        self._write_acks = {}
        self._writer_running = False

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

    def _enqueue(self, instance: OpInstance) -> None:
        if instance.op_id in self._log_ids:
            return
        self.pending[instance.op_id] = instance
        if not self._writer_running:
            self.spawn(self._writer_task(), name="spanner-writer")

    # ------------------------------------------------------------------
    # Leader write path: replicate, then commit-wait
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
        seq = self.next_seq
        self.next_seq += 1
        _, latest = self.tt_now()
        ts = max(latest, self.last_ts + 1e-9)
        self.last_ts = ts
        self.log[seq] = (ts, instance)
        self._log_ids.add(instance.op_id)
        self._write_acks[seq] = {self.pid}
        acks = self._write_acks[seq]

        def majority_acked() -> bool:
            return len(acks) >= self.majority

        attempts = 0
        while not majority_acked():
            if self.omega.leader() != self.pid or attempts > 10:
                return False
            self.broadcast(SWrite(seq, ts, instance))
            attempts += 1
            yield from self.wait_for(majority_acked,
                                     timeout=self.retry_period)

        # Commit-wait: do not expose the write until the timestamp is
        # guaranteed to be in the past at every replica.
        wait_start = self.local_time
        yield from self.wait_for(lambda: self.tt_now()[0] > ts)
        self.commit_waits.append(self.local_time - wait_start)

        self.committed = max(self.committed, seq)
        self._apply_ready()
        self.broadcast(SApply(seq))
        return True

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _read_task(self, instance: OpInstance, future: Future) -> Generator:
        if self.omega.leader() == self.pid:
            # The leader's applied state reflects every committed write.
            _, value = self.spec.apply_any(self.state, instance.op)
            self.resolve_op(instance.op_id, value)
            return
        if self.read_mode == "leader":
            yield from self._leader_read(instance, future)
        elif self.read_mode == "now":
            yield from self._now_read(instance)
        else:
            self._stale_read(instance)

    def _leader_read(self, instance: OpInstance, future: Future) -> Generator:
        while not future.done:
            target = self.omega.leader()
            if target == self.pid:
                _, value = self.spec.apply_any(self.state, instance.op)
                self.resolve_op(instance.op_id, value)
                return
            self.send(target, SReadRequest(instance.op_id, instance.op))
            yield from self.wait_for(lambda: future.done,
                                     timeout=self.retry_period)

    def _now_read(self, instance: OpInstance) -> Generator:
        """Option (b): timestamp the read with TT.now().latest and wait for
        a write with a higher timestamp to bound the snapshot."""
        _, t_read = self.tt_now()
        yield Until(lambda: self.max_applied_ts > t_read)
        value = self._read_snapshot(t_read, instance.op)
        self.resolve_op(instance.op_id, value)

    def _stale_read(self, instance: OpInstance) -> None:
        """Option (c): read at the maximum applied timestamp — immediate
        but possibly stale."""
        _, value = self.spec.apply_any(self.state, instance.op)
        self.resolve_op(instance.op_id, value)

    def _read_snapshot(self, t_read: float, op: Operation) -> Any:
        """Evaluate ``op`` against the state as of timestamp ``t_read``."""
        chosen = None
        for ts, state in self.snapshots:
            if ts <= t_read:
                chosen = state
            else:
                break
        base = chosen if chosen is not None else self.spec.initial_state()
        _, value = self.spec.apply_any(base, op)
        return value

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

    def _on_swrite(self, src: int, msg: SWrite) -> None:
        self.log[msg.seq] = (msg.ts, msg.instance)
        self._log_ids.add(msg.instance.op_id)
        self.send(src, SWriteAck(msg.seq))

    def _on_swriteack(self, src: int, msg: SWriteAck) -> None:
        acks = self._write_acks.get(msg.seq)
        if acks is not None:
            acks.add(src)

    def _on_sapply(self, src: int, msg: SApply) -> None:
        self.committed = max(self.committed, msg.seq)
        self._apply_ready()
        if self.applied_upto < self.committed:
            self.send(src, SFetch(self.applied_upto))

    def _on_sfetch(self, src: int, msg: SFetch) -> None:
        entries = tuple(
            (seq, *self.log[seq])
            for seq in range(msg.have + 1, self.committed + 1)
            if seq in self.log
        )
        self.send(src, SFetchReply(entries, self.committed))

    def _on_sfetchreply(self, src: int, msg: SFetchReply) -> None:
        for seq, ts, instance in msg.entries:
            self.log[seq] = (ts, instance)
            self._log_ids.add(instance.op_id)
        self.committed = max(self.committed, msg.committed)
        self._apply_ready()

    def _on_sreadrequest(self, src: int, msg: SReadRequest) -> None:
        if self.omega.leader() == self.pid:
            _, value = self.spec.apply_any(self.state, msg.op)
            self.send(src, SReadReply(msg.op_id, value))

    def _on_sreadreply(self, src: int, msg: SReadReply) -> None:
        self.resolve_op(msg.op_id, msg.value)

    # ------------------------------------------------------------------
    def _apply_ready(self) -> None:
        while (self.applied_upto + 1) in self.log and (
            self.applied_upto + 1 <= self.committed
        ):
            seq = self.applied_upto + 1
            ts, instance = self.log[seq]
            self.state, response = self.spec.apply_any(self.state, instance.op)
            self.max_applied_ts = max(self.max_applied_ts, ts)
            self.snapshots.append((ts, self.state))
            if len(self.snapshots) > 100_000:
                del self.snapshots[: 50_000]
            if instance.op_id[0] == self.pid:
                self.resolve_op(instance.op_id, response)
            self.applied_upto = seq


class SpannerCluster(BaseCluster):
    """A Spanner deployment.

    ``read_mode`` selects the follower read option: ``"leader"``,
    ``"now"``, or ``"stale"``.  ``uncertainty`` is the TrueTime interval
    half-width; it must be at least ``epsilon / 2`` for the intervals to
    actually contain real time (the default derives it from epsilon).
    """

    replica_class = SpannerReplica

    def __init__(self, *args: Any, read_mode: str = "leader",
                 uncertainty: Optional[float] = None, **kwargs: Any) -> None:
        self._read_mode = read_mode
        self._uncertainty = uncertainty
        super().__init__(*args, **kwargs)

    def build_replica(self, pid: int, **kwargs: Any) -> SpannerReplica:
        uncertainty = (
            self._uncertainty if self._uncertainty is not None
            else self.epsilon / 2
        )
        return SpannerReplica(
            pid,
            self.net,
            self.spec,
            self.n,
            self.stats,
            retry_period=2 * self.delta,
            uncertainty=uncertainty,
            read_mode=self._read_mode,
            **kwargs,
        )
