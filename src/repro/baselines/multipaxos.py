"""Multi-Paxos state machine replication.

The control baseline: *every* operation — reads included — is sequenced
through the leader's log.  This is exactly what the paper means by
"if we ignore the special property of read operations and submit them as
generic RMW operations, the red code could simply be stripped away": a
plain linearizable replicated object whose reads are neither local nor
non-blocking.

The implementation is a classical Multi-Paxos: a single stable leader
(chosen by an Omega heartbeat detector) runs phase 1 once per leadership
over all unchosen slots, then assigns client commands to consecutive slots
with phase 2; a value is chosen when a majority of acceptors accept it.
Ballots are ``(round, pid)`` pairs, acceptor state (promise + accepted
values) survives crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..core.messages import ClientReply
from ..leader.omega import HeartbeatOmega
from ..objects.spec import OpInstance
from ..sim.tasks import Future
from .common import BaseCluster, BaseReplica, ClientOp

__all__ = ["PaxosReplica", "PaxosCluster"]

Ballot = tuple[int, int]  # (round, proposer pid)


@dataclass(frozen=True)
class P1a:
    ballot: Ballot
    from_slot: int

    category = "consensus"


@dataclass(frozen=True)
class P1b:
    ballot: Ballot
    accepted: tuple  # tuple[(slot, ballot, OpInstance), ...] for slots >= from_slot
    chosen_upto: int

    category = "consensus"


@dataclass(frozen=True)
class P2a:
    ballot: Ballot
    slot: int
    value: OpInstance

    category = "consensus"


@dataclass(frozen=True)
class P2b:
    ballot: Ballot
    slot: int

    category = "consensus"


@dataclass(frozen=True)
class Learn:
    slot: int
    value: OpInstance

    category = "consensus"


@dataclass(frozen=True)
class LearnRequest:
    slots: frozenset

    category = "consensus"


@dataclass(frozen=True)
class LearnReply:
    entries: tuple  # tuple[(slot, OpInstance), ...]

    category = "consensus"


class PaxosReplica(BaseReplica):
    """Proposer + acceptor + learner in one process."""

    def __init__(self, *args: Any, heartbeat_period: float = 20.0,
                 heartbeat_timeout: float = 60.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.omega = HeartbeatOmega(self, heartbeat_period, heartbeat_timeout)
        # Acceptor state (stable).
        self.promised: Ballot = (-1, -1)
        self.accepted: dict[int, tuple[Ballot, OpInstance]] = {}
        # Learner state (stable).
        self.chosen: dict[int, OpInstance] = {}
        self.chosen_ids: set[tuple[int, int]] = set()
        # Proposer state (volatile).
        self.ballot: Optional[Ballot] = None
        self.next_slot = 1
        self._round = 0
        self.pending: dict[tuple[int, int], OpInstance] = {}
        self._p1_replies: dict[Ballot, dict[int, P1b]] = {}
        self._p2_acks: dict[tuple[Ballot, int], set[int]] = {}
        self._inflight: set[tuple[int, int]] = set()
        self._catchup_target = 0
        self._fetching = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.omega.start()
        self.spawn(self._driver(), name="paxos-driver")

    def on_crash(self) -> None:
        super().on_crash()
        self.ballot = None
        self.pending = {}
        self._p1_replies = {}
        self._p2_acks = {}
        self._inflight = set()
        self._fetching = False

    def on_recover(self) -> None:
        self.start()

    # ------------------------------------------------------------------
    # Client operations: everything goes through the log
    # ------------------------------------------------------------------
    def start_operation(self, instance: OpInstance, kind: str,
                        future: Future) -> None:
        self.spawn(self._submit_task(instance, future), name="submit")

    def _submit_task(self, instance: OpInstance, future: Future) -> Generator:
        while not future.done:
            target = self.omega.leader()
            if target == self.pid:
                self._enqueue(instance)
            else:
                self.send(target, ClientOp(instance, kind="op"))
            yield from self.wait_for(lambda: future.done,
                                     timeout=self.retry_period)

    def _enqueue(self, instance: OpInstance) -> None:
        op_id = instance.op_id
        if (op_id in self.chosen_ids or op_id in self.pending
                or op_id in self._inflight):
            return
        self.pending[op_id] = instance

    def accept_client_op(self, instance: OpInstance) -> None:
        # Session operations join the pending pool like any command; a
        # retransmission reaching several replicas may get the operation
        # into more than one slot, which the apply-time session dedupe
        # collapses back to exactly-once.
        self._enqueue(instance)

    # ------------------------------------------------------------------
    # Leader driver
    # ------------------------------------------------------------------
    def _driver(self) -> Generator:
        while True:
            if self.omega.leader() != self.pid:
                self.ballot = None
                yield from self.wait_for(
                    lambda: self.omega.leader() == self.pid,
                    timeout=self.retry_period,
                )
                continue
            if self.ballot is None:
                ok = yield from self._phase1()
                if not ok:
                    yield from self.wait_for(lambda: False,
                                             timeout=self.retry_period)
                    continue
            if self.pending:
                self._propose_pending()
            yield from self.wait_for(
                lambda: bool(self.pending) or self.omega.leader() != self.pid,
                timeout=self.retry_period,
            )

    def _phase1(self) -> Generator:
        """Run phase 1 for every slot above our chosen prefix."""
        self._round += 1
        ballot: Ballot = (self._round, self.pid)
        from_slot = self._contiguous_chosen() + 1
        self._p1_replies[ballot] = {}
        # Promise to ourselves.
        if ballot > self.promised:
            self.promised = ballot
        replies = self._p1_replies[ballot]

        def enough() -> bool:
            return len(replies) + 1 >= self.majority

        attempts = 0
        while not enough():
            if self.omega.leader() != self.pid or attempts > 10:
                self._p1_replies.pop(ballot, None)
                return False
            self.broadcast(P1a(ballot, from_slot))
            attempts += 1
            yield from self.wait_for(enough, timeout=self.retry_period)
        replies = self._p1_replies.pop(ballot)

        # Adopt the highest-ballot accepted value per slot, ours included.
        per_slot: dict[int, tuple[Ballot, OpInstance]] = {}
        for slot, bal, value in (
            (s, b, v) for r in replies.values() for (s, b, v) in r.accepted
        ):
            if slot not in per_slot or bal > per_slot[slot][0]:
                per_slot[slot] = (bal, value)
        for slot, (bal, value) in self.accepted.items():
            if slot >= from_slot and (
                slot not in per_slot or bal > per_slot[slot][0]
            ):
                per_slot[slot] = (bal, value)

        self.ballot = ballot
        self.next_slot = max(
            [from_slot - 1, *per_slot.keys(), *self.chosen.keys()]
        ) + 1
        # Re-propose inherited values (ensures no chosen value is lost).
        for slot in sorted(per_slot):
            if slot in self.chosen:
                continue
            ok = yield from self._phase2(slot, per_slot[slot][1])
            if not ok:
                return False
        return True

    def _propose_pending(self) -> None:
        """Assign pending commands to fresh slots and run their phase 2
        exchanges as parallel tasks — distinct slots under one ballot are
        independent, which is what lets Multi-Paxos pipeline."""
        batch, self.pending = self.pending, {}
        for op_id, instance in batch.items():
            if op_id in self.chosen_ids:
                continue
            if self.ballot is None:
                self.pending[op_id] = instance
                continue
            slot = self.next_slot
            self.next_slot += 1
            self._inflight.add(op_id)
            self.spawn(self._phase2_task(slot, instance),
                       name=f"phase2-{slot}")

    def _phase2_task(self, slot: int, instance: OpInstance) -> Generator:
        ok = yield from self._phase2(slot, instance)
        self._inflight.discard(instance.op_id)
        if not ok and instance.op_id not in self.chosen_ids:
            # Give the value back; a later leadership will retry it.
            self.pending[instance.op_id] = instance

    def _phase2(self, slot: int, value: OpInstance) -> Generator:
        ballot = self.ballot
        if ballot is None:
            # Leadership was lost — or a sibling slot's phase 2 failed and
            # reset the ballot — between scheduling this exchange and
            # running it.  Fail it; the value goes back to pending.
            return False
        key = (ballot, slot)
        self._p2_acks[key] = set()
        # Accept locally.
        if ballot >= self.promised:
            self.promised = ballot
            self.accepted[slot] = (ballot, value)
            self._p2_acks[key].add(self.pid)
        acks = self._p2_acks[key]

        def enough() -> bool:
            return len(acks) >= self.majority

        attempts = 0
        while not enough():
            if self.ballot != ballot or attempts > 10:
                self._p2_acks.pop(key, None)
                self.ballot = None
                return False
            self.broadcast(P2a(ballot, slot, value))
            attempts += 1
            yield from self.wait_for(enough, timeout=self.retry_period)
        self._p2_acks.pop(key, None)
        self._choose(slot, value)
        self.broadcast(Learn(slot, value))
        return True

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
        self._enqueue(msg.instance)

    def _on_p1a(self, src: int, msg: P1a) -> None:
        if msg.ballot > self.promised:
            self.promised = msg.ballot
        if msg.ballot == self.promised:
            accepted = tuple(
                (slot, bal, value)
                for slot, (bal, value) in sorted(self.accepted.items())
                if slot >= msg.from_slot
            )
            self.send(src, P1b(msg.ballot, accepted,
                               self._contiguous_chosen()))

    def _on_p1b(self, src: int, msg: P1b) -> None:
        bucket = self._p1_replies.get(msg.ballot)
        if bucket is not None:
            bucket[src] = msg

    def _on_p2a(self, src: int, msg: P2a) -> None:
        if msg.ballot >= self.promised:
            self.promised = msg.ballot
            self.accepted[msg.slot] = (msg.ballot, msg.value)
            self.send(src, P2b(msg.ballot, msg.slot))

    def _on_p2b(self, src: int, msg: P2b) -> None:
        acks = self._p2_acks.get((msg.ballot, msg.slot))
        if acks is not None:
            acks.add(src)

    def _on_learn(self, src: int, msg: Learn) -> None:
        self._choose(msg.slot, msg.value)
        if self._contiguous_chosen() < msg.slot:
            self._ensure_catchup(msg.slot)

    def _on_learnrequest(self, src: int, msg: LearnRequest) -> None:
        entries = tuple(
            (slot, self.chosen[slot]) for slot in sorted(msg.slots)
            if slot in self.chosen
        )
        if entries:
            self.send(src, LearnReply(entries))

    def _on_learnreply(self, src: int, msg: LearnReply) -> None:
        for slot, value in msg.entries:
            self._choose(slot, value)

    # ------------------------------------------------------------------
    # Learning and applying
    # ------------------------------------------------------------------
    def _choose(self, slot: int, value: OpInstance) -> None:
        existing = self.chosen.get(slot)
        if existing is not None:
            assert existing == value, (
                f"Paxos safety violated: slot {slot} chose {existing} "
                f"and {value}"
            )
            return
        self.chosen[slot] = value
        self.chosen_ids.add(value.op_id)
        self._apply_ready()

    def _contiguous_chosen(self) -> int:
        slot = self.applied_upto
        while (slot + 1) in self.chosen:
            slot += 1
        return slot

    def _apply_ready(self) -> None:
        while (self.applied_upto + 1) in self.chosen:
            slot = self.applied_upto + 1
            instance = self.chosen[slot]
            pid, seq = instance.op_id
            if pid >= self.n:
                # Session operation.  The same command can be chosen in two
                # slots (two leaderships both admitted a retransmission);
                # the session table makes the second occurrence a no-op.
                cached = self.session_applied.get(pid)
                if cached is None or seq > cached[0]:
                    self.state, response = self.spec.apply_any(
                        self.state, instance.op
                    )
                    self.session_applied[pid] = (seq, response)
                    reply = True
                elif seq == cached[0]:
                    response = cached[1]
                    reply = True
                else:
                    reply = False  # older than the session's last op
                if reply and self.omega.leader() == self.pid:
                    self.send(pid, ClientReply(pid, seq, response))
            else:
                self.state, response = self.spec.apply_any(
                    self.state, instance.op
                )
                if pid == self.pid:
                    self.resolve_op(instance.op_id, response)
            self.applied_upto = slot

    def _ensure_catchup(self, target: int) -> None:
        if target <= self._catchup_target and self._fetching:
            return
        self._catchup_target = max(self._catchup_target, target)
        if not self._fetching:
            self.spawn(self._fetch_task(), name="catchup")

    def _fetch_task(self) -> Generator:
        self._fetching = True
        try:
            while True:
                missing = [
                    s for s in range(self.applied_upto + 1,
                                     self._catchup_target + 1)
                    if s not in self.chosen
                ]
                if not missing:
                    return
                self.broadcast(LearnRequest(frozenset(missing)))
                yield from self.wait_for(
                    lambda: all(s in self.chosen for s in missing),
                    timeout=self.retry_period,
                )
        finally:
            self._fetching = False


class PaxosCluster(BaseCluster):
    """A Multi-Paxos deployment; reads go through the log."""

    replica_class = PaxosReplica

    def build_replica(self, pid: int, **kwargs: Any) -> PaxosReplica:
        return PaxosReplica(
            pid,
            self.net,
            self.spec,
            self.n,
            self.stats,
            retry_period=2 * self.delta,
            **kwargs,
        )
