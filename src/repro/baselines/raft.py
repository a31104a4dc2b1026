"""Raft (Ongaro & Ousterhout, USENIX ATC'14) — replication and read path.

Faithful to the parts the paper compares against (Section 5):

* Leader election with randomized timeouts and the *up-to-date log*
  restriction on granting votes (only a process holding every committed
  entry can win).
* Log replication via AppendEntries with the consistency check; the leader
  imposes its log on followers, commit is by majority match on a
  current-term entry.
* **Reads are neither local nor non-blocking**: every read is sent to the
  leader, which — before answering — exchanges a heartbeat round with a
  majority of the cluster to confirm it is still the leader (the ReadIndex
  protocol sketched in the Raft paper and dissertation).  This is exactly
  the behaviour the paper contrasts with its local reads.

Log entries and the term/vote pair are stable across crashes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..objects.spec import Operation, OpInstance
from ..sim.tasks import Future
from .common import BaseCluster, BaseReplica, ClientOp

__all__ = ["RaftReplica", "RaftCluster"]


@dataclass(frozen=True)
class LogEntry:
    term: int
    instance: OpInstance


@dataclass(frozen=True)
class RequestVote:
    term: int
    last_log_index: int
    last_log_term: int

    category = "consensus"


@dataclass(frozen=True)
class VoteReply:
    term: int
    granted: bool

    category = "consensus"


@dataclass(frozen=True)
class AppendEntries:
    term: int
    prev_index: int
    prev_term: int
    entries: tuple  # tuple[LogEntry, ...]
    leader_commit: int
    seq: int  # heartbeat round number, used by the ReadIndex quorum

    category = "consensus"


@dataclass(frozen=True)
class AppendReply:
    term: int
    success: bool
    match_index: int
    seq: int

    category = "consensus"


@dataclass(frozen=True)
class ReadRequest:
    """A follower forwards a read to the leader (reads are not local)."""

    op_id: tuple
    op: Operation

    category = "consensus"


@dataclass(frozen=True)
class ReadResult:
    op_id: tuple
    value: Any

    category = "consensus"


class RaftReplica(BaseReplica):
    """One Raft server."""

    def __init__(self, *args: Any, heartbeat_period: float = 20.0,
                 election_timeout: float = 100.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.heartbeat_period = heartbeat_period
        self.election_timeout = election_timeout
        # Stable state.
        self.term = 0
        self.voted_for: Optional[int] = None
        self.log: list[LogEntry] = []  # 1-based via helpers
        # Volatile state.
        self.role = "follower"
        self.leader_hint: Optional[int] = None
        self.commit_index = 0
        self.next_index: dict[int, int] = {}
        self.match_index: dict[int, int] = {}
        self.votes: set[int] = set()
        self._last_leader_contact = 0.0
        self._hb_seq = 0
        self._hb_acks: dict[int, set[int]] = {}
        self._applied_ids: set[tuple[int, int]] = set()
        self._log_ids: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    # Log helpers (1-based indexing)
    # ------------------------------------------------------------------
    def last_index(self) -> int:
        return len(self.log)

    def term_at(self, index: int) -> int:
        if index == 0:
            return 0
        return self.log[index - 1].term

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._last_leader_contact = self.local_time
        self.spawn(self._election_task(), name="raft-election")

    def on_crash(self) -> None:
        super().on_crash()
        self.role = "follower"
        self.leader_hint = None
        self.commit_index = 0  # re-derived from the leader after recovery
        self.votes = set()
        self._hb_acks = {}
        # Conservatively rebuild volatile apply state from the stable log.
        self._applied_ids = set()
        self.applied_upto = 0
        self.state = self.spec.initial_state()

    def on_recover(self) -> None:
        self.start()

    # ------------------------------------------------------------------
    # Election
    # ------------------------------------------------------------------
    def _election_deadline(self) -> float:
        return self._last_leader_contact + self.rng.uniform(
            self.election_timeout, 2 * self.election_timeout
        )

    def _election_task(self) -> Generator:
        while True:
            if self.role == "leader":
                yield from self.wait_for(lambda: self.role != "leader")
                continue
            deadline = self._election_deadline()
            yield from self.wait_for(
                lambda: self.role == "leader",
                timeout=max(deadline - self.local_time, 1.0),
            )
            if self.role == "leader":
                continue
            if self.local_time >= deadline and self._last_leader_contact <= deadline - self.election_timeout:
                self._start_election()

    def _start_election(self) -> None:
        self.term += 1
        self.role = "candidate"
        self.voted_for = self.pid
        self.votes = {self.pid}
        self._last_leader_contact = self.local_time
        self.broadcast(
            RequestVote(self.term, self.last_index(),
                        self.term_at(self.last_index()))
        )

    def _become_leader(self) -> None:
        self.role = "leader"
        self.leader_hint = self.pid
        self.next_index = {p: self.last_index() + 1 for p in self._peers()}
        self.match_index = {p: 0 for p in self._peers()}
        # Raft's no-op: a leader may only count replicas for entries of its
        # own term, so it commits a no-op immediately to (transitively)
        # commit every predecessor entry it carries.
        from ..objects.spec import NOOP, OpInstance

        noop = OpInstance(self.next_op_id(), NOOP)
        self.log.append(LogEntry(self.term, noop))
        self._log_ids.add(noop.op_id)
        self.spawn(self._leader_task(), name="raft-leader")

    def _peers(self) -> list[int]:
        return [p for p in range(self.n) if p != self.pid]

    # ------------------------------------------------------------------
    # Leader duties
    # ------------------------------------------------------------------
    def _leader_task(self) -> Generator:
        term = self.term
        while self.role == "leader" and self.term == term:
            self._broadcast_append()
            yield from self.wait_for(
                lambda: self.role != "leader" or self.term != term,
                timeout=self.heartbeat_period,
            )

    def _broadcast_append(self) -> int:
        """Send AppendEntries to every follower; returns the round seq."""
        self._hb_seq += 1
        seq = self._hb_seq
        self._hb_acks[seq] = {self.pid}
        for peer in self._peers():
            nxt = self.next_index.get(peer, self.last_index() + 1)
            prev = nxt - 1
            entries = tuple(self.log[nxt - 1:])
            self.send(peer, AppendEntries(
                self.term, prev, self.term_at(prev), entries,
                self.commit_index, seq,
            ))
        if len(self._hb_acks) > 64:
            for old in sorted(self._hb_acks)[:-32]:
                del self._hb_acks[old]
        return seq

    def _advance_commit(self) -> None:
        for index in range(self.last_index(), self.commit_index, -1):
            if self.term_at(index) != self.term:
                break
            votes = 1 + sum(
                1 for p in self._peers() if self.match_index.get(p, 0) >= index
            )
            if votes >= self.majority:
                self.commit_index = index
                self._apply_ready()
                break

    # ------------------------------------------------------------------
    # Client operations
    # ------------------------------------------------------------------
    def start_operation(self, instance: OpInstance, kind: str,
                        future: Future) -> None:
        if kind == "read":
            self.spawn(self._read_client_task(instance, future), name="read")
        else:
            self.spawn(self._rmw_client_task(instance, future), name="rmw")

    def _rmw_client_task(self, instance: OpInstance, future: Future) -> Generator:
        while not future.done:
            target = self.leader_hint if self.leader_hint is not None else self.pid
            if target == self.pid:
                if self.role == "leader":
                    self._leader_append(instance)
            else:
                self.send(target, ClientOp(instance, kind="rmw"))
            yield from self.wait_for(lambda: future.done,
                                     timeout=self.retry_period)

    def _read_client_task(self, instance: OpInstance, future: Future) -> Generator:
        # Reads always involve the leader and a heartbeat quorum round.
        while not future.done:
            if self.role == "leader":
                self.spawn(
                    self._leader_read_task(self.pid, instance.op_id,
                                           instance.op),
                    name="leader-read",
                )
            elif self.leader_hint is not None and self.leader_hint != self.pid:
                self.send(self.leader_hint,
                          ReadRequest(instance.op_id, instance.op))
            yield from self.wait_for(lambda: future.done,
                                     timeout=self.retry_period)

    def _leader_append(self, instance: OpInstance) -> None:
        if instance.op_id in self._log_ids or instance.op_id in self._applied_ids:
            return
        self.log.append(LogEntry(self.term, instance))
        self._log_ids.add(instance.op_id)
        self._broadcast_append()

    def _leader_read_task(self, origin: int, op_id: tuple,
                          op: Operation) -> Generator:
        """The ReadIndex protocol: confirm leadership with a heartbeat
        round, then serve the read at the captured commit index."""
        term = self.term
        read_index = self.commit_index
        seq = self._broadcast_append()
        acks = self._hb_acks.get(seq, set())

        def confirmed() -> bool:
            return len(acks) >= self.majority

        yield from self.wait_for(
            lambda: confirmed() or self.role != "leader" or self.term != term,
            timeout=4 * self.retry_period,
        )
        if not confirmed() or self.role != "leader" or self.term != term:
            return  # client retries
        if self.applied_upto < read_index:
            yield from self.wait_for(lambda: self.applied_upto >= read_index)
        _, value = self.spec.apply_any(self.state, op)
        if origin == self.pid:
            self.resolve_op(op_id, value)
        else:
            self.send(origin, ReadResult(op_id, value))

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_message(self, src: int, msg: Any) -> None:
        name = type(msg).__name__
        handler = getattr(self, f"_on_{name.lower()}", None)
        if handler is None:
            raise TypeError(f"unhandled message {msg!r}")
        handler(src, msg)

    def _maybe_step_down(self, term: int) -> None:
        if term > self.term:
            self.term = term
            self.role = "follower"
            self.voted_for = None

    def _on_requestvote(self, src: int, msg: RequestVote) -> None:
        self._maybe_step_down(msg.term)
        grant = False
        if msg.term == self.term and self.voted_for in (None, src):
            # The up-to-date restriction: candidate's log must be at least
            # as complete as ours.
            my_last_term = self.term_at(self.last_index())
            up_to_date = (msg.last_log_term, msg.last_log_index) >= (
                my_last_term, self.last_index()
            )
            if up_to_date:
                grant = True
                self.voted_for = src
                self._last_leader_contact = self.local_time
        self.send(src, VoteReply(self.term, grant))

    def _on_votereply(self, src: int, msg: VoteReply) -> None:
        self._maybe_step_down(msg.term)
        if self.role == "candidate" and msg.term == self.term and msg.granted:
            self.votes.add(src)
            if len(self.votes) >= self.majority:
                self._become_leader()

    def _on_appendentries(self, src: int, msg: AppendEntries) -> None:
        self._maybe_step_down(msg.term)
        if msg.term < self.term:
            self.send(src, AppendReply(self.term, False, 0, msg.seq))
            return
        self.role = "follower"
        self.leader_hint = src
        self._last_leader_contact = self.local_time
        # Consistency check.
        if msg.prev_index > self.last_index() or (
            self.term_at(msg.prev_index) != msg.prev_term
        ):
            self.send(src, AppendReply(self.term, False, 0, msg.seq))
            return
        # Append / overwrite conflicting suffix (the leader imposes its log).
        index = msg.prev_index
        for entry in msg.entries:
            index += 1
            if index <= self.last_index():
                if self.log[index - 1].term != entry.term:
                    for dropped in self.log[index - 1:]:
                        self._log_ids.discard(dropped.instance.op_id)
                    del self.log[index - 1:]
                else:
                    continue
            self.log.append(entry)
            self._log_ids.add(entry.instance.op_id)
        match = msg.prev_index + len(msg.entries)
        if msg.leader_commit > self.commit_index:
            self.commit_index = min(msg.leader_commit, self.last_index())
            self._apply_ready()
        self.send(src, AppendReply(self.term, True, match, msg.seq))

    def _on_appendreply(self, src: int, msg: AppendReply) -> None:
        self._maybe_step_down(msg.term)
        if self.role != "leader" or msg.term != self.term:
            return
        acks = self._hb_acks.get(msg.seq)
        if acks is not None:
            acks.add(src)
        if msg.success:
            self.match_index[src] = max(self.match_index.get(src, 0),
                                        msg.match_index)
            self.next_index[src] = self.match_index[src] + 1
            self._advance_commit()
        else:
            self.next_index[src] = max(1, self.next_index.get(src, 1) - 1)

    def _on_clientop(self, src: int, msg: ClientOp) -> None:
        if self.role == "leader":
            self._leader_append(msg.instance)

    def _on_readrequest(self, src: int, msg: ReadRequest) -> None:
        if self.role == "leader":
            self.spawn(self._leader_read_task(src, msg.op_id, msg.op),
                       name="leader-read")

    def _on_readresult(self, src: int, msg: ReadResult) -> None:
        self.resolve_op(msg.op_id, msg.value)

    # ------------------------------------------------------------------
    def _apply_ready(self) -> None:
        while self.applied_upto < self.commit_index:
            entry = self.log[self.applied_upto]
            instance = entry.instance
            if instance.op_id not in self._applied_ids:
                self._applied_ids.add(instance.op_id)
                self.state, response = self.spec.apply_any(
                    self.state, instance.op
                )
                if instance.op_id[0] == self.pid:
                    self.resolve_op(instance.op_id, response)
            self.applied_upto += 1


class RaftCluster(BaseCluster):
    """A Raft deployment; reads round-trip a heartbeat quorum."""

    replica_class = RaftReplica

    def build_replica(self, pid: int, **kwargs: Any) -> RaftReplica:
        return RaftReplica(
            pid,
            self.net,
            self.spec,
            self.n,
            self.stats,
            retry_period=4 * self.delta,
            **kwargs,
        )

    def leader(self) -> Optional[RaftReplica]:
        for replica in self.replicas:
            if not replica.crashed and replica.role == "leader":  # type: ignore[attr-defined]
                return replica  # type: ignore[return-value]
        return None
