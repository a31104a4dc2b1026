"""The leaseholder tier: read-only learners with local reads.

A :class:`Leaseholder` is the paper's answer to read scale-out: a process
that *never* joins quorums — it holds no estimate, makes no promises, and
does not count toward any majority — yet serves linearizable reads
entirely from local state under a read lease.  Because the leader's
Prepare/Commit/LeaseGrant broadcasts already reach every registered
process, attaching L leaseholders adds only their PrepareAcks and the
grant fan-out: Θ(n + L) messages per renewal interval, independent of the
read rate (tests/core/test_lease_complexity.py pins the linearity).

The protocol surface is deliberately small:

* **Prepare** — remember the batch as *pending* (the conflict-blocking
  rule inspects it) and acknowledge.  The ack never counts toward the
  commit majority (the leader filters acceptor pids); it only releases
  the leader from waiting out the lease expiry for this holder.
* **Commit / BatchReply** — store and apply committed batches in order.
* **LeaseGrant** — refresh the lease when this pid is in the grant's
  holder set, else ask to be reintegrated (paper lines 102-106).
* **BatchRequest** — serve committed batches (and snapshots past the
  compaction point) to anyone catching up; leaseholders apply every
  batch in order and track ``last_applied`` faithfully, so their
  snapshots are as good as a replica's.
* **ClientRequest** — reads are served locally; a RMW that strays here
  is forwarded once toward the granting leader.

Crash-stop state classification mirrors the replica's tables (pinned by
tests/core/test_volatile_reset.py).  One deliberate choice is load-
bearing for shard fencing: ``pending_batches`` is *stable*.  A
leaseholder's PrepareAck externalizes "I know batch j is in flight" —
it is precisely what lets the leader commit j without waiting out this
holder's lease — so that knowledge must survive a crash.  Were it
volatile, a leaseholder could ack Prepare(j) (say, a shard freeze),
crash, recover with a still-valid in-flight lease for k = j-1, and
serve a read from the frozen range without blocking on j
(tests/shard/test_leaseholder_fencing.py).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Generator, Optional

from ..objects.spec import ObjectSpec
from ..net.runtime import Runtime
from ..sim.process import Process
from ..sim.tasks import Until
from ..sim.trace import RunStats
from .config import ChtConfig
from .messages import (
    BatchReply,
    BatchRequest,
    ClientRequest,
    Commit,
    LeaseGrant,
    LeaseRequest,
    Prepare,
    PrepareAck,
    Snapshot,
)
from .readpath import LocalReadMixin
from .state import ReadLease

__all__ = ["Leaseholder"]


def _noop() -> None:
    """Shared timer callback for pure wake-up timers (see ``_wait``)."""


class Leaseholder(LocalReadMixin, Process):
    """A read-only learner holding a read lease (no quorum participation)."""

    _READ_SPAN = "read.local"

    def __init__(
        self,
        pid: int,
        runtime: Runtime,
        spec: ObjectSpec,
        config: ChtConfig,
        stats: Optional[RunStats] = None,
    ) -> None:
        if pid < config.n:
            raise ValueError("leaseholder pids must lie above the replicas")
        super().__init__(pid, runtime)
        self.spec = spec
        self.config = config
        self.stats = stats if stats is not None else RunStats()
        self._site_label = {} if self.site is None else {"site": self.site}
        self.bug_switches: set[str] = set()

        # --- stable state (survives crashes) --------------------------
        self.batches: dict[int, frozenset] = {}
        self.applied_upto: int = 0
        self.state: Any = spec.initial_state()
        self.pruned_upto: int = 0
        self.last_applied: dict[int, tuple[int, Any]] = {}
        self._op_seq = 0
        # Batches this process has been *notified* of but not seen commit.
        # Stable on purpose: the PrepareAck below externalizes this
        # knowledge (it releases the leader from the lease-expiry wait),
        # so a crash must not erase it — see the module docstring and the
        # shard-fencing regression test.  Values accumulate by union when
        # competing leaders prepare the same slot: the conflict check can
        # then only over-block, never under-block.
        self.pending_batches: dict[int, frozenset] = {}

        # --- volatile state -------------------------------------------
        self.lease: Optional[ReadLease] = None
        self._client_read_tasks: set[tuple[int, int]] = set()
        self._catchup_target: int = 0
        self._fetching: bool = False
        # Where the most recent LeaseGrant came from: the best guess at
        # the current leader, used only to forward stray RMW requests.
        self._last_leader: Optional[int] = None

    # Attribute classification, same contract as ChtReplica's tables
    # (tests/core/test_volatile_reset.py covers both classes).
    STABLE_ATTRS = frozenset({
        "batches", "applied_upto", "state", "pruned_upto", "last_applied",
        "_op_seq", "pending_batches",
    })
    _VOLATILE_FACTORIES = {
        "lease": lambda: None,
        "_client_read_tasks": set,
        "_catchup_target": lambda: 0,
        "_fetching": lambda: False,
        "_last_leader": lambda: None,
    }
    INFRA_ATTRS = frozenset({
        "spec", "config", "stats", "_site_label", "bug_switches",
    })

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Leaseholders are purely reactive: no tasks, no timers.  They
        are folded into the lease flow by the leader's next grant (their
        LeaseRequest answer to it reintegrates them)."""

    def on_crash(self) -> None:
        for attr, factory in self._VOLATILE_FACTORIES.items():
            setattr(self, attr, factory())

    def on_recover(self) -> None:
        self.start()

    def _next_op_id(self) -> tuple[int, int]:
        self._op_seq += 1
        return (self.pid, self._op_seq)

    # ==================================================================
    # Message handlers
    # ==================================================================
    def on_message(self, src: int, msg: Any) -> None:
        handler = self._HANDLERS.get(type(msg).__name__)
        if handler is not None:
            handler(self, src, msg)
        # Everything else is replica-to-replica traffic the broadcast
        # primitive also delivered here (heartbeats, EstReq, stray acks);
        # a learner has nothing to contribute and ignores it.

    def _on_prepare(self, src: int, msg: Prepare) -> None:
        if msg.prev_batch is not None:
            self._store_batch(msg.j - 1, msg.prev_batch)
        if msg.j > self.applied_upto and msg.j not in self.batches:
            prior = self.pending_batches.get(msg.j)
            self.pending_batches[msg.j] = (
                msg.ops if prior is None else prior | msg.ops
            )
        # Ack unconditionally: the ack carries no promise (this process
        # is not an acceptor), it only tells the leader of tenure msg.t
        # that this holder has been notified of batch j.
        self.send(src, PrepareAck(msg.t, msg.j))

    def _on_commit(self, src: int, msg: Commit) -> None:
        self._store_batch(msg.j, msg.ops)
        self._apply_ready()
        if self.applied_upto < msg.j:
            self._ensure_catchup(msg.j)

    def _on_lease_grant(self, src: int, msg: LeaseGrant) -> None:
        self._last_leader = src
        if self.pid in msg.leaseholders:
            if self.lease is None or msg.ts > self.lease.ts:
                self.lease = ReadLease(msg.k, msg.ts)
        else:
            self.send(src, LeaseRequest())
        if msg.k > self.applied_upto:
            self._ensure_catchup(msg.k)

    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        if self.spec.is_read(msg.op):
            self._serve_client_read(msg.client_id, msg.seq, msg.op)
            return
        # A RMW has no business here; forward it once toward the leader
        # that granted our lease (sessions also rotate toward replicas on
        # their own, so dropping when we know no leader is safe).
        if not msg.forwarded and self._last_leader is not None:
            self.send(self._last_leader, replace(msg, forwarded=True))

    def _on_batch_request(self, src: int, msg: BatchRequest) -> None:
        known = tuple(
            (j, self.batches[j]) for j in sorted(msg.wanted)
            if j in self.batches
        )
        snapshot = None
        if any(1 <= j <= self.pruned_upto for j in msg.wanted):
            snapshot = self._make_snapshot()
        if known or snapshot is not None:
            self.send(src, BatchReply(known, snapshot))

    def _on_batch_reply(self, src: int, msg: BatchReply) -> None:
        if msg.snapshot is not None:
            self._install_snapshot(msg.snapshot)
        for j, ops in msg.batches:
            self._store_batch(j, ops)
        self._apply_ready()

    _HANDLERS = {
        "Prepare": _on_prepare,
        "Commit": _on_commit,
        "LeaseGrant": _on_lease_grant,
        "ClientRequest": _on_client_request,
        "BatchRequest": _on_batch_request,
        "BatchReply": _on_batch_reply,
    }

    # ==================================================================
    # Batch storage and application
    # ==================================================================
    def _store_batch(self, j: int, ops: frozenset) -> None:
        if j < 1:
            return
        existing = self.batches.get(j)
        if existing is not None:
            if existing != ops:
                raise AssertionError(
                    f"I1 violated locally at {self.pid}: batch {j} "
                    f"rewritten from {set(existing)} to {set(ops)}"
                )
            return
        self.batches[j] = ops
        self.pending_batches.pop(j, None)

    def _apply_ready(self) -> None:
        """Apply committed batches in sequence (learner half of the
        replica's ``_apply_ready``: no futures to resolve, no replies to
        send — but ``last_applied`` is maintained identically so this
        process's snapshots carry a full reply cache)."""
        batches = self.batches
        j = self.applied_upto + 1
        if j not in batches:
            return
        apply_any = self.spec.apply_any
        last_applied = self.last_applied
        obs = self.obs
        while j in batches:
            for instance in sorted(batches[j]):
                self.state, response = apply_any(self.state, instance.op)
                pid, seq = instance.op_id
                prev = last_applied.get(pid)
                if prev is None or seq > prev[0]:
                    last_applied[pid] = (seq, response)
            self.applied_upto = j
            # Stale pending entries below the applied frontier can no
            # longer affect k-hat; drop them so the dict stays small.
            self.pending_batches.pop(j, None)
            j += 1
        if obs is not None:
            obs.registry.gauge("applied_upto", pid=self.pid).set(
                self.applied_upto
            )
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        interval = self.config.compaction_interval
        if not interval:
            return
        target = self.applied_upto - self.config.compaction_retain
        if target - self.pruned_upto < interval:
            return
        for j in range(self.pruned_upto + 1, target + 1):
            self.batches.pop(j, None)
        self.pruned_upto = target

    def _make_snapshot(self) -> Snapshot:
        return Snapshot(
            upto=self.applied_upto,
            state=self.state,
            last_applied=tuple(
                (pid, seq, response)
                for pid, (seq, response) in sorted(self.last_applied.items())
            ),
        )

    def _install_snapshot(self, snapshot: Snapshot) -> None:
        if snapshot.upto <= self.applied_upto:
            return
        self.state = snapshot.state
        self.applied_upto = snapshot.upto
        self.pruned_upto = max(self.pruned_upto, snapshot.upto)
        for pid, seq, response in snapshot.last_applied:
            prev = self.last_applied.get(pid)
            if prev is None or seq > prev[0]:
                self.last_applied[pid] = (seq, response)
        for j in [j for j in self.pending_batches if j <= snapshot.upto]:
            self.pending_batches.pop(j, None)
        self._apply_ready()

    # ------------------------------------------------------------------
    # Catch-up (fetch committed batches we missed)
    # ------------------------------------------------------------------
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
                    j for j in range(self.applied_upto + 1,
                                     self._catchup_target + 1)
                    if j not in self.batches
                ]
                if not missing:
                    return
                self.broadcast(BatchRequest(frozenset(missing)))
                yield from self._wait(
                    lambda: all(j in self.batches for j in missing),
                    timeout=self.config.retry_period,
                )
        finally:
            self._fetching = False

    # ==================================================================
    # Utilities
    # ==================================================================
    def _wait(self, predicate, timeout: Optional[float] = None) -> Generator:
        if timeout is None:
            yield Until(predicate)
            return
        deadline = self.local_time + max(timeout, 0.0)
        self.set_timer(max(timeout, 0.0), _noop)
        yield Until(lambda: predicate() or self.local_time >= deadline)

    def __repr__(self) -> str:
        status = "crashed" if self.crashed else (
            "leased" if self._lease_valid() else "lapsed"
        )
        return (
            f"<Leaseholder {self.pid} {status} applied={self.applied_upto}>"
        )
