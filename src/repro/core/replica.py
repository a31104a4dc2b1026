"""The replication algorithm (paper Section 3).

Each :class:`ChtReplica` implements the paper's three logical threads:

* **Thread 1** — handles the RMW and read operations submitted at this
  process (``submit_rmw`` / ``submit_read`` spawn per-operation tasks).
* **Thread 2** — an infinite loop that checks whether this process is the
  leader at the current local time and, if so, runs :meth:`_leader_work`
  until leadership is lost.
* **Thread 3** — the message handlers.

The code follows the paper's two-colour structure: methods belonging to the
consensus-like mechanism for RMW operations (the *black code*) carry no
special marker, while everything belonging to the read-lease mechanism (the
*red code*) is grouped under the "read-lease mechanism" sections and could
be deleted wholesale leaving a plain linearizable replicated object whose
reads go through consensus.

Stable versus volatile state: batches, the estimate, and the promise
timestamp survive crashes (they are the Paxos acceptor state and the log),
while leases, leadership tenure, and client tasks are volatile and reset
by :meth:`on_crash`.  The class-level ``STABLE_ATTRS`` /
``_VOLATILE_FACTORIES`` / ``INFRA_ATTRS`` tables classify every instance
attribute and drive the reset (pinned by
tests/core/test_volatile_reset.py).  Without a durability layer the
stable attributes simply survive in memory — perfect write-ahead
persistence.  With :meth:`attach_durability` every stable-state mutation
also appends to a write-ahead log behind a group-commit ``sync`` barrier,
a crash erases *all* of memory, and :meth:`on_recover` rebuilds the
stable state from snapshot + WAL replay (see docs/DURABILITY.md).
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Any, Generator, Optional

from ..durable.layer import SEQ_RESERVE_BLOCK, ReplicaDurability
from ..durable.wal import BatchRec, EstimateRec, PromiseRec, SeqReserve, SnapRecord
from ..objects.spec import NOOP, ObjectSpec, Operation, OpInstance
from ..net.runtime import Runtime
from ..sim.process import Process
from ..sim.tasks import Future, Sleep, Until
from ..sim.trace import RunStats
from ..leader.enhanced import EnhancedLeaderService
from ..leader.omega import HeartbeatOmega, OmegaDetector
from ..verify.invariants import BatchMonitor, LeaderIntervalMonitor
from .config import ChtConfig
from .readpath import LocalReadMixin
from .messages import (
    BatchReply,
    BatchRequest,
    ClientReply,
    ClientRequest,
    Commit,
    EstReply,
    EstReq,
    Estimate,
    LeaseGrant,
    LeaseRequest,
    Prepare,
    PrepareAck,
    Snapshot,
    SubmitOp,
)
from .state import COMPACTED, ReadLease, Tenure

__all__ = ["ChtReplica", "CommitRecord"]


def _noop() -> None:
    """Shared timer callback for pure wake-up timers (see ``_wait``)."""


class CommitRecord:
    """Per-commit measurements kept by the committing leader (experiments)."""

    __slots__ = ("j", "size", "started_local", "committed_local", "expiry_wait")

    def __init__(self, j: int, size: int, started_local: float,
                 committed_local: float, expiry_wait: bool) -> None:
        self.j = j
        self.size = size
        self.started_local = started_local
        self.committed_local = committed_local
        self.expiry_wait = expiry_wait

    @property
    def latency(self) -> float:
        return self.committed_local - self.started_local


class ChtReplica(LocalReadMixin, Process):
    """One process of the replicated object."""

    def __init__(
        self,
        pid: int,
        runtime: Runtime,
        spec: ObjectSpec,
        config: ChtConfig,
        stats: Optional[RunStats] = None,
        omega: Optional[OmegaDetector] = None,
        leader_monitor: Optional[LeaderIntervalMonitor] = None,
        batch_monitor: Optional[BatchMonitor] = None,
    ) -> None:
        super().__init__(pid, runtime)
        self.spec = spec
        self.config = config
        self.stats = stats if stats is not None else RunStats()
        self.batch_monitor = batch_monitor
        # Extra metric/span labels in multi-group runs (pids collide
        # across groups); empty — so metric names stay unchanged — in
        # ordinary single-group runs.
        self._site_label = {} if self.site is None else {"site": self.site}

        detector = omega or HeartbeatOmega(
            self, config.heartbeat_period, config.heartbeat_timeout
        )
        self.leader_service = EnhancedLeaderService(
            self,
            detector,
            config.n,
            config.support_period,
            config.support_duration,
            monitor=leader_monitor,
        )

        # --- stable state (survives crashes) --------------------------
        self.batches: dict[int, frozenset] = {}
        self.estimate: Optional[Estimate] = None
        # The phase-1 promise: the largest leadership time seen in an
        # EstReq or Prepare; this process rejects Prepares from older
        # leaders, which is what makes estimate transfer safe.
        self.max_leader_ts_seen: float = -math.inf
        self.applied_upto: int = 0
        self.state: Any = spec.initial_state()
        self.committed_op_ids: set[tuple[int, int]] = set()
        # Log compaction: batches <= pruned_upto have been folded into the
        # state; last_applied[pid] = (seq, response) of pid's most recent
        # applied operation (carried by snapshots for exactly-once
        # response recovery).
        self.pruned_upto: int = 0
        self.last_applied: dict[int, tuple[int, Any]] = {}
        # The op-id counter is stable, not volatile: invariant I1 forbids
        # an op id from ever appearing in two batches, so a restarted
        # replica must not reissue ids.  (It was historically listed
        # under volatile state but — correctly — never reset.)  Without
        # a durability layer it survives in memory like the rest of the
        # stable block; with one it restarts above the durably reserved
        # block (see _recover_from_storage).
        self._op_seq = 0

        # Durability seam: None means the legacy crash-stop model where
        # stable state survives in memory.  attach_durability installs a
        # ReplicaDurability whose WAL/snapshot then carries the stable
        # state across crashes instead.
        self.durable: Optional[ReplicaDurability] = None

        # --- volatile state -------------------------------------------
        self.pending_batches: dict[int, frozenset] = {}
        self.lease: Optional[ReadLease] = None
        self.tenure: Optional[Tenure] = None
        self.submit_queue: dict[tuple[int, int], OpInstance] = {}
        # Local time the oldest queued submission arrived; anchors the
        # batch accumulation window (config.batch_window).
        self._queue_since: Optional[float] = None
        self.op_futures: dict[tuple[int, int], Future] = {}
        self._acks: dict[tuple[float, int], set[int]] = {}
        self._est_replies: dict[float, dict[int, EstReply]] = {}
        self._last_commit: Optional[Commit] = None
        self._catchup_target: int = 0
        self._fetching: bool = False
        self._client_read_tasks: set[tuple[int, int]] = set()
        # Observability: submission timestamps (sim time) for the
        # commit-latency queue-wait phase.  Only populated when an
        # ObsContext is attached (self.obs, cached by Process.__init__);
        # stays empty — and costs nothing — otherwise.
        self._submit_times: dict[tuple[int, int], float] = {}
        # Fault-injection switches for the chaos harness: names of
        # deliberately disabled mechanisms (e.g. "skip_reply_cache").
        # Empty in normal operation.
        self.bug_switches: set[str] = set()

        # Experiment instrumentation.
        self.commit_log: list[CommitRecord] = []
        self.tenure_history: list[float] = []  # leadership acquisition times

        # The peer set never changes; computed once, copied per tenure.
        self._others: frozenset[int] = frozenset(
            p for p in range(config.n) if p != pid
        )
        # Read-only learner pids attached to this group (repro.core
        # .leaseholder).  Set by the cluster façade after construction;
        # a leader folds them into every tenure's leaseholder set, but
        # they never count toward a commit majority.
        self.leaseholder_pids: frozenset[int] = frozenset()

    # Classification of every instance attribute ChtReplica.__init__
    # defines beyond the Process base class.  on_crash is driven by the
    # volatile table, and tests/core/test_volatile_reset.py fails when a
    # new attribute is added without classifying it here — an
    # unclassified field is exactly how accidental durability (or
    # accidental amnesia) slips in.
    STABLE_ATTRS = frozenset({
        "batches", "estimate", "max_leader_ts_seen", "applied_upto",
        "state", "committed_op_ids", "pruned_upto", "last_applied",
        "_op_seq",
    })
    _VOLATILE_FACTORIES = {
        "pending_batches": dict,
        "lease": lambda: None,
        "tenure": lambda: None,
        "submit_queue": dict,
        "_queue_since": lambda: None,
        "op_futures": dict,
        "_acks": dict,
        "_est_replies": dict,
        "_last_commit": lambda: None,
        "_catchup_target": lambda: 0,
        "_fetching": lambda: False,
        "_client_read_tasks": set,
        "_submit_times": dict,
    }
    # Identity, configuration, and run-long instrumentation: not state
    # of the replicated object, untouched by crashes.
    INFRA_ATTRS = frozenset({
        "spec", "config", "stats", "batch_monitor", "_site_label",
        "leader_service", "bug_switches", "commit_log", "tenure_history",
        "_others", "leaseholder_pids", "durable",
    })

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def start(self) -> None:
        """Arm the services and Thread 2."""
        self.leader_service.start()
        self.spawn(self._thread2(), name="thread2")

    def attach_durability(self, layer: ReplicaDurability) -> None:
        """Route stable-state mutations through a WAL/snapshot seam.

        Must be attached before :meth:`start`.  From then on a crash
        erases *everything* in memory and recovery replays the storage
        (the crash-stop memory model keeps applying when no layer is
        attached).
        """
        self.durable = layer

    def on_crash(self) -> None:
        # Every volatile attribute vanishes with the process; the
        # classification table drives the reset so a newly added field
        # cannot be silently forgotten.
        for attr, factory in self._VOLATILE_FACTORIES.items():
            setattr(self, attr, factory())
        if self.durable is not None:
            # Durable mode: memory is gone wholesale.  The stable block
            # lives on the storage model now; on_recover rebuilds it
            # from snapshot + WAL replay.
            self.durable.on_crash()
            self.batches = {}
            self.estimate = None
            self.max_leader_ts_seen = -math.inf
            self.applied_upto = 0
            self.state = self.spec.initial_state()
            self.committed_op_ids = set()
            self.pruned_upto = 0
            self.last_applied = {}
            self._op_seq = 0

    def on_recover(self) -> None:
        if self.durable is not None:
            self._recover_from_storage()
        else:
            # Crash-stop model: the stable block survived in memory, but
            # pending_batches is volatile and was just reset.  The
            # surviving estimate may have been externalized through a
            # PrepareAck before the crash — that ack can have released
            # the leader from this process's lease wait — so the read
            # path must keep treating it as pending or a post-recovery
            # lease could serve a read around an in-flight conflicting
            # batch.  (The durable path does the same reseed from the
            # recovered estimate in _recover_from_storage.)
            est = self.estimate
            if est is not None and est.k not in self.batches:
                self.pending_batches[est.k] = est.ops
        self.leader_service.on_recover()
        self.start()

    def _recover_from_storage(self) -> None:
        """Rebuild the stable block from snapshot + WAL replay."""
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "recovery", "recovery", self.pid, **self._site_label
            )
        recovered = self.durable.recover(self.spec)
        self.batches = dict(recovered.batches)
        self.estimate = recovered.estimate
        self.max_leader_ts_seen = recovered.promise
        self.applied_upto = recovered.applied_upto
        self.state = recovered.state
        self.committed_op_ids = set(recovered.committed_op_ids)
        self.pruned_upto = recovered.pruned_upto
        self.last_applied = dict(recovered.last_applied)
        # Never reuse an op id: restart a full reservation block above
        # the recovered floor, covering ids whose reservation record was
        # still unsynced at the crash.
        self._op_seq = recovered.seq_floor(self.pid) + SEQ_RESERVE_BLOCK
        # An uncommitted durable estimate is a pending batch again.
        est = recovered.estimate
        if est is not None and est.k not in self.batches:
            self.pending_batches[est.k] = est.ops
        # Re-announce recovered batches to the run-wide monitor: the
        # re-record is idempotent when the durable value matches what
        # this pid reported before the crash, and raises (an invariant
        # verdict) when storage handed back a divergent batch.
        if self.batch_monitor is not None:
            # Sync-before-externalize: any promise this pid vouched for
            # in an EstReply/PrepareAck/self-ack must survive the
            # restart, or estimate transfer can read around it.
            self.batch_monitor.check_recovered_promise(
                self.pid, self.max_leader_ts_seen
            )
            for j in sorted(self.batches):
                self.batch_monitor.record_batch(
                    self.pid, j, self.batches[j], self.now
                )
        if obs is not None:
            storage = self.durable.storage
            obs.tracer.close(
                span, "recovered",
                replayed_batches=recovered.replayed_batches,
                wal_records=recovered.wal_records,
                wal_bytes=storage.wal_bytes(),
                snapshot_upto=recovered.snapshot_upto,
                snapshot_age=(
                    self.now - recovered.snapshot_taken_at
                    if recovered.snapshot_taken_at is not None else -1.0
                ),
                applied_upto=self.applied_upto,
                torn_tail=recovered.torn_tail,
            )
            obs.registry.counter(
                "recoveries_total", pid=self.pid, **self._site_label
            ).inc()

    # ==================================================================
    # Public operation API (Thread 1)
    # ==================================================================
    def submit_rmw(self, op: Operation) -> Future:
        """Submit a RMW operation; the future resolves with its response."""
        if self.crashed:
            raise RuntimeError(f"process {self.pid} is crashed")
        op_id = self._next_op_id()
        instance = OpInstance(op_id, op)
        future = Future()
        self.op_futures[op_id] = future
        self.stats.invoke(op_id, self.pid, "rmw", op, self.now)
        future.on_resolve(
            lambda value: self.stats.respond(op_id, value, self.now)
        )
        self.spawn(self._submit_task(instance, future), name=f"rmw{op_id}")
        return future

    def _next_op_id(self) -> tuple[int, int]:
        self._op_seq += 1
        if self.durable is not None:
            # Cover the id with a durable block reservation (one WAL
            # record per SEQ_RESERVE_BLOCK ids); the barriers below sync
            # it before the id can leave this process.
            self.durable.reserve_seq(self._op_seq)
        return (self.pid, self._op_seq)

    def _sync_barrier(self) -> Generator:
        """Suspend until every WAL record appended so far is durable.

        The group-commit point: concurrent barriers (and the lazy batch
        appends behind them) coalesce into one device flush.  With no
        storage fault active the flush completes inline — no event, no
        RNG draw — so fault-free runs are trace-identical to
        durability-off runs.
        """
        future = Future()
        self.durable.sync(future.resolve)
        if not future.done:
            yield future

    # ------------------------------------------------------------------
    # RMW submission (paper lines 2-6)
    # ------------------------------------------------------------------
    def _submit_task(self, instance: OpInstance, future: Future) -> Generator:
        # Send (o, (p, i)) to the believed leader, periodically, until the
        # operation has been applied locally and its response resolved.
        if self.durable is not None:
            # The id's block reservation must be durable before the id
            # leaves this process: a restart must never reissue it (I1).
            yield from self._sync_barrier()
        while not future.done:
            target = self.leader_service.believed_leader()
            if target == self.pid:
                self._enqueue_submission(instance)
            else:
                self.send(target, SubmitOp(instance))
            yield from self._wait(
                lambda: future.done, timeout=self.config.retry_period
            )

    def _enqueue_submission(self, instance: OpInstance) -> None:
        """Leader side: accept a submitted operation into the next batch."""
        if self.tenure is None:
            return  # not the leader; the submitter keeps retrying
        op_id = instance.op_id
        if op_id in self.committed_op_ids or op_id in self.submit_queue:
            return  # duplicate (invariant I1: never commit an op twice)
        cached = self.last_applied.get(op_id[0])
        if cached is not None and op_id[1] <= cached[0]:
            # Already applied, but the batch that committed it was folded
            # into a snapshot (so committed_op_ids no longer knows it).
            # Re-committing a floating retransmission would re-execute.
            return
        if not self.submit_queue:
            # First op of a fresh batch: the accumulation window (when
            # configured) runs from here.
            self._queue_since = self.local_time
        self.submit_queue[op_id] = instance
        if self.obs is not None:
            self._submit_times[op_id] = self.now

    # ------------------------------------------------------------------
    # Read path (red code; paper lines 7-19)
    # ------------------------------------------------------------------
    # submit_read / _read_task / _compute_k_hat and the session-read
    # tasks live in LocalReadMixin (repro.core.readpath), shared with the
    # read-only leaseholder tier.  The replica contributes the one piece
    # a learner cannot have: the leader's implicit lease.

    def _leader_lease_valid(self) -> bool:
        """The leader's implicit lease: it commits every batch itself, so
        once initialized it can read its own latest committed state without
        holding an explicit lease (paper: "the permanently elected leader
        ... can always read without blocking")."""
        tenure = self.tenure
        return (
            tenure is not None
            and tenure.ready
            and self.leader_service.am_leader(tenure.t, self.local_time)
        )

    # ==================================================================
    # Thread 2: leadership loop (paper lines 20-23)
    # ==================================================================
    def _thread2(self) -> Generator:
        while True:
            t = self.local_time
            if self.leader_service.am_leader(t, t):
                yield from self._leader_work(t)
            yield Sleep(self.config.leader_loop_period)

    # ------------------------------------------------------------------
    # LeaderWork (paper lines 24-51)
    # ------------------------------------------------------------------
    def _leader_work(self, t: float) -> Generator:
        cfg = self.config
        self.tenure = Tenure(t=t, leaseholders=self._all_others())
        self.tenure_history.append(t)
        obs = self.obs
        span = None
        if obs is not None:
            span = obs.tracer.begin(
                "tenure", "leader", self.pid, t=t, **self._site_label
            )
            obs.registry.counter(
                "tenures_total", pid=self.pid, **self._site_label
            ).inc()
        try:
            # --- initialization (lines 26-36) -------------------------
            replies = yield from self._collect_estimates(t)
            if replies is None:
                return
            if obs is not None:
                obs.tracer.instant(
                    "estimates.collected", "leader", self.pid,
                    t=t, replies=len(replies),
                )
            best = self._freshest_estimate(replies)
            if best is None:
                ops_star: frozenset = frozenset()
                k_star = 1
            else:
                ops_star, k_star = best.ops, best.k
            ok = yield from self._find_missing_batches(t, k_star - 1)
            if not ok:
                return
            self._apply_ready()  # ExecuteUpToBatch(k_star - 1)
            ok = yield from self._do_ops(ops_star, t, k_star)
            if not ok:
                return
            self.tenure.ready = True
            if span is not None:
                span.mark("ready_at", self.now)
                obs.tracer.instant(
                    "leader.ready", "leader", self.pid, t=t, k_star=k_star
                )
            # A NoOp keeps reads live even with no further RMW traffic.
            self._enqueue_submission(OpInstance(self._next_op_id(), NOOP))

            # --- steady state (lines 39-51) ----------------------------
            yield from self._leader_loop(t)
        finally:
            self._acks.clear()
            self._est_replies.pop(t, None)
            was_ready = self.tenure is not None and self.tenure.ready
            self.tenure = None
            self._submit_times.clear()
            if span is not None and span.open:
                # Crash-cancellation also unwinds through here, so a
                # tenure span can never leak open.
                if self.crashed:
                    status = "crashed"
                elif was_ready:
                    status = "lost"
                else:
                    status = "aborted"
                obs.tracer.close(span, status)
                obs.registry.histogram(
                    "leader_dwell_ms",
                    buckets=(10.0, 100.0, 1_000.0, 10_000.0, 100_000.0),
                    **self._site_label,
                ).observe(span.end - span.start)

    def _collect_estimates(
        self, t: float
    ) -> Generator[Any, Any, Optional[dict[int, EstReply]]]:
        """Gather estimates from a majority (lines 26-30), or None if
        leadership is lost while trying."""
        cfg = self.config
        self._est_replies[t] = {}

        def enough() -> bool:
            return len(self._est_replies[t]) + 1 >= cfg.majority

        while not enough():
            if not self.leader_service.am_leader(t, self.local_time):
                self._est_replies.pop(t, None)
                return None
            if self.max_leader_ts_seen > t:
                # Our own promise already outranks this tenure, so every
                # acceptor that honors promises will reject EstReq(t) and
                # line 52 would abort us later anyway.  Bailing here
                # matters after a durable restart: the recovered promise
                # can exceed the first post-restart tenure's timestamp,
                # and without this check the candidate would broadcast a
                # doomed EstReq forever while its leases keep renewing.
                self._est_replies.pop(t, None)
                return None
            self.broadcast(EstReq(t))
            yield from self._wait(enough, timeout=cfg.retry_period)
        return self._est_replies.pop(t)

    def _freshest_estimate(
        self, replies: dict[int, EstReply]
    ) -> Optional[Estimate]:
        """Select the freshest estimate among the replies and our own
        (line 31), storing the committed predecessor batches carried by
        the replies (line 90)."""
        candidates = []
        for reply in replies.values():
            if reply.prev_batch is not None:
                self._store_batch(reply.prev_batch_index, reply.prev_batch)
            if reply.estimate is not None:
                candidates.append(reply.estimate)
        if self.estimate is not None:
            candidates.append(self.estimate)
        if not candidates:
            return None
        return max(candidates, key=lambda e: e.freshness)

    def _find_missing_batches(self, t: float, upto: int) -> Generator:
        """Fetch batches 1..upto this process is missing (line 33).  Each
        is known by a majority (I3), hence by some correct process."""
        cfg = self.config
        while True:
            # Batches at or below the applied prefix are already folded
            # into the state (possibly via a snapshot).
            start = max(1, self.applied_upto + 1)
            missing = {j for j in range(start, upto + 1)
                       if j not in self.batches}
            if not missing:
                return True
            if not self.leader_service.am_leader(t, self.local_time):
                return False
            self.broadcast(BatchRequest(frozenset(missing)))

            def all_arrived() -> bool:
                # Incremental: drop batches as they arrive instead of
                # rescanning the whole 1..upto range per wakeup.
                batches = self.batches
                applied = self.applied_upto
                missing.difference_update(
                    [j for j in missing if j in batches or j <= applied]
                )
                return not missing

            yield from self._wait(all_arrived, timeout=cfg.retry_period)

    def _leader_loop(self, t: float) -> Generator:
        """The leader's continuing tasks (lines 39-51): renew read leases,
        commit batches of submitted RMW operations, lazily re-send the
        last committed batch."""
        cfg = self.config
        next_renewal = self.local_time  # issue leases immediately
        next_lazy = self.local_time + cfg.retry_period
        while True:
            now = self.local_time
            if not self.leader_service.am_leader(t, now):  # lines 41, 50
                return
            if now >= next_renewal:  # lines 42-44
                self._issue_leases()
                next_renewal = now + cfg.lease_renewal
            if now >= next_lazy:  # line 51 (safeguard against loss)
                if self._last_commit is not None:
                    self.broadcast(self._last_commit)
                next_lazy = now + cfg.retry_period
            batch = self._drain_queue()
            if batch:  # lines 47-49
                assert self.tenure is not None
                ok = yield from self._do_ops(batch, t, self.tenure.k + 1)
                if not ok:
                    return
                continue
            deadline = min(next_renewal, next_lazy)
            if self.submit_queue and self._queue_since is not None:
                # Accumulation window open: wake exactly when it closes
                # so the waiting burst commits as one batch.
                deadline = min(
                    deadline, self._queue_since + cfg.batch_window
                )
            timeout = max(deadline - self.local_time, cfg.leader_loop_period)
            yield from self._wait(self._batch_ready, timeout=timeout)

    def _drain_queue(self) -> Optional[frozenset]:
        """Take the queued submissions for the next batch, or None while
        the accumulation window is still open.

        With ``batch_window > 0`` the leader holds the queue for up to
        the window after the *first* submission of a batch arrived, so a
        burst of submissions commits as one DoOps instead of a DoOps per
        straggler — trading up to one window of latency for fewer
        Prepare/ack/Commit rounds per committed operation.
        """
        if not self.submit_queue:
            return None
        window = self.config.batch_window
        if window:
            since = self._queue_since
            if since is None:
                # Ops queued before this tenure carry no window start
                # (e.g. adopted across a leader change); open one now.
                self._queue_since = self.local_time
                return None
            if self.local_time < since + window:
                return None  # keep accumulating
        cap = self.config.max_batch_size
        if cap and len(self.submit_queue) > cap:
            # Take the oldest ``cap`` submissions in arrival order (the
            # dict's insertion order), so no session can starve behind
            # lower op ids; the rest stay queued and anchor a fresh
            # accumulation window.
            take = list(self.submit_queue)[:cap]
            queued = {op_id: self.submit_queue.pop(op_id) for op_id in take}
            self._queue_since = self.local_time if window else None
        else:
            queued, self.submit_queue = self.submit_queue, {}
            self._queue_since = None
        fresh = [
            inst for op_id, inst in queued.items()
            if op_id not in self.committed_op_ids
        ]
        return frozenset(fresh) if fresh else None

    def _batch_ready(self) -> bool:
        """Is there a batch _drain_queue would hand out right now?"""
        if not self.submit_queue:
            return False
        window = self.config.batch_window
        if not window:
            return True
        since = self._queue_since
        return since is None or self.local_time >= since + window

    def _all_others(self) -> set[int]:
        """Initial leaseholder set of a fresh tenure: every other
        acceptor plus the attached read-only tier."""
        return set(self._others) | set(self.leaseholder_pids)

    # ------------------------------------------------------------------
    # DoOps: commit one batch (paper lines 52-70)
    # ------------------------------------------------------------------
    def _do_ops(self, ops: frozenset, t: float, j: int) -> Generator:
        """Try to commit ``ops`` as batch ``j``; True on success, False if
        this process lost the leadership on the way."""
        cfg = self.config
        tenure = self.tenure
        assert tenure is not None

        # Line 52: abdicate if we have promised a later leader.
        if self.max_leader_ts_seen > t:
            return False
        self.max_leader_ts_seen = t

        obs = self.obs
        span = None
        if obs is not None:
            # Queue wait: how long the oldest op of this batch sat in the
            # submit queue before DoOps picked it up (0 for estimate
            # transfers, whose ops were never locally enqueued).
            now = self.now
            queue_wait = 0.0
            if self._submit_times:
                for instance in ops:
                    enqueued = self._submit_times.pop(instance.op_id, None)
                    if enqueued is not None and now - enqueued > queue_wait:
                        queue_wait = now - enqueued
            span = obs.tracer.begin(
                "batch.commit", "batch", self.pid,
                j=j, t=t, size=len(ops), queue_wait=queue_wait,
            )
        committed = False
        try:
            # Line 53: adopt the batch as our own estimate.
            estimate = Estimate(ops, t, j)
            durable = self.durable
            if durable is not None and estimate != self.estimate:
                durable.append_promise(t)
                durable.append_estimate(estimate)
            self.estimate = estimate
            self.pending_batches[j] = ops
            prev = self.batches.get(j - 1)
            assert prev is not None or j == 1 or self.applied_upto >= j - 1, (
                f"leader missing batch {j - 1}"
            )

            if durable is not None \
                    and "skip_promise_fsync" not in self.bug_switches:
                # Group-commit barrier: the self-ack below counts toward
                # the majority, so the adopted estimate (and the lazy
                # batch records behind it) must be durable first.
                yield from self._sync_barrier()
                # The barrier suspended us; re-run the line-52 check in
                # case a newer leader was promised meanwhile.
                if self.max_leader_ts_seen > t:
                    return False

            key = (t, j)
            if durable is not None and self.batch_monitor is not None:
                # The self-ack externalizes the promise exactly like a
                # follower's PrepareAck does.
                self.batch_monitor.record_externalized_promise(self.pid, t)
            self._acks[key] = {self.pid}
            acks = self._acks[key]
            prepare_start = self.local_time

            # Lines 54-58: Prepare until a majority (incl. us) acknowledges.
            # Only acceptors (pids < n) count: leaseholder acks release
            # the lease wait below but carry no estimate adoption.
            def majority_acked() -> bool:
                if len(acks) < cfg.majority:
                    return False
                return sum(1 for a in acks if a < cfg.n) >= cfg.majority

            while not majority_acked():
                if not self.leader_service.am_leader(t, self.local_time):
                    return False
                self.broadcast(Prepare(ops, t, j, prev))
                yield from self._wait(majority_acked, timeout=cfg.retry_period)

            if span is not None:
                span.mark("acked_at", self.now)

            # Lines 59-62: the leaseholder mechanism.  Wait for every current
            # leaseholder to acknowledge, or for 2*delta since the Prepares
            # started; a leaseholder that missed the round-trip window forces
            # us to wait out every lease ever issued, and is then dropped.
            # The paper's footnote allows 2*delta + beta, with beta the Prepare
            # processing time; the beta slack also keeps acks that land exactly
            # at the deadline from being miscounted as missing.
            holders = frozenset(tenure.leaseholders)
            beta = 0.01 * cfg.delta
            two_delta_deadline = prepare_start + 2 * cfg.delta + beta

            def holders_acked() -> bool:
                return holders <= acks

            if not holders_acked():
                yield from self._wait(
                    holders_acked,
                    timeout=max(two_delta_deadline - self.local_time, beta),
                )
            expiry_wait = False
            if not holders_acked() \
                    and "skip_lease_shrink" not in self.bug_switches:
                # A holder missed the 2*delta window: wait out every lease
                # ever issued (max(t, last_ts) + LeasePeriod + epsilon on
                # our clock covers the holder's skewed clock) before the
                # commit may proceed.  The planted skip_lease_shrink bug
                # drops exactly this wait — an unreachable holder's
                # still-valid lease then serves stale reads, which the
                # chaos soak's linearizability verdict catches.
                expiry_wait = True
                tenure.lease_expiry_waits += 1
                last_ts = tenure.last_lease_ts if tenure.last_lease_ts is not None else t
                expiry = max(t, last_ts) + cfg.lease_period + cfg.epsilon
                if self.local_time <= expiry:
                    yield from self._wait(
                        lambda: self.local_time > expiry,
                        timeout=expiry - self.local_time + cfg.leader_loop_period,
                    )
            tenure.leaseholders = set(acks) - {self.pid}
            if obs is not None:
                span.mark("holders_done_at", self.now)
                if expiry_wait:
                    span.mark("expiry_wait", True)
                    obs.registry.counter("lease_expiry_waits_total").inc()
                dropped = holders - acks
                if dropped:
                    obs.tracer.instant(
                        "leaseholders.shrunk", "lease", self.pid,
                        j=j, dropped=sorted(dropped),
                        remaining=len(tenure.leaseholders),
                    )
                    obs.registry.counter(
                        "leaseholders_dropped_total"
                    ).inc(len(dropped))

            # Lines 63-64: verify uninterrupted leadership before committing.
            if not self.leader_service.am_leader(t, self.local_time):
                return False

            # Lines 65-70: commit.
            self._store_batch(j, ops)
            self._apply_ready()
            tenure.k = j
            self._last_commit = Commit(ops, j)
            self.broadcast(self._last_commit)
            self.commit_log.append(
                CommitRecord(
                    j=j,
                    size=len(ops),
                    started_local=prepare_start,
                    committed_local=self.local_time,
                    expiry_wait=expiry_wait,
                )
            )
            committed = True
            return True
        finally:
            # Runs on every exit: success, leadership loss, and the
            # TaskCancelled a crash throws into the generator.  A
            # "batch.commit" span therefore always terminates as either
            # committed or superseded (the property test pins this).
            if span is not None:
                obs.tracer.close(
                    span, "committed" if committed else "superseded"
                )
                if committed:
                    obs.registry.counter(
                        "commits_total", pid=self.pid, **self._site_label
                    ).inc()
                    obs.registry.counter(
                        "committed_ops_total", **self._site_label
                    ).inc(len(ops))
                    obs.registry.histogram("commit_latency_ms").observe(
                        span.end - span.start
                    )

    # ------------------------------------------------------------------
    # Read-lease issuance (red code; paper lines 42-46)
    # ------------------------------------------------------------------
    def _issue_leases(self) -> None:
        tenure = self.tenure
        assert tenure is not None
        ts = self.local_time
        tenure.last_lease_ts = ts
        grant = LeaseGrant(tenure.k, ts, frozenset(tenure.leaseholders))
        self.broadcast(grant)
        if self.obs is not None:
            # Renewal traffic: one grant broadcast = one renewal round;
            # the per-message cost is the network's "lease" category.
            self.obs.registry.counter(
                "lease_renewals_total", pid=self.pid, **self._site_label
            ).inc()
            self.obs.registry.gauge(
                "leaseholders_current", pid=self.pid, **self._site_label
            ).set(len(tenure.leaseholders))

    # ==================================================================
    # Thread 3: message handlers
    # ==================================================================
    def on_message(self, src: int, msg: Any) -> None:
        if self.leader_service.handle(src, msg):
            return
        handler = self._HANDLERS.get(type(msg).__name__)
        if handler is None:
            raise TypeError(f"unhandled message {msg!r}")
        handler(self, src, msg)

    def _on_submit(self, src: int, msg: SubmitOp) -> None:
        self._enqueue_submission(msg.instance)

    def _on_client_request(self, src: int, msg: ClientRequest) -> None:
        """Serve a client-session operation (exactly-once for RMWs).

        Reads are idempotent and served locally through the ordinary
        lease-based read path.  RMW requests first consult the reply
        cache (``last_applied``, part of the replicated state machine):
        a retransmission of an already-applied operation is answered
        from the cache instead of being executed again, and a stale
        duplicate of an acknowledged older operation is dropped.  Fresh
        operations are enqueued when this replica leads, or forwarded
        once towards the believed leader otherwise.
        """
        if self.spec.is_read(msg.op):
            self._serve_client_read(msg.client_id, msg.seq, msg.op)
            return
        if "skip_reply_cache" not in self.bug_switches:
            cached = self.last_applied.get(msg.client_id)
            if cached is not None:
                seq, response = cached
                if seq == msg.seq:
                    self.send(
                        msg.client_id,
                        ClientReply(msg.client_id, msg.seq, response),
                    )
                    return
                if seq > msg.seq:
                    return  # stale duplicate; the client moved on already
        if self.tenure is not None:
            self._enqueue_submission(
                OpInstance((msg.client_id, msg.seq), msg.op)
            )
        elif not msg.forwarded:
            target = self.leader_service.believed_leader()
            if target != self.pid:
                self.send(target, replace(msg, forwarded=True))

    def _on_est_req(self, src: int, msg: EstReq) -> None:
        # Promise: once we answer a leader with time t we must never accept
        # Prepares from older leaders, or estimate transfer breaks.
        if msg.t < self.max_leader_ts_seen:
            return
        self.max_leader_ts_seen = msg.t
        durable = self.durable
        if durable is not None:
            durable.append_promise(msg.t)
            if "skip_promise_fsync" not in self.bug_switches:
                # The reply externalizes the promise: sync first.  The
                # reply is built at flush completion, so it carries the
                # freshest estimate (reading fresher is always safe).
                durable.sync(lambda: self._send_est_reply(src, msg.t))
                return
        self._send_est_reply(src, msg.t)

    def _send_est_reply(self, dst: int, t: float) -> None:
        est = self.estimate
        if est is not None and est.k >= 2:
            prev_index = est.k - 1
            prev = self.batches.get(prev_index)
        else:
            prev_index, prev = 0, None
        if self.durable is not None and self.batch_monitor is not None:
            self.batch_monitor.record_externalized_promise(self.pid, t)
        self.send(dst, EstReply(t, est, prev_index, prev))

    def _on_est_reply(self, src: int, msg: EstReply) -> None:
        if msg.prev_batch is not None:
            self._store_batch(msg.prev_batch_index, msg.prev_batch)
        bucket = self._est_replies.get(msg.t)
        if bucket is not None:
            bucket[src] = msg

    def _on_prepare(self, src: int, msg: Prepare) -> None:
        if msg.prev_batch is not None:
            self._store_batch(msg.j - 1, msg.prev_batch)
        if msg.t < self.max_leader_ts_seen:
            return  # stale leader; our promise forbids adopting this
        self.max_leader_ts_seen = msg.t
        durable = self.durable
        if durable is not None:
            # WAL order matters: the predecessor batch (stored above)
            # precedes the estimate, so a suffix-only tail loss can
            # never strand a durable estimate without its predecessor
            # (durable I2).
            durable.append_promise(msg.t)
        estimate = Estimate(msg.ops, msg.t, msg.j)
        if self.estimate is None or estimate.freshness >= self.estimate.freshness:
            if durable is not None and estimate != self.estimate:
                durable.append_estimate(estimate)
            self.estimate = estimate
            self.pending_batches[msg.j] = msg.ops
        ack = PrepareAck(msg.t, msg.j)
        if durable is not None \
                and "skip_promise_fsync" not in self.bug_switches:
            # The ack makes this acceptor count toward the majority:
            # promise + estimate must be durable before it is sent.
            durable.sync(lambda: self._send_prepare_ack(src, ack))
            return
        self._send_prepare_ack(src, PrepareAck(msg.t, msg.j))

    def _send_prepare_ack(self, dst: int, ack: PrepareAck) -> None:
        if self.durable is not None and self.batch_monitor is not None:
            self.batch_monitor.record_externalized_promise(self.pid, ack.t)
        self.send(dst, ack)

    def _on_prepare_ack(self, src: int, msg: PrepareAck) -> None:
        acks = self._acks.get((msg.t, msg.j))
        if acks is not None:
            acks.add(src)

    def _on_commit(self, src: int, msg: Commit) -> None:
        self._store_batch(msg.j, msg.ops)
        self._apply_ready()
        if self.applied_upto < msg.j:
            self._ensure_catchup(msg.j)

    def _on_lease_grant(self, src: int, msg: LeaseGrant) -> None:
        # Red code (paper lines 102-106): only current leaseholders may
        # refresh their lease; everyone else asks to be reintegrated.
        if self.pid in msg.leaseholders:
            if self.lease is None or msg.ts > self.lease.ts:
                self.lease = ReadLease(msg.k, msg.ts)
        else:
            self.send(src, LeaseRequest())
        if msg.k > self.applied_upto:
            self._ensure_catchup(msg.k)

    def _on_lease_request(self, src: int, msg: LeaseRequest) -> None:
        # Red code (line 46): reintegrate the requester.
        if self.tenure is not None:
            self.tenure.leaseholders.add(src)

    def _on_batch_request(self, src: int, msg: BatchRequest) -> None:
        known = tuple(
            (j, self.batches[j]) for j in sorted(msg.wanted)
            if j in self.batches
        )
        # Requests below our compaction point are served by snapshot.
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
        "SubmitOp": _on_submit,
        "ClientRequest": _on_client_request,
        "EstReq": _on_est_req,
        "EstReply": _on_est_reply,
        "Prepare": _on_prepare,
        "PrepareAck": _on_prepare_ack,
        "Commit": _on_commit,
        "LeaseGrant": _on_lease_grant,
        "LeaseRequest": _on_lease_request,
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
        if self.durable is not None:
            # Lazy (group-commit): the record rides the next sync
            # barrier.  Commit durability is carried by the majority of
            # synced estimates; a batch record lost to a crash is
            # repaired by ordinary catch-up after recovery.
            self.durable.append_batch(j, ops)
        if self.batch_monitor is not None:
            self.batch_monitor.record_batch(self.pid, j, ops, self.now)
        for instance in ops:
            self.committed_op_ids.add(instance.op_id)
        self.pending_batches.pop(j, None)

    def _apply_ready(self) -> None:
        """Apply committed batches in sequence to the local replica,
        resolving the futures of our own operations.

        Advances from the ``applied_upto`` frontier only — the batch log is
        never rescanned — and the common no-progress call (every Commit
        handler invokes this) costs a single dict probe.
        """
        batches = self.batches
        j = self.applied_upto + 1
        if j not in batches:
            return
        apply_any = self.spec.apply_any
        last_applied = self.last_applied
        my_pid = self.pid
        obs = self.obs
        while j in batches:
            for instance in sorted(batches[j]):
                self.state, response = apply_any(self.state, instance.op)
                pid, seq = instance.op_id
                prev = last_applied.get(pid)
                if prev is None or seq > prev[0]:
                    last_applied[pid] = (seq, response)
                if pid == my_pid:
                    future = self.op_futures.get(instance.op_id)
                    if future is not None and not future.done:
                        future.resolve(response)
                elif pid >= self.config.n and self.tenure is not None:
                    # A client-session operation applied while we lead:
                    # send the response.  Followers stay silent — the
                    # session retransmits and hits the reply cache if
                    # this (or any later) reply is lost.
                    self.send(pid, ClientReply(pid, seq, response))
            self.applied_upto = j
            if obs is not None:
                obs.tracer.instant("batch.applied", "batch", my_pid, j=j)
            j += 1
        if obs is not None:
            obs.registry.gauge("applied_upto", pid=my_pid).set(
                self.applied_upto
            )
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Prune the batch log once it grows past the compaction window.

        The current state *is* the snapshot of everything applied, so no
        historical copy is kept; requests for pruned batches are answered
        with a state snapshot instead (see ``_on_batch_request``).
        """
        interval = self.config.compaction_interval
        if not interval:
            return
        target = self.applied_upto - self.config.compaction_retain
        if target - self.pruned_upto < interval:
            return
        for j in range(self.pruned_upto + 1, target + 1):
            self.batches.pop(j, None)
        self.pruned_upto = target
        if self.durable is not None:
            self._durable_checkpoint()

    def _durable_checkpoint(self) -> None:
        """Fold the applied prefix into a durable snapshot.

        The WAL is rewritten to just the still-live tail: the op-id
        reservation, the promise, batches above the snapshot point, and
        the estimate — batch records strictly before the estimate, so
        the rewritten log preserves the durable-I2 append order.
        """
        durable = self.durable
        snap = SnapRecord(
            upto=self.applied_upto,
            state=self.state,
            last_applied=tuple(
                (pid, seq, response)
                for pid, (seq, response) in sorted(self.last_applied.items())
            ),
            taken_at=self.now,
        )
        tail: list = []
        if durable.seq_reserved:
            tail.append(SeqReserve(durable.seq_reserved))
        if self.max_leader_ts_seen != -math.inf:
            tail.append(PromiseRec(self.max_leader_ts_seen))
        for j in sorted(self.batches):
            if j > snap.upto:
                tail.append(BatchRec(j, self.batches[j]))
        est = self.estimate
        if est is not None:
            tail.append(EstimateRec(est.ops, est.ts, est.k))
        durable.checkpoint(snap, tail)

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
        """Jump the replica to a snapshot taken ahead of its log.

        Our own operations folded into the snapshot resolve with their
        recorded response when the snapshot carries it (each submitter's
        most recent operation), or with the COMPACTED sentinel otherwise:
        they committed, but their responses were compacted away.
        """
        if snapshot.upto <= self.applied_upto:
            return
        self.state = snapshot.state
        self.applied_upto = snapshot.upto
        self.pruned_upto = max(self.pruned_upto, snapshot.upto)
        exact: dict[tuple[int, int], Any] = {}
        for pid, seq, response in snapshot.last_applied:
            prev = self.last_applied.get(pid)
            if prev is None or seq > prev[0]:
                self.last_applied[pid] = (seq, response)
            exact[(pid, seq)] = response
        my_last = self.last_applied.get(self.pid)
        for op_id, future in self.op_futures.items():
            if future.done or op_id[0] != self.pid:
                continue
            if op_id in exact:
                future.resolve(exact[op_id])
            elif op_id in self.committed_op_ids or (
                my_last is not None and op_id[1] <= my_last[0]
            ):
                future.resolve(COMPACTED)
        self._apply_ready()
        if self.durable is not None:
            # The folded prefix has no batch records of its own: persist
            # the jump so a restart cannot strand a later-adopted
            # estimate behind batches this replica never held.
            self._durable_checkpoint()

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
        """Suspend until ``predicate()`` or (when given) a local-time
        timeout elapses.  The timer guarantees re-evaluation at the
        deadline even if no other event wakes this process."""
        if timeout is None:
            yield Until(predicate)
            return
        deadline = self.local_time + max(timeout, 0.0)
        self.set_timer(max(timeout, 0.0), _noop)
        yield Until(lambda: predicate() or self.local_time >= deadline)

    def is_leader(self) -> bool:
        """Is this process currently an initialized leader?"""
        tenure = self.tenure
        return (
            tenure is not None
            and tenure.ready
            and self.leader_service.am_leader(tenure.t, self.local_time)
        )

    def __repr__(self) -> str:
        role = "leader" if self.tenure is not None else "follower"
        status = "crashed" if self.crashed else role
        return (
            f"<ChtReplica {self.pid} {status} applied={self.applied_upto}>"
        )
