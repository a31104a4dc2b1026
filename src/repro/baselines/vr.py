"""Viewstamped Replication (Oki & Liskov PODC'88; Liskov & Cowling 2012).

Models the aspects the paper compares against in Section 5:

* Processes take turns as primaries of successive *views* in round-robin
  order of their ids (``primary = view mod n``) — a static schedule, in
  contrast to CHT's Omega-driven dynamic choice.  If the next several
  processes in id order are unreachable, the system cycles through a
  succession of ineffective views before service resumes (the drawback the
  paper points out).
* All operations — reads included — are sequenced by the primary
  (Prepare / PrepareOK / commit), so reads are neither local nor
  non-blocking.
* The view-change protocol: StartViewChange on suspicion, DoViewChange
  carrying the log to the new primary, StartView imposing the chosen log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..objects.spec import OpInstance
from ..sim.tasks import Future
from .common import BaseCluster, BaseReplica, ClientOp

__all__ = ["VRReplica", "VRCluster"]


@dataclass(frozen=True)
class VRPrepare:
    view: int
    op_num: int
    instance: OpInstance
    commit_num: int

    category = "consensus"


@dataclass(frozen=True)
class VRPrepareOk:
    """Cumulative acknowledgement: the sender holds every operation of the
    view up to and including ``op_num``."""

    view: int
    op_num: int

    category = "consensus"


@dataclass(frozen=True)
class VRCommit:
    """Primary heartbeat carrying the commit number."""

    view: int
    commit_num: int

    category = "consensus"


@dataclass(frozen=True)
class StartViewChange:
    view: int

    category = "consensus"


@dataclass(frozen=True)
class DoViewChange:
    view: int
    log: tuple  # tuple[OpInstance, ...]
    last_normal_view: int
    op_num: int
    commit_num: int

    category = "consensus"


@dataclass(frozen=True)
class StartView:
    view: int
    log: tuple
    op_num: int
    commit_num: int

    category = "consensus"


@dataclass(frozen=True)
class GetState:
    """State-transfer request for a lagging replica."""

    view: int
    op_num: int

    category = "consensus"


@dataclass(frozen=True)
class NewState:
    view: int
    log_suffix: tuple
    first_op_num: int
    commit_num: int

    category = "consensus"


class VRReplica(BaseReplica):
    """One VR replica; primary when ``view % n == pid``."""

    def __init__(self, *args: Any, heartbeat_period: float = 20.0,
                 view_timeout: float = 100.0, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.heartbeat_period = heartbeat_period
        self.view_timeout = view_timeout
        self.view = 0
        self.status = "normal"  # or "view-change"
        self.log: list[OpInstance] = []
        self.op_num = 0
        self.commit_num = 0
        self.last_normal_view = 0
        self._last_primary_contact = 0.0
        self._follower_ok: dict[int, int] = {}  # cumulative acks (primary)
        self._svc_votes: dict[int, set[int]] = {}
        self._dvc_msgs: dict[int, dict[int, DoViewChange]] = {}
        self._log_ids: set[tuple[int, int]] = set()
        self._applied_ids: set[tuple[int, int]] = set()

    # ------------------------------------------------------------------
    def primary_of(self, view: int) -> int:
        return view % self.n

    def is_primary(self) -> bool:
        return self.status == "normal" and self.primary_of(self.view) == self.pid

    def start(self) -> None:
        self._last_primary_contact = self.local_time
        self.spawn(self._monitor_task(), name="vr-monitor")
        self.spawn(self._primary_heartbeat_task(), name="vr-heartbeat")

    def on_crash(self) -> None:
        super().on_crash()
        self._follower_ok = {}
        self._svc_votes = {}
        self._dvc_msgs = {}

    def on_recover(self) -> None:
        self.start()

    # ------------------------------------------------------------------
    # Failure monitoring and view changes
    # ------------------------------------------------------------------
    def _monitor_task(self) -> Generator:
        while True:
            yield from self.wait_for(lambda: False, timeout=self.view_timeout)
            if self.is_primary():
                continue
            quiet = self.local_time - self._last_primary_contact
            if quiet >= self.view_timeout:
                self._start_view_change(self.view + 1)

    def _primary_heartbeat_task(self) -> Generator:
        while True:
            if self.is_primary():
                self.broadcast(VRCommit(self.view, self.commit_num))
            yield from self.wait_for(lambda: False,
                                     timeout=self.heartbeat_period)

    def _start_view_change(self, view: int) -> None:
        if view <= self.view and self.status == "view-change":
            return
        self.view = max(self.view, view)
        self.status = "view-change"
        self._last_primary_contact = self.local_time
        self._svc_votes.setdefault(self.view, set()).add(self.pid)
        self.broadcast(StartViewChange(self.view))
        self._maybe_send_do_view_change(self.view)

    def _maybe_send_do_view_change(self, view: int) -> None:
        votes = self._svc_votes.get(view, set())
        if len(votes) < self.majority:
            return
        dvc = DoViewChange(
            view, tuple(self.log), self.last_normal_view,
            self.op_num, self.commit_num,
        )
        primary = self.primary_of(view)
        if primary == self.pid:
            self._record_dvc(self.pid, dvc)
        else:
            self.send(primary, dvc)

    def _record_dvc(self, src: int, msg: DoViewChange) -> None:
        bucket = self._dvc_msgs.setdefault(msg.view, {})
        bucket[src] = msg
        if len(bucket) >= self.majority and self.primary_of(msg.view) == self.pid:
            self._complete_view_change(msg.view, bucket)

    def _complete_view_change(self, view: int,
                              msgs: dict[int, DoViewChange]) -> None:
        if self.view > view or (self.view == view and self.status == "normal"):
            return
        best = max(
            msgs.values(),
            key=lambda m: (m.last_normal_view, m.op_num),
        )
        self._adopt_log(list(best.log))
        self.view = view
        self.status = "normal"
        self.last_normal_view = view
        self.op_num = len(self.log)
        self._follower_ok = {}
        self.commit_num = max(m.commit_num for m in msgs.values())
        self._apply_ready()
        self.broadcast(StartView(view, tuple(self.log), self.op_num,
                                 self.commit_num))

    def _adopt_log(self, log: list[OpInstance]) -> None:
        self.log = log
        self._log_ids = {inst.op_id for inst in log}

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------
    def start_operation(self, instance: OpInstance, kind: str,
                        future: Future) -> None:
        self.spawn(self._submit_task(instance, future), name="submit")

    def _submit_task(self, instance: OpInstance, future: Future) -> Generator:
        # All operations, reads included, go to the current primary.
        while not future.done:
            if self.is_primary():
                self._primary_append(instance)
            elif self.status == "normal":
                self.send(self.primary_of(self.view),
                          ClientOp(instance, kind="op"))
            yield from self.wait_for(lambda: future.done,
                                     timeout=self.retry_period)

    def _primary_append(self, instance: OpInstance) -> None:
        if instance.op_id in self._log_ids or instance.op_id in self._applied_ids:
            return
        self.log.append(instance)
        self._log_ids.add(instance.op_id)
        self.op_num = len(self.log)
        self.broadcast(VRPrepare(self.view, self.op_num, instance,
                                 self.commit_num))

    # ------------------------------------------------------------------
    # Message handlers
    # ------------------------------------------------------------------
    def on_message(self, src: int, msg: Any) -> None:
        name = type(msg).__name__
        handler = getattr(self, f"_on_{name.lower()}", None)
        if handler is None:
            raise TypeError(f"unhandled message {msg!r}")
        handler(src, msg)

    def _on_clientop(self, src: int, msg: ClientOp) -> None:
        if self.is_primary():
            self._primary_append(msg.instance)

    def _on_vrprepare(self, src: int, msg: VRPrepare) -> None:
        if msg.view < self.view or self.status != "normal":
            return
        if msg.view > self.view:
            self._catch_up_view(src, msg.view)
            return
        self._last_primary_contact = self.local_time
        if msg.op_num == len(self.log) + 1:
            self.log.append(msg.instance)
            self._log_ids.add(msg.instance.op_id)
            self.op_num = len(self.log)
            self.send(src, VRPrepareOk(self.view, len(self.log)))
        elif msg.op_num <= len(self.log):
            self.send(src, VRPrepareOk(self.view, len(self.log)))
        else:
            self.send(src, GetState(self.view, len(self.log)))
        self._advance_commit(msg.commit_num)

    def _on_vrprepareok(self, src: int, msg: VRPrepareOk) -> None:
        if msg.view != self.view or not self.is_primary():
            return
        self._follower_ok[src] = max(self._follower_ok.get(src, 0),
                                     msg.op_num)
        # The op-number held by at least a majority (counting ourselves).
        held = sorted([self.op_num, *self._follower_ok.values()],
                      reverse=True)
        if len(held) >= self.majority:
            self._advance_commit(held[self.majority - 1])

    def _on_vrcommit(self, src: int, msg: VRCommit) -> None:
        if msg.view < self.view or self.status != "normal":
            return
        if msg.view > self.view:
            self._catch_up_view(src, msg.view)
            return
        self._last_primary_contact = self.local_time
        if msg.commit_num > len(self.log):
            # We missed Prepares entirely (e.g. a healed partition with no
            # new writes): pull the missing suffix from the primary.
            self.send(src, GetState(self.view, len(self.log)))
        self._advance_commit(msg.commit_num)

    def _on_startviewchange(self, src: int, msg: StartViewChange) -> None:
        if msg.view > self.view or (
            msg.view == self.view and self.status == "view-change"
        ):
            if msg.view > self.view:
                self._start_view_change(msg.view)
            self._svc_votes.setdefault(msg.view, set()).add(src)
            self._maybe_send_do_view_change(msg.view)

    def _on_doviewchange(self, src: int, msg: DoViewChange) -> None:
        if msg.view >= self.view:
            self._record_dvc(src, msg)

    def _on_startview(self, src: int, msg: StartView) -> None:
        if msg.view < self.view or (
            msg.view == self.view and self.status == "normal"
        ):
            return
        self._adopt_log(list(msg.log))
        self.view = msg.view
        self.status = "normal"
        self.last_normal_view = msg.view
        self.op_num = msg.op_num
        self._last_primary_contact = self.local_time
        self._advance_commit(msg.commit_num)

    def _on_getstate(self, src: int, msg: GetState) -> None:
        if msg.view == self.view and self.status == "normal":
            suffix = tuple(self.log[msg.op_num:])
            self.send(src, NewState(self.view, suffix, msg.op_num + 1,
                                    self.commit_num))

    def _on_newstate(self, src: int, msg: NewState) -> None:
        if msg.view != self.view or self.status != "normal":
            return
        if msg.first_op_num == len(self.log) + 1:
            for instance in msg.log_suffix:
                self.log.append(instance)
                self._log_ids.add(instance.op_id)
            self.op_num = len(self.log)
            self._advance_commit(msg.commit_num)
            if not self.is_primary():
                self.send(self.primary_of(self.view),
                          VRPrepareOk(self.view, len(self.log)))

    # ------------------------------------------------------------------
    def _catch_up_view(self, src: int, view: int) -> None:
        """We are behind on views; ask for the current state."""
        self.view = view
        self.status = "normal"
        self.last_normal_view = view
        self._last_primary_contact = self.local_time
        self.send(src, GetState(view, len(self.log)))

    def _advance_commit(self, commit_num: int) -> None:
        if commit_num > self.commit_num:
            self.commit_num = min(commit_num, len(self.log))
            self._apply_ready()

    def _apply_ready(self) -> None:
        while self.applied_upto < self.commit_num:
            instance = self.log[self.applied_upto]
            if instance.op_id not in self._applied_ids:
                self._applied_ids.add(instance.op_id)
                self.state, response = self.spec.apply_any(
                    self.state, instance.op
                )
                if instance.op_id[0] == self.pid:
                    self.resolve_op(instance.op_id, response)
            self.applied_upto += 1


class VRCluster(BaseCluster):
    """A Viewstamped Replication deployment."""

    replica_class = VRReplica

    def build_replica(self, pid: int, **kwargs: Any) -> VRReplica:
        return VRReplica(
            pid,
            self.net,
            self.spec,
            self.n,
            self.stats,
            retry_period=4 * self.delta,
            **kwargs,
        )

    def primary(self) -> Optional[VRReplica]:
        for replica in self.replicas:
            if not replica.crashed and replica.is_primary():  # type: ignore[attr-defined]
                return replica  # type: ignore[return-value]
        return None
