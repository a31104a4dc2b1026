"""The control plane: shard map, routed submits, and fenced handoffs.

The control plane owns everything in a sharded cluster that is not a
group: the published :class:`~repro.shard.map.ShardMap`, the routers'
driving tasks, and the handoff coordinator.  Those tasks run on a
dedicated :class:`ControlHost` process on the groups' shared simulator,
and :meth:`ControlPlane.submit` hands an operation straight to the
target group's client session — a routed write costs exactly what a
direct session write to that group costs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional

from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.network import Network
from ..sim.process import Process
from ..sim.tasks import Future
from .map import ShardMap
from .spec import freeze_op, install_op

if TYPE_CHECKING:  # pragma: no cover
    from ..core.client import ChtCluster
    from ..obs.spans import ObsContext

__all__ = ["ControlHost", "ControlPlane"]


class ControlHost(Process):
    """The process hosting routers' driving tasks and the handoff task.

    It lives on its own single-process network purely so the task/timer
    machinery (Sleep backoffs, workload think time) works; it never
    sends or receives network messages, and its clock is exact
    (offset 0), so local time equals simulation time.
    """

    def on_message(self, src: int, msg: Any) -> None:  # pragma: no cover
        raise AssertionError("the control host exchanges no network messages")


class ControlPlane:
    """Shard map, routed submits, and fenced handoffs for one cluster."""

    def __init__(
        self,
        sim: Simulator,
        groups: "list[ChtCluster]",
        shard_map: ShardMap,
        num_clients: int,
        delta: float,
        obs: "Optional[ObsContext]" = None,
    ) -> None:
        self.sim = sim
        self.groups = groups
        self.map = shard_map
        self.num_groups = len(groups)
        self.num_clients = num_clients
        self.obs = obs
        net = Network(sim, delta=delta)
        clocks = ClockModel(1, 0.0, offsets=[0.0])
        self.host = ControlHost(0, sim, net, clocks)
        #: Completed handoff records (dicts), in completion order.
        self.handoffs: list[dict[str, Any]] = []
        self._last_handoff: Optional[Future] = None

    def submit(self, gid: int, index: int, op: Any) -> Future:
        """Run ``op`` as group ``gid``'s session ``index``; the future
        resolves with the session's committed response."""
        return self.groups[gid].clients[index].submit(op)

    # ------------------------------------------------------------------
    # Handoff
    # ------------------------------------------------------------------
    def spawn_handoff(
        self,
        src: int,
        dst: int,
        slots: Optional[Iterable[int]] = None,
    ) -> Future:
        """Move ``slots`` (default: half of ``src``'s) from ``src`` to
        ``dst``.  Returns a future resolving with the handoff record once
        the install commits.  Handoffs are serialized: this one starts
        only after every previously spawned handoff completes."""
        if src == dst:
            raise ValueError("handoff source and destination must differ")
        for gid in (src, dst):
            if not 0 <= gid < self.num_groups:
                raise ValueError(f"unknown group {gid}")
        future = Future()
        prev, self._last_handoff = self._last_handoff, future
        self.host.spawn(
            self._handoff_task(src, dst, slots, prev, future),
            name=f"handoff-{src}-{dst}",
        )
        return future

    def _handoff_task(
        self,
        src: int,
        dst: int,
        slots: Optional[Iterable[int]],
        prev: Optional[Future],
        future: Future,
    ) -> Generator:
        if prev is not None and not prev.done:
            yield prev
        # Resolve the slot set only now, against the *current* map —
        # an earlier handoff may have moved slots since spawn time, and
        # freezing a slot the source no longer owns would install stale
        # (empty) ownership over the current owner's data.
        current = self.map.slots_of(src)
        if slots is None:
            half = sorted(current)[: max(1, len(current) // 2)]
            moving = frozenset(half)
        else:
            moving = frozenset(slots) & current
        if not moving:
            record = {
                "src": src, "dst": dst, "slots": (), "version":
                self.map.version, "items": 0, "completed_at": self.sim.now,
            }
            future.resolve(record)
            return
        new_map = self.map.move(moving, dst)
        self.map = new_map  # step 1: publish; the version bump fences
        coordinator = self.num_clients  # the reserved session index
        span = None
        if self.obs is not None:
            span = self.obs.tracer.begin(
                "shard.handoff", "shard", self.host.pid,
                src=src, dst=dst, slots=len(moving),
                version=new_map.version, site=f"g{src}",
            )
            self.obs.registry.counter("shard_handoffs_total").inc()
        freeze = self.submit(src, coordinator, freeze_op(moving, new_map.version))
        yield freeze  # step 2: src stops answering for the range
        items = freeze.value
        if span is not None:
            span.mark("frozen_at", self.sim.now)
            span.mark("items", len(items))
        install = self.submit(
            dst, coordinator, install_op(moving, new_map.version, items)
        )
        yield install  # step 3: dst starts answering for the range
        record = {
            "src": src,
            "dst": dst,
            "slots": tuple(sorted(moving)),
            "version": new_map.version,
            "items": len(items),
            "completed_at": self.sim.now,
        }
        self.handoffs.append(record)
        if span is not None:
            self.obs.tracer.close(span, "completed")
        future.resolve(record)
