"""The multi-group façade over one shared simulator.

A :class:`ShardedCluster` runs *G* independent CHT groups over **one**
shared simulator, so their events interleave in a single deterministic
timeline.  Each group is a full :class:`~repro.core.client.ChtCluster`
— its own network, clocks, replicas, and client sessions — hosting a
:class:`~repro.shard.spec.ShardedSpec` that owns this group's share of
the key slots.  Groups share nothing but the simulator (and, when
observability is on, one :class:`~repro.obs.spans.ObsContext` where the
``site`` label ``"g0" / "g1" / ...`` keeps their telemetry apart, since
pids repeat across groups).

The shard map, the routers' driving tasks, and the fenced handoff
coordinator live on a :class:`~repro.shard.control.ControlPlane`, whose
host process runs on the same shared simulator and submits routed
operations straight into the target group's client sessions.

Handoff of a slot range from group ``src`` to ``dst`` is three steps,
each fenced by the map version it carries:

1. **Publish**: the control plane's shard map is replaced by one where
   the slots belong to ``dst`` and the version is bumped.  Routers that
   refresh now route to ``dst`` and simply retry on ``WrongShard``
   until step 3 lands; routers that do not refresh keep hitting ``src``
   until step 2 commits there, then get ``WrongShard`` and converge.
2. **Freeze**: ``shard_freeze`` commits at ``src`` through an ordinary
   client session, exporting the items and shrinking ``src``'s owned
   set.  From this commit on, ``src`` answers the moved range only with
   ``WrongShard`` — including reads, which the conflict relation forces
   to wait out the freeze.
3. **Install**: ``shard_install`` commits the exported items at ``dst``,
   which starts answering for the range.

Leader crashes anywhere in this sequence are harmless: freeze and
install are session RMWs, so they survive through retransmission and
the reply cache exactly like any client operation.  Handoffs are
serialized (each waits for its predecessor) so the slot set frozen is
always computed against the current map.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from ..core.client import ChtCluster, ClientSession
from ..core.config import ChtConfig
from ..objects.spec import ObjectSpec
from ..obs.spans import ObsContext
from ..sim.core import Simulator
from ..sim.tasks import Future
from .control import ControlPlane
from .map import ShardMap
from .router import Router
from .spec import ShardedSpec

__all__ = ["ShardedCluster"]


class ShardedCluster:
    """``num_groups`` CHT groups partitioning one logical object."""

    def __init__(
        self,
        spec: ObjectSpec,
        config: Optional[ChtConfig] = None,
        num_groups: int = 2,
        num_slots: int = 16,
        seed: int = 0,
        num_clients: int = 1,
        obs: bool = False,
        gst: float = 0.0,
        monitors: bool = True,
        group_setup: Optional[Callable[[ChtCluster, int], None]] = None,
        num_leaseholders: int = 0,
    ) -> None:
        if num_groups < 1:
            raise ValueError("need at least one group")
        if num_clients < 1:
            raise ValueError("need at least one client per group")
        self.inner_spec = spec
        self.config = config or ChtConfig()
        self.num_groups = num_groups
        self.num_clients = num_clients
        # Per-group leaseholder read tier (read-only learners; see
        # repro.core.leaseholder).  Each group gets its own set, so a
        # range handoff changes which group's leaseholders may answer
        # for the moved slots — the freeze conflict plus lease fencing
        # keeps a stale holder from serving the frozen range.
        self.num_leaseholders = num_leaseholders
        self.sim = Simulator(seed=seed)
        # One shared context, attached before any group builds processes.
        self.obs: Optional[ObsContext] = (
            ObsContext(self.sim) if obs else None
        )
        shard_map = ShardMap.uniform(num_slots, num_groups)
        # Per group: ``num_clients`` router-facing sessions plus one
        # extra session (the last) reserved as the handoff coordinator,
        # so freeze/install never contend with a workload session's
        # one-outstanding-RMW limit.
        self.groups: list[ChtCluster] = [
            ChtCluster(
                ShardedSpec(spec, num_slots, shard_map.slots_of(g)),
                self.config,
                sim=self.sim,
                site=f"g{g}",
                num_clients=num_clients + 1,
                obs=self.obs if self.obs is not None else False,
                gst=gst,
                monitors=monitors,
                num_leaseholders=num_leaseholders,
            )
            for g in range(num_groups)
        ]
        self.control = ControlPlane(
            self.sim,
            self.groups,
            shard_map,
            num_clients,
            delta=self.config.delta,
            obs=self.obs,
        )
        self._group_setup = group_setup

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def map(self) -> ShardMap:
        """The published shard map (owned by the control plane)."""
        return self.control.map

    @property
    def handoffs(self) -> list[dict[str, Any]]:
        return self.control.handoffs

    def start(self) -> "ShardedCluster":
        if self._group_setup is not None:
            for g, group in enumerate(self.groups):
                self._group_setup(group, g)
        for group in self.groups:
            group.start()
        return self

    def run(self, duration: float) -> None:
        self.sim.run_for(duration)

    def run_to(self, until: float) -> None:
        """Run to an absolute simulation time."""
        self.sim.run(until=until)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float = 10_000.0
    ) -> bool:
        deadline = self.sim.now + timeout
        self.sim.run(until=deadline, stop_when=predicate)
        return predicate()

    def run_until_leaders(self, timeout: float = 10_000.0) -> None:
        """Run until every group has an initialized leader."""
        ok = self.run_until(
            lambda: all(g.leader() is not None for g in self.groups),
            timeout,
        )
        if not ok:
            missing = [
                i for i, g in enumerate(self.groups) if g.leader() is None
            ]
            raise TimeoutError(
                f"groups {missing} elected no leader within {timeout}"
            )

    # ------------------------------------------------------------------
    # Clients
    # ------------------------------------------------------------------
    def router(self, index: int, **kwargs: Any) -> Router:
        """A routing client for client-session index ``index``."""
        if not 0 <= index < self.num_clients:
            raise ValueError(
                f"client index {index} out of range "
                f"(coordinator sessions are not routable)"
            )
        return Router(self, index, **kwargs)

    def coordinator(self, gid: int) -> ClientSession:
        """Group ``gid``'s reserved handoff session."""
        return self.groups[gid].clients[self.num_clients]

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
        ``dst``; see :meth:`ControlPlane.spawn_handoff`."""
        return self.control.spawn_handoff(src, dst, slots)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> str:
        parts = [f"map={self.map!r}"]
        for i, group in enumerate(self.groups):
            parts.append(f"g{i}: {group.describe()}")
        return " | ".join(parts)

    def owned_slots(self, gid: int) -> frozenset[int]:
        """The slot set the most caught-up live replica of ``gid`` has
        applied — the group's committed ownership, which trails the
        published map until freeze/install commit."""
        group = self.groups[gid]
        alive = [r for r in group.replicas if not r.crashed]
        best = max(alive, key=lambda r: r.applied_upto)
        return best.state.owned

    def invariant_failures(self) -> dict[str, str]:
        """Per-site I2/I3 violation details; empty when all groups pass.

        Groups running with a durability layer additionally get their
        durable footprints audited (reload-as-a-restart-would + durable
        I1/I2); the audit is a no-op for groups without one.
        """
        from ..durable import durable_audit
        from ..verify.invariants import check_i2_i3

        failures: dict[str, str] = {}
        for g, group in enumerate(self.groups):
            try:
                check_i2_i3(group.replicas)
                durable_audit(group.replicas)
            except AssertionError as exc:
                failures[f"g{g}"] = str(exc) or "invariant check failed"
        return failures
