"""The routing client: shard-map caching and WrongShard redirect chasing.

A :class:`Router` is the sharded counterpart of one
:class:`~repro.core.client.ClientSession`.  It runs on the cluster's
control host, caches the control plane's shard map, and for each
submitted operation:

1. routes it — through the control plane, straight into the group's
   session — to its client-session index at the group its cached map
   names for the operation's ``partition_key``;
2. waits for that group's *committed* reply;
3. on :class:`~repro.shard.spec.WrongShard`, refreshes the map, backs
   off (exponentially, ``retry_backoff`` doubling up to
   ``backoff_cap``), and resubmits — to the new owner if the map
   moved, or to the same (still converging) owner otherwise — for at
   most ``max_redirects`` attempts, after which the operation's future
   resolves with a :class:`RoutingError` instead of spinning forever
   against a group that is down.

The **pinning rule** in step 2 is load-bearing: the router never
abandons an in-flight request to try another group.  Retrying elsewhere
while the first attempt is still outstanding could commit the operation
twice (once per group).  Waiting for the committed ``WrongShard`` first
gives proof the operation had no effect at that group, after which
resubmission is a *new* session sequence number at a *different* group
and the per-group reply caches keep each attempt exactly-once.

Like sessions, a router allows at most one outstanding RMW at a time.
Every attempt's ``(group, response)`` pair is recorded in ``attempts``,
which the chaos harness uses for a structural exactly-once check: each
operation must see exactly one non-WrongShard reply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..objects.spec import Operation
from ..sim.tasks import Future, Sleep
from ..sim.trace import RunStats
from .spec import WrongShard

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import ShardedCluster

__all__ = ["Router", "RoutingError"]


class RoutingError(RuntimeError):
    """The redirect budget ran out before the shard map converged.

    Routed futures resolve with this error object (callers check
    ``isinstance(value, RoutingError)``), so a client blocked on a
    group that is down gets a prompt, inspectable failure instead of
    spinning forever — the behavior a real-network deployment needs.
    """

    def __init__(self, message: str, op: Operation, attempts: int) -> None:
        super().__init__(message)
        self.op = op
        self.attempts = attempts


class Router:
    """A client-side router over one :class:`~repro.shard.cluster.ShardedCluster`.

    The cluster provides ``control`` (the
    :class:`~repro.shard.control.ControlPlane`), ``inner_spec``,
    ``config``, ``map``, and ``obs``; the router reaches groups only
    through :meth:`ControlPlane.submit`.
    """

    def __init__(
        self,
        cluster: "ShardedCluster",
        index: int,
        retry_backoff: float | None = None,
        max_redirects: int = 64,
        backoff_cap: float | None = None,
    ) -> None:
        self.cluster = cluster
        self.index = index
        self.map = cluster.map
        self.stats = RunStats()
        self.redirects = 0
        self.gave_up = 0
        #: op_id -> [(group id, committed response), ...] — one entry per
        #: routing attempt, terminal reply last.
        self.attempts: dict[tuple, list[tuple[int, Any]]] = {}
        # Between a WrongShard and the owner's install committing there
        # is nothing to do but wait; back off roughly one retransmission
        # period so converging routers don't hammer the new owner.  On
        # every further redirect of the same operation the wait doubles
        # up to ``backoff_cap`` (default 16× the base), and after
        # ``max_redirects`` attempts the operation *fails*: its future
        # resolves with a :class:`RoutingError`.  64 capped-exponential
        # attempts spend ~20 minutes of simulated time at the default
        # retry period — a map that hasn't converged by then never will.
        self.retry_backoff = (
            retry_backoff
            if retry_backoff is not None
            else cluster.config.retry_period
        )
        self.backoff_cap = (
            backoff_cap if backoff_cap is not None
            else 16.0 * self.retry_backoff
        )
        if self.backoff_cap < self.retry_backoff:
            raise ValueError("backoff_cap must be >= retry_backoff")
        if max_redirects < 1:
            raise ValueError("max_redirects must be at least 1")
        self.max_redirects = max_redirects
        # Generators driving routed operations run on the control host's
        # task scheduler; they only touch futures and the control plane.
        self._host = cluster.control.host
        self._count = 0
        self._outstanding_rmw: Future | None = None

    # ------------------------------------------------------------------
    def submit(self, op: Operation) -> Future:
        """Route ``op`` by its key; the future resolves with the first
        non-WrongShard committed response."""
        spec = self.cluster.inner_spec
        key = spec.partition_key(op)
        if key is None:
            raise ValueError(
                f"{op!r} has no partition key; the router cannot place it"
            )
        kind = "read" if spec.is_read(op) else "rmw"
        if kind == "rmw":
            if (
                self._outstanding_rmw is not None
                and not self._outstanding_rmw.done
            ):
                raise RuntimeError(
                    f"router {self.index} already has an outstanding RMW; "
                    "exactly-once needs one RMW in flight per router"
                )
        self._count += 1
        op_id = ("router", self.index, self._count)
        future = Future()
        if kind == "rmw":
            self._outstanding_rmw = future
        sim = self._host.runtime.sim
        self.stats.invoke(op_id, self._host.pid, kind, op, sim.now)
        self.attempts[op_id] = []
        future.on_resolve(
            lambda value: self.stats.respond(op_id, value, sim.now)
        )
        self._host.spawn(
            self._drive(op, key, op_id, future), name=f"route{self._count}"
        )
        return future

    def refresh(self) -> None:
        """Re-read the cluster's published shard map."""
        self.map = self.cluster.map

    # ------------------------------------------------------------------
    def _drive(
        self, op: Operation, key: Any, op_id: tuple, future: Future
    ) -> Generator:
        obs = self.cluster.obs
        control = self.cluster.control
        delay = self.retry_backoff
        for _ in range(self.max_redirects):
            gid = self.map.group_for(key)
            attempt = control.submit(gid, self.index, op)
            yield attempt  # pinning rule: wait for the committed reply
            value = attempt.value
            self.attempts[op_id].append((gid, value))
            if not isinstance(value, WrongShard):
                future.resolve(value)
                return
            self.redirects += 1
            if obs is not None:
                obs.tracer.instant(
                    "router.redirect", "shard", self._host.pid,
                    group=gid, stale=self.map.version, seen=value.version,
                )
                obs.registry.counter("router_redirects_total").inc()
            self.refresh()
            yield Sleep(delay)
            delay = min(delay * 2.0, self.backoff_cap)
        self.gave_up += 1
        if obs is not None:
            obs.registry.counter("router_gave_up_total").inc()
        error = RoutingError(
            f"router {self.index}: {op!r} still WrongShard after "
            f"{self.max_redirects} redirects; shard map never converged",
            op=op,
            attempts=self.max_redirects,
        )
        # Resolve rather than raise: the waiter gets a prompt,
        # inspectable error (what a real-network client needs) instead
        # of an exception tearing through the host's task scheduler
        # while the caller spins on an unresolved future.
        future.resolve(error)
