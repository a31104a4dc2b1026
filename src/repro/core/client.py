"""Cluster façade: build, run, and drive a CHT replica group.

:class:`ChtCluster` owns the simulator, network, clocks, replicas, and
monitors for one run, and offers a synchronous-feeling API for tests,
examples, and experiments::

    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=5), seed=1)
    cluster.start()
    cluster.execute(0, put("x", 1))      # runs the simulation until done
    assert cluster.execute(3, get("x")) == 1

:class:`ClientSession` is the external-client counterpart to the
replica-local ``submit`` API: a separate simulated process (pid >= n)
that retransmits each request — rotating replicas — until the matching
reply arrives, relying on the replicas' reply cache for exactly-once
semantics.  Sessions are what make operations survive leader crashes
(a replica-local future dies with its replica's volatile state); the
chaos nemesis (:mod:`repro.chaos`) drives all its workloads through
sessions for exactly that reason.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional, Sequence

from ..objects.spec import ObjectSpec, Operation
from ..net.runtime import Runtime
from ..obs.spans import ObsContext
from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.latency import DelayModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.tasks import Future, Until
from ..sim.trace import RunStats
from ..leader.omega import OracleOmega
from ..verify.history import History
from ..verify.invariants import BatchMonitor, LeaderIntervalMonitor
from .config import ChtConfig
from .leaseholder import Leaseholder
from .messages import ClientReply, ClientRequest
from .replica import ChtReplica

__all__ = ["ChtCluster", "ClientSession"]


class ClientSession(Process):
    """An external client: per-session sequence numbers + retransmission.

    One session models one client conversation with the replicated
    object.  Each operation gets the next sequence number; the request
    ``(client_id, seq, op)`` is retransmitted every ``retry_period``
    (rotating through the replicas) until the matching
    :class:`ClientReply` arrives.  At most one RMW may be outstanding at
    a time — that is what lets the replicas' reply cache hold only the
    latest ``(seq, response)`` per session and still give exactly-once
    semantics.

    Sessions share the cluster's network, so they also receive protocol
    broadcasts (heartbeats, Prepare/Commit, lease grants); everything
    except a :class:`ClientReply` addressed to this session is ignored.

    ``read_targets`` routes *reads* separately from RMWs: when given
    (the cluster passes the leaseholder tier first, replicas after, so a
    dead tier cannot strand reads), each read starts at the front of
    that list and walks down it on retry, while RMWs keep rotating
    through the replicas.  Without it, reads follow the RMW rotation
    exactly as before.
    """

    def __init__(
        self,
        pid: int,
        runtime: Runtime,
        spec: ObjectSpec,
        n: int,
        stats: RunStats,
        retry_period: float,
        read_targets: Optional[Sequence[int]] = None,
    ) -> None:
        if pid < n:
            raise ValueError("client session pids must lie above the replicas")
        if retry_period <= 0:
            raise ValueError("retry_period must be positive")
        super().__init__(pid, runtime)
        self.spec = spec
        self.n = n
        self.stats = stats
        self.retry_period = retry_period
        self._seq = 0
        self._futures: dict[int, Future] = {}
        self._outstanding_rmw: Optional[Future] = None
        self._target = pid % n  # spread initial targets across replicas
        self.read_targets = (
            list(read_targets) if read_targets is not None else None
        )

    def submit(self, op: Operation) -> Future:
        """Submit ``op``; the future resolves with the response."""
        kind = "read" if self.spec.is_read(op) else "rmw"
        if kind == "rmw":
            if self._outstanding_rmw is not None and not self._outstanding_rmw.done:
                raise RuntimeError(
                    f"session {self.pid} already has an outstanding RMW; "
                    "exactly-once needs one RMW in flight per session"
                )
        self._seq += 1
        seq = self._seq
        op_id = (self.pid, seq)
        future = Future()
        self._futures[seq] = future
        if kind == "rmw":
            self._outstanding_rmw = future
        self.stats.invoke(op_id, self.pid, kind, op, self.now)
        future.on_resolve(
            lambda value: self.stats.respond(op_id, value, self.now)
        )
        self.spawn(self._request_task(seq, op, future), name=f"req{seq}")
        return future

    def _request_task(
        self, seq: int, op: Operation, future: Future
    ) -> Generator:
        msg = ClientRequest(self.pid, seq, op)
        targets = self.read_targets
        if targets is None or not self.spec.is_read(op):
            targets = None  # legacy routing: share the RMW rotation
        attempt = 0  # each read restarts at its preferred leaseholder
        while not future.done:
            if targets is None:
                self.send(self._target, msg)
            else:
                self.send(targets[attempt % len(targets)], msg)
            deadline = self.local_time + self.retry_period
            self.set_timer(self.retry_period, _session_noop)
            yield Until(
                lambda: future.done or self.local_time >= deadline
            )
            if not future.done:
                if targets is None:
                    self._target = (self._target + 1) % self.n
                else:
                    attempt += 1
        self._futures.pop(seq, None)

    def on_message(self, src: int, msg: Any) -> None:
        if isinstance(msg, ClientReply) and msg.client_id == self.pid:
            future = self._futures.get(msg.seq)
            if future is not None and not future.done:
                future.resolve(msg.value)
        # Anything else is replica-to-replica protocol traffic that the
        # broadcast primitive also delivered here; sessions ignore it.


def _session_noop() -> None:
    """Shared wake-up timer callback for session retransmission waits."""


class ChtCluster:
    """A complete simulated deployment of the paper's algorithm."""

    def __init__(
        self,
        spec: ObjectSpec,
        config: Optional[ChtConfig] = None,
        seed: int = 0,
        gst: float = 0.0,
        post_gst_delay: Optional[DelayModel] = None,
        pre_gst_delay: Optional[DelayModel] = None,
        pre_gst_drop_prob: float = 0.0,
        clock_offsets: Optional[Sequence[float]] = None,
        oracle_leader: Optional[Callable[[], int]] = None,
        omega_factory: Optional[Callable[["ChtReplica"], Any]] = None,
        monitors: bool = True,
        num_clients: int = 0,
        obs: "bool | ObsContext" = False,
        sim: Optional[Simulator] = None,
        site: Optional[str] = None,
        durability: "bool | Callable[[ChtReplica], Any]" = False,
        num_leaseholders: int = 0,
    ) -> None:
        self.spec = spec
        self.config = config or ChtConfig()
        # Multi-group deployments (repro.shard) run several clusters over
        # one shared simulator so their events interleave in one timeline;
        # ordinary runs own their simulator.  ``site`` labels this group's
        # processes and telemetry in such shared runs, and ``obs`` may then
        # be a pre-attached shared ObsContext instead of a bool.
        self.sim = sim if sim is not None else Simulator(seed=seed)
        self.site = site
        # Client sessions get clocks too (pids n..n+num_clients-1), and
        # leaseholders after them (pids n+num_clients..).  The replica
        # offsets are drawn first from the same stream, so adding clients
        # or leaseholders never perturbs the replicas' clocks for a seed.
        extras = num_clients + num_leaseholders
        if clock_offsets is not None and extras:
            clock_offsets = list(clock_offsets) + [0.0] * extras
        self.clocks = ClockModel(
            self.config.n + extras,
            self.config.epsilon,
            rng=self.sim.fork_rng("clocks", site=site),
            offsets=clock_offsets,
        )
        self.net = Network(
            self.sim,
            delta=self.config.delta,
            gst=gst,
            post_gst_delay=post_gst_delay,
            pre_gst_delay=pre_gst_delay,
            pre_gst_drop_prob=pre_gst_drop_prob,
            site=site,
            clocks=self.clocks,
        )
        # Observability opts in per cluster (``obs=True``), or arrives as a
        # shared, already-attached ObsContext in multi-group runs.  Either
        # way the context must exist before the replicas are constructed —
        # each Process caches ``sim.obs`` once at build time.
        if isinstance(obs, ObsContext):
            self.obs: Optional[ObsContext] = obs
        else:
            self.obs = ObsContext(self.sim, net=self.net) if obs else None
        self.stats = RunStats()
        self.leader_monitor = LeaderIntervalMonitor() if monitors else None
        self.batch_monitor = BatchMonitor() if monitors else None
        self._oracle_leader = oracle_leader
        self._omega_factory = omega_factory
        self.replicas: list[ChtReplica] = [
            self._build_replica(pid) for pid in range(self.config.n)
        ]
        # Crash-restart durability.  ``True`` gives every replica an
        # in-sim faulty store (repro.durable.MemStorage); a callable
        # maps each replica to a storage layer/backend of its own (the
        # on-disk FileStorage path used by examples).  Default off: the
        # legacy crash-stop model where stable state survives in memory.
        self.durability = bool(durability)
        if durability:
            from ..durable import (ReplicaDurability, Storage,
                                   attach_memory_durability)
            if callable(durability):
                for replica in self.replicas:
                    layer = durability(replica)
                    if isinstance(layer, Storage):
                        layer = ReplicaDurability(layer)
                    replica.attach_durability(layer)
                    # A persistent backend may hold state from an earlier
                    # incarnation of this deployment (the examples' "power
                    # off" path): load it before the replica starts.
                    # Recovering from empty storage is the identity.
                    replica._recover_from_storage()
            else:
                attach_memory_durability(self)
        # The read-only leaseholder tier lives at pids above the clients;
        # sessions route their reads there first (replicas as fallback,
        # so reads stay live even if every leaseholder is down).  The
        # leader folds the tier into each tenure via leaseholder_pids.
        leaseholder_base = self.config.n + num_clients
        leaseholder_pids = tuple(
            range(leaseholder_base, leaseholder_base + num_leaseholders)
        )

        def _read_targets(i: int) -> Optional[list[int]]:
            # Client i prefers leaseholder i (mod L); the rest of the
            # tier and then the replicas trail as retry fallbacks, so a
            # dead or partitioned tier cannot strand reads.
            if not num_leaseholders:
                return None
            spin = i % num_leaseholders
            tier = list(leaseholder_pids[spin:]) + list(leaseholder_pids[:spin])
            return tier + list(range(self.config.n))

        self.clients: list[ClientSession] = [
            ClientSession(
                self.config.n + i,
                self.net,
                self.spec,
                self.config.n,
                self.stats,
                retry_period=self.config.retry_period,
                read_targets=_read_targets(i),
            )
            for i in range(num_clients)
        ]
        self.leaseholders: list[Leaseholder] = [
            Leaseholder(
                pid,
                self.net,
                self.spec,
                self.config,
                stats=self.stats,
            )
            for pid in leaseholder_pids
        ]
        if num_leaseholders:
            for replica in self.replicas:
                replica.leaseholder_pids = frozenset(leaseholder_pids)

    def _build_replica(self, pid: int) -> ChtReplica:
        replica = ChtReplica(
            pid,
            self.net,
            self.spec,
            self.config,
            stats=self.stats,
            leader_monitor=self.leader_monitor,
            batch_monitor=self.batch_monitor,
        )
        if self._omega_factory is not None:
            replica.leader_service.omega = self._omega_factory(replica)
        elif self._oracle_leader is not None:
            # Swap the default heartbeat detector for a scripted oracle;
            # done before start(), so no heartbeat timers ever arm.
            choose = self._oracle_leader
            replica.leader_service.omega = OracleOmega(
                replica, lambda _pid: choose()
            )
        return replica

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ChtCluster":
        for replica in self.replicas:
            replica.start()
        for holder in self.leaseholders:
            holder.start()
        return self

    def run(self, duration: float) -> None:
        """Advance the simulation by ``duration`` time units."""
        self.sim.run_for(duration)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float = 10_000.0
    ) -> bool:
        """Run until ``predicate()`` holds; False if the timeout expires."""
        deadline = self.sim.now + timeout
        self.sim.run(until=deadline, stop_when=predicate)
        return predicate()

    def run_until_leader(self, timeout: float = 10_000.0) -> ChtReplica:
        """Run until some replica is an initialized leader; return it."""
        ok = self.run_until(lambda: self.leader() is not None, timeout)
        if not ok:
            raise TimeoutError("no leader emerged within the timeout")
        leader = self.leader()
        assert leader is not None
        return leader

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def submit(self, pid: int, op: Operation) -> Future:
        """Submit ``op`` at process ``pid`` (read or RMW, dispatched by
        the object spec's classification).  ``pid`` may name a replica,
        a client session, or — for reads — a leaseholder."""
        process = self.process_at(pid)
        if isinstance(process, ClientSession):
            return process.submit(op)
        if self.spec.is_read(op):
            return process.submit_read(op)
        return process.submit_rmw(op)

    def process_at(self, pid: int):
        """The replica, client, or leaseholder owning ``pid``."""
        n = self.config.n
        if pid < n:
            return self.replicas[pid]
        base = n + len(self.clients)
        if pid >= base:
            return self.leaseholders[pid - base]
        return self.clients[pid - n]

    def execute(self, pid: int, op: Operation, timeout: float = 10_000.0) -> Any:
        """Submit ``op`` at ``pid`` and run the simulation to completion."""
        future = self.submit(pid, op)
        if not self.run_until(lambda: future.done, timeout):
            raise TimeoutError(
                f"operation {op!r} did not complete within {timeout}; "
                f"{self.describe()}"
            )
        return future.value

    def execute_all(
        self, ops: Iterable[tuple[int, Operation]], timeout: float = 30_000.0
    ) -> list[Any]:
        """Submit many operations concurrently, run until all complete."""
        futures = [self.submit(pid, op) for pid, op in ops]
        done = self.run_until(
            lambda: all(f.done for f in futures), timeout
        )
        if not done:
            stuck = sum(1 for f in futures if not f.done)
            raise TimeoutError(
                f"{stuck}/{len(futures)} operations did not complete within "
                f"{timeout}; {self.describe()}"
            )
        return [f.value for f in futures]

    def describe(self) -> str:
        """A one-line diagnostic snapshot of the cluster: alive set, and
        per replica its believed leader, tenure state, applied prefix, and
        pending (uncommitted) batch ids.  Embedded in timeout errors so a
        failed chaos run is debuggable from the message alone."""
        alive = [r.pid for r in self.replicas if not r.crashed]
        parts = [f"alive={alive}"]
        for r in self.replicas:
            if r.crashed:
                parts.append(f"p{r.pid}=crashed")
                continue
            tenure = r.tenure
            if tenure is None:
                role = "follower"
            else:
                phase = "leader" if tenure.ready else "electing"
                role = f"{phase}(k={tenure.k})"
            pending = sorted(r.pending_batches)
            parts.append(
                f"p{r.pid}={role} believes={r.leader_service.believed_leader()} "
                f"applied={r.applied_upto} pending={pending}"
            )
        for h in self.leaseholders:
            if h.crashed:
                parts.append(f"lh{h.pid}=crashed")
            else:
                parts.append(
                    f"lh{h.pid}={'leased' if h._lease_valid() else 'lapsed'} "
                    f"applied={h.applied_upto}"
                )
        return " ".join(parts)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def leader(self) -> Optional[ChtReplica]:
        """The currently initialized leader, if any."""
        for replica in self.replicas:
            if not replica.crashed and replica.is_leader():
                return replica
        return None

    def history(self, kinds: Sequence[str] = ("read", "rmw")) -> History:
        return History.from_stats(self.stats, kinds=kinds)

    def crash(self, pid: int) -> None:
        self.process_at(pid).crash()

    def recover(self, pid: int) -> None:
        self.process_at(pid).recover()

    def alive(self) -> list[ChtReplica]:
        return [r for r in self.replicas if not r.crashed]
