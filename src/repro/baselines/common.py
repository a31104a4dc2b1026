"""Shared scaffolding for the baseline replication systems.

Every baseline models the *replication and read path* of its system — the
paper's Section 5 compares exactly those aspects — on the same simulation
substrate as the CHT algorithm, so message counts, latencies, and blocking
are directly comparable.

The common pieces: a log-entry type, a replica base class with an apply
loop and client plumbing (submission retry, futures, stats), and a cluster
façade mirroring :class:`repro.core.client.ChtCluster`'s interface so that
experiments can drive any system uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Iterable, Optional, Sequence, Type

from ..core.client import ClientSession
from ..core.messages import ClientReply, ClientRequest
from ..objects.spec import ObjectSpec, Operation, OpInstance
from ..obs.spans import ObsContext
from ..sim.clocks import ClockModel
from ..sim.core import Simulator
from ..sim.latency import DelayModel
from ..sim.network import Network
from ..sim.process import Process
from ..sim.tasks import Future, Until
from ..sim.trace import RunStats
from ..verify.history import History

__all__ = ["BaseReplica", "BaseCluster", "ClientOp"]


@dataclass(frozen=True)
class ClientOp:
    """A client-submitted operation forwarded to a coordinator."""

    instance: OpInstance
    kind: str  # "read" or "rmw"

    category = "client"


class BaseReplica(Process):
    """Base class for baseline replicas: client plumbing + state machine."""

    def __init__(
        self,
        pid: int,
        net: Network,
        spec: ObjectSpec,
        n: int,
        stats: RunStats,
        retry_period: float,
    ) -> None:
        super().__init__(pid, net)
        self.spec = spec
        self.n = n
        self.majority = n // 2 + 1
        self.stats = stats
        self.retry_period = retry_period
        self.state: Any = spec.initial_state()
        self.applied_upto = 0  # log entries applied (1-based log positions)
        self.op_futures: dict[tuple[int, int], Future] = {}
        self._op_seq = 0
        # Client-session reply cache (part of the replicated state
        # machine, so it survives crashes): latest (seq, response) applied
        # per session.  Gives retransmitted session requests exactly-once
        # semantics.
        self.session_applied: dict[int, tuple[int, Any]] = {}
        # Chaos-harness fault switches (e.g. "skip_reply_cache").
        self.bug_switches: set[str] = set()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def next_op_id(self) -> tuple[int, int]:
        self._op_seq += 1
        return (self.pid, self._op_seq)

    def submit(self, op: Operation) -> Future:
        """Submit ``op``; reads and RMWs are dispatched per the spec."""
        if self.crashed:
            raise RuntimeError(f"process {self.pid} is crashed")
        kind = "read" if self.spec.is_read(op) else "rmw"
        op_id = self.next_op_id()
        instance = OpInstance(op_id, op)
        future = Future()
        self.op_futures[op_id] = future
        self.stats.invoke(op_id, self.pid, kind, op, self.now)
        future.on_resolve(
            lambda value: self.stats.respond(op_id, value, self.now)
        )
        obs = self.obs
        if obs is not None:
            span = obs.tracer.begin(
                "op", "baseline", self.pid, kind=kind, op=op.name
            )
            obs.registry.counter(
                "baseline_ops_total", pid=self.pid, kind=kind
            ).inc()
            future.on_resolve(
                lambda _value: obs.tracer.close(span, "served")
            )
        self.start_operation(instance, kind, future)
        return future

    def start_operation(
        self, instance: OpInstance, kind: str, future: Future
    ) -> None:
        """Begin executing a client operation.  Subclasses override."""
        raise NotImplementedError

    def resolve_op(self, op_id: tuple[int, int], value: Any) -> None:
        future = self.op_futures.get(op_id)
        if future is not None and not future.done:
            future.resolve(value)

    # ------------------------------------------------------------------
    # Client sessions
    # ------------------------------------------------------------------
    def _on_clientrequest(self, src: int, msg: ClientRequest) -> None:
        """Serve a session request: reply-cache hit, stale drop, or accept.

        Baselines submit *every* session operation (reads included)
        through their log, matching their "reads go through consensus"
        semantics.
        """
        if "skip_reply_cache" not in self.bug_switches:
            cached = self.session_applied.get(msg.client_id)
            if cached is not None:
                seq, response = cached
                if seq == msg.seq:
                    self.send(
                        msg.client_id,
                        ClientReply(msg.client_id, msg.seq, response),
                    )
                    return
                if seq > msg.seq:
                    return  # stale duplicate; already acknowledged
        self.accept_client_op(OpInstance((msg.client_id, msg.seq), msg.op))

    def accept_client_op(self, instance: OpInstance) -> None:
        """Admit a fresh session operation.  Subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared wait helper (same semantics as the CHT replica's)
    # ------------------------------------------------------------------
    def wait_for(
        self, predicate: Callable[[], bool], timeout: Optional[float] = None
    ) -> Generator:
        if timeout is None:
            yield Until(predicate)
            return
        deadline = self.local_time + max(timeout, 0.0)
        self.set_timer(max(timeout, 0.0), lambda: None)
        yield Until(lambda: predicate() or self.local_time >= deadline)

    def on_crash(self) -> None:
        self.op_futures = {}


class BaseCluster:
    """Cluster façade shared by every baseline.

    Mirrors :class:`ChtCluster`'s driving interface (``start``, ``run``,
    ``run_until``, ``submit``, ``execute``, ``history``) so experiment
    code is system-agnostic.
    """

    replica_class: Type[BaseReplica]

    def __init__(
        self,
        spec: ObjectSpec,
        n: int = 5,
        delta: float = 10.0,
        epsilon: float = 2.0,
        seed: int = 0,
        gst: float = 0.0,
        post_gst_delay: Optional[DelayModel] = None,
        pre_gst_delay: Optional[DelayModel] = None,
        pre_gst_drop_prob: float = 0.0,
        num_clients: int = 0,
        obs: bool = False,
        **replica_kwargs: Any,
    ) -> None:
        self.spec = spec
        self.n = n
        self.delta = delta
        self.epsilon = epsilon
        self.sim = Simulator(seed=seed)
        # Replica offsets are drawn first from the clock stream, so adding
        # client sessions never perturbs replica clocks for a given seed.
        self.clocks = ClockModel(
            n + num_clients, epsilon, rng=self.sim.fork_rng("clocks")
        )
        self.net = Network(
            self.sim,
            delta=delta,
            gst=gst,
            post_gst_delay=post_gst_delay,
            pre_gst_delay=pre_gst_delay,
            pre_gst_drop_prob=pre_gst_drop_prob,
            clocks=self.clocks,
        )
        # As in ChtCluster: the context must exist before the replicas,
        # which cache ``sim.obs`` at construction.
        self.obs: Optional[ObsContext] = (
            ObsContext(self.sim, net=self.net) if obs else None
        )
        self.stats = RunStats()
        self.replicas: list[BaseReplica] = [
            self.build_replica(pid, **replica_kwargs) for pid in range(n)
        ]
        self.clients: list[ClientSession] = [
            ClientSession(
                n + i,
                self.net,
                spec,
                n,
                self.stats,
                retry_period=2 * delta,
            )
            for i in range(num_clients)
        ]

    def build_replica(self, pid: int, **kwargs: Any) -> BaseReplica:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def start(self) -> "BaseCluster":
        for replica in self.replicas:
            replica.start()  # type: ignore[attr-defined]
        return self

    def run(self, duration: float) -> None:
        self.sim.run_for(duration)

    def run_until(
        self, predicate: Callable[[], bool], timeout: float = 10_000.0
    ) -> bool:
        self.sim.run(until=self.sim.now + timeout, stop_when=predicate)
        return predicate()

    def submit(self, pid: int, op: Operation) -> Future:
        return self.replicas[pid].submit(op)

    def execute(self, pid: int, op: Operation, timeout: float = 10_000.0) -> Any:
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
        futures = [self.submit(pid, op) for pid, op in ops]
        if not self.run_until(lambda: all(f.done for f in futures), timeout):
            stuck = sum(1 for f in futures if not f.done)
            raise TimeoutError(
                f"{stuck}/{len(futures)} operations did not complete within "
                f"{timeout}; {self.describe()}"
            )
        return [f.value for f in futures]

    def describe(self) -> str:
        """One-line diagnostic snapshot (alive set + per-replica state),
        embedded in timeout errors."""
        alive = [r.pid for r in self.replicas if not r.crashed]
        parts = [f"alive={alive}"]
        for r in self.replicas:
            if r.crashed:
                parts.append(f"p{r.pid}=crashed")
            else:
                parts.append(f"p{r.pid}=applied:{r.applied_upto}")
        return " ".join(parts)

    def history(self, kinds: Sequence[str] = ("read", "rmw")) -> History:
        return History.from_stats(self.stats, kinds=kinds)

    def crash(self, pid: int) -> None:
        self.replicas[pid].crash()

    def recover(self, pid: int) -> None:
        self.replicas[pid].recover()
