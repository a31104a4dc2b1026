"""The nemesis: run one workload + fault schedule and verify everything.

:class:`NemesisRunner` builds a fresh cluster (CHT, the Multi-Paxos
baseline, or sharded CHT groups), arms a
:class:`~repro.sim.failures.FaultSchedule` on every group, drives a
client-session workload through it, and then renders a verdict:

* **invariant** — a monitor tripped during the run (EL1 leader
  intervals, I1 batch agreement, Paxos slot agreement) or the final
  I2/I3 cross-replica check failed.
* **liveness** — some submitted operation failed to complete within
  ``liveness_bound`` of ``max(horizon, last disruption)``: after every
  fault has healed, every operation must finish.
* **linearizability** — the completed operation history (reads and RMWs
  from every session) is not linearizable against the sequential spec.
* **undecided** — the linearizability search hit its configuration
  budget before rendering a verdict.  Neither a pass nor a bug: soak
  summaries count these separately, and they are never shrunk (there is
  no failure to preserve).
* **exception** — the run crashed outright.

All randomness comes from the simulator's forked streams, so a verdict
is a deterministic function of the runner's fields and the schedule —
which is what makes shrinking and repro artifacts work.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..baselines.multipaxos import PaxosCluster
from ..core.client import ChtCluster
from ..core.config import ChtConfig
from ..objects.kvstore import KVStoreSpec, delete, get, increment, put
from ..objects.spec import Operation
from ..shard.cluster import ShardedCluster
from ..shard.router import Router
from ..shard.spec import WrongShard
from ..durable import attach_memory_durability, durable_audit
from ..sim.failures import FaultSchedule
from ..sim.tasks import Future, Sleep
from ..verify.history import History
from ..verify.invariants import check_i2_i3
from ..verify.linearizability import check_linearizable
from .generator import ScheduleGenerator

__all__ = [
    "NemesisResult", "NemesisRunner", "last_disruption", "run_cell", "SYSTEMS",
]

SYSTEMS = ("cht", "multipaxos", "sharded")

#: Slot count of every nemesis-built sharded cluster.  Fixed so that a
#: verdict stays a pure function of (system, seed, schedule, workload).
SHARD_SLOTS = 16


def last_disruption(schedule: FaultSchedule) -> float:
    """The real time by which every fault in the plan has healed.

    The liveness clock starts at ``max(horizon, last_disruption)``: ops
    may legitimately stall while faults are active, but not afterwards.
    """
    t = 0.0
    for c in schedule.crashes:
        t = max(t, c.at)
    for r in schedule.recoveries:
        t = max(t, r.at)
    for lc in schedule.leader_crashes:
        t = max(t, lc.at + lc.downtime)
    for cr in schedule.crash_restarts:
        t = max(t, cr.at + cr.downtime)
    for df in schedule.disk_faults:
        t = max(t, df.end)
    for p in schedule.partitions:
        t = max(t, p.start if p.end == float("inf") else p.end)
    for p in schedule.one_way_partitions:
        t = max(t, p.start if p.end == float("inf") else p.end)
    for w in schedule.losses:
        t = max(t, w.end)
    for w in schedule.duplications:
        t = max(t, w.end)
    for w in schedule.delay_bursts:
        t = max(t, w.end)
    for d in schedule.desyncs:
        end = d.end if d.end is not None else d.start
        # A resynchronizing clock crawls at 1% speed for about as long as
        # it had jumped ahead; only after that is the process fully back.
        t = max(t, end + 1.1 * d.jump)
    return t


@dataclass
class NemesisResult:
    """Verdict of one nemesis run."""

    ok: bool
    # invariant | liveness | linearizability | undecided | exception
    kind: Optional[str] = None
    detail: str = ""
    ops_completed: int = 0
    # Metrics snapshot (repro.obs) of the run that produced the verdict;
    # None when the runner was built with obs=False or the run died
    # before the cluster existed.
    metrics: Optional[dict] = None

    def __repr__(self) -> str:
        if self.ok:
            return f"<NemesisResult ok ops={self.ops_completed}>"
        return f"<NemesisResult FAIL {self.kind}: {self.detail[:120]}>"


@dataclass
class NemesisRunner:
    """Runs workload + schedule through one system and checks the history.

    The init fields are the whole run description: a verdict is a pure
    function of them and the schedule, the soak CLI builds runners from
    its flags by field name, and a repro artifact stores exactly them.
    """

    system: str = "cht"
    n: int = 5
    num_clients: int = 2
    seed: int = 0
    horizon: float = 2500.0
    ops_per_client: int = 6
    liveness_bound: float = 3000.0
    bug: Optional[str] = None
    # Observability is on by default: attaching an ObsContext never
    # schedules events or consumes randomness, so verdicts are
    # bit-identical with or without it — and failures then carry a
    # metrics snapshot for free.
    obs: bool = True
    # Budget for the linearizability search; a breach becomes an
    # "undecided" verdict, never a crash or a wrong answer.
    max_configurations: int = 2_000_000
    # Sharded runs only: group count and how many fenced handoffs the
    # runner fires while the fault schedule is playing out.
    groups: int = 2
    handoffs: int = 1
    # Durability mode: replicas get in-sim durable stores, so
    # CrashRestart faults genuinely erase memory and recover via
    # snapshot + WAL replay, DiskFaultWindow entries can target their
    # storage, and the post-run verdicts include the durable audit
    # (cross-replica durable I1/I2 agreement).
    durability: bool = False
    # Leaseholder read tier: read-only learners holding read leases and
    # serving local reads (cht and sharded systems; the paxos baseline
    # has no lease machinery to host them).
    num_leaseholders: int = 0
    # The most recent run's ObsContext (tracer + registry), for callers
    # that want more than the snapshot (property tests).
    last_obs: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.system not in SYSTEMS:
            raise ValueError(
                f"unknown system {self.system!r}; pick from {SYSTEMS}"
            )
        if self.durability and self.system == "multipaxos":
            raise ValueError(
                "durability mode needs the CHT durable-storage seam; the "
                "multipaxos baseline does not implement it"
            )
        if self.num_leaseholders and self.system == "multipaxos":
            raise ValueError(
                "leaseholders ride on the CHT lease machinery; the "
                "multipaxos baseline does not implement them"
            )
        # The generator's own checks (n >= 3) are the runner's too.
        self._generator()

    def __getstate__(self) -> dict:
        # A runner pickles (to soak pool workers) as its run description:
        # a finished run's ObsContext holds live generators.
        return {**self.__dict__, "last_obs": None}

    @property
    def leaseholder_base(self) -> int:
        """First leaseholder pid of every cluster this runner builds: the
        tier sits above the replicas and client sessions, and each
        sharded group runs one extra (coordinator) session below it."""
        coordinators = 1 if self.system == "sharded" else 0
        return self.n + self.num_clients + coordinators

    def _generator(self) -> ScheduleGenerator:
        return ScheduleGenerator(
            n=self.n, num_clients=self.num_clients, horizon=self.horizon,
            seed=self.seed, durability=self.durability,
            num_leaseholders=self.num_leaseholders,
            leaseholder_base=self.leaseholder_base,
        )

    def schedule(self, index: int) -> FaultSchedule:
        """Generated schedule ``index`` for this run description."""
        return self._generator().generate(index)

    # ------------------------------------------------------------------
    def run(self, schedule: FaultSchedule) -> NemesisResult:
        """Execute one run; never raises — failures become results."""
        self.last_obs = None
        try:
            result = self._run_checked(schedule)
        except AssertionError as exc:  # includes InvariantViolation
            detail = str(exc)
            if not detail:
                # A bare assert carries no message; name the site instead.
                tb = traceback.extract_tb(exc.__traceback__)
                if tb:
                    frame = tb[-1]
                    detail = (
                        f"assert failed at {frame.filename}:{frame.lineno}"
                        f" ({frame.line})"
                    )
            result = NemesisResult(False, "invariant", detail)
        except Exception as exc:  # noqa: BLE001 — verdict, not crash
            result = NemesisResult(
                False, "exception", f"{type(exc).__name__}: {exc}"
            )
        if self.last_obs is not None:
            result.metrics = self.last_obs.snapshot()
        return result

    def _run_checked(self, schedule: FaultSchedule) -> NemesisResult:
        """One run on any system; a sharded run works on every group.

        The same fault schedule is armed once per group (each arm call
        forks fresh randomness, so the groups see distinct loss/dup
        windows at the same planned times), which means every group
        fights the same weather while handoffs are in flight.  On top of
        the per-group I1/I2/I3 checks, a sharded run must satisfy:

        * **ownership convergence** — after the last heal, the groups'
          applied owned-slot sets form a disjoint, complete partition of
          the slot space;
        * **global linearizability** — the union of every router's
          history linearizes against the *inner* (unsharded) spec, so a
          read answered from a frozen range or a doubly-applied redirect
          is caught as an ordinary linearizability violation;
        * **structural exactly-once** — every routed operation saw
          exactly one committed non-WrongShard reply across all groups.
        """
        spec = KVStoreSpec()
        cluster = self._build(spec)
        self.last_obs = cluster.obs
        sharded = self.system == "sharded"
        groups = cluster.groups if sharded else [cluster]
        # The paxos baseline has no leaseholder tier (the runner rejects
        # the combination), so its clusters expose no such attribute.
        tiers = [list(getattr(group, "leaseholders", [])) for group in groups]
        if self.bug:
            for group, leaseholders in zip(groups, tiers):
                for process in list(group.replicas) + leaseholders:
                    process.bug_switches.add(self.bug)
        cluster.start()
        for group, leaseholders in zip(groups, tiers):
            schedule.arm(
                group.sim,
                group.net,
                list(group.replicas) + list(group.clients) + leaseholders,
                clocks=group.clocks,
                leader_probe=self._leader_probe(group),
            )

        if sharded:
            clients = [cluster.router(i) for i in range(self.num_clients)]
            hosts = [router._host for router in clients]
        else:
            clients = hosts = list(cluster.clients)
        futures: list[Future] = []
        expected = self.num_clients * self.ops_per_client
        for i, (client, host) in enumerate(zip(clients, hosts)):
            ops = self._client_ops(cluster.sim.fork_rng(f"chaos-ops-{i}"))
            think_rng = cluster.sim.fork_rng(f"chaos-think-{i}")
            host.spawn(
                self._workload(client, ops, think_rng, futures),
                name=f"workload{i}",
            )

        # Handoffs fire at fixed fractions of the horizon — deliberately
        # inside the window where the fault schedule is active, so leader
        # crashes race freeze/install commits.
        handoffs = self.handoffs if sharded else 0
        handoff_futures: list[Future] = []
        if handoffs:
            times = [
                self.horizon * (j + 1) / (handoffs + 1)
                for j in range(handoffs)
            ]
            pairs = [
                (j % self.groups, (j + 1) % self.groups)
                for j in range(handoffs)
            ]
            cluster.control.host.spawn(
                self._handoff_driver(cluster, times, pairs, handoff_futures),
                name="handoff-driver",
            )

        # Phase 1: play the entire schedule out (no early stop), so the
        # invariant monitors observe every fault even if the workload
        # finishes early.
        settle = max(self.horizon, last_disruption(schedule))
        cluster.sim.run(until=settle)

        # Phase 2: liveness-after-heal — every operation (and handoff)
        # must complete within the bound of the last heal.
        def all_done() -> bool:
            return (
                len(futures) == expected
                and all(f.done for f in futures)
                and len(handoff_futures) == handoffs
                and all(f.done for f in handoff_futures)
            )

        cluster.sim.run(until=settle + self.liveness_bound, stop_when=all_done)

        if self.system == "cht":
            check_i2_i3(cluster.replicas)
            durable_audit(cluster.replicas)
        elif sharded:
            failures = cluster.invariant_failures()
            if failures:
                return NemesisResult(
                    False,
                    "invariant",
                    "; ".join(
                        f"{site}: {msg}"
                        for site, msg in sorted(failures.items())
                    ),
                )

        if not all_done():
            completed = sum(1 for f in futures if f.done)
            progress = f"{completed}/{expected} ops"
            if sharded:
                handoffs_done = sum(1 for f in handoff_futures if f.done)
                progress += f" and {handoffs_done}/{handoffs} handoffs"
            return NemesisResult(
                False,
                "liveness",
                f"{progress} completed within {self.liveness_bound} of "
                f"last heal (t={settle}); {cluster.describe()}",
                ops_completed=completed,
            )

        if sharded:
            self._check_convergence(cluster)
            self._check_exactly_once(clients)
            history = History(
                entry for router in clients
                for entry in History.from_stats(router.stats)
            )
        else:
            history = cluster.history()
        result = check_linearizable(
            spec, history, partition_by_key=True,
            max_configurations=self.max_configurations,
        )
        if result.undecided:
            return NemesisResult(
                False, "undecided", str(result.reason),
                ops_completed=expected,
            )
        if not result.ok:
            return NemesisResult(
                False, "linearizability", str(result.reason),
                ops_completed=expected,
            )
        return NemesisResult(True, ops_completed=expected)

    def _build(self, spec: KVStoreSpec) -> Any:
        """A fresh, unstarted cluster of this runner's system."""
        config = ChtConfig(n=self.n)
        if self.system == "cht":
            return ChtCluster(
                spec, config, seed=self.seed, num_clients=self.num_clients,
                obs=self.obs, durability=self.durability,
                num_leaseholders=self.num_leaseholders,
            )
        if self.system == "sharded":
            return ShardedCluster(
                spec, config, num_groups=self.groups,
                num_slots=SHARD_SLOTS, seed=self.seed,
                num_clients=self.num_clients, obs=self.obs,
                group_setup=(
                    (lambda group, gid: attach_memory_durability(group))
                    if self.durability else None
                ),
                num_leaseholders=self.num_leaseholders,
            )
        return PaxosCluster(
            spec, n=self.n, seed=self.seed, num_clients=self.num_clients,
            obs=self.obs,
        )

    def _leader_probe(self, group: Any) -> Callable[[], Optional[int]]:
        """Leader probe over one group (for targeted LeaderCrash)."""
        if self.system != "multipaxos":
            return self._cht_probe(group)

        def paxos_probe() -> Optional[int]:
            for replica in group.replicas:
                if not replica.crashed:
                    return replica.omega.leader()
            return None

        return paxos_probe

    @staticmethod
    def _cht_probe(cluster: ChtCluster) -> Callable[[], Optional[int]]:
        """Leader probe over one CHT group."""

        def probe() -> Optional[int]:
            leader = cluster.leader()
            if leader is not None:
                return leader.pid
            for replica in cluster.replicas:
                if not replica.crashed:
                    return replica.leader_service.believed_leader()
            return None

        return probe

    @staticmethod
    def _handoff_driver(
        cluster: ShardedCluster,
        times: list[float],
        pairs: list[tuple[int, int]],
        handoff_futures: list[Future],
    ) -> Generator:
        """Fire each planned handoff at its time, strictly in sequence."""
        for at, (src, dst) in zip(times, pairs):
            remaining = at - cluster.sim.now
            if remaining > 0:
                yield Sleep(remaining)
            future = cluster.spawn_handoff(src, dst)
            handoff_futures.append(future)
            yield future

    def _check_convergence(self, cluster: ShardedCluster) -> None:
        """The groups' applied owned-slot sets partition the slot space.

        Replicas may trail the committed freeze/install batches when the
        liveness phase ends, so catch-up (retransmission, snapshot
        transfer) gets one more bounded quiet window before the check.
        """

        def converged() -> bool:
            slot_sets = [
                cluster.owned_slots(g) for g in range(self.groups)
            ]
            union = frozenset().union(*slot_sets)
            return (
                sum(len(s) for s in slot_sets) == len(union)
                and union == frozenset(range(SHARD_SLOTS))
            )

        cluster.run_until(converged, timeout=self.liveness_bound)
        assert converged(), (
            "shard ownership did not converge to a disjoint, complete "
            f"partition after heal: "
            + " ".join(
                f"g{g}={sorted(cluster.owned_slots(g))}"
                for g in range(self.groups)
            )
        )

    @staticmethod
    def _check_exactly_once(routers: list[Router]) -> None:
        """Every routed op saw exactly one non-WrongShard committed reply
        across all its attempts — the structural form of 'no op lost, no
        op doubly applied, none answered from a frozen range'."""
        for router in routers:
            for op_id, attempts in sorted(router.attempts.items()):
                real = [
                    (gid, value) for gid, value in attempts
                    if not isinstance(value, WrongShard)
                ]
                assert len(real) == 1, (
                    f"op {op_id} saw {len(real)} non-WrongShard replies "
                    f"across groups (attempts: {attempts}); exactly-once "
                    "across shards violated"
                )

    def _client_ops(self, rng: Any) -> list[Operation]:
        """A single-key workload mix (ints only, so increment composes
        with put; single-key ops keep the linearizability check
        P-compositional).

        Leaseholder runs flip to a read-heavy mix: the workload is
        closed-loop, so a client partitioned together with its
        leaseholder stalls at its first RMW — a read-mostly stream keeps
        local reads flowing through exactly the window where a stale
        lease could serve them.
        """
        keys = ("a", "b")
        ops: list[Operation] = []
        if self.num_leaseholders:
            # Read-heavy branch; the legacy branch below must stay
            # byte-identical for leaseholder-free (seed, index) cells.
            for _ in range(self.ops_per_client):
                key = rng.choice(keys)
                roll = rng.random()
                if roll < 0.60:
                    ops.append(get(key))
                elif roll < 0.78:
                    ops.append(put(key, rng.randrange(100)))
                elif roll < 0.94:
                    ops.append(increment(key))
                else:
                    ops.append(delete(key))
            return ops
        for _ in range(self.ops_per_client):
            key = rng.choice(keys)
            roll = rng.random()
            if roll < 0.30:
                ops.append(put(key, rng.randrange(100)))
            elif roll < 0.60:
                ops.append(increment(key))
            elif roll < 0.72:
                ops.append(delete(key))
            else:
                ops.append(get(key))
        return ops

    @staticmethod
    def _workload(
        session: Any, ops: list[Operation], rng: Any, futures: list[Future]
    ) -> Generator:
        """One session's closed-loop client: think, submit, await."""
        for op in ops:
            yield Sleep(rng.uniform(20.0, 200.0))
            future = session.submit(op)
            futures.append(future)
            yield future


def run_cell(cell: tuple[NemesisRunner, int]) -> NemesisResult:
    """One soak cell ``(runner, index)``: run generated schedule ``index``.

    Module-level and picklable, so a cell runs identically in a forked
    pool worker and in the parent process.
    """
    runner, index = cell
    return runner.run(runner.schedule(index))
