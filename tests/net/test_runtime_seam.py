"""The runtime contract on the simulator: a bare ``Network`` is the runtime.

The heavyweight byte-identical pins live in the determinism suites
(tests/durable/test_determinism.py and friends), which compare full
event traces.  This file pins the contract's local properties:

* both substrates — the simulator's :class:`Network` and
  :class:`AsyncioRuntime` — implement every :class:`Runtime` member;
* a process built from ``(pid, network)`` is hosted by that network
  directly: its site, RNG stream and registration all come from it;
* the protocol classes take the runtime positionally, and a hand-wired
  cluster on a bare network elects a leader and commits.
"""

from repro.core.config import ChtConfig
from repro.core.client import ChtCluster
from repro.core.replica import ChtReplica
from repro.net.asyncio_rt import AsyncioRuntime
from repro.net.runtime import Runtime
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


class Null(Process):
    def on_message(self, src, msg):
        pass


def make_network(seed=5, n=3, site=None):
    sim = Simulator(seed=seed)
    clocks = ClockModel(n, epsilon=2.0, rng=sim.fork_rng("clocks"))
    return Network(sim, delta=10.0, gst=0.0, site=site, clocks=clocks)


def test_both_substrates_implement_every_runtime_member():
    members = [name for name in vars(Runtime) if not name.startswith("_")]
    assert {"now", "send", "schedule_at", "fork_rng", "site"} <= set(members)
    for runtime in (make_network(), AsyncioRuntime(99, peers={}, seed=42)):
        for name in members:
            # Reading a property the substrate left abstract raises here.
            value = getattr(runtime, name)
            if callable(value):
                assert getattr(value, "__func__", value) \
                    is not vars(Runtime)[name], (type(runtime), name)


def test_process_is_hosted_by_its_network_directly():
    net = make_network(site="g1")
    p = Null(2, net)
    assert p.runtime is net
    assert p.site == "g1"
    assert net.processes[2] is p
    assert p.local_time == net.clocks[2].local(net.now)
    # The process stream is the network's site-namespaced fork.
    expected = Simulator(seed=5).fork_rng("process-2", site="g1")
    assert [p.rng.random() for _ in range(16)] == \
           [expected.random() for _ in range(16)]


def test_hand_wired_cluster_on_a_bare_network_commits():
    """The server wiring path (protocol classes on an explicit
    runtime), on the simulator: elect, commit a write, read it back."""
    n = 3
    net = make_network(seed=9, n=n)
    sim = net.sim
    config = ChtConfig(n=n)
    spec = KVStoreSpec()
    replicas = [ChtReplica(pid, net, spec, config) for pid in range(n)]
    for r in replicas:
        r.start()
    sim.run(until=5_000.0,
            stop_when=lambda: any(r.is_leader() for r in replicas))
    leader = next(r for r in replicas if r.is_leader())
    fut = leader.submit_rmw(put("k", 123))
    sim.run(until=sim.now + 5_000.0, stop_when=lambda: fut.done)
    assert fut.done
    read = leader.submit_read(get("k"))
    sim.run(until=sim.now + 5_000.0, stop_when=lambda: read.done)
    assert read.value == 123


def test_facade_runs_reproduce_exactly_across_the_seam():
    """Same seed, same workload, twice through the facade: identical
    operation history timestamps (pins the hot path end to end)."""

    def run_once():
        cluster = ChtCluster(
            KVStoreSpec(), ChtConfig(n=3), seed=31, num_clients=2
        ).start()
        cluster.run_until_leader()
        futs = []
        for i in range(5):  # one RMW in flight per session at a time
            fut = cluster.submit(3, put("x", i))
            assert cluster.run_until(lambda: fut.done)
            futs.append(fut)
        futs.append(cluster.submit(4, get("x")))
        assert cluster.run_until(lambda: all(f.done for f in futs))
        return [
            (op.op_id, op.invoked_at, op.responded_at, repr(op.response))
            for op in cluster.stats.completed()
        ]

    assert run_once() == run_once()
