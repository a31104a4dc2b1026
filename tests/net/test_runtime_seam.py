"""The runtime seam: sim path unchanged, runtime= path equivalent.

The heavyweight byte-identical pins live in the determinism suites
(tests/durable/test_determinism.py and friends), which run the
refactored Process over :class:`SimRuntime` and compare full event
traces.  This file pins the seam's local contracts:

* constructing a Process from ``(sim, net, clocks)`` and from an
  explicit ``runtime=SimRuntime(...)`` are the *same* code path — same
  RNG stream, same clock, same registration;
* the protocol classes accept ``runtime=`` and a hand-wired cluster on
  an explicit SimRuntime elects a leader and commits, identically to a
  facade-built cluster with the same seed.
"""

import pytest

from repro.core.config import ChtConfig
from repro.core.client import ChtCluster
from repro.core.replica import ChtReplica
from repro.net.runtime import SimRuntime
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.network import Network
from repro.sim.process import Process


class Null(Process):
    def on_message(self, src, msg):
        pass


def make_triple(seed=5, n=3):
    sim = Simulator(seed=seed)
    net = Network(sim, delta=10.0, gst=0.0)
    clocks = ClockModel(n, epsilon=2.0, rng=sim.fork_rng("clocks"))
    return sim, net, clocks


def test_triple_and_runtime_construction_are_identical():
    sim1, net1, clocks1 = make_triple()
    p1 = Null(0, sim1, net1, clocks1)

    sim2, net2, clocks2 = make_triple()
    p2 = Null(0, runtime=SimRuntime(sim2, net2, clocks2))

    # Same forked RNG stream (same label, same seed)...
    assert [p1.rng.random() for _ in range(16)] == \
           [p2.rng.random() for _ in range(16)]
    # ...same clock object selection and time view...
    assert p1.local_time == p2.local_time
    assert p1.now == sim1.now and p2.now == sim2.now
    # ...and both are registered with their network.
    assert net1.processes[0] is p1
    assert net2.processes[0] is p2
    # The triple stays reachable for sim-only call sites either way.
    assert p2.sim is sim2 and p2.net is net2 and p2.clocks is clocks2


def test_process_requires_a_substrate():
    with pytest.raises(ValueError, match="runtime"):
        Null(0)


def test_hand_wired_cluster_on_explicit_simruntime_commits():
    """The server wiring path (protocol classes + runtime kwarg), on the
    simulator: elect, commit a write, read it back."""
    n = 3
    sim, net, clocks = make_triple(seed=9, n=n)
    rt = SimRuntime(sim, net, clocks)
    config = ChtConfig(n=n)
    spec = KVStoreSpec()
    replicas = [
        ChtReplica(pid, spec=spec, config=config, runtime=rt)
        for pid in range(n)
    ]
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
    operation history timestamps (the facade now builds every process
    over SimRuntime, so this pins the wrapped hot path end to end)."""

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
