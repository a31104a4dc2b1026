"""Tests for the Omega failure detectors."""

from repro.leader.omega import HeartbeatOmega, OracleOmega
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.latency import FixedDelay
from repro.sim.network import Network
from repro.sim.process import Process

import pytest


class OmegaHost(Process):
    """Minimal host that feeds all messages to its detector."""

    def __init__(self, *args):
        super().__init__(*args)
        self.omega = None

    def on_message(self, src, msg):
        assert self.omega.handle(src, msg)


def build(n=4, period=10.0, timeout=35.0):
    sim = Simulator(seed=5)
    clocks = ClockModel(n, epsilon=1.0, rng=sim.fork_rng("clocks"))
    net = Network(sim, delta=5.0, post_gst_delay=FixedDelay(2.0),
                  clocks=clocks)
    hosts = [OmegaHost(pid, net) for pid in range(n)]
    for host in hosts:
        host.omega = HeartbeatOmega(host, period=period, timeout=timeout)
        host.omega.start()
    return sim, hosts


def test_converges_to_smallest_pid():
    sim, hosts = build()
    sim.run_for(100.0)
    assert all(h.omega.leader() == 0 for h in hosts)


def test_failover_to_next_pid():
    sim, hosts = build()
    sim.run_for(100.0)
    hosts[0].crash()
    sim.run_for(100.0)
    assert all(h.omega.leader() == 1 for h in hosts if not h.crashed)


def test_cascaded_failover():
    sim, hosts = build()
    sim.run_for(100.0)
    hosts[0].crash()
    hosts[1].crash()
    sim.run_for(150.0)
    assert all(h.omega.leader() == 2 for h in hosts if not h.crashed)


def test_recovered_process_reclaims_leadership():
    sim, hosts = build()
    sim.run_for(100.0)
    hosts[0].crash()
    sim.run_for(100.0)
    hosts[0].recover()
    hosts[0].omega.start()
    sim.run_for(100.0)
    assert all(h.omega.leader() == 0 for h in hosts if not h.crashed)


def test_partitioned_process_trusts_itself():
    sim, hosts = build()
    net = hosts[0].runtime
    sim.run_for(100.0)
    net.isolate(3, start=sim.now)
    sim.run_for(100.0)
    # Process 3 hears nobody: considers itself leader (pre-convergence
    # behaviour allowed by Omega).
    assert hosts[3].omega.leader() == 3
    assert hosts[0].omega.leader() == 0


def test_timeout_must_exceed_period():
    sim, hosts = build()
    with pytest.raises(ValueError):
        HeartbeatOmega(hosts[0], period=10.0, timeout=5.0)


def test_oracle_omega():
    sim = Simulator()
    clocks = ClockModel(2, epsilon=0.0)
    net = Network(sim, delta=5.0, clocks=clocks)
    hosts = [OmegaHost(pid, net) for pid in range(2)]
    current = {"leader": 1}
    for host in hosts:
        host.omega = OracleOmega(host, lambda _pid: current["leader"])
        host.omega.start()
    assert hosts[0].omega.leader() == 1
    current["leader"] = 0
    assert hosts[1].omega.leader() == 0
