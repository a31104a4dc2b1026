"""Tests for the sticky and preferred Omega policies."""

import pytest

from repro.leader.omega import PreferredOmega, StickyOmega
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.latency import FixedDelay
from repro.sim.network import Network
from repro.sim.process import Process


class OmegaHost(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.omega = None

    def on_message(self, src, msg):
        self.omega.handle(src, msg)


def build(factory, n=4):
    sim = Simulator(seed=5)
    clocks = ClockModel(n, epsilon=1.0, rng=sim.fork_rng("clocks"))
    net = Network(sim, delta=5.0, post_gst_delay=FixedDelay(2.0),
                  clocks=clocks)
    hosts = [OmegaHost(pid, net) for pid in range(n)]
    for host in hosts:
        host.omega = factory(host)
        host.omega.start()

    def run_polling(duration, step=10.0):
        # Detector state machines advance when polled (the replica's
        # leader loop does this continuously in the full system).
        elapsed = 0.0
        while elapsed < duration:
            sim.run_for(step)
            elapsed += step
            for host in hosts:
                if not host.crashed:
                    host.omega.leader()

    sim.run_polling = run_polling
    return sim, hosts


def sticky(host):
    return StickyOmega(host, period=10.0, timeout=35.0)


def preferred(host):
    return PreferredOmega(host, period=10.0, timeout=35.0, preferred=3)


class TestStickyOmega:
    def test_converges_to_smallest_initially(self):
        sim, hosts = build(sticky)
        sim.run_polling(200.0)
        assert all(h.omega.leader() == 0 for h in hosts)

    def test_failover_to_next(self):
        sim, hosts = build(sticky)
        sim.run_polling(200.0)
        hosts[0].crash()
        sim.run_polling(300.0)
        assert all(h.omega.leader() == 1 for h in hosts if not h.crashed)

    def test_recovered_smaller_process_does_not_demote(self):
        sim, hosts = build(sticky)
        sim.run_polling(200.0)
        hosts[0].crash()
        sim.run_polling(300.0)
        hosts[0].recover()
        hosts[0].omega.start()
        sim.run_polling(400.0)
        # The base HeartbeatOmega would hand back to 0; sticky keeps 1.
        assert all(h.omega.leader() == 1 for h in hosts)

    def test_plain_heartbeat_omega_does_demote(self):
        from repro.leader.omega import HeartbeatOmega

        sim, hosts = build(
            lambda h: HeartbeatOmega(h, period=10.0, timeout=35.0)
        )
        sim.run_polling(200.0)
        hosts[0].crash()
        sim.run_polling(300.0)
        hosts[0].recover()
        hosts[0].omega.start()
        sim.run_polling(400.0)
        assert all(h.omega.leader() == 0 for h in hosts)

    def test_sticky_survives_repeated_failovers(self):
        sim, hosts = build(sticky)
        sim.run_polling(200.0)
        hosts[0].crash()
        sim.run_polling(300.0)
        hosts[1].crash()
        sim.run_polling(300.0)
        assert all(h.omega.leader() == 2 for h in hosts if not h.crashed)


class TestPreferredOmega:
    def test_prefers_designated_process(self):
        sim, hosts = build(preferred)
        sim.run_polling(200.0)
        assert all(h.omega.leader() == 3 for h in hosts)

    def test_falls_back_when_preferred_dies(self):
        sim, hosts = build(preferred)
        sim.run_polling(200.0)
        hosts[3].crash()
        sim.run_polling(200.0)
        assert all(h.omega.leader() == 0 for h in hosts if not h.crashed)

    def test_returns_to_preferred_on_recovery(self):
        sim, hosts = build(preferred)
        sim.run_polling(200.0)
        hosts[3].crash()
        sim.run_polling(200.0)
        hosts[3].recover()
        hosts[3].omega.start()
        sim.run_polling(200.0)
        assert all(h.omega.leader() == 3 for h in hosts)


class TestWithChtCluster:
    def test_preferred_omega_places_the_leader(self):
        from repro.core.client import ChtCluster
        from repro.core.config import ChtConfig
        from repro.objects.kvstore import KVStoreSpec, get, put

        config = ChtConfig(n=5)
        cluster = ChtCluster(
            KVStoreSpec(), config, seed=3,
            omega_factory=lambda replica: PreferredOmega(
                replica, config.heartbeat_period,
                config.heartbeat_timeout, preferred=4,
            ),
        )
        cluster.start()
        leader = cluster.run_until_leader()
        assert leader.pid == 4
        assert cluster.execute(0, put("x", 1)) is None
        assert cluster.execute(2, get("x")) == 1

    def test_sticky_omega_avoids_handback_churn(self):
        from repro.core.client import ChtCluster
        from repro.core.config import ChtConfig
        from repro.objects.kvstore import KVStoreSpec, get, put

        config = ChtConfig(n=5)
        cluster = ChtCluster(
            KVStoreSpec(), config, seed=3,
            omega_factory=lambda replica: StickyOmega(
                replica, config.heartbeat_period, config.heartbeat_timeout,
            ),
        )
        cluster.start()
        leader = cluster.run_until_leader()
        cluster.execute(0, put("x", 1))
        cluster.net.isolate(leader.pid, start=cluster.sim.now,
                            end=cluster.sim.now + 400.0)
        new_leader = cluster.run_until(
            lambda: cluster.leader() is not None
            and cluster.leader().pid != leader.pid,
            timeout=10_000.0,
        )
        assert new_leader
        survivor = cluster.leader()
        cluster.run(3000.0)  # the old leader is back and heartbeating
        # Sticky: leadership stays where it settled; no handback.
        assert cluster.leader().pid == survivor.pid
        assert cluster.execute(2, get("x"), timeout=10_000.0) == 1
