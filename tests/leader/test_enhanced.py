"""Tests for the enhanced leader service (EL1 and EL2)."""

import pytest

from repro.leader.enhanced import EnhancedLeaderService, LeaderLease
from repro.leader.omega import HeartbeatOmega, OracleOmega
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.latency import FixedDelay
from repro.sim.network import Network
from repro.sim.process import Process
from repro.verify.invariants import InvariantViolation, LeaderIntervalMonitor


class ServiceHost(Process):
    def __init__(self, *args):
        super().__init__(*args)
        self.service = None

    def on_message(self, src, msg):
        # Not asserted: some tests swap in an OracleOmega mid-run, after
        # which stray heartbeats from the original detector go unclaimed.
        self.service.handle(src, msg)


def build(n=5, oracle=None, monitor=None, epsilon=1.0, seed=3):
    sim = Simulator(seed=seed)
    clocks = ClockModel(n, epsilon=epsilon, rng=sim.fork_rng("clocks"))
    net = Network(sim, delta=5.0, post_gst_delay=FixedDelay(2.0),
                  clocks=clocks)
    hosts = [ServiceHost(pid, net) for pid in range(n)]
    for host in hosts:
        if oracle is not None:
            omega = OracleOmega(host, oracle)
        else:
            omega = HeartbeatOmega(host, period=10.0, timeout=35.0)
        host.service = EnhancedLeaderService(
            host, omega, n, support_period=10.0, support_duration=40.0,
            monitor=monitor,
        )
        host.service.start()
    return sim, hosts


class TestEL2:
    def test_eventually_exactly_one_leader(self):
        monitor = LeaderIntervalMonitor()
        sim, hosts = build(monitor=monitor)
        sim.run_for(200.0)
        now_claims = [
            h.service.am_leader(h.local_time, h.local_time) for h in hosts
        ]
        assert now_claims == [True, False, False, False, False]

    def test_leader_has_continuous_coverage(self):
        sim, hosts = build()
        sim.run_for(200.0)
        t = hosts[0].local_time
        assert hosts[0].service.am_leader(t - 100.0, t)

    def test_failover_elects_next(self):
        monitor = LeaderIntervalMonitor()
        sim, hosts = build(monitor=monitor)
        sim.run_for(200.0)
        hosts[0].crash()
        sim.run_for(400.0)
        claims = [
            h.service.am_leader(h.local_time, h.local_time)
            for h in hosts if not h.crashed
        ]
        assert claims == [True, False, False, False]

    def test_no_overlap_across_failover(self):
        # The monitor raises on any EL1 violation during the whole run,
        # including the handover window.
        monitor = LeaderIntervalMonitor()
        sim, hosts = build(monitor=monitor)
        sim.run_for(200.0)
        for h in hosts:
            h.service.am_leader(h.local_time, h.local_time)
        hosts[0].crash()
        for _ in range(60):
            sim.run_for(10.0)
            for h in hosts:
                if not h.crashed:
                    h.service.am_leader(h.local_time, h.local_time)


class TestEL1UnderSplitBrain:
    def test_split_omega_cannot_create_two_leaders(self):
        # Omega misbehaves: half the processes believe 0 is leader, half
        # believe 1.  EL1 must still hold: majorities intersect.
        def split(pid):
            return 0 if pid < 3 else 1

        monitor = LeaderIntervalMonitor()
        sim, hosts = build(
            oracle=None, monitor=monitor,
        )
        # Replace the omegas with a scripted split view.
        for host in hosts:
            host.service.omega = OracleOmega(host, lambda _pid=None,
                                             p=host.pid: split(p))
        sim.run_for(300.0)
        claims = [
            h.service.am_leader(h.local_time, h.local_time) for h in hosts
        ]
        # 0 has supporters {0,1,2} (a majority); 1 has {3,4} (not one).
        assert claims[0] is True
        assert claims[1] is False

    def test_monitor_catches_fabricated_overlap(self):
        monitor = LeaderIntervalMonitor()
        monitor.record_true(0, 0.0, 10.0)
        with pytest.raises(InvariantViolation):
            monitor.record_true(1, 5.0, 6.0)


class TestSupportRules:
    def test_grants_to_new_leader_start_after_old_promise(self):
        sim, hosts = build()
        sim.run_for(100.0)
        state = hosts[2].stable["enhanced-leader"]
        granted_until_before = state["granted_until"]
        # Force host 2 to switch allegiance.
        hosts[2].service.omega = OracleOmega(hosts[2], lambda _pid: 4)
        sim.run_for(15.0)
        store = hosts[4].service.support.get(2)
        assert store is not None
        for spans in store.by_counter.values():
            for (start, _end) in spans:
                assert start >= granted_until_before - 1e9 * 0  # sanity
        # The new grant must not start before the old promise expired.
        new_counter = hosts[2].stable["enhanced-leader"]["counter"]
        spans = store.by_counter[new_counter]
        assert min(s for s, _ in spans) >= granted_until_before

    def test_counter_increments_on_leader_change(self):
        sim, hosts = build()
        sim.run_for(100.0)
        before = hosts[2].stable["enhanced-leader"]["counter"]
        hosts[2].service.omega = OracleOmega(hosts[2], lambda _pid: 4)
        sim.run_for(25.0)
        assert hosts[2].stable["enhanced-leader"]["counter"] == before + 1

    def test_recovery_bumps_counter(self):
        sim, hosts = build()
        sim.run_for(100.0)
        before = hosts[2].stable["enhanced-leader"]["counter"]
        hosts[2].crash()
        hosts[2].recover()
        hosts[2].service.on_recover()
        assert hosts[2].stable["enhanced-leader"]["counter"] == before + 1

    def test_backwards_interval_rejected(self):
        sim, hosts = build()
        with pytest.raises(ValueError):
            hosts[0].service.am_leader(10.0, 5.0)

    def test_duration_must_exceed_period(self):
        sim, hosts = build()
        with pytest.raises(ValueError):
            EnhancedLeaderService(
                hosts[0], hosts[0].service.omega, 5,
                support_period=10.0, support_duration=5.0,
            )


class TestSupportStoreMerging:
    def test_same_counter_gap_coverage(self):
        from repro.leader.enhanced import _SupportStore

        store = _SupportStore()
        store.add(LeaderLease(1, 0.0, 10.0))
        store.add(LeaderLease(1, 20.0, 30.0))
        # Same counter, disjoint intervals: covers t1 in one and t2 in the
        # other (the paper explicitly allows m1 != m2).
        assert store.covers_both(5.0, 25.0)
        assert not store.covers_both(5.0, 15.0)

    def test_different_counters_do_not_combine(self):
        from repro.leader.enhanced import _SupportStore

        store = _SupportStore()
        store.add(LeaderLease(1, 0.0, 10.0))
        store.add(LeaderLease(2, 20.0, 30.0))
        assert not store.covers_both(5.0, 25.0)

    def test_overlapping_same_counter_merge(self):
        from repro.leader.enhanced import _SupportStore

        store = _SupportStore()
        store.add(LeaderLease(1, 0.0, 10.0))
        store.add(LeaderLease(1, 8.0, 20.0))
        assert store.covers_both(1.0, 19.0)
