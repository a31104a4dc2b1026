"""Exactly-once client sessions: reply cache, retransmission, leader crashes."""

import pytest

from repro.baselines.multipaxos import PaxosCluster
from repro.core.client import ChtCluster, ClientSession
from repro.core.config import ChtConfig
from repro.core.messages import ClientReply, ClientRequest
from repro.objects.kvstore import KVStoreSpec, get, increment, put
from repro.sim.clocks import ClockModel
from repro.sim.core import Simulator
from repro.sim.latency import FixedDelay
from repro.sim.network import Network
from repro.sim.process import Process
from repro.sim.trace import RunStats


def cht_cluster(seed=2, n=3, num_clients=1):
    cluster = ChtCluster(
        KVStoreSpec(), ChtConfig(n=n), seed=seed, num_clients=num_clients
    )
    cluster.start()
    return cluster


def test_session_op_completes_and_is_visible():
    cluster = cht_cluster()
    cluster.run_until_leader()
    future = cluster.clients[0].submit(put("x", 7))
    assert cluster.run_until(lambda: future.done, timeout=5_000.0)
    assert cluster.execute(0, get("x")) == 7


class Echo(Process):
    """Answers every client request with ``"ok"``; sends nothing else."""

    def __init__(self, pid, runtime):
        super().__init__(pid, runtime)
        self.requests = 0

    def on_message(self, src, msg):
        self.requests += 1
        self.send(src, ClientReply(msg.client_id, msg.seq, "ok"))


def test_lone_session_retransmits_a_dropped_request():
    # Nothing but its own retry timer ever wakes this session.  With
    # this clock offset and submit time the timer fires one ulp below
    # the retry deadline (local 199.54838640848527 < 199.5483864084853);
    # the session must retransmit anyway.
    sim = Simulator(seed=1)
    clocks = ClockModel(2, epsilon=1.0, offsets=[0.0, -0.09699287990416394])
    net = Network(sim, delta=10.0, post_gst_delay=FixedDelay(1.0),
                  clocks=clocks)
    replica = Echo(0, net)
    session = ClientSession(1, net, KVStoreSpec(), 1, RunStats(),
                            retry_period=100.0)
    net.drop_rule = lambda src, dst, msg, now: now < 100.0  # first request
    futures = []
    sim.call_at(99.64537928838946,
                lambda: futures.append(session.submit(put("x", 1))))
    sim.run(until=1_000.0)
    assert replica.requests == 1
    assert futures[0].done and futures[0].value == "ok"


def test_retransmissions_apply_exactly_once_cht():
    cluster = cht_cluster()
    cluster.run_until_leader()
    # Drop every reply for a while: the session retransmits (rotating
    # replicas); the reply cache must answer without re-applying.
    cluster.net.drop_rule = (
        lambda src, dst, msg, now: isinstance(msg, ClientReply) and now < 400.0
    )
    future = cluster.clients[0].submit(increment("x"))
    assert cluster.run_until(lambda: future.done, timeout=10_000.0)
    assert future.value == 1  # applied once despite many retransmissions
    assert cluster.execute(0, get("x")) == 1


def test_rmw_survives_leader_crash_cht():
    cluster = cht_cluster(seed=3)
    leader = cluster.run_until_leader()
    future = cluster.clients[0].submit(increment("x"))
    leader.crash()  # before the request can commit
    assert cluster.run_until(lambda: future.done, timeout=30_000.0)
    assert future.value == 1
    survivor = cluster.alive()[0].pid
    assert cluster.execute(survivor, get("x")) == 1


def test_rmw_survives_leader_crash_multipaxos():
    cluster = PaxosCluster(KVStoreSpec(), n=3, seed=3, num_clients=1)
    cluster.start()
    cluster.run(200.0)  # let omega settle on a leader
    leader_pid = cluster.replicas[0].omega.leader()
    future = cluster.clients[0].submit(increment("x"))
    cluster.replicas[leader_pid].crash()
    assert cluster.run_until(lambda: future.done, timeout=30_000.0)
    # Retransmission can reach two leaderships; session dedupe must keep
    # the second occurrence a no-op.
    assert future.value == 1
    survivor = next(r for r in cluster.replicas if not r.crashed)
    assert cluster.execute(survivor.pid, get("x")) == 1


def test_reply_cache_answers_duplicate_without_reapplying():
    cluster = cht_cluster()
    leader = cluster.run_until_leader()
    session = cluster.clients[0]
    future = session.submit(increment("x"))
    assert cluster.run_until(lambda: future.done, timeout=5_000.0)
    cluster.run(50.0)  # drain in-flight retransmissions and their replies
    before = cluster.net.messages_sent["ClientReply"]
    # Replay the completed request straight at the leader.
    cluster.net.send(
        session.pid, leader.pid, ClientRequest(session.pid, 1, increment("x"))
    )
    cluster.run(100.0)
    assert cluster.net.messages_sent["ClientReply"] == before + 1
    assert cluster.execute(0, get("x")) == 1  # not applied twice


def test_stale_duplicate_is_dropped():
    cluster = cht_cluster()
    leader = cluster.run_until_leader()
    session = cluster.clients[0]
    for value in (1, 2):
        future = session.submit(put("x", value))
        assert cluster.run_until(lambda: future.done, timeout=5_000.0)
    cluster.run(50.0)  # drain in-flight retransmissions and their replies
    before = cluster.net.messages_sent["ClientReply"]
    # Replay seq 1 after seq 2 completed: cache holds only the latest
    # entry, so the stale duplicate gets no reply (and no re-apply).
    cluster.net.send(
        session.pid, leader.pid, ClientRequest(session.pid, 1, put("x", 1))
    )
    cluster.run(100.0)
    assert cluster.net.messages_sent["ClientReply"] == before
    assert cluster.execute(0, get("x")) == 2


def test_one_outstanding_rmw_enforced():
    cluster = cht_cluster()
    cluster.run_until_leader()
    session = cluster.clients[0]
    session.submit(increment("x"))
    with pytest.raises(RuntimeError, match="outstanding RMW"):
        session.submit(increment("x"))


def test_session_reads_route_through_replicas():
    cluster = cht_cluster()
    cluster.run_until_leader()
    future = cluster.clients[0].submit(put("x", 5))
    assert cluster.run_until(lambda: future.done, timeout=5_000.0)
    read_future = cluster.clients[0].submit(get("x"))
    assert cluster.run_until(lambda: read_future.done, timeout=5_000.0)
    assert read_future.value == 5


def test_session_pid_must_lie_above_replicas():
    cluster = cht_cluster()
    from repro.core.client import ClientSession

    with pytest.raises(ValueError):
        ClientSession(
            1,
            cluster.net,
            cluster.spec,
            cluster.config.n,
            cluster.stats,
            retry_period=20.0,
        )


def test_session_history_feeds_linearizability_checker():
    from repro.verify.linearizability import check_linearizable

    cluster = cht_cluster()
    cluster.run_until_leader()
    for op in (put("x", 1), increment("x"), get("x")):
        future = cluster.clients[0].submit(op)
        assert cluster.run_until(lambda: future.done, timeout=5_000.0)
    result = check_linearizable(
        cluster.spec, cluster.history(), partition_by_key=True
    )
    assert result.ok
