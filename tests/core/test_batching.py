"""The leader's batch accumulation window (``config.batch_window``).

With the window at 0 the leader proposes as soon as any submission is
queued; with a positive window it holds the queue for up to the window
after the *first* submission of a batch arrives, so a burst lands in one
DoOps.  Fewer batches for the same operations means fewer Prepare/ack/
Commit exchanges — visible both in the leader's commit log (batch sizes
grow) and in the obs ``messages_per_op`` timeline (messages per
committed op drop).
"""

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, put
from repro.obs.timeline import messages_per_op

ROUNDS = 12


def _run_bursty(batch_window: float):
    """Every round, all five replicas submit one RMW within a burst."""
    cluster = ChtCluster(
        KVStoreSpec(),
        ChtConfig(n=5, batch_window=batch_window),
        seed=7,
        obs=True,
    )
    cluster.start()
    cluster.run_until_leader()
    futures = []
    for r in range(ROUNDS):
        for pid in range(5):
            futures.append(cluster.submit(pid, put(f"k{pid}", r)))
        cluster.run(150.0)
    cluster.run_until(lambda: all(f.done for f in futures), timeout=60_000.0)
    assert all(f.done for f in futures)
    leader = cluster.leader()
    assert leader is not None
    # Skip the tenure-opening estimate batch; the liveness NoOp rides the
    # normal queue (merging into the first windowed batch) and counts.
    sizes = [rec.size for rec in leader.commit_log[1:]]
    ratios = messages_per_op(cluster.obs)
    assert ratios is not None
    return sizes, ratios


def test_batch_window_grows_batches_and_cuts_messages_per_op():
    sizes_off, ratios_off = _run_bursty(0.0)
    sizes_on, ratios_on = _run_bursty(40.0)

    # Same operations committed either way (5 puts x ROUNDS + the NoOp).
    assert sum(sizes_off) == sum(sizes_on) == 5 * ROUNDS + 1

    mean_off = sum(sizes_off) / len(sizes_off)
    mean_on = sum(sizes_on) / len(sizes_on)
    # The window turns each burst into (nearly) one batch; without it the
    # leader commits its own submission before the forwarded ones arrive.
    assert mean_on >= 2 * mean_off, (sizes_off, sizes_on)
    assert max(sizes_on) >= 5

    # Fewer batches => fewer Prepare/ack/Commit rounds per committed op.
    assert len(sizes_on) < len(sizes_off)
    assert ratios_on["per_op"] < ratios_off["per_op"], (ratios_off, ratios_on)


def test_zero_window_drains_immediately():
    """batch_window=0 keeps the historical propose-at-once behavior."""
    cluster = ChtCluster(KVStoreSpec(), ChtConfig(n=5), seed=3)
    cluster.start()
    leader = cluster.run_until_leader()
    t0 = cluster.sim.now
    future = cluster.submit(leader.pid, put("x", 1))
    cluster.run_until(lambda: future.done, timeout=5_000.0)
    assert future.done
    # One delta to Prepare, one back to ack, commit: well under 10 RTTs.
    assert cluster.sim.now - t0 < 100.0


def test_window_bounds_added_latency():
    """An op never waits more than ~the window plus the usual commit."""
    cluster = ChtCluster(
        KVStoreSpec(), ChtConfig(n=5, batch_window=50.0), seed=3
    )
    cluster.start()
    leader = cluster.run_until_leader()
    t0 = cluster.sim.now
    future = cluster.submit(leader.pid, put("x", 1))
    cluster.run_until(lambda: future.done, timeout=5_000.0)
    assert future.done
    elapsed = cluster.sim.now - t0
    assert elapsed >= 50.0  # the window really held the batch
    assert elapsed < 250.0  # but did not stall it


def test_negative_max_batch_size_rejected():
    import pytest
    with pytest.raises(ValueError, match="max_batch_size"):
        ChtConfig(max_batch_size=-1)


def test_batch_cap_splits_bursts_and_loses_nothing():
    """max_batch_size caps every committed batch; excess submissions stay
    queued and commit later in arrival order, so the same operations land
    either way — just across more batches."""
    def run(cap):
        cluster = ChtCluster(
            KVStoreSpec(),
            ChtConfig(n=3, max_batch_size=cap, batch_window=40.0),
            seed=7,
        )
        cluster.start()
        cluster.run_until_leader()
        futures = [
            cluster.submit(pid, put(f"k{pid}-{r}", r))
            for r in range(4) for pid in range(3)
        ]
        cluster.run_until(
            lambda: all(f.done for f in futures), timeout=60_000.0
        )
        assert all(f.done for f in futures)
        leader = cluster.leader()
        return [rec.size for rec in leader.commit_log[1:]]

    capped = run(2)
    unbounded = run(0)
    assert sum(capped) == sum(unbounded) == 12 + 1  # + liveness NoOp
    assert max(capped) <= 2
    assert max(unbounded) > 2
    assert len(capped) > len(unbounded)


def test_batch_cap_takes_submissions_in_arrival_order():
    """Under a cap, the next batch holds the *oldest* submissions: a
    high-pid op queued first must not starve behind later low-pid ops."""
    from repro.objects.spec import OpInstance

    cluster = ChtCluster(
        KVStoreSpec(), ChtConfig(n=3, max_batch_size=2), seed=7
    )
    cluster.start()
    leader = cluster.run_until_leader()
    cluster.run_until(lambda: not leader.submit_queue, timeout=5_000.0)
    first = OpInstance((99, 1), put("late-pid", 0))
    leader._enqueue_submission(first)
    for seq in range(1, 4):
        leader._enqueue_submission(OpInstance((0, 100 + seq), put("x", seq)))
    batch = leader._drain_queue()
    assert batch is not None and len(batch) == 2
    assert first in batch
    assert OpInstance((0, 101), put("x", 1)) in batch
