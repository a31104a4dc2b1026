"""Workload ``sim-writes``: sharded commit pipeline with a leader crash.

``ShardedCluster`` with G=4 groups of n=3 replicas over 16 key slots,
``max_batch_size=4`` and an in-simulator ``MemStorage`` WAL on every
replica.  32 closed-loop ``Router`` writers, two per slot, increment
their slot's key; each waits for its reply before the next, because a
session allows one RMW in flight.  In every round group 0's leader is
crashed 1 s into the window and recovered from its WAL 1 s later.

Why: this saturates the commit pipeline, the shard transport legs, the
session broadcast fan-out, the WAL, election and the online monitors,
while the read path stays idle.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Optional

from repro.core.config import ChtConfig
from repro.durable import attach_memory_durability
from repro.objects.kvstore import KVStoreSpec, get, increment
from repro.shard import ShardedCluster, slot_of

from common import Tally, check_history, isolated
from layers import LayerProfile
from simlayers import SessionDeliveries, network_counts, record_sim_layers

N = 3
GROUPS = 4
SLOTS = 16
WRITERS = 2 * SLOTS
BATCH_CAP = 4
#: Simulated length of one round's window, and the crash schedule in it.
ROUND_MS = 3_000.0
CRASH_AT_MS = 1_000.0
RECOVER_AT_MS = 2_000.0
#: Leading ops of every round the linearizability check covers; the
#: exactly-once check covers every op.
LIN_SLICE = 2_000


def slot_keys() -> list[str]:
    """One key per slot, found deterministically."""
    keys: dict[int, str] = {}
    i = 0
    while len(keys) < SLOTS:
        keys.setdefault(slot_of(f"key{i}", SLOTS), f"key{i}")
        i += 1
    return [keys[slot] for slot in sorted(keys)]


def run_round(round_seed: int, tally: Tally,
              layers: Optional[LayerProfile] = None) -> float:
    """Set up, measure and check one round; returns its measured wall.

    With ``layers`` the round is traced: ``repro.obs`` is on and the
    measured window runs under the profiler.
    """
    spec = KVStoreSpec()
    trace = layers is not None
    t0 = time.perf_counter()
    cluster = ShardedCluster(
        spec, ChtConfig(n=N, max_batch_size=BATCH_CAP), num_groups=GROUPS,
        num_slots=SLOTS, seed=round_seed, num_clients=WRITERS, obs=trace,
        group_setup=lambda group, _gid: attach_memory_durability(group),
    ).start()
    cluster.run_until_leaders()
    sim = cluster.sim
    keys = slot_keys()
    in_group0 = {k for k in keys if cluster.map.group_for(k) == 0}
    routers = [cluster.router(i) for i in range(WRITERS)]
    responses: dict[str, list] = defaultdict(list)
    state = {"stop": False, "inflight": 0, "crash_at": None,
             "failover": None}

    def writer(router, key):
        while not state["stop"]:
            state["inflight"] += 1
            invoked = sim.now
            future = router.submit(increment(key))
            yield future
            state["inflight"] -= 1
            responses[key].append(future.value)
            # Service is back when a write invoked after the crash is
            # acked; replies already in flight at the crash don't count.
            crash_at = state["crash_at"]
            if (state["failover"] is None and crash_at is not None
                    and invoked >= crash_at and key in in_group0):
                state["failover"] = sim.now - crash_at

    for i, router in enumerate(routers):
        cluster.control.host.spawn(writer(router, keys[i % SLOTS]),
                                   name=f"writer-{i}")
    cluster.run_until(
        lambda: sum(map(len, responses.values())) >= WRITERS, 10_000.0)
    tally.setup_s.append(time.perf_counter() - t0)

    start = sim.now
    firsts = [len(r.stats.records) for r in routers]
    group0 = cluster.groups[0]
    timing = {}

    def measure() -> None:
        sim.run(until=start + CRASH_AT_MS)
        leader = group0.leader()
        leader.crash()
        state["crash_at"] = sim.now
        cluster.run_until(lambda: group0.leader() is not None,
                          RECOVER_AT_MS - CRASH_AT_MS)
        timing["elect_ms"] = sim.now - state["crash_at"]
        sim.run(until=start + RECOVER_AT_MS)
        t = time.perf_counter()
        leader.recover()
        timing["recover_wall_ms"] = (time.perf_counter() - t) * 1e3
        sim.run(until=start + ROUND_MS)
        state["stop"] = True
        cluster.run_until(lambda: state["inflight"] == 0, 10_000.0)

    for group in cluster.groups:
        group.net.reset_counters()
    events0 = sim.events_processed
    t1 = time.perf_counter()
    if trace:
        with SessionDeliveries() as sessions:
            layers.profile(measure)
    else:
        measure()
    wall = time.perf_counter() - t1

    before = tally.completed
    for router, first in zip(routers, firsts):
        tally.record_ops(router.stats.records[first:])
    completed = tally.completed - before
    tally.end_round(completed, wall)
    tally.sim_ms += ROUND_MS
    tally.committed_writes += completed
    tally.messages += sum(g.net.total_sent() for g in cluster.groups)
    if state["failover"] is None:
        tally.violations.append(
            f"round seed {round_seed}: no group-0 write acked after the crash")
    else:
        tally.failover_ms.append(state["failover"])
    events = sim.events_processed - events0

    t2 = time.perf_counter()
    tally.violations.extend(
        f"round seed {round_seed} {site}: {detail}"
        for site, detail in cluster.invariant_failures().items())
    _check_exactly_once(cluster, routers, keys, responses, round_seed, tally)
    records = [r for router in routers for r in router.stats.records]
    reason = isolated(check_history, spec, records, LIN_SLICE)
    if reason is not None:
        tally.violations.append(f"round seed {round_seed}: {reason}")
    tally.check_s += time.perf_counter() - t2

    if trace:
        record_sim_layers(tally, layers, completed, events,
                          network_counts(g.net for g in cluster.groups),
                          cluster.obs, start, ignored=sessions.ignored)
        tally.add_layer("leader.elect_ms", timing["elect_ms"])
        tally.add_layer("durable.recover_wall_ms", timing["recover_wall_ms"])
        tally.add_layer("shard.router.redirects",
                        sum(r.redirects for r in routers))
    return wall


def _check_exactly_once(cluster, routers, keys, responses, round_seed,
                        tally: Tally) -> None:
    """Every key's acked increments returned exactly 1..n, and a routed
    read of the key returns n: no increment lost or applied twice."""
    reads = {key: routers[i].submit(get(key)) for i, key in enumerate(keys)}
    cluster.run_until(lambda: all(f.done for f in reads.values()), 10_000.0)
    for key in keys:
        acked = sorted(responses[key])
        final = reads[key].value if reads[key].done else None
        if acked != list(range(1, len(acked) + 1)) or final != len(acked):
            tally.violations.append(
                f"round seed {round_seed}: key {key} acked {len(acked)} "
                f"increments, responses not 1..n or counter {final}")
