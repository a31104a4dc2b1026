"""Workload ``sim-reads``: the paper's local read path, open loop.

One CHT group of n=5 replicas plus 2 leaseholders on the simulator.
Operations arrive as a Poisson process in simulated time and are
submitted straight at a replica or leaseholder (no client sessions),
95% reads over 64 keys.  Half the traffic targets a hot set of 16 keys,
so some reads find a conflicting write pending and take the paper's
conflict-blocking path.  Writes are ``put`` with unique values,
submitted at a random replica (followers forward them to the leader).

Why: the red-code local read path and lease renewal do nearly all the
work, while commit, shard, sessions and the WAL are nearly idle, so a
commit-path change should leave this workload unchanged.
"""

from __future__ import annotations

import random
import time
from typing import Optional

from repro.core.client import ChtCluster
from repro.core.config import ChtConfig
from repro.objects.kvstore import KVStoreSpec, get, put
from repro.obs.timeline import read_timeline
from repro.verify.invariants import check_i2_i3

from common import Tally, check_history, isolated
from layers import LayerProfile
from simlayers import network_counts, record_sim_layers

N = 5
LEASEHOLDERS = 2
NUM_KEYS = 64
HOT_KEYS = 16
HOT_SHARE = 0.5
READ_SHARE = 0.95
#: Arrivals per simulated millisecond.
RATE_PER_MS = 4.0
#: Simulated length of one round's arrival window.
ROUND_MS = 5_000.0
#: Simulated time after the first leader for the holders to take leases.
WARM_MS = 300.0
#: Leading ops of every round the linearizability check covers (a
#: quarter of a round).  Piles of reads blocked behind one write are what
#: make the checker's search grow, so the hot set is wide enough that
#: this slice decides in well under a second.
LIN_SLICE = 5_000

KEYS = [f"k{i}" for i in range(NUM_KEYS)]


def generate(rng: random.Random, start: float) -> list[tuple]:
    """One round's inputs: ``(arrival, target index, op)`` triples.

    Target indices 0..N-1 are replicas, N.. leaseholders.  Values are
    unique per round, so a stale read is visible to the checker.
    """
    ops = []
    t = start
    end = start + ROUND_MS
    value = 0
    while True:
        t += rng.expovariate(RATE_PER_MS)
        if t >= end:
            return ops
        if rng.random() < HOT_SHARE:
            key = KEYS[rng.randrange(HOT_KEYS)]
        else:
            key = KEYS[rng.randrange(NUM_KEYS)]
        if rng.random() < READ_SHARE:
            ops.append((t, rng.randrange(N + LEASEHOLDERS), get(key)))
        else:
            value += 1
            ops.append((t, rng.randrange(N), put(key, value)))


def run_round(round_seed: int, tally: Tally,
              layers: Optional[LayerProfile] = None) -> float:
    """Set up, measure and check one round; returns its measured wall.

    With ``layers`` the round is traced: ``repro.obs`` is on and the
    measured window runs under the profiler.
    """
    spec = KVStoreSpec()
    trace = layers is not None
    t0 = time.perf_counter()
    cluster = ChtCluster(spec, ChtConfig(n=N), seed=round_seed,
                         num_leaseholders=LEASEHOLDERS, obs=trace)
    cluster.start()
    leader = cluster.run_until_leader()
    cluster.execute(leader.pid, put(KEYS[0], 0))
    cluster.run(WARM_MS)
    tally.setup_s.append(time.perf_counter() - t0)

    sim = cluster.sim
    start = sim.now
    ops = generate(random.Random(round_seed), start)
    targets = ([r.pid for r in cluster.replicas]
               + [h.pid for h in cluster.leaseholders])
    first = len(cluster.stats.records)
    done = [0]

    def count(_value) -> None:
        done[0] += 1

    def fire(target: int, op) -> None:
        cluster.submit(target, op).on_resolve(count)

    def measure() -> None:
        for at, index, op in ops:
            sim.call_at(at, fire, targets[index], op)
        sim.run(until=start + ROUND_MS)
        cluster.run_until(lambda: done[0] == len(ops), 10_000.0)

    cluster.net.reset_counters()
    events0 = sim.events_processed
    t1 = time.perf_counter()
    if trace:
        layers.profile(measure)
    else:
        measure()
    wall = time.perf_counter() - t1

    records = cluster.stats.records[first:]
    before = tally.completed
    tally.record_ops(records)
    completed = tally.completed - before
    tally.end_round(completed, wall)
    tally.sim_ms += ROUND_MS
    tally.committed_writes += sum(
        1 for r in records if r.kind == "rmw" and r.responded_at is not None)
    tally.messages += cluster.net.total_sent()

    t2 = time.perf_counter()
    try:
        check_i2_i3(cluster.replicas)
    except AssertionError as exc:
        tally.violations.append(f"I2/I3: {exc}")
    reason = isolated(check_history, spec, cluster.stats.records, LIN_SLICE)
    if reason is not None:
        tally.violations.append(f"round seed {round_seed}: {reason}")
    tally.check_s += time.perf_counter() - t2

    if trace:
        record_sim_layers(tally, layers, completed,
                          sim.events_processed - events0,
                          network_counts([cluster.net]), cluster.obs, start)
        reads = read_timeline(cluster.obs)
        tally.add_layer("core.read.blocked_frac", reads["blocked_fraction"])
        tally.add_layer("core.read.conflict_wait_p99_ms",
                        reads["conflict_wait"].p99)
        tally.add_layer("core.read.basis_wait_p99_ms",
                        reads["basis_wait"].p99)
    return wall
