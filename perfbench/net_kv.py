"""Workload ``net-kv``: a real cluster over loopback TCP, open loop.

3 replicas with on-disk ``FileStorage`` and 1 leaseholder, each its
own OS process (``repro.net.server``), and one ``NetKV`` session in
this process.  The session issues a 50/50 mix of ``get`` and
``increment`` over 8 keys on a fixed schedule of one op every 8 ms.
Each op is timed from when it was due, so a stall delays the ops
behind it, and the generator's lateness is recorded.  At 80% of the
schedule the leader is SIGKILLed while the schedule keeps running.

The leader is identified from outside: it is the sender of the last
20 write acknowledgements, which must agree.  The kill is confirmed
when the first write acknowledged afterwards comes from another
replica.

Latency percentiles cover the ops due before the kill; the ops due
after it are counted, and the first write acknowledged after the kill
gives ``failover_ms``.

Why: this is the only workload that runs ``net/asyncio_rt.py``, the
pickle framing, fsync and OS scheduling; the simulator is idle here.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from collections import Counter
from statistics import median
from typing import Optional

from repro.core.messages import ClientReply
from repro.net.client import NetKV, OpTimeout
from repro.net.launch import ClusterLauncher, local_spec
from repro.objects.kvstore import KVStoreSpec

from common import WORK_DIR, Tally, check_counters, check_history, p99

N = 3
LEASEHOLDERS = 1
KEYS = [f"c{i}" for i in range(8)]
#: One op every 8 ms keeps the client under half busy even when other
#: load on the machine doubles its service time; at 4 ms a slow spell
#: let the backlog grow without bound.
INTERVAL_S = 0.008
READ_SHARE = 0.5
KILL_FRACTION = 0.8
LEADER_VOTES = 20
OP_TIMEOUT_S = 10.0
CLOCK_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


def _cpu_ms(pid: int) -> float:
    """User + system CPU of ``pid`` so far (from /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * CLOCK_TICK_MS


def _own_cpu_ms() -> float:
    t = os.times()
    return (t.user + t.system) * 1e3


class _ReplySources:
    """Records which server answered each of a session's requests."""

    def __init__(self, session) -> None:
        self.by_seq: dict[int, int] = {}
        original = session.on_message

        def on_message(src, msg):
            if isinstance(msg, ClientReply) and msg.client_id == session.pid:
                self.by_seq.setdefault(msg.seq, src)
            original(src, msg)

        session.on_message = on_message

    def last(self) -> Optional[int]:
        return self.by_seq[max(self.by_seq)] if self.by_seq else None


def run_round(round_seed: int, window_s: float, tally: Tally,
              trace: bool = False) -> float:
    """Launch, drive, kill the leader, check, tear down.

    Returns the measured wall time.  A traced round also samples
    per-process CPU from /proc into ``tally``'s layer metrics.
    """
    work = WORK_DIR / f"net-{os.getpid()}-{round_seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    launcher = None
    kv = None
    try:
        t0 = time.perf_counter()
        spec = local_spec(n=N, num_leaseholders=LEASEHOLDERS,
                          seed=round_seed, storage_dir=str(work / "store"))
        launcher = ClusterLauncher(spec, workdir=str(work)).start()
        ready_s = time.perf_counter() - t0
        kv = NetKV(spec, client_seed=round_seed)
        sources = _ReplySources(kv.session)
        acked: Counter = Counter()
        kv.increment(KEYS[0], timeout=OP_TIMEOUT_S)
        acked[KEYS[0]] += 1
        tally.setup_s.append(time.perf_counter() - t0)
        return _drive(round_seed, window_s, tally, trace, launcher, kv,
                      sources, acked, ready_s)
    finally:
        if kv is not None:
            kv.close()
        if launcher is not None:
            launcher.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # not empty: another run is using it
            pass


def _drive(round_seed, window_s, tally, trace, launcher, kv, sources,
           acked, ready_s) -> float:
    rng = random.Random(round_seed)
    count = int(window_s / INTERVAL_S)
    plan = [(rng.random() < READ_SHARE, KEYS[rng.randrange(len(KEYS))])
            for _ in range(count)]
    kill_index = int(count * KILL_FRACTION)
    servers = {pid: proc.pid for pid, proc in launcher.procs.items()}
    write_srcs: list[int] = []
    lag_ms: list[float] = []
    leader = killed_at = None
    cpu0 = {}
    completed = 0
    start = time.perf_counter() + 0.05
    for i, (is_read, key) in enumerate(plan):
        due = start + i * INTERVAL_S
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
        if i == 0 and trace:
            cpu0 = {pid: _cpu_ms(p) for pid, p in servers.items()}
            cpu0["client"] = _own_cpu_ms()
        if i == kill_index:
            leader = _confirmed_leader(write_srcs, round_seed, tally)
            if trace:
                _sample_cpu(tally, servers, cpu0, leader, kill_index)
            if leader is None:
                break
            killed_at = time.perf_counter()
            launcher.kill(leader)
        if i < kill_index:
            lag_ms.append((time.perf_counter() - due) * 1e3)
        tally.attempted += 1
        try:
            if is_read:
                kv.get(key, timeout=OP_TIMEOUT_S)
            else:
                kv.increment(key, timeout=OP_TIMEOUT_S)
                acked[key] += 1
                write_srcs.append(sources.last())
        except OpTimeout:
            tally.failed += 1
            continue
        done = time.perf_counter()
        completed += 1
        if i < kill_index:
            (tally.read_ms if is_read else tally.write_ms).append(
                (done - due) * 1e3)
        elif not is_read and killed_at is not None:
            new_src = write_srcs[-1]
            killed_at_s, killed_at = killed_at, None
            tally.failover_ms.append((done - killed_at_s) * 1e3)
            if new_src == leader or new_src not in range(N):
                tally.violations.append(
                    f"round seed {round_seed}: write after killing {leader} "
                    f"acked by {new_src}, kill not confirmed")
    wall = time.perf_counter() - start
    tally.end_round(completed, wall)
    if trace:
        tally.add_layer("net.gen_lag_p99_ms", p99(lag_ms))
        tally.add_layer("net.ready_s", ready_s)

    t = time.perf_counter()
    final = {key: kv.get(key, timeout=OP_TIMEOUT_S) for key in KEYS}
    reason = check_counters(dict(acked), final)
    if reason is not None:
        tally.violations.append(f"round seed {round_seed}: {reason}")
    reason = check_history(KVStoreSpec(), kv.stats.records,
                           len(kv.stats.records))
    if reason is not None:
        tally.violations.append(f"round seed {round_seed}: {reason}")
    tally.check_s += time.perf_counter() - t
    return wall


def _confirmed_leader(write_srcs, round_seed, tally) -> Optional[int]:
    """The replica that sent the last ``LEADER_VOTES`` write acks."""
    votes = set(write_srcs[-LEADER_VOTES:])
    if len(write_srcs) >= LEADER_VOTES and len(votes) == 1:
        (leader,) = votes
        if leader in range(N):
            return leader
    tally.violations.append(
        f"round seed {round_seed}: leader not identified from acks "
        f"{write_srcs[-LEADER_VOTES:]}")
    return None


def _sample_cpu(tally, servers, cpu0, leader, ops) -> None:
    """CPU per op by role over the steady phase (before the kill)."""
    if leader is None or not cpu0:
        return
    spent = {pid: _cpu_ms(p) - cpu0[pid] for pid, p in servers.items()}
    followers = [spent[pid] for pid in range(N) if pid != leader]
    holders = [spent[pid] for pid in range(N, N + LEASEHOLDERS)]
    rows = {
        "net.server_cpu_ms_per_op.leader": spent[leader] / ops,
        "net.server_cpu_ms_per_op.follower": median(followers) / ops,
        "net.server_cpu_ms_per_op.leaseholder": median(holders) / ops,
        "net.client_cpu_ms_per_op": (_own_cpu_ms() - cpu0["client"]) / ops,
    }
    for name, value in rows.items():
        tally.add_layer(name, value)
