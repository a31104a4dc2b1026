"""Names, units and directions of every metric the benchmark prints.

``END_TO_END`` is what a run with ``--trace 0`` reports in its result
line, on every workload, so each metric here exists and is non-zero on
all three.  ``REPORTED`` are end-to-end metrics that exist on some
workloads only; they are printed in the run's table, by name and unit,
where they apply.  ``PER_LAYER`` is what ``--trace 1`` reports; a layer
a workload never runs reads 0 there (see ``perfbench/README.md`` for
which layer applies where and which end-to-end metric it should move).
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_wall_s": ("1/s", "higher"),
    "write_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, workloads it applies to)
REPORTED = {
    "read_p50_ms": ("ms", ("sim-reads", "net-kv")),
    "read_p99_ms": ("ms", ("sim-reads", "net-kv")),
    "write_p99_ms": ("ms", ("sim-reads", "sim-writes", "net-kv")),
    "writes_per_sim_s": ("1/sim-s", ("sim-reads", "sim-writes")),
    "failover_ms": ("ms", ("sim-writes", "net-kv")),
    "msgs_per_op": ("count", ("sim-reads", "sim-writes")),
    "failed_ops_frac": ("frac", ("sim-reads", "sim-writes", "net-kv")),
}

_SHARE = ("frac", "lower")
_PER_OP = ("count", "lower")

PER_LAYER = {
    "sim.events_per_op": _PER_OP,
    "sim.core.self_share": _SHARE,
    "sim.process.self_share": _SHARE,
    "sim.network.self_share": _SHARE,
    "sim.clocks.self_share": _SHARE,
    "sim.network.deliveries_per_op": _PER_OP,
    "sim.network.useful_delivery_frac": ("frac", "higher"),
    "sim.network.msgs_per_op.consensus": _PER_OP,
    "sim.network.msgs_per_op.lease": _PER_OP,
    "sim.network.msgs_per_op.client": _PER_OP,
    "net.runtime.self_share": _SHARE,
    "net.server_cpu_ms_per_op.leader": ("ms", "lower"),
    "net.server_cpu_ms_per_op.follower": ("ms", "lower"),
    "net.server_cpu_ms_per_op.leaseholder": ("ms", "lower"),
    "net.client_cpu_ms_per_op": ("ms", "lower"),
    "net.gen_lag_p99_ms": ("ms", "lower"),
    "net.ready_s": ("s", "lower"),
    "core.replica.self_share": _SHARE,
    "core.readpath.self_share": _SHARE,
    "core.leaseholder.self_share": _SHARE,
    "core.client.self_share": _SHARE,
    "core.commit.queue_wait_ms": ("ms", "lower"),
    "core.commit.prepare_ms": ("ms", "lower"),
    "core.commit.lease_wait_ms": ("ms", "lower"),
    "core.commit.commit_ms": ("ms", "lower"),
    "core.batch.ops_mean": ("count", "higher"),
    "core.read.blocked_frac": ("frac", "lower"),
    "core.read.conflict_wait_p99_ms": ("ms", "lower"),
    "core.read.basis_wait_p99_ms": ("ms", "lower"),
    "core.lease_expiry_waits": ("count", "lower"),
    "leader.self_share": _SHARE,
    "leader.changes": ("count", "lower"),
    "leader.elect_ms": ("ms", "lower"),
    "objects.self_share": _SHARE,
    "objects.apply_per_op": _PER_OP,
    "durable.appends_per_op": _PER_OP,
    "durable.syncs_per_op": _PER_OP,
    "durable.self_share": _SHARE,
    "durable.recover_wall_ms": ("ms", "lower"),
    "shard.self_share": _SHARE,
    "shard.transport_msgs_per_op": _PER_OP,
    "shard.router.redirects": ("count", "lower"),
    "verify.monitor_self_share": _SHARE,
    "verify.check_s": ("s", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
}
