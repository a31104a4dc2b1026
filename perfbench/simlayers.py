"""Per-layer metrics shared by the two simulated workloads.

Counts are read at the layer boundaries the simulator already keeps
(network counters, event count, ``repro.obs`` spans with ``obs=True``)
or from the traced round's profile (call counts).  Everything is
normalised per completed client op of the measured window.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from repro.core.client import ClientSession
from repro.core.messages import ClientReply
from repro.obs.timeline import commit_breakdown

from common import Tally
from layers import LayerProfile


def network_counts(nets: Iterable) -> dict[str, float]:
    """Sent-by-category and delivered totals over ``nets``."""
    sent: Counter = Counter()
    delivered = 0
    for net in nets:
        sent.update(net.category_sent)
        delivered += sum(net.messages_delivered.values())
    return {"delivered": delivered, **sent}


class SessionDeliveries:
    """Counts deliveries that client sessions ignore.

    A session receives every protocol broadcast on its group's network
    and drops all but its own replies; the ratio of those drops to all
    deliveries is the wasted share of the network layer's work.
    """

    def __init__(self) -> None:
        self.ignored = 0
        self._original = None

    def __enter__(self) -> "SessionDeliveries":
        original = self._original = ClientSession.on_message

        def on_message(session, src, msg):
            if not (isinstance(msg, ClientReply)
                    and msg.client_id == session.pid):
                self.ignored += 1
            original(session, src, msg)

        ClientSession.on_message = on_message
        return self

    def __exit__(self, *exc) -> None:
        ClientSession.on_message = self._original


def record_sim_layers(tally: Tally, layers: LayerProfile, completed: int,
                      events: int, counts: dict[str, float],
                      obs, window_start: float,
                      ignored: int = 0) -> None:
    """Fold one traced round's layer metrics into ``tally``."""
    ops = max(completed, 1)
    delivered = counts.get("delivered", 0)
    tally.add_layer("sim.events_per_op", events / ops)
    tally.add_layer("sim.network.deliveries_per_op", delivered / ops)
    tally.add_layer("sim.network.useful_delivery_frac",
                    1.0 - ignored / delivered if delivered else 0.0)
    for category in ("consensus", "lease", "client"):
        tally.add_layer(f"sim.network.msgs_per_op.{category}",
                        counts.get(category, 0) / ops)
    for name, share in layers.shares().items():
        tally.add_layer(name, share)
    tally.add_layer("objects.apply_per_op",
                    layers.ncalls("objects/kvstore.py", "apply") / ops)
    tally.add_layer("durable.appends_per_op",
                    layers.ncalls("durable/layer.py", prefix="append_") / ops)
    tally.add_layer("durable.syncs_per_op",
                    layers.ncalls("durable/layer.py", "sync") / ops)
    tally.add_layer("shard.transport_msgs_per_op",
                    layers.ncalls("shard/transport.py", "dispatch") / ops)

    breakdown = commit_breakdown(obs)
    for phase in ("queue_wait", "prepare", "lease_wait", "commit"):
        tally.add_layer(f"core.commit.{phase}_ms", breakdown[phase].mean)
    batches = [s for s in obs.tracer.spans
               if s.name == "batch.commit" and s.status == "committed"
               and s.start >= window_start]
    tally.add_layer("core.batch.ops_mean",
                    sum(int(s.attrs.get("size", 0)) for s in batches)
                    / len(batches) if batches else 0.0)
    tally.add_layer("core.lease_expiry_waits", sum(
        c.value for c in obs.registry
        if getattr(c, "name", None) == "lease_expiry_waits_total"))
    tally.add_layer("leader.changes", sum(
        1 for i in obs.tracer.instants
        if i.name == "leader.ready" and i.ts >= window_start))

