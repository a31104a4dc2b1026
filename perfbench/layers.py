"""Per-layer attribution for the traced run.

Self time comes from cProfile, aggregated by the ``repro`` module each
function lives in.  A builtin's self time is charged to the layer of
the function that called it, so a layer's share includes the C code it
drives (dict and heap operations, ``isinstance``...).  Shares are of
the whole profiled time of the traced rounds.

cProfile inflates call-heavy code more than the rest, so these shares
locate a cost; the untraced end-to-end metrics measure it.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import defaultdict

#: (path prefix under ``src/repro/``, layer).  The first match wins.
LAYER_OF_FILE = (
    ("sim/core.py", "sim.core"),
    ("sim/process.py", "sim.process"),
    ("sim/tasks.py", "sim.process"),
    ("sim/network.py", "sim.network"),
    ("sim/latency.py", "sim.network"),
    ("sim/clocks.py", "sim.clocks"),
    ("net/runtime.py", "net.runtime"),
    ("core/replica.py", "core.replica"),
    ("core/readpath.py", "core.readpath"),
    ("core/leaseholder.py", "core.leaseholder"),
    ("core/client.py", "core.client"),
    ("leader/", "leader"),
    ("objects/", "objects"),
    ("durable/", "durable"),
    ("shard/", "shard"),
    ("verify/invariants.py", "verify.monitor"),
    ("obs/", "obs"),
)

#: Reported self-time shares: metric name -> layer.
SHARE_METRICS = {
    "sim.core.self_share": "sim.core",
    "sim.process.self_share": "sim.process",
    "sim.network.self_share": "sim.network",
    "sim.clocks.self_share": "sim.clocks",
    "net.runtime.self_share": "net.runtime",
    "core.replica.self_share": "core.replica",
    "core.readpath.self_share": "core.readpath",
    "core.leaseholder.self_share": "core.leaseholder",
    "core.client.self_share": "core.client",
    "leader.self_share": "leader",
    "objects.self_share": "objects",
    "durable.self_share": "durable",
    "shard.self_share": "shard",
    "verify.monitor_self_share": "verify.monitor",
}


def _module(filename: str) -> str:
    """``filename``'s path under ``src/repro/``, or "" outside it."""
    head, marker, tail = filename.rpartition("/repro/")
    return tail if marker else ""


def layer_of(filename: str) -> str:
    module = _module(filename)
    for prefix, layer in LAYER_OF_FILE:
        if module.startswith(prefix):
            return layer
    return "other"


class LayerProfile:
    """Self time and call counts by layer, summed over profiled rounds."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[tuple[str, str], int] = defaultdict(int)

    def profile(self, fn) -> None:
        """Run ``fn()`` under cProfile and fold the profile in."""
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            fn()
        finally:
            profiler.disable()
            self._fold(pstats.Stats(profiler).stats)

    def _fold(self, stats: dict) -> None:
        for (filename, _line, name), (_cc, nc, tt, _ct, callers) in stats.items():
            if filename == "~":
                # Builtin: charge each caller's share to the caller's layer.
                for (cfile, _cl, _cn), caller_stats in callers.items():
                    self.self_s[layer_of(cfile)] += caller_stats[2]
                continue
            self.self_s[layer_of(filename)] += tt
            self.calls[(_module(filename), name)] += nc

    def ncalls(self, module: str, *names: str, prefix: str = "") -> int:
        """Calls of functions ``names`` (or named ``prefix*``) defined in
        ``module`` (a path under ``src/repro/``)."""
        return sum(
            n for (path, name), n in self.calls.items()
            if path == module and (name in names
                                   or (prefix and name.startswith(prefix)))
        )

    def shares(self) -> dict[str, float]:
        """Each reported layer's share of all profiled self time."""
        total = sum(self.self_s.values()) or 1.0
        return {name: self.self_s.get(layer, 0.0) / total
                for name, layer in SHARE_METRICS.items()}
