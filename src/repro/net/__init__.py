"""Real-network runtime package.

``repro.net`` holds the runtime contract (:mod:`.runtime`) and the
asyncio TCP substrate (:mod:`.asyncio_rt`), plus the thin
production path on top of it: cluster config (:mod:`.config`), the
replica/leaseholder server entrypoint (``python -m repro.net.server``),
the real KV client (:mod:`.client`), and a subprocess cluster launcher
(:mod:`.launch`).  See docs/NETWORK.md.

Only the contract is imported eagerly — the simulator's
:class:`~repro.sim.network.Network` implements it, so this module must
stay import-light.  Everything network-facing loads lazily.
"""

from __future__ import annotations

from .runtime import Runtime, TimerHandle, label_rng

__all__ = [
    "Runtime",
    "TimerHandle",
    "label_rng",
    "AsyncioRuntime",
    "ClusterSpec",
    "NetKV",
    "ClusterLauncher",
]

_LAZY = {
    "AsyncioRuntime": ("repro.net.asyncio_rt", "AsyncioRuntime"),
    "ClusterSpec": ("repro.net.config", "ClusterSpec"),
    "NetKV": ("repro.net.client", "NetKV"),
    "ClusterLauncher": ("repro.net.launch", "ClusterLauncher"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), attr)
