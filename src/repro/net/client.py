"""Real-network KV client.

:class:`NetKV` is the production counterpart of the simulator's
``ChtCluster.execute``: a synchronous client handle over a real
cluster.  Internally it is the *existing*
:class:`~repro.core.client.ClientSession` — per-session sequence
numbers, retransmission with replica rotation, leaseholder-preferring
read routing — hosted on an :class:`~repro.net.asyncio_rt
.AsyncioRuntime` running on a background thread, so the exactly-once
guarantees proven under chaos in the simulator are byte-for-byte the
code serving real traffic.

Each client process draws a random pid at or above
:data:`~repro.net.config.CLIENT_PID_BASE`; servers identify sessions by
pid, so many independent clients coexist without coordination (a pid
collision at 2^31 scale is the operator's lottery ticket).

Every blocking call takes a ``timeout`` (seconds).  On expiry the call
raises :class:`OpTimeout` — the session keeps retransmitting
underneath (the operation may still commit; its sequence number stays
burned either way, so exactly-once is never at risk), but the caller
gets a prompt error instead of hanging on a dead cluster, mirroring
the bounded redirect budget of :class:`repro.shard.router.Router`.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from ..core.client import ClientSession
from ..objects import kvstore
from ..sim.trace import RunStats
from .asyncio_rt import AsyncioRuntime
from .config import CLIENT_PID_BASE, ClusterSpec, make_object_spec
from .runtime import label_rng

__all__ = ["NetKV", "OpTimeout"]


class OpTimeout(TimeoutError):
    """An operation did not complete within the caller's deadline."""


class NetKV:
    """Synchronous KV API over a real cluster.  See module docstring."""

    def __init__(
        self,
        spec: ClusterSpec,
        pid: Optional[int] = None,
        client_seed: Optional[int] = None,
    ) -> None:
        self.spec = spec
        if pid is None:
            # Derived from the cluster seed + a caller salt when one is
            # given (tests want reproducible pids), os.urandom otherwise.
            if client_seed is not None:
                rng = label_rng(spec.seed, f"client-{client_seed}")
                pid = CLIENT_PID_BASE + rng.randrange(1 << 30)
            else:
                import os

                pid = CLIENT_PID_BASE + int.from_bytes(
                    os.urandom(4), "big") % (1 << 30)
        self.pid = pid
        self.stats = RunStats()
        self._lock = threading.Lock()
        self.runtime = AsyncioRuntime(
            pid,
            peers=spec.peer_map(),
            listen=None,
            epoch=spec.epoch,
            seed=spec.seed ^ pid,
            broadcast_pids=list(spec.server_pids),
        )
        self.runtime.start_background()
        obj = make_object_spec(spec.object_name)
        read_targets = self._read_targets()
        self.session: ClientSession = self.runtime.build(
            lambda: ClientSession(
                pid,
                self.runtime,
                obj,
                spec.n,
                self.stats,
                spec.config.retry_period,
                read_targets=read_targets,
            )
        )

    def _read_targets(self) -> Optional[list]:
        holders = list(self.spec.leaseholder_pids)
        if not holders:
            return None
        spin = self.pid % len(holders)
        tier = holders[spin:] + holders[:spin]
        return tier + list(self.spec.replica_pids)

    # ------------------------------------------------------------------
    # Core call
    # ------------------------------------------------------------------
    def execute(self, op: Any, timeout: float = 30.0) -> Any:
        """Submit ``op`` through the session; block for the response.

        Serialized per handle (sessions allow one outstanding RMW —
        that is what makes the reply cache exactly-once); open more
        :class:`NetKV` handles for concurrency.
        """
        with self._lock:
            return self._execute_locked(op, timeout)

    def _execute_locked(self, op: Any, timeout: float) -> Any:
        done = threading.Event()
        box: list = [None]

        def arm() -> None:
            future = self.session.submit(op)

            def resolved(value: Any) -> None:
                box[0] = value
                done.set()

            future.on_resolve(resolved)

        self.runtime.call(arm)
        if not done.wait(timeout):
            raise OpTimeout(
                f"operation {op!r} not acknowledged within {timeout}s "
                f"(session {self.pid} keeps retrying underneath)"
            )
        return box[0]

    # ------------------------------------------------------------------
    # KV sugar
    # ------------------------------------------------------------------
    def put(self, key: Any, value: Any, timeout: float = 30.0) -> Any:
        return self.execute(kvstore.put(key, value), timeout)

    def get(self, key: Any, timeout: float = 30.0) -> Any:
        return self.execute(kvstore.get(key), timeout)

    def delete(self, key: Any, timeout: float = 30.0) -> Any:
        return self.execute(kvstore.delete(key), timeout)

    def increment(self, key: Any, amount: int = 1,
                  timeout: float = 30.0) -> Any:
        return self.execute(kvstore.increment(key, amount), timeout)

    def scan(self, timeout: float = 30.0) -> Any:
        return self.execute(kvstore.scan(), timeout)

    def close(self) -> None:
        self.runtime.close()

    def __enter__(self) -> "NetKV":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
