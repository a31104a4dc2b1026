"""Replica/leaseholder server: one OS process per cluster member.

Usage::

    python -m repro.net.server --config cluster.json --pid 0

hosts pid 0 of the cluster described by ``cluster.json`` (a
:class:`~repro.net.config.ClusterSpec` file, JSON or TOML): a
:class:`~repro.core.replica.ChtReplica` for pids ``0..n-1``, a
:class:`~repro.core.leaseholder.Leaseholder` for pids ``n..n+L-1`` —
the *same* protocol classes the simulator runs, hosted on an
:class:`~repro.net.asyncio_rt.AsyncioRuntime`.

With ``storage_dir`` set in the config, the replica gets
:class:`~repro.durable.disk.FileStorage` durability (WAL + snapshots in
``<storage_dir>/replica-<pid>/``) and recovers from it at boot, so a
SIGKILL'd server restarted by an operator rejoins with its promises and
reply cache intact (exactly-once across restarts).  ``sync`` is the
same synchronous fsync path the durability examples use; it runs on
the event-loop thread, which briefly delays I/O — fine at this scale,
and the obvious place for an io-thread offload later.

The server prints ``READY pid=<pid>`` on stdout once listening
(launchers wait for it) and runs until SIGTERM/SIGINT.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Any, Optional

from ..core.leaseholder import Leaseholder
from ..core.replica import ChtReplica
from .asyncio_rt import AsyncioRuntime
from .config import ClusterSpec, make_object_spec

__all__ = ["build_server", "main"]


def build_server(spec: ClusterSpec, pid: int, runtime: AsyncioRuntime) -> Any:
    """Construct the protocol process for ``pid`` on its runtime.

    The runtime must already be started (its loop running); call this
    from the loop thread (directly in async code, or via
    ``runtime.build``).
    """
    obj = make_object_spec(spec.object_name)
    if pid in spec.replica_pids:
        replica = ChtReplica(pid, runtime, obj, spec.config)
        if spec.num_leaseholders:
            replica.leaseholder_pids = frozenset(spec.leaseholder_pids)
        storage_root = spec.storage_path(pid)
        if storage_root is not None:
            from ..durable import ReplicaDurability
            from ..durable.disk import FileStorage

            replica.attach_durability(
                ReplicaDurability(FileStorage(str(storage_root))))
            # Recover whatever an earlier incarnation persisted;
            # recovering from empty storage is the identity.
            replica._recover_from_storage()
        replica.start()
        return replica
    if pid in spec.leaseholder_pids:
        holder = Leaseholder(pid, runtime, obj, spec.config)
        holder.start()
        return holder
    raise ValueError(f"pid {pid} is not a member of this cluster")


def make_runtime(spec: ClusterSpec, pid: int) -> AsyncioRuntime:
    return AsyncioRuntime(
        pid,
        peers=spec.peer_map(exclude=pid),
        listen=spec.address(pid),
        epoch=spec.epoch,
        seed=spec.seed,
        broadcast_pids=list(spec.server_pids),
    )


async def serve(spec: ClusterSpec, pid: int) -> None:
    runtime = make_runtime(spec, pid)
    await runtime.start()
    build_server(spec, pid, runtime)
    print(f"READY pid={pid}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    await stop.wait()
    await runtime.shutdown()


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.net.server",
        description="Run one replica/leaseholder of a real CHT cluster.",
    )
    parser.add_argument("--config", required=True,
                        help="cluster spec file (JSON or TOML)")
    parser.add_argument("--pid", type=int, required=True,
                        help="this member's pid (0..n-1 replicas, "
                             "n..n+L-1 leaseholders)")
    args = parser.parse_args(argv)
    spec = ClusterSpec.load(args.config)
    try:
        asyncio.run(serve(spec, args.pid))
    except KeyboardInterrupt:  # pragma: no cover
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
