"""Asyncio TCP runtime: the real-network substrate behind the seam.

One :class:`AsyncioRuntime` lives in each OS process and hosts that
process's protocol objects (a replica, a leaseholder, or client
sessions).  It implements the :class:`~repro.net.runtime.Runtime`
interface over:

* **Framed TCP connections.**  Every frame is a 4-byte big-endian
  length prefix followed by ``pickle((src, dst, msg))``.  Messages are
  the frozen dataclasses of :mod:`repro.core.messages` — plain data,
  picklable by construction.  Frames above :data:`MAX_FRAME` are
  rejected (a corrupt length prefix must not allocate gigabytes).
* **Per-peer outbound queues with backpressure.**  Each peer has one
  `_PeerLink` owning a bounded deque and a writer task; the writer
  awaits ``drain()`` after each frame, so TCP backpressure slows the
  queue's consumer, and when the queue overflows the *oldest* frames
  are dropped (counted in ``counters``).  Dropping is safe: every
  protocol loop retransmits (the paper's model already allows loss
  before GST).
* **Reconnect with exponential backoff.**  A link that fails redials
  with delay doubling from ``reconnect_min`` to ``reconnect_max``
  (jittered by the runtime's own RNG stream), forever — peers may
  outlive many restarts of each other.
* **Heartbeat-based failure suspicion.**  The simulator's network
  checks ``process.crashed`` omnisciently; a real network cannot.
  Links exchange lightweight ping frames every ``ping_period`` and
  ``peer_suspected(pid)`` reports peers not heard from within
  ``suspicion_timeout``.  The protocol itself never needs this — its
  own :class:`~repro.leader.omega.HeartbeatOmega` runs unmodified over
  this runtime — but servers use it for ops visibility and the bench
  uses it to time failover.
* **Wall-clock time.**  ``now`` is milliseconds since the cluster
  epoch (a config constant), read from ``time.time()`` so all
  processes on one machine — or NTP-disciplined machines — share it;
  the per-process local clock is the identity.  One time unit is one
  millisecond, the simulator's convention, so a
  :class:`~repro.core.config.ChtConfig` means the same thing here.
  Timers map through ``loop.call_at(loop.time() + (fire - now)/1000)``.

Threading contract: everything protocol-facing runs on the event-loop
thread — ``deliver``, timer callbacks, sends.  The runtime can own a
background thread (:meth:`start_background`) for synchronous callers
(the client API, tests); they hop onto the loop via :meth:`call` /
:meth:`build`.
"""

from __future__ import annotations

import asyncio
import pickle
import random
import struct
import threading
import time
from collections import deque
from typing import Any, Callable, Dict, Optional

from .runtime import IDENTITY_CLOCK, Runtime, label_rng

__all__ = ["AsyncioRuntime", "Ping", "MAX_FRAME"]

_LEN = struct.Struct(">I")

#: Upper bound on one frame's payload (16 MiB).  A corrupt or hostile
#: length prefix must not make the reader allocate unbounded memory.
MAX_FRAME = 16 * 1024 * 1024


class Ping:
    """Transport-level heartbeat frame; never delivered to protocols."""

    __slots__ = ()

    def __reduce__(self) -> tuple:
        return (Ping, ())


_PING = Ping()


class _WallTimer:
    """Timer handle satisfying :class:`~repro.net.runtime.TimerHandle`."""

    __slots__ = ("time", "cancelled", "_handle")

    def __init__(self, fire_time: float) -> None:
        self.time = fire_time
        self.cancelled = False
        self._handle: Optional[asyncio.TimerHandle] = None

    def cancel(self) -> None:
        self.cancelled = True
        if self._handle is not None:
            self._handle.cancel()


class _PeerLink:
    """One outbound connection: bounded queue, writer task, redial loop."""

    def __init__(self, rt: "AsyncioRuntime", pid: int, host: str,
                 port: int) -> None:
        self.rt = rt
        self.pid = pid
        self.host = host
        self.port = port
        self.queue: deque = deque()
        self.wakeup = asyncio.Event()
        self.task: Optional[asyncio.Task] = None
        self.connected = False

    def start(self) -> None:
        if self.task is None:
            self.task = self.rt.loop.create_task(self._run())

    def enqueue(self, frame: bytes) -> None:
        if len(self.queue) >= self.rt.queue_limit:
            self.queue.popleft()
            self.rt.counters["net.dropped_overflow"] += 1
        self.queue.append(frame)
        self.wakeup.set()

    async def _run(self) -> None:
        backoff = self.rt.reconnect_min
        while not self.rt.closing:
            try:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port)
            except OSError:
                self.rt.counters["net.dial_failed"] += 1
                await asyncio.sleep(
                    backoff * (0.5 + self.rt._transport_rng.random()))
                backoff = min(backoff * 2, self.rt.reconnect_max)
                continue
            backoff = self.rt.reconnect_min
            self.connected = True
            self.rt.counters["net.connected"] += 1
            # The peer replies (and pings) over this same socket, so the
            # dialing side must read it too.
            reader_task = self.rt.loop.create_task(
                self.rt._read_frames(reader, inbound=False))
            try:
                await self._write_loop(writer)
            except (OSError, ConnectionError):
                self.rt.counters["net.conn_lost"] += 1
            finally:
                self.connected = False
                reader_task.cancel()
                writer.close()

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        ping_every = self.rt.ping_period
        while not self.rt.closing:
            while self.queue:
                writer.write(self.queue.popleft())
                # drain() after each frame: genuine TCP backpressure —
                # a slow peer slows this writer, not the event loop.
                await writer.drain()
            self.wakeup.clear()
            if self.queue:
                continue
            try:
                await asyncio.wait_for(self.wakeup.wait(), timeout=ping_every)
            except asyncio.TimeoutError:
                writer.write(self.rt._ping_frame)
                await writer.drain()


class AsyncioRuntime(Runtime):
    """Runtime over asyncio TCP.  See the module docstring."""

    def __init__(
        self,
        pid: int,
        peers: Dict[int, tuple],
        listen: Optional[tuple] = None,
        epoch: float = 0.0,
        seed: int = 0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
        ping_period: float = 0.25,
        suspicion_timeout: float = 1.0,
        reconnect_min: float = 0.05,
        reconnect_max: float = 1.0,
        queue_limit: int = 4096,
        broadcast_pids: Optional[list] = None,
    ) -> None:
        self.pid = pid
        # pid -> (host, port) for every *listening* peer (replicas and
        # leaseholders).  Clients are not in the map: they dial in and
        # receive replies over their inbound socket.
        self.peers = dict(peers)
        self.listen = listen
        self.epoch = epoch
        self.seed = seed
        self.ping_period = ping_period
        self.suspicion_timeout = suspicion_timeout
        self.reconnect_min = reconnect_min
        self.reconnect_max = reconnect_max
        self.queue_limit = queue_limit
        # Broadcast set: the protocol members (all replicas and
        # leaseholders), as in the simulator's Network.broadcast.
        # Clients are never members; they receive only directed replies.
        self.broadcast_pids = (
            sorted(broadcast_pids) if broadcast_pids is not None
            else sorted(self.peers)
        )
        self.obs: Optional[Any] = None
        self.time_unit = "wall-ms"
        self.closing = False
        self.counters: Dict[str, int] = {
            "net.sent": 0, "net.delivered": 0, "net.dropped_overflow": 0,
            "net.dropped_unroutable": 0, "net.dial_failed": 0,
            "net.connected": 0, "net.conn_lost": 0, "net.bad_frame": 0,
        }
        self.events_processed = 0  # delivered messages + fired timers
        self._processes: Dict[int, Any] = {}
        self._links: Dict[int, _PeerLink] = {}
        # Reverse channels: writer per peer that dialed *us* (clients,
        # and any listed peer whose inbound socket arrived first).
        self._inbound: Dict[int, asyncio.StreamWriter] = {}
        self._last_seen: Dict[int, float] = {}
        self._ping_frame = self._encode(pid, -1, _PING)
        self._fork_counts: Dict[str, int] = {}
        self._transport_rng = label_rng(seed, f"transport-{pid}")
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._loop_ready = threading.Event()
        self.loop = loop  # set in start()/start_background() if None

    # ------------------------------------------------------------------
    # Runtime interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock milliseconds since the cluster epoch."""
        return (time.time() - self.epoch) * 1000.0

    def local_clock(self, pid: int):
        return IDENTITY_CLOCK

    def attach_obs(self, obs: Any) -> None:
        """ObsContext clock-source hook (mirrors ``Simulator.attach_obs``)."""
        self.obs = obs

    def fork_rng(self, label: str) -> random.Random:
        # Same semantics as Simulator.fork_rng: the k-th call for a
        # label yields stream (seed, label, k) — repeated forks are
        # independent, and an identically-seeded runtime making the
        # same calls reproduces the same streams.
        k = self._fork_counts.get(label, 0)
        self._fork_counts[label] = k + 1
        return label_rng(self.seed, label, k)

    def register(self, process: Any) -> None:
        self._processes[process.pid] = process

    def send(self, src: int, dst: int, msg: Any) -> None:
        if dst == src:
            raise ValueError(f"process {src} tried to message itself")
        self.counters["net.sent"] += 1
        local = self._processes.get(dst)
        if local is not None:
            # Same-runtime shortcut (e.g. several client sessions in one
            # process); scheduled, not inline, to preserve the
            # no-reentrant-delivery contract.
            self.loop.call_soon(self._deliver_local, src, dst, msg)
            return
        frame = self._encode(src, dst, msg)
        link = self._links.get(dst)
        if link is not None:
            link.enqueue(frame)
            return
        writer = self._inbound.get(dst)
        if writer is not None:
            self._write_inbound(dst, writer, frame)
            return
        self.counters["net.dropped_unroutable"] += 1

    def broadcast(self, src: int, msg: Any) -> None:
        for dst in self.broadcast_pids:
            if dst != src:
                self.send(src, dst, msg)

    def schedule_at(self, fire_time: float, callback: Callable[..., Any],
                    *args: Any) -> _WallTimer:
        timer = _WallTimer(fire_time)
        delay_s = max(fire_time - self.now, 0.0) / 1000.0

        def fire() -> None:
            if not timer.cancelled and not self.closing:
                self.events_processed += 1
                callback(*args)

        timer._handle = self.loop.call_at(self.loop.time() + delay_s, fire)
        return timer

    # ------------------------------------------------------------------
    # Failure suspicion
    # ------------------------------------------------------------------
    def peer_suspected(self, pid: int) -> bool:
        """True when ``pid`` has not been heard from for a suspicion
        timeout.  Transport-level suspicion for ops/benchmarks; the
        protocol's own Omega does not use it."""
        last = self._last_seen.get(pid)
        if last is None:
            return True
        return time.monotonic() - last > self.suspicion_timeout

    def peers_alive(self) -> list:
        return [p for p in self.peers if not self.peer_suspected(p)]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start on the current event loop: listener + peer links."""
        if self.loop is None:
            self.loop = asyncio.get_running_loop()
        if self.listen is not None:
            host, port = self.listen
            self._server = await asyncio.start_server(
                self._accept, host, port)
        for pid, (host, port) in self.peers.items():
            if pid == self.pid:
                continue
            link = _PeerLink(self, pid, host, port)
            self._links[pid] = link
            link.start()

    def start_background(self) -> None:
        """Run the loop on a daemon thread (synchronous callers)."""
        if self._thread is not None:
            return
        self.loop = asyncio.new_event_loop()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self._background_main())

        self._thread = threading.Thread(
            target=run, name=f"asyncio-rt-{self.pid}", daemon=True)
        self._thread.start()
        self._loop_ready.wait()

    async def _background_main(self) -> None:
        await self.start()
        self._loop_ready.set()
        while not self.closing:
            await asyncio.sleep(0.05)
        await self.shutdown()

    async def shutdown(self) -> None:
        """Stop the listener and cancel link/reader tasks."""
        self.closing = True
        if self._server is not None:
            self._server.close()
        current = asyncio.current_task()
        pending = [t for t in asyncio.all_tasks(self.loop) if t is not current]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)

    def call(self, fn: Callable[[], Any], timeout: float = 30.0) -> Any:
        """Run ``fn()`` on the loop thread and return its result."""
        done = threading.Event()
        box: list = [None, None]

        def run() -> None:
            try:
                box[0] = fn()
            except BaseException as exc:  # propagated to the caller
                box[1] = exc
            done.set()

        self.loop.call_soon_threadsafe(run)
        if not done.wait(timeout):
            raise TimeoutError("loop call timed out")
        if box[1] is not None:
            raise box[1]
        return box[0]

    def build(self, factory: Callable[[], Any]) -> Any:
        """Construct a protocol object on the loop thread (processes
        must only ever be touched from there)."""
        return self.call(factory)

    def close(self) -> None:
        self.closing = True
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            if not self.loop.is_closed():
                self.loop.call_soon_threadsafe(lambda: None)

    # ------------------------------------------------------------------
    # Framing
    # ------------------------------------------------------------------
    def _encode(self, src: int, dst: int, msg: Any) -> bytes:
        payload = pickle.dumps((src, dst, msg),
                               protocol=pickle.HIGHEST_PROTOCOL)
        return _LEN.pack(len(payload)) + payload

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await self._read_frames(reader, inbound=True, writer=writer)
        writer.close()

    async def _read_frames(self, reader: asyncio.StreamReader,
                           inbound: bool,
                           writer: Optional[asyncio.StreamWriter] = None
                           ) -> None:
        try:
            while not self.closing:
                header = await reader.readexactly(_LEN.size)
                (length,) = _LEN.unpack(header)
                if length > MAX_FRAME:
                    self.counters["net.bad_frame"] += 1
                    return
                payload = await reader.readexactly(length)
                try:
                    src, dst, msg = pickle.loads(payload)
                except Exception:
                    self.counters["net.bad_frame"] += 1
                    continue
                self._last_seen[src] = time.monotonic()
                if inbound and writer is not None:
                    # Remember the reverse channel; replies to a
                    # dialing-only peer (a client) go back this way.
                    self._inbound[src] = writer
                if isinstance(msg, Ping):
                    continue
                self._deliver_local(src, dst, msg)
        except (asyncio.IncompleteReadError, ConnectionError, OSError,
                asyncio.CancelledError):
            return

    def _write_inbound(self, dst: int, writer: asyncio.StreamWriter,
                       frame: bytes) -> None:
        if writer.is_closing():
            self._inbound.pop(dst, None)
            self.counters["net.dropped_unroutable"] += 1
            return
        try:
            writer.write(frame)
        except (ConnectionError, OSError, RuntimeError):
            self._inbound.pop(dst, None)
            self.counters["net.dropped_unroutable"] += 1

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_local(self, src: int, dst: int, msg: Any) -> None:
        process = self._processes.get(dst)
        if process is None:
            self.counters["net.dropped_unroutable"] += 1
            return
        self.counters["net.delivered"] += 1
        self.events_processed += 1
        try:
            process.deliver(src, msg)
        except Exception:  # a protocol bug must not kill the transport
            import traceback
            traceback.print_exc()
